// Multi-fidelity probe surface tests: ladder-spec parsing, the reduced-
// probe cost/bias/noise model, fidelity-keyed probe-gate isolation, the
// versioned journal compatibility story (ladder-free runs write version-1
// bytes; resumes under a different ladder are refused), the kill-point
// resume sweep through a mixed-fidelity run, the ladder-vs-full HeterBO
// claim over the paper's constrained scenarios, and the GP's
// heteroscedastic noise treatment of cheap observations.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <unordered_map>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/deployment.hpp"
#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "models/model_zoo.hpp"
#include "profiler/fidelity.hpp"
#include "profiler/probe_gate.hpp"
#include "profiler/profiler.hpp"
#include "search/heter_bo.hpp"

namespace mlcd {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::path(testing::TempDir()) / name).string();
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

/// Byte offsets of every record boundary (position just after each '\n'),
/// including 0 and the file size.
std::vector<std::size_t> record_boundaries(const std::string& bytes) {
  std::vector<std::size_t> offsets = {0};
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    if (bytes[i] == '\n') offsets.push_back(i + 1);
  }
  return offsets;
}

// ------------------------------------------------------ ladder spec

TEST(FidelitySpec, ParsesAndFormatsLadder) {
  const std::vector<profiler::Fidelity> rungs =
      profiler::parse_fidelity_rungs("0.5:1,0.25:2");
  ASSERT_EQ(rungs.size(), 2u);
  EXPECT_DOUBLE_EQ(rungs[0].sample_fraction, 0.5);
  EXPECT_EQ(rungs[0].iteration_tier, 1);
  EXPECT_DOUBLE_EQ(rungs[1].sample_fraction, 0.25);
  EXPECT_EQ(rungs[1].iteration_tier, 2);
  EXPECT_FALSE(rungs[0].is_full());
  EXPECT_EQ(profiler::format_fidelity_rungs(rungs), "0.5:1,0.25:2");
  EXPECT_EQ(profiler::format_fidelity_rungs({}), "");

  // A rung reduced on only one axis is legal: sub-sampling without
  // window truncation and vice versa.
  const std::vector<profiler::Fidelity> one_axis =
      profiler::parse_fidelity_rungs("0.5:0,1:2");
  EXPECT_EQ(one_axis[0].iteration_tier, 0);
  EXPECT_DOUBLE_EQ(one_axis[1].sample_fraction, 1.0);
}

TEST(FidelitySpec, RejectsMalformedSpecs) {
  for (const char* bad : {"", "0.5", "0.5:", ":1", "abc:1", "0.5:x",
                          "0:1", "-0.5:1", "1.5:1", "0.5:-1", "0.5:9",
                          "1:0", "0.5:1,,0.25:2", "0.5:1x"}) {
    EXPECT_THROW(profiler::parse_fidelity_rungs(bad),
                 std::invalid_argument)
        << "spec '" << bad << "' was accepted";
  }
  try {
    profiler::parse_fidelity_rungs("1:0");
    FAIL() << "the implicit full rung was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("fidelity ladder"),
              std::string::npos)
        << e.what();
  }
}

TEST(FidelitySpec, LadderHashSeparatesConfigurations) {
  profiler::FidelityOptions off;
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(profiler::hash_fidelity_ladder(off), 0u);

  profiler::FidelityOptions a;
  a.rungs = profiler::parse_fidelity_rungs("0.5:1,0.25:2");
  profiler::FidelityOptions b;
  b.rungs = profiler::parse_fidelity_rungs("0.5:1");
  const std::uint64_t ha = profiler::hash_fidelity_ladder(a);
  const std::uint64_t hb = profiler::hash_fidelity_ladder(b);
  EXPECT_NE(ha, 0u);
  EXPECT_NE(hb, 0u);
  EXPECT_NE(ha, hb);

  // The bias/noise envelope shapes measurements, so it is part of the
  // ladder identity too.
  profiler::FidelityOptions c = a;
  c.max_speed_bias = 0.10;
  EXPECT_NE(profiler::hash_fidelity_ladder(c), ha);

  EXPECT_DOUBLE_EQ(profiler::fidelity_window_fraction(0), 1.0);
  EXPECT_DOUBLE_EQ(profiler::fidelity_window_fraction(2), 0.25);
}

// ----------------------------------------------- cost / bias / noise

class FidelityProfilerTest : public testing::Test {
 protected:
  FidelityProfilerTest()
      : space_(cloud::aws_catalog(), 50),
        perf_(cloud::aws_catalog()),
        meter_(space_) {}

  perf::TrainingConfig config(const char* model = "resnet") const {
    perf::TrainingConfig c;
    c.model = models::paper_zoo().model(model);
    c.platform = perf::tensorflow_profile();
    c.topology = perf::CommTopology::kParameterServer;
    return c;
  }

  std::size_t type_of(const char* name) const {
    return *cloud::aws_catalog().find(name);
  }

  cloud::DeploymentSpace space_;
  perf::TrainingPerfModel perf_;
  cloud::BillingMeter meter_;
};

TEST_F(FidelityProfilerTest, FullFidelityDefaultsMatchLegacyArithmetic) {
  profiler::Profiler profiler(perf_, space_, meter_, 1);
  const auto cfg = config();
  const cloud::Deployment d{type_of("c5.xlarge"), 10};
  // The defaulted-fidelity overloads and an explicit Fidelity{} are the
  // same computation — the single ProbeRequest entry point did not
  // change the legacy cost arithmetic.
  EXPECT_DOUBLE_EQ(profiler.expected_profile_hours(cfg, d),
                   profiler.expected_profile_hours(cfg, d, {}));
  EXPECT_DOUBLE_EQ(profiler.expected_profile_cost(cfg, d),
                   profiler.expected_profile_cost(cfg, d, {}));
  EXPECT_DOUBLE_EQ(profiler.worst_case_profile_hours(cfg, d),
                   profiler.worst_case_profile_hours(cfg, d, {}));
  EXPECT_DOUBLE_EQ(profiler.worst_case_profile_cost(cfg, d),
                   profiler.worst_case_profile_cost(cfg, d, {}));

  const profiler::ProfilerOptions options;
  EXPECT_DOUBLE_EQ(profiler::fidelity_speed_bias(options, {}), 0.0);
  EXPECT_DOUBLE_EQ(profiler::fidelity_noise_multiplier(options, {}), 1.0);
  EXPECT_EQ(profiler::fidelity_iterations(options, {}), options.iterations);
}

TEST_F(FidelityProfilerTest, ReducedRungIsCheaperThanFull) {
  profiler::Profiler profiler(perf_, space_, meter_, 1);
  const auto cfg = config();
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};
  const profiler::Fidelity low{0.25, 2};
  EXPECT_LT(profiler.expected_profile_hours(cfg, d, low),
            profiler.expected_profile_hours(cfg, d));
  EXPECT_LT(profiler.expected_profile_cost(cfg, d, low),
            profiler.expected_profile_cost(cfg, d));
  EXPECT_LT(profiler.worst_case_profile_hours(cfg, d, low),
            profiler.worst_case_profile_hours(cfg, d));
  // The intermediate rung lands between the cheapest rung and the full
  // probe: the ladder is monotone in cost.
  const profiler::Fidelity mid{0.5, 1};
  EXPECT_GT(profiler.expected_profile_cost(cfg, d, mid),
            profiler.expected_profile_cost(cfg, d, low));
  EXPECT_LT(profiler.expected_profile_cost(cfg, d, mid),
            profiler.expected_profile_cost(cfg, d));
}

TEST_F(FidelityProfilerTest, BiasAndNoiseEnvelopesInterpolate) {
  profiler::ProfilerOptions options;
  options.fidelity.rungs = profiler::parse_fidelity_rungs("0.5:1,0.25:2");
  const double max_bias = options.fidelity.max_speed_bias;
  EXPECT_DOUBLE_EQ(profiler::fidelity_speed_bias(options, {0.5, 1}),
                   max_bias * 0.5);
  EXPECT_DOUBLE_EQ(profiler::fidelity_speed_bias(options, {0.25, 2}),
                   max_bias * 0.75);
  // Fewer iterations and extra sub-sampling sigma both widen the noise.
  EXPECT_GT(profiler::fidelity_noise_multiplier(options, {0.25, 2}),
            profiler::fidelity_noise_multiplier(options, {0.5, 1}));
  EXPECT_GT(profiler::fidelity_noise_multiplier(options, {0.5, 1}), 1.0);
  // Window halvings floor at 2 iterations.
  EXPECT_EQ(profiler::fidelity_iterations(options, {1.0, 1}),
            options.iterations / 2);
  EXPECT_EQ(profiler::fidelity_iterations(options, {1.0, 8}), 2);
}

TEST_F(FidelityProfilerTest, ReducedProbeIsOptimisticAndBilledLess) {
  profiler::ProfilerOptions options;
  options.fidelity.rungs = profiler::parse_fidelity_rungs("0.25:2");
  // Quiet both noise sources so the bias dominates the measurement.
  options.noise_sigma = 1e-4;
  options.fidelity.max_extra_noise = 0.0;
  const cloud::Deployment d{type_of("c5.4xlarge"), 10};

  cloud::BillingMeter full_meter(space_);
  profiler::Profiler full(perf_, space_, full_meter, 7, options);
  const profiler::ProfileResult fr = full.profile(config(), {d});

  cloud::BillingMeter low_meter(space_);
  profiler::Profiler low(perf_, space_, low_meter, 7, options);
  const profiler::ProfileResult lr =
      low.profile(config(), {d, profiler::Fidelity{0.25, 2}});

  ASSERT_TRUE(fr.feasible);
  ASSERT_TRUE(lr.feasible);
  EXPECT_TRUE(fr.fidelity.is_full());
  EXPECT_DOUBLE_EQ(lr.fidelity.sample_fraction, 0.25);
  EXPECT_EQ(lr.fidelity.iteration_tier, 2);
  EXPECT_LT(lr.profile_hours, fr.profile_hours);
  EXPECT_LT(lr.profile_cost, fr.profile_cost);
  EXPECT_LT(lr.iterations, fr.iterations);
  // Same substrate, same ground truth — but the cheap probe's measured
  // speed is optimistically inflated by the configured bias envelope.
  EXPECT_DOUBLE_EQ(lr.true_speed, fr.true_speed);
  const double bias =
      profiler::fidelity_speed_bias(options, lr.fidelity);
  EXPECT_NEAR(lr.measured_speed / lr.true_speed, 1.0 + bias, 0.02);
  EXPECT_NEAR(lr.profile_cost,
              low_meter.total_cost(cloud::UsageKind::kProfiling), 1e-12);
}

// --------------------------------------------- fidelity-keyed gating

/// Minimal shared probe cache: admit() serves an exact key match,
/// publish() stores first-writer-wins — the ProbeKey soundness contract
/// with none of the service scheduler around it.
class RecordingGate final : public profiler::ProbeGate {
 public:
  std::optional<journal::ProbeRecord> admit(
      const profiler::ProbeKey& key, const cloud::Deployment&) override {
    keys_seen.push_back(key);
    const auto it = cache_.find(key);
    if (it == cache_.end()) return std::nullopt;
    ++hits;
    return it->second;
  }
  void publish(const profiler::ProbeKey& key, const cloud::Deployment&,
               const journal::ProbeRecord& outcome) override {
    cache_.emplace(key, outcome);
  }
  void abandon(const cloud::Deployment&) noexcept override {}

  std::vector<profiler::ProbeKey> keys_seen;
  int hits = 0;

 private:
  std::unordered_map<profiler::ProbeKey, journal::ProbeRecord,
                     profiler::ProbeKeyHash>
      cache_;
};

TEST_F(FidelityProfilerTest, ProbeKeyCarriesTheRequestedFidelity) {
  profiler::Profiler profiler(perf_, space_, meter_, 1);
  const cloud::Deployment d{type_of("c5.xlarge"), 4};
  const profiler::ProbeKey full_key = profiler.next_probe_key({d});
  const profiler::ProbeKey low_key =
      profiler.next_probe_key({d, profiler::Fidelity{0.5, 1}});
  EXPECT_DOUBLE_EQ(full_key.sample_fraction, 1.0);
  EXPECT_EQ(full_key.iteration_tier, 0);
  EXPECT_DOUBLE_EQ(low_key.sample_fraction, 0.5);
  EXPECT_EQ(low_key.iteration_tier, 1);
  EXPECT_FALSE(full_key == low_key);
  // Distinct rungs of the same deployment are distinct keys too.
  const profiler::ProbeKey lower_key =
      profiler.next_probe_key({d, profiler::Fidelity{0.25, 2}});
  EXPECT_FALSE(low_key == lower_key);
}

TEST_F(FidelityProfilerTest, GateNeverServesAcrossFidelities) {
  profiler::ProfilerOptions options;
  options.fidelity.rungs = profiler::parse_fidelity_rungs("0.5:1");
  const cloud::Deployment d{type_of("c5.4xlarge"), 6};
  const profiler::Fidelity low{0.5, 1};
  RecordingGate gate;
  constexpr std::uint64_t kSubstrate = 0x5eed;

  // Job A measures d at the reduced rung and publishes it.
  cloud::BillingMeter ma(space_);
  profiler::Profiler a(perf_, space_, ma, 11, options);
  a.set_gate(&gate, kSubstrate);
  const profiler::ProfileResult ra = a.profile(config(), {d, low});
  ASSERT_TRUE(ra.feasible);
  EXPECT_EQ(gate.hits, 0);

  // Job B (same substrate, same empty history) asks for the *full*
  // probe of the same deployment: the cached low-fidelity measurement
  // must not be served — it is a different computation.
  cloud::BillingMeter mb(space_);
  profiler::Profiler b(perf_, space_, mb, 11, options);
  b.set_gate(&gate, kSubstrate);
  const profiler::ProfileResult rb = b.profile(config(), {d});
  EXPECT_EQ(gate.hits, 0);
  EXPECT_EQ(b.cache_served_probes(), 0);
  EXPECT_GT(rb.profile_cost, ra.profile_cost);

  // Job C repeats A's exact request: served from the cache, trace-
  // neutrally (not marked replayed), with the identical measurement.
  cloud::BillingMeter mc(space_);
  profiler::Profiler c(perf_, space_, mc, 11, options);
  c.set_gate(&gate, kSubstrate);
  const profiler::ProfileResult rc = c.profile(config(), {d, low});
  EXPECT_EQ(gate.hits, 1);
  EXPECT_EQ(c.cache_served_probes(), 1);
  EXPECT_FALSE(rc.replayed);
  EXPECT_EQ(rc.measured_speed, ra.measured_speed);
  EXPECT_EQ(rc.profile_cost, ra.profile_cost);
  EXPECT_DOUBLE_EQ(rc.fidelity.sample_fraction, 0.5);
}

// ------------------------------------------------ journal versioning

system::JobRequest ladder_request() {
  system::JobRequest request;
  request.model = "resnet";
  request.instance_types = {"c5.xlarge", "c5.4xlarge"};
  request.max_nodes = 8;
  request.requirements.budget_dollars = 150.0;
  request.seed = 7;
  // Faults on, so the resume sweep also replays multi-attempt reduced-
  // fidelity records (the fault stream is the hardest state to restore).
  request.profiler_options.faults.launch_failure_per_node = 0.02;
  request.profiler_options.faults.straggler_rate = 0.15;
  request.profiler_options.fidelity.rungs =
      profiler::parse_fidelity_rungs("0.5:1,0.25:2");
  return request;
}

TEST(FidelityJournal, LadderFreeRunWritesVersionOneBytes) {
  const system::Mlcd mlcd;
  system::JobRequest request = ladder_request();
  request.profiler_options.fidelity = {};  // ladder off
  request.journal_path = temp_path("ladderfree.mlcdj");
  ASSERT_TRUE(mlcd.deploy(request).ok());

  // The file is a pre-ladder version-1 journal, byte for byte: version
  // stamp 1, no fidelity key anywhere in header or records.
  const std::string bytes = read_file(request.journal_path);
  EXPECT_NE(bytes.find("\"version\":1"), std::string::npos);
  EXPECT_EQ(bytes.find("fidelity"), std::string::npos);
  EXPECT_EQ(bytes.find("sample_fraction"), std::string::npos);

  const journal::JournalContents back =
      journal::read_journal(request.journal_path);
  EXPECT_EQ(back.header.fidelity_ladder_hash, 0u);
  for (const journal::ProbeRecord& p : back.probes) {
    EXPECT_DOUBLE_EQ(p.sample_fraction, 1.0);
    EXPECT_EQ(p.iteration_tier, 0);
  }
}

TEST(FidelityJournal, MixedFidelityRecordsRoundTripSparsely) {
  const std::string path = temp_path("mixedfid.mlcdj");
  journal::JournalHeader header;
  header.method = "heterbo";
  header.model = "resnet";
  header.platform = "tensorflow";
  profiler::FidelityOptions ladder;
  ladder.rungs = profiler::parse_fidelity_rungs("0.5:1");
  header.fidelity_ladder_hash = profiler::hash_fidelity_ladder(ladder);

  journal::ProbeRecord low;
  low.nodes = 3;
  low.sample_fraction = 0.5;
  low.iteration_tier = 1;
  journal::ProbeRecord full;
  full.nodes = 4;  // defaults: full fidelity
  {
    journal::RunJournal j = journal::RunJournal::create(path, header);
    j.append_probe(low);
    j.append_probe(full);
  }

  const journal::JournalContents back = journal::read_journal(path);
  EXPECT_EQ(back.header.version, 2);
  EXPECT_EQ(back.header.fidelity_ladder_hash, header.fidelity_ladder_hash);
  ASSERT_EQ(back.probes.size(), 2u);
  EXPECT_DOUBLE_EQ(back.probes[0].sample_fraction, 0.5);
  EXPECT_EQ(back.probes[0].iteration_tier, 1);
  EXPECT_DOUBLE_EQ(back.probes[1].sample_fraction, 1.0);
  EXPECT_EQ(back.probes[1].iteration_tier, 0);

  // Sparse serialization: only the reduced record carries the keys.
  const std::string bytes = read_file(path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  ASSERT_EQ(offsets.size(), 4u);  // header + 2 probes + EOF
  const std::string low_line =
      bytes.substr(offsets[1], offsets[2] - offsets[1]);
  const std::string full_line =
      bytes.substr(offsets[2], offsets[3] - offsets[2]);
  EXPECT_NE(low_line.find("sample_fraction"), std::string::npos);
  EXPECT_EQ(full_line.find("sample_fraction"), std::string::npos);
}

TEST(FidelityJournal, ResumeUnderADifferentLadderIsRefused) {
  const system::Mlcd mlcd;
  system::JobRequest request = ladder_request();
  request.journal_path = temp_path("ladder.mlcdj");
  ASSERT_TRUE(mlcd.deploy(request).ok());

  const auto expect_refused = [&](system::JobRequest resume,
                                  const std::string& label) {
    resume.resume_path = request.journal_path;
    const system::DeployResult outcome = mlcd.deploy(resume);
    ASSERT_FALSE(outcome.ok()) << label;
    EXPECT_EQ(outcome.error().code, system::JobErrorCode::kJournalError)
        << label;
    EXPECT_NE(outcome.error().message.find("fidelity ladder"),
              std::string::npos)
        << label << ": " << outcome.error().message;
  };

  // A different ladder proposes different probes.
  system::JobRequest other = ladder_request();
  other.profiler_options.fidelity.rungs =
      profiler::parse_fidelity_rungs("0.5:1");
  expect_refused(other, "different rungs");

  // So does the same ladder with a different bias envelope…
  system::JobRequest biased = ladder_request();
  biased.profiler_options.fidelity.max_speed_bias = 0.10;
  expect_refused(biased, "different bias envelope");

  // …and disabling the ladder entirely.
  system::JobRequest off = ladder_request();
  off.profiler_options.fidelity = {};
  expect_refused(off, "ladder disabled");

  // The mirror image: a pre-ladder (version-1) journal cannot seed a
  // ladder-enabled resume, but still resumes cleanly as the full-
  // fidelity run it recorded.
  system::JobRequest old = ladder_request();
  old.profiler_options.fidelity = {};
  old.journal_path = temp_path("preladder.mlcdj");
  ASSERT_TRUE(mlcd.deploy(old).ok());
  system::JobRequest new_ladder = ladder_request();
  new_ladder.resume_path = old.journal_path;
  const system::DeployResult refused = mlcd.deploy(new_ladder);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.error().code, system::JobErrorCode::kJournalError);
  EXPECT_NE(refused.error().message.find("fidelity ladder"),
            std::string::npos);
  system::JobRequest plain = ladder_request();
  plain.profiler_options.fidelity = {};
  plain.resume_path = old.journal_path;
  EXPECT_TRUE(mlcd.deploy(plain).ok());
}

// --------------------------------------------- mixed-fidelity resume

void expect_traces_identical(const search::SearchResult& a,
                             const search::SearchResult& b) {
  ASSERT_EQ(a.trace.size(), b.trace.size());
  for (std::size_t i = 0; i < a.trace.size(); ++i) {
    const search::ProbeStep& x = a.trace[i];
    const search::ProbeStep& y = b.trace[i];
    EXPECT_EQ(x.deployment, y.deployment) << "step " << i;
    EXPECT_EQ(x.failed, y.failed) << "step " << i;
    EXPECT_EQ(x.feasible, y.feasible) << "step " << i;
    EXPECT_EQ(x.measured_speed, y.measured_speed) << "step " << i;
    EXPECT_EQ(x.profile_hours, y.profile_hours) << "step " << i;
    EXPECT_EQ(x.profile_cost, y.profile_cost) << "step " << i;
    EXPECT_EQ(x.cum_profile_hours, y.cum_profile_hours) << "step " << i;
    EXPECT_EQ(x.cum_profile_cost, y.cum_profile_cost) << "step " << i;
    EXPECT_EQ(x.reason, y.reason) << "step " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "step " << i;
    EXPECT_EQ(x.fault, y.fault) << "step " << i;
    EXPECT_TRUE(x.fidelity == y.fidelity) << "step " << i;
  }
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.profile_hours, b.profile_hours);
  EXPECT_EQ(a.profile_cost, b.profile_cost);
  EXPECT_EQ(a.training_hours, b.training_hours);
  EXPECT_EQ(a.training_cost, b.training_cost);
}

TEST(FidelityJournal, MixedFidelityKillPointSweepResumesBitIdentically) {
  const system::Mlcd mlcd;
  system::JobRequest golden_request = ladder_request();
  golden_request.journal_path = temp_path("fidgolden.mlcdj");
  const system::RunReport golden = mlcd.deploy(golden_request).report();
  ASSERT_GE(golden.result.trace.size(), 3u);

  // The sweep only means something if the journaled run actually mixes
  // rungs: cheap exploratory probes plus full-fidelity confirmation.
  int low = 0, full = 0;
  for (const search::ProbeStep& s : golden.result.trace) {
    s.fidelity.is_full() ? ++full : ++low;
  }
  ASSERT_GT(low, 0) << "ladder run performed no reduced-fidelity probes";
  ASSERT_GT(full, 0) << "ladder run performed no full-fidelity probes";

  // A ladder-enabled run reports under schema v4 with the fidelity
  // counters and per-step rung annotations.
  const std::string json = golden.to_json();
  EXPECT_NE(json.find("\"schema_version\":4"), std::string::npos);
  EXPECT_NE(json.find("\"low_fidelity_probes\":" + std::to_string(low)),
            std::string::npos);
  EXPECT_NE(json.find("\"full_fidelity_probes\":" + std::to_string(full)),
            std::string::npos);
  EXPECT_NE(json.find("\"sample_fraction\""), std::string::npos);

  const std::string bytes = read_file(golden_request.journal_path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  // For every record boundary after the header AND a cut mid-way through
  // the following record (a torn write), the resume must reproduce the
  // golden run bit-identically with zero probes re-executed — including
  // every record's fidelity.
  for (std::size_t b = 1; b + 1 < offsets.size(); ++b) {
    for (const bool torn : {false, true}) {
      const std::size_t cut =
          torn ? offsets[b] + (offsets[b + 1] - offsets[b]) / 2
               : offsets[b];
      const std::string label =
          "cut at byte " + std::to_string(cut) +
          (torn ? " (mid-record)" : " (record boundary)");
      const std::string path = temp_path("fidkillpoint.mlcdj");
      write_file(path, bytes.substr(0, cut));
      const int journaled_probes = static_cast<int>(
          journal::read_journal(path).probes.size());

      system::JobRequest resume_request = ladder_request();
      resume_request.resume_path = path;
      const system::DeployResult outcome = mlcd.deploy(resume_request);
      ASSERT_TRUE(outcome.ok()) << label << ": "
                                << outcome.error().message;
      SCOPED_TRACE(label);
      const system::RunReport& resumed = outcome.report();
      expect_traces_identical(golden.result, resumed.result);
      EXPECT_EQ(resumed.result.replayed_probes, journaled_probes);
      for (int i = 0; i < journaled_probes; ++i) {
        EXPECT_TRUE(resumed.result.trace[i].replayed) << label;
      }
    }
  }
}

// ------------------------------------------ ladder vs full fidelity

// The ladder's claim over the paper's two constrained scenarios
// (restricted 3-type catalog, four seeds): cheap reduced sweeps plus
// full-fidelity confirmation find a deployment wherever full fidelity
// runs, keep every constraint the full-fidelity run met, spend at most
// 95% of its probe dollars, and settle within 10% of its final quality
// (the confirm stage may pick a near-optimal neighbor; 10% is the
// envelope the de-biased reduced measurements guarantee). All simulated
// dollars and hours, so the ratios are machine-independent.
TEST(FidelityLadder, ProbesCheaperAtComparableQualityInBothScenarios) {
  const cloud::InstanceCatalog cat = cloud::aws_catalog().subset(
      std::vector<std::string>{"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  const cloud::DeploymentSpace space(cat, 50);
  const perf::TrainingPerfModel perf(cat);
  const search::HeterBoSearcher heterbo(perf);

  const struct {
    const char* name;
    const char* model;
    search::Scenario scenario;
    // The scenario's own "minimize this" metric of the final pick.
    double (*quality)(const search::SearchResult&);
  } cases[] = {
      {"budget", "char_rnn", search::Scenario::fastest_under_budget(120.0),
       [](const search::SearchResult& r) { return r.training_hours; }},
      {"deadline", "resnet", search::Scenario::cheapest_under_deadline(24.0),
       [](const search::SearchResult& r) { return r.training_cost; }},
  };
  for (const auto& c : cases) {
    SCOPED_TRACE(c.name);
    double ladder_cost = 0.0, full_cost = 0.0;
    double ladder_quality = 0.0, full_quality = 0.0;
    for (const std::uint64_t seed : {1ULL, 7ULL, 13ULL, 21ULL}) {
      search::SearchProblem problem;
      problem.config.model = models::paper_zoo().model(c.model);
      problem.config.platform = perf::tensorflow_profile();
      problem.config.topology = perf::CommTopology::kParameterServer;
      problem.space = &space;
      problem.scenario = c.scenario;
      problem.seed = seed;
      const search::SearchResult full = heterbo.run(problem);
      problem.profiler_options.fidelity.rungs =
          profiler::parse_fidelity_rungs("0.5:1,0.25:2");
      const search::SearchResult ladder = heterbo.run(problem);

      EXPECT_TRUE(full.found && ladder.found) << "seed " << seed;
      EXPECT_FALSE(full.meets_constraints(c.scenario) &&
                   !ladder.meets_constraints(c.scenario))
          << "seed " << seed;
      ladder_cost += ladder.profile_cost;
      full_cost += full.profile_cost;
      ladder_quality += c.quality(ladder);
      full_quality += c.quality(full);
    }
    EXPECT_LE(ladder_cost / full_cost, 0.95)
        << "$" << ladder_cost << " vs $" << full_cost;
    EXPECT_LE(ladder_quality / full_quality, 1.10)
        << ladder_quality << " vs " << full_quality;
  }
}

// --------------------------------------------- GP heteroscedasticity

gp::GpRegressor make_gp() {
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  options.noise_stddev = 0.05;
  return gp::GpRegressor(std::make_unique<gp::Matern52Kernel>(1), options);
}

TEST(GpHeteroscedastic, UnitMultipliersMatchHomoscedasticFitExactly) {
  const linalg::Matrix x{{0.0}, {0.4}, {0.8}};
  const linalg::Vector y{1.0, 2.0, 1.5};

  gp::GpRegressor plain = make_gp();
  plain.fit(x, y);
  gp::GpRegressor hetero = make_gp();
  hetero.fit(x, y, linalg::Vector{1.0, 1.0, 1.0});

  for (const double q : {0.0, 0.2, 0.6, 1.2}) {
    const gp::Prediction a = plain.predict(std::vector<double>{q});
    const gp::Prediction b = hetero.predict(std::vector<double>{q});
    EXPECT_EQ(a.mean, b.mean) << "q=" << q;       // bit-identical
    EXPECT_EQ(a.variance, b.variance) << "q=" << q;
  }
}

TEST(GpHeteroscedastic, InflatedNoiseDeweightsAnObservation) {
  const linalg::Matrix x{{0.0}, {0.5}, {1.0}};
  const linalg::Vector y{1.0, 5.0, 1.0};  // the middle point is an outlier

  gp::GpRegressor trusted = make_gp();
  trusted.fit(x, y);
  gp::GpRegressor skeptical = make_gp();
  // The middle observation is low-fidelity: 20x the noise stddev.
  skeptical.fit(x, y, linalg::Vector{1.0, 20.0, 1.0});

  const gp::Prediction t = trusted.predict(std::vector<double>{0.5});
  const gp::Prediction s = skeptical.predict(std::vector<double>{0.5});
  // De-weighted, the outlier pulls the posterior mean far less and
  // leaves far more uncertainty behind.
  EXPECT_LT(s.mean, t.mean);
  EXPECT_GT(s.variance, t.variance);
}

TEST(GpHeteroscedastic, AddObservationCarriesItsMultiplier) {
  const linalg::Matrix x{{0.0}, {1.0}};
  const linalg::Vector y{1.0, 2.0};

  gp::GpRegressor incremental = make_gp();
  incremental.fit(x, y);
  incremental.add_observation(std::vector<double>{0.5}, 4.0, 10.0);

  gp::GpRegressor reference = make_gp();
  reference.fit(linalg::Matrix{{0.0}, {1.0}, {0.5}},
                linalg::Vector{1.0, 2.0, 4.0},
                linalg::Vector{1.0, 1.0, 10.0});

  for (const double q : {0.25, 0.5, 0.75}) {
    const gp::Prediction a = incremental.predict(std::vector<double>{q});
    const gp::Prediction b = reference.predict(std::vector<double>{q});
    EXPECT_NEAR(a.mean, b.mean, 1e-9) << "q=" << q;
    EXPECT_NEAR(a.variance, b.variance, 1e-9) << "q=" << q;
  }

  // The plain add_observation overload is exactly multiplier 1.0.
  gp::GpRegressor one = make_gp();
  one.fit(x, y);
  one.add_observation(std::vector<double>{0.5}, 4.0);
  gp::GpRegressor explicit_one = make_gp();
  explicit_one.fit(x, y);
  explicit_one.add_observation(std::vector<double>{0.5}, 4.0, 1.0);
  const gp::Prediction a = one.predict(std::vector<double>{0.5});
  const gp::Prediction b = explicit_one.predict(std::vector<double>{0.5});
  EXPECT_EQ(a.mean, b.mean);
  EXPECT_EQ(a.variance, b.variance);
}

}  // namespace
}  // namespace mlcd
