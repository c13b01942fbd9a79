// Crash-safety tests: journal framing and round-tripping, the kill-point
// resume sweep (truncate after every record boundary and mid-record,
// resume, assert the continuation is bit-identical to the golden run with
// zero probes re-executed), typed refusals for corrupt/mismatched
// journals, the journaling-overhead claim, probe watchdog semantics, and
// graceful searcher degradation.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <limits>
#include <random>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/billing.hpp"
#include "cloud/deployment.hpp"
#include "journal/journal.hpp"
#include "mlcd/mlcd.hpp"
#include "models/model_zoo.hpp"
#include "profiler/profiler.hpp"
#include "search/conv_bo.hpp"
#include "search/heter_bo.hpp"
#include "service/batch_journal.hpp"

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

// ----------------------------------------------------------------- framing

TEST(Crc32, MatchesTheStandardCheckValue) {
  EXPECT_EQ(journal::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(journal::crc32(""), 0u);
}

journal::JournalHeader sample_header() {
  journal::JournalHeader h;
  h.method = "heterbo";
  h.model = "resnet";
  h.platform = "tensorflow";
  h.scenario_kind = 2;
  h.deadline_hours = 0.0;
  h.budget_dollars = 150.0;
  h.seed = 0xDEADBEEFCAFEF00DULL;  // exercises the full uint64 range
  h.max_nodes = 8;
  h.use_spot = false;
  h.gp_refit_every = 1;
  h.catalog_hash = 0xFFFFFFFFFFFFFFFFULL;
  h.profiler_options_hash = 12345;
  h.warm_start_hash = 0;
  return h;
}

TEST(Journal, RoundTripsRecordsBitExactly) {
  const std::string path = temp_path("roundtrip.mlcdj");
  const journal::JournalHeader header = sample_header();

  journal::ProbeRecord probe;
  probe.type_index = 1;
  probe.nodes = 5;
  probe.failed = false;
  probe.feasible = true;
  // Doubles that are not exactly representable in short decimal form:
  // the journal must round-trip the exact bit pattern.
  probe.measured_speed = 0.1 + 0.2;
  probe.true_speed = 1.0 / 3.0;
  probe.profile_hours = 5e-324;  // smallest denormal
  probe.profile_cost = 1.2345678901234567;
  probe.cum_profile_hours = 1e308;
  probe.cum_profile_cost = 42.0;
  probe.acquisition = -0.007;
  probe.reason = "tei";
  probe.attempts = 2;
  probe.fault = 4;
  probe.backoff_hours = 0.031;
  probe.attempt_log = {{1, 0.05, 0.25, 0.031}, {0, 0.17, 0.85, 0.0}};

  {
    journal::RunJournal j = journal::RunJournal::create(path, header);
    j.append_probe(probe);
    j.append_degrade({3, "chaos degrade hook"});
  }

  const journal::JournalContents back = journal::read_journal(path);
  EXPECT_FALSE(back.truncated_tail);
  EXPECT_EQ(back.valid_bytes, read_file(path).size());
  EXPECT_EQ(back.header.method, header.method);
  EXPECT_EQ(back.header.model, header.model);
  EXPECT_EQ(back.header.platform, header.platform);
  EXPECT_EQ(back.header.scenario_kind, header.scenario_kind);
  EXPECT_EQ(back.header.budget_dollars, header.budget_dollars);
  EXPECT_EQ(back.header.seed, header.seed);
  EXPECT_EQ(back.header.catalog_hash, header.catalog_hash);

  ASSERT_EQ(back.probes.size(), 1u);
  const journal::ProbeRecord& p = back.probes[0];
  EXPECT_EQ(p.type_index, probe.type_index);
  EXPECT_EQ(p.nodes, probe.nodes);
  EXPECT_EQ(p.failed, probe.failed);
  EXPECT_EQ(p.feasible, probe.feasible);
  EXPECT_EQ(p.measured_speed, probe.measured_speed);  // bit-exact
  EXPECT_EQ(p.true_speed, probe.true_speed);
  EXPECT_EQ(p.profile_hours, probe.profile_hours);
  EXPECT_EQ(p.profile_cost, probe.profile_cost);
  EXPECT_EQ(p.cum_profile_hours, probe.cum_profile_hours);
  EXPECT_EQ(p.acquisition, probe.acquisition);
  EXPECT_EQ(p.reason, probe.reason);
  EXPECT_EQ(p.attempts, probe.attempts);
  EXPECT_EQ(p.fault, probe.fault);
  ASSERT_EQ(p.attempt_log.size(), 2u);
  EXPECT_EQ(p.attempt_log[0].fault, 1);
  EXPECT_EQ(p.attempt_log[0].hours, 0.05);
  EXPECT_EQ(p.attempt_log[1].cost, 0.85);

  ASSERT_EQ(back.degraded.size(), 1u);
  EXPECT_EQ(back.degraded[0].iteration, 3);
  EXPECT_EQ(back.degraded[0].why, "chaos degrade hook");
}

TEST(Journal, TornTailIsDroppedNotFatal) {
  const std::string path = temp_path("torn.mlcdj");
  {
    journal::RunJournal j =
        journal::RunJournal::create(path, sample_header());
    journal::ProbeRecord probe;
    probe.nodes = 1;
    j.append_probe(probe);
    probe.nodes = 2;
    j.append_probe(probe);
  }
  const std::string bytes = read_file(path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  ASSERT_EQ(offsets.size(), 4u);  // header + 2 probes + EOF

  // Cut mid-way through the last record: crash landed mid-append.
  const std::size_t cut = offsets[2] + (offsets[3] - offsets[2]) / 2;
  write_file(path, bytes.substr(0, cut));
  const journal::JournalContents back = journal::read_journal(path);
  EXPECT_TRUE(back.truncated_tail);
  EXPECT_EQ(back.valid_bytes, offsets[2]);
  ASSERT_EQ(back.probes.size(), 1u);
  EXPECT_EQ(back.probes[0].nodes, 1);
}

TEST(Journal, MidFileCorruptionRefusedTyped) {
  const std::string path = temp_path("corrupt.mlcdj");
  {
    journal::RunJournal j =
        journal::RunJournal::create(path, sample_header());
    journal::ProbeRecord probe;
    probe.nodes = 3;
    j.append_probe(probe);
    probe.nodes = 4;
    j.append_probe(probe);
  }
  std::string bytes = read_file(path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  // Flip a payload byte inside the *first probe* record (not the tail).
  bytes[offsets[1] + 30] ^= 0x20;
  write_file(path, bytes);
  try {
    journal::read_journal(path);
    FAIL() << "corrupt journal was accepted";
  } catch (const journal::JournalError& e) {
    EXPECT_EQ(e.code(), journal::JournalErrorCode::kCorrupt);
  }
}

TEST(Journal, EmptyOrHeaderlessFileRefused) {
  const std::string path = temp_path("empty.mlcdj");
  write_file(path, "");
  EXPECT_THROW(journal::read_journal(path), journal::JournalError);
}

// ------------------------------------------------------ record composition

// The composition journal::Composer replaced: one ostringstream per
// record, one snprintf("%.17g") per double and a string escaper of its
// own. Kept as the byte oracle the composer must match, so logs and
// journals written before and after the change read and resume alike.
namespace oracle {

std::string format_double(double v) {
  char buf[48];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string format_u64(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%" PRIu64, v);
  return buf;
}

std::string escape(std::string_view text) {
  std::string out;
  for (unsigned char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += static_cast<char>(c);
        }
    }
  }
  return out;
}

class Composer {
 public:
  Composer& field(std::string_view key, std::string_view text) {
    sep();
    out_ << '"' << key << "\":\"" << escape(text) << '"';
    return *this;
  }
  Composer& field(std::string_view key, const char* text) {
    return field(key, std::string_view(text));
  }
  Composer& field(std::string_view key, double v) {
    return raw(key, format_double(v));
  }
  Composer& field(std::string_view key, int v) {
    return raw(key, std::to_string(v));
  }
  Composer& field(std::string_view key, std::size_t v) {
    return raw(key, std::to_string(v));
  }
  Composer& field(std::string_view key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  Composer& field_u64(std::string_view key, std::uint64_t v) {
    return field(key, format_u64(v));
  }
  Composer& raw(std::string_view key, std::string_view json) {
    sep();
    out_ << '"' << key << "\":" << json;
    return *this;
  }
  std::string str() const { return "{" + out_.str() + "}"; }

 private:
  void sep() {
    if (!first_) out_ << ',';
    first_ = false;
  }
  std::ostringstream out_;
  bool first_ = true;
};

std::string header_payload(const journal::JournalHeader& h) {
  const int version = h.fidelity_ladder_hash != 0 ? 2 : 1;
  Composer c;
  c.field("t", "header")
      .field("version", version)
      .field("method", h.method)
      .field("model", h.model)
      .field("platform", h.platform)
      .field("scenario_kind", h.scenario_kind)
      .field("deadline_hours", h.deadline_hours)
      .field("budget_dollars", h.budget_dollars)
      .field_u64("seed", h.seed)
      .field("max_nodes", h.max_nodes)
      .field("use_spot", h.use_spot)
      .field("gp_refit_every", h.gp_refit_every)
      .field_u64("catalog_hash", h.catalog_hash)
      .field_u64("profiler_options_hash", h.profiler_options_hash)
      .field_u64("warm_start_hash", h.warm_start_hash);
  if (h.fidelity_ladder_hash != 0) {
    c.field_u64("fidelity_ladder", h.fidelity_ladder_hash);
  }
  return c.str();
}

std::string probe_payload(const journal::ProbeRecord& p, int job) {
  std::ostringstream attempts;
  attempts << '[';
  for (std::size_t i = 0; i < p.attempt_log.size(); ++i) {
    if (i > 0) attempts << ',';
    Composer a;
    a.field("fault", p.attempt_log[i].fault)
        .field("hours", p.attempt_log[i].hours)
        .field("cost", p.attempt_log[i].cost)
        .field("backoff_hours", p.attempt_log[i].backoff_hours);
    attempts << a.str();
  }
  attempts << ']';
  Composer c;
  c.field("t", "probe");
  if (job >= 0) c.field("job", job);
  c.field("type_index", p.type_index)
      .field("nodes", p.nodes)
      .field("failed", p.failed)
      .field("feasible", p.feasible)
      .field("measured_speed", p.measured_speed)
      .field("true_speed", p.true_speed)
      .field("profile_hours", p.profile_hours)
      .field("profile_cost", p.profile_cost)
      .field("cum_profile_hours", p.cum_profile_hours)
      .field("cum_profile_cost", p.cum_profile_cost)
      .field("acquisition", p.acquisition)
      .field("reason", p.reason)
      .field("attempts", p.attempts)
      .field("fault", p.fault)
      .field("backoff_hours", p.backoff_hours)
      .raw("attempt_log", attempts.str());
  if (p.sample_fraction != 1.0 || p.iteration_tier != 0) {
    c.field("sample_fraction", p.sample_fraction)
        .field("iteration_tier", p.iteration_tier);
  }
  return c.str();
}

std::string degrade_payload(const journal::DegradeRecord& d, int job) {
  Composer c;
  c.field("t", "degrade");
  if (job >= 0) c.field("job", job);
  c.field("iteration", d.iteration).field("why", d.why);
  return c.str();
}

std::string batch_header_payload(const service::BatchManifestHeader& h) {
  std::ostringstream out;
  out << "{\"t\":\"batch_header\",\"version\":" << h.version
      << ",\"workload_hash\":\"" << format_u64(h.workload_hash)
      << "\",\"chaos_seed\":\"" << format_u64(h.chaos_seed)
      << "\",\"job_count\":" << h.job_count
      << ",\"capacity_nodes\":" << h.capacity_nodes
      << ",\"tenant_max_jobs\":" << h.tenant_max_jobs << "}";
  return out.str();
}

std::string job_record_payload(const service::BatchJobRecord& r) {
  static const char* const kPhases[] = {"admitted", "assigned", "finished"};
  std::ostringstream out;
  out << "{\"t\":\"job\",\"phase\":\""
      << kPhases[static_cast<int>(r.phase)] << "\",\"job\":" << r.job
      << ",\"name\":\"" << escape(r.name) << "\"";
  if (r.phase == service::BatchJobPhase::kAssigned) {
    out << ",\"header\":" << oracle::header_payload(r.header);
  }
  if (r.phase == service::BatchJobPhase::kFinished) {
    out << ",\"ok\":" << (r.ok ? "true" : "false") << ",\"outcome\":\""
        << escape(r.outcome) << "\",\"report_digest\":\""
        << format_u64(r.report_digest) << "\"";
  }
  out << "}";
  return out.str();
}

}  // namespace oracle

/// Doubles for the property tests: raw bit patterns (NaN of both signs,
/// infinities and subnormals among them), uniform values over many
/// magnitudes, and small integers.
double draw_double(std::mt19937_64& rng) {
  switch (rng() % 4) {
    case 0:
      return std::bit_cast<double>(rng());
    case 1:
      return std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    case 2:
      return std::uniform_real_distribution<double>(-1.0, 1.0)(rng) *
             std::pow(10.0, static_cast<int>(rng() % 40) - 20);
    default:
      return static_cast<double>(static_cast<int>(rng() % 2001) - 1000);
  }
}

/// Short strings over an alphabet of plain ASCII, every character the
/// escaper rewrites, DEL and UTF-8 bytes.
std::string draw_text(std::mt19937_64& rng) {
  static constexpr char kAlphabet[] = {'a', 'Z', '7', ' ', '"', '\\', '\n',
                                       '\r', '\t', '\x01', '\x1f', '\x7f',
                                       '\xc3', '\xa9', '/', '{'};
  std::string text(rng() % 12, ' ');
  for (char& c : text) c = kAlphabet[rng() % sizeof kAlphabet];
  return text;
}

journal::JournalHeader draw_header(std::mt19937_64& rng) {
  journal::JournalHeader h;
  h.method = draw_text(rng);
  h.model = draw_text(rng);
  h.platform = draw_text(rng);
  h.scenario_kind = static_cast<int>(rng() % 5);
  h.deadline_hours = draw_double(rng);
  h.budget_dollars = draw_double(rng);
  h.seed = rng();
  h.max_nodes = static_cast<int>(rng() % 64);
  h.use_spot = rng() % 2 == 0;
  h.gp_refit_every = static_cast<int>(rng() % 8) - 1;
  h.catalog_hash = rng();
  h.profiler_options_hash = rng();
  h.warm_start_hash = rng() % 3 == 0 ? 0 : rng();
  h.fidelity_ladder_hash = rng() % 2 == 0 ? 0 : rng();
  return h;
}

journal::ProbeRecord draw_probe(std::mt19937_64& rng) {
  journal::ProbeRecord p;
  p.type_index = static_cast<std::size_t>(rng() % 200);
  p.nodes = static_cast<int>(rng() % 51);
  p.failed = rng() % 2 == 0;
  p.feasible = rng() % 2 == 0;
  p.measured_speed = draw_double(rng);
  p.true_speed = draw_double(rng);
  p.profile_hours = draw_double(rng);
  p.profile_cost = draw_double(rng);
  p.cum_profile_hours = draw_double(rng);
  p.cum_profile_cost = draw_double(rng);
  p.acquisition = draw_double(rng);
  p.reason = draw_text(rng);
  p.attempts = static_cast<int>(rng() % 5);
  p.fault = static_cast<int>(rng() % 7);
  p.backoff_hours = draw_double(rng);
  p.attempt_log.resize(rng() % 4);
  for (journal::AttemptEntry& a : p.attempt_log) {
    a = {static_cast<int>(rng() % 7), draw_double(rng), draw_double(rng),
         draw_double(rng)};
  }
  if (rng() % 2 == 0) {
    p.sample_fraction = draw_double(rng);
    p.iteration_tier = static_cast<int>(rng() % 4);
  }
  return p;
}

std::string compose_double(double v) {
  return journal::Composer().field("v", v).finish();
}

TEST(JournalComposer, DoublesMatchPrintfPrecision17) {
  const double edges[] = {
      0.0,
      -0.0,
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::denorm_min(),
      -std::numeric_limits<double>::denorm_min(),
      std::numeric_limits<double>::min(),
      std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(),
      1e308,
      5e-324,
      0.1 + 0.2,
      1.0 / 3.0,
      1e-5,
      1e-4,
      1e16,
      1e17,
      123456789012345678.0,
      9007199254740993.0,
      -42.0,
  };
  for (const double v : edges) {
    EXPECT_EQ(compose_double(v), "{\"v\":" + oracle::format_double(v) + "}")
        << "bits " << std::bit_cast<std::uint64_t>(v);
  }
  std::mt19937_64 rng(20200518);
  int mismatches = 0;
  for (int i = 0; i < 200000; ++i) {
    const double v = i % 2 == 0 ? std::bit_cast<double>(rng())
                                : draw_double(rng);
    if (compose_double(v) != "{\"v\":" + oracle::format_double(v) + "}") {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v);
      if (++mismatches == 10) break;
    }
  }
}

TEST(JournalComposer, PayloadsMatchTheStreamComposition) {
  std::mt19937_64 rng(7);
  for (int i = 0; i < 2000; ++i) {
    const journal::ProbeRecord probe = draw_probe(rng);
    const int job = rng() % 3 == 0 ? -1 : static_cast<int>(rng() % 300);
    ASSERT_EQ(journal::probe_payload(probe, job),
              oracle::probe_payload(probe, job))
        << "probe " << i;

    const journal::DegradeRecord degrade{static_cast<int>(rng() % 100),
                                         draw_text(rng)};
    ASSERT_EQ(journal::degrade_payload(degrade, job),
              oracle::degrade_payload(degrade, job))
        << "degrade " << i;

    const journal::JournalHeader header = draw_header(rng);
    ASSERT_EQ(journal::header_payload(header), oracle::header_payload(header))
        << "header " << i;

    service::BatchManifestHeader batch;
    batch.workload_hash = rng();
    batch.chaos_seed = rng() % 2 == 0 ? 0 : rng();
    batch.job_count = static_cast<int>(rng() % 1000);
    batch.capacity_nodes = static_cast<int>(rng() % 100);
    batch.tenant_max_jobs = static_cast<int>(rng() % 10);
    ASSERT_EQ(service::batch_header_payload(batch),
              oracle::batch_header_payload(batch))
        << "batch header " << i;

    service::BatchJobRecord record;
    record.phase = static_cast<service::BatchJobPhase>(i % 3);
    record.job = static_cast<int>(rng() % 300);
    record.name = draw_text(rng);
    record.header = header;
    record.ok = rng() % 2 == 0;
    record.outcome = draw_text(rng);
    record.report_digest = rng();
    ASSERT_EQ(service::job_record_payload(record),
              oracle::job_record_payload(record))
        << "job record " << i;
  }
}

TEST(JournalComposer, PinsTheBytesOfEveryRecordKind) {
  journal::ProbeRecord probe;
  probe.type_index = 3;
  probe.nodes = 5;
  probe.feasible = true;
  probe.measured_speed = 0.1 + 0.2;
  probe.profile_hours = 5e-324;
  probe.cum_profile_cost = 1e308;
  probe.reason = "tei \"q\"\n";
  probe.attempt_log = {{1, 0.05, 0.25, 0.031}, {0, 0.17, 0.85, 0.0}};
  EXPECT_EQ(
      journal::probe_payload(probe, 4),
      R"({"t":"probe","job":4,"type_index":3,"nodes":5,"failed":false,)"
      R"("feasible":true,"measured_speed":0.30000000000000004,"true_speed":0,)"
      R"("profile_hours":4.9406564584124654e-324,"profile_cost":0,)"
      R"("cum_profile_hours":0,"cum_profile_cost":1e+308,"acquisition":0,)"
      R"("reason":"tei \"q\"\n","attempts":1,"fault":0,"backoff_hours":0,)"
      R"("attempt_log":[{"fault":1,"hours":0.050000000000000003,"cost":0.25,)"
      R"("backoff_hours":0.031},{"fault":0,"hours":0.17000000000000001,)"
      R"("cost":0.84999999999999998,"backoff_hours":0}]})");
  probe.attempt_log.clear();
  probe.sample_fraction = 0.25;
  probe.iteration_tier = 2;
  EXPECT_EQ(
      journal::probe_payload(probe),
      R"({"t":"probe","type_index":3,"nodes":5,"failed":false,)"
      R"("feasible":true,"measured_speed":0.30000000000000004,"true_speed":0,)"
      R"("profile_hours":4.9406564584124654e-324,"profile_cost":0,)"
      R"("cum_profile_hours":0,"cum_profile_cost":1e+308,"acquisition":0,)"
      R"("reason":"tei \"q\"\n","attempts":1,"fault":0,"backoff_hours":0,)"
      R"("attempt_log":[],"sample_fraction":0.25,"iteration_tier":2})");

  EXPECT_EQ(
      journal::degrade_payload({3, "refit\tfailed\x01"}, 9),
      R"({"t":"degrade","job":9,"iteration":3,"why":"refit\tfailed\u0001"})");

  journal::JournalHeader header = sample_header();
  const std::string header_v1 =
      R"({"t":"header","version":1,"method":"heterbo","model":"resnet",)"
      R"("platform":"tensorflow","scenario_kind":2,"deadline_hours":0,)"
      R"("budget_dollars":150,"seed":"16045690984503111693","max_nodes":8,)"
      R"("use_spot":false,"gp_refit_every":1,)"
      R"("catalog_hash":"18446744073709551615",)"
      R"("profiler_options_hash":"12345","warm_start_hash":"0"})";
  EXPECT_EQ(journal::header_payload(header), header_v1);
  header.fidelity_ladder_hash = 99;
  EXPECT_EQ(
      journal::header_payload(header),
      R"({"t":"header","version":2,"method":"heterbo","model":"resnet",)"
      R"("platform":"tensorflow","scenario_kind":2,"deadline_hours":0,)"
      R"("budget_dollars":150,"seed":"16045690984503111693","max_nodes":8,)"
      R"("use_spot":false,"gp_refit_every":1,)"
      R"("catalog_hash":"18446744073709551615",)"
      R"("profiler_options_hash":"12345","warm_start_hash":"0",)"
      R"("fidelity_ladder":"99"})");

  service::BatchManifestHeader batch;
  batch.workload_hash = 0xDEADBEEFCAFEF00DULL;
  batch.chaos_seed = 11;
  batch.job_count = 256;
  batch.capacity_nodes = 16;
  batch.tenant_max_jobs = 4;
  EXPECT_EQ(service::batch_header_payload(batch),
            R"({"t":"batch_header","version":2,)"
            R"("workload_hash":"16045690984503111693","chaos_seed":"11",)"
            R"("job_count":256,"capacity_nodes":16,"tenant_max_jobs":4})");

  service::BatchJobRecord record;
  record.job = 17;
  record.name = "job-17";
  EXPECT_EQ(service::job_record_payload(record),
            R"({"t":"job","phase":"admitted","job":17,"name":"job-17"})");
  record.phase = service::BatchJobPhase::kAssigned;
  record.header = sample_header();
  EXPECT_EQ(service::job_record_payload(record),
            R"({"t":"job","phase":"assigned","job":17,"name":"job-17",)"
            R"("header":)" + header_v1 + "}");
  record.phase = service::BatchJobPhase::kFinished;
  record.ok = true;
  record.outcome = "ok";
  record.report_digest = 18446744073709551615ULL;
  EXPECT_EQ(service::job_record_payload(record),
            R"({"t":"job","phase":"finished","job":17,"name":"job-17",)"
            R"("ok":true,"outcome":"ok",)"
            R"("report_digest":"18446744073709551615"})");

  EXPECT_EQ(journal::frame_record(R"({"t":"degrade"})"),
            "MLCDJ1 15 6a288cd5 {\"t\":\"degrade\"}\n");
}

// ------------------------------------------------- end-to-end crash safety

system::JobRequest base_request() {
  system::JobRequest request;
  request.model = "resnet";
  request.instance_types = {"c5.xlarge", "c5.4xlarge"};
  request.max_nodes = 8;
  request.requirements.budget_dollars = 150.0;
  request.seed = 7;
  // Faults on, so the sweep also replays multi-attempt records (the
  // fault stream is the hardest state to restore bit-exactly).
  request.profiler_options.faults.launch_failure_per_node = 0.02;
  request.profiler_options.faults.straggler_rate = 0.15;
  return request;
}

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
    EXPECT_EQ(x.true_speed, y.true_speed) << "step " << i;
    EXPECT_EQ(x.profile_hours, y.profile_hours) << "step " << i;
    EXPECT_EQ(x.profile_cost, y.profile_cost) << "step " << i;
    EXPECT_EQ(x.cum_profile_hours, y.cum_profile_hours) << "step " << i;
    EXPECT_EQ(x.cum_profile_cost, y.cum_profile_cost) << "step " << i;
    EXPECT_EQ(x.reason, y.reason) << "step " << i;
    EXPECT_EQ(x.attempts, y.attempts) << "step " << i;
    EXPECT_EQ(x.fault, y.fault) << "step " << i;
    EXPECT_EQ(x.backoff_hours, y.backoff_hours) << "step " << i;
    ASSERT_EQ(x.attempt_log.size(), y.attempt_log.size()) << "step " << i;
    for (std::size_t k = 0; k < x.attempt_log.size(); ++k) {
      EXPECT_EQ(x.attempt_log[k].fault, y.attempt_log[k].fault);
      EXPECT_EQ(x.attempt_log[k].hours, y.attempt_log[k].hours);
      EXPECT_EQ(x.attempt_log[k].cost, y.attempt_log[k].cost);
      EXPECT_EQ(x.attempt_log[k].backoff_hours,
                y.attempt_log[k].backoff_hours);
    }
  }
  EXPECT_EQ(a.found, b.found);
  EXPECT_EQ(a.best, b.best);
  EXPECT_EQ(a.best_measured_speed, b.best_measured_speed);
  EXPECT_EQ(a.profile_hours, b.profile_hours);
  EXPECT_EQ(a.profile_cost, b.profile_cost);
  EXPECT_EQ(a.training_hours, b.training_hours);
  EXPECT_EQ(a.training_cost, b.training_cost);
  EXPECT_EQ(a.degraded_iterations, b.degraded_iterations);
}

TEST(CrashSafety, JournalingDoesNotPerturbTheSearch) {
  const system::Mlcd mlcd;
  system::JobRequest plain = base_request();
  const system::RunReport bare = mlcd.deploy(plain).report();

  system::JobRequest journaled = base_request();
  journaled.journal_path = temp_path("noperturb.mlcdj");
  const system::RunReport logged = mlcd.deploy(journaled).report();

  expect_traces_identical(bare.result, logged.result);
  EXPECT_EQ(logged.result.replayed_probes, 0);

  // Every probe made it to disk, in order.
  const journal::JournalContents contents =
      journal::read_journal(journaled.journal_path);
  ASSERT_EQ(contents.probes.size(), logged.result.trace.size());
  for (std::size_t i = 0; i < contents.probes.size(); ++i) {
    EXPECT_EQ(contents.probes[i].nodes,
              logged.result.trace[i].deployment.nodes);
    EXPECT_EQ(contents.probes[i].cum_profile_cost,
              logged.result.trace[i].cum_profile_cost);
  }
}

// docs/crash-safety.md's claim: write-ahead journaling costs < 5% of a
// search's wall time — the time it occupies end to end, which the
// probes' execution windows dominate (simulated hours here, rented hours
// on a real cloud). An fsync is never small next to the engine's
// microseconds of compute per probe, so that is not the yardstick. A
// full-catalog HeterBO search (30 probes), timed with and without a
// journal attached.
TEST(CrashSafety, JournalingCostsUnderFivePercentOfSearchWallTime) {
  const cloud::DeploymentSpace space(cloud::aws_catalog(), 50);
  const perf::TrainingPerfModel perf(cloud::aws_catalog());
  const search::HeterBoSearcher heterbo(perf);
  search::SearchProblem problem;
  problem.config.model = models::paper_zoo().model("char_rnn");
  problem.config.platform = perf::tensorflow_profile();
  problem.config.topology = perf::CommTopology::kParameterServer;
  problem.space = &space;
  problem.scenario = search::Scenario::fastest_under_budget(120.0);
  problem.seed = 7;

  using Clock = std::chrono::steady_clock;
  const auto seconds_since = [](Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
  };
  Clock::time_point start = Clock::now();
  heterbo.run(problem);
  const double plain_secs = seconds_since(start);

  journal::JournalHeader header;
  header.method = "heterbo";
  header.model = "char_rnn";
  start = Clock::now();
  journal::RunJournal writer =
      journal::RunJournal::create(temp_path("overhead.mlcdj"), header);
  problem.journal = &writer;
  const search::SearchResult result = heterbo.run(problem);
  const double journal_secs =
      std::max(0.0, seconds_since(start) - plain_secs);

  const double search_wall_secs = result.profile_hours * 3600.0;
  const double overhead =
      search_wall_secs > 0.0 ? journal_secs / search_wall_secs : 1.0;
  EXPECT_LE(overhead, 0.05) << journal_secs << " s of journaling over "
                            << result.profile_hours << " h of search";
}

TEST(CrashSafety, KillPointSweepResumesBitIdentically) {
  const system::Mlcd mlcd;
  system::JobRequest golden_request = base_request();
  golden_request.journal_path = temp_path("golden.mlcdj");
  const system::RunReport golden = mlcd.deploy(golden_request).report();
  ASSERT_GE(golden.result.trace.size(), 3u);

  const std::string bytes = read_file(golden_request.journal_path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  // offsets[1] is the end of the header; a journal cut before that has no
  // header and is rightly refused, so the sweep starts at the header
  // boundary. For every later record boundary AND a cut in the middle of
  // the record that follows it (a torn write), the resumed run must be
  // bit-identical to the golden run with zero probes re-executed.
  for (std::size_t b = 1; b + 1 < offsets.size(); ++b) {
    for (const bool torn : {false, true}) {
      const std::size_t cut =
          torn ? offsets[b] + (offsets[b + 1] - offsets[b]) / 2
               : offsets[b];
      const std::string label =
          "cut at byte " + std::to_string(cut) +
          (torn ? " (mid-record)" : " (record boundary)");
      const std::string path = temp_path("killpoint.mlcdj");
      write_file(path, bytes.substr(0, cut));
      const int journaled_probes = static_cast<int>(
          journal::read_journal(path).probes.size());

      system::JobRequest resume_request = base_request();
      resume_request.resume_path = path;
      const system::DeployResult outcome = mlcd.deploy(resume_request);
      ASSERT_TRUE(outcome.ok()) << label << ": "
                                << outcome.error().message;
      const system::RunReport& resumed = outcome.report();
      SCOPED_TRACE(label);
      expect_traces_identical(golden.result, resumed.result);
      EXPECT_EQ(resumed.result.replayed_probes, journaled_probes);
      EXPECT_EQ(resumed.resumed_from, path);
      for (int i = 0; i < journaled_probes; ++i) {
        EXPECT_TRUE(resumed.result.trace[i].replayed) << label;
      }
      for (std::size_t i = journaled_probes;
           i < resumed.result.trace.size(); ++i) {
        EXPECT_FALSE(resumed.result.trace[i].replayed) << label;
      }

      // The continued journal must converge to the golden file's record
      // sequence — resuming the resumed file reproduces the same run.
      const journal::JournalContents final_contents =
          journal::read_journal(path);
      ASSERT_EQ(final_contents.probes.size(), golden.result.trace.size())
          << label;
      for (std::size_t i = 0; i < final_contents.probes.size(); ++i) {
        EXPECT_EQ(final_contents.probes[i].cum_profile_cost,
                  golden.result.trace[i].cum_profile_cost);
      }
    }
  }
}

TEST(CrashSafety, ResumeOfACompletedRunReexecutesNothing) {
  const system::Mlcd mlcd;
  system::JobRequest request = base_request();
  request.journal_path = temp_path("complete.mlcdj");
  const system::RunReport golden = mlcd.deploy(request).report();

  system::JobRequest resume = base_request();
  resume.resume_path = request.journal_path;
  const system::RunReport resumed = mlcd.deploy(resume).report();
  expect_traces_identical(golden.result, resumed.result);
  EXPECT_EQ(resumed.result.replayed_probes,
            static_cast<int>(golden.result.trace.size()));
}

TEST(CrashSafety, HeaderMismatchRefusedWithFieldName) {
  const system::Mlcd mlcd;
  system::JobRequest request = base_request();
  request.journal_path = temp_path("mismatch.mlcdj");
  ASSERT_TRUE(mlcd.deploy(request).ok());

  system::JobRequest other = base_request();
  other.resume_path = request.journal_path;
  other.seed = 8;  // different search
  const system::DeployResult outcome = mlcd.deploy(other);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, system::JobErrorCode::kJournalError);
  EXPECT_NE(outcome.error().message.find("seed"), std::string::npos)
      << outcome.error().message;

  // Changing a profiler knob (not in the header verbatim, only hashed)
  // is caught too.
  system::JobRequest chaotic = base_request();
  chaotic.resume_path = request.journal_path;
  chaotic.profiler_options.faults.straggler_rate = 0.5;
  const system::DeployResult outcome2 = mlcd.deploy(chaotic);
  ASSERT_FALSE(outcome2.ok());
  EXPECT_EQ(outcome2.error().code, system::JobErrorCode::kJournalError);
}

TEST(CrashSafety, CorruptJournalRefusedAtDeploy) {
  const system::Mlcd mlcd;
  system::JobRequest request = base_request();
  request.journal_path = temp_path("deploycorrupt.mlcdj");
  ASSERT_TRUE(mlcd.deploy(request).ok());

  std::string bytes = read_file(request.journal_path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  ASSERT_GE(offsets.size(), 3u);
  bytes[offsets[1] + 25] ^= 0x01;  // corrupt the first probe record
  write_file(request.journal_path, bytes);

  system::JobRequest resume = base_request();
  resume.resume_path = request.journal_path;
  const system::DeployResult outcome = mlcd.deploy(resume);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, system::JobErrorCode::kJournalError);
  EXPECT_NE(outcome.error().message.find("corrupt"), std::string::npos)
      << outcome.error().message;
}

TEST(CrashSafety, JournalAndResumeMustNameTheSameFile) {
  const system::Mlcd mlcd;
  system::JobRequest request = base_request();
  request.journal_path = temp_path("a.mlcdj");
  request.resume_path = temp_path("b.mlcdj");
  const system::DeployResult outcome = mlcd.deploy(request);
  ASSERT_FALSE(outcome.ok());
  EXPECT_EQ(outcome.error().code, system::JobErrorCode::kInvalidRequest);
}

TEST(CrashSafety, ReportCarriesSchema3CrashFields) {
  const system::Mlcd mlcd;
  system::JobRequest request = base_request();
  request.journal_path = temp_path("schema3.mlcdj");
  const system::RunReport golden = mlcd.deploy(request).report();

  system::JobRequest resume = base_request();
  resume.resume_path = request.journal_path;
  const system::RunReport resumed = mlcd.deploy(resume).report();
  EXPECT_EQ(system::RunReport::kJsonSchemaVersion, 4);
  const std::string json = resumed.to_json();
  // Ladder-free runs keep emitting the byte-identical v3 document.
  EXPECT_NE(json.find("\"schema_version\":3"), std::string::npos);
  EXPECT_NE(json.find("\"resumed_from\""), std::string::npos);
  EXPECT_NE(json.find("\"replayed_probes\""), std::string::npos);
  EXPECT_NE(json.find("\"probe_timeouts\""), std::string::npos);
  EXPECT_NE(json.find("\"degraded_iterations\""), std::string::npos);
  EXPECT_GT(resumed.result.replayed_probes, 0);
  (void)golden;
}

// -------------------------------------------------------- probe watchdog

TEST(Watchdog, ShortDeadlineTimesOutEveryAttemptAndStillBills) {
  const cloud::InstanceCatalog cat =
      cloud::aws_catalog().subset(std::vector<std::string>{"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 8);
  const perf::TrainingPerfModel perf(cat);
  perf::TrainingConfig config;
  config.model = models::paper_zoo().model("resnet");
  config.platform = perf::tensorflow_profile();
  config.topology = perf::CommTopology::kParameterServer;

  profiler::ProfilerOptions options;
  // Far below the ~10-minute base window: every attempt is killed at the
  // deadline, billed for the elapsed window, and retried.
  options.probe_attempt_timeout_hours = 0.05;
  cloud::BillingMeter meter(space);
  profiler::Profiler profiler(perf, space, meter, 7, options);
  const profiler::ProfileResult r = profiler.profile(config, {0, 2});

  EXPECT_TRUE(r.failed);
  EXPECT_EQ(r.fault, cloud::FaultKind::kProbeTimeout);
  EXPECT_EQ(r.attempts, options.retry.max_attempts);
  ASSERT_EQ(r.attempt_log.size(),
            static_cast<std::size_t>(options.retry.max_attempts));
  double billed = 0.0;
  for (const cloud::AttemptRecord& a : r.attempt_log) {
    EXPECT_EQ(a.fault, cloud::FaultKind::kProbeTimeout);
    EXPECT_EQ(a.hours, options.probe_attempt_timeout_hours);
    EXPECT_GT(a.cost, 0.0);  // elapsed reserve is still billed
    billed += a.cost;
  }
  EXPECT_EQ(r.profile_cost, billed);
  EXPECT_EQ(r.profile_cost, meter.total_cost());

  // The worst-case bound the reserve budgets against caps at the
  // deadline too.
  EXPECT_LE(profiler.worst_case_profile_hours(config, {0, 2}),
            options.retry.max_attempts *
                    (options.probe_attempt_timeout_hours +
                     options.retry.max_backoff_hours) +
                1e-12);
}

TEST(Watchdog, GenerousDeadlineIsBitIdenticalToNoWatchdog) {
  const cloud::InstanceCatalog cat =
      cloud::aws_catalog().subset(std::vector<std::string>{"c5.4xlarge"});
  const cloud::DeploymentSpace space(cat, 8);
  const perf::TrainingPerfModel perf(cat);
  perf::TrainingConfig config;
  config.model = models::paper_zoo().model("resnet");
  config.platform = perf::tensorflow_profile();
  config.topology = perf::CommTopology::kParameterServer;

  cloud::BillingMeter meter_a(space);
  profiler::Profiler bare(perf, space, meter_a, 7);
  const profiler::ProfileResult a = bare.profile(config, {0, 3});

  profiler::ProfilerOptions options;
  options.probe_attempt_timeout_hours = 100.0;
  options.watchdog_wall_seconds = 3600.0;
  cloud::BillingMeter meter_b(space);
  profiler::Profiler guarded(perf, space, meter_b, 7, options);
  const profiler::ProfileResult b = guarded.profile(config, {0, 3});

  EXPECT_EQ(a.measured_speed, b.measured_speed);
  EXPECT_EQ(a.profile_hours, b.profile_hours);
  EXPECT_EQ(a.profile_cost, b.profile_cost);
  EXPECT_EQ(a.extensions, b.extensions);
}

TEST(Watchdog, TimeoutsSurviveTheResumeSweep) {
  // A deadline between the 1-node window and the stretched large-window
  // probes: some probes time out, and the journaled kProbeTimeout
  // attempts must replay bit-exactly.
  const system::Mlcd mlcd;
  system::JobRequest request = base_request();
  request.profiler_options.probe_attempt_timeout_hours = 0.2;
  request.journal_path = temp_path("timeout-golden.mlcdj");
  const system::RunReport golden = mlcd.deploy(request).report();

  const std::string bytes = read_file(request.journal_path);
  const std::vector<std::size_t> offsets = record_boundaries(bytes);
  // Resume from the halfway record boundary.
  const std::size_t cut = offsets[offsets.size() / 2];
  const std::string path = temp_path("timeout-resume.mlcdj");
  write_file(path, bytes.substr(0, cut));

  system::JobRequest resume = base_request();
  resume.profiler_options.probe_attempt_timeout_hours = 0.2;
  resume.resume_path = path;
  const system::DeployResult outcome = mlcd.deploy(resume);
  ASSERT_TRUE(outcome.ok()) << outcome.error().message;
  expect_traces_identical(golden.result, outcome.report().result);
  EXPECT_EQ(golden.result.probe_timeout_count(),
            outcome.report().result.probe_timeout_count());
}

// -------------------------------------------------- graceful degradation

class DegradeTest : public testing::Test {
 protected:
  DegradeTest()
      : cat_(cloud::aws_catalog().subset(std::vector<std::string>{
            "c5.xlarge", "c5.4xlarge", "p2.xlarge"})),
        space_(cat_, 10),
        perf_(cat_) {}

  search::SearchProblem problem(std::uint64_t seed = 7) const {
    search::SearchProblem p;
    p.config.model = models::paper_zoo().model("resnet");
    p.config.platform = perf::tensorflow_profile();
    p.config.topology = perf::CommTopology::kParameterServer;
    p.space = &space_;
    p.scenario = search::Scenario::fastest_under_budget(200.0);
    p.seed = seed;
    return p;
  }

  cloud::InstanceCatalog cat_;
  cloud::DeploymentSpace space_;
  perf::TrainingPerfModel perf_;
};

TEST_F(DegradeTest, HeterBoSurvivesChaosDegradeAndJournalsIt) {
  search::SearchProblem p = problem();
  p.chaos_degrade_hook = [](int iteration) {
    return iteration == 2 || iteration == 3;
  };
  const std::string path = temp_path("degrade.mlcdj");
  journal::JournalHeader header;
  header.method = "heterbo";
  journal::RunJournal writer = journal::RunJournal::create(path, header);
  p.journal = &writer;

  search::HeterBoSearcher searcher(perf_);
  const search::SearchResult result = searcher.run(p);
  EXPECT_EQ(result.degraded_iterations, 2);
  EXPECT_TRUE(result.found);
  int degraded_probes = 0;
  for (const search::ProbeStep& s : result.trace) {
    if (s.reason == "degraded") ++degraded_probes;
  }
  EXPECT_EQ(degraded_probes, 2);

  const journal::JournalContents contents = journal::read_journal(path);
  ASSERT_EQ(contents.degraded.size(), 2u);
  EXPECT_EQ(contents.degraded[0].iteration, 2);
  EXPECT_EQ(contents.degraded[0].why, "chaos degrade hook");

  // Degradation is deterministic: a replayed continuation re-derives the
  // same episodes and the same trace.
  search::SearchProblem replayed = problem();
  replayed.chaos_degrade_hook = p.chaos_degrade_hook;
  replayed.replay = contents.probes;
  const search::SearchResult again = searcher.run(replayed);
  ASSERT_EQ(again.trace.size(), result.trace.size());
  for (std::size_t i = 0; i < again.trace.size(); ++i) {
    EXPECT_EQ(again.trace[i].deployment, result.trace[i].deployment);
    EXPECT_EQ(again.trace[i].cum_profile_cost,
              result.trace[i].cum_profile_cost);
  }
  EXPECT_EQ(again.degraded_iterations, result.degraded_iterations);
  EXPECT_EQ(again.replayed_probes,
            static_cast<int>(contents.probes.size()));
}

TEST_F(DegradeTest, ConvBoSurvivesChaosDegrade) {
  search::SearchProblem p = problem();
  p.chaos_degrade_hook = [](int iteration) { return iteration == 1; };
  search::ConvBoSearcher searcher(perf_);
  const search::SearchResult result = searcher.run(p);
  EXPECT_EQ(result.degraded_iterations, 1);
  EXPECT_TRUE(result.found);
  bool saw_degraded_probe = false;
  for (const search::ProbeStep& s : result.trace) {
    saw_degraded_probe = saw_degraded_probe || s.reason == "degraded";
  }
  EXPECT_TRUE(saw_degraded_probe);
}

TEST_F(DegradeTest, PermanentDegradationNeverViolatesTheReserve) {
  // Every iteration degrades: the search runs entirely in safe mode and
  // must still respect the protective reserve / budget.
  search::SearchProblem p = problem();
  p.scenario = search::Scenario::fastest_under_budget(60.0);
  p.chaos_degrade_hook = [](int) { return true; };
  search::HeterBoSearcher searcher(perf_);
  const search::SearchResult result = searcher.run(p);
  EXPECT_GT(result.degraded_iterations, 0);
  EXPECT_LE(result.profile_cost, 60.0);
  if (result.found) {
    EXPECT_TRUE(result.meets_constraints(p.scenario));
  }
}

// ------------------------------------------------------------- fuzz sweep

/// A small but representative run journal: header plus probes carrying
/// strings, attempt logs, and extreme doubles.
std::string valid_journal_bytes() {
  const std::string path = temp_path("fuzz.mlcdj");
  journal::RunJournal j = journal::RunJournal::create(path, sample_header());
  journal::ProbeRecord probe;
  probe.type_index = 3;
  probe.nodes = 5;
  probe.feasible = true;
  probe.measured_speed = 0.1 + 0.2;
  probe.profile_hours = 5e-324;
  probe.reason = "tei \"quoted\"";
  probe.attempt_log = {{1, 0.05, 0.25, 0.031}};
  j.append_probe(probe);
  probe.nodes = 2;
  probe.failed = true;
  j.append_probe(probe);
  j.append_degrade({1, "fuzz"});
  return read_file(path);
}

/// A small batch log: header, roster, one job's assigned record (with
/// its journal header), job-tagged probe and degrade records carrying
/// strings, attempt logs and extreme doubles, and its finished record.
std::string valid_manifest_bytes() {
  const std::string path = temp_path("fuzz.mlcdb");
  service::BatchManifestHeader header;
  header.workload_hash = 0xDEADBEEFCAFEF00DULL;
  header.job_count = 2;
  std::unique_ptr<service::BatchLog> log =
      service::BatchLog::create(path, header, {"a", "b"});
  service::BatchJobRecord record;
  record.phase = service::BatchJobPhase::kAssigned;
  record.name = "a";
  record.header = sample_header();
  log->stage(record);
  journal::ProbeRecord probe;
  probe.type_index = 3;
  probe.nodes = 5;
  probe.feasible = true;
  probe.measured_speed = 0.1 + 0.2;
  probe.profile_hours = 5e-324;
  probe.reason = "tei \"quoted\"";
  probe.attempt_log = {{1, 0.05, 0.25, 0.031}};
  log->stage_probe(0, probe);
  log->stage_degrade(0, {1, "fuzz"});
  probe.nodes = 2;
  probe.failed = true;
  log->stage_probe(0, probe);
  record.phase = service::BatchJobPhase::kFinished;
  record.ok = true;
  record.outcome = "ok";
  record.report_digest = 77;
  log->stage(record);
  log->flush();
  log.reset();
  return read_file(path);
}

/// One fuzz verdict: the reader accepted the bytes (possibly dropping a
/// torn tail) or refused them with a typed JournalError. Anything else —
/// a crash, a hang, or an untyped exception — fails the sweep.
enum class FuzzVerdict { kAccepted, kAcceptedTruncated, kRefusedTyped };

template <typename Reader>
FuzzVerdict fuzz_read(const std::string& path, const Reader& reader) {
  try {
    return reader(path) ? FuzzVerdict::kAcceptedTruncated
                        : FuzzVerdict::kAccepted;
  } catch (const journal::JournalError&) {
    return FuzzVerdict::kRefusedTyped;
  }
  // Any other exception type escapes and fails the test: corruption must
  // surface as the typed error, never as a generic crash.
}

template <typename Reader>
void run_fuzz_sweep(const std::string& bytes, const std::string& path,
                    const Reader& reader) {
  // Truncation at every byte: a kill can land anywhere. Every prefix
  // must read as a valid journal with a dropped tail, or refuse typed.
  for (std::size_t cut = 0; cut <= bytes.size(); ++cut) {
    write_file(path, bytes.substr(0, cut));
    fuzz_read(path, reader);  // must return, not crash or hang
  }
  // Seeded single-bit flip at every byte: at-rest corruption. The framing
  // CRC must catch every flip — acceptance is only legal when the flip
  // landed in the final record (dropped as a torn tail).
  // Corrupting the newline that *ends* the penultimate record merges it
  // into the final line, so the droppable tail zone starts one byte
  // before the final record.
  const std::size_t last_line = bytes.rfind('\n', bytes.size() - 2);
  std::uint64_t state = 0x9E3779B97F4A7C15ULL;
  for (std::size_t i = 0; i < bytes.size(); ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ (1u << (state % 8)));
    write_file(path, flipped);
    const FuzzVerdict verdict = fuzz_read(path, reader);
    EXPECT_NE(verdict, FuzzVerdict::kAccepted)
        << "bit flip at byte " << i << " was silently accepted";
    if (verdict == FuzzVerdict::kAcceptedTruncated) {
      EXPECT_GE(i, last_line)
          << "flip at byte " << i << " before the tail read as torn tail";
    }
  }
}

TEST(JournalFuzz, RunJournalSurvivesBitFlipAndTruncationSweep) {
  const std::string path = temp_path("fuzz_run_sweep.mlcdj");
  run_fuzz_sweep(valid_journal_bytes(), path, [](const std::string& p) {
    return journal::read_journal(p).truncated_tail;
  });
}

TEST(JournalFuzz, BatchManifestSurvivesBitFlipAndTruncationSweep) {
  const std::string path = temp_path("fuzz_manifest_sweep.mlcdb");
  // As a resume reads it: the planning pass, then each job's probes.
  run_fuzz_sweep(valid_manifest_bytes(), path, [](const std::string& p) {
    const service::BatchManifestContents plan = service::read_manifest(p);
    for (const service::BatchJobState& job : plan.jobs) {
      service::read_probe_records(p, job.probe_spans);
    }
    return plan.truncated_tail;
  });
}

}  // namespace
}  // namespace mlcd
