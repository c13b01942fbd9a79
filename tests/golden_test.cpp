// Golden bit-identity suite for the ask/tell search core.
//
// The search layer's hard invariant across refactors: every searcher's
// RunReport JSON, journal bytes, and trace CSV are byte-identical to the
// engine that generated the checked-in goldens (tests/golden/
// asktell_golden.txt — produced by the pre-ask/tell push-style engine).
// The matrix covers every registered probing method x all three paper
// scenarios x three seeds, plus fault-injection, GP-refit-cadence, spot
// market, threads-echo, capacity-outage, and chaos-degradation cases.
//
// Regenerating (only legitimate when the intended behavior changes):
//   MLCD_REGEN_GOLDEN=1 ./golden_test
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "mlcd/mlcd.hpp"
#include "models/model_zoo.hpp"
#include "search/registry.hpp"
#include "search/trace_io.hpp"

#ifndef MLCD_GOLDEN_DIR
#define MLCD_GOLDEN_DIR "."
#endif

namespace mlcd {
namespace {

// ------------------------------------------------------------- plumbing

std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

std::string hex(std::uint64_t v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

/// One golden record: the three byte-level fingerprints plus a probe
/// count that makes mismatches debuggable without rerunning.
struct GoldenRecord {
  std::string report_hash;
  std::string journal_hash;
  std::string trace_hash;
  int probes = 0;

  std::string line(const std::string& id) const {
    return id + " " + report_hash + " " + journal_hash + " " + trace_hash +
           " " + std::to_string(probes);
  }
};

const std::string& golden_path() {
  static const std::string path =
      std::string(MLCD_GOLDEN_DIR) + "/asktell_golden.txt";
  return path;
}

bool regen_mode() {
  const char* env = std::getenv("MLCD_REGEN_GOLDEN");
  return env != nullptr && std::string(env) == "1";
}

std::map<std::string, std::string>& recorded() {
  static std::map<std::string, std::string> lines;
  return lines;
}

std::map<std::string, GoldenRecord> load_goldens() {
  std::map<std::string, GoldenRecord> goldens;
  std::ifstream in(golden_path());
  std::string id;
  GoldenRecord rec;
  while (in >> id >> rec.report_hash >> rec.journal_hash >> rec.trace_hash >>
         rec.probes) {
    goldens[id] = rec;
  }
  return goldens;
}

/// Compares (or, in regen mode, records) one case's fingerprints.
void check_case(const std::string& id, const GoldenRecord& actual) {
  recorded()[id] = actual.line(id);
  if (regen_mode()) return;
  static const std::map<std::string, GoldenRecord> goldens = load_goldens();
  const auto it = goldens.find(id);
  ASSERT_NE(it, goldens.end())
      << "no golden for case '" << id << "' — regenerate with "
      << "MLCD_REGEN_GOLDEN=1 (only when the behavior change is intended)";
  EXPECT_EQ(actual.report_hash, it->second.report_hash)
      << id << ": RunReport JSON diverged from the golden engine";
  EXPECT_EQ(actual.journal_hash, it->second.journal_hash)
      << id << ": journal bytes diverged from the golden engine";
  EXPECT_EQ(actual.trace_hash, it->second.trace_hash)
      << id << ": trace CSV diverged from the golden engine";
  EXPECT_EQ(actual.probes, it->second.probes)
      << id << ": probe count diverged from the golden engine";
}

/// Writes every recorded line in case order (regen mode only).
class RegenWriter : public testing::EmptyTestEventListener {
  void OnTestProgramEnd(const testing::UnitTest&) override {
    if (!regen_mode()) return;
    std::ofstream out(golden_path(), std::ios::trunc);
    for (const auto& [id, line] : recorded()) out << line << "\n";
  }
};

const int kRegisterWriter = [] {
  testing::UnitTest::GetInstance()->listeners().Append(new RegenWriter);
  return 0;
}();

// ------------------------------------------------------------ the cases

struct GoldenCase {
  std::string id;
  system::JobRequest request;
};

system::JobRequest base_request(const std::string& method,
                                const std::string& model, int scenario,
                                std::uint64_t seed) {
  system::JobRequest request;
  request.model = model;
  request.search_method = method;
  request.seed = seed;
  request.max_nodes = 8;
  if (scenario == 2) request.requirements.deadline_hours = 24.0;
  if (scenario == 3) request.requirements.budget_dollars = 200.0;
  return request;
}

// HeterBO over three types with the eventual winner (c5.4xlarge, type 1
// of the restricted catalog) in a scripted capacity outage until hour 1.
// Both initialization waves skip it, so it enters the acquisition loop
// with no curve of its own and the global 2-D surrogate prices it once
// the outage ends.
constexpr std::size_t kOutageType = 1;
constexpr double kOutageEndHours = 1.0;

system::JobRequest outage_fallback_request(int gp_refit_every) {
  system::JobRequest request = base_request("heterbo", "resnet", 2, 7);
  request.instance_types = {"c5.xlarge", "c5.4xlarge", "p2.xlarge"};
  request.gp_refit_every = gp_refit_every;
  request.profiler_options.faults.scheduled_outages.push_back(
      {kOutageType, cloud::OutageEpisode{0.0, kOutageEndHours}});
  return request;
}

std::vector<GoldenCase> golden_cases() {
  std::vector<GoldenCase> cases;
  const std::vector<std::string> methods = {
      "heterbo",    "conv-bo", "bo-improved", "cherrypick",
      "cherrypick-improved", "random",  "exhaustive",  "paleo",
      "pareto"};
  // Scenario -> model pairing keeps the matrix diverse without tripling
  // its size; seeds exercise three distinct noise/fault streams each.
  const std::map<int, std::string> scenario_model = {
      {1, "alexnet"}, {2, "resnet"}, {3, "char_rnn"}};
  for (const std::string& method : methods) {
    for (const auto& [scenario, model] : scenario_model) {
      for (const std::uint64_t seed : {3ULL, 11ULL, 42ULL}) {
        GoldenCase c;
        c.id = method + "-s" + std::to_string(scenario) + "-seed" +
               std::to_string(seed);
        c.request = base_request(method, model, scenario, seed);
        cases.push_back(std::move(c));
      }
    }
  }
  // Fault injection: retries, backoff, and failed probes in the trace.
  for (const std::string& method :
       {std::string("heterbo"), std::string("conv-bo"),
        std::string("cherrypick-improved")}) {
    GoldenCase c;
    c.id = method + "-faults";
    c.request = base_request(method, "resnet", 2, 7);
    c.request.profiler_options.faults.launch_failure_per_node = 0.2;
    c.request.profiler_options.retry.max_attempts = 3;
    cases.push_back(std::move(c));
  }
  // GP retune cadence: incremental surrogate extensions between refits.
  for (const std::string& method :
       {std::string("heterbo"), std::string("conv-bo")}) {
    GoldenCase c;
    c.id = method + "-refit3";
    c.request = base_request(method, "resnet", 2, 5);
    c.request.gp_refit_every = 3;
    cases.push_back(std::move(c));
  }
  // Spot market: revocation hazards + restart-inflated completions.
  {
    GoldenCase c;
    c.id = "heterbo-spot";
    c.request = base_request("heterbo", "char_rnn", 3, 9);
    c.request.use_spot = true;
    cases.push_back(std::move(c));
  }
  // The echoed threads request must not change a single byte.
  {
    GoldenCase c;
    c.id = "heterbo-threads4";
    c.request = base_request("heterbo", "resnet", 2, 3);
    c.request.threads = 4;
    cases.push_back(std::move(c));
  }
  // A scannable type with no curve at loop entry: the global surrogate
  // is fitted and read, on the rebuild-every-probe and incremental paths.
  cases.push_back({"heterbo-outage-fallback", outage_fallback_request(1)});
  cases.push_back(
      {"heterbo-outage-fallback-refit3", outage_fallback_request(3)});
  return cases;
}

TEST(GoldenAskTell, DeployMatrixMatchesGoldenEngine) {
  const system::Mlcd mlcd;
  const auto tmp = std::filesystem::temp_directory_path();
  for (GoldenCase& c : golden_cases()) {
    const std::string journal_file =
        (tmp / ("mlcd_golden_" + c.id + ".mlcdj")).string();
    std::remove(journal_file.c_str());
    c.request.journal_path = journal_file;

    const system::DeployResult result = mlcd.deploy(c.request);
    ASSERT_TRUE(result.ok()) << c.id << ": " << result.error().message;
    const system::RunReport& report = result.report();

    const std::string trace_file =
        (tmp / ("mlcd_golden_" + c.id + ".csv")).string();
    const cloud::InstanceCatalog catalog =
        c.request.instance_types.empty()
            ? mlcd.cloud().catalog()
            : mlcd.cloud().catalog().subset(c.request.instance_types);
    const cloud::DeploymentSpace space(
        catalog, c.request.max_nodes,
        c.request.use_spot ? cloud::Market::kSpot : cloud::Market::kOnDemand);
    search::save_trace_csv(trace_file, report.result, space);

    GoldenRecord actual;
    actual.report_hash = hex(fnv1a(report.to_json()));
    actual.journal_hash = hex(fnv1a(slurp(journal_file)));
    actual.trace_hash = hex(fnv1a(slurp(trace_file)));
    actual.probes = static_cast<int>(report.result.trace.size());
    check_case(c.id, actual);

    std::remove(journal_file.c_str());
    std::remove(trace_file.c_str());
  }
}

// The outage cases only exercise the global surrogate if the outaged type
// is still curve-less when it becomes launchable again and the loop then
// probes it on the surrogate's say-so.
TEST(GoldenAskTell, OutageFallbackProbesTheRecoveredType) {
  const system::Mlcd mlcd;
  for (const int refit_every : {1, 3}) {
    const system::DeployResult result =
        mlcd.deploy(outage_fallback_request(refit_every));
    ASSERT_TRUE(result.ok()) << result.error().message;
    const std::vector<search::ProbeStep>& trace = result.report().result.trace;
    bool probed_before_loop = false;
    bool tei_after_outage = false;
    double started_at = 0.0;
    for (const search::ProbeStep& step : trace) {
      if (step.deployment.type_index == kOutageType) {
        if (step.reason != "tei") probed_before_loop = true;
        if (step.reason == "tei" && started_at >= kOutageEndHours) {
          tei_after_outage = true;
        }
      }
      started_at = step.cum_profile_hours;
    }
    EXPECT_FALSE(probed_before_loop) << "refit_every=" << refit_every;
    EXPECT_TRUE(tei_after_outage) << "refit_every=" << refit_every;
  }
}

// Graceful degradation is only reachable through SearchProblem's chaos
// hook, so these cases run the searchers directly.
TEST(GoldenAskTell, ChaosDegradeTracesMatchGoldenEngine) {
  const system::Mlcd mlcd;
  const cloud::DeploymentSpace space(mlcd.cloud().catalog(), 8,
                                     cloud::Market::kOnDemand);
  const perf::TrainingPerfModel perf(mlcd.cloud().catalog(),
                                     mlcd.cloud().perf_model().options());
  const auto tmp = std::filesystem::temp_directory_path();

  for (const std::string& method :
       {std::string("heterbo"), std::string("conv-bo")}) {
    search::SearchProblem problem;
    problem.config.model = models::paper_zoo().model("resnet");
    problem.config.platform = perf::tensorflow_profile();
    problem.config.topology = perf::CommTopology::kParameterServer;
    problem.space = &space;
    problem.scenario = search::Scenario::cheapest_under_deadline(24.0);
    problem.seed = 13;
    problem.chaos_degrade_hook = [](int iteration) {
      return iteration == 2 || iteration == 5;
    };
    const std::unique_ptr<search::Searcher> searcher =
        search::SearcherRegistry::instance().create(method, perf);
    const search::SearchResult result = searcher->run(problem);

    const std::string trace_file =
        (tmp / ("mlcd_golden_chaos_" + method + ".csv")).string();
    search::save_trace_csv(trace_file, result, space);

    char summary[256];
    std::snprintf(summary, sizeof(summary), "%d %d %.17g %.17g %.17g %.17g",
                  result.found ? 1 : 0, result.degraded_iterations,
                  result.profile_hours, result.profile_cost,
                  result.training_hours, result.training_cost);

    GoldenRecord actual;
    actual.report_hash = hex(fnv1a(summary));
    actual.journal_hash = hex(fnv1a(std::string()));
    actual.trace_hash = hex(fnv1a(slurp(trace_file)));
    actual.probes = static_cast<int>(result.trace.size());
    check_case("chaos-" + method, actual);
    std::remove(trace_file.c_str());
  }
}

}  // namespace
}  // namespace mlcd
