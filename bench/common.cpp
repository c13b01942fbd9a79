#include "common.hpp"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>

#include "obs/gate_metrics.hpp"
#include "obs/history.hpp"
#include "search/registry.hpp"

namespace mlcd::bench {

namespace {

// One probe for the whole binary, started when the first registry is
// created: the resource series cover the run, not the last suite.
struct ObsState {
  obs::ResourceProbe probe;
  // std::map keeps flush order deterministic across runs.
  std::map<std::string, std::unique_ptr<obs::MetricRegistry>> registries;
};

ObsState& obs_state() {
  static ObsState state;
  return state;
}

}  // namespace

void print_header(const std::string& figure, const std::string& paper_setup,
                  const std::string& repro_setup) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", figure.c_str());
  std::printf("paper : %s\n", paper_setup.c_str());
  std::printf("repro : %s\n", repro_setup.c_str());
  std::printf("================================================================\n");
}

void print_note(const std::string& note) {
  std::printf("note  : %s\n", note.c_str());
}

std::string bench_out_dir() {
  const std::string dir = "bench_out";
  std::filesystem::create_directories(dir);
  return dir;
}

util::CsvWriter open_csv(const std::string& name,
                         std::vector<std::string> header) {
  return util::CsvWriter(bench_out_dir() + "/" + name, std::move(header));
}

cloud::InstanceCatalog subset_catalog(
    const std::vector<std::string>& names) {
  return cloud::aws_catalog().subset(names);
}

perf::TrainingConfig make_config(const std::string& model,
                                 const std::string& platform,
                                 std::optional<perf::CommTopology> topology) {
  perf::TrainingConfig config;
  config.model = models::paper_zoo().model(model);
  config.platform = perf::platform_by_name(platform);
  config.topology = topology.value_or(
      config.model.params > 100e6 ? perf::CommTopology::kRingAllReduce
                                  : perf::CommTopology::kParameterServer);
  return config;
}

search::SearchProblem make_problem(const perf::TrainingConfig& config,
                                   const cloud::DeploymentSpace& space,
                                   const search::Scenario& scenario,
                                   std::uint64_t seed) {
  search::SearchProblem p;
  p.config = config;
  p.space = &space;
  p.scenario = scenario;
  p.seed = seed;
  return p;
}

search::SearchResult run_method(const perf::TrainingPerfModel& perf,
                                const search::SearchProblem& problem,
                                const std::string& method) {
  return search::SearcherRegistry::instance().create(method, perf)->run(
      problem);
}

obs::MetricRegistry& metrics(const std::string& suite) {
  ObsState& state = obs_state();
  auto it = state.registries.find(suite);
  if (it == state.registries.end()) {
    it = state.registries
             .emplace(suite, std::make_unique<obs::MetricRegistry>(suite))
             .first;
  }
  return *it->second;
}

void record_gate_metric(const std::string& suite, const std::string& name,
                        double value) {
  metrics(suite).add(obs::gate_metric(suite, name, value));
}

int finish_metrics(int exit_code) {
  ObsState& state = obs_state();
  if (state.registries.empty()) return exit_code;

  const char* run_id_env = std::getenv("MLCD_OBS_RUN_ID");
  const std::string run_id =
      run_id_env != nullptr && *run_id_env != '\0' ? run_id_env : "local";
  const char* history_env = std::getenv("MLCD_OBS_HISTORY_DIR");

  const std::string obs_dir = bench_out_dir() + "/obs";
  std::filesystem::create_directories(obs_dir);
  int code = exit_code;
  for (const auto& [suite, registry] : state.registries) {
    registry->record_resources(state.probe);
    const obs::HistoryRecord record = registry->snapshot(run_id);
    {
      std::ofstream out(obs_dir + "/" + suite + ".json",
                        std::ios::binary | std::ios::trunc);
      out << record.to_json() << "\n";
    }
    if (history_env != nullptr && *history_env != '\0') {
      try {
        obs::append_history(obs::history_path(history_env, suite), record);
        std::printf("obs   : %s -> %s (run %s, %zu metrics)\n",
                    suite.c_str(),
                    obs::history_path(history_env, suite).c_str(),
                    run_id.c_str(), record.metrics.size());
      } catch (const std::exception& e) {
        std::fprintf(stderr, "obs   : history append failed: %s\n",
                     e.what());
        if (code == 0) code = 1;
      }
    }
  }
  state.registries.clear();
  return code;
}

}  // namespace mlcd::bench
