#include "common.hpp"

#include <cstdio>
#include <filesystem>
#include <memory>

#include "search/registry.hpp"

namespace mlcd::bench {

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

}  // namespace mlcd::bench
