// Microbenchmarks: end-to-end searcher runtime (the library's own compute
// cost, not simulated cloud time) on the Fig. 15 workload.
#include <benchmark/benchmark.h>

#include "common.hpp"

namespace {

using namespace mlcd;

struct Setup {
  cloud::InstanceCatalog cat = bench::subset_catalog(
      {"c5.xlarge", "c5.4xlarge", "p2.xlarge"});
  cloud::DeploymentSpace space{cat, 50};
  perf::TrainingPerfModel perf{cat};
  perf::TrainingConfig config = bench::make_config("char_rnn");
};

void BM_HeterBoRun(benchmark::State& state) {
  Setup s;
  const auto problem = bench::make_problem(
      s.config, s.space, search::Scenario::fastest_under_budget(120.0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::run_method(s.perf, problem, "heterbo"));
  }
}
BENCHMARK(BM_HeterBoRun);

void BM_ConvBoRun(benchmark::State& state) {
  Setup s;
  const auto problem = bench::make_problem(
      s.config, s.space, search::Scenario::fastest());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::run_method(s.perf, problem, "conv-bo"));
  }
}
BENCHMARK(BM_ConvBoRun);

void BM_HeterBoRunRefitSchedule(benchmark::State& state) {
  // Relaxing the surrogate retune cadence (--gp-refit-every) trades MLE
  // time for incremental O(n^2) updates between scheduled retunes.
  Setup s;
  auto problem = bench::make_problem(
      s.config, s.space, search::Scenario::fastest_under_budget(120.0));
  problem.gp_refit_every = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::run_method(s.perf, problem, "heterbo"));
  }
}
BENCHMARK(BM_HeterBoRunRefitSchedule)->Arg(1)->Arg(4)->Arg(8);

void BM_CherryPickRun(benchmark::State& state) {
  Setup s;
  const auto problem = bench::make_problem(
      s.config, s.space, search::Scenario::fastest());
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        bench::run_method(s.perf, problem, "cherrypick"));
  }
}
BENCHMARK(BM_CherryPickRun);

void BM_ProfilerProbe(benchmark::State& state) {
  Setup s;
  cloud::BillingMeter meter(s.space);
  profiler::Profiler profiler(s.perf, s.space, meter, 1);
  const cloud::Deployment d{1, 10};
  for (auto _ : state) {
    benchmark::DoNotOptimize(profiler.profile(s.config, {d}));
  }
}
BENCHMARK(BM_ProfilerProbe);

}  // namespace
