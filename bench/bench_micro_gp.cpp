// Microbenchmarks: GP fit and predict — the per-iteration cost of every
// BO searcher, as a function of how many probes have been collected.
#include <benchmark/benchmark.h>

#include <cmath>
#include <memory>

#include "gp/gp_regressor.hpp"
#include "util/rng.hpp"

namespace {

using namespace mlcd;

void make_data(std::size_t n, linalg::Matrix& x, linalg::Vector& y) {
  util::Rng rng(7);
  x = linalg::Matrix(n, 2);
  y.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(6.0 * x(i, 0)) + x(i, 1) + 0.01 * rng.normal();
  }
}

void BM_GpFitFixedHyper(benchmark::State& state) {
  linalg::Matrix x;
  linalg::Vector y;
  make_data(state.range(0), x, y);
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  for (auto _ : state) {
    gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpFitFixedHyper)->Range(8, 64);

void BM_GpFitWithMle(benchmark::State& state) {
  linalg::Matrix x;
  linalg::Vector y;
  make_data(state.range(0), x, y);
  gp::GpOptions options;
  options.optimizer_restarts = 2;
  for (auto _ : state) {
    gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpFitWithMle)->Arg(8)->Arg(16)->Arg(32)->Arg(48);

void BM_GpFitPerTypeMle(benchmark::State& state) {
  // HeterBO's per-instance-type surrogate: a 1-D GP over the normalized
  // node count with the bounded MLE the search refits after every probe
  // (options as in src/search/heter_bo.cpp).
  const std::size_t n = state.range(0);
  util::Rng rng(19);
  linalg::Matrix x(n, 1);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::log(1.0 + 8.0 * x(i, 0)) - 0.6 * x(i, 0) + 0.02 * rng.normal();
  }
  gp::GpOptions options;
  options.noise_stddev = 0.05;
  options.optimizer_restarts = 2;
  options.refit_every = 0;
  options.log_param_lower = {std::log(0.1), std::log(0.05), std::log(1e-3)};
  options.log_param_upper = {std::log(3.0), std::log(0.45), std::log(0.3)};
  for (auto _ : state) {
    auto kernel = std::make_unique<gp::Matern52Kernel>(1);
    kernel->set_lengthscale(0, 0.25);
    gp::GpRegressor gp(std::move(kernel), options);
    gp.fit(x, y);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpFitPerTypeMle)->Arg(4)->Arg(8)->Arg(16);

void BM_GpPredict(benchmark::State& state) {
  linalg::Matrix x;
  linalg::Vector y;
  make_data(state.range(0), x, y);
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
  gp.fit(x, y);
  const std::vector<double> q{0.3, 0.7};
  for (auto _ : state) {
    benchmark::DoNotOptimize(gp.predict(q));
  }
}
BENCHMARK(BM_GpPredict)->Range(8, 64);

void BM_GpIncrementalAdd(benchmark::State& state) {
  // Cost of growing a fixed-hyperparameter GP by one observation
  // (O(n^2) bordered-Cholesky path) at size n.
  const std::size_t n = state.range(0);
  linalg::Matrix x;
  linalg::Vector y;
  make_data(n, x, y);
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  options.normalize_targets = false;
  util::Rng rng(11);
  for (auto _ : state) {
    state.PauseTiming();
    gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
    gp.fit(x, y);
    const std::vector<double> nx{rng.uniform(), rng.uniform()};
    state.ResumeTiming();
    gp.add_observation(nx, 0.5);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpIncrementalAdd)->Range(8, 64);

void BM_GpAddWithRefitSchedule(benchmark::State& state) {
  // Growing a tuned GP by 8 observations under a refit_every schedule:
  // range(0) = 1 is the legacy retune-per-add behavior, larger values
  // amortize the MLE over incremental adds (the PR-2 fast path).
  const int refit_every = static_cast<int>(state.range(0));
  linalg::Matrix x;
  linalg::Vector y;
  make_data(24, x, y);
  gp::GpOptions options;
  options.optimizer_restarts = 1;
  options.refit_every = refit_every;
  util::Rng rng(13);
  for (auto _ : state) {
    state.PauseTiming();
    gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
    gp.fit(x, y);
    std::vector<std::vector<double>> adds;
    for (int i = 0; i < 8; ++i) adds.push_back({rng.uniform(), rng.uniform()});
    state.ResumeTiming();
    for (const auto& nx : adds) gp.add_observation(nx, 0.5);
    benchmark::DoNotOptimize(gp);
  }
}
BENCHMARK(BM_GpAddWithRefitSchedule)->Arg(1)->Arg(4)->Arg(8);

void BM_GpPredictCachedScan(benchmark::State& state) {
  // Repeated scans of a fixed candidate set with per-candidate caches —
  // the steady-state inner loop of every BO searcher. After the first
  // scan each prediction is O(n) instead of O(n^2).
  const std::size_t n = state.range(0);
  linalg::Matrix x;
  linalg::Vector y;
  make_data(n, x, y);
  gp::GpOptions options;
  options.optimize_hyperparameters = false;
  gp::GpRegressor gp(std::make_unique<gp::Matern52Kernel>(2), options);
  gp.fit(x, y);
  util::Rng rng(17);
  std::vector<std::vector<double>> candidates(512);
  for (auto& c : candidates) c = {rng.uniform(), rng.uniform()};
  std::vector<gp::GpRegressor::PredictCache> caches(candidates.size());
  for (auto _ : state) {
    for (std::size_t i = 0; i < candidates.size(); ++i) {
      benchmark::DoNotOptimize(gp.predict_cached(candidates[i], caches[i]));
    }
  }
}
BENCHMARK(BM_GpPredictCachedScan)->Range(8, 64);

}  // namespace
