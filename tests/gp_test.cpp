// Unit and property tests for src/gp: kernels, Nelder–Mead, GP regression.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numbers>
#include <vector>

#include "gp/gp_regressor.hpp"
#include "gp/kernel.hpp"
#include "gp/nelder_mead.hpp"
#include "linalg/cholesky.hpp"
#include "obs/resource.hpp"
#include "util/rng.hpp"

namespace mlcd::gp {
namespace {

std::vector<std::unique_ptr<Kernel>> all_kernels(std::size_t dim) {
  std::vector<std::unique_ptr<Kernel>> out;
  out.push_back(std::make_unique<SquaredExponentialKernel>(dim));
  out.push_back(std::make_unique<Matern32Kernel>(dim));
  out.push_back(std::make_unique<Matern52Kernel>(dim));
  return out;
}

// ----------------------------------------------------------------- kernel

TEST(Kernel, SelfCovarianceIsSignalVariance) {
  for (const auto& k : all_kernels(2)) {
    const std::vector<double> x{0.3, -1.2};
    EXPECT_NEAR((*k)(x, x), 1.0, 1e-14) << k->name();
  }
}

TEST(Kernel, Symmetry) {
  util::Rng rng(1);
  for (const auto& k : all_kernels(3)) {
    for (int trial = 0; trial < 20; ++trial) {
      const std::vector<double> a{rng.normal(), rng.normal(), rng.normal()};
      const std::vector<double> b{rng.normal(), rng.normal(), rng.normal()};
      EXPECT_DOUBLE_EQ((*k)(a, b), (*k)(b, a)) << k->name();
    }
  }
}

TEST(Kernel, DecaysWithDistance) {
  for (const auto& k : all_kernels(1)) {
    double prev = 2.0;
    for (double d : {0.0, 0.5, 1.0, 2.0, 4.0}) {
      const std::vector<double> a{0.0}, b{d};
      const double v = (*k)(a, b);
      EXPECT_LT(v, prev) << k->name();
      EXPECT_GT(v, 0.0) << k->name();
      prev = v;
    }
  }
}

// Property: the Gram matrix of any kernel on random points is PSD
// (Cholesky with jitter succeeds).
class KernelPsd : public testing::TestWithParam<int> {};

TEST_P(KernelPsd, GramMatrixIsPsd) {
  util::Rng rng(50 + GetParam());
  const std::size_t n = 12;
  for (const auto& k : all_kernels(2)) {
    linalg::Matrix pts(n, 2);
    for (std::size_t i = 0; i < n; ++i) {
      pts(i, 0) = rng.uniform(-3, 3);
      pts(i, 1) = rng.uniform(-3, 3);
    }
    linalg::Matrix gram(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        gram(i, j) = (*k)(pts.row(i), pts.row(j));
      }
    }
    EXPECT_NO_THROW(linalg::CholeskyFactor{gram}) << k->name();
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, KernelPsd, testing::Range(0, 8));

// Property: the one-call Gram fill equals operator() on every pair, bit
// for bit, for each kernel at d = 1..3 with non-unit hyperparameters,
// whatever shape the output buffer had before.
TEST(Kernel, GramFillMatchesPairwiseCalls) {
  util::Rng rng(60);
  for (std::size_t d = 1; d <= 3; ++d) {
    for (const auto& k : all_kernels(d)) {
      std::vector<double> lp(k->param_count());
      for (auto& v : lp) v = rng.uniform(-1.5, 1.5);
      k->set_log_params(lp);
      const std::size_t n = 13;
      linalg::Matrix pts(n, d);
      for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t c = 0; c < d; ++c) pts(i, c) = rng.uniform(-2, 2);
      }
      for (std::size_t c = 0; c < d; ++c) pts(n - 1, c) = pts(3, c);
      linalg::Matrix out(2, 5, 7.0);
      for (int pass = 0; pass < 2; ++pass) {  // reshape, then reuse
        k->gram(pts, out);
        ASSERT_EQ(out.rows(), n);
        ASSERT_EQ(out.cols(), n);
        int diffs = 0;
        for (std::size_t i = 0; i < n; ++i) {
          for (std::size_t j = 0; j < n; ++j) {
            if (!(out(i, j) == (*k)(pts.row(i), pts.row(j)))) ++diffs;
          }
        }
        EXPECT_EQ(diffs, 0) << k->name() << " d=" << d;
      }
    }
  }
  linalg::Matrix out;
  EXPECT_THROW(Matern52Kernel(2).gram(linalg::Matrix(3, 1), out),
               std::invalid_argument);
}

TEST(Kernel, LogParamRoundTrip) {
  Matern52Kernel k(3);
  k.set_signal_stddev(2.5);
  k.set_lengthscale(0, 0.3);
  k.set_lengthscale(1, 1.7);
  k.set_lengthscale(2, 4.0);
  const auto lp = k.log_params();
  Matern52Kernel k2(3);
  k2.set_log_params(lp);
  EXPECT_NEAR(k2.signal_variance(), 6.25, 1e-12);
  EXPECT_NEAR(k2.lengthscales()[1], 1.7, 1e-12);
}

TEST(Kernel, ArdLengthscalesScaleDimensionsIndependently) {
  Matern52Kernel k(2);
  k.set_lengthscale(0, 10.0);  // dimension 0 nearly ignored
  k.set_lengthscale(1, 0.1);   // dimension 1 very sensitive
  const std::vector<double> base{0.0, 0.0};
  const std::vector<double> move0{1.0, 0.0};
  const std::vector<double> move1{0.0, 1.0};
  EXPECT_GT(k(base, move0), 0.9);
  EXPECT_LT(k(base, move1), 0.01);
}

TEST(Kernel, InvalidParametersThrow) {
  Matern52Kernel k(2);
  EXPECT_THROW(k.set_signal_stddev(0.0), std::invalid_argument);
  EXPECT_THROW(k.set_lengthscale(0, -1.0), std::invalid_argument);
  EXPECT_THROW(k.set_lengthscale(5, 1.0), std::out_of_range);
  EXPECT_THROW(k.set_log_params(std::vector<double>{1.0}),
               std::invalid_argument);
  EXPECT_THROW(Matern52Kernel(0), std::invalid_argument);
}

TEST(Kernel, DimensionMismatchThrows) {
  Matern52Kernel k(2);
  EXPECT_THROW(k(std::vector<double>{1.0}, std::vector<double>{1.0, 2.0}),
               std::invalid_argument);
}

TEST(Kernel, CloneIsDeepCopy) {
  Matern52Kernel k(1);
  k.set_lengthscale(0, 0.5);
  auto clone = k.clone();
  k.set_lengthscale(0, 5.0);
  const std::vector<double> a{0.0}, b{1.0};
  EXPECT_NE((*clone)(a, b), k(a, b));
}

// ------------------------------------------------------------ Nelder-Mead

TEST(NelderMead, MinimizesQuadratic) {
  auto f = [](const std::vector<double>& x) {
    return (x[0] - 3.0) * (x[0] - 3.0) + (x[1] + 1.0) * (x[1] + 1.0);
  };
  const auto r = nelder_mead(f, {0.0, 0.0});
  EXPECT_NEAR(r.x[0], 3.0, 1e-4);
  EXPECT_NEAR(r.x[1], -1.0, 1e-4);
  EXPECT_TRUE(r.converged);
}

TEST(NelderMead, MinimizesRosenbrock) {
  auto f = [](const std::vector<double>& x) {
    const double a = 1.0 - x[0];
    const double b = x[1] - x[0] * x[0];
    return a * a + 100.0 * b * b;
  };
  NelderMeadOptions opts;
  opts.max_iterations = 5000;
  const auto r = nelder_mead(f, {-1.2, 1.0}, opts);
  EXPECT_NEAR(r.x[0], 1.0, 1e-3);
  EXPECT_NEAR(r.x[1], 1.0, 1e-3);
}

TEST(NelderMead, HandlesInfiniteRegions) {
  // Objective rejects x < 0 with +inf; minimum at boundary-adjacent 0.5.
  auto f = [](const std::vector<double>& x) {
    if (x[0] < 0.0) return std::numeric_limits<double>::infinity();
    return (x[0] - 0.5) * (x[0] - 0.5);
  };
  const auto r = nelder_mead(f, {2.0});
  EXPECT_NEAR(r.x[0], 0.5, 1e-4);
}

TEST(NelderMead, NanTreatedAsRejection) {
  auto f = [](const std::vector<double>& x) {
    if (x[0] < 0.0) return std::nan("");
    return x[0] * x[0];
  };
  const auto r = nelder_mead(f, {1.0});
  EXPECT_GE(r.x[0], 0.0);
  EXPECT_NEAR(r.x[0], 0.0, 1e-3);
}

TEST(NelderMead, EmptyStartThrows) {
  EXPECT_THROW(nelder_mead([](const std::vector<double>&) { return 0.0; },
                           {}),
               std::invalid_argument);
}

TEST(NelderMead, RespectsIterationBudget) {
  auto f = [](const std::vector<double>& x) { return std::abs(x[0]); };
  NelderMeadOptions opts;
  opts.max_iterations = 3;
  const auto r = nelder_mead(f, {100.0}, opts);
  EXPECT_LE(r.iterations, 3);
}

// ------------------------------------------------------------ GpRegressor

GpRegressor make_gp(bool optimize = false) {
  GpOptions options;
  options.optimize_hyperparameters = optimize;
  options.noise_stddev = 1e-3;
  return GpRegressor(std::make_unique<Matern52Kernel>(1), options);
}

TEST(GpRegressor, InterpolatesTrainingPoints) {
  GpRegressor gp = make_gp();
  linalg::Matrix x{{0.0}, {0.5}, {1.0}};
  linalg::Vector y{1.0, 3.0, 2.0};
  gp.fit(x, y);
  for (std::size_t i = 0; i < 3; ++i) {
    const Prediction p = gp.predict(x.row(i));
    EXPECT_NEAR(p.mean, y[i], 5e-2);
    EXPECT_LT(p.stddev(), 0.2);
  }
}

TEST(GpRegressor, UncertaintyGrowsAwayFromData) {
  GpRegressor gp = make_gp();
  linalg::Matrix x{{0.0}, {0.1}};
  linalg::Vector y{0.0, 0.1};
  gp.fit(x, y);
  const double near = gp.predict(std::vector<double>{0.05}).variance;
  const double far = gp.predict(std::vector<double>{3.0}).variance;
  EXPECT_LT(near, far);
}

TEST(GpRegressor, VarianceIsNonNegativeEverywhere) {
  GpRegressor gp = make_gp();
  linalg::Matrix x{{0.0}, {0.2}, {0.21}, {0.9}};
  linalg::Vector y{1.0, 1.2, 1.21, 0.3};
  gp.fit(x, y);
  for (double q = -1.0; q <= 2.0; q += 0.05) {
    EXPECT_GE(gp.predict(std::vector<double>{q}).variance, 0.0);
  }
}

TEST(GpRegressor, DuplicateInputsDoNotCrash) {
  GpRegressor gp = make_gp();
  linalg::Matrix x{{0.5}, {0.5}, {0.5}};
  linalg::Vector y{1.0, 1.05, 0.95};
  EXPECT_NO_THROW(gp.fit(x, y));
  const Prediction p = gp.predict(std::vector<double>{0.5});
  EXPECT_NEAR(p.mean, 1.0, 0.1);
}

TEST(GpRegressor, HyperparameterMleImprovesLikelihood) {
  // Data from a short-lengthscale function; MLE should beat the unit
  // lengthscale default.
  util::Rng rng(3);
  const std::size_t n = 15;
  linalg::Matrix x(n, 1);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = static_cast<double>(i) / n;
    y[i] = std::sin(20.0 * x(i, 0)) + 0.01 * rng.normal();
  }
  GpRegressor fixed = make_gp(false);
  fixed.fit(x, y);
  GpRegressor tuned = make_gp(true);
  tuned.fit(x, y);
  EXPECT_GT(tuned.log_marginal_likelihood(),
            fixed.log_marginal_likelihood());
}

TEST(GpRegressor, NormalizationHandlesLargeTargets) {
  GpRegressor gp = make_gp();
  linalg::Matrix x{{0.0}, {0.5}, {1.0}};
  linalg::Vector y{10000.0, 30000.0, 20000.0};
  gp.fit(x, y);
  EXPECT_NEAR(gp.predict(std::vector<double>{0.5}).mean, 30000.0, 2000.0);
}

TEST(GpRegressor, PredictBeforeFitThrows) {
  GpRegressor gp = make_gp();
  EXPECT_THROW(gp.predict(std::vector<double>{0.0}), std::logic_error);
  EXPECT_THROW(gp.log_marginal_likelihood(), std::logic_error);
}

TEST(GpRegressor, ShapeErrorsThrow) {
  GpRegressor gp = make_gp();
  EXPECT_THROW(gp.fit(linalg::Matrix(2, 1), linalg::Vector{1.0}),
               std::invalid_argument);
  EXPECT_THROW(gp.fit(linalg::Matrix(), linalg::Vector{}),
               std::invalid_argument);
  linalg::Matrix x{{0.0}, {1.0}};
  gp.fit(x, linalg::Vector{1.0, 2.0});
  EXPECT_THROW(gp.predict(std::vector<double>{0.0, 1.0}),
               std::invalid_argument);
}

TEST(GpRegressor, NullKernelThrows) {
  EXPECT_THROW(GpRegressor(nullptr), std::invalid_argument);
}

TEST(GpRegressor, CopyIsIndependent) {
  GpRegressor gp = make_gp();
  linalg::Matrix x{{0.0}, {1.0}};
  gp.fit(x, linalg::Vector{0.0, 1.0});
  GpRegressor copy = gp;
  // Refit the original with different data; the copy must not change.
  gp.fit(x, linalg::Vector{5.0, 5.0});
  EXPECT_NEAR(copy.predict(std::vector<double>{1.0}).mean, 1.0, 0.1);
}

// The MLE refits the covariance in place hundreds of times; the model it
// ends with must be bit-identical to a fresh factorization of the
// per-pair kernel matrix under the tuned hyperparameters — for the
// homoscedastic and the heteroscedastic noise paths.
TEST(GpRegressor, TunedFitMatchesFreshFactorization) {
  util::Rng rng(31);
  const std::size_t n = 20;
  linalg::Matrix x(n, 2);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(5.0 * x(i, 0)) + x(i, 1) + 0.05 * rng.normal();
  }
  for (const double multiplier : {1.0, 2.5}) {
    linalg::Vector m(n, 1.0);
    for (std::size_t i = 0; i < n; i += 3) m[i] = multiplier;
    GpOptions options;
    options.normalize_targets = false;  // keeps y in model space
    GpRegressor gp(std::make_unique<Matern52Kernel>(2), options);
    gp.fit(x, y, m);

    const Kernel& k = gp.kernel();
    const double noise = gp.noise_stddev();
    linalg::Matrix cov(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) cov(i, j) = k(x.row(i), x.row(j));
    }
    if (multiplier == 1.0) {
      cov.add_to_diagonal(noise * noise);
    } else {
      for (std::size_t i = 0; i < n; ++i) {
        cov(i, i) += noise * noise * m[i] * m[i];
      }
    }
    const linalg::CholeskyFactor ref(cov);
    const linalg::Vector alpha =
        ref.solve_lower_transpose(ref.solve_lower(y));
    const double lml = -0.5 * linalg::dot(y, alpha) +
                       -0.5 * ref.log_determinant() +
                       -0.5 * static_cast<double>(n) *
                           std::log(2.0 * std::numbers::pi);
    EXPECT_EQ(gp.log_marginal_likelihood(), lml) << multiplier;
    for (double q = 0.0; q <= 1.0; q += 0.25) {
      const std::vector<double> query{q, 1.0 - q};
      linalg::Vector k_star(n);
      for (std::size_t i = 0; i < n; ++i) k_star[i] = k(x.row(i), query);
      const linalg::Vector v = ref.solve_lower(k_star);
      const Prediction p = gp.predict(query);
      EXPECT_EQ(p.mean, linalg::dot(k_star, alpha)) << multiplier;
      EXPECT_EQ(p.variance,
                std::max(k(query, query) - linalg::dot(v, v), 0.0))
          << multiplier;
    }
  }
}

// add_observation() appends to the stored data in place; on a scheduled
// refit the model must equal a batch fit of the same data bit for bit.
TEST(GpRegressor, ScheduledRefitOnAddMatchesBatchFit) {
  GpOptions options;
  options.optimize_hyperparameters = false;  // the start would differ
  options.refit_every = 1;
  util::Rng rng(32);
  const std::size_t n = 9;
  linalg::Matrix x(n, 2);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = 3.0 * x(i, 0) - x(i, 1);
  }
  linalg::Matrix head(2, 2);
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t c = 0; c < 2; ++c) head(i, c) = x(i, c);
  }
  GpRegressor grown(std::make_unique<Matern52Kernel>(2), options);
  grown.fit(head, linalg::Vector{y[0], y[1]});
  for (std::size_t i = 2; i < n; ++i) grown.add_observation(x.row(i), y[i]);
  GpRegressor batch(std::make_unique<Matern52Kernel>(2), options);
  batch.fit(x, y);
  ASSERT_EQ(grown.observation_count(), n);
  EXPECT_EQ(grown.log_marginal_likelihood(), batch.log_marginal_likelihood());
  const std::vector<double> q{0.4, 0.6};
  EXPECT_EQ(grown.predict(q).mean, batch.predict(q).mean);
  EXPECT_EQ(grown.predict(q).variance, batch.predict(q).variance);
}

// Allocation guard: every likelihood evaluation of the MLE reuses one
// covariance buffer, factor and solve vectors, so what a fit allocates
// does not grow with the number of Nelder–Mead evaluations. Two extra
// restarts add a few hundred evaluations (several allocations each before
// the buffers were shared) but may only add each run's own simplex and
// work vectors.
TEST(GpRegressor, MleFitAllocationsDoNotGrowWithEvaluations) {
  ASSERT_TRUE(obs::alloc_hook_active());
  util::Rng rng(33);
  const std::size_t n = 24;
  linalg::Matrix x(n, 2);
  linalg::Vector y(n);
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform();
    x(i, 1) = rng.uniform();
    y[i] = std::sin(6.0 * x(i, 0)) + x(i, 1) + 0.01 * rng.normal();
  }
  auto allocations_of_fit = [&](int restarts) {
    GpOptions options;
    options.optimizer_restarts = restarts;
    GpRegressor gp(std::make_unique<Matern52Kernel>(2), options);
    const std::uint64_t before = obs::alloc_counters().allocations;
    gp.fit(x, y);
    return obs::alloc_counters().allocations - before;
  };
  constexpr std::uint64_t kPerRestart = 24;
  const std::uint64_t one = allocations_of_fit(1);
  const std::uint64_t three = allocations_of_fit(3);
  EXPECT_LE(three, one + 2 * kPerRestart) << "one restart: " << one;
}

TEST(GpRegressor, IncrementalUpdateMatchesBatchFit) {
  GpOptions options;
  options.optimize_hyperparameters = false;
  options.normalize_targets = false;
  options.noise_stddev = 1e-2;

  util::Rng rng(9);
  linalg::Matrix x(6, 1);
  linalg::Vector y(6);
  for (std::size_t i = 0; i < 6; ++i) {
    x(i, 0) = rng.uniform();
    y[i] = std::sin(4.0 * x(i, 0));
  }

  // Incremental: fit on the first 3, add the rest one by one.
  GpRegressor incremental(std::make_unique<Matern52Kernel>(1), options);
  linalg::Matrix head(3, 1);
  linalg::Vector head_y(3);
  for (std::size_t i = 0; i < 3; ++i) {
    head(i, 0) = x(i, 0);
    head_y[i] = y[i];
  }
  incremental.fit(head, head_y);
  for (std::size_t i = 3; i < 6; ++i) {
    incremental.add_observation(x.row(i), y[i]);
  }

  GpRegressor batch(std::make_unique<Matern52Kernel>(1), options);
  batch.fit(x, y);

  EXPECT_EQ(incremental.observation_count(), 6u);
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    const Prediction a = incremental.predict(std::vector<double>{q});
    const Prediction b = batch.predict(std::vector<double>{q});
    EXPECT_NEAR(a.mean, b.mean, 1e-9);
    EXPECT_NEAR(a.variance, b.variance, 1e-9);
  }
}

TEST(GpRegressor, IncrementalUpdateWithNormalizationFallsBackToRefit) {
  GpOptions options;
  options.optimize_hyperparameters = false;
  options.normalize_targets = true;
  GpRegressor gp(std::make_unique<Matern52Kernel>(1), options);
  linalg::Matrix x{{0.0}, {0.5}};
  gp.fit(x, linalg::Vector{100.0, 300.0});
  gp.add_observation(std::vector<double>{1.0}, 200.0);
  EXPECT_EQ(gp.observation_count(), 3u);
  // The refit path must agree with a batch fit of all three points.
  GpRegressor batch(std::make_unique<Matern52Kernel>(1), options);
  linalg::Matrix all{{0.0}, {0.5}, {1.0}};
  batch.fit(all, linalg::Vector{100.0, 300.0, 200.0});
  EXPECT_NEAR(gp.predict(std::vector<double>{0.25}).mean,
              batch.predict(std::vector<double>{0.25}).mean, 1e-9);
}

TEST(GpRegressor, AddObservationErrors) {
  GpRegressor gp = make_gp();
  EXPECT_THROW(gp.add_observation(std::vector<double>{0.0}, 1.0),
               std::logic_error);
  linalg::Matrix x{{0.0}};
  gp.fit(x, linalg::Vector{1.0});
  EXPECT_THROW(gp.add_observation(std::vector<double>{0.0, 1.0}, 1.0),
               std::invalid_argument);
}

// Property: posterior mean is sandwiched by data range for interpolation-
// like 1-D fits (Matern mean reverts toward prior between/beyond points).
class GpMeanBound : public testing::TestWithParam<int> {};

TEST_P(GpMeanBound, MeanStaysNearDataRange) {
  util::Rng rng(700 + GetParam());
  const std::size_t n = 8;
  linalg::Matrix x(n, 1);
  linalg::Vector y(n);
  double lo = 1e9, hi = -1e9;
  for (std::size_t i = 0; i < n; ++i) {
    x(i, 0) = rng.uniform(0.0, 1.0);
    y[i] = rng.uniform(-2.0, 2.0);
    lo = std::min(lo, y[i]);
    hi = std::max(hi, y[i]);
  }
  GpRegressor gp = make_gp(true);
  gp.fit(x, y);
  const double margin = 1.5 * (hi - lo) + 1.0;
  for (double q = 0.0; q <= 1.0; q += 0.1) {
    const double mean = gp.predict(std::vector<double>{q}).mean;
    EXPECT_GT(mean, lo - margin);
    EXPECT_LT(mean, hi + margin);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, GpMeanBound, testing::Range(0, 6));

}  // namespace
}  // namespace mlcd::gp
