// Gaussian-process regression with exact inference.
//
// This is the surrogate model behind every BO searcher in the repo.
// Design points X are deployment coordinates (normalized instance-type
// index, node count), targets y are measured training speeds. Inference
// follows Rasmussen & Williams Algorithm 2.1: Cholesky of K + sigma_n^2 I,
// alpha = K^{-1} y, predictive mean k_*^T alpha and variance
// k(x*,x*) - ||L^{-1} k_*||^2.
#pragma once

#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "gp/kernel.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"

namespace mlcd::gp {

/// Predictive distribution at one query point.
struct Prediction {
  double mean = 0.0;
  double variance = 0.0;

  double stddev() const;
};

struct GpOptions {
  /// Observation noise standard deviation (before MLE tuning).
  double noise_stddev = 1e-3;
  /// When true, fit() maximizes the log marginal likelihood over kernel
  /// hyperparameters and the noise level with multi-start Nelder–Mead.
  bool optimize_hyperparameters = true;
  /// Number of optimizer restarts from perturbed starting points.
  int optimizer_restarts = 3;
  /// Normalize targets to zero mean / unit variance internally. Keeps
  /// hyperparameter scales sane when speeds span orders of magnitude.
  bool normalize_targets = true;
  /// add_observation() full-refit schedule when hyperparameter tuning or
  /// target normalization is active: 1 (default) refits — retune + re-
  /// normalization — on every add, the legacy exact behavior; k > 1
  /// refits on every k-th add and runs the O(n²) incremental bordered-
  /// Cholesky update with frozen hyperparameters/normalizer in between;
  /// <= 0 disables the schedule entirely (incremental always, full refit
  /// only on numerical fallback or evidence drop).
  int refit_every = 1;
  /// Early-retune trigger for the incremental path: when the mean log
  /// marginal likelihood per observation falls more than this many nats
  /// below its value at the last full fit, the model retunes immediately
  /// (the frozen hyperparameters stopped explaining the data). 0
  /// disables the check.
  double refit_evidence_drop = 0.0;
  /// fit() runs the hyperparameter MLE only at or above this many
  /// observations; below it a young GP would overfit its handful of
  /// points.
  int hyperopt_min_obs = 3;
  /// Optional box bounds (log space) on [kernel params..., noise stddev]
  /// for the MLE. Empty = the default wide bounds. BO surrogates use
  /// these to stop the MLE from collapsing to a near-flat, overconfident
  /// fit when only a handful of observations exist.
  std::vector<double> log_param_lower;
  std::vector<double> log_param_upper;
};

/// Exact GP regressor. Usage: construct with a kernel, call fit(), then
/// predict() any number of times.
class GpRegressor {
 public:
  GpRegressor(std::unique_ptr<Kernel> kernel, GpOptions options = {});

  GpRegressor(const GpRegressor& other);
  GpRegressor& operator=(const GpRegressor& other);
  GpRegressor(GpRegressor&&) noexcept = default;
  GpRegressor& operator=(GpRegressor&&) noexcept = default;

  /// Fits to n observations: X is n x d, y has n entries.
  /// Throws std::invalid_argument on shape mismatch or empty data.
  void fit(const linalg::Matrix& x, const linalg::Vector& y);

  /// Heteroscedastic fit: `noise_multipliers` (n entries, all > 0) scale
  /// the per-observation noise stddev — observation i contributes
  /// (noise_stddev * m_i)^2 to the covariance diagonal. Low-fidelity
  /// probes carry multipliers > 1 so the GP trusts them less without
  /// discarding them (the TrimTuner treatment). When every multiplier is
  /// exactly 1.0 the arithmetic is bit-identical to the homoscedastic
  /// fit() above.
  void fit(const linalg::Matrix& x, const linalg::Vector& y,
           const linalg::Vector& noise_multipliers);

  /// Adds one observation to a fitted model. When hyperparameter
  /// optimization and target normalization are both disabled — or the
  /// GpOptions::refit_every schedule says this add is not a retune
  /// point — the covariance factor is extended incrementally in O(n²)
  /// (bordered Cholesky, frozen hyperparameters/normalizer), with a
  /// tolerance-checked fallback to a full refit when the border is
  /// numerically unsafe. On scheduled retunes the model refits from
  /// scratch. Throws std::logic_error before fit() and
  /// std::invalid_argument on dimension mismatch.
  void add_observation(std::span<const double> x, double y);

  /// add_observation() with a per-observation noise multiplier (> 0);
  /// the plain overload is exactly this with multiplier 1.0.
  void add_observation(std::span<const double> x, double y,
                       double noise_multiplier);

  /// Rebuilds the covariance factor from the stored observations in
  /// O(n³). With `retune_hyperparameters` the MLE and target
  /// renormalization re-run (same as fit() on the stored data); without
  /// it the current hyperparameters and normalization constants are kept
  /// — the exact reference the incremental path is validated against.
  /// Throws std::logic_error before fit().
  void refit_full(bool retune_hyperparameters = true);

  std::size_t observation_count() const noexcept { return y_raw_.size(); }

  /// Monotone token identifying the last full (re)fit. Incremental adds
  /// keep the version; anything that can move hyperparameters or
  /// normalization constants bumps it, invalidating PredictCaches.
  /// Unique across GpRegressor instances, so a cache can never be
  /// mistakenly reused against a different surrogate.
  std::uint64_t fit_version() const noexcept { return fit_version_; }

  /// Incremental adds since the last full fit (0 right after a refit).
  int adds_since_refit() const noexcept { return adds_since_refit_; }

  /// Predictive mean/variance at a query point (dimension d).
  /// Throws std::logic_error when called before fit().
  Prediction predict(std::span<const double> x) const;

  /// Per-candidate scratch for predict_cached(): the kernel row
  /// k_star = k(x, X) and its forward solve v = L⁻¹ k_star, tagged with
  /// the fit version they were computed against. A cache belongs to one
  /// fixed query point; entries are appended as observations arrive
  /// (O(n) per new observation) and discarded wholesale when a full
  /// refit moves the hyperparameters.
  struct PredictCache {
    linalg::Vector k_star;
    linalg::Vector v;
    std::uint64_t fit_version = 0;
  };

  /// predict() with kernel-row reuse across BO iterations: repeated
  /// scans of a fixed candidate set pay O(n) per candidate after an
  /// incremental add instead of O(n²). Safe to call concurrently from
  /// multiple threads as long as each thread passes a distinct cache.
  /// The mean is computed as (L⁻¹k_star)·(L⁻¹y), which is analytically
  /// equal to predict()'s k_star·alpha but may differ in the last bits;
  /// searchers therefore use one path consistently for all candidates.
  Prediction predict_cached(std::span<const double> x,
                            PredictCache& cache) const;

  /// Log marginal likelihood of the fitted data under current
  /// hyperparameters (normalized-target space).
  double log_marginal_likelihood() const;

  const Kernel& kernel() const noexcept { return *kernel_; }
  double noise_stddev() const noexcept { return noise_stddev_; }

 private:
  /// fit() on the stored observations: target normalization, the MLE
  /// when enabled, and the final factorization.
  void fit_stored();

  /// Builds K(X, X) + sigma_n^2 diag(m^2) in `k` (the caller's scratch,
  /// reused across calls so an MLE evaluation allocates nothing) and
  /// factorizes; returns log marginal likelihood, or -inf when the
  /// factorization fails.
  double refit_with_current_params(linalg::Matrix& k);

  /// Multi-start Nelder–Mead over the log marginal likelihood; every
  /// evaluation refits through the scratch `k`.
  void optimize_hyperparameters(linalg::Matrix& k);

  /// True when every stored noise multiplier is exactly 1.0 — the
  /// homoscedastic case, which must keep the legacy bit-exact
  /// add_to_diagonal path.
  bool homoscedastic_noise() const noexcept;

  std::unique_ptr<Kernel> kernel_;
  GpOptions options_;
  double noise_stddev_ = 1e-3;

  linalg::Matrix x_;          // stored design points
  linalg::Vector y_raw_;      // original targets
  linalg::Vector y_;          // normalized targets
  /// Per-observation noise multipliers, parallel to y_raw_ (1.0 for
  /// homoscedastic observations).
  linalg::Vector noise_multipliers_;
  double y_mean_ = 0.0;
  double y_scale_ = 1.0;

  std::optional<linalg::CholeskyFactor> factor_;
  linalg::Vector alpha_;  // (K + sigma^2 I)^{-1} y
  linalg::Vector w_;      // L^{-1} y, shared by all cached predictions

  std::uint64_t fit_version_ = 0;
  int adds_since_refit_ = 0;
  double lml_per_obs_at_refit_ = 0.0;
};

}  // namespace mlcd::gp
