#include "gp/gp_regressor.hpp"

#include <atomic>
#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>

#include "gp/nelder_mead.hpp"
#include "util/logging.hpp"

namespace mlcd::gp {
namespace {

/// Pivot-conditioning floor for the incremental border: below this ratio
/// the new point is (numerically) a duplicate and the full refit's
/// escalating jitter is the safe route.
constexpr double kMinBorderPivotRatio = 1e-12;

/// Fit versions are unique across all GpRegressor instances so a
/// PredictCache can never be validated against the wrong surrogate.
std::uint64_t next_fit_version() {
  static std::atomic<std::uint64_t> counter{0};
  return ++counter;
}

}  // namespace

double Prediction::stddev() const { return std::sqrt(std::max(variance, 0.0)); }

GpRegressor::GpRegressor(std::unique_ptr<Kernel> kernel, GpOptions options)
    : kernel_(std::move(kernel)),
      options_(options),
      noise_stddev_(options.noise_stddev) {
  if (!kernel_) {
    throw std::invalid_argument("GpRegressor: null kernel");
  }
  if (!(noise_stddev_ > 0.0)) {
    throw std::invalid_argument("GpRegressor: noise_stddev must be > 0");
  }
}

GpRegressor::GpRegressor(const GpRegressor& other)
    : kernel_(other.kernel_->clone()),
      options_(other.options_),
      noise_stddev_(other.noise_stddev_),
      x_(other.x_),
      y_raw_(other.y_raw_),
      y_(other.y_),
      noise_multipliers_(other.noise_multipliers_),
      y_mean_(other.y_mean_),
      y_scale_(other.y_scale_),
      factor_(other.factor_),
      alpha_(other.alpha_),
      w_(other.w_),
      fit_version_(other.fit_version_),
      adds_since_refit_(other.adds_since_refit_),
      lml_per_obs_at_refit_(other.lml_per_obs_at_refit_) {}

GpRegressor& GpRegressor::operator=(const GpRegressor& other) {
  if (this == &other) return *this;
  kernel_ = other.kernel_->clone();
  options_ = other.options_;
  noise_stddev_ = other.noise_stddev_;
  x_ = other.x_;
  y_raw_ = other.y_raw_;
  y_ = other.y_;
  noise_multipliers_ = other.noise_multipliers_;
  y_mean_ = other.y_mean_;
  y_scale_ = other.y_scale_;
  factor_ = other.factor_;
  alpha_ = other.alpha_;
  w_ = other.w_;
  fit_version_ = other.fit_version_;
  adds_since_refit_ = other.adds_since_refit_;
  lml_per_obs_at_refit_ = other.lml_per_obs_at_refit_;
  return *this;
}

bool GpRegressor::homoscedastic_noise() const noexcept {
  for (const double m : noise_multipliers_) {
    if (m != 1.0) return false;
  }
  return true;
}

void GpRegressor::fit(const linalg::Matrix& x, const linalg::Vector& y) {
  fit(x, y, linalg::Vector(y.size(), 1.0));
}

void GpRegressor::fit(const linalg::Matrix& x, const linalg::Vector& y,
                      const linalg::Vector& noise_multipliers) {
  if (x.rows() == 0 || x.rows() != y.size()) {
    throw std::invalid_argument("GpRegressor::fit: shape mismatch");
  }
  if (noise_multipliers.size() != y.size()) {
    throw std::invalid_argument(
        "GpRegressor::fit: noise_multipliers size mismatch");
  }
  for (const double m : noise_multipliers) {
    if (!(m > 0.0) || !std::isfinite(m)) {
      throw std::invalid_argument(
          "GpRegressor::fit: noise multipliers must be finite and > 0");
    }
  }
  x_ = x;
  y_raw_ = y;
  noise_multipliers_ = noise_multipliers;
  fit_stored();
}

void GpRegressor::fit_stored() {
  // Target normalization.
  y_mean_ = 0.0;
  y_scale_ = 1.0;
  if (options_.normalize_targets) {
    for (double v : y_raw_) y_mean_ += v;
    y_mean_ /= static_cast<double>(y_raw_.size());
    double ss = 0.0;
    for (double v : y_raw_) ss += (v - y_mean_) * (v - y_mean_);
    const double sd = std::sqrt(ss / static_cast<double>(y_raw_.size()));
    y_scale_ = sd > 1e-12 ? sd : 1.0;
  }
  y_.resize(y_raw_.size());
  for (std::size_t i = 0; i < y_raw_.size(); ++i) {
    y_[i] = (y_raw_[i] - y_mean_) / y_scale_;
  }

  // One covariance buffer serves every likelihood evaluation of this fit
  // and is released on return, so the regressor keeps no extra n x n.
  linalg::Matrix k(y_.size(), y_.size());
  if (options_.optimize_hyperparameters &&
      static_cast<int>(y_.size()) >=
          std::max(3, options_.hyperopt_min_obs)) {
    optimize_hyperparameters(k);
  }
  const double lml = refit_with_current_params(k);
  if (!std::isfinite(lml)) {
    throw std::runtime_error(
        "GpRegressor::fit: covariance factorization failed");
  }
  adds_since_refit_ = 0;
  fit_version_ = next_fit_version();
  lml_per_obs_at_refit_ = lml / static_cast<double>(y_.size());
}

double GpRegressor::refit_with_current_params(linalg::Matrix& k) {
  const std::size_t n = x_.rows();
  kernel_->gram(x_, k);
  if (homoscedastic_noise()) {
    // Bit-exact legacy path: every multi-fidelity-free fit lands here.
    k.add_to_diagonal(noise_stddev_ * noise_stddev_);
  } else {
    for (std::size_t i = 0; i < n; ++i) {
      const double m = noise_multipliers_[i];
      k(i, i) += noise_stddev_ * noise_stddev_ * m * m;
    }
  }

  try {
    if (factor_) {
      factor_->refactor(k);
    } else {
      factor_.emplace(k);
    }
  } catch (const std::runtime_error&) {
    factor_.reset();
    return -std::numeric_limits<double>::infinity();
  }
  factor_->solve_lower_into(y_, w_);
  factor_->solve_lower_transpose_into(w_, alpha_);

  const double fit_term = -0.5 * linalg::dot(y_, alpha_);
  const double complexity_term = -0.5 * factor_->log_determinant();
  const double norm_term = -0.5 * static_cast<double>(n) *
                           std::log(2.0 * std::numbers::pi);
  return fit_term + complexity_term + norm_term;
}

void GpRegressor::optimize_hyperparameters(linalg::Matrix& k) {
  // Parameter vector: kernel log-params followed by log noise stddev.
  std::vector<double> start = kernel_->log_params();
  start.push_back(std::log(noise_stddev_));

  const std::size_t nparams = start.size();
  if (!options_.log_param_lower.empty() &&
      options_.log_param_lower.size() != nparams) {
    throw std::invalid_argument(
        "GpOptions::log_param_lower size must match param count");
  }
  if (!options_.log_param_upper.empty() &&
      options_.log_param_upper.size() != nparams) {
    throw std::invalid_argument(
        "GpOptions::log_param_upper size must match param count");
  }

  auto objective = [this, &k](const std::vector<double>& p) {
    // Reject pathological or out-of-bounds scales early; keeps Cholesky
    // jitter rare and stops the MLE collapsing to flat overconfident fits.
    for (std::size_t i = 0; i < p.size(); ++i) {
      const double v = p[i];
      const double lo = options_.log_param_lower.empty()
                            ? -12.0
                            : options_.log_param_lower[i];
      const double hi = options_.log_param_upper.empty()
                            ? 12.0
                            : options_.log_param_upper[i];
      if (!std::isfinite(v) || v < lo || v > hi) {
        return std::numeric_limits<double>::infinity();
      }
    }
    kernel_->set_log_params(
        std::span<const double>(p.data(), p.size() - 1));
    noise_stddev_ = std::exp(p.back());
    return -refit_with_current_params(k);
  };

  if (!options_.log_param_lower.empty()) {
    for (std::size_t i = 0; i < start.size(); ++i) {
      start[i] = std::max(start[i], options_.log_param_lower[i]);
    }
  }
  if (!options_.log_param_upper.empty()) {
    for (std::size_t i = 0; i < start.size(); ++i) {
      start[i] = std::min(start[i], options_.log_param_upper[i]);
    }
  }

  std::vector<double> best_x = start;
  double best_value = objective(start);

  // Deterministic multi-start: perturb each restart with a fixed pattern
  // so fits are reproducible without threading an Rng through here.
  for (int restart = 0; restart < options_.optimizer_restarts; ++restart) {
    std::vector<double> s = start;
    for (std::size_t i = 0; i < s.size(); ++i) {
      const double delta =
          0.5 * static_cast<double>(restart) *
          ((i + restart) % 2 == 0 ? 1.0 : -1.0);
      s[i] += delta;
    }
    const NelderMeadResult r = nelder_mead(objective, s);
    if (r.value < best_value) {
      best_value = r.value;
      best_x = r.x;
    }
  }

  kernel_->set_log_params(
      std::span<const double>(best_x.data(), best_x.size() - 1));
  noise_stddev_ = std::exp(best_x.back());
  MLCD_LOG(kDebug, "gp") << "hyperparameter MLE: -lml=" << best_value
                         << " noise=" << noise_stddev_;
}

void GpRegressor::add_observation(std::span<const double> x, double y) {
  add_observation(x, y, 1.0);
}

void GpRegressor::add_observation(std::span<const double> x, double y,
                                  double noise_multiplier) {
  if (!factor_) {
    throw std::logic_error("GpRegressor::add_observation: call fit() first");
  }
  if (x.size() != x_.cols()) {
    throw std::invalid_argument(
        "GpRegressor::add_observation: dimension mismatch");
  }
  if (!(noise_multiplier > 0.0) || !std::isfinite(noise_multiplier)) {
    throw std::invalid_argument(
        "GpRegressor::add_observation: noise multiplier must be finite "
        "and > 0");
  }

  // Grow the stored design matrix and raw targets in place; rows 0..n-1
  // are the observations the current factor covers.
  const std::size_t n = x_.rows();
  x_.append_row(x);
  y_raw_.push_back(y);
  noise_multipliers_.push_back(noise_multiplier);

  // Hyperparameters and the target normalization are functions of the
  // whole data set; on the retune schedule a full refit is the correct
  // update. When both are static there is nothing to retune and the
  // incremental path is exact regardless of the schedule.
  const bool params_static = !options_.optimize_hyperparameters &&
                             !options_.normalize_targets;
  const bool scheduled_refit =
      !params_static &&
      (options_.refit_every == 1 ||
       (options_.refit_every > 1 &&
        adds_since_refit_ + 1 >= options_.refit_every));
  if (scheduled_refit) {
    fit_stored();
    return;
  }

  // Incremental path: border the Cholesky factor with the new point's
  // covariance column and refresh alpha (one triangular solve plus an
  // O(n) forward-solve append, O(n²) total). Hyperparameters and the
  // normalization constants stay frozen until the next scheduled retune.
  linalg::Vector col(n);
  for (std::size_t i = 0; i < n; ++i) {
    col[i] = (*kernel_)(x_.row(i), x);
  }
  const double diag =
      noise_multiplier == 1.0
          ? (*kernel_)(x, x) + noise_stddev_ * noise_stddev_ +
                factor_->jitter()
          : (*kernel_)(x, x) +
                noise_stddev_ * noise_stddev_ * noise_multiplier *
                    noise_multiplier +
                factor_->jitter();
  if (!factor_->try_extend(col, diag, kMinBorderPivotRatio)) {
    // Tolerance-checked fallback: the border is numerically unsafe
    // (typically a near-duplicate point); the full refit reapplies the
    // escalating-jitter factorization.
    MLCD_LOG(kDebug, "gp")
        << "incremental update rejected (ill-conditioned border), "
           "falling back to full refit";
    fit_stored();
    return;
  }

  y_.push_back((y_raw_.back() - y_mean_) / y_scale_);
  factor_->extend_solve_lower(w_, y_);
  factor_->solve_lower_transpose_into(w_, alpha_);
  ++adds_since_refit_;

  if (!params_static && options_.refit_evidence_drop > 0.0) {
    const double per_obs =
        log_marginal_likelihood() / static_cast<double>(y_.size());
    if (per_obs < lml_per_obs_at_refit_ - options_.refit_evidence_drop) {
      // Evidence drop: the frozen hyperparameters stopped explaining the
      // data; retune off-schedule.
      MLCD_LOG(kDebug, "gp")
          << "evidence drop (" << per_obs << " vs "
          << lml_per_obs_at_refit_ << " nats/obs at last retune), "
             "refitting early";
      refit_full(true);
    }
  }
}

void GpRegressor::refit_full(bool retune_hyperparameters) {
  if (!factor_) {
    throw std::logic_error("GpRegressor::refit_full: call fit() first");
  }
  if (retune_hyperparameters) {
    fit_stored();
    return;
  }
  linalg::Matrix k(x_.rows(), x_.rows());
  const double lml = refit_with_current_params(k);
  if (!std::isfinite(lml)) {
    throw std::runtime_error(
        "GpRegressor::refit_full: covariance factorization failed");
  }
  adds_since_refit_ = 0;
  fit_version_ = next_fit_version();
  lml_per_obs_at_refit_ = lml / static_cast<double>(y_.size());
}

Prediction GpRegressor::predict(std::span<const double> x) const {
  if (!factor_) {
    throw std::logic_error("GpRegressor::predict: call fit() first");
  }
  if (x.size() != x_.cols()) {
    throw std::invalid_argument("GpRegressor::predict: dimension mismatch");
  }
  const std::size_t n = x_.rows();
  linalg::Vector k_star(n);
  for (std::size_t i = 0; i < n; ++i) {
    k_star[i] = (*kernel_)(x_.row(i), x);
  }

  const double mean_normalized = linalg::dot(k_star, alpha_);
  const linalg::Vector v = factor_->solve_lower(k_star);
  const double prior_var = (*kernel_)(x, x);
  double variance_normalized = prior_var - linalg::dot(v, v);
  variance_normalized = std::max(variance_normalized, 0.0);

  Prediction p;
  p.mean = mean_normalized * y_scale_ + y_mean_;
  p.variance = variance_normalized * y_scale_ * y_scale_;
  return p;
}

Prediction GpRegressor::predict_cached(std::span<const double> x,
                                       PredictCache& cache) const {
  if (!factor_) {
    throw std::logic_error("GpRegressor::predict_cached: call fit() first");
  }
  if (x.size() != x_.cols()) {
    throw std::invalid_argument(
        "GpRegressor::predict_cached: dimension mismatch");
  }
  const std::size_t n = x_.rows();
  if (cache.fit_version != fit_version_ || cache.k_star.size() > n) {
    cache.k_star.clear();
    cache.v.clear();
    cache.fit_version = fit_version_;
  }
  // Append kernel entries for the observations that arrived since this
  // cache was last used, then extend v = L⁻¹ k_star by the same rows.
  for (std::size_t i = cache.k_star.size(); i < n; ++i) {
    cache.k_star.push_back((*kernel_)(x_.row(i), x));
  }
  factor_->extend_solve_lower(cache.v, cache.k_star);

  const double mean_normalized = linalg::dot(cache.v, w_);
  const double prior_var = (*kernel_)(x, x);
  double variance_normalized = prior_var - linalg::dot(cache.v, cache.v);
  variance_normalized = std::max(variance_normalized, 0.0);

  Prediction p;
  p.mean = mean_normalized * y_scale_ + y_mean_;
  p.variance = variance_normalized * y_scale_ * y_scale_;
  return p;
}

double GpRegressor::log_marginal_likelihood() const {
  if (!factor_) {
    throw std::logic_error(
        "GpRegressor::log_marginal_likelihood: call fit() first");
  }
  const double fit_term = -0.5 * linalg::dot(y_, alpha_);
  const double complexity_term = -0.5 * factor_->log_determinant();
  const double norm_term = -0.5 * static_cast<double>(y_.size()) *
                           std::log(2.0 * std::numbers::pi);
  return fit_term + complexity_term + norm_term;
}

}  // namespace mlcd::gp
