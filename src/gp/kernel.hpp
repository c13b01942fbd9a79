// Covariance kernels for Gaussian-process regression.
//
// The paper follows the BO convention of a Gaussian-process prior over the
// unknown speed(deployment) function (§III-C "Prior function"). We provide
// the standard stationary kernels used in that literature — squared
// exponential and the Matérn family — each with ARD (per-dimension)
// lengthscales. Hyperparameters are exposed as a flat log-space vector so
// generic optimizers can tune them.
#pragma once

#include <memory>
#include <span>
#include <string>
#include <vector>

#include "linalg/matrix.hpp"

namespace mlcd::gp {

/// Interface for positive-definite stationary kernels k(x, x').
class Kernel {
 public:
  virtual ~Kernel() = default;

  /// Covariance between two points of the same dimensionality.
  virtual double operator()(std::span<const double> a,
                            std::span<const double> b) const = 0;

  /// Fills `out` with the Gram matrix out(i, j) = k(x_i, x_j) over the
  /// rows of `x` — one virtual call per fill instead of one per entry.
  /// Every entry is bit-identical to operator() on the same pair. `out`
  /// is reallocated only when it is not already n x n.
  virtual void gram(const linalg::Matrix& x, linalg::Matrix& out) const = 0;

  /// Human-readable name ("matern52", ...).
  virtual std::string name() const = 0;

  /// Number of tunable hyperparameters.
  virtual std::size_t param_count() const = 0;

  /// Current hyperparameters in log space (all are positive scales).
  virtual std::vector<double> log_params() const = 0;

  /// Sets hyperparameters from log space; size must equal param_count().
  virtual void set_log_params(std::span<const double> lp) = 0;

  /// Deep copy.
  virtual std::unique_ptr<Kernel> clone() const = 0;
};

/// Base for kernels of the form sigma_f^2 * g(r) with ARD scaling
/// r^2 = sum_d ((a_d - b_d) / l_d)^2.
//
// Hyperparameter layout: [log sigma_f, log l_1, ..., log l_D].
class ArdStationaryKernel : public Kernel {
 public:
  /// `dim` input dimensions; initial signal stddev and lengthscales of 1.
  explicit ArdStationaryKernel(std::size_t dim);

  std::size_t param_count() const override { return 1 + lengthscales_.size(); }
  std::vector<double> log_params() const override;
  void set_log_params(std::span<const double> lp) override;

  double signal_variance() const noexcept {
    return signal_stddev_ * signal_stddev_;
  }
  std::span<const double> lengthscales() const noexcept {
    return lengthscales_;
  }

  void set_signal_stddev(double s);
  void set_lengthscale(std::size_t dim, double l);

  double operator()(std::span<const double> a,
                    std::span<const double> b) const override;

 protected:
  /// Radial profile g(r) with g(0) = 1, evaluated at scaled distance r.
  virtual double radial(double r) const = 0;

  /// Scaled Euclidean distance between two points.
  double scaled_distance(std::span<const double> a,
                         std::span<const double> b) const;

  /// The Gram fill shared by the concrete kernels: operator()'s per-entry
  /// arithmetic with the radial profile bound at compile time.
  template <double (*Radial)(double)>
  void fill_gram(const linalg::Matrix& x, linalg::Matrix& out) const;

  double signal_stddev_ = 1.0;
  std::vector<double> lengthscales_;
};

/// Squared-exponential (RBF): g(r) = exp(-r^2 / 2). Infinitely smooth;
/// often too smooth for systems-performance data.
class SquaredExponentialKernel final : public ArdStationaryKernel {
 public:
  using ArdStationaryKernel::ArdStationaryKernel;
  std::string name() const override { return "squared_exponential"; }
  std::unique_ptr<Kernel> clone() const override;
  void gram(const linalg::Matrix& x, linalg::Matrix& out) const override;

 protected:
  double radial(double r) const override;
};

/// Matérn 3/2: g(r) = (1 + sqrt(3) r) exp(-sqrt(3) r). Once
/// differentiable.
class Matern32Kernel final : public ArdStationaryKernel {
 public:
  using ArdStationaryKernel::ArdStationaryKernel;
  std::string name() const override { return "matern32"; }
  std::unique_ptr<Kernel> clone() const override;
  void gram(const linalg::Matrix& x, linalg::Matrix& out) const override;

 protected:
  double radial(double r) const override;
};

/// Matérn 5/2: g(r) = (1 + sqrt(5) r + 5 r^2 / 3) exp(-sqrt(5) r).
/// Twice differentiable — the default choice for performance modeling
/// (also CherryPick's choice).
class Matern52Kernel final : public ArdStationaryKernel {
 public:
  using ArdStationaryKernel::ArdStationaryKernel;
  std::string name() const override { return "matern52"; }
  std::unique_ptr<Kernel> clone() const override;
  void gram(const linalg::Matrix& x, linalg::Matrix& out) const override;

 protected:
  double radial(double r) const override;
};

}  // namespace mlcd::gp
