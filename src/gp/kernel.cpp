#include "gp/kernel.hpp"

#include <cmath>
#include <stdexcept>

namespace mlcd::gp {

ArdStationaryKernel::ArdStationaryKernel(std::size_t dim)
    : lengthscales_(dim, 1.0) {
  if (dim == 0) {
    throw std::invalid_argument("ArdStationaryKernel: dim must be > 0");
  }
}

std::vector<double> ArdStationaryKernel::log_params() const {
  std::vector<double> lp;
  lp.reserve(param_count());
  lp.push_back(std::log(signal_stddev_));
  for (double l : lengthscales_) lp.push_back(std::log(l));
  return lp;
}

void ArdStationaryKernel::set_log_params(std::span<const double> lp) {
  if (lp.size() != param_count()) {
    throw std::invalid_argument("set_log_params: size mismatch");
  }
  signal_stddev_ = std::exp(lp[0]);
  for (std::size_t d = 0; d < lengthscales_.size(); ++d) {
    lengthscales_[d] = std::exp(lp[d + 1]);
  }
}

void ArdStationaryKernel::set_signal_stddev(double s) {
  if (!(s > 0.0)) {
    throw std::invalid_argument("set_signal_stddev: must be positive");
  }
  signal_stddev_ = s;
}

void ArdStationaryKernel::set_lengthscale(std::size_t dim, double l) {
  if (dim >= lengthscales_.size()) {
    throw std::out_of_range("set_lengthscale: bad dimension");
  }
  if (!(l > 0.0)) {
    throw std::invalid_argument("set_lengthscale: must be positive");
  }
  lengthscales_[dim] = l;
}

double ArdStationaryKernel::scaled_distance(std::span<const double> a,
                                            std::span<const double> b) const {
  if (a.size() != lengthscales_.size() || b.size() != lengthscales_.size()) {
    throw std::invalid_argument("kernel: input dimension mismatch");
  }
  double r2 = 0.0;
  for (std::size_t d = 0; d < a.size(); ++d) {
    const double s = (a[d] - b[d]) / lengthscales_[d];
    r2 += s * s;
  }
  return std::sqrt(r2);
}

double ArdStationaryKernel::operator()(std::span<const double> a,
                                       std::span<const double> b) const {
  return signal_variance() * radial(scaled_distance(a, b));
}

template <double (*Radial)(double)>
void ArdStationaryKernel::fill_gram(const linalg::Matrix& x,
                                    linalg::Matrix& out) const {
  const std::size_t n = x.rows();
  const std::size_t dim = lengthscales_.size();
  if (x.cols() != dim) {
    throw std::invalid_argument("kernel: input dimension mismatch");
  }
  if (out.rows() != n || out.cols() != n) out = linalg::Matrix(n, n);
  const double* rows = x.data().data();
  const double* ls = lengthscales_.data();
  const double variance = signal_variance();
  for (std::size_t i = 0; i < n; ++i) {
    const double* a = rows + i * dim;
    for (std::size_t j = 0; j <= i; ++j) {
      const double* b = rows + j * dim;
      // scaled_distance() and operator(), term for term.
      double r2 = 0.0;
      for (std::size_t d = 0; d < dim; ++d) {
        const double s = (a[d] - b[d]) / ls[d];
        r2 += s * s;
      }
      const double v = variance * Radial(std::sqrt(r2));
      out(i, j) = v;
      out(j, i) = v;
    }
  }
}

namespace {

double squared_exponential_radial(double r) { return std::exp(-0.5 * r * r); }

double matern32_radial(double r) {
  const double s = std::sqrt(3.0) * r;
  return (1.0 + s) * std::exp(-s);
}

double matern52_radial(double r) {
  const double s = std::sqrt(5.0) * r;
  return (1.0 + s + s * s / 3.0) * std::exp(-s);
}

}  // namespace

double SquaredExponentialKernel::radial(double r) const {
  return squared_exponential_radial(r);
}

void SquaredExponentialKernel::gram(const linalg::Matrix& x,
                                    linalg::Matrix& out) const {
  fill_gram<squared_exponential_radial>(x, out);
}

std::unique_ptr<Kernel> SquaredExponentialKernel::clone() const {
  return std::make_unique<SquaredExponentialKernel>(*this);
}

double Matern32Kernel::radial(double r) const { return matern32_radial(r); }

void Matern32Kernel::gram(const linalg::Matrix& x, linalg::Matrix& out) const {
  fill_gram<matern32_radial>(x, out);
}

std::unique_ptr<Kernel> Matern32Kernel::clone() const {
  return std::make_unique<Matern32Kernel>(*this);
}

double Matern52Kernel::radial(double r) const { return matern52_radial(r); }

void Matern52Kernel::gram(const linalg::Matrix& x, linalg::Matrix& out) const {
  fill_gram<matern52_radial>(x, out);
}

std::unique_ptr<Kernel> Matern52Kernel::clone() const {
  return std::make_unique<Matern52Kernel>(*this);
}

}  // namespace mlcd::gp
