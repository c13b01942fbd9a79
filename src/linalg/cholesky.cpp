#include "linalg/cholesky.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "util/logging.hpp"

namespace mlcd::linalg {

CholeskyFactor::CholeskyFactor(const Matrix& a, int max_jitter_scalings) {
  refactor(a, max_jitter_scalings);
}

void CholeskyFactor::refactor(const Matrix& a, int max_jitter_scalings) {
  if (a.rows() != a.cols()) {
    throw std::invalid_argument("CholeskyFactor: matrix is not square");
  }
  if (a.rows() == 0) {
    throw std::invalid_argument("CholeskyFactor: empty matrix");
  }
  // Same dimension: every entry of the lower triangle is rewritten before
  // it is read and the strict upper triangle stays zero, so reusing the
  // storage gives the factor fresh storage would, bit for bit.
  if (l_.rows() != a.rows()) l_ = Matrix(a.rows(), a.rows());
  jitter_ = 0.0;
  if (try_factor(a, l_)) return;

  double mean_diag = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) mean_diag += a(i, i);
  mean_diag /= static_cast<double>(a.rows());
  double jitter = 1e-12 * std::max(mean_diag, 1.0);

  Matrix jittered;
  for (int attempt = 0; attempt < max_jitter_scalings; ++attempt) {
    jittered = a;
    jittered.add_to_diagonal(jitter);
    if (try_factor(jittered, l_)) {
      MLCD_LOG(kDebug, "linalg")
          << "Cholesky succeeded with jitter " << jitter;
      jitter_ = jitter;
      return;
    }
    jitter *= 10.0;
  }
  throw std::runtime_error(
      "CholeskyFactor: matrix not positive definite even with jitter");
}

bool CholeskyFactor::try_factor(const Matrix& a, Matrix& l) {
  const std::size_t n = a.rows();
  for (std::size_t j = 0; j < n; ++j) {
    const double* lj = &l(j, 0);
    double diag = a(j, j);
    for (std::size_t k = 0; k < j; ++k) diag -= lj[k] * lj[k];
    if (!(diag > 0.0) || !std::isfinite(diag)) return false;
    const double ljj = std::sqrt(diag);
    l(j, j) = ljj;
    for (std::size_t i = j + 1; i < n; ++i) {
      double* li = &l(i, 0);
      double s = a(i, j);
      for (std::size_t k = 0; k < j; ++k) s -= li[k] * lj[k];
      li[j] = s / ljj;
    }
  }
  return true;
}

Vector CholeskyFactor::solve(const Vector& b) const {
  return solve_lower_transpose(solve_lower(b));
}

Vector CholeskyFactor::solve_lower(const Vector& b) const {
  Vector y;
  solve_lower_into(b, y);
  return y;
}

Vector CholeskyFactor::solve_lower_transpose(const Vector& y) const {
  Vector x;
  solve_lower_transpose_into(y, x);
  return x;
}

void CholeskyFactor::solve_lower_into(std::span<const double> b,
                                      Vector& y) const {
  const std::size_t n = dim();
  if (b.size() != n) {
    throw std::invalid_argument("CholeskyFactor::solve_lower: size mismatch");
  }
  y.resize(n);
  const double* l = l_.data().data();
  for (std::size_t i = 0; i < n; ++i) {
    const double* li = l + i * n;
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= li[k] * y[k];
    y[i] = s / li[i];
  }
}

void CholeskyFactor::solve_lower_transpose_into(std::span<const double> y,
                                                Vector& x) const {
  const std::size_t n = dim();
  if (y.size() != n) {
    throw std::invalid_argument(
        "CholeskyFactor::solve_lower_transpose: size mismatch");
  }
  x.resize(n);
  for (std::size_t ii = n; ii-- > 0;) {
    double s = y[ii];
    for (std::size_t k = ii + 1; k < n; ++k) s -= l_(k, ii) * x[k];
    x[ii] = s / l_(ii, ii);
  }
}

double CholeskyFactor::log_determinant() const {
  double ld = 0.0;
  for (std::size_t i = 0; i < dim(); ++i) ld += std::log(l_(i, i));
  return 2.0 * ld;
}

double CholeskyFactor::quadratic_form(const Vector& b) const {
  const Vector y = solve_lower(b);
  return dot(y, y);
}

void CholeskyFactor::extend(const Vector& col, double diag) {
  if (!try_extend(col, diag)) {
    throw std::runtime_error(
        "CholeskyFactor::extend: bordered matrix not positive definite");
  }
}

bool CholeskyFactor::try_extend(const Vector& col, double diag,
                                double min_pivot_ratio) {
  const std::size_t n = dim();
  if (col.size() != n) {
    throw std::invalid_argument("CholeskyFactor::extend: size mismatch");
  }
  // New bottom row of L: L row = solve(L l = col); corner = sqrt of the
  // Schur complement. The pivot subtracts the squares sequentially —
  // the same order try_factor uses — so the grown factor is bit-identical
  // to a fresh factorization of the bordered matrix.
  const Vector l_row = solve_lower(col);
  double schur = diag;
  for (const double v : l_row) schur -= v * v;
  if (!(schur > 0.0) || !std::isfinite(schur) ||
      schur < min_pivot_ratio * diag) {
    return false;
  }
  Matrix grown(n + 1, n + 1);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c <= r; ++c) grown(r, c) = l_(r, c);
  }
  for (std::size_t c = 0; c < n; ++c) grown(n, c) = l_row[c];
  grown(n, n) = std::sqrt(schur);
  l_ = std::move(grown);
  return true;
}

void CholeskyFactor::extend_solve_lower(Vector& partial,
                                        std::span<const double> b) const {
  const std::size_t n = dim();
  if (partial.size() > n || b.size() < n) {
    throw std::invalid_argument(
        "CholeskyFactor::extend_solve_lower: size mismatch");
  }
  for (std::size_t i = partial.size(); i < n; ++i) {
    double s = b[i];
    for (std::size_t k = 0; k < i; ++k) s -= l_(i, k) * partial[k];
    partial.push_back(s / l_(i, i));
  }
}

}  // namespace mlcd::linalg
