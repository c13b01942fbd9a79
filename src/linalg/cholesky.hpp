// Cholesky factorization of symmetric positive-definite matrices with
// escalating diagonal jitter — the standard numerically robust route for
// Gaussian-process covariance matrices, which are PSD in exact arithmetic
// but often indefinite at machine precision when observations nearly
// coincide (e.g. two probes of the same deployment).
#pragma once

#include <cstddef>
#include <span>

#include "linalg/matrix.hpp"

namespace mlcd::linalg {

/// Lower-triangular Cholesky factor L with A + jitter*I = L*L^T.
class CholeskyFactor {
 public:
  /// Factorizes `a` (must be square, symmetric). If the plain
  /// factorization fails, retries with jitter 1e-12 * mean(diag) escalated
  /// by 10x up to `max_jitter_scalings` times.
  ///
  /// Throws std::invalid_argument for non-square input and
  /// std::runtime_error when the matrix is not PD even at maximum jitter.
  explicit CholeskyFactor(const Matrix& a, int max_jitter_scalings = 10);

  /// Replaces this factor with the constructor's factorization of `a`,
  /// bit for bit. When `a` has the current dimension the plain
  /// factorization writes into the existing storage, so a caller that
  /// refits the same-size covariance many times (the GP hyperparameter
  /// MLE) allocates nothing; a dimension change reallocates, and only
  /// the escalating-jitter retry copies `a`. `a` must not be lower()
  /// itself. Throws like the constructor; after a throw the factor is
  /// unusable until a refactor() succeeds.
  void refactor(const Matrix& a, int max_jitter_scalings = 10);

  /// The lower-triangular factor.
  const Matrix& lower() const noexcept { return l_; }

  /// The jitter actually added to the diagonal (0 when none was needed).
  double jitter() const noexcept { return jitter_; }

  std::size_t dim() const noexcept { return l_.rows(); }

  /// Solves (L L^T) x = b.
  Vector solve(const Vector& b) const;

  /// Solves L y = b (forward substitution).
  Vector solve_lower(const Vector& b) const;

  /// Solves L^T x = y (backward substitution).
  Vector solve_lower_transpose(const Vector& y) const;

  /// solve_lower() into `y`, resized to dim() — no allocation once `y`
  /// has the capacity. Bit-identical to the returning form. `y` must not
  /// alias `b`.
  void solve_lower_into(std::span<const double> b, Vector& y) const;

  /// solve_lower_transpose() into `x`, same contract as
  /// solve_lower_into().
  void solve_lower_transpose_into(std::span<const double> y,
                                  Vector& x) const;

  /// log det(A + jitter I) = 2 * sum_i log L_ii.
  double log_determinant() const;

  /// b^T A^{-1} b via the factor — the quadratic form in the GP marginal
  /// likelihood.
  double quadratic_form(const Vector& b) const;

  /// Extends the factorization of A to that of the bordered matrix
  ///   [ A    col ]
  ///   [ colᵀ diag]
  /// in O(n²) instead of a fresh O(n³) factorization — the incremental
  /// update a growing GP uses when one observation arrives.
  /// `col` has dim() entries. Throws std::invalid_argument on a size
  /// mismatch and std::runtime_error when the bordered matrix is not
  /// positive definite.
  void extend(const Vector& col, double diag);

  /// Tolerance-checked extend: returns false (leaving the factor
  /// untouched) instead of throwing when the new pivot — the Schur
  /// complement diag - ||L⁻¹col||² — is non-positive, non-finite, or
  /// smaller than `min_pivot_ratio * diag`. Callers use the failure as
  /// the signal to fall back to a full refactorization with jitter.
  /// Still throws std::invalid_argument on a size mismatch.
  bool try_extend(const Vector& col, double diag,
                  double min_pivot_ratio = 0.0);

  /// Incremental forward substitution: given `partial` holding the first
  /// m entries of y = L⁻¹ b (0 <= m <= dim()), appends the remaining
  /// entries using rows m..dim()-1 of L and b[m..dim()-1]. Identical
  /// arithmetic to solve_lower, so a solution grown entry-by-entry across
  /// extend() calls is bit-identical to a fresh solve — the property the
  /// GP's cached candidate scans rely on. Throws std::invalid_argument
  /// when partial is longer than dim() or b is shorter than dim().
  void extend_solve_lower(Vector& partial, std::span<const double> b) const;

 private:
  /// Plain factorization of `a` into the lower triangle of `l` (n x n,
  /// strictly upper triangle zero); returns false when a non-positive
  /// pivot is hit, leaving `l` partially written.
  static bool try_factor(const Matrix& a, Matrix& l);

  Matrix l_;
  double jitter_ = 0.0;
};

}  // namespace mlcd::linalg
