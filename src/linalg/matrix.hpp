// Dense row-major matrix/vector types sized for Gaussian-process work.
//
// GP regression over a deployment search needs kernels on at most a few
// hundred observations, so an unblocked O(n^3) dense implementation is the
// right tool: simple, cache-friendly at this scale, and dependency-free.
// All dimension mismatches throw std::invalid_argument — a GP fed
// inconsistent shapes is a programming error we want loudly.
#pragma once

#include <cstddef>
#include <initializer_list>
#include <span>
#include <vector>

namespace mlcd::linalg {

using Vector = std::vector<double>;

/// Dense row-major matrix of doubles.
class Matrix {
 public:
  Matrix() = default;

  /// rows x cols matrix, zero-initialized.
  Matrix(std::size_t rows, std::size_t cols);

  /// rows x cols matrix filled with `fill`.
  Matrix(std::size_t rows, std::size_t cols, double fill);

  /// Construction from nested initializer lists; all rows must have equal
  /// length. Example: Matrix{{1,2},{3,4}}.
  Matrix(std::initializer_list<std::initializer_list<double>> rows);

  std::size_t rows() const noexcept { return rows_; }
  std::size_t cols() const noexcept { return cols_; }
  bool empty() const noexcept { return data_.empty(); }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  /// Bounds-checked access (throws std::out_of_range).
  double& at(std::size_t r, std::size_t c);
  double at(std::size_t r, std::size_t c) const;

  /// Contiguous view of row r.
  std::span<double> row(std::size_t r);
  std::span<const double> row(std::size_t r) const;

  /// Raw storage (row-major).
  std::span<const double> data() const noexcept { return data_; }

  /// n x n identity.
  static Matrix identity(std::size_t n);

  Matrix transposed() const;

  /// this * other; dimensions must agree.
  Matrix operator*(const Matrix& other) const;

  /// this * v.
  Vector operator*(const Vector& v) const;

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;

  /// Appends one row in place (amortized O(cols), no copy of the
  /// existing rows); `values` must have cols() entries. An empty 0 x 0
  /// matrix takes its column count from the first row.
  void append_row(std::span<const double> values);

  /// Adds `value` to every diagonal entry (square matrices only).
  void add_to_diagonal(double value);

  /// Max |a_ij - b_ij|; shapes must match.
  static double max_abs_diff(const Matrix& a, const Matrix& b);

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

/// Dot product; sizes must match.
double dot(std::span<const double> a, std::span<const double> b);

/// Euclidean norm.
double norm2(std::span<const double> v);

/// a - b elementwise; sizes must match.
Vector subtract(std::span<const double> a, std::span<const double> b);

/// a + b elementwise; sizes must match.
Vector add(std::span<const double> a, std::span<const double> b);

/// v scaled by s.
Vector scale(std::span<const double> v, double s);

}  // namespace mlcd::linalg
