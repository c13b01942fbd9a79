// Unit and property tests for src/linalg: Matrix and Cholesky.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "linalg/cholesky.hpp"
#include "linalg/matrix.hpp"
#include "util/rng.hpp"

namespace mlcd::linalg {
namespace {

Matrix random_matrix(std::size_t rows, std::size_t cols, util::Rng& rng) {
  Matrix m(rows, cols);
  for (std::size_t r = 0; r < rows; ++r) {
    for (std::size_t c = 0; c < cols; ++c) m(r, c) = rng.normal();
  }
  return m;
}

/// A * A^T + eps*I is SPD for any A with full row rank (eps guards rank).
Matrix random_spd(std::size_t n, util::Rng& rng) {
  const Matrix a = random_matrix(n, n, rng);
  Matrix spd = a * a.transposed();
  spd.add_to_diagonal(0.5);
  return spd;
}

// ------------------------------------------------------------------ matrix

TEST(Matrix, ConstructionAndAccess) {
  Matrix m(2, 3, 1.5);
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 3u);
  EXPECT_DOUBLE_EQ(m(1, 2), 1.5);
  m(0, 0) = 7.0;
  EXPECT_DOUBLE_EQ(m.at(0, 0), 7.0);
}

TEST(Matrix, InitializerList) {
  Matrix m{{1, 2}, {3, 4}};
  EXPECT_DOUBLE_EQ(m(0, 1), 2);
  EXPECT_DOUBLE_EQ(m(1, 0), 3);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1, 2}, {3}}), std::invalid_argument);
}

TEST(Matrix, AtBoundsChecked) {
  Matrix m(2, 2);
  EXPECT_THROW(m.at(2, 0), std::out_of_range);
  EXPECT_THROW(m.at(0, 2), std::out_of_range);
}

TEST(Matrix, IdentityMultiplicationIsNeutral) {
  util::Rng rng(1);
  const Matrix a = random_matrix(4, 4, rng);
  const Matrix i = Matrix::identity(4);
  EXPECT_LT(Matrix::max_abs_diff(a * i, a), 1e-14);
  EXPECT_LT(Matrix::max_abs_diff(i * a, a), 1e-14);
}

TEST(Matrix, TransposeInvolution) {
  util::Rng rng(2);
  const Matrix a = random_matrix(3, 5, rng);
  EXPECT_LT(Matrix::max_abs_diff(a.transposed().transposed(), a), 1e-15);
}

TEST(Matrix, MultiplicationAgainstHandComputed) {
  const Matrix a{{1, 2}, {3, 4}};
  const Matrix b{{5, 6}, {7, 8}};
  const Matrix c = a * b;
  EXPECT_DOUBLE_EQ(c(0, 0), 19);
  EXPECT_DOUBLE_EQ(c(0, 1), 22);
  EXPECT_DOUBLE_EQ(c(1, 0), 43);
  EXPECT_DOUBLE_EQ(c(1, 1), 50);
}

TEST(Matrix, MatVecMatchesMatMat) {
  util::Rng rng(3);
  const Matrix a = random_matrix(4, 3, rng);
  const Vector v{1.0, -2.0, 0.5};
  const Vector got = a * v;
  Matrix col(3, 1);
  for (std::size_t i = 0; i < 3; ++i) col(i, 0) = v[i];
  const Matrix want = a * col;
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(got[i], want(i, 0), 1e-14);
  }
}

TEST(Matrix, ShapeMismatchThrows) {
  const Matrix a(2, 3), b(2, 3);
  EXPECT_THROW(a * b, std::invalid_argument);
  EXPECT_THROW((a * Vector{1.0, 2.0}), std::invalid_argument);
  EXPECT_THROW(a + Matrix(3, 2), std::invalid_argument);
  EXPECT_THROW(a - Matrix(3, 2), std::invalid_argument);
}

TEST(Matrix, AddSubRoundTrip) {
  util::Rng rng(4);
  const Matrix a = random_matrix(3, 3, rng);
  const Matrix b = random_matrix(3, 3, rng);
  EXPECT_LT(Matrix::max_abs_diff((a + b) - b, a), 1e-14);
}

TEST(Matrix, AddToDiagonalRequiresSquare) {
  Matrix m(2, 3);
  EXPECT_THROW(m.add_to_diagonal(1.0), std::invalid_argument);
}

TEST(Matrix, AppendRowGrowsInPlace) {
  Matrix m;
  m.append_row(std::vector<double>{1.0, 2.0});
  m.append_row(std::vector<double>{3.0, 4.0});
  EXPECT_EQ(m.rows(), 2u);
  EXPECT_EQ(m.cols(), 2u);
  EXPECT_EQ(Matrix::max_abs_diff(m, Matrix{{1, 2}, {3, 4}}), 0.0);
  EXPECT_THROW(m.append_row(std::vector<double>{5.0}), std::invalid_argument);
  EXPECT_EQ(m.rows(), 2u);
}

TEST(VectorOps, DotNormSubtractScale) {
  const Vector a{3.0, 4.0};
  const Vector b{1.0, 2.0};
  EXPECT_DOUBLE_EQ(dot(a, b), 11.0);
  EXPECT_DOUBLE_EQ(norm2(a), 5.0);
  const Vector d = subtract(a, b);
  EXPECT_DOUBLE_EQ(d[0], 2.0);
  EXPECT_DOUBLE_EQ(d[1], 2.0);
  const Vector s = scale(a, 2.0);
  EXPECT_DOUBLE_EQ(s[0], 6.0);
  const Vector sum = add(a, b);
  EXPECT_DOUBLE_EQ(sum[1], 6.0);
  EXPECT_THROW(dot(a, Vector{1.0}), std::invalid_argument);
}

// ---------------------------------------------------------------- cholesky

TEST(Cholesky, FactorOfIdentityIsIdentity) {
  const CholeskyFactor f(Matrix::identity(3));
  EXPECT_LT(Matrix::max_abs_diff(f.lower(), Matrix::identity(3)), 1e-15);
  EXPECT_DOUBLE_EQ(f.jitter(), 0.0);
}

TEST(Cholesky, HandComputed2x2) {
  const Matrix a{{4, 2}, {2, 3}};
  const CholeskyFactor f(a);
  EXPECT_NEAR(f.lower()(0, 0), 2.0, 1e-12);
  EXPECT_NEAR(f.lower()(1, 0), 1.0, 1e-12);
  EXPECT_NEAR(f.lower()(1, 1), std::sqrt(2.0), 1e-12);
}

// Property: L L^T reconstructs A for random SPD matrices of many sizes.
class CholeskyProperty : public testing::TestWithParam<int> {};

TEST_P(CholeskyProperty, ReconstructsInput) {
  util::Rng rng(100 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const CholeskyFactor f(a);
  const Matrix rebuilt = f.lower() * f.lower().transposed();
  EXPECT_LT(Matrix::max_abs_diff(rebuilt, a), 1e-9 * n);
}

TEST_P(CholeskyProperty, SolveSatisfiesSystem) {
  util::Rng rng(200 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const CholeskyFactor f(a);
  const Vector x = f.solve(b);
  const Vector ax = a * x;
  for (std::size_t i = 0; i < n; ++i) EXPECT_NEAR(ax[i], b[i], 1e-8);
}

TEST_P(CholeskyProperty, QuadraticFormMatchesSolve) {
  util::Rng rng(300 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  Vector b(n);
  for (auto& v : b) v = rng.normal();
  const CholeskyFactor f(a);
  const Vector x = f.solve(b);
  EXPECT_NEAR(f.quadratic_form(b), dot(b, x), 1e-8 * n);
}

TEST_P(CholeskyProperty, LogDeterminantMatchesDiagonalProduct) {
  util::Rng rng(400 + GetParam());
  const std::size_t n = GetParam();
  const Matrix a = random_spd(n, rng);
  const CholeskyFactor f(a);
  double ld = 0.0;
  for (std::size_t i = 0; i < n; ++i) ld += 2.0 * std::log(f.lower()(i, i));
  EXPECT_NEAR(f.log_determinant(), ld, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyProperty,
                         testing::Values(1, 2, 3, 5, 8, 13, 21, 34));

TEST(Cholesky, NearSingularSucceedsWithJitter) {
  // Two identical rows: rank deficient, PSD but not PD.
  Matrix a{{1, 1}, {1, 1}};
  const CholeskyFactor f(a);
  EXPECT_GT(f.jitter(), 0.0);
}

TEST(Cholesky, IndefiniteMatrixThrows) {
  const Matrix a{{1, 0}, {0, -5}};
  EXPECT_THROW(CholeskyFactor(a, /*max_jitter_scalings=*/3),
               std::runtime_error);
}

TEST(Cholesky, NonSquareThrows) {
  EXPECT_THROW(CholeskyFactor(Matrix(2, 3)), std::invalid_argument);
}

TEST(Cholesky, EmptyThrows) {
  EXPECT_THROW(CholeskyFactor{Matrix()}, std::invalid_argument);
}

TEST(Cholesky, SolveSizeMismatchThrows) {
  const CholeskyFactor f(Matrix::identity(3));
  EXPECT_THROW(f.solve(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(f.solve_lower(Vector{1.0}), std::invalid_argument);
  EXPECT_THROW(f.solve_lower_transpose(Vector{1.0}), std::invalid_argument);
}

// ------------------------------------------------- in-place refactorization

/// Squared-exponential Gram matrix (unit lengthscale) over points in
/// [0, 4) where every third point repeats its predecessor up to 1e-9:
/// positive semi-definite but singular at machine precision, so the
/// plain factorization usually fails and the jitter route runs.
Matrix near_duplicate_gram(std::size_t n, util::Rng& rng) {
  std::vector<double> pts(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts[i] = i % 3 == 2 ? pts[i - 1] + 1e-9 * rng.uniform()
                        : rng.uniform(0.0, 4.0);
  }
  Matrix k(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      const double d = pts[i] - pts[j];
      k(i, j) = std::exp(-0.5 * d * d);
    }
  }
  return k;
}

/// Number of entries (plus the jitter) where two factors differ at all.
int bit_differences(const CholeskyFactor& a, const CholeskyFactor& b) {
  if (a.dim() != b.dim()) return -1;
  int diffs = a.jitter() == b.jitter() ? 0 : 1;
  for (std::size_t r = 0; r < a.dim(); ++r) {
    for (std::size_t c = 0; c < a.dim(); ++c) {
      if (!(a.lower()(r, c) == b.lower()(r, c))) ++diffs;
    }
  }
  return diffs;
}

// Property: refactor() into storage that held another matrix — same
// size, a different size, or a jittered factor — gives exactly the fresh
// constructor's factor and jitter, for n = 1..64.
TEST(CholeskyRefactor, BitIdenticalToFreshFactor) {
  util::Rng rng(901);
  CholeskyFactor f(Matrix::identity(3));
  int jittered = 0;
  for (std::size_t n = 1; n <= 64; ++n) {
    // The first matrix changes the dimension; the other two reuse it,
    // the last one right after a (usually) jittered factor.
    const Matrix cases[] = {random_spd(n, rng), near_duplicate_gram(n, rng),
                            random_spd(n, rng)};
    for (const Matrix& a : cases) {
      f.refactor(a);
      const CholeskyFactor fresh(a);
      EXPECT_EQ(bit_differences(f, fresh), 0) << "n=" << n;
      if (fresh.jitter() > 0.0) ++jittered;
    }
  }
  // The near-duplicate matrices did exercise the jitter fallback.
  EXPECT_GT(jittered, 20);
}

TEST(CholeskyRefactor, FailureThrowsAndFactorRecovers) {
  CholeskyFactor f(Matrix::identity(2));
  const Matrix indefinite{{1, 0}, {0, -5}};
  EXPECT_THROW(f.refactor(indefinite, /*max_jitter_scalings=*/3),
               std::runtime_error);
  EXPECT_THROW(f.refactor(Matrix(2, 3)), std::invalid_argument);
  const Matrix a{{4, 2}, {2, 3}};
  f.refactor(a);
  EXPECT_EQ(bit_differences(f, CholeskyFactor(a)), 0);
}

// The *_into solves reuse the caller's vectors — stale contents, another
// size — and still match the returning solves bit for bit.
TEST(Cholesky, IntoSolvesMatchReturningSolves) {
  util::Rng rng(902);
  Vector y(7, 42.0);
  Vector x(3, -1.0);
  for (const std::size_t n : {1u, 5u, 17u, 40u, 9u}) {
    const CholeskyFactor f(random_spd(n, rng));
    Vector b(n);
    for (auto& v : b) v = rng.normal();
    f.solve_lower_into(b, y);
    EXPECT_EQ(y, f.solve_lower(b)) << "n=" << n;
    f.solve_lower_transpose_into(y, x);
    EXPECT_EQ(x, f.solve_lower_transpose(y)) << "n=" << n;
    EXPECT_EQ(x, f.solve(b)) << "n=" << n;
  }
  const CholeskyFactor f(Matrix::identity(3));
  EXPECT_THROW(f.solve_lower_into(Vector{1.0}, y), std::invalid_argument);
  EXPECT_THROW(f.solve_lower_transpose_into(Vector{1.0}, x),
               std::invalid_argument);
}

// Property: extending the factor of A to the bordered matrix matches a
// fresh factorization of the bordered matrix.
class CholeskyExtend : public testing::TestWithParam<int> {};

TEST_P(CholeskyExtend, MatchesBatchFactorization) {
  util::Rng rng(500 + GetParam());
  const std::size_t n = 4 + GetParam();
  const Matrix big = random_spd(n + 1, rng);

  // Leading principal block, border column, corner.
  Matrix a(n, n);
  Vector col(n);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) a(r, c) = big(r, c);
    col[r] = big(r, n);
  }

  CholeskyFactor grown(a);
  grown.extend(col, big(n, n));
  const CholeskyFactor batch(big);
  EXPECT_LT(Matrix::max_abs_diff(grown.lower(), batch.lower()), 1e-9);
  EXPECT_NEAR(grown.log_determinant(), batch.log_determinant(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Sizes, CholeskyExtend, testing::Range(0, 6));

TEST(Cholesky, ExtendErrors) {
  CholeskyFactor f(Matrix::identity(3));
  EXPECT_THROW(f.extend(Vector{1.0}, 1.0), std::invalid_argument);
  // Corner too small: bordered matrix indefinite.
  EXPECT_THROW(f.extend(Vector{1.0, 0.0, 0.0}, 0.5), std::runtime_error);
  // Valid extension still works afterwards.
  f.extend(Vector{0.0, 0.0, 0.0}, 4.0);
  EXPECT_EQ(f.dim(), 4u);
  EXPECT_NEAR(f.lower()(3, 3), 2.0, 1e-12);
}

TEST(Cholesky, TriangularSolvesCompose) {
  util::Rng rng(77);
  const Matrix a = random_spd(6, rng);
  Vector b(6);
  for (auto& v : b) v = rng.normal();
  const CholeskyFactor f(a);
  const Vector via_parts = f.solve_lower_transpose(f.solve_lower(b));
  const Vector direct = f.solve(b);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_DOUBLE_EQ(via_parts[i], direct[i]);
  }
}

}  // namespace
}  // namespace mlcd::linalg
