#include "util/matrix.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <stdexcept>
#include <vector>

#include "util/rng.hpp"

namespace dtpm::util {
namespace {

TEST(Matrix, ConstructsZeroInitialized) {
  Matrix m(3, 2);
  EXPECT_EQ(m.rows(), 3u);
  EXPECT_EQ(m.cols(), 2u);
  for (std::size_t i = 0; i < 3; ++i) {
    for (std::size_t j = 0; j < 2; ++j) EXPECT_EQ(m(i, j), 0.0);
  }
}

TEST(Matrix, InitializerListLayout) {
  Matrix m{{1.0, 2.0}, {3.0, 4.0}};
  EXPECT_EQ(m(0, 0), 1.0);
  EXPECT_EQ(m(0, 1), 2.0);
  EXPECT_EQ(m(1, 0), 3.0);
  EXPECT_EQ(m(1, 1), 4.0);
}

TEST(Matrix, RaggedInitializerThrows) {
  EXPECT_THROW((Matrix{{1.0, 2.0}, {3.0}}), std::invalid_argument);
}

TEST(Matrix, IdentityTimesVectorIsIdentityOp) {
  const Matrix eye = Matrix::identity(4);
  const Matrix v = Matrix::column({1.0, -2.0, 3.5, 0.25});
  EXPECT_TRUE((eye * v).approx_equal(v, 1e-15));
}

TEST(Matrix, AdditionSubtraction) {
  Matrix a{{1, 2}, {3, 4}};
  Matrix b{{4, 3}, {2, 1}};
  const Matrix sum = a + b;
  EXPECT_TRUE(sum.approx_equal(Matrix{{5, 5}, {5, 5}}, 1e-15));
  const Matrix diff = sum - b;
  EXPECT_TRUE(diff.approx_equal(a, 1e-15));
}

TEST(Matrix, ShapeMismatchThrows) {
  Matrix a(2, 2), b(3, 2);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a - b, std::invalid_argument);
  EXPECT_THROW(b * b, std::invalid_argument);
}

TEST(Matrix, MultiplicationKnownResult) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  Matrix b{{7, 8}, {9, 10}, {11, 12}};
  const Matrix c = a * b;
  EXPECT_TRUE(c.approx_equal(Matrix{{58, 64}, {139, 154}}, 1e-12));
}

TEST(Matrix, TransposeRoundTrip) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_TRUE(a.transpose().transpose().approx_equal(a, 0.0));
  EXPECT_EQ(a.transpose()(2, 1), 6.0);
}

TEST(Matrix, PowMatchesRepeatedMultiply) {
  Matrix a{{0.9, 0.1}, {0.05, 0.85}};
  Matrix expected = Matrix::identity(2);
  for (int i = 0; i < 7; ++i) expected = expected * a;
  EXPECT_TRUE(a.pow(7).approx_equal(expected, 1e-12));
  EXPECT_TRUE(a.pow(0).approx_equal(Matrix::identity(2), 0.0));
}

TEST(Matrix, PowNonSquareThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(a.pow(2), std::invalid_argument);
}

TEST(Matrix, RowColExtraction) {
  Matrix a{{1, 2, 3}, {4, 5, 6}};
  EXPECT_TRUE(a.row(1).approx_equal(Matrix{{4, 5, 6}}, 0.0));
  EXPECT_TRUE(a.col(2).approx_equal(Matrix::column({3, 6}), 0.0));
}

TEST(Matrix, SolveKnownSystem) {
  Matrix a{{2, 1}, {1, 3}};
  const Matrix b = Matrix::column({5, 10});
  const Matrix x = a.solve(b);
  EXPECT_NEAR(x(0, 0), 1.0, 1e-12);
  EXPECT_NEAR(x(1, 0), 3.0, 1e-12);
}

TEST(Matrix, SolveSingularThrows) {
  Matrix a{{1, 2}, {2, 4}};
  EXPECT_THROW(a.solve(Matrix::column({1, 2})), std::runtime_error);
}

TEST(Matrix, InverseTimesSelfIsIdentity) {
  Matrix a{{4, 7, 2}, {3, 6, 1}, {2, 5, 3}};
  EXPECT_TRUE((a * a.inverse()).approx_equal(Matrix::identity(3), 1e-10));
}

TEST(Matrix, LeastSquaresExactWhenConsistent) {
  // Overdetermined but consistent: y = 2x + 1.
  Matrix a(5, 2);
  Matrix y(5, 1);
  for (int i = 0; i < 5; ++i) {
    a(i, 0) = double(i);
    a(i, 1) = 1.0;
    y(i, 0) = 2.0 * i + 1.0;
  }
  const Matrix theta = a.least_squares(y);
  EXPECT_NEAR(theta(0, 0), 2.0, 1e-10);
  EXPECT_NEAR(theta(1, 0), 1.0, 1e-10);
}

TEST(Matrix, LeastSquaresMinimizesResidual) {
  // Noisy line fit: the LS solution must beat small perturbations of itself.
  util::Rng rng(42);
  Matrix a(50, 2);
  Matrix y(50, 1);
  for (int i = 0; i < 50; ++i) {
    a(i, 0) = double(i) / 10.0;
    a(i, 1) = 1.0;
    y(i, 0) = 3.0 * a(i, 0) - 2.0 + rng.gaussian(0.0, 0.1);
  }
  const Matrix theta = a.least_squares(y);
  auto residual = [&](const Matrix& th) {
    return (a * th - y).frobenius_norm();
  };
  const double base = residual(theta);
  for (double eps : {0.01, -0.01}) {
    Matrix perturbed = theta;
    perturbed(0, 0) += eps;
    EXPECT_LT(base, residual(perturbed));
  }
}

TEST(Matrix, LeastSquaresUnderdeterminedThrows) {
  Matrix a(2, 3);
  EXPECT_THROW(a.least_squares(Matrix(2, 1)), std::invalid_argument);
}

TEST(Matrix, RidgeShrinksSolution) {
  Matrix a(4, 1);
  Matrix y(4, 1);
  for (int i = 0; i < 4; ++i) {
    a(i, 0) = 1.0;
    y(i, 0) = 2.0;
  }
  const double plain = a.least_squares(y)(0, 0);
  const double ridged = a.least_squares(y, 10.0)(0, 0);
  EXPECT_NEAR(plain, 2.0, 1e-12);
  EXPECT_LT(ridged, plain);
  EXPECT_GT(ridged, 0.0);
}

TEST(Matrix, SpectralRadiusOfDiagonal) {
  Matrix a{{0.5, 0.0}, {0.0, -0.9}};
  EXPECT_NEAR(a.spectral_radius(), 0.9, 1e-6);
}

TEST(Matrix, SpectralRadiusNegativeDominantEigenvalueConverges) {
  // Dominant eigenvalue -2 flips the iterate's sign every step; the
  // alignment criterion must accept that (|<y, x>| -> 1) instead of
  // spinning to the iteration cap.
  Matrix a{{-2.0, 0.0}, {0.0, 0.5}};
  EXPECT_NEAR(a.spectral_radius(/*iterations=*/60), 2.0, 1e-6);
}

TEST(Matrix, SpectralRadiusComplexPairRegression) {
  // Eigenvalues 1 +/- i*sqrt(5): a rotation-dominated iteration that never
  // aligns. The pre-fix power iteration stalled and returned whatever the
  // last oscillating ||A x_k|| happened to be; the Krylov fallback recovers
  // the exact pair modulus sqrt(6).
  Matrix a{{1.0, -5.0}, {1.0, 1.0}};
  EXPECT_NEAR(a.spectral_radius(), std::sqrt(6.0), 1e-9);
}

TEST(Matrix, SpectralRadiusPureRotation) {
  // Eigenvalues +/- 0.9i: zero real part, the fully rotation-dominated
  // corner case.
  Matrix a{{0.0, -0.9}, {0.9, 0.0}};
  EXPECT_NEAR(a.spectral_radius(), 0.9, 1e-9);
}

TEST(Matrix, SpectralRadiusComplexPairEmbeddedInLargerSystem) {
  // Block diagonal: a decaying real mode plus a dominant complex pair with
  // modulus sqrt(0.5^2 + 1.1^2). The fallback must find the pair even when
  // the iterate mixes in other modes.
  Matrix a{{0.2, 0.0, 0.0}, {0.0, 0.5, -1.1}, {0.0, 1.1, 0.5}};
  EXPECT_NEAR(a.spectral_radius(), std::hypot(0.5, 1.1), 1e-7);
}

TEST(Matrix, MaxAbsAndNorm) {
  Matrix a{{3, -4}};
  EXPECT_EQ(a.max_abs(), 4.0);
  EXPECT_NEAR(a.frobenius_norm(), 5.0, 1e-12);
}

// --- Householder QR against the per-column reference ----------------------

/// The per-column Householder solve qr_solve_into replaced, kept verbatim as
/// the bit-identity oracle: each reflector is applied to one column of
/// [a | rhs] at a time, its dot product summed over the rows in one serial
/// chain.
void per_column_qr_solve(Matrix& a, Matrix& rhs, std::vector<double>& householder,
                         Matrix& x) {
  if (rhs.rows() != a.rows()) {
    throw std::invalid_argument("Matrix::least_squares: rhs mismatch");
  }
  if (a.rows() < a.cols()) {
    throw std::invalid_argument("Matrix::least_squares: underdetermined");
  }
  const std::size_t m = a.rows();
  const std::size_t n = a.cols();
  if (householder.size() < m) householder.resize(m);
  double* const v = householder.data();
  for (std::size_t k = 0; k < n; ++k) {
    double norm = 0.0;
    for (std::size_t i = k; i < m; ++i) norm += a(i, k) * a(i, k);
    norm = std::sqrt(norm);
    if (norm < 1e-14) {
      throw std::runtime_error("Matrix::least_squares: rank deficient");
    }
    const double alpha = a(k, k) >= 0 ? -norm : norm;
    v[0] = a(k, k) - alpha;
    for (std::size_t i = k + 1; i < m; ++i) v[i - k] = a(i, k);
    double vnorm2 = 0.0;
    for (std::size_t i = 0; i < m - k; ++i) vnorm2 += v[i] * v[i];
    if (vnorm2 < 1e-28) continue;
    auto apply = [&](Matrix& target, std::size_t col_begin, std::size_t col_end) {
      for (std::size_t j = col_begin; j < col_end; ++j) {
        double dot = 0.0;
        for (std::size_t i = k; i < m; ++i) dot += v[i - k] * target(i, j);
        const double beta = 2.0 * dot / vnorm2;
        for (std::size_t i = k; i < m; ++i) target(i, j) -= beta * v[i - k];
      }
    };
    apply(a, k, n);
    apply(rhs, 0, rhs.cols());
  }
  if (x.rows() != n || x.cols() != rhs.cols()) x = Matrix(n, rhs.cols());
  for (std::size_t kk = n; kk-- > 0;) {
    for (std::size_t j = 0; j < rhs.cols(); ++j) {
      double sum = rhs(kk, j);
      for (std::size_t i = kk + 1; i < n; ++i) sum -= a(kk, i) * x(i, j);
      x(kk, j) = sum / a(kk, kk);
    }
  }
}

bool same_bits(const Matrix& a, const Matrix& b) {
  if (!a.same_shape(b)) return false;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      const double x = a(i, j);
      const double y = b(i, j);
      if (std::memcmp(&x, &y, sizeof x) != 0) return false;
    }
  }
  return true;
}

/// A random `rows` x `cols` system with `rhs_cols` right-hand sides; with
/// `ridge`, its last `cols` rows are sqrt(ridge) * I against zero targets,
/// as fit_thermal_model and fit_leakage append them.
void random_system(Rng& rng, std::size_t rows, std::size_t cols,
                   std::size_t rhs_cols, bool ridge, Matrix& a, Matrix& rhs) {
  a = Matrix(rows, cols);
  rhs = Matrix(rows, rhs_cols);
  const std::size_t data_rows = ridge ? rows - cols : rows;
  for (std::size_t i = 0; i < data_rows; ++i) {
    for (std::size_t j = 0; j < cols; ++j) a(i, j) = rng.gaussian(0.0, 3.0);
    for (std::size_t j = 0; j < rhs_cols; ++j) rhs(i, j) = rng.uniform(-5.0, 5.0);
  }
  if (ridge) {
    for (std::size_t j = 0; j < cols; ++j) a(data_rows + j, j) = std::sqrt(1e-8);
  }
}

/// Solves one system with both kernels and requires the same bits in the
/// solution and in the triangularized [a | rhs].
void expect_matches_oracle(const Matrix& a0, const Matrix& rhs0) {
  Matrix a = a0, rhs = rhs0, x;
  Matrix ref_a = a0, ref_rhs = rhs0, ref_x;
  std::vector<double> scratch, ref_scratch;
  Matrix::qr_solve_into(a, rhs, scratch, x);
  per_column_qr_solve(ref_a, ref_rhs, ref_scratch, ref_x);
  EXPECT_TRUE(same_bits(x, ref_x));
  EXPECT_TRUE(same_bits(a, ref_a));
  EXPECT_TRUE(same_bits(rhs, ref_rhs));
}

TEST(MatrixQr, RandomTallSystemsMatchPerColumnOracleBitForBit) {
  // 1-13 columns and 1-5 right-hand sides: every remainder of the column
  // groups, and groups that straddle a and rhs.
  Rng rng(2024);
  Matrix a, rhs;
  for (std::size_t cols = 1; cols <= 13; ++cols) {
    for (std::size_t rhs_cols = 1; rhs_cols <= 5; ++rhs_cols) {
      for (bool ridge : {false, true}) {
        const std::size_t rows =
            cols + (ridge ? cols : 0) + std::size_t(rng.uniform_int(1, 60));
        random_system(rng, rows, cols, rhs_cols, ridge, a, rhs);
        SCOPED_TRACE(testing::Message() << rows << " x " << cols << " + "
                                        << rhs_cols << (ridge ? " ridge" : ""));
        expect_matches_oracle(a, rhs);
      }
    }
  }
}

TEST(MatrixQr, ArxAndLeakageFitShapesMatchPerColumnOracleBitForBit) {
  Rng rng(7);
  Matrix a, rhs;
  // One calibration's ARX system: 4 x 2400 regression pairs plus 8 ridge
  // rows, 4 temperature and 4 power regressors, 4 targets.
  random_system(rng, 9608, 8, 4, true, a, rhs);
  expect_matches_oracle(a, rhs);
  // One leakage-fit solve: 500 furnace samples plus 3 ridge rows.
  random_system(rng, 503, 3, 1, true, a, rhs);
  expect_matches_oracle(a, rhs);
}

TEST(MatrixQr, RankDeficientAndUnderdeterminedStillThrow) {
  Rng rng(3);
  Matrix a, rhs, x;
  std::vector<double> scratch;
  random_system(rng, 40, 6, 2, false, a, rhs);
  for (std::size_t i = 0; i < a.rows(); ++i) a(i, 4) = 0.0;
  EXPECT_THROW(Matrix::qr_solve_into(a, rhs, scratch, x), std::runtime_error);
  random_system(rng, 5, 6, 2, false, a, rhs);
  EXPECT_THROW(Matrix::qr_solve_into(a, rhs, scratch, x),
               std::invalid_argument);
  Matrix short_rhs(4, 2);
  random_system(rng, 40, 6, 2, false, a, rhs);
  EXPECT_THROW(Matrix::qr_solve_into(a, short_rhs, scratch, x),
               std::invalid_argument);
}

// Property sweep: random diagonally dominant systems solve and verify Ax == b.
class MatrixSolveSweep : public ::testing::TestWithParam<int> {};

TEST_P(MatrixSolveSweep, SolveRoundTrip) {
  const int n = GetParam();
  util::Rng rng(1234 + n);
  Matrix a(n, n);
  for (int i = 0; i < n; ++i) {
    for (int j = 0; j < n; ++j) a(i, j) = rng.uniform(-1.0, 1.0);
    a(i, i) += double(n);  // diagonal dominance => nonsingular
  }
  Matrix b(n, 1);
  for (int i = 0; i < n; ++i) b(i, 0) = rng.uniform(-5.0, 5.0);
  const Matrix x = a.solve(b);
  EXPECT_TRUE((a * x).approx_equal(b, 1e-9));
}

INSTANTIATE_TEST_SUITE_P(Sizes, MatrixSolveSweep,
                         ::testing::Values(1, 2, 3, 4, 6, 8, 12, 16));

}  // namespace
}  // namespace dtpm::util
