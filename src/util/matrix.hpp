// Small dense matrix of double, sized for the 4x4 state-space thermal models
// used throughout the library. Row-major storage; all operations are
// bounds-checked in debug builds via assertions.
#pragma once

#include <cassert>
#include <cstddef>
#include <initializer_list>
#include <vector>

namespace dtpm::util {

/// Dense, heap-backed, row-major matrix of double.
///
/// This is intentionally a minimal linear-algebra kernel: the thermal models in
/// the paper are 4x4 (four big-core hotspots, four power resources), and the
/// system-identification regressions are at most a few thousand rows by a
/// dozen columns, so a straightforward implementation with partial-pivoting
/// Gaussian elimination and Householder least squares is both adequate and
/// easy to audit.
class Matrix {
 public:
  Matrix() = default;

  /// Creates a rows x cols matrix initialized to zero.
  Matrix(std::size_t rows, std::size_t cols);

  /// Creates a matrix from nested initializer lists; all rows must have the
  /// same length.
  Matrix(std::initializer_list<std::initializer_list<double>> init);

  /// Identity matrix of size n.
  static Matrix identity(std::size_t n);

  /// Column vector from values.
  static Matrix column(const std::vector<double>& values);

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }
  bool empty() const { return rows_ == 0 || cols_ == 0; }

  double& operator()(std::size_t r, std::size_t c) {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    assert(r < rows_ && c < cols_);
    return data_[r * cols_ + c];
  }

  Matrix operator+(const Matrix& other) const;
  Matrix operator-(const Matrix& other) const;
  Matrix operator*(const Matrix& other) const;
  Matrix operator*(double scalar) const;
  Matrix& operator+=(const Matrix& other);
  Matrix& operator-=(const Matrix& other);

  Matrix transpose() const;

  /// Matrix raised to a non-negative integer power (square matrices only).
  Matrix pow(unsigned exponent) const;

  /// Extracts row r as a 1 x cols matrix.
  Matrix row(std::size_t r) const;

  /// Extracts column c as a rows x 1 matrix.
  Matrix col(std::size_t c) const;

  /// Maximum absolute element value (L-infinity on the flattened data).
  double max_abs() const;

  /// Frobenius norm.
  double frobenius_norm() const;

  /// Solves A x = b by Gaussian elimination with partial pivoting.
  /// Throws std::runtime_error when the matrix is singular to working
  /// precision. b may have multiple columns.
  Matrix solve(const Matrix& b) const;

  /// Inverse via solve() against the identity.
  Matrix inverse() const;

  /// Least-squares solution to min ||A x - b||_2 via Householder QR.
  /// Requires rows() >= cols(). Optional Tikhonov (ridge) regularization
  /// appends sqrt(ridge) * I rows to the system.
  Matrix least_squares(const Matrix& b, double ridge = 0.0) const;

  /// The Householder QR solve behind least_squares(), on a system the
  /// caller already assembled (ridge rows included): min ||a x - rhs||_2.
  /// Takes both by value and triangularizes them in place, so a caller that
  /// moves its regression in pays for no copy.
  static Matrix qr_least_squares(Matrix a, Matrix rhs);

  /// qr_least_squares() for a caller that solves many systems of one shape:
  /// triangularizes `a` and `rhs` in place and writes the solution into `x`
  /// (reshaped to a.cols() x rhs.cols() only if it has another shape), with
  /// `householder` as scratch for the reflector. Same arithmetic; allocates
  /// nothing once `x` has its shape and `householder` holds a.rows() values.
  /// Each reflector reaches the columns of [a | rhs] four at a time, one row
  /// pass summing their dot products side by side; every dot product still
  /// adds its rows in ascending order from +0.0.
  static void qr_solve_into(Matrix& a, Matrix& rhs,
                            std::vector<double>& householder, Matrix& x);

  /// Largest absolute eigenvalue. Used to check the stability of identified
  /// thermal models (spectral radius < 1) and by the runaway-stability
  /// analyzer (analysis/stability.hpp).
  ///
  /// Power iteration with an explicit convergence criterion (relative
  /// estimate change below `tolerance` AND iterate direction settled). When
  /// the iteration fails to converge -- the signature of a dominant
  /// complex-conjugate pair, whose iterates rotate forever -- it falls back
  /// to a two-dimensional Krylov extraction: fit A²x = a·Ax + b·x in least
  /// squares and return the largest root modulus of λ² − aλ − b, which is
  /// exact for a dominant pair and a strictly better estimate than the last
  /// raw iterate otherwise.
  double spectral_radius(unsigned iterations = 200,
                         double tolerance = 1e-10) const;

  bool same_shape(const Matrix& other) const {
    return rows_ == other.rows_ && cols_ == other.cols_;
  }

  /// Element-wise comparison with absolute tolerance.
  bool approx_equal(const Matrix& other, double tolerance) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace dtpm::util
