#include "util/matrix.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace dtpm::util {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0) {}

Matrix::Matrix(std::initializer_list<std::initializer_list<double>> init) {
  rows_ = init.size();
  cols_ = rows_ > 0 ? init.begin()->size() : 0;
  data_.reserve(rows_ * cols_);
  for (const auto& row : init) {
    if (row.size() != cols_) {
      throw std::invalid_argument("Matrix: ragged initializer list");
    }
    data_.insert(data_.end(), row.begin(), row.end());
  }
}

Matrix Matrix::identity(std::size_t n) {
  Matrix m(n, n);
  for (std::size_t i = 0; i < n; ++i) m(i, i) = 1.0;
  return m;
}

Matrix Matrix::column(const std::vector<double>& values) {
  Matrix m(values.size(), 1);
  for (std::size_t i = 0; i < values.size(); ++i) m(i, 0) = values[i];
  return m;
}

Matrix Matrix::operator+(const Matrix& other) const {
  Matrix result = *this;
  result += other;
  return result;
}

Matrix Matrix::operator-(const Matrix& other) const {
  Matrix result = *this;
  result -= other;
  return result;
}

Matrix& Matrix::operator+=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("Matrix+: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] += other.data_[i];
  return *this;
}

Matrix& Matrix::operator-=(const Matrix& other) {
  if (!same_shape(other)) throw std::invalid_argument("Matrix-: shape mismatch");
  for (std::size_t i = 0; i < data_.size(); ++i) data_[i] -= other.data_[i];
  return *this;
}

Matrix Matrix::operator*(const Matrix& other) const {
  if (cols_ != other.rows_) {
    throw std::invalid_argument("Matrix*: inner dimension mismatch");
  }
  Matrix result(rows_, other.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t k = 0; k < cols_; ++k) {
      const double a = (*this)(i, k);
      if (a == 0.0) continue;
      for (std::size_t j = 0; j < other.cols_; ++j) {
        result(i, j) += a * other(k, j);
      }
    }
  }
  return result;
}

Matrix Matrix::operator*(double scalar) const {
  Matrix result = *this;
  for (double& v : result.data_) v *= scalar;
  return result;
}

Matrix Matrix::transpose() const {
  Matrix result(cols_, rows_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) result(j, i) = (*this)(i, j);
  }
  return result;
}

Matrix Matrix::pow(unsigned exponent) const {
  if (rows_ != cols_) throw std::invalid_argument("Matrix::pow: not square");
  Matrix result = identity(rows_);
  Matrix base = *this;
  unsigned e = exponent;
  while (e > 0) {
    if (e & 1u) result = result * base;
    base = base * base;
    e >>= 1u;
  }
  return result;
}

Matrix Matrix::row(std::size_t r) const {
  assert(r < rows_);
  Matrix result(1, cols_);
  for (std::size_t j = 0; j < cols_; ++j) result(0, j) = (*this)(r, j);
  return result;
}

Matrix Matrix::col(std::size_t c) const {
  assert(c < cols_);
  Matrix result(rows_, 1);
  for (std::size_t i = 0; i < rows_; ++i) result(i, 0) = (*this)(i, c);
  return result;
}

double Matrix::max_abs() const {
  double best = 0.0;
  for (double v : data_) best = std::max(best, std::fabs(v));
  return best;
}

double Matrix::frobenius_norm() const {
  double sum = 0.0;
  for (double v : data_) sum += v * v;
  return std::sqrt(sum);
}

Matrix Matrix::solve(const Matrix& b) const {
  if (rows_ != cols_) throw std::invalid_argument("Matrix::solve: not square");
  if (b.rows_ != rows_) throw std::invalid_argument("Matrix::solve: rhs mismatch");
  const std::size_t n = rows_;
  Matrix a = *this;
  Matrix x = b;
  for (std::size_t k = 0; k < n; ++k) {
    std::size_t pivot = k;
    double best = std::fabs(a(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      if (std::fabs(a(i, k)) > best) {
        best = std::fabs(a(i, k));
        pivot = i;
      }
    }
    if (best < 1e-14) throw std::runtime_error("Matrix::solve: singular matrix");
    if (pivot != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(a(k, j), a(pivot, j));
      for (std::size_t j = 0; j < x.cols_; ++j) std::swap(x(k, j), x(pivot, j));
    }
    for (std::size_t i = k + 1; i < n; ++i) {
      const double factor = a(i, k) / a(k, k);
      if (factor == 0.0) continue;
      for (std::size_t j = k; j < n; ++j) a(i, j) -= factor * a(k, j);
      for (std::size_t j = 0; j < x.cols_; ++j) x(i, j) -= factor * x(k, j);
    }
  }
  for (std::size_t kk = n; kk-- > 0;) {
    for (std::size_t j = 0; j < x.cols_; ++j) {
      double sum = x(kk, j);
      for (std::size_t i = kk + 1; i < n; ++i) sum -= a(kk, i) * x(i, j);
      x(kk, j) = sum / a(kk, kk);
    }
  }
  return x;
}

Matrix Matrix::inverse() const { return solve(identity(rows_)); }

Matrix Matrix::least_squares(const Matrix& b, double ridge) const {
  if (b.rows_ != rows_) {
    throw std::invalid_argument("Matrix::least_squares: rhs mismatch");
  }
  // Assemble the (possibly ridge-augmented) system.
  const std::size_t extra = ridge > 0.0 ? cols_ : 0;
  Matrix a(rows_ + extra, cols_);
  Matrix rhs(rows_ + extra, b.cols_);
  for (std::size_t i = 0; i < rows_; ++i) {
    for (std::size_t j = 0; j < cols_; ++j) a(i, j) = (*this)(i, j);
    for (std::size_t j = 0; j < b.cols_; ++j) rhs(i, j) = b(i, j);
  }
  if (ridge > 0.0) {
    const double s = std::sqrt(ridge);
    for (std::size_t j = 0; j < cols_; ++j) a(rows_ + j, j) = s;
  }
  return qr_least_squares(std::move(a), std::move(rhs));
}

Matrix Matrix::qr_least_squares(Matrix a, Matrix rhs) {
  std::vector<double> householder;
  Matrix x;
  qr_solve_into(a, rhs, householder, x);
  return x;
}

namespace {

/// Applies the reflector H = I - 2 v v' / (v' v), v = v[0 .. len), to the
/// G columns whose row-k elements col[c] points at (column c steps by
/// stride[c] per row): one row pass sums the G dot products in independent
/// accumulators, a second subtracts beta v. Each column's dot starts at +0.0
/// and adds rows in ascending order, and its update is the same single
/// multiply-subtract per element, so a column's bits do not depend on the
/// group it shares a pass with.
template <std::size_t G>
void reflect(const double* v, std::size_t len, double vnorm2,
             double* const* col, const std::size_t* stride) {
  double dot[G] = {};
  const double* in[G];
  for (std::size_t c = 0; c < G; ++c) in[c] = col[c];
  for (std::size_t i = 0; i < len; ++i) {
    const double vi = v[i];
    for (std::size_t c = 0; c < G; ++c) {
      dot[c] += vi * *in[c];
      in[c] += stride[c];
    }
  }
  double beta[G];
  double* out[G];
  for (std::size_t c = 0; c < G; ++c) {
    beta[c] = 2.0 * dot[c] / vnorm2;
    out[c] = col[c];
  }
  for (std::size_t i = 0; i < len; ++i) {
    const double vi = v[i];  // read once: the stores below may alias v
    for (std::size_t c = 0; c < G; ++c) {
      *out[c] -= beta[c] * vi;
      out[c] += stride[c];
    }
  }
}

}  // namespace

void Matrix::qr_solve_into(Matrix& a, Matrix& rhs,
                           std::vector<double>& householder, Matrix& x) {
  if (rhs.rows_ != a.rows_) {
    throw std::invalid_argument("Matrix::least_squares: rhs mismatch");
  }
  if (a.rows_ < a.cols_) {
    throw std::invalid_argument("Matrix::least_squares: underdetermined");
  }
  // Householder QR: triangularize [A | rhs] in place.
  const std::size_t m = a.rows_;
  const std::size_t n = a.cols_;
  const std::size_t r = rhs.cols_;
  if (householder.size() < m) householder.resize(m);
  double* const v = householder.data();  // the reflector, v[0 .. m - k)
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
    // Columns k .. n - 1 of A, then every rhs column, four per row pass.
    constexpr std::size_t kGroup = 4;
    const std::size_t total = n - k + r;
    for (std::size_t first = 0; first < total; first += kGroup) {
      const std::size_t width = std::min(kGroup, total - first);
      double* col[kGroup] = {};
      std::size_t stride[kGroup] = {};
      for (std::size_t c = 0; c < width; ++c) {
        const std::size_t j = first + c;
        const bool in_a = j < n - k;
        col[c] = in_a ? &a(k, k + j) : &rhs(k, j - (n - k));
        stride[c] = in_a ? n : r;
      }
      switch (width) {
        case 1: reflect<1>(v, m - k, vnorm2, col, stride); break;
        case 2: reflect<2>(v, m - k, vnorm2, col, stride); break;
        case 3: reflect<3>(v, m - k, vnorm2, col, stride); break;
        default: reflect<4>(v, m - k, vnorm2, col, stride); break;
      }
    }
  }
  // Back substitution on the upper-triangular part.
  if (x.rows_ != n || x.cols_ != r) x = Matrix(n, r);
  for (std::size_t kk = n; kk-- > 0;) {
    for (std::size_t j = 0; j < r; ++j) {
      double sum = rhs(kk, j);
      for (std::size_t i = kk + 1; i < n; ++i) sum -= a(kk, i) * x(i, j);
      x(kk, j) = sum / a(kk, kk);
    }
  }
}

double Matrix::spectral_radius(unsigned iterations, double tolerance) const {
  if (rows_ != cols_ || rows_ == 0) {
    throw std::invalid_argument("Matrix::spectral_radius: not square");
  }
  if (rows_ == 1) return std::fabs(data_[0]);
  // Power iteration on A'A would give singular values; for the (generally
  // non-symmetric) state matrices we track ||A^k x|| growth instead, which
  // converges to the dominant |eigenvalue| when a single real eigenvalue
  // dominates. Converged means both the estimate and the iterate direction
  // have settled (|<x_k+1, x_k>| -> 1; the absolute value also accepts the
  // sign-flipping iterates of a negative dominant eigenvalue).
  Matrix x(rows_, 1);
  for (std::size_t i = 0; i < rows_; ++i) {
    x(i, 0) = 1.0 / std::sqrt(double(rows_));
  }
  double estimate = 0.0;
  double previous_estimate = -1.0;
  for (unsigned it = 0; it < iterations; ++it) {
    Matrix y = (*this) * x;
    const double norm = y.frobenius_norm();
    if (norm < 1e-300) return 0.0;
    estimate = norm;
    double dot = 0.0;
    for (std::size_t i = 0; i < rows_; ++i) dot += y(i, 0) * x(i, 0);
    const double alignment = std::fabs(dot) / norm;
    x = y * (1.0 / norm);
    if (it > 0 &&
        std::fabs(estimate - previous_estimate) <=
            tolerance * std::max(1.0, estimate) &&
        1.0 - alignment <= 1e3 * tolerance) {
      return estimate;
    }
    previous_estimate = estimate;
  }
  // Documented fallback: the iterates of a dominant complex-conjugate pair
  // rotate in a two-dimensional invariant subspace and never align, so
  // extract that subspace instead. With the current unit iterate x, fit
  //     A²x ≈ a·(Ax) + b·x        (least squares, exact on the subspace)
  // whose companion polynomial λ² − aλ − b has the dominant pair as roots;
  // return the larger root modulus (for a complex pair, sqrt(-b)).
  try {
    const Matrix ax = (*this) * x;
    const Matrix aax = (*this) * ax;
    Matrix basis(rows_, 2);
    for (std::size_t i = 0; i < rows_; ++i) {
      basis(i, 0) = x(i, 0);
      basis(i, 1) = ax(i, 0);
    }
    const Matrix coef = basis.least_squares(aax);
    const double b = coef(0, 0);
    const double a = coef(1, 0);
    const double discriminant = 0.25 * a * a + b;
    if (discriminant >= 0.0) {
      const double root = std::sqrt(discriminant);
      return std::max(std::fabs(0.5 * a + root), std::fabs(0.5 * a - root));
    }
    // Complex pair λ = a/2 ± i·sqrt(−disc): |λ|² = a²/4 − disc = −b.
    return std::sqrt(-b);
  } catch (const std::exception&) {
    // Degenerate basis (x and Ax parallel): the plain estimate was right.
    return estimate;
  }
}

bool Matrix::approx_equal(const Matrix& other, double tolerance) const {
  if (!same_shape(other)) return false;
  for (std::size_t i = 0; i < data_.size(); ++i) {
    if (std::fabs(data_[i] - other.data_[i]) > tolerance) return false;
  }
  return true;
}

}  // namespace dtpm::util
