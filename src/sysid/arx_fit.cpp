#include "sysid/arx_fit.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace dtpm::sysid {
namespace {

constexpr std::size_t kInputs = power::kResourceCount;

/// Calls visit(t_now, p_now, t_next) for every regression pair in segment
/// order: rows k and k + 1 of a segment, as pointers into its flat buffers.
template <class Visit>
void for_each_pair(const std::vector<TraceSegment>& segments, Visit visit) {
  for (const TraceSegment& seg : segments) {
    const double* t = seg.temps_c.data();
    const double* p = seg.powers_w.data();
    for (std::size_t k = 0; k + 1 < seg.rows(); ++k) {
      visit(t + k * seg.width, p + k * kInputs, t + (k + 1) * seg.width);
    }
  }
}

}  // namespace

ArxFitResult fit_thermal_model(const std::vector<TraceSegment>& segments,
                               double ts_s, const ArxFitOptions& options) {
  if (segments.empty()) {
    throw std::invalid_argument("fit_thermal_model: no segments");
  }
  const std::size_t n_state = segments.front().width;
  if (n_state == 0) {
    throw std::invalid_argument("fit_thermal_model: zero width");
  }
  std::size_t n_rows = 0;
  for (const TraceSegment& seg : segments) {
    if (seg.width != n_state) {
      throw std::invalid_argument("fit_thermal_model: segment widths differ");
    }
    if (seg.temps_c.size() % n_state != 0) {
      throw std::invalid_argument(
          "fit_thermal_model: temps length is not a multiple of the width");
    }
    if (seg.powers_w.size() != seg.rows() * kInputs) {
      throw std::invalid_argument(
          "fit_thermal_model: temps/powers row count mismatch");
    }
    if (seg.rows() < 2) {
      throw std::invalid_argument("fit_thermal_model: segment under 2 rows");
    }
    n_rows += seg.rows() - 1;
  }
  const std::size_t n_cols = n_state + kInputs;
  if (n_rows < n_cols) {
    throw std::invalid_argument("fit_thermal_model: insufficient samples");
  }
  const double ref_c = options.ambient_ref_c;

  // Y = X * [A'; B'] with X's rows [T[k] - T_ref, P[k]] and Y's
  // T[k+1] - T_ref, assembled directly as the ridge-augmented system
  // Matrix::least_squares would build, and moved into the QR solve.
  const std::size_t extra = options.ridge > 0.0 ? n_cols : 0;
  util::Matrix x(n_rows + extra, n_cols);
  util::Matrix y(n_rows + extra, n_state);
  std::size_t row = 0;
  for_each_pair(segments, [&](const double* t_now, const double* p_now,
                              const double* t_next) {
    for (std::size_t j = 0; j < n_state; ++j) {
      x(row, j) = t_now[j] - ref_c;
      y(row, j) = t_next[j] - ref_c;
    }
    for (std::size_t j = 0; j < kInputs; ++j) x(row, n_state + j) = p_now[j];
    ++row;
  });
  if (extra > 0) {
    const double s = std::sqrt(options.ridge);
    for (std::size_t j = 0; j < n_cols; ++j) x(n_rows + j, j) = s;
  }
  // theta is (n_state + n_input) x n_state.
  const util::Matrix theta =
      util::Matrix::qr_least_squares(std::move(x), std::move(y));

  ArxFitResult result;
  result.model.a = util::Matrix(n_state, n_state);
  result.model.b = util::Matrix(n_state, kInputs);
  for (std::size_t i = 0; i < n_state; ++i) {
    for (std::size_t j = 0; j < n_state; ++j) result.model.a(i, j) = theta(j, i);
    for (std::size_t j = 0; j < kInputs; ++j) {
      result.model.b(i, j) = theta(n_state + j, i);
    }
  }
  result.model.ts_s = ts_s;
  result.model.ambient_ref_c = ref_c;
  result.sample_count = n_rows;

  // One-step residual RMS over the training data, streamed from the
  // segments. Each prediction sums x[k] * theta(k, j) in the order
  // Matrix::operator* does (ascending k, zero regressors skipped), so the
  // residual is bit-identical to forming x * theta.
  double sum_sq = 0.0;
  for_each_pair(segments, [&](const double* t_now, const double* p_now,
                              const double* t_next) {
    for (std::size_t j = 0; j < n_state; ++j) {
      double y_hat = 0.0;
      for (std::size_t k = 0; k < n_state; ++k) {
        const double xk = t_now[k] - ref_c;
        if (xk != 0.0) y_hat += xk * theta(k, j);
      }
      for (std::size_t k = 0; k < kInputs; ++k) {
        if (p_now[k] != 0.0) y_hat += p_now[k] * theta(n_state + k, j);
      }
      const double e = y_hat - (t_next[j] - ref_c);
      sum_sq += e * e;
    }
  });
  result.rms_residual_c = std::sqrt(sum_sq / double(n_rows * n_state));
  return result;
}

}  // namespace dtpm::sysid
