#include "sysid/arx_fit.hpp"

#include <cmath>
#include <stdexcept>
#include <utility>

namespace dtpm::sysid {
namespace {

/// Calls visit(x, y) for every regression pair in segment order, with
/// x = [T[k] - T_ref, P[k]] and y = T[k+1] - T_ref. Both buffers are reused
/// across calls.
template <class Visit>
void for_each_pair(const std::vector<TraceSegment>& segments,
                   std::size_t n_state, std::size_t n_input, double ref_c,
                   Visit visit) {
  std::vector<double> x(n_state + n_input);
  std::vector<double> y(n_state);
  for (const auto& seg : segments) {
    for (std::size_t k = 0; k + 1 < seg.temps_c.size(); ++k) {
      const auto& t_now = seg.temps_c[k];
      const auto& p_now = seg.powers_w[k];
      const auto& t_next = seg.temps_c[k + 1];
      if (t_now.size() != n_state || p_now.size() != n_input ||
          t_next.size() != n_state) {
        throw std::invalid_argument("fit_thermal_model: ragged sample");
      }
      for (std::size_t j = 0; j < n_state; ++j) {
        x[j] = t_now[j] - ref_c;
        y[j] = t_next[j] - ref_c;
      }
      for (std::size_t j = 0; j < n_input; ++j) x[n_state + j] = p_now[j];
      visit(x, y);
    }
  }
}

}  // namespace

ArxFitResult fit_thermal_model(const std::vector<TraceSegment>& segments,
                               double ts_s, const ArxFitOptions& options) {
  if (segments.empty()) {
    throw std::invalid_argument("fit_thermal_model: no segments");
  }
  const std::size_t n_state = segments.front().temps_c.empty()
                                  ? 0
                                  : segments.front().temps_c.front().size();
  const std::size_t n_input = segments.front().powers_w.empty()
                                  ? 0
                                  : segments.front().powers_w.front().size();
  if (n_state == 0 || n_input == 0) {
    throw std::invalid_argument("fit_thermal_model: empty segment");
  }

  std::size_t n_rows = 0;
  for (const auto& seg : segments) {
    if (seg.temps_c.size() != seg.powers_w.size()) {
      throw std::invalid_argument(
          "fit_thermal_model: temps/powers length mismatch");
    }
    if (seg.temps_c.size() >= 2) n_rows += seg.temps_c.size() - 1;
  }
  const std::size_t n_cols = n_state + n_input;
  if (n_rows < n_cols) {
    throw std::invalid_argument("fit_thermal_model: insufficient samples");
  }

  // Y = X * [A'; B'], assembled directly as the ridge-augmented system
  // Matrix::least_squares would build, and moved into the QR solve.
  const std::size_t extra = options.ridge > 0.0 ? n_cols : 0;
  util::Matrix x(n_rows + extra, n_cols);
  util::Matrix y(n_rows + extra, n_state);
  std::size_t row = 0;
  for_each_pair(segments, n_state, n_input, options.ambient_ref_c,
                [&](const std::vector<double>& xr, const std::vector<double>& yr) {
                  for (std::size_t j = 0; j < n_cols; ++j) x(row, j) = xr[j];
                  for (std::size_t j = 0; j < n_state; ++j) y(row, j) = yr[j];
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
  result.model.b = util::Matrix(n_state, n_input);
  for (std::size_t i = 0; i < n_state; ++i) {
    for (std::size_t j = 0; j < n_state; ++j) result.model.a(i, j) = theta(j, i);
    for (std::size_t j = 0; j < n_input; ++j) {
      result.model.b(i, j) = theta(n_state + j, i);
    }
  }
  result.model.ts_s = ts_s;
  result.model.ambient_ref_c = options.ambient_ref_c;
  result.sample_count = n_rows;

  // One-step residual RMS over the training data, streamed from the
  // segments. Each prediction sums x[k] * theta(k, j) in the order
  // Matrix::operator* does (ascending k, zero regressors skipped), so the
  // residual is bit-identical to forming x * theta.
  double sum_sq = 0.0;
  for_each_pair(segments, n_state, n_input, options.ambient_ref_c,
                [&](const std::vector<double>& xr, const std::vector<double>& yr) {
                  for (std::size_t j = 0; j < n_state; ++j) {
                    double y_hat = 0.0;
                    for (std::size_t k = 0; k < n_cols; ++k) {
                      if (xr[k] != 0.0) y_hat += xr[k] * theta(k, j);
                    }
                    const double e = y_hat - yr[j];
                    sum_sq += e * e;
                  }
                });
  result.rms_residual_c = std::sqrt(sum_sq / double(n_rows * n_state));
  return result;
}

}  // namespace dtpm::sysid
