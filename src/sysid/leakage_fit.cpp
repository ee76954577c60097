#include "sysid/leakage_fit.hpp"

#include <cmath>
#include <stdexcept>

#include "util/matrix.hpp"

namespace dtpm::sysid {
namespace {

struct LinearFit {
  double alpha_c = 0.0;
  double c1 = 0.0;
  double i_gate = 0.0;
  double rms = 0.0;
};

/// For a fixed c2 the model P = alphaC*(V^2 f) + c1*(V T^2 e^{c2/T}) +
/// i_gate*V is linear; solve() fits it by ridge least squares and returns the
/// residual. One solver serves a whole golden-section search: the
/// ridge-augmented system and its c2-independent columns are built once, and
/// every solve refills only the subthreshold column and reuses the buffers,
/// so the search allocates nothing. The arithmetic is Matrix::least_squares'
/// and Matrix::operator*'s, operation for operation.
class LinearSolver {
 public:
  LinearSolver(const std::vector<FurnaceSample>& samples,
               bool fit_dynamic_term)
      : dynamic_(fit_dynamic_term),
        sub_col_(fit_dynamic_term ? 1 : 0),
        n_cols_(sub_col_ + 2),
        x_(samples.size() + n_cols_, n_cols_),
        y_(samples.size() + n_cols_, 1) {
    const double ridge_diagonal = std::sqrt(kRidge);
    t_k_.reserve(samples.size());
    v_t2_.reserve(samples.size());
    for (std::size_t i = 0; i < samples.size(); ++i) {
      const auto& s = samples[i];
      const double t_k = power::celsius_to_kelvin(s.temp_c);
      t_k_.push_back(t_k);
      v_t2_.push_back(s.vdd_v * t_k * t_k);
      if (dynamic_) x_(i, 0) = s.vdd_v * s.vdd_v * s.frequency_hz / kScaleDyn;
      x_(i, sub_col_ + 1) = s.vdd_v;
      y_(i, 0) = s.total_power_w;
    }
    for (std::size_t j = 0; j < n_cols_; ++j) {
      x_(samples.size() + j, j) = ridge_diagonal;
    }
  }

  LinearFit solve(double c2) {
    const std::size_t m = t_k_.size();
    for (std::size_t i = 0; i < m; ++i) {
      x_(i, sub_col_) = v_t2_[i] * std::exp(c2 / t_k_[i]) / kScaleSub;
    }
    a_ = x_;  // same shapes, so both copies reuse their storage
    rhs_ = y_;
    util::Matrix::qr_solve_into(a_, rhs_, householder_, theta_);
    LinearFit fit;
    std::size_t row = 0;
    fit.alpha_c = dynamic_ ? theta_(row++, 0) / kScaleDyn : 0.0;
    fit.c1 = theta_(row++, 0) / kScaleSub;
    fit.i_gate = theta_(row, 0);
    double sum_sq = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
      // (x * theta)(i, 0), summed as Matrix::operator* does.
      double y_hat = 0.0;
      for (std::size_t k = 0; k < n_cols_; ++k) {
        const double a = x_(i, k);
        if (a == 0.0) continue;
        y_hat += a * theta_(k, 0);
      }
      const double e = y_hat - y_(i, 0);
      sum_sq += e * e;
    }
    fit.rms = std::sqrt(sum_sq / double(m));
    return fit;
  }

 private:
  // Scale columns to comparable magnitude for conditioning.
  static constexpr double kScaleDyn = 1e9;
  static constexpr double kScaleSub = 1e4;
  static constexpr double kRidge = 1e-12;

  const bool dynamic_;
  const std::size_t sub_col_;  ///< the c2-dependent column
  const std::size_t n_cols_;
  std::vector<double> t_k_;   ///< sample temperatures in kelvin
  std::vector<double> v_t2_;  ///< V T^2 per sample
  util::Matrix x_;  ///< the samples' rows, then the ridge rows sqrt(ridge)*I
  util::Matrix y_;  ///< total power, then zeros on the ridge rows
  util::Matrix a_, rhs_, theta_;  ///< QR workspace and solution
  std::vector<double> householder_;
};

}  // namespace

LeakageFitResult fit_leakage(const std::vector<FurnaceSample>& samples,
                             const LeakageFitOptions& options) {
  if (samples.size() < 4) {
    throw std::invalid_argument("fit_leakage: need at least 4 samples");
  }
  double t_min = samples.front().temp_c, t_max = samples.front().temp_c;
  double v_sum = 0.0;
  for (const auto& s : samples) {
    t_min = std::min(t_min, s.temp_c);
    t_max = std::max(t_max, s.temp_c);
    v_sum += s.vdd_v;
  }
  if (t_max - t_min < 5.0) {
    throw std::invalid_argument("fit_leakage: temperature spread too small");
  }

  // Golden-section search over c2 (the residual is unimodal in practice).
  const double phi = (std::sqrt(5.0) - 1.0) / 2.0;
  double lo = options.c2_min_k;
  double hi = options.c2_max_k;
  double x1 = hi - phi * (hi - lo);
  double x2 = lo + phi * (hi - lo);
  LinearSolver solver(samples, options.fit_dynamic_term);
  double f1 = solver.solve(x1).rms;
  double f2 = solver.solve(x2).rms;
  for (unsigned it = 0; it < options.golden_iterations; ++it) {
    if (f1 < f2) {
      hi = x2;
      x2 = x1;
      f2 = f1;
      x1 = hi - phi * (hi - lo);
      f1 = solver.solve(x1).rms;
    } else {
      lo = x1;
      x1 = x2;
      f1 = f2;
      x2 = lo + phi * (hi - lo);
      f2 = solver.solve(x2).rms;
    }
  }
  const double c2 = 0.5 * (lo + hi);
  const LinearFit best = solver.solve(c2);

  LeakageFitResult result;
  result.params.c1 = std::max(best.c1, 0.0);
  result.params.c2_k = c2;
  result.params.i_gate_a = std::max(best.i_gate, 0.0);
  result.params.v_ref = v_sum / double(samples.size());
  result.params.dibl_exponent = 0.0;  // the paper's fitted form
  result.alpha_c_light = std::max(best.alpha_c, 0.0);
  result.rms_residual_w = best.rms;
  return result;
}

}  // namespace dtpm::sysid
