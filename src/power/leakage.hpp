// Temperature-dependent leakage model (Eq. 4.2 of the paper):
//
//     I_leak = c1 * T^2 * exp(c2 / T) + I_gate          (T in Kelvin, c2 < 0)
//     P_leak = Vdd * I_leak
//
// The plant ("true physics") additionally scales the subthreshold term with
// supply voltage (a DIBL-like effect), which the paper's fitted model does
// not capture -- this is a deliberate, realistic structural mismatch between
// what the hardware does and what the modeling methodology of Chapter 4 can
// recover from furnace measurements at a single fixed voltage.
//
// LeakageTerm is the one evaluated form: the plant's substeps, the stability
// analyzer's node power and its Jacobian (analysis/stability.hpp) all go
// through soc::Soc, which captures one LeakageTerm per rail.
#pragma once

#include <cmath>

namespace dtpm::power {

/// Celsius/Kelvin helpers used across the power stack.
constexpr double kKelvinOffset = 273.15;
constexpr double celsius_to_kelvin(double c) { return c + kKelvinOffset; }

/// Parameters of the leakage current model.
struct LeakageParams {
  double c1 = 0.0;      ///< A/K^2 prefactor of the subthreshold term
  double c2_k = 0.0;    ///< exponent scale in Kelvin (negative)
  double i_gate_a = 0.0;  ///< temperature-independent gate leakage, A
  double v_ref = 1.0;   ///< voltage at which c1/i_gate were characterized
  /// Exponent of the (Vdd/v_ref) scaling on the subthreshold term. The
  /// fitted model uses 0 (no scaling beyond the explicit Vdd factor of
  /// P = V*I); the plant uses ~1.5.
  double dibl_exponent = 0.0;
};

inline bool operator==(const LeakageParams& a, const LeakageParams& b) {
  return a.c1 == b.c1 && a.c2_k == b.c2_k && a.i_gate_a == b.i_gate_a &&
         a.v_ref == b.v_ref && a.dibl_exponent == b.dibl_exponent;
}

/// The leakage model at one fixed supply, with the voltage-only DIBL factor
/// resolved: what soc::Soc captures per rail once per control interval.
/// current_a/power_w are Eq. 4.2 in one fixed operation order --
/// c1 * Tk * Tk * exp(c2 / Tk), then * dibl, then + i_gate, then * vdd --
/// the order every plant substep evaluates. slope_w_per_k is power_w's
/// temperature derivative, the leakage feedback gain the stability analysis
/// (analysis/stability.hpp) linearizes.
struct LeakageTerm {
  double c1 = 0.0;
  double c2_k = 0.0;
  double dibl = 1.0;  ///< pow(vdd / v_ref, dibl_exponent); 1 without DIBL
  double i_gate_a = 0.0;
  double vdd_v = 0.0;

  double current_a(double temp_c) const {
    const double t_k = celsius_to_kelvin(temp_c);
    return c1 * t_k * t_k * std::exp(c2_k / t_k) * dibl + i_gate_a;
  }
  double power_w(double temp_c) const { return vdd_v * current_a(temp_c); }

  /// d(power_w)/dT in W/K: d/dT [Tk^2 e^(c2/Tk)] = e^(c2/Tk) (2 Tk - c2).
  double slope_w_per_k(double temp_c) const {
    const double t_k = celsius_to_kelvin(temp_c);
    return vdd_v * c1 * dibl * std::exp(c2_k / t_k) * (2.0 * t_k - c2_k);
  }
};

/// Evaluates leakage current and power from the parameters.
///
/// The DIBL factor pow(Vdd/v_ref, e) depends only on the supply voltage,
/// which changes at DVFS decisions (at most once per control interval), so
/// it is memoized per voltage. The cache returns the exact pow() result, so
/// evaluation stays bit-identical to the uncached model.
class LeakageModel {
 public:
  explicit LeakageModel(const LeakageParams& params = {}) : params_(params) {}

  /// The model at a fixed supply (see LeakageTerm).
  LeakageTerm term_at(double vdd_v) const {
    double dibl = 1.0;
    if (params_.dibl_exponent != 0.0 && params_.v_ref > 0.0) {
      if (vdd_v != cached_vdd_v_) {
        cached_vdd_v_ = vdd_v;
        cached_dibl_factor_ =
            std::pow(vdd_v / params_.v_ref, params_.dibl_exponent);
      }
      dibl = cached_dibl_factor_;
    }
    return {params_.c1, params_.c2_k, dibl, params_.i_gate_a, vdd_v};
  }

  /// Leakage current in A at the given temperature (Celsius) and supply.
  double current_a(double temp_c, double vdd_v) const {
    return term_at(vdd_v).current_a(temp_c);
  }

  /// Leakage power in W: Vdd * I_leak.
  double power_w(double temp_c, double vdd_v) const {
    return term_at(vdd_v).power_w(temp_c);
  }

  const LeakageParams& params() const { return params_; }

 private:
  LeakageParams params_;
  /// Memoized pow(vdd/v_ref, dibl_exponent) for the last-seen vdd.
  mutable double cached_vdd_v_ = -1.0;
  mutable double cached_dibl_factor_ = 1.0;
};

}  // namespace dtpm::power
