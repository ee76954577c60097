#include "thermal/lti_propagator.hpp"

#include <cstring>
#include <stdexcept>

#include "thermal/rc_network.hpp"
#include "util/matrix.hpp"

namespace dtpm::thermal {

namespace {

/// The exact affine map of one RK4 substep on dT/dt = A T + c:
///   T' = R T + S c,  R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
///                    S = h (I + hA/2 + (hA)^2/6 + (hA)^3/24).
void rk4_substep_map(const util::Matrix& a, double h, util::Matrix& r_out,
                     util::Matrix& s_out) {
  const std::size_t n = a.rows();
  const util::Matrix ha = a * h;
  const util::Matrix ha2 = ha * ha;
  const util::Matrix ha3 = ha2 * ha;
  const util::Matrix ha4 = ha3 * ha;
  r_out = util::Matrix::identity(n);
  r_out += ha;
  r_out += ha2 * (1.0 / 2.0);
  r_out += ha3 * (1.0 / 6.0);
  r_out += ha4 * (1.0 / 24.0);
  s_out = util::Matrix::identity(n);
  s_out += ha * (1.0 / 2.0);
  s_out += ha2 * (1.0 / 6.0);
  s_out += ha3 * (1.0 / 24.0);
  s_out = s_out * h;
}

/// Composes affine maps: applying (p1, g1) then (p2, g2) is
/// (p2 p1, p2 g1 + g2).
void compose(const util::Matrix& p2, const util::Matrix& g2, util::Matrix& p,
             util::Matrix& g) {
  g = p2 * g + g2;
  p = p2 * p;
}

std::unique_ptr<const PropagatorMatrices> compile(const RcNetwork& network,
                                                  double dt_s) {
  auto compiled = std::make_unique<PropagatorMatrices>();
  PropagatorMatrices& out = *compiled;
  out.free_nodes = network.free_nodes();
  const std::size_t n = out.free_nodes.size();
  out.free_count = n;
  if (n == 0) return compiled;

  // Continuous dynamics on the free nodes: dT/dt = A T + D z with z the
  // injected power plus boundary coupling (assembled per step from the live
  // boundary temperatures, so furnace re-pinning needs no recompile).
  constexpr std::size_t kNoSlot = RcNetwork::kNoSlot;
  util::Matrix a(n, n);
  for (std::size_t e = 0; e < network.edge_count(); ++e) {
    const std::size_t na = network.edge_node_a(e);
    const std::size_t nb = network.edge_node_b(e);
    const double g = network.edge_conductance(e);
    const std::size_t sa = network.free_slot(na);
    const std::size_t sb = network.free_slot(nb);
    if (sa != kNoSlot) {
      const double g_over_c = g / network.node(na).capacitance_j_per_k;
      a(sa, sa) -= g_over_c;
      if (sb != kNoSlot) a(sa, sb) += g_over_c;
    }
    if (sb != kNoSlot) {
      const double g_over_c = g / network.node(nb).capacitance_j_per_k;
      a(sb, sb) -= g_over_c;
      if (sa != kNoSlot) a(sb, sa) += g_over_c;
    }
    if (sa != kNoSlot && sb == kNoSlot) {
      out.boundary_terms.push_back({sa, nb, g});
    } else if (sb != kNoSlot && sa == kNoSlot) {
      out.boundary_terms.push_back({sb, na, g});
    }
  }

  // The substep subdivision RcNetwork::step uses for this dt, so the
  // map is the composition of exactly the substeps the RK4 loop takes.
  const unsigned substeps = network.substeps_for(dt_s);
  const double h = dt_s / double(substeps);
  util::Matrix r, s;
  rk4_substep_map(a, h, r, s);
  // Fold D into the substep input map: z arrives in W.
  util::Matrix g1(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    const double inv_c = 1.0 / network.node(out.free_nodes[i]).capacitance_j_per_k;
    for (std::size_t j = 0; j < n; ++j) g1(j, i) = s(j, i) * inv_c;
  }
  // Square-and-multiply composition over the substep count.
  util::Matrix phi = util::Matrix::identity(n);
  util::Matrix gamma(n, n);
  util::Matrix base_p = r, base_g = g1;
  unsigned m = substeps;
  while (m > 0) {
    if (m & 1u) compose(base_p, base_g, phi, gamma);
    m >>= 1u;
    if (m > 0) compose(base_p, base_g, base_p, base_g);
  }

  out.packed.resize(2 * n * n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      out.packed[out.packed_index(i, j)] = phi(i, j);
      out.packed[out.packed_index(i, n + j)] = gamma(i, j);
    }
  }
  return compiled;
}

}  // namespace

std::size_t PropagatorMatrices::packed_index(std::size_t row,
                                             std::size_t col) const {
  const std::size_t width = 2 * free_count;
  const std::size_t panel_rows = free_count / kPanelRows * kPanelRows;
  if (row >= panel_rows) return row * width + col;  // tail: row-major
  return (row - row % kPanelRows) * width + col * kPanelRows +
         row % kPanelRows;
}

const PropagatorMatrices& PropagatorTable::add(const RcNetwork& network,
                                               double dt_s) {
  if (dt_s <= 0.0) {
    throw std::invalid_argument("PropagatorTable: dt must be > 0");
  }
  const std::uint64_t sig = network.conductance_signature();
  if (const PropagatorMatrices* m = find(dt_s, sig)) return *m;
  entries_.push_back({dt_s, sig, compile(network, dt_s)});
  return *entries_.back().m;
}

const PropagatorMatrices* PropagatorTable::find(double dt_s,
                                                std::uint64_t signature) const {
  for (const Entry& e : entries_) {
    if (e.dt_s == dt_s && e.signature == signature) return e.m.get();
  }
  return nullptr;
}

PropagatorRcModel::PropagatorRcModel(const PropagatorTable* shared)
    : shared_(shared) {}

const PropagatorMatrices& PropagatorRcModel::matrices_for(
    const RcNetwork& network, double dt_s) {
  if (dt_s <= 0.0) {
    throw std::invalid_argument("PropagatorRcModel: dt must be > 0");
  }
  const std::uint64_t sig = network.conductance_signature();
  if (shared_ != nullptr) {
    if (const PropagatorMatrices* m = shared_->find(dt_s, sig)) return *m;
  }
  if (const PropagatorMatrices* m = own_.find(dt_s, sig)) return *m;
  ++compiles_;
  return own_.add(network, dt_s);
}

void PropagatorRcModel::step(RcNetwork& network, double dt_s,
                             const std::vector<double>& power_w) {
  if (power_w.size() != network.node_count()) {
    throw std::invalid_argument(
        "PropagatorRcModel::step: power vector size mismatch");
  }
  step_resolved(matrices_for(network, dt_s), network, power_w);
}

/// The packed step: gathers x = [T_free ; P_free] from the temperatures and
/// `power_w`, adds the boundary coupling into x's power half, then writes
/// Phi T + Gamma z into the free nodes.
void PropagatorRcModel::step_resolved(const PropagatorMatrices& m,
                                      RcNetwork& network,
                                      const std::vector<double>& power_w) {
  ++propagator_steps_;
  const std::size_t n = m.free_count;
  const std::size_t width = 2 * n;
  const std::size_t* free_nodes = m.free_nodes.data();
  std::vector<double>& temps = network.temperatures_mut();
  x_.resize(width);
  double* x = x_.data();
  for (std::size_t i = 0; i < n; ++i) {
    x[i] = temps[free_nodes[i]];
    x[n + i] = power_w[free_nodes[i]];
  }
  for (const PropagatorMatrices::BoundaryTerm& bt : m.boundary_terms) {
    x[n + bt.free_slot] += bt.g * temps[bt.boundary_node];
  }
  // x holds copies of every input, so results go straight into temps.
  // Panels: rows r..r+3 accumulate in two 2-lane registers; lane k of a
  // register is exactly row r+k's scalar sum in column order.
  using v2d = double __attribute__((vector_size(16)));
  constexpr std::size_t kPanel = PropagatorMatrices::kPanelRows;
  const double* a = m.packed.data();
  std::size_t row = 0;
  for (; row + kPanel <= n; row += kPanel) {
    v2d acc01 = {0.0, 0.0};
    v2d acc23 = {0.0, 0.0};
    for (std::size_t c = 0; c < width; ++c, a += kPanel) {
      const v2d xc = {x[c], x[c]};
      v2d a01, a23;
      std::memcpy(&a01, a, sizeof(a01));
      std::memcpy(&a23, a + 2, sizeof(a23));
      acc01 += a01 * xc;
      acc23 += a23 * xc;
    }
    temps[free_nodes[row]] = acc01[0];
    temps[free_nodes[row + 1]] = acc01[1];
    temps[free_nodes[row + 2]] = acc23[0];
    temps[free_nodes[row + 3]] = acc23[1];
  }
  for (; row < n; ++row, a += width) {
    double acc = 0.0;
    for (std::size_t c = 0; c < width; ++c) acc += a[c] * x[c];
    temps[free_nodes[row]] = acc;
  }
}

}  // namespace dtpm::thermal
