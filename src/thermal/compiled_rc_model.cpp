#include "thermal/compiled_rc_model.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "thermal/rc_network.hpp"
#include "util/matrix.hpp"

namespace dtpm::thermal {

namespace {
constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);
}  // namespace

CompiledRcModel::CompiledRcModel(const std::vector<ThermalNode>& nodes,
                                 const std::vector<ThermalEdge>& edges) {
  if (nodes.empty()) {
    throw std::invalid_argument("CompiledRcModel: no nodes");
  }
  node_count_ = nodes.size();

  capacitance_.resize(node_count_);
  free_slot_.assign(node_count_, kNoSlot);
  name_index_.reserve(node_count_);
  for (std::size_t i = 0; i < node_count_; ++i) {
    const ThermalNode& n = nodes[i];
    if (!n.is_boundary && n.capacitance_j_per_k <= 0.0) {
      throw std::invalid_argument("CompiledRcModel: non-positive capacitance at " +
                                  n.name);
    }
    capacitance_[i] = n.capacitance_j_per_k;
    if (n.is_boundary) {
      boundary_nodes_.push_back(i);
    } else {
      free_slot_[i] = free_nodes_.size();
      free_nodes_.push_back(i);
    }
    name_index_.emplace_back(n.name, i);
  }
  // Sorted by (name, index): duplicate names resolve to the lowest index,
  // exactly like a first-match linear scan.
  std::sort(name_index_.begin(), name_index_.end());

  edge_a_.reserve(edges.size());
  edge_b_.reserve(edges.size());
  edge_g_.reserve(edges.size());
  for (const ThermalEdge& e : edges) {
    if (e.node_a >= node_count_ || e.node_b >= node_count_) {
      throw std::invalid_argument("CompiledRcModel: edge index out of range");
    }
    if (e.node_a == e.node_b) {
      throw std::invalid_argument("CompiledRcModel: self-loop edge");
    }
    if (e.conductance_w_per_k <= 0.0) {
      throw std::invalid_argument("CompiledRcModel: non-positive conductance");
    }
    edge_a_.push_back(e.node_a);
    edge_b_.push_back(e.node_b);
    edge_g_.push_back(e.conductance_w_per_k);
  }

  // Gather CSR: two-pass fill so each free node's terms land in ascending
  // edge order (the accumulation order the reference integrator used).
  const std::size_t free_count = free_nodes_.size();
  csr_offset_.assign(free_count + 1, 0);
  for (std::size_t e = 0; e < edge_g_.size(); ++e) {
    if (free_slot_[edge_a_[e]] != kNoSlot) ++csr_offset_[free_slot_[edge_a_[e]] + 1];
    if (free_slot_[edge_b_[e]] != kNoSlot) ++csr_offset_[free_slot_[edge_b_[e]] + 1];
  }
  for (std::size_t fi = 0; fi < free_count; ++fi) {
    csr_offset_[fi + 1] += csr_offset_[fi];
  }
  const std::size_t term_count = csr_offset_[free_count];
  csr_other_.resize(term_count);
  csr_g_.resize(term_count);
  edge_term_a_.assign(edge_g_.size(), kNoSlot);
  edge_term_b_.assign(edge_g_.size(), kNoSlot);
  std::vector<std::size_t> fill = csr_offset_;
  for (std::size_t e = 0; e < edge_g_.size(); ++e) {
    const std::size_t a = edge_a_[e];
    const std::size_t b = edge_b_[e];
    if (free_slot_[a] != kNoSlot) {
      const std::size_t slot = fill[free_slot_[a]]++;
      csr_other_[slot] = int(b);
      csr_g_[slot] = edge_g_[e];
      edge_term_a_[e] = slot;
    }
    if (free_slot_[b] != kNoSlot) {
      const std::size_t slot = fill[free_slot_[b]]++;
      csr_other_[slot] = int(a);
      csr_g_[slot] = edge_g_[e];
      edge_term_b_[e] = slot;
    }
  }

  contiguous_free_ = true;
  for (std::size_t fi = 0; fi < free_nodes_.size(); ++fi) {
    if (free_nodes_[fi] != fi) {
      contiguous_free_ = false;
      break;
    }
  }

  partial_.resize(node_count_);
  scratch_a_.resize(node_count_);
  scratch_b_.resize(node_count_);

  recompute_stability_bound();
}

std::size_t CompiledRcModel::index_of(const std::string& name) const {
  const auto it = std::lower_bound(
      name_index_.begin(), name_index_.end(), name,
      [](const std::pair<std::string, std::size_t>& entry,
         const std::string& key) { return entry.first < key; });
  if (it == name_index_.end() || it->first != name) {
    throw std::invalid_argument("CompiledRcModel: no node named " + name);
  }
  return it->second;
}

void CompiledRcModel::set_edge_conductance(std::size_t edge_index,
                                           double conductance_w_per_k) {
  if (conductance_w_per_k <= 0.0) {
    throw std::invalid_argument("CompiledRcModel: non-positive conductance");
  }
  if (edge_g_.at(edge_index) == conductance_w_per_k) return;
  edge_g_[edge_index] = conductance_w_per_k;
  ++conductance_epoch_;
  if (edge_term_a_[edge_index] != kNoSlot) {
    csr_g_[edge_term_a_[edge_index]] = conductance_w_per_k;
  }
  if (edge_term_b_[edge_index] != kNoSlot) {
    csr_g_[edge_term_b_[edge_index]] = conductance_w_per_k;
  }
  recompute_stability_bound();
}

double CompiledRcModel::edge_conductance(std::size_t edge_index) const {
  return edge_g_.at(edge_index);
}

void CompiledRcModel::recompute_stability_bound() {
  // tau_min = min over free nodes of C_i / sum_j g_ij, matching the
  // reference integrator's per-step computation edge-for-edge. scratch_a_
  // doubles as the per-node conductance-sum buffer (its contents are dead
  // between steps), keeping fan actuation allocation-free.
  double tau_min = 1e30;
  std::vector<double>& gsum = scratch_a_;
  std::fill(gsum.begin(), gsum.end(), 0.0);
  for (std::size_t e = 0; e < edge_g_.size(); ++e) {
    gsum[edge_a_[e]] += edge_g_[e];
    gsum[edge_b_[e]] += edge_g_[e];
  }
  for (std::size_t i = 0; i < node_count_; ++i) {
    if (free_slot_[i] == kNoSlot || gsum[i] <= 0.0) continue;
    tau_min = std::min(tau_min, capacitance_[i] / gsum[i]);
  }
  max_substep_s_ = std::max(1e-6, 0.25 * tau_min);
}

unsigned CompiledRcModel::substeps_for(double dt_s) const {
  return static_cast<unsigned>(std::ceil(dt_s / max_substep_s_));
}

template <bool kContiguous, bool kAccumulate>
inline __attribute__((always_inline)) void CompiledRcModel::stage(
    const double* read, const double* power_w, const double* base,
    double coeff, double* partial, double* __restrict__ stage_out) const {
  const std::size_t* offset = csr_offset_.data();
  const int* other = csr_other_.data();
  const double* g = csr_g_.data();
  const double* cap = capacitance_.data();
  const std::size_t free_count = free_nodes_.size();
  for (std::size_t fi = 0; fi < free_count; ++fi) {
    const std::size_t i = kContiguous ? fi : free_nodes_[fi];
    const double ti = read[i];
    double acc = 0.0;
    const std::size_t end = offset[fi + 1];
    for (std::size_t t = offset[fi]; t < end; ++t) {
      acc += g[t] * (read[other[t]] - ti);
    }
    const double k = (acc + power_w[i]) / cap[i];
    if (kAccumulate) {
      partial[i] = partial[i] + 2.0 * k;
    } else {
      partial[i] = k;
    }
    stage_out[i] = base[i] + coeff * k;
  }
  for (std::size_t bi = 0; bi < boundary_nodes_.size(); ++bi) {
    const std::size_t b = boundary_nodes_[bi];
    if (kAccumulate) {
      partial[b] = partial[b] + 2.0 * 0.0;
    } else {
      partial[b] = 0.0;
    }
    stage_out[b] = base[b] + coeff * 0.0;
  }
}

void CompiledRcModel::step(double dt_s, const double* power_w, double* temps) {
  if (dt_s <= 0.0) {
    throw std::invalid_argument("CompiledRcModel::step: dt must be > 0");
  }
  const unsigned substeps = substeps_for(dt_s);
  const double h = dt_s / double(substeps);

  if (contiguous_free_) {
    run_rk4<true>(substeps, h, power_w, temps);
  } else {
    run_rk4<false>(substeps, h, power_w, temps);
  }
}

template <bool kContiguous>
void CompiledRcModel::run_rk4(unsigned substeps, double h,
                              const double* power_w, double* temps) {
  double* partial = partial_.data();
  double* sa = scratch_a_.data();
  double* sb = scratch_b_.data();
  const std::size_t* offset = csr_offset_.data();
  const int* other = csr_other_.data();
  const double* g = csr_g_.data();
  const double* cap = capacitance_.data();
  const std::size_t free_count = free_nodes_.size();
  const double h6 = h / 6.0;
  for (unsigned s = 0; s < substeps; ++s) {
    // Fused RK4: each stage evaluates its derivative, folds it into the
    // running Butcher sum, and emits the next stage's state in one sweep,
    // ping-ponging between the two scratch buffers so a stage never
    // overwrites the array it is reading. The fourth stage folds the k4
    // evaluation straight into the combine, so k4 never touches memory.
    stage<kContiguous, false>(temps, power_w, temps, 0.5 * h, partial, sa);
    stage<kContiguous, true>(sa, power_w, temps, 0.5 * h, partial, sb);
    stage<kContiguous, true>(sb, power_w, temps, h, partial, sa);
    for (std::size_t fi = 0; fi < free_count; ++fi) {
      const std::size_t i = kContiguous ? fi : free_nodes_[fi];
      const double ti = sa[i];
      double acc = 0.0;
      const std::size_t end = offset[fi + 1];
      for (std::size_t t = offset[fi]; t < end; ++t) {
        acc += g[t] * (sa[other[t]] - ti);
      }
      const double k4 = (acc + power_w[i]) / cap[i];
      temps[i] += h6 * (partial[i] + k4);
    }
    for (std::size_t bi = 0; bi < boundary_nodes_.size(); ++bi) {
      // All four boundary slopes are zero; the reference combine still adds
      // the (exactly +0.0) term, normalizing a -0.0 state the same way.
      temps[boundary_nodes_[bi]] += h6 * 0.0;
    }
  }
}

void CompiledRcModel::steady_state(const double* power_w,
                                   double* temps_io) const {
  const std::size_t n = free_nodes_.size();
  if (n == 0) return;
  util::Matrix g(n, n);
  util::Matrix rhs(n, 1);
  for (std::size_t fi = 0; fi < n; ++fi) rhs(fi, 0) = power_w[free_nodes_[fi]];
  for (std::size_t e = 0; e < edge_g_.size(); ++e) {
    const std::size_t a = edge_a_[e];
    const std::size_t b = edge_b_[e];
    const double cond = edge_g_[e];
    const bool a_free = free_slot_[a] != kNoSlot;
    const bool b_free = free_slot_[b] != kNoSlot;
    if (a_free) g(free_slot_[a], free_slot_[a]) += cond;
    if (b_free) g(free_slot_[b], free_slot_[b]) += cond;
    if (a_free && b_free) {
      g(free_slot_[a], free_slot_[b]) -= cond;
      g(free_slot_[b], free_slot_[a]) -= cond;
    } else if (a_free) {
      rhs(free_slot_[a], 0) += cond * temps_io[b];
    } else if (b_free) {
      rhs(free_slot_[b], 0) += cond * temps_io[a];
    }
  }
  const util::Matrix sol = g.solve(rhs);
  for (std::size_t fi = 0; fi < n; ++fi) temps_io[free_nodes_[fi]] = sol(fi, 0);
}

}  // namespace dtpm::thermal
