// Compiled form of an RC thermal network: everything the integrator needs,
// flattened once at construction so the per-step loop touches only dense
// index-based arrays. This is the hot path of the whole simulator -- the
// RK4 derivative evaluation runs ~100 times per control interval -- so the
// compile step hoists every per-step lookup out of the loop:
//
//   * edge endpoints as flat index arrays (no struct-of-string walks),
//   * per-node capacitance and a free/boundary split (no branch per node),
//   * the RK4 stability bound (tau_min substep subdivision), cached and
//     recomputed only when an edge conductance actually changes (the fan),
//   * the steady-state free-node elimination pattern,
//   * the name -> index map, resolved at compile time and never in the loop.
//
// The integrator arithmetic is kept operation-for-operation identical to
// the reference edge-list implementation (including dividing by C rather
// than multiplying by a precomputed 1/C, which would perturb the last ulp):
// the golden-trace suite pins every trace bit-for-bit across this refactor.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dtpm::thermal {

struct ThermalNode;
struct ThermalEdge;

/// Immutable-topology compiled model. Temperatures live with the caller
/// (RcNetwork keeps ownership of the state vector); the compiled model holds
/// the topology, the integrator scratch, and the cached stability bound.
class CompiledRcModel {
 public:
  /// Compiles a validated topology. @throws std::invalid_argument on the
  /// same malformed-topology conditions RcNetwork rejects (edge out of
  /// range, self-loop, non-positive capacitance or conductance).
  CompiledRcModel(const std::vector<ThermalNode>& nodes,
                  const std::vector<ThermalEdge>& edges);

  std::size_t node_count() const { return node_count_; }
  std::size_t edge_count() const { return edge_a_.size(); }

  /// Name lookup against the map built at compile time; throws
  /// std::invalid_argument if absent. Duplicate names resolve to the lowest
  /// index, matching a first-match linear scan.
  std::size_t index_of(const std::string& name) const;

  /// Runtime conductance update (the fan edge slot). A write with an
  /// unchanged value is a no-op, so per-interval fan actuation does not
  /// trigger a stability-bound recompute. @throws std::invalid_argument on
  /// non-positive conductance, std::out_of_range on a bad index.
  void set_edge_conductance(std::size_t edge_index, double conductance_w_per_k);
  double edge_conductance(std::size_t edge_index) const;

  /// Monotonic counter bumped by every set_edge_conductance call that
  /// actually changes a value. Derived models (the LTI propagator) key
  /// their caches on it: an unchanged epoch guarantees the
  /// conductance state -- and hence any precomputed transition matrix -- is
  /// still valid.
  std::uint64_t conductance_epoch() const { return conductance_epoch_; }

  /// Edge endpoints (propagator assembly; conductance via edge_conductance).
  std::size_t edge_node_a(std::size_t e) const { return edge_a_.at(e); }
  std::size_t edge_node_b(std::size_t e) const { return edge_b_.at(e); }

  /// Node structure for derived stepping engines.
  const std::vector<std::size_t>& free_nodes() const { return free_nodes_; }
  double capacitance_j_per_k(std::size_t node) const {
    return capacitance_.at(node);
  }

  /// The internal subdivision step() would use for dt_s: substeps =
  /// ceil(dt_s / max_stable_substep_s()), h = dt_s / substeps. Exposed so a
  /// propagator built for the same dt reproduces the subdivision exactly.
  unsigned substeps_for(double dt_s) const;

  /// Advances `temps` (node_count() elements) by dt_s seconds of RK4,
  /// internally subdivided by the cached stability bound.
  /// @throws std::invalid_argument if dt_s <= 0.
  void step(double dt_s, const double* power_w, double* temps);

  /// Steady-state solve G T = P with boundary conditions: reads boundary
  /// temperatures from `temps_io` and overwrites the free-node entries with
  /// the solution. Not a hot path (direct dense solve per call).
  void steady_state(const double* power_w, double* temps_io) const;

  /// Largest internal RK4 substep the stiffest free node allows (0.25 x
  /// tau_min, floored at 1 us). Exposed for tests and diagnostics.
  double max_stable_substep_s() const { return max_substep_s_; }

 private:
  void recompute_stability_bound();

  /// One fused RK4 stage: evaluates k = dT/dt(read) through the gather CSR,
  /// folds it into the running Butcher sum (kAccumulate ? partial += 2k :
  /// partial = k -- the same left-to-right grouping as the reference
  /// combine k1 + 2k2 + 2k3 + k4), and emits the next stage's state
  /// stage_out[i] = base[i] + coeff * k in the same sweep. The gather
  /// accumulates each node's incident heat flows in ascending edge order, so
  /// every sum sees the exact operand sequence of the reference edge-list
  /// scatter (IEEE negation is exact, so the sign-free g*(T_other - T_i)
  /// form is bit-identical for both edge endpoints). Force-inlined so each
  /// call site specializes its mode; kContiguous elides the free_nodes_
  /// indirection (see contiguous_free_).
  template <bool kContiguous, bool kAccumulate>
  inline __attribute__((always_inline)) void stage(
      const double* read, const double* power_w, const double* base,
      double coeff, double* partial, double* stage_out) const;

  /// The RK4 substep loop, specialized on the free-node layout.
  template <bool kContiguous>
  void run_rk4(unsigned substeps, double h, const double* power_w,
               double* temps);

  std::size_t node_count_ = 0;

  // Edges, struct-of-arrays (steady-state solve, stability bound, updates).
  std::vector<std::size_t> edge_a_;
  std::vector<std::size_t> edge_b_;
  std::vector<double> edge_g_;

  // Gather form: per free node, incident (neighbor, conductance) terms in
  // ascending edge order. csr_g_ holds copies of edge_g_ refreshed on
  // set_edge_conductance via the edge -> term slots map.
  std::vector<std::size_t> csr_offset_;  ///< free slot -> term range
  std::vector<int> csr_other_;           ///< neighbor node per term
  std::vector<double> csr_g_;            ///< conductance per term
  std::vector<std::size_t> edge_term_a_; ///< edge -> term slot at endpoint a
  std::vector<std::size_t> edge_term_b_; ///< edge -> term slot at endpoint b

  // Nodes.
  std::vector<double> capacitance_;
  std::vector<std::size_t> free_nodes_;      ///< ascending node indices
  std::vector<std::size_t> boundary_nodes_;  ///< ascending node indices
  std::vector<std::size_t> free_slot_;       ///< node -> dense free index, or npos
  /// True when free nodes are exactly [0, free_count): the integrator then
  /// skips the free_nodes_ indirection (the default floorplan lists its
  /// ambient boundary last, so this is the common layout).
  bool contiguous_free_ = false;

  // Name map: (name, index) sorted by name then index.
  std::vector<std::pair<std::string, std::size_t>> name_index_;

  // Stability bound, recomputed only when a conductance changes. The dt
  // subdivision (substeps, h) is derived from it per step() call -- two
  // integer-ish ops, so there is no last-seen-dt cache to race on when a
  // shared model is stepped from several threads.
  double max_substep_s_ = 0.0;
  std::uint64_t conductance_epoch_ = 0;

  // RK4 scratch (sized at compile time; step() never allocates). partial_
  // carries the running k1 + 2k2 + 2k3 Butcher sum; k4 lives only in
  // registers -- the fourth stage is fused into the combine.
  std::vector<double> partial_, scratch_a_, scratch_b_;
};

}  // namespace dtpm::thermal
