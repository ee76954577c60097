// Continuous-time RC thermal network: the ground-truth "physics" that stands
// in for the Exynos 5410 die + package + board of the Odroid-XU+E.
//
// The network solves  C dT/dt = -G T(t) + P(t)  (Eq. 4.3 of the paper) with a
// classical RK4 integrator. Nodes may be pinned to a fixed temperature
// (ambient, or the furnace chamber during leakage characterization). The DTPM
// stack never sees this model directly: it observes the plant only through
// quantized, noisy sensors, and identifies its own reduced 4x4 model from
// those observations, exactly as the paper does against real hardware.
//
// One class owns the whole network: the node list, the edges as flat index
// arrays, the gather form the integrator reads, the free/boundary split, the
// name -> index map, the temperature state, the RK4 integrator and the
// steady-state solve. Everything the step loop needs is flattened once at
// construction, so the hot loop performs no lookups and no heap allocation:
//
//   * the RK4 stability bound (tau_min substep subdivision) is cached and
//     recomputed only when an edge conductance actually changes (the fan);
//   * the conductance signature -- a value hash of the edge conductances --
//     is kept in step with the same writes, so derived engines (the LTI
//     propagator) key their caches on the conductance state itself rather
//     than on the identity of the network object.
//
// The integrator arithmetic is kept operation-for-operation identical to
// the edge-list reference implementation (including dividing by C rather
// than multiplying by a precomputed 1/C, which would perturb the last ulp):
// the golden-trace suite pins every trace bit-for-bit.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "util/matrix.hpp"

namespace dtpm::thermal {

/// One lumped thermal node (also the node entry of a data-driven
/// FloorplanSpec).
struct ThermalNode {
  std::string name;
  double capacitance_j_per_k = 1.0;
  double initial_temp_c = 25.0;
  /// Fixed-temperature boundary node (ambient / furnace chamber).
  bool is_boundary = false;
};

/// Symmetric conductance between two nodes, in W/K.
struct ThermalEdge {
  std::size_t node_a = 0;
  std::size_t node_b = 0;
  double conductance_w_per_k = 0.0;
};

/// Lumped RC network with runtime-adjustable edge conductances (the fan
/// manipulates the case-to-ambient edge) and pinnable boundary temperatures
/// (the furnace manipulates ambient).
class RcNetwork {
 public:
  /// Dense free index of a boundary node (free_slot()).
  static constexpr std::size_t kNoSlot = static_cast<std::size_t>(-1);

  /// @throws std::invalid_argument on malformed topology (no nodes, edge
  ///         out of range, non-positive capacitance or conductance,
  ///         self-loop).
  RcNetwork(std::vector<ThermalNode> nodes, std::vector<ThermalEdge> edges);

  std::size_t node_count() const { return nodes_.size(); }
  std::size_t edge_count() const { return edge_g_.size(); }
  const ThermalNode& node(std::size_t i) const { return nodes_.at(i); }
  std::size_t edge_node_a(std::size_t e) const { return edge_a_.at(e); }
  std::size_t edge_node_b(std::size_t e) const { return edge_b_.at(e); }

  /// Index lookup by node name against the map built at construction;
  /// throws std::invalid_argument if absent. Duplicate names resolve to the
  /// lowest index, matching a first-match linear scan.
  std::size_t index_of(const std::string& name) const;

  /// Free (non-boundary) nodes in ascending index order, and each node's
  /// position in that list (kNoSlot for a boundary node).
  const std::vector<std::size_t>& free_nodes() const { return free_nodes_; }
  std::size_t free_slot(std::size_t node) const { return free_slot_.at(node); }

  /// Current temperature of node i in Celsius.
  double temperature_c(std::size_t i) const { return temps_.at(i); }
  const std::vector<double>& temperatures_c() const { return temps_; }

  /// Overrides the temperature state (used by tests and by the furnace to
  /// equilibrate quickly).
  void set_temperature_c(std::size_t i, double t);
  void set_all_temperatures_c(double t);

  /// Re-pins a boundary node to a new fixed temperature.
  void set_boundary_temperature_c(std::size_t i, double t);

  /// Changes an edge conductance at runtime (fan speed changes). Writing an
  /// unchanged value is a no-op, so per-interval fan actuation does not
  /// trigger a stability-bound or signature recompute.
  /// @throws std::invalid_argument on non-positive conductance,
  ///         std::out_of_range on a bad index.
  void set_edge_conductance(std::size_t edge_index, double conductance_w_per_k);
  double edge_conductance(std::size_t edge_index) const {
    return edge_g_.at(edge_index);
  }

  /// Value signature of the current conductance state: FNV-1a over the edge
  /// count and the edge-conductance bit patterns. Two states with equal
  /// conductances have equal signatures, whichever network object holds
  /// them; the LTI propagator keys its compiled matrices on it.
  std::uint64_t conductance_signature() const { return signature_; }

  /// The internal subdivision step() uses for dt_s: substeps =
  /// ceil(dt_s / max_stable_substep_s()), h = dt_s / substeps. Exposed so a
  /// propagator built for the same dt reproduces the subdivision exactly.
  unsigned substeps_for(double dt_s) const;

  /// Largest internal RK4 substep the stiffest free node allows (0.25 x
  /// tau_min, floored at 1 us). Exposed for tests and diagnostics.
  double max_stable_substep_s() const { return max_substep_s_; }

  /// Advances the network by dt seconds with the given per-node power
  /// injection (W). Power injected into boundary nodes is ignored. dt is
  /// internally subdivided so the explicit integrator stays well inside its
  /// stability region for the stiffest node.
  /// @throws std::invalid_argument on a power vector size mismatch or
  ///         non-positive dt.
  void step(double dt_s, const std::vector<double>& power_w);

  /// The conductance matrix G reduced to the free nodes (ordered like
  /// free_nodes()): boundary couplings only add to the diagonal, since
  /// their fixed temperatures are inputs, not states. Assembled edge by
  /// edge in edge order; steady_state() and the stability analyzer share it.
  util::Matrix free_conductance_matrix() const;

  /// Steady-state temperatures for a constant power vector, solved directly
  /// from G T = P with boundary conditions. Used by tests and by the furnace
  /// harness for fast equilibration. Not a hot path (dense solve per call).
  std::vector<double> steady_state(const std::vector<double>& power_w) const;

  /// Mutable temperature state for external stepping engines: the LTI
  /// propagator advances the state out-of-band and writes the result back
  /// through this. Everyone else reads temperatures_c().
  std::vector<double>& temperatures_mut() { return temps_; }

 private:
  /// Recomputes what depends on the edge conductances: the stability bound
  /// and the conductance signature.
  void refresh_conductance_state();

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

  std::vector<ThermalNode> nodes_;

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

  // Node arrays the integrator reads.
  std::vector<double> capacitance_;
  std::vector<std::size_t> free_nodes_;      ///< ascending node indices
  std::vector<std::size_t> boundary_nodes_;  ///< ascending node indices
  std::vector<std::size_t> free_slot_;       ///< node -> dense free index, or kNoSlot
  /// True when free nodes are exactly [0, free_count): the integrator then
  /// skips the free_nodes_ indirection (the default floorplan lists its
  /// ambient boundary last, so this is the common layout).
  bool contiguous_free_ = false;

  /// Node indices sorted by (name, index): the name map index_of() searches.
  std::vector<std::size_t> by_name_;

  // Derived from the conductances, recomputed only when one changes. The dt
  // subdivision (substeps, h) is derived from the bound per step() call --
  // two integer-ish ops, so there is no last-seen-dt cache to race on when
  // networks are stepped from several threads.
  double max_substep_s_ = 0.0;
  std::uint64_t signature_ = 0;

  std::vector<double> temps_;

  // RK4 scratch (sized at construction; step() never allocates). partial_
  // carries the running k1 + 2k2 + 2k3 Butcher sum; k4 lives only in
  // registers -- the fourth stage is fused into the combine.
  std::vector<double> partial_, scratch_a_, scratch_b_;
};

}  // namespace dtpm::thermal
