// Exact discrete-time propagator for the RC thermal network.
//
// Between conductance changes (fan actuation) the network is LTI: with the
// free-node temperatures stacked as T and the per-step heat input as z
// (injected power plus boundary coupling, both constant within a step),
//
//     dT/dt = A T + D z,   A_ij = g_ij / C_i,  A_ii = -(sum_j g_ij) / C_i,
//                          D = diag(1 / C_i),
//
// so the whole internally-subdivided RK4 substep loop of a fixed-dt step
// collapses to one affine map  T' = Phi T + Gamma z.  PropagatorRcModel
// compiles (Phi, Gamma) once per distinct (dt, conductance state) into a
// PropagatorTable and replaces the per-step stage sweeps with a single
// matvec.
//
// Phi/Gamma are built by repeated squaring of the exact one-substep RK4
// affine map (R = I + hA + (hA)^2/2 + (hA)^3/6 + (hA)^4/24,
// S = h(I + hA/2 + (hA)^2/6 + (hA)^3/24), composed over the same substep
// count RcNetwork::step would use). In exact arithmetic this IS the RK4
// loop, so the propagator tracks the reference integrator to floating-point
// rounding (~1e-13 C/step).
//
// Every step is a matvec, the first one in a new (dt, conductance state)
// too: its matrices come from a shared PropagatorTable when one holds them,
// else from the model's own table, which compiles them on first sight. The
// conductance state is named by the network's own conductance signature
// (RcNetwork::conductance_signature), a value hash the network keeps in
// step with every conductance write, so a lookup reads one integer and a
// model may step any number of networks of one structure, whichever objects
// hold them. RcNetwork::step stays the reference engine and the test
// oracle.
//
// Storage and kernel: [Phi | Gamma] is one n x 2n matrix packed in 4-row
// panels (column-major within a panel), then the n % 4 tail rows
// row-major, so a step is a register-blocked matvec over x = [T ; z]. Every
// row still starts from +0.0 and adds its Phi terms, then its Gamma terms,
// left to right, in plain (uncontracted) double arithmetic: the packed step
// is bit-identical to the row-by-row dot product.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace dtpm::thermal {

class RcNetwork;

/// One compiled (dt, conductance state) propagator: the affine step map and
/// the boundary-coupling pattern needed to form z. Shared read-only by
/// every step through the table that owns it.
struct PropagatorMatrices {
  /// Rows per register-blocked panel of `packed`.
  static constexpr std::size_t kPanelRows = 4;

  std::size_t free_count = 0;
  std::vector<std::size_t> free_nodes;  ///< dense slot -> node index
  /// [Phi | Gamma], free_count x 2 free_count (Gamma maps W): full 4-row
  /// panels column-major within each panel, then the tail rows row-major.
  std::vector<double> packed;
  /// z[slot] += g * temps[boundary_node] terms, in ascending edge order.
  struct BoundaryTerm {
    std::size_t free_slot;
    std::size_t boundary_node;
    double g;
  };
  std::vector<BoundaryTerm> boundary_terms;

  /// Offset of [Phi | Gamma](row, col) in `packed`.
  std::size_t packed_index(std::size_t row, std::size_t col) const;
  double phi(std::size_t row, std::size_t col) const {
    return packed[packed_index(row, col)];
  }
  double gamma(std::size_t row, std::size_t col) const {
    return packed[packed_index(row, free_count + col)];
  }
};

/// Propagators for networks of one structure (topology,
/// capacitances, boundary nodes), keyed by (dt, conductance state). Filled
/// single-threaded, then shared read-only: find() takes no lock, so any
/// number of models may read one table concurrently while nothing adds to
/// it.
class PropagatorTable {
 public:
  /// The entry for `network`'s current conductance state at dt_s, compiled
  /// unless the table already holds it. Not thread-safe.
  /// @throws std::invalid_argument on non-positive dt.
  const PropagatorMatrices& add(const RcNetwork& network, double dt_s);

  /// The entry for (dt_s, RcNetwork::conductance_signature()), else null.
  /// Pointers stay valid for the table's lifetime.
  const PropagatorMatrices* find(double dt_s, std::uint64_t signature) const;

  std::size_t size() const { return entries_.size(); }

 private:
  struct Entry {
    double dt_s = 0.0;
    std::uint64_t signature = 0;
    std::unique_ptr<const PropagatorMatrices> m;
  };
  std::vector<Entry> entries_;
};

/// Discrete-time stepping engine over an RcNetwork. Not thread-safe;
/// every network handed to step()/matrices_for() must share the structure
/// (topology, capacitances, boundary nodes) of the first one seen.
class PropagatorRcModel {
 public:
  /// A model over networks of `shared`'s structure (sim::RunPlan builds one
  /// table per structure). A lookup tries the shared table before the
  /// model's own; numerics and step counts are the same either way. Null
  /// `shared` compiles everything itself. The table must outlive this
  /// object.
  explicit PropagatorRcModel(const PropagatorTable* shared = nullptr);

  /// Advances `network` by dt_s: step_resolved() on matrices_for().
  /// @throws std::invalid_argument on non-positive dt or a power vector
  /// size mismatch (same conditions as RcNetwork::step).
  void step(RcNetwork& network, double dt_s,
            const std::vector<double>& power_w);

  /// The matrices for the network's current conductance state and dt: the
  /// shared table's entry, else the model's own, compiled on first sight
  /// (without advancing any state). The reference stays valid for the
  /// model's lifetime. @throws std::invalid_argument on non-positive dt.
  const PropagatorMatrices& matrices_for(const RcNetwork& network,
                                         double dt_s);

  /// One matvec step with matrices already resolved (a matrices_for()
  /// result for `network`'s current conductance state and this dt),
  /// without step()'s checks or its lookup. sim::Plant resolves once per
  /// control interval and runs every substep through it.
  void step_resolved(const PropagatorMatrices& m, RcNetwork& network,
                     const std::vector<double>& power_w);

  /// Steps taken, through step() or step_resolved().
  std::uint64_t propagator_steps() const { return propagator_steps_; }
  /// Matrices this model compiled itself (lookups the shared table could
  /// not serve).
  std::uint64_t compiles() const { return compiles_; }

 private:
  const PropagatorTable* shared_;
  PropagatorTable own_;  ///< what `shared_` could not serve

  std::uint64_t propagator_steps_ = 0;
  std::uint64_t compiles_ = 0;

  /// The matvec input x = [T_free ; z], sized on the first step (no
  /// allocation on the hot path after it).
  std::vector<double> x_;
};

}  // namespace dtpm::thermal
