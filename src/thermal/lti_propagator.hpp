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
// precomputes (Phi, Gamma) per distinct (dt, conductance state), caches them
// keyed on CompiledRcModel's conductance epoch, and replaces the per-step
// stage sweeps with a single matvec.
//
// Two construction modes:
//
//   * kRk4Map (default): Phi/Gamma are built by repeated squaring of the
//     exact one-substep RK4 affine map (R = I + hA + (hA)^2/2 + (hA)^3/6 +
//     (hA)^4/24, S = h(I + hA/2 + (hA)^2/6 + (hA)^3/24), composed over the
//     same substep count CompiledRcModel::step would use). In exact
//     arithmetic this IS the RK4 loop, so the propagator tracks the
//     reference integrator to floating-point rounding (~1e-13 C/step) --
//     the bounded-error mode.
//   * kExpm: Phi = expm(A dt) and Gamma = integral_0^dt expm(A s) ds * D via
//     scaling-and-squaring on the augmented matrix [[A, D], [0, 0]] (handles
//     boundary-free, hence singular-A, networks). Exact for the continuous
//     dynamics; differs from RK4 by the integrator's own truncation error.
//
// Steps whose (dt, conductance state) pair has no cached matrices -- the
// first step after construction and the first step after a fan transition --
// fall back to the bit-identical RK4 path (RcNetwork::step) and then take
// the matrices from a shared PropagatorTable when one holds them, else
// compile their own; propagator_steps()/fallback_steps() expose which path
// ran.
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

enum class PropagatorMode {
  kRk4Map,  ///< repeated-squaring of the RK4 substep map (bounded error)
  kExpm,    ///< true matrix exponential (exact continuous-time propagator)
};

/// One compiled (dt, conductance state) propagator: the affine step map and
/// the boundary-coupling pattern needed to form z. Shared read-only by
/// every step through the cache or table that owns it.
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

/// kRk4Map propagators for networks of one structure (topology,
/// capacitances, boundary nodes), keyed by (dt, conductance state) the same
/// way PropagatorRcModel keys its own cache. Filled single-threaded, then
/// shared read-only: find() takes no lock, so any number of models may read
/// one table concurrently while nothing adds to it.
class PropagatorTable {
 public:
  /// Compiles the matrices for `network`'s current conductance state at
  /// dt_s unless the table already holds them. Not thread-safe.
  /// @throws std::invalid_argument on non-positive dt.
  void add(const RcNetwork& network, double dt_s);

  /// The entry for (dt_s, conductance signature), else null. Pointers stay
  /// valid for the table's lifetime.
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

/// Caching discrete-time stepping engine over an RcNetwork. Not
/// thread-safe; every network handed to step()/matrices_for() must share
/// the topology of the first one seen and outlive this object (the
/// signature memo is keyed on the compiled model's address + epoch).
///
class PropagatorRcModel {
 public:
  explicit PropagatorRcModel(PropagatorMode mode = PropagatorMode::kRk4Map);

  /// A kRk4Map model over a network of `shared`'s structure (sim::RunPlan
  /// builds one table per structure). A cache miss takes its matrices from
  /// the table before compiling; numerics, fallback steps and step counts
  /// are the same either way. Null `shared` compiles everything itself. The
  /// table must outlive this object.
  explicit PropagatorRcModel(const PropagatorTable* shared);

  PropagatorMode mode() const { return mode_; }

  /// Advances `network` by dt_s. Cache hit: one matvec. Cache miss (first
  /// sight of this dt + conductance state): advances through the
  /// bit-identical RK4 path and compiles + caches the matrices for
  /// subsequent steps. @throws std::invalid_argument on non-positive dt or
  /// a power vector size mismatch (same conditions as RcNetwork::step).
  void step(RcNetwork& network, double dt_s,
            const std::vector<double>& power_w);

  /// The cached matrices for the network's current conductance state and
  /// dt, compiling them on first sight (without advancing any state). The
  /// reference stays valid until the cache evicts the entry (bounded FIFO;
  /// do not hold it across unrelated step()/matrices_for() calls).
  const PropagatorMatrices& matrices_for(const RcNetwork& network,
                                         double dt_s);

  /// Steps taken through the cached-matvec path.
  std::uint64_t propagator_steps() const { return propagator_steps_; }
  /// Steps taken through the RK4 fallback (cache-miss) path.
  std::uint64_t fallback_steps() const { return fallback_steps_; }
  /// Matrices this model compiled itself (cache misses the shared table
  /// could not serve).
  std::uint64_t compiles() const { return compiles_; }

 private:
  struct Entry {
    double dt_s = 0.0;
    std::uint64_t signature = 0;
    const PropagatorMatrices* m = nullptr;  ///< into `owned` or the table
    std::unique_ptr<const PropagatorMatrices> owned;
  };

  /// Value signature of the network's current conductance state (FNV-1a
  /// over the edge-conductance bit patterns), memoized per (compiled model,
  /// epoch) so the hot path never rehashes an unchanged network.
  std::uint64_t signature_of(const RcNetwork& network);
  Entry& entry_for(const RcNetwork& network, double dt_s);

  PropagatorMode mode_;
  const PropagatorTable* shared_;
  std::vector<Entry> cache_;  ///< FIFO-bounded (fan states x dt values)
  std::size_t next_evict_ = 0;

  const void* memo_model_ = nullptr;
  std::uint64_t memo_epoch_ = 0;
  std::uint64_t memo_signature_ = 0;
  bool memo_valid_ = false;

  std::uint64_t propagator_steps_ = 0;
  std::uint64_t fallback_steps_ = 0;
  std::uint64_t compiles_ = 0;

  /// step() scratch: x = [T_free ; z] (no allocation on the hot path).
  std::vector<double> x_;
};

}  // namespace dtpm::thermal
