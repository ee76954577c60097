#include "sim/batch_lane.hpp"

#include <algorithm>
#include <cstring>
#include <numeric>
#include <stdexcept>

#include "power/leakage.hpp"
#include "power/resource.hpp"
#include "sim/run_plan.hpp"
#include "sim/simulation.hpp"
#include "util/phase.hpp"
#include "util/vexp.hpp"

namespace dtpm::sim {

namespace {

/// Lanes per group. Bounds how many Simulations one worker keeps alive at
/// once; well past the point where wider SoA rows stop paying.
constexpr std::size_t kMaxLanesPerGroup = 64;

constexpr std::size_t kBigRail =
    power::resource_index(power::Resource::kBigCluster);
constexpr std::size_t kLittleRail =
    power::resource_index(power::Resource::kLittleCluster);
constexpr std::size_t kGpuRail = power::resource_index(power::Resource::kGpu);
constexpr std::size_t kMemRail = power::resource_index(power::Resource::kMem);

/// Schedule-memo equivalence class key: a cheap mix over the bit patterns
/// of everything the Soc schedule solve reads -- staged demand, background
/// threads, applied config. Collisions are resolved by the full equality
/// check below, so the hash only has to be cheap, not perfect.
std::uint64_t mix_bits(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9e3779b97f4a7c15ULL + (h << 6) + (h >> 2);
  return h;
}

std::uint64_t double_bits(double d) {
  std::uint64_t u;
  std::memcpy(&u, &d, sizeof(u));
  return u;
}

std::uint64_t hash_thread(std::uint64_t h, const workload::ThreadDemand& t) {
  h = mix_bits(h, double_bits(t.duty));
  h = mix_bits(h, double_bits(t.cpu_activity));
  h = mix_bits(h, double_bits(t.mem_intensity));
  h = mix_bits(h, t.counts_progress ? 1 : 0);
  h = mix_bits(h, double_bits(t.cpu_cycles_per_unit));
  h = mix_bits(h, double_bits(t.mem_seconds_per_unit));
  return h;
}

std::uint64_t schedule_class_hash(Simulation& sim) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const workload::Demand& d = sim.staged_demand();
  h = mix_bits(h, d.threads.size());
  for (const workload::ThreadDemand& t : d.threads) h = hash_thread(h, t);
  h = mix_bits(h, double_bits(d.gpu_load));
  h = mix_bits(h, double_bits(d.gpu_cycles_per_unit));
  const std::vector<workload::ThreadDemand>& bg = sim.staged_background();
  h = mix_bits(h, bg.size());
  for (const workload::ThreadDemand& t : bg) h = hash_thread(h, t);
  const soc::SocConfig& c = sim.plant().soc().config();
  h = mix_bits(h, static_cast<std::uint64_t>(c.active_cluster));
  std::uint64_t mask = 0;
  for (bool online : c.big_core_online) mask = (mask << 1) | (online ? 1 : 0);
  h = mix_bits(h, mask);
  h = mix_bits(h, double_bits(c.big_freq_hz));
  h = mix_bits(h, double_bits(c.little_freq_hz));
  h = mix_bits(h, double_bits(c.gpu_freq_hz));
  return h;
}

bool same_schedule_class(Simulation& a, Simulation& b) {
  return a.plant().soc().config() == b.plant().soc().config() &&
         a.staged_demand() == b.staged_demand() &&
         a.staged_background() == b.staged_background();
}

}  // namespace

void BatchPlantStepper::stage_wave_noise(
    const std::vector<Simulation*>& lanes) {
  if (lanes.empty()) return;
  const std::size_t stride = lanes.front()->plant().sensor_noise_count();
  noise_.resize(lanes.size() * stride);
  for (std::size_t l = 0; l < lanes.size(); ++l) {
    Simulation& sim = *lanes[l];
    const bool profiling = sim.profile_phases();
    const std::uint64_t t0 = profiling ? util::cycle_now() : 0;
    double* row = &noise_[l * stride];
    sim.plant().draw_sensor_noise_into(row);
    sim.plant().stage_sensor_noise(row);
    if (profiling) {
      util::PhaseCycles cycles;
      cycles.add(util::Phase::kSensor, util::cycle_now() - t0);
      sim.add_phase_cycles(cycles);
    }
  }
}

void BatchPlantStepper::run_interval(std::vector<Simulation*>& wave) {
  const std::size_t lanes = wave.size();
  if (lanes == 0) return;
  Simulation& first = *wave.front();
  const int substeps = first.plant_substeps();
  const double sub_dt = first.plant_sub_dt_s();
  const thermal::Floorplan& fp = first.plant().floorplan();
  const std::size_t nodes = fp.network.node_count();
  const bool profiling = first.profile_phases();
  std::uint64_t mark = profiling ? util::cycle_now() : 0;
  std::uint64_t setup_ticks = 0;
  std::uint64_t schedule_ticks = 0;
  for (Simulation* sim : wave) {
    if (sim->plant_substeps() != substeps ||
        sim->plant_sub_dt_s() != sub_dt ||
        sim->plant().floorplan().network.node_count() != nodes) {
      throw std::logic_error(
          "BatchPlantStepper: lanes are not lockstep-compatible");
    }
  }

  // Bucket lanes by their fan-edge conductance -- the only conductance
  // that can differ between same-platform lanes (Simulation's sole runtime
  // conductance mutation is Plant::set_fan) -- so the propagator's
  // signature hash and cache scan run once per bucket, not once per lane.
  fan_g_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    const thermal::Floorplan& lane_fp = wave[l]->plant().floorplan();
    fan_g_[l] = lane_fp.has_fan_edge()
                    ? lane_fp.network.edge_conductance(lane_fp.fan_edge)
                    : 0.0;
  }
  order_.resize(lanes);
  std::iota(order_.begin(), order_.end(), std::size_t{0});
  // Stable insertion sort: at most kMaxLanesPerGroup keys, nearly sorted
  // from the previous interval's order -- and unlike std::stable_sort it
  // allocates nothing, which keeps the steady-state batched path under the
  // zero-allocation guard (tests/test_zero_alloc.cpp).
  for (std::size_t i = 1; i < lanes; ++i) {
    const std::size_t key = order_[i];
    const double key_g = fan_g_[key];
    std::size_t j = i;
    for (; j > 0 && fan_g_[order_[j - 1]] > key_g; --j) {
      order_[j] = order_[j - 1];
    }
    order_[j] = key;
  }
  sorted_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) sorted_[l] = wave[order_[l]];
  wave.swap(sorted_);
  for (std::size_t l = 0; l < lanes; ++l) {
    const thermal::Floorplan& lane_fp = wave[l]->plant().floorplan();
    fan_g_[l] = lane_fp.has_fan_edge()
                    ? lane_fp.network.edge_conductance(lane_fp.fan_edge)
                    : 0.0;
  }
  // Compile every distinct fan state first (a compile can grow the cache
  // and move earlier entries, so pointers are only taken on the second,
  // compile-free pass), then hand each bucket its shared matrices.
  for (std::size_t l = 0; l < lanes; ++l) {
    if (l == 0 || fan_g_[l] != fan_g_[l - 1]) {
      propagator_.matrices_for(wave[l]->plant().network(), sub_dt);
    }
  }
  mats_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    mats_[l] = (l > 0 && fan_g_[l] == fan_g_[l - 1])
                   ? mats_[l - 1]
                   : &propagator_.matrices_for(wave[l]->plant().network(),
                                               sub_dt);
  }

  // Leak row -> heat-injection node (identical across lanes: one platform).
  row_node_.assign(fp.core_node_index.begin(), fp.core_node_index.end());
  row_node_.push_back(fp.little_node_index);
  row_node_.push_back(fp.gpu_node_index);
  row_node_.push_back(fp.mem_node_index);

  temps_.resize(nodes * lanes);
  temps_alt_.resize(nodes * lanes);
  power_.resize(nodes * lanes);
  c2_.resize(kLeakRows * lanes);
  scale_.resize(kLeakRows * lanes);
  gate_.resize(kLeakRows * lanes);
  tk_.resize(kLeakRows * lanes);
  leak_.resize(kLeakRows * lanes);
  konst_.resize(lanes);
  committing_.assign(lanes, 1);
  if (profiling) {
    const std::uint64_t now = util::cycle_now();
    setup_ticks = now - mark;
    mark = now;
  }

  // --- Substep 0: scalar schedule + power per lane, packed into columns.
  // The schedule solve (thread placement, contention bisection, activity)
  // is a pure function of (staged demand, background, applied config);
  // lanes matching an earlier lane's tuple adopt its solved schedule and
  // take the reuse path, so each equivalence class solves once per wave.
  memo_hash_.resize(lanes);
  for (std::size_t l = 0; l < lanes; ++l) {
    Simulation& sim = *wave[l];
    Plant& plant = sim.plant();
    plant.interval_begin();
    bool reuse = false;
    if (schedule_memo_) {
      memo_hash_[l] = schedule_class_hash(sim);
      for (std::size_t r = 0; r < l; ++r) {
        if (memo_hash_[r] == memo_hash_[l] &&
            same_schedule_class(*wave[r], sim)) {
          plant.soc().adopt_schedule(wave[r]->plant().soc().schedule());
          reuse = true;
          break;
        }
      }
    }
    const std::vector<double>& node_power =
        plant.substep_prepare(sim.staged_demand(), sim.staged_background(),
                              sub_dt, /*reuse_schedule=*/reuse);
    konst_[l] = plant.soc().interval_constants();
    const std::vector<double>& t = plant.network().temperatures_c();
    for (std::size_t n = 0; n < nodes; ++n) {
      temps_[n * lanes + l] = t[n];
      power_[n * lanes + l] = node_power[n];
    }
    const soc::SocIntervalConstants& k = konst_[l];
    for (std::size_t r = 0; r < kLeakRows; ++r) {
      const power::LeakageCoeffs& c =
          r < std::size_t(soc::kBigCoreCount)
              ? k.big_leak
              : (r == kLeakRows - 3
                     ? k.little_leak
                     : (r == kLeakRows - 2 ? k.gpu_leak : k.mem_leak));
      c2_[r * lanes + l] = c.c2_k;
      scale_[r * lanes + l] = c.t2_scale_w;
      gate_[r * lanes + l] = c.gate_w;
    }
  }

  if (profiling) {
    const std::uint64_t now = util::cycle_now();
    schedule_ticks = now - mark;
    mark = now;
  }

  // Seed the matvec ping-pong buffer once per interval: boundary-node rows
  // never change inside an interval and every free row is rewritten before
  // it is read, so one bulk copy here keeps the fixed-temperature rows of
  // both buffers valid for every substep's swap.
  std::copy(temps_.begin(), temps_.end(), temps_alt_.begin());

  // The thermal input vector z = power + boundary-conductance terms is
  // constant across substeps except on the leakage rows (the only node
  // powers compute_lane_powers rewrites), so build it in full once here
  // and refresh just those rows per substep. The leak-row -> free-slot map
  // is the same for every bucket (one platform, one free/boundary split).
  leak_slot_.assign(kLeakRows, std::size_t(-1));
  z_leak_only_ok_ = true;
  {
    const thermal::PropagatorMatrices* m0 = mats_[0];
    for (std::size_t r = 0; r < kLeakRows; ++r) {
      for (std::size_t i = 0; i < m0->free_count; ++i) {
        if (m0->free_nodes[i] == row_node_[r]) {
          leak_slot_[r] = i;
          break;
        }
      }
      if (leak_slot_[r] == std::size_t(-1)) z_leak_only_ok_ = false;
    }
    z_.resize(m0->free_count * lanes);
  }
  refresh_z(lanes, /*leak_rows_only=*/false);

  for (int s = 0; s < substeps; ++s) {
    if (s > 0) {
      compute_lane_powers(wave, sub_dt);
      refresh_z(lanes, /*leak_rows_only=*/z_leak_only_ok_);
    }
    thermal_matvec(lanes);
    for (std::size_t l = 0; l < lanes; ++l) {
      if (!committing_[l]) continue;
      Simulation& sim = *wave[l];
      if (!sim.plant().substep_commit(sim.staged_instance(), sub_dt)) {
        // Benchmark done mid-interval: freeze this lane where the scalar
        // loop would have broken; its column keeps being computed (and
        // discarded) so the bucket stays dense.
        committing_[l] = 0;
        scatter_lane(sim, l, lanes, nodes);
      }
    }
  }

  if (profiling) {
    // Setup (bucketing, matrix resolution) rides with the plant phase; the
    // group totals are split evenly across lanes, mirroring how the work
    // was actually shared.
    const std::uint64_t plant_ticks =
        util::cycle_now() - mark + setup_ticks;
    util::PhaseCycles share;
    share.add(util::Phase::kSchedule, schedule_ticks / lanes);
    share.add(util::Phase::kPlant, plant_ticks / lanes);
    for (std::size_t l = 0; l < lanes; ++l) wave[l]->add_phase_cycles(share);
  }

  for (std::size_t l = 0; l < lanes; ++l) {
    Simulation& sim = *wave[l];
    if (committing_[l]) scatter_lane(sim, l, lanes, nodes);
    sim.finish_step(sim.plant().interval_end());
  }
}

void BatchPlantStepper::compute_lane_powers(std::vector<Simulation*>& wave,
                                            double sub_dt) {
  const std::size_t lanes = wave.size();
  // Structure-of-arrays leakage: Kelvin rows, then exp, then the collapsed
  // coefficient form -- three flat loops the compiler vectorizes across
  // lanes (the whole reason for vexp and LeakageCoeffs).
  for (std::size_t r = 0; r < kLeakRows; ++r) {
    const double* t_row = &temps_[row_node_[r] * lanes];
    double* tk_row = &tk_[r * lanes];
    for (std::size_t l = 0; l < lanes; ++l) {
      tk_row[l] = t_row[l] + power::kKelvinOffset;
    }
  }
  const std::size_t total = kLeakRows * lanes;
  for (std::size_t i = 0; i < total; ++i) leak_[i] = c2_[i] / tk_[i];
  for (std::size_t i = 0; i < total; ++i) leak_[i] = util::vexp(leak_[i]);
  for (std::size_t i = 0; i < total; ++i) {
    leak_[i] = scale_[i] * (tk_[i] * tk_[i]) * leak_[i] + gate_[i];
  }

  // Rail assembly stays per-lane scalar (a handful of fmas) and writes
  // through pending_substep() so the ordinary substep_commit sees exactly
  // what the scalar SoC step would have produced.
  for (std::size_t l = 0; l < lanes; ++l) {
    if (!committing_[l]) continue;
    Plant& plant = wave[l]->plant();
    soc::SocStepResult& sub = plant.pending_substep();
    const soc::SocIntervalConstants& k = konst_[l];
    const double leak0 = leak_[l];  // big core 0 row
    double big_rail = 0.0;
    for (int c = 0; c < soc::kBigCoreCount; ++c) {
      const double p = k.core_const_w[c] +
                       k.core_leak_mult[c] * leak_[std::size_t(c) * lanes + l] +
                       k.core_leak0_mult[c] * leak0;
      sub.big_core_power_w[c] = p;
      big_rail += p;
      power_[row_node_[std::size_t(c)] * lanes + l] = p;
    }
    sub.rail_power_w[kBigRail] = big_rail;
    const double p_little =
        k.little_const_w +
        k.little_leak_mult * leak_[(kLeakRows - 3) * lanes + l];
    const double p_gpu = k.gpu_const_w + leak_[(kLeakRows - 2) * lanes + l];
    const double p_mem = k.mem_const_w + leak_[(kLeakRows - 1) * lanes + l];
    sub.rail_power_w[kLittleRail] = p_little;
    sub.rail_power_w[kGpuRail] = p_gpu;
    sub.rail_power_w[kMemRail] = p_mem;
    power_[row_node_[kLeakRows - 3] * lanes + l] = p_little;
    power_[row_node_[kLeakRows - 2] * lanes + l] = p_gpu;
    power_[row_node_[kLeakRows - 1] * lanes + l] = p_mem;
    sub.progress_units =
        k.progress_rate * plant.soc().consume_migration_stall(sub_dt);
  }
}

void BatchPlantStepper::refresh_z(std::size_t lane_count,
                                  bool leak_rows_only) {
  // Rebuilds the thermal input rows z = power + sum(boundary g * T_b),
  // applying each bucket's boundary terms in declaration order so every
  // row's floating-point sum matches PropagatorRcModel::step exactly. In
  // leak_rows_only mode just the rows compute_lane_powers rewrote are
  // rebuilt (same per-row op order: copy, then matching terms in order).
  std::size_t lo = 0;
  while (lo < lane_count) {
    const thermal::PropagatorMatrices* m = mats_[lo];
    std::size_t hi = lo + 1;
    while (hi < lane_count && mats_[hi] == m) ++hi;
    const std::size_t width = hi - lo;
    if (leak_rows_only) {
      for (std::size_t r = 0; r < kLeakRows; ++r) {
        const std::size_t slot = leak_slot_[r];
        const double* p_row = &power_[row_node_[r] * lane_count + lo];
        double* z_row = &z_[slot * lane_count + lo];
        for (std::size_t l = 0; l < width; ++l) z_row[l] = p_row[l];
        for (const thermal::PropagatorMatrices::BoundaryTerm& bt :
             m->boundary_terms) {
          if (bt.free_slot != slot) continue;
          const double* b_row = &temps_[bt.boundary_node * lane_count + lo];
          for (std::size_t l = 0; l < width; ++l) {
            z_row[l] += bt.g * b_row[l];
          }
        }
      }
    } else {
      const std::size_t n = m->free_count;
      for (std::size_t i = 0; i < n; ++i) {
        const double* p_row = &power_[m->free_nodes[i] * lane_count + lo];
        double* z_row = &z_[i * lane_count + lo];
        for (std::size_t l = 0; l < width; ++l) z_row[l] = p_row[l];
      }
      for (const thermal::PropagatorMatrices::BoundaryTerm& bt :
           m->boundary_terms) {
        const double* b_row = &temps_[bt.boundary_node * lane_count + lo];
        double* z_row = &z_[bt.free_slot * lane_count + lo];
        for (std::size_t l = 0; l < width; ++l) z_row[l] += bt.g * b_row[l];
      }
    }
    lo = hi;
  }
}

void BatchPlantStepper::thermal_matvec(std::size_t lane_count) {
  // One pass per fan-state bucket (contiguous columns after the sort). The
  // per-lane sum order -- all Phi terms in ascending j, then all Gamma
  // terms -- matches PropagatorRcModel::step exactly, so a lane's thermal
  // update is bit-identical to the scalar propagator for identical inputs.
  //
  // Free-node temperatures are read out of temps_ while each row's result
  // is written straight into temps_alt_ (ping-pong: a single pointer swap
  // at the end replaces the old copy-back scatter), and the lanes are
  // walked in 8-wide blocks whose accumulators live in registers across
  // the whole j loop -- one vector register per block instead of a
  // load/store per (i, j) pair -- with a half-width tier ahead of the
  // scalar remainder so odd bucket widths keep most lanes vectorized.
  // The input rows z_ are maintained by refresh_z between substeps.
  constexpr std::size_t kBlock = 8;
  std::size_t lo = 0;
  while (lo < lane_count) {
    const thermal::PropagatorMatrices* m = mats_[lo];
    std::size_t hi = lo + 1;
    while (hi < lane_count && mats_[hi] == m) ++hi;
    const std::size_t width = hi - lo;
    const std::size_t n = m->free_count;
    const double* phi = m->phi.data();
    const double* gamma = m->gamma.data();
    for (std::size_t i = 0; i < n; ++i) {
      const double* phi_row = phi + i * n;
      const double* gamma_row = gamma + i * n;
      double* out_row = &temps_alt_[m->free_nodes[i] * lane_count + lo];
      std::size_t l = 0;
      for (; l + kBlock <= width; l += kBlock) {
        double acc[kBlock] = {};
        for (std::size_t j = 0; j < n; ++j) {
          const double pij = phi_row[j];
          const double* t_row = &temps_[m->free_nodes[j] * lane_count + lo + l];
          for (std::size_t k = 0; k < kBlock; ++k) acc[k] += pij * t_row[k];
        }
        for (std::size_t j = 0; j < n; ++j) {
          const double gij = gamma_row[j];
          const double* z_row = &z_[j * lane_count + lo + l];
          for (std::size_t k = 0; k < kBlock; ++k) acc[k] += gij * z_row[k];
        }
        for (std::size_t k = 0; k < kBlock; ++k) out_row[l + k] = acc[k];
      }
      constexpr std::size_t kHalf = kBlock / 2;
      for (; l + kHalf <= width; l += kHalf) {
        double acc[kHalf] = {};
        for (std::size_t j = 0; j < n; ++j) {
          const double pij = phi_row[j];
          const double* t_row = &temps_[m->free_nodes[j] * lane_count + lo + l];
          for (std::size_t k = 0; k < kHalf; ++k) acc[k] += pij * t_row[k];
        }
        for (std::size_t j = 0; j < n; ++j) {
          const double gij = gamma_row[j];
          const double* z_row = &z_[j * lane_count + lo + l];
          for (std::size_t k = 0; k < kHalf; ++k) acc[k] += gij * z_row[k];
        }
        for (std::size_t k = 0; k < kHalf; ++k) out_row[l + k] = acc[k];
      }
      for (; l < width; ++l) {
        double acc = 0.0;
        for (std::size_t j = 0; j < n; ++j) {
          acc += phi_row[j] * temps_[m->free_nodes[j] * lane_count + lo + l];
        }
        for (std::size_t j = 0; j < n; ++j) {
          acc += gamma_row[j] * z_[j * lane_count + lo + l];
        }
        out_row[l] = acc;
      }
    }
    lo = hi;
  }
  temps_.swap(temps_alt_);
}

void BatchPlantStepper::scatter_lane(Simulation& sim, std::size_t lane,
                                     std::size_t lane_count,
                                     std::size_t node_count) {
  std::vector<double>& temps = sim.plant().network().temperatures_mut();
  for (std::size_t n = 0; n < node_count; ++n) {
    temps[n] = temps_[n * lane_count + lane];
  }
}

std::vector<LockstepGroup> plan_lockstep_groups(
    const std::vector<BatchJob>& jobs, std::vector<std::size_t>& singles,
    unsigned worker_count) {
  struct Bucket {
    PlatformPtr platform;
    double control_interval_s;
    double plant_substep_s;
    LockstepGroup members;
  };
  std::vector<Bucket> buckets;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const ExperimentConfig& config = jobs[i].config;
    if (config.engine != Engine::kBatched) {
      singles.push_back(i);
      continue;
    }
    // Value equality, not pointer identity: equal descriptors built
    // separately (inline JSON, hand-built copies) must still group.
    const PlatformPtr platform = resolved_platform(config);
    bool placed = false;
    for (Bucket& b : buckets) {
      if (b.control_interval_s == config.control_interval_s &&
          b.plant_substep_s == config.plant_substep_s &&
          *b.platform == *platform) {
        b.members.push_back(i);
        placed = true;
        break;
      }
    }
    if (!placed) {
      buckets.push_back({platform, config.control_interval_s,
                         config.plant_substep_s, LockstepGroup{i}});
    }
  }

  // SoA rows narrower than this stop paying for the lockstep machinery, so
  // sharding never cuts a bucket into tiles smaller than it.
  constexpr std::size_t kMinShardLanes = 4;

  std::vector<LockstepGroup> groups;
  for (Bucket& b : buckets) {
    const std::size_t count = b.members.size();
    if (count < 2) {
      singles.insert(singles.end(), b.members.begin(), b.members.end());
      continue;
    }
    // One balanced contiguous tile per worker (as far as the minimum tile
    // width allows); the lane cap forces further splits regardless.
    std::size_t shards = std::max<std::size_t>(
        1, std::min<std::size_t>(worker_count, count / kMinShardLanes));
    shards = std::max(shards,
                      (count + kMaxLanesPerGroup - 1) / kMaxLanesPerGroup);
    const std::size_t base = count / shards;
    const std::size_t rem = count % shards;
    std::size_t off = 0;
    for (std::size_t s = 0; s < shards; ++s) {
      const std::size_t len = base + (s < rem ? 1 : 0);
      if (len == 1) {
        singles.push_back(b.members[off]);  // a tile of one gains nothing
      } else {
        groups.emplace_back(b.members.begin() + std::ptrdiff_t(off),
                            b.members.begin() + std::ptrdiff_t(off + len));
      }
      off += len;
    }
  }
  return groups;
}

void run_lockstep_group(const std::vector<BatchJob>& jobs,
                        const LockstepGroup& members, const RunPlan& plan,
                        std::vector<RunResult>& results,
                        std::vector<std::exception_ptr>& errors) {
  struct Lane {
    std::size_t slot = 0;
    std::unique_ptr<Simulation> sim;
    bool finished = false;
  };
  std::vector<Lane> lanes;
  lanes.reserve(members.size());
  for (std::size_t slot : members) {
    try {
      const sysid::IdentifiedPlatformModel* model =
          jobs[slot].model != nullptr ? jobs[slot].model
                                      : plan.model_for(jobs[slot].config);
      Lane lane;
      lane.slot = slot;
      lane.sim = std::make_unique<Simulation>(jobs[slot].config, model,
                                              nullptr, &plan);
      lanes.push_back(std::move(lane));
    } catch (...) {
      errors[slot] = std::current_exception();
    }
  }

  BatchPlantStepper stepper;
  std::vector<Simulation*> wave;
  try {
    for (;;) {
      // Batched sensor pass: draw every in-flight lane's whole-interval
      // noise in one sweep and stage it, so the begin_step() reads below
      // are pure arithmetic. A lane whose run turns out to be done never
      // consumes its staged block -- harmless, nothing reads its sensors
      // again.
      wave.clear();
      for (Lane& lane : lanes) {
        if (!lane.finished) wave.push_back(lane.sim.get());
      }
      if (wave.empty()) break;
      stepper.stage_wave_noise(wave);

      wave.clear();
      for (Lane& lane : lanes) {
        if (lane.finished) continue;
        bool running = false;
        try {
          running = lane.sim->begin_step();
        } catch (...) {
          errors[lane.slot] = std::current_exception();
          lane.finished = true;
          continue;
        }
        if (running) {
          wave.push_back(lane.sim.get());
        } else {
          results[lane.slot] = lane.sim->finish();
          lane.finished = true;
        }
      }
      if (wave.empty()) break;
      stepper.run_interval(wave);
    }
  } catch (...) {
    // A failure inside the shared kernel has no single owning lane; every
    // lane still in flight reports it rather than silently returning a
    // default-constructed result.
    for (Lane& lane : lanes) {
      if (!lane.finished) {
        errors[lane.slot] = std::current_exception();
        lane.finished = true;
      }
    }
  }
}

}  // namespace dtpm::sim
