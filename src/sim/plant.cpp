#include "sim/plant.hpp"

#include <algorithm>
#include <stdexcept>

namespace dtpm::sim {

Plant::Plant(const PlatformDescriptor& platform, util::Rng& root,
             const PlantTemplate* plant_template, Engine engine)
    : floorplan_(plant_template != nullptr
                     ? plant_template->floorplan
                     : thermal::build_floorplan(platform.floorplan)),
      fan_(platform.fan),
      soc_(platform.power, platform.perf, platform.big_opp_table(),
           platform.little_opp_table(), platform.gpu_opp_table()),
      temp_bank_(floorplan_.sensor_node_index, platform.temp_sensor,
                 root.fork()),
      power_bank_(platform.power_sensor, root.fork()),
      meter_(platform.platform_load, root.fork()),
      engine_(engine),
      propagator_(engine == Engine::kReferenceRk4
                      ? nullptr
                      : std::make_unique<thermal::PropagatorRcModel>(
                            plant_template != nullptr
                                ? plant_template->propagators
                                : nullptr)) {
  // advance() indexes core_node_index[0..kBigCoreCount-1] unconditionally;
  // a descriptor that bypassed validate() (built by hand and stuffed
  // straight into ExperimentConfig::platform) must fail here -- whichever
  // path built the floorplan -- not read out of bounds.
  if (floorplan_.core_node_index.size() != std::size_t(soc::kBigCoreCount)) {
    throw std::invalid_argument(
        "Plant: platform '" + platform.name + "' must declare exactly " +
        std::to_string(soc::kBigCoreCount) + " core nodes");
  }
  if (propagator_ != nullptr) {
    // The node -> source map of assemble_node_power_into, where a later
    // role overwrites an earlier one on a shared node.
    std::vector<std::size_t> source_of_node(floorplan_.network.node_count(),
                                            kNoPowerSource);
    for (std::size_t c = 0; c < floorplan_.core_node_index.size(); ++c) {
      source_of_node[floorplan_.core_node_index[c]] = c;
    }
    source_of_node[floorplan_.little_node_index] = soc::kBigCoreCount;
    source_of_node[floorplan_.gpu_node_index] = soc::kBigCoreCount + 1;
    source_of_node[floorplan_.mem_node_index] = soc::kBigCoreCount + 2;
    const std::vector<std::size_t>& free_nodes =
        floorplan_.network.compiled().free_nodes();
    power_source_.resize(free_nodes.size());
    for (std::size_t i = 0; i < free_nodes.size(); ++i) {
      power_source_[i] = source_of_node[free_nodes[i]];
    }
    propagator_input_.resize(2 * free_nodes.size());
  }
  // Warm-start at the low end; ondemand ramps up from here.
  soc::SocConfig initial;
  initial.active_cluster = soc::ClusterId::kBig;
  initial.big_freq_hz = soc_.big_opps().min().frequency_hz;
  initial.little_freq_hz = soc_.little_opps().min().frequency_hz;
  initial.gpu_freq_hz = soc_.gpu_opps().min().frequency_hz;
  soc_.apply(initial);
}

void Plant::read_temps_into(std::vector<double>& readings_out) {
  temp_bank_.read_into(floorplan_.network.temperatures_c(), readings_out);
}

power::ResourceVector Plant::read_rails(
    const power::ResourceVector& true_avg_w) {
  return power_bank_.read(true_avg_w);
}

double Plant::read_platform_power(const power::ResourceVector& true_avg_w,
                                  double fan_power_w) {
  return meter_.read(true_avg_w, fan_power_w);
}

void Plant::set_fan(thermal::FanSpeed speed) {
  if (!floorplan_.has_fan_edge()) return;  // fanless platform: a no-op
  floorplan_.network.set_edge_conductance(floorplan_.fan_edge,
                                          fan_.conductance_w_per_k(speed));
}

double Plant::max_true_temp_c() const {
  const auto& temps = floorplan_.network.temperatures_c();
  return *std::max_element(temps.begin(), temps.end());
}

void Plant::interval_begin() {
  pending_ = PlantIntervalResult{};
  rails_accum_ = power::ResourceVector{};
}

void Plant::substep_prepare(
    const workload::Demand& demand,
    const std::vector<workload::ThreadDemand>& background_threads,
    double sub_dt, bool reuse_schedule) {
  const auto& cores = floorplan_.core_node_index;
  const auto& temps = floorplan_.network.temperatures_c();
  const std::array<double, soc::kBigCoreCount> big_true{
      temps[cores[0]], temps[cores[1]], temps[cores[2]], temps[cores[3]]};
  // The workload schedule (placement, contention, activity) is a pure
  // function of the demand and the applied config, both held fixed across
  // this interval's substeps -- only the first substep recomputes it.
  pending_.last_substep = soc_.step(
      demand, background_threads, big_true,
      temps[floorplan_.little_node_index], temps[floorplan_.gpu_node_index],
      temps[floorplan_.mem_node_index], sub_dt, reuse_schedule);

  floorplan_.assemble_node_power_into(pending_.last_substep.big_core_power_w,
                                      pending_.last_substep.rail_power_w,
                                      node_power_scratch_);
}

void Plant::thermal_substep(double sub_dt) {
  if (propagator_ != nullptr) {
    propagator_->step(floorplan_.network, sub_dt, node_power_scratch_);
  } else {
    floorplan_.network.step(sub_dt, node_power_scratch_);
  }
}

bool Plant::substep_commit(workload::WorkloadInstance* instance,
                           double sub_dt) {
  for (std::size_t r = 0; r < power::kResourceCount; ++r) {
    rails_accum_[r] += pending_.last_substep.rail_power_w[r] * sub_dt;
  }
  pending_.consumed_s += sub_dt;
  ++pending_.substeps_taken;
  if (instance != nullptr) {
    instance->advance(pending_.last_substep.progress_units);
    if (instance->done()) {
      pending_.benchmark_finished = true;
      return false;
    }
  }
  return true;
}

PlantIntervalResult Plant::interval_end() {
  for (std::size_t r = 0; r < power::kResourceCount; ++r) {
    pending_.rails_avg_w[r] = rails_accum_[r] / pending_.consumed_s;
  }
  return pending_;
}

void Plant::propagate_substeps(workload::WorkloadInstance* instance,
                               int count, double sub_dt) {
  if (count <= 0) return;
  // Substep 1 left this (dt, fan state) entry cached; the conductances stay
  // fixed for the rest of the interval.
  const thermal::PropagatorMatrices& m =
      propagator_->matrices_for(floorplan_.network, sub_dt);
  std::vector<double>& temps = floorplan_.network.temperatures_mut();
  const auto& cores = floorplan_.core_node_index;
  const std::size_t n = m.free_count;
  const std::size_t* free_nodes = m.free_nodes.data();
  const std::size_t* source_of_slot = power_source_.data();
  double* x = propagator_input_.data();
  soc::SocStepResult& out = pending_.last_substep;
  for (int s = 0; s < count; ++s) {
    soc_.step_captured(
        {temps[cores[0]], temps[cores[1]], temps[cores[2]], temps[cores[3]]},
        temps[floorplan_.little_node_index], temps[floorplan_.gpu_node_index],
        temps[floorplan_.mem_node_index], sub_dt, out);
    const std::array<double, kNoPowerSource + 1> source{
        out.big_core_power_w[0],
        out.big_core_power_w[1],
        out.big_core_power_w[2],
        out.big_core_power_w[3],
        out.rail_power_w[power::resource_index(
            power::Resource::kLittleCluster)],
        out.rail_power_w[power::resource_index(power::Resource::kGpu)],
        out.rail_power_w[power::resource_index(power::Resource::kMem)],
        0.0};
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = temps[free_nodes[i]];
      x[n + i] = source[source_of_slot[i]];
    }
    propagator_->step_resolved(m, x, temps);
    if (!substep_commit(instance, sub_dt)) return;
  }
}

PlantIntervalResult Plant::advance(
    const workload::Demand& demand,
    const std::vector<workload::ThreadDemand>& background_threads,
    workload::WorkloadInstance* instance, int substeps, double sub_dt,
    util::PhaseCycles* phases) {
  interval_begin();
  std::uint64_t mark = phases != nullptr ? util::cycle_now() : 0;
  if (substeps > 0) {
    substep_prepare(demand, background_threads, sub_dt,
                    /*reuse_schedule=*/false);
    if (phases != nullptr) {
      // The schedule solve happens once, inside the first prepare.
      const std::uint64_t now = util::cycle_now();
      phases->add(util::Phase::kSchedule, now - mark);
      mark = now;
    }
    thermal_substep(sub_dt);
    if (substep_commit(instance, sub_dt)) {
      if (propagator_ != nullptr) {
        propagate_substeps(instance, substeps - 1, sub_dt);
      } else {
        for (int s = 1; s < substeps; ++s) {
          substep_prepare(demand, background_threads, sub_dt,
                          /*reuse_schedule=*/true);
          thermal_substep(sub_dt);
          if (!substep_commit(instance, sub_dt)) break;
        }
      }
    }
  }
  PlantIntervalResult result = interval_end();
  if (phases != nullptr) {
    phases->add(util::Phase::kPlant, util::cycle_now() - mark);
  }
  return result;
}

}  // namespace dtpm::sim
