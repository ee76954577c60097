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
  // heat_nodes() needs exactly kBigCoreCount core nodes; a descriptor that
  // bypassed validate() (built by hand and stuffed straight into
  // ExperimentConfig::platform) must fail here with the platform's name --
  // whichever path built the floorplan.
  if (floorplan_.core_node_index.size() != std::size_t(soc::kBigCoreCount)) {
    throw std::invalid_argument(
        "Plant: platform '" + platform.name + "' must declare exactly " +
        std::to_string(soc::kBigCoreCount) + " core nodes");
  }
  heat_nodes_ = floorplan_.heat_nodes();
  node_power_.assign(floorplan_.network.node_count(), 0.0);
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

PlantIntervalResult Plant::advance(
    const workload::Demand& demand,
    const std::vector<workload::ThreadDemand>& background_threads,
    workload::WorkloadInstance* instance, int substeps, double sub_dt,
    util::PhaseCycles* phases) {
  std::uint64_t mark = phases != nullptr ? util::cycle_now() : 0;
  // The workload schedule (placement, contention, activity) is a pure
  // function of the demand and the applied config, both held fixed across
  // this interval's substeps.
  soc_.solve_schedule(demand, background_threads);
  if (phases != nullptr) {
    const std::uint64_t now = util::cycle_now();
    phases->add(util::Phase::kSchedule, now - mark);
    mark = now;
  }

  PlantIntervalResult result;
  power::ResourceVector rails_accum{};
  soc::SocStepResult& out = result.last_substep;
  thermal::RcNetwork& network = floorplan_.network;
  const std::vector<double>& temps = network.temperatures_c();
  const auto at = [&](std::size_t i) { return temps[heat_nodes_[i]]; };
  // The propagator's [Phi | Gamma] entry: the conductances stay fixed
  // for the whole interval.
  const thermal::PropagatorMatrices* resolved =
      propagator_ != nullptr ? &propagator_->matrices_for(network, sub_dt)
                             : nullptr;
  for (int s = 0; s < substeps; ++s) {
    soc_.step_captured({at(0), at(1), at(2), at(3)}, at(4), at(5), at(6),
                       sub_dt, out);
    thermal::Floorplan::write_heat(heat_nodes_, out.big_core_power_w,
                                   out.rail_power_w, node_power_);
    if (resolved != nullptr) {
      propagator_->step_resolved(*resolved, network, node_power_);
    } else {
      network.step(sub_dt, node_power_);
    }

    for (std::size_t r = 0; r < power::kResourceCount; ++r) {
      rails_accum[r] += out.rail_power_w[r] * sub_dt;
    }
    result.consumed_s += sub_dt;
    ++result.substeps_taken;
    if (instance != nullptr) {
      instance->advance(out.progress_units);
      if (instance->done()) {
        result.benchmark_finished = true;
        break;
      }
    }
  }
  for (std::size_t r = 0; r < power::kResourceCount; ++r) {
    result.rails_avg_w[r] = rails_accum[r] / result.consumed_s;
  }
  if (phases != nullptr) {
    phases->add(util::Phase::kPlant, util::cycle_now() - mark);
  }
  return result;
}

}  // namespace dtpm::sim
