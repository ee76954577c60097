#include "sim/platform_registry.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/analyzer.hpp"
#include "util/names.hpp"

namespace dtpm::sim {

namespace {

/// Frequency/voltage helper for OPP-table literals (frequencies in MHz).
power::Opp opp(double mhz, double volt) { return {mhz * 1e6, volt}; }

}  // namespace

PlatformDescriptor odroid_xu_e_platform() {
  // The default-constructed descriptor IS the Odroid.
  return PlatformDescriptor{};
}

PlatformDescriptor dragon_platform() {
  PlatformDescriptor d;
  d.name = "dragon";
  d.description =
      "Tegra-X1-like tablet: 4xA57 + 4xA53 on a shared die plate, big "
      "Maxwell-class GPU, fanless SKU (passive chassis)";

  // --- Floorplan: four A57 hotspots and the A53/GPU/mem blocks all bolted
  // onto one shared die plate (the X1's heat spreader), which dumps into a
  // large passive aluminium chassis. No fan-modulated edge anywhere.
  thermal::FloorplanSpec& fp = d.floorplan;
  fp = thermal::FloorplanSpec{};
  auto node = [&fp](const char* name, double cap, double t0,
                    bool boundary = false) {
    fp.nodes.push_back({name, cap, t0, boundary});
  };
  // A tablet idles cooler than the dev board: bigger chassis, no always-on
  // heavy background load.
  node("a57_0", 0.10, 38.0);
  node("a57_1", 0.10, 38.0);
  node("a57_2", 0.10, 38.0);
  node("a57_3", 0.10, 38.0);
  node("a53", 0.12, 38.0);
  node("gpu", 0.45, 38.0);
  node("mem", 0.30, 38.0);
  node("plate", 1.8, 36.0);
  node("chassis", 40.0, 32.0);
  node("ambient", 1.0, 25.0, /*boundary=*/true);

  auto link = [&fp](const char* a, const char* b, double g) {
    fp.edges.push_back({a, b, g, false});
  };
  // A57 2x2 grid.
  link("a57_0", "a57_1", 0.9);
  link("a57_2", "a57_3", 0.9);
  link("a57_0", "a57_2", 0.9);
  link("a57_1", "a57_3", 0.9);
  link("a57_0", "a57_3", 0.45);
  link("a57_1", "a57_2", 0.45);
  // Everything couples into the shared die plate -- the structural
  // difference from the Odroid's per-block case spreading: heat from any
  // block reaches every other block through one low-resistance plate.
  link("a57_0", "plate", 0.5);
  link("a57_1", "plate", 0.5);
  link("a57_2", "plate", 0.5);
  link("a57_3", "plate", 0.5);
  link("a53", "plate", 0.3);
  link("gpu", "plate", 0.8);
  link("mem", "plate", 0.35);
  // Lateral die coupling.
  link("gpu", "a57_2", 0.08);
  link("gpu", "a57_3", 0.08);
  link("gpu", "mem", 0.06);
  link("a53", "a57_0", 0.05);
  // Passive chassis path; convection is fixed (fanless tablet SKU).
  link("plate", "chassis", 0.45);
  link("chassis", "ambient", 0.55);

  fp.core_nodes = {"a57_0", "a57_1", "a57_2", "a57_3"};
  fp.little_node = "a53";
  fp.gpu_node = "gpu";
  fp.mem_node = "mem";
  fp.sensor_nodes = fp.core_nodes;

  // --- DVFS domains (X1-shaped: A57 to 1.9 GHz, Maxwell GPU to ~1 GHz).
  d.big_opps = {opp(800, 0.82),  opp(1000, 0.87), opp(1200, 0.93),
                opp(1400, 1.00), opp(1600, 1.08), opp(1800, 1.17),
                opp(1900, 1.23)};
  d.little_opps = {opp(500, 0.80), opp(700, 0.85), opp(900, 0.92),
                   opp(1100, 1.00), opp(1300, 1.09)};
  d.gpu_opps = {opp(153.6, 0.80), opp(307.2, 0.85), opp(460.8, 0.91),
                opp(614.4, 0.98), opp(768.0, 1.05), opp(921.6, 1.12),
                opp(998.4, 1.15)};

  // --- Power physics: 20 nm A57s switch more capacitance than the 28 nm
  // A15s, and the 256-core Maxwell GPU dominates the die.
  d.power.big_leakage = {4.5e-3, -2610.0, 0.006, 1.23, 1.5};
  d.power.little_leakage = {1.2e-3, -2640.0, 0.002, 1.09, 1.5};
  d.power.gpu_leakage = {3.2e-3, -2590.0, 0.005, 1.15, 1.5};
  d.power.mem_leakage = {0.6e-3, -2700.0, 0.004, 1.10, 1.0};
  d.power.big_core_alpha_c_max = 0.30e-9;
  d.power.little_core_alpha_c_max = 0.05e-9;
  d.power.gpu_alpha_c_max = 2.4e-9;
  d.power.big_uncore_alpha_c = 0.90e-9;
  d.power.little_uncore_alpha_c = 0.12e-9;
  d.power.mem_bandwidth_cap = 1.6;  // LPDDR4 headroom
  d.power.mem_dynamic_max_w = 0.9;
  d.power.mem_base_w = 0.10;
  d.power.mem_gpu_traffic_weight = 0.45;
  d.power.mem_nominal_voltage_v = 1.1;
  d.power.mem_nominal_frequency_hz = 1600e6;

  d.perf.big_ipc_scale = 1.15;  // A57 out-of-order width over the A15
  d.perf.little_ipc_scale = 0.50;
  d.perf.cluster_switch_stall_s = 0.04;

  // Fanless: every "speed" is the same passive path and draws nothing.
  d.fan = thermal::passive_cooling(0.55);

  d.temp_sensor = {0.5, 0.15};  // soctherm-class sensors
  d.power_sensor = {0.01, 0.001};
  d.platform_load = {1.0, 2.6};  // 10" tablet panel dominates

  // Die-limited rather than skin-limited: the thick chassis buys headroom.
  d.default_t_max_c = 70.0;
  // Derived abort ceiling (t_max + margin = 100 C): the fanless SKU has no
  // reason to inherit the Odroid's 115 C junction ceiling.
  d.runaway_abort_temp_c = 0.0;
  return d;
}

PlatformDescriptor compact_platform() {
  PlatformDescriptor d;
  d.name = "compact";
  d.description =
      "Fanless phone-class SoC: 4+4 low-power clusters behind a midframe "
      "and back-glass skin with tight skin-temperature headroom";

  thermal::FloorplanSpec& fp = d.floorplan;
  fp = thermal::FloorplanSpec{};
  auto node = [&fp](const char* name, double cap, double t0,
                    bool boundary = false) {
    fp.nodes.push_back({name, cap, t0, boundary});
  };
  node("cpu0", 0.05, 40.0);
  node("cpu1", 0.05, 40.0);
  node("cpu2", 0.05, 40.0);
  node("cpu3", 0.05, 40.0);
  node("little", 0.10, 40.0);
  node("gpu", 0.12, 40.0);
  node("mem", 0.18, 40.0);
  node("frame", 0.9, 38.0);   // magnesium midframe
  node("skin", 25.0, 34.0);   // back glass + battery mass
  node("ambient", 1.0, 25.0, /*boundary=*/true);

  auto link = [&fp](const char* a, const char* b, double g) {
    fp.edges.push_back({a, b, g, false});
  };
  link("cpu0", "cpu1", 0.7);
  link("cpu2", "cpu3", 0.7);
  link("cpu0", "cpu2", 0.7);
  link("cpu1", "cpu3", 0.7);
  link("cpu0", "cpu3", 0.35);
  link("cpu1", "cpu2", 0.35);
  link("cpu0", "frame", 0.30);
  link("cpu1", "frame", 0.30);
  link("cpu2", "frame", 0.30);
  link("cpu3", "frame", 0.30);
  link("little", "frame", 0.22);
  link("gpu", "frame", 0.25);
  link("mem", "frame", 0.25);
  link("cpu0", "little", 0.04);
  link("cpu1", "little", 0.04);
  link("cpu2", "little", 0.04);
  link("cpu3", "little", 0.04);
  link("gpu", "cpu2", 0.05);
  link("gpu", "cpu3", 0.05);
  link("gpu", "mem", 0.04);
  link("little", "gpu", 0.03);
  // The only exit is through the skin; a phone has no fan and little
  // radiating area, which is exactly the tight headroom this platform models.
  link("frame", "skin", 0.16);
  link("skin", "ambient", 0.095);

  fp.core_nodes = {"cpu0", "cpu1", "cpu2", "cpu3"};
  fp.little_node = "little";
  fp.gpu_node = "gpu";
  fp.mem_node = "mem";
  fp.sensor_nodes = fp.core_nodes;

  d.big_opps = {opp(600, 0.75), opp(800, 0.82), opp(1000, 0.90),
                opp(1200, 1.00), opp(1400, 1.10)};
  d.little_opps = {opp(400, 0.72), opp(600, 0.78), opp(800, 0.86),
                   opp(950, 0.93), opp(1100, 1.00)};
  d.gpu_opps = {opp(160, 0.75), opp(250, 0.82), opp(350, 0.90),
                opp(450, 0.98), opp(510, 1.03)};

  // Low-power silicon: smaller cores, smaller caches, mobile GPU.
  d.power.big_leakage = {2.5e-3, -2660.0, 0.003, 1.10, 1.5};
  d.power.little_leakage = {0.8e-3, -2680.0, 0.0015, 1.00, 1.5};
  d.power.gpu_leakage = {1.4e-3, -2630.0, 0.002, 1.03, 1.5};
  d.power.mem_leakage = {0.4e-3, -2720.0, 0.003, 1.10, 1.0};
  d.power.big_core_alpha_c_max = 0.15e-9;
  d.power.little_core_alpha_c_max = 0.045e-9;
  d.power.gpu_alpha_c_max = 0.9e-9;
  d.power.big_uncore_alpha_c = 0.50e-9;
  d.power.little_uncore_alpha_c = 0.10e-9;
  d.power.mem_bandwidth_cap = 0.8;
  d.power.mem_dynamic_max_w = 0.5;
  d.power.mem_base_w = 0.06;
  d.power.mem_nominal_voltage_v = 1.1;
  d.power.mem_nominal_frequency_hz = 1200e6;

  d.perf.big_ipc_scale = 0.90;
  d.perf.little_ipc_scale = 0.45;
  d.perf.cluster_switch_stall_s = 0.03;

  d.fan = thermal::passive_cooling(0.095);

  d.temp_sensor = {0.5, 0.20};
  d.power_sensor = {0.01, 0.001};
  d.platform_load = {0.6, 1.1};  // small panel, lean rails

  // Skin-limited: the constraint protects the hand, not the junction.
  d.default_t_max_c = 58.0;
  // Derived abort ceiling (t_max + margin = 88 C): a phone that blows 30 C
  // past its skin limit has already run away; aborting there instead of at
  // the Odroid's 115 C junction ceiling is the point of the
  // platform-relative threshold.
  d.runaway_abort_temp_c = 0.0;
  return d;
}

PlatformRegistry& PlatformRegistry::instance() {
  // Leaked singleton: must outlive every static PlatformRegistration in
  // other TUs, whatever the destruction order.
  static PlatformRegistry* registry = [] {
    auto* r = new PlatformRegistry;
    r->add(odroid_xu_e_platform());
    r->add(dragon_platform());
    r->add(compact_platform());
    return r;
  }();
  return *registry;
}

void PlatformRegistry::add(PlatformDescriptor descriptor) {
  descriptor.validate();
  // Beyond structural validation: the plant must have a stable coupled
  // leakage-temperature equilibrium at its gentlest operating point, or
  // every simulation (and the calibration furnace) on it would run away.
  // Inline descriptors in experiment configs deliberately skip this -- a
  // runaway-unstable platform is constructible for tests, just not
  // registrable by name.
  analysis::validate_platform_stability(descriptor);
  std::lock_guard<std::mutex> lock(mutex_);
  const std::string name = descriptor.name;
  const bool inserted =
      entries_
          .emplace(name, std::make_shared<const PlatformDescriptor>(
                             std::move(descriptor)))
          .second;
  if (!inserted) {
    throw std::invalid_argument("PlatformRegistry: duplicate platform '" +
                                name + "'");
  }
}

bool PlatformRegistry::remove(const std::string& name) {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.erase(name) != 0;
}

bool PlatformRegistry::contains(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return entries_.count(name) != 0;
}

std::vector<std::string> PlatformRegistry::names() const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<std::string> out;
  out.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) out.push_back(name);
  return out;  // std::map iterates sorted
}

std::string PlatformRegistry::description(const std::string& name) const {
  return get(name)->description;
}

const PlatformPtr& default_platform() {
  static const PlatformPtr odroid =
      PlatformRegistry::instance().get("odroid-xu-e");
  return odroid;
}

PlatformPtr PlatformRegistry::get(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = entries_.find(name);
  if (it == entries_.end()) {
    std::vector<std::string> valid;
    valid.reserve(entries_.size());
    for (const auto& [key, entry] : entries_) valid.push_back(key);
    throw std::invalid_argument(
        "PlatformRegistry: " +
        util::unknown_name_message("platform", name, std::move(valid)));
  }
  return it->second;
}

PlatformRegistration::PlatformRegistration(PlatformDescriptor descriptor) {
  PlatformRegistry::instance().add(std::move(descriptor));
}

}  // namespace dtpm::sim
