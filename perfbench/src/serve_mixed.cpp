// serve-mixed: a spawned `dtpm serve` on stdin/stdout, driven by a closed
// loop that keeps three jobs in flight on one connection. 95% of jobs are
// single smoke-capped `run` jobs (Table-6.4 benchmark x paper policy x
// platform x seed, a few ms each); every 20th is a 256-device smoke fleet
// that holds an executor for ~130 ms. Set-up ends when one dtpm run per
// platform has returned, which forces calibration inside the server.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <set>

#include "bench.hpp"
#include "host.hpp"
#include "ndjson.hpp"
#include "serve/fleet_io.hpp"
#include "serve/protocol.hpp"
#include "sim/config_io.hpp"
#include "sim/engine.hpp"
#include "stats.hpp"
#include "util/diagnostics.hpp"
#include "util/rng.hpp"
#include "workload/suite.hpp"

namespace perfbench {

namespace serve = dtpm::serve;
namespace sim = dtpm::sim;
namespace util = dtpm::util;

namespace {

/// Jobs in flight, and server executors. Three of four vCPUs: with four,
/// the executors, the server's request thread and this client
/// oversubscribed the host and run-job latency swung with it.
constexpr unsigned kInFlight = 3;
constexpr std::size_t kSequence = 1000;  ///< job templates, cycled
/// Every kFleetStride-th job is a fleet job. A fixed stride, not a random
/// draw: fleet devices dominate runs_per_s, so a seed-dependent fleet share
/// would move it from seed to seed.
constexpr std::size_t kFleetStride = 20;
constexpr std::size_t kFleetSpecs = 4;
constexpr std::uint64_t kFleetDevices = 256;
/// Run templates whose every result is checked against run_experiment.
constexpr std::size_t kCheckedRuns = 48;
constexpr int kReplyTimeoutMs = 120000;
/// Jobs in a fixed-size (traced) session.
constexpr std::size_t kTracedJobs = 1000;
constexpr std::size_t kSecondaryJobs = 400;
constexpr std::size_t kParsedLines = 200;

struct JobMix {
  std::vector<std::string> runs;    ///< serialized "run" payloads
  std::vector<std::string> fleets;  ///< serialized "fleet" payloads
  /// (is fleet, payload index) per position; sessions cycle through it.
  std::vector<std::pair<bool, std::size_t>> sequence;

  std::string submit_line(std::size_t position, const std::string& id) const {
    const auto& [fleet, index] = sequence[position % sequence.size()];
    return "{\"op\":\"submit\",\"job\":\"" + id + "\",\"smoke\":true,\"" +
           (fleet ? "fleet\":" + fleets[index] : "run\":" + runs[index]) + "}";
  }
};

JobMix make_job_mix(std::uint64_t seed) {
  JobMix mix;
  util::Rng rng(seed);
  std::vector<std::string> benchmarks;
  for (const auto& b : dtpm::workload::standard_suite()) benchmarks.push_back(b.name);
  const std::vector<std::string> platforms = platform_names();
  const std::vector<std::string>& policies = paper_policies();
  auto pick = [&rng](const std::vector<std::string>& from) -> const std::string& {
    return from[std::size_t(rng.engine()() % from.size())];
  };
  const util::JsonValue fleet_doc = fleet_smoke_document();
  for (std::size_t f = 0; f < kFleetSpecs; ++f) {
    util::JsonValue doc = fleet_doc;
    doc.set("device_count", kFleetDevices);
    doc.set("wave_size", kFleetDevices / 4);
    doc.set("seed", seed * kFleetSpecs + f);
    mix.fleets.push_back(util::json_write(doc, 0));
  }
  for (std::size_t i = 0; i < kSequence; ++i) {
    if (i % kFleetStride == kFleetStride - 1) {
      mix.sequence.emplace_back(true, (i / kFleetStride) % kFleetSpecs);
      continue;
    }
    util::JsonValue run((util::JsonObject()));
    run.set("benchmark", pick(benchmarks));
    run.set("policy", pick(policies));
    run.set("platform", pick(platforms));
    run.set("seed", 1 + rng.engine()() % 4);
    mix.sequence.emplace_back(false, mix.runs.size());
    mix.runs.push_back(util::json_write(run, 0));
  }
  return mix;
}

sim::ExperimentConfig run_config(const std::string& payload) {
  sim::ExperimentConfig config = sim::experiment_from_json(util::json_parse(payload));
  sim::apply_smoke_caps(config);
  config.record_trace = false;
  return config;
}

serve::FleetSpec fleet_spec(const std::string& payload) {
  serve::FleetSpec spec = serve::fleet_from_json(util::json_parse(payload));
  serve::apply_smoke_caps(spec);
  return spec;
}

/// What one session saw, client side.
struct Session {
  std::vector<double> run_latency_ms;  ///< submit -> result, run jobs
  std::vector<double> ack_ms;          ///< submit -> ack, every job
  std::uint64_t jobs = 0;
  std::uint64_t failed = 0;
  std::uint64_t runs_done = 0;     ///< run jobs completed inside the window
  std::uint64_t devices_done = 0;  ///< fleet devices completed inside it
  double window_s = 0.0;
  /// Checked run template -> (summary without wall time, result - ack ms).
  std::map<std::size_t, std::vector<std::pair<std::string, double>>> runs;
  /// Fleet template -> aggregate JSON of every completed job.
  std::map<std::size_t, std::vector<std::string>> fleets;
};

class ServeHarness {
 public:
  /// Spawns the server and waits for one dtpm run per platform; returns
  /// the seconds that took.
  double start() {
    const std::int64_t begin = now_ns();
    const std::string executors =
        std::to_string(std::min(kInFlight, load_width()));
    child_ = std::make_unique<ChildProcess>(
        PERFBENCH_DTPM_BIN,
        std::vector<std::string>{"serve", "--executors", executors, "-j", "1",
                                 "--queue", "8", "--quiet"});
    ReplyMatcher matcher;
    for (const std::string& platform : platform_names()) {
      const std::string id = "setup-" + platform;
      matcher.submitted(id);
      child_->send("{\"op\":\"submit\",\"job\":\"" + id +
                   "\",\"smoke\":true,\"run\":{\"benchmark\":\"basicmath\","
                   "\"policy\":\"dtpm\",\"platform\":\"" + platform + "\"}}");
    }
    std::string line;
    while (matcher.outstanding() > 0) {
      if (!child_->read_line(line, kReplyTimeoutMs)) {
        throw std::runtime_error("serve set-up: server stopped replying");
      }
      const ReplyEvent event = matcher.on_line(line);
      if (event.kind == ReplyEvent::Kind::kError ||
          event.kind == ReplyEvent::Kind::kUnmatched ||
          (event.kind == ReplyEvent::Kind::kResult &&
           event.reply.find("state")->as_string() != "done")) {
        throw std::runtime_error("serve set-up failed: " + line);
      }
    }
    return double(now_ns() - begin) / 1e9;
  }

  pid_t pid() const { return child_->pid(); }

  /// Closed loop: keeps kInFlight jobs running until `max_jobs` were
  /// submitted or `deadline_ns` passed, then drains. A job's slot frees on
  /// its result; its record lives until its ack has arrived too.
  Session drive(const JobMix& mix, const std::string& prefix,
                std::int64_t deadline_ns, std::size_t max_jobs,
                Tracer& tracer) {
    struct Flight {
      std::size_t position = 0;
      std::int64_t submit_ns = 0;
      std::int64_t ack_ns = 0;
      std::int64_t result_ns = 0;
      std::uint32_t slot = 0;
      std::string checked_summary;  ///< set for a checked run's result
    };
    Session session;
    ReplyMatcher matcher;
    std::map<std::string, Flight> flights;
    std::array<bool, kInFlight> busy{};
    const std::int64_t begin = now_ns();
    std::int64_t last = begin;
    std::size_t submitted = 0;
    std::string line;

    // Both halves seen: ack-relative figures can be computed.
    auto retire = [&](const std::string& id) {
      const Flight& f = flights.at(id);
      session.ack_ms.push_back(double(f.ack_ns - f.submit_ns) / 1e6);
      tracer.record("serve.ack", f.submit_ns, f.ack_ns, f.slot + 1);
      if (!f.checked_summary.empty()) {
        const std::size_t index =
            mix.sequence[f.position % mix.sequence.size()].second;
        session.runs[index].emplace_back(f.checked_summary,
                                         double(f.result_ns - f.ack_ns) / 1e6);
      }
      flights.erase(id);
    };

    for (;;) {
      while (matcher.outstanding() < kInFlight && submitted < max_jobs &&
             now_ns() < deadline_ns) {
        const std::string id = prefix + std::to_string(submitted);
        Flight flight;
        flight.position = submitted;
        flight.slot = std::uint32_t(
            std::find(busy.begin(), busy.end(), false) - busy.begin());
        busy[flight.slot] = true;
        matcher.submitted(id);
        const std::string request = mix.submit_line(submitted, id);
        flight.submit_ns = now_ns();
        child_->send(request);
        flights.emplace(id, std::move(flight));
        ++submitted;
      }
      if (flights.empty()) break;
      if (!child_->read_line(line, kReplyTimeoutMs)) {
        session.failed += flights.size();
        break;
      }
      const std::int64_t t = now_ns();
      last = t;
      const ReplyEvent event = matcher.on_line(line);
      if (event.kind == ReplyEvent::Kind::kProgress) continue;
      if (event.kind == ReplyEvent::Kind::kAck) {
        flights.at(event.job).ack_ns = t;
        if (event.other_half_seen) retire(event.job);
        continue;
      }
      if ((event.kind != ReplyEvent::Kind::kResult &&
           event.kind != ReplyEvent::Kind::kError) ||
          event.job.empty()) {
        ++session.failed;  // a line no submitted job explains
        continue;
      }
      Flight& flight = flights.at(event.job);
      busy[flight.slot] = false;
      flight.result_ns = t;
      ++session.jobs;
      if (event.kind == ReplyEvent::Kind::kError) {
        ++session.failed;  // refused, or failed while running (S006)
        flights.erase(event.job);
        continue;
      }
      const auto& [is_fleet, index] =
          mix.sequence[flight.position % mix.sequence.size()];
      const util::JsonValue* state = event.reply.find("state");
      const util::JsonValue* devices = event.reply.find("devices");
      const util::JsonValue* aggregate = event.reply.find("aggregate");
      const util::JsonValue* run = event.reply.find("run");
      const bool ok =
          state != nullptr && state->as_string() == "done" &&
          (is_fleet ? devices != nullptr && aggregate != nullptr &&
                          devices->as_number() == double(kFleetDevices)
                    : run != nullptr);
      if (!ok) {
        ++session.failed;
      } else {
        tracer.record("serve.request", flight.submit_ns, t, flight.slot + 1);
        const bool in_window = t <= deadline_ns;
        if (is_fleet) {
          if (in_window) session.devices_done += kFleetDevices;
          session.fleets[index].push_back(util::json_write(*aggregate, 0));
        } else {
          if (in_window) ++session.runs_done;
          session.run_latency_ms.push_back(double(t - flight.submit_ns) / 1e6);
          if (index < kCheckedRuns) {
            flight.checked_summary = util::json_write(without_wall(*run), 0);
          }
        }
      }
      if (event.other_half_seen) retire(event.job);
    }
    session.window_s = double(std::min(last, deadline_ns) - begin) / 1e9;
    return session;
  }

  /// Drains the server, returns its "bye" telemetry, and reaps it.
  util::JsonValue shutdown() {
    child_->send("{\"op\":\"shutdown\"}");
    std::string line;
    util::JsonValue telemetry;
    ReplyMatcher matcher;
    while (child_->read_line(line, kReplyTimeoutMs)) {
      const ReplyEvent event = matcher.on_line(line);
      if (event.kind == ReplyEvent::Kind::kBye) {
        telemetry = *event.reply.find("telemetry");
        break;
      }
    }
    const int status = child_->finish(30000);
    child_.reset();
    if (telemetry.is_null() || status != 0) {
      throw std::runtime_error("dtpm serve did not shut down cleanly");
    }
    return telemetry;
  }

 private:
  std::unique_ptr<ChildProcess> child_;
};

/// What the in-process re-execution of a session's checked runs cost.
struct SessionCheck {
  std::map<std::size_t, double> exec_ms;  ///< per checked run template
  std::uint64_t plant_substeps = 0;       ///< over the checked run templates
  std::uint64_t control_steps = 0;
};

/// In-process execution of the session's checked jobs: every checked run
/// result must equal run_experiment, every fleet aggregate run_fleet's.
SessionCheck check_session(const JobMix& mix, const Session& session,
                           Tracer& tracer, Report& report) {
  SessionCheck out;
  for (const auto& [index, results] : session.runs) {
    const sim::ExperimentConfig config = run_config(mix.runs[index]);
    const auto* model = model_for(config);
    const std::int64_t start = now_ns();
    sim::RunResult result;
    {
      Tracer::Scope s(tracer, "serve.exec");
      result = sim::run_experiment(config, model);
    }
    out.exec_ms[index] = double(now_ns() - start) / 1e6;
    out.plant_substeps += result.plant_substeps;
    out.control_steps += result.control_steps;
    const std::string expected =
        util::json_write(without_wall(serve::run_summary_json(result)), 0);
    for (const auto& [summary, ms] : results) {
      report.check(summary == expected,
                   "served run differs from run_experiment: " + mix.runs[index]);
    }
  }
  serve::FleetRunOptions options;
  options.workers = 1;
  for (const auto& [index, aggregates] : session.fleets) {
    const std::string expected = util::json_write(
        serve::run_fleet(fleet_spec(mix.fleets[index]), options).aggregate.to_json(),
        0);
    for (const std::string& aggregate : aggregates) {
      report.check(aggregate == expected,
                   "served fleet aggregate differs from run_fleet", kFleetDevices);
    }
  }
  return out;
}

/// The serve-protocol layer metrics of one traced session.
void report_protocol_layers(const JobMix& mix, const Session& session,
                            const std::map<std::size_t, double>& exec_ms,
                            const util::JsonValue& telemetry, Tracer& tracer,
                            Report& report) {
  report.metric("serve.ack_ms_p50", percentile(session.ack_ms, 50), "ms");
  report.metric("serve.ack_ms_p99", percentile(session.ack_ms, 99), "ms");

  std::size_t parsed = 0;
  for (std::size_t i = 0; i < kParsedLines; ++i) {
    const std::string line = mix.submit_line(i, "p" + std::to_string(i));
    util::CollectingSink sink;
    Tracer::Scope s(tracer, "serve.parse");
    if (serve::parse_request(line, sink).has_value()) ++parsed;
  }
  report.check(parsed == kParsedLines, "the workload's own lines fail to parse", 0);
  report.metric("serve.parse_us",
                tracer.total_ns("serve.parse") / 1e3 / double(kParsedLines), "us");

  double exec_sum = 0.0;
  double wait_sum = 0.0;
  std::size_t jobs = 0;
  for (const auto& [index, results] : session.runs) {
    for (const auto& [summary, result_minus_ack_ms] : results) {
      exec_sum += exec_ms.at(index);
      wait_sum += result_minus_ack_ms - exec_ms.at(index);
      ++jobs;
    }
  }
  const double n = double(std::max<std::size_t>(jobs, 1));
  report.metric("serve.exec_ms", exec_sum / n, "ms");
  report.metric("serve.wait_ms", wait_sum / n, "ms");
  report.metric("serve.queue_high_water",
                telemetry.find("queue_high_water")->as_number(), "count");
  report.metric("serve.requests", telemetry.find("requests")->as_number(), "count");
}

/// Digest of the simulated statistics the session's checked jobs returned.
void note_digest(const Options& opts, const Session& session, Report& report) {
  std::uint64_t h = fnv1a("serve-mixed");
  for (const auto& [index, results] : session.runs) h = fnv1a(results.front().first, h);
  for (const auto& [index, aggregates] : session.fleets) h = fnv1a(aggregates.front(), h);
  report.note("digest serve-mixed seed " + std::to_string(opts.seed) + " " +
              hex64(h) + " (" + std::to_string(session.jobs) + " jobs)");
}

void check_session_counts(const Session& session, Report& report) {
  report.attempt(session.jobs);
  report.check(session.failed == 0, "serve jobs failed or replies went unmatched",
               session.failed);
}

}  // namespace

void secondary_serve_layers(std::uint64_t seed, Tracer& tracer, Report& report) {
  const JobMix mix = make_job_mix(seed);
  ServeHarness server;
  server.start();
  Tracer off(false);
  const Session session =
      server.drive(mix, "s", INT64_MAX, kSecondaryJobs, tracer);
  const util::JsonValue telemetry = server.shutdown();
  check_session_counts(session, report);
  const SessionCheck checked = check_session(mix, session, off, report);
  report_protocol_layers(mix, session, checked.exec_ms, telemetry, tracer, report);
}

Report run_serve_mixed(const Options& opts) {
  Report report;
  warm_host(kWarmSeconds, load_width());
  const JobMix mix = make_job_mix(opts.seed);
  Tracer off(false);

  if (!opts.trace) {
    ServeHarness server;
    bool running = false;
    const std::vector<double> setups = repeat_setup([&] {
      if (running) server.shutdown();
      running = true;
      return server.start();
    });
    // An untimed second of the same loop warms the executors' caches.
    const Session warm =
        server.drive(mix, "w", now_ns() + 1000000000, SIZE_MAX, off);
    const Session timed = server.drive(
        mix, "t", now_ns() + std::int64_t(opts.seconds * 1e9), SIZE_MAX, off);
    const double rss = peak_rss_mb(server.pid());
    server.shutdown();
    for (const Session* s : {&warm, &timed}) {
      check_session_counts(*s, report);
      check_session(mix, *s, off, report);
    }
    report.check(percentile_supported(timed.run_latency_ms.size(), 99),
                 "too few run results for a p99", 0);
    note_digest(opts, timed, report);
    report.metric("runs_per_s",
                  double(timed.runs_done + timed.devices_done) / timed.window_s,
                  "1/s");
    report.metric("result_p50_ms", percentile(timed.run_latency_ms, 50), "ms");
    report.metric("result_p99_ms", percentile(timed.run_latency_ms, 99), "ms");
    report.metric("setup_s", median(setups), "s");
    report.metric("peak_rss_mb", rss, "MiB");
    return report;
  }

  Tracer tracer(true);
  ServeHarness server;
  {
    Tracer::Scope s(tracer, "serve.setup");
    server.start();
  }
  const Session untraced = server.drive(mix, "u", INT64_MAX, kTracedJobs, off);
  const Session traced = server.drive(mix, "t", INT64_MAX, kTracedJobs, tracer);
  const util::JsonValue telemetry = server.shutdown();
  check_session_counts(untraced, report);
  check_session_counts(traced, report);
  note_digest(opts, traced, report);
  check_session(mix, untraced, off, report);
  const SessionCheck checked = check_session(mix, traced, tracer, report);

  // The fleet layers of the served fleets, from run_fleet rebuilt in-process
  // (fleet-smoke checks that rebuild against run_fleet byte for byte).
  FleetTrace fleets;
  fleets.fleets = 0;
  for (const auto& [index, aggregates] : traced.fleets) {
    const FleetTrace fleet = traced_fleet(fleet_spec(mix.fleets[index]), 1, tracer);
    report.attempt(fleet.devices);
    report.check(fleet.failed == 0, "rebuilt served fleet failed devices",
                 fleet.failed);
    fleets.aggregate_json = fleet.aggregate_json;
    fleets.plant_substeps += fleet.plant_substeps;
    fleets.control_steps += fleet.control_steps;
    fleets.devices += fleet.devices;
    fleets.fleets += 1;
    fleets.distinct_descriptors =
        std::max(fleets.distinct_descriptors, fleet.distinct_descriptors);
  }

  auto rate = [](const Session& s) {
    return double(s.runs_done + s.devices_done) / s.window_s;
  };
  report.metric("trace.overhead_runs_per_s", rate(traced) - rate(untraced), "1/s");
  report.metric("thermal.plant_substeps",
                double(checked.plant_substeps + fleets.plant_substeps), "count");
  report.metric("sim.control_steps",
                double(checked.control_steps + fleets.control_steps), "count");
  // The server does its registry work inside set-up; measured here in-process.
  report.metric("sim.registry_init_ms",
                time_setup([] { return 0.0; }).registry_ms, "ms");
  report_protocol_layers(mix, traced, checked.exec_ms, telemetry, tracer, report);
  report_fleet_layers(fleet_spec(mix.fleets.front()), fleets, tracer, report);

  std::vector<sim::ExperimentConfig> sample;
  for (std::size_t i = 0; i < 12 && i < mix.runs.size(); ++i) {
    sample.push_back(run_config(mix.runs[i]));
  }
  probe_layers(sample, tracer, report);
  write_trace(opts, tracer, report);
  return report;
}

}  // namespace perfbench
