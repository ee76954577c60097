#include "serve/server.hpp"

#include <algorithm>
#include <chrono>
#include <exception>
#include <istream>
#include <ostream>
#include <stdexcept>
#include <utility>

#include <cerrno>
#include <cstring>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "sim/calibration.hpp"
#include "sim/engine.hpp"
#include "sim/run_plan.hpp"
#include "util/json.hpp"

namespace dtpm::serve {

namespace {

using util::JsonObject;
using util::JsonValue;

constexpr std::chrono::milliseconds kIdlePoll{50};

}  // namespace

Server::Server(ServeOptions options)
    : options_(options),
      queue_(options.queue_capacity) {
  const unsigned executors = std::max(1u, options_.executors);
  executors_.reserve(executors);
  for (unsigned i = 0; i < executors; ++i) {
    executors_.emplace_back([this] { executor_loop(); });
  }
}

Server::~Server() {
  request_stop();
  for (std::thread& t : executors_) t.join();
}

bool Server::stopping() {
  if (stop_.load(std::memory_order_relaxed)) return true;
  if (options_.stop_flag != nullptr &&
      options_.stop_flag->load(std::memory_order_relaxed)) {
    // Latch the external flag into the full stop path exactly once (the
    // handler only set an atomic; cancelling queued jobs and notifying
    // executors needs a normal thread context).
    request_stop();
    return true;
  }
  return false;
}

void Server::request_stop() {
  if (stop_.exchange(true, std::memory_order_relaxed)) return;
  queue_.request_stop();
  for (const JobPtr& job : queue_.drain()) {
    job->cancel_requested.store(true, std::memory_order_relaxed);
    finish_job(*job, JobState::kCancelled);
    emit([&] {
      JsonValue reply((JsonObject()));
      reply.set("reply", "result");
      reply.set("job", job->id);
      reply.set("state", to_string(JobState::kCancelled));
      return reply;
    }());
  }
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  for (const auto& [id, job] : jobs_) {
    (void)id;
    job->cancel_requested.store(true, std::memory_order_relaxed);
  }
}

// --- Executors ---------------------------------------------------------------

void Server::executor_loop() {
  // The per-thread warm cache: floorplan templates, propagator matrices and
  // calibrated models accumulate across every job this executor runs.
  // Single-threaded use by construction (each executor owns its plan;
  // BatchRunner workers inside a fleet only read it). Nothing is evicted:
  // the plan holds one template per distinct floorplan spec and, for every
  // distinct floorplan structure, up to five fan states' Phi/Gamma at every
  // distinct propagator substep dt -- all set by the specs clients submit.
  sim::RunPlan plan((sim::ExperimentConfig()));
  for (;;) {
    JobPtr job = queue_.pop();
    if (job == nullptr) return;
    execute(job, plan);
  }
}

void Server::execute(const JobPtr& job, sim::RunPlan& plan) {
  if (job->cancel_requested.load(std::memory_order_relaxed)) {
    // Emit before finish_job everywhere: finishing releases wait_idle, and
    // the session may emit its closing "bye" and detach the stream the
    // moment the last pending job is done -- the result line must already
    // be out by then.
    JsonValue reply((JsonObject()));
    reply.set("reply", "result");
    reply.set("job", job->id);
    reply.set("state", to_string(JobState::kCancelled));
    emit(reply);
    finish_job(*job, JobState::kCancelled);
    return;
  }
  job->state.store(JobState::kRunning, std::memory_order_release);
  try {
    if (job->kind == JobKind::kRun) {
      execute_run(*job, plan);
    } else {
      execute_fleet(*job, plan);
    }
  } catch (const std::exception& error) {
    {
      std::lock_guard<std::mutex> lock(job->mutex);
      job->error = error.what();
    }
    emit(make_error(kCodeJobFailed, error.what(), job->id));
    finish_job(*job, JobState::kFailed);
  }
}

void Server::execute_run(JobRecord& job, sim::RunPlan& plan) {
  sim::ExperimentConfig config = job.run;
  if (job.smoke || options_.smoke) sim::apply_smoke_caps(config);
  // The serve layer never ships traces -- results are one summary line, so
  // a burst of submitted runs cannot grow server memory.
  config.record_trace = false;

  plan.cache_config(config);
  const sysid::IdentifiedPlatformModel* model =
      sim::needs_identified_model(config) ? plan.cache_model_for(config)
                                          : nullptr;
  const sim::RunResult result = sim::run_experiment(config, model, &plan);

  JsonValue summary = run_summary_json(result);
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    job.outcome = summary;
  }
  telemetry_.runs_simulated.fetch_add(1, std::memory_order_relaxed);

  JsonValue reply((JsonObject()));
  reply.set("reply", "result");
  reply.set("job", job.id);
  reply.set("state", to_string(JobState::kDone));
  reply.set("run", std::move(summary));
  emit(reply);
  finish_job(job, JobState::kDone);
}

void Server::execute_fleet(JobRecord& job, sim::RunPlan& plan) {
  FleetSpec spec = job.fleet;
  if (job.smoke || options_.smoke) apply_smoke_caps(spec);
  job.devices_total.store(spec.device_count, std::memory_order_relaxed);

  FleetRunOptions options;
  options.workers = options_.fleet_workers;
  options.plan = &plan;
  options.should_stop = [this, &job] {
    return job.cancel_requested.load(std::memory_order_relaxed) ||
           stop_.load(std::memory_order_relaxed);
  };
  std::uint64_t folded = 0;
  std::uint64_t waves = 0;
  options.on_wave = [this, &job, &folded, &waves](const FleetProgress& p) {
    job.devices_done.store(p.done, std::memory_order_relaxed);
    telemetry_.devices_simulated.fetch_add(p.done - folded,
                                           std::memory_order_relaxed);
    folded = p.done;
    ++waves;
    const std::uint64_t every = options_.progress_every_waves;
    if (every == 0) return;
    if (waves % every != 0 && p.done != p.total) return;
    JsonValue reply((JsonObject()));
    reply.set("reply", "progress");
    reply.set("job", job.id);
    reply.set("done", p.done);
    reply.set("total", p.total);
    reply.set("aggregate", p.aggregate.to_json());
    emit(reply);
  };

  const FleetRunResult result = run_fleet(spec, options);
  JsonValue aggregate = result.aggregate.to_json();
  {
    std::lock_guard<std::mutex> lock(job.mutex);
    job.outcome = aggregate;
  }
  const JobState state =
      result.stopped_early ? JobState::kCancelled : JobState::kDone;

  JsonValue reply((JsonObject()));
  reply.set("reply", "result");
  reply.set("job", job.id);
  reply.set("state", to_string(state));
  reply.set("devices", result.devices_run);
  reply.set("aggregate", std::move(aggregate));
  emit(reply);
  finish_job(job, state);
}

void Server::finish_job(JobRecord& job, JobState state) {
  job.state.store(state, std::memory_order_release);
  switch (state) {
    case JobState::kDone:
      telemetry_.jobs_completed.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kFailed:
      telemetry_.jobs_failed.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kCancelled:
      telemetry_.jobs_cancelled.fetch_add(1, std::memory_order_relaxed);
      break;
    case JobState::kQueued:
    case JobState::kRunning:
      break;
  }
  {
    // Evict the oldest finished jobs beyond the history cap so the registry
    // stays bounded however long the server lives.
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    finished_order_.push_back(job.id);
    while (finished_order_.size() > options_.history_capacity) {
      jobs_.erase(finished_order_.front());
      finished_order_.pop_front();
    }
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  pending_cv_.notify_all();
}

void Server::wait_idle() {
  std::unique_lock<std::mutex> lock(pending_mutex_);
  while (pending_.load(std::memory_order_relaxed) != 0) {
    // Keep polling the external stop flag: a SIGINT during a shutdown drain
    // downgrades it to a curtailing stop.
    lock.unlock();
    const bool stop = stopping();
    lock.lock();
    if (stop && pending_.load(std::memory_order_relaxed) == 0) break;
    pending_cv_.wait_for(lock, kIdlePoll);
  }
}

// --- Request loop ------------------------------------------------------------

ServeStatus Server::serve(std::istream& in, std::ostream& out) {
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    out_ = &out;
  }
  ServeStatus status = ServeStatus::kEof;
  std::string line;
  int retries = 0;
  for (;;) {
    if (stopping()) {
      status = ServeStatus::kStopped;
      break;
    }
    if (!std::getline(in, line)) {
      if (stopping()) {
        status = ServeStatus::kStopped;
        break;
      }
      if (in.eof() || in.bad() || ++retries > 1000) {
        // True EOF: drain what was accepted so every reply reaches the
        // stream before the session ends.
        wait_idle();
        status = stopping() ? ServeStatus::kStopped : ServeStatus::kEof;
        break;
      }
      // failbit without EOF: an interrupted read (the CLI installs its
      // signal handlers without SA_RESTART precisely so a blocked stdin
      // read wakes up here). Clear and re-check the stop flag.
      in.clear();
      continue;
    }
    retries = 0;
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;
    if (line.rfind("//", line.find_first_not_of(" \t")) ==
        line.find_first_not_of(" \t")) {
      continue;  // comment line between requests (scripted sessions)
    }
    handle_line(line);
    if (draining_.load(std::memory_order_relaxed)) {
      wait_idle();
      JsonValue bye((JsonObject()));
      bye.set("reply", "bye");
      bye.set("telemetry", telemetry_.to_json());
      emit(bye);
      status = stopping() ? ServeStatus::kStopped : ServeStatus::kShutdown;
      break;
    }
  }
  {
    std::lock_guard<std::mutex> lock(out_mutex_);
    out_ = nullptr;
  }
  return status;
}

void Server::handle_line(const std::string& line) {
  telemetry_.requests.fetch_add(1, std::memory_order_relaxed);
  util::CollectingSink sink;
  std::optional<Request> request = parse_request(line, sink);
  if (!request.has_value()) {
    telemetry_.malformed.fetch_add(1, std::memory_order_relaxed);
    std::vector<util::Diagnostic> diagnostics = sink.take();
    // The reply-level code is the first protocol-level (S-code) error;
    // embedded config findings keep their own L-codes in the diagnostics
    // array under a generic S002 shape error.
    std::string code = kCodeShape;
    std::string message = "invalid request";
    for (const util::Diagnostic& d : diagnostics) {
      if (d.severity != util::Severity::kError) continue;
      if (!d.code.empty() && d.code[0] == 'S') {
        code = d.code;
        message = d.message;
      }
      break;
    }
    emit(make_error(code, message, "", diagnostics));
    return;
  }
  switch (request->op) {
    case Request::Op::kSubmit:
      handle_submit(std::move(*request), sink.take());
      return;
    case Request::Op::kStatus:
      handle_status(*request);
      return;
    case Request::Op::kCancel:
      handle_cancel(*request);
      return;
    case Request::Op::kShutdown:
      draining_.store(true, std::memory_order_relaxed);
      return;  // serve() drains and says bye
  }
}

void Server::handle_submit(Request&& request,
                           std::vector<util::Diagnostic> notes) {
  if (draining_.load(std::memory_order_relaxed) || stopping()) {
    emit(make_error(kCodeDraining, "server is draining, submit rejected",
                    request.job));
    return;
  }
  JobPtr job = std::make_shared<JobRecord>();
  job->id = request.job;
  job->smoke = request.smoke;
  if (request.run.has_value()) {
    job->kind = JobKind::kRun;
    job->run = std::move(*request.run);
  } else {
    job->kind = JobKind::kFleet;
    job->fleet = std::move(*request.fleet);
    job->devices_total.store(job->fleet.device_count,
                             std::memory_order_relaxed);
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    if (jobs_.count(job->id) == 0) jobs_.emplace(job->id, job);
    else job = nullptr;
  }
  if (job == nullptr) {
    emit(make_error(kCodeUnknownJob,
                    "job id '" + request.job + "' already exists",
                    request.job));
    return;
  }
  pending_.fetch_add(1, std::memory_order_relaxed);
  {
    // Push and ack under the reply lock: an idle executor may pop the job
    // the moment it is queued, and its result must not reach the stream
    // before the ack.
    std::lock_guard<std::mutex> lock(out_mutex_);
    if (queue_.try_push(job)) {
      telemetry_.jobs_submitted.fetch_add(1, std::memory_order_relaxed);
      telemetry_.observe_queue_depth(queue_.depth());
      JsonValue ack = make_ack(job->id, queue_.depth());
      if (!notes.empty()) ack.set("diagnostics", diagnostics_json(notes));
      write_reply(ack);
      return;
    }
  }
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    jobs_.erase(job->id);
  }
  {
    std::lock_guard<std::mutex> lock(pending_mutex_);
    pending_.fetch_sub(1, std::memory_order_relaxed);
  }
  pending_cv_.notify_all();
  emit(queue_.stopped()
           ? make_error(kCodeDraining, "server is stopping", job->id)
           : make_error(kCodeQueueFull,
                        "job queue is full (capacity " +
                            std::to_string(queue_.capacity()) +
                            "), retry after a result lands",
                        job->id));
}

void Server::handle_status(const Request& request) {
  if (request.job.empty()) {
    emit(server_status_json());
    return;
  }
  JobPtr job = find_job(request.job);
  if (job == nullptr) {
    emit(make_error(kCodeUnknownJob, "unknown job '" + request.job + "'",
                    request.job));
    return;
  }
  emit(job_status_json(*job));
}

void Server::handle_cancel(const Request& request) {
  JobPtr job = find_job(request.job);
  if (job == nullptr) {
    emit(make_error(kCodeUnknownJob, "unknown job '" + request.job + "'",
                    request.job));
    return;
  }
  job->cancel_requested.store(true, std::memory_order_relaxed);
  JsonValue ack((JsonObject()));
  ack.set("reply", "ack");
  ack.set("op", "cancel");
  ack.set("job", job->id);
  ack.set("state", to_string(job->state.load(std::memory_order_acquire)));
  emit(ack);
}

// --- Replies -----------------------------------------------------------------

void Server::emit(const JsonValue& reply) {
  std::lock_guard<std::mutex> lock(out_mutex_);
  write_reply(reply);
}

void Server::write_reply(const JsonValue& reply) {
  if (out_ == nullptr) return;
  *out_ << util::json_write(reply, 0) << '\n';
  out_->flush();
}

JsonValue Server::server_status_json() {
  JsonValue status((JsonObject()));
  status.set("reply", "status");
  status.set("queue_depth", std::uint64_t(queue_.depth()));
  status.set("queue_capacity", std::uint64_t(queue_.capacity()));
  status.set("pending", pending_.load(std::memory_order_relaxed));
  status.set("executors", std::uint64_t(executors_.size()));
  status.set("draining", draining_.load(std::memory_order_relaxed));
  util::JsonArray jobs;
  {
    std::lock_guard<std::mutex> lock(jobs_mutex_);
    for (const auto& [id, job] : jobs_) {
      JsonValue entry((JsonObject()));
      entry.set("job", id);
      entry.set("kind", job->kind == JobKind::kRun ? "run" : "fleet");
      entry.set("state",
                to_string(job->state.load(std::memory_order_acquire)));
      if (job->kind == JobKind::kFleet) {
        entry.set("done", job->devices_done.load(std::memory_order_relaxed));
        entry.set("total",
                  job->devices_total.load(std::memory_order_relaxed));
      }
      jobs.push_back(std::move(entry));
    }
  }
  status.set("jobs", JsonValue(std::move(jobs)));
  status.set("telemetry", telemetry_.to_json());
  return status;
}

JsonValue Server::job_status_json(const JobRecord& job) {
  const JobState state = job.state.load(std::memory_order_acquire);
  JsonValue status((JsonObject()));
  status.set("reply", "status");
  status.set("job", job.id);
  status.set("kind", job.kind == JobKind::kRun ? "run" : "fleet");
  status.set("state", to_string(state));
  if (job.kind == JobKind::kFleet) {
    status.set("done", job.devices_done.load(std::memory_order_relaxed));
    status.set("total", job.devices_total.load(std::memory_order_relaxed));
  }
  if (state == JobState::kDone || state == JobState::kFailed ||
      state == JobState::kCancelled) {
    std::lock_guard<std::mutex> lock(job.mutex);
    if (!job.error.empty()) status.set("error", job.error);
    if (!job.outcome.is_null()) status.set("result", job.outcome);
  }
  return status;
}

JobPtr Server::find_job(const std::string& id) {
  std::lock_guard<std::mutex> lock(jobs_mutex_);
  const auto it = jobs_.find(id);
  return it == jobs_.end() ? nullptr : it->second;
}

// --- Unix-socket front end ---------------------------------------------------

namespace {

/// Minimal blocking streambuf over a file descriptor. Reads honor the
/// interrupted-read contract the stdin path relies on: EINTR surfaces as a
/// retry (checking the external stop through the owning loop's getline
/// failure), every other error as EOF.
class FdStreamBuf : public std::streambuf {
 public:
  explicit FdStreamBuf(int fd) : fd_(fd) { setg(buf_, buf_, buf_); }

 protected:
  int underflow() override {
    const ssize_t n = ::read(fd_, buf_, sizeof(buf_));
    if (n > 0) {
      setg(buf_, buf_, buf_ + n);
      return traits_type::to_int_type(buf_[0]);
    }
    // 0 = peer closed; < 0 covers both real errors and EINTR -- either way
    // the session's getline fails and serve() consults the stop flag.
    return traits_type::eof();
  }

  std::streamsize xsputn(const char* data, std::streamsize count) override {
    std::streamsize written = 0;
    while (written < count) {
      const ssize_t n =
          ::write(fd_, data + written, std::size_t(count - written));
      if (n < 0) {
        if (errno == EINTR) continue;
        return written;  // peer went away; the session ends on next read
      }
      written += n;
    }
    return written;
  }

  int overflow(int ch) override {
    if (ch == traits_type::eof()) return 0;
    const char c = char(ch);
    return xsputn(&c, 1) == 1 ? ch : traits_type::eof();
  }

 private:
  int fd_;
  char buf_[4096];
};

struct FdCloser {
  int fd = -1;
  ~FdCloser() {
    if (fd >= 0) ::close(fd);
  }
};

}  // namespace

ServeStatus Server::serve_unix(const std::string& socket_path) {
  FdCloser listener;
  listener.fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listener.fd < 0) {
    throw std::runtime_error("serve: socket() failed: " +
                             std::string(std::strerror(errno)));
  }
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (socket_path.size() >= sizeof(addr.sun_path)) {
    throw std::runtime_error("serve: socket path too long: " + socket_path);
  }
  std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
  ::unlink(socket_path.c_str());  // stale socket from a previous server
  if (::bind(listener.fd, reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    throw std::runtime_error("serve: cannot bind '" + socket_path +
                             "': " + std::strerror(errno));
  }
  if (::listen(listener.fd, 4) != 0) {
    throw std::runtime_error("serve: listen() failed: " +
                             std::string(std::strerror(errno)));
  }

  ServeStatus status = ServeStatus::kEof;
  for (;;) {
    if (stopping()) {
      status = ServeStatus::kStopped;
      break;
    }
    // Poll so a stop request never waits on the next client (accept alone
    // would block until a connection or a signal).
    pollfd pfd{listener.fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 200);
    if (ready < 0 && errno != EINTR) {
      throw std::runtime_error("serve: poll() failed: " +
                               std::string(std::strerror(errno)));
    }
    if (ready <= 0) continue;
    FdCloser connection;
    connection.fd = ::accept(listener.fd, nullptr, nullptr);
    if (connection.fd < 0) continue;  // EINTR or client vanished; re-poll
    FdStreamBuf in_buf(connection.fd);
    FdStreamBuf out_buf(connection.fd);
    std::istream in(&in_buf);
    std::ostream out(&out_buf);
    status = serve(in, out);
    if (status != ServeStatus::kEof) break;  // shutdown or stop ends serving
    draining_.store(false, std::memory_order_relaxed);
  }
  ::unlink(socket_path.c_str());
  return status;
}

}  // namespace dtpm::serve
