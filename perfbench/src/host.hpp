// Host-side plumbing: warming the CPUs before anything is timed, reading a
// process's peak RSS, hashing simulated statistics into a digest, and
// driving a `dtpm serve` child over pipes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include <sys/types.h>

namespace perfbench {

/// Busy-spins every one of `threads` threads for `seconds` (floating-point
/// work the compiler cannot drop), so clocks and caches have ramped before
/// the first timed operation.
void warm_host(double seconds, unsigned threads);

/// CPUs the benchmark may load: hardware concurrency, capped at 4.
unsigned load_width();

/// VmHWM of process `pid` (0 = this process) in MiB; throws when unreadable.
double peak_rss_mb(pid_t pid = 0);

/// FNV-1a 64-bit, chainable through `seed`.
std::uint64_t fnv1a(std::string_view bytes,
                    std::uint64_t seed = 14695981039346656037ull);

std::string hex64(std::uint64_t value);

/// A child process with its stdin and stdout on pipes. The destructor
/// closes stdin, asks a still-running child to stop (SIGTERM, then SIGKILL
/// after a grace period) and reaps it, so no path leaves it running.
class ChildProcess {
 public:
  ChildProcess(const std::string& binary, const std::vector<std::string>& args);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  pid_t pid() const { return pid_; }

  /// Writes `line` plus a newline; throws when the child has gone.
  void send(const std::string& line);

  /// Next stdout line within `timeout_ms`; false on timeout or EOF.
  bool read_line(std::string& line, int timeout_ms);

  /// Closes stdin and waits up to `timeout_ms` for exit; returns the wait
  /// status, or -1 when the child had to be killed.
  int finish(int timeout_ms);

 private:
  void close_stdin();
  bool reap(int timeout_ms, int& status);

  pid_t pid_ = -1;
  int stdin_fd_ = -1;
  int stdout_fd_ = -1;
  std::string buffer_;
  bool eof_ = false;
};

}  // namespace perfbench
