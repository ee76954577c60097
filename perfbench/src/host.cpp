#include "host.hpp"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <thread>

#include <fcntl.h>
#include <poll.h>
#include <sys/wait.h>
#include <unistd.h>

#include "trace.hpp"

namespace perfbench {

void warm_host(double seconds, unsigned threads) {
  const std::int64_t deadline = now_ns() + std::int64_t(seconds * 1e9);
  std::atomic<double> sink{0.0};
  auto spin = [&] {
    double x = 1.0;
    while (now_ns() < deadline) {
      for (int i = 0; i < 100000; ++i) x = std::sqrt(x + 1.0) * 1.0000001;
    }
    sink.store(x, std::memory_order_relaxed);
  };
  std::vector<std::thread> pool;
  for (unsigned i = 1; i < threads; ++i) pool.emplace_back(spin);
  spin();
  for (std::thread& t : pool) t.join();
}

unsigned load_width() {
  return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

double peak_rss_mb(pid_t pid) {
  const std::string path =
      pid == 0 ? "/proc/self/status" : "/proc/" + std::to_string(pid) + "/status";
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  throw std::runtime_error("no VmHWM in " + path);
}

std::uint64_t fnv1a(std::string_view bytes, std::uint64_t seed) {
  std::uint64_t h = seed;
  for (unsigned char c : bytes) {
    h ^= c;
    h *= 1099511628211ull;
  }
  return h;
}

std::string hex64(std::uint64_t value) {
  char buf[19];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(value));
  return buf;
}

// --- ChildProcess ------------------------------------------------------------

ChildProcess::ChildProcess(const std::string& binary,
                           const std::vector<std::string>& args) {
  int in_pipe[2];
  int out_pipe[2];
  if (::pipe2(in_pipe, O_CLOEXEC) != 0) {
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  if (::pipe2(out_pipe, O_CLOEXEC) != 0) {
    ::close(in_pipe[0]);
    ::close(in_pipe[1]);
    throw std::runtime_error(std::string("pipe: ") + std::strerror(errno));
  }
  std::vector<std::string> argv_storage{binary};
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_ = ::fork();
  if (pid_ < 0) {
    for (int fd : {in_pipe[0], in_pipe[1], out_pipe[0], out_pipe[1]}) ::close(fd);
    throw std::runtime_error(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    ::dup2(in_pipe[0], STDIN_FILENO);
    ::dup2(out_pipe[1], STDOUT_FILENO);
    ::execv(binary.c_str(), argv.data());
    std::_Exit(127);
  }
  ::close(in_pipe[0]);
  ::close(out_pipe[1]);
  stdin_fd_ = in_pipe[1];
  stdout_fd_ = out_pipe[0];
}

ChildProcess::~ChildProcess() {
  close_stdin();
  int status = 0;
  if (pid_ > 0 && !reap(2000, status)) {
    ::kill(pid_, SIGTERM);
    if (!reap(3000, status)) {
      ::kill(pid_, SIGKILL);
      reap(-1, status);
    }
  }
  if (stdout_fd_ >= 0) ::close(stdout_fd_);
}

void ChildProcess::close_stdin() {
  if (stdin_fd_ >= 0) {
    ::close(stdin_fd_);
    stdin_fd_ = -1;
  }
}

bool ChildProcess::reap(int timeout_ms, int& status) {
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1000000;
  for (;;) {
    const pid_t r = ::waitpid(pid_, &status, timeout_ms < 0 ? 0 : WNOHANG);
    if (r == pid_ || (r < 0 && errno == ECHILD)) {
      pid_ = -1;
      return true;
    }
    if (timeout_ms >= 0 && now_ns() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

void ChildProcess::send(const std::string& line) {
  if (stdin_fd_ < 0) throw std::runtime_error("child stdin is closed");
  const std::string data = line + '\n';
  std::size_t written = 0;
  while (written < data.size()) {
    const ssize_t n = ::write(stdin_fd_, data.data() + written,
                              data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;
      throw std::runtime_error(std::string("write to child: ") +
                               std::strerror(errno));
    }
    written += std::size_t(n);
  }
}

bool ChildProcess::read_line(std::string& line, int timeout_ms) {
  const std::int64_t deadline = now_ns() + std::int64_t(timeout_ms) * 1000000;
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line.assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    if (eof_) return false;
    const std::int64_t left_ms = (deadline - now_ns()) / 1000000;
    if (left_ms < 0) return false;
    pollfd pfd{stdout_fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, int(left_ms));
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    char chunk[65536];
    const ssize_t n = ::read(stdout_fd_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      eof_ = true;
      continue;
    }
    buffer_.append(chunk, std::size_t(n));
  }
}

int ChildProcess::finish(int timeout_ms) {
  close_stdin();
  int status = 0;
  if (pid_ > 0 && !reap(timeout_ms, status)) {
    ::kill(pid_, SIGKILL);
    reap(-1, status);
    return -1;
  }
  return status;
}

}  // namespace perfbench
