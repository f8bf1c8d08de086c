#ifndef CONCORD_TESTS_PROCESS_HARNESS_H_
#define CONCORD_TESTS_PROCESS_HARNESS_H_

// Multi-process test harness: spawns real binaries (concordd,
// concord_client), streams their stdout line-by-line, and kills them
// at chosen moments — SIGKILL included, which is the whole point: no
// in-process crash simulation, an actual `kill -9` against an actual
// process with an actual WAL on disk.

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

namespace concord::testing {

inline int64_t MonotonicMs() {
  return std::chrono::duration_cast<std::chrono::milliseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// One spawned child process with its stdout captured incrementally.
/// Movable, not copyable; the destructor SIGKILLs anything still
/// running so a failed test never leaks server processes.
class ChildProcess {
 public:
  ChildProcess() = default;
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;
  ChildProcess(ChildProcess&& other) noexcept { *this = std::move(other); }
  ChildProcess& operator=(ChildProcess&& other) noexcept {
    Reap(/*force_kill=*/true);
    pid_ = other.pid_;
    out_fd_ = other.out_fd_;
    exited_ = other.exited_;
    exit_status_ = other.exit_status_;
    lines_ = std::move(other.lines_);
    partial_ = std::move(other.partial_);
    other.pid_ = -1;
    other.out_fd_ = -1;
    return *this;
  }
  ~ChildProcess() { Reap(/*force_kill=*/true); }

  /// fork/exec `binary` with `args` (argv[0] is added automatically).
  /// stderr passes through to the test's stderr for debuggability.
  static ChildProcess Spawn(const std::string& binary,
                            const std::vector<std::string>& args) {
    ChildProcess child;
    int pipe_fds[2];
    if (pipe(pipe_fds) != 0) return child;
    pid_t pid = fork();
    if (pid == 0) {
      close(pipe_fds[0]);
      dup2(pipe_fds[1], STDOUT_FILENO);
      close(pipe_fds[1]);
      std::vector<char*> argv;
      argv.push_back(const_cast<char*>(binary.c_str()));
      for (const std::string& arg : args) {
        argv.push_back(const_cast<char*>(arg.c_str()));
      }
      argv.push_back(nullptr);
      execv(binary.c_str(), argv.data());
      std::fprintf(stderr, "exec %s failed: %s\n", binary.c_str(),
                   std::strerror(errno));
      _exit(127);
    }
    close(pipe_fds[1]);
    fcntl(pipe_fds[0], F_SETFL, O_NONBLOCK);
    child.pid_ = pid;
    child.out_fd_ = pipe_fds[0];
    return child;
  }

  bool running() const { return pid_ > 0 && !exited_; }
  pid_t pid() const { return pid_; }

  /// All complete stdout lines seen so far (call Pump/WaitForLine to
  /// advance).
  const std::vector<std::string>& lines() const { return lines_; }

  /// Lines starting with `prefix`.
  std::vector<std::string> LinesWithPrefix(const std::string& prefix) const {
    std::vector<std::string> out;
    for (const std::string& line : lines_) {
      if (line.rfind(prefix, 0) == 0) out.push_back(line);
    }
    return out;
  }

  /// Reads stdout until a read completes at least one new line, EOF,
  /// or `budget_ms` passes, whichever comes first.
  void Pump(int budget_ms = 0) {
    if (out_fd_ < 0) return;
    int64_t deadline = MonotonicMs() + budget_ms;
    const size_t lines_before = lines_.size();
    do {
      struct pollfd pfd = {out_fd_, POLLIN, 0};
      int timeout = static_cast<int>(deadline - MonotonicMs());
      if (poll(&pfd, 1, timeout < 0 ? 0 : timeout) <= 0) continue;
      char buffer[4096];
      ssize_t n = read(out_fd_, buffer, sizeof(buffer));
      if (n > 0) {
        partial_.append(buffer, static_cast<size_t>(n));
        size_t newline;
        while ((newline = partial_.find('\n')) != std::string::npos) {
          lines_.push_back(partial_.substr(0, newline));
          partial_.erase(0, newline + 1);
        }
        if (lines_.size() > lines_before) return;
      } else if (n == 0) {
        close(out_fd_);
        out_fd_ = -1;
        if (!partial_.empty()) {
          lines_.push_back(partial_);
          partial_.clear();
        }
        return;
      }
    } while (MonotonicMs() < deadline);
  }

  /// Waits up to `timeout_ms` for a line starting with `prefix`
  /// (anywhere in the output so far, then streaming). Returns the line.
  bool WaitForLine(const std::string& prefix, int timeout_ms,
                   std::string* line_out = nullptr) {
    int64_t deadline = MonotonicMs() + timeout_ms;
    size_t scanned = 0;
    while (true) {
      for (; scanned < lines_.size(); ++scanned) {
        if (lines_[scanned].rfind(prefix, 0) == 0) {
          if (line_out != nullptr) *line_out = lines_[scanned];
          return true;
        }
      }
      if (MonotonicMs() >= deadline || out_fd_ < 0) return false;
      Pump(50);
    }
  }

  /// Waits until at least `count` lines start with `prefix`.
  bool WaitForLineCount(const std::string& prefix, size_t count,
                        int timeout_ms) {
    int64_t deadline = MonotonicMs() + timeout_ms;
    while (LinesWithPrefix(prefix).size() < count) {
      if (MonotonicMs() >= deadline || out_fd_ < 0) return false;
      Pump(50);
    }
    return true;
  }

  /// The crash under test: SIGKILL, no warning, no flush, reaped.
  void KillNine() {
    if (!running()) return;
    kill(pid_, SIGKILL);
    waitpid(pid_, &exit_status_, 0);
    exited_ = true;
  }

  /// Graceful stop: SIGTERM, then waits (SIGKILL backstop after 10s).
  void Terminate() {
    if (!running()) return;
    kill(pid_, SIGTERM);
    WaitExit(10000);
    Reap(/*force_kill=*/true);
  }

  /// Waits for natural exit, draining stdout. Returns the exit code,
  /// or -1 on timeout / abnormal termination.
  int WaitExit(int timeout_ms) {
    int64_t deadline = MonotonicMs() + timeout_ms;
    while (!exited_) {
      pid_t done = waitpid(pid_, &exit_status_, WNOHANG);
      if (done == pid_) {
        exited_ = true;
        break;
      }
      if (MonotonicMs() >= deadline) return -1;
      Pump(50);
    }
    Pump(0);  // drain what the child flushed before exiting
    if (!WIFEXITED(exit_status_)) return -1;
    return WEXITSTATUS(exit_status_);
  }

 private:
  void Reap(bool force_kill) {
    if (pid_ > 0 && !exited_) {
      if (force_kill) kill(pid_, SIGKILL);
      waitpid(pid_, &exit_status_, 0);
      exited_ = true;
    }
    if (out_fd_ >= 0) {
      close(out_fd_);
      out_fd_ = -1;
    }
  }

  pid_t pid_ = -1;
  int out_fd_ = -1;
  bool exited_ = false;
  int exit_status_ = 0;
  std::vector<std::string> lines_;
  std::string partial_;
};

/// Spawns, waits for exit (draining output), returns exit code;
/// `lines_out` receives the full stdout.
inline int RunToCompletion(const std::string& binary,
                           const std::vector<std::string>& args,
                           int timeout_ms,
                           std::vector<std::string>* lines_out = nullptr) {
  ChildProcess child = ChildProcess::Spawn(binary, args);
  int rc = child.WaitExit(timeout_ms);
  if (lines_out != nullptr) *lines_out = child.lines();
  return rc;
}

}  // namespace concord::testing

#endif  // CONCORD_TESTS_PROCESS_HARNESS_H_
