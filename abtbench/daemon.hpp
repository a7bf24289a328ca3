#pragma once

// Child-process and /proc plumbing for the service workloads: spawning
// abtd (killed and reaped on every exit path), CPU pinning, and the
// counters the benchmark reads from /proc.

#include <sys/types.h>

#include <cstdint>
#include <string>
#include <vector>

namespace abtbench {

/// One abtd child. The destructor stops it; a signal handler installed by
/// install_signal_cleanup() kills it if the benchmark is interrupted, and
/// the child dies with its parent (PR_SET_PDEATHSIG) if the benchmark is
/// killed outright.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon() { stop(); }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Forks and execs `argv[0]` with stdout and stderr appended to
  /// `log_path`. The child inherits the caller's CPU affinity.
  [[nodiscard]] bool start(const std::vector<std::string>& argv,
                           const std::string& log_path, std::string* error);

  /// True while the child has not exited (reaps it if it has).
  [[nodiscard]] bool alive();

  /// SIGTERM, up to two seconds of grace, then SIGKILL; always reaps.
  void stop();

  [[nodiscard]] pid_t pid() const { return pid_; }

 private:
  pid_t pid_ = -1;
};

/// Makes SIGINT, SIGTERM and SIGHUP kill and reap the live daemon before
/// the benchmark exits.
void install_signal_cleanup();

/// CPUs this process may run on, ascending.
[[nodiscard]] std::vector<int> allowed_cpus();

/// Pins the calling thread (and every thread or child it creates later)
/// to `cpus`.
[[nodiscard]] bool pin_to(const std::vector<int>& cpus);

/// user + system CPU seconds of every thread of `pid`, to the nanosecond
/// (the process's CPU-time clock); 0 if it cannot be read.
[[nodiscard]] double process_cpu_s(pid_t pid);

/// Context switches summed over every thread of `pid`.
struct ContextSwitches {
  std::uint64_t voluntary = 0;
  std::uint64_t involuntary = 0;
};
[[nodiscard]] ContextSwitches context_switches(pid_t pid);

/// Peak resident set (VmHWM) of `pid` in kB.
[[nodiscard]] double peak_rss_kb(pid_t pid);

/// Steal and total jiffies of the given CPUs, from /proc/stat.
struct CpuJiffies {
  std::uint64_t steal = 0;
  std::uint64_t total = 0;
};
[[nodiscard]] CpuJiffies cpu_jiffies(const std::vector<int>& cpus);

}  // namespace abtbench
