#include "daemon.hpp"

#include <fcntl.h>
#include <sched.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <time.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace abtbench {

namespace {

/// The live daemon's pid, for the signal handler.
volatile sig_atomic_t g_child = -1;

void on_signal(int signum) {
  const pid_t child = g_child;
  if (child > 0) {
    ::kill(child, SIGKILL);
    ::waitpid(child, nullptr, 0);
  }
  ::_exit(128 + signum);
}

}  // namespace

bool Daemon::start(const std::vector<std::string>& argv,
                   const std::string& log_path, std::string* error) {
  stop();
  std::vector<char*> args;
  args.reserve(argv.size() + 1);
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND | O_CLOEXEC, 0644);
  if (log_fd < 0) {
    *error = "open " + log_path + ": " + std::strerror(errno);
    return false;
  }
  const pid_t parent = ::getpid();
  const pid_t child = ::fork();
  if (child < 0) {
    *error = std::string("fork: ") + std::strerror(errno);
    ::close(log_fd);
    return false;
  }
  if (child == 0) {
    // Only async-signal-safe calls between fork and exec.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    ::dup2(log_fd, STDOUT_FILENO);
    ::dup2(log_fd, STDERR_FILENO);
    ::execv(args[0], args.data());
    ::_exit(127);
  }
  ::close(log_fd);
  pid_ = child;
  g_child = child;
  return true;
}

bool Daemon::alive() {
  if (pid_ <= 0) return false;
  int status = 0;
  const pid_t got = ::waitpid(pid_, &status, WNOHANG);
  if (got == pid_) {
    pid_ = -1;
    g_child = -1;
    return false;
  }
  return true;
}

void Daemon::stop() {
  if (pid_ <= 0) return;
  ::kill(pid_, SIGTERM);
  for (int i = 0; i < 200; ++i) {
    int status = 0;
    if (::waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      g_child = -1;
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  g_child = -1;
}

void install_signal_cleanup() {
  struct sigaction action {};
  action.sa_handler = on_signal;
  sigemptyset(&action.sa_mask);
  for (const int signum : {SIGINT, SIGTERM, SIGHUP}) {
    ::sigaction(signum, &action, nullptr);
  }
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> out;
  if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &set)) out.push_back(cpu);
  }
  return out;
}

bool pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int cpu : cpus) CPU_SET(cpu, &set);
  return ::sched_setaffinity(0, sizeof set, &set) == 0;
}

double process_cpu_s(pid_t pid) {
  clockid_t clock{};
  timespec t{};
  if (::clock_getcpuclockid(pid, &clock) != 0 ||
      ::clock_gettime(clock, &t) != 0) {
    return 0.0;
  }
  return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_nsec) / 1e9;
}

ContextSwitches context_switches(pid_t pid) {
  ContextSwitches out;
  std::error_code ec;
  const std::filesystem::path tasks =
      "/proc/" + std::to_string(pid) + "/task";
  for (const auto& entry : std::filesystem::directory_iterator(tasks, ec)) {
    std::ifstream in(entry.path() / "status");
    std::string key;
    std::uint64_t value = 0;
    std::string line;
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      if (!(ls >> key >> value)) continue;
      if (key == "voluntary_ctxt_switches:") out.voluntary += value;
      if (key == "nonvoluntary_ctxt_switches:") out.involuntary += value;
    }
  }
  return out;
}

double peak_rss_kb(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6));
    }
  }
  return 0.0;
}

CpuJiffies cpu_jiffies(const std::vector<int>& cpus) {
  CpuJiffies out;
  std::ifstream in("/proc/stat");
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string name;
    ls >> name;
    if (name.rfind("cpu", 0) != 0 || name == "cpu") continue;
    const int cpu = std::stoi(name.substr(3));
    bool wanted = false;
    for (const int c : cpus) wanted = wanted || c == cpu;
    if (!wanted) continue;
    // user nice system idle iowait irq softirq steal ...
    std::uint64_t value = 0;
    for (int field = 0; field < 8 && ls >> value; ++field) {
      out.total += value;
      if (field == 7) out.steal += value;
    }
  }
  return out;
}

}  // namespace abtbench
