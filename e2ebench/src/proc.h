// Child processes of the benchmark and what /proc says about them.
#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

namespace e2e {

/// A spawned child. Its standard output goes to the benchmark's standard
/// error unless `pipes` was set, in which case stdin and stdout are pipes
/// to the benchmark. The destructor kills a child still running and reaps
/// it, so no process outlives the benchmark on any path.
class Process {
 public:
  Process(const std::vector<std::string>& argv, bool pipes);
  ~Process();

  Process(const Process&) = delete;
  Process& operator=(const Process&) = delete;

  pid_t pid() const { return pid_; }

  /// Writes one line to the child's stdin.
  void send_line(const std::string& line);
  /// Reads one line from the child's stdout; false at end of file.
  bool read_line(std::string* line);

  /// Waits for the child to exit; returns its exit code, or 128 + signal.
  int wait();

  /// CPU time (user + system) the child has used so far, in seconds.
  double cpu_seconds() const;
  /// The child's peak resident set size so far (VmHWM), in MiB.
  double peak_rss_mb() const;

 private:
  pid_t pid_ = -1;
  int to_child_ = -1;
  int from_child_ = -1;
  std::string buffer_;
};

/// CPU time the hypervisor has taken from this VM since boot (the steal
/// column of /proc/stat, summed over CPUs), in seconds.
double steal_seconds();

/// Directory holding the running executable.
std::string executable_dir();

/// This process's scratch directory for sockets and journals, relative to
/// the checkout root the benchmark runs in. Created on first use; removed
/// by remove_scratch_dir().
const std::string& scratch_dir();
void remove_scratch_dir();

}  // namespace e2e
