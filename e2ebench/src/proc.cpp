#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

extern char** environ;

namespace e2e {

namespace {

std::runtime_error system_error(const std::string& what) {
  return std::runtime_error(what + ": " + std::strerror(errno));
}

}  // namespace

Process::Process(const std::vector<std::string>& argv, bool pipes) {
  std::vector<char*> args;
  for (const std::string& arg : argv) args.push_back(const_cast<char*>(arg.c_str()));
  args.push_back(nullptr);

  int in[2] = {-1, -1};
  int out[2] = {-1, -1};
  if (pipes && (pipe2(in, O_CLOEXEC) != 0 || pipe2(out, O_CLOEXEC) != 0))
    throw system_error("pipe");

  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  if (pipes) {
    posix_spawn_file_actions_adddup2(&actions, in[0], STDIN_FILENO);
    posix_spawn_file_actions_adddup2(&actions, out[1], STDOUT_FILENO);
  } else {
    posix_spawn_file_actions_adddup2(&actions, STDERR_FILENO, STDOUT_FILENO);
  }
  const int rc = posix_spawn(&pid_, args[0], &actions, nullptr, args.data(),
                             environ);
  posix_spawn_file_actions_destroy(&actions);
  if (pipes) {
    close(in[0]);
    close(out[1]);
    to_child_ = in[1];
    from_child_ = out[0];
  }
  if (rc != 0) {
    pid_ = -1;
    errno = rc;
    throw system_error("spawn " + argv[0]);
  }
}

Process::~Process() {
  if (to_child_ >= 0) close(to_child_);
  if (from_child_ >= 0) close(from_child_);
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int status = 0;
    while (waitpid(pid_, &status, 0) < 0 && errno == EINTR) {
    }
  }
}

void Process::send_line(const std::string& line) {
  const std::string text = line + "\n";
  std::size_t done = 0;
  while (done < text.size()) {
    const ssize_t n = write(to_child_, text.data() + done, text.size() - done);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) throw system_error("write to child");
    done += static_cast<std::size_t>(n);
  }
}

bool Process::read_line(std::string* line) {
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[1 << 16];
    const ssize_t n = read(from_child_, chunk, sizeof chunk);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

int Process::wait() {
  int status = 0;
  while (waitpid(pid_, &status, 0) < 0) {
    if (errno != EINTR) throw system_error("waitpid");
  }
  pid_ = -1;
  if (WIFEXITED(status)) return WEXITSTATUS(status);
  return 128 + WTERMSIG(status);
}

double Process::cpu_seconds() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/stat");
  std::string text((std::istreambuf_iterator<char>(file)),
                   std::istreambuf_iterator<char>());
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const std::size_t close_paren = text.rfind(')');
  if (close_paren == std::string::npos)
    throw std::runtime_error("cannot read /proc stat of the child");
  std::istringstream fields(text.substr(close_paren + 2));
  std::string field;
  unsigned long long utime = 0, stime = 0;
  for (int index = 3; fields >> field; ++index) {
    if (index == 14) utime = std::stoull(field);
    if (index == 15) {
      stime = std::stoull(field);
      break;
    }
  }
  return static_cast<double>(utime + stime) /
         static_cast<double>(sysconf(_SC_CLK_TCK));
}

double Process::peak_rss_mb() const {
  std::ifstream file("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(file, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
  throw std::runtime_error("cannot read VmHWM of the child");
}

double steal_seconds() {
  std::ifstream file("/proc/stat");
  std::string label;
  unsigned long long user, nice, system, idle, iowait, irq, softirq, steal;
  if (!(file >> label >> user >> nice >> system >> idle >> iowait >> irq >>
        softirq >> steal) ||
      label != "cpu")
    throw std::runtime_error("cannot read the steal time in /proc/stat");
  return static_cast<double>(steal) / static_cast<double>(sysconf(_SC_CLK_TCK));
}

const std::string& scratch_dir() {
  static const std::string dir = [] {
    const std::string path = ".bench_build/run-" + std::to_string(getpid());
    std::filesystem::create_directories(path);
    return path;
  }();
  return dir;
}

void remove_scratch_dir() {
  std::error_code ignored;
  std::filesystem::remove_all(scratch_dir(), ignored);
}

std::string executable_dir() {
  char path[4096];
  const ssize_t n = readlink("/proc/self/exe", path, sizeof path - 1);
  if (n <= 0) throw system_error("readlink /proc/self/exe");
  std::string exe(path, static_cast<std::size_t>(n));
  return exe.substr(0, exe.rfind('/'));
}

}  // namespace e2e
