// The projection daemon binary: serve::Daemon + serve::SocketServer on an
// AF_UNIX socket. See docs/serving.md for the protocol and the robustness
// policy; tools/serve_loadgen.cpp is the matching load generator.
//
//   serve_daemon --socket /tmp/grophecy.sock [--workers N]
//                [--queue-depth N] [--default-deadline-ms D]
//                [--max-deadline-ms D] [--max-retries N] [--seed S]
//
// Runs until a client sends {"type":"shutdown"} or the process receives
// SIGINT/SIGTERM; either way the daemon drains before exiting.

#include <time.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "serve/daemon.h"
#include "serve/socket_server.h"
#include "util/error.h"

namespace {

// Signal handlers can only touch lock-free state; the main thread polls.
volatile std::sig_atomic_t g_signal_quit = 0;

void handle_signal(int) { g_signal_quit = 1; }

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --socket PATH [--workers N] [--queue-depth N]\n"
               "          [--default-deadline-ms D] [--max-deadline-ms D]\n"
               "          [--max-retries N] [--seed S]\n",
               argv0);
  std::exit(2);
}

double parse_double(const char* argv0, const char* text) {
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (end == text || *end != '\0' || value < 0.0) usage(argv0);
  return value;
}

long parse_long(const char* argv0, const char* text) {
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (end == text || *end != '\0' || value < 0) usage(argv0);
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace grophecy;

  std::string socket_path;
  serve::DaemonOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--socket" && value) {
      socket_path = value;
      ++i;
    } else if (flag == "--workers" && value) {
      options.workers = static_cast<int>(parse_long(argv[0], value));
      ++i;
    } else if (flag == "--queue-depth" && value) {
      options.max_queue_depth =
          static_cast<std::size_t>(parse_long(argv[0], value));
      ++i;
    } else if (flag == "--default-deadline-ms" && value) {
      options.default_deadline_s = parse_double(argv[0], value) * 1e-3;
      ++i;
    } else if (flag == "--max-deadline-ms" && value) {
      options.max_deadline_s = parse_double(argv[0], value) * 1e-3;
      ++i;
    } else if (flag == "--max-retries" && value) {
      options.max_retries = static_cast<int>(parse_long(argv[0], value));
      ++i;
    } else if (flag == "--seed" && value) {
      options.base_seed =
          static_cast<std::uint64_t>(parse_long(argv[0], value));
      ++i;
    } else {
      usage(argv[0]);
    }
  }
  if (socket_path.empty()) usage(argv[0]);

  // A client "shutdown" request and a POSIX signal exit the same way.
  options.on_shutdown_request = [] { g_signal_quit = 1; };
  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);

  try {
    serve::Daemon daemon(std::move(options));
    daemon.start();
    serve::SocketServer server(daemon,
                               {.socket_path = socket_path});
    server.start();
    std::fprintf(stderr, "serve_daemon: listening on %s (%d workers, "
                         "queue bound %zu)\n",
                 socket_path.c_str(), daemon.options().workers,
                 daemon.options().max_queue_depth);
    while (g_signal_quit == 0) {
      struct timespec nap {0, 50'000'000};  // 50 ms poll for the flag
      nanosleep(&nap, nullptr);
    }
    std::fprintf(stderr, "serve_daemon: draining\n");
    server.stop();
    daemon.shutdown(/*drain=*/true);
  } catch (const Error& error) {
    std::fprintf(stderr, "serve_daemon: %s\n", error.what());
    return 1;
  }
  return 0;
}
