// Local-socket transport for the projection daemon.
//
// serve::Daemon is transport-agnostic (a line in, a reply callback out);
// this module adds the deployment framing: a SocketServer that listens on
// an AF_UNIX stream socket and speaks line-delimited JSON per
// docs/serving.md, and a small blocking Client used by the load
// generator, the smoke script, and tests.
//
// Robustness posture at the framing layer (the daemon handles the rest):
//
//   * one reader thread per connection, replies serialized per
//     connection by a write mutex — daemon workers fan replies out
//     concurrently and interleaved lines would corrupt the stream;
//   * writing a reply never blocks: what the socket does not take at once
//     is buffered and flushed by the reader thread as the client reads,
//     so a client that pipelines requests before reading any reply
//     cannot deadlock its connection, and a slow reader never holds a
//     daemon worker. A client that leaves more than 64 MiB of replies
//     unread is disconnected;
//   * a hard cap on request-line length: a client streaming an unbounded
//     line (hostile or broken) gets one typed "parse" reply and the
//     oversized line is discarded, without the server ever buffering it;
//   * a reply that arrives after its connection died is dropped, never
//     written to a recycled fd (the connection object outlives the fd by
//     design and carries a closed flag);
//   * SIGPIPE is never raised (MSG_NOSIGNAL): a client that disconnects
//     mid-reply costs the server one failed send, nothing more.
#pragma once

#include <atomic>
#include <cstddef>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

namespace grophecy::serve {

class Daemon;

/// Server knobs.
struct SocketServerOptions {
  /// Filesystem path of the AF_UNIX socket. Unlinked (if stale) on
  /// start and on stop.
  std::string socket_path;
  /// Longest request line accepted, in bytes. Beyond this the line is
  /// answered with a typed "parse" error and discarded unread.
  std::size_t max_line_bytes = 1 << 20;
  int listen_backlog = 64;
};

/// Accepts connections and pumps lines between clients and a Daemon.
/// start() spawns the accept thread; stop() (or destruction) closes the
/// listening socket and every live connection and joins all threads.
/// Connections whose client left are joined and dropped as new ones are
/// accepted, so a long-lived server holds only its live connections.
class SocketServer {
 public:
  SocketServer(Daemon& daemon, SocketServerOptions options);
  ~SocketServer();

  SocketServer(const SocketServer&) = delete;
  SocketServer& operator=(const SocketServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Throws UsageError when
  /// the socket cannot be created or bound.
  void start();

  /// Closes the listener and all connections, joins every thread,
  /// unlinks the socket path. Idempotent. In-flight daemon work keeps
  /// running (its replies are dropped); call Daemon::shutdown for that.
  void stop();

  /// True between start() and stop().
  bool running() const { return running_.load(); }

  /// Connections held: the live ones, plus any whose reader thread
  /// finished since the last accept (each accept joins and drops those).
  std::size_t connections() const;

  const SocketServerOptions& options() const { return options_; }

 private:
  struct Connection;

  void accept_loop();
  void serve_connection(std::shared_ptr<Connection> connection);

  Daemon& daemon_;
  SocketServerOptions options_;
  int listen_fd_ = -1;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex connections_mutex_;
  std::vector<std::shared_ptr<Connection>> connections_;
};

/// Blocking line-oriented client for the daemon socket. Not thread-safe;
/// the load generator gives each concurrent stream its own Client.
class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;
  Client(Client&& other) noexcept;
  Client& operator=(Client&& other) noexcept;

  /// Connects to the daemon socket. Returns false (with the socket
  /// closed) when the path does not accept connections.
  bool connect(const std::string& socket_path);

  /// Sends one request line (newline appended). Returns false when the
  /// connection is gone.
  bool send_line(const std::string& line);

  /// Reads one reply line (newline stripped). Returns false on EOF or
  /// error.
  bool recv_line(std::string* line);

  /// Convenience: send_line + recv_line. Empty optional when either
  /// direction failed.
  std::optional<std::string> request(const std::string& line);

  bool connected() const { return fd_ >= 0; }
  void close();

 private:
  int fd_ = -1;
  std::string buffer_;
};

}  // namespace grophecy::serve
