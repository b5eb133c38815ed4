#include "serve/socket_server.h"

#include <poll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstring>
#include <utility>

#include "serve/daemon.h"
#include "serve/protocol.h"
#include "util/error.h"
#include "util/table.h"

namespace grophecy::serve {

namespace {

/// Writes the whole buffer, tolerating short writes and EINTR. Returns
/// false once the peer is gone. MSG_NOSIGNAL: a dead peer is a return
/// code here, never a process-wide SIGPIPE.
bool send_all(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    data += static_cast<std::size_t>(n);
    size -= static_cast<std::size_t>(n);
  }
  return true;
}

sockaddr_un make_address(const std::string& path) {
  sockaddr_un address{};
  address.sun_family = AF_UNIX;
  if (path.size() >= sizeof(address.sun_path))
    throw UsageError(util::strfmt("socket path too long (%zu bytes, max %zu)",
                                  path.size(),
                                  sizeof(address.sun_path) - 1));
  std::memcpy(address.sun_path, path.c_str(), path.size() + 1);
  return address;
}

}  // namespace

/// One live client connection. Outlives its descriptors: reply callbacks
/// hold a shared_ptr to it, and `closed` (under `write_mutex`) makes a
/// late reply a no-op. Only the reader thread closes the descriptors, as
/// it exits and after `closed` is set, so no thread ever reads or writes
/// a recycled descriptor.
///
/// Replies never block the thread that produces them. A client may send a
/// long pipeline before it reads a single reply; once its receive buffer
/// is full, a reader thread blocked writing an inline reply (ping, stats,
/// shed, a memo hit) would stop draining the requests that client is
/// blocked sending, and both would wait forever. So a reply is sent with
/// MSG_DONTWAIT, what the socket does not take waits in `unsent`, and the
/// reader thread flushes it when poll() reports the socket writable.
struct SocketServer::Connection {
  /// Reply bytes a client may leave unread before it is treated as gone
  /// (closed, like a peer whose write failed): the bound on what one
  /// connection can make the server buffer.
  static constexpr std::size_t kMaxUnsentBytes = std::size_t{64} << 20;

  int fd = -1;
  /// eventfd the reader thread polls: signalled when bytes are left in
  /// `unsent`, so the reader starts waiting for POLLOUT too.
  int wake_fd = -1;
  std::mutex write_mutex;
  bool closed = false;
  std::string unsent;
  /// Whether `reader`, the thread running serve_connection, has returned.
  std::atomic<bool> finished{false};
  std::thread reader;

  ~Connection() { release_locked(); }  // a connection no reader served

  void write_line(const std::string& line) {
    std::lock_guard<std::mutex> lock(write_mutex);
    if (closed) return;
    unsent += line;
    unsent += '\n';
    flush_locked();
    if (closed || unsent.empty()) return;
    if (unsent.size() > kMaxUnsentBytes) {
      close_locked();
      return;
    }
    const std::uint64_t one = 1;
    (void)!::write(wake_fd, &one, sizeof(one));
  }

  /// Sends as much of `unsent` as the socket takes without blocking;
  /// closes the connection when the peer is gone.
  void flush_locked() {
    while (!closed && !unsent.empty()) {
      const ssize_t n = ::send(fd, unsent.data(), unsent.size(),
                               MSG_NOSIGNAL | MSG_DONTWAIT);
      if (n < 0) {
        if (errno == EINTR) continue;
        if (errno != EAGAIN && errno != EWOULDBLOCK) close_locked();
        return;
      }
      unsent.erase(0, static_cast<std::size_t>(n));
    }
  }

  void close() {
    std::lock_guard<std::mutex> lock(write_mutex);
    close_locked();
  }

  void close_locked() {
    if (closed) return;
    closed = true;
    unsent.clear();
    ::shutdown(fd, SHUT_RDWR);  // wakes the reader thread's poll
  }

  /// The reader thread's last act: closes the connection and its
  /// descriptors, which nothing touches once `closed` is set.
  void finish() {
    std::lock_guard<std::mutex> lock(write_mutex);
    close_locked();
    release_locked();
  }

  void release_locked() {
    if (fd >= 0) ::close(fd);
    if (wake_fd >= 0) ::close(wake_fd);
    fd = wake_fd = -1;
  }
};

SocketServer::SocketServer(Daemon& daemon, SocketServerOptions options)
    : daemon_(daemon), options_(std::move(options)) {}

SocketServer::~SocketServer() { stop(); }

void SocketServer::start() {
  if (running_.load()) return;
  const sockaddr_un address = make_address(options_.socket_path);
  listen_fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (listen_fd_ < 0)
    throw UsageError(util::strfmt("socket() failed: %s",
                                  std::strerror(errno)));
  ::unlink(options_.socket_path.c_str());  // stale socket from a crash
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, options_.listen_backlog) != 0) {
    const int saved = errno;
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw UsageError(util::strfmt("cannot listen on %s: %s",
                                  options_.socket_path.c_str(),
                                  std::strerror(saved)));
  }
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void SocketServer::stop() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  // Shutting the listener down makes accept() fail, ending the accept
  // loop; the descriptor is closed only once that thread stopped using it.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  ::close(listen_fd_);
  listen_fd_ = -1;

  std::vector<std::shared_ptr<Connection>> connections;
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections.swap(connections_);
  }
  for (const std::shared_ptr<Connection>& connection : connections)
    connection->close();
  for (const std::shared_ptr<Connection>& connection : connections)
    connection->reader.join();
  ::unlink(options_.socket_path.c_str());
}

std::size_t SocketServer::connections() const {
  std::lock_guard<std::mutex> lock(connections_mutex_);
  return connections_.size();
}

void SocketServer::accept_loop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listener closed by stop()
    }
    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    connection->wake_fd = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
    if (connection->wake_fd < 0) continue;  // out of descriptors: refuse
    std::lock_guard<std::mutex> lock(connections_mutex_);
    if (stopping_.load()) {
      connection->close();
      return;
    }
    // Drop the connections whose client has left; their reader threads
    // have returned, so the joins do not wait on a client.
    std::erase_if(connections_, [](const std::shared_ptr<Connection>& c) {
      if (!c->finished.load()) return false;
      c->reader.join();
      return true;
    });
    connection->reader = std::thread([this, connection] {
      serve_connection(connection);
      connection->finished.store(true);
    });
    connections_.push_back(std::move(connection));
  }
}

void SocketServer::serve_connection(std::shared_ptr<Connection> connection) {
  std::string buffer;
  char chunk[4096];
  // When a line overruns max_line_bytes we answer once and then discard
  // bytes until its newline, so a hostile client cannot make the server
  // buffer without bound — and cannot starve its own later requests.
  bool discarding = false;
  // After the client's EOF the thread stays only to deliver the replies
  // it already owes.
  bool reading = true;
  while (true) {
    pollfd fds[2] = {{connection->fd, 0, 0}, {connection->wake_fd, POLLIN, 0}};
    {
      std::lock_guard<std::mutex> lock(connection->write_mutex);
      const bool pending = !connection->unsent.empty();
      if (connection->closed || (!reading && !pending)) break;
      fds[0].events =
          static_cast<short>((reading ? POLLIN : 0) | (pending ? POLLOUT : 0));
    }
    if (::poll(fds, 2, -1) < 0) {
      if (errno == EINTR) continue;
      break;
    }
    if (fds[1].revents & POLLIN) {
      std::uint64_t signals = 0;
      (void)!::read(connection->wake_fd, &signals, sizeof(signals));
    }
    if (fds[0].revents & (POLLOUT | POLLERR | POLLHUP)) {
      std::lock_guard<std::mutex> lock(connection->write_mutex);
      connection->flush_locked();
    }
    if (!reading || !(fds[0].revents & (POLLIN | POLLERR | POLLHUP)))
      continue;
    const ssize_t n =
        ::recv(connection->fd, chunk, sizeof(chunk), MSG_DONTWAIT);
    if (n < 0 && (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK))
      continue;
    if (n <= 0) {  // EOF, a reset, or the connection closed by stop()
      reading = false;
      continue;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));

    std::size_t start = 0;
    for (std::size_t i = start; i < buffer.size(); ++i) {
      if (buffer[i] != '\n') continue;
      if (discarding) {
        discarding = false;
      } else {
        std::string line = buffer.substr(start, i - start);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (!line.empty())
          daemon_.handle_line(std::move(line),
                              [connection](std::string reply) {
                                connection->write_line(reply);
                              });
      }
      start = i + 1;
    }
    buffer.erase(0, start);

    if (!discarding && buffer.size() > options_.max_line_bytes) {
      connection->write_line(error_reply(
          "", ErrorKind::kParse,
          util::strfmt("request line exceeds %zu bytes; discarded",
                       options_.max_line_bytes)));
      buffer.clear();
      discarding = true;
    }
    if (discarding) buffer.clear();
  }
  connection->finish();
}

Client::~Client() { close(); }

Client::Client(Client&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
}

Client& Client::operator=(Client&& other) noexcept {
  if (this != &other) {
    close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
  }
  return *this;
}

bool Client::connect(const std::string& socket_path) {
  close();
  sockaddr_un address{};
  try {
    address = make_address(socket_path);
  } catch (const UsageError&) {
    return false;
  }
  fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    ::close(fd_);
    fd_ = -1;
    return false;
  }
  buffer_.clear();
  return true;
}

bool Client::send_line(const std::string& line) {
  if (fd_ < 0) return false;
  std::string framed = line;
  framed.push_back('\n');
  if (send_all(fd_, framed.data(), framed.size())) return true;
  close();
  return false;
}

bool Client::recv_line(std::string* line) {
  if (fd_ < 0) return false;
  while (true) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line->assign(buffer_, 0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) {
      close();
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::optional<std::string> Client::request(const std::string& line) {
  std::string reply;
  if (!send_line(line) || !recv_line(&reply)) return std::nullopt;
  return reply;
}

void Client::close() {
  if (fd_ < 0) return;
  ::close(fd_);
  fd_ = -1;
  buffer_.clear();
}

}  // namespace grophecy::serve
