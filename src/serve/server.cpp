#include "serve/server.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <unistd.h>

#include "engine/kinds.hpp"
#include "fleet/auth.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "serve/protocol.hpp"
#include "support/check.hpp"

namespace serve {

namespace {

/// Per-connection output-queue cap: past it the reactor stops reading
/// from the connection until the peer drains to half (a slow reader
/// cannot buffer the server out of memory).
constexpr std::size_t kMaxOutputBytes = 8 << 20;

/// Builds the one-shot HTTP response for a GET request line on the NDJSON
/// port ("GET /path HTTP/1.x" — the path is the second token). On a
/// secured server /metrics is refused (HTTP has no leg in the HMAC
/// handshake, and the exposition names internal workloads); /healthz
/// stays open so secretless load balancers can probe liveness.
std::string http_response_for(const std::string& request_line, bool secured) {
  const std::size_t path_begin = request_line.find(' ');
  std::size_t path_end = request_line.find(' ', path_begin + 1);
  if (path_end == std::string::npos) path_end = request_line.size();
  const std::string path =
      request_line.substr(path_begin + 1, path_end - path_begin - 1);

  std::string status = "200 OK";
  std::string content_type = "text/plain; charset=utf-8";
  std::string body;
  if (path == "/metrics" && secured) {
    status = "403 Forbidden";
    body = "metrics require the authenticated NDJSON protocol\n";
  } else if (path == "/metrics") {
    // The content type Prometheus' text parser expects.
    content_type = "text/plain; version=0.0.4; charset=utf-8";
    body = obs::prometheus_text();
  } else if (path == "/healthz") {
    body = "ok\n";
  } else {
    status = "404 Not Found";
    body = "not found\n";
  }
  std::string response = "HTTP/1.0 " + status +
                         "\r\nContent-Type: " + content_type +
                         "\r\nContent-Length: " +
                         std::to_string(body.size()) +
                         "\r\nConnection: close\r\n\r\n";
  response += body;
  return response;
}

}  // namespace

Server::Server(ServerOptions options)
    : Server(std::move(options), engine::builtin_executors()) {}

Server::Server(ServerOptions options,
               const engine::ExecutorRegistry& registry)
    : options_(std::move(options)),
      workers_(support::resolve_thread_count(options_.workers)) {
  SM_REQUIRE(options_.port >= 0 && options_.port <= 65535,
             "port out of range: ", options_.port);
  SM_REQUIRE(options_.max_inflight >= 0,
             "max_inflight must be non-negative (0 = off), got ",
             options_.max_inflight);
  SM_REQUIRE(options_.max_inflight_per_connection >= 0,
             "max_inflight_per_connection must be non-negative (0 = off), "
             "got ",
             options_.max_inflight_per_connection);
  SM_REQUIRE(std::isfinite(options_.idle_timeout_seconds) &&
                 options_.idle_timeout_seconds >= 0,
             "idle_timeout_seconds must be finite and non-negative "
             "(0 = off), got ",
             options_.idle_timeout_seconds);
  if (!options_.auth_secret_file.empty()) {
    options_.auth_secret = fleet::load_secret_file(options_.auth_secret_file);
  }
  service_ = std::make_unique<Service>(options_.service, registry);
  wire_.auth_secret = options_.auth_secret;
  wire_.limits.max_line_bytes = options_.max_line_bytes;
  wire_.limits.max_inflight = options_.max_inflight;
  wire_.limits.max_inflight_per_connection =
      options_.max_inflight_per_connection;
  wire_.limits.idle_timeout_seconds = options_.idle_timeout_seconds;
  wire_.stats = &tstats_;

  listen_fd_ =
      ::socket(AF_INET, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
  SM_REQUIRE(listen_fd_ >= 0, "socket(): ", std::strerror(errno));
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  if (::inet_pton(AF_INET, options_.host.c_str(), &address.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw support::InvalidArgument("invalid bind address " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&address),
             sizeof(address)) != 0 ||
      ::listen(listen_fd_, 128) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(listen_fd_);
    listen_fd_ = -1;
    throw support::Error("cannot listen on " + options_.host + ":" +
                         std::to_string(options_.port) + ": " + reason);
  }
  sockaddr_in bound{};
  socklen_t bound_size = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound),
                    &bound_size) == 0) {
    port_ = ntohs(bound.sin_port);
  }

  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  SM_REQUIRE(epoll_fd_ >= 0, "epoll_create1(): ", std::strerror(errno));
  wake_fd_ = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
  SM_REQUIRE(wake_fd_ >= 0, "eventfd(): ", std::strerror(errno));

  epoll_event ev{};
  ev.events = EPOLLIN;
  ev.data.ptr = this;  // sentinel: the listening socket
  SM_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) == 0,
             "epoll_ctl(listen): ", std::strerror(errno));
  ev.events = EPOLLIN;
  ev.data.ptr = &wake_fd_;  // sentinel: the wakeup eventfd
  SM_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
             "epoll_ctl(wake): ", std::strerror(errno));

  obs::log_info("serve", "listening",
                {{"host", Json(options_.host)},
                 {"port", Json(static_cast<double>(port_))},
                 {"workers", Json(static_cast<double>(
                                 workers_.num_threads()))}});
}

Server::~Server() { stop(); }

void Server::request_stop() {
  stopping_.store(true);
  // Only async-signal-safe calls from here down: write() to the eventfd
  // wakes the reactor out of epoll_wait, shutdown() stops the listening
  // socket from producing new accepts. close()/join() happen later in
  // stop() on a normal thread.
  if (wake_fd_ >= 0) {
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t written =
        ::write(wake_fd_, &one, sizeof(one));
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void Server::serve_forever() { event_loop(); }

void Server::start() {
  SM_REQUIRE(!reactor_thread_.joinable(), "server already started");
  reactor_thread_ = std::thread([this] { event_loop(); });
}

std::size_t Server::live_connections() {
  const std::int64_t n = tstats_.connections.value();
  return n > 0 ? static_cast<std::size_t>(n) : 0;
}

void Server::event_loop() {
  std::vector<epoll_event> events(128);
  while (!stopping_.load()) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               poll_timeout_ms());
    if (n < 0) {
      if (errno == EINTR) continue;
      obs::log_warn("serve", "epoll_wait failed",
                    {{"errno", Json(std::strerror(errno))}});
      break;
    }
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == this) {
        accept_ready();
      } else if (tag == &wake_fd_) {
        drain_completions();
      } else {
        // Connection events can be stale within a batch (an earlier event
        // scheduled the close); `closing` + the map lookup reject them
        // before they can touch a dead connection.
        Connection* connection = static_cast<Connection*>(tag);
        if (connection->closing) continue;
        const auto it = connections_.find(connection->fd);
        if (it == connections_.end() || it->second.get() != connection) {
          continue;
        }
        handle_event(connection, events[i].events);
      }
      if (stopping_.load()) break;
    }
    close_scheduled();
    if (options_.idle_timeout_seconds > 0) {
      close_idle_connections();
      close_scheduled();
    }
  }
  drain_connections();
}

int Server::poll_timeout_ms() const {
  // Without an idle timeout the reactor is purely event-driven; with one
  // it must wake periodically to scan, at a fraction of the timeout so
  // expiry is detected within ~25% of the configured value.
  // Clamped before the conversion: a long timeout must not overflow int.
  if (options_.idle_timeout_seconds <= 0 || connections_.empty()) return -1;
  return static_cast<int>(
      std::clamp(options_.idle_timeout_seconds * 250.0, 10.0, 1000.0));
}

void Server::accept_ready() {
  for (;;) {
    const int fd =
        ::accept4(listen_fd_, nullptr, nullptr, SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      // Transient conditions must not kill a long-running service: a
      // client aborting mid-handshake (ECONNABORTED/EPROTO) or a
      // descriptor-exhaustion burst (EMFILE/ENFILE — yield this round so
      // in-flight connections can drain and free descriptors).
      if (errno == EINTR || errno == ECONNABORTED || errno == EPROTO) {
        obs::log_warn("serve", "accept failed (transient)",
                      {{"errno", Json(std::strerror(errno))}});
        continue;
      }
      if (errno == EMFILE || errno == ENFILE) {
        obs::log_warn("serve", "out of file descriptors; backing off",
                      {{"errno", Json(std::strerror(errno))}});
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        return;
      }
      return;  // listening socket shut down (stop) or fatal error
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto connection = std::make_shared<Connection>();
    connection->fd = fd;
    if (!options_.auth_secret.empty()) {
      connection->auth.challenge = fleet::random_challenge();
    }
    connection->last_activity = std::chrono::steady_clock::now();
    connection->events = EPOLLIN;
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.ptr = connection.get();
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) != 0) {
      obs::log_warn("serve", "epoll_ctl(add) failed",
                    {{"errno", Json(std::strerror(errno))}});
      ::close(fd);
      continue;
    }
    connections_.emplace(fd, std::move(connection));
    tstats_.accepted.add();
    tstats_.connections.add(1);
    obs::log_debug("serve", "connection accepted",
                   {{"fd", Json(static_cast<double>(fd))}});
  }
}

void Server::handle_event(Connection* connection, std::uint32_t events) {
  if (events & (EPOLLERR | EPOLLHUP)) {
    // The peer is gone in both directions; any undelivered reply bytes
    // have nowhere to go.
    schedule_close(connection);
    return;
  }
  if (events & EPOLLOUT) flush_output(connection);
  if (connection->closing) return;
  if (events & EPOLLIN) read_ready(connection);
}

void Server::read_ready(Connection* connection) {
  char chunk[65536];
  for (;;) {
    const ssize_t n = ::recv(connection->fd, chunk, sizeof(chunk), 0);
    if (n > 0) {
      connection->last_activity = std::chrono::steady_clock::now();
      if (connection->mode == Connection::Mode::kDrain) continue;  // discard
      connection->in.append(chunk, static_cast<std::size_t>(n));
      // A peer streaming bytes with no newline is caught by the line cap
      // in process_input; stop reading this round once past it so one
      // hostile connection cannot starve the reactor.
      if (connection->in.size() > options_.max_line_bytes) break;
      continue;
    }
    if (n == 0) {
      connection->peer_eof = true;
      break;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) break;
    schedule_close(connection);  // connection reset or similar
    return;
  }

  const auto it = connections_.find(connection->fd);
  if (it == connections_.end()) return;
  process_input(it->second);
  if (connection->closing) return;

  if (connection->peer_eof) {
    // Everything the peer will ever send is in `in`; deliver what is
    // still owed (dispatched or queued replies), then close.
    if (connection->inflight == 0 &&
        connection->out_offset >= connection->out.size()) {
      schedule_close(connection);
    } else {
      connection->close_after_flush = true;
      update_interest(connection);
    }
  }
}

void Server::process_input(const ConnectionPtr& connection) {
  Connection* c = connection.get();
  for (;;) {
    if (c->closing) return;
    switch (c->mode) {
      case Connection::Mode::kSniff: {
        const FirstLine first = sniff_first_line(c->in);
        if (first == FirstLine::kNeedMore) return;
        c->mode = first == FirstLine::kHttpGet ? Connection::Mode::kHttp
                                               : Connection::Mode::kNdjson;
        continue;
      }
      case Connection::Mode::kHttp: {
        if (c->in.find('\n') == std::string::npos) {
          if (c->in.size() > options_.max_line_bytes) {
            obs::log_warn("serve", "request line exceeds cap; closing",
                          {{"fd", Json(static_cast<double>(c->fd))}});
            c->in.clear();
            c->mode = Connection::Mode::kDrain;
            c->close_after_flush = true;
            enqueue_output(c, "HTTP/1.0 414 URI Too Long\r\n"
                              "Connection: close\r\n\r\n");
          }
          return;
        }
        handle_http_line(c);
        return;  // mode is kDrain now; remaining header bytes are discarded
      }
      case Connection::Mode::kDrain:
        c->in.clear();
        return;
      case Connection::Mode::kNdjson: {
        const std::size_t newline = c->in.find('\n');
        if (newline == std::string::npos) {
          if (c->in.size() > options_.max_line_bytes) {
            obs::log_warn("serve", "request line exceeds cap; closing",
                          {{"fd", Json(static_cast<double>(c->fd))}});
            c->in.clear();
            c->mode = Connection::Mode::kDrain;
            c->close_after_flush = true;
            enqueue_output(
                c, render_error(Json(), "request line exceeds " +
                                            std::to_string(
                                                options_.max_line_bytes) +
                                            " bytes"));
          }
          return;
        }
        std::string line = c->in.substr(0, newline);
        c->in.erase(0, newline + 1);
        if (!line.empty() && line.back() == '\r') line.pop_back();
        if (line.empty()) continue;
        dispatch_line(connection, std::move(line));
        continue;
      }
    }
  }
}

void Server::handle_http_line(Connection* connection) {
  const std::size_t newline = connection->in.find('\n');
  std::string line = connection->in.substr(0, newline);
  if (!line.empty() && line.back() == '\r') line.pop_back();
  connection->in.clear();
  // One-shot HTTP: answer, half-close our side once flushed, then keep
  // reading until the client's EOF — closing with unread header bytes
  // pending could RST the response away before the scraper reads it.
  connection->mode = Connection::Mode::kDrain;
  connection->drain_after_flush = true;
  enqueue_output(connection,
                 http_response_for(line, !options_.auth_secret.empty()));
}

void Server::dispatch_line(const ConnectionPtr& connection, std::string line) {
  Connection* c = connection.get();
  const std::int64_t global = tstats_.inflight.value();
  const bool over_global =
      options_.max_inflight > 0 && global >= options_.max_inflight;
  const bool over_connection =
      options_.max_inflight_per_connection > 0 &&
      c->inflight >= options_.max_inflight_per_connection;
  if (over_global || over_connection) {
    // Refuse now, with a reply the client can match by id, instead of
    // queueing without bound. The named scope tells operators which cap
    // to raise.
    tstats_.busy.add();
    enqueue_output(c, render_busy(line, over_global ? "server" : "connection"));
    return;
  }

  c->inflight += 1;
  tstats_.inflight.add(1);
  workers_.submit([this, connection, line = std::move(line)] {
    // Per-call Wire: the shared limits/stats plus *this* connection's
    // auth session (the held ConnectionPtr keeps it alive).
    Wire wire = wire_;
    wire.auth = &connection->auth;
    HandledLine handled = handle_request(*service_, line, wire);
    {
      const std::lock_guard<std::mutex> lock(completions_mutex_);
      completions_.push_back(
          {connection, std::move(handled.reply), handled.shutdown});
    }
    const std::uint64_t one = 1;
    [[maybe_unused]] const ssize_t written =
        ::write(wake_fd_, &one, sizeof(one));
  });
}

void Server::drain_completions() {
  std::uint64_t ticks = 0;
  [[maybe_unused]] const ssize_t consumed =
      ::read(wake_fd_, &ticks, sizeof(ticks));

  std::vector<Completion> batch;
  {
    const std::lock_guard<std::mutex> lock(completions_mutex_);
    batch.swap(completions_);
  }
  for (Completion& completion : batch) {
    tstats_.inflight.add(-1);
    Connection* c = completion.connection.get();
    if (c->closed.load(std::memory_order_acquire)) {
      // The client left before its reply was ready. A shutdown request
      // still takes effect — the reply just has nowhere to go.
      if (completion.shutdown) stopping_.store(true);
      continue;
    }
    c->inflight -= 1;
    c->last_activity = std::chrono::steady_clock::now();
    // Reply first, act on shutdown only once the bytes are flushed:
    // acting earlier would race teardown against the client's read of
    // this very response.
    if (completion.shutdown) c->shutdown_after_flush = true;
    enqueue_output(c, completion.reply);
  }
}

void Server::enqueue_output(Connection* connection, const std::string& bytes) {
  connection->out.append(bytes);
  flush_output(connection);
  if (connection->closing) return;
  const std::size_t pending = connection->out.size() - connection->out_offset;
  if (pending > kMaxOutputBytes && !connection->paused) {
    // A slow reader cannot buffer the server out of memory: stop reading
    // (and so dispatching) for this connection until the peer drains.
    connection->paused = true;
    update_interest(connection);
  }
}

void Server::flush_output(Connection* connection) {
  while (connection->out_offset < connection->out.size()) {
    const ssize_t n = ::send(
        connection->fd, connection->out.data() + connection->out_offset,
        connection->out.size() - connection->out_offset,
        MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      connection->out_offset += static_cast<std::size_t>(n);
      connection->last_activity = std::chrono::steady_clock::now();
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    schedule_close(connection);  // peer is gone; undeliverable
    return;
  }
  if (connection->out_offset >= connection->out.size()) {
    connection->out.clear();
    connection->out_offset = 0;
  } else if (connection->out_offset > (1u << 18)) {
    // Compact occasionally so a long-lived slow connection does not keep
    // already-sent bytes resident forever.
    connection->out.erase(0, connection->out_offset);
    connection->out_offset = 0;
  }

  const std::size_t pending = connection->out.size() - connection->out_offset;
  if (connection->paused && pending <= kMaxOutputBytes / 2) {
    connection->paused = false;
  }
  if (pending == 0) {
    if (connection->drain_after_flush) {
      connection->drain_after_flush = false;
      ::shutdown(connection->fd, SHUT_WR);
    }
    if (connection->shutdown_after_flush) {
      connection->shutdown_after_flush = false;
      shutdown_pending_ = true;
      stopping_.store(true);
      const std::uint64_t one = 1;
      [[maybe_unused]] const ssize_t written =
          ::write(wake_fd_, &one, sizeof(one));
    }
    if (connection->close_after_flush && connection->inflight == 0) {
      schedule_close(connection);
      return;
    }
  }
  update_interest(connection);
}

void Server::update_interest(Connection* connection) {
  if (connection->closing) return;
  std::uint32_t wanted = 0;
  if (!connection->paused && !connection->peer_eof) wanted |= EPOLLIN;
  if (connection->out_offset < connection->out.size()) wanted |= EPOLLOUT;
  if (wanted == connection->events) return;
  epoll_event ev{};
  ev.events = wanted;
  ev.data.ptr = connection;
  if (::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, connection->fd, &ev) == 0) {
    connection->events = wanted;
  }
}

void Server::schedule_close(Connection* connection) {
  if (connection->closing) return;
  connection->closing = true;
  connection->closed.store(true, std::memory_order_release);
  close_queue_.push_back(connection);
}

void Server::close_scheduled() {
  for (Connection* connection : close_queue_) {
    ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, connection->fd, nullptr);
    ::close(connection->fd);
    tstats_.connections.add(-1);
    obs::log_debug("serve", "connection closed",
                   {{"fd", Json(static_cast<double>(connection->fd))}});
    connections_.erase(connection->fd);  // may free `connection`
  }
  close_queue_.clear();
}

void Server::close_idle_connections() {
  const auto now = std::chrono::steady_clock::now();
  const auto limit = std::chrono::duration<double>(
      options_.idle_timeout_seconds);
  for (const auto& [fd, connection] : connections_) {
    Connection* c = connection.get();
    if (c->closing || c->inflight > 0) continue;
    if (c->out_offset < c->out.size()) continue;  // still owes bytes
    if (now - c->last_activity < limit) continue;
    tstats_.idle_closed.add();
    obs::log_debug("serve", "idle connection closed",
                   {{"fd", Json(static_cast<double>(fd))}});
    schedule_close(c);
  }
}

void Server::drain_connections() {
  // The stop path: accept no more lines, deliver every reply already owed
  // (dispatched requests finish on the pool and flush), then close. This
  // is the drain the CLI promises on SIGTERM.
  for (const auto& [fd, connection] : connections_) {
    Connection* c = connection.get();
    if (c->closing) continue;
    ::shutdown(c->fd, SHUT_RD);
    c->in.clear();
    c->mode = Connection::Mode::kDrain;
    c->paused = false;
    if (c->inflight == 0 && c->out_offset >= c->out.size()) {
      schedule_close(c);
    } else {
      c->close_after_flush = true;
      update_interest(c);
    }
  }
  close_scheduled();

  std::vector<epoll_event> events(128);
  while (!connections_.empty()) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()), 100);
    if (n < 0 && errno != EINTR) break;
    for (int i = 0; i < n; ++i) {
      void* tag = events[i].data.ptr;
      if (tag == this) continue;  // no new work during drain
      if (tag == &wake_fd_) {
        drain_completions();
        continue;
      }
      Connection* connection = static_cast<Connection*>(tag);
      if (connection->closing) continue;
      const auto it = connections_.find(connection->fd);
      if (it == connections_.end() || it->second.get() != connection) continue;
      handle_event(connection, events[i].events);
    }
    close_scheduled();
  }
}

void Server::stop() {
  request_stop();
  if (reactor_thread_.joinable()) reactor_thread_.join();

  const std::lock_guard<std::mutex> lock(lifecycle_mutex_);
  if (stopped_) return;
  stopped_ = true;

  // The reactor has exited and drained; wait out any worker still
  // rendering a reply nobody will read (its completion is dropped, but it
  // must not outlive the Service it references).
  workers_.wait_idle();

  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  if (wake_fd_ >= 0) {
    ::close(wake_fd_);
    wake_fd_ = -1;
  }
  if (epoll_fd_ >= 0) {
    ::close(epoll_fd_);
    epoll_fd_ = -1;
  }
  obs::log_info("serve", "stopped");
}

}  // namespace serve
