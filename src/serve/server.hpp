// TCP transport of the analysis service: an event-driven epoll reactor
// with a bounded worker pool.
//
// One reactor thread owns every connection fd: it accepts, reads into
// per-connection input buffers, slices complete NDJSON lines out of them,
// and writes replies from per-connection output queues — all nonblocking,
// level-triggered, with EPOLLOUT armed only while a queue is nonempty.
// Complete lines are dispatched to a bounded support::ThreadPool of
// protocol workers (parse → service → render); finished replies come back
// to the reactor through a completion queue plus an eventfd wakeup and
// are flushed in completion order. Replies are therefore matched to
// requests by the echoed `id`, not by position — the protocol's contract
// since v1. Concurrency is bounded twice: the worker pool caps parallel
// request handling no matter how many thousands of connections are open
// (threads « connections), and the Service's own pool bounds simultaneous
// solves below that.
//
// Backpressure is explicit instead of emergent: lines past the global or
// per-connection in-flight caps are refused immediately with a named
// `busy` error reply (code "busy") rather than queued without bound; a
// connection whose output queue exceeds its byte cap stops being read
// until the peer drains it; request lines longer than the line cap close
// the connection after an error reply; and connections idle past the
// timeout are closed and counted. All limits live in ServerOptions, are
// advertised by the `ping` capability handshake, and are observable via
// `stats` (transport section: this Server's counts) and the
// selfish_serve_{busy,idle_closed,connections,transport_inflight} metrics
// (the sums over every Server in the process).
//
// The same port speaks a sliver of HTTP for operability: a connection
// whose first bytes are an HTTP GET is answered once and closed —
// `GET /metrics` returns the Prometheus text exposition, `GET /healthz`
// returns "ok" — so a real Prometheus (or curl) can scrape the server
// without an NDJSON shim. Classification tolerates partial first reads
// (serve/protocol.hpp's sniff_first_line): under a nonblocking transport
// a lone 'G' is not yet an HTTP request.
//
// The server binds loopback by default. To leave loopback, give it a
// shared secret (--auth-secret-file): connections must then answer the
// `ping` HMAC challenge before any non-ping request is served (protocol
// code "auth_required" until they do), and `GET /metrics` answers 403 —
// only /healthz stays open, so load balancers can probe liveness without
// holding the secret. An open server (no secret) behaves exactly as
// before and should stay on loopback.
#pragma once

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/parallel.hpp"

namespace serve {

struct ServerOptions {
  std::string host = "127.0.0.1";
  int port = 0;  ///< 0 = ephemeral; the bound port is Server::port().
  /// Protocol worker threads (parse -> service -> render). They block on
  /// the Service's flights, so this bounds concurrent request *handling*;
  /// the Service's own pool bounds concurrent *solves* below it.
  /// <= 0 means all hardware threads.
  int workers = 0;
  /// Global cap on dispatched-but-unanswered requests; excess lines get
  /// an immediate `busy` reply instead of queueing unboundedly. 0 = off;
  /// negative caps are rejected at construction.
  int max_inflight = 256;
  /// Same cap per connection (one pipelining client cannot monopolize
  /// the pool). 0 = off.
  int max_inflight_per_connection = 32;
  /// Longest accepted request line; a peer exceeding it gets an error
  /// reply and its connection closed.
  std::size_t max_line_bytes = 1 << 20;
  /// Per-connection output-queue cap: past it the reactor stops reading
  /// from the connection until the peer drains (a slow reader cannot
  /// buffer the server out of memory).
  std::size_t max_output_bytes = 8 << 20;
  /// Connections idle longer than this (no bytes, nothing in flight) are
  /// closed and counted. Finite and non-negative; 0 = never.
  double idle_timeout_seconds = 0.0;
  /// Path to the deployment's shared-secret file (see fleet/auth).
  /// Nonempty = secured server: loaded at construction (throws when
  /// missing or empty) into `auth_secret`.
  std::string auth_secret_file;
  /// The shared secret itself; set directly by tests, or loaded from
  /// `auth_secret_file`. Empty = open server (the default).
  std::string auth_secret;
  ServiceOptions service;
};

class Server {
 public:
  /// Binds and listens immediately (throws support::Error on failure);
  /// serving starts with start() or serve_forever().
  explicit Server(ServerOptions options);
  Server(ServerOptions options, const engine::ExecutorRegistry& registry);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The actually bound port (resolves port 0).
  int port() const { return port_; }

  Service& service() { return *service_; }

  /// This Server's transport counts (connections, busy refusals, idle
  /// closes); the `stats` admin kind reports the same numbers to clients.
  const TransportStats& transport_stats() const { return tstats_; }

  /// Runs the reactor on the calling thread until stop() — or a client's
  /// "shutdown" request — ends it. In-flight requests are drained and
  /// their replies delivered before it returns.
  void serve_forever();

  /// Runs the reactor on a background thread (tests, benches).
  void start();

  /// Leaves the reactor, drains in-flight replies, closes every
  /// connection, joins all threads. Idempotent. Async-signal-unsafe
  /// (use request_stop from handlers).
  void stop();

  /// Signal-handler-safe stop trigger: wakes the reactor via the eventfd
  /// and shuts the listening socket down; the owner then runs stop()
  /// normally.
  void request_stop();

  /// Currently open connections (reactor-owned; an idle server with no
  /// clients reports 0 — pinned by tests).
  std::size_t live_connections();

 private:
  /// One live client, owned by the reactor. Worker tasks hold a
  /// shared_ptr so a connection closed mid-request stays valid until its
  /// last completion is dropped.
  struct Connection {
    int fd = -1;
    /// What the first bytes turned out to be (kSniff until decidable).
    enum class Mode : std::uint8_t { kSniff, kNdjson, kHttp, kDrain };
    Mode mode = Mode::kSniff;
    std::string in;           ///< Unparsed input bytes.
    std::string out;          ///< Pending output; flushed from out_offset.
    std::size_t out_offset = 0;
    int inflight = 0;         ///< Dispatched lines, reply not yet queued.
    std::uint32_t events = 0; ///< Current epoll interest mask.
    bool paused = false;      ///< Reads suspended (output over cap).
    bool peer_eof = false;
    bool close_after_flush = false;
    bool drain_after_flush = false;  ///< HTTP: SHUT_WR, then read to EOF.
    bool shutdown_after_flush = false;  ///< Server stop once flushed.
    bool closing = false;     ///< Scheduled for close this reactor batch.
    std::atomic<bool> closed{false};  ///< Published to completion tasks.
    std::chrono::steady_clock::time_point last_activity;
    /// Challenge + verdict for secured servers (challenge minted at
    /// accept); workers reference it through their per-call Wire, and the
    /// ConnectionPtr they hold keeps it alive past any close.
    AuthSession auth;
  };
  using ConnectionPtr = std::shared_ptr<Connection>;

  /// A finished request travelling worker -> reactor.
  struct Completion {
    ConnectionPtr connection;
    std::string reply;
    bool shutdown = false;
  };

  void event_loop();
  void drain_connections();
  void accept_ready();
  void handle_event(Connection* connection, std::uint32_t events);
  void read_ready(Connection* connection);
  void process_input(const ConnectionPtr& connection);
  void dispatch_line(const ConnectionPtr& connection, std::string line);
  void handle_http_line(Connection* connection);
  void drain_completions();
  void enqueue_output(Connection* connection, const std::string& bytes);
  void flush_output(Connection* connection);
  /// Recomputes and applies the connection's epoll interest mask.
  void update_interest(Connection* connection);
  /// Marks the connection for close at the end of the current reactor
  /// batch (events already harvested for it must not touch a freed fd).
  void schedule_close(Connection* connection);
  void close_scheduled();
  void close_idle_connections();
  int poll_timeout_ms() const;

  ServerOptions options_;
  std::unique_ptr<Service> service_;
  support::ThreadPool workers_;
  Wire wire_;  ///< Limits + &tstats_, handed to every handle_request.
  int listen_fd_ = -1;
  int epoll_fd_ = -1;
  int wake_fd_ = -1;  ///< eventfd: completions ready / stop requested.
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread reactor_thread_;
  std::mutex lifecycle_mutex_;  ///< Serializes stop() / ~Server.
  bool stopped_ = false;        ///< Under lifecycle_mutex_.

  // Reactor-owned (no lock): only the reactor thread touches these.
  std::unordered_map<int, ConnectionPtr> connections_;
  std::vector<Connection*> close_queue_;
  bool shutdown_pending_ = false;  ///< A shutdown reply is in some queue.

  // Worker -> reactor hand-off.
  std::mutex completions_mutex_;
  std::vector<Completion> completions_;

  TransportStats tstats_;
};

}  // namespace serve
