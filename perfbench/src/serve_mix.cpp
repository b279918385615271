// Workload `serve-mix`: an in-process serve::Server on loopback with a
// cache directory, sized to the cores, under two load phases.
//
//   1. Open loop. One generator thread sends `point` queries over
//      kConnections pipelined connections at the fixed rate kRate and
//      times each reply from the moment the request was due. The mix:
//      repeats of kLruKeys keys resident in the LRU, first touches of keys
//      pre-solved into the store during set-up, and a kColdShare of fresh
//      d=2,f=2 points (≈50 ms solves) that run through single-flight, the
//      fleet lease, the store write and the journal.
//   2. Closed loop. kConnections sessions replay LRU hits, each keeping
//      kClosedWindow requests in flight (one in a traced run); one batch
//      is kClosedRequests requests per session. batch_s is the median
//      batch, timed over all kConnections CPUs and corrected to nominal
//      host speed (time_on_quiet_cpus), as is each set-up.
//
// Every reply must be ok; every hit body must equal, byte for byte, the
// payload that key was first answered (or pre-solved) with; every solved
// body must carry a certified bracket.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <deque>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "engine/kinds.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

namespace fs = std::filesystem;

constexpr int kConnections = 4;
constexpr double kRate = 800.0;         ///< Offered requests per second.
constexpr double kColdShare = 0.025;    ///< ≈20 solves/s: one core busy.
constexpr double kStoreShare = 0.05;    ///< First touches of stored keys.
constexpr int kLruKeys = 16;
constexpr double kOpenShare = 0.6;      ///< Of the run's seconds.
constexpr int kClosedRequests = 10000;  ///< Per session per batch.
/// Requests each closed-loop session keeps in flight in an untraced run.
/// Sent one at a time, every request hops across idle CPUs; on a busy
/// host each such wake-up took milliseconds and ran whole runs' batches
/// 3-5x slower, where 8 in flight ran them at most 2.5x slower and 32
/// keep the workers fed. Traced runs send one at a time, so each request
/// span is that request's own latency and spans do not overlap.
constexpr std::size_t kClosedWindow = 32;
constexpr double kReplyTimeout = 10.0;  ///< Seconds after the last send.
/// Generator lateness (p99, ms) past which the generator has fallen
/// behind its schedule — a backlog, not scheduling jitter — and the run
/// is marked invalid. Latencies are timed from the due time either way.
constexpr double kLateLimitMs = 50.0;
constexpr double kEpsilon = 1e-3;
constexpr int kCodecChunk = 64;
/// Traced closed-loop batches per run: each records one span per request,
/// so two keep the span file near 20 MB.
constexpr std::size_t kTracedClosedBatches = 2;

enum class Kind : std::uint8_t { kLru, kStore, kCold };

struct Key {
  selfish::AttackParams params;
  std::string line;  ///< The request object, without id.
};

Key make_key(double p, int d, int f) {
  Key key;
  key.params = {.p = p, .gamma = 0.5, .d = d, .f = f, .l = 4};
  key.line = "{\"kind\":\"point\",\"p\":" + serve::Json(p).dump() +
             ",\"gamma\":0.5,\"d\":" + std::to_string(d) +
             ",\"f\":" + std::to_string(f) + "}";
  return key;
}

engine::GenericJob job_of(const Key& key) {
  engine::PointQuery query;
  query.params = key.params;
  query.analysis.epsilon = kEpsilon;
  return engine::make_point_job(query);
}

/// The open-loop schedule: request i is due at i / kRate.
struct Schedule {
  std::vector<Key> lru, store, cold;
  std::vector<Kind> kind;
  std::vector<int> key;  ///< Index into the kind's key list.
};

Schedule make_schedule(std::uint64_t seed, std::size_t n) {
  support::Rng rng(seed);
  Schedule s;
  // Distinct p per key: LRU keys on a coarse d=2,f=2 grid, cold keys at
  // six decimals (never on that grid), stored keys on a d=2,f=1 grid.
  for (int k = 0; k < kLruKeys; ++k) {
    s.lru.push_back(make_key(0.2 + 0.01 * k, 2, 2));
  }
  const std::size_t n_cold = static_cast<std::size_t>(n * kColdShare);
  const std::size_t n_store = static_cast<std::size_t>(n * kStoreShare);
  std::set<double> cold_ps;
  while (cold_ps.size() < n_cold) {
    const double p = std::round((0.2 + 0.15 * rng.next_double()) * 1e6) / 1e6;
    if (std::fabs(p * 100 - std::round(p * 100)) > 1e-9) cold_ps.insert(p);
  }
  for (const double p : cold_ps) s.cold.push_back(make_key(p, 2, 2));
  const double offset = 1e-5 * static_cast<double>(rng.next_below(4));
  for (std::size_t i = 0; i < n_store; ++i) {
    s.store.push_back(make_key(
        std::round((0.05 + 0.0005 * static_cast<double>(i) + offset) * 1e5) /
            1e5,
        2, 1));
  }
  // A shuffled deck fixes each class's share exactly.
  s.kind.assign(n, Kind::kLru);
  std::fill(s.kind.begin(), s.kind.begin() + n_cold, Kind::kCold);
  std::fill(s.kind.begin() + n_cold, s.kind.begin() + n_cold + n_store,
            Kind::kStore);
  for (std::size_t i = n; i > 1; --i) {
    std::swap(s.kind[i - 1], s.kind[rng.next_below(i)]);
  }
  std::size_t next_cold = 0, next_store = 0;
  for (const Kind kind : s.kind) {
    if (kind == Kind::kCold) s.key.push_back(static_cast<int>(next_cold++));
    if (kind == Kind::kStore) s.key.push_back(static_cast<int>(next_store++));
    if (kind == Kind::kLru) {
      s.key.push_back(static_cast<int>(rng.next_below(kLruKeys)));
    }
  }
  return s;
}

/// An owned loopback connection for the open-loop generator.
class Socket {
 public:
  explicit Socket(int port) : fd_(::socket(AF_INET, SOCK_STREAM, 0)) {
    SM_REQUIRE(fd_ >= 0, "socket() failed");
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    SM_REQUIRE(::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                         sizeof(addr)) == 0,
               "connect to 127.0.0.1:", port, " failed");
    const int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  ~Socket() { ::close(fd_); }
  Socket(const Socket&) = delete;
  Socket& operator=(const Socket&) = delete;

  int fd() const { return fd_; }

  void send_all(const std::string& bytes) const {
    std::size_t sent = 0;
    while (sent < bytes.size()) {
      const ssize_t n = ::send(fd_, bytes.data() + sent, bytes.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      SM_REQUIRE(n > 0, "send failed");
      sent += static_cast<std::size_t>(n);
    }
  }

  /// Appends whatever is readable now; false once the peer closed.
  bool read_available(std::string& into) const {
    char buffer[65536];
    for (;;) {
      const ssize_t n = ::recv(fd_, buffer, sizeof(buffer), MSG_DONTWAIT);
      if (n > 0) {
        into.append(buffer, static_cast<std::size_t>(n));
        continue;
      }
      if (n < 0 && errno == EINTR) continue;
      return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
    }
  }

 private:
  int fd_;
};

/// One server with its store, pre-solved payloads and open sessions: the
/// state set-up builds and the measurement uses.
struct Rig {
  std::string dir;
  std::vector<std::string> lru_payload, store_payload;
  std::unique_ptr<serve::Server> server;
  std::vector<std::unique_ptr<Socket>> sockets;
  std::vector<std::unique_ptr<serve::Client>> sessions;

  ~Rig() {
    sockets.clear();
    sessions.clear();
    if (server != nullptr) server->stop();
    server.reset();
    std::error_code ignored;
    fs::remove_all(dir, ignored);
  }
};

std::unique_ptr<Rig> set_up(const Schedule& s, const std::string& dir,
                            Result& result) {
  auto rig = std::make_unique<Rig>();
  rig->dir = dir;
  fs::remove_all(dir);
  fs::create_directories(dir);
  // Pre-solve the LRU and store keys into the store, in parallel.
  std::vector<const Key*> keys;
  for (const Key& key : s.lru) keys.push_back(&key);
  for (const Key& key : s.store) keys.push_back(&key);
  std::vector<std::string> payloads(keys.size());
  {
    const engine::ResultStore store(dir);
    const engine::ExecContext context{dir, 1};
    support::parallel_for(keys.size(), kConnections, [&](std::size_t i) {
      payloads[i] = engine::run_generic(engine::builtin_executors(), store,
                                        context, job_of(*keys[i]))
                        .result.payload;
    });
  }
  rig->lru_payload.assign(payloads.begin(), payloads.begin() + kLruKeys);
  rig->store_payload.assign(payloads.begin() + kLruKeys, payloads.end());

  serve::ServerOptions options;
  options.port = 0;
  options.workers = kConnections;
  // The generator multiplexes many independent users over kConnections
  // connections, so the per-connection cap (one pipelining client must
  // not monopolize the pool) would refuse users, not a greedy client. The
  // global cap (256 in flight, ≈0.3 s of arrivals) still bounds the queue.
  options.max_inflight_per_connection = options.max_inflight;
  options.service.cache_dir = dir;
  options.service.threads = kConnections;
  options.service.job_threads = 1;
  rig->server = std::make_unique<serve::Server>(options);
  rig->server->start();
  const int port = rig->server->port();
  for (int c = 0; c < kConnections; ++c) {
    rig->sessions.push_back(std::make_unique<serve::Client>("127.0.0.1", port));
    rig->sockets.push_back(std::make_unique<Socket>(port));
  }
  // Warm the LRU: first touch of each LRU key is a store hit.
  for (int k = 0; k < kLruKeys; ++k) {
    const serve::Reply reply = rig->sessions[0]->request(s.lru[k].line);
    result.attempted(1);
    if (!result.check(reply.ok && reply.source == "store" &&
                          reply.body == rig->lru_payload[k],
                      "LRU warm-up reply is the stored payload")) {
      result.failed(1);
    }
  }
  return rig;
}

/// A solved body carries a certified bracket for its point. The report
/// prints six decimals, so comparisons allow one unit of rounding, plus
/// the solver slack above β_hi (kSolverSlack): p=0.2068 printed
/// "[0.263672, 0.264648]; strategy achieves 0.264649".
bool certified(const std::string& body, const selfish::AttackParams& params) {
  constexpr double kPrinted = 1e-6;
  double lo = 0, hi = 0, errev = 0;
  return parse_bracket(body, lo, hi, errev) &&
         hi - lo < kEpsilon + kPrinted && hi >= params.p - kPrinted &&
         errev >= lo - kEpsilon - kPrinted &&
         errev <= hi + kSolverSlack + kPrinted;
}

struct OpenLoop {
  std::vector<double> hit_ms, lru_ms, store_ms, solve_ms, late_ms;
  Counts counts;
};

/// Runs the open-loop phase: `n` requests at kRate, one thread.
OpenLoop run_open_loop(const Schedule& s, Rig& rig, Tracer& tracer,
                       Result& result) {
  const std::size_t n = s.kind.size();
  std::vector<std::string> lines(n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::vector<Key>& keys = s.kind[i] == Kind::kLru     ? s.lru
                                   : s.kind[i] == Kind::kStore ? s.store
                                                               : s.cold;
    const std::string& body = keys[static_cast<std::size_t>(s.key[i])].line;
    lines[i] = "{\"v\":1,\"id\":" + std::to_string(i) + "," + body.substr(1) +
               "\n";
  }
  std::vector<double> due(n), sent(n, -1.0), done(n, -1.0);
  std::vector<std::string> inbox(kConnections);
  OpenLoop out;
  std::size_t received = 0, failed = 0;
  std::vector<SpanRecord> spans;
  const int root = tracer.next_id();

  const auto on_reply = [&](const std::string& line, double at) {
    serve::Reply reply;
    try {
      reply = serve::decode_reply(line);
    } catch (const std::exception&) {
      result.check(false, "reply line decodes");
      ++failed;
      return;
    }
    const serve::Json* id = reply.raw.find("id");
    if (id == nullptr || id->as_number() < 0 ||
        id->as_number() >= static_cast<double>(n) ||
        done[static_cast<std::size_t>(id->as_number())] >= 0) {
      result.check(false, "reply id matches one outstanding request");
      ++failed;
      return;
    }
    const std::size_t i = static_cast<std::size_t>(id->as_number());
    done[i] = at;
    ++received;
    const double ms = (at - due[i]) * 1e3;
    const std::size_t k = static_cast<std::size_t>(s.key[i]);
    // Messages are built only for failures: this runs on the generator
    // thread between sends.
    const auto fail = [&result](const std::string& what) {
      return result.check(false, what);
    };
    bool ok = reply.ok || fail("reply not ok: " + reply.code + " " +
                               reply.error);
    if (ok && s.kind[i] == Kind::kLru) {
      ok = (reply.source == "lru" && reply.body == rig.lru_payload[k]) ||
           fail("LRU hit differs from the key's first reply");
      out.lru_ms.push_back(ms);
    } else if (ok && s.kind[i] == Kind::kStore) {
      ok = (reply.source == "store" && reply.body == rig.store_payload[k]) ||
           fail("store hit differs from the pre-solved payload");
      out.store_ms.push_back(ms);
    } else if (ok) {
      ok = (reply.source == "solve" &&
            certified(reply.body, s.cold[k].params)) ||
           fail("solved body lacks a certified bracket (" + reply.source +
                "): " + reply.body.substr(0, reply.body.find('\n', 80)));
      out.solve_ms.push_back(ms);
    }
    if (ok && s.kind[i] != Kind::kCold) out.hit_ms.push_back(ms);
    if (!ok) ++failed;
    if (tracer.enabled()) {
      SpanRecord span;
      span.id = tracer.next_id();
      span.parent = root;
      span.name = "request." + reply.source;
      span.layer = "transport";
      span.start = sent[i];
      span.end = at;
      spans.push_back(std::move(span));
    }
  };

  const Counts before = read_counts();
  const double t0 = now_s() + 0.05;
  for (std::size_t i = 0; i < n; ++i) {
    due[i] = t0 + static_cast<double>(i) / kRate;
  }
  const double deadline = due.back() + kReplyTimeout;
  std::size_t next = 0;
  std::vector<pollfd> fds(kConnections);
  for (int c = 0; c < kConnections; ++c) {
    fds[c].fd = rig.sockets[c]->fd();
    fds[c].events = POLLIN;
  }
  while (received < n) {
    double now = now_s();
    if (now > deadline) break;
    while (next < n && due[next] <= now) {
      rig.sockets[next % kConnections]->send_all(lines[next]);
      sent[next] = now_s();
      ++next;
      now = sent[next - 1];
    }
    const double wait =
        next < n ? std::max(0.0, due[next] - now_s()) : deadline - now;
    timespec timeout{};
    timeout.tv_sec = static_cast<time_t>(wait);
    timeout.tv_nsec = static_cast<long>((wait - std::floor(wait)) * 1e9);
    if (::ppoll(fds.data(), fds.size(), &timeout, nullptr) <= 0) continue;
    const double at = now_s();
    for (int c = 0; c < kConnections; ++c) {
      if ((fds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      std::string& buffer = inbox[c];
      const bool open = rig.sockets[c]->read_available(buffer);
      std::size_t start = 0;
      for (std::size_t end; (end = buffer.find('\n', start)) != std::string::npos;
           start = end + 1) {
        on_reply(buffer.substr(start, end - start), at);
      }
      buffer.erase(0, start);
      if (!open) fds[c].fd = -1;  // peer closed; its requests time out
    }
  }
  const double finished = now_s();
  out.counts = read_counts().minus(before);

  const std::size_t timeouts = n - received;
  result.attempted(n);
  result.failed(failed + timeouts);
  result.check(timeouts == 0, std::to_string(timeouts) +
                                  " open-loop requests got no reply in time");
  for (std::size_t i = 0; i < n; ++i) {
    if (sent[i] >= 0) out.late_ms.push_back((sent[i] - due[i]) * 1e3);
  }
  if (tracer.enabled()) {
    // The open loop idles between arrivals by design, so its root is
    // kept out of the ledger (ledger=0); the closed loop and the codec
    // spans carry the coverage check.
    SpanRecord span;
    span.id = root;
    span.name = "open-loop";
    span.layer = "bench";
    span.start = t0;
    span.end = finished;
    span.attrs.emplace_back("ledger", 0.0);
    spans.push_back(std::move(span));
    tracer.record_all(std::move(spans));
  }
  return out;
}

struct ClosedBatch {
  double wall = 0.0;
  std::vector<double> client_s;
  Counts counts;
};

/// One closed-loop batch: every session replays kClosedRequests LRU hits,
/// keeping up to `window` of them in flight and awaiting replies in order.
/// A request's latency runs from its send to its reply, so spans overlap
/// when window > 1; traced batches use window 1.
ClosedBatch run_closed_batch(const Schedule& s, Rig& rig, Tracer& tracer,
                             int batch_index, std::size_t window,
                             Result& result) {
  ClosedBatch out;
  std::vector<std::vector<double>> latencies(kConnections);
  std::vector<std::vector<SpanRecord>> spans(kConnections);
  std::vector<std::size_t> failures(kConnections, 0);
  std::vector<int> roots(kConnections);
  for (int c = 0; c < kConnections; ++c) roots[c] = tracer.next_id();
  const Counts before = read_counts();
  const double b0 = now_s();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      serve::Client& session = *rig.sessions[c];
      struct Pending {
        std::uint64_t id;
        std::size_t key;
        double sent;
      };
      std::deque<Pending> pending;
      const double start = now_s();
      int next = 0;
      while (next < kClosedRequests || !pending.empty()) {
        while (next < kClosedRequests && pending.size() < window) {
          const std::size_t k =
              static_cast<std::size_t>(next + c + batch_index) % kLruKeys;
          const double q0 = now_s();
          std::uint64_t id = 0;
          try {
            id = session.send(s.lru[k].line);
          } catch (const std::exception&) {
            ++failures[c];
            ++next;
            continue;
          }
          pending.push_back({id, k, q0});
          ++next;
        }
        if (pending.empty()) continue;
        const Pending request = pending.front();
        pending.pop_front();
        serve::Reply reply;
        try {
          reply = session.await(request.id);
        } catch (const std::exception&) {
          reply.ok = false;
        }
        const double q1 = now_s();
        latencies[c].push_back(q1 - request.sent);
        if (!reply.ok || reply.body != rig.lru_payload[request.key]) {
          ++failures[c];
        }
        if (tracer.enabled()) {
          SpanRecord span;
          span.id = tracer.next_id();
          span.parent = roots[c];
          span.name = "request.lru";
          span.layer = "transport";
          span.thread = c;
          span.start = request.sent;
          span.end = q1;
          spans[c].push_back(std::move(span));
        }
      }
      if (tracer.enabled()) {
        SpanRecord root;
        root.id = roots[c];
        root.name = "session";
        root.layer = "bench";
        root.thread = c;
        root.start = start;
        root.end = now_s();
        spans[c].push_back(std::move(root));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  out.wall = now_s() - b0;
  out.counts = read_counts().minus(before);
  std::size_t failed = 0;
  for (int c = 0; c < kConnections; ++c) {
    failed += failures[c];
    out.client_s.insert(out.client_s.end(), latencies[c].begin(),
                        latencies[c].end());
  }
  result.attempted(static_cast<std::uint64_t>(kConnections) * kClosedRequests);
  result.failed(failed);
  result.check(failed == 0,
               "closed-loop hits ok and byte-identical to the first reply");
  if (tracer.enabled()) {
    // The server's own share of each request (parse → service → render)
    // from the request-latency histogram; the rest is transport: client,
    // sockets and the reactor.
    const double server_mean =
        out.counts.request_seconds.count > 0
            ? out.counts.request_seconds.sum /
                  static_cast<double>(out.counts.request_seconds.count)
            : 0.0;
    for (std::vector<SpanRecord>& session_spans : spans) {
      for (SpanRecord& span : session_spans) {
        if (span.name == "request.lru") {
          span.split.emplace_back(
              "serve", std::min(server_mean, span.end - span.start));
        }
      }
      tracer.record_all(std::move(session_spans));
    }
  }
  return out;
}

/// Times serve::parse_request and serve::render_result on the workload's
/// own lines and bodies, kCodecChunk calls per span.
void run_codec(const Schedule& s, const Rig& rig, Tracer& tracer,
               Result& result) {
  std::vector<std::string> lines;
  std::vector<serve::QueryOutcome> outcomes;
  for (std::size_t i = 0; i < std::min<std::size_t>(s.kind.size(), 4096); ++i) {
    const std::size_t k = static_cast<std::size_t>(s.key[i]);
    const Key& key = s.kind[i] == Kind::kLru     ? s.lru[k]
                     : s.kind[i] == Kind::kStore ? s.store[k]
                                                 : s.cold[k];
    lines.push_back(key.line);
    // Render cost depends on the body's bytes only; a cold key has no
    // payload yet, so an LRU body of the same model stands in for it.
    serve::QueryOutcome outcome;
    outcome.payload = std::make_shared<const std::string>(
        s.kind[i] == Kind::kStore ? rig.store_payload[k]
                                  : rig.lru_payload[k % kLruKeys]);
    outcome.source = serve::Source::kLru;
    outcome.cached = true;
    outcomes.push_back(std::move(outcome));
  }
  std::vector<double> parse_us, render_us;
  std::size_t bytes = 0;
  Span root(tracer, "codec", "bench");
  for (std::size_t begin = 0; begin + kCodecChunk <= lines.size();
       begin += kCodecChunk) {
    Span parse(tracer, "parse_request", "serve", root.id());
    for (std::size_t i = begin; i < begin + kCodecChunk; ++i) {
      bytes += serve::parse_request(lines[i]).job.options.size();
    }
    parse.close();
    Span render(tracer, "render_result", "serve", root.id());
    for (std::size_t i = begin; i < begin + kCodecChunk; ++i) {
      bytes += serve::render_result(serve::Json(static_cast<double>(i)),
                                    "point", outcomes[i])
                   .size();
    }
    render.close();
  }
  root.close();
  for (const SpanRecord& span : tracer.spans()) {
    if (span.parent != root.id()) continue;
    const double us = (span.end - span.start) * 1e6 / kCodecChunk;
    (span.name == "parse_request" ? parse_us : render_us).push_back(us);
  }
  result.check(bytes > 0, "codec produced output");
  result.metric("serve.parse_us", median(parse_us), "us");
  result.metric("serve.render_us", median(render_us), "us");
}

}  // namespace

void run_serve_mix(const Config& config, Tracer& tracer, Result& result) {
  const double open_seconds = config.seconds * kOpenShare;
  const Schedule s = make_schedule(
      config.seed, static_cast<std::size_t>(open_seconds * kRate));

  // Set-up, three times (each from scratch): pre-solve the LRU and store
  // keys, start the server, open the sessions, warm the LRU. The last
  // rig serves the measurement.
  std::vector<double> setups, setups_nominal;
  std::unique_ptr<Rig> rig;
  for (int rep = 0; rep < 3; ++rep) {
    rig.reset();
    const Timing timing = time_on_quiet_cpus(kConnections, [&] {
      rig = set_up(s, (fs::path(config.work_dir) /
                       ("serve-" + std::to_string(rep)))
                          .string(),
                   result);
    });
    setups.push_back(timing.wall_s);
    setups_nominal.push_back(timing.nominal_s);
  }

  const double started = now_s();
  const OpenLoop open = run_open_loop(s, *rig, tracer, result);
  const double late_p99 = quantile(open.late_ms, 0.99);
  result.check(late_p99 <= kLateLimitMs,
               "open-loop generator kept its schedule (late p99 " +
                   std::to_string(late_p99) + " ms)");

  std::vector<double> untraced, traced, untraced_nominal, probe_us;
  std::vector<double> client_s;
  Counts closed_counts;
  double longest = 0.0;
  int batches = 0;
  const double closed_started = now_s();
  Config closed = config;
  closed.seconds = config.seconds - (closed_started - started) -
                   (tracer.enabled() ? 1.0 : 0.0);
  while (another_batch(closed, closed_started, batches, longest, 4)) {
    const bool trace_batch = tracer.enabled() && batches % 2 == 1 &&
                             traced.size() < kTracedClosedBatches;
    Tracer off(false);
    ClosedBatch batch;
    const std::size_t window = tracer.enabled() ? 1 : kClosedWindow;
    const Timing timing = time_on_quiet_cpus(kConnections, [&] {
      batch = run_closed_batch(s, *rig, trace_batch ? tracer : off, batches,
                               window, result);
    });
    (trace_batch ? traced : untraced).push_back(batch.wall);
    if (!trace_batch) untraced_nominal.push_back(timing.nominal_s);
    probe_us.push_back(timing.probe_s * 1e6);
    if (trace_batch) {
      client_s.insert(client_s.end(), batch.client_s.begin(),
                      batch.client_s.end());
      closed_counts.add(batch.counts);
    }
    longest = std::max(longest, batch.wall);
    ++batches;
  }
  note_batches(result, setups, untraced, traced);
  note_samples(result, "batches_nominal_s", untraced_nominal);
  report_host(result, untraced, probe_us, setups, setups_nominal);
  const double hit_rps = kConnections * kClosedRequests / median(untraced);

  const double hit_p50 = quantile(open.hit_ms, 0.5);
  const double hit_p99 = quantile(open.hit_ms, 0.99);
  const double solve_p50 = quantile(open.solve_ms, 0.5);
  result.note("open_loop_requests",
              serve::Json(static_cast<double>(s.kind.size())));
  result.note("serve_hit_p50_ms", serve::Json(hit_p50));
  result.note("serve_hit_p99_ms", serve::Json(hit_p99));
  result.note("serve_solve_p50_ms", serve::Json(solve_p50));
  result.note("serve_hit_rps", serve::Json(hit_rps));
  result.note("generator_late_p99_ms", serve::Json(late_p99));
  if (!tracer.enabled()) {
    result.metric("batch_s", median(untraced_nominal), "s");
    return;
  }

  run_codec(s, *rig, tracer, result);
  report_registry_layers(open.counts, result);
  result.metric("serve.hit_p50_ms", hit_p50, "ms");
  result.metric("serve.hit_p99_ms", hit_p99, "ms");
  result.metric("serve.solve_p50_ms", solve_p50, "ms");
  result.metric("serve.hit_rps", hit_rps, "1/s");
  result.metric("serve.client_ms.lru", quantile(open.lru_ms, 0.5), "ms");
  result.metric("serve.client_ms.store", quantile(open.store_ms, 0.5), "ms");
  double client_sum = 0.0;
  for (const double v : client_s) client_sum += v;
  const double client_ms = client_sum / static_cast<double>(client_s.size()) * 1e3;
  const double server_ms =
      closed_counts.request_seconds.count > 0
          ? closed_counts.request_seconds.sum /
                static_cast<double>(closed_counts.request_seconds.count) * 1e3
          : 0.0;
  result.metric("serve.client_ms", client_ms, "ms");
  result.metric("serve.server_ms", server_ms, "ms");
  result.metric("serve.transport_ms", client_ms - server_ms, "ms");
  result.metric("bench.generator_late_p99_ms", late_p99, "ms");
  result.metric("bench.batches", static_cast<double>(traced.size()), "count");
  result.metric("bench.trace_overhead_pct",
                (median(traced) / median(untraced) - 1.0) * 100.0, "%");
}

}  // namespace perfbench
