// The wire protocol of the analysis service: versioned newline-delimited
// JSON (protocol v1).
//
// One request per line, one response line per request. Requests and
// replies carry a protocol version field `v`; a missing `v` is treated as
// v1 for back-compat with pre-versioned clients, and unknown versions are
// rejected with a named `unsupported_version` error so future revisions
// can change semantics without silently confusing old peers. Requests
// name a job kind plus the same options the CLI subcommands take (same
// names, same defaults); the response's `body` is the rendered artifact,
// byte-identical to the direct CLI output.
//
//   -> {"v":1,"id":1,"kind":"threshold","gamma":0.5,"d":2,"f":1}
//   <- {"id":1,"ok":true,"v":1,"kind":"threshold","cached":false,
//       "source":"solve","seconds":2.41,"body":"attack becomes ...\n"}
//
// Replies are matched to requests by the echoed `id`, not by order: the
// event-driven transport dispatches pipelined lines to a worker pool and
// writes each reply as it completes, so a client pipelining several
// requests on one connection may see them answered out of order. Clients
// that send at most one request at a time (or no `id` at all) observe the
// classic in-order behavior.
//
// Analysis kinds — point, sweep, threshold, upper-bound, net-batch — are
// dispatched through the serving core (LRU, single-flight, store, solve);
// their fields are the CLI's options, read through the same per-kind schema
// (engine/kinds.hpp). Admin kinds — ping, stats, metrics, trace-dump,
// shutdown — answer from the server itself. `ping` is the capability
// handshake: it advertises the protocol version, the supported job kinds
// (from the executor registry), the transport limits (max line length,
// in-flight caps, idle timeout), and the observability mode, so a session
// client can discover what it is talking to before pipelining work.
// `metrics` returns the Prometheus text exposition in `body`; `trace-dump`
// returns the flight recorder's recent spans as NDJSON in `body`. Any
// request may carry a `trace_id` (1-16 hex digits): the request's span tree
// adopts it and every reply echoes it back. Any failure (malformed JSON,
// unknown kind or field, out-of-range parameters, executor error) produces
// {"ok":false,"error":...} on the same line slot — machine-readable
// failures additionally carry a `code` ("unsupported_version",
// "auth_required"/"auth_failed" on secured servers, and the transport's
// overload replies use "busy") — and the connection stays usable.
//
// Secured servers (serve --auth-secret-file) extend the `ping` handshake
// into a challenge/response: the ping reply carries a per-connection
// `challenge`, the client answers with another ping whose `auth` field is
// HMAC-SHA256(secret, challenge) in hex, and until that verifies every
// non-ping request is refused with code "auth_required". See fleet/auth.
//
// The `stats` reply reads one Service's counters (and, behind a
// transport, one Server's TransportStats); each count in it is that
// instance's own, while `metrics` reports each selfish_serve_* family as
// the sum over every Service and Server in the process.
//
// This module is transport-free: handle_request maps a request line to a
// response line given a Service, so tests exercise the full protocol
// without sockets and the server stays a pure byte shuttle.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>

#include "engine/generic.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"
#include "serve/service.hpp"

namespace serve {

/// The protocol revision this build speaks (and assumes when a request
/// omits `v`).
inline constexpr int kProtocolVersion = 1;

/// Thrown on protocol-level violations (the message is the error reply;
/// `code`, when nonempty, becomes the reply's machine-readable `code`).
class ProtocolError : public support::InvalidArgument {
 public:
  explicit ProtocolError(std::string msg, std::string code = "")
      : support::InvalidArgument(std::move(msg)), code_(std::move(code)) {}
  const std::string& code() const { return code_; }

 private:
  std::string code_;
};

/// What the first bytes of a connection turned out to be. Nonblocking
/// reads deliver partial lines as the common case, so classification must
/// be able to answer "not enough bytes yet": a lone 'G' is a prefix of
/// both "GET /metrics ..." and nothing a JSON request can start with, but
/// misclassifying it either way on the first byte would break whichever
/// peer sent the rest a syscall later.
enum class FirstLine : std::uint8_t {
  kNeedMore,  ///< Still a prefix of "GET " — read more before deciding.
  kHttpGet,   ///< An HTTP GET request line (scrape endpoints).
  kNdjson,    ///< Anything else: the NDJSON protocol.
};

/// Classifies the first bytes of a connection (see FirstLine). Decides as
/// early as the bytes allow: the first byte settles NDJSON for every JSON
/// request ('{' != 'G'), and four bytes settle HTTP.
FirstLine sniff_first_line(std::string_view buffer);

/// A parsed request: the echoed id (null when the client sent none), the
/// kind tag, and — for analysis kinds — the content-addressed job.
struct Request {
  Json id;
  std::string kind;
  engine::GenericJob job;  ///< Empty kind for admin requests.
  bool admin = false;  ///< One of kAdminKinds.
  /// Client-supplied trace id (0 = none); the request's root span adopts
  /// it. NEVER part of the job identity — two requests with different
  /// trace ids for the same query coalesce and cache identically.
  std::uint64_t trace_id = 0;
  /// `ping`-only: the HMAC-SHA256 answer to the connection's auth
  /// challenge (empty = plain capability ping). Like trace_id, never part
  /// of any job identity.
  std::string auth;
};

/// Parses and validates one request line. Throws ProtocolError (or
/// JsonError / support::InvalidArgument from deeper validation) with a
/// client-safe message.
Request parse_request(const std::string& line);

/// Every kind a request may name, "point | sweep | ... | shutdown": the
/// built-in job kinds, then kAdminKinds.
std::string kind_list();

/// The transport limits a server enforces, advertised by `ping` so
/// session clients can discover them instead of hardcoding. The defaults
/// here describe the transport-free test path (handle_request without a
/// Wire): effectively unlimited.
struct TransportLimits {
  std::size_t max_line_bytes = 1 << 20;  ///< Longest accepted request line.
  int max_inflight = 0;           ///< Global dispatch cap (0 = unlimited).
  int max_inflight_per_connection = 0;  ///< Per-connection cap (0 = unlim).
  double idle_timeout_seconds = 0.0;    ///< 0 = connections never expire.
};

/// One Server's transport counts, surfaced through the `stats` admin kind
/// (ServiceCounters cover the serving core; these cover the reactor).
/// Like ServiceCounters, each member is this Server's own count and feeds
/// the selfish_serve_* family of the same name.
struct TransportStats {
  obs::OwnedGauge connections{"selfish_serve_connections",
                              "Currently open client connections"};
  obs::OwnedCounter accepted{"selfish_serve_accepted_total",
                             "Client connections ever accepted"};
  obs::OwnedGauge inflight{
      "selfish_serve_transport_inflight",
      "Request lines dispatched to the worker pool, reply not yet queued"};
  obs::OwnedCounter busy{
      "selfish_serve_busy_total",
      "Request lines refused with `busy` by an in-flight cap"};
  obs::OwnedCounter idle_closed{"selfish_serve_idle_closed_total",
                                "Connections closed by the idle timeout"};
};

/// Per-connection authentication state on a secured server. The
/// transport mints one fresh `challenge` per connection at accept time;
/// the protocol flips `authenticated` once a `ping` carries the matching
/// HMAC-SHA256 answer. Atomic because pipelined lines from one
/// connection are handled on different pool workers.
struct AuthSession {
  std::string challenge;
  std::atomic<bool> authenticated{false};
};

/// What the transport tells the protocol about itself: the limits `ping`
/// advertises and the counters `stats` reports. Default-constructed for
/// transport-free embedders (tests): unlimited, no transport section.
///
/// A server is *secured* when `auth_secret` is nonempty AND an
/// AuthSession is attached: secured connections must answer the ping
/// challenge before any non-ping request is served (failures get the
/// machine-readable `auth_required` / `auth_failed` codes). The
/// transport-free default (no session) stays open.
struct Wire {
  TransportLimits limits;
  const TransportStats* stats = nullptr;
  /// Deployment shared secret; empty = open server (the default).
  std::string auth_secret;
  /// This connection's challenge/verdict state; null = no connection
  /// identity (transport-free path), never gated.
  AuthSession* auth = nullptr;
};

/// Response renderers; every returned string is one line ending in '\n'.
/// `trace_id` (16 hex digits; empty = omit) is echoed into the reply.
/// `code` (empty = omit) is the machine-readable failure class.
std::string render_result(const Json& id, const std::string& kind,
                          const QueryOutcome& outcome,
                          const std::string& trace_id = "");
std::string render_error(const Json& id, const std::string& message,
                         const std::string& trace_id = "",
                         const std::string& code = "");

/// The `busy` overload reply the transport sends when an in-flight cap is
/// hit (code "busy"; the id is echoed when the refused line carried one —
/// pipelined sessions need it to match the refusal to its request).
std::string render_busy(const std::string& line, const std::string& scope);

/// The reply line plus the one side effect a request can carry. The
/// transport must write `reply` to the client *before* acting on
/// `shutdown` — acting first would race the server teardown against the
/// in-flight response bytes.
struct HandledLine {
  std::string reply;
  bool shutdown = false;
};

/// The full request->response mapping: parse, dispatch to `service` (or
/// answer admin requests in place), render. Never throws — every failure
/// renders as an error reply. `wire` feeds the capability handshake and
/// the stats transport section.
HandledLine handle_request(Service& service, const std::string& line,
                           const Wire& wire = Wire{});

/// handle_request without the side-effect channel (tests, one-shot
/// embedders): a shutdown request is answered but has no effect.
std::string handle_line(Service& service, const std::string& line);

}  // namespace serve
