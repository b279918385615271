// Session client for the analysis service's versioned line protocol
// (protocol v1). Used by the `selfish-mining query` subcommand,
// bench_serve's load generator, and the end-to-end tests.
//
// A Client is a session, not a call: it connects once, pipelines any
// number of requests over the one connection (send() returns immediately
// with the request's session id), and matches replies to requests by the
// echoed `id` — the v1 contract under the event-driven server, which may
// answer pipelined requests out of order. A dropped connection
// reconnects transparently, up to 3 attempts with jittered exponential
// backoff from 0.05 s doubling to at most 1 s, and re-sends
// still-unanswered requests (every analysis kind is a pure query, so
// replay is safe).
#pragma once

#include <cstdint>
#include <map>
#include <string>

#include "serve/json.hpp"

namespace serve {

/// A decoded response line.
struct Reply {
  bool ok = false;
  std::string error;     ///< When !ok.
  std::string code;      ///< Machine-readable failure class (busy, ...).
  std::string kind;      ///< When ok.
  std::string body;      ///< The rendered artifact (analysis kinds).
  std::string source;    ///< lru | store | solve | coalesced.
  std::string trace_id;  ///< Echoed client trace id (empty if none sent).
  bool cached = false;
  double seconds = 0.0;
  Json raw;  ///< The full response object (admin replies carry extras).
};

struct ClientOptions {
  /// Deployment shared secret for secured servers (see fleet/auth).
  /// Nonempty = the session runs the ping HMAC challenge/response right
  /// after every (re)connect, before anything else is sent.
  std::string auth_secret;
};

class Client {
 public:
  /// Connects immediately; throws support::Error on failure.
  Client(const std::string& host, int port, ClientOptions options = {});
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Pipelines one request (a JSON object line): stamps it with `"v":1`
  /// and a session `id` (keeping a numeric id the caller already set) and
  /// sends without waiting. Returns the id await() matches the reply by.
  /// Throws support::InvalidArgument for non-object lines (those cannot
  /// carry an id — use request_raw) and support::Error once the
  /// connection is lost beyond the retry budget.
  std::uint64_t send(const std::string& line);

  /// Blocks until the reply with this id arrives (replies for other
  /// pipelined ids are stashed for their own await). Throws
  /// support::Error on a connection lost beyond the retry budget and on
  /// ids never sent.
  Reply await(std::uint64_t id);

  /// send() + await(): one request, its reply. A transport-level failure
  /// throws; a protocol-level error comes back as ok=false.
  Reply request(const std::string& line);

  /// The capability handshake: asks the server for its protocol version,
  /// supported kinds, and transport limits (reply.raw carries them).
  Reply ping();

  /// Sends one line verbatim — no id stamping, no version stamping — and
  /// blocks for the next response line, whatever it is. This is the
  /// byte-transparent escape hatch (`query --raw`): what goes out and
  /// comes back is exactly what the peer sees. Do not interleave with
  /// unanswered pipelined send()s — raw replies are matched by position.
  std::string request_raw(const std::string& line);

  /// Times the connection was re-established after a drop.
  std::uint64_t reconnects() const { return reconnects_; }

 private:
  void connect_now();  ///< One attempt; throws support::Error.
  /// Runs the ping auth challenge/response on a fresh connection (no-op
  /// without a secret). Must precede any pipelined traffic: replies are
  /// read positionally, which only a quiet connection guarantees.
  void handshake_now();
  /// Capped, jitter-backoff reconnect loop; re-sends outstanding
  /// requests.
  void reconnect_session();
  void send_bytes(const std::string& wire);  ///< With reconnect retries.
  bool read_line(std::string& line);  ///< False on EOF / connection loss.

  std::string host_;
  int port_ = 0;
  ClientOptions options_;
  int fd_ = -1;
  std::string buffer_;  ///< Bytes past the last returned line.
  std::uint64_t next_id_ = 1;
  std::map<std::uint64_t, std::string> outstanding_;  ///< id -> wire line.
  std::map<std::uint64_t, Reply> ready_;  ///< Arrived, not yet awaited.
  std::uint64_t reconnects_ = 0;
};

/// Parses a response line into a Reply (shared with tests).
Reply decode_reply(const std::string& line);

}  // namespace serve
