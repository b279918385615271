// Fleet-aware client: one façade over N serve replicas.
//
// The Router owns a lazily-connected serve::Client session per replica
// and routes every request to the replica that *owns* its job key under
// rendezvous hashing (fleet/ring.hpp) — identical queries from any
// router instance with the same member list land on the same replica, so
// each replica's LRU concentrates on its own key range instead of all
// replicas caching everything. A replica that cannot be reached is
// skipped in ring order (deterministic failover); the shared store's
// cross-process single-flight keeps the failover cheap — at worst the
// next replica re-reads an entry the owner already computed.
//
// Admin requests (ping/stats/metrics/...) have no job key; they go to
// the first reachable replica in member-list order. Lines that do not
// parse are forwarded verbatim to the same place — the server owns the
// error reply, keeping the router byte-transparent end to end.
// Every replica session takes the one serve::ClientOptions (the auth
// secret) the Router is given; the router has no options of its own.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "fleet/ring.hpp"
#include "serve/client.hpp"

namespace fleet {

struct Endpoint {
  std::string host;
  int port = 0;
};

/// Parses "host:port"; throws support::InvalidArgument on anything else.
Endpoint parse_endpoint(const std::string& text);

/// Parses the `--fleet` value: a comma-separated "host:port,host:port"
/// list. Throws on an empty list or a malformed element.
std::vector<Endpoint> parse_endpoints(const std::string& csv);

class Router {
 public:
  /// Does not connect: sessions are established on first use, so a
  /// router over a partially-down fleet still serves (failover).
  explicit Router(std::vector<Endpoint> replicas,
                  serve::ClientOptions client = {});

  const Ring& ring() const { return ring_; }
  const std::vector<Endpoint>& replicas() const { return replicas_; }

  /// The replica indices this request line would try, in order: ring
  /// order for analysis kinds (owner first), member-list order for admin
  /// kinds and unparseable lines. Pure — no connections are made; this
  /// is what tests and the CI smoke assert determinism against.
  std::vector<std::size_t> route(const std::string& line) const;

  /// Sends the request to its owner replica (failing over in route()
  /// order when a replica is unreachable) and returns the decoded reply.
  /// Throws support::Error when every candidate is down.
  serve::Reply request(const std::string& line);

  /// Byte-transparent variant (`query --raw`): the line goes out
  /// verbatim, the reply line comes back verbatim.
  std::string request_raw(const std::string& line);

  /// Replicas that had to be skipped over so far (downed-owner events).
  std::uint64_t failovers() const { return failovers_; }

 private:
  serve::Client& session(std::size_t index);  ///< Connects on first use.
  template <typename Fn>
  auto with_failover(const std::string& line, Fn&& fn);

  std::vector<Endpoint> replicas_;
  serve::ClientOptions client_;
  Ring ring_;
  std::vector<std::unique_ptr<serve::Client>> sessions_;
  std::uint64_t failovers_ = 0;
};

}  // namespace fleet
