#include "fleet/router.hpp"

#include <numeric>
#include <utility>

#include "engine/generic.hpp"
#include "serve/protocol.hpp"
#include "support/check.hpp"

namespace fleet {

namespace {

std::vector<std::string> member_names(const std::vector<Endpoint>& replicas) {
  std::vector<std::string> names;
  names.reserve(replicas.size());
  for (const Endpoint& replica : replicas) {
    names.push_back(replica.host + ":" + std::to_string(replica.port));
  }
  return names;
}

}  // namespace

Endpoint parse_endpoint(const std::string& text) {
  const std::size_t colon = text.rfind(':');
  SM_REQUIRE(colon != std::string::npos && colon > 0 &&
                 colon + 1 < text.size(),
             "fleet endpoint must be host:port, got \"", text, "\"");
  Endpoint endpoint;
  endpoint.host = text.substr(0, colon);
  const std::string port_text = text.substr(colon + 1);
  SM_REQUIRE(
      port_text.find_first_not_of("0123456789") == std::string::npos &&
          port_text.size() <= 5,
      "fleet endpoint port must be numeric, got \"", text, "\"");
  endpoint.port = std::stoi(port_text);
  SM_REQUIRE(endpoint.port > 0 && endpoint.port <= 65535,
             "fleet endpoint port out of range: ", endpoint.port);
  return endpoint;
}

std::vector<Endpoint> parse_endpoints(const std::string& csv) {
  std::vector<Endpoint> endpoints;
  std::size_t begin = 0;
  while (begin <= csv.size()) {
    std::size_t end = csv.find(',', begin);
    if (end == std::string::npos) end = csv.size();
    const std::string item = csv.substr(begin, end - begin);
    if (!item.empty()) endpoints.push_back(parse_endpoint(item));
    begin = end + 1;
  }
  SM_REQUIRE(!endpoints.empty(),
             "a fleet needs at least one host:port endpoint");
  return endpoints;
}

Router::Router(std::vector<Endpoint> replicas, serve::ClientOptions client)
    : replicas_(std::move(replicas)),
      client_(std::move(client)),
      ring_(member_names(replicas_)),
      sessions_(replicas_.size()) {}

std::vector<std::size_t> Router::route(const std::string& line) const {
  // Admin kinds have no job identity; unparseable lines must still reach
  // a server so IT can own the error reply. Both go in member-list order.
  std::vector<std::size_t> in_order(replicas_.size());
  std::iota(in_order.begin(), in_order.end(), std::size_t{0});
  try {
    const serve::Request request = serve::parse_request(line);
    if (request.admin) return in_order;
    return ring_.ranked(engine::generic_job_key(request.job).hash);
  } catch (const std::exception&) {
    return in_order;
  }
}

serve::Client& Router::session(std::size_t index) {
  if (sessions_[index] == nullptr) {
    sessions_[index] = std::make_unique<serve::Client>(
        replicas_[index].host, replicas_[index].port, client_);
  }
  return *sessions_[index];
}

template <typename Fn>
auto Router::with_failover(const std::string& line, Fn&& fn) {
  const std::vector<std::size_t> candidates = route(line);
  std::string last_error = "empty fleet";
  for (std::size_t attempt = 0; attempt < candidates.size(); ++attempt) {
    const std::size_t index = candidates[attempt];
    try {
      auto result = fn(session(index));
      failovers_ += attempt;  // replicas skipped to reach this one
      return result;
    } catch (const support::Error& error) {
      // Transport-level failure (cannot connect / connection lost beyond
      // the retry budget): drop the dead session so a later request
      // re-probes the replica, and fall through to the next candidate.
      // Protocol-level failures come back as ok=false replies and are
      // returned above, not caught — the owner DID answer.
      sessions_[index].reset();
      last_error = error.what();
    }
  }
  throw support::Error("no fleet replica reachable (tried " +
                       std::to_string(candidates.size()) +
                       "): " + last_error);
}

serve::Reply Router::request(const std::string& line) {
  return with_failover(
      line, [&](serve::Client& client) { return client.request(line); });
}

std::string Router::request_raw(const std::string& line) {
  return with_failover(
      line, [&](serve::Client& client) { return client.request_raw(line); });
}

}  // namespace fleet
