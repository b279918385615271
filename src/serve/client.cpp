#include "serve/client.hpp"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <random>
#include <thread>
#include <utility>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include "fleet/auth.hpp"
#include "serve/protocol.hpp"
#include "serve/socket_io.hpp"
#include "support/check.hpp"

namespace serve {

namespace {

/// Reconnect attempts per drop before the operation throws.
constexpr int kMaxRetries = 3;
constexpr double kBackoffBaseSeconds = 0.05;
constexpr double kBackoffMaxSeconds = 1.0;

/// Jittered exponential backoff: attempt 0 waits ~base, each further
/// attempt doubles, capped, with the actual sleep drawn uniformly from
/// [delay/2, delay] so a fleet of clients dropped together does not
/// reconnect in lockstep.
double backoff_seconds(int attempt) {
  const double delay = std::min(
      kBackoffBaseSeconds * std::pow(2.0, attempt), kBackoffMaxSeconds);
  static thread_local std::mt19937 rng{std::random_device{}()};
  std::uniform_real_distribution<double> jitter(0.5, 1.0);
  return delay * jitter(rng);
}

}  // namespace

Client::Client(const std::string& host, int port, ClientOptions options)
    : host_(host), port_(port), options_(std::move(options)) {
  SM_REQUIRE(port_ > 0 && port_ <= 65535, "port out of range: ", port_);
  connect_now();
  handshake_now();
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

void Client::connect_now() {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  SM_REQUIRE(fd_ >= 0, "socket(): ", std::strerror(errno));

  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port_));
  if (::inet_pton(AF_INET, host_.c_str(), &address.sin_addr) != 1) {
    ::close(fd_);
    fd_ = -1;
    throw support::InvalidArgument("invalid server address " + host_);
  }
  if (::connect(fd_, reinterpret_cast<const sockaddr*>(&address),
                sizeof(address)) != 0) {
    const std::string reason = std::strerror(errno);
    ::close(fd_);
    fd_ = -1;
    throw support::Error("cannot connect to " + host_ + ":" +
                         std::to_string(port_) + ": " + reason);
  }
  const int one = 1;
  ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

void Client::handshake_now() {
  if (options_.auth_secret.empty()) return;
  const auto transport_lost = [this]() -> support::Error {
    if (fd_ >= 0) {
      ::close(fd_);
      fd_ = -1;
    }
    return support::Error("connection lost during auth handshake with " +
                          host_ + ":" + std::to_string(port_));
  };
  // Leg 1: a bare capability ping fetches this connection's challenge.
  // Handshake pings carry no id — the connection is fresh (empty buffer_,
  // nothing pipelined), so replies arrive strictly in order.
  std::string line;
  if (!send_all(fd_, "{\"kind\":\"ping\"}\n") || !read_line(line)) {
    throw transport_lost();
  }
  const Reply hello = decode_reply(line);
  SM_REQUIRE(hello.ok, "auth handshake ping failed: ", hello.error);
  const Json* challenge = hello.raw.find("challenge");
  if (challenge == nullptr) return;  // open server — nothing to answer
  // Leg 2: answer with HMAC-SHA256(secret, challenge); the server must
  // report the session authenticated or the secrets do not match.
  const std::string answer =
      fleet::hmac_sha256_hex(options_.auth_secret, challenge->as_string());
  if (!send_all(fd_, "{\"kind\":\"ping\",\"auth\":\"" + answer + "\"}\n") ||
      !read_line(line)) {
    throw transport_lost();
  }
  const Reply verdict = decode_reply(line);
  const Json* status = verdict.ok ? verdict.raw.find("auth") : nullptr;
  if (status == nullptr || status->as_string() != "ok") {
    throw support::Error(
        "auth handshake rejected by " + host_ + ":" + std::to_string(port_) +
        (verdict.ok ? " (secret mismatch?)" : ": " + verdict.error));
  }
}

void Client::reconnect_session() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();  // a partial reply line from the dead connection
  std::string last_error;
  for (int attempt = 0; attempt < kMaxRetries; ++attempt) {
    if (attempt > 0) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(backoff_seconds(attempt - 1)));
    }
    try {
      connect_now();
      handshake_now();  // secured sessions re-authenticate before replay
    } catch (const support::Error& error) {
      if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
      }
      last_error = error.what();
      continue;
    }
    reconnects_ += 1;
    // Replay everything still unanswered; replies keep matching by id.
    for (const auto& [id, wire] : outstanding_) {
      if (!send_all(fd_, wire)) {
        ::close(fd_);
        fd_ = -1;
        last_error = "connection lost while re-sending request";
        break;
      }
    }
    if (fd_ >= 0) return;
  }
  throw support::Error("cannot reconnect to " + host_ + ":" +
                       std::to_string(port_) + " after " +
                       std::to_string(kMaxRetries) + " attempts: " +
                       last_error);
}

void Client::send_bytes(const std::string& wire) {
  for (int attempt = 0; attempt <= kMaxRetries; ++attempt) {
    if (fd_ < 0) reconnect_session();
    if (send_all(fd_, wire)) return;
    ::close(fd_);
    fd_ = -1;
  }
  throw support::Error("connection lost while sending request");
}

bool Client::read_line(std::string& line) {
  char chunk[4096];
  for (;;) {
    const std::size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      line = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      return true;
    }
    if (fd_ < 0) return false;
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::uint64_t Client::send(const std::string& line) {
  Json request;
  try {
    request = Json::parse(line);
  } catch (const JsonError& error) {
    throw support::InvalidArgument(
        std::string("session requests must be JSON objects (") +
        error.what() + "); use request_raw for arbitrary lines");
  }
  if (!request.is_object()) {
    throw support::InvalidArgument(
        "session requests must be JSON objects; "
        "use request_raw for arbitrary lines");
  }

  // Stamp the session envelope: protocol version and reply-matching id.
  // A numeric id the caller chose is kept (and the counter skips past it
  // so later stamps cannot collide); "v" is only added when absent.
  JsonMembers members = request.as_object();
  std::uint64_t id = 0;
  bool has_id = false;
  bool has_version = false;
  for (const auto& [key, value] : members) {
    if (key == "id") {
      if (value.type() != Json::Type::kNumber) {
        throw support::InvalidArgument(
            "session request ids must be numeric (the session matches "
            "replies by them); use request_raw for other id types");
      }
      id = static_cast<std::uint64_t>(value.as_number());
      has_id = true;
    }
    if (key == "v") has_version = true;
  }
  if (has_id) {
    next_id_ = std::max(next_id_, id + 1);
  } else {
    id = next_id_++;
    members.emplace_back("id", Json(static_cast<std::int64_t>(id)));
  }
  if (!has_version) {
    members.emplace_back(
        "v", Json(static_cast<std::int64_t>(kProtocolVersion)));
  }
  std::string wire = Json::object(std::move(members)).dump();
  wire.push_back('\n');

  send_bytes(wire);
  outstanding_[id] = std::move(wire);
  return id;
}

Reply Client::await(std::uint64_t id) {
  SM_REQUIRE(outstanding_.count(id) != 0 || ready_.count(id) != 0,
             "await of an id never sent (or already awaited): ", id);
  for (;;) {
    const auto hit = ready_.find(id);
    if (hit != ready_.end()) {
      Reply reply = std::move(hit->second);
      ready_.erase(hit);
      return reply;
    }
    std::string line;
    if (!read_line(line)) {
      reconnect_session();  // replays outstanding_, or throws
      continue;
    }
    Reply reply = decode_reply(line);
    const Json* reply_id = reply.raw.find("id");
    if (reply_id == nullptr || reply_id->type() != Json::Type::kNumber) {
      continue;  // unmatchable (server replied to a line we never stamped)
    }
    const auto got = static_cast<std::uint64_t>(reply_id->as_number());
    outstanding_.erase(got);
    if (got == id) return reply;
    ready_[got] = std::move(reply);
  }
}

Reply Client::request(const std::string& line) { return await(send(line)); }

Reply Client::ping() { return request("{\"kind\":\"ping\"}"); }

std::string Client::request_raw(const std::string& line) {
  std::string out = line;
  if (out.empty() || out.back() != '\n') out.push_back('\n');
  send_bytes(out);
  std::string reply;
  if (!read_line(reply)) {
    throw support::Error("connection lost while awaiting response");
  }
  return reply;
}

Reply decode_reply(const std::string& line) {
  Reply reply;
  reply.raw = Json::parse(line);
  SM_REQUIRE(reply.raw.is_object(), "response is not a JSON object");
  const Json* ok = reply.raw.find("ok");
  SM_REQUIRE(ok != nullptr, "response lacks \"ok\"");
  reply.ok = ok->as_bool();
  if (const Json* trace_id = reply.raw.find("trace_id")) {
    reply.trace_id = trace_id->as_string();
  }
  if (!reply.ok) {
    if (const Json* error = reply.raw.find("error")) {
      reply.error = error->as_string();
    }
    if (const Json* code = reply.raw.find("code")) {
      reply.code = code->as_string();
    }
    return reply;
  }
  if (const Json* kind = reply.raw.find("kind")) {
    reply.kind = kind->as_string();
  }
  if (const Json* body = reply.raw.find("body")) {
    reply.body = body->as_string();
  }
  if (const Json* source = reply.raw.find("source")) {
    reply.source = source->as_string();
  }
  if (const Json* cached = reply.raw.find("cached")) {
    reply.cached = cached->as_bool();
  }
  if (const Json* seconds = reply.raw.find("seconds")) {
    reply.seconds = seconds->as_number();
  }
  return reply;
}

}  // namespace serve
