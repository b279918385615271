#include "serve/protocol.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <map>
#include <mutex>
#include <string_view>
#include <utility>
#include <variant>
#include <vector>

#include "engine/kinds.hpp"
#include "fleet/auth.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/timer.hpp"

namespace serve {

namespace {

/// Every kind a request may name: the built-in job kinds, then kAdminKinds.
std::vector<std::string> request_kinds() {
  std::vector<std::string> kinds;
  for (const engine::JobKind& kind : engine::job_kinds()) {
    kinds.emplace_back(kind.name);
  }
  kinds.insert(kinds.end(), kAdminKinds.begin(), kAdminKinds.end());
  return kinds;
}

/// Per-kind request latency histogram. Handles for every kind the
/// protocol knows are resolved once (the registry lock is taken only
/// here, at first use); unknown/malformed requests land in kind="other".
obs::Histogram& request_latency(const std::string& kind) {
  static const std::map<std::string, obs::Histogram*> histograms = [] {
    std::vector<std::string> known = request_kinds();
    known.emplace_back("other");
    std::map<std::string, obs::Histogram*> handles;
    for (const std::string& name : known) {
      handles.emplace(
          name, &obs::histogram(
                    "selfish_serve_request_seconds",
                    "End-to-end request latency (parse through render)",
                    obs::exponential_buckets(1e-5, 4.0, 14),
                    "kind=\"" + name + "\""));
    }
    return handles;
  }();
  const auto it = histograms.find(kind);
  return it == histograms.end() ? *histograms.at("other") : *it->second;
}

[[maybe_unused]] obs::Histogram& g_registered_request_latency =
    request_latency("point");

/// Worst-N latency exemplars per request kind: the N slowest requests
/// seen, each with the trace id that identifies its span tree in a
/// `trace-dump`. A slow p99 in the latency histogram thus comes with a
/// concrete trace to pull. Small and mutex-guarded: one record per
/// request, snapshots only on `stats`.
struct Exemplar {
  double seconds = 0.0;
  std::uint64_t trace_id = 0;
};

class ExemplarTable {
 public:
  static constexpr std::size_t kWorstN = 4;

  void record(const std::string& kind, double seconds,
              std::uint64_t trace_id) {
    const std::lock_guard<std::mutex> lock(mutex_);
    std::vector<Exemplar>& worst = worst_[kind];
    worst.push_back(Exemplar{seconds, trace_id});
    std::sort(worst.begin(), worst.end(),
              [](const Exemplar& a, const Exemplar& b) {
                return a.seconds > b.seconds;
              });
    if (worst.size() > kWorstN) worst.resize(kWorstN);
  }

  std::map<std::string, std::vector<Exemplar>> snapshot() const {
    const std::lock_guard<std::mutex> lock(mutex_);
    return worst_;
  }

 private:
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<Exemplar>> worst_;
};

ExemplarTable& exemplars() {
  static ExemplarTable table;
  return table;
}

/// The protocol's front end of the job-kind schema: writes each request
/// member into the query field of the same name, type-checked, and leaves
/// absent fields at their defaults. done() rejects members no field took,
/// so typos surface as errors instead of silently applying defaults (the
/// same contract support::Options enforces for CLI flags).
class FieldReader final : public engine::FieldVisitor {
 public:
  explicit FieldReader(const Json& object) : object_(object) {
    taken_.reserve(object.as_object().size());
    for (const char* envelope : {"id", "kind", "v", "trace_id"}) {
      if (object.find(envelope) != nullptr) taken_.push_back(envelope);
    }
  }

  void field(const char* name, engine::Field member, const char*) override {
    const Json* value = object_.find(name);
    if (value == nullptr) return;
    taken_.push_back(name);
    std::visit(
        engine::FieldCases{
            [&](double* number) { *number = value->as_number(); },
            [&](int* integer) {
              const double raw = value->as_number();
              if (raw != std::floor(raw) || raw < -2147483648.0 ||
                  raw > 2147483647.0) {
                throw ProtocolError("field \"" + std::string(name) +
                                    "\" must be an integer");
              }
              *integer = static_cast<int>(raw);
            },
            [&](std::uint64_t* count) {
              *count = engine::checked_count(name, value->as_number());
            },
            [&](bool* flag) { *flag = value->as_bool(); },
            [&](std::string* text) { *text = value->as_string(); }},
        member);
  }

  void done() override {
    const JsonMembers& members = object_.as_object();
    if (taken_.size() == members.size()) return;
    for (const auto& [name, value] : members) {
      if (std::find(taken_.begin(), taken_.end(), name) == taken_.end()) {
        throw ProtocolError("unknown field \"" + name + "\"");
      }
    }
  }

 private:
  const Json& object_;
  std::vector<std::string_view> taken_;  ///< Envelope and field members.
};

/// Prefixes the echoed id when the client sent one, the protocol version
/// (every reply is versioned — clients gate on it before trusting the
/// rest of the envelope), and the trace id when the request has one
/// (client-supplied or server-minted).
JsonMembers reply_head(const Json& id, bool ok,
                       const std::string& trace_id = "") {
  JsonMembers members;
  if (!id.is_null()) members.emplace_back("id", id);
  members.emplace_back("ok", Json(ok));
  members.emplace_back(
      "v", Json(static_cast<double>(kProtocolVersion)));
  if (!trace_id.empty()) members.emplace_back("trace_id", Json(trace_id));
  return members;
}

std::string finish_reply(JsonMembers members) {
  return Json::object(std::move(members)).dump() + "\n";
}

/// `ping` is the protocol v1 capability handshake: protocol version, the
/// job kinds this server executes (from its registry) plus the admin
/// kinds, the transport limits in force, and the obs mode.
std::string render_ping(const Json& id, const Service& service,
                        const Wire& wire, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("ping"));
  members.emplace_back(
      "protocol", Json(static_cast<double>(kProtocolVersion)));
  std::vector<Json> kinds;
  for (const std::string& kind : service.registry().kinds()) {
    kinds.emplace_back(kind);
  }
  for (const std::string_view kind : kAdminKinds) {
    kinds.emplace_back(std::string(kind));
  }
  members.emplace_back("kinds", Json::array(std::move(kinds)));
  members.emplace_back(
      "limits",
      Json::object(
          {{"max_line_bytes",
            Json(static_cast<double>(wire.limits.max_line_bytes))},
           {"max_inflight",
            Json(static_cast<double>(wire.limits.max_inflight))},
           {"max_inflight_per_connection",
            Json(static_cast<double>(
                wire.limits.max_inflight_per_connection))},
           {"idle_timeout_seconds", Json(wire.limits.idle_timeout_seconds)}}));
  // The obs switch position: whether metrics/trace admin kinds carry data.
  members.emplace_back("obs", Json(obs::enabled() ? "on" : "runtime-off"));
  // Secured servers advertise the auth state and this connection's
  // challenge — the client hashes the secret over `challenge` and pings
  // again with the result in `auth`. Open servers omit both members, so
  // existing clients and pinned ping-shape tests see unchanged replies.
  if (!wire.auth_secret.empty() && wire.auth != nullptr) {
    const bool authed =
        wire.auth->authenticated.load(std::memory_order_acquire);
    members.emplace_back("auth", Json(authed ? "ok" : "required"));
    members.emplace_back("challenge", Json(wire.auth->challenge));
  }
  return finish_reply(std::move(members));
}

std::string render_stats(const Json& id, const Service& service,
                         const Wire& wire, const std::string& trace_id) {
  const auto count = [](const auto& instrument) {
    return Json(static_cast<double>(instrument.value()));
  };
  const ServiceCounters& counters = service.counters();
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("stats"));
  members.emplace_back("requests", count(counters.requests));
  members.emplace_back("lru_hits", count(counters.lru_hits));
  members.emplace_back("store_hits", count(counters.store_hits));
  members.emplace_back("solves", count(counters.solves));
  members.emplace_back("coalesced", count(counters.coalesced));
  members.emplace_back("errors", count(counters.errors));
  members.emplace_back("rejected", count(counters.rejected));
  members.emplace_back("lru_evictions", count(counters.lru_evictions));
  members.emplace_back("lru_bytes", count(counters.lru_bytes));
  members.emplace_back("lru_entries", count(counters.lru_entries));
  // Cross-process single-flight counters: summing `executions` across all
  // replicas sharing one cache dir must equal the number of distinct cold
  // keys — the fleet-smoke CI job asserts exactly that.
  JsonMembers fleet;
  fleet.emplace_back("executions", count(counters.fleet_executions));
  fleet.emplace_back("waits", count(counters.fleet_waits));
  fleet.emplace_back("takeovers", count(counters.fleet_takeovers));
  members.emplace_back("fleet", Json::object(std::move(fleet)));
  // Millisecond resolution keeps the canonical-double rendering short.
  members.emplace_back(
      "uptime_seconds",
      Json(std::round(service.uptime_seconds() * 1e3) / 1e3));
  JsonMembers kind_counts;
  kind_counts.reserve(service.kind_counts().size());
  for (const auto& [kind, value] : service.kind_counts()) {
    const auto n = static_cast<double>(value.load(std::memory_order_relaxed));
    kind_counts.emplace_back(kind, Json(n));
  }
  members.emplace_back("kinds", Json::object(std::move(kind_counts)));
  // Worst-N latency exemplars per kind: each entry names a trace id a
  // `trace-dump` (or the trace sink) can resolve into a full span tree.
  JsonMembers exemplar_members;
  for (const auto& [kind, worst] : exemplars().snapshot()) {
    std::vector<Json> items;
    items.reserve(worst.size());
    for (const Exemplar& exemplar : worst) {
      JsonMembers fields;
      fields.emplace_back("seconds", Json(exemplar.seconds));
      fields.emplace_back(
          "trace_id", Json(obs::format_trace_id(exemplar.trace_id)));
      items.emplace_back(Json::object(std::move(fields)));
    }
    exemplar_members.emplace_back(kind, Json::array(std::move(items)));
  }
  members.emplace_back("exemplars",
                       Json::object(std::move(exemplar_members)));
  // Transport counters (reactor-side: connection and backpressure view),
  // present only when a transport is attached — the transport-free test
  // path has nothing meaningful to report here.
  if (wire.stats != nullptr) {
    JsonMembers transport;
    transport.emplace_back("connections", count(wire.stats->connections));
    transport.emplace_back("accepted", count(wire.stats->accepted));
    transport.emplace_back("inflight", count(wire.stats->inflight));
    transport.emplace_back("busy", count(wire.stats->busy));
    transport.emplace_back("idle_closed", count(wire.stats->idle_closed));
    members.emplace_back("transport", Json::object(std::move(transport)));
  }
  return finish_reply(std::move(members));
}

/// `metrics` reply: the Prometheus text exposition rides in `body`, same
/// splice technique as render_result (the scrape can be tens of KB).
std::string render_metrics(const Json& id, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("metrics"));
  std::string reply = Json::object(std::move(members)).dump();
  reply.pop_back();  // reopen the object: drop '}'
  reply += ",\"body\":";
  reply += json_quote(obs::prometheus_text());
  reply += "}\n";
  return reply;
}

/// `trace-dump` reply: the flight recorder's recent spans as NDJSON in
/// `body` (same splice; a full ring is ~1 MB of lines).
std::string render_trace_dump(const Json& id, const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json("trace-dump"));
  std::string reply = Json::object(std::move(members)).dump();
  reply.pop_back();  // reopen the object: drop '}'
  reply += ",\"body\":";
  reply += json_quote(obs::flight_dump_ndjson());
  reply += "}\n";
  return reply;
}

/// Parses the optional client `trace_id` field: 1-16 hex digits, nonzero.
std::uint64_t trace_id_from(const Json& object) {
  const Json* field = object.find("trace_id");
  if (field == nullptr) return 0;
  const std::uint64_t value =
      field->type() == Json::Type::kString
          ? obs::parse_trace_id(field->as_string())
          : 0;
  if (value == 0) {
    throw ProtocolError(
        "field \"trace_id\" must be a string of 1-16 hex digits (nonzero)");
  }
  return value;
}

/// Parses the protocol version field: absent means v1 (pre-versioned
/// clients keep working), any other value than the supported revision is
/// a named `unsupported_version` rejection so old servers fail loudly in
/// front of newer clients instead of misinterpreting their requests.
void check_version(const Json& object) {
  const Json* field = object.find("v");
  if (field == nullptr) return;  // implicit v1
  const double raw = field->type() == Json::Type::kNumber
                         ? field->as_number()
                         : -1.0;
  if (raw != static_cast<double>(kProtocolVersion)) {
    throw ProtocolError(
        "unsupported protocol version (this server speaks v" +
            std::to_string(kProtocolVersion) + ")",
        "unsupported_version");
  }
}

/// Parses an already-decoded request object.
Request parse_request_object(const Json& object) {
  if (!object.is_object()) {
    throw ProtocolError("request must be a JSON object");
  }
  check_version(object);
  Request request;
  if (const Json* id = object.find("id")) request.id = *id;
  const Json* kind = object.find("kind");
  if (kind == nullptr) throw ProtocolError("missing \"kind\"");
  request.kind = kind->as_string();
  request.trace_id = trace_id_from(object);
  FieldReader fields(object);
  if (std::find(kAdminKinds.begin(), kAdminKinds.end(), request.kind) !=
      kAdminKinds.end()) {
    request.admin = true;
    if (request.kind == "ping") {
      // The challenge answer rides on ping (and only ping): the
      // handshake must work before authentication, and ping is the one
      // kind an unauthenticated client may send.
      fields.field("auth", &request.auth, "");
    }
    fields.done();  // admin requests take no other options
    return request;
  }
  const engine::JobKind* job_kind = engine::find_job_kind(request.kind);
  if (job_kind == nullptr) {
    throw ProtocolError("unknown kind \"" + request.kind + "\" (expected " +
                        kind_list() + ")");
  }
  request.job = job_kind->visit(fields);
  return request;
}

}  // namespace

Request parse_request(const std::string& line) {
  return parse_request_object(Json::parse(line));
}

std::string kind_list() {
  std::string list;
  for (const std::string& kind : request_kinds()) {
    list += (list.empty() ? "" : " | ") + kind;
  }
  return list;
}

FirstLine sniff_first_line(std::string_view buffer) {
  // Decide as early as possible, but never on a proper prefix of "GET ":
  // with a nonblocking transport a lone 'G' is routinely all that has
  // arrived of "GET /metrics HTTP/1.1", and equally all that has arrived
  // of nothing JSON (every request object starts with '{'), so the call
  // answers kNeedMore until the prefix diverges or completes.
  constexpr std::string_view kGet = "GET ";
  const std::size_t have = std::min(buffer.size(), kGet.size());
  if (buffer.compare(0, have, kGet, 0, have) != 0) return FirstLine::kNdjson;
  return buffer.size() >= kGet.size() ? FirstLine::kHttpGet
                                      : FirstLine::kNeedMore;
}

std::string render_result(const Json& id, const std::string& kind,
                          const QueryOutcome& outcome,
                          const std::string& trace_id) {
  JsonMembers members = reply_head(id, true, trace_id);
  members.emplace_back("kind", Json(kind));
  members.emplace_back("cached", Json(outcome.cached));
  members.emplace_back("source", Json(to_string(outcome.source)));
  members.emplace_back("seconds", Json(outcome.seconds));
  // The body is spliced in behind the metadata so the (possibly multi-
  // megabyte, shared) artifact is escaped straight into the reply instead
  // of passing through an intermediate Json string copy.
  std::string reply = Json::object(std::move(members)).dump();
  reply.pop_back();  // reopen the object: drop '}'
  reply += ",\"body\":";
  static const std::string kEmptyBody;
  reply += json_quote(outcome.payload == nullptr ? kEmptyBody
                                                 : *outcome.payload);
  reply += "}\n";
  return reply;
}

std::string render_error(const Json& id, const std::string& message,
                         const std::string& trace_id,
                         const std::string& code) {
  JsonMembers members = reply_head(id, false, trace_id);
  members.emplace_back("error", Json(message));
  if (!code.empty()) members.emplace_back("code", Json(code));
  return finish_reply(std::move(members));
}

std::string render_busy(const std::string& line, const std::string& scope) {
  // Best-effort id echo: the refused line has not been validated (the
  // whole point of refusing early is to spend nothing on it), so the id
  // is recovered only when the line happens to parse.
  Json id;
  try {
    const Json object = Json::parse(line);
    if (object.is_object()) {
      if (const Json* sent = object.find("id")) id = *sent;
    }
  } catch (const std::exception&) {
  }
  return render_error(id, "busy: " + scope + " in-flight limit reached",
                      "", "busy");
}

HandledLine handle_request(Service& service, const std::string& line,
                           const Wire& wire) {
  HandledLine handled;
  Json id;
  Request request;
  // End-to-end latency (parse through render) per kind; requests that die
  // in parsing are attributed to "other". Observe-only: the sink fires on
  // every return path below and never touches the reply. The exemplar
  // entry records which trace id a slow request belonged to.
  std::string latency_kind = "other";
  std::uint64_t exemplar_trace = 0;
  const support::ScopedTimer latency(
      [&latency_kind, &exemplar_trace](double seconds) {
        if (!obs::enabled()) return;
        request_latency(latency_kind).observe(seconds);
        exemplars().record(latency_kind, seconds, exemplar_trace);
      });
  try {
    const Json object = Json::parse(line);
    // Echo the id even when validation below rejects the request.
    if (object.is_object()) {
      if (const Json* sent = object.find("id")) id = *sent;
    }
    request = parse_request_object(object);
    latency_kind = request.kind;
  } catch (const ProtocolError& e) {
    service.note_rejected();
    handled.reply = render_error(id, e.what(), "", e.code());
    return handled;
  } catch (const std::exception& e) {
    // Rejected before reaching the service — count it there anyway, or
    // the operator-facing stats would show zero errors under a stream of
    // malformed/abusive requests.
    service.note_rejected();
    handled.reply = render_error(id, e.what());
    return handled;
  }

  // The request's root span: adopts the client's trace id when one was
  // sent, otherwise mints a fresh trace (obs on). Everything the request
  // triggers — service dispatch, engine chains, kernel sweeps — nests
  // under it via the thread-local context and the pool propagation.
  obs::Span span("serve.request", request.trace_id);
  span.attr("kind", Json(request.kind));
  exemplar_trace =
      request.trace_id != 0 ? request.trace_id : span.trace_id();
  // Replies echo only a *client-supplied* trace id: server-minted ids
  // would make otherwise-identical replies differ run to run (they stay
  // discoverable through `trace-dump` and the stats exemplars).
  const std::string trace_echo =
      request.trace_id != 0 ? obs::format_trace_id(request.trace_id) : "";

  // Authentication gate (secured servers only). A ping carrying an
  // `auth` answer is the handshake's second leg: verify it against this
  // connection's challenge in constant time. Every other kind requires
  // the connection to have authenticated already; ping without `auth`
  // stays open so clients can fetch the challenge and capabilities.
  const bool secured = !wire.auth_secret.empty() && wire.auth != nullptr;
  if (secured && request.kind == "ping" && !request.auth.empty()) {
    const std::string expected =
        fleet::hmac_sha256_hex(wire.auth_secret, wire.auth->challenge);
    if (fleet::equals_constant_time(request.auth, expected)) {
      wire.auth->authenticated.store(true, std::memory_order_release);
    } else {
      service.note_rejected();
      handled.reply = render_error(
          id, "auth failed: challenge response does not verify",
          trace_echo, "auth_failed");
      return handled;
    }
  }
  if (secured && request.kind != "ping" &&
      !wire.auth->authenticated.load(std::memory_order_acquire)) {
    service.note_rejected();
    handled.reply = render_error(
        id,
        "authentication required: answer the ping challenge with "
        "auth=HMAC-SHA256(secret, challenge) first",
        trace_echo, "auth_required");
    return handled;
  }

  try {
    if (request.admin) {
      service.note_admin(request.kind);
      if (request.kind == "ping") {
        handled.reply = render_ping(id, service, wire, trace_echo);
        return handled;
      }
      if (request.kind == "stats") {
        handled.reply = render_stats(id, service, wire, trace_echo);
        return handled;
      }
      if (request.kind == "metrics") {
        handled.reply = render_metrics(id, trace_echo);
        return handled;
      }
      if (request.kind == "trace-dump") {
        handled.reply = render_trace_dump(id, trace_echo);
        return handled;
      }
      handled.shutdown = request.kind == "shutdown";
      JsonMembers members = reply_head(id, true, trace_echo);
      members.emplace_back("kind", Json(request.kind));
      handled.reply = finish_reply(std::move(members));
      return handled;
    }
    // execute() counts these requests and failures itself.
    const QueryOutcome outcome = service.execute(request.job);
    handled.reply = render_result(id, request.kind, outcome, trace_echo);
  } catch (const std::exception& e) {
    handled.reply = render_error(id, e.what(), trace_echo);
  }
  return handled;
}

std::string handle_line(Service& service, const std::string& line) {
  return handle_request(service, line).reply;
}

}  // namespace serve
