#include "serve/service.hpp"

#include <utility>

#include "engine/kinds.hpp"
#include "fleet/lease.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace serve {

namespace {

/// Process-global serve metrics, mirroring the per-instance ServiceStats
/// atomics (two relaxed increments per event — both cheap). Registered at
/// static init so a fresh `metrics` scrape lists the family at zero.
struct ServeMetrics {
  obs::Counter& requests = obs::counter(
      "selfish_serve_requests_total",
      "Analysis executions plus protocol rejections");
  obs::Counter& lru_hits = obs::counter(
      "selfish_serve_lru_hits_total", "Requests answered from the LRU");
  obs::Counter& store_hits = obs::counter(
      "selfish_serve_store_hits_total",
      "Requests answered from the disk store");
  obs::Counter& solves = obs::counter(
      "selfish_serve_solves_total", "Requests that computed a fresh artifact");
  obs::Counter& coalesced = obs::counter(
      "selfish_serve_coalesced_total",
      "Requests that joined an identical in-flight computation");
  obs::Counter& errors = obs::counter(
      "selfish_serve_errors_total", "Executor or dispatch failures");
  obs::Counter& rejected = obs::counter(
      "selfish_serve_rejected_total", "Protocol-level rejections");
  obs::Counter& lru_evictions = obs::counter(
      "selfish_serve_lru_evictions_total",
      "Entries evicted past the LRU byte budget");
  obs::Gauge& lru_bytes = obs::gauge(
      "selfish_serve_lru_bytes", "Current LRU payload residency in bytes");
  obs::Gauge& lru_entries = obs::gauge(
      "selfish_serve_lru_entries", "Artifacts resident in the LRU");
  obs::Gauge& inflight = obs::gauge(
      "selfish_serve_inflight", "Queries currently inside execute()");
  obs::Counter& fleet_executions = obs::counter(
      "selfish_serve_fleet_executions_total",
      "Cold jobs this replica executed under a fleet lease");
  obs::Counter& fleet_waits = obs::counter(
      "selfish_serve_fleet_waits_total",
      "Cold jobs resolved by another replica's flight while this one waited");
  obs::Counter& fleet_takeovers = obs::counter(
      "selfish_serve_fleet_takeovers_total",
      "Stale (crashed-holder) leases this replica claimed");
};

ServeMetrics& serve_metrics() {
  static ServeMetrics metrics;
  return metrics;
}

[[maybe_unused]] const ServeMetrics& g_registered_serve_metrics =
    serve_metrics();

/// RAII in-flight gauge bump: exception-safe across execute()'s throws.
class InflightGuard {
 public:
  InflightGuard() { serve_metrics().inflight.add(1); }
  ~InflightGuard() { serve_metrics().inflight.add(-1); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;
};

}  // namespace

const char* to_string(Source source) {
  switch (source) {
    case Source::kLru: return "lru";
    case Source::kStore: return "store";
    case Source::kSolve: return "solve";
    case Source::kCoalesced: return "coalesced";
  }
  return "?";
}

Service::Service(ServiceOptions options)
    : Service(std::move(options), engine::builtin_executors()) {}

Service::Service(ServiceOptions options,
                 const engine::ExecutorRegistry& registry)
    : options_(std::move(options)),
      registry_(registry),
      store_(options_.cache_dir),
      pool_(support::resolve_thread_count(options_.threads)) {
  context_.cache_dir = options_.cache_dir;
  context_.threads = support::resolve_thread_count(options_.job_threads);
  // Freeze the per-kind count table: one slot per executor kind plus the
  // admin kinds. After construction the map is structurally immutable, so
  // note_kind() reads it without a lock.
  for (const std::string& kind : registry_.kinds()) kind_counts_[kind];
  for (const auto kind : kAdminKinds) kind_counts_[std::string(kind)];
}

Service::~Service() { pool_.wait_idle(); }

void Service::note_kind(const std::string& kind) {
  const auto it = kind_counts_.find(kind);
  if (it != kind_counts_.end()) {
    it->second.fetch_add(1, std::memory_order_relaxed);
  }
}

void Service::lru_insert(const std::string& key, const PayloadPtr& payload,
                         double seconds) {
  if (options_.lru_bytes == 0) return;
  if (const auto it = lru_index_.find(key); it != lru_index_.end()) {
    return;  // raced with another flight of the same key; keep the first
  }
  // One artifact larger than the whole budget would evict everything and
  // still not fit; serve it from the store instead.
  if (payload->size() > options_.lru_bytes) return;
  lru_.push_front(LruEntry{key, payload, seconds});
  lru_index_[key] = lru_.begin();
  lru_bytes_ += payload->size();
  while (lru_bytes_ > options_.lru_bytes) {
    const LruEntry& victim = lru_.back();
    lru_bytes_ -= victim.payload->size();
    lru_index_.erase(victim.key);
    lru_.pop_back();
    lru_evictions_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().lru_evictions.add(1);
  }
  lru_bytes_now_.store(lru_bytes_, std::memory_order_relaxed);
  lru_entries_now_.store(lru_.size(), std::memory_order_relaxed);
  serve_metrics().lru_bytes.set(static_cast<std::int64_t>(lru_bytes_));
  serve_metrics().lru_entries.set(static_cast<std::int64_t>(lru_.size()));
}

engine::GenericOutcome Service::run_shared(const engine::JobKey& key,
                                           const engine::GenericJob& job) {
  // Memory-only services have nothing to coordinate through; the
  // in-process Flight map is the whole single-flight story.
  if (!store_.enabled()) {
    return engine::run_generic(registry_, store_, context_, job);
  }
  // Fast path: the entry exists (a warm restart, a sweep that ran before
  // us, or another replica that finished long ago) — no lease traffic.
  if (std::optional<engine::GenericResult> hit = store_.load_generic(key)) {
    engine::GenericOutcome outcome;
    outcome.result = std::move(*hit);
    outcome.cached = true;
    return outcome;
  }
  // Cold: race the fleet for the lease. The winner executes (run_generic
  // re-probes the store internally, so losing a photo-finish to a replica
  // that stored between our probe and our lease win still reads back
  // cached); losers poll until the entry appears, then read it.
  engine::GenericOutcome executed;
  std::optional<engine::GenericResult> waited;
  const fleet::FlightReport report = fleet::single_flight(
      store_.dir() + "/leases", key.hex(), options_.lease,
      [&] {
        waited = store_.load_generic(key);
        return waited.has_value();
      },
      [&] { executed = engine::run_generic(registry_, store_, context_, job); });
  if (report.takeovers > 0) {
    fleet_takeovers_.fetch_add(report.takeovers, std::memory_order_relaxed);
    serve_metrics().fleet_takeovers.add(
        static_cast<std::int64_t>(report.takeovers));
  }
  if (report.role == fleet::FlightRole::kWaited) {
    fleet_waits_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().fleet_waits.add(1);
    engine::GenericOutcome outcome;
    outcome.result = std::move(*waited);
    outcome.cached = true;
    return outcome;
  }
  if (!executed.cached) {
    fleet_executions_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().fleet_executions.add(1);
  }
  return executed;
}

QueryOutcome Service::execute(const engine::GenericJob& job) {
  const InflightGuard inflight;
  // The service-layer span of the request tree. It is current while the
  // leader's pool job is submitted below, so the engine/kernel spans the
  // job opens nest under it (ThreadPool::submit captures the context).
  obs::Span span("serve.execute");
  span.attr("kind", serve::Json(job.kind));
  requests_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().requests.add(1);
  note_kind(job.kind);

  // Unknown kinds must reject on the caller's thread, before a flight is
  // created (the pool would otherwise own the throw).
  const engine::Executor* executor = registry_.find(job.kind);
  if (executor == nullptr) {
    errors_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().errors.add(1);
    throw support::InvalidArgument("unknown job kind " + job.kind);
  }

  const engine::JobKey key = engine::generic_job_key(job);
  std::shared_ptr<Flight> flight;
  bool leader = false;
  PayloadPtr lru_payload;
  double lru_seconds = 0.0;
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (const auto it = lru_index_.find(key.canonical);
        it != lru_index_.end()) {
      lru_.splice(lru_.begin(), lru_, it->second);  // touch
      lru_payload = it->second->payload;  // copy the bytes outside the lock
      lru_seconds = it->second->seconds;
    } else {
      auto& slot = flights_[key.canonical];
      if (slot == nullptr) {
        slot = std::make_shared<Flight>();
        leader = true;
      } else {
        coalesced_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().coalesced.add(1);
      }
      flight = slot;
    }
  }
  if (lru_payload != nullptr) {
    lru_hits_.fetch_add(1, std::memory_order_relaxed);
    serve_metrics().lru_hits.add(1);
    QueryOutcome outcome;
    outcome.payload = std::move(lru_payload);
    outcome.seconds = lru_seconds;
    outcome.source = Source::kLru;
    outcome.cached = true;
    return outcome;
  }

  if (leader) {
    // The leader executes on the pool (bounding concurrent solves) and
    // publishes through the flight; it then waits like every joiner.
    pool_.submit([this, flight, key, job] {
      PayloadPtr payload;
      double seconds = 0.0;
      Source source = Source::kSolve;
      bool failed = false;
      std::string error;
      try {
        engine::GenericOutcome outcome = run_shared(key, job);
        payload = std::make_shared<const std::string>(
            std::move(outcome.result.payload));
        seconds = outcome.result.seconds;
        source = outcome.cached ? Source::kStore : Source::kSolve;
      } catch (const std::exception& e) {
        failed = true;
        error = e.what();
      }
      if (failed) {
        errors_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().errors.add(1);
        obs::log_error("serve", "job failed",
                       {{"kind", serve::Json(job.kind)},
                        {"error", serve::Json(error)}});
      } else if (source == Source::kStore) {
        store_hits_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().store_hits.add(1);
      } else {
        solves_.fetch_add(1, std::memory_order_relaxed);
        serve_metrics().solves.add(1);
      }
      {
        const std::lock_guard<std::mutex> lock(mutex_);
        if (!failed) lru_insert(key.canonical, payload, seconds);
        flights_.erase(key.canonical);
      }
      {
        const std::lock_guard<std::mutex> lock(flight->mutex);
        flight->finished = true;
        flight->failed = failed;
        flight->error = std::move(error);
        flight->payload = std::move(payload);
        flight->seconds = seconds;
        flight->source = source;
      }
      flight->done.notify_all();
    });
  }

  QueryOutcome outcome;
  {
    std::unique_lock<std::mutex> lock(flight->mutex);
    flight->done.wait(lock, [&] { return flight->finished; });
    if (flight->failed) throw support::Error(flight->error);
    outcome.payload = flight->payload;  // shared, no byte copy
    outcome.seconds = flight->seconds;
    outcome.source = leader ? flight->source : Source::kCoalesced;
  }
  outcome.cached = outcome.source != Source::kSolve;
  return outcome;
}

void Service::note_rejected() {
  requests_.fetch_add(1, std::memory_order_relaxed);
  rejected_.fetch_add(1, std::memory_order_relaxed);
  serve_metrics().requests.add(1);
  serve_metrics().rejected.add(1);
}

void Service::note_admin(const std::string& kind) { note_kind(kind); }

ServiceStats Service::stats() const {
  ServiceStats out;
  out.requests = requests_.load(std::memory_order_relaxed);
  out.lru_hits = lru_hits_.load(std::memory_order_relaxed);
  out.store_hits = store_hits_.load(std::memory_order_relaxed);
  out.solves = solves_.load(std::memory_order_relaxed);
  out.coalesced = coalesced_.load(std::memory_order_relaxed);
  out.errors = errors_.load(std::memory_order_relaxed);
  out.rejected = rejected_.load(std::memory_order_relaxed);
  out.lru_evictions = lru_evictions_.load(std::memory_order_relaxed);
  out.fleet_executions = fleet_executions_.load(std::memory_order_relaxed);
  out.fleet_waits = fleet_waits_.load(std::memory_order_relaxed);
  out.fleet_takeovers = fleet_takeovers_.load(std::memory_order_relaxed);
  out.lru_bytes = lru_bytes_now_.load(std::memory_order_relaxed);
  out.lru_entries = lru_entries_now_.load(std::memory_order_relaxed);
  out.uptime_seconds = uptime_.seconds();
  out.kinds.reserve(kind_counts_.size());
  for (const auto& [kind, count] : kind_counts_) {
    out.kinds.emplace_back(kind, count.load(std::memory_order_relaxed));
  }
  return out;
}

}  // namespace serve
