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

/// RAII in-flight gauge bump: exception-safe across execute()'s throws.
class InflightGuard {
 public:
  explicit InflightGuard(obs::Gauge& gauge) : gauge_(gauge) { gauge_.add(1); }
  ~InflightGuard() { gauge_.add(-1); }
  InflightGuard(const InflightGuard&) = delete;
  InflightGuard& operator=(const InflightGuard&) = delete;

 private:
  obs::Gauge& gauge_;
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
      pool_(support::resolve_thread_count(options_.threads)),
      inflight_(obs::gauge("selfish_serve_inflight",
                           "Queries currently inside execute()")) {
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
  obs::OwnedGauge& resident = counters_.lru_bytes;
  resident.add(static_cast<std::int64_t>(payload->size()));
  while (static_cast<std::size_t>(resident.value()) > options_.lru_bytes) {
    const LruEntry& victim = lru_.back();
    resident.add(-static_cast<std::int64_t>(victim.payload->size()));
    lru_index_.erase(victim.key);
    lru_.pop_back();
    counters_.lru_evictions.add();
  }
  counters_.lru_entries.set(static_cast<std::int64_t>(lru_.size()));
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
  counters_.fleet_takeovers.add(report.takeovers);
  if (report.role == fleet::FlightRole::kWaited) {
    counters_.fleet_waits.add();
    engine::GenericOutcome outcome;
    outcome.result = std::move(*waited);
    outcome.cached = true;
    return outcome;
  }
  if (!executed.cached) counters_.fleet_executions.add();
  return executed;
}

QueryOutcome Service::execute(const engine::GenericJob& job) {
  const InflightGuard inflight(inflight_);
  // The service-layer span of the request tree. It is current while the
  // leader's pool job is submitted below, so the engine/kernel spans the
  // job opens nest under it (ThreadPool::submit captures the context).
  obs::Span span("serve.execute");
  span.attr("kind", serve::Json(job.kind));
  counters_.requests.add();
  note_kind(job.kind);

  // Unknown kinds must reject on the caller's thread, before a flight is
  // created (the pool would otherwise own the throw).
  const engine::Executor* executor = registry_.find(job.kind);
  if (executor == nullptr) {
    counters_.errors.add();
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
        counters_.coalesced.add();
      }
      flight = slot;
    }
  }
  if (lru_payload != nullptr) {
    counters_.lru_hits.add();
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
        counters_.errors.add();
        obs::log_error("serve", "job failed",
                       {{"kind", serve::Json(job.kind)},
                        {"error", serve::Json(error)}});
      } else if (source == Source::kStore) {
        counters_.store_hits.add();
      } else {
        counters_.solves.add();
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
  counters_.requests.add();
  counters_.rejected.add();
}

void Service::note_admin(const std::string& kind) { note_kind(kind); }

}  // namespace serve
