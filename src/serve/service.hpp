// The serving core: a long-lived, concurrent front to the experiment
// engine's generalized jobs.
//
// Three cache layers answer a query, cheapest first:
//
//   1. An in-memory, byte-bounded LRU over finished artifacts — repeat
//      queries cost a map lookup and a string copy.
//   2. Single-flight request coalescing: while a job is being computed,
//      every identical concurrent query joins the in-flight computation
//      instead of starting its own — N clients asking for the same cold
//      sweep trigger exactly one solve and one store write.
//   3. The content-addressed disk ResultStore (shared with the batch
//      CLI): a restarted server — or one pointed at a cache a sweep
//      already populated — answers warm without re-solving.
//
// Executions fan out across one support::ThreadPool sized at
// construction, which bounds concurrent solves no matter how many
// connections the transport accepts; connection threads block on the
// flight of their query, they never occupy a pool slot themselves (so
// pool starvation cannot deadlock the transport).
//
// Each count the `stats` reply reports is one member of ServiceCounters:
// an obs::OwnedCounter or OwnedGauge that holds this Service's own count
// and feeds the selfish_serve_* family of the same name, so `stats` reads
// per Service and `metrics` reads the process-wide sum.
#pragma once

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <list>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <unordered_map>

#include "engine/generic.hpp"
#include "engine/store.hpp"
#include "fleet/lease.hpp"
#include "obs/metrics.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace serve {

/// The kinds the server answers itself, with no executor and no job.
inline constexpr std::array<std::string_view, 5> kAdminKinds = {
    "ping", "stats", "metrics", "trace-dump", "shutdown"};

struct ServiceOptions {
  /// Content-addressed store directory; empty serves from memory only
  /// (no warm restarts, but LRU and coalescing still apply).
  std::string cache_dir;
  /// Concurrent jobs (the pool width); <= 0 means all hardware threads.
  int threads = 0;
  /// Worker threads *inside* each job (Bellman-sweep fan-out, engine
  /// chains). Total CPU demand is roughly threads x job_threads, so the
  /// default keeps each job serial: a saturated pool then uses every
  /// core exactly once instead of oversubscribing cores^2. Raise it on
  /// latency-sensitive deployments with few concurrent clients.
  int job_threads = 1;
  /// LRU capacity in payload bytes; 0 disables the in-memory layer.
  std::size_t lru_bytes = 64ull << 20;
  /// Cross-process single-flight tuning (lease files under
  /// <cache_dir>/leases; see fleet/lease.hpp). Only consulted when a
  /// cache_dir is set — N replicas sharing it then execute each JobKey
  /// exactly once fleet-wide.
  fleet::LeaseOptions lease;
};

/// Where a response came from (reported to clients and to the bench).
enum class Source : std::uint8_t {
  kLru,        ///< In-memory hit.
  kStore,      ///< Disk store hit.
  kSolve,      ///< Computed by this request.
  kCoalesced,  ///< Joined another request's in-flight computation.
};

const char* to_string(Source source);

struct QueryOutcome {
  /// Shared, never null on success: cache hits hand out the resident
  /// buffer instead of copying multi-megabyte artifacts per request.
  std::shared_ptr<const std::string> payload;
  double seconds = 0.0;  ///< Original computation wall-clock.
  Source source = Source::kSolve;
  bool cached = false;  ///< Any layer short of a fresh solve.
};

/// One Service's counts since construction, each declared once with the
/// selfish_serve_* family it feeds. Every member is updated with relaxed
/// atomics, so a `stats` poll never touches the LRU mutex.
struct ServiceCounters {
  obs::OwnedCounter requests{"selfish_serve_requests_total",
                             "Analysis executions plus protocol rejections"};
  obs::OwnedCounter lru_hits{"selfish_serve_lru_hits_total",
                             "Requests answered from the LRU"};
  obs::OwnedCounter store_hits{"selfish_serve_store_hits_total",
                               "Requests answered from the disk store"};
  obs::OwnedCounter solves{"selfish_serve_solves_total",
                           "Requests that computed a fresh artifact"};
  obs::OwnedCounter coalesced{
      "selfish_serve_coalesced_total",
      "Requests that joined an identical in-flight computation"};
  obs::OwnedCounter errors{"selfish_serve_errors_total",
                           "Executor or dispatch failures"};
  /// Protocol-level rejections (note_rejected).
  obs::OwnedCounter rejected{"selfish_serve_rejected_total",
                             "Protocol-level rejections"};
  obs::OwnedCounter lru_evictions{"selfish_serve_lru_evictions_total",
                                  "Entries evicted past the LRU byte budget"};
  /// The LRU's payload residency: the only copy, read by the eviction loop.
  obs::OwnedGauge lru_bytes{"selfish_serve_lru_bytes",
                            "Current LRU payload residency in bytes"};
  obs::OwnedGauge lru_entries{"selfish_serve_lru_entries",
                              "Artifacts resident in the LRU"};
  /// Fleet single-flight view (cache_dir set): leases this replica won
  /// and executed under, store entries it observed another flight
  /// complete (its own solve skipped), and stale leases it took over.
  /// Summed across replicas, fleet_executions equals the number of
  /// distinct cold JobKeys — the "exactly one solve fleet-wide" check.
  obs::OwnedCounter fleet_executions{
      "selfish_serve_fleet_executions_total",
      "Cold jobs this replica executed under a fleet lease"};
  obs::OwnedCounter fleet_waits{
      "selfish_serve_fleet_waits_total",
      "Cold jobs resolved by another replica's flight while this one waited"};
  obs::OwnedCounter fleet_takeovers{
      "selfish_serve_fleet_takeovers_total",
      "Stale (crashed-holder) leases this replica claimed"};
};

class Service {
 public:
  /// Uses the built-in executor registry (engine/kinds.hpp).
  explicit Service(ServiceOptions options);
  /// Custom registry (tests inject slow or counting executors).
  Service(ServiceOptions options, const engine::ExecutorRegistry& registry);
  ~Service();

  Service(const Service&) = delete;
  Service& operator=(const Service&) = delete;

  /// Answers one query through the cache layers. Blocks until the artifact
  /// is available. Throws support::Error on executor failure or an
  /// unknown kind (coalesced waiters of a failed flight all throw).
  QueryOutcome execute(const engine::GenericJob& job);

  /// Records a request that was rejected before reaching execute()
  /// (malformed JSON, unknown kind/field, out-of-range parameters) —
  /// without this the stats would show zero errors while clients are
  /// being turned away.
  void note_rejected();

  /// Records an admin request (one of kAdminKinds: ping | stats |
  /// metrics | trace-dump | shutdown) in the per-kind counts.
  /// Deliberately does not bump `requests`, which keeps its historical
  /// meaning: analysis executions plus rejections.
  void note_admin(const std::string& kind);

  /// This Service's own counts, as the `stats` reply reports them.
  const ServiceCounters& counters() const { return counters_; }
  double uptime_seconds() const { return uptime_.seconds(); }
  /// Requests per kind (analysis kinds via execute(), admin kinds via
  /// note_admin()), sorted by kind name. Every kind the service can
  /// answer appears, zeros included.
  const std::map<std::string, std::atomic<std::uint64_t>>& kind_counts()
      const {
    return kind_counts_;
  }
  const ServiceOptions& options() const { return options_; }
  const engine::ResultStore& store() const { return store_; }
  /// The executor registry this service dispatches to (the `ping`
  /// capability handshake advertises its kinds).
  const engine::ExecutorRegistry& registry() const { return registry_; }

 private:
  /// Payloads live behind shared_ptr so cache hits hand out a reference
  /// under the lock and copy (if at all) outside it — the global mutex
  /// never serializes on a multi-megabyte memcpy.
  using PayloadPtr = std::shared_ptr<const std::string>;

  struct LruEntry {
    std::string key;  ///< Canonical job key (collision-proof identity).
    PayloadPtr payload;
    double seconds = 0.0;
  };

  /// One in-flight computation; joiners wait on `done`.
  struct Flight {
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
    bool failed = false;
    std::string error;
    PayloadPtr payload;
    double seconds = 0.0;
    Source source = Source::kSolve;  ///< How the leader resolved it.
  };

  /// Inserts into the LRU and evicts past the byte budget. Requires
  /// mutex_ held.
  void lru_insert(const std::string& key, const PayloadPtr& payload,
                  double seconds);

  /// Bumps the per-kind request count (no-op for unknown kinds — the
  /// count table is frozen at construction).
  void note_kind(const std::string& kind);

  /// run_generic wrapped in the fleet lease (store-backed services):
  /// exactly one process executes a cold key no matter how many replicas
  /// share the cache directory; everyone else reads the completed entry.
  engine::GenericOutcome run_shared(const engine::JobKey& key,
                                    const engine::GenericJob& job);

  ServiceOptions options_;
  const engine::ExecutorRegistry& registry_;
  engine::ResultStore store_;
  engine::ExecContext context_;
  support::ThreadPool pool_;
  const support::Timer uptime_;

  mutable std::mutex mutex_;
  std::list<LruEntry> lru_;  ///< Front = most recent.
  std::unordered_map<std::string, std::list<LruEntry>::iterator> lru_index_;
  std::unordered_map<std::string, std::shared_ptr<Flight>> flights_;

  ServiceCounters counters_;
  obs::Gauge& inflight_;  ///< selfish_serve_inflight: queries in execute().
  /// Per-kind request counts. The key set is frozen at construction
  /// (executor kinds + admin kinds), so concurrent lookups never mutate
  /// the map and need no lock; the values are atomics.
  std::map<std::string, std::atomic<std::uint64_t>> kind_counts_;
};

}  // namespace serve
