// Shared plumbing of the end-to-end benchmark harness: run configuration,
// the in-memory span recorder, obs-registry snapshots, sample statistics
// and the result document every workload fills in.
//
// The harness reaches the library only through its public headers. Spans
// are recorded here, around the public calls, never inside src/: a span
// is a (name, layer, parent, thread, start, end) record kept in memory and
// written out once, with the result document, when the run ends.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "obs/metrics.hpp"
#include "serve/json.hpp"

namespace perfbench {

/// Seconds on the steady clock since the harness started.
double now_s();

struct Config {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 30.0;
  bool trace = false;
  std::string work_dir;  ///< Scratch space for stores and cache dirs.
};

/// How far a strategy's ERRev may sit above β_hi. A bisection step whose
/// gain is within the solver tolerance (1e-7) of zero takes its sign from
/// the interval midpoint, which can leave β_hi a hair below ERRev*
/// (measured: 7.6e-8 at d=3,f=2,γ=0.75,p=0.2039). Sign-certified
/// bisection closes that gap; until then the gate allows solver precision.
inline constexpr double kSolverSlack = 1e-6;

/// Algorithm 1 options for the workloads that call the solver directly:
/// library defaults, 1 solver thread, and the scalar gather pinned.
/// GatherMode::kAuto picks scalar or a hardware gather by a ~1 ms
/// calibration in each process; on a noisy host that pick flips between
/// processes, and the hardware path runs the d=3 models ≈40% slower, so
/// auto would make run times bimodal. Every gather mode returns
/// byte-identical results.
analysis::AnalysisOptions pinned_analysis_options();

/// Batches a timed loop runs: at least `min_batches` (three, so the
/// median is a middle value), then more while the next one (assumed as
/// long as the longest so far) still ends inside the run's time budget.
bool another_batch(const Config& config, double started, int done,
                   double longest, int min_batches = 3);

// ------------------------------------------------------------- host speed

/// What the host-speed probe (a fixed 64 KB gather-and-multiply loop, the
/// Bellman sweep's access pattern at L2 size, best of three) takes on a quiet CPU of the host the benchmark was
/// built on: 4-core KVM Xeon, 2 MB L2 per core, GCC 12.2, Release.
inline constexpr double kNominalProbeSeconds = 100e-6;

/// A timed section: its wall time, the probe time around it, and the wall
/// time at nominal host speed, wall_s × kNominalProbeSeconds ÷ probe_s.
struct Timing {
  double wall_s = 0.0;
  double probe_s = 0.0;
  double nominal_s = 0.0;
};

/// Runs `section` on the `n` CPUs that run the probe fastest right now and
/// times it. On a shared host a CPU's speed moves by up to 1.8x for
/// seconds to minutes at a time (other tenants on the same physical cores
/// and the turbo headroom they leave); CPU time moves with it, and the
/// scheduler keeps a busy thread where it is. So the calling thread is
/// pinned to the quiet CPUs first (threads the section starts inherit the
/// pin), and those CPUs are probed again afterwards. The probe is the
/// benchmark's own code, which no change to the library touches, so a
/// faster library shows in nominal_s in full. A refused affinity call
/// leaves the thread unpinned and nominal_s = wall_s.
Timing time_on_quiet_cpus(int n, const std::function<void()>& section);

// ------------------------------------------------------------------ spans

/// One closed span. `parent` is -1 for a root. `split` moves part of the
/// span's self time to other layers (a registry-measured share such as
/// the Bellman sweeps inside `analyze`); the ledger reducer applies it.
struct SpanRecord {
  int id = -1;
  int parent = -1;
  std::string name;
  std::string layer;
  int thread = 0;
  double start = 0.0;
  double end = 0.0;
  std::vector<std::pair<std::string, double>> attrs;
  std::vector<std::pair<std::string, double>> split;
};

/// Thread-safe in-memory span store. A disabled tracer hands out id -1
/// and records nothing, so untraced batches pay one branch per span.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  int next_id() { return enabled_ ? next_id_.fetch_add(1) : -1; }
  void record(SpanRecord span);
  /// Bulk hand-off of spans a hot loop collected thread-locally.
  void record_all(std::vector<SpanRecord> spans);
  std::vector<SpanRecord> spans() const;

 private:
  bool enabled_;
  std::atomic<int> next_id_{0};
  mutable std::mutex mutex_;
  std::vector<SpanRecord> spans_;
};

/// RAII span: starts on construction, is recorded on destruction (or
/// close()). Inert when the tracer is disabled.
class Span {
 public:
  Span(Tracer& tracer, std::string name, std::string layer, int parent = -1);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  int id() const { return record_.id; }
  void split(const std::string& layer, double seconds);
  void close();

 private:
  Tracer& tracer_;
  SpanRecord record_;
  bool open_;
};

// ------------------------------------------------------- registry deltas

/// The obs series the per-layer metrics are computed from, read through
/// the public registry (lookups return the live series the library
/// registered at static init).
struct Counts {
  std::map<std::string, double> counters;
  obs::HistogramSnapshot sweep_seconds;
  obs::HistogramSnapshot request_seconds;  ///< kind="point"
  double bytes_per_sweep = 0.0;            ///< Gauge: the latest model.

  double get(const std::string& name) const;
  double sweep_busy_s() const { return sweep_seconds.sum; }
  /// this − before, series by series (histograms bucket by bucket).
  Counts minus(const Counts& before) const;
  /// Accumulates another delta (gauge: the other's value wins).
  void add(const Counts& delta);
};

Counts read_counts();

// ------------------------------------------------------------- statistics

/// Linear-interpolated q-quantile (q in [0,1]); NaN when empty.
double quantile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// Peak resident set size of this process in MB (getrusage).
double peak_rss_mb();

/// Parses "ERRev* in [lo, hi]; strategy achieves x" out of an `analyze`
/// report; false when the line is missing.
bool parse_bracket(const std::string& report, double& lo, double& hi,
                   double& errev);

// ---------------------------------------------------------------- results

/// What one run reports: metrics by name (with unit), the correctness
/// gate, operation counts, the spans and free-form notes. Serialized as
/// one JSON document that perfbench/run.py reduces and prints.
class Result {
 public:
  /// Sets (or overwrites) a metric.
  void metric(const std::string& name, double value, const std::string& unit);
  /// Records a correctness check (a failed one is listed by name) and
  /// returns `ok`. Workloads count the operation it gates as failed.
  bool check(bool ok, const std::string& what);
  void attempted(std::uint64_t n) { attempted_ += n; }
  void failed(std::uint64_t n) { failed_ += n; }
  void note(const std::string& key, serve::Json value);

  std::string to_json(const Config& config, const Tracer& tracer) const;

 private:
  std::map<std::string, std::pair<double, std::string>> metrics_;
  std::vector<std::string> check_failures_;
  std::uint64_t checks_ = 0;
  std::uint64_t checks_failed_ = 0;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  serve::JsonMembers notes_;
};

/// Notes a list of samples under `key`.
void note_samples(Result& result, const std::string& key,
                  const std::vector<double>& values);

/// Notes every set-up and batch wall time of a run.
void note_batches(Result& result, const std::vector<double>& setups,
                  const std::vector<double>& untraced,
                  const std::vector<double>& traced);

/// Notes and reports what the host did to a run's untraced batches: their
/// median wall time (the figure before host-speed correction) and the
/// median probe time, besides setup_s (nominal set-up times, median).
void report_host(Result& result, const std::vector<double>& wall_batches,
                 const std::vector<double>& probes_us,
                 const std::vector<double>& setups_wall,
                 const std::vector<double>& setups_nominal);

/// Fills the mdp / engine / serve / fleet count metrics from a registry
/// delta.
void report_registry_layers(const Counts& delta, Result& result);

// --------------------------------------------------------------- workloads

void run_analyze_cold(const Config& config, Tracer& tracer, Result& result);
void run_sweep_chain(const Config& config, Tracer& tracer, Result& result);
void run_serve_mix(const Config& config, Tracer& tracer, Result& result);

}  // namespace perfbench
