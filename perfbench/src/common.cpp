#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>

#include "bench.hpp"

namespace perfbench {

namespace {

const std::chrono::steady_clock::time_point g_epoch =
    std::chrono::steady_clock::now();

serve::Json number(double value) { return serve::Json(value); }

serve::Json pairs_to_json(
    const std::vector<std::pair<std::string, double>>& pairs) {
  serve::JsonMembers members;
  for (const auto& [key, value] : pairs) members.emplace_back(key, number(value));
  return serve::Json::object(std::move(members));
}

/// Live handles of the series read by read_counts(). Names, bounds and
/// labels match the library's registrations, so the lookups resolve to
/// the series the instrumented code writes.
struct Handles {
  std::vector<std::pair<std::string, obs::Counter*>> counters;
  obs::Histogram* sweep_seconds = nullptr;
  obs::Histogram* request_seconds = nullptr;
  obs::Gauge* bytes_per_sweep = nullptr;
};

const Handles& handles() {
  static const Handles h = [] {
    Handles out;
    for (const char* name : {
             "selfish_mdp_solves_total",
             "selfish_mdp_sweeps_total",
             "selfish_engine_jobs_planned_total",
             "selfish_engine_cache_hits_total",
             "selfish_engine_executed_total",
             "selfish_engine_store_read_bytes_total",
             "selfish_engine_store_written_bytes_total",
             "selfish_serve_requests_total",
             "selfish_serve_lru_hits_total",
             "selfish_serve_store_hits_total",
             "selfish_serve_solves_total",
             "selfish_serve_coalesced_total",
             "selfish_serve_busy_total",
             "selfish_serve_fleet_executions_total",
             "selfish_serve_fleet_waits_total",
         }) {
      out.counters.emplace_back(name, &obs::counter(name, name));
    }
    out.sweep_seconds = &obs::histogram(
        "selfish_mdp_sweep_seconds", "Wall time of one parallel backup sweep",
        obs::exponential_buckets(1e-5, 4.0, 12));
    out.request_seconds = &obs::histogram(
        "selfish_serve_request_seconds",
        "End-to-end request latency (parse through render)",
        obs::exponential_buckets(1e-5, 4.0, 14), "kind=\"point\"");
    out.bytes_per_sweep = &obs::gauge(
        "selfish_mdp_bytes_per_sweep",
        "Bytes streamed by one backup sweep of the most recent model");
    return out;
  }();
  return h;
}

obs::HistogramSnapshot histogram_minus(const obs::HistogramSnapshot& now,
                                       const obs::HistogramSnapshot& then) {
  obs::HistogramSnapshot out = now;
  for (std::size_t i = 0; i < out.counts.size() && i < then.counts.size();
       ++i) {
    out.counts[i] -= then.counts[i];
  }
  out.sum -= then.sum;
  out.count -= then.count;
  return out;
}

void histogram_add(obs::HistogramSnapshot& into,
                   const obs::HistogramSnapshot& delta) {
  if (into.counts.empty()) {
    into = delta;
    return;
  }
  for (std::size_t i = 0; i < into.counts.size() && i < delta.counts.size();
       ++i) {
    into.counts[i] += delta.counts[i];
  }
  into.sum += delta.sum;
  into.count += delta.count;
}

/// Seconds for the host-speed probe (see kNominalProbeSeconds) on
/// whatever CPU the calling thread runs.
double probe_seconds() {
  constexpr std::size_t kSize = 8192;
  static const auto [values, index] = [] {
    std::vector<double> v(kSize);
    std::vector<std::uint32_t> ix(kSize);
    std::uint32_t x = 1;
    for (std::size_t i = 0; i < kSize; ++i) {
      v[i] = 1.0 + static_cast<double>(i) * 1e-6;
      x = x * 1664525u + 1013904223u;
      ix[i] = x % kSize;
    }
    return std::pair{v, ix};
  }();
  double best = 1e9;
  for (int rep = 0; rep < 3; ++rep) {
    const double t0 = now_s();
    double s0 = 0, s1 = 0, s2 = 0, s3 = 0;
    for (int pass = 0; pass < 24; ++pass) {
      for (std::size_t i = 0; i < kSize; i += 4) {
        s0 += values[index[i]] * 0.999;
        s1 += values[index[i + 1]] * 0.998;
        s2 += values[index[i + 2]] * 0.997;
        s3 += values[index[i + 3]] * 0.996;
      }
    }
    static volatile double sink;
    sink = s0 + s1 + s2 + s3;
    best = std::min(best, now_s() - t0);
  }
  return best;
}

const cpu_set_t& start_mask() {
  static const cpu_set_t mask = [] {
    cpu_set_t m;
    CPU_ZERO(&m);
    if (sched_getaffinity(0, sizeof(m), &m) != 0) CPU_ZERO(&m);
    return m;
  }();
  return mask;
}

/// Probe time of each CPU of `mask`, fastest first; leaves the calling
/// thread pinned to the last CPU probed.
std::vector<std::pair<double, int>> probe_each(const cpu_set_t& mask) {
  std::vector<std::pair<double, int>> speed;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &mask)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    if (sched_setaffinity(0, sizeof(one), &one) != 0) continue;
    speed.emplace_back(probe_seconds(), cpu);
  }
  std::sort(speed.begin(), speed.end());
  return speed;
}

double mean_probe(const std::vector<std::pair<double, int>>& speed,
                  std::size_t n) {
  double sum = 0.0;
  for (std::size_t i = 0; i < n; ++i) sum += speed[i].first;
  return sum / static_cast<double>(n);
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       g_epoch)
      .count();
}

analysis::AnalysisOptions pinned_analysis_options() {
  analysis::AnalysisOptions options;
  options.solver.threads = 1;
  options.solver.tuning.gather = mdp::GatherMode::kScalar;
  return options;
}

bool another_batch(const Config& config, double started, int done,
                   double longest, int min_batches) {
  if (done < min_batches) return true;
  return now_s() - started + longest <= config.seconds;
}

Timing time_on_quiet_cpus(int n, const std::function<void()>& section) {
  const std::vector<std::pair<double, int>> speed = probe_each(start_mask());
  const std::size_t chosen_n =
      std::min(speed.size(), static_cast<std::size_t>(std::max(n, 1)));
  cpu_set_t chosen;
  CPU_ZERO(&chosen);
  for (std::size_t i = 0; i < chosen_n; ++i) CPU_SET(speed[i].second, &chosen);
  const cpu_set_t& mask = chosen_n > 0 ? chosen : start_mask();
  if (CPU_COUNT(&mask) > 0) sched_setaffinity(0, sizeof(mask), &mask);

  const double t0 = now_s();
  section();
  Timing timing;
  timing.wall_s = now_s() - t0;
  if (chosen_n == 0) {  // affinity refused: no probe, no correction
    timing.nominal_s = timing.wall_s;
    return timing;
  }
  const double before_s = mean_probe(speed, chosen_n);
  const std::vector<std::pair<double, int>> after = probe_each(chosen);
  sched_setaffinity(0, sizeof(chosen), &chosen);
  const double after_s =
      after.empty() ? before_s : mean_probe(after, after.size());
  timing.probe_s = (before_s + after_s) / 2.0;
  timing.nominal_s = timing.wall_s * kNominalProbeSeconds / timing.probe_s;
  return timing;
}

// ------------------------------------------------------------------ spans

void Tracer::record(SpanRecord span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(std::move(span));
}

void Tracer::record_all(std::vector<SpanRecord> spans) {
  const std::lock_guard<std::mutex> lock(mutex_);
  for (SpanRecord& span : spans) spans_.push_back(std::move(span));
}

std::vector<SpanRecord> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

Span::Span(Tracer& tracer, std::string name, std::string layer, int parent)
    : tracer_(tracer), open_(tracer.enabled()) {
  if (!open_) return;
  record_.id = tracer.next_id();
  record_.parent = parent;
  record_.name = std::move(name);
  record_.layer = std::move(layer);
  record_.start = now_s();
}

Span::~Span() { close(); }

void Span::split(const std::string& layer, double seconds) {
  if (open_) record_.split.emplace_back(layer, seconds);
}

void Span::close() {
  if (!open_) return;
  open_ = false;
  record_.end = now_s();
  tracer_.record(std::move(record_));
}

// ------------------------------------------------------- registry deltas

double Counts::get(const std::string& name) const {
  const auto it = counters.find(name);
  return it == counters.end() ? 0.0 : it->second;
}

Counts Counts::minus(const Counts& before) const {
  Counts out = *this;
  for (auto& [name, value] : out.counters) value -= before.get(name);
  out.sweep_seconds = histogram_minus(sweep_seconds, before.sweep_seconds);
  out.request_seconds =
      histogram_minus(request_seconds, before.request_seconds);
  return out;
}

void Counts::add(const Counts& delta) {
  for (const auto& [name, value] : delta.counters) counters[name] += value;
  histogram_add(sweep_seconds, delta.sweep_seconds);
  histogram_add(request_seconds, delta.request_seconds);
  bytes_per_sweep = delta.bytes_per_sweep;
}

Counts read_counts() {
  const Handles& h = handles();
  Counts out;
  for (const auto& [name, counter] : h.counters) {
    out.counters[name] = static_cast<double>(counter->value());
  }
  out.sweep_seconds = h.sweep_seconds->snapshot();
  out.request_seconds = h.request_seconds->snapshot();
  out.bytes_per_sweep = static_cast<double>(h.bytes_per_sweep->value());
  return out;
}

// ------------------------------------------------------------- statistics

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

void note_samples(Result& result, const std::string& key,
                  const std::vector<double>& values) {
  result.note(key, serve::Json::array({values.begin(), values.end()}));
}

void note_batches(Result& result, const std::vector<double>& setups,
                  const std::vector<double>& untraced,
                  const std::vector<double>& traced) {
  note_samples(result, "setups_s", setups);
  note_samples(result, "untraced_batches_s", untraced);
  note_samples(result, "traced_batches_s", traced);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KB on Linux
}

bool parse_bracket(const std::string& report, double& lo, double& hi,
                   double& errev) {
  const std::size_t at = report.find("ERRev* in [");
  if (at == std::string::npos) return false;
  return std::sscanf(report.c_str() + at,
                     "ERRev* in [%lf, %lf]; strategy achieves %lf", &lo, &hi,
                     &errev) == 3;
}

// ---------------------------------------------------------------- results

void Result::metric(const std::string& name, double value,
                    const std::string& unit) {
  if (!std::isfinite(value)) {
    check(false, "metric " + name + " is not a finite number");
    value = 0.0;
  }
  metrics_[name] = {value, unit};
}

bool Result::check(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) {
    ++checks_failed_;
    if (check_failures_.size() < 50) check_failures_.push_back(what);
  }
  return ok;
}

void Result::note(const std::string& key, serve::Json value) {
  notes_.emplace_back(key, std::move(value));
}

std::string Result::to_json(const Config& config, const Tracer& tracer) const {
  serve::JsonMembers metrics;
  for (const auto& [name, value_unit] : metrics_) {
    metrics.emplace_back(
        name, serve::Json::object({{"value", number(value_unit.first)},
                                   {"unit", serve::Json(value_unit.second)}}));
  }
  std::vector<serve::Json> failures;
  for (const std::string& failure : check_failures_) {
    failures.emplace_back(failure);
  }
  std::vector<serve::Json> spans;
  for (const SpanRecord& span : tracer.spans()) {
    spans.push_back(serve::Json::object({
        {"id", number(span.id)},
        {"parent", number(span.parent)},
        {"name", serve::Json(span.name)},
        {"layer", serve::Json(span.layer)},
        {"thread", number(span.thread)},
        {"start", number(span.start)},
        {"end", number(span.end)},
        {"attrs", pairs_to_json(span.attrs)},
        {"split", pairs_to_json(span.split)},
    }));
  }
  serve::JsonMembers doc;
  doc.emplace_back("workload", serve::Json(config.workload));
  doc.emplace_back("seed", number(static_cast<double>(config.seed)));
  doc.emplace_back("trace", serve::Json(config.trace));
  doc.emplace_back("checks", number(static_cast<double>(checks_)));
  doc.emplace_back("check_failures", serve::Json::array(std::move(failures)));
  doc.emplace_back("attempted", number(static_cast<double>(attempted_)));
  // A failed check always shows as at least one failed operation.
  const std::uint64_t failed =
      std::max<std::uint64_t>(failed_, checks_failed_ > 0 ? 1 : 0);
  doc.emplace_back("failed", number(static_cast<double>(failed)));
  doc.emplace_back("metrics", serve::Json::object(std::move(metrics)));
  doc.emplace_back("notes", serve::Json::object(notes_));
  doc.emplace_back("spans", serve::Json::array(std::move(spans)));
  return serve::Json::object(std::move(doc)).dump();
}

void report_host(Result& result, const std::vector<double>& wall_batches,
                 const std::vector<double>& probes_us,
                 const std::vector<double>& setups_wall,
                 const std::vector<double>& setups_nominal) {
  note_samples(result, "setups_nominal_s", setups_nominal);
  note_samples(result, "probe_us", probes_us);
  result.metric("setup_s", median(setups_nominal), "s");
  result.metric("bench.wall_batch_s", median(wall_batches), "s");
  result.metric("bench.host_probe_us", median(probes_us), "us");
  result.note("wall_batch_s", serve::Json(median(wall_batches)));
  result.note("wall_setup_s", serve::Json(median(setups_wall)));
  result.note("host_probe_us", serve::Json(median(probes_us)));
}

void report_registry_layers(const Counts& delta, Result& result) {
  const double sweeps = delta.get("selfish_mdp_sweeps_total");
  const double busy = delta.sweep_busy_s();
  result.metric("mdp.solves", delta.get("selfish_mdp_solves_total"), "count");
  result.metric("mdp.sweeps", sweeps, "count");
  result.metric("mdp.sweep_busy_s", busy, "s");
  if (delta.sweep_seconds.count > 0) {
    result.metric("mdp.sweep_p50_ms",
                  delta.sweep_seconds.quantile(0.5) * 1e3, "ms");
  }
  if (sweeps > 0) {
    result.metric("mdp.bytes_per_sweep", delta.bytes_per_sweep, "bytes");
    if (busy > 0) {
      result.metric("mdp.achieved_gbps",
                    delta.bytes_per_sweep * sweeps / busy / 1e9, "GB/s");
    }
  }
  result.metric("engine.jobs_planned",
                delta.get("selfish_engine_jobs_planned_total"), "count");
  result.metric("engine.executed", delta.get("selfish_engine_executed_total"),
                "count");
  result.metric("engine.cache_hits",
                delta.get("selfish_engine_cache_hits_total"), "count");
  result.metric("engine.store_written_bytes",
                delta.get("selfish_engine_store_written_bytes_total"),
                "bytes");
  result.metric("engine.store_read_bytes",
                delta.get("selfish_engine_store_read_bytes_total"), "bytes");
  const double requests = delta.get("selfish_serve_requests_total");
  const double lru = delta.get("selfish_serve_lru_hits_total");
  const double store = delta.get("selfish_serve_store_hits_total");
  result.metric("serve.lru_hits", lru, "count");
  result.metric("serve.store_hits", store, "count");
  result.metric("serve.solves", delta.get("selfish_serve_solves_total"),
                "count");
  result.metric("serve.coalesced", delta.get("selfish_serve_coalesced_total"),
                "count");
  result.metric("serve.busy", delta.get("selfish_serve_busy_total"), "count");
  if (requests > 0) {
    result.metric("serve.hit_ratio", (lru + store) / requests, "ratio");
  }
  result.metric("fleet.executions",
                delta.get("selfish_serve_fleet_executions_total"), "count");
  result.metric("fleet.waits", delta.get("selfish_serve_fleet_waits_total"),
                "count");
}

}  // namespace perfbench
