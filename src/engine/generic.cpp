#include "engine/generic.hpp"

#include <utility>

#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"
#include "support/hash.hpp"
#include "support/timer.hpp"

namespace engine {

namespace {

struct GenericMetrics {
  obs::Counter& jobs = obs::counter(
      "selfish_engine_generic_jobs_total", "Generalized engine jobs run");
  obs::Counter& cache_hits = obs::counter(
      "selfish_engine_generic_cache_hits_total",
      "Generalized engine jobs satisfied from the result store");
};

GenericMetrics& generic_metrics() {
  static GenericMetrics metrics;
  return metrics;
}

[[maybe_unused]] const GenericMetrics& g_registered_generic_metrics =
    generic_metrics();

}  // namespace

JobKey generic_job_key(const GenericJob& job) {
  JobKey key;
  key.canonical = job.kind + "/v" + std::to_string(kCodeVersionSalt) + "|" +
                  job.options;
  key.hash = support::fnv1a64(key.canonical.data(), key.canonical.size());
  return key;
}

void ExecutorRegistry::add(const std::string& kind, Executor fn) {
  SM_REQUIRE(fn != nullptr, "null executor for kind ", kind);
  const bool inserted = executors_.emplace(kind, std::move(fn)).second;
  SM_REQUIRE(inserted, "duplicate executor kind ", kind);
}

const Executor* ExecutorRegistry::find(const std::string& kind) const {
  const auto it = executors_.find(kind);
  return it == executors_.end() ? nullptr : &it->second;
}

std::vector<std::string> ExecutorRegistry::kinds() const {
  std::vector<std::string> names;
  names.reserve(executors_.size());
  for (const auto& [kind, fn] : executors_) names.push_back(kind);
  return names;
}

GenericOutcome run_generic(const ExecutorRegistry& registry,
                           const ResultStore& store, const ExecContext& ctx,
                           const GenericJob& job) {
  const Executor* executor = registry.find(job.kind);
  SM_REQUIRE(executor != nullptr, "unknown job kind ", job.kind);

  const JobKey key = generic_job_key(job);
  generic_metrics().jobs.add(1);
  if (auto hit = store.load_generic(key)) {
    generic_metrics().cache_hits.add(1);
    GenericOutcome outcome;
    outcome.result = std::move(*hit);
    outcome.cached = true;
    return outcome;
  }

  obs::Span span("engine.generic");
  span.attr("kind", serve::Json(job.kind));
  const support::Timer timer;
  GenericOutcome outcome;
  outcome.result = (*executor)(job, ctx);
  outcome.result.seconds = timer.seconds();
  store.store_generic(key, outcome.result);
  return outcome;
}

}  // namespace engine
