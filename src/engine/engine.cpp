#include "engine/engine.hpp"

#include <atomic>
#include <exception>
#include <future>
#include <map>
#include <utility>

#include "analysis/algorithm1.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "support/parallel.hpp"
#include "support/timer.hpp"

namespace engine {

namespace {

/// Job-lifecycle metrics, registered at static init so a fresh `metrics`
/// scrape lists the engine family before any job runs.
struct EngineMetrics {
  obs::Counter& planned = obs::counter(
      "selfish_engine_jobs_planned_total",
      "Deduplicated analysis slots planned for execution");
  obs::Counter& cache_hits = obs::counter(
      "selfish_engine_cache_hits_total",
      "Analysis slots satisfied from the result store");
  obs::Counter& executed = obs::counter(
      "selfish_engine_executed_total",
      "Analysis slots solved (store miss)");
};

EngineMetrics& engine_metrics() {
  static EngineMetrics metrics;
  return metrics;
}

[[maybe_unused]] const EngineMetrics& g_registered_engine_metrics =
    engine_metrics();

/// One deduplicated job of the batch.
struct Slot {
  AnalysisJob job;
  JobKey key;
  std::size_t shape = 0;  ///< Its model's ShapeCell.
};

/// A model shape the batch needs. The first slot that asks builds it;
/// every other slot of the shape blocks on the future until it is ready,
/// and a build that throws fails each of them with the build's error.
class ShapeCell {
 public:
  const selfish::ModelShape& get(const selfish::AttackParams& params) {
    if (!claimed_.exchange(true)) {
      try {
        built_.set_value(std::make_shared<const selfish::ModelShape>(
            selfish::build_shape(params)));
      } catch (...) {
        built_.set_exception(std::current_exception());
      }
    }
    return *shape_.get();
  }

 private:
  std::atomic<bool> claimed_{false};
  std::promise<std::shared_ptr<const selfish::ModelShape>> built_;
  std::shared_future<std::shared_ptr<const selfish::ModelShape>> shape_ =
      built_.get_future().share();
};

StoredResult to_stored(const analysis::AnalysisResult& analysis,
                       std::uint64_t num_states, double seconds) {
  StoredResult stored;
  stored.beta_lo = analysis.beta_lo;
  stored.beta_hi = analysis.beta_hi;
  stored.errev_of_policy = analysis.errev_of_policy;
  stored.seconds = seconds;
  stored.search_iterations = analysis.search_iterations;
  stored.solver_iterations = analysis.solver_iterations;
  stored.num_states = num_states;
  stored.policy = analysis.policy;
  return stored;
}

}  // namespace

Engine::Engine(EngineOptions options)
    : options_(std::move(options)), store_(options_.cache_dir) {}

std::vector<JobOutcome> Engine::run(const std::vector<AnalysisJob>& jobs,
                                    bool keep_models) const {
  // ---- Dedupe by key, and group the distinct jobs by model shape.
  std::vector<Slot> slots;
  std::vector<std::size_t> slot_of_input(jobs.size(), 0);
  std::map<std::string, std::size_t> slot_of_key;
  std::map<selfish::ShapeKey, std::size_t> cell_of_shape;
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    jobs[i].params.validate();
    jobs[i].options.validate();
    JobKey key = analysis_job_key(jobs[i]);
    const auto [it, inserted] =
        slot_of_key.emplace(key.canonical, slots.size());
    if (inserted) {
      const std::size_t cell =
          cell_of_shape
              .emplace(selfish::ShapeKey::of(jobs[i].params),
                       cell_of_shape.size())
              .first->second;
      slots.push_back(Slot{jobs[i], std::move(key), cell});
    }
    slot_of_input[i] = it->second;
  }
  if (obs::enabled()) engine_metrics().planned.add(slots.size());
  // Each shape is built at most once, by the first slot that needs it. It
  // lives until the batch ends, and its structure as long as a model
  // rendered on it.
  std::vector<ShapeCell> cells(cell_of_shape.size());

  // ---- Fan out: load or solve-and-store, one task per distinct job.
  std::vector<JobOutcome> by_slot(slots.size());
  support::parallel_for(slots.size(), options_.threads, [&](std::size_t s) {
    const Slot& slot = slots[s];
    JobOutcome& out = by_slot[s];
    std::shared_ptr<const selfish::SelfishModel> model;
    if (std::optional<StoredResult> hit = store_.load(slot.key)) {
      engine_metrics().cache_hits.add(1);
      out.result = std::move(*hit);
      out.cached = true;
    } else {
      engine_metrics().executed.add(1);
      obs::Span solve_span("engine.solve");
      solve_span.attr("p", serve::Json(slot.job.params.p));
      const support::Timer timer;
      auto built = std::make_shared<selfish::SelfishModel>(selfish::render(
          cells[slot.shape].get(slot.job.params), slot.job.params));
      const analysis::AnalysisResult analysis =
          analysis::analyze(*built, slot.job.options);
      out.result =
          to_stored(analysis, built->mdp.num_states(), timer.seconds());
      store_.store(slot.key, out.result);
      model = std::move(built);
    }
    if (keep_models) {
      if (model == nullptr) {
        model = std::make_shared<selfish::SelfishModel>(selfish::render(
            cells[slot.shape].get(slot.job.params), slot.job.params));
        // Guard the replayed policy against a store entry produced by
        // incompatible code (the salt should prevent this).
        mdp::validate_policy(model->mdp, out.result.policy);
      }
      out.model = std::move(model);
    }
  });

  std::vector<JobOutcome> outcomes(jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    outcomes[i] = by_slot[slot_of_input[i]];
  }
  return outcomes;
}

}  // namespace engine
