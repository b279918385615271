// The experiment engine: parallel, cached, resumable execution of
// analysis-job batches.
//
// A batch runs in three steps:
//
//   1. Dedupe. Jobs with equal keys (engine/job.hpp) are one job, solved
//      once; duplicates share its outcome. The distinct jobs are grouped
//      by model shape (selfish::ShapeKey).
//   2. Fan out. Every distinct job is an independent task on a
//      support::ThreadPool — a one-γ sweep uses every thread.
//   3. Load or solve and store. A job whose entry is in the ResultStore
//      is served from it; any other is solved cold (render the model at
//      its point, run Algorithm 1) and persisted as soon as it finishes.
//
// Each shape is built once per batch, by the first job that needs it;
// the shape's other jobs block until it is ready, then render their
// points on it, and a build that throws fails each of them. A batch
// served wholly from the store builds nothing. Shapes live for one run,
// so N concurrent points of one shape hold one structure plus each
// point's probabilities and expected counters, not N whole models.
//
// A job's result is a pure function of its key, never of the batch it
// ran in, the thread count or the order of completion: a killed sweep
// restarted with any grid that shares points with it recomputes only
// what is missing and reproduces the uninterrupted run's output byte for
// byte.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "engine/job.hpp"
#include "engine/store.hpp"
#include "selfish/build.hpp"

namespace engine {

struct EngineOptions {
  /// Result-store directory; empty disables persistence (the batch still
  /// runs in parallel, it just cannot resume).
  std::string cache_dir;
  /// Worker threads for the per-job fan-out; <= 0 means all hardware
  /// threads.
  int threads = 1;
  /// Nothing reads this: store entries hold results only. It survives
  /// only because perfbench/src/sweep_chain.cpp:62 (engine_options)
  /// assigns `store_values = true`, and goes when that line does.
  bool store_values = true;
};

/// The outcome of one batch job, in input order.
struct JobOutcome {
  StoredResult result;
  bool cached = false;  ///< Served from the store (not solved this run).
  /// The model, when the caller asked keep_models (rendered on its
  /// shape on cache hits too). Shared across duplicate jobs.
  std::shared_ptr<const selfish::SelfishModel> model;
};

class Engine {
 public:
  explicit Engine(EngineOptions options);

  /// Executes `jobs`, returning outcomes in input order. Duplicate jobs
  /// are solved once and share an outcome. `keep_models` additionally
  /// returns each job's built SelfishModel (needed by callers that replay
  /// policies, e.g. the network batch runner).
  std::vector<JobOutcome> run(const std::vector<AnalysisJob>& jobs,
                              bool keep_models = false) const;

  const EngineOptions& options() const { return options_; }
  const ResultStore& store() const { return store_; }

 private:
  EngineOptions options_;
  ResultStore store_;
};

}  // namespace engine
