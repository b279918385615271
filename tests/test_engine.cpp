// Experiment-engine determinism (ISSUE acceptance criteria): cold-cache,
// warm-cache, and resumed-after-interrupt sweeps render identical CSV
// bytes at 1 and 8 threads; corrupted or truncated store entries are
// detected and recomputed, never trusted; job keys pin all inputs
// including warm-start lineage.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "analysis/sweep.hpp"
#include "engine/engine.hpp"
#include "support/check.hpp"

namespace {

namespace fs = std::filesystem;

selfish::AttackParams base_params() {
  return selfish::AttackParams{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4};
}

analysis::AnalysisOptions quick_options() {
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  return options;
}

std::vector<double> grid() { return {0.1, 0.2, 0.3}; }

/// A scratch cache directory, wiped on construction and destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

std::string sweep_csv(const std::string& cache_dir, int threads,
                      const std::vector<double>& ps = grid(),
                      bool store_values = true) {
  engine::EngineOptions options;
  options.cache_dir = cache_dir;
  options.threads = threads;
  options.store_values = store_values;
  engine::Engine engine(options);
  const auto sweep =
      analysis::sweep_p(base_params(), ps, quick_options(), engine);
  std::ostringstream out;
  analysis::write_sweep_csv(sweep, out);
  return out.str();
}

TEST(EngineKeys, PinAllInputsAndLineage) {
  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = 0.2;
  job.options = quick_options();

  const engine::JobKey cold = engine::analysis_job_key(job, nullptr);
  EXPECT_EQ(cold.hash, engine::analysis_job_key(job, nullptr).hash);
  EXPECT_NE(cold.canonical.find("warm=cold"), std::string::npos);

  engine::AnalysisJob parent = job;
  parent.params.p = 0.1;
  const engine::JobKey parent_key = engine::analysis_job_key(parent, nullptr);
  const engine::JobKey warm = engine::analysis_job_key(job, &parent_key);
  EXPECT_NE(cold.hash, warm.hash) << "lineage must be part of the identity";

  engine::AnalysisJob other = job;
  other.options.epsilon = 1e-4;
  EXPECT_NE(engine::analysis_job_key(other, nullptr).hash, cold.hash);
  other = job;
  other.params.gamma = 0.25;
  EXPECT_NE(engine::analysis_job_key(other, nullptr).hash, cold.hash);

  // Same chain regardless of p; different chain when anything else moves.
  EXPECT_EQ(engine::analysis_chain_id(job), engine::analysis_chain_id(parent));
  EXPECT_NE(engine::analysis_chain_id(job), engine::analysis_chain_id(other));
}

TEST(EngineKeys, SaltV3InvalidatesPreRedBlackCaches) {
  // The red-black Gauss–Seidel iterate path shipped with a salt bump
  // 2→3: every canonical key must carry the v3 prefix (so all pre-PR
  // store entries miss cleanly) and must never render the old one.
  EXPECT_EQ(engine::kCodeVersionSalt, 3u);
  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = 0.2;
  job.options = quick_options();
  const engine::JobKey key = engine::analysis_job_key(job, nullptr);
  EXPECT_EQ(key.canonical.rfind("analysis/v3|", 0), 0u) << key.canonical;
  EXPECT_EQ(key.canonical.find("analysis/v2"), std::string::npos);
}

TEST(EngineKeys, ThreadsAndSweepOrderStayOutOfTheIdentity) {
  // Solver threads are a byte-identical speed knob, so they must not
  // split job identities. Gauss–Seidel has one iterate path (ordered
  // sweeps), so no key carries a sweep-order token either; every job
  // kind renders its solver through solver_options_id.
  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = 0.2;
  job.options = quick_options();
  for (const auto method :
       {mdp::SolverMethod::kValueIteration, mdp::SolverMethod::kGaussSeidel}) {
    job.options.solver.method = method;
    const engine::JobKey key = engine::analysis_job_key(job, nullptr);
    EXPECT_EQ(key.canonical.find("sweep="), std::string::npos)
        << key.canonical;
    EXPECT_EQ(engine::solver_options_id(job.options).find("sweep="),
              std::string::npos);

    engine::AnalysisJob threaded = job;
    threaded.options.solver.threads = 8;
    EXPECT_EQ(engine::analysis_job_key(threaded, nullptr).canonical,
              key.canonical)
        << "solver threads must not change stored identities";
    EXPECT_EQ(engine::analysis_chain_id(threaded),
              engine::analysis_chain_id(job));
  }
}

TEST(Engine, MatchesSequentialReferenceBitwise) {
  const auto reference =
      analysis::sweep_p_sequential(base_params(), grid(), quick_options());
  const auto engine_run =
      analysis::sweep_p(base_params(), grid(), quick_options());
  ASSERT_EQ(reference.points.size(), engine_run.points.size());
  for (std::size_t i = 0; i < reference.points.size(); ++i) {
    EXPECT_EQ(reference.points[i].errev, engine_run.points[i].errev);
    EXPECT_EQ(reference.points[i].errev_of_policy,
              engine_run.points[i].errev_of_policy);
    EXPECT_EQ(reference.points[i].solver_iterations,
              engine_run.points[i].solver_iterations);
  }
}

TEST(Engine, ColdWarmAndThreadCountsRenderIdenticalCsv) {
  ScratchDir dir("selfish-engine-test-coldwarm");
  const std::string cold_1 = sweep_csv(dir.path, 1);
  const std::string warm_1 = sweep_csv(dir.path, 1);
  const std::string warm_8 = sweep_csv(dir.path, 8);
  EXPECT_EQ(cold_1, warm_1);
  EXPECT_EQ(cold_1, warm_8);

  ScratchDir dir8("selfish-engine-test-coldwarm8");
  const std::string cold_8 = sweep_csv(dir8.path, 8);
  EXPECT_EQ(cold_1, cold_8);

  // No store at all: same bytes still.
  EXPECT_EQ(cold_1, sweep_csv("", 8));
}

TEST(Engine, ResumedAfterInterruptReproducesCsvByteForByte) {
  // The uninterrupted reference run.
  ScratchDir full_dir("selfish-engine-test-full");
  const std::string uninterrupted = sweep_csv(full_dir.path, 1);

  // "Killed" run: only the first two grid points completed. A prefix of
  // the grid is exactly what a killed sweep leaves behind — completed
  // jobs persist atomically, the in-flight one leaves nothing.
  ScratchDir resumed_dir("selfish-engine-test-resumed");
  sweep_csv(resumed_dir.path, 1, {0.1, 0.2});

  // Resume with the full grid, on a different thread count for good
  // measure: prefix served from the store, the rest computed warm-started
  // from the cached values.
  const std::string resumed = sweep_csv(resumed_dir.path, 8);
  EXPECT_EQ(uninterrupted, resumed);
}

TEST(Engine, CorruptedAndTruncatedEntriesAreRecomputed) {
  ScratchDir dir("selfish-engine-test-corrupt");
  const std::string cold = sweep_csv(dir.path, 1);

  // Locate every entry through the store's own addressing.
  engine::EngineOptions options;
  options.cache_dir = dir.path;
  engine::Engine engine(options);
  std::vector<std::string> entries;
  for (const auto& file :
       fs::recursive_directory_iterator(dir.path + "/objects")) {
    if (file.is_regular_file()) entries.push_back(file.path().string());
  }
  ASSERT_EQ(entries.size(), grid().size());

  // Truncate one entry, flip a payload byte in another, gut the third.
  fs::resize_file(entries[0], fs::file_size(entries[0]) / 2);
  {
    std::fstream f(entries[1],
                   std::ios::in | std::ios::out | std::ios::binary);
    f.seekp(24);  // inside the payload (after magic + size)
    char byte = 0;
    f.read(&byte, 1);
    f.seekp(24);
    byte = static_cast<char>(byte ^ 0x5a);
    f.write(&byte, 1);
  }
  { std::ofstream(entries[2], std::ios::trunc) << "not a store entry"; }

  // All three must be detected, recomputed, and the CSV unchanged.
  EXPECT_EQ(cold, sweep_csv(dir.path, 1));

  // The healed store now serves hits again.
  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = grid().front();
  job.options = quick_options();
  const auto outcome = engine.run({job});
  EXPECT_TRUE(outcome.front().cached);
}

TEST(Engine, StoreValuesOffProfileShrinksEntriesAndStaysIdentical) {
  // The huge-model sweep profile: entries skip the warm-start value
  // vectors. Chain points after a value-less hit are transparently
  // re-solved, so resumed CSV stays byte-identical to the value-storing
  // run — the trade is cache size for resume work.
  ScratchDir lean_dir("selfish-engine-test-novalues");
  ScratchDir full_dir("selfish-engine-test-withvalues");
  const std::string lean =
      sweep_csv(lean_dir.path, 1, grid(), /*store_values=*/false);
  const std::string full = sweep_csv(full_dir.path, 1);
  EXPECT_EQ(lean, full);

  // Rerun against the value-less store: hits cannot seed their chain
  // successors, so only the chain tail is served cached, and the CSV is
  // unchanged.
  const std::string rerun =
      sweep_csv(lean_dir.path, 1, grid(), /*store_values=*/false);
  EXPECT_EQ(lean, rerun);

  // The lean store is measurably smaller than the value-storing one.
  const auto store_bytes = [](const std::string& dir) {
    std::uintmax_t total = 0;
    for (const auto& file :
         fs::recursive_directory_iterator(dir + "/objects")) {
      if (file.is_regular_file()) total += file.file_size();
    }
    return total;
  };
  EXPECT_LT(store_bytes(lean_dir.path), store_bytes(full_dir.path) / 2);
}

TEST(Engine, DuplicateJobsShareOneSolve) {
  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = 0.3;
  job.options = quick_options();
  engine::Engine engine{engine::EngineOptions{}};
  const auto outcomes = engine.run({job, job, job});
  ASSERT_EQ(outcomes.size(), 3u);
  EXPECT_EQ(outcomes[0].result.errev_of_policy,
            outcomes[1].result.errev_of_policy);
  EXPECT_EQ(outcomes[0].result.errev_of_policy,
            outcomes[2].result.errev_of_policy);
}

TEST(Engine, KeepModelsReturnsAValidatedModelOnHitAndMiss) {
  ScratchDir dir("selfish-engine-test-models");
  engine::EngineOptions options;
  options.cache_dir = dir.path;
  engine::Engine engine(options);

  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = 0.25;
  job.options = quick_options();

  const auto miss = engine.run({job}, /*keep_models=*/true);
  ASSERT_NE(miss.front().model, nullptr);
  EXPECT_FALSE(miss.front().cached);
  EXPECT_EQ(miss.front().model->mdp.num_states(),
            miss.front().result.num_states);

  const auto hit = engine.run({job}, /*keep_models=*/true);
  ASSERT_NE(hit.front().model, nullptr);
  EXPECT_TRUE(hit.front().cached);
  // The rebuilt model accepts the replayed policy (validate_policy ran);
  // the numbers match the miss exactly.
  EXPECT_EQ(hit.front().result.errev_of_policy,
            miss.front().result.errev_of_policy);
  EXPECT_EQ(hit.front().result.policy, miss.front().result.policy);
}

TEST(Engine, JournalRecordsCompletions) {
  ScratchDir dir("selfish-engine-test-journal");
  sweep_csv(dir.path, 1);
  engine::EngineOptions options;
  options.cache_dir = dir.path;
  engine::Engine engine(options);
  std::ifstream journal(engine.store().journal_path());
  ASSERT_TRUE(journal.good());
  std::size_t lines = 0;
  std::string line;
  while (std::getline(journal, line)) {
    EXPECT_NE(line.find("analysis/v"), std::string::npos);
    ++lines;
  }
  EXPECT_EQ(lines, grid().size());
}

}  // namespace
