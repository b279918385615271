// Experiment-engine determinism: cold-cache, warm-cache, and
// resumed-after-interrupt sweeps render identical CSV bytes at 1 and 8
// threads; every sweep point is the cold analysis of its model, so any
// subset of a grid primes the store for it; corrupted or truncated store
// entries are detected and recomputed, never trusted; job keys pin all
// inputs.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <regex>
#include <sstream>

#include "analysis/sweep.hpp"
#include "engine/engine.hpp"
#include "engine/kinds.hpp"
#include "obs/flight.hpp"
#include "obs/metrics.hpp"
#include "support/binary_io.hpp"
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

engine::AnalysisJob job_at(double p) {
  engine::AnalysisJob job;
  job.params = base_params();
  job.params.p = p;
  job.options = quick_options();
  return job;
}

analysis::SweepResult sweep(const std::string& cache_dir, int threads,
                            const std::vector<double>& ps = grid()) {
  engine::EngineOptions options;
  options.cache_dir = cache_dir;
  options.threads = threads;
  engine::Engine engine(options);
  return analysis::sweep_p(base_params(), ps, quick_options(), engine);
}

std::string csv_of(const analysis::SweepResult& result) {
  std::ostringstream out;
  analysis::write_sweep_csv(result, out);
  return out.str();
}

std::string sweep_csv(const std::string& cache_dir, int threads,
                      const std::vector<double>& ps = grid()) {
  return csv_of(sweep(cache_dir, threads, ps));
}

TEST(EngineKeys, PinAllInputs) {
  const engine::AnalysisJob job = job_at(0.2);
  const engine::JobKey key = engine::analysis_job_key(job);
  EXPECT_EQ(key.hash, engine::analysis_job_key(job).hash);

  engine::AnalysisJob other = job;
  other.params.p = 0.1;
  EXPECT_NE(engine::analysis_job_key(other).hash, key.hash);
  other = job;
  other.options.epsilon = 1e-4;
  EXPECT_NE(engine::analysis_job_key(other).hash, key.hash);
  other = job;
  other.params.gamma = 0.25;
  EXPECT_NE(engine::analysis_job_key(other).hash, key.hash);
}

TEST(EngineKeys, SaltV7InvalidatesStrideEntries) {
  // The stationary solve's averaged tail shipped with a salt bump 6→7
  // (errev_of_policy moved in its last bits where a solve ran past 256
  // iterations): every canonical key must carry the v7 prefix (so all v6
  // store entries miss cleanly), must never render an older one, and
  // names no solver method or laziness τ.
  EXPECT_EQ(engine::kCodeVersionSalt, 7u);
  const engine::JobKey key = engine::analysis_job_key(job_at(0.2));
  EXPECT_EQ(key.canonical.rfind("analysis/v7|", 0), 0u) << key.canonical;
  EXPECT_EQ(key.canonical.find("analysis/v6"), std::string::npos);
  EXPECT_EQ(key.canonical.find("solver="), std::string::npos);
  EXPECT_EQ(key.canonical.find("tau="), std::string::npos);
}

TEST(EngineKeys, ThreadsAndSweepOrderStayOutOfTheIdentity) {
  // Solver threads are a byte-identical speed knob, so they must not
  // split job identities. Every sweep has one order (two synchronous
  // passes), so no key carries a sweep-order token either; every job
  // kind renders its solver through solver_options_id.
  const engine::AnalysisJob job = job_at(0.2);
  const engine::JobKey key = engine::analysis_job_key(job);
  EXPECT_EQ(key.canonical.find("sweep="), std::string::npos)
      << key.canonical;
  EXPECT_EQ(engine::solver_options_id(job.options).find("sweep="),
            std::string::npos);

  engine::AnalysisJob threaded = job;
  threaded.options.solver.threads = 8;
  EXPECT_EQ(engine::analysis_job_key(threaded).canonical, key.canonical)
      << "solver threads must not change stored identities";
}

TEST(Engine, EachSweepPointEqualsColdAnalyzeBitwise) {
  // A grid point is its own job: whatever batch it runs in, its result is
  // analysis::analyze run cold on the point's model.
  std::vector<engine::AnalysisJob> jobs;
  for (const double p : grid()) jobs.push_back(job_at(p));
  engine::EngineOptions options;
  options.threads = 8;
  const auto outcomes = engine::Engine(options).run(jobs);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    const selfish::SelfishModel model = selfish::build_model(jobs[i].params);
    const analysis::AnalysisResult cold =
        analysis::analyze(model, jobs[i].options);
    const engine::StoredResult& got = outcomes[i].result;
    const std::string at = "p=" + std::to_string(jobs[i].params.p);
    EXPECT_EQ(got.beta_lo, cold.beta_lo) << at;
    EXPECT_EQ(got.beta_hi, cold.beta_hi) << at;
    EXPECT_EQ(got.errev_of_policy, cold.errev_of_policy) << at;
    EXPECT_EQ(got.search_iterations, cold.search_iterations) << at;
    EXPECT_EQ(got.solver_iterations, cold.solver_iterations) << at;
    EXPECT_EQ(got.policy, cold.policy) << at;
  }
}

/// The model shapes `run` builds: its selfish.build spans, read from the
/// flight recorder with obs switched on for the call.
template <typename Run>
int shape_builds(Run&& run) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  obs::flight_reset();
  run();
  int builds = 0;
  for (const obs::FlightRecord& record : obs::flight_snapshot()) {
    if (std::strcmp(record.name, "selfish.build") == 0) ++builds;
  }
  obs::flight_reset();
  obs::set_enabled(was_enabled);
  return builds;
}

TEST(EngineShapes, PointsOfOneShapeShareOneBuild) {
  // p and γ move only the probabilities, so a batch enumerates a shape
  // once and renders every point on it: four slots racing on four
  // threads wait for one build and share its structure.
  std::vector<engine::AnalysisJob> jobs;
  for (const double p : grid()) jobs.push_back(job_at(p));
  jobs.push_back(job_at(0.2));
  jobs.back().params.gamma = 0.75;
  engine::EngineOptions options;
  options.threads = 4;
  std::vector<engine::JobOutcome> outcomes;
  EXPECT_EQ(shape_builds([&] {
              outcomes = engine::Engine(options).run(jobs, true);
            }),
            1);
  ASSERT_EQ(outcomes.size(), jobs.size());
  for (const engine::JobOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.model, nullptr);
    EXPECT_EQ(outcome.model->mdp.structure(),
              outcomes.front().model->mdp.structure());
  }
  EXPECT_EQ(outcomes.back().model->params.gamma, 0.75);
  EXPECT_EQ(outcomes.back().model->space.params().gamma, 0.75);
}

TEST(EngineShapes, ZeroAndFullResourceAreShapesOfTheirOwn) {
  // At p = 0 and p = 1 some outcomes have probability zero and are left
  // out, so those points are shapes of their own, built concurrently.
  std::vector<engine::AnalysisJob> jobs;
  for (const double p : {0.0, 0.3, 1.0}) jobs.push_back(job_at(p));
  engine::EngineOptions options;
  options.threads = 3;
  std::vector<engine::JobOutcome> outcomes;
  EXPECT_EQ(shape_builds([&] {
              outcomes = engine::Engine(options).run(jobs);
            }),
            3);
  ASSERT_EQ(outcomes.size(), 3u);
  for (std::size_t i = 0; i < jobs.size(); ++i) {
    EXPECT_EQ(outcomes[i].result.num_states,
              selfish::build_model(jobs[i].params).mdp.num_states());
  }
  EXPECT_LT(outcomes[0].result.num_states, outcomes[2].result.num_states);
  EXPECT_LT(outcomes[2].result.num_states, outcomes[1].result.num_states);
}

TEST(EngineShapes, AFullyCachedBatchBuildsNothing) {
  ScratchDir dir("selfish-engine-test-shapes");
  EXPECT_EQ(shape_builds([&] { sweep(dir.path, 2); }), 1);
  analysis::SweepResult cached;
  EXPECT_EQ(shape_builds([&] { cached = sweep(dir.path, 2); }), 0);
  for (const analysis::SweepPoint& point : cached.points) {
    EXPECT_TRUE(point.cached);
  }
}

TEST(Engine, AnySubsetPrimesTheStore) {
  // The coarse points of a grid are the same jobs as in any finer or
  // wider grid, so a sweep over a non-prefix subset serves them all.
  ScratchDir full_dir("selfish-engine-test-subset-full");
  const std::string fresh = sweep_csv(full_dir.path, 1);

  ScratchDir dir("selfish-engine-test-subset");
  sweep(dir.path, 1, {0.1, 0.3});
  const analysis::SweepResult full = sweep(dir.path, 8);
  ASSERT_EQ(full.points.size(), 3u);
  EXPECT_TRUE(full.points[0].cached);
  EXPECT_FALSE(full.points[1].cached);
  EXPECT_TRUE(full.points[2].cached);
  EXPECT_EQ(csv_of(full), fresh);
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
  // measure: prefix served from the store, the rest computed.
  const std::string resumed = sweep_csv(resumed_dir.path, 8);
  EXPECT_EQ(uninterrupted, resumed);
}

TEST(Engine, CorruptedAndTruncatedEntriesAreRecomputed) {
  ScratchDir dir("selfish-engine-test-corrupt");
  const std::string cold = sweep_csv(dir.path, 1);

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
    f.seekp(24);  // inside the canonical key (after magic + key length)
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
  const auto outcome = engine.run({job_at(grid().front())});
  EXPECT_TRUE(outcome.front().cached);
}

/// The file's bytes.
std::string read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::string(std::istreambuf_iterator<char>(in), {});
}

void write_bytes(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

/// Writes every mutation of the entry at `path` in turn — one bit flipped
/// at 64 evenly spaced offsets, then truncation to 8 evenly spaced
/// lengths — and requires `load` to read each as a miss without
/// throwing, remove it, and count exactly one healed entry.
template <typename Load>
void expect_every_mutation_heals(const std::string& path, const Load& load) {
  const std::string original = read_bytes(path);
  ASSERT_GT(original.size(), 64u);
  std::vector<std::string> mutations;
  for (std::size_t k = 0; k < 64; ++k) {
    std::string flipped = original;
    flipped[k * original.size() / 64] ^= static_cast<char>(1 << (k % 8));
    mutations.push_back(std::move(flipped));
  }
  for (std::size_t k = 0; k < 8; ++k) {
    mutations.push_back(original.substr(0, k * original.size() / 8));
  }
  const obs::Counter& healed =
      obs::counter("selfish_engine_store_healed_total", "");
  for (std::size_t m = 0; m < mutations.size(); ++m) {
    write_bytes(path, mutations[m]);
    const std::uint64_t before = healed.value();
    bool hit = true;
    EXPECT_NO_THROW(hit = load()) << "mutation " << m;
    EXPECT_FALSE(hit) << "mutation " << m;
    EXPECT_FALSE(fs::exists(path)) << "mutation " << m;
    EXPECT_EQ(healed.value() - before, obs::enabled() ? 1u : 0u)
        << "mutation " << m;
  }
}

/// `text` without the report's volatile wall-clock tokens (", 0.123 s").
std::string without_seconds(const std::string& text) {
  return std::regex_replace(text, std::regex(", [0-9.]+ s\n"), "\n");
}

TEST(ResultStore, EveryMutatedFrameLoadsAsAMissAndHeals) {
  ScratchDir dir("selfish-engine-test-mutations");
  engine::EngineOptions options;
  options.cache_dir = dir.path;
  const engine::Engine engine(options);
  const engine::ResultStore& store = engine.store();

  // An analysis entry.
  const engine::AnalysisJob job = job_at(0.2);
  const engine::JobKey key = engine::analysis_job_key(job);
  const engine::StoredResult solved = engine.run({job}).front().result;
  expect_every_mutation_heals(store.entry_path(key), [&] {
    return store.load(key).has_value();
  });
  const auto rerun = engine.run({job}).front();
  EXPECT_FALSE(rerun.cached);
  EXPECT_EQ(rerun.result.beta_lo, solved.beta_lo);
  EXPECT_EQ(rerun.result.errev_of_policy, solved.errev_of_policy);
  EXPECT_EQ(rerun.result.solver_iterations, solved.solver_iterations);
  EXPECT_EQ(rerun.result.policy, solved.policy);

  // A generic entry: a tiny `point` job.
  engine::PointQuery query;
  query.params = selfish::AttackParams{
      .p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 2};
  const engine::GenericJob point = engine::make_point_job(query);
  const engine::JobKey point_key = engine::generic_job_key(point);
  const engine::ExecContext context{dir.path, 1};
  const auto run_point = [&] {
    return engine::run_generic(engine::builtin_executors(), store, context,
                               point);
  };
  const std::string report = run_point().result.payload;
  expect_every_mutation_heals(store.entry_path(point_key), [&] {
    return store.load_generic(point_key).has_value();
  });
  const engine::GenericOutcome recomputed = run_point();
  EXPECT_FALSE(recomputed.cached);
  EXPECT_EQ(without_seconds(recomputed.result.payload),
            without_seconds(report));
  EXPECT_TRUE(run_point().cached);
}

TEST(ResultStore, AnEntryInTheV6LayoutIsNotServed) {
  // Analysis frames lost their copy of beta_lo, and their magic moved from
  // SELRES02 to SELRES03. A well-formed SELRES02 frame, with the extra
  // leading double, at an entry's path must read as a miss and heal.
  ScratchDir dir("selfish-engine-test-old-frame");
  engine::EngineOptions options;
  options.cache_dir = dir.path;
  const engine::Engine engine(options);
  const engine::AnalysisJob job = job_at(0.2);
  const engine::JobKey key = engine::analysis_job_key(job);
  const engine::StoredResult solved = engine.run({job}).front().result;
  const std::string path = engine.store().entry_path(key);
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    support::BinaryWriter writer(out);
    writer.pod<std::uint64_t>(0x53454c5245533032ULL);  // "SELRES02"
    writer.array<char>(key.canonical);
    for (const double x : {solved.beta_lo, solved.beta_lo, solved.beta_hi,
                           solved.errev_of_policy, solved.seconds}) {
      writer.pod(x);
    }
    writer.pod(solved.search_iterations);
    writer.pod(solved.solver_iterations);
    writer.pod(solved.num_states);
    writer.array<mdp::ActionId>(solved.policy);
    writer.checksum();
  }
  EXPECT_FALSE(engine.store().load(key).has_value());
  EXPECT_FALSE(fs::exists(path));
  EXPECT_FALSE(engine.run({job}).front().cached);
}

TEST(Engine, DuplicateJobsShareOneSolve) {
  const engine::AnalysisJob job = job_at(0.3);
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

  const engine::AnalysisJob job = job_at(0.25);

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
