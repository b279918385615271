// BellmanKernel determinism contract. The kernel stops a solve as soon as
// its certified gain interval excludes 0 (or is narrower than tol), while
// the reference loops in mdp/value_iteration.cpp keep only the tol rule.
// So the pin is: a kernel solve that ran k sweeps equals the reference
// loop capped at max_iterations = k in every field but `converged` — gain
// bounds, value vector, policy, iteration count — for every solver method,
// and it is bit-identical to itself at any thread count (1 vs 8
// byte-compared). Deliberately non-stochastic: it gates in the fast
// `ctest -LE stochastic` stage of every CI leg.
#include <gtest/gtest.h>

#include <cstring>

#include "analysis/algorithm1.hpp"
#include "mdp/solve.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

/// Byte-level equality of two double vectors (EXPECT_EQ would compare by
/// value and let -0.0 == 0.0 slip through).
bool same_bytes(const std::vector<double>& a, const std::vector<double>& b) {
  return a.size() == b.size() &&
         (a.empty() ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) == 0);
}

/// Every field but `converged`, which the two stop rules may set
/// differently for the same sweeps.
void expect_identical(const mdp::MeanPayoffResult& kernel,
                      const mdp::MeanPayoffResult& reference,
                      const std::string& label) {
  EXPECT_EQ(kernel.iterations, reference.iterations) << label;
  EXPECT_EQ(kernel.gain, reference.gain) << label;
  EXPECT_EQ(kernel.gain_lo, reference.gain_lo) << label;
  EXPECT_EQ(kernel.gain_hi, reference.gain_hi) << label;
  EXPECT_EQ(kernel.policy, reference.policy) << label;
  EXPECT_TRUE(same_bytes(kernel.values, reference.values)) << label;
}

/// Reference options capped at the sweeps `kernel` ran.
mdp::MeanPayoffOptions capped_at(const mdp::MeanPayoffResult& kernel) {
  mdp::MeanPayoffOptions options;
  options.max_iterations = kernel.iterations;
  return options;
}

/// The kernel's stop rule held at its last sweep: the interval excludes 0
/// or is narrower than tol.
void expect_settled(const mdp::MeanPayoffResult& kernel,
                    const std::string& label, double tol = 1e-7) {
  EXPECT_TRUE(kernel.converged) << label;
  EXPECT_TRUE(kernel.gain_lo > 0.0 || kernel.gain_hi < 0.0 ||
              kernel.gain_hi - kernel.gain_lo < tol)
      << label;
}

/// Kernel vi and gs at `beta` against the capped reference loops.
void expect_matches_reference(const mdp::BellmanKernel& kernel, double beta,
                              const std::vector<double>* warm_start,
                              const std::string& label) {
  const mdp::Mdp& m = kernel.mdp();
  const auto rewards = m.beta_rewards(beta);
  const auto vi = kernel.value_iteration(beta, {}, warm_start);
  expect_settled(vi, "vi " + label);
  expect_identical(
      vi, mdp::value_iteration(m, rewards, capped_at(vi), warm_start),
      "vi " + label);
  const auto gs = kernel.gauss_seidel(beta, {}, warm_start);
  expect_settled(gs, "gs " + label);
  expect_identical(gs,
                   mdp::gauss_seidel_value_iteration(m, rewards, capped_at(gs),
                                                     warm_start),
                   "gs " + label);
}

selfish::SelfishModel build(int d, int f) {
  return selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = d, .f = f, .l = 4});
}

TEST(BellmanKernel, BitIdenticalToLegacyOnSelfishModels) {
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {2, 2}}) {
    const auto model = build(d, f);
    const mdp::BellmanKernel kernel(model.mdp);
    for (const double beta : {0.2, 0.41, 0.8}) {
      expect_matches_reference(kernel, beta, nullptr,
                               "d=" + std::to_string(d) +
                                   " f=" + std::to_string(f) +
                                   " beta=" + std::to_string(beta));
    }
    // Warm-started solves, the shape of every bisection step after the
    // first: both methods seeded from one neighbouring solve's values.
    const auto seed = kernel.value_iteration(0.40);
    expect_matches_reference(
        kernel, 0.42, &seed.values,
        "warm d=" + std::to_string(d) + " f=" + std::to_string(f));
  }
}

TEST(BellmanKernel, BitIdenticalToLegacyOnHandAndRandomModels) {
  support::Rng rng(4242);
  std::vector<mdp::Mdp> models;
  models.push_back(test_helpers::two_state_cycle());
  models.push_back(test_helpers::two_action_choice());
  models.push_back(test_helpers::random_unichain(rng, 60, 3, 4));
  for (std::size_t i = 0; i < models.size(); ++i) {
    const mdp::BellmanKernel kernel(models[i]);
    for (const double beta : {0.0, 0.4, 1.0}) {
      expect_matches_reference(
          kernel, beta, nullptr,
          "model=" + std::to_string(i) + " beta=" + std::to_string(beta));
    }
  }
}

TEST(BellmanKernel, StopsOnTheSignOrRunsATieToTol) {
  // d=2,f=1,p=0.3: ERRev* = 0.4105, so β = 0.2 and 0.8 have a clear sign
  // and stop long before the tol rule would. d=1,f=1 at p=0.25,γ=0.5 is an
  // exact tie at β = p (honest mining is optimal): the interval never
  // excludes 0, so the kernel runs exactly as far as the tol-only loop.
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.2, 0.8}) {
    const auto vi = kernel.value_iteration(beta);
    const auto full =
        mdp::value_iteration(model.mdp, model.mdp.beta_rewards(beta));
    ASSERT_TRUE(full.converged);
    EXPECT_TRUE(beta < 0.41 ? vi.gain_lo > 0.0 : vi.gain_hi < 0.0) << beta;
    EXPECT_GE(vi.gain_hi - vi.gain_lo, 1e-7) << beta;
    EXPECT_LT(vi.iterations, full.iterations) << beta;
  }
  const auto tied = selfish::build_model(
      selfish::AttackParams{.p = 0.25, .gamma = 0.5, .d = 1, .f = 1, .l = 4});
  const mdp::BellmanKernel tie_kernel(tied.mdp);
  const auto tie = tie_kernel.value_iteration(0.25);
  ASSERT_TRUE(tie.converged);
  EXPECT_LE(tie.gain_lo, 0.0);
  EXPECT_GE(tie.gain_hi, 0.0);
  expect_identical(
      tie, mdp::value_iteration(tied.mdp, tied.mdp.beta_rewards(0.25)),
      "tie");
}

TEST(BellmanKernel, FacadeBitIdenticalForAllSolverMethods) {
  // The facade contract: solve_mean_payoff(kernel, β) with method vi or
  // gs ≡ the matching kernel method, hence ≡ the capped reference loop.
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  const double beta = 0.41;
  const auto rewards = model.mdp.beta_rewards(beta);
  mdp::SolveOptions options;
  options.method = mdp::SolverMethod::kValueIteration;
  const auto vi = mdp::solve_mean_payoff(kernel, beta, options);
  expect_settled(vi, "method=vi");
  expect_identical(vi, mdp::value_iteration(model.mdp, rewards, capped_at(vi)),
                   "method=vi");
  options.method = mdp::SolverMethod::kGaussSeidel;
  const auto gs = mdp::solve_mean_payoff(kernel, beta, options);
  expect_settled(gs, "method=gs");
  expect_identical(
      gs, mdp::gauss_seidel_value_iteration(model.mdp, rewards, capped_at(gs)),
      "method=gs");
}

TEST(BellmanKernel, ThreadCountInvariantByteForByte) {
  // d=2,f=2 (1348 states) clears the kernel's per-worker floor, so the
  // 8-thread run genuinely takes the parallel path.
  const auto model = build(2, 2);
  ASSERT_GT(model.mdp.num_states(), 1024u);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.2, 0.43927}) {
    const auto vi_1 = kernel.value_iteration(beta, {}, nullptr, 1);
    const auto vi_8 = kernel.value_iteration(beta, {}, nullptr, 8);
    expect_identical(vi_8, vi_1, "vi beta=" + std::to_string(beta));
    EXPECT_EQ(vi_8.converged, vi_1.converged);
    const auto gs_1 = kernel.gauss_seidel(beta, {}, nullptr, 1);
    const auto gs_8 = kernel.gauss_seidel(beta, {}, nullptr, 8);
    expect_identical(gs_8, gs_1, "gs beta=" + std::to_string(beta));
    EXPECT_EQ(gs_8.converged, gs_1.converged);
    if (beta == 0.2) {
      // ERRev* = 0.4393 here, so β = 0.2 exits on its certified sign well
      // before the tol rule: the sign exit is thread-count invariant too.
      EXPECT_GT(vi_1.gain_lo, 0.0);
      EXPECT_GE(vi_1.gain_hi - vi_1.gain_lo, 1e-7);
      EXPECT_GT(gs_1.gain_lo, 0.0);
      EXPECT_GE(gs_1.gain_hi - gs_1.gain_lo, 1e-7);
    }
  }
}

TEST(BellmanKernel, ThreadCountInvariantWithWarmStart) {
  const auto model = build(2, 2);
  const mdp::BellmanKernel kernel(model.mdp);
  const auto seed = kernel.value_iteration(0.40);
  const auto warm_1 = kernel.value_iteration(0.42, {}, &seed.values, 1);
  const auto warm_8 = kernel.value_iteration(0.42, {}, &seed.values, 8);
  expect_identical(warm_8, warm_1, "warm-started vi");
  EXPECT_LE(warm_1.iterations, seed.iterations);
}

TEST(BellmanKernel, AnalyzeThreadCountInvariant) {
  const auto model = build(2, 2);
  analysis::AnalysisOptions options_1, options_8;
  options_1.epsilon = 1e-3;
  options_8.epsilon = 1e-3;
  options_8.solver.threads = 8;
  const auto serial = analysis::analyze(model, options_1);
  const auto threaded = analysis::analyze(model, options_8);
  EXPECT_EQ(threaded.errev_lower_bound, serial.errev_lower_bound);
  EXPECT_EQ(threaded.errev_of_policy, serial.errev_of_policy);
  EXPECT_EQ(threaded.policy, serial.policy);
}

TEST(BellmanKernel, NonConvergedRunStillReturnsConsistentPolicy) {
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  mdp::MeanPayoffOptions options;
  options.max_iterations = 3;
  options.tol = 1e-15;
  const auto rewards = model.mdp.beta_rewards(0.41);
  for (const int threads : {1, 8}) {
    const auto vi = kernel.value_iteration(0.41, options, nullptr, threads);
    EXPECT_FALSE(vi.converged);
    expect_identical(vi, mdp::value_iteration(model.mdp, rewards, options),
                     "non-converged vi");
    const auto gs = kernel.gauss_seidel(0.41, options, nullptr, threads);
    EXPECT_FALSE(gs.converged);
    expect_identical(
        gs, mdp::gauss_seidel_value_iteration(model.mdp, rewards, options),
        "non-converged gs");
    // Every state got a real action even without convergence.
    for (const mdp::ActionId a : vi.policy) EXPECT_NE(a, mdp::kInvalidAction);
    for (const mdp::ActionId a : gs.policy) EXPECT_NE(a, mdp::kInvalidAction);
  }
}

TEST(BellmanKernel, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::BellmanKernel kernel(m);
  mdp::MeanPayoffOptions options;
  options.tau = 0.0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
  options.tau = 0.5;
  options.tol = 0.0;
  EXPECT_THROW(kernel.gauss_seidel(0.0, options), support::InvalidArgument);
  options.tol = 1e-7;
  options.max_iterations = 0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
}

TEST(BellmanKernel, WarmStartSizeMismatchRejectsWithReason) {
  // The kernel once compared warm_start->size() (size_t) against the
  // 32-bit state count and silently cold-started on mismatch, masking
  // caller bugs. Now it rejects loudly; no caller seeds one model's
  // solve with another model's values.
  const auto model = build(2, 1);
  const mdp::BellmanKernel kernel(model.mdp);
  const std::vector<double> wrong_small(3, 0.0);
  const std::vector<double> wrong_big(model.mdp.num_states() + 1, 0.0);
  EXPECT_THROW(kernel.value_iteration(0.41, {}, &wrong_small),
               support::InvalidArgument);
  EXPECT_THROW(kernel.value_iteration(0.41, {}, &wrong_big),
               support::InvalidArgument);
  EXPECT_THROW(kernel.gauss_seidel(0.41, {}, &wrong_small),
               support::InvalidArgument);
  // Exact-size warm start still accepted.
  const auto seed = kernel.value_iteration(0.41);
  EXPECT_NO_THROW(kernel.value_iteration(0.42, {}, &seed.values));
}

}  // namespace
