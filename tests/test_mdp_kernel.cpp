// BellmanKernel determinism contract. The kernel stops a solve as soon as
// its certified gain interval excludes 0 (or is narrower than tol), while
// the reference loop in mdp/value_iteration.cpp keeps only the tol rule.
// So the pin is: a kernel solve that ran k sweeps equals the reference
// loop capped at max_iterations = k in every field but `converged` — gain
// bounds, value vector, policy, iteration count — and it is bit-identical
// to itself at any thread count (1 vs 8 byte-compared). Both sweep the
// mining-step operator, so the kernel refuses a model without the
// mining/decision split. Deliberately non-stochastic: it gates in the fast
// `ctest -LE stochastic` stage of every CI leg.
#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "analysis/algorithm1.hpp"
#include "mdp/bellman_kernel.hpp"
#include "mdp/markov_chain.hpp"
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

/// The kernel at `beta` against the capped reference loop.
void expect_matches_reference(const mdp::BellmanKernel& kernel, double beta,
                              const std::vector<double>* warm_start,
                              const std::string& label) {
  const mdp::Mdp& m = kernel.mdp();
  const auto vi = kernel.value_iteration(beta, {}, warm_start);
  expect_settled(vi, label);
  expect_identical(vi,
                   mdp::value_iteration(m, m.beta_rewards(beta),
                                        capped_at(vi), warm_start),
                   label);
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
    // first: seeded from one neighbouring solve's values.
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
  models.push_back(
      test_helpers::with_mining_steps(test_helpers::two_action_choice()));
  models.push_back(test_helpers::with_mining_steps(
      test_helpers::random_unichain(rng, 60, 3, 4)));
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

TEST(BellmanKernel, ThreadCountInvariantByteForByte) {
  // d=2,f=2 (1348 states) clears the kernel's per-worker floor, so the
  // 8-thread run genuinely takes the parallel path.
  const auto model = build(2, 2);
  ASSERT_GT(model.mdp.num_states(), 1024u);
  const mdp::BellmanKernel kernel(model.mdp);
  for (const double beta : {0.2, 0.43927}) {
    const auto vi_1 = kernel.value_iteration(beta, {}, nullptr, 1);
    const auto vi_8 = kernel.value_iteration(beta, {}, nullptr, 8);
    expect_identical(vi_8, vi_1, "beta=" + std::to_string(beta));
    EXPECT_EQ(vi_8.converged, vi_1.converged);
    if (beta == 0.2) {
      // ERRev* = 0.4393 here, so β = 0.2 exits on its certified sign well
      // before the tol rule: the sign exit is thread-count invariant too.
      EXPECT_GT(vi_1.gain_lo, 0.0);
      EXPECT_GE(vi_1.gain_hi - vi_1.gain_lo, 1e-7);
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
  EXPECT_EQ(threaded.beta_lo, serial.beta_lo);
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
                     "non-converged");
    // Every state got a real action even without convergence.
    for (const mdp::ActionId a : vi.policy) EXPECT_NE(a, mdp::kInvalidAction);
  }
}

TEST(BellmanKernel, RejectsBadArguments) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  const mdp::BellmanKernel kernel(m);
  mdp::MeanPayoffOptions options;
  options.tol = 0.0;
  EXPECT_THROW(kernel.value_iteration(0.0, options),
               support::InvalidArgument);
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
  // Exact-size warm start still accepted.
  const auto seed = kernel.value_iteration(0.41);
  EXPECT_NO_THROW(kernel.value_iteration(0.42, {}, &seed.values));
}

TEST(BellmanKernel, SplitIsTheSelfishMiningStepType) {
  // The kernel's split, derived from the arrays alone, is §3.2's StepType:
  // the mining states are exactly the states whose type is kMining.
  for (const auto& [d, f] : {std::pair{1, 1}, {2, 1}, {2, 2}}) {
    for (const double p : {0.0, 0.3, 1.0}) {
      const auto model = selfish::build_model(selfish::AttackParams{
          .p = p, .gamma = 0.5, .d = d, .f = f, .l = 4});
      const std::vector<mdp::StepClass> classes =
          mdp::step_classes(model.mdp);
      ASSERT_EQ(classes.size(), model.mdp.num_states());
      for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
        EXPECT_EQ(classes[s] == mdp::StepClass::kMining,
                  model.space->state_of(s).type == selfish::StepType::kMining)
            << "state " << s;
      }
    }
  }
}

TEST(BellmanKernel, RefusesAModelWithoutTheMiningSplit) {
  // An edge inside one class: two_action_choice's "stay" self-loop.
  const mdp::Mdp choice = test_helpers::two_action_choice();
  try {
    const mdp::BellmanKernel kernel(choice);
    ADD_FAILURE() << "a model with a same-class edge was accepted";
  } catch (const support::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()),
              "the model is not 2-periodic: the edge 0 -> 0 joins two "
              "states of one class");
  }
  // A state the initial state never reaches: s2 of s0 <-> s1, s2 -> s1.
  mdp::MdpBuilder b;
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(0, 1.0);
  b.add_state();
  b.add_action();
  b.add_transition(1, 1.0);
  const mdp::Mdp unreached = b.build(0);
  try {
    const mdp::BellmanKernel kernel(unreached);
    ADD_FAILURE() << "a model with an unreachable state was accepted";
  } catch (const support::InvalidArgument& e) {
    EXPECT_EQ(std::string(e.what()),
              "state 2 is unreachable from the initial state");
  }
}

}  // namespace
