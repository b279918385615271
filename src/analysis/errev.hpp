// Exact expected relative revenue of a fixed strategy.
//
// Under any positional strategy the model is an ergodic unichain (the
// all-honest reset state is reachable from everywhere — paper Appendix C),
// so by the strong law of large numbers for Markov chains the ratio
// R_A/(R_A+R_H) converges almost surely to the ratio of the stationary
// finalization rates. This gives the "exact value of the expected relative
// revenue guaranteed by this strategy" that the paper reports.
// analyze keeps that solve (AnalysisResult::stationary); exact_errev is
// for callers that hold only a policy, e.g. one loaded from a file.
#pragma once

#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"

namespace analysis {

/// ERRev(policy) = g_A / (g_A + g_H), from the long-run finalization
/// rates of one mdp::stationary_distribution solve.
double exact_errev(const selfish::SelfishModel& model,
                   const mdp::Policy& policy);

}  // namespace analysis
