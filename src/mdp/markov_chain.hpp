// Markov-chain analyses of an MDP under a fixed positional strategy.
//
// Used for (a) evaluating a computed strategy: one stationary solve gives
// both the exact ERRev g_A / (g_A + g_H) and the strategy's statistics;
// and (b) structural checks: reachability, and the mining/decision split
// that mdp::BellmanKernel sweeps by.
#pragma once

#include <cstdint>
#include <vector>

#include "mdp/mdp.hpp"

namespace mdp {

/// A positional strategy: one global action id per state; the action must
/// belong to the state it is assigned to.
using Policy = std::vector<ActionId>;

/// Throws support::InvalidArgument unless `policy` assigns each state one
/// of its own actions.
void validate_policy(const Mdp& mdp, const Policy& policy);

/// States reachable from `from` under *some* action (BFS over all actions).
std::vector<bool> reachable_states(const Mdp& mdp, StateId from);

/// States reachable from `from` under the fixed `policy`.
std::vector<bool> reachable_states(const Mdp& mdp, const Policy& policy,
                                   StateId from);

/// The class of a state of a 2-periodic model. In §3.2's model every
/// mining state leads only to decision states (honest or adversary found)
/// and every decision state only back to mining states.
enum class StepClass : std::uint8_t { kMining, kDecision };

/// 2-colours the states by BFS over every action from the initial state,
/// whose class is kMining, and returns each state's class. Throws
/// support::InvalidArgument when an edge joins two states of one class or
/// a state is never reached.
std::vector<StepClass> step_classes(const Mdp& mdp);

/// Long-run rates of the two finalization counters under a strategy.
struct CounterRates {
  double adversary = 0.0;  ///< Long-run finalized adversary blocks / step.
  double honest = 0.0;     ///< Long-run finalized honest blocks / step.

  /// ERRev of the policy: adversary / (adversary + honest).
  /// Well-defined for the selfish-mining models, where the total
  /// finalization rate is bounded below by selfish::min_finalization_rate
  /// (selfish/transitions.hpp), which is positive for p < 1.
  double ratio() const { return adversary / (adversary + honest); }
};

struct StationaryResult {
  std::vector<double> distribution;  ///< μ with μP = μ, Σμ = 1.
  /// Σ_s μ(s) · expected_{adversary,honest}(policy(s)).
  CounterRates rates;
  /// Power-iteration steps taken. Each applies P twice; from the 257th
  /// on, a step also averages the result with the iterate it started from.
  int iterations = 0;
};

/// The long-run distribution of the chain induced by `policy` from the
/// initial state, and the counter rates averaged over it. Power iteration
/// starts from the initial state with 256 steps of μ ← μP², then steps
/// μ ← (μ + μP²)/2 until one step changes μ by less than 1e-12 in L1, and
/// returns π = (μ + μP)/2, which satisfies πP = π whenever μP² = μ. On the
/// selfish-mining chains μ stays on the mining states, and the optimal
/// strategies at the perfbench points converge within the plain steps.
/// The averaged chain (I + P²)/2 is aperiodic on every closed class and
/// has the same limit, so a chain that cycles (possible at p = 1, where no
/// honest block resets the window) converges too, in iterations that grow
/// with the square of its period. Where the chain has several closed
/// classes, each is weighted by the probability of entering it from the
/// initial state. For a unichain model this is the unique stationary
/// distribution. No period is refused: it throws support::InvalidArgument
/// only when validate_policy refuses `policy`, and support::InternalError
/// if its 5,000,000-iteration cap comes first.
StationaryResult stationary_distribution(const Mdp& mdp, const Policy& policy);

}  // namespace mdp
