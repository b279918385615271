#include "mdp/markov_chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <queue>

#include "support/check.hpp"

namespace mdp {

void validate_policy(const Mdp& mdp, const Policy& policy) {
  SM_REQUIRE(policy.size() == mdp.num_states(),
             "policy size ", policy.size(), " != number of states ",
             mdp.num_states());
  for (StateId s = 0; s < mdp.num_states(); ++s) {
    SM_REQUIRE(policy[s] >= mdp.action_begin(s) && policy[s] < mdp.action_end(s),
               "policy assigns state ", s, " a foreign action ", policy[s]);
  }
}

namespace {

// stationary_distribution's power iteration on P².
constexpr double kStationaryTol = 1e-12;  // L1 change at which it stops.
constexpr int kStationaryMaxIterations = 5'000'000;
// Iterations of μ ← μP² before each step averages μ with μP². Plain steps
// mix about twice as fast (58/58/19 iterations at the perfbench centre
// points against 126/120/53 averaged), and the optimal strategies there
// converge within them; the averaged chain (I + P²)/2 is aperiodic on
// every closed class, so a chain that still cycles converges too.
constexpr int kPlainIterations = 256;

template <typename SuccessorsFn>
std::vector<bool> bfs(StateId num_states, StateId from, SuccessorsFn&& succ) {
  std::vector<bool> seen(num_states, false);
  std::queue<StateId> frontier;
  seen[from] = true;
  frontier.push(from);
  while (!frontier.empty()) {
    const StateId s = frontier.front();
    frontier.pop();
    succ(s, [&](StateId t) {
      if (!seen[t]) {
        seen[t] = true;
        frontier.push(t);
      }
    });
  }
  return seen;
}

}  // namespace

std::vector<bool> reachable_states(const Mdp& mdp, StateId from) {
  SM_REQUIRE(from < mdp.num_states(), "state out of range");
  return bfs(mdp.num_states(), from, [&](StateId s, auto&& visit) {
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        visit(mdp.target(i));
      }
    }
  });
}

std::vector<bool> reachable_states(const Mdp& mdp, const Policy& policy,
                                   StateId from) {
  SM_REQUIRE(from < mdp.num_states(), "state out of range");
  validate_policy(mdp, policy);
  return bfs(mdp.num_states(), from, [&](StateId s, auto&& visit) {
    const ActionId a = policy[s];
    for (std::uint32_t i = mdp.transition_begin(a); i < mdp.transition_end(a);
         ++i) {
      visit(mdp.target(i));
    }
  });
}

std::vector<StepClass> step_classes(const Mdp& mdp) {
  const StateId n = mdp.num_states();
  constexpr auto kUnseen = static_cast<StepClass>(2);
  std::vector<StepClass> colour(n, kUnseen);
  std::vector<StateId> order;  // BFS queue: every state is pushed once.
  order.reserve(n);
  colour[mdp.initial_state()] = StepClass::kMining;
  order.push_back(mdp.initial_state());
  for (std::size_t next = 0; next < order.size(); ++next) {
    const StateId s = order[next];
    const StepClass other = colour[s] == StepClass::kMining
                                ? StepClass::kDecision
                                : StepClass::kMining;
    for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        const StateId t = mdp.target(i);
        if (colour[t] == kUnseen) {
          colour[t] = other;
          order.push_back(t);
        } else if (colour[t] != other) {
          throw support::InvalidArgument(support::detail::concat(
              "the model is not 2-periodic: the edge ", s, " -> ", t,
              " joins two states of one class"));
        }
      }
    }
  }
  for (StateId s = 0; s < n; ++s) {
    if (colour[s] == kUnseen) {
      throw support::InvalidArgument(support::detail::concat(
          "state ", s, " is unreachable from the initial state"));
    }
  }
  return colour;
}

StationaryResult stationary_distribution(const Mdp& mdp,
                                         const Policy& policy) {
  validate_policy(mdp, policy);
  const StateId n = mdp.num_states();

  // to = from · P for the policy's chain. Skipping zero mass halves each
  // step on a 2-periodic model, where `from` lives on one class.
  const auto step = [&](const std::vector<double>& from,
                        std::vector<double>& to) {
    std::fill(to.begin(), to.end(), 0.0);
    for (StateId s = 0; s < n; ++s) {
      if (from[s] == 0.0) continue;
      const ActionId a = policy[s];
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        to[mdp.target(i)] += from[s] * mdp.prob(i);
      }
    }
  };

  StationaryResult result;
  std::vector<double>& mu = result.distribution;
  mu.assign(n, 0.0);
  mu[mdp.initial_state()] = 1.0;
  std::vector<double> next(n, 0.0);
  std::vector<double> scratch(n, 0.0);

  bool converged = false;
  for (int iter = 1; iter <= kStationaryMaxIterations && !converged; ++iter) {
    step(mu, scratch);
    step(scratch, next);
    if (iter > kPlainIterations) {
      for (StateId s = 0; s < n; ++s) next[s] = 0.5 * (mu[s] + next[s]);
    }
    double l1 = 0.0;
    for (StateId s = 0; s < n; ++s) l1 += std::fabs(next[s] - mu[s]);
    mu.swap(next);
    result.iterations = iter;
    converged = l1 < kStationaryTol;
  }
  SM_ENSURE(converged, "stationary distribution did not converge in ",
            kStationaryMaxIterations, " iterations");

  // μP² = μ, so π = (μ + μP)/2 has πP = π.
  step(mu, next);
  for (StateId s = 0; s < n; ++s) mu[s] += next[s];
  for (double& x : mu) x /= 2.0;

  // Guard against drift: renormalize to a probability vector.
  double total = 0.0;
  for (double x : mu) total += x;
  SM_ENSURE(total > 0.0, "stationary mass vanished");
  for (double& x : mu) x /= total;

  for (StateId s = 0; s < n; ++s) {
    const ActionId a = policy[s];
    result.rates.adversary += mu[s] * mdp.expected_adversary(a);
    result.rates.honest += mu[s] * mdp.expected_honest(a);
  }
  return result;
}

}  // namespace mdp
