#include "mdp/markov_chain.hpp"

#include <cmath>
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

// stationary_distribution's lazy power iteration.
constexpr double kStationaryTol = 1e-12;  // L1 change at which it stops.
constexpr int kStationaryMaxIterations = 5'000'000;
constexpr double kStationaryTau = 0.5;    // Laziness τ of τI + (1−τ)P.

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

StationaryResult stationary_distribution(const Mdp& mdp,
                                         const Policy& policy) {
  validate_policy(mdp, policy);
  const StateId n = mdp.num_states();

  StationaryResult result;
  std::vector<double>& mu = result.distribution;
  mu.assign(n, 0.0);
  mu[mdp.initial_state()] = 1.0;
  std::vector<double> next(n, 0.0);

  const double tau = kStationaryTau;
  const double one_minus_tau = 1.0 - tau;

  bool converged = false;
  for (int iter = 1; iter <= kStationaryMaxIterations && !converged; ++iter) {
    // next = μ · (τI + (1−τ)P); the lazy mix has the same fixpoint as P
    // but is aperiodic, so power iteration converges.
    for (StateId s = 0; s < n; ++s) next[s] = tau * mu[s];
    for (StateId s = 0; s < n; ++s) {
      if (mu[s] == 0.0) continue;
      const double mass = one_minus_tau * mu[s];
      const ActionId a = policy[s];
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        next[mdp.target(i)] += mass * mdp.prob(i);
      }
    }
    double l1 = 0.0;
    for (StateId s = 0; s < n; ++s) l1 += std::fabs(next[s] - mu[s]);
    mu.swap(next);
    result.iterations = iter;
    converged = l1 < kStationaryTol;
  }
  SM_ENSURE(converged, "stationary distribution did not converge in ",
            kStationaryMaxIterations, " iterations");

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
