#include "mdp/markov_chain.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numeric>
#include <queue>
#include <utility>

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

// stationary_distribution's power iteration on P^k.
constexpr double kStationaryTol = 1e-12;  // L1 change at which it stops.
constexpr int kStationaryMaxIterations = 5'000'000;
constexpr std::uint64_t kMaxPowerStride = 4096;
// Iterations of μ ← μP² after which the stride is derived from the chain
// (power_stride). Every optimal strategy's chain measured converges well
// before (d=4,f=2: 189), and the derivation costs a third of a typical
// solve, so only slow or periodic chains pay for it.
constexpr int kStrideCheckIteration = 256;

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

namespace {

/// The stride k of stationary_distribution's power iteration: the least
/// common multiple of 2 and the period of every closed class of the
/// policy's chain reachable from the initial state. Each such class is
/// aperiodic under P^k, so μ ← μP^k converges from any iterate. On the
/// selfish-mining chains k is 2 whenever p < 1 (the empty-window mining
/// state returns to itself in two steps when an honest block is found); a
/// strategy that cycles at p = 1 can need more.
std::uint64_t power_stride(const Mdp& mdp, const Policy& policy) {
  const StateId n = mdp.num_states();
  constexpr StateId kNone = std::numeric_limits<StateId>::max();
  // Tarjan's strongly connected components of the states reachable from
  // the initial state, with an explicit stack of (state, next transition)
  // frames. A visited state without a component is on Tarjan's stack.
  std::vector<StateId> order(n, kNone);
  std::vector<StateId> low(n, 0);
  std::vector<StateId> component(n, kNone);
  std::vector<StateId> open;
  std::vector<std::pair<StateId, std::uint32_t>> frames;
  std::vector<StateId> roots;  // Each component's first-visited state.
  StateId visited = 0;
  const auto enter = [&](StateId s) {
    order[s] = low[s] = visited++;
    open.push_back(s);
    frames.emplace_back(s, mdp.transition_begin(policy[s]));
  };
  enter(mdp.initial_state());
  while (!frames.empty()) {
    const auto [s, i] = frames.back();
    if (i < mdp.transition_end(policy[s])) {
      ++frames.back().second;
      const StateId t = mdp.target(i);
      if (order[t] == kNone) {
        enter(t);
      } else if (component[t] == kNone) {
        low[s] = std::min(low[s], order[t]);
      }
      continue;
    }
    frames.pop_back();
    if (!frames.empty()) {
      StateId& parent_low = low[frames.back().first];
      parent_low = std::min(parent_low, low[s]);
    }
    if (low[s] == order[s]) {
      const auto id = static_cast<StateId>(roots.size());
      StateId t = kNone;
      do {
        t = open.back();
        open.pop_back();
        component[t] = id;
      } while (t != s);
      roots.push_back(s);
    }
  }

  // A component is closed when no transition leaves it.
  std::vector<bool> closed(roots.size(), true);
  for (StateId s = 0; s < n; ++s) {
    if (component[s] == kNone) continue;
    const ActionId a = policy[s];
    for (std::uint32_t i = mdp.transition_begin(a);
         i < mdp.transition_end(a); ++i) {
      if (component[mdp.target(i)] != component[s]) {
        closed[component[s]] = false;
      }
    }
  }

  // A closed class's period is the gcd of level(u) + 1 − level(v) over
  // its transitions u → v, with BFS levels from any of its states.
  std::vector<StateId>& level = order;
  std::fill(level.begin(), level.end(), kNone);
  std::uint64_t stride = 2;
  for (std::size_t c = 0; c < roots.size(); ++c) {
    if (!closed[c]) continue;
    std::uint64_t period = 0;
    std::vector<StateId>& frontier = open;  // Empty once Tarjan is done.
    level[roots[c]] = 0;
    frontier.push_back(roots[c]);
    for (std::size_t next = 0; next < frontier.size(); ++next) {
      const StateId u = frontier[next];
      const ActionId a = policy[u];
      for (std::uint32_t i = mdp.transition_begin(a);
           i < mdp.transition_end(a); ++i) {
        const StateId v = mdp.target(i);
        if (level[v] == kNone) {
          level[v] = level[u] + 1;
          frontier.push_back(v);
        } else {
          const std::int64_t gap = static_cast<std::int64_t>(level[u]) + 1 -
                                   static_cast<std::int64_t>(level[v]);
          period = std::gcd(period, static_cast<std::uint64_t>(
                                        gap < 0 ? -gap : gap));
        }
      }
    }
    frontier.clear();
    stride = std::lcm(stride, period);
    SM_CHECK_INPUT(stride <= kMaxPowerStride,
                   "the strategy's chain has closed classes whose periods "
                   "need a power-iteration stride above ",
                   kMaxPowerStride);
  }
  return stride;
}

}  // namespace

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

  std::uint64_t stride = 2;
  bool converged = false;
  for (int iter = 1; iter <= kStationaryMaxIterations && !converged; ++iter) {
    if (iter == kStrideCheckIteration) stride = power_stride(mdp, policy);
    step(mu, next);
    for (std::uint64_t j = 1; j < stride; ++j) {
      step(next, scratch);
      next.swap(scratch);
    }
    double l1 = 0.0;
    for (StateId s = 0; s < n; ++s) l1 += std::fabs(next[s] - mu[s]);
    mu.swap(next);
    result.iterations = iter;
    converged = l1 < kStationaryTol;
  }
  SM_ENSURE(converged, "stationary distribution did not converge in ",
            kStationaryMaxIterations, " iterations");

  // μP^k = μ, so π = (μ + μP + … + μP^(k−1))/k has πP = π.
  next.assign(mu.begin(), mu.end());
  for (std::uint64_t j = 1; j < stride; ++j) {
    step(next, scratch);
    next.swap(scratch);
    for (StateId s = 0; s < n; ++s) mu[s] += next[s];
  }
  for (double& x : mu) x /= static_cast<double>(stride);

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
