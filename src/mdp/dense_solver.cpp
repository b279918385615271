#include "mdp/dense_solver.hpp"

#include <cmath>

#include "support/check.hpp"

namespace mdp {

std::vector<double> solve_linear_system(std::vector<std::vector<double>> a,
                                        std::vector<double> b) {
  const std::size_t n = a.size();
  SM_REQUIRE(b.size() == n, "rhs size mismatch");
  for (const auto& row : a) {
    SM_REQUIRE(row.size() == n, "matrix must be square");
  }

  for (std::size_t col = 0; col < n; ++col) {
    // Partial pivoting: bring the largest remaining entry to the diagonal.
    std::size_t pivot = col;
    for (std::size_t r = col + 1; r < n; ++r) {
      if (std::fabs(a[r][col]) > std::fabs(a[pivot][col])) pivot = r;
    }
    SM_ENSURE(std::fabs(a[pivot][col]) > 1e-13,
              "singular linear system at column ", col);
    std::swap(a[col], a[pivot]);
    std::swap(b[col], b[pivot]);

    const double inv = 1.0 / a[col][col];
    for (std::size_t r = col + 1; r < n; ++r) {
      const double factor = a[r][col] * inv;
      if (factor == 0.0) continue;
      for (std::size_t c = col; c < n; ++c) a[r][c] -= factor * a[col][c];
      b[r] -= factor * b[col];
    }
  }

  std::vector<double> x(n, 0.0);
  for (std::size_t ri = n; ri-- > 0;) {
    double sum = b[ri];
    for (std::size_t c = ri + 1; c < n; ++c) sum -= a[ri][c] * x[c];
    x[ri] = sum / a[ri][ri];
  }
  return x;
}

DenseEvaluation dense_evaluate_policy(const Mdp& mdp, const Policy& policy,
                                      const std::vector<double>& action_reward) {
  validate_policy(mdp, policy);
  SM_REQUIRE(action_reward.size() == mdp.num_actions(),
             "reward vector size mismatch");
  const std::size_t n = mdp.num_states();

  // Unknowns x = (h(0), …, h(n−1), g); h(0) is pinned to zero by replacing
  // its column contribution — we simply drop h(0) as an unknown and keep g
  // in its slot: x = (g, h(1), …, h(n−1)).
  std::vector<std::vector<double>> a(n, std::vector<double>(n, 0.0));
  std::vector<double> b(n, 0.0);
  for (std::size_t s = 0; s < n; ++s) {
    const ActionId act = policy[s];
    // h(s) + g − Σ P h(t) = r(s)
    a[s][0] += 1.0;  // g coefficient
    if (s != 0) a[s][s] += 1.0;
    for (std::uint32_t i = mdp.transition_begin(act);
         i < mdp.transition_end(act); ++i) {
      if (mdp.target(i) != 0) a[s][mdp.target(i)] -= mdp.prob(i);
    }
    b[s] = action_reward[act];
  }

  const std::vector<double> x = solve_linear_system(std::move(a), std::move(b));
  DenseEvaluation result;
  result.gain = x[0];
  result.bias.assign(n, 0.0);
  for (std::size_t s = 1; s < n; ++s) result.bias[s] = x[s];
  return result;
}

DensePolicyIterationResult dense_policy_iteration(
    const Mdp& mdp, const std::vector<double>& action_reward) {
  constexpr double kImproveTol = 1e-10;
  constexpr int kMaxRounds = 1000;
  const StateId n = mdp.num_states();
  DensePolicyIterationResult result;
  Policy& policy = result.policy;
  policy.resize(n);
  for (StateId s = 0; s < n; ++s) policy[s] = mdp.action_begin(s);

  for (int round = 1; round <= kMaxRounds; ++round) {
    const DenseEvaluation eval =
        dense_evaluate_policy(mdp, policy, action_reward);
    result.gain = eval.gain;

    bool changed = false;
    for (StateId s = 0; s < n; ++s) {
      const ActionId incumbent = policy[s];
      double incumbent_q = action_reward[incumbent];
      for (std::uint32_t i = mdp.transition_begin(incumbent);
           i < mdp.transition_end(incumbent); ++i) {
        incumbent_q += mdp.prob(i) * eval.bias[mdp.target(i)];
      }
      double best_q = incumbent_q;
      ActionId best_a = incumbent;
      for (ActionId a = mdp.action_begin(s); a < mdp.action_end(s); ++a) {
        if (a == incumbent) continue;
        double q = action_reward[a];
        for (std::uint32_t i = mdp.transition_begin(a);
             i < mdp.transition_end(a); ++i) {
          q += mdp.prob(i) * eval.bias[mdp.target(i)];
        }
        if (q > best_q + kImproveTol) {
          best_q = q;
          best_a = a;
        }
      }
      if (best_a != incumbent) {
        policy[s] = best_a;
        changed = true;
      }
    }
    if (!changed) {
      result.converged = true;
      break;
    }
  }
  return result;
}

}  // namespace mdp
