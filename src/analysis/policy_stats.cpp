#include "analysis/policy_stats.hpp"

#include <algorithm>
#include <map>
#include <sstream>

#include "support/check.hpp"

namespace analysis {

PolicyStats compute_policy_stats(const selfish::SelfishModel& model,
                                 const mdp::Policy& policy,
                                 const std::vector<double>& stationary,
                                 double cutoff) {
  mdp::validate_policy(model.mdp, policy);
  SM_REQUIRE(stationary.size() == model.mdp.num_states(),
             "stationary distribution has ", stationary.size(),
             " entries for ", model.mdp.num_states(), " states");
  const selfish::AttackParams& params = model.params;

  PolicyStats stats;
  double mass_adv_type = 0.0, mass_hon_type = 0.0;
  double released_adv_type = 0.0, released_hon_type = 0.0;
  std::map<std::tuple<int, int, bool>, double> release_freq;

  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    const double mu = stationary[s];
    if (mu < cutoff) continue;
    const selfish::State state = model.space->state_of(s);

    int withheld = 0;
    for (int i = 0; i < params.d; ++i) {
      for (int j = 0; j < params.f; ++j) withheld += state.c[i][j];
    }
    stats.mean_withheld_blocks += mu * withheld;
    stats.max_withheld_blocks = std::max(stats.max_withheld_blocks, withheld);

    if (state.type == selfish::StepType::kMining) continue;
    const selfish::Action action = model.action_of(policy[s]);
    const bool is_release =
        action.kind == selfish::Action::Kind::kRelease;
    if (state.type == selfish::StepType::kAdversaryFound) {
      mass_adv_type += mu;
      if (is_release) released_adv_type += mu;
    } else {
      mass_hon_type += mu;
      if (is_release) released_hon_type += mu;
    }
    if (!is_release) continue;

    const bool race = state.type == selfish::StepType::kHonestFound &&
                      action.length == action.depth;
    release_freq[{action.depth, action.length, race}] += mu;
    if (race) {
      stats.race_rate += mu;
    } else if (state.type == selfish::StepType::kHonestFound) {
      stats.override_rate += mu;
    }
  }

  if (mass_adv_type > 0.0) {
    stats.release_rate_after_adversary_block =
        released_adv_type / mass_adv_type;
  }
  if (mass_hon_type > 0.0) {
    stats.release_rate_after_honest_block = released_hon_type / mass_hon_type;
  }
  for (const auto& [key, freq] : release_freq) {
    const auto& [depth, length, race] = key;
    stats.releases.push_back(ReleaseStat{depth, length, race, freq});
  }
  std::sort(stats.releases.begin(), stats.releases.end(),
            [](const ReleaseStat& a, const ReleaseStat& b) {
              return a.frequency > b.frequency;
            });
  return stats;
}

std::string PolicyStats::to_string() const {
  std::ostringstream os;
  os << "release rate after own block:    "
     << release_rate_after_adversary_block << '\n'
     << "release rate after honest block: "
     << release_rate_after_honest_block << '\n'
     << "mean withheld blocks: " << mean_withheld_blocks
     << " (max visited: " << max_withheld_blocks << ")\n"
     << "race rate: " << race_rate
     << " / override rate: " << override_rate << " per step\n"
     << "top releases (depth,k,race: freq):";
  int shown = 0;
  for (const auto& r : releases) {
    os << "  (" << r.depth << ',' << r.length << ','
       << (r.race ? "race" : "push") << ": " << r.frequency << ')';
    if (++shown >= 6) break;
  }
  os << '\n';
  return os.str();
}

}  // namespace analysis
