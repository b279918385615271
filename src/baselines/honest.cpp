#include "baselines/honest.hpp"

#include "support/check.hpp"

namespace baselines {

double honest_errev(double p) {
  SM_REQUIRE(p >= 0.0 && p <= 1.0, "p out of [0,1]: ", p);
  return p;
}

mdp::Policy release_immediately_policy(const selfish::SelfishModel& model) {
  const mdp::Mdp& m = model.mdp;
  mdp::Policy policy(m.num_states());
  for (mdp::StateId s = 0; s < m.num_states(); ++s) {
    const selfish::State state = model.space->state_of(s);
    mdp::ActionId chosen = m.action_begin(s);  // mine (always first)
    if (state.type == selfish::StepType::kAdversaryFound) {
      // Publish the tip fork in full if it is releasable (depth 1 forks
      // always are); otherwise keep mining.
      for (mdp::ActionId a = m.action_begin(s); a < m.action_end(s); ++a) {
        const selfish::Action action = model.action_of(a);
        if (action.kind == selfish::Action::Kind::kRelease &&
            action.depth == 1 && action.slot == 0 &&
            action.length == state.c[0][0]) {
          chosen = a;
          break;
        }
      }
    }
    policy[s] = chosen;
  }
  return policy;
}

}  // namespace baselines
