#include "sim/strategies.hpp"

#include "support/check.hpp"

namespace sim {

MdpPolicyStrategy::MdpPolicyStrategy(const selfish::SelfishModel& model,
                                     const mdp::Policy& policy)
    : model_(&model), policy_(&policy) {
  mdp::validate_policy(model.mdp, policy);
}

selfish::Action MdpPolicyStrategy::decide(const selfish::State& view) {
  const mdp::StateId id = model_->space->id_of(view);
  return model_->action_of((*policy_)[id]);
}

selfish::Action ReleaseImmediatelyStrategy::decide(
    const selfish::State& view) {
  if (view.type == selfish::StepType::kAdversaryFound &&
      view.c[0][0] >= 1) {
    return selfish::Action::release(1, 0, view.c[0][0]);
  }
  return selfish::Action::mine();
}

selfish::Action NeverReleaseStrategy::decide(const selfish::State&) {
  return selfish::Action::mine();
}

std::unique_ptr<Strategy> make_builtin_strategy(const std::string& name) {
  if (name == "honest") return std::make_unique<ReleaseImmediatelyStrategy>();
  if (name == "never-release") {
    return std::make_unique<NeverReleaseStrategy>();
  }
  throw support::InvalidArgument("unknown builtin strategy: " + name +
                                 " (expected honest | never-release)");
}

}  // namespace sim
