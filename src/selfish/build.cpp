#include "selfish/build.hpp"

#include <cstdint>
#include <vector>

#include "mdp/builder.hpp"
#include "obs/trace.hpp"
#include "selfish/transitions.hpp"
#include "support/check.hpp"

namespace selfish {

SelfishModel build_model(const AttackParams& params) {
  params.validate();
  obs::Span span("selfish.build");
  StateSpace space(params);
  mdp::MdpBuilder builder;

  const mdp::StateId initial = space.intern(State::initial(params));
  SM_ENSURE(initial == 0, "initial state must receive id 0");

  // Ids are assigned in discovery order, so processing states in id order
  // is exactly a BFS; every state's actions are streamed into the builder
  // the moment the state is processed. One action list and one outcome
  // buffer serve the whole BFS.
  std::vector<Action> actions;
  Outcomes outcomes;
  for (mdp::StateId s_id = 0; s_id < space.size(); ++s_id) {
    const State s = space.state_of(s_id);
    const mdp::StateId added = builder.add_state();
    SM_ENSURE(added == s_id, "builder/state-space id drift");

    available_actions(s, params, actions);
    for (const Action& action : actions) {
      builder.add_action(action.encode());
      apply_action(s, action, params, outcomes);
      for (const Outcome& outcome : outcomes) {
        const mdp::StateId target = space.intern(outcome.next);
        builder.add_transition(target, outcome.prob, outcome.counts);
      }
    }
  }

  mdp::Mdp built = builder.build(initial);
  span.attr("states", serve::Json(static_cast<std::int64_t>(
                          built.num_states())));
  span.attr("actions", serve::Json(static_cast<std::int64_t>(
                           built.num_actions())));
  span.attr("transitions", serve::Json(static_cast<std::int64_t>(
                               built.num_transitions())));
  return SelfishModel{params, std::move(space), std::move(built)};
}

}  // namespace selfish
