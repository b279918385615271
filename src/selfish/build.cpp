#include "selfish/build.hpp"

#include <cstdint>
#include <limits>
#include <utility>
#include <vector>

#include "mdp/builder.hpp"
#include "obs/trace.hpp"
#include "support/check.hpp"

namespace selfish {

namespace {

/// p or γ as the shape sees it: 0 and 1 give some outcome probability
/// zero, and every value in between gives the same outcomes.
double support_of(double x) { return x == 0.0 || x == 1.0 ? x : 0.5; }

/// One code per distinct term: its kind and σ ≤ d·f.
constexpr std::size_t kTermCodes =
    Term::kKinds * (kMaxDepth * kMaxForks + 1);

std::size_t code_of(Term term) {
  return static_cast<std::size_t>(term.kind) + Term::kKinds * term.sigma;
}

}  // namespace

ShapeKey ShapeKey::of(const AttackParams& params) {
  return ShapeKey{params.d, params.f, params.l, params.burn_lost_races,
                  support_of(params.p), support_of(params.gamma)};
}

AttackParams ShapeKey::params() const {
  return AttackParams{.p = p, .gamma = gamma, .d = d, .f = f, .l = l,
                      .burn_lost_races = burn_lost_races};
}

ModelShape build_shape(const AttackParams& point) {
  point.validate();
  obs::Span span("selfish.build");
  const ShapeKey key = ShapeKey::of(point);
  const AttackParams params = key.params();
  ModelShape shape(key, StateSpace(params));
  StateSpace& space = shape.space_;
  mdp::MdpBuilder builder;

  // The term lists' prefix tree: children[node·kTermCodes + code] is the
  // node that extends `node` by the term with that code, 0 while absent.
  std::vector<ModelShape::TermNode>& nodes = shape.term_nodes_;
  std::vector<std::uint16_t>& list_of = shape.term_list_of_;
  std::vector<std::uint16_t> children(kTermCodes, 0);
  nodes.emplace_back();
  const auto extend = [&](std::uint16_t node, Term term) -> std::uint16_t {
    const std::size_t slot = node * kTermCodes + code_of(term);
    if (children[slot] == 0) {
      SM_ENSURE(nodes.size() <= std::numeric_limits<std::uint16_t>::max(),
                "more than 65535 probability term lists");
      children[slot] = static_cast<std::uint16_t>(nodes.size());
      nodes.push_back({node, term});
      children.resize(children.size() + kTermCodes, 0);
    }
    return children[slot];
  };

  const mdp::StateId initial =
      space.intern_canonical(State::initial(params));
  SM_ENSURE(initial == 0, "initial state must receive id 0");

  // Ids are assigned in discovery order, so processing states in id order
  // is exactly a BFS; every state's actions are streamed into the builder
  // the moment the state is processed. One action list and one outcome
  // buffer serve the whole BFS. A state is checked canonical once, by
  // available_actions; the successors apply_action derives are canonical
  // by construction.
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
        const mdp::StateId target = space.intern_canonical(outcome.next);
        const std::uint32_t i = builder.add_outcome(target, outcome.counts);
        if (i == list_of.size()) {
          list_of.push_back(extend(0, outcome.term));
        } else {
          list_of[i] = extend(list_of[i], outcome.term);
        }
      }
    }
  }

  shape.structure_ = builder.build_structure(initial);
  const mdp::MdpStructure& built = *shape.structure_;
  span.attr("states", serve::Json(static_cast<std::int64_t>(
                          built.num_states())));
  span.attr("actions", serve::Json(static_cast<std::int64_t>(
                           built.num_actions())));
  span.attr("transitions", serve::Json(static_cast<std::int64_t>(
                               built.num_transitions())));
  return shape;
}

SelfishModel ModelShape::render_around(StateSpace space,
                                       const AttackParams& params) const {
  params.validate();
  SM_REQUIRE(ShapeKey::of(params) == key_, "rendering ", params.to_string(),
             " on the shape of ", key_.params().to_string());
  obs::Span span("selfish.render");
  span.attr("p", serve::Json(params.p));
  span.attr("gamma", serve::Json(params.gamma));

  // Every list's sum, each term added in merge order; node 0 is empty.
  std::vector<double> sums(term_nodes_.size(), 0.0);
  for (std::size_t k = 1; k < term_nodes_.size(); ++k) {
    sums[k] = sums[term_nodes_[k].parent] +
              term_nodes_[k].term.value(params.p, params.gamma);
  }
  std::vector<double> probs(term_list_of_.size());
  for (std::size_t i = 0; i < probs.size(); ++i) {
    probs[i] = sums[term_list_of_[i]];
  }
  space.relabel(params);
  return SelfishModel{params, std::move(space),
                      mdp::Mdp(structure_, std::move(probs))};
}

SelfishModel render(const ModelShape& shape, const AttackParams& params) {
  return shape.render_around(shape.space_, params);
}

SelfishModel build_model(const AttackParams& params) {
  // The shape serves this one point, so its dictionary moves into the
  // model instead of being copied.
  ModelShape shape = build_shape(params);
  StateSpace space = std::move(shape.space_);
  return shape.render_around(std::move(space), params);
}

}  // namespace selfish
