// Assembles the selfish-mining MDP for the mean-payoff solvers of
// Algorithm 1, in two steps. In §3.2's model p and γ enter only the
// transition probabilities; the states, actions and successors depend on
// (d, f, l) alone. So:
//  * build_shape enumerates the reachable states × available actions ×
//    transition semantics by BFS into a ModelShape: the state dictionary,
//    the Mdp's structure (mdp::MdpStructure) and, per transition, the
//    ordered list of probability terms (selfish::Term) that the builder
//    merged into it. A shape is determined by its ShapeKey: (d, f, l,
//    burn) and which outcomes p and γ give probability zero.
//  * render evaluates those terms at one (p, γ), sums each list in the
//    order it was merged, and renders an mdp::Mdp on the shared structure,
//    which renormalizes each row and forms the expected counters. A
//    rendered model is byte-identical to one enumerated at its point, and
//    owns only its probabilities and expected counters: it shares the
//    shape's dictionary and structure, and p and γ live in its params.
// build_model(params) is render(build_shape(params), params), and is the
// only enumeration. A caller that needs several points of one shape owns
// the shape for as long as it needs it: one engine::Engine::run, or one
// analysis::fairness_threshold run. No cache outlives its caller.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "mdp/mdp.hpp"
#include "selfish/actions.hpp"
#include "selfish/params.hpp"
#include "selfish/space.hpp"
#include "selfish/transitions.hpp"

namespace selfish {

/// A built model: the MDP plus the state dictionary needed to interpret
/// its states and action labels. Every model of one shape shares the
/// shape's dictionary, as its mdp shares the shape's structure.
struct SelfishModel {
  AttackParams params;
  std::shared_ptr<const StateSpace> space;
  mdp::Mdp mdp;

  /// Decodes the action label of a global MDP action id.
  Action action_of(mdp::ActionId a) const {
    return Action::decode(mdp.action_label(a));
  }
};

/// What a model's structure depends on: (d, f, l, burn) and which
/// outcomes have probability zero. p and γ stand for themselves at 0 and
/// 1, and every value in between is 0.5.
struct ShapeKey {
  int d = 0;
  int f = 0;
  int l = 0;
  bool burn_lost_races = false;
  double p = 0.5;
  double gamma = 0.5;

  static ShapeKey of(const AttackParams& params);

  /// The parameters the shape is enumerated at.
  AttackParams params() const;

  friend auto operator<=>(const ShapeKey&, const ShapeKey&) = default;
};

class ModelShape;

/// Enumerates the shape of `params`'s model by BFS: reachable canonical
/// states, their actions and each action's successors, with the terms of
/// each transition's probability. Linear in the number of reachable
/// transitions. p and γ matter only through ShapeKey::of(params). The
/// build is one `selfish.build` trace span carrying the shape's states,
/// actions and transitions.
ModelShape build_shape(const AttackParams& params);

/// The model at `params`, which must have `shape`'s key: its terms
/// evaluated at (p, γ) on the shape's structure. One `selfish.render`
/// trace span carrying p and gamma.
SelfishModel render(const ModelShape& shape, const AttackParams& params);

/// render(build_shape(params), params).
SelfishModel build_model(const AttackParams& params);

/// A model without its probabilities. Immutable once built, so any number
/// of threads may render points of one shape at once.
class ModelShape {
 public:
  const ShapeKey& key() const { return key_; }
  const std::shared_ptr<const StateSpace>& space() const { return space_; }
  const std::shared_ptr<const mdp::MdpStructure>& structure() const {
    return structure_;
  }

 private:
  friend ModelShape build_shape(const AttackParams& params);
  friend SelfishModel render(const ModelShape& shape,
                             const AttackParams& params);

  /// A term list as a node of a prefix tree: node 0 is the empty list,
  /// and every other node extends its parent's list by one term. Parents
  /// precede their children, so one pass in node order sums every list
  /// term by term in the order the builder merged them.
  struct TermNode {
    std::uint16_t parent = 0;
    Term term;
  };

  explicit ModelShape(const ShapeKey& key) : key_(key) {}

  ShapeKey key_;
  std::shared_ptr<const StateSpace> space_;
  std::shared_ptr<const mdp::MdpStructure> structure_;
  std::vector<TermNode> term_nodes_;
  std::vector<std::uint16_t> term_list_of_;  ///< Per transition: its node.
};

}  // namespace selfish
