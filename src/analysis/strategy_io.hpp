// Serialization of computed strategies.
//
// A strategy file is a self-describing text format: a header pinning the
// attack parameters (the strategy is only meaningful for the exact model it
// was computed on), followed by one `state-key action-code` pair per
// *decision* state (mining states always mine and are omitted). Loading
// validates the header against the target model, requires exactly one
// entry per decision state, and rebuilds a full mdp::Policy, so a doctored
// file is refused rather than loaded as a different strategy. This lets
// an expensive analysis (e.g. d=4, f=2) be computed
// once and replayed in the simulator or the explorer.
#pragma once

#include <iosfwd>
#include <string>

#include "mdp/markov_chain.hpp"
#include "selfish/build.hpp"

namespace analysis {

/// Writes `policy` for `model` to `out`. Throws on a foreign policy.
void save_strategy(const selfish::SelfishModel& model,
                   const mdp::Policy& policy, std::ostream& out);

/// Convenience: serialize to a string.
std::string strategy_to_string(const selfish::SelfishModel& model,
                               const mdp::Policy& policy);

/// Parses a strategy produced by save_strategy and validates it against
/// `model`: the parameters must match exactly; `states N` must equal the
/// model's number of decision states; each entry must name a decision
/// state (not a mining state, not a key outside the model) not listed
/// before, and an action available there. Throws support::InvalidArgument,
/// naming the line, on any mismatch or malformed input.
mdp::Policy load_strategy(const selfish::SelfishModel& model,
                          std::istream& in);

mdp::Policy strategy_from_string(const selfish::SelfishModel& model,
                                 const std::string& text);

/// Convenience: opens `path` and loads the strategy it contains. Throws
/// support::InvalidArgument when the file cannot be opened (or on any of
/// load_strategy's validation failures).
mdp::Policy load_strategy_file(const selfish::SelfishModel& model,
                               const std::string& path);

}  // namespace analysis
