// Strategy serialization: round trips, validation, corruption handling.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "analysis/strategy_io.hpp"
#include "support/check.hpp"

namespace {

selfish::SelfishModel make_model(double p = 0.3, double gamma = 0.5) {
  return selfish::build_model(
      selfish::AttackParams{.p = p, .gamma = gamma, .d = 2, .f = 1, .l = 4});
}

mdp::Policy optimal_policy(const selfish::SelfishModel& model) {
  analysis::AnalysisOptions options;
  options.epsilon = 1e-4;
  return analysis::analyze(model, options).policy;
}

/// A saved strategy split into its three header lines and its entries.
struct StrategyText {
  std::vector<std::string> header, entries;

  std::string join() const {
    std::string text;
    for (const auto* lines : {&header, &entries}) {
      for (const std::string& line : *lines) text += line + '\n';
    }
    return text;
  }
};

StrategyText split(const std::string& text) {
  StrategyText out;
  std::istringstream is(text);
  std::string line;
  while (std::getline(is, line)) {
    (out.header.size() < 3 ? out.header : out.entries).push_back(line);
  }
  return out;
}

/// Expects loading `text` to throw support::InvalidArgument whose message
/// contains `what`.
void expect_refused(const selfish::SelfishModel& model,
                    const std::string& text, const std::string& what) {
  try {
    analysis::strategy_from_string(model, text);
    ADD_FAILURE() << "loaded without error; expected: " << what;
  } catch (const support::InvalidArgument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

TEST(StrategyIo, RoundTripPreservesPolicyBehavior) {
  const auto model = make_model();
  const auto policy = optimal_policy(model);
  const std::string text = analysis::strategy_to_string(model, policy);
  const auto loaded = analysis::strategy_from_string(model, text);
  // Decision states must match exactly; mining states are forced anyway.
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    if (model.space.state_of(s).type != selfish::StepType::kMining) {
      EXPECT_EQ(loaded[s], policy[s]) << "state " << s;
    }
  }
  EXPECT_NEAR(analysis::exact_errev(model, loaded),
              analysis::exact_errev(model, policy), 1e-12);
}

TEST(StrategyIo, HeaderMentionsParameters) {
  const auto model = make_model();
  const auto text = analysis::strategy_to_string(model, optimal_policy(model));
  EXPECT_NE(text.find("selfish-mining-strategy v1"), std::string::npos);
  EXPECT_NE(text.find("d=2"), std::string::npos);
  EXPECT_NE(text.find("f=1"), std::string::npos);
}

TEST(StrategyIo, RejectsWrongModelParameters) {
  const auto model = make_model(0.3, 0.5);
  const auto text = analysis::strategy_to_string(model, optimal_policy(model));
  const auto other = make_model(0.25, 0.5);
  EXPECT_THROW(analysis::strategy_from_string(other, text),
               support::InvalidArgument);
}

TEST(StrategyIo, RejectsBadMagic) {
  const auto model = make_model();
  EXPECT_THROW(analysis::strategy_from_string(model, "garbage\n"),
               support::InvalidArgument);
}

TEST(StrategyIo, RejectsTruncatedFile) {
  const auto model = make_model();
  auto text = analysis::strategy_to_string(model, optimal_policy(model));
  text.resize(text.size() / 2);
  // Either an entry count mismatch or a parse failure — both must throw.
  EXPECT_THROW(analysis::strategy_from_string(model, text), support::Error);
}

TEST(StrategyIo, RejectsForeignAction) {
  const auto model = make_model();
  auto text = analysis::strategy_to_string(model, optimal_policy(model));
  // Corrupt one entry's action label to an impossible release.
  const auto pos = text.rfind(' ');
  text = text.substr(0, pos + 1) + "4278124286\n";  // release(254,254,254)
  EXPECT_THROW(analysis::strategy_from_string(model, text), support::Error);
}

TEST(StrategyIo, SavedStrategyOmitsMiningStates) {
  const auto model = make_model();
  const auto text = analysis::strategy_to_string(model, optimal_policy(model));
  std::istringstream is(text);
  std::string line;
  std::getline(is, line);  // magic
  std::getline(is, line);  // params
  std::getline(is, line);  // states N
  std::size_t advertised = 0;
  ASSERT_EQ(std::sscanf(line.c_str(), "states %zu", &advertised), 1);
  std::size_t decision = 0;
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    if (model.space.state_of(s).type != selfish::StepType::kMining) {
      ++decision;
    }
  }
  EXPECT_EQ(advertised, decision);
  EXPECT_LT(decision, model.mdp.num_states());
}

TEST(StrategyIo, RejectsRepeatedEntries) {
  // Every entry replaced by the first: the count still matches, but all
  // other decision states would silently mine.
  const auto model = make_model();
  StrategyText text =
      split(analysis::strategy_to_string(model, optimal_policy(model)));
  for (std::string& entry : text.entries) entry = text.entries.front();
  expect_refused(model, text.join(), "line 5: state ");
  expect_refused(model, text.join(), " is listed twice");
}

TEST(StrategyIo, RejectsFileCoveringFewerStates) {
  // Cut to 5 entries, with a states line that agrees with the cut.
  const auto model = make_model();
  StrategyText text =
      split(analysis::strategy_to_string(model, optimal_policy(model)));
  text.header[2] = "states 5";
  text.entries.resize(5);
  expect_refused(model, text.join(), "strategy file lists 5 states");
}

TEST(StrategyIo, RejectsMiningStateEntry) {
  // One release entry replaced by an entry for a mining state: the count
  // still matches, but the replaced decision state would silently mine.
  const auto model = make_model();
  const auto policy = optimal_policy(model);
  StrategyText text = split(analysis::strategy_to_string(model, policy));
  mdp::StateId mining = 0;
  while (model.space.state_of(mining).type != selfish::StepType::kMining) {
    ++mining;
  }
  const std::string mining_entry =
      std::to_string(model.space.state_of(mining).pack(model.params)) + ' ' +
      std::to_string(model.mdp.action_label(model.mdp.action_begin(mining)));
  std::size_t replaced = 0;
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    if (model.space.state_of(s).type == selfish::StepType::kMining) continue;
    if (model.action_of(policy[s]).kind == selfish::Action::Kind::kRelease) {
      break;
    }
    ++replaced;
  }
  ASSERT_LT(replaced, text.entries.size());
  text.entries[replaced] = mining_entry;
  expect_refused(model, text.join(), " is not a decision state of ");
}

TEST(StrategyIo, OutOfRangeKeyIsInvalidArgument) {
  // Cells above l: bad input, not a library invariant.
  const auto model = make_model();
  StrategyText text =
      split(analysis::strategy_to_string(model, optimal_policy(model)));
  text.entries[1] = "18446744073709551615 0";
  expect_refused(model, text.join(),
                 "line 5: key 18446744073709551615 is not a decision state");
}

TEST(StrategyIo, KeyWithBitsAboveThePackedWidthIsRefused) {
  // StateSpace::find takes any u64 a file holds: a decision state's key
  // with one bit set above the packed width (9 bits at d=2, f=1, l=4)
  // must miss the interning table, not alias that state.
  const auto model = make_model();
  StrategyText text =
      split(analysis::strategy_to_string(model, optimal_policy(model)));
  std::uint64_t key = 0;
  std::uint32_t label = 0;
  std::istringstream(text.entries[0]) >> key >> label;
  ASSERT_TRUE(model.space.find(key).has_value());
  const std::uint64_t wide = key | (1ULL << 9);
  text.entries[0] = std::to_string(wide) + ' ' + std::to_string(label);
  expect_refused(model, text.join(),
                 "line 4: key " + std::to_string(wide) +
                     " is not a decision state");
}

}  // namespace
