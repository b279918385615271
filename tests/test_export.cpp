// Model export: Storm explicit format and Graphviz DOT.
#include <gtest/gtest.h>

#include <map>
#include <sstream>

#include "mdp/export.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"
#include "test_helpers.hpp"

namespace {

TEST(ExportTra, HeaderAndTransitionLines) {
  const mdp::Mdp m = test_helpers::two_action_choice();
  std::ostringstream os;
  mdp::export_tra(m, os);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("mdp\n", 0), 0u);
  // Three transitions: stay (s0 a0), go (s0 a1), back (s1 a0).
  EXPECT_NE(out.find("0 0 0 1\n"), std::string::npos);
  EXPECT_NE(out.find("0 1 1 1\n"), std::string::npos);
  EXPECT_NE(out.find("1 0 0 1\n"), std::string::npos);
}

TEST(ExportTra, OneLinePerTransition) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
  std::ostringstream os;
  mdp::export_tra(model.mdp, os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, model.mdp.num_transitions() + 1);  // + header
}

TEST(ExportTra, ProbabilitiesPerActionSumToOne) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.25, .gamma = 0.5, .d = 2, .f = 2, .l = 3});
  std::ostringstream os;
  mdp::export_tra(model.mdp, os);
  std::istringstream is(os.str());
  std::string header;
  std::getline(is, header);
  std::map<std::pair<std::uint64_t, std::uint64_t>, double> row_sums;
  std::uint64_t s = 0, offset = 0, target = 0;
  double prob = 0.0;
  while (is >> s >> offset >> target >> prob) {
    row_sums[{s, offset}] += prob;
  }
  for (const auto& [key, total] : row_sums) {
    EXPECT_NEAR(total, 1.0, 1e-9) << "state " << key.first;
  }
}

TEST(ExportLab, MarksInitialState) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  std::ostringstream os;
  mdp::export_lab(m, os);
  EXPECT_NE(os.str().find("0 init"), std::string::npos);
}

TEST(ExportRew, RewardsMatchBetaFormula) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  std::ostringstream os;
  mdp::export_rew(m, 0.25, os);
  // Transition s0→s1 has counts (1,0): reward 1 − 0.25 = 0.75.
  // Transition s1→s0 has counts (0,1): reward −0.25.
  EXPECT_NE(os.str().find("0 0 1 0.75\n"), std::string::npos);
  EXPECT_NE(os.str().find("1 0 0 -0.25\n"), std::string::npos);
}

TEST(ExportRew, SparseOmitsZeroRewards) {
  const mdp::Mdp m = test_helpers::two_state_cycle();
  std::ostringstream os;
  // β such that the honest transition reward is 0 … β=0 zeroes −β·hon.
  mdp::export_rew(m, 0.0, os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) ++lines;
  EXPECT_EQ(lines, 1u);  // only the adversary-counting transition remains
}

TEST(ExportDot, RendersSmallSelfishModel) {
  const selfish::AttackParams params{.p = 0.3, .gamma = 0.5, .d = 1, .f = 1, .l = 2};
  const auto model = selfish::build_model(params);
  std::ostringstream os;
  mdp::DotOptions options;
  options.labeler = [&](mdp::StateId s) {
    return model.space->state_of(s).to_string(params);
  };
  mdp::export_dot(model.mdp, os, options);
  const std::string out = os.str();
  EXPECT_EQ(out.rfind("digraph mdp {", 0), 0u);
  EXPECT_NE(out.find("peripheries=2"), std::string::npos);  // initial state
  EXPECT_NE(out.find("type=mining"), std::string::npos);    // labeler used
  EXPECT_NE(out.find("}\n"), std::string::npos);
}

TEST(ExportDot, RefusesHugeModels) {
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4});
  std::ostringstream os;
  mdp::DotOptions options;
  options.max_states = 100;
  EXPECT_THROW(mdp::export_dot(model.mdp, os, options),
               support::InvalidArgument);
}

}  // namespace
