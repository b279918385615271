#include "analysis/strategy_io.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <istream>
#include <optional>
#include <ostream>
#include <sstream>
#include <vector>

#include "support/check.hpp"

namespace analysis {

namespace {

constexpr const char* kMagic = "selfish-mining-strategy v1";

bool is_decision_state(const selfish::SelfishModel& model, mdp::StateId s) {
  return model.space->state_of(s).type != selfish::StepType::kMining;
}

std::size_t count_decision_states(const selfish::SelfishModel& model) {
  std::size_t count = 0;
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    if (is_decision_state(model, s)) ++count;
  }
  return count;
}

}  // namespace

void save_strategy(const selfish::SelfishModel& model,
                   const mdp::Policy& policy, std::ostream& out) {
  mdp::validate_policy(model.mdp, policy);
  const auto& params = model.params;
  out << kMagic << '\n';
  char header[176];
  std::snprintf(header, sizeof(header),
                "params p=%.17g gamma=%.17g d=%d f=%d l=%d burn=%d\n",
                params.p, params.gamma, params.d, params.f, params.l,
                params.burn_lost_races ? 1 : 0);
  out << header;

  out << "states " << count_decision_states(model) << '\n';
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    if (!is_decision_state(model, s)) continue;
    out << model.space->state_of(s).pack(params) << ' '
        << model.mdp.action_label(policy[s]) << '\n';
  }
}

std::string strategy_to_string(const selfish::SelfishModel& model,
                               const mdp::Policy& policy) {
  std::ostringstream os;
  save_strategy(model, policy, os);
  return os.str();
}

mdp::Policy load_strategy(const selfish::SelfishModel& model,
                          std::istream& in) {
  const auto& params = model.params;
  std::string line;
  SM_REQUIRE(std::getline(in, line) && line == kMagic,
             "not a strategy file (bad magic line)");

  SM_REQUIRE(static_cast<bool>(std::getline(in, line)),
             "strategy file truncated before the params line");
  double p = 0.0, gamma = 0.0;
  int d = 0, f = 0, l = 0, burn = 0;
  SM_REQUIRE(std::sscanf(line.c_str(),
                         "params p=%lg gamma=%lg d=%d f=%d l=%d burn=%d",
                         &p, &gamma, &d, &f, &l, &burn) == 6,
             "malformed params line: ", line);
  SM_REQUIRE(p == params.p && gamma == params.gamma && d == params.d &&
                 f == params.f && l == params.l &&
                 (burn == 1) == params.burn_lost_races,
             "strategy was computed for different parameters (",
             line, " vs ", params.to_string(), ")");

  SM_REQUIRE(static_cast<bool>(std::getline(in, line)),
             "strategy file truncated before the states line");
  std::size_t expected = 0;
  SM_REQUIRE(std::sscanf(line.c_str(), "states %zu", &expected) == 1,
             "malformed states line: ", line);
  const std::size_t decision_states = count_decision_states(model);
  SM_REQUIRE(expected == decision_states, "strategy file lists ", expected,
             " states but the model has ", decision_states,
             " decision states");

  // Mining states only mine; each decision state is set by its one entry.
  mdp::Policy policy(model.mdp.num_states());
  std::vector<bool> listed(model.mdp.num_states(), false);
  for (mdp::StateId s = 0; s < model.mdp.num_states(); ++s) {
    policy[s] = model.mdp.action_begin(s);
  }

  std::size_t loaded = 0;
  for (std::size_t line_no = 4; std::getline(in, line); ++line_no) {
    if (line.empty()) continue;
    std::uint64_t key = 0;
    std::uint32_t label = 0;
    SM_REQUIRE(std::sscanf(line.c_str(), "%" SCNu64 " %" SCNu32, &key,
                           &label) == 2,
               "malformed strategy entry on line ", line_no, ": ", line);
    const std::optional<mdp::StateId> id = model.space->find(key);
    SM_REQUIRE(id.has_value() && is_decision_state(model, *id), "line ",
               line_no, ": key ", key, " is not a decision state of ",
               params.to_string());
    SM_REQUIRE(!listed[*id], "line ", line_no, ": state ",
               model.space->state_of(*id).to_string(params),
               " is listed twice");
    listed[*id] = true;
    bool found = false;
    for (mdp::ActionId a = model.mdp.action_begin(*id);
         a < model.mdp.action_end(*id); ++a) {
      if (model.mdp.action_label(a) == label) {
        policy[*id] = a;
        found = true;
        break;
      }
    }
    SM_REQUIRE(found, "line ", line_no, ": action ",
               selfish::Action::decode(label).to_string(),
               " is not available in state ",
               model.space->state_of(*id).to_string(params));
    ++loaded;
  }
  SM_REQUIRE(loaded == expected, "strategy file advertised ", expected,
             " entries but contained ", loaded);
  return policy;
}

mdp::Policy strategy_from_string(const selfish::SelfishModel& model,
                                 const std::string& text) {
  std::istringstream is(text);
  return load_strategy(model, is);
}

mdp::Policy load_strategy_file(const selfish::SelfishModel& model,
                               const std::string& path) {
  std::ifstream in(path);
  SM_REQUIRE(in.good(), "cannot open strategy file: ", path);
  return load_strategy(model, in);
}

}  // namespace analysis
