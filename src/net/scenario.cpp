#include "net/scenario.hpp"

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <utility>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "analysis/strategy_io.hpp"
#include "engine/engine.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"

namespace net {

namespace {

std::string format(const char* fmt, double v) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), fmt, v);
  return buffer;
}

/// Honest nodes sharing `power` equally.
std::vector<MinerSpec> honest_pool(int count, double power) {
  SM_REQUIRE(count >= 1, "need at least one honest miner");
  std::vector<MinerSpec> specs;
  for (int i = 0; i < count; ++i) {
    MinerSpec spec;
    spec.kind = MinerSpec::Kind::kHonest;
    spec.weight = power / count;
    specs.push_back(spec);
  }
  return specs;
}

Scenario base_scenario(const ScenarioOptions& o) {
  Scenario s;
  s.gamma = o.gamma;
  s.block_interval = o.block_interval;
  s.blocks = o.blocks;
  s.propagation = o.propagation;
  // Let the chain outgrow startup transients (and any delay-induced skew)
  // before counting; the window still covers the vast majority of a run.
  s.warmup_heights = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(o.blocks / 20 + 16, 100'000));
  return s;
}

std::string point_label(const ScenarioOptions& o, double p, double delay) {
  return "p=" + format("%.2f", p) + " gamma=" + format("%.2f", o.gamma) +
         " delay=" + format("%g", delay);
}

// ------------------------------------------------------------- families

std::vector<Scenario> family_honest_uniform(const ScenarioOptions& o) {
  Scenario s = base_scenario(o);
  s.name = "honest-uniform";
  s.variant = "delay=" + format("%g", o.delay);
  const int n = std::max(2, o.honest_miners);
  // Deliberately skewed hashrates: revenue proportionality is only an
  // interesting check when the weights differ.
  for (int i = 0; i < n; ++i) {
    MinerSpec spec;
    spec.kind = MinerSpec::Kind::kHonest;
    spec.weight = static_cast<double>(n - i);
    s.miners.push_back(spec);
  }
  s.topology = Topology::uniform(s.miners.size(), o.delay);
  s.tie_policy = TiePolicy::kFirstSeen;
  s.gamma = 0.0;
  return {s};
}

Scenario single_attacker(const ScenarioOptions& o, MinerSpec attacker,
                         TiePolicy tie, double delay) {
  Scenario s = base_scenario(o);
  s.miners.push_back(std::move(attacker));
  for (MinerSpec& spec : honest_pool(o.honest_miners, 1.0 - o.p)) {
    s.miners.push_back(std::move(spec));
  }
  s.topology = Topology::uniform(s.miners.size(), delay);
  s.tie_policy = tie;
  return s;
}

MinerSpec sm1_spec(double p) {
  MinerSpec spec;
  spec.kind = MinerSpec::Kind::kSm1;
  spec.weight = p;
  return spec;
}

MinerSpec strategy_spec(const ScenarioOptions& o) {
  MinerSpec spec;
  spec.kind = MinerSpec::Kind::kStrategy;
  spec.weight = o.p;
  spec.strategy = o.strategy;
  spec.attack = selfish::AttackParams{.p = o.p, .gamma = o.gamma, .d = o.d,
                                      .f = o.f, .l = o.l};
  return spec;
}

std::vector<Scenario> family_single_sm1(const ScenarioOptions& o) {
  Scenario s = single_attacker(o, sm1_spec(o.p),
                               TiePolicy::kGammaPerMiner, o.delay);
  s.name = "single-sm1";
  s.variant = point_label(o, o.p, o.delay);
  return {s};
}

std::vector<Scenario> family_single_optimal(const ScenarioOptions& o) {
  // kGammaShared realizes the MDP's atomic tie race, which the strategy
  // agent requires; with zero delay this scenario must reproduce the
  // analysis-predicted ERRev (the subsystem's correctness anchor).
  Scenario s = single_attacker(o, strategy_spec(o),
                               TiePolicy::kGammaShared, o.delay);
  s.name = "single-optimal";
  s.variant = point_label(o, o.p, o.delay) +
              " d=" + std::to_string(o.d) + " f=" + std::to_string(o.f);
  return {s};
}

std::vector<Scenario> family_sm1_delay_sweep(const ScenarioOptions& o) {
  std::vector<Scenario> out;
  for (const double fraction : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    ScenarioOptions point = o;
    point.delay = fraction * o.block_interval;
    Scenario s = single_attacker(point, sm1_spec(o.p),
                                 TiePolicy::kGammaPerMiner, point.delay);
    s.name = "sm1-delay-sweep";
    s.variant = point_label(point, o.p, point.delay);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Scenario> family_two_sm1(const ScenarioOptions& o) {
  SM_REQUIRE(2.0 * o.p < 0.9, "two attackers with p=", o.p,
             " leave too little honest power");
  Scenario s = base_scenario(o);
  s.name = "two-sm1";
  s.variant = point_label(o, o.p, o.delay) + " x2";
  s.miners.push_back(sm1_spec(o.p));
  s.miners.push_back(sm1_spec(o.p));
  for (MinerSpec& spec : honest_pool(o.honest_miners, 1.0 - 2.0 * o.p)) {
    s.miners.push_back(std::move(spec));
  }
  s.topology = Topology::uniform(s.miners.size(), o.delay);
  s.tie_policy = TiePolicy::kGammaPerMiner;
  return {s};
}

std::vector<Scenario> family_hashrate_grid(const ScenarioOptions& o) {
  std::vector<Scenario> out;
  for (double p = 0.10; p < 0.46; p += 0.05) {
    ScenarioOptions point = o;
    point.p = p;
    Scenario s = single_attacker(point, sm1_spec(p),
                                 TiePolicy::kGammaPerMiner, o.delay);
    s.name = "hashrate-grid";
    s.variant = point_label(point, p, o.delay);
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Scenario> family_star(const ScenarioOptions& o) {
  // The attacker sits at the hub (zero spoke); honest miners hang off
  // increasingly long spokes. Measures how a connectivity advantage
  // shows up as effective gamma.
  Scenario s = base_scenario(o);
  s.name = "star";
  s.variant = point_label(o, o.p, o.delay);
  s.miners.push_back(sm1_spec(o.p));
  for (MinerSpec& spec : honest_pool(o.honest_miners, 1.0 - o.p)) {
    s.miners.push_back(std::move(spec));
  }
  std::vector<double> spokes;
  spokes.push_back(0.0);  // the attacker hub
  for (std::size_t i = 1; i < s.miners.size(); ++i) {
    spokes.push_back(o.delay * static_cast<double>(i));
  }
  s.topology = Topology::star(spokes);
  s.tie_policy = TiePolicy::kGammaPerMiner;
  return {s};
}

std::vector<Scenario> family_gossip_delay(const ScenarioOptions& o) {
  // Store-and-forward along a line of honest miners with the SM1
  // attacker at the far end: end-to-end propagation is the *sum* of the
  // per-hop delays, so gossip pays the network diameter where a direct
  // broadcast would pay one link. Sweeps the per-hop delay.
  std::vector<Scenario> out;
  for (const double fraction : {0.0, 0.005, 0.01, 0.02, 0.05}) {
    const double hop = fraction * o.block_interval;
    Scenario s = base_scenario(o);
    s.name = "gossip-delay";
    s.variant = "p=" + format("%.2f", o.p) +
                " gamma=" + format("%.2f", o.gamma) +
                " hop=" + format("%g", hop);
    s.miners.push_back(sm1_spec(o.p));
    for (MinerSpec& spec : honest_pool(std::max(2, o.honest_miners),
                                       1.0 - o.p)) {
      s.miners.push_back(std::move(spec));
    }
    s.topology = Topology::line(
        std::vector<double>(s.miners.size() - 1, hop));
    s.propagation = PropagationMode::kGossip;
    s.tie_policy = TiePolicy::kGammaPerMiner;
    out.push_back(std::move(s));
  }
  return out;
}

std::vector<Scenario> family_partition_attack(const ScenarioOptions& o) {
  // A timed split isolates part of the honest pool from the attacker's
  // side mid-run: the minority side mines a doomed branch (stale rate
  // jumps), the attacker races a weakened majority while the split is
  // active, and after the heal the sides reconverge through ancestor
  // sync. The window is given as fractions of the expected run duration.
  SM_REQUIRE(o.partition_fraction > 0.0 && o.partition_fraction < 1.0,
             "partition fraction must be in (0, 1), got ",
             o.partition_fraction);
  SM_REQUIRE(0.0 <= o.partition_start &&
                 o.partition_start < o.partition_stop,
             "partition window must satisfy 0 <= start < stop");
  Scenario s = base_scenario(o);
  s.name = "partition-attack";
  const int honest = std::max(2, o.honest_miners);
  const double expected_duration =
      static_cast<double>(o.blocks) * o.block_interval;
  PartitionWindow window;
  window.start = o.partition_start * expected_duration;
  window.end = o.partition_stop * expected_duration;
  s.variant = point_label(o, o.p, o.delay) + " split=" +
              format("%.2f", o.partition_start) + ".." +
              format("%.2f", o.partition_stop) + " frac=" +
              format("%.2f", o.partition_fraction);
  s.miners.push_back(sm1_spec(o.p));
  for (MinerSpec& spec : honest_pool(honest, 1.0 - o.p)) {
    s.miners.push_back(std::move(spec));
  }
  // The attacker and the leading honest miners stay on side 0; the last
  // ceil(fraction * honest) honest miners are cut off on side 1.
  const int isolated = std::min(
      honest - 1,
      std::max(1, static_cast<int>(
                      std::ceil(o.partition_fraction * honest))));
  window.group.assign(s.miners.size(), 0);
  for (int i = 0; i < isolated; ++i) {
    window.group[s.miners.size() - 1 - static_cast<std::size_t>(i)] = 1;
  }
  s.topology = Topology::uniform(s.miners.size(), o.delay);
  s.topology.add_partition(std::move(window));
  s.tie_policy = TiePolicy::kGammaPerMiner;
  return {s};
}

std::vector<Scenario> family_asymmetric_star(const ScenarioOptions& o) {
  // Asymmetric connectivity: the attacker sits at the hub with instant
  // spokes; honest miners announce through a slow uplink (asymmetry x
  // delay) but listen through a fast downlink (delay). The attacker's
  // releases land quickly while honest blocks crawl out — a connectivity
  // advantage that shows up directly in the effective gamma.
  SM_REQUIRE(o.asymmetry >= 1.0, "asymmetry factor must be >= 1, got ",
             o.asymmetry);
  Scenario s = base_scenario(o);
  s.name = "asymmetric-star";
  s.variant = point_label(o, o.p, o.delay) + " asym=" +
              format("%g", o.asymmetry);
  s.miners.push_back(sm1_spec(o.p));
  for (MinerSpec& spec : honest_pool(o.honest_miners, 1.0 - o.p)) {
    s.miners.push_back(std::move(spec));
  }
  std::vector<double> up{0.0}, down{0.0};  // the attacker hub
  for (std::size_t i = 1; i < s.miners.size(); ++i) {
    up.push_back(o.delay * o.asymmetry);
    down.push_back(o.delay);
  }
  s.topology = Topology::star_asymmetric(up, down);
  s.tie_policy = TiePolicy::kGammaPerMiner;
  return {s};
}

struct Family {
  const char* name;
  const char* description;
  std::vector<Scenario> (*build)(const ScenarioOptions&);
};

constexpr Family kFamilies[] = {
    {"honest-uniform",
     "honest miners only, skewed hashrates — revenue must track hashrate",
     family_honest_uniform},
    {"single-sm1",
     "one Eyal-Sirer SM1 attacker vs an honest pool (per-miner gamma ties)",
     family_single_sm1},
    {"single-optimal",
     "one MDP-strategy attacker (Algorithm 1 policy) vs an honest pool; "
     "at delay=0 reproduces the analysis-predicted ERRev",
     family_single_optimal},
    {"sm1-delay-sweep",
     "SM1 attacker across propagation delays 0..5% of the block interval",
     family_sm1_delay_sweep},
    {"two-sm1", "two competing SM1 attackers vs an honest pool",
     family_two_sm1},
    {"hashrate-grid",
     "SM1 attacker over p in {0.10..0.45} — the profitability frontier",
     family_hashrate_grid},
    {"star",
     "SM1 attacker at the hub of a star topology of honest miners",
     family_star},
    {"gossip-delay",
     "SM1 attacker at the end of a line of honest miners, gossip "
     "(store-and-forward) propagation, per-hop delay swept 0..5% of the "
     "block interval",
     family_gossip_delay},
    {"partition-attack",
     "SM1 attacker vs an honest pool with a timed network split that "
     "isolates part of the honest power mid-run (heals before the end)",
     family_partition_attack},
    {"asymmetric-star",
     "SM1 attacker at the hub of an asymmetric star: honest miners "
     "announce slowly (asymmetry x delay up) but listen fast (delay down)",
     family_asymmetric_star},
};

}  // namespace

double Scenario::attacker_power() const {
  double attacker = 0.0;
  double total = 0.0;
  for (const MinerSpec& spec : miners) {
    total += spec.weight;
    if (spec.kind != MinerSpec::Kind::kHonest) attacker += spec.weight;
  }
  return total == 0.0 ? 0.0 : attacker / total;
}

std::vector<std::string> scenario_names() {
  std::vector<std::string> names;
  for (const Family& family : kFamilies) names.emplace_back(family.name);
  return names;
}

std::string scenario_help() {
  std::string out;
  for (const Family& family : kFamilies) {
    out += "  ";
    out += family.name;
    out += ": ";
    out += family.description;
    out += "\n";
  }
  return out;
}

std::vector<Scenario> make_scenarios(const std::string& name,
                                     const ScenarioOptions& options) {
  for (const Family& family : kFamilies) {
    if (name == family.name) return family.build(options);
  }
  throw support::InvalidArgument("unknown scenario: " + name +
                                 "\nknown scenarios:\n" + scenario_help());
}

std::vector<PreparedScenario> prepare_scenarios(
    const std::vector<Scenario>& scenarios, double epsilon,
    engine::Engine& engine) {
  // Collect every distinct "optimal" analysis across the grid into one
  // engine batch. The engine deduplicates and plans warm-start chains
  // itself, but deduplicating here too keeps the (scenario, miner) →
  // outcome bookkeeping simple.
  analysis::AnalysisOptions analysis_options;
  analysis_options.epsilon = epsilon;
  std::vector<engine::AnalysisJob> jobs;
  std::map<std::string, std::size_t> job_index;
  for (const Scenario& scenario : scenarios) {
    for (const MinerSpec& spec : scenario.miners) {
      if (spec.kind != MinerSpec::Kind::kStrategy) continue;
      if (spec.strategy != "optimal") continue;
      const std::string id = spec.attack.to_string();
      if (job_index.emplace(id, jobs.size()).second) {
        engine::AnalysisJob job;
        job.params = spec.attack;
        job.options = analysis_options;
        jobs.push_back(job);
      }
    }
  }
  const std::vector<engine::JobOutcome> outcomes =
      engine.run(jobs, /*keep_models=*/true);
  // One shared policy per outcome, like the models: every scenario (and
  // every identical attacker within one) aliases it instead of copying.
  std::vector<std::shared_ptr<const mdp::Policy>> shared_policies(
      outcomes.size());
  for (std::size_t j = 0; j < outcomes.size(); ++j) {
    shared_policies[j] =
        std::make_shared<const mdp::Policy>(outcomes[j].result.policy);
  }

  std::vector<PreparedScenario> prepared_grid;
  prepared_grid.reserve(scenarios.size());
  // Strategy-file analyses are not engine jobs (nothing to solve); they
  // are still deduplicated across the grid.
  std::map<std::string,
           std::pair<std::shared_ptr<const selfish::SelfishModel>,
                     std::shared_ptr<const mdp::Policy>>>
      file_cache;
  for (const Scenario& scenario : scenarios) {
    PreparedScenario prepared;
    prepared.scenario = scenario;
    prepared.models.assign(scenario.miners.size(), nullptr);
    prepared.policies.assign(scenario.miners.size(), nullptr);
    prepared.predicted_errev = std::numeric_limits<double>::quiet_NaN();

    for (std::size_t i = 0; i < scenario.miners.size(); ++i) {
      const MinerSpec& spec = scenario.miners[i];
      if (spec.kind != MinerSpec::Kind::kStrategy) continue;
      if (spec.strategy == "honest" || spec.strategy == "never-release") {
        continue;  // policy-free; the agent builds the strategy itself
      }
      if (spec.strategy == "optimal") {
        const std::size_t j = job_index.at(spec.attack.to_string());
        const engine::JobOutcome& outcome = outcomes[j];
        prepared.models[i] = outcome.model;
        prepared.policies[i] = shared_policies[j];
        if (std::isnan(prepared.predicted_errev)) {
          // analyze() already evaluated the exact ERRev of the policy.
          prepared.predicted_errev = outcome.result.errev_of_policy;
        }
        continue;
      }
      SM_REQUIRE(spec.strategy.rfind("file:", 0) == 0, "unknown strategy: ",
                 spec.strategy,
                 " (expected optimal | honest | never-release | "
                 "file:<path>)");
      const std::string key = spec.attack.to_string() + "|" + spec.strategy;
      auto it = file_cache.find(key);
      if (it == file_cache.end()) {
        auto model = std::make_shared<selfish::SelfishModel>(
            selfish::build_model(spec.attack));
        auto policy = std::make_shared<const mdp::Policy>(
            analysis::load_strategy_file(*model, spec.strategy.substr(5)));
        it = file_cache
                 .emplace(key, std::make_pair(std::move(model),
                                              std::move(policy)))
                 .first;
      }
      prepared.models[i] = it->second.first;
      prepared.policies[i] = it->second.second;
      if (std::isnan(prepared.predicted_errev)) {
        prepared.predicted_errev =
            analysis::exact_errev(*prepared.models[i], *prepared.policies[i]);
      }
    }
    prepared_grid.push_back(std::move(prepared));
  }
  return prepared_grid;
}

PreparedScenario prepare_scenario(const Scenario& scenario, double epsilon) {
  engine::Engine engine{engine::EngineOptions{}};
  return std::move(
      prepare_scenarios({scenario}, epsilon, engine).front());
}

NetworkResult run_scenario(const PreparedScenario& prepared,
                           std::uint64_t seed) {
  const Scenario& scenario = prepared.scenario;
  std::vector<MinerSetup> setups;
  setups.reserve(scenario.miners.size());
  for (std::size_t i = 0; i < scenario.miners.size(); ++i) {
    const MinerSpec& spec = scenario.miners[i];
    MinerSetup setup;
    setup.weight = spec.weight;
    switch (spec.kind) {
      case MinerSpec::Kind::kHonest:
        setup.agent = make_honest_miner(scenario.tie_policy, scenario.gamma);
        setup.honest = true;
        break;
      case MinerSpec::Kind::kSm1:
        setup.agent = make_sm1_miner(scenario.tie_policy, scenario.gamma);
        setup.honest = false;
        break;
      case MinerSpec::Kind::kStrategy: {
        StrategyMinerConfig config;
        config.params = spec.attack;
        config.strategy =
            spec.strategy.rfind("file:", 0) == 0 ? "optimal" : spec.strategy;
        config.tie_policy = scenario.tie_policy;
        config.gamma = scenario.gamma;
        setup.agent = make_strategy_miner(config, prepared.models[i],
                                          prepared.policies[i]);
        setup.honest = false;
        break;
      }
    }
    setups.push_back(std::move(setup));
  }

  NetworkConfig config;
  config.topology = scenario.topology;
  config.propagation = scenario.propagation;
  config.block_interval = scenario.block_interval;
  config.blocks = scenario.blocks;
  config.warmup_heights = scenario.warmup_heights;
  config.confirm_depth = scenario.confirm_depth;
  config.seed = seed;
  return run_network(config, std::move(setups));
}

}  // namespace net
