// The scenario registry: named, parameterized network configurations.
//
// A scenario family ("single-optimal", "hashrate-grid", ...) expands into
// one or more concrete Scenario points; the batch runner fans each point
// across seeds. Scenarios are plain data (copyable, no live agents) so a
// grid can be prepared once and executed from many threads; the strategy
// analyses a scenario needs (Algorithm 1 for "optimal", or a strategy
// file via analysis/strategy_io) are resolved once per scenario by
// prepare_scenario and shared immutably across runs.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/mdp_miner.hpp"
#include "net/network.hpp"

namespace engine {
class Engine;
}

namespace net {

struct MinerSpec {
  enum class Kind : std::uint8_t { kHonest = 0, kSm1 = 1, kStrategy = 2 };

  Kind kind = Kind::kHonest;
  double weight = 1.0;  ///< Relative hashrate.

  // kStrategy only: the attack model the agent simulates and the strategy
  // it replays — "optimal" (Algorithm 1), "honest", "never-release", or
  // "file:<path>" for a strategy saved by `analyze --save-strategy`.
  selfish::AttackParams attack;
  std::string strategy = "optimal";
};

struct Scenario {
  std::string name;     ///< Registry family this point came from.
  std::string variant;  ///< Point label, e.g. "p=0.30 gamma=0.50 delay=0".
  std::vector<MinerSpec> miners;
  Topology topology;
  /// How blocks travel (direct origin-to-all vs. store-and-forward
  /// gossip). Deliberately *not* part of the variant label: a zero-delay
  /// gossip batch must render byte-identical CSV to its direct twin.
  PropagationMode propagation = PropagationMode::kDirect;
  TiePolicy tie_policy = TiePolicy::kGammaShared;
  double gamma = 0.5;
  double block_interval = 600.0;
  std::uint64_t blocks = 100'000;
  std::uint32_t warmup_heights = 200;
  int confirm_depth = 12;

  /// Combined relative hashrate of the non-honest miners.
  double attacker_power() const;
};

/// Knobs shared by the registry families; every family reads the subset
/// it understands.
struct ScenarioOptions {
  double p = 0.3;            ///< Attacker hashrate share.
  double gamma = 0.5;        ///< Tie-race parameter.
  double delay = 0.0;        ///< One-way propagation delay (seconds).
  double block_interval = 600.0;
  std::uint64_t blocks = 100'000;
  int honest_miners = 3;     ///< Honest nodes sharing the honest power.
  int d = 2, f = 1, l = 4;   ///< Attack model for "optimal" strategies.
  std::string strategy = "optimal";  ///< Strategy of kStrategy attackers.
  /// Propagation mode applied to every family (gossip-delay forces
  /// kGossip regardless — it has nothing to show under direct).
  PropagationMode propagation = PropagationMode::kDirect;
  /// partition-attack: the split window as fractions of the expected run
  /// duration (blocks x block_interval), and the fraction of the honest
  /// miners cut off from the attacker's side.
  double partition_start = 0.25;
  double partition_stop = 0.45;
  double partition_fraction = 0.5;
  /// asymmetric-star: honest up-spoke (announce) delay = asymmetry x
  /// delay, honest down-spoke (listen) delay = delay.
  double asymmetry = 4.0;
  // Algorithm 1 precision is not a scenario property: pass it to
  // prepare_scenario / BatchOptions::epsilon.
};

/// Names understood by make_scenarios, in registry order.
std::vector<std::string> scenario_names();

/// One line per registered family: name + what it models.
std::string scenario_help();

/// Expands the named family into concrete scenario points (sweeps expand
/// into several). Throws support::InvalidArgument on an unknown name.
std::vector<Scenario> make_scenarios(const std::string& name,
                                     const ScenarioOptions& options);

/// A scenario with its strategy analyses resolved. models/policies run
/// parallel to scenario.miners (null for non-strategy miners) and are
/// immutable — safe to share across batch threads.
struct PreparedScenario {
  Scenario scenario;
  std::vector<std::shared_ptr<const selfish::SelfishModel>> models;
  std::vector<std::shared_ptr<const mdp::Policy>> policies;
  /// Exact ERRev the analysis predicts for the first "optimal" attacker
  /// (NaN when no such attacker) — the reference the zero-delay network
  /// must reproduce.
  double predicted_errev;
};

PreparedScenario prepare_scenario(const Scenario& scenario,
                                  double epsilon = 1e-3);

/// Prepares a whole grid at once: every "optimal" Algorithm 1 analysis
/// across the grid is submitted to `engine` as one deduplicated batch
/// (parallel across warm-start chains, served from the engine's store
/// when cached). The prepared scenarios — including predicted_errev — are
/// identical for a given grid at any engine thread count, so batch output
/// stays bit-identical no matter how preparation was parallelized.
std::vector<PreparedScenario> prepare_scenarios(
    const std::vector<Scenario>& scenarios, double epsilon,
    engine::Engine& engine);

/// Instantiates fresh agents and executes one run. Thread-safe across
/// distinct calls on one PreparedScenario.
NetworkResult run_scenario(const PreparedScenario& prepared,
                           std::uint64_t seed);

}  // namespace net
