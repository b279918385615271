#include "sim/simulator.hpp"

#include "chain/mining.hpp"
#include "sim/fork_window.hpp"
#include "support/check.hpp"
#include "support/rng.hpp"

namespace sim {

namespace {

constexpr chain::NodeId kAttacker = 0;
constexpr chain::NodeId kHonestNetwork = 1;

}  // namespace

SimulationResult simulate(const selfish::AttackParams& params,
                          Strategy& strategy,
                          const SimulationOptions& options) {
  params.validate();
  SM_REQUIRE(options.steps > options.warmup_steps,
             "need more steps than warmup");
  support::Rng rng(options.seed);
  const chain::MiningModel mining(params.p);
  chain::BlockArena arena;
  ForkWindow window(params);
  // Pre-seed d honest blocks so a block exists at every depth <= d from
  // the first step (the abstract model assumes an infinitely deep chain;
  // these blocks predate the warmup window and are never counted).
  for (int i = 0; i < params.d; ++i) {
    window.extend(arena.add(window.tip(), kHonestNetwork));
  }
  SimulationResult result;

  // Height below which revenue is not counted (fixed after warmup).
  std::uint64_t accounting_floor = 0;

  // Public blocks deeper than d are final: the highest final height.
  const auto final_top = [&]() -> std::uint64_t {
    return window.height() > static_cast<std::uint32_t>(params.d)
               ? window.height() - params.d
               : 0;
  };
  const auto owner_at = [&](std::uint64_t height) {
    return arena.get(window.public_chain()[height]).miner == kAttacker
               ? chain::Owner::kAdversary
               : chain::Owner::kHonest;
  };
  // Snapshot the final segment's revenue above `floor` as of "now".
  const auto stable_count = [&](std::uint64_t floor) {
    chain::OwnershipCount count;
    for (std::uint64_t h = floor + 1; h <= final_top(); ++h) {
      if (owner_at(h) == chain::Owner::kAdversary) {
        ++count.adversary;
      } else {
        ++count.honest;
      }
    }
    return count;
  };

  for (std::uint64_t step = 0; step < options.steps; ++step) {
    if (step == options.warmup_steps) {
      // Everything at depth > d is final; start counting above it.
      accounting_floor = final_top();
    }
    if (options.trace_interval != 0 && step > options.warmup_steps &&
        (step - options.warmup_steps) % options.trace_interval == 0) {
      const chain::OwnershipCount count = stable_count(accounting_floor);
      result.trace.push_back(
          TracePoint{step, count.relative_revenue(), count.total()});
    }

    const auto outcome = mining.sample_step(rng, window.lanes());
    selfish::StepType type;
    chain::BlockId pending = chain::kGenesis;  // the honest block, if found
    if (outcome.adversary_won) {
      ++result.adversary_blocks_mined;
      if (!window.grow(outcome.target, kAttacker, arena)) {
        ++result.adversary_blocks_wasted;
      }
      type = selfish::StepType::kAdversaryFound;
    } else {
      ++result.honest_blocks_mined;
      pending = arena.add(window.tip(), kHonestNetwork);
      type = selfish::StepType::kHonestFound;
    }

    const selfish::Action action =
        strategy.decide(window.view(type, kAttacker, arena));
    if (action.kind == selfish::Action::Kind::kMine) {
      if (type == selfish::StepType::kHonestFound) window.extend(pending);
      continue;
    }

    // A release: decide acceptance exactly as the network would. An
    // accepted release orphans the pending block.
    const int i = action.depth;
    const int k = action.length;
    ++result.releases;
    if (type == selfish::StepType::kAdversaryFound) {
      window.release(i, action.slot, k);
    } else if (k >= i + 1) {
      ++result.overrides;
      window.release(i, action.slot, k);
    } else {
      SM_REQUIRE(k == i, "release shorter than the public chain");
      if (rng.bernoulli(params.gamma)) {
        ++result.races_won;
        window.release(i, action.slot, k);
      } else {
        ++result.races_lost;
        if (params.burn_lost_races) window.discard(i, action.slot);
        window.extend(pending);
      }
    }
  }

  // Count revenue over the final public chain, excluding the warmup
  // prefix and the still-contested top d blocks.
  for (std::uint64_t h = accounting_floor + 1; h <= final_top(); ++h) {
    result.final_owners.push_back(owner_at(h));
  }
  result.revenue = stable_count(accounting_floor);
  result.errev = result.revenue.relative_revenue();
  return result;
}

}  // namespace sim
