// Agent implementations: longest-chain honest miner, the classic SM1
// (Eyal–Sirer) selfish miner, and the MDP-strategy attacker, which drives
// sim::simulate's concrete protocol world (sim::ForkWindow) with network
// events.
#include <algorithm>
#include <utility>
#include <vector>

#include "net/mdp_miner.hpp"
#include "net/miner.hpp"
#include "selfish/actions.hpp"
#include "sim/fork_window.hpp"
#include "sim/strategies.hpp"
#include "support/check.hpp"

namespace net {

namespace {

/// True when `ancestor` lies on the path from `block` to genesis.
bool descends_from(const BlockArena& arena, BlockId block, BlockId ancestor) {
  const std::uint32_t target = arena.height(ancestor);
  if (arena.height(block) < target) return false;
  return arena.ancestor_at(block, target) == ancestor;
}

// ----------------------------------------------------------------- honest

class HonestMiner final : public Miner {
 public:
  HonestMiner(TiePolicy policy, double gamma)
      : policy_(policy), gamma_(gamma) {}

  void on_mined(std::uint32_t /*lane*/, MinerContext& ctx) override {
    tip_ = ctx.arena.add(tip_, id());
    ctx.outbox.push_back(tip_);
  }

  void on_block(BlockId block, MinerContext& ctx) override {
    const std::uint32_t h = ctx.arena.height(block);
    const std::uint32_t mine = ctx.arena.height(tip_);
    if (h > mine) {
      tip_ = block;
      return;
    }
    if (h != mine || block == tip_) return;
    switch (policy_) {
      case TiePolicy::kFirstSeen:
        break;
      case TiePolicy::kGammaShared:
        // The releasing attacker pinned the race outcome on the block;
        // applies to ties at any fork depth (the MDP model's deep tie
        // releases included).
        if (ctx.arena.get(block).wins_tie) tip_ = block;
        break;
      case TiePolicy::kGammaPerMiner:
        // The classical Eyal–Sirer race is tip-vs-tip: two siblings
        // competing for the same parent. Deeper equal-length forks (e.g.
        // an SM1 attacker's published prefix during a retreat) follow
        // first-seen — gamma models who wins the one-block propagation
        // race, not a willingness to reorganize history.
        if (ctx.arena.get(block).parent == ctx.arena.get(tip_).parent &&
            ctx.rng.bernoulli(gamma_)) {
          tip_ = block;
        }
        break;
    }
  }

  BlockId tip() const override { return tip_; }

 private:
  TiePolicy policy_;
  double gamma_;
  BlockId tip_ = kGenesis;
};

// -------------------------------------------------------------------- SM1

/// Eyal–Sirer selfish mining: one private chain, lead-based publishing.
/// All foreign blocks count as the "honest" rival chain, which makes the
/// agent well-defined in multi-attacker scenarios too.
class Sm1Miner final : public Miner {
 public:
  Sm1Miner(TiePolicy policy, double gamma) : policy_(policy), gamma_(gamma) {}

  void on_mined(std::uint32_t /*lane*/, MinerContext& ctx) override {
    const BlockId mined = ctx.arena.add(private_tip(), id());
    private_.push_back(mined);
    if (racing_) {
      // We extended our fully published tie branch: publishing makes it
      // strictly longer, so the whole network adopts it.
      publish_up_to(private_.size(), ctx);
      reset_onto_private_tip(ctx.arena);
    }
    // Otherwise withhold (classic SM1 never publishes on its own find).
  }

  void on_block(BlockId block, MinerContext& ctx) override {
    // The network built on our published blocks?
    if (published_ > 0 &&
        descends_from(ctx.arena, block, private_[published_ - 1])) {
      if (descends_from(ctx.arena, block, private_.back())) {
        // It extends our full branch: our blocks won — adopt wholesale.
        adopt(ctx.arena, block);
        return;
      }
      // It extends the published prefix but forks off our withheld
      // suffix. The prefix is canonical on every branch now, so re-root
      // the attack there and treat the block as ordinary rival growth
      // (below) — abandoning the withheld lead here would throw away a
      // winning branch.
      fork_root_ = private_[published_ - 1];
      private_.erase(private_.begin(),
                     private_.begin() +
                         static_cast<std::ptrdiff_t>(published_));
      published_ = 0;
      public_tip_ = fork_root_;
      public_height_ = ctx.arena.height(fork_root_);
      racing_ = false;
    }
    const std::uint32_t h = ctx.arena.height(block);
    if (h <= public_height_) return;  // stale or tying rival: first-seen
    const int lead_prev = static_cast<int>(private_height(ctx.arena)) -
                          static_cast<int>(public_height_);
    public_tip_ = block;
    public_height_ = h;
    racing_ = false;
    if (private_.empty() || lead_prev <= 0) {
      adopt(ctx.arena, block);  // we lost (or never forked): give up
      return;
    }
    if (lead_prev == 1) {
      // Lead shrank to 0: publish everything and race the rival head-on.
      const bool shared_coin = policy_ == TiePolicy::kGammaShared;
      const bool win = shared_coin && ctx.rng.bernoulli(gamma_);
      publish_up_to(private_.size(), ctx, /*tie_wins=*/win);
      if (win) {
        reset_onto_private_tip(ctx.arena);  // the network switched to us
      } else {
        racing_ = true;  // resolved by whoever mines next
      }
      return;
    }
    if (lead_prev == 2) {
      // Publishing the whole branch beats the rival by one: all adopt.
      publish_up_to(private_.size(), ctx);
      reset_onto_private_tip(ctx.arena);
      return;
    }
    // Comfortable lead: reveal just the first unpublished block.
    publish_up_to(published_ + 1, ctx);
  }

  BlockId tip() const override {
    return private_.empty() ? public_tip_ : private_.back();
  }

 private:
  BlockId private_tip() const {
    return private_.empty() ? fork_root_ : private_.back();
  }

  std::uint32_t private_height(const BlockArena& arena) const {
    return arena.height(private_tip());
  }

  /// Broadcasts private_[published_ .. upto); marks the last published
  /// block's tie flag when this publish creates a shared-coin tie race.
  void publish_up_to(std::size_t upto, MinerContext& ctx,
                     bool tie_wins = false) {
    SM_ENSURE(upto <= private_.size(), "publishing more than we mined");
    for (std::size_t i = published_; i < upto; ++i) {
      ctx.outbox.push_back(private_[i]);
    }
    if (tie_wins && upto > published_) {
      ctx.arena.set_wins_tie(private_[upto - 1], true);
    }
    published_ = std::max(published_, upto);
  }

  /// Our published branch became canonical: continue from its tip.
  void reset_onto_private_tip(const BlockArena& arena) {
    SM_ENSURE(!private_.empty(), "no private branch to reset onto");
    fork_root_ = private_.back();
    public_tip_ = fork_root_;
    public_height_ = arena.height(fork_root_);
    private_.clear();
    published_ = 0;
    racing_ = false;
  }

  /// The rival chain won: abandon the private branch and re-fork at `b`.
  void adopt(const BlockArena& arena, BlockId b) {
    fork_root_ = b;
    public_tip_ = b;
    public_height_ = arena.height(b);
    private_.clear();
    published_ = 0;
    racing_ = false;
  }

  TiePolicy policy_;
  double gamma_;
  BlockId fork_root_ = kGenesis;    ///< Common base of both chains.
  BlockId public_tip_ = kGenesis;   ///< Best rival tip seen.
  std::uint32_t public_height_ = 0;
  std::vector<BlockId> private_;    ///< Our blocks above fork_root_.
  std::size_t published_ = 0;       ///< Broadcast prefix of private_.
  bool racing_ = false;  ///< Fully published and tied with the rival.
};

// ----------------------------------------------------- MDP strategy replay

/// Replays a sim::Strategy over a sim::ForkWindow — the world sim::simulate
/// runs — driven by network events. The agent keeps only what is its own:
/// the tie policy, broadcasts and its waste count.
class MdpStrategyMiner final : public Miner {
 public:
  MdpStrategyMiner(const StrategyMinerConfig& config,
                   std::shared_ptr<const selfish::SelfishModel> model,
                   std::shared_ptr<const mdp::Policy> policy)
      : window_(config.params),
        tie_policy_(config.tie_policy),
        gamma_(config.gamma),
        model_(std::move(model)),
        policy_(std::move(policy)) {
    SM_REQUIRE(tie_policy_ != TiePolicy::kGammaPerMiner,
               "the MDP-strategy agent needs a tie outcome known at "
               "release time: use kGammaShared (or kFirstSeen for gamma=0)");
    if (config.strategy == "optimal") {
      SM_REQUIRE(model_ != nullptr && policy_ != nullptr,
                 "strategy 'optimal' needs a prepared model and policy");
      strategy_ = std::make_unique<sim::MdpPolicyStrategy>(*model_, *policy_);
    } else {
      strategy_ = sim::make_builtin_strategy(config.strategy);
    }
  }

  std::uint32_t lanes() const override { return window_.lanes(); }

  void on_mined(std::uint32_t lane, MinerContext& ctx) override {
    // A proof mined into a capped fork is thrown away.
    if (!window_.grow(lane, id(), ctx.arena)) ++wasted_;
    decide(selfish::StepType::kAdversaryFound, kGenesis, ctx);
  }

  void on_block(BlockId block, MinerContext& ctx) override {
    if (ctx.arena.get(block).parent == window_.tip()) {
      // The pending-honest decision point of the abstract model: a block
      // extending our public tip arrived and we may match or override it
      // before (from our point of view) incorporating it.
      decide(selfish::StepType::kHonestFound, block, ctx);
      return;
    }
    // A rival chain overtook our view (only possible with delays or
    // competing attackers). Equal or lower rival blocks: first-seen.
    if (ctx.arena.height(block) > window_.height()) {
      window_.adopt(block, ctx.arena);
    }
  }

  BlockId tip() const override { return window_.tip(); }

  std::uint64_t wasted_blocks() const override { return wasted_; }

 private:
  /// Consults the strategy at a decision point and executes its action.
  /// `pending` is the just-arrived honest block for kHonestFound (not yet
  /// part of the window's public chain).
  void decide(selfish::StepType type, BlockId pending, MinerContext& ctx) {
    const selfish::Action action =
        strategy_->decide(window_.view(type, id(), ctx.arena));
    if (action.kind == selfish::Action::Kind::kMine) {
      if (type == selfish::StepType::kHonestFound) window_.extend(pending);
      return;
    }
    const int i = action.depth;
    const int k = action.length;
    if (type == selfish::StepType::kAdversaryFound || k >= i + 1) {
      // No pending block, or an override strictly longer than the pending
      // block's chain: the network adopts unconditionally.
      publish(i, action.slot, k, ctx, /*tie_wins=*/false);
      return;
    }
    SM_REQUIRE(k == i, "release shorter than the public chain");
    // Tie race. The coin is sampled here (kGammaShared) or implicitly
    // always lost (kFirstSeen); the released blocks are broadcast either
    // way — the network has seen them, it just may not adopt them.
    if (tie_policy_ == TiePolicy::kGammaShared && ctx.rng.bernoulli(gamma_)) {
      publish(i, action.slot, k, ctx, /*tie_wins=*/true);
      return;
    }
    // Lost race: the fork survives intact one depth deeper (the paper's
    // non-burn fork-choice rule) and may be re-released longer later.
    for (const BlockId b : window_.prefix(i, action.slot, k)) {
      ctx.outbox.push_back(b);
    }
    window_.extend(pending);
  }

  /// Releases k blocks of the fork at (depth, slot) into the public chain
  /// and broadcasts them, pinning the tie coin on the new tip when the
  /// release won a shared-coin race.
  void publish(int depth, int slot, int k, MinerContext& ctx, bool tie_wins) {
    window_.release(depth, slot, k);
    const std::vector<BlockId>& chain = window_.public_chain();
    if (tie_wins) ctx.arena.set_wins_tie(chain.back(), true);
    ctx.outbox.insert(ctx.outbox.end(), chain.end() - k, chain.end());
  }

  sim::ForkWindow window_;
  TiePolicy tie_policy_;
  double gamma_;
  std::shared_ptr<const selfish::SelfishModel> model_;
  std::shared_ptr<const mdp::Policy> policy_;
  std::unique_ptr<sim::Strategy> strategy_;
  std::uint64_t wasted_ = 0;
};

}  // namespace

const char* to_string(TiePolicy policy) {
  switch (policy) {
    case TiePolicy::kFirstSeen: return "first-seen";
    case TiePolicy::kGammaShared: return "gamma-shared";
    case TiePolicy::kGammaPerMiner: return "gamma-per-miner";
  }
  return "?";
}

std::unique_ptr<Miner> make_honest_miner(TiePolicy policy, double gamma) {
  return std::make_unique<HonestMiner>(policy, gamma);
}

std::unique_ptr<Miner> make_sm1_miner(TiePolicy policy, double gamma) {
  return std::make_unique<Sm1Miner>(policy, gamma);
}

std::unique_ptr<Miner> make_strategy_miner(
    const StrategyMinerConfig& config,
    std::shared_ptr<const selfish::SelfishModel> model,
    std::shared_ptr<const mdp::Policy> policy) {
  return std::make_unique<MdpStrategyMiner>(config, std::move(model),
                                            std::move(policy));
}

}  // namespace net
