// Content-addressed experiment jobs.
//
// Every solve the experiment engine runs is described by a canonical,
// human-readable key string that pins *all* inputs the result depends on:
// the attack parameters (p included), the full solver configuration, and
// a code-version salt (bumped whenever model-construction or solver
// semantics change in a result-affecting way) — and nothing else. Every
// job is solved cold, so a sweep point, a cold `analyze` and a served
// `point` of the same parameters are one computation, and a cache hit is
// an exact promise: the stored result is bit-identical to what
// recomputation would produce.
#pragma once

#include <cstdint>
#include <string>

#include "analysis/algorithm1.hpp"
#include "selfish/params.hpp"

namespace engine {

/// Bumped whenever a change anywhere in the model builder, Algorithm 1, or
/// the mean-payoff solvers can alter computed results: stale store entries
/// from older code then miss instead of serving wrong numbers.
/// v2: policies are captured during the final certified sweep (greedy
/// w.r.t. that sweep's input vector) instead of by an extra extraction
/// sweep — boundary states can pick a different ε-optimal action, so
/// errev_of_policy may shift within the ε band.
/// v3: the Gauss–Seidel solver grew a second certified iterate path
/// (red-black colored sweeps) and job keys a `sweep=` token, so every
/// pre-v3 entry misses. That path and the token are gone again; no
/// result changed, so the salt stays at 3 and only the key text differs
/// (entries written with a `sweep=` token simply miss).
/// v4: grid points are no longer warm-started from their left neighbour,
/// so a sweep point's errev_of_policy and solver_iterations may differ
/// from its v3 entry (the bracket does not), and keys lost their
/// warm-start lineage token. Threshold keys later lost `eps=`, `exact=`
/// and `pmax=`, so old threshold entries miss without a salt bump.
/// v5: each bisection step stops once its gain sign is certified, a tie
/// ends the search with a certified bracket, and the strategy is the
/// policy of the step that certified β_lo instead of a final solve's. So
/// policies, errev_of_policy and solver_iterations move; brackets move
/// only where a step used to take its sign from an uncertified midpoint.
/// v6: each sweep advances two MDP steps on the mining-step operator, with
/// no lazy transform, and the stationary solve iterates P². Sweep counts,
/// tie brackets and the last digits of errev_of_policy move, and keys lost
/// their `solver=` and `tau=` tokens.
/// v7: a stationary solve still unconverged after 256 iterations of μP²
/// averages μ with μP² instead of stepping by a period stride, so
/// errev_of_policy moves in its last bits where a solve runs that long
/// (1.4e-12 at d=4,f=1,p=0.55,γ=1), and no solve refuses a long period.
/// Analysis entries also lost their copy of β_lo (frame magic SELRES03).
inline constexpr std::uint32_t kCodeVersionSalt = 7;

/// One Algorithm 1 evaluation: build the model for `params`, analyze with
/// `options`. This is the unit of work behind `analysis::sweep_p`, the
/// p-sweep benches, and `net::prepare_scenario`'s "optimal" attackers.
struct AnalysisJob {
  selfish::AttackParams params;
  analysis::AnalysisOptions options;
};

/// The canonical identity of a job. `canonical` is the full key text (kept
/// in store entries so a hash collision is detected, not trusted); `hash`
/// is FNV-1a over it and addresses the entry on disk.
struct JobKey {
  std::string canonical;
  std::uint64_t hash = 0;

  /// 16-char lowercase hex of `hash` — the on-disk entry name.
  std::string hex() const;

  /// Deterministic RNG stream id for stochastic job kinds: jobs draw from
  /// support::Rng::for_stream(seed(), ...) so outcomes are a pure function
  /// of the job identity, never of scheduling order.
  std::uint64_t seed() const { return hash; }
};

/// Exact decimal rendering of a double (round-trippable, locale-free) for
/// canonical key strings.
std::string canonical_double(double value);

/// The key of `job`: "analysis/v<salt>|<model params>|<solver options>".
JobKey analysis_job_key(const AnalysisJob& job);

/// One mean-payoff solve's slice of a job key: its tolerances.
std::string mean_payoff_solver_id(const mdp::SolveOptions& options);

/// The Algorithm 1 slice of a job key: ε, the mean-payoff solver and the
/// exact-ERRev flag. Shared by every job kind that runs Algorithm 1.
std::string solver_options_id(const analysis::AnalysisOptions& options);

/// Canonical rendering of the model parameters except the resource p
/// (the sweep and threshold kinds vary p within one job).
std::string model_id_without_p(const selfish::AttackParams& params);

}  // namespace engine
