// Workload `analyze-cold`: what `selfish-mining analyze --threads=1` does,
// point by point — selfish::build_model → analysis::analyze →
// render_analysis_report(stats=true) — with no warm start and no cache.
//
// One batch is a point set, all at γ=0.5, l=4: d=2,f=3 at p≈0.2, d=4,f=1
// at p≈0.2 and d=3,f=2 at p≈0.06, about 1.5 s in all, so a run holds a
// score of batches. The seed draws kPointSets such sets, each p jittered
// by at most kJitter, and the batches cycle through them. The solver's
// iteration count jumps by up to 10% between neighbouring p, so a single
// set per seed would make the work itself differ from seed to seed; a
// cycle of sets gives every seed the same mix of work.
//
// Each point is timed on its own, on a quiet CPU, and corrected to nominal
// host speed (time_on_quiet_cpus); batch_s sums each point's median. The
// set-up (two golden warm-up analyses) runs again before every batch and
// is timed the same way. After the timed loop the d=3,f=2,p=0.3 point is
// analysed once, untimed, and gated against its golden ERRev 0.49616.
//
// A traced point splits `analyze` into the bisection
// (evaluate_exact_errev=false) and an explicit analysis::exact_errev call
// on the returned policy: the same work as the untraced point, timed in
// two spans under one root span per point.
#include <algorithm>
#include <cmath>
#include <string>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/errev.hpp"
#include "analysis/render.hpp"
#include "bench.hpp"
#include "selfish/build.hpp"
#include "support/rng.hpp"

namespace perfbench {

namespace {

constexpr double kEpsilon = 1e-3;
constexpr double kJitter = 0.005;
/// Odd, so the untraced (even) batches of a traced run visit every set.
constexpr std::size_t kPointSets = 5;
/// tests/test_golden_values.cpp pins d=3,f=2,l=4,γ=0.5,p=0.3 at 0.49616.
constexpr double kGoldenErrev = 0.49616;

double round4(double p) { return std::round(p * 1e4) / 1e4; }

using PointSet = std::vector<selfish::AttackParams>;

std::vector<PointSet> make_point_sets(std::uint64_t seed) {
  support::Rng rng(seed);
  const auto jitter = [&rng](double center) {
    return round4(center + (2.0 * rng.next_double() - 1.0) * kJitter);
  };
  std::vector<PointSet> sets;
  for (std::size_t k = 0; k < kPointSets; ++k) {
    sets.push_back({
        {.p = jitter(0.2), .gamma = 0.5, .d = 2, .f = 3, .l = 4},
        {.p = jitter(0.2), .gamma = 0.5, .d = 4, .f = 1, .l = 4},
        {.p = jitter(0.06), .gamma = 0.5, .d = 3, .f = 2, .l = 4},
    });
  }
  return sets;
}

analysis::AnalysisOptions cli_options() {
  analysis::AnalysisOptions options = pinned_analysis_options();
  options.epsilon = kEpsilon;
  return options;
}

/// The certified-bracket gate shared by every analysed point; true when
/// every check passed.
bool check_point(const selfish::AttackParams& params,
                 const analysis::AnalysisResult& result,
                 const std::string& report, Result& out) {
  const std::string at = " at " + params.to_string();
  bool ok = out.check(result.beta_hi - result.beta_lo < kEpsilon,
                      "bracket narrower than epsilon" + at);
  ok &= out.check(result.beta_hi >= params.p, "beta_hi >= p" + at);
  ok &= out.check(result.errev_of_policy >= result.beta_lo - kEpsilon &&
                      result.errev_of_policy <= result.beta_hi + kSolverSlack,
                  "strategy ERRev inside [beta_lo - eps, beta_hi]" + at);
  double lo = 0, hi = 0, errev = 0;
  ok &= out.check(parse_bracket(report, lo, hi, errev) &&
                      std::fabs(lo - result.beta_lo) < 1e-6 &&
                      std::fabs(hi - result.beta_hi) < 1e-6,
                  "rendered report carries the bracket" + at);
  return ok;
}

/// The set-up: warm-up analyses through the same path at the two d=2,f=2
/// points tests/test_golden_values.cpp pins, gated against those goldens.
/// Returns its timing, the gate excluded.
Timing set_up(const analysis::AnalysisOptions& options, Result& out) {
  struct WarmUp {
    double p, errev;
  };
  constexpr WarmUp kWarmUps[] = {{0.2, 0.25277}, {0.3, 0.43927}};
  std::vector<std::pair<selfish::AttackParams, analysis::AnalysisResult>>
      warmed;
  std::vector<std::string> reports;
  const Timing timing = time_on_quiet_cpus(1, [&] {
    for (const WarmUp& warm : kWarmUps) {
      const selfish::AttackParams params{
          .p = warm.p, .gamma = 0.5, .d = 2, .f = 2, .l = 4};
      const selfish::SelfishModel model = selfish::build_model(params);
      analysis::AnalysisResult analysed = analysis::analyze(model, options);
      reports.push_back(
          analysis::render_analysis_report(params, model, analysed, true));
      warmed.emplace_back(params, std::move(analysed));
    }
  });
  for (std::size_t i = 0; i < warmed.size(); ++i) {
    const auto& [params, analysed] = warmed[i];
    bool ok = check_point(params, analysed, reports[i], out);
    ok &= out.check(
        std::fabs(analysed.errev_of_policy - kWarmUps[i].errev) < kEpsilon,
        "warm-up within eps of its golden ERRev at " + params.to_string());
    out.attempted(1);
    if (!ok) out.failed(1);
  }
  return timing;
}

/// The golden gate, once per run and untimed: d=3,f=2,l=4,γ=0.5,p=0.3.
void check_golden(const analysis::AnalysisOptions& options, Result& out) {
  const selfish::AttackParams params{
      .p = 0.3, .gamma = 0.5, .d = 3, .f = 2, .l = 4};
  const selfish::SelfishModel model = selfish::build_model(params);
  const analysis::AnalysisResult analysed = analysis::analyze(model, options);
  bool ok = check_point(
      params, analysed,
      analysis::render_analysis_report(params, model, analysed, true), out);
  ok &= out.check(std::fabs(analysed.errev_of_policy - kGoldenErrev) < kEpsilon,
                  "d=3,f=2,p=0.3 within eps of golden 0.49616");
  out.attempted(1);
  if (!ok) out.failed(1);
}

/// Per-layer figures summed over the traced batches.
struct LayerSums {
  double build_s = 0, analyze_s = 0, errev_s = 0, render_s = 0;
  double search_steps = 0, solver_iterations = 0;
  double states = 0, transitions = 0;
  double bytes_streamed = 0;  ///< Σ model bytes/sweep × its sweeps.
  Counts counts;
};

}  // namespace

void run_analyze_cold(const Config& config, Tracer& tracer, Result& result) {
  const std::vector<PointSet> sets = make_point_sets(config.seed);
  const std::size_t n_points = sets.front().size();
  const analysis::AnalysisOptions options = cli_options();

  std::vector<double> setups, setups_nominal, untraced_batches, traced_batches;
  // Per point: untraced times at nominal host speed, and the wall times.
  std::vector<std::vector<double>> point_ms(n_points), point_wall_ms(n_points);
  std::vector<double> probe_us;
  std::vector<std::vector<double>> reference_errev(
      sets.size(), std::vector<double>(n_points, std::nan("")));
  LayerSums sums;
  const double started = now_s();
  double longest = 0.0;
  int batches = 0;
  while (another_batch(config, started, batches, longest)) {
    const double s0 = now_s();
    const Timing setup = set_up(options, result);
    setups.push_back(setup.wall_s);
    setups_nominal.push_back(setup.nominal_s);
    const std::size_t set = static_cast<std::size_t>(batches) % sets.size();
    const PointSet& points = sets[set];
    const bool traced = tracer.enabled() && batches % 2 == 1;
    Tracer off(false);
    Tracer& t = traced ? tracer : off;
    const Counts batch_before = read_counts();
    const double b0 = now_s();
    std::vector<int> roots;  // One root span per traced point.
    std::vector<std::string> reports;
    std::vector<analysis::AnalysisResult> results;
    for (const selfish::AttackParams& params : points) {
      const Timing timing = time_on_quiet_cpus(1, [&] {
        if (!traced) {
          const selfish::SelfishModel model = selfish::build_model(params);
          analysis::AnalysisResult analysed = analysis::analyze(model, options);
          reports.push_back(
              analysis::render_analysis_report(params, model, analysed, true));
          results.push_back(std::move(analysed));
        } else {
          // The root opens inside the timed section, so the probes around
          // it stay out of the ledger.
          Span root(t, "analyze-cold.point", "bench");
          roots.push_back(root.id());
          Span build(t, "build_model", "selfish", root.id());
          const selfish::SelfishModel model = selfish::build_model(params);
          build.close();

          analysis::AnalysisOptions split_options = options;
          split_options.evaluate_exact_errev = false;
          const Counts before = read_counts();
          Span analyze(t, "analyze", "analysis", root.id());
          analysis::AnalysisResult analysed =
              analysis::analyze(model, split_options);
          const Counts delta = read_counts().minus(before);
          analyze.split("mdp", delta.sweep_busy_s());
          analyze.close();

          Span errev(t, "exact_errev", "analysis", root.id());
          analysed.errev_of_policy =
              analysis::exact_errev(model, analysed.policy);
          errev.close();

          Span render(t, "render_analysis_report", "analysis", root.id());
          reports.push_back(
              analysis::render_analysis_report(params, model, analysed, true));
          render.close();

          const double sweeps = delta.get("selfish_mdp_sweeps_total");
          sums.bytes_streamed += delta.bytes_per_sweep * sweeps;
          sums.states += model.mdp.num_states();
          sums.transitions += static_cast<double>(model.mdp.num_transitions());
          results.push_back(std::move(analysed));
        }
      });
      probe_us.push_back(timing.probe_s * 1e6);
      if (!traced) {
        point_ms[results.size() - 1].push_back(timing.nominal_s * 1e3);
        point_wall_ms[results.size() - 1].push_back(timing.wall_s * 1e3);
      }
    }
    const double wall = now_s() - b0;
    (traced ? traced_batches : untraced_batches).push_back(wall);
    longest = std::max(longest, now_s() - s0);
    ++batches;

    // Correctness gate, outside the timed batch.
    result.attempted(points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      bool ok = check_point(points[i], results[i], reports[i], result);
      double& reference = reference_errev[set][i];
      if (std::isnan(reference)) {
        reference = results[i].errev_of_policy;
      } else {
        ok &= result.check(results[i].errev_of_policy == reference,
                           "every batch reproduces the strategy ERRev at " +
                               points[i].to_string());
      }
      if (!ok) result.failed(1);
    }
    if (traced) {
      for (const SpanRecord& span : tracer.spans()) {
        if (std::find(roots.begin(), roots.end(), span.parent) ==
            roots.end()) {
          continue;
        }
        const double dur = span.end - span.start;
        if (span.name == "build_model") sums.build_s += dur;
        if (span.name == "analyze") sums.analyze_s += dur;
        if (span.name == "exact_errev") sums.errev_s += dur;
        if (span.name == "render_analysis_report") sums.render_s += dur;
      }
      for (const analysis::AnalysisResult& analysed : results) {
        sums.search_steps += analysed.search_iterations;
        sums.solver_iterations += static_cast<double>(analysed.solver_iterations);
      }
      sums.counts.add(read_counts().minus(batch_before));
    }
  }

  check_golden(options, result);

  note_batches(result, setups, untraced_batches, traced_batches);
  for (std::size_t i = 0; i < n_points; ++i) {
    note_samples(result, "point" + std::to_string(i) + "_ms", point_ms[i]);
    note_samples(result, "point" + std::to_string(i) + "_wall_ms",
                 point_wall_ms[i]);
  }
  result.note("points", serve::Json(static_cast<double>(n_points)));
  // The point set's time: each point's median over the untraced batches,
  // summed.
  double analyze_s = 0.0, wall_s = 0.0;
  for (std::size_t i = 0; i < n_points; ++i) {
    analyze_s += median(point_ms[i]) / 1e3;
    wall_s += median(point_wall_ms[i]) / 1e3;
  }
  report_host(result, {wall_s}, probe_us, setups, setups_nominal);
  if (!tracer.enabled()) {
    result.metric("batch_s", analyze_s, "s");
    result.note("analyze_s", serve::Json(analyze_s));
    return;
  }

  const double n = static_cast<double>(traced_batches.size());
  report_registry_layers(sums.counts, result);
  // Per-batch figures: sums over the traced batches / their number.
  const double sweeps = sums.counts.get("selfish_mdp_sweeps_total");
  const double busy = sums.counts.sweep_busy_s();
  result.metric("mdp.solves", sums.counts.get("selfish_mdp_solves_total") / n,
                "count");
  result.metric("mdp.sweeps", sweeps / n, "count");
  result.metric("mdp.sweep_busy_s", busy / n, "s");
  if (sweeps > 0 && busy > 0) {
    result.metric("mdp.bytes_per_sweep", sums.bytes_streamed / sweeps, "bytes");
    result.metric("mdp.achieved_gbps", sums.bytes_streamed / busy / 1e9,
                  "GB/s");
  }
  result.metric("selfish.build_s", sums.build_s / n, "s");
  result.metric("selfish.states", sums.states / n, "count");
  result.metric("selfish.transitions", sums.transitions / n, "count");
  result.metric("analysis.analyze_s", sums.analyze_s / n, "s");
  result.metric("analysis.overhead_s", (sums.analyze_s - busy) / n, "s");
  result.metric("analysis.search_steps", sums.search_steps / n, "count");
  result.metric("analysis.solver_iterations", sums.solver_iterations / n,
                "count");
  result.metric("analysis.exact_errev_s", sums.errev_s / n, "s");
  result.metric("analysis.render_s", sums.render_s / n, "s");
  result.metric("bench.batches", n, "count");
  result.metric("bench.trace_overhead_pct",
                (median(traced_batches) / median(untraced_batches) - 1.0) *
                    100.0,
                "%");
}

}  // namespace perfbench
