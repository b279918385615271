#include "engine/kinds.hpp"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <memory>
#include <sstream>
#include <utility>

#include "analysis/render.hpp"
#include "analysis/sweep.hpp"
#include "engine/engine.hpp"
#include "net/batch.hpp"
#include "net/network.hpp"
#include "selfish/build.hpp"
#include "support/check.hpp"

namespace engine {

namespace {

/// Model identity *without* the fork cap l (the upper-bound series varies
/// l within one job).
std::string model_id_without_p_l(const selfish::AttackParams& params) {
  std::string id = "gamma=" + canonical_double(params.gamma);
  id += "|d=" + std::to_string(params.d);
  id += "|f=" + std::to_string(params.f);
  id += "|burn=" + std::string(params.burn_lost_races ? "1" : "0");
  return id;
}

template <typename Query>
GenericJob make_job(std::string kind, std::string options, Query query) {
  GenericJob job;
  job.kind = std::move(kind);
  job.options = std::move(options);
  job.typed = std::make_shared<const Query>(std::move(query));
  return job;
}

template <typename Query>
const Query& typed(const GenericJob& job) {
  SM_ENSURE(job.typed != nullptr, "generic job ", job.kind,
            " lost its typed options");
  return *static_cast<const Query*>(job.typed.get());
}

// ------------------------------------------------------------- executors
//
// Every executor may fan out on ctx.threads: the Bellman kernel, the
// engine's per-job fan-out, and the batch runner are all pinned
// bit-identical at any thread count, so ctx affects wall-clock only.

GenericResult run_point(const GenericJob& job, const ExecContext& ctx) {
  const PointQuery& query = typed<PointQuery>(job);
  analysis::AnalysisOptions options = query.analysis;
  options.solver.threads = ctx.threads;
  const selfish::SelfishModel model = selfish::build_model(query.params);
  const analysis::AnalysisResult result = analysis::analyze(model, options);
  GenericResult out;
  out.payload =
      analysis::render_analysis_report(query.params, model, result,
                                       query.stats);
  return out;
}

GenericResult run_sweep(const GenericJob& job, const ExecContext& ctx) {
  const SweepQuery& query = typed<SweepQuery>(job);
  EngineOptions engine_options;
  engine_options.cache_dir = ctx.cache_dir;
  engine_options.threads = ctx.threads;
  Engine engine(engine_options);
  const analysis::SweepResult sweep = analysis::sweep_p(
      query.base,
      analysis::linspace_grid(query.p_min, query.p_max, query.step),
      query.analysis, engine);
  std::ostringstream csv;
  analysis::write_sweep_csv(sweep, csv);
  GenericResult out;
  out.payload = csv.str();
  return out;
}

GenericResult run_threshold(const GenericJob& job, const ExecContext& ctx) {
  const ThresholdQuery& query = typed<ThresholdQuery>(job);
  analysis::ThresholdOptions options = query.options;
  options.solver.threads = ctx.threads;
  const analysis::ThresholdResult result =
      analysis::fairness_threshold(query.base, options);
  GenericResult out;
  out.payload = analysis::render_threshold_report(query.options, result);
  return out;
}

GenericResult run_upper_bound(const GenericJob& job, const ExecContext& ctx) {
  const UpperBoundQuery& query = typed<UpperBoundQuery>(job);
  analysis::UpperBoundOptions options = query.options;
  options.analysis.solver.threads = ctx.threads;
  const analysis::UpperBoundResult result =
      analysis::bound_errev_in_l(query.base, options);
  GenericResult out;
  out.payload = analysis::render_upper_bound_report(query.options, result);
  return out;
}

GenericResult run_net_batch(const GenericJob& job, const ExecContext& ctx) {
  const NetBatchQuery& query = typed<NetBatchQuery>(job);
  net::BatchOptions batch_options;
  batch_options.runs_per_scenario = query.runs;
  batch_options.threads = ctx.threads;
  batch_options.base_seed = query.seed;
  batch_options.epsilon = query.epsilon;
  batch_options.cache_dir = ctx.cache_dir;
  const auto aggregates = net::run_batch(
      net::make_scenarios(query.scenario, query.options), batch_options);
  std::ostringstream csv;
  net::write_batch_csv(aggregates, csv);
  GenericResult out;
  out.payload = csv.str();
  return out;
}

template <typename Query, GenericJob (*make)(const Query&)>
GenericJob visit_query(FieldVisitor& visitor) {
  Query query;
  visit_fields(visitor, query);
  visitor.done();
  return make(query);
}

constexpr JobKind kJobKinds[] = {
    {"point", visit_query<PointQuery, make_point_job>, run_point},
    {"sweep", visit_query<SweepQuery, make_sweep_job>, run_sweep},
    {"threshold", visit_query<ThresholdQuery, make_threshold_job>,
     run_threshold},
    {"upper-bound", visit_query<UpperBoundQuery, make_upper_bound_job>,
     run_upper_bound},
    {"net-batch", visit_query<NetBatchQuery, make_net_batch_job>,
     run_net_batch},
};

}  // namespace

GenericJob make_point_job(const PointQuery& query) {
  query.params.validate();
  query.analysis.validate();
  std::string options = model_id_without_p(query.params);
  options += "|p=" + canonical_double(query.params.p);
  options += "|" + solver_options_id(query.analysis);
  options += "|stats=" + std::string(query.stats ? "1" : "0");
  return make_job("point", std::move(options), query);
}

GenericJob make_sweep_job(const SweepQuery& query) {
  query.base.validate();
  query.analysis.validate();
  // Refuses a grid the sweep could not run, as the CLI does.
  analysis::linspace_grid(query.p_min, query.p_max, query.step);
  std::string options = model_id_without_p(query.base);
  options += "|" + solver_options_id(query.analysis);
  options += "|pmin=" + canonical_double(query.p_min);
  options += "|pmax=" + canonical_double(query.p_max);
  options += "|pstep=" + canonical_double(query.step);
  return make_job("sweep", std::move(options), query);
}

GenericJob make_threshold_job(const ThresholdQuery& query) {
  query.base.validate();
  query.options.validate();
  std::string options = model_id_without_p(query.base);
  options += "|" + mean_payoff_solver_id(query.options.solver);
  options += "|margin=" + canonical_double(query.options.unfairness_margin);
  options += "|ptol=" + canonical_double(query.options.p_tolerance);
  return make_job("threshold", std::move(options), query);
}

GenericJob make_upper_bound_job(const UpperBoundQuery& query) {
  query.base.validate();
  query.options.validate();
  std::string options = model_id_without_p_l(query.base);
  options += "|p=" + canonical_double(query.base.p);
  options += "|" + solver_options_id(query.options.analysis);
  options += "|lmin=" + std::to_string(query.options.l_min);
  options += "|lmax=" + std::to_string(query.options.l_max);
  return make_job("upper-bound", std::move(options), query);
}

GenericJob make_net_batch_job(const NetBatchQuery& query) {
  const auto names = net::scenario_names();
  SM_REQUIRE(std::find(names.begin(), names.end(), query.scenario) !=
                 names.end(),
             "unknown scenario family ", query.scenario);
  SM_REQUIRE(query.runs > 0, "runs must be positive, got ", query.runs);
  SM_REQUIRE(query.options.blocks > 0, "blocks must be positive");
  analysis::AnalysisOptions analysis_options;
  analysis_options.epsilon = query.epsilon;
  analysis_options.validate();
  // "file:<path>" strategies are CLI-only: a file's *contents* are not
  // part of the canonical key (the artifact would silently go stale when
  // the file changes), and jobs reach this builder from the network
  // protocol — client-chosen strings must never open server-side paths.
  SM_REQUIRE(query.options.strategy == "optimal" ||
                 query.options.strategy == "honest" ||
                 query.options.strategy == "never-release",
             "net-batch strategy must be optimal | honest | never-release "
             "(strategy files are not content-addressable)");
  const net::ScenarioOptions& o = query.options;
  std::string options = "scenario=" + query.scenario;
  options += "|p=" + canonical_double(o.p);
  options += "|gamma=" + canonical_double(o.gamma);
  options += "|delay=" + canonical_double(o.delay);
  options += "|interval=" + canonical_double(o.block_interval);
  options += "|blocks=" + std::to_string(o.blocks);
  options += "|honest=" + std::to_string(o.honest_miners);
  options += "|d=" + std::to_string(o.d);
  options += "|f=" + std::to_string(o.f);
  options += "|l=" + std::to_string(o.l);
  options += "|strategy=" + o.strategy;
  options += "|prop=" + std::string(net::to_string(o.propagation));
  options += "|pstart=" + canonical_double(o.partition_start);
  options += "|pstop=" + canonical_double(o.partition_stop);
  options += "|pfrac=" + canonical_double(o.partition_fraction);
  options += "|asym=" + canonical_double(o.asymmetry);
  options += "|runs=" + std::to_string(query.runs);
  options += "|seed=" + std::to_string(query.seed);
  options += "|eps=" + canonical_double(query.epsilon);
  return make_job("net-batch", std::move(options), query);
}

const ExecutorRegistry& builtin_executors() {
  static const ExecutorRegistry registry = [] {
    ExecutorRegistry r;
    for (const JobKind& kind : kJobKinds) r.add(kind.name, kind.run);
    return r;
  }();
  return registry;
}

// ---------------------------------------------------------------- schema

std::uint64_t checked_count(const std::string& name, double value) {
  if (value != std::floor(value) || value < 0.0 ||
      value > 9.007199254740992e15) {
    throw support::InvalidArgument("field \"" + name +
                                   "\" must be a non-negative integer");
  }
  return static_cast<std::uint64_t>(value);
}

namespace {

/// The model fields of selfish::AttackParams or net::ScenarioOptions, but
/// `scanned`: the one ("p" or "l") a composite kind chooses itself.
template <typename Model>
void visit_model(FieldVisitor& visitor, Model& model,
                 std::string_view scanned = {}) {
  const auto field = [&](const char* name, auto* member, const char* help) {
    if (name != scanned) visitor.field(name, member, help);
  };
  field("p", &model.p, "adversary's relative resource in [0,1]");
  field("gamma", &model.gamma, "tie-race switching probability");
  field("d", &model.d, "attack depth");
  field("f", &model.f, "forks per public block");
  field("l", &model.l, "maximal private fork length");
  if constexpr (requires { model.burn_lost_races; }) {
    field("burn-lost-races", &model.burn_lost_races,
          "fork-choice variant: discard forks that lose tie races");
  }
}

void visit_epsilon(FieldVisitor& visitor, double& epsilon) {
  visitor.field("epsilon", &epsilon, "Algorithm 1 precision");
}

/// A member's value as option text: numbers in their shortest rendering
/// that reads back ("0.3", "600"), flags as true/false.
std::string option_text(Field member) {
  return std::visit(
      FieldCases{
          [](const double* value) {
            char text[32];
            const auto end = std::to_chars(text, text + sizeof(text), *value);
            return std::string(text, end.ptr);
          },
          [](const bool* value) -> std::string {
            return *value ? "true" : "false";
          },
          [](const std::string* value) { return *value; },
          [](const auto* value) { return std::to_string(*value); }},
      member);
}

}  // namespace

void visit_fields(FieldVisitor& visitor, selfish::AttackParams& params) {
  visit_model(visitor, params);
}

void visit_fields(FieldVisitor& visitor,
                  analysis::AnalysisOptions& options) {
  visit_epsilon(visitor, options.epsilon);
}

void visit_fields(FieldVisitor& visitor, PointQuery& query) {
  visit_fields(visitor, query.params);
  visit_fields(visitor, query.analysis);
  visitor.field("stats", &query.stats, "print aggregate strategy statistics");
}

void visit_fields(FieldVisitor& visitor, SweepQuery& query) {
  visit_model(visitor, query.base, "p");
  visit_fields(visitor, query.analysis);
  visitor.field("pmin", &query.p_min, "smallest resource");
  visitor.field("pmax", &query.p_max, "largest resource");
  visitor.field("step", &query.step, "resource grid step");
}

void visit_fields(FieldVisitor& visitor, ThresholdQuery& query) {
  visit_model(visitor, query.base, "p");
  visitor.field("margin", &query.options.unfairness_margin,
                "excess revenue that counts as unfair");
  visitor.field("ptol", &query.options.p_tolerance, "p bracket width");
}

void visit_fields(FieldVisitor& visitor, UpperBoundQuery& query) {
  visit_model(visitor, query.base, "l");
  visit_fields(visitor, query.options.analysis);
  visitor.field("lmin", &query.options.l_min, "smallest fork cap to analyze");
  visitor.field("lmax", &query.options.l_max, "largest fork cap to analyze");
}

void visit_fields(FieldVisitor& visitor, NetBatchQuery& query) {
  net::ScenarioOptions& o = query.options;
  visitor.field("scenario", &query.scenario,
                "scenario family to run (`network --help` lists them)");
  visit_model(visitor, o);
  visitor.field("delay", &o.delay, "one-way propagation delay (seconds)");
  visitor.field("interval", &o.block_interval, "mean block interval (seconds)");
  visitor.field("blocks", &o.blocks, "mining events per run");
  visitor.field("honest", &o.honest_miners,
                "honest miners sharing the honest power");
  visitor.field("strategy", &o.strategy,
                "strategy of kStrategy attackers: optimal | honest | "
                "never-release | file:<path> (file: on the CLI only)");
  std::string propagation = net::to_string(o.propagation);
  visitor.field("propagation", &propagation,
                "block propagation: direct (origin-to-all) | gossip "
                "(store-and-forward along topology links)");
  o.propagation = net::propagation_from_string(propagation);
  visitor.field("partition-start", &o.partition_start,
                "partition-attack: split start as a fraction of the "
                "expected run duration");
  visitor.field("partition-stop", &o.partition_stop,
                "partition-attack: heal time as a fraction of the "
                "expected run duration");
  visitor.field("partition-frac", &o.partition_fraction,
                "partition-attack: fraction of the honest miners "
                "isolated from the attacker's side");
  visitor.field("asymmetry", &o.asymmetry,
                "asymmetric-star: honest up-spoke delay multiplier "
                "(announce at asymmetry*delay, listen at delay)");
  visitor.field("runs", &query.runs, "seeds per scenario point");
  visitor.field("seed", &query.seed, "base seed of the batch");
  visit_epsilon(visitor, query.epsilon);
}

std::span<const JobKind> job_kinds() { return kJobKinds; }

const JobKind* find_job_kind(std::string_view name) {
  for (const JobKind& kind : kJobKinds) {
    if (name == kind.name) return &kind;
  }
  return nullptr;
}

void OptionFields::field(const char* name, Field member, const char* help) {
  if (declaring_ != nullptr) {
    declaring_->declare(name, option_text(member), help);
    return;
  }
  std::visit(
      FieldCases{
          [&](double* value) { *value = options_.get_double(name); },
          [&](int* value) { *value = options_.get_int(name); },
          [&](std::uint64_t* value) {
            *value = checked_count(name, options_.get_double(name));
          },
          [&](bool* value) { *value = options_.get_bool(name); },
          [&](std::string* value) { *value = options_.get_string(name); }},
      member);
}

}  // namespace engine
