// The built-in generalized job kinds (see engine/generic.hpp).
//
// Retires the "Algorithm 1 only" limitation of the experiment engine:
// every composite analysis the CLI offers — a point analysis, a p-sweep, a
// fairness-threshold search, an upper-bound series, a network scenario
// batch — is a deterministic function of its options, so each gets a typed
// query struct, a canonical job identity, and an executor that computes
// the rendered artifact. The artifacts are exactly the direct CLI outputs
// (shared renderers), which is what lets the serving layer promise
// byte-identical responses.
//
//   kind          artifact                        solves
//   point         `analyze` report                one cold solve
//   sweep         `sweep` CSV                     one engine job per p
//   threshold     `threshold` report              one sign solve per probe
//   upper-bound   `upper-bound` report            per-l cold solves
//   net-batch     `network --csv` CSV             engine jobs per attacker
//
// A sweep or net-batch executor nests a full engine::Engine run on the
// same cache directory, so the composite artifact *and* its per-point
// solves are persisted — a later narrower or wider query resumes from the
// point entries even when the composite key misses.
//
// Each kind's options are declared once, by a visit_fields overload: the
// option's name, type and help line, bound to the query member whose
// initializer is its only default. Every front end is a FieldVisitor over
// those declarations — the CLI subcommands' support::Options pass
// (declare_options / read_options), the protocol's JSON reader and
// `query`'s forwarder — so an option reads the same way everywhere and an
// empty request equals the subcommand's default invocation by
// construction.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <variant>

#include "analysis/algorithm1.hpp"
#include "analysis/threshold.hpp"
#include "analysis/upper_bound.hpp"
#include "engine/generic.hpp"
#include "net/scenario.hpp"
#include "selfish/params.hpp"
#include "support/options.hpp"

namespace engine {

/// One Algorithm 1 evaluation rendered as the `analyze` report.
struct PointQuery {
  selfish::AttackParams params;
  analysis::AnalysisOptions analysis;
  bool stats = true;  ///< Append the strategy's structural statistics.
};

/// A p-grid sweep rendered as the `sweep` CSV.
struct SweepQuery {
  selfish::AttackParams base;  ///< p is not a field: the grid provides it.
  analysis::AnalysisOptions analysis;
  double p_min = 0.0;
  double p_max = 0.3;
  double step = 0.05;
};

/// A fairness-threshold bisection rendered as the `threshold` report.
struct ThresholdQuery {
  selfish::AttackParams base;  ///< p is not a field: the search probes it.
  analysis::ThresholdOptions options;
};

/// An upper-bound series over fork caps rendered as the `upper-bound`
/// report.
struct UpperBoundQuery {
  selfish::AttackParams base;  ///< l is not a field: the series scans it.
  analysis::UpperBoundOptions options;
};

/// A network scenario batch rendered as the `network --csv` CSV.
struct NetBatchQuery {
  std::string scenario = "single-optimal";
  net::ScenarioOptions options;
  int runs = 8;
  std::uint64_t seed = 24141;
  double epsilon = 1e-3;  ///< Algorithm 1 precision for "optimal" agents.

  /// Throws support::InvalidArgument, with a plain message naming the
  /// field, on a run count, block count, ε or scenario option out of
  /// range; `network` and make_net_batch_job call it before any model is
  /// built. Every family is held to the same ranges, whether it reads the
  /// option or not.
  void validate() const;
};

/// Job builders: validate the query (throwing support::InvalidArgument on
/// out-of-range parameters or an unknown scenario) and derive the
/// canonical identity. The returned job carries the typed query for its
/// executor.
GenericJob make_point_job(const PointQuery& query);
GenericJob make_sweep_job(const SweepQuery& query);
GenericJob make_threshold_job(const ThresholdQuery& query);
GenericJob make_upper_bound_job(const UpperBoundQuery& query);
GenericJob make_net_batch_job(const NetBatchQuery& query);

/// The registry with every built-in kind registered (shared immutable
/// instance; first call constructs it).
const ExecutorRegistry& builtin_executors();

// ---------------------------------------------------------------- schema

/// A query member bound to a schema field. The member's C++ type is the
/// field's type on every front end: number (double), integer (int), count
/// (std::uint64_t, see checked_count), flag (bool) or text (std::string).
using Field = std::variant<double*, int*, std::uint64_t*, bool*, std::string*>;

/// std::visit over a Field with one lambda per type.
template <typename... Cases>
struct FieldCases : Cases... {
  using Cases::operator()...;
};

/// Receives each field of a query: a visitor reads the member (to declare
/// or forward its value) or writes it (to parse a value into it).
class FieldVisitor {
 public:
  virtual void field(const char* name, Field member, const char* help) = 0;
  /// Called after a kind's last field, before its job is validated.
  virtual void done() {}
};

/// The count type's range check, shared by every front end: `value` must
/// be whole and in [0, 2^53], the integers a JSON number holds exactly.
/// Throws support::InvalidArgument naming the field otherwise.
std::uint64_t checked_count(const std::string& name, double value);

/// The shared groups (model parameters; ε and the solver) and the five
/// kinds. `solver` and `propagation` are text fields converted to their
/// enums around the visit. A kind declares only the fields it reads.
void visit_fields(FieldVisitor& visitor, selfish::AttackParams& params);
void visit_fields(FieldVisitor& visitor, analysis::AnalysisOptions& options);
void visit_fields(FieldVisitor& visitor, PointQuery& query);
void visit_fields(FieldVisitor& visitor, SweepQuery& query);
void visit_fields(FieldVisitor& visitor, ThresholdQuery& query);
void visit_fields(FieldVisitor& visitor, UpperBoundQuery& query);
void visit_fields(FieldVisitor& visitor, NetBatchQuery& query);

/// One built-in kind, type-erased for the front ends that pick the kind
/// at run time (the protocol and `query`).
struct JobKind {
  const char* name;
  /// Visits a default-constructed query through `visitor`, calls
  /// visitor.done(), and returns the job make_*_job builds from the query
  /// as the visitor left it.
  GenericJob (*visit)(FieldVisitor& visitor);
  /// The kind's executor (builtin_executors() registers it).
  GenericResult (*run)(const GenericJob& job, const ExecContext& ctx);
};

/// Every built-in kind, in the order the protocol lists them.
std::span<const JobKind> job_kinds();

/// The built-in kind called `name`; null when there is none.
const JobKind* find_job_kind(std::string_view name);

/// The schema's support::Options front end (CLI subcommands, benches,
/// tests), in two passes over the same fields: the declaring pass makes
/// each field an option whose default is the member's current value, the
/// reading pass writes the parsed options back into the members.
class OptionFields final : public FieldVisitor {
 public:
  static OptionFields declaring(support::Options& options) {
    return OptionFields(&options, options);
  }
  static OptionFields reading(const support::Options& options) {
    return OptionFields(nullptr, options);
  }
  void field(const char* name, Field member, const char* help) override;

 private:
  OptionFields(support::Options* declaring, const support::Options& options)
      : declaring_(declaring), options_(options) {}

  support::Options* declaring_;  ///< Null in the reading pass.
  const support::Options& options_;
};

/// Declares the fields of `fields` (a query or a shared group), with its
/// current values as the defaults.
template <typename Fields>
void declare_options(support::Options& options, Fields fields) {
  OptionFields declare = OptionFields::declaring(options);
  visit_fields(declare, fields);
}

/// Reads the fields of `fields` from parsed options.
template <typename Fields>
void read_options(const support::Options& options, Fields& fields) {
  OptionFields read = OptionFields::reading(options);
  visit_fields(read, fields);
}

}  // namespace engine
