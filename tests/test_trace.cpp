// Tier-1 tests for the tracing layer: trace-context propagation across
// the thread pool, the flight-recorder ring, the trace-dump admin kind,
// and the structured logger. The invariance suites live in test_obs.cpp;
// this file pins the request-tree mechanics.
#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/sweep.hpp"
#include "analysis/threshold.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "selfish/build.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/service.hpp"
#include "support/parallel.hpp"

namespace {

TEST(TraceIds, FormatAndParseRoundTrip) {
  EXPECT_EQ(obs::format_trace_id(0xdeadbeefu), "00000000deadbeef");
  EXPECT_EQ(obs::format_trace_id(1), "0000000000000001");
  EXPECT_EQ(obs::parse_trace_id("00000000deadbeef"), 0xdeadbeefu);
  EXPECT_EQ(obs::parse_trace_id("DEADBEEF"), 0xdeadbeefu);  // case-blind
  EXPECT_EQ(obs::parse_trace_id("a"), 0xau);  // short forms accepted
  // Malformed or reserved inputs map to 0 (the "no id" sentinel).
  EXPECT_EQ(obs::parse_trace_id(""), 0u);
  EXPECT_EQ(obs::parse_trace_id("0"), 0u);
  EXPECT_EQ(obs::parse_trace_id("xyz"), 0u);
  EXPECT_EQ(obs::parse_trace_id("00000000deadbeef0"), 0u);  // 17 digits
  EXPECT_EQ(obs::parse_trace_id("dead beef"), 0u);
}

/// Restores the runtime obs switch on scope exit (same pattern as
/// test_obs.cpp).
class EnabledGuard {
 public:
  explicit EnabledGuard(bool on) : before_(obs::enabled()) {
    obs::set_enabled(on);
  }
  ~EnabledGuard() { obs::set_enabled(before_); }

 private:
  bool before_;
};

TEST(TraceContext, NestsOnOneThread) {
  const EnabledGuard on(true);
  EXPECT_EQ(obs::current_context().trace_id, 0u);
  obs::Span root("outer");
  EXPECT_NE(root.trace_id(), 0u);
  EXPECT_EQ(obs::current_context().trace_id, root.trace_id());
  EXPECT_EQ(obs::current_context().span_id, root.span_id());
  {
    obs::Span child("inner");
    // Same trace, new span, and the child is now the thread's context.
    EXPECT_EQ(child.trace_id(), root.trace_id());
    EXPECT_NE(child.span_id(), root.span_id());
    EXPECT_EQ(obs::current_context().span_id, child.span_id());
  }
  EXPECT_EQ(obs::current_context().span_id, root.span_id());
}

TEST(TraceContext, PropagatesAcrossThreadPool) {
  const EnabledGuard on(true);
  constexpr std::size_t kTasks = 64;
  std::vector<std::uint64_t> trace_ids(kTasks);
  std::vector<std::uint64_t> parent_ids(kTasks);

  support::ThreadPool pool(4);
  obs::Span root("request.root");
  // Every pool job must observe the submitting thread's context: same
  // trace, parented at the root span — one tree, not 64 orphans.
  support::parallel_for(pool, kTasks, [&](std::size_t i) {
    const obs::TraceContext inherited = obs::current_context();
    obs::Span child("request.child");
    trace_ids[i] = child.trace_id();
    parent_ids[i] = inherited.span_id;
  });
  for (std::size_t i = 0; i < kTasks; ++i) {
    EXPECT_EQ(trace_ids[i], root.trace_id()) << "task " << i;
    EXPECT_EQ(parent_ids[i], root.span_id()) << "task " << i;
  }
}

TEST(FlightRing, WrapsKeepingTheNewestRecords) {
  const EnabledGuard on(true);
  obs::flight_reset();
  const std::size_t capacity = obs::flight_capacity();
  ASSERT_GT(capacity, 0u);

  // 2x capacity sequential writes: the ring must retain exactly the last
  // `capacity` of them, every record intact.
  for (std::size_t i = 0; i < 2 * capacity; ++i) {
    obs::FlightRecord record;
    std::snprintf(record.name, sizeof(record.name), "wrap-%zu", i);
    record.trace_id = 7;
    record.span_id = i + 1;
    record.start = static_cast<double>(i);
    record.dur = 1.0;
    obs::flight_record(record);
  }
  const std::vector<obs::FlightRecord> snapshot = obs::flight_snapshot();
  ASSERT_EQ(snapshot.size(), capacity);
  std::set<std::uint64_t> seen;
  for (const obs::FlightRecord& record : snapshot) {
    // span_id = i + 1, so the retained window is (capacity, 2*capacity].
    EXPECT_GT(record.span_id, capacity);
    EXPECT_LE(record.span_id, 2 * capacity);
    char expected[obs::FlightRecord::kNameBytes];
    std::snprintf(expected, sizeof(expected), "wrap-%llu",
                  static_cast<unsigned long long>(record.span_id - 1));
    EXPECT_STREQ(record.name, expected);
    seen.insert(record.span_id);
  }
  EXPECT_EQ(seen.size(), capacity);  // no duplicates, none lost
  obs::flight_reset();
}

TEST(FlightRing, NoTornRecordsUnderConcurrentWriters) {
  const EnabledGuard on(true);
  obs::flight_reset();
  const std::size_t capacity = obs::flight_capacity();
  constexpr std::size_t kWriters = 8;
  const std::size_t per_writer = capacity / 2;  // 4x capacity in total

  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (std::size_t w = 0; w < kWriters; ++w) {
    writers.emplace_back([w, per_writer] {
      for (std::size_t i = 0; i < per_writer; ++i) {
        obs::FlightRecord record;
        std::snprintf(record.name, sizeof(record.name), "writer-%zu", w);
        record.trace_id = w + 1;
        // Writer tag in the high bits: a torn record (one writer's name,
        // another's ids) becomes detectable.
        record.span_id = (static_cast<std::uint64_t>(w + 1) << 32) | i;
        record.start = static_cast<double>(i);
        obs::flight_record(record);
      }
    });
  }
  for (std::thread& writer : writers) writer.join();

  const std::vector<obs::FlightRecord> snapshot = obs::flight_snapshot();
  // Drops are legal under write collisions but every slot must hold one
  // complete record once the writers are done.
  ASSERT_EQ(snapshot.size(), capacity);
  for (const obs::FlightRecord& record : snapshot) {
    const std::uint64_t writer = record.span_id >> 32;
    ASSERT_GE(writer, 1u);
    ASSERT_LE(writer, kWriters);
    EXPECT_EQ(record.trace_id, writer);
    char expected[obs::FlightRecord::kNameBytes];
    std::snprintf(expected, sizeof(expected), "writer-%llu",
                  static_cast<unsigned long long>(writer - 1));
    EXPECT_STREQ(record.name, expected);
    EXPECT_LT(record.span_id & 0xffffffffu, per_writer);
  }
  obs::flight_reset();
}

TEST(KernelSpan, RecordsEachBisectionStepsBetaAndCertifiedSign) {
  // Each Algorithm 1 step is one mdp.value_iteration span carrying its β
  // and certified [gain_lo, gain_hi] next to states, iterations and
  // converged, so a trace shows which sign every step certified.
  const EnabledGuard on(true);
  obs::flight_reset();
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 1, .l = 4});
  const analysis::AnalysisResult result = analysis::analyze(model);

  double lo = 0.0, hi = 1.0;
  int steps = 0;
  for (const obs::FlightRecord& record : obs::flight_snapshot()) {
    if (std::strcmp(record.name, "mdp.value_iteration") != 0) continue;
    ASSERT_NE(record.attrs[0], '\0') << "attrs did not fit the record";
    const serve::Json attrs = serve::Json::parse(record.attrs);
    for (const char* key : {"states", "beta", "iterations", "converged",
                            "gain_lo", "gain_hi"}) {
      ASSERT_NE(attrs.find(key), nullptr) << key << " in " << record.attrs;
    }
    EXPECT_EQ(attrs.find("states")->as_number(), model.mdp.num_states());
    EXPECT_TRUE(attrs.find("converged")->as_bool());
    // Replay the bisection from the recorded signs alone.
    const double beta = attrs.find("beta")->as_number();
    EXPECT_EQ(beta, 0.5 * (lo + hi)) << "step " << steps;
    const double gain_lo = attrs.find("gain_lo")->as_number();
    const double gain_hi = attrs.find("gain_hi")->as_number();
    EXPECT_LE(gain_lo, gain_hi);
    ASSERT_TRUE(gain_lo > 0.0 || gain_hi < 0.0) << "step " << steps;
    (gain_lo > 0.0 ? lo : hi) = beta;
    ++steps;
  }
  EXPECT_EQ(steps, result.search_iterations);
  EXPECT_EQ(lo, result.beta_lo);
  EXPECT_EQ(hi, result.beta_hi);
  obs::flight_reset();
}

TEST(BuildSpan, RecordsTheModelSizes) {
  // selfish::build_model opens one selfish.build span carrying the
  // shape's states, actions and transitions, so a trace of `analyze`
  // shows the build next to the kernel's spans.
  const EnabledGuard on(true);
  obs::flight_reset();
  const auto model = selfish::build_model(
      selfish::AttackParams{.p = 0.3, .gamma = 0.5, .d = 2, .f = 2, .l = 4});
  int spans = 0;
  for (const obs::FlightRecord& record : obs::flight_snapshot()) {
    if (std::strcmp(record.name, "selfish.build") != 0) continue;
    ASSERT_NE(record.attrs[0], '\0') << "attrs did not fit the record";
    const serve::Json attrs = serve::Json::parse(record.attrs);
    for (const char* key : {"states", "actions", "transitions"}) {
      ASSERT_NE(attrs.find(key), nullptr) << key << " in " << record.attrs;
    }
    EXPECT_EQ(attrs.find("states")->as_number(), model.mdp.num_states());
    EXPECT_EQ(attrs.find("actions")->as_number(), model.mdp.num_actions());
    EXPECT_EQ(attrs.find("transitions")->as_number(),
              static_cast<double>(model.mdp.num_transitions()));
    ++spans;
  }
  EXPECT_EQ(spans, 1);
  obs::flight_reset();
}

/// The flight recorder's spans named `name`, with their attrs.
std::vector<serve::Json> spans_named(const char* name) {
  std::vector<serve::Json> found;
  for (const obs::FlightRecord& record : obs::flight_snapshot()) {
    if (std::strcmp(record.name, name) != 0) continue;
    EXPECT_NE(record.attrs[0], '\0') << "attrs did not fit the record";
    found.push_back(serve::Json::parse(record.attrs));
  }
  return found;
}

TEST(BuildSpan, ASweepBuildsItsShapeOnceAndRendersEachPoint) {
  // The five points share one shape: one selfish.build span, then one
  // selfish.render span per point carrying its p and γ.
  const EnabledGuard on(true);
  obs::flight_reset();
  const std::vector<double> ps = {0.1, 0.15, 0.2, 0.25, 0.3};
  analysis::AnalysisOptions options;
  options.epsilon = 1e-3;
  analysis::sweep_p(
      selfish::AttackParams{.p = 0.0, .gamma = 0.5, .d = 2, .f = 1, .l = 4},
      ps, options);
  EXPECT_EQ(spans_named("selfish.build").size(), 1u);
  const std::vector<serve::Json> renders = spans_named("selfish.render");
  ASSERT_EQ(renders.size(), ps.size());
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ASSERT_NE(renders[i].find("p"), nullptr);
    ASSERT_NE(renders[i].find("gamma"), nullptr);
    EXPECT_EQ(renders[i].find("p")->as_number(), ps[i]);
    EXPECT_EQ(renders[i].find("gamma")->as_number(), 0.5);
  }
  obs::flight_reset();
}

TEST(BuildSpan, AThresholdRunBuildsOneShape) {
  // Every probe of the search renders the one shape of the run.
  const EnabledGuard on(true);
  obs::flight_reset();
  const analysis::ThresholdResult result = analysis::fairness_threshold(
      selfish::AttackParams{.gamma = 0.5, .d = 2, .f = 1, .l = 4});
  EXPECT_EQ(spans_named("selfish.build").size(), 1u);
  EXPECT_EQ(spans_named("selfish.render").size(), result.probes.size());
  EXPECT_GT(result.probes.size(), 1u);
  obs::flight_reset();
}

TEST(TraceDump, AnswersRequestRootedSpanTree) {
  const EnabledGuard on(true);
  obs::flight_reset();
  serve::Service service(serve::ServiceOptions{});

  // One real analysis request carrying a client trace id...
  const std::string reply_line = serve::handle_line(
      service,
      "{\"kind\":\"sweep\",\"pmax\":0.1,\"d\":1,\"f\":1,\"l\":2,"
      "\"trace_id\":\"deadbeef\"}");
  const serve::Json reply = serve::Json::parse(reply_line);
  ASSERT_TRUE(reply.find("ok")->as_bool())
      << reply.find("error")->as_string();
  // ...whose reply echoes the id in canonical 16-digit form.
  ASSERT_NE(reply.find("trace_id"), nullptr);
  EXPECT_EQ(reply.find("trace_id")->as_string(), "00000000deadbeef");

  // trace-dump then returns the recent spans as NDJSON in `body`.
  const serve::Json dump =
      serve::Json::parse(serve::handle_line(service, "{\"kind\":\"trace-dump\"}"));
  ASSERT_TRUE(dump.find("ok")->as_bool());
  const std::string body = dump.find("body")->as_string();

  struct Line {
    std::string span;
    std::string parent;  ///< empty for roots
  };
  std::map<std::string, Line> by_span_id;  // span_id -> line
  std::istringstream lines(body);
  for (std::string text; std::getline(lines, text);) {
    const serve::Json line = serve::Json::parse(text);
    if (line.find("trace_id") == nullptr ||
        line.find("trace_id")->as_string() != "00000000deadbeef") {
      continue;  // spans of other tests / the dump request itself
    }
    Line entry;
    entry.span = line.find("span")->as_string();
    if (const serve::Json* parent = line.find("parent_id")) {
      entry.parent = parent->as_string();
    }
    EXPECT_GE(line.find("dur")->as_number(), 0.0);
    by_span_id.emplace(line.find("span_id")->as_string(), entry);
  }

  // The request's whole tree shares the client trace id: transport root,
  // service execution, engine dispatch, and the solver sweeps.
  std::set<std::string> names;
  for (const auto& [id, entry] : by_span_id) names.insert(entry.span);
  for (const char* expected :
       {"serve.request", "serve.execute", "engine.generic", "engine.solve",
        "mdp.value_iteration"}) {
    EXPECT_TRUE(names.count(expected) == 1)
        << "missing span " << expected << " in:\n" << body;
  }

  // Every span must chain through parent_id links to the serve.request
  // root — one connected tree, not a bag of same-trace orphans.
  const auto root_of = [&](const std::string& span_id) {
    std::string at = span_id;
    for (int hops = 0; hops < 64; ++hops) {
      const auto found = by_span_id.find(at);
      if (found == by_span_id.end() || found->second.parent.empty()) {
        return at;
      }
      at = found->second.parent;
    }
    return at;
  };
  std::string root_id;
  for (const auto& [id, entry] : by_span_id) {
    if (entry.span == "serve.request") root_id = id;
  }
  ASSERT_FALSE(root_id.empty());
  for (const auto& [id, entry] : by_span_id) {
    EXPECT_EQ(root_of(id), root_id)
        << entry.span << " does not chain to serve.request";
  }
  obs::flight_reset();
}

TEST(Log, LinesAreNdjsonAndRateLimited) {
  const EnabledGuard on(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "test_trace_log.ndjson")
          .string();
  std::filesystem::remove(path);
  obs::open_log(path);
  // Bucket of 2 with no refill: of 5 lines, 2 pass and 3 drop; after a
  // reset the next line reports the drop count.
  obs::set_log_rate_limit(2.0, 0.0);
  for (int i = 0; i < 5; ++i) {
    obs::log_info("test", "burst", {{"i", serve::Json(double(i))}});
  }
  obs::set_log_rate_limit(10.0, 0.0);
  {
    obs::Span span("log.scope");
    obs::log_warn("test", "after-burst");
    // The thread's current trace context rides on every line.
    obs::close_log();
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::vector<serve::Json> lines;
    for (std::string text; std::getline(in, text);) {
      lines.push_back(serve::Json::parse(text));  // throws if not JSON
    }
    ASSERT_EQ(lines.size(), 3u);
    for (const serve::Json& line : lines) {
      EXPECT_NE(line.find("ts"), nullptr);
      EXPECT_EQ(line.find("component")->as_string(), "test");
    }
    EXPECT_EQ(lines[0].find("level")->as_string(), "info");
    EXPECT_EQ(lines[0].find("msg")->as_string(), "burst");
    EXPECT_EQ(lines[1].find("attrs")->find("i")->as_number(), 1.0);
    const serve::Json& after = lines[2];
    EXPECT_EQ(after.find("level")->as_string(), "warn");
    EXPECT_EQ(after.find("dropped")->as_number(), 3.0);
    EXPECT_EQ(after.find("trace_id")->as_string(),
              obs::format_trace_id(span.trace_id()));
  }
  // Restore defaults for any later test in this process.
  obs::set_log_rate_limit(128.0, 64.0);
  std::filesystem::remove(path);
}

TEST(Log, LevelFilterDropsBelowThreshold) {
  const EnabledGuard on(true);
  const std::string path =
      (std::filesystem::temp_directory_path() / "test_trace_level.ndjson")
          .string();
  std::filesystem::remove(path);
  obs::open_log(path);
  const obs::LogLevel before = obs::log_level();
  obs::set_log_level(obs::LogLevel::kWarn);
  obs::log_debug("test", "invisible");
  obs::log_info("test", "invisible");
  obs::log_error("test", "visible");
  obs::set_log_level(before);
  obs::close_log();

  std::ifstream in(path);
  std::string text;
  std::vector<std::string> lines;
  while (std::getline(in, text)) lines.push_back(text);
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_NE(lines[0].find("\"visible\""), std::string::npos);
  std::filesystem::remove(path);
}

TEST(Log, ParseLevelAcceptsTheDocumentedNames) {
  EXPECT_EQ(obs::parse_log_level("off"), obs::LogLevel::kOff);
  EXPECT_EQ(obs::parse_log_level("debug"), obs::LogLevel::kDebug);
  EXPECT_THROW(obs::parse_log_level("verbose"), std::runtime_error);
}

}  // namespace
