// The analysis service (ISSUE 5 acceptance criteria): served responses
// are byte-identical to the direct CLI rendering for every analysis kind;
// threshold and upper-bound artifacts round-trip through the content-
// addressed store (the second request is a cache hit, not a re-solve);
// M concurrent identical queries single-flight into exactly one execution
// and one store write; and the protocol rejects malformed JSON, unknown
// kinds/fields, and out-of-range parameters with error replies while the
// connection stays usable.
#include <gtest/gtest.h>

#include <atomic>
#include <cctype>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <fstream>
#include <initializer_list>
#include <limits>
#include <map>
#include <mutex>
#include <sstream>
#include <thread>
#include <utility>
#include <vector>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "analysis/render.hpp"
#include "obs/metrics.hpp"
#include "analysis/sweep.hpp"
#include "analysis/threshold.hpp"
#include "analysis/upper_bound.hpp"
#include "engine/generic.hpp"
#include "engine/kinds.hpp"
#include "selfish/build.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "serve/service.hpp"
#include "support/check.hpp"

namespace {

namespace fs = std::filesystem;

/// A scratch cache directory, wiped on construction and destruction.
struct ScratchDir {
  explicit ScratchDir(const std::string& name)
      : path((fs::temp_directory_path() / name).string()) {
    fs::remove_all(path);
  }
  ~ScratchDir() { fs::remove_all(path); }
  std::string path;
};

/// Entries persisted under a cache directory (the store-write count).
std::size_t count_store_entries(const std::string& dir) {
  const fs::path objects = fs::path(dir) / "objects";
  if (!fs::exists(objects)) return 0;
  std::size_t count = 0;
  for (const auto& entry : fs::recursive_directory_iterator(objects)) {
    if (entry.is_regular_file()) ++count;
  }
  return count;
}

/// Every unlabeled series of the process-wide scrape, by name: among them
/// the selfish_serve_* families a Service's and a Server's counts feed.
std::map<std::string, double> scraped_families() {
  std::map<std::string, double> values;
  std::istringstream scrape(obs::prometheus_text());
  std::string line;
  while (std::getline(scrape, line)) {
    if (line.empty() || line[0] == '#') continue;
    if (line.find('{') != std::string::npos) continue;  // labeled series
    const std::size_t space = line.find(' ');
    values[line.substr(0, space)] = std::stod(line.substr(space + 1));
  }
  return values;
}

/// Each owned instrument's count equals how far its family moved between
/// the two scrapes (its owner being the only one in the process).
template <typename Owned>
void expect_families_moved(
    const std::map<std::string, double>& before,
    const std::map<std::string, double>& after,
    std::initializer_list<std::pair<const char*, const Owned*>> owned) {
  for (const auto& [name, own] : owned) {
    EXPECT_EQ(after.at(name) - before.at(name),
              static_cast<double>(own->value()))
        << name;
  }
}

/// The transport counts a `stats` reply reports, against their families.
void expect_transport_families_moved(
    const serve::Server& server, const std::map<std::string, double>& before) {
  const serve::TransportStats& transport = server.transport_stats();
  expect_families_moved<obs::OwnedCounter>(
      before, scraped_families(),
      {{"selfish_serve_accepted_total", &transport.accepted},
       {"selfish_serve_busy_total", &transport.busy},
       {"selfish_serve_idle_closed_total", &transport.idle_closed}});
}

/// Tiny model shared by the end-to-end tests (milliseconds per solve).
constexpr const char* kTinyModel = "\"d\":1,\"f\":1,\"l\":2";
/// The same model for upper-bound, which scans l itself.
constexpr const char* kTinyShape = "\"d\":1,\"f\":1";

selfish::AttackParams tiny_params(double p) {
  return selfish::AttackParams{.p = p, .gamma = 0.5, .d = 1, .f = 1, .l = 2};
}

// ----------------------------------------------------------------- JSON

TEST(ServeJson, ParseDumpRoundTrip) {
  const std::string text =
      R"({"id":7,"kind":"point","p":0.3,"flag":true,"none":null,)"
      R"("list":[1,2.5,"x"],"text":"a\n\"b\"é"})";
  const serve::Json value = serve::Json::parse(text);
  EXPECT_EQ(value.find("id")->as_number(), 7.0);
  EXPECT_EQ(value.find("kind")->as_string(), "point");
  EXPECT_EQ(value.find("p")->as_number(), 0.3);
  EXPECT_TRUE(value.find("flag")->as_bool());
  EXPECT_TRUE(value.find("none")->is_null());
  EXPECT_EQ(value.find("list")->as_array().size(), 3u);
  EXPECT_EQ(value.find("text")->as_string(), "a\n\"b\"\xc3\xa9");
  // dump -> parse -> dump is a fixed point (canonical rendering).
  const std::string dumped = value.dump();
  EXPECT_EQ(serve::Json::parse(dumped).dump(), dumped);
}

TEST(ServeJson, RejectsMalformedDocuments) {
  const char* broken[] = {
      "",        "{",           "{\"a\":}",      "[1,]",
      "nulll",   "{\"a\":1,}",  "\"unterminated", "{\"a\" 1}",
      "1 2",     "{\"a\":1e}",  "{\"a\":--1}",    "{\"a\":1,\"a\":2}",
  };
  for (const char* text : broken) {
    EXPECT_THROW(serve::Json::parse(text), serve::JsonError) << text;
  }
}

// ----------------------------------------------------- generic job store

TEST(GenericStore, RoundTripAndCorruptionHealing) {
  ScratchDir scratch("sm_generic_store_test");
  engine::ResultStore store(scratch.path);

  engine::GenericJob job;
  job.kind = "threshold";
  job.options = "gamma=0.5|d=1";
  const engine::JobKey key = engine::generic_job_key(job);
  EXPECT_NE(key.canonical.find("threshold/v"), std::string::npos);

  EXPECT_FALSE(store.load_generic(key).has_value());
  engine::GenericResult result;
  result.payload = "artifact bytes\nwith newline";
  result.seconds = 1.25;
  store.store_generic(key, result);

  const auto loaded = store.load_generic(key);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->payload, result.payload);
  EXPECT_EQ(loaded->seconds, result.seconds);

  // An analysis-entry reader must not accept a generic entry (distinct
  // magics) — and vice versa the generic loader heals corruption.
  EXPECT_FALSE(store.load(key).has_value());
  store.store_generic(key, result);  // load() deleted the entry: restore
  {
    std::fstream file(store.entry_path(key),
                      std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(20);
    file.put('\x5a');
  }
  EXPECT_FALSE(store.load_generic(key).has_value());
  EXPECT_FALSE(fs::exists(store.entry_path(key)));  // healed
}

TEST(GenericKeys, PinKindAndOptions) {
  engine::ThresholdQuery query;
  query.base = tiny_params(0.3);
  const engine::GenericJob job = engine::make_threshold_job(query);
  const engine::JobKey key = engine::generic_job_key(job);
  EXPECT_EQ(engine::generic_job_key(job).hash, key.hash);

  engine::ThresholdQuery other = query;
  other.options.p_tolerance = 0.01;
  EXPECT_NE(
      engine::generic_job_key(engine::make_threshold_job(other)).hash,
      key.hash);
  other = query;
  other.base.gamma = 0.25;
  EXPECT_NE(
      engine::generic_job_key(engine::make_threshold_job(other)).hash,
      key.hash);

  // Same options under a different kind must address a different entry.
  engine::GenericJob relabeled = job;
  relabeled.kind = "upper-bound";
  EXPECT_NE(engine::generic_job_key(relabeled).hash, key.hash);
}

TEST(GenericKeys, JobBuildersRefuseEpsilonOutsideTheOpenUnitInterval) {
  // ε is checked when the job is built, before any model is, by the same
  // AnalysisOptions::validate that analysis::analyze runs.
  for (const double epsilon :
       {0.0, 1.0, std::numeric_limits<double>::quiet_NaN()}) {
    engine::PointQuery point;
    point.analysis.epsilon = epsilon;
    EXPECT_THROW(engine::make_point_job(point), support::InvalidArgument)
        << epsilon;
    engine::SweepQuery sweep;
    sweep.analysis.epsilon = epsilon;
    EXPECT_THROW(engine::make_sweep_job(sweep), support::InvalidArgument)
        << epsilon;
    engine::UpperBoundQuery upper;
    upper.options.analysis.epsilon = epsilon;
    EXPECT_THROW(engine::make_upper_bound_job(upper),
                 support::InvalidArgument)
        << epsilon;
    engine::NetBatchQuery net;
    net.epsilon = epsilon;
    EXPECT_THROW(engine::make_net_batch_job(net), support::InvalidArgument)
        << epsilon;
  }
}

// ------------------------------------------------------------- protocol

TEST(ServeProtocol, DefaultsMatchTheCliSubcommands) {
  // The byte-identity contract says "an empty query equals the
  // subcommand's default invocation" — which requires the FieldReader
  // fallbacks in serve/protocol.cpp to equal the CLI declare() defaults
  // in tools/selfish_mining_cli.cpp. This pins the protocol side of that
  // pact: editing a default in either place must come back here.
  const auto options_of = [](const std::string& line) {
    return serve::parse_request(line).job.options;
  };
  // Doubles appear in the canonical round-trip rendering, so expected
  // tokens are built through the same canonical_double.
  const auto num = [](double value) { return engine::canonical_double(value); };
  const std::string point = options_of("{\"kind\":\"point\"}");
  for (const std::string& token :
       {"gamma=" + num(0.5), std::string("|d=2"), std::string("|f=1"),
        std::string("|l=4"), std::string("|burn=0"), "|p=" + num(0.3),
        "eps=" + num(0.001), "|tol=" + num(1e-7),
        std::string("|stats=1")}) {
    EXPECT_NE(point.find(token), std::string::npos)
        << point << "  missing: " << token;
  }
  const std::string sweep = options_of("{\"kind\":\"sweep\"}");
  EXPECT_NE(sweep.find("|pmin=" + num(0.0) + "|pmax=" + num(0.3) +
                       "|pstep=" + num(0.05)),
            std::string::npos)
      << sweep;
  // A threshold probe is one mean-payoff solve: its key names the solve's
  // tolerances but no ε, no exact-evaluation flag and no search range.
  const std::string threshold = options_of("{\"kind\":\"threshold\"}");
  EXPECT_NE(threshold.find("|tol=" + num(1e-7) + "|maxit=2000000" +
                           "|margin=" + num(0.005) + "|ptol=" + num(0.005)),
            std::string::npos)
      << threshold;
  for (const char* absent :
       {"eps=", "exact=", "pmax=", "|p=", "solver=", "tau="}) {
    EXPECT_EQ(threshold.find(absent), std::string::npos)
        << threshold << "  has: " << absent;
  }
  const std::string upper = options_of("{\"kind\":\"upper-bound\"}");
  EXPECT_NE(upper.find("|lmin=2|lmax=5"), std::string::npos) << upper;
  const std::string batch = options_of("{\"kind\":\"net-batch\"}");
  for (const std::string& token :
       {std::string("scenario=single-optimal"), "|p=" + num(0.3),
        "|gamma=" + num(0.5), "|delay=" + num(0.0),
        "|interval=" + num(600.0), std::string("|blocks=100000"),
        std::string("|honest=3"), std::string("|d=2"), std::string("|f=1"),
        std::string("|l=4"), std::string("|strategy=optimal"),
        std::string("|prop=direct"), std::string("|runs=8"),
        std::string("|seed=24141"), "|eps=" + num(0.001)}) {
    EXPECT_NE(batch.find(token), std::string::npos)
        << batch << "  missing: " << token;
  }
}

/// Counts the fields a kind's schema visits.
struct FieldCounter final : engine::FieldVisitor {
  int fields = 0;
  void field(const char*, engine::Field, const char*) override { ++fields; }
};

/// The CLI path: options declared from the kind's schema, parsed from
/// `flags` (--name=value), read back into the kind's job.
engine::JobKey key_from_flags(const engine::JobKind& kind,
                              const std::vector<std::string>& flags) {
  support::Options options;
  engine::OptionFields declare = engine::OptionFields::declaring(options);
  kind.visit(declare);
  std::vector<const char*> argv = {"test"};
  for (const std::string& flag : flags) argv.push_back(flag.c_str());
  options.parse(static_cast<int>(argv.size()), argv.data());
  engine::OptionFields read = engine::OptionFields::reading(options);
  return engine::generic_job_key(kind.visit(read));
}

/// The protocol path: the same flags as members of a request object.
engine::JobKey key_from_request(const std::string& kind,
                                const std::vector<std::string>& flags) {
  std::string line = "{\"kind\":\"" + kind + "\"";
  for (const std::string& flag : flags) {
    const std::size_t eq = flag.find('=');
    const std::string value = flag.substr(eq + 1);
    const bool literal = value == "true" || value == "false" ||
                         value[0] == '-' || std::isdigit(value[0]) != 0;
    line += ",\"" + flag.substr(2, eq - 2) +
            "\":" + (literal ? value : "\"" + value + "\"");
  }
  return engine::generic_job_key(serve::parse_request(line + "}").job);
}

TEST(ServeProtocol, SchemaFrontEndsBuildTheSameJobs) {
  const std::map<std::string, engine::GenericJob> defaults = {
      {"point", engine::make_point_job({})},
      {"sweep", engine::make_sweep_job({})},
      {"threshold", engine::make_threshold_job({})},
      {"upper-bound", engine::make_upper_bound_job({})},
      {"net-batch", engine::make_net_batch_job({})},
  };
  // Every field of every kind set away from its default.
  const std::map<std::string, std::vector<std::string>> populated = {
      {"point",
       {"--p=0.25", "--gamma=0.3", "--d=1", "--f=2", "--l=2",
        "--burn-lost-races=true", "--epsilon=0.01", "--stats=false"}},
      {"sweep",
       {"--gamma=0.4", "--d=1", "--f=2", "--l=3", "--burn-lost-races=true",
        "--epsilon=0.002", "--pmin=0.1", "--pmax=0.2",
        "--step=0.025"}},
      {"threshold",
       {"--gamma=0.25", "--d=3", "--f=2", "--l=2", "--burn-lost-races=true",
        "--margin=0.01", "--ptol=0.002"}},
      {"upper-bound",
       {"--p=0.35", "--gamma=0.75", "--d=1", "--f=2",
        "--burn-lost-races=true", "--epsilon=0.005", "--lmin=1",
        "--lmax=3"}},
      {"net-batch",
       {"--scenario=partition-attack", "--p=0.25", "--gamma=0.4", "--d=1",
        "--f=2", "--l=2", "--delay=1.5", "--interval=300", "--blocks=3000",
        "--honest=4", "--strategy=honest", "--propagation=gossip",
        "--partition-start=0.2", "--partition-stop=0.5",
        "--partition-frac=0.25", "--asymmetry=3", "--runs=2",
        "--seed=3000000000", "--epsilon=0.01"}},
  };
  ASSERT_EQ(engine::job_kinds().size(), defaults.size());
  for (const engine::JobKind& kind : engine::job_kinds()) {
    SCOPED_TRACE(kind.name);
    ASSERT_EQ(defaults.count(kind.name), 1u);
    const engine::JobKey expected = engine::generic_job_key(
        defaults.at(kind.name));
    EXPECT_EQ(key_from_flags(kind, {}).canonical, expected.canonical);
    EXPECT_EQ(key_from_request(kind.name, {}).canonical, expected.canonical);

    const std::vector<std::string>& flags = populated.at(kind.name);
    FieldCounter counter;
    kind.visit(counter);
    EXPECT_EQ(counter.fields, static_cast<int>(flags.size()));
    const engine::JobKey cli = key_from_flags(kind, flags);
    EXPECT_EQ(cli.canonical, key_from_request(kind.name, flags).canonical);
    EXPECT_NE(cli.canonical, expected.canonical);

    // Each field on its own changes the key too, so a field the schema
    // visits but the job leaves out cannot alias two requests' artifacts.
    for (const std::string& flag : flags) {
      SCOPED_TRACE(flag);
      EXPECT_NE(key_from_flags(kind, {flag}).canonical, expected.canonical);
    }
  }

  // A field a kind does not read is not declared, so both front ends
  // refuse it: sweep and threshold scan p themselves, upper-bound scans
  // l, and a threshold probe has no ε.
  for (const auto& [name, flag] :
       std::vector<std::pair<std::string, std::string>>{
           {"sweep", "--p=0.2"},
           {"threshold", "--p=0.2"},
           {"threshold", "--epsilon=0.01"},
           {"upper-bound", "--l=3"}}) {
    SCOPED_TRACE(name + " " + flag);
    EXPECT_THROW(key_from_flags(*engine::find_job_kind(name), {flag}),
                 support::InvalidArgument);
    EXPECT_THROW(key_from_request(name, {flag}), support::InvalidArgument);
  }

  // Counts take whole numbers in [0, 2^53] on both paths.
  const engine::JobKind& batch = *engine::find_job_kind("net-batch");
  EXPECT_THROW(key_from_flags(batch, {"--seed=-1"}), support::InvalidArgument);
  EXPECT_THROW(key_from_request("net-batch", {"--seed=-1"}),
               support::InvalidArgument);
  const engine::JobKey big = key_from_flags(batch, {"--seed=3000000000"});
  EXPECT_NE(big.canonical.find("|seed=3000000000|"), std::string::npos);
  EXPECT_EQ(big.canonical,
            key_from_request("net-batch", {"--seed=3000000000"}).canonical);
}

serve::Json reply_of(serve::Service& service, const std::string& line) {
  const std::string reply = serve::handle_line(service, line);
  EXPECT_EQ(reply.back(), '\n');
  return serve::Json::parse(reply);
}

TEST(ServeProtocol, RejectsMalformedAndInvalidRequests) {
  serve::Service service(serve::ServiceOptions{});

  // Malformed JSON.
  serve::Json reply = reply_of(service, "{nope");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("JSON parse error"),
            std::string::npos);

  // Not an object / missing kind.
  EXPECT_FALSE(reply_of(service, "[1,2]").find("ok")->as_bool());
  EXPECT_FALSE(reply_of(service, "{\"id\":1}").find("ok")->as_bool());

  // Unknown kind, id echoed back on the error.
  reply = reply_of(service, "{\"id\":41,\"kind\":\"frobnicate\"}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("id")->as_number(), 41.0);
  EXPECT_NE(reply.find("error")->as_string().find("unknown kind"),
            std::string::npos);

  // Unknown field (typo'd option).
  reply = reply_of(service,
                   "{\"kind\":\"threshold\",\"gama\":0.5}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("unknown field"),
            std::string::npos);

  // Type mismatch and non-integer integer field.
  EXPECT_FALSE(reply_of(service, "{\"kind\":\"point\",\"p\":\"x\"}")
                   .find("ok")->as_bool());
  EXPECT_FALSE(reply_of(service, "{\"kind\":\"point\",\"d\":1.5}")
                   .find("ok")->as_bool());

  // Out-of-range model parameters (AttackParams::validate), in plain
  // words.
  reply = reply_of(service, "{\"id\":2,\"kind\":\"point\",\"p\":1.5}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("id")->as_number(), 2.0);
  EXPECT_EQ(reply.find("error")->as_string(), "p out of [0,1]: 1.5");

  // ε is refused by the job builder, before a model is built (the solves
  // count below stays 0).
  reply = reply_of(service, "{\"kind\":\"point\",\"epsilon\":0}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("error")->as_string(), "epsilon out of (0,1): 0");

  // The deleted solver menu is an unknown field, like any typo.
  reply = reply_of(service, "{\"kind\":\"point\",\"solver\":\"vi\"}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("unknown field"),
            std::string::npos);

  // Out-of-range kind-specific options.
  EXPECT_FALSE(
      reply_of(service, "{\"kind\":\"sweep\",\"step\":-0.1}")
          .find("ok")->as_bool());
  EXPECT_FALSE(
      reply_of(service, "{\"kind\":\"threshold\",\"margin\":0}")
          .find("ok")->as_bool());
  reply = reply_of(service, "{\"kind\":\"threshold\",\"margin\":1e300}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("margin"),
            std::string::npos);
  EXPECT_FALSE(
      reply_of(service, "{\"kind\":\"upper-bound\",\"lmin\":3,\"lmax\":3}")
          .find("ok")->as_bool());
  // Scenario names and options are checked by the job builder, before
  // the batch prepares any model, and the reply says so in plain words.
  reply = reply_of(service,
                   "{\"kind\":\"net-batch\",\"scenario\":\"no-such\"}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("error")->as_string(),
            "unknown scenario family no-such");
  reply = reply_of(service, "{\"kind\":\"net-batch\",\"interval\":0}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("error")->as_string(), "interval out of (0,inf): 0");
  reply = reply_of(service, "{\"kind\":\"net-batch\",\"honest\":0}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("error")->as_string(),
            "honest must be at least 1, got 0");

  // Strategy files are CLI-only: a network client must not be able to
  // make the server open arbitrary paths.
  reply = reply_of(
      service,
      "{\"kind\":\"net-batch\",\"strategy\":\"file:/etc/passwd\"}");
  EXPECT_FALSE(reply.find("ok")->as_bool());
  EXPECT_NE(reply.find("error")->as_string().find("strategy"),
            std::string::npos);

  // Admin requests take no options.
  EXPECT_FALSE(reply_of(service, "{\"kind\":\"ping\",\"p\":0.3}")
                   .find("ok")->as_bool());

  // Every error so far left the service usable, and every rejection is
  // visible to operators in the counters.
  const serve::Json pong = reply_of(service, "{\"id\":9,\"kind\":\"ping\"}");
  EXPECT_TRUE(pong.find("ok")->as_bool());
  EXPECT_EQ(pong.find("id")->as_number(), 9.0);
  const serve::Json stats = reply_of(service, "{\"kind\":\"stats\"}");
  EXPECT_GT(stats.find("rejected")->as_number(), 0.0);
  EXPECT_EQ(stats.find("solves")->as_number(), 0.0);
}

TEST(ServeProtocol, StatsReportsCounters) {
  serve::Service service(serve::ServiceOptions{});
  reply_of(service, std::string("{\"kind\":\"threshold\",") + kTinyModel +
                        "}");
  reply_of(service, std::string("{\"kind\":\"threshold\",") + kTinyModel +
                        "}");
  const serve::Json stats = reply_of(service, "{\"kind\":\"stats\"}");
  EXPECT_TRUE(stats.find("ok")->as_bool());
  EXPECT_EQ(stats.find("requests")->as_number(), 2.0);
  EXPECT_EQ(stats.find("solves")->as_number(), 1.0);
  EXPECT_EQ(stats.find("lru_hits")->as_number(), 1.0);
}

// ---------------------------------------------- end-to-end byte identity

/// Starts an ephemeral-port server, runs `fn(client)`, stops the server.
template <typename Fn>
void with_server(const serve::ServiceOptions& service_options, Fn fn) {
  serve::ServerOptions options;
  options.port = 0;
  options.service = service_options;
  serve::Server server(options);
  server.start();
  {
    serve::Client client("127.0.0.1", server.port());
    fn(client, server);
  }
  server.stop();
}

TEST(ServeEndToEnd, ResponsesMatchDirectRenderings) {
  with_server(serve::ServiceOptions{}, [](serve::Client& client,
                                          serve::Server&) {
    // point == direct analyze + render (stats included, CLI default).
    {
      const serve::Reply reply = client.request(
          std::string("{\"kind\":\"point\",\"p\":0.3,") + kTinyModel + "}");
      ASSERT_TRUE(reply.ok) << reply.error;
      const auto params = tiny_params(0.3);
      const auto model = selfish::build_model(params);
      analysis::AnalysisResult direct = analysis::analyze(model);
      std::string expected =
          analysis::render_analysis_report(params, model, direct, true);
      // The report's wall-clock token (", 0.123 s") is the one volatile
      // part; drop it and compare everything else byte for byte.
      const auto strip_seconds = [](const std::string& text) {
        std::string out;
        std::istringstream lines(text);
        for (std::string line; std::getline(lines, line);) {
          if (line.size() >= 2 && line.compare(line.size() - 2, 2, " s") == 0) {
            const std::size_t comma = line.rfind(',');
            if (comma != std::string::npos) line.resize(comma);
          }
          out += line;
          out.push_back('\n');
        }
        return out;
      };
      EXPECT_EQ(strip_seconds(reply.body), strip_seconds(expected));
    }
    // threshold == direct fairness_threshold + render, byte for byte.
    {
      const serve::Reply reply = client.request(
          std::string("{\"kind\":\"threshold\",") + kTinyModel + "}");
      ASSERT_TRUE(reply.ok) << reply.error;
      analysis::ThresholdOptions options;
      EXPECT_EQ(reply.body,
                analysis::render_threshold_report(
                    options,
                    analysis::fairness_threshold(tiny_params(0.3), options)));
    }
    // upper-bound == direct bound_errev_in_l + render, byte for byte.
    {
      const serve::Reply reply = client.request(
          std::string("{\"kind\":\"upper-bound\",\"lmin\":1,\"lmax\":2,") +
          kTinyShape + "}");
      ASSERT_TRUE(reply.ok) << reply.error;
      analysis::UpperBoundOptions options;
      options.l_min = 1;
      options.l_max = 2;
      EXPECT_EQ(reply.body,
                analysis::render_upper_bound_report(
                    options,
                    analysis::bound_errev_in_l(tiny_params(0.3), options)));
    }
    // sweep == direct engine sweep CSV, byte for byte.
    {
      const serve::Reply reply = client.request(
          std::string("{\"kind\":\"sweep\",\"pmax\":0.2,") + kTinyModel +
          "}");
      ASSERT_TRUE(reply.ok) << reply.error;
      const auto sweep = analysis::sweep_p(
          tiny_params(0.3), analysis::linspace_grid(0.0, 0.2, 0.05), {});
      std::ostringstream csv;
      analysis::write_sweep_csv(sweep, csv);
      EXPECT_EQ(reply.body, csv.str());
    }
  });
}

// ------------------------------------------------- store round-tripping

TEST(ServeCache, ThresholdAndUpperBoundRoundTripThroughStore) {
  ScratchDir scratch("sm_serve_cache_test");
  const std::string threshold_request =
      std::string("{\"kind\":\"threshold\",") + kTinyModel + "}";
  const std::string upper_request =
      std::string("{\"kind\":\"upper-bound\",\"lmin\":1,\"lmax\":2,") +
      kTinyShape + "}";

  serve::ServiceOptions options;
  options.cache_dir = scratch.path;
  options.threads = 2;

  std::string threshold_body, upper_body;
  {
    serve::Service service(options);
    threshold_body =
        serve::handle_line(service, threshold_request);
    upper_body = serve::handle_line(service, upper_request);
    EXPECT_EQ(service.counters().solves.value(), 2u);
  }
  const std::size_t entries = count_store_entries(scratch.path);
  EXPECT_EQ(entries, 2u);  // one artifact each, no stray writes

  // A fresh service on the same cache answers warm: same bytes, no new
  // solve, no new store entry — the second request is a cache hit.
  {
    serve::Service service(options);
    const std::string threshold_again =
        serve::handle_line(service, threshold_request);
    const std::string upper_again =
        serve::handle_line(service, upper_request);
    EXPECT_EQ(service.counters().solves.value(), 0u);
    EXPECT_EQ(service.counters().store_hits.value(), 2u);

    const serve::Reply first = serve::decode_reply(threshold_body);
    const serve::Reply second = serve::decode_reply(threshold_again);
    EXPECT_EQ(first.body, second.body);
    EXPECT_FALSE(first.cached);
    EXPECT_TRUE(second.cached);
    EXPECT_EQ(second.source, "store");
    EXPECT_EQ(serve::decode_reply(upper_body).body,
              serve::decode_reply(upper_again).body);

    // Third time: resident in the LRU now.
    const serve::Reply third = serve::decode_reply(
        serve::handle_line(service, threshold_request));
    EXPECT_EQ(third.source, "lru");
    EXPECT_EQ(third.body, first.body);
  }
  EXPECT_EQ(count_store_entries(scratch.path), entries);
}

TEST(ServeCache, LruDisabledStillServesFromStore) {
  ScratchDir scratch("sm_serve_lru_off_test");
  serve::ServiceOptions options;
  options.cache_dir = scratch.path;
  options.lru_bytes = 0;
  serve::Service service(options);

  const std::string request =
      std::string("{\"kind\":\"threshold\",") + kTinyModel + "}";
  const serve::Reply first =
      serve::decode_reply(serve::handle_line(service, request));
  const serve::Reply second =
      serve::decode_reply(serve::handle_line(service, request));
  EXPECT_EQ(first.body, second.body);
  EXPECT_EQ(second.source, "store");
  EXPECT_EQ(service.counters().lru_hits.value(), 0u);
}

// ----------------------------------------------------------- coalescing

TEST(ServeSingleFlight, ConcurrentIdenticalQueriesExecuteOnce) {
  ScratchDir scratch("sm_serve_flight_test");

  // A deliberately slow executor: every concurrent request must be in
  // flight together, so coalescing is exercised for real, not by luck.
  std::atomic<int> executions{0};
  engine::ExecutorRegistry registry;
  registry.add("slow", [&](const engine::GenericJob&,
                           const engine::ExecContext&) {
    executions.fetch_add(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    engine::GenericResult result;
    result.payload = "slow artifact";
    return result;
  });

  serve::ServiceOptions options;
  options.cache_dir = scratch.path;
  options.threads = 4;
  serve::Service service(options, registry);

  engine::GenericJob job;
  job.kind = "slow";
  job.options = "x=1";

  constexpr int kClients = 8;
  std::vector<serve::QueryOutcome> outcomes(kClients);
  {
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int c = 0; c < kClients; ++c) {
      threads.emplace_back(
          [&, c] { outcomes[static_cast<std::size_t>(c)] =
                       service.execute(job); });
    }
    for (std::thread& thread : threads) thread.join();
  }

  EXPECT_EQ(executions.load(), 1) << "single-flight must dedupe solves";
  EXPECT_EQ(count_store_entries(scratch.path), 1u)
      << "exactly one store write";
  int solved = 0, coalesced = 0;
  for (const serve::QueryOutcome& outcome : outcomes) {
    ASSERT_NE(outcome.payload, nullptr);
    EXPECT_EQ(*outcome.payload, "slow artifact");
    solved += outcome.source == serve::Source::kSolve ? 1 : 0;
    coalesced += outcome.source == serve::Source::kCoalesced ? 1 : 0;
  }
  EXPECT_EQ(solved, 1);
  EXPECT_EQ(coalesced, kClients - 1);
  EXPECT_EQ(service.counters().coalesced.value(),
            static_cast<std::uint64_t>(kClients - 1));

  // Executor failures propagate to every waiter and are not cached.
  registry.add("failing", [&](const engine::GenericJob&,
                              const engine::ExecContext&)
                   -> engine::GenericResult {
    throw support::Error("deliberate failure");
  });
  engine::GenericJob bad;
  bad.kind = "failing";
  bad.options = "x=1";
  EXPECT_THROW(service.execute(bad), support::Error);
  EXPECT_EQ(service.counters().errors.value(), 1u);
  EXPECT_EQ(count_store_entries(scratch.path), 1u);
}

TEST(ServeLru, EvictsPastByteBudgetAndFallsBackToStore) {
  ScratchDir scratch("sm_serve_lru_evict_test");
  std::atomic<int> executions{0};
  engine::ExecutorRegistry registry;
  registry.add("blob", [&](const engine::GenericJob& job,
                           const engine::ExecContext&) {
    executions.fetch_add(1);
    engine::GenericResult result;
    result.payload = std::string(1024, job.options.back());
    return result;
  });

  serve::ServiceOptions options;
  options.cache_dir = scratch.path;
  options.threads = 1;
  options.lru_bytes = 2048;  // room for two artifacts
  serve::Service service(options, registry);

  const auto query = [&](char tag) {
    engine::GenericJob job;
    job.kind = "blob";
    job.options = std::string("tag=") + tag;
    return service.execute(job);
  };
  query('a');
  query('b');
  query('c');  // evicts 'a'
  EXPECT_EQ(service.counters().lru_evictions.value(), 1u);
  EXPECT_EQ(query('c').source, serve::Source::kLru);
  const serve::QueryOutcome again = query('a');  // store, not re-solve
  EXPECT_EQ(again.source, serve::Source::kStore);
  EXPECT_EQ(*again.payload, std::string(1024, 'a'));
  EXPECT_EQ(executions.load(), 3);
}

// ------------------------------------------- stats counts vs families

TEST(ServeCounters, EachCountMovesItsFamily) {
  ScratchDir scratch("sm_serve_counters_test");
  // "blob" artifacts are 1 KiB, except "big", which overflows the LRU
  // budget and so comes back from the store on repeat. "slow" holds its
  // flight open until the test has seen a second request join it.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> slow_started{0};
  engine::ExecutorRegistry registry;
  registry.add("blob", [](const engine::GenericJob& job,
                          const engine::ExecContext&) {
    engine::GenericResult result;
    result.payload = std::string(job.options == "big" ? 4096 : 1024, 'x');
    return result;
  });
  registry.add("slow", [&](const engine::GenericJob&,
                           const engine::ExecContext&) {
    slow_started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    engine::GenericResult result;
    result.payload = std::string(1024, 's');
    return result;
  });
  registry.add("failing", [](const engine::GenericJob&,
                             const engine::ExecContext&)
                   -> engine::GenericResult {
    throw support::Error("deliberate failure");
  });

  serve::ServiceOptions options;
  options.cache_dir = scratch.path;
  options.threads = 2;
  options.lru_bytes = 2048;  // room for two 1 KiB artifacts
  serve::Service service(options, registry);
  const serve::ServiceCounters& counters = service.counters();
  const std::map<std::string, double> before = scraped_families();

  const auto query = [&](std::string kind, std::string options_text) {
    engine::GenericJob job;
    job.kind = std::move(kind);
    job.options = std::move(options_text);
    return service.execute(job);
  };
  EXPECT_EQ(query("blob", "a").source, serve::Source::kSolve);
  EXPECT_EQ(query("blob", "a").source, serve::Source::kLru);
  EXPECT_EQ(query("blob", "big").source, serve::Source::kSolve);
  EXPECT_EQ(query("blob", "big").source, serve::Source::kStore);
  {
    std::thread leader([&] { query("slow", "x"); });
    while (slow_started.load() == 0) std::this_thread::yield();
    std::thread joiner([&] { query("slow", "x"); });
    while (counters.coalesced.value() == 0) std::this_thread::yield();
    {
      const std::lock_guard<std::mutex> lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
    leader.join();
    joiner.join();
  }
  EXPECT_EQ(query("blob", "b").source, serve::Source::kSolve);  // evicts a
  EXPECT_THROW(query("failing", "x"), support::Error);
  EXPECT_FALSE(serve::decode_reply(serve::handle_line(service, "{")).ok);

  // One of each event, and every request resolved exactly one way.
  EXPECT_EQ(counters.lru_hits.value(), 1u);
  EXPECT_EQ(counters.store_hits.value(), 1u);
  EXPECT_EQ(counters.coalesced.value(), 1u);
  EXPECT_EQ(counters.errors.value(), 1u);
  EXPECT_EQ(counters.rejected.value(), 1u);
  EXPECT_EQ(counters.lru_evictions.value(), 1u);
  EXPECT_EQ(counters.requests.value(),
            counters.lru_hits.value() + counters.store_hits.value() +
                counters.solves.value() + counters.coalesced.value() +
                counters.errors.value() + counters.rejected.value());

  // The only Service in the process: each family moved by its count.
  const std::map<std::string, double> after = scraped_families();
  expect_families_moved<obs::OwnedCounter>(
      before, after,
      {{"selfish_serve_requests_total", &counters.requests},
       {"selfish_serve_lru_hits_total", &counters.lru_hits},
       {"selfish_serve_store_hits_total", &counters.store_hits},
       {"selfish_serve_solves_total", &counters.solves},
       {"selfish_serve_coalesced_total", &counters.coalesced},
       {"selfish_serve_errors_total", &counters.errors},
       {"selfish_serve_rejected_total", &counters.rejected},
       {"selfish_serve_lru_evictions_total", &counters.lru_evictions},
       {"selfish_serve_fleet_executions_total", &counters.fleet_executions},
       {"selfish_serve_fleet_waits_total", &counters.fleet_waits},
       {"selfish_serve_fleet_takeovers_total", &counters.fleet_takeovers}});
  expect_families_moved<obs::OwnedGauge>(
      before, after,
      {{"selfish_serve_lru_bytes", &counters.lru_bytes},
       {"selfish_serve_lru_entries", &counters.lru_entries}});

  // With obs off, an LRU hit still counts for `stats`, and no family moves.
  const std::uint64_t requests = counters.requests.value();
  {
    struct ObsOff {
      ObsOff() { obs::set_enabled(false); }
      ~ObsOff() { obs::set_enabled(true); }
    } off;
    EXPECT_EQ(query("blob", "b").source, serve::Source::kLru);
  }
  EXPECT_EQ(counters.requests.value(), requests + 1);
  EXPECT_EQ(counters.lru_hits.value(), 2u);
  EXPECT_EQ(scraped_families(), after);
}

// ----------------------------------------------- trace ids and exemplars

TEST(ServeProtocol, TraceIdIsEchoedAndValidated) {
  serve::Service service(serve::ServiceOptions{});

  // Admin kinds accept a trace_id (it is not an option) and echo it in
  // canonical 16-digit form.
  serve::Json reply =
      reply_of(service, "{\"kind\":\"ping\",\"trace_id\":\"deadbeef\"}");
  EXPECT_TRUE(reply.find("ok")->as_bool());
  ASSERT_NE(reply.find("trace_id"), nullptr);
  EXPECT_EQ(reply.find("trace_id")->as_string(), "00000000deadbeef");

  // A request without one gets no trace_id member: server-minted span ids
  // must never leak into replies (byte-stable responses run to run).
  reply = reply_of(service, "{\"kind\":\"ping\"}");
  EXPECT_TRUE(reply.find("ok")->as_bool());
  EXPECT_EQ(reply.find("trace_id"), nullptr);

  // Malformed ids are protocol errors, not silently ignored.
  for (const char* bad :
       {"\"xyz\"", "\"0\"", "\"\"", "\"00000000deadbeef0\"", "7"}) {
    reply = reply_of(service, std::string("{\"kind\":\"ping\",\"trace_id\":") +
                                  bad + "}");
    EXPECT_FALSE(reply.find("ok")->as_bool()) << bad;
    EXPECT_NE(reply.find("error")->as_string().find("trace_id"),
              std::string::npos)
        << bad;
  }
}

TEST(ServeProtocol, StatsCarriesWorstLatencyExemplars) {
  const bool was_enabled = obs::enabled();
  obs::set_enabled(true);
  serve::Service service(serve::ServiceOptions{});
  reply_of(service, std::string("{\"kind\":\"threshold\",") + kTinyModel +
                        ",\"trace_id\":\"beef\"}");
  const serve::Json stats = reply_of(service, "{\"kind\":\"stats\"}");
  ASSERT_TRUE(stats.find("ok")->as_bool());
  const serve::Json* exemplars = stats.find("exemplars");
  ASSERT_NE(exemplars, nullptr);
  const serve::Json* rows = exemplars->find("threshold");
  ASSERT_NE(rows, nullptr) << "no exemplar rows for kind threshold";
  ASSERT_FALSE(rows->as_array().empty());
  // The exemplar table is process-global, so rows from earlier tests in
  // this binary may outrank ours — find our trace id among the worst-N.
  bool found = false;
  for (const serve::Json& row : rows->as_array()) {
    EXPECT_GE(row.find("seconds")->as_number(), 0.0);
    found |= row.find("trace_id")->as_string() == "000000000000beef";
  }
  EXPECT_TRUE(found) << "client trace id missing from exemplars";
  obs::set_enabled(was_enabled);
}

// ------------------------------------------------- HTTP scrape endpoints

/// One-shot HTTP GET against the NDJSON port; returns the raw response.
std::string http_get(int port, const std::string& path) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  EXPECT_GE(fd, 0);
  sockaddr_in address{};
  address.sin_family = AF_INET;
  address.sin_port = htons(static_cast<std::uint16_t>(port));
  ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
  EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                      sizeof(address)),
            0);
  const std::string request =
      "GET " + path + " HTTP/1.0\r\nHost: localhost\r\n\r\n";
  EXPECT_EQ(::send(fd, request.data(), request.size(), 0),
            static_cast<ssize_t>(request.size()));
  std::string response;
  char chunk[4096];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
  }
  ::close(fd);
  return response;
}

TEST(ServeHttp, AnswersMetricsAndHealthzOnTheNdjsonPort) {
  with_server(serve::ServiceOptions{}, [](serve::Client& client,
                                          serve::Server& server) {
    // The NDJSON protocol still works on other connections throughout.
    ASSERT_TRUE(client.request("{\"kind\":\"ping\"}").ok);

    const std::string health = http_get(server.port(), "/healthz");
    EXPECT_NE(health.find("HTTP/1.0 200 OK"), std::string::npos) << health;
    EXPECT_NE(health.find("\r\n\r\nok\n"), std::string::npos) << health;

    const std::string metrics = http_get(server.port(), "/metrics");
    EXPECT_NE(metrics.find("HTTP/1.0 200 OK"), std::string::npos);
    EXPECT_NE(metrics.find("text/plain; version=0.0.4"), std::string::npos);

    const std::string missing = http_get(server.port(), "/nope");
    EXPECT_NE(missing.find("HTTP/1.0 404 Not Found"), std::string::npos);

    ASSERT_TRUE(client.request("{\"kind\":\"ping\"}").ok);
  });
}

// ------------------------------------- protocol v1: version + handshake

TEST(ServeProtocol, SniffFirstLineToleratesPartialReads) {
  using serve::FirstLine;
  using serve::sniff_first_line;
  // Prefixes of "GET " must stay undecided: a lone 'G' is the first
  // nonblocking read of an HTTP scrape as often as not.
  EXPECT_EQ(sniff_first_line(""), FirstLine::kNeedMore);
  EXPECT_EQ(sniff_first_line("G"), FirstLine::kNeedMore);
  EXPECT_EQ(sniff_first_line("GE"), FirstLine::kNeedMore);
  EXPECT_EQ(sniff_first_line("GET"), FirstLine::kNeedMore);
  EXPECT_EQ(sniff_first_line("GET "), FirstLine::kHttpGet);
  EXPECT_EQ(sniff_first_line("GET /metrics HTTP/1.0\r\n"),
            FirstLine::kHttpGet);
  // Any divergence from the GET prefix settles NDJSON immediately.
  EXPECT_EQ(sniff_first_line("{"), FirstLine::kNdjson);
  EXPECT_EQ(sniff_first_line("{\"kind\":\"ping\"}"), FirstLine::kNdjson);
  EXPECT_EQ(sniff_first_line("GOT "), FirstLine::kNdjson);
  EXPECT_EQ(sniff_first_line("GETS"), FirstLine::kNdjson);
  EXPECT_EQ(sniff_first_line(" GET "), FirstLine::kNdjson);
}

TEST(ServeProtocol, VersionedEnvelope) {
  serve::Service service(serve::ServiceOptions{});
  // Every reply carries the protocol version.
  serve::Json pong = reply_of(service, "{\"kind\":\"ping\"}");
  ASSERT_NE(pong.find("v"), nullptr);
  EXPECT_EQ(pong.find("v")->as_number(), 1.0);
  // An explicit v:1 is accepted; a missing v means v1 (above).
  EXPECT_TRUE(
      reply_of(service, "{\"v\":1,\"kind\":\"ping\"}").find("ok")->as_bool());
  // Unknown versions are rejected with the named code, echoing the id.
  const serve::Json wrong =
      reply_of(service, "{\"v\":2,\"id\":7,\"kind\":\"ping\"}");
  EXPECT_FALSE(wrong.find("ok")->as_bool());
  ASSERT_NE(wrong.find("code"), nullptr);
  EXPECT_EQ(wrong.find("code")->as_string(), "unsupported_version");
  EXPECT_EQ(wrong.find("id")->as_number(), 7.0);
  // A non-numeric v is not a version we speak either.
  EXPECT_FALSE(reply_of(service, "{\"v\":\"1\",\"kind\":\"ping\"}")
                   .find("ok")
                   ->as_bool());
}

TEST(ServeProtocol, PingAdvertisesCapabilities) {
  serve::Service service(serve::ServiceOptions{});
  serve::Wire wire;
  wire.limits.max_line_bytes = 4096;
  wire.limits.max_inflight = 10;
  wire.limits.max_inflight_per_connection = 3;
  wire.limits.idle_timeout_seconds = 2.5;
  const serve::Json pong = serve::Json::parse(
      serve::handle_request(service, "{\"kind\":\"ping\"}", wire).reply);
  EXPECT_EQ(pong.find("protocol")->as_number(), 1.0);
  // The advertised kinds come from the executor registry plus the admin
  // kinds — a client can discover the full dispatch surface.
  bool has_point = false, has_ping = false;
  for (const serve::Json& kind : pong.find("kinds")->as_array()) {
    has_point |= kind.as_string() == "point";
    has_ping |= kind.as_string() == "ping";
  }
  EXPECT_TRUE(has_point);
  EXPECT_TRUE(has_ping);
  const serve::Json* limits = pong.find("limits");
  ASSERT_NE(limits, nullptr);
  EXPECT_EQ(limits->find("max_line_bytes")->as_number(), 4096.0);
  EXPECT_EQ(limits->find("max_inflight")->as_number(), 10.0);
  EXPECT_EQ(limits->find("max_inflight_per_connection")->as_number(), 3.0);
  EXPECT_EQ(limits->find("idle_timeout_seconds")->as_number(), 2.5);
  const std::string obs_mode = pong.find("obs")->as_string();
  EXPECT_TRUE(obs_mode == "on" || obs_mode == "runtime-off");
}

TEST(ServeSession, PingReflectsServerOptions) {
  serve::ServerOptions options;
  options.port = 0;
  options.max_inflight = 17;
  options.max_inflight_per_connection = 5;
  options.max_line_bytes = 1 << 16;
  serve::Server server(options);
  server.start();
  {
    serve::Client client("127.0.0.1", server.port());
    const serve::Reply pong = client.ping();
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_EQ(pong.raw.find("protocol")->as_number(), 1.0);
    const serve::Json* limits = pong.raw.find("limits");
    ASSERT_NE(limits, nullptr);
    EXPECT_EQ(limits->find("max_inflight")->as_number(), 17.0);
    EXPECT_EQ(limits->find("max_inflight_per_connection")->as_number(), 5.0);
    EXPECT_EQ(limits->find("max_line_bytes")->as_number(),
              static_cast<double>(1 << 16));
  }
  server.stop();
}

// ------------------------------------------ session client: id matching

TEST(ServeSession, RepliesMatchByIdNotByOrder) {
  with_server(serve::ServiceOptions{}, [](serve::Client& client,
                                          serve::Server&) {
    // Pipeline two requests, await them in reverse order: the session
    // must hand each await its own reply, whatever order they arrived.
    const std::uint64_t first = client.send(
        std::string("{\"kind\":\"point\",\"p\":0.25,") + kTinyModel + "}");
    const std::uint64_t second = client.send("{\"kind\":\"ping\"}");
    ASSERT_NE(first, second);
    const serve::Reply pong = client.await(second);
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_EQ(pong.kind, "ping");
    const serve::Reply point = client.await(first);
    ASSERT_TRUE(point.ok) << point.error;
    EXPECT_EQ(point.kind, "point");
    EXPECT_EQ(point.raw.find("id")->as_number(),
              static_cast<double>(first));

    // A caller-chosen numeric id is preserved, and the stamp counter
    // skips past it so later ids cannot collide.
    const serve::Reply chosen = client.request("{\"id\":40,\"kind\":\"ping\"}");
    ASSERT_TRUE(chosen.ok);
    EXPECT_EQ(chosen.raw.find("id")->as_number(), 40.0);
    const std::uint64_t next = client.send("{\"kind\":\"ping\"}");
    EXPECT_GT(next, 40u);
    ASSERT_TRUE(client.await(next).ok);

    // Error replies still echo the id, so pipelined failures match too.
    const serve::Reply broken = client.request("{\"kind\":\"frobnicate\"}");
    EXPECT_FALSE(broken.ok);
    ASSERT_NE(broken.raw.find("id"), nullptr);
  });
}

// ---------------------------------------- transport limits: busy replies

TEST(ServeTransport, InflightCapReturnsBusy) {
  // A blocking executor under the builtin "point" kind: requests park in
  // the in-flight slot until released, making the cap deterministic.
  std::mutex gate_mutex;
  std::condition_variable gate_cv;
  bool gate_open = false;
  std::atomic<int> started{0};
  engine::ExecutorRegistry registry;
  registry.add("point", [&](const engine::GenericJob&,
                            const engine::ExecContext&) {
    started.fetch_add(1);
    std::unique_lock<std::mutex> lock(gate_mutex);
    gate_cv.wait(lock, [&] { return gate_open; });
    engine::GenericResult result;
    result.payload = "held artifact";
    return result;
  });

  serve::ServerOptions options;
  options.port = 0;
  options.max_inflight = 1;
  options.workers = 2;
  options.service.threads = 2;
  serve::Server server(options, registry);
  const std::map<std::string, double> before = scraped_families();
  server.start();
  {
    serve::Client client("127.0.0.1", server.port());
    const std::uint64_t held =
        client.send("{\"kind\":\"point\",\"p\":0.1,\"d\":1,\"f\":1}");
    // Wait until the first request actually occupies the in-flight slot
    // (dispatch is asynchronous); only then is the refusal deterministic.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (started.load() == 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(started.load(), 1);

    const std::uint64_t refused =
        client.send("{\"kind\":\"point\",\"p\":0.2,\"d\":1,\"f\":1}");
    const serve::Reply busy = client.await(refused);
    EXPECT_FALSE(busy.ok);
    EXPECT_EQ(busy.code, "busy");
    EXPECT_NE(busy.error.find("server in-flight limit"), std::string::npos)
        << busy.error;

    // The transport counted the refusal and the stats reply reports it.
    EXPECT_GE(server.transport_stats().busy.value(), 1u);

    {
      std::lock_guard<std::mutex> lock(gate_mutex);
      gate_open = true;
    }
    gate_cv.notify_all();
    const serve::Reply first = client.await(held);
    ASSERT_TRUE(first.ok) << first.error;
    EXPECT_EQ(first.body, "held artifact");

    const serve::Reply stats = client.request("{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok);
    const serve::Json* transport = stats.raw.find("transport");
    ASSERT_NE(transport, nullptr);
    EXPECT_GE(transport->find("busy")->as_number(), 1.0);
    EXPECT_GE(transport->find("accepted")->as_number(), 1.0);
  }
  server.stop();
  expect_transport_families_moved(server, before);
}

TEST(ServeTransport, NegativeInflightCapsAreRejected) {
  serve::ServerOptions options;
  options.port = 0;
  options.max_inflight = -1;
  EXPECT_THROW(serve::Server{options}, support::InvalidArgument);
  options.max_inflight = 0;
  options.max_inflight_per_connection = -7;
  EXPECT_THROW(serve::Server{options}, support::InvalidArgument);
}

TEST(ServeTransport, NonFiniteOrNegativeIdleTimeoutIsRejected) {
  serve::ServerOptions options;
  options.port = 0;
  for (const double seconds :
       {std::numeric_limits<double>::infinity(), -1.0,
        std::numeric_limits<double>::quiet_NaN()}) {
    options.idle_timeout_seconds = seconds;
    EXPECT_THROW(serve::Server{options}, support::InvalidArgument) << seconds;
  }
}

TEST(ServeTransport, HugeIdleTimeoutStillAnswersParseablePing) {
  // 1e7 s is past INT_MAX milliseconds: the reactor must still poll at its
  // 1 s cap, and ping must carry the limit as a JSON number.
  serve::ServerOptions options;
  options.port = 0;
  options.idle_timeout_seconds = 1e7;
  serve::Server server(options);
  server.start();
  {
    serve::Client client("127.0.0.1", server.port());
    const serve::Reply pong = client.ping();
    ASSERT_TRUE(pong.ok) << pong.error;
    const serve::Json* limits = pong.raw.find("limits");
    ASSERT_NE(limits, nullptr);
    EXPECT_EQ(limits->find("idle_timeout_seconds")->as_number(), 1e7);
  }
  server.stop();
}

// ----------------------------------------- transport: idle + reconnects

TEST(ServeTransport, IdleConnectionsAreClosedAndSessionsReconnect) {
  serve::ServerOptions options;
  options.port = 0;
  options.idle_timeout_seconds = 0.15;
  serve::Server server(options);
  const std::map<std::string, double> before = scraped_families();
  server.start();
  {
    serve::Client client("127.0.0.1", server.port());
    ASSERT_TRUE(client.ping().ok);
    // Go idle past the timeout: the reactor must close the connection
    // without any client help.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.live_connections() > 0 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    EXPECT_EQ(server.live_connections(), 0u);
    EXPECT_GE(server.transport_stats().idle_closed.value(), 1u);

    // The session notices the dead connection on its next use and
    // reconnects transparently (capped retries, jittered backoff).
    EXPECT_EQ(client.reconnects(), 0u);
    const serve::Reply pong = client.ping();
    ASSERT_TRUE(pong.ok) << pong.error;
    EXPECT_GE(client.reconnects(), 1u);

    const serve::Reply stats = client.request("{\"kind\":\"stats\"}");
    ASSERT_TRUE(stats.ok);
    EXPECT_GE(stats.raw.find("transport")->find("idle_closed")->as_number(),
              1.0);
  }
  server.stop();
  expect_transport_families_moved(server, before);
}

// ------------------------------- transport: partial writes and framing

/// A raw blocking socket (no client-side protocol help): the tests drive
/// byte-level framing with it.
struct RawSocket {
  explicit RawSocket(int port) {
    fd = ::socket(AF_INET, SOCK_STREAM, 0);
    EXPECT_GE(fd, 0);
    sockaddr_in address{};
    address.sin_family = AF_INET;
    address.sin_port = htons(static_cast<std::uint16_t>(port));
    ::inet_pton(AF_INET, "127.0.0.1", &address.sin_addr);
    EXPECT_EQ(::connect(fd, reinterpret_cast<const sockaddr*>(&address),
                        sizeof(address)),
              0);
  }
  ~RawSocket() {
    if (fd >= 0) ::close(fd);
  }
  void send_bytes(const std::string& bytes) {
    ASSERT_EQ(::send(fd, bytes.data(), bytes.size(), 0),
              static_cast<ssize_t>(bytes.size()));
  }
  std::string read_line() {
    std::string line;
    char byte = 0;
    while (::recv(fd, &byte, 1, 0) == 1) {
      if (byte == '\n') return line;
      line.push_back(byte);
    }
    ADD_FAILURE() << "connection closed before a reply line";
    return line;
  }
  std::string read_all() {
    std::string all;
    char chunk[4096];
    for (;;) {
      const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
      if (n <= 0) return all;
      all.append(chunk, static_cast<std::size_t>(n));
    }
  }
  int fd = -1;
};

TEST(ServeTransport, ByteAtATimeFramingAndPartialHttpSniff) {
  with_server(serve::ServiceOptions{}, [](serve::Client&,
                                          serve::Server& server) {
    // One byte per segment: the reactor sees the request as 16 partial
    // reads and must frame it exactly once.
    {
      RawSocket socket(server.port());
      const std::string request = "{\"kind\":\"ping\"}\n";
      for (const char byte : request) {
        socket.send_bytes(std::string(1, byte));
      }
      const serve::Json reply = serve::Json::parse(socket.read_line());
      EXPECT_TRUE(reply.find("ok")->as_bool());
    }
    // The HTTP bugfix: a lone 'G' first read must not be classified until
    // the method prefix is decidable — the rest of the request arrives a
    // syscall later and must still be answered as HTTP.
    {
      RawSocket socket(server.port());
      socket.send_bytes("G");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      socket.send_bytes("ET /healthz HTTP/1.0\r\n\r\n");
      const std::string response = socket.read_all();
      EXPECT_NE(response.find("HTTP/1.0 200 OK"), std::string::npos)
          << response;
      EXPECT_NE(response.find("\r\n\r\nok\n"), std::string::npos) << response;
    }
    // And the mirror image: a lone '{' then the rest as NDJSON.
    {
      RawSocket socket(server.port());
      socket.send_bytes("{");
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
      socket.send_bytes("\"kind\":\"ping\"}\n");
      const serve::Json reply = serve::Json::parse(socket.read_line());
      EXPECT_TRUE(reply.find("ok")->as_bool());
    }
  });
}

TEST(ServeTransport, OversizedLinesAreRefusedAndTheConnectionClosed) {
  serve::ServerOptions options;
  options.port = 0;
  options.max_line_bytes = 1024;
  serve::Server server(options);
  server.start();
  {
    RawSocket socket(server.port());
    socket.send_bytes(std::string(4096, 'x'));  // no newline, over the cap
    const std::string all = socket.read_all();  // error reply, then close
    EXPECT_NE(all.find("\"ok\":false"), std::string::npos) << all;
    EXPECT_NE(all.find("exceeds"), std::string::npos) << all;
  }
  server.stop();
}

// ---------------------------------------- transport: many-connection soak

TEST(ServeTransport, ManyConnectionsSoak) {
  serve::ServerOptions options;
  options.port = 0;
  options.max_inflight = 4096;
  serve::Server server(options);
  server.start();
  {
    // Far more concurrent sockets than worker threads, all held open at
    // once, each pipelining several requests — plus a half-written
    // straggler that completes only after the whole fleet was served
    // (interleaved partial writes must not confuse per-connection
    // framing).
    constexpr int kConnections = 256;
    constexpr int kDepth = 3;
    const std::string request =
        std::string("{\"kind\":\"point\",\"p\":0.3,") + kTinyModel + "}";

    RawSocket straggler(server.port());
    const std::string full = request + "\n";
    straggler.send_bytes(full.substr(0, full.size() / 2));

    std::deque<serve::Client> sessions;
    std::vector<std::vector<std::uint64_t>> ids(kConnections);
    for (int c = 0; c < kConnections; ++c) {
      sessions.emplace_back("127.0.0.1", server.port());
      for (int r = 0; r < kDepth; ++r) {
        ids[static_cast<std::size_t>(c)].push_back(
            sessions.back().send(r == 0 ? request : "{\"kind\":\"ping\"}"));
      }
    }
    std::string body;
    int replies = 0;
    for (int c = 0; c < kConnections; ++c) {
      for (const std::uint64_t id : ids[static_cast<std::size_t>(c)]) {
        const serve::Reply reply =
            sessions[static_cast<std::size_t>(c)].await(id);
        ASSERT_TRUE(reply.ok) << reply.error;
        if (reply.kind == "point") {
          if (body.empty()) body = reply.body;
          EXPECT_EQ(reply.body, body) << "served bodies must be identical";
        }
        replies += 1;
      }
    }
    EXPECT_EQ(replies, kConnections * kDepth);
    // Every session answered, so every socket is reactor-owned by now —
    // all concurrently open (none were closed yet).
    EXPECT_GE(server.transport_stats().connections.value(), kConnections);
    EXPECT_GE(server.transport_stats().accepted.value(),
              static_cast<std::uint64_t>(kConnections) + 1);

    // The straggler's second half still frames correctly after 768
    // interleaved requests on 256 other connections.
    straggler.send_bytes(full.substr(full.size() / 2));
    const serve::Json late = serve::Json::parse(straggler.read_line());
    EXPECT_TRUE(late.find("ok")->as_bool());
  }
  server.stop();
  EXPECT_EQ(server.live_connections(), 0u);
}

TEST(ServeHttp, FinishedConnectionsAreReapedEagerly) {
  with_server(serve::ServiceOptions{}, [](serve::Client& client,
                                          serve::Server& server) {
    ASSERT_TRUE(client.request("{\"kind\":\"ping\"}").ok);
    {
      serve::Client extra("127.0.0.1", server.port());
      ASSERT_TRUE(extra.request("{\"kind\":\"ping\"}").ok);
      http_get(server.port(), "/healthz");  // HTTP connections reap too
    }
    // Both short-lived connections must be joined promptly — without a
    // new connection arriving to trigger any lazy cleanup. Only the
    // outer client's connection may remain.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (server.live_connections() > 1 &&
           std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_EQ(server.live_connections(), 1u);
    ASSERT_TRUE(client.request("{\"kind\":\"ping\"}").ok);
  });
}

}  // namespace
