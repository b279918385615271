// selfish-mining — unified command-line front end to the library.
//
//   selfish-mining analyze   --p=0.3 --gamma=0.5 --d=2 --f=2
//   selfish-mining sweep     --gamma=0.5 --d=2 --f=2 --pmax=0.3 --step=0.05
//   selfish-mining threshold --gamma=0.5 --d=2 --f=2
//   selfish-mining simulate  --p=0.3 --gamma=0.5 --d=2 --f=2 --steps=500000
//   selfish-mining network   --scenario=single-optimal --runs=8 --threads=0
//   selfish-mining export    --p=0.3 --gamma=0.5 --d=2 --f=1 --prefix=out
//   selfish-mining baselines --p=0.3 --gamma=0.5
//   selfish-mining serve     --port=7077 --threads=0 --cache-dir=cache
//   selfish-mining query     --port=7077 --kind=threshold --gamma=0.5 --d=2
//   selfish-mining query     '{"kind":"metrics"}'
//
// Every subcommand accepts --help. Options may also come from the
// SELFISH_* environment (see support::Options).
#include <atomic>
#include <chrono>
#include <thread>
#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <memory>
#include <vector>

#include "analysis/algorithm1.hpp"
#include "analysis/policy_stats.hpp"
#include "analysis/render.hpp"
#include "analysis/strategy_io.hpp"
#include "analysis/sweep.hpp"
#include "baselines/eyal_sirer.hpp"
#include "baselines/honest.hpp"
#include "baselines/single_tree.hpp"
#include "engine/engine.hpp"
#include "engine/kinds.hpp"
#include "fleet/auth.hpp"
#include "fleet/router.hpp"
#include "mdp/export.hpp"
#include "net/batch.hpp"
#include "net/scenario.hpp"
#include "obs/flight.hpp"
#include "obs/log.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "selfish/build.hpp"
#include "selfish/cache.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sim/strategies.hpp"
#include "support/check.hpp"
#include "support/csv.hpp"
#include "support/options.hpp"
#include "support/table.hpp"
#include "support/timer.hpp"

namespace {

/// --help and the observability flags, which every subcommand but
/// baselines and query takes. --trace-out: obs spans (solves, engine
/// jobs, simulator runs, served requests) append NDJSON records to the
/// file for the lifetime of the process (the in-memory flight recorder
/// runs regardless). --log-level / --log-out: structured NDJSON logging
/// (stderr by default). All observe-only — the command's stdout artifact
/// is byte-identical with or without them.
void declare_common_options(support::Options& options) {
  options.declare("help", "false", "show this command's options");
  options.declare("trace-out", "",
                  "write obs trace spans (NDJSON, one per span) to this "
                  "file; empty = tracing off (the in-memory flight "
                  "recorder stays on)");
  options.declare("log-level", "info",
                  "structured log threshold: off | error | warn | info | "
                  "debug");
  options.declare("log-out", "",
                  "write structured NDJSON log lines to this file; "
                  "empty = stderr");
}

void apply_trace_option(const support::Options& options) {
  const std::string path = options.get_string("trace-out");
  if (!path.empty()) obs::open_trace(path);
  obs::set_log_level(obs::parse_log_level(options.get_string("log-level")));
  const std::string log_path = options.get_string("log-out");
  if (!log_path.empty()) obs::open_log(log_path);
}

/// Parses argv and handles --help; returns true when the command should
/// proceed (false = help was printed). Opens the trace sink when the
/// command declared --trace-out and the user set it.
bool parse_or_help(support::Options& options, int argc,
                   const char* const* argv) {
  options.parse(argc, argv);
  if (options.get_bool("help")) {
    std::fputs(options.usage(std::string("selfish-mining ") + argv[0]).c_str(),
               stderr);
    return false;
  }
  if (options.knows("trace-out")) apply_trace_option(options);
  return true;
}

/// Declares --threads for commands whose solves run one at a time (the
/// kernel fans each Bellman sweep over the workers; sweep's --threads
/// fans its grid points out instead, and its per-solve threads stay at 1).
void declare_solver_threads(support::Options& options) {
  options.declare("threads", "0",
                  "Bellman-sweep worker threads per mean-payoff solve "
                  "(0 = all cores); results are bit-identical at any count");
}

/// The options of the commands that build and solve one model themselves
/// (analyze, simulate, export): the schema fields of `fields`, --cache,
/// --threads and the common options.
template <typename... Fields>
void declare_model_command(support::Options& options,
                           const Fields&... fields) {
  (engine::declare_options(options, fields), ...);
  options.declare("cache", "",
                  "binary model cache file: reused when valid, written "
                  "after a fresh build (worthwhile for d >= 3)");
  declare_solver_threads(options);
  declare_common_options(options);
}

/// Builds the model, via the on-disk cache when --cache is set.
selfish::SelfishModel model_from(const support::Options& options,
                                 const selfish::AttackParams& params) {
  const std::string cache = options.get_string("cache");
  return cache.empty() ? selfish::build_model(params)
                       : selfish::build_or_load_model(params, cache);
}

int cmd_analyze(int argc, const char* const* argv) {
  support::Options options;
  engine::PointQuery query;
  declare_model_command(options, query);
  options.declare("save-strategy", "",
                  "write the computed strategy to this file");
  if (!parse_or_help(options, argc, argv)) return 0;
  engine::read_options(options, query);
  query.analysis.solver.threads = options.get_int("threads");

  query.analysis.validate();  // before the build, which may take seconds
  const auto model = model_from(options, query.params);
  const auto result = analysis::analyze(model, query.analysis);

  // Shared renderer: `query --kind=point` replies reuse it, which is what
  // makes served responses byte-identical to this output.
  std::fputs(analysis::render_analysis_report(query.params, model, result,
                                              query.stats)
                 .c_str(),
             stdout);
  const std::string path = options.get_string("save-strategy");
  if (!path.empty()) {
    std::ofstream out(path);
    SM_REQUIRE(out.good(), "cannot open ", path);
    analysis::save_strategy(model, result.policy, out);
    std::printf("strategy saved to %s\n", path.c_str());
  }
  return 0;
}

int cmd_sweep(int argc, const char* const* argv) {
  support::Options options;
  engine::SweepQuery query;
  engine::declare_options(options, query);
  options.declare("threads", "1",
                  "engine worker threads (0 = all cores); the grid points "
                  "are solved in parallel, with byte-identical output at "
                  "any count");
  options.declare("cache-dir", "",
                  "experiment-engine result store: a killed sweep resumes "
                  "from its completed grid points, reruns are served from "
                  "cache, and the CSV is byte-identical either way");
  declare_common_options(options);
  if (!parse_or_help(options, argc, argv)) return 0;
  engine::read_options(options, query);
  const auto grid =
      analysis::linspace_grid(query.p_min, query.p_max, query.step);

  engine::EngineOptions engine_options;
  engine_options.cache_dir = options.get_string("cache-dir");
  engine_options.threads = options.get_int("threads");
  engine::Engine engine(engine_options);

  const support::Timer timer;
  const auto sweep =
      analysis::sweep_p(query.base, grid, query.analysis, engine);
  analysis::write_sweep_csv(sweep, std::cout);

  // The CSV on stdout is the deterministic artifact; volatile run stats
  // go to stderr.
  std::size_t cached = 0;
  double solve_seconds = 0.0;
  for (const auto& point : sweep.points) {
    cached += point.cached ? 1 : 0;
    solve_seconds += point.seconds;
  }
  std::fprintf(stderr,
               "sweep: %zu points (%zu from cache), %.3f s solve time, "
               "%.3f s wall\n",
               sweep.points.size(), cached, solve_seconds, timer.seconds());
  return 0;
}

/// threshold and upper-bound: the kind's job, read through the same
/// schema visit as a request and rendered by its registered executor —
/// the served code path.
int cmd_job(const std::string& kind_name, int argc, const char* const* argv) {
  const engine::JobKind& kind = *engine::find_job_kind(kind_name);
  support::Options options;
  engine::OptionFields declare = engine::OptionFields::declaring(options);
  kind.visit(declare);  // the default job it returns is unused
  declare_solver_threads(options);
  declare_common_options(options);
  if (!parse_or_help(options, argc, argv)) return 0;

  engine::OptionFields read = engine::OptionFields::reading(options);
  const engine::GenericJob job = kind.visit(read);
  engine::ExecContext context;
  context.threads = options.get_int("threads");
  std::fputs(kind.run(job, context).payload.c_str(), stdout);
  return 0;
}

int cmd_simulate(int argc, const char* const* argv) {
  support::Options options;
  selfish::AttackParams params;
  analysis::AnalysisOptions analysis_options;
  declare_model_command(options, params, analysis_options);
  options.declare("steps", "500000", "mining steps");
  options.declare("seed", "42", "simulation seed");
  options.declare("strategy", "optimal",
                  "optimal | honest | never-release, or a strategy file "
                  "saved by `analyze --save-strategy`");
  if (!parse_or_help(options, argc, argv)) return 0;
  engine::read_options(options, params);
  engine::read_options(options, analysis_options);
  analysis_options.solver.threads = options.get_int("threads");
  const int steps = options.get_int("steps");
  SM_REQUIRE(steps > 0, "--steps must be positive, got ", steps);
  const std::string which = options.get_string("strategy");
  if (which == "optimal") analysis_options.validate();

  const auto model = model_from(options, params);

  mdp::Policy policy;
  std::unique_ptr<sim::Strategy> strategy;
  if (which == "optimal") {
    policy = analysis::analyze(model, analysis_options).policy;
    strategy = std::make_unique<sim::MdpPolicyStrategy>(model, policy);
  } else if (which == "honest" || which == "never-release") {
    strategy = sim::make_builtin_strategy(which);
  } else {
    policy = analysis::load_strategy_file(model, which);
    strategy = std::make_unique<sim::MdpPolicyStrategy>(model, policy);
  }

  sim::SimulationOptions sim_options;
  sim_options.steps = static_cast<std::uint64_t>(steps);
  sim_options.warmup_steps = sim_options.steps / 20;
  sim_options.seed =
      engine::checked_count("seed", options.get_double("seed"));
  const auto result = sim::simulate(params, *strategy, sim_options);

  std::printf("empirical ERRev = %.5f over %llu finalized blocks "
              "(chain quality %.5f)\n",
              result.errev,
              static_cast<unsigned long long>(result.revenue.total()),
              result.revenue.chain_quality());
  std::printf("events: %llu releases, %llu overrides, races won/lost "
              "%llu/%llu, %llu wasted blocks\n",
              static_cast<unsigned long long>(result.releases),
              static_cast<unsigned long long>(result.overrides),
              static_cast<unsigned long long>(result.races_won),
              static_cast<unsigned long long>(result.races_lost),
              static_cast<unsigned long long>(result.adversary_blocks_wasted));
  for (const std::size_t window : {20u, 100u}) {
    const auto quality = chain::window_quality(result.final_owners, window);
    std::printf("(mu, l=%zu)-chain quality: worst %.3f, average %.3f\n",
                window, quality.worst, quality.average);
  }
  return 0;
}

int cmd_network(int argc, const char* const* argv) {
  support::Options options;
  engine::NetBatchQuery query;
  engine::declare_options(options, query);
  options.declare("threads", "0", "worker threads (0 = all cores)");
  options.declare("csv", "false", "emit CSV instead of a table");
  options.declare("cache-dir", "",
                  "experiment-engine result store for the per-point "
                  "Algorithm 1 preparations (reruns skip re-analysis)");
  declare_common_options(options);
  if (!parse_or_help(options, argc, argv)) {
    std::fputs(("\nscenario families:\n" + net::scenario_help()).c_str(),
               stderr);
    return 0;
  }
  engine::read_options(options, query);
  SM_REQUIRE(query.options.blocks > 0, "--blocks must be positive, got ",
             query.options.blocks);

  net::BatchOptions batch_options;
  batch_options.runs_per_scenario = query.runs;
  batch_options.threads = options.get_int("threads");
  batch_options.base_seed = query.seed;
  batch_options.epsilon = query.epsilon;
  batch_options.cache_dir = options.get_string("cache-dir");

  const auto aggregates = net::run_batch(
      net::make_scenarios(query.scenario, query.options), batch_options);

  if (options.get_bool("csv")) {
    net::write_batch_csv(aggregates, std::cout);
    return 0;
  }
  support::Table table({"scenario", "variant", "attacker share", "ci95",
                        "stale rate", "eff. gamma", "predicted ERRev",
                        "races", "worst prop", "relays", "syncs", "cut"});
  for (const auto& agg : aggregates) {
    table.add_row(
        {agg.name, agg.variant,
         support::format_double(agg.attacker_share.mean(), 5),
         support::format_double(agg.attacker_share.ci95_halfwidth(), 5),
         support::format_double(agg.stale_rate.mean(), 4),
         agg.effective_gamma.count() == 0
             ? "-"
             : support::format_double(agg.effective_gamma.mean(), 4),
         agg.predicted_errev == agg.predicted_errev
             ? support::format_double(agg.predicted_errev, 5)
             : "-",
         std::to_string(agg.total_races),
         support::format_double(agg.worst_propagation.mean(), 2),
         std::to_string(agg.total_relays),
         std::to_string(agg.total_syncs),
         std::to_string(agg.total_cut_sends)});
  }
  table.print(std::cout);
  return 0;
}

int cmd_export(int argc, const char* const* argv) {
  support::Options options;
  selfish::AttackParams params;
  analysis::AnalysisOptions analysis_options;
  declare_model_command(options, params, analysis_options);
  options.declare("prefix", "selfish_model", "output file prefix");
  options.declare("beta", "-1",
                  "beta for the reward file; -1 = computed ERRev bound");
  if (!parse_or_help(options, argc, argv)) return 0;
  engine::read_options(options, params);
  engine::read_options(options, analysis_options);
  analysis_options.solver.threads = options.get_int("threads");
  double beta = options.get_double("beta");
  if (beta < 0.0) analysis_options.validate();

  const auto model = model_from(options, params);
  if (beta < 0.0) {
    analysis_options.evaluate_exact_errev = false;
    beta = analysis::analyze(model, analysis_options).beta_lo;
  }
  const std::string prefix = options.get_string("prefix");
  const auto write = [&](const char* suffix, auto&& writer) {
    std::ofstream out(prefix + suffix);
    SM_REQUIRE(out.good(), "cannot open ", prefix, suffix);
    writer(out);
  };
  write(".tra", [&](std::ostream& o) { mdp::export_tra(model.mdp, o); });
  write(".lab", [&](std::ostream& o) { mdp::export_lab(model.mdp, o); });
  write(".rew",
        [&](std::ostream& o) { mdp::export_rew(model.mdp, beta, o); });
  std::printf("wrote %s.tra/.lab/.rew (beta = %.6f, %u states)\n",
              prefix.c_str(), beta, model.mdp.num_states());
  return 0;
}

int cmd_baselines(int argc, const char* const* argv) {
  support::Options options;
  options.declare("help", "false", "show this command's options");
  options.declare("p", "0.3", "adversary's relative resource");
  options.declare("gamma", "0.5", "tie-race switching probability");
  if (!parse_or_help(options, argc, argv)) return 0;
  const double p = options.get_double("p");
  const double gamma = options.get_double("gamma");

  support::Table table({"baseline", "ERRev"});
  table.add_row({"honest mining",
                 support::format_double(baselines::honest_errev(p), 6)});
  table.add_row(
      {"single-tree NaS (l=4, f=5)",
       support::format_double(baselines::single_tree_errev(p, gamma), 6)});
  if (p < 0.5) {
    table.add_row({"Eyal-Sirer PoW selfish mining",
                   support::format_double(
                       baselines::eyal_sirer_revenue({p, gamma}), 6)});
  }
  table.print(std::cout);
  return 0;
}

std::atomic<serve::Server*> g_server{nullptr};

/// SIGINT/SIGTERM: leave the accept loop. request_stop only touches an
/// atomic and calls shutdown(2) — async-signal-safe. The handlers are
/// deregistered before Server::stop() closes the listening fd, so the
/// handler can never shut down a recycled descriptor.
void handle_stop_signal(int) {
  serve::Server* server = g_server.load();
  if (server != nullptr) server->request_stop();
}

std::atomic<bool> g_flight_dump_requested{false};

/// SIGUSR1: dump the flight recorder. The handler only sets a flag
/// (async-signal-safe — the dump allocates); a watcher thread in
/// cmd_serve performs the actual NDJSON write to stderr.
void handle_dump_signal(int) { g_flight_dump_requested.store(true); }

int cmd_serve(int argc, const char* const* argv) {
  support::Options options;
  options.declare("host", "127.0.0.1",
                  "bind address (loopback by default; pair a non-loopback "
                  "bind with --auth-secret-file)");
  options.declare("port", "7077", "TCP port (0 = ephemeral)");
  options.declare("threads", "0",
                  "concurrent jobs (0 = all cores); bounds simultaneous "
                  "solves regardless of connection count");
  options.declare("job-threads", "1",
                  "worker threads inside each job (total CPU ~ threads x "
                  "job-threads; raise for few-client, latency-sensitive "
                  "use)");
  options.declare("cache-dir", "",
                  "content-addressed result store shared with the batch "
                  "commands; a restarted server answers warm from it");
  options.declare("lru-mb", "64",
                  "in-memory artifact cache budget in MiB (0 disables)");
  options.declare("workers", "0",
                  "protocol worker threads between the reactor and the "
                  "job pool (0 = all cores); bounds concurrent request "
                  "handling no matter how many connections are open");
  options.declare("max-inflight", "256",
                  "global cap on dispatched-but-unanswered requests; "
                  "excess lines get an immediate `busy` reply (0 = off)");
  options.declare("max-inflight-per-conn", "32",
                  "the same cap per connection, so one pipelining client "
                  "cannot monopolize the pool (0 = off)");
  options.declare("idle-timeout", "0",
                  "seconds after which a connection with no traffic and "
                  "nothing in flight is closed (finite; 0 = never)");
  options.declare("auth-secret-file", "",
                  "shared-secret file; when set, every non-ping request "
                  "must first pass the HMAC-SHA256 ping challenge and "
                  "HTTP /metrics is refused (/healthz stays open)");
  declare_common_options(options);
  if (!parse_or_help(options, argc, argv)) return 0;

  const int lru_mb = options.get_int("lru-mb");
  SM_REQUIRE(lru_mb >= 0, "--lru-mb must be non-negative, got ", lru_mb);

  serve::ServerOptions server_options;
  server_options.host = options.get_string("host");
  server_options.port = options.get_int("port");
  server_options.workers = options.get_int("workers");
  server_options.max_inflight = options.get_int("max-inflight");
  server_options.max_inflight_per_connection =
      options.get_int("max-inflight-per-conn");
  server_options.idle_timeout_seconds = options.get_double("idle-timeout");
  server_options.auth_secret_file = options.get_string("auth-secret-file");
  server_options.service.cache_dir = options.get_string("cache-dir");
  server_options.service.threads = options.get_int("threads");
  server_options.service.job_threads = options.get_int("job-threads");
  server_options.service.lru_bytes =
      static_cast<std::size_t>(lru_mb) << 20;

  serve::Server server(server_options);
  g_server.store(&server);
  std::signal(SIGINT, handle_stop_signal);
  std::signal(SIGTERM, handle_stop_signal);
  std::signal(SIGUSR1, handle_dump_signal);
  // SIGUSR1 watcher: polls the handler's flag and dumps the flight
  // recorder to stderr (the handler itself must not allocate).
  std::atomic<bool> watcher_stop{false};
  std::thread dump_watcher([&watcher_stop] {
    while (!watcher_stop.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
      if (g_flight_dump_requested.exchange(false)) {
        const std::string dump = obs::flight_dump_ndjson();
        std::fwrite(dump.data(), 1, dump.size(), stderr);
        std::fflush(stderr);
      }
    }
  });

  // The one stdout line is the readiness handshake scripts wait for.
  std::printf("serving on %s:%d\n", server_options.host.c_str(),
              server.port());
  std::fflush(stdout);
  server.serve_forever();
  // Restore default signal disposition before stop() closes descriptors:
  // a second SIGTERM during the drain then terminates the process (the
  // conventional force-quit) instead of racing shutdown(2) against fd
  // reuse.
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  std::signal(SIGUSR1, SIG_DFL);
  g_server.store(nullptr);
  watcher_stop.store(true);
  dump_watcher.join();
  server.stop();

  const auto count = [](const obs::OwnedCounter& counter) {
    return static_cast<unsigned long long>(counter.value());
  };
  const serve::ServiceCounters& counters = server.service().counters();
  std::fprintf(stderr,
               "serve: %llu requests — %llu lru, %llu store, %llu solved, "
               "%llu coalesced, %llu errors, %llu rejected\n",
               count(counters.requests), count(counters.lru_hits),
               count(counters.store_hits), count(counters.solves),
               count(counters.coalesced), count(counters.errors),
               count(counters.rejected));
  const serve::TransportStats& transport = server.transport_stats();
  std::fprintf(stderr,
               "serve: transport — %llu connections accepted, %llu busy "
               "refusals, %llu idle closes\n",
               count(transport.accepted), count(transport.busy),
               count(transport.idle_closed));
  return 0;
}

serve::Json json_of(bool flag) { return serve::Json(flag); }
serve::Json json_of(const std::string& text) { return serve::Json(text); }
template <typename Number>
serve::Json json_of(Number number) {
  return serve::Json(static_cast<double>(number));
}

/// `query`'s front end of the job-kind schema: each field the user set
/// (flag or SELFISH_* environment) is read like the subcommands read it
/// and becomes a typed request member. Unset fields stay out of the
/// request, and the server fills them from the same initializers. JSON
/// cannot spell a non-finite number, so one is refused here.
class RequestForwarder final : public engine::FieldVisitor {
 public:
  RequestForwarder(const support::Options& options,
                   serve::JsonMembers& members)
      : options_(options), members_(members) {}

  void field(const char* name, engine::Field member,
             const char* help) override {
    if (!options_.was_set(name)) return;
    std::visit(
        [&](auto* value) {
          auto read = *value;  // the scratch query keeps its default
          engine::OptionFields::reading(options_).field(name, &read, help);
          if constexpr (std::is_same_v<decltype(read), double>) {
            SM_REQUIRE(std::isfinite(read), "--", name,
                       " must be a finite number, got ",
                       options_.get_string(name));
          }
          members_.emplace_back(name, json_of(read));
        },
        member);
  }

 private:
  const support::Options& options_;
  serve::JsonMembers& members_;
};

int cmd_query(int argc, const char* const* argv) {
  // One positional argument starting with '{' is a raw JSON request line
  // sent verbatim — `selfish-mining query '{"kind":"metrics"}'` — which
  // sidesteps the typed flags entirely. (`{` cannot collide with option
  // values: every `--name value` pair parses before this scan removes the
  // positional, and no declared option takes a JSON object.)
  std::string raw_request;
  std::vector<const char*> flag_argv;
  flag_argv.reserve(static_cast<std::size_t>(argc));
  for (int i = 0; i < argc; ++i) {
    if (i > 0 && argv[i][0] == '{') {
      SM_REQUIRE(raw_request.empty(),
                 "query takes at most one positional JSON request");
      raw_request = argv[i];
    } else {
      flag_argv.push_back(argv[i]);
    }
  }

  support::Options options;
  options.declare("help", "false", "show this command's options");
  options.declare("host", "127.0.0.1", "server address");
  options.declare("port", "7077", "server TCP port");
  options.declare("fleet", "",
                  "comma-separated host:port replica list; the request is "
                  "routed to the replica owning its job key (rendezvous "
                  "hashing) with failover past unreachable replicas — "
                  "overrides --host/--port");
  options.declare("auth-secret-file", "",
                  "shared-secret file matching the server's "
                  "--auth-secret-file; the client answers the ping "
                  "challenge before sending the request");
  options.declare("kind", "point",
                  "query kind: " + serve::kind_list() +
                      " (ignored when a positional JSON request is given)");
  options.declare("raw", "false",
                  "print the raw JSON response line instead of the body");
  options.declare("trace-id", "",
                  "1-16 hex digits attached to the request; the server "
                  "tags its spans with it and echoes it in the reply");
  // Only the chosen kind's fields are options, so --kind is resolved
  // before the full parse: a flag of another kind is then an unknown
  // option, and another kind's SELFISH_* default is never read.
  std::string kind = "point";
  if (const char* env = std::getenv("SELFISH_KIND")) kind = env;
  for (std::size_t i = 1; i < flag_argv.size(); ++i) {
    const std::string arg = flag_argv[i];
    if (arg.rfind("--kind=", 0) == 0) kind = arg.substr(7);
    if (arg == "--kind" && i + 1 < flag_argv.size()) kind = flag_argv[++i];
  }
  const engine::JobKind* job_kind = engine::find_job_kind(kind);
  if (job_kind != nullptr) {
    engine::OptionFields declare = engine::OptionFields::declaring(options);
    job_kind->visit(declare);  // the default job it returns is unused
  }
  if (!parse_or_help(options, static_cast<int>(flag_argv.size()),
                     flag_argv.data())) {
    return 0;
  }

  std::string request = raw_request;
  if (request.empty()) {
    serve::JsonMembers members;
    members.emplace_back("kind", serve::Json(options.get_string("kind")));
    if (options.was_set("trace-id")) {
      members.emplace_back("trace_id",
                           serve::Json(options.get_string("trace-id")));
    }
    if (job_kind != nullptr) {
      RequestForwarder forwarder(options, members);
      job_kind->visit(forwarder);
    }
    request = serve::Json::object(std::move(members)).dump();
  }

  serve::ClientOptions client_options;
  if (options.was_set("auth-secret-file")) {
    client_options.auth_secret =
        fleet::load_secret_file(options.get_string("auth-secret-file"));
  }

  // --fleet routes through the rendezvous-hashing router; otherwise one
  // direct session. Both paths produce byte-identical bodies.
  std::unique_ptr<fleet::Router> router;
  std::unique_ptr<serve::Client> client;
  if (options.was_set("fleet")) {
    router = std::make_unique<fleet::Router>(
        fleet::parse_endpoints(options.get_string("fleet")), client_options);
  } else {
    client = std::make_unique<serve::Client>(options.get_string("host"),
                                             options.get_int("port"),
                                             client_options);
  }

  if (options.get_bool("raw")) {
    const std::string raw = router != nullptr ? router->request_raw(request)
                                              : client->request_raw(request);
    std::printf("%s\n", raw.c_str());
    return 0;
  }
  const serve::Reply reply = router != nullptr ? router->request(request)
                                               : client->request(request);
  if (!reply.ok) {
    std::fprintf(stderr, "query error: %s\n", reply.error.c_str());
    return 1;
  }
  // The body is the byte-exact artifact; metadata goes to stderr so the
  // stdout stream can be diffed against the direct subcommand.
  std::fputs(reply.body.c_str(), stdout);
  std::fprintf(stderr, "query: kind=%s cached=%d source=%s seconds=%.3f",
               reply.kind.c_str(), reply.cached ? 1 : 0,
               reply.source.c_str(), reply.seconds);
  if (!reply.trace_id.empty()) {
    std::fprintf(stderr, " trace_id=%s", reply.trace_id.c_str());
  }
  std::fputc('\n', stderr);
  return 0;
}

void print_usage() {
  std::fprintf(
      stderr,
      "selfish-mining — automated selfish mining analysis "
      "(PODC'24 reproduction)\n\n"
      "usage: selfish-mining <command> [--option=value ...]\n\n"
      "commands:\n"
      "  analyze    run Algorithm 1 for one attack configuration\n"
      "  sweep      ERRev over a resource grid — parallel, cached, "
      "resumable (CSV)\n"
      "  threshold  locate the profitability frontier in p\n"
      "  simulate   execute a strategy in the Monte-Carlo simulator\n"
      "  network    discrete-event multi-miner network simulation "
      "(scenario x seed batches)\n"
      "  export     write the MDP in Storm explicit format\n"
      "  upper-bound certified and extrapolated bounds across fork caps\n"
      "  baselines  baseline revenues for (p, gamma)\n"
      "  serve      long-running analysis service (NDJSON over TCP; LRU + "
      "single-flight\n"
      "             over the content-addressed store)\n"
      "  query      send one request to a running server; the body printed "
      "on stdout is\n"
      "             byte-identical to the equivalent direct subcommand "
      "(--fleet routes\n"
      "             across replicas, --auth-secret-file authenticates)\n\n"
      "run a command with --help for its options.\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    print_usage();
    return 1;
  }
  const std::string command = argv[1];
  // Shift argv so subcommands parse their own options.
  const int sub_argc = argc - 1;
  const char* const* sub_argv = argv + 1;
  try {
    if (command == "analyze") return cmd_analyze(sub_argc, sub_argv);
    if (command == "sweep") return cmd_sweep(sub_argc, sub_argv);
    if (command == "threshold" || command == "upper-bound") {
      return cmd_job(command, sub_argc, sub_argv);
    }
    if (command == "simulate") return cmd_simulate(sub_argc, sub_argv);
    if (command == "network") return cmd_network(sub_argc, sub_argv);
    if (command == "export") return cmd_export(sub_argc, sub_argv);
    if (command == "baselines") return cmd_baselines(sub_argc, sub_argv);
    if (command == "serve") return cmd_serve(sub_argc, sub_argv);
    if (command == "query") return cmd_query(sub_argc, sub_argv);
    if (command == "--help" || command == "help") {
      print_usage();
      return 0;
    }
    std::fprintf(stderr, "unknown command: %s\n\n", command.c_str());
    print_usage();
    return 1;
  } catch (const std::exception& e) {
    // support::Error, and std::bad_alloc from an allocation sized by the
    // options (network --runs=2147483647 sizes its results up front).
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
