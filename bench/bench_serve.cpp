// Load generator for the analysis service: cold-cache vs warm-cache QPS
// and latency percentiles over a repeated-query workload.
//
// An in-process server is exercised over real loopback sockets (the full
// protocol + transport stack, exactly what external clients pay). The
// workload draws query kinds round-robin from a small set of distinct
// point/threshold/sweep/upper-bound requests and repeats it; the cold
// pass starts from an empty cache directory, the warm pass replays the
// identical request stream against the populated LRU/store. The
// acceptance target (ISSUE 5) is a >= 10x warm-vs-cold speedup on the
// repeated workload.
//
// Three further phases: a soak holds hundreds of concurrent pipelined
// connections against the bounded worker pool (connections >> threads,
// zero dropped or mismatched replies); an overload burst against a small
// --max-inflight cap verifies the server answers `busy` instead of
// queueing unboundedly; and a fleet phase runs 2 (4 with --bench-full)
// replicas on one shared cache directory, fires the identical cold
// workload at every replica at once, and requires the cross-process
// lease to hold fleet-wide executions at exactly one per distinct query
// before routing a warm pass through the rendezvous-hashing router.
//
//   bench_serve [--threads=0] [--bench-full]
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdint>
#include <deque>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_common.hpp"
#include "fleet/router.hpp"
#include "obs/metrics.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "support/check.hpp"
#include "support/timer.hpp"

namespace {

namespace fs = std::filesystem;

struct Workload {
  std::vector<std::string> requests;  ///< One line each; repeated in order.
};

Workload make_workload(bool full) {
  Workload workload;
  // d=2, f=2 models: individual solves cost real time (hundreds of ms),
  // so the cold pass measures solving and the warm pass measures the
  // cache path — the ratio is the serving layer's value, not loopback
  // overhead. --bench-full deepens the attack to d=3.
  const int d = full ? 3 : 2;
  const int f = 2;
  // Distinct points across p: separate cache entries, one attack
  // configuration. The set stays small so the *repeat* factor dominates — the
  // regime an interactive dashboard or a class of users produces.
  for (const double p : {0.15, 0.25, 0.3, 0.35}) {
    workload.requests.push_back(
        "{\"kind\":\"point\",\"p\":" + std::to_string(p) +
        ",\"d\":" + std::to_string(d) + ",\"f\":" + std::to_string(f) +
        "}");
  }
  workload.requests.push_back(
      "{\"kind\":\"threshold\",\"d\":" + std::to_string(d) +
      ",\"f\":" + std::to_string(f) + "}");
  workload.requests.push_back(
      "{\"kind\":\"sweep\",\"d\":" + std::to_string(d) +
      ",\"f\":" + std::to_string(f) + ",\"pmax\":0.2}");
  workload.requests.push_back(
      "{\"kind\":\"upper-bound\",\"d\":" + std::to_string(d) +
      ",\"f\":" + std::to_string(f) + ",\"lmin\":2,\"lmax\":4}");
  return workload;
}

struct PassResult {
  double seconds = 0.0;
  std::vector<double> latencies;  ///< Per request, seconds.
};

double percentile(std::vector<double> sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t index = std::min(
      sorted.size() - 1,
      static_cast<std::size_t>(q * static_cast<double>(sorted.size())));
  return sorted[index];
}

/// Server-side view of one pass, read back through the protocol itself
/// (the `stats` admin kind) instead of parsing the server's stderr line.
struct ServerCounters {
  double requests = 0, lru = 0, store = 0, solves = 0, coalesced = 0;
};

double stat_number(const serve::Json& reply, const char* key) {
  const serve::Json* value = reply.find(key);
  SM_REQUIRE(value != nullptr, "stats reply lacks field ", key);
  return value->as_number();
}

ServerCounters server_counters(int port) {
  serve::Client client("127.0.0.1", port);
  const serve::Json reply =
      serve::Json::parse(client.request_raw("{\"kind\":\"stats\"}"));
  ServerCounters out;
  out.requests = stat_number(reply, "requests");
  out.lru = stat_number(reply, "lru_hits");
  out.store = stat_number(reply, "store_hits");
  out.solves = stat_number(reply, "solves");
  out.coalesced = stat_number(reply, "coalesced");
  return out;
}

ServerCounters delta(const ServerCounters& now, const ServerCounters& then) {
  return ServerCounters{now.requests - then.requests, now.lru - then.lru,
                        now.store - then.store, now.solves - then.solves,
                        now.coalesced - then.coalesced};
}

/// Merges the per-kind serve request-latency histograms (the server runs
/// in-process, so the global obs registry is directly readable) into one
/// distribution over the analysis kinds this workload sends. The handles
/// must match serve/protocol.cpp's registration exactly — same name,
/// help, buckets, labels — so this finds the live series instead of
/// creating empty ones.
obs::HistogramSnapshot latency_snapshot() {
  obs::HistogramSnapshot merged;
  for (const char* kind : {"point", "sweep", "threshold", "upper-bound"}) {
    const obs::HistogramSnapshot snap =
        obs::histogram("selfish_serve_request_seconds",
                       "End-to-end request latency (parse through render)",
                       obs::exponential_buckets(1e-5, 4.0, 14),
                       std::string("kind=\"") + kind + "\"")
            .snapshot();
    if (merged.counts.empty()) {
      merged = snap;
      continue;
    }
    for (std::size_t i = 0; i < snap.counts.size(); ++i) {
      merged.counts[i] += snap.counts[i];
    }
    merged.sum += snap.sum;
    merged.count += snap.count;
  }
  return merged;
}

/// The histogram delta of one pass (counts are monotonic, so
/// pass = after - before, bucket by bucket).
obs::HistogramSnapshot delta(const obs::HistogramSnapshot& now,
                             const obs::HistogramSnapshot& then) {
  obs::HistogramSnapshot out = now;
  for (std::size_t i = 0;
       i < out.counts.size() && i < then.counts.size(); ++i) {
    out.counts[i] -= then.counts[i];
  }
  out.sum -= then.sum;
  out.count -= then.count;
  return out;
}

/// Fans `clients` connections at the server; each replays the workload
/// `repeat` times, interleaved round-robin so identical queries collide
/// in flight (exercising single-flight under load).
PassResult run_pass(int port, const Workload& workload, int clients,
                    int repeat) {
  PassResult result;
  std::vector<std::vector<double>> per_client(
      static_cast<std::size_t>(clients));
  const support::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      serve::Client client("127.0.0.1", port);
      auto& latencies = per_client[static_cast<std::size_t>(c)];
      for (int r = 0; r < repeat; ++r) {
        for (const std::string& request : workload.requests) {
          const support::Timer request_timer;
          const serve::Reply reply = client.request(request);
          SM_REQUIRE(reply.ok, "query failed: ", reply.error);
          latencies.push_back(request_timer.seconds());
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  result.seconds = timer.seconds();
  for (const auto& latencies : per_client) {
    result.latencies.insert(result.latencies.end(), latencies.begin(),
                            latencies.end());
  }
  std::sort(result.latencies.begin(), result.latencies.end());
  return result;
}

/// Soak: `connections` concurrent sessions, each pipelining `depth` warm
/// requests, driven by a handful of threads (sessions are cheap; threads
/// are not — the same asymmetry the reactor exploits server-side). Every
/// reply must arrive, match its request by id, and carry a body byte-
/// identical to the reference answer for that request.
void run_soak(int port, const Workload& workload, int connections,
              int depth) {
  std::vector<std::string> expected;
  {
    serve::Client reference("127.0.0.1", port);
    for (const std::string& request : workload.requests) {
      const serve::Reply reply = reference.request(request);
      SM_REQUIRE(reply.ok, "reference query failed: ", reply.error);
      expected.push_back(reply.body);
    }
  }

  const int drivers =
      std::min(8, std::max(1, static_cast<int>(
                                  std::thread::hardware_concurrency())));
  std::atomic<int> replies{0};
  std::atomic<int> mismatched{0};
  const support::Timer timer;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(drivers));
  for (int driver = 0; driver < drivers; ++driver) {
    threads.emplace_back([&, driver] {
      // This driver's share of the sessions, all open at once.
      std::deque<serve::Client> sessions;
      std::vector<std::vector<std::pair<std::uint64_t, std::size_t>>> sent;
      for (int c = driver; c < connections; c += drivers) {
        sessions.emplace_back("127.0.0.1", port);
        sent.emplace_back();
        for (int r = 0; r < depth; ++r) {
          const std::size_t which = static_cast<std::size_t>(c * depth + r) %
                                    workload.requests.size();
          sent.back().emplace_back(
              sessions.back().send(workload.requests[which]), which);
        }
      }
      for (std::size_t s = 0; s < sessions.size(); ++s) {
        for (const auto& [id, which] : sent[s]) {
          const serve::Reply reply = sessions[s].await(id);
          SM_REQUIRE(reply.ok, "soak query failed: ", reply.error);
          if (reply.body != expected[which]) mismatched.fetch_add(1);
          replies.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const double seconds = timer.seconds();

  const int total = connections * depth;
  std::printf("soak  %d connections x %d pipelined  %d/%d replies  "
              "%d mismatched  %8.3f s  %9.1f qps\n",
              connections, depth, replies.load(), total, mismatched.load(),
              seconds, static_cast<double>(total) / seconds);
  SM_REQUIRE(replies.load() == total, "soak dropped replies: ",
             total - replies.load());
  SM_REQUIRE(mismatched.load() == 0,
             "soak saw mismatched bodies: ", mismatched.load());
}

/// Overload: a burst of distinct cold queries pipelined past a small
/// --max-inflight cap. The transport must answer the excess immediately
/// with `busy` (code "busy") instead of queueing it — and every line
/// still gets exactly one reply.
void run_overload(int threads, bool full) {
  const std::string cache_dir =
      (fs::temp_directory_path() / "bench_serve_overload").string();
  fs::remove_all(cache_dir);
  serve::ServerOptions server_options;
  server_options.port = 0;
  server_options.max_inflight = 4;
  server_options.service.cache_dir = cache_dir;
  server_options.service.threads = threads;
  serve::Server server(server_options);
  server.start();

  // Distinct cold points: no coalescing, each occupies an in-flight slot
  // for a real solve's duration, so a 16-deep burst against cap 4 must
  // overflow.
  const int d = full ? 3 : 2;
  std::vector<std::string> burst;
  for (int i = 0; i < 16; ++i) {
    burst.push_back("{\"kind\":\"point\",\"p\":" +
                    std::to_string(0.31 + 0.01 * i) +
                    ",\"d\":" + std::to_string(d) + ",\"f\":2}");
  }

  serve::Client client("127.0.0.1", server.port());
  std::vector<std::uint64_t> ids;
  for (const std::string& request : burst) ids.push_back(client.send(request));
  int busy = 0;
  int served = 0;
  for (const std::uint64_t id : ids) {
    const serve::Reply reply = client.await(id);
    if (reply.ok) {
      served += 1;
    } else {
      SM_REQUIRE(reply.code == "busy",
                 "overload reply failed without busy code: ", reply.error);
      busy += 1;
    }
  }
  std::printf("overload  %zu-deep burst @ max-inflight %d: %d served, "
              "%d busy refusals\n",
              burst.size(), server_options.max_inflight, served, busy);
  SM_REQUIRE(busy > 0, "overload burst produced no busy replies");
  SM_REQUIRE(served + busy == static_cast<int>(burst.size()),
             "overload dropped replies");
  server.stop();
  fs::remove_all(cache_dir);
}

/// Multi-replica phase: R servers share ONE cache directory, and the
/// identical cold workload is fired at *every* replica simultaneously —
/// deliberately bypassing the router so each distinct query is requested
/// R times at once, the worst case for duplicate work. The cross-process
/// lease (fleet/lease.hpp) must keep the fleet-wide execution count at
/// exactly one per distinct query; the difference R*Q - Q resolves as
/// waits and store hits. A warm pass then routes through fleet::Router.
void run_fleet(int threads, const Workload& workload, bool full) {
  const int replicas = full ? 4 : 2;
  const std::string cache_dir =
      (fs::temp_directory_path() / "bench_serve_fleet").string();
  fs::remove_all(cache_dir);

  std::vector<std::unique_ptr<serve::Server>> fleet;
  for (int r = 0; r < replicas; ++r) {
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.service.cache_dir = cache_dir;
    server_options.service.threads = threads;
    fleet.push_back(std::make_unique<serve::Server>(server_options));
    fleet.back()->start();
  }

  // Cold: one driver per replica, same request stream, started together.
  const support::Timer cold_timer;
  std::vector<std::thread> drivers;
  drivers.reserve(fleet.size());
  for (const auto& server : fleet) {
    drivers.emplace_back([&workload, port = server->port()] {
      serve::Client client("127.0.0.1", port);
      for (const std::string& request : workload.requests) {
        const serve::Reply reply = client.request(request);
        SM_REQUIRE(reply.ok, "fleet cold query failed: ", reply.error);
      }
    });
  }
  for (std::thread& thread : drivers) thread.join();
  const double cold_seconds = cold_timer.seconds();

  // Fleet-wide accounting straight from each replica's stats reply.
  double executions = 0, fleet_waits = 0, takeovers = 0;
  double solves = 0, store_hits = 0, requests = 0;
  for (const auto& server : fleet) {
    serve::Client client("127.0.0.1", server->port());
    const serve::Json reply =
        serve::Json::parse(client.request_raw("{\"kind\":\"stats\"}"));
    const serve::Json* block = reply.find("fleet");
    SM_REQUIRE(block != nullptr, "stats reply lacks the fleet block");
    executions += stat_number(*block, "executions");
    fleet_waits += stat_number(*block, "waits");
    takeovers += stat_number(*block, "takeovers");
    solves += stat_number(reply, "solves");
    store_hits += stat_number(reply, "store_hits");
    requests += stat_number(reply, "requests");
  }
  const double distinct = static_cast<double>(workload.requests.size());
  const double duplicates = solves - distinct;

  std::printf("\nfleet %d replicas, one shared store: %zu distinct queries "
              "x %d replicas cold in %.3f s\n",
              replicas, workload.requests.size(), replicas, cold_seconds);
  std::printf("      fleet-wide executions %.0f (target %.0f), "
              "%.0f duplicate solves, %.0f lease waits, %.0f takeovers, "
              "cold hit rate %5.1f%%\n",
              executions, distinct, duplicates, fleet_waits, takeovers,
              100.0 * store_hits / requests);
  SM_REQUIRE(executions == distinct && duplicates == 0,
             "cross-process single-flight leaked duplicate work: ",
             executions, " executions / ", solves, " solves for ", distinct,
             " distinct queries");

  // Warm: the full stream again, but routed — each query lands on its
  // rendezvous owner. Bodies must match the replies the cold pass saw.
  std::string csv;
  for (const auto& server : fleet) {
    if (!csv.empty()) csv += ',';
    csv += "127.0.0.1:" + std::to_string(server->port());
  }
  fleet::Router router(fleet::parse_endpoints(csv));
  std::vector<std::string> expected;
  {
    serve::Client reference("127.0.0.1", fleet.front()->port());
    for (const std::string& request : workload.requests) {
      expected.push_back(reference.request(request).body);
    }
  }
  const int repeat = full ? 16 : 8;
  const support::Timer warm_timer;
  for (int r = 0; r < repeat; ++r) {
    for (std::size_t i = 0; i < workload.requests.size(); ++i) {
      const serve::Reply reply = router.request(workload.requests[i]);
      SM_REQUIRE(reply.ok, "fleet warm query failed: ", reply.error);
      SM_REQUIRE(reply.body == expected[i],
                 "routed reply body diverged from the direct reply");
    }
  }
  const double warm_seconds = warm_timer.seconds();
  const double warm_requests =
      static_cast<double>(repeat) * static_cast<double>(
                                        workload.requests.size());
  std::printf("      warm via router: %.0f requests  %8.3f s  %9.1f qps  "
              "%llu failovers\n",
              warm_requests, warm_seconds, warm_requests / warm_seconds,
              static_cast<unsigned long long>(router.failovers()));

  for (const auto& server : fleet) server->stop();
  fs::remove_all(cache_dir);
}

/// Renders a quantile in milliseconds, or "-" when the histogram was
/// empty (quantile() returns NaN then).
std::string quantile_ms(const obs::HistogramSnapshot& hist, double q) {
  const double value = hist.quantile(q);
  if (std::isnan(value)) return "-";
  char buffer[32];
  std::snprintf(buffer, sizeof(buffer), "%8.3f", value * 1e3);
  return buffer;
}

void report(const char* label, const PassResult& pass,
            const ServerCounters& server,
            const obs::HistogramSnapshot& hist) {
  const double n = static_cast<double>(pass.latencies.size());
  std::printf("%-5s %7zu requests  %8.3f s  %9.1f qps  "
              "client p50 %8.3f ms  p99 %8.3f ms\n",
              label, pass.latencies.size(), pass.seconds, n / pass.seconds,
              percentile(pass.latencies, 0.50) * 1e3,
              percentile(pass.latencies, 0.99) * 1e3);
  // Server-side latency (parse through render, no socket round-trip)
  // straight from the serve histograms.
  if (hist.count > 0) {
    std::printf("      server p50 %s ms  p90 %s ms  p99 %s ms  "
                "(%llu observations)\n",
                quantile_ms(hist, 0.50).c_str(),
                quantile_ms(hist, 0.90).c_str(),
                quantile_ms(hist, 0.99).c_str(),
                static_cast<unsigned long long>(hist.count));
  } else {
    std::printf("      server histograms empty (obs runtime-disabled)\n");
  }
  if (server.requests > 0) {
    const double hits = server.lru + server.store + server.coalesced;
    std::printf("      cache hit rate %5.1f%%  (%.0f lru, %.0f store, "
                "%.0f coalesced, %.0f solved of %.0f requests)\n",
                100.0 * hits / server.requests, server.lru, server.store,
                server.coalesced, server.solves, server.requests);
  }
}

}  // namespace

int main(int argc, char** argv) {
  auto options = bench::standard_options(
      argc, argv,
      "bench_serve: cold vs warm QPS/latency of the analysis service\n");
  const bool full = options.get_bool("bench-full");
  const int clients = 4;
  const int repeat = full ? 16 : 8;

  bench::print_header("analysis service load (cold vs warm cache)", full);

  const std::string cache_dir =
      (fs::temp_directory_path() / "bench_serve_cache").string();
  fs::remove_all(cache_dir);

  serve::ServerOptions server_options;
  server_options.port = 0;  // ephemeral
  // Ample for the soak's pipelined burst; still bounded. The overload
  // phase below exercises a deliberately tight cap.
  server_options.max_inflight = 4096;
  server_options.max_inflight_per_connection = 64;
  server_options.service.cache_dir = cache_dir;
  server_options.service.threads = bench::thread_count(options);
  serve::Server server(server_options);
  server.start();

  const Workload workload = make_workload(full);
  std::printf("workload: %zu distinct queries x %d repeats x %d clients "
              "(port %d)\n\n",
              workload.requests.size(), repeat, clients, server.port());

  // Per-phase server-side attribution: counters via the stats reply,
  // latency via the serve histograms — both deltas across the pass.
  const ServerCounters counters0 = server_counters(server.port());
  const obs::HistogramSnapshot hist0 = latency_snapshot();

  // Cold: empty store — first arrival of each distinct query solves, its
  // repeats coalesce or hit the LRU behind it.
  const PassResult cold = run_pass(server.port(), workload, clients, repeat);
  const ServerCounters counters1 = server_counters(server.port());
  const obs::HistogramSnapshot hist1 = latency_snapshot();
  report("cold", cold, delta(counters1, counters0), delta(hist1, hist0));

  // Warm: identical stream, fully resident.
  const PassResult warm = run_pass(server.port(), workload, clients, repeat);
  const ServerCounters counters2 = server_counters(server.port());
  const obs::HistogramSnapshot hist2 = latency_snapshot();
  report("warm", warm, delta(counters2, counters1), delta(hist2, hist1));

  std::printf("\nwarm-vs-cold speedup: %.1fx (wall) / %.1fx (p50)\n",
              cold.seconds / warm.seconds,
              percentile(cold.latencies, 0.50) /
                  std::max(1e-9, percentile(warm.latencies, 0.50)));

  // Transport soak: many warm sessions against the bounded worker pool
  // (connection count an order of magnitude past the thread count).
  const int soak_connections = full ? 512 : 256;
  std::printf("\nsoak: %d connections on %d protocol workers\n",
              soak_connections,
              support::resolve_thread_count(server_options.workers));
  run_soak(server.port(), workload, soak_connections, /*depth=*/4);

  run_overload(bench::thread_count(options), full);

  run_fleet(bench::thread_count(options), workload, full);

  bench::write_metrics_snapshot(options);
  server.stop();
  fs::remove_all(cache_dir);
  return 0;
}
