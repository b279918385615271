// perfbench_e2e: runs one workload of the end-to-end benchmark and writes
// its result document (metrics, correctness gate, spans) as JSON.
//
//   perfbench_e2e --workload analyze-cold|sweep-chain|serve-mix
//                 --seed N --seconds S --trace 0|1
//                 --work-dir DIR --out FILE
//
// perfbench/run.py builds and calls it; see perfbench/README.md.
#include <cstdio>
#include <exception>
#include <fstream>
#include <map>
#include <string>

#include "bench.hpp"

int main(int argc, char** argv) {
  std::map<std::string, std::string> args;
  for (int i = 1; i + 1 < argc; i += 2) args[argv[i]] = argv[i + 1];
  for (const char* required :
       {"--workload", "--seed", "--seconds", "--trace", "--work-dir", "--out"}) {
    if (args.count(required) == 0) {
      std::fprintf(stderr, "perfbench_e2e: missing %s\n", required);
      return 2;
    }
  }
  perfbench::Config config;
  config.workload = args["--workload"];
  config.seed = std::stoull(args["--seed"]);
  config.seconds = std::stod(args["--seconds"]);
  config.trace = args["--trace"] == "1";
  config.work_dir = args["--work-dir"];

  perfbench::Tracer tracer(config.trace);
  perfbench::Result result;
  try {
    if (config.workload == "analyze-cold") {
      perfbench::run_analyze_cold(config, tracer, result);
    } else if (config.workload == "sweep-chain") {
      perfbench::run_sweep_chain(config, tracer, result);
    } else if (config.workload == "serve-mix") {
      perfbench::run_serve_mix(config, tracer, result);
    } else {
      std::fprintf(stderr, "perfbench_e2e: unknown workload %s\n",
                   config.workload.c_str());
      return 2;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_e2e: %s failed: %s\n",
                 config.workload.c_str(), e.what());
    return 1;
  }
  result.metric("peak_rss_mb", perfbench::peak_rss_mb(), "MB");

  std::ofstream out(args["--out"]);
  out << result.to_json(config, tracer) << "\n";
  if (!out.good()) {
    std::fprintf(stderr, "perfbench_e2e: cannot write %s\n",
                 args["--out"].c_str());
    return 1;
  }
  return 0;
}
