#!/usr/bin/env python3
"""End-to-end benchmark of the selfish-mining analysis system.

    python3 perfbench/run.py --workload analyze-cold --seed 1 --seconds 30 --trace 0

Run from the repository root. Builds `perfbench_e2e` (the repository's
library plus the harness in perfbench/src, Release) under
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench), runs one
workload, gates its outputs, and prints a human-readable report followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are BENCHMARK.json's end_to_end set; with --trace 1
they are its per_layer set, including the layer ledger reduced from the
run's spans (perfbench/ledger.py).

Each run also records the host and build next to its figures, in
<build>/results/<workload>-seed<N>-trace<T>.json, and keeps the raw harness
output (metrics, gate, spans) beside it as .raw.json.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.dont_write_bytecode = True  # leave no __pycache__ in the source tree
import ledger  # noqa: E402

WORKLOADS = ("analyze-cold", "sweep-chain", "serve-mix")
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850

# Named end-to-end figures besides the bounded metrics, printed for the
# workload that produces them (the harness notes them).
NAMED = {
    "analyze_s": "s", "sweep_s": "s", "serve_hit_p50_ms": "ms",
    "serve_hit_p99_ms": "ms", "serve_solve_p50_ms": "ms",
    "serve_hit_rps": "1/s", "generator_late_p99_ms": "ms",
    "wall_batch_s": "s", "wall_setup_s": "s", "host_probe_us": "us",
}


def fail(message, code):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    base = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not base.is_absolute():
        base = ROOT / base
    return base / "perfbench"


def build(out):
    """Configures (once) and builds perfbench_e2e; returns its path."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no source tree at {ROOT} (CMakeLists.txt and src/ are "
             "needed to build the harness)", 2)
    cache = out / "CMakeCache.txt"
    if cache.exists() and f"CMAKE_HOME_DIRECTORY:INTERNAL={HERE}\n" not in \
            cache.read_text():
        shutil.rmtree(out)  # configured for another checkout
    out.mkdir(parents=True, exist_ok=True)
    steps = []
    if not cache.exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(out), "--target", "perfbench_e2e",
                  "-j", str(os.cpu_count() or 1)])
    log = out / "build.log"
    with open(log, "w") as fh:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=fh, stderr=subprocess.STDOUT,
                                      timeout=BUILD_TIMEOUT_S).returncode
            except (OSError, subprocess.TimeoutExpired) as error:
                fail(f"build step {step[:2]} failed: {error}", 3)
            if code != 0:
                sys.stderr.write(log.read_text()[-4000:])
                fail(f"build failed (log: {log})", 3)
    return out / "perfbench_e2e"


def read_text(path):
    try:
        return Path(path).read_text()
    except OSError:
        return ""


def host_and_build(out):
    """The named host and build every result is recorded with."""
    cpuinfo = read_text("/proc/cpuinfo")
    field = lambda key: next(  # noqa: E731
        (line.split(":", 1)[1].strip() for line in cpuinfo.splitlines()
         if line.startswith(key)), "")
    flags = set(field("flags").split())
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level = read_text(index / "level").strip()
        kind = read_text(index / "type").strip()
        size = read_text(index / "size").strip()
        if level and size:
            caches.append(f"L{level}{kind[:1].lower() if kind != 'Unified' else ''} {size}")
    compiler = ""
    for spec in sorted(out.glob("CMakeFiles/*/CMakeCXXCompiler.cmake")):
        text = spec.read_text()
        grab = lambda key: text.split(f'set({key} "', 1)[1].split('"', 1)[0] \
            if f'set({key} "' in text else ""  # noqa: E731
        compiler = f"{grab('CMAKE_CXX_COMPILER_ID')} {grab('CMAKE_CXX_COMPILER_VERSION')}"
    cache = {}
    for line in read_text(out / "CMakeCache.txt").splitlines():
        if "=" in line and ":" in line.split("=", 1)[0]:
            key, value = line.split("=", 1)
            cache[key.split(":", 1)[0]] = value
    commit = ""
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                                    capture_output=True, text=True,
                                    timeout=10).stdout.strip()
        except (OSError, subprocess.TimeoutExpired):
            commit = ""
    digest = hashlib.sha256()
    for path in sorted([ROOT / "CMakeLists.txt", *(ROOT / "src").rglob("*"),
                        *(HERE / "src").rglob("*"), HERE / "CMakeLists.txt"]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {
        "host": {
            "cores": os.cpu_count(),
            "cpu_model": field("model name"),
            "avx2": "avx2" in flags,
            "avx512f": "avx512f" in flags,
            "hypervisor": "hypervisor" in flags,
            "caches": caches,
            "kernel": platform.release(),
            "mem_total": read_text("/proc/meminfo").split("\n", 1)[0]
                         .split(":", 1)[-1].strip(),
        },
        "build": {
            "compiler": compiler,
            "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
            "obs": (cache.get("SELFISH_OBS", "ON") + ", runtime "
                    + os.environ.get("SELFISH_OBS", "on")),
            "commit": commit or "unknown (not a git checkout)",
            "source_sha256": digest.hexdigest()[:16],
        },
    }


def contract():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["end_to_end"], spec["per_layer"]


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 5:
        parser.error("--seconds must be at least 5 (the open loop needs a schedule)")

    out = build_dir()
    exe = build(out)
    end_to_end, per_layer = contract()
    wanted = per_layer if args.trace else end_to_end

    results = out / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    raw_path = results / f"{stem}.raw.json"
    work = out / "work" / f"{stem}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    started = time.monotonic()
    try:
        code = subprocess.run(
            [str(exe), "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--work-dir", str(work), "--out", str(raw_path)],
            stdout=subprocess.DEVNULL, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {RUN_TIMEOUT_S} s", 4)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if code != 0:
        fail(f"perfbench_e2e exited with {code}", 4)
    elapsed = time.monotonic() - started

    raw = json.loads(raw_path.read_text())
    metrics = {name: (m["value"], m["unit"]) for name, m in raw["metrics"].items()}
    failures = list(raw["check_failures"])
    attempted, failed = int(raw["attempted"]), int(raw["failed"])
    ledger_view = None
    if args.trace:
        ledger_view = ledger.reduce(raw["spans"])
        metrics.update(ledger.metrics(ledger_view))
        metrics["bench.failed_ratio"] = (failed / max(1, attempted), "ratio")
        if ledger_view["coverage_pct"] < ledger.COVERAGE_FLOOR_PCT:
            failures.append(
                f"ledger covers {ledger_view['coverage_pct']:.2f}% of traced "
                f"wall time (< {ledger.COVERAGE_FLOOR_PCT}%)")

    known = {spec["name"] for spec in end_to_end + per_layer}
    unknown = sorted(set(metrics) - known)
    if unknown:
        fail(f"harness reported metrics BENCHMARK.json does not list: {unknown}", 5)
    reported = {}
    for spec in wanted:
        # A per-layer metric of a layer this workload does not run reads 0:
        # the predicted non-mover, stated as a number.
        if spec["name"] not in metrics and not args.trace:
            fail(f"harness did not report {spec['name']}", 5)
        value, unit = metrics.get(spec["name"], (0, spec["unit"]))
        if unit != spec["unit"]:
            fail(f"{spec['name']} reported in {unit}, contract says {spec['unit']}", 5)
        reported[spec["name"]] = {"value": value, "unit": unit}
    correct = not failures
    if not correct:
        failed = max(failed, 1)

    record = host_and_build(out)
    record.update({
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "elapsed_s": elapsed, "correct": correct,
        "attempted": attempted, "failed": failed,
        "failed_ratio": failed / max(1, attempted), "check_failures": failures,
        "metrics": reported, "notes": raw["notes"], "ledger": ledger_view,
    })
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")

    print(f"# {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} elapsed={elapsed:.1f}s")
    print("# host " + json.dumps(record["host"]))
    print("# build " + json.dumps(record["build"]))
    for name, unit in NAMED.items():
        if name in raw["notes"]:
            print(f"#   {name:<28} {raw['notes'][name]:>14.6g} {unit}")
    print(f"#   {'failed_ratio':<28} {record['failed_ratio']:>14.6g} ratio "
          f"({failed}/{attempted})")
    for name, metric in reported.items():
        print(f"#   {name:<28} {metric['value']:>14.6g} {metric['unit']}")
    for failure in failures:
        print(f"# FAILED CHECK: {failure}")
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": reported}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
