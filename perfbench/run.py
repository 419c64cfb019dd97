#!/usr/bin/env python3
"""Benchmark command: builds perfbench/ from source, runs one workload and
prints one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run from the repository root. The build goes to $CARGO_TARGET_DIR (default
.bench_build); traces go to .bench_out/. With --trace 0 the result holds
every end-to-end metric named in BENCHMARK.json, with --trace 1 every
per-layer metric. Exit code 0 only when every correctness gate held.
See perfbench/NOTES.md for the workloads, metrics and gates.
"""
import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
# Set-up is measured in this many separate measuring processes (the timed
# run is one of them); setup_s is their median.
SETUP_SAMPLES = 3
BUILD_TIMEOUT_S = 850
RUN_BUDGET_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build(build_dir):
    """Configure and build pb_measure and ba_node; False on any failure."""
    env = dict(os.environ)
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = os.path.abspath(tmp)
    configure = ["cmake", "-S", HERE, "-B", build_dir,
                 "-DCMAKE_BUILD_TYPE=Release"]
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        try:
            subprocess.run(["ninja", "--version"], capture_output=True,
                           check=True)
            configure += ["-G", "Ninja"]
        except (OSError, subprocess.CalledProcessError):
            pass
    steps = [configure,
             ["cmake", "--build", build_dir, "-j", "4", "--target",
              "pb_measure", "ba_node"]]
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                                  stderr=subprocess.STDOUT, env=env,
                                  timeout=max(1, deadline - time.monotonic()))
        except (OSError, subprocess.TimeoutExpired) as exc:
            log(f"build failed: {exc}")
            return False
        if proc.returncode != 0:
            log(proc.stdout.decode(errors="replace")[-4000:])
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_measure(cmd, timeout_s):
    """Runs pb_measure in its own process group (it spawns ba_node
    processes) and returns its parsed result line, or None."""
    t0 = time.monotonic_ns()
    proc = subprocess.Popen(cmd + ["--t0-ns", str(t0)], stdout=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, _ = proc.communicate(timeout=max(1, timeout_s))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        log(f"pb_measure timed out after {timeout_s:.0f} s")
        return None
    finally:
        try:
            os.killpg(proc.pid, signal.SIGKILL)  # stragglers in its group
        except ProcessLookupError:
            pass
    lines = out.decode(errors="replace").strip().splitlines()
    if not lines:
        log(f"pb_measure printed nothing (exit {proc.returncode})")
        return None
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        log(f"pb_measure printed no result line (exit {proc.returncode})")
        return None
    if proc.returncode != 0:
        result["correct"] = False
    return result


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        log(f"unknown workload {args.workload}")
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    build_dir = os.path.abspath(
        os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build"))
    if not build(build_dir):
        return 2
    start = time.monotonic()  # the run budget starts after the build

    measure = [os.path.join(build_dir, "pb_measure"),
              "--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds), "--trace", str(args.trace),
              "--node-bin", os.path.join(build_dir, "ba_node")]
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    trace_file = os.path.join(out_dir,
                              f"trace-{args.workload}-seed{args.seed}.json")
    if args.trace:
        measure += ["--trace-out", trace_file]

    setups, results = [], []
    if not args.trace:
        for _ in range(SETUP_SAMPLES - 1):
            r = run_measure(measure + ["--setup-only"],
                           RUN_BUDGET_S - (time.monotonic() - start))
            if r is None:
                return 1
            results.append(r)
            setups.append(r["setup_s"])
    main_run = run_measure(measure, RUN_BUDGET_S - (time.monotonic() - start))
    if main_run is None:
        return 1
    results.append(main_run)
    setups.append(main_run["setup_s"])

    errors = [e for r in results for e in r.get("errors", [])]
    metrics = main_run["metrics"]
    if not args.trace:
        metrics["setup_s"]["value"] = statistics.median(setups)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        errors.append("missing metrics: " + ", ".join(missing))
    for m in wanted:
        got = metrics.get(m["name"])
        if got is not None and got["unit"] != m["unit"]:
            errors.append(f"unit of {m['name']} is {got['unit']}, "
                          f"BENCHMARK.json says {m['unit']}")
    correct = all(r["correct"] for r in results) and not errors
    for e in errors:
        log(f"ERROR: {e}")
    for r in results:
        for n in r.get("notes", []):
            log(f"failed instance: {n}")

    info = dict(main_run.get("info", {}))
    if args.trace:
        info["trace_file"] = os.path.relpath(trace_file, ROOT)
    else:
        info["setup_samples_s"] = setups
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": correct,
        "attempted": main_run["attempted"],
        "failed": main_run["failed"],
        "metrics": {m["name"]: metrics[m["name"]] for m in wanted
                    if m["name"] in metrics},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
