#!/usr/bin/env python3
"""Self-test of the benchmark, and the one command that runs every kept
workload. Run from the repository root:

    python3 perfbench/selftest.py [WORKLOAD ...]

For every workload (default: all in BENCHMARK.json) it makes one short
untraced and one short traced run with the same seed, prints every metric
with its unit, and checks that
  * each run is correct and emits exactly the metrics BENCHMARK.json names
    for it, each with its unit and a numeric value;
  * the trace file parses as Chrome trace-event JSON, has one instance span
    per traced instance, and every phase, level and round span lies inside
    an instance span with the same instance id;
  * core.ae_total_bits + core.a2e_total_bits equals total_bits_good, and
    the traced run's max_bits_good and total_bits_good equal the untraced
    run's.
Finally it checks that the command fails without printing a result in a
directory holding only BENCHMARK.json and perfbench/. Exit code 0 when
every check passed.
"""
import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7
NESTED = ("phase", "level", "round")

failures = []


def check(cond, msg):
    if not cond:
        failures.append(msg)
        print(f"FAIL: {msg}", flush=True)
    return cond


def run(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "1",
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=900)
    return proc


def parse(proc, what):
    lines = proc.stdout.strip().splitlines()
    if not check(proc.returncode == 0 and len(lines) >= 2,
                 f"{what}: exit {proc.returncode}\n{proc.stderr[-2000:]}"):
        return None, None
    return json.loads(lines[-1]), json.loads(lines[-2])["info"]


def check_metrics(result, wanted, what):
    check(result["correct"] is True, f"{what}: correct is not true")
    check(isinstance(result["attempted"], int) and result["attempted"] >= 1,
          f"{what}: attempted must be a whole number >= 1")
    check(isinstance(result["failed"], int), f"{what}: failed not a number")
    names = [m["name"] for m in wanted]
    check(sorted(result["metrics"]) == sorted(names),
          f"{what}: metric set differs from BENCHMARK.json")
    for m in wanted:
        got = result["metrics"].get(m["name"], {})
        check(got.get("unit") == m["unit"],
              f"{what}: {m['name']} unit {got.get('unit')} != {m['unit']}")
        check(isinstance(got.get("value"), (int, float)),
              f"{what}: {m['name']} has no numeric value")


def check_trace(path, instances, what):
    try:
        with open(path) as f:
            trace = json.load(f)
    except (OSError, ValueError) as exc:
        check(False, f"{what}: trace file unreadable: {exc}")
        return
    events = trace.get("traceEvents")
    if not check(isinstance(events, list), f"{what}: no traceEvents list"):
        return
    spans = [e for e in events if e.get("ph") == "X"]
    for e in spans:
        check(all(k in e for k in ("name", "ts", "dur", "pid", "tid")),
              f"{what}: span without name/ts/dur/pid/tid: {e}")
    roots = {}
    for e in spans:
        if e.get("cat") == "instance":
            roots[e["args"]["instance"]] = (e["ts"], e["ts"] + e["dur"])
    check(len(roots) == instances,
          f"{what}: {len(roots)} instance spans, {instances} instances")
    eps = 1e-3  # timestamps are printed to the nanosecond
    for e in spans:
        if e.get("cat") not in NESTED:
            continue
        box = roots.get(e["args"]["instance"])
        check(box is not None and box[0] - eps <= e["ts"] and
              e["ts"] + e["dur"] <= box[1] + eps,
              f"{what}: {e['name']} span lies outside its instance")


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = sys.argv[1:] or [w["name"] for w in bench["workloads"]]
    for wl in workloads:
        print(f"== {wl}", flush=True)
        plain, _ = parse(run(wl, 0), f"{wl} untraced")
        traced, info = parse(run(wl, 1), f"{wl} traced")
        if plain is None or traced is None:
            continue
        for result in (plain, traced):
            for name, m in result["metrics"].items():
                print(f"  {name} = {m['value']:.6g} {m['unit']}")
        check_metrics(plain, bench["end_to_end"], f"{wl} untraced")
        check_metrics(traced, bench["per_layer"], f"{wl} traced")
        check_trace(os.path.join(ROOT, info["trace_file"]),
                    traced["attempted"], f"{wl} trace")
        pm = plain["metrics"]
        tm = traced["metrics"]
        phases = (tm["core.ae_total_bits"]["value"] +
                  tm["core.a2e_total_bits"]["value"])
        check(math.isclose(phases, pm["total_bits_good"]["value"],
                           rel_tol=1e-12),
              f"{wl}: per-phase bits {phases} != total_bits_good "
              f"{pm['total_bits_good']['value']}")
        for key in ("max_bits_good", "total_bits_good"):
            check(info[key] == pm[key]["value"],
                  f"{wl}: traced {key} {info[key]} != untraced "
                  f"{pm[key]['value']}")

    print("== bare directory", flush=True)
    bare = os.path.join(ROOT, ".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = dict(os.environ, CARGO_TARGET_DIR=os.path.join(bare, ".bench_build"))
    proc = run(workloads[0], 0, cwd=bare, env=env)
    check(proc.returncode != 0, "bare directory: command succeeded")
    check('"metrics"' not in proc.stdout, "bare directory: printed a result")
    shutil.rmtree(bare, ignore_errors=True)

    print("selftest:", "FAILED" if failures else "passed", flush=True)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
