#!/usr/bin/env python3
"""Build and run the repository benchmark.

One run, as BENCHMARK.json's command gives it:

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

builds the `realtor-perfbench` package (release, offline) into
$CARGO_TARGET_DIR (default `.bench_build`) and runs one workload. The
binary prints metric names and values; this script checks them against
BENCHMARK.json, attaches the declared units, and prints the result line as
the last line of standard output. Every end-to-end metric must be measured;
a per-layer metric of a layer the workload never passes through reads 0.

Steadiness mode:

    python3 perfbench/run.py --steadiness

runs every workload on RUNS seeds for run_seconds each, waits GAP_S
seconds, and runs the same seeds again. For each end-to-end metric it
prints, per set, the median and quartiles and the spread (IQR / median),
then the shift of the second set's median in the metric's worse direction,
next to the metric's bound. A spread above its bound or a worse shift above
it is named, and makes the exit code 1 except for the spread of setup_s,
which the benchmark's acceptance rule does not bound.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
BINARY = "realtor-perfbench"
RUN_TIMEOUT_S = 170
# Seeds per set of the steadiness mode, and the pause between its two sets.
RUNS = 10
GAP_S = 60


def load_spec(path=BENCHMARK):
    with open(path) as f:
        return json.load(f)


def target_dir():
    return os.path.abspath(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def build():
    """Build the benchmark; return the binary's path or None on failure."""
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", os.path.join(HERE, "Cargo.toml")]
    if subprocess.run(cmd, env=env, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(target_dir(), "release", BINARY)


def declared(spec, trace):
    """The metrics of this mode as BENCHMARK.json lists them."""
    return spec["per_layer"] if trace else spec["end_to_end"]


def is_number(x):
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def to_result(raw, spec, trace):
    """The result line for the binary's line `raw`, with every declared
    metric of the mode and its unit. Returns (result, problems); the result
    is None when there are problems."""
    if not isinstance(raw, dict) or set(raw) != {"correct", "attempted", "failed", "metrics"}:
        return None, [f"result keys are {sorted(raw) if isinstance(raw, dict) else raw!r}"]
    problems = []
    for key in ("attempted", "failed"):
        if not isinstance(raw[key], int) or isinstance(raw[key], bool):
            problems.append(f"{key} is not a whole number")
    if isinstance(raw["attempted"], int) and raw["attempted"] < 1:
        problems.append("nothing was attempted")
    if not isinstance(raw["correct"], bool):
        problems.append("correct is not true or false")
    got = raw["metrics"] if isinstance(raw["metrics"], dict) else {}
    if got is not raw["metrics"]:
        problems.append("metrics is not an object")
    metrics = declared(spec, trace)
    names = {m["name"] for m in metrics}
    for name in sorted(set(got) - names):
        problems.append(f"metric {name} is not declared")
    for name, value in sorted(got.items()):
        if not is_number(value) or not math.isfinite(value):
            problems.append(f"metric {name} has no finite value")
    if not trace:
        for name in sorted(names - set(got)):
            problems.append(f"metric {name} is missing")
    if problems:
        return None, problems
    result = dict(raw, metrics={m["name"]: {"value": got.get(m["name"], 0), "unit": m["unit"]}
                                for m in metrics})
    return result, []


def invoke(binary, workload, seed, seconds, trace):
    """Run the binary once. Returns (exit code, stdout lines, the last line
    parsed as JSON or None)."""
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    lines = proc.stdout.splitlines()
    try:
        raw = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        raw = None
    return proc.returncode, lines, raw


def run_once(binary, spec, workload, seed, seconds, trace):
    """Run one workload. Returns (exit code, the binary's other output lines,
    result); the result is None unless the binary's last line is well formed."""
    code, lines, raw = invoke(binary, workload, seed, seconds, trace)
    if raw is None:
        return (code or 1), lines[:-1], None
    result, problems = to_result(raw, spec, trace)
    for p in problems:
        print(f"run.py: {workload}: {p}", file=sys.stderr)
    return (code if result is not None else 1), lines[:-1], result


def quartiles(values):
    """(first quartile, median, third quartile) as the acceptance check takes them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values):
    """Distance between the quartiles as a share of the median."""
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med)


def worse_shift(first, second, better):
    """How much worse the second median is than the first, as a share of it."""
    m1, m2 = statistics.median(first), statistics.median(second)
    change = (m2 - m1) / abs(m1)
    return change if better == "lower" else -change


def steadiness_report(spec, sets):
    """Lines of the steadiness table and the names of metrics out of bound.

    `sets` is a list of two dicts: workload -> metric -> list of values.
    """
    lines, exceeded = [], []
    head = f"{'workload':<20} {'metric':<22} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} {'spread':>8} {'shift':>8} {'bound':>6}  verdict"
    lines.append(head)
    for workload in [w["name"] for w in spec["workloads"]]:
        for m in spec["end_to_end"]:
            name = m["name"]
            runs = [s.get(workload, {}).get(name, []) for s in sets]
            if any(len(r) < 2 for r in runs):
                continue
            shift = worse_shift(runs[0], runs[1], m["better"])
            verdicts, out_of_bound = [], False
            for i, values in enumerate(runs):
                q1, med, q3 = quartiles(values)
                sp = spread(values)
                if sp > m["bound"]:
                    # The acceptance rule bounds the spread of every
                    # end-to-end metric but setup_s.
                    exempt = name == "setup_s"
                    verdicts.append(f"set {i + 1} spread exceeds bound" + (" (not bounded)" if exempt else ""))
                    out_of_bound = out_of_bound or not exempt
                elif sp > m["bound"] / 3:
                    verdicts.append(f"set {i + 1} spread above a third of bound")
                shift_col = f"{shift:+8.4f}" if i == len(runs) - 1 else " " * 8
                lines.append(f"{workload:<20} {name:<22} {i + 1:>3} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {sp:>8.4f} {shift_col} {m['bound']:>6}")
            if shift > m["bound"]:
                verdicts.append("second median worse than the first by more than the bound")
                out_of_bound = True
            if out_of_bound:
                exceeded.append(f"{workload}/{name}")
            lines[-1] += "  " + ("; ".join(verdicts) if verdicts else "ok")
    return lines, exceeded


def steadiness(binary, spec):
    workloads = [w["name"] for w in spec["workloads"]]
    seeds = list(range(1, RUNS + 1))
    seconds = spec["run_seconds"]
    sets = []
    for set_no in (1, 2):
        if set_no == 2:
            print(f"waiting {GAP_S} s before the second set", file=sys.stderr)
            time.sleep(GAP_S)
        values = {w: {} for w in workloads}
        for seed in seeds:
            for w in workloads:
                code, _, result = run_once(binary, spec, w, seed, seconds, False)
                if code != 0 or result is None or not result["correct"]:
                    print(f"run.py: {w} seed {seed} failed (exit {code})", file=sys.stderr)
                    return 1
                for name, m in result["metrics"].items():
                    values[w].setdefault(name, []).append(m["value"])
                print(f"set {set_no} seed {seed} {w}: " + json.dumps(result), file=sys.stderr)
        sets.append(values)
    lines, exceeded = steadiness_report(spec, sets)
    print("\n".join(lines))
    if exceeded:
        print("out of bound: " + ", ".join(exceeded))
        return 1
    print("every metric within its bound")
    return 0


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    args = parser.parse_args(argv)
    spec = load_spec()
    if not args.steadiness and (args.workload is None or args.seed is None):
        parser.error("--workload and --seed are required")
    binary = build()
    if binary is None:
        print("run.py: the benchmark did not build", file=sys.stderr)
        return 1
    if args.steadiness:
        return steadiness(binary, spec)
    seconds = args.seconds or spec["run_seconds"]
    code, lines, result = run_once(binary, spec, args.workload, args.seed, seconds, bool(args.trace))
    if lines:
        print("\n".join(lines))
    if result is not None:
        print(json.dumps(result))
    if result is None or code != 0:
        print(f"run.py: the run failed (exit {code})", file=sys.stderr)
        return code or 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
