#!/usr/bin/env python3
"""Builds and runs the repository benchmark, and compares result sets.

Run one workload (the last stdout line is the JSON result):
    python3 perfbench/run.py --workload browse --seed 1 --seconds 50 --trace 0

Run every workload in turn:
    python3 perfbench/run.py --workload all --seed 1

Compare two result sets (directories of result files written by runs):
    python3 perfbench/run.py compare BASE_DIR CHANGE_DIR

The benchmark is compiled from ../src into .bench_build/ at the checkout
root; result files and traces go to .bench_out/.
"""

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build")
OUT_DIR = os.path.join(ROOT, ".bench_out")
BINARY = os.path.join(BUILD_DIR, "cbfww_perfbench")
WORKLOADS = ["browse", "fleet"]
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; build output to stderr."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(BUILD_DIR, "Makefile")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "-j", jobs])
    for cmd in steps:
        result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
        if result.returncode != 0:
            print("perfbench: build failed: " + " ".join(cmd), file=sys.stderr)
            sys.exit(1)


def source_version():
    """`git describe --always --dirty` of the checkout, or "unknown"."""
    try:
        out = subprocess.run(["git", "-C", ROOT, "describe", "--always",
                              "--dirty"], capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def stop_group(proc):
    """SIGKILLs what is left of the run's process group (all of it on a
    timeout; the forked nodes of a run that crashed), reaps the binary and
    waits, up to 5 s, until the group is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 5.0
    try:
        while time.monotonic() < deadline:
            os.killpg(proc.pid, 0)
            time.sleep(0.05)
    except ProcessLookupError:
        pass


def run_one(workload, seed, seconds, trace, out_dir):
    """Runs the binary, echoing its stdout. Returns (exit code, last JSON).
    The binary and the nodes it forks get a process group of their own,
    which is killed when the run exceeds RUN_TIMEOUT_S."""
    env = dict(os.environ, CBFWW_GIT_COMMIT=source_version())
    cmd = [BINARY, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace),
           "--out-dir", out_dir]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=env,
                            start_new_session=True)
    lines = []

    def pump():
        for line in proc.stdout:
            sys.stdout.write(line)
            sys.stdout.flush()
            lines.append(line)

    reader = threading.Thread(target=pump, daemon=True)
    reader.start()
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        code = None
    stop_group(proc)
    reader.join(timeout=5.0)
    proc.stdout.close()
    if code is None:
        print("perfbench: run timed out", file=sys.stderr)
        return 1, None
    last = next((l for l in reversed(lines) if l.startswith("{")), None)
    return code, last


def run_all(args):
    """Every workload in turn, then one combined JSON line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    worst = 0
    for workload in WORKLOADS:
        code, last = run_one(workload, args.seed, args.seconds, args.trace,
                             args.out_dir)
        worst = worst or code
        if last is None:
            combined["correct"] = False
            continue
        result = json.loads(last)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][workload + "." + name] = metric
    print(json.dumps(combined))
    return worst


# ----- compare -----

def load_results(directory):
    """{(workload, metric): [values]} and {(workload, metric): [samples]}
    over the untraced result files in `directory`."""
    values, samples = {}, {}
    for name in sorted(os.listdir(directory)):
        if not name.endswith("-trace0.json"):
            continue
        with open(os.path.join(directory, name)) as f:
            result = json.load(f)
        for metric, entry in result["metrics"].items():
            key = (result["workload"], metric)
            values.setdefault(key, []).append(entry["value"])
            samples.setdefault(key, []).append(
                result.get("samples", {}).get(metric, 0))
    return values, samples


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def classify(base, change, bound, lower_is_better):
    """improved / unchanged / worse / unresolved: a gain needs the change
    to win 9 of 10 pairs by more than the base's own quartile spread; a
    regression is a median worse by more than the bound; a spread wider
    than the bound is unresolved unless every change run beats every base
    run."""
    if len(base) < 2 or len(change) < 2:
        return "unresolved"
    sign = 1.0 if lower_is_better else -1.0
    b1, bm, b3 = quartiles(base)
    c1, cm, c3 = quartiles(change)
    better = lambda c, b: sign * (b - c) > 0
    wins = sum(better(c, b) for c in change for b in base)
    losses = sum(better(b, c) for c in change for b in base)
    pairs = wins + losses
    all_better = all(better(c, b) for c in change for b in base)
    if (pairs > 0 and wins >= 0.9 * len(base) * len(change)
            and better(cm, bm) and abs(cm - bm) > (b3 - b1)):
        return "improved"
    spread = max((b3 - b1) / abs(bm) if bm else 0.0,
                 (c3 - c1) / abs(cm) if cm else 0.0)
    if spread > bound and not all_better:
        return "unresolved"
    if bm and sign * (cm - bm) / abs(bm) > bound:
        return "worse"
    return "unchanged"


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    base, base_n = load_results(args.base)
    change, change_n = load_results(args.change)
    workloads = sorted({w for w, _ in base} | {w for w, _ in change})
    header = "%-28s %-11s %-33s %-33s %-10s" % (
        "metric", "workload", "base median [q1, q3] runs", "change median "
        "[q1, q3] runs", "label")
    print(header)
    counts = {}
    for m in spec["end_to_end"]:
        for w in workloads:
            key = (w, m["name"])
            if key not in base and key not in change:
                continue
            b, c = base.get(key, []), change.get(key, [])
            label = classify(b, c, m["bound"], m["better"] == "lower")
            counts[label] = counts.get(label, 0) + 1

            def cell(v, n):
                if not v:
                    return "-"
                q1, med, q3 = quartiles(v)
                return "%.4g [%.4g, %.4g] %d (n~%d)" % (
                    med, q1, q3, len(v), statistics.median(n) if n else 0)
            print("%-28s %-11s %-33s %-33s %-10s" % (
                m["name"], w, cell(b, base_n.get(key, [])),
                cell(c, change_n.get(key, [])), label))
    print("summary: " + ", ".join("%s=%d" % kv for kv in sorted(counts.items())))
    return 0


def main():
    if len(sys.argv) > 1 and sys.argv[1] == "compare":
        parser = argparse.ArgumentParser(prog="run.py compare")
        parser.add_argument("base")
        parser.add_argument("change")
        return compare(parser.parse_args(sys.argv[2:]))

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=50)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--out-dir", default=OUT_DIR)
    args = parser.parse_args()
    build()
    if args.workload == "all":
        return run_all(args)
    code, _ = run_one(args.workload, args.seed, args.seconds, args.trace,
                      args.out_dir)
    return code


if __name__ == "__main__":
    sys.exit(main())
