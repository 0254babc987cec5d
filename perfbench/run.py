#!/usr/bin/env python3
"""Repo benchmark: builds the library and the benchmark binaries from
source, runs one workload, checks its outputs and prints its metrics.

  python3 perfbench/run.py --workload serve_cascade --seed 1 \
      --seconds 20 --trace 0

--trace 0 runs timed repetitions, each in its own process, until
--seconds have passed, and prints every end-to-end metric. --trace 1
runs the traced build once and prints every per-layer metric. The last
line of stdout is one JSON object:
{"correct": bool, "attempted": n, "failed": n, "metrics": {...}}.
The exit code is 0 when every output check passed, 1 when one failed,
and 2 when the benchmark could not build or run at all.
See perfbench/README.md for the metrics and workloads.
"""

import argparse
import json
import os
import subprocess
import sys
import threading
import time

import benchlib

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
WORKLOADS = ("fleet_stress", "serve_cascade", "map_churn")
# A run must end within this many seconds; children still running at
# the deadline are killed and reported as failed.
RUN_DEADLINE_S = 170.0


def log(message):
    print(message, flush=True)


def build():
    """Configures and builds both binaries; returns (ok, error text)."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        return False, "no library sources at %s" % os.path.join(ROOT, "src")
    steps = [
        ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "-j", "4", "--target",
         "metaai_perfbench", "metaai_perfbench_traced"],
    ]
    for step in steps:
        proc = subprocess.run(step, stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT, text=True)
        if proc.returncode != 0:
            return False, proc.stdout[-4000:]
    return True, ""


def run_child(binary, args, deadline):
    """Runs one repetition; returns a benchlib.Child. The child is
    killed, and reported as timed out, if it outlives `deadline`."""
    proc = subprocess.Popen(
        [os.path.join(BUILD_DIR, binary)] + args, stdout=subprocess.PIPE,
        text=True)
    timed_out = threading.Event()

    def kill():
        timed_out.set()
        proc.kill()

    timer = threading.Timer(max(1.0, deadline - time.monotonic()), kill)
    timer.start()
    events = []
    try:
        for line in proc.stdout:
            line = line.strip()
            if line:
                events.append(json.loads(line))
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        timer.cancel()
    return benchlib.Child(proc.returncode, events,
                          peak_rss_kb=usage.ru_maxrss,
                          timed_out=timed_out.is_set())


def print_checks(checks):
    for name, passed, detail in checks:
        log("check %-28s %s  (%s)" % (name, "ok" if passed else "FAILED",
                                      detail))
    return all(passed for _, passed, _ in checks)


def print_metrics(table, metrics):
    out = {}
    for name, unit, better, clock in table:
        value = metrics.get(name)
        if value is None:
            continue
        out[name] = {"value": value, "unit": unit}
        log("metric %-34s %16.6f %-6s %s clock, %s is better" %
            (name, value, unit, clock, better))
    return out


def timed(workload, seed, seconds, deadline):
    start = time.monotonic()
    children = []
    while True:
        child = run_child("metaai_perfbench",
                          ["--mode", "timed", "--workload", workload,
                           "--seed", str(seed)], deadline)
        children.append(child)
        result = child.event("result")
        log("repetition %d: %s%s" % (
            len(children), child.describe(),
            "" if result is None else
            "  req/s %.2f  setup %s s  deploy %s s  rss %.1f MB" % (
                result["served"] / result["serve_s"],
                " ".join("%.3f" % x for x in result["setup_s"]),
                " ".join("%.3f" % x for x in result["deploy_s"]),
                child.peak_rss_kb / 1024.0)))
        elapsed = time.monotonic() - start
        # Stop at the measuring budget, or when another repetition as
        # long as the mean so far would pass the deadline.
        if (elapsed >= seconds or
                time.monotonic() + elapsed / len(children) > deadline):
            break
    metrics, info, checks = benchlib.summarize_timed(children)
    first = next((c.event("result") for c in children
                  if c.event("result") is not None), {})
    log("metadata " + json.dumps(
        {k: first.get(k) for k in ("nproc", "compiler", "build_type",
                                   "simd_level", "threads", "metaai_obs")}
        | {"seed": seed, "workload": workload}))
    for key, value in info.items():
        log("info %-28s %s" % (key, value))
    correct = print_checks(checks)
    out = print_metrics(benchlib.END_TO_END, metrics)
    return correct, info["attempted"], info["failed"], out


def traced(workload, seed, deadline):
    spans_dir = os.path.join(BUILD_DIR, "spans")
    os.makedirs(spans_dir, exist_ok=True)
    spans_path = os.path.join(spans_dir, "%s-%d.jsonl" % (workload, seed))
    common = ["--workload", workload, "--seed", str(seed)]
    traced_child = run_child(
        "metaai_perfbench_traced",
        ["--mode", "traced", "--spans-out", spans_path] + common, deadline)
    micro_child = run_child("metaai_perfbench", ["--mode", "micro"] + common,
                            deadline)
    attempted = traced_child.submitted() or 1
    dead = [(name, c) for name, c in (("traced", traced_child),
                                      ("micro", micro_child)) if not c.ok]
    if dead:
        for name, child in dead:
            log("child %s: %s" % (name, child.describe()))
        return False, attempted, attempted, {}
    traced_line = traced_child.event("traced")
    micro_line = micro_child.event("micro")
    with open(spans_path) as f:
        spans = [json.loads(line) for line in f if line.strip()]
    metrics, checks = benchlib.summarize_traced(traced_line, micro_line,
                                                spans)
    log("metadata " + json.dumps(
        {k: micro_line.get(k) for k in ("nproc", "compiler", "build_type",
                                        "simd_level", "threads",
                                        "metaai_obs")}
        | {"seed": seed, "workload": workload}))
    log("info spans %d written to %s" % (len(spans), spans_path))
    for name, (self_s, count) in sorted(
            benchlib.self_time_by_name(spans).items()):
        log("self %-30s %12.6f s over %d spans" % (name, self_s, count))
    for key in ("prefix_requests", "prefix_1t_s", "prefix_4t_s",
                "prefix_digest_1t", "prefix_digest_4t", "fleet.shards",
                "replay_symbols", "deploy_s", "setup_s"):
        log("info %-28s %s" % (key, traced_line.get(key)))
    correct = print_checks(checks)
    out = print_metrics(benchlib.PER_LAYER, metrics)
    return correct, attempted, 0 if correct else attempted, out


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ok, error = build()
    if not ok:
        print("perfbench: build failed:\n" + error, file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        log("== %s seed %d trace %d" % (name, args.seed, args.trace))
        deadline = time.monotonic() + RUN_DEADLINE_S
        if args.trace:
            correct, attempted, failed, metrics = traced(name, args.seed,
                                                         deadline)
        else:
            correct, attempted, failed, metrics = timed(
                name, args.seed, args.seconds, deadline)
        summary["correct"] = summary["correct"] and correct
        summary["attempted"] += attempted
        summary["failed"] += failed
        if len(names) == 1:
            summary["metrics"] = metrics
        else:
            summary["metrics"].update(
                {name + "." + k: v for k, v in metrics.items()})
    print(json.dumps(summary), flush=True)
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
