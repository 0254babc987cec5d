"""Pure logic of the repo benchmark: percentiles, span self time,
child-process outcomes and the aggregation of repetitions into metrics.

Kept free of I/O so test_benchlib.py can check it without a build.
"""

import math
import signal
import statistics

# A percentile is reported only when at least this many samples lie
# beyond it (the sample count gates which tails are meaningful).
MIN_BEYOND = 10


def percentile(values, pct):
    """Nearest-rank percentile of `values`, or None when fewer than
    MIN_BEYOND samples lie beyond it."""
    n = len(values)
    if n == 0:
        return None
    # Rounding first keeps float error (99.9 / 100 * 10000) off the rank.
    rank = max(1, math.ceil(round(pct / 100.0 * n, 6)))
    if n - rank < MIN_BEYOND:
        return None
    return sorted(values)[rank - 1]


def covered_ns(intervals, lo, hi):
    """Length of the union of `intervals` clipped to [lo, hi]."""
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in intervals)
    total = 0
    cur_a = cur_b = None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times_ns(spans):
    """Self time of every span: its duration minus the part of its
    interval that its children cover (overlapping children count once).
    `spans` is a list of dicts with start_ns, end_ns and parent (an index
    into the list, or -1)."""
    children = [[] for _ in spans]
    for span in spans:
        parent = int(span["parent"])
        if parent >= 0:
            children[parent].append((span["start_ns"], span["end_ns"]))
    out = []
    for span, kids in zip(spans, children):
        lo, hi = span["start_ns"], span["end_ns"]
        out.append((hi - lo) - covered_ns(kids, lo, hi))
    return out


def self_time_by_name(spans):
    """{name: (total self seconds, span count)}."""
    totals = {}
    for span, self_ns in zip(spans, self_times_ns(spans)):
        total, count = totals.get(span["name"], (0.0, 0))
        totals[span["name"]] = (total + self_ns * 1e-9, count + 1)
    return totals


def durations_us(spans, name):
    return [(s["end_ns"] - s["start_ns"]) * 1e-3 for s in spans
            if s["name"] == name]


def signal_name(returncode):
    """'SIGSEGV' for a child killed by signal 11, else None."""
    if returncode is None or returncode >= 0:
        return None
    try:
        return signal.Signals(-returncode).name
    except ValueError:
        return "signal %d" % -returncode


class Child:
    """Outcome of one repetition run as its own process."""

    def __init__(self, returncode, events, peak_rss_kb=0, timed_out=False):
        self.returncode = returncode
        self.events = events
        self.peak_rss_kb = peak_rss_kb
        self.timed_out = timed_out

    def event(self, kind):
        for event in self.events:
            if event.get("event") == kind:
                return event
        return None

    @property
    def signal(self):
        return signal_name(self.returncode)

    @property
    def ok(self):
        return self.returncode == 0 and not self.timed_out

    def submitted(self):
        for kind in ("result", "setup"):
            event = self.event(kind)
            if event is not None and "submitted" in event:
                return int(event["submitted"])
        return None

    def describe(self):
        if self.timed_out:
            return "timed out"
        if self.signal:
            return "killed by " + self.signal
        if self.returncode != 0:
            return "exit code %d" % self.returncode
        return "ok"


def failed_counts(children):
    """(attempted, failed) requests over all repetitions. A repetition
    that died counts every request it was given as failed; when it died
    before saying how many, another repetition's count (same seed, same
    trace) stands in, and 1 when there is none."""
    known = [c.submitted() for c in children if c.submitted() is not None]
    fallback = known[0] if known else 1
    attempted = failed = 0
    for child in children:
        submitted = child.submitted()
        if submitted is None:
            submitted = fallback
        attempted += submitted
        result = child.event("result")
        if not child.ok or result is None:
            failed += submitted
        else:
            failed += submitted - int(result["answered"])
    return attempted, failed


def median(values):
    return statistics.median(values) if values else None


def summarize_timed(children):
    """Aggregates timed repetitions into (metrics, info, checks).

    metrics: end-to-end values by name (medians over repetitions for host
    timings; the virtual-clock figures are deterministic per seed).
    info: informational values (failed_share, p999, digests, counts).
    checks: [(name, passed, detail)].
    """
    finished = [c for c in children
                if c.ok and c.event("result") is not None]
    results = [c.event("result") for c in finished]
    attempted, failed = failed_counts(children)
    checks = []
    crashed = [c for c in children if not c.ok]
    checks.append(("no_repetition_died", not crashed,
                   ", ".join(c.describe() for c in crashed) or "all ran"))
    info = {"failed_share": failed / attempted if attempted else 1.0,
            "attempted": attempted, "failed": failed,
            "repetitions": len(children), "crashed": len(crashed)}
    if not results:
        checks.append(("has_results", False, "no repetition finished"))
        return {}, info, checks

    first = results[0]
    served = int(first["served"])
    metrics = {
        "requests_per_s": median([r["served"] / r["serve_s"]
                                  for r in results]),
        "setup_s": median([x for r in results for x in r["setup_s"]]),
        "deploy_s": median([x for r in results for x in r["deploy_s"]]),
        "peak_rss_mb": median([c.peak_rss_kb / 1024.0 for c in finished]),
        "accuracy": int(first["correct"]) / served if served else 0.0,
        "virt_goodput_slo_rps": first["virt_goodput_slo_rps"],
        "virt_latency_p50_ms": percentile(first["virt_latency_ms"], 50),
        "virt_latency_p99_ms": percentile(first["virt_latency_ms"], 99),
    }
    p999 = percentile(first["virt_latency_ms"], 99.9)
    info["virt_latency_p999_ms"] = p999
    info["served"] = served
    for key in ("cache_hits", "cache_misses", "cache_nearest_hits",
                "tenants", "tenants_base", "tenants_duplicate",
                "tenants_near_duplicate", "tenants_distinct", "frames"):
        info[key] = first[key]
    for key in ("digest_predictions", "digest_requests",
                "digest_timeseries", "digest_alerts"):
        info[key] = first[key]

    answered = all(int(r["answered"]) == int(r["submitted"]) and
                   int(r["rejected"]) == 0 for r in results)
    checks.append(("every_request_answered", answered,
                   "%d of %d answered" % (int(first["answered"]),
                                          int(first["submitted"]))))
    floor = float(first["accuracy_floor"])
    checks.append(("accuracy_above_floor", metrics["accuracy"] >= floor,
                   "%.4f >= %.2f" % (metrics["accuracy"], floor)))
    mismatches = sum(int(r["replay_mismatches"]) for r in results)
    checks.append(("replay_matches_served", mismatches == 0,
                   "%d mismatches in %d spot checks" %
                   (mismatches, sum(int(r["replay_checked"])
                                    for r in results))))
    deterministic = ("digest_predictions", "digest_requests",
                     "digest_timeseries", "digest_alerts",
                     "virt_goodput_slo_rps", "virt_latency_ms")
    same = all(r[k] == first[k] for r in results for k in deterministic)
    checks.append(("repetitions_identical", same,
                   "digests and virtual-clock figures across %d runs" %
                   len(results)))
    missing = [k for k, v in metrics.items() if v is None]
    checks.append(("metrics_reportable", not missing,
                   ", ".join(missing) or "all reported"))
    return metrics, info, checks


# The replayed data plane must fit in the 1-thread serve wall of the
# same requests within this share. The two are timed one after the
# other (the serve brackets the replay), so the bound absorbs the host's
# second-to-second swings, which reach +-30% on a shared 4-vCPU VM.
ACCOUNTING_BOUND = 0.5
# The decomposed replay must agree with whole ClassifyWithMargin calls
# within this share; the two alternate request by request, so host
# drift cancels and the bound can be tight.
REPLAY_AGREEMENT_BOUND = 0.1

# Shard slots reported on every workload (0.0 where a workload has fewer
# shards, so every traced run prints the same metric names).
MAX_SHARDS = 4

# (name, unit, better, clock). Clock "host" is wall time on the machine
# running the benchmark; "virtual" is the serving runtime's simulated
# clock and is identical on every machine for a given seed.
END_TO_END = [
    ("requests_per_s", "req/s", "higher", "host"),
    ("setup_s", "s", "lower", "host"),
    ("deploy_s", "s", "lower", "host"),
    ("peak_rss_mb", "MB", "lower", "host"),
    ("accuracy", "ratio", "higher", "virtual"),
    ("virt_goodput_slo_rps", "req/s", "higher", "virtual"),
    ("virt_latency_p50_ms", "ms", "lower", "virtual"),
    ("virt_latency_p99_ms", "ms", "lower", "virtual"),
]

PER_LAYER = [
    ("common.par.fanouts", "count", "lower", "host"),
    ("common.par.scaling_eff", "ratio", "higher", "host"),
    ("common.rng.complex_normal_ns", "ns", "lower", "host"),
    ("common.rng.draws_per_symbol", "count", "lower", "host"),
    ("simd.phased_sum_ns", "ns", "lower", "host"),
    ("simd.phased_sum_calls_per_symbol", "count", "lower", "host"),
    ("rf.multipath_response_ns", "ns", "lower", "host"),
    ("rf.multipath_calls_per_symbol", "count", "lower", "host"),
    ("data.encode_us", "us", "lower", "host"),
    ("sim.link.transmit_us_p50", "us", "lower", "host"),
    ("sim.link.transmit_us_p99", "us", "lower", "host"),
    ("sim.link.ns_per_symbol", "ns", "lower", "host"),
    ("sim.link.self_share", "ratio", "lower", "host"),
    ("core.deployment.classify_us_p50", "us", "lower", "host"),
    ("core.deployment.classify_us_p99", "us", "lower", "host"),
    ("core.deployment.scoring_self_us", "us", "lower", "host"),
    ("core.scheduler.frame_build_us", "us", "lower", "host"),
    ("core.train_s", "s", "lower", "host"),
    ("core.map.cold_solve_ms", "ms", "lower", "host"),
    ("core.map.warm_solve_ms", "ms", "lower", "host"),
    ("core.map.sweeps_cold", "count", "lower", "host"),
    ("core.map.sweeps_warm", "count", "lower", "host"),
    ("core.placement_us", "us", "lower", "host"),
    ("mts.cache.hit_rate", "ratio", "higher", "host"),
    ("mts.cache.nearest_hits", "count", "higher", "host"),
    ("mts.cache.misses", "count", "lower", "host"),
    ("serve.run_s", "s", "lower", "host"),
    ("serve.frames", "count", "lower", "virtual"),
    ("serve.frame_batch_mean", "count", "higher", "virtual"),
    ("serve.control_self_s", "s", "lower", "host"),
    ("serve.virt_queue_wait_p99_ms", "ms", "lower", "virtual"),
    ("serve.virt_batching_p99_ms", "ms", "lower", "virtual"),
] + [("fleet.shard_run_s.%d" % k, "s", "lower", "host")
     for k in range(MAX_SHARDS)] + [
    ("fleet.shard_overlap", "ratio", "higher", "host"),
    ("fleet.merge_s", "s", "lower", "host"),
    ("obs.overhead_share", "ratio", "lower", "host"),
    ("obs.export_ms.requests", "ms", "lower", "host"),
    ("obs.export_ms.timeseries", "ms", "lower", "host"),
    ("obs.export_ms.alerts", "ms", "lower", "host"),
    ("obs.export_mb", "MB", "lower", "host"),
    ("trace.overhead_share", "ratio", "lower", "host"),
    ("trace.accounted_share", "ratio", "higher", "host"),
]

# Values copied from the traced child's line under the same name.
_TRACED_AS_IS = (
    "common.par.fanouts", "common.par.scaling_eff",
    "common.rng.draws_per_symbol", "simd.phased_sum_calls_per_symbol",
    "rf.multipath_calls_per_symbol", "core.scheduler.frame_build_us",
    "core.train_s", "core.map.cold_solve_ms", "core.map.warm_solve_ms",
    "core.map.sweeps_cold", "core.map.sweeps_warm", "core.placement_us",
    "mts.cache.hit_rate", "mts.cache.nearest_hits", "mts.cache.misses",
    "serve.run_s", "serve.frames", "fleet.shard_overlap", "fleet.merge_s",
    "obs.overhead_share", "obs.export_ms.requests",
    "obs.export_ms.timeseries", "obs.export_ms.alerts", "obs.export_mb")


def summarize_traced(traced, micro, spans):
    """Per-layer metrics from the traced child's line, the micro child's
    line (kernel costs and the untraced serve wall) and the span log.
    Returns (metrics, checks)."""
    m = {name: traced[name] for name in _TRACED_AS_IS}
    m["common.rng.complex_normal_ns"] = micro["complex_normal_ns"]
    m["simd.phased_sum_ns"] = micro["phased_sum_ns"]
    m["rf.multipath_response_ns"] = micro["multipath_response_ns"]
    for k in range(MAX_SHARDS):
        m["fleet.shard_run_s.%d" % k] = traced.get(
            "fleet.shard_run_s.%d" % k, 0.0)

    transmit_us = durations_us(spans, "sim.link.transmit")
    classify_us = durations_us(spans, "core.classify")
    m["data.encode_us"] = median(durations_us(spans, "data.encode"))
    m["sim.link.transmit_us_p50"] = percentile(transmit_us, 50)
    m["sim.link.transmit_us_p99"] = percentile(transmit_us, 99)
    m["sim.link.ns_per_symbol"] = (sum(transmit_us) * 1e3 /
                                   traced["replay_symbols"])
    wall_1t = traced["prefix_1t_s"]
    m["sim.link.self_share"] = sum(transmit_us) * 1e-6 / wall_1t
    m["core.deployment.classify_us_p50"] = percentile(classify_us, 50)
    m["core.deployment.classify_us_p99"] = percentile(classify_us, 99)
    by_name = self_time_by_name(spans)
    scoring_s, scoring_n = by_name.get("core.classify.decomposed", (0.0, 0))
    m["core.deployment.scoring_self_us"] = (scoring_s * 1e6 / scoring_n
                                            if scoring_n else None)
    direct_s = sum(classify_us) * 1e-6
    m["serve.control_self_s"] = wall_1t - direct_s
    m["serve.frame_batch_mean"] = traced["serve.served"] / traced[
        "serve.frames"]
    m["serve.virt_queue_wait_p99_ms"] = percentile(
        traced["virt_queue_wait_ms"], 99)
    m["serve.virt_batching_p99_ms"] = percentile(
        traced["virt_batching_ms"], 99)
    m["trace.overhead_share"] = traced["serve.run_s"] / micro["run_s"] - 1.0
    decomposed_s = sum(by_name.get(name, (0.0, 0))[0] for name in (
        "replay.request", "core.classify.decomposed", "data.encode",
        "sim.link.transmit"))
    m["trace.accounted_share"] = decomposed_s / wall_1t

    checks = [("traced_checks", bool(traced["ok"]),
               traced["failures"] or "thread identity, shard and data-plane "
               "replays, warm start")]
    checks.append(("call_counters_linked", bool(traced["call_counters"]),
                   "per-symbol call counts need the traced build"))
    missing = sorted(k for k, v in m.items() if v is None)
    checks.append(("metrics_reportable", not missing,
                   ", ".join(missing) or "all reported"))
    checks.append(("replay_within_serve_wall",
                   direct_s <= (1.0 + ACCOUNTING_BOUND) * wall_1t,
                   "data plane %.3f s vs 1-thread serve %.3f s" %
                   (direct_s, wall_1t)))
    checks.append(("decomposed_matches_direct",
                   abs(decomposed_s - direct_s) <=
                   REPLAY_AGREEMENT_BOUND * direct_s,
                   "decomposed %.3f s vs whole calls %.3f s" %
                   (decomposed_s, direct_s)))
    return m, checks
