"""Pure arithmetic of the benchmark: percentiles, per-op verdicts, span
self times and the layer attribution of a traced run. No I/O here, so the
self-tests in test_perfbench.py can pin every rule."""

import json
import math
import statistics
from collections import defaultdict


def tail_percentile(n, want=99):
    """The highest whole percentile, at most `want`, with at least ten of
    `n` samples beyond it (nearest-rank), and never below the median."""
    for p in range(want, 50, -1):
        if n - math.ceil(p * n / 100) >= 10:
            return p
    return 50


def percentile(values, p):
    """Nearest-rank percentile `p` of `values`."""
    ordered = sorted(values)
    rank = max(1, math.ceil(p * len(ordered) / 100))
    return ordered[rank - 1]


def latency_summary(values):
    """(median, p-tail, tail percentile used, sample count) of `values`."""
    p = tail_percentile(len(values))
    mid = statistics.median(values)
    return mid, percentile(values, p) if p > 50 else mid, p, len(values)


# --- per-op verdicts -------------------------------------------------------


def batch_op_failed(exit_code, stdout, reference):
    """Whether one batch op (one invocation) failed: a non-zero exit code
    or a stdout that is not byte-equal to the reference."""
    return exit_code != 0 or stdout != reference


def serve_failures(plan, records, checksums):
    """Verdicts for one serve pass: a list of (plan index, reason), one
    per failed request. `plan[i]` is (body, expected status, workload)."""
    failed = []
    reference = {}
    for r in records:
        body_text = plan[r["index"]][0]
        if r["status"] == 200 and body_text not in reference and r["cache"] != "hit":
            reference[body_text] = r["body"]
    for r in records:
        body_text, expect, workload = plan[r["index"]]
        status = r["status"]
        reason = None
        if status == 0:
            reason = "transport error or timeout"
        elif status == 429 or status >= 500:
            reason = f"status {status}"
        elif status != expect:
            reason = f"status {status}, expected {expect}"
        elif status == 200:
            try:
                exit_value = json.loads(r["body"])["exit"]
            except (ValueError, KeyError, TypeError):
                exit_value = None
            want = checksums.get(workload)
            if exit_value is None or want is None or int(exit_value) != want:
                reason = f"exit {exit_value}, pinned {want}"
            elif r["body"] != reference.setdefault(body_text, r["body"]):
                reason = f"{r['cache']} body differs from the miss body"
        if reason:
            failed.append((r["index"], reason))
    return failed


# --- spans -----------------------------------------------------------------


def union_length(intervals):
    total, end = 0, None
    for s, e in sorted(intervals):
        if end is None or s > end:
            total += e - s
            end = e
        elif e > end:
            total += e - end
            end = e
    return total


def self_times(spans):
    """Span id -> duration minus the part of it covered by children on
    the same thread. A pool span's children run on worker threads, so a
    pool span keeps its whole duration."""
    kids = defaultdict(list)
    for s in spans:
        kids[s["parent"]].append(s)
    out = {}
    for s in spans:
        covered = [
            (max(c["start"], s["start"]), min(c["end"], s["end"]))
            for c in kids[s["id"]]
            if c["thread"] == s["thread"]
        ]
        out[s["id"]] = (s["end"] - s["start"]) - union_length([c for c in covered if c[1] > c[0]])
    return out


def unattributed(spans, wall):
    """Traced wall minus the self times of every main-thread span below
    the root (the span with parent 0). A pool phase counts in full: its workers' busy self time
    over the job count plus its idle share (jobs x wall - busy) / jobs
    is its wall."""
    own = self_times(spans)
    named = sum(own[s["id"]] for s in spans if s["thread"] == 0 and s["parent"] != 0)
    return wall - named


def layer_metrics(spans, counters):
    """Per-layer metrics of a traced batch run (times in seconds, as
    thread-busy time summed over workers)."""

    def dur(s):
        return s["end"] - s["start"]

    total = defaultdict(float)
    for s in spans:
        total[s["name"]] += dur(s)
    by_parent = defaultdict(dict)
    for s in spans:
        by_parent[s["parent"]][s["name"]] = s
    sink_trace = sum(
        dur(k["sim.trace"]) - dur(k["sim.fetchbuf"])
        for k in by_parent.values()
        if "sim.trace" in k and "sim.fetchbuf" in k
    )
    m = {
        "cc.compile_s": total["cc.compile"],
        "cc.compiles": counters.get("cc.compiles", 0),
        "asm.build_s": total["asm.build"],
        "sim.exec_s": total["sim.null"],
        "sim.insns": counters.get("sim.insns", 0),
        "sink.fetchbuf_s": total["sim.fetchbuf"] - total["sim.null"],
        "sink.trace_s": sink_trace,
        "sink.accesses": counters.get("sink.accesses", 0),
        "trace.validate_s": total["trace.validate"],
        "trace.records": counters.get("trace.records", 0),
        "trace.resident_mb": counters.get("trace.resident_bytes", 0) / 2**20,
        "grid.replay_s": total["grid.replay"],
        "grid.sweeps": counters.get("grid.sweeps", 0),
        "grid.records": counters.get("grid.records", 0),
        "psweep_s": total["psweep"],
        "fpusweep_s": total["fpusweep"],
        "table4_s": total["table4"],
    }
    m["sim.minsn_per_s"] = m["sim.insns"] / m["sim.exec_s"] / 1e6 if m["sim.exec_s"] else 0.0
    m["grid.ns_per_record"] = m["grid.replay_s"] * 1e9 / m["grid.records"] if m["grid.records"] else 0.0
    jobs = counters.get("jobs", 1)
    for phase in ("collect", "extended"):
        pool = [s for s in spans if s["name"] == f"pool.{phase}"]
        ids = {p["id"] for p in pool}
        busy = sum(dur(s) for s in spans if s["name"] == "cell" and s["parent"] in ids)
        m[f"pool.{phase}.busy_s"] = busy
        m[f"pool.{phase}.idle_s"] = sum(p["jobs"] * dur(p) for p in pool) - busy
    grid = [s for s in spans if s["name"] == "phase.grid"]
    m["pool.grid.busy_s"] = m["grid.replay_s"]
    m["pool.grid.idle_s"] = sum(jobs * dur(g) for g in grid) - m["grid.replay_s"]
    return m
