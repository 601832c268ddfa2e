#!/usr/bin/env python3
"""The repository benchmark: one command, two workloads, every output
checked. See perfbench/README.md for the workloads, the metrics and the
layer map.

    python3 perfbench/run.py --workload repro-cold --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. It builds the shipped `repro` and
`d16-serve` binaries and the benchmark's own harness (into
$CARGO_TARGET_DIR, default .bench_build), measures the workload for
--seconds, prints a report, and prints as its last line one JSON object
{"correct", "attempted", "failed", "metrics"}. --trace 0 reports the
end-to-end metrics; --trace 1 redoes the work through each layer's entry
points and reports the per-layer metrics. Exit codes: 0 measured (failed
ops are counted, not fatal), 1 the benchmark itself could not run, 2 not
a checkout of this repository or bad arguments.
"""

import argparse
import http.client
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import perfstats  # noqa: E402
import servemix  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
WORK = ".perfbench-work"
# Every run must end within this many seconds of starting to measure.
RUN_LIMIT_S = 170
# Preparations timed per run for `setup_s` on repro-cold, and the pause
# after each. A run meets its one preparation after other work, not in a
# hot loop, so the timed ones are spaced apart; spacing also spreads them
# over half a second of the host's load instead of one instant, which
# keeps the median of these sub-millisecond file operations steadier.
SETUP_REPS = 101
SETUP_GAP_S = 0.005
# Simulated instructions of the 156 grid cells of `repro --all`, which
# the traced run must reproduce exactly.
REPRO_COLD_INSNS = 661476642

END_TO_END = {
    "wall_s": "s",
    "sim_minsn_per_s": "Minsn/s",
    "p50_ms": "ms",
    "p99_ms": "ms",
    "req_per_s": "1/s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}
PER_LAYER = {
    "cc.compile_s": "s", "cc.compiles": "count", "asm.build_s": "s",
    "sim.exec_s": "s", "sim.insns": "count", "sim.minsn_per_s": "Minsn/s",
    "sink.fetchbuf_s": "s", "sink.trace_s": "s", "sink.accesses": "count",
    "trace.validate_s": "s", "trace.records": "count", "trace.resident_mb": "MB",
    "grid.replay_s": "s", "grid.sweeps": "count", "grid.records": "count",
    "grid.ns_per_record": "ns",
    "pool.collect.busy_s": "s", "pool.collect.idle_s": "s",
    "pool.extended.busy_s": "s", "pool.extended.idle_s": "s",
    "pool.grid.busy_s": "s", "pool.grid.idle_s": "s",
    "psweep_s": "s", "fpusweep_s": "s", "table4_s": "s",
    "store.hits": "count", "store.misses": "count", "store.writes": "count",
    "store.hit_ratio": "ratio",
    "serve.service_hit_ms": "ms", "serve.service_miss_ms": "ms", "serve.wait_ms": "ms",
    "serve.compile_s": "s", "serve.execute_s": "s", "serve.sweep_s": "s", "serve.shed": "count",
    "traced_wall_s": "s", "unattributed_s": "s", "trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def nproc():
    return len(os.sched_getaffinity(0))


def target_dir():
    return os.environ.get("CARGO_TARGET_DIR", ".bench_build")


def binary(name):
    return os.path.join(target_dir(), "release", name)


def build():
    env = dict(os.environ, CARGO_TARGET_DIR=target_dir())
    for cmd in (
        ["cargo", "build", "--release", "--offline", "--bin", "repro", "--bin", "d16-serve"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         os.path.join(os.path.relpath(HERE), "harness", "Cargo.toml")],
    ):
        if subprocess.run(cmd, env=env, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            raise BenchError(f"build failed: {' '.join(cmd)}")


def fresh_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


class Deadline:
    def __init__(self, seconds):
        self.end = time.perf_counter() + seconds

    def left(self):
        return self.end - time.perf_counter()


def spawn_wait(argv, out_path, err_path, timeout):
    """Runs argv to completion; returns (exit code, wall s, peak RSS MB).
    A process still running after `timeout` seconds is killed."""
    t0 = time.perf_counter()
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        p = subprocess.Popen(argv, stdout=out, stderr=err)
    timer = threading.Timer(max(timeout, 0.1), p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    wall = time.perf_counter() - t0
    p.returncode = os.waitstatus_to_exitcode(status)
    return p.returncode, wall, usage.ru_maxrss / 1024


def checksums():
    """The registry's pinned checksum of every workload, read from the
    harness so that the benchmark keeps no copy of its own."""
    path = os.path.join(WORK, "checksums.json")
    argv = [binary("perfbench-harness"), "checksums", "--out", path]
    if subprocess.run(argv, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        raise BenchError("perfbench-harness checksums failed")
    with open(path) as f:
        return json.load(f)


# --- repro-cold ------------------------------------------------------------


def batch_prepare(jobs):
    """The benchmark's preparation before spawning one repro-cold op: a
    fresh scratch directory, the reference output, and the command line."""
    opdir = os.path.join(WORK, "op")
    fresh_dir(opdir)
    argv = [binary("repro"), "--all", "--no-store", "--jobs", str(jobs)]
    with open("results.txt", "rb") as f:
        reference = f.read()
    return opdir, argv, reference


def batch_ops(budget_s, deadline, jobs):
    """Runs ops until the next one would overrun `budget_s` (at least
    one). Returns walls, peak RSS, attempted and failed op counts."""
    walls, rss, attempted, failed = [], [], 0, 0
    start = time.perf_counter()
    while True:
        opdir, argv, reference = batch_prepare(jobs)
        out, err = os.path.join(opdir, "stdout"), os.path.join(opdir, "stderr")
        code, wall, peak = spawn_wait(argv, out, err, deadline.left())
        with open(out, "rb") as f:
            stdout = f.read()
        attempted += 1
        if perfstats.batch_op_failed(code, stdout, reference):
            failed += 1
            with open(err, errors="replace") as f:
                log(f"repro-cold: op failed (exit {code}); stderr tail:\n{f.read()[-2000:]}")
        walls.append(wall)
        rss.append(peak)
        elapsed = time.perf_counter() - start
        next_op = statistics.median(walls)
        if elapsed + next_op > budget_s or next_op > deadline.left() - 5:
            return walls, rss, attempted, failed


def batch_setup(jobs):
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        batch_prepare(jobs)
        times.append(time.perf_counter() - t0)
        time.sleep(SETUP_GAP_S)
    return statistics.median(times)


def batch_untraced(seconds, deadline, jobs, report):
    setup = batch_setup(jobs)
    walls, rss, attempted, failed = batch_ops(seconds, deadline, jobs)
    wall = statistics.median(walls)
    p50, ptail, p, n = perfstats.latency_summary([w * 1e3 for w in walls])
    listed = " ".join(f"{w:.3f}" for w in walls)
    report.append(f"ops: {len(walls)} invocation(s), one op each; walls (s): {listed}")
    report.append(f"latency samples: {n} invocations; p99_ms is the p{p} (rule: >=10 samples beyond)")
    report.append(f"on repro-cold sim_minsn_per_s, p50_ms, p99_ms and req_per_s restate wall_s: "
                  f"sim_minsn_per_s = {REPRO_COLD_INSNS} pinned grid-cell insns / wall_s (not a "
                  f"measured throughput), req_per_s = invocations / s")
    metrics = {
        "wall_s": wall,
        "sim_minsn_per_s": REPRO_COLD_INSNS / wall / 1e6,
        "p50_ms": p50,
        "p99_ms": ptail,
        "req_per_s": attempted / sum(walls),
        "peak_rss_mb": statistics.median(rss),
        "setup_s": setup,
    }
    return metrics, attempted, failed


def batch_traced(seconds, deadline, jobs, report):
    walls, _, attempted, failed = batch_ops(seconds / 3, deadline, jobs)
    out = os.path.join(WORK, "spans.json")
    argv = [binary("perfbench-harness"), "trace", "--workload", "repro-cold",
            "--jobs", str(jobs), "--out", out]
    err = os.path.join(WORK, "harness.stderr")
    code, traced_wall, _ = spawn_wait(argv, os.devnull, err, deadline.left())
    if code != 0:
        with open(err) as f:
            raise BenchError(f"traced run failed (exit {code}): {f.read()[-2000:]}")
    with open(out) as f:
        doc = json.load(f)
    spans = [
        dict(s, start=s["start_ns"] / 1e9, end=s["end_ns"] / 1e9) for s in doc["spans"]
    ]
    counters = doc["counters"]
    attempted += doc["attempted"] + 1
    failed += len(doc["failures"])
    for f_ in doc["failures"]:
        log(f"traced repro-cold: {f_}")
    if counters.get("sim.insns") != REPRO_COLD_INSNS:
        failed += 1
        log(f"traced repro-cold: simulated {counters.get('sim.insns')} instructions, "
            f"pinned {REPRO_COLD_INSNS}")
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update(perfstats.layer_metrics(spans, counters))
    m["traced_wall_s"] = traced_wall
    m["unattributed_s"] = perfstats.unattributed(spans, traced_wall)
    m["trace_overhead_s"] = traced_wall - statistics.median(walls)
    report.append(
        f"traced wall {traced_wall:.3f} s, unattributed {m['unattributed_s']:.3f} s "
        f"({100 * m['unattributed_s'] / traced_wall:.2f}%), untraced median "
        f"{statistics.median(walls):.3f} s over {len(walls)} invocation(s)"
    )
    return m, attempted, failed


# --- serve-mix -------------------------------------------------------------


def call(addr, method, path, timeout=10):
    """One request straight to the daemon (no proxy lookup)."""
    host, port = addr.rsplit(":", 1)
    conn = http.client.HTTPConnection(host, int(port), timeout=timeout)
    try:
        conn.request(method, path, body=b"" if method == "POST" else None)
        r = conn.getresponse()
        return r.status, r.read()
    finally:
        conn.close()


def start_daemon(passdir, workers, deadline):
    """Spawns d16-serve on a fresh store; returns (process, address,
    seconds from spawn to the first 200 from /healthz)."""
    port_file = os.path.join(passdir, "port")
    t0 = time.perf_counter()
    with open(os.path.join(passdir, "daemon.log"), "wb") as log_f:
        p = subprocess.Popen(
            [binary("d16-serve"), "--addr", "127.0.0.1:0", "--port-file", port_file,
             "--workers", str(workers), "--store", os.path.join(passdir, "store")],
            stdout=log_f, stderr=log_f)
    give_up = min(time.perf_counter() + 30, deadline.end)
    while time.perf_counter() < give_up:
        if p.poll() is not None:
            raise BenchError(f"d16-serve exited with {p.returncode} before answering /healthz")
        try:
            with open(port_file) as f:
                addr = f.read().strip()
            if addr and call(addr, "GET", "/healthz", timeout=1)[0] == 200:
                return p, addr, time.perf_counter() - t0
        except (OSError, http.client.HTTPException):
            pass
        time.sleep(0.0005)
    p.kill()
    p.wait()
    raise BenchError("d16-serve did not answer /healthz within 30 s")


def stop_daemon(p, addr, deadline):
    """POST /shutdown and reap; returns the daemon's peak RSS in MB."""
    try:
        call(addr, "POST", "/shutdown")
    except (OSError, http.client.HTTPException):
        p.terminate()
    timer = threading.Timer(max(min(30, deadline.left()), 0.1), p.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(p.pid, 0)
    finally:
        timer.cancel()
    p.returncode = os.waitstatus_to_exitcode(status)
    return usage.ru_maxrss / 1024


def read_records(path):
    with open(path, "rb") as f:
        data = f.read()
    line_end = data.index(b"\n")
    wall_ns = int(data[:line_end].split()[1])
    pos, records = line_end + 1, []
    while pos < len(data):
        line_end = data.index(b"\n", pos)
        f = data[pos:line_end].split()
        size = int(f[7])
        body = data[line_end + 1:line_end + 1 + size]
        pos = line_end + 2 + size
        records.append({
            "index": int(f[0]), "conn": int(f[1]), "start": int(f[2]) / 1e9,
            "end": int(f[3]) / 1e9, "status": int(f[4]), "service": int(f[5]) / 1e9,
            "cache": f[6].decode(), "body": body,
        })
    return records, wall_ns / 1e9


def serve_pass(plan, plan_path, sums, n, deadline, scrape):
    """One pass: fresh store and daemon, the whole plan over n closed-loop
    connections, shutdown. Returns a dict of what the pass measured."""
    passdir = os.path.join(WORK, "pass")
    fresh_dir(passdir)
    t0 = time.perf_counter()
    daemon, addr, setup = start_daemon(passdir, n, deadline)
    metrics_doc = None
    try:
        rec_path = os.path.join(passdir, "records")
        code, _, _ = spawn_wait(
            [binary("perfbench-harness"), "client", "--addr", addr, "--plan", plan_path,
             "--conns", str(n), "--out", rec_path],
            os.devnull, os.path.join(passdir, "client.stderr"), deadline.left())
        if code != 0:
            raise BenchError(f"serve client exited with {code}")
        records, load_wall = read_records(rec_path)
        if scrape:
            m0 = time.perf_counter()
            metrics_doc = json.loads(call(addr, "GET", "/metrics")[1])
            scrape_s = time.perf_counter() - m0
    finally:
        s0 = time.perf_counter()
        rss = stop_daemon(daemon, addr, deadline)
        stop_s = time.perf_counter() - s0
    failures = perfstats.serve_failures(plan, records, sums)
    for i, reason in failures[:20]:
        log(f"serve-mix: request {i} {plan[i][0]}: {reason}")
    failed_at = {i for i, _ in failures}
    insns = sum(
        json.loads(r["body"])["stats"]["insns"]
        for r in records
        if r["status"] == 200 and r["cache"] == "miss" and r["index"] not in failed_at
    )
    out = {
        "setup": setup, "load_wall": load_wall, "records": records, "rss": rss,
        "failed": len(failures), "insns": insns, "pass_wall": time.perf_counter() - t0,
        "metrics": metrics_doc,
    }
    if scrape:
        # What the residue subtracts: all but the client's process start
        # and exit and the gaps between steps.
        out["covered"] = setup + load_wall + scrape_s + stop_s
    return out


def serve_plan(seed, report):
    """The seeded plan, written one body per line for the client, and the
    pinned checksums its verdicts compare against."""
    plan = servemix.generate(seed)
    path = os.path.join(WORK, "plan.txt")
    with open(path, "w") as f:
        f.writelines(text + "\n" for text, _, _ in plan)
    report.append(f"serve-mix plan: seed {seed}, {len(plan)} requests per pass, "
                  f"sha256 {servemix.digest(plan)}")
    return plan, path, checksums()


def serve_untraced(seed, seconds, deadline, n, report):
    plan, plan_path, sums = serve_plan(seed, report)
    passes = []
    start = time.perf_counter()
    while True:
        passes.append(serve_pass(plan, plan_path, sums, n, deadline, scrape=False))
        elapsed = time.perf_counter() - start
        next_pass = statistics.median([p["pass_wall"] for p in passes])
        if elapsed + next_pass > seconds or next_pass > deadline.left() - 5:
            break
    records = [r for p in passes for r in p["records"]]
    load = sum(p["load_wall"] for p in passes)
    lat = [(r["end"] - r["start"]) * 1e3 for r in records]
    p50, ptail, pct, count = perfstats.latency_summary(lat)
    walls = " ".join(f"{p['load_wall']:.3f}" for p in passes)
    report.append(f"passes: {len(passes)}; load walls (s): {walls}")
    report.append(f"latency samples: {count}; p99_ms is the p{pct} "
                  f"(rule: >=10 samples beyond)")
    metrics = {
        "wall_s": statistics.median([p["load_wall"] for p in passes]),
        "sim_minsn_per_s": sum(p["insns"] for p in passes) / load / 1e6,
        "p50_ms": p50,
        "p99_ms": ptail,
        "req_per_s": len(records) / load,
        "peak_rss_mb": statistics.median([p["rss"] for p in passes]),
        "setup_s": statistics.median([p["setup"] for p in passes]),
    }
    return metrics, len(records), sum(p["failed"] for p in passes)


def serve_traced(seed, seconds, deadline, n, report):
    plan, plan_path, sums = serve_plan(seed, report)
    base = serve_pass(plan, plan_path, sums, n, deadline, scrape=False)
    p = serve_pass(plan, plan_path, sums, n, deadline, scrape=True)
    records, doc = p["records"], p["metrics"]
    counters = doc["counters"]
    spans = doc["spans"]

    def span_s(name):
        return spans.get(name, {}).get("total_ns", 0) / 1e9

    def med_ms(values):
        return statistics.median(values) * 1e3 if values else 0.0

    served = [r for r in records if r["status"] == 200]
    hits, misses = counters.get("store.hit", 0), counters.get("store.miss", 0)
    m = dict.fromkeys(PER_LAYER, 0.0)
    m.update({
        "store.hits": hits,
        "store.misses": misses,
        "store.writes": counters.get("store.write", 0),
        "store.hit_ratio": hits / (hits + misses) if hits + misses else 0.0,
        "serve.service_hit_ms": med_ms([r["service"] for r in served if r["cache"] == "hit"]),
        "serve.service_miss_ms": med_ms([r["service"] for r in served if r["cache"] == "miss"]),
        "serve.wait_ms": med_ms([r["end"] - r["start"] - r["service"] for r in records
                                 if r["service"] > 0]),
        "serve.compile_s": span_s("serve.compile"),
        "serve.execute_s": span_s("serve.execute"),
        "serve.sweep_s": span_s("serve.sweep"),
        "serve.shed": counters.get("serve.over_capacity", 0),
        "traced_wall_s": p["pass_wall"],
        "unattributed_s": p["pass_wall"] - p["covered"],
        "trace_overhead_s": p["pass_wall"] - base["pass_wall"],
    })
    report.append(
        f"traced pass {p['pass_wall']:.3f} s (load {p['load_wall']:.3f} s over {n} connections, "
        f"busy {sum(r['end'] - r['start'] for r in records):.3f} s), unattributed "
        f"{m['unattributed_s']:.3f} s; untraced pass {base['pass_wall']:.3f} s"
    )
    attempted = len(base["records"]) + len(records)
    return m, attempted, base["failed"] + p["failed"]


# --- provenance and main ---------------------------------------------------


def provenance(args, jobs):
    def first_line(cmd):
        try:
            r = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
            return r.stdout.strip().splitlines()[0] if r.returncode == 0 and r.stdout else None
        except OSError:
            return None

    def read(path):
        try:
            with open(path) as f:
                return f.read()
        except OSError:
            return ""

    flags = re.search(r"^\s*rustflags\s*=\s*(\[.*\])", read(".cargo/config.toml"), re.M)
    profile = re.search(r"^\[profile\.release\]\n((?:[^\[\n][^\n]*\n)*)", read("Cargo.toml"), re.M)
    serve = args.workload == "serve-mix"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": nproc(),
        "jobs": None if serve else jobs,
        "workers": jobs if serve else None,
        "clients": 1 if serve else None,
        "connections": jobs if serve else None,
        "store": "fresh directory per pass" if serve else "none (--no-store)",
        "engine": "default (blocks)",
        "build_profile": "release" + (
            " (" + ", ".join(l.strip() for l in profile.group(1).splitlines() if l.strip()) + ")"
            if profile else ""),
        "rustflags": flags.group(1) if flags else None,
        "git_commit": first_line(["git", "rev-parse", "HEAD"]) or "unknown (not a git checkout)",
        "rustc": first_line(["rustc", "--version"]),
        "python": sys.version.split()[0],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["repro-cold", "serve-mix"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()
    if not (os.path.isfile("Cargo.toml") and os.path.isdir("crates")
            and os.path.isfile("results.txt")):
        log("run.py: run from the root of a checkout of this repository "
            "(Cargo.toml, crates/ and results.txt must be present)")
        return 2
    try:
        build()
        fresh_dir(WORK)
        jobs = nproc()
        deadline = Deadline(RUN_LIMIT_S)
        report = []
        if args.workload == "serve-mix":
            run = serve_traced if args.trace else serve_untraced
            metrics, attempted, failed = run(args.seed, args.seconds, deadline, jobs, report)
        else:
            run = batch_traced if args.trace else batch_untraced
            metrics, attempted, failed = run(args.seconds, deadline, jobs, report)
        prov = provenance(args, jobs)
    except (BenchError, OSError, ValueError, KeyError, subprocess.SubprocessError,
            http.client.HTTPException) as e:
        log(f"run.py: {e}")
        return 1
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    for line in report:
        print(line)
    print(f"attempted {attempted}, failed {failed}, fail_ratio {failed / attempted:.6f}")
    for name, unit in units.items():
        print(f"{name} = {metrics[name]:.6g} {unit}")
    print("provenance " + json.dumps(prov, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
