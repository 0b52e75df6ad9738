#!/usr/bin/env python3
"""Native wall-clock OLTP benchmark: four engine arms on one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload hot_rmw|big_mix|tpcc --seed N \
        --seconds S --trace 0|1
    python3 perfbench/run.py --smoke      # the benchmark's own self-test

Builds perfbench/oltp_bench from source into .bench_build/perfbench, then
starts one process per engine arm (orthrus, twopl, dlfree, mvcc), each on
4 pinned logical cores (never more than the host has). The processes set
up one after another, each makes one discarded warm-up run, and then the
arms take turns: ROUNDS rounds, each round one measured run per arm, so
every arm's median spans the whole measuring window. That is one phase;
PHASES phases run one after another, each with fresh processes. The arms
share the --seconds budget equally. txn_per_s and the exact latency
percentiles are medians over an arm's runs. Each arm checks its committed
database contents at the end; a failed check makes `correct` false and the
exit code 1.

--trace 0 prints the end-to-end metrics. --trace 1 gives each round an
untraced and a traced run per arm (for trace.overhead_frac), adds a
`layers` process that times direct calls into layer APIs, and prints the
per-layer metrics. Every metric is printed as `name = value unit`, and the
last line of stdout is one JSON object: correct, attempted, failed,
metrics. perfbench/README.md defines the metrics.
"""

import argparse
import json
import math
import os
import select
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "oltp_bench"

WORKLOADS = ("hot_rmw", "big_mix", "tpcc")
ARMS = ("orthrus", "twopl", "dlfree", "mvcc")
PHASES = 2            # fresh arm processes per arm, one set after another
ROUNDS = 8            # rounds per phase
REPS = PHASES * ROUNDS  # measured runs per arm (and per mode, --trace 1)
MAX_CORES = 4
RUN_DEADLINE_S = 170  # the whole command, builds excluded


class Failure(Exception):
    pass


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise Failure("the repository sources (CMakeLists.txt, src/) are "
                      "missing")
    jobs = str(min(MAX_CORES, len(os.sched_getaffinity(0))))
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD),
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", str(BUILD), "--target", "oltp_bench",
                  "-j", jobs])
    for cmd in steps:
        # Build chatter goes to stderr: stdout carries only the results.
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            raise Failure("build failed: " + " ".join(cmd))


class ArmProcess:
    """One oltp_bench process, driven one command per line."""

    def __init__(self, args, deadline):
        self.deadline = deadline
        self.name = args[args.index("--arm") + 1]
        self.proc = subprocess.Popen([str(BINARY)] + args,
                                     stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)

    def read(self):
        left = self.deadline - time.monotonic()
        if left <= 0 or not select.select([self.proc.stdout], [], [], left)[0]:
            raise Failure(f"arm {self.name} did not answer in time")
        line = self.proc.stdout.readline()
        if not line:
            raise Failure(f"arm {self.name} exited with code "
                          f"{self.proc.wait()}")
        return json.loads(line)

    def ask(self, command):
        self.proc.stdin.write(command + "\n")
        self.proc.stdin.flush()
        return self.read()

    def close(self):
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def arm_args(workload, arm, seed, cores, rep_seconds, smoke, corrupt):
    return ["--workload", workload, "--arm", arm, "--seed", str(seed),
            "--cores", str(cores), "--rep-seconds", repr(rep_seconds),
            "--smoke", str(int(smoke)), "--corrupt", str(int(corrupt))]


def measure(workload, seed, seconds, trace, smoke, corrupt, deadline):
    """Runs the arms in interleaved rounds; returns per-arm results."""
    cores = min(MAX_CORES, len(os.sched_getaffinity(0)))
    if cores < 2:
        raise Failure("needs at least 2 CPUs (ORTHRUS runs 1 CC thread "
                      "beside its exec threads)")
    rep_seconds = seconds / len(ARMS) / REPS / (2 if trace else 1)
    results = {arm: {"untraced": [], "traced": [], "setup_s": [],
                     "peak_rss_mb": 0, "drawn": 0, "committed": 0,
                     "check_ok": True, "check": "ok"} for arm in ARMS}
    for phase in range(PHASES):
        # A process's memory layout shifts its figures for good (ORTHRUS
        # p50 on big_mix reads about 23 or about 27 us, process by
        # process), so each phase starts fresh processes.
        procs = {}
        try:
            for arm in ARMS:  # one set-up at a time
                procs[arm] = ArmProcess(
                    arm_args(workload, arm, seed, cores, rep_seconds, smoke,
                             corrupt), deadline)
                ready = procs[arm].read()
                results[arm]["setup_s"] += ready["setup_s"]
                results[arm]["cycles_per_second"] = ready["cycles_per_second"]
            for arm in ARMS:
                procs[arm].ask("warmup")
            for rnd in range(phase * ROUNDS, (phase + 1) * ROUNDS):
                # Rotate who goes first, so no arm always follows the same
                # one.
                for arm in ARMS[rnd % len(ARMS):] + ARMS[:rnd % len(ARMS)]:
                    results[arm]["untraced"].append(procs[arm].ask("run 0"))
                    if trace:
                        results[arm]["traced"].append(procs[arm].ask("run 1"))
            for arm in ARMS:
                done = procs[arm].ask("finish")
                d = results[arm]
                d["peak_rss_mb"] = max(d["peak_rss_mb"], done["peak_rss_mb"])
                d["drawn"] += done["drawn"]
                d["committed"] += done["committed"]
                if d["check_ok"] and not done["check_ok"]:
                    d["check_ok"], d["check"] = False, done["check"]
        finally:
            for p in procs.values():
                p.close()
    layers = None
    if trace:
        proc = ArmProcess(arm_args(workload, "layers", seed, cores,
                                   rep_seconds, smoke, False), deadline)
        try:
            layers = proc.read()
        finally:
            proc.close()
    return results, layers


def tps(rep):
    return rep["committed"] / rep["elapsed_s"]


def median_of(reps, key):
    return statistics.median(r[key] for r in reps)


def latency_reps(reps):
    """The runs whose p95 has at least 10 samples beyond it; only these
    count in the latency medians. A run that commits next to nothing gives
    no p95, and is left out rather than failing the command."""
    return [r for r in reps if r["lat_beyond_p95"] >= 10]


def end_to_end(results):
    m = {}
    for arm in ARMS:
        reps = results[arm]["untraced"]
        m[f"{arm}.txn_per_s"] = (statistics.median(map(tps, reps)), "1/s")
        lat = latency_reps(reps)
        m[f"{arm}.lat_p50_us"] = (median_of(lat, "lat_p50_us"), "us")
        m[f"{arm}.lat_p95_us"] = (median_of(lat, "lat_p95_us"), "us")
    m["setup_s"] = (statistics.median(
        s for arm in ARMS for s in results[arm]["setup_s"]), "s")
    m["peak_rss_mb"] = (max(results[a]["peak_rss_mb"] for a in ARMS), "MB")
    return m


def per_layer(results, layers):
    m = {}
    for arm in ARMS:
        d = results[arm]
        reps = d["traced"]
        t = {k: sum(r[k] for r in reps) for k in reps[0]}
        cps = d["cycles_per_second"]
        # Every engine worker lives for the whole run (closed loop), so
        # wall time x workers is the time base of the category fractions.
        wall_cycles = t["elapsed_s"] * cps
        all_cycles = sum(r["elapsed_s"] * r["workers"] for r in reps) * cps
        src_ns = sum(r["elapsed_s"] * r["src_workers"] for r in reps) * 1e9
        committed = max(t["committed"], 1)
        m[f"{arm}.workload.next_ns"] = (t["next_ns"] / max(t["drawn"], 1),
                                        "ns")
        m[f"{arm}.txn.plan_ns"] = (t["plan_ns"] / max(t["plans"], 1), "ns")
        m[f"{arm}.txn.replans_per_commit"] = (t["ollp_aborts"] / committed,
                                              "1/commit")
        m[f"{arm}.txn.run_ns"] = (t["run_ns"] / max(t["runs"], 1), "ns")
        spans = t["next_ns"] + t["plan_ns"] + t["run_ns"]
        m[f"{arm}.engine.self_frac"] = (1 - spans / src_ns, "ratio")
        lock = t["lock_cycles"]
        if arm in ("dlfree", "mvcc"):
            # These engines charge their whole acquire phase to kLocking,
            # waits included, and charge the waits inside it to kWaiting
            # as well: count them once.
            lock -= t["wait_cycles"]
        m[f"{arm}.runtime.lock_frac"] = (lock / all_cycles, "ratio")
        m[f"{arm}.runtime.wait_frac"] = (t["wait_cycles"] / all_cycles,
                                         "ratio")
        m[f"{arm}.lock.waits_per_commit"] = (t["lock_waits"] / committed,
                                             "1/commit")
        untraced = statistics.median(map(tps, d["untraced"]))
        traced = statistics.median(map(tps, reps))
        m[f"{arm}.trace.overhead_frac"] = (1 - traced / untraced, "ratio")
        if arm == "twopl":
            m["twopl.lock.retry_frac"] = (
                t["aborted"] / max(t["aborted"] + t["committed"], 1), "ratio")
        if arm == "orthrus":
            n_cc = reps[0]["cc_workers"]
            n_exec = reps[0]["workers"] - n_cc
            m["orthrus.mp.msgs_per_commit"] = (t["messages"] / committed,
                                               "1/commit")
            m["orthrus.mp.send_stall_frac"] = (
                t["send_stall_cycles"] / all_cycles, "ratio")
            m["orthrus.cc.busy_frac"] = (
                1 - t["cc_wait_cycles"] / (n_cc * wall_cycles), "ratio")
            m["orthrus.exec.wait_frac"] = (
                t["exec_wait_cycles"] / (n_exec * wall_cycles), "ratio")
    m["lock.acq_rel_ns"] = (layers["lock_acq_rel_ns"], "ns")
    m["storage.lookup_ns"] = (layers["storage_lookup_ns"], "ns")
    m["storage.snapshot_read_ns"] = (layers["storage_snapshot_read_ns"], "ns")
    m["mp.hop_ns"] = (layers["mp_hop_ns"], "ns")
    return m


def run(workload, seed, seconds, trace, smoke=False, corrupt=False):
    """Runs one workload and prints its metrics; returns (result, code)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    results, layers = measure(workload, seed, seconds, trace, smoke, corrupt,
                              deadline)
    attempted = sum(results[a]["drawn"] for a in ARMS)
    committed = sum(results[a]["committed"] for a in ARMS)
    bad = [a for a in ARMS if not results[a]["check_ok"]]
    failed = attempted - committed + sum(results[a]["committed"] for a in bad)
    for arm in ARMS:
        d = results[arm]
        print(f"# {workload} {arm}: {d['committed']} commits of {d['drawn']} "
              f"drawn, content check: {d['check']}")
        lat = latency_reps(d["untraced"])
        short = len(d["untraced"]) - len(lat)
        if 2 * short >= len(d["untraced"]):
            raise Failure(f"{arm}: {short} runs have fewer than 10 latency "
                          "samples beyond p95; run longer")
        # p99 is printed but not a metric: on a shared VM it follows the
        # hypervisor's CPU steal more than the engine (perfbench/README.md).
        beyond = min(r["lat_n"] - math.ceil(0.99 * r["lat_n"]) for r in lat)
        print(f"# {workload} {arm}: lat_p99 "
              f"{median_of(lat, 'lat_p99_us'):.6g} us, median of "
              f"{len(lat)} runs, each with >= {beyond} samples beyond p99")

    if trace:
        metrics = per_layer(results, layers)
    else:
        metrics = end_to_end(results)
        metrics["commit_frac"] = ((attempted - failed) / attempted, "ratio")
    for name, (value, unit) in metrics.items():
        note = ""
        if name.endswith(("lat_p50_us", "lat_p95_us")):
            reps = latency_reps(results[name.split(".")[0]]["untraced"])
            note = (f"  (median of {len(reps)} runs, each with "
                    f">= {min(r['lat_n'] for r in reps)} samples")
            if name.endswith("p95_us"):
                note += (f" and >= {min(r['lat_beyond_p95'] for r in reps)} "
                         "beyond p95")
            note += ")"
        print(f"{name} = {value:.6g} {unit}{note}")
    out = {
        "correct": not bad,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return out, (0 if not bad else 1)


def smoke():
    """Self-test: every workload and arm in both modes, with 0.25 s runs
    and a 100k-row big_mix. Asserts that every metric BENCHMARK.json names
    is emitted and every content check passes, then that a damaged
    database fails its check with a non-zero exit code. Shorter runs can
    leave mvcc with too few samples beyond p95: some of its 0.1 s runs
    commit only a few dozen transactions."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    want = {0: {m["name"] for m in spec["end_to_end"]},
            1: {m["name"] for m in spec["per_layer"]}}
    assert {w["name"] for w in spec["workloads"]} == set(WORKLOADS)
    seconds = 0.25 * len(ARMS) * REPS
    for workload in WORKLOADS:
        for trace in (0, 1):
            out, code = run(workload, 1, seconds * (1 + trace), trace,
                            smoke=True)
            got = set(out["metrics"])
            assert code == 0 and out["correct"], (workload, trace)
            assert got == want[trace], (workload, trace, got ^ want[trace])
            assert out["failed"] == 0, (workload, out["failed"])
    for workload in ("hot_rmw", "tpcc"):
        out, code = run(workload, 1, seconds, 0, smoke=True, corrupt=True)
        assert code != 0 and not out["correct"], workload
    print("smoke: ok")


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=30)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--smoke", action="store_true")
    a = p.parse_args()
    if not a.smoke and a.workload is None:
        p.error("--workload is required")
    try:
        build()
        if a.smoke:
            smoke()
            return 0
        out, code = run(a.workload, a.seed, a.seconds, a.trace)
    except Failure as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return code


if __name__ == "__main__":
    sys.exit(main())
