#!/usr/bin/env python3
"""Machine-readable perf gate over decafbench -json output.

Usage:
    decafbench -table recovery -transport proc -json | scripts/check_bench.py recovery
    decafbench -table contend -transport proc -json | scripts/check_bench.py contend bench.json
    decafrun -driver e1000 -transport proc -dur 2s -trace trace.json && scripts/check_bench.py trace trace.json
    scripts/check_bench.py contend bench.json --baseline BENCH_contend.json
    scripts/check_bench.py --self-test

The checks are the CI acceptance bar for the shadow-driver recovery
subsystem across every transport, the lane-sharded concurrent submission
path, and the flight recorder's exported timeline. Process-separated
recovery rows must prove a real boundary: chunks crossing on the
shared-memory descriptor rings (RingCrossings), decaf call bodies actually
executed by the worker's handler table (WorkerServedCalls > 0 on proc rows,
exactly 0 in-process — worker-side execution must be live, not simulated),
and a worker process that died and was respawned. The counted columns of
the batched and zero-copy data paths are pinned exactly by Go tests
(internal/workload's TestNetperfGoldenCounts), not gated here.

The contend table is wall-clock (real concurrency has no virtual
timeline), so its gate is structural within one run: proc throughput at
K=8 submitters must reach 3x the K=1 row, the contended p99 must stay
within 2x the uncontended p99, the lane submit path must allocate nothing,
and the control mutex must not be touched during the storm.

With --baseline, rows are additionally compared against a committed
BENCH_*.json reference within a relative tolerance band. Only deterministic
metrics are banded — which metrics those are depends on the table;
wall-clock facts (doorbell counts, syscalls, contended latencies) are
asserted structurally but never compared across machines.

Keeping the gate in a checked-in executable script (rather than inline YAML)
makes it runnable locally, diffable in review, and self-testable against the
fixtures in scripts/testdata.
"""

import copy
import json
import os
import sys

# The contend gate, per ISSUE 8: K=8 proc throughput >= 3x K=1, contended
# p99 within 2x uncontended, zero allocations and zero control-mutex
# acquisitions on the storm's submit path. The p99 denominator is clamped at
# a small floor: an uncontended tail below 10us is within one scheduler
# quantum, where a 2x band would gate on noise.
CONTEND_GATE_K = 8
CONTEND_SCALING_MIN = 3.0
CONTEND_P99_RATIO_MAX = 2.0
CONTEND_P99_FLOOR_US = 10.0

# Metrics banded against the committed baseline, per table. The recovery
# table is virtual-time, so its counts are deterministic for fixed flags.
# The contend table is wall-clock: only its work count is deterministic.
# Keys absent from a table's rows are ignored.
BANDED_METRICS = {
    "recovery": [
        "ThroughputMbps", "Packets", "XPerPacket",
        "RingCrossings", "WorkerServedCalls",
    ],
    "contend": ["Ops", "BatchN", "Lanes"],
}
DEFAULT_TOLERANCE = 0.10


def is_proc(row):
    """Rows from the process-separated transport ("proc(bN)")."""
    return row["Transport"].startswith("proc")


def row_key(table, row):
    """The identity a row keeps across runs, for baseline matching."""
    if table == "contend":
        return (row["Transport"], row["Submitters"])
    return (row["Driver"], row["Workload"], row["Transport"], row["Scenario"])


def check_recovery(rows):
    assert rows, "recovery table emitted no rows"
    cells = {}
    for r in rows:
        cells.setdefault((r["Driver"], r["Workload"], r["Transport"]), {})[r["Scenario"]] = r
    for key, c in cells.items():
        assert set(c) == {"off", "armed", "fault"}, f"{key}: missing scenarios {set(c)}"
        off, armed, fault = c["off"], c["armed"], c["fault"]
        # Steady-state journaling overhead is zero: identical crossings.
        assert (off["Crossings"], off["Packets"]) == (armed["Crossings"], armed["Packets"]), \
            f"{key}: supervision changed steady state: {off} vs {armed}"
        # The injected fault recovered transparently and boundedly.
        assert fault["Faults"] >= 1 and fault["Recoveries"] >= 1, f"{key}: no recovery: {fault}"
        assert fault["FailStops"] == 0, f"{key}: fail-stopped: {fault}"
        assert 0 < fault["RecoveryLatencyMs"] < 10000, f"{key}: unbounded latency: {fault}"
        assert fault["JournalReplayed"] >= 2, f"{key}: journal not replayed: {fault}"
        assert fault["TxHeld"] == fault["TxReplayed"] + fault["TxHeldDropped"], \
            f"{key}: held accounting broken: {fault}"
        assert fault["SlotsReclaimed"] == 0, f"{key}: quiesce stranded ring slots: {fault}"
        if is_proc(fault):
            # The process-separated boundary must be real in every scenario:
            # chunks on the descriptor rings AND call bodies executed by the
            # worker's handler table. Steady-state scenarios frame no wire
            # bytes (the first worker acknowledges its layout at boot), but
            # the fault scenario's recovery must have SIGKILLed and respawned
            # an actual worker process — and the respawned worker's layout
            # acknowledgement rides the socketpair mid-phase, so its wire
            # bytes must show.
            for scenario, row in c.items():
                assert row["RingCrossings"] > 0, f"{key}/{scenario}: no ring crossings: {row}"
                assert row["WorkerServedCalls"] > 0, \
                    f"{key}/{scenario}: no call bodies executed in the worker: {row}"
            # Armed-vs-off parity holds for worker execution too: arming the
            # supervisor must not move any bodies across the boundary.
            assert off["WorkerServedCalls"] == armed["WorkerServedCalls"], \
                f"{key}: supervision changed worker-served bodies: {off} vs {armed}"
            assert fault["WireBytes"] > 0, \
                f"{key}: respawn handshake framed no wire bytes: {fault}"
            assert fault["WorkerRespawns"] >= 1, \
                f"{key}: fault recovered without respawning the worker process: {fault}"
            assert off["WorkerRespawns"] == 0 and armed["WorkerRespawns"] == 0, \
                f"{key}: worker respawned without a fault: {off} / {armed}"
        else:
            for scenario, row in c.items():
                assert row.get("WorkerServedCalls", 0) == 0, \
                    f"{key}/{scenario}: in-process row claims worker-served call bodies: {row}"
    proc_cells = sum(1 for (_, _, t) in cells if t.startswith("proc"))
    return (f"{len(rows)} rows across {len(cells)} cells ({proc_cells} process-separated); "
            "faults recovered, steady state unchanged")


def check_contend(rows):
    """The lane-sharding gate: concurrency must buy throughput, not locks.

    Every row must be internally consistent (work done, monotone wall
    percentiles). Proc rows must additionally prove the lock-free data
    plane: zero control-mutex acquisitions and zero allocations per op
    during the storm, with the lane table actually exercised. Per proc
    transport, the K=1 row anchors the scaling and p99 comparisons for the
    CONTEND_GATE_K row.
    """
    assert rows, "contend table emitted no rows"
    by_transport = {}
    for r in rows:
        ctx = f"{r['Transport']} K={r['Submitters']}"
        assert r["Ops"] > 0 and r["OpsPerSec"] > 0, f"{ctx}: no work done: {r}"
        assert 0 < r["WallP50Us"] <= r["WallP99Us"] <= r["WallP999Us"], \
            f"{ctx}: wall percentiles not positive and monotone: {r}"
        if is_proc(r):
            assert r["ControlLocks"] == 0, \
                f"{ctx}: steady-state submit acquired the control mutex {r['ControlLocks']} times: {r}"
            assert r["AllocsPerOp"] <= 0.01, \
                f"{ctx}: lane submit path allocates {r['AllocsPerOp']}/op: {r}"
            assert r["Lanes"] >= 1, f"{ctx}: proc row reports no lanes: {r}"
            assert r["LaneAcquisitions"] > 0, f"{ctx}: lane table never exercised: {r}"
        by_transport.setdefault(r["Transport"], {})[r["Submitters"]] = r
    gated = 0
    for tr, ks in by_transport.items():
        if not tr.startswith("proc"):
            continue
        assert 1 in ks, f"{tr}: no K=1 baseline row to anchor the scaling gate"
        assert CONTEND_GATE_K in ks, f"{tr}: no K={CONTEND_GATE_K} row to gate"
        base, top = ks[1], ks[CONTEND_GATE_K]
        scaling = top["OpsPerSec"] / base["OpsPerSec"]
        assert scaling >= CONTEND_SCALING_MIN, \
            (f"{tr}: K={CONTEND_GATE_K} throughput only {scaling:.2f}x K=1 "
             f"(bound {CONTEND_SCALING_MIN}x): lane sharding is not buying concurrency")
        denom = max(base["WallP99Us"], CONTEND_P99_FLOOR_US)
        assert top["WallP99Us"] <= CONTEND_P99_RATIO_MAX * denom, \
            (f"{tr}: contended p99 {top['WallP99Us']:.0f}us exceeds "
             f"{CONTEND_P99_RATIO_MAX}x uncontended {base['WallP99Us']:.0f}us "
             f"(floor {CONTEND_P99_FLOOR_US}us)")
        assert top["LaneActivePeak"] >= 2, \
            f"{tr}: K={CONTEND_GATE_K} never held two lanes at once: {top}"
        gated += 1
    assert gated > 0 or not any(is_proc(r) for r in rows), \
        "proc rows present but none gated"
    return (f"{len(rows)} rows across {len(by_transport)} transports; "
            f"{gated} proc scaling gates passed")


# The flight-recorder export's fixed track layout (internal/trace/export.go):
# one Chrome-trace pid per address space plus one for the Go runtime.
TRACE_PID_KERNEL = 1
TRACE_PID_WORKER = 2
TRACE_PID_RUNTIME = 3
TRACE_PROCESS_NAMES = {TRACE_PID_KERNEL: "kernel",
                       TRACE_PID_WORKER: "decaf worker",
                       TRACE_PID_RUNTIME: "go runtime"}


def check_trace(doc):
    """The flight-recorder schema gate over Chrome trace-event JSON.

    A trace from `decafrun -transport proc -trace` must be a loadable Perfetto
    timeline that actually proves the cross-process story: labeled kernel /
    worker / runtime process tracks, duration spans on BOTH sides of the
    boundary (a trace whose worker track is empty means the shm trace rings
    never carried records back), paired s/f flow arrows stitching a kernel
    chunk to the worker visit that served it, a Go-runtime track (GC pauses
    or heap counters) to attribute tail latency against, and the lossy
    recorder's drop count in the metadata so a gappy timeline is never
    mistaken for a quiet one.
    """
    evs = doc.get("traceEvents")
    assert isinstance(evs, list) and evs, "trace carries no traceEvents"
    for e in evs:
        assert "ph" in e and "pid" in e and "name" in e, f"malformed trace event: {e}"
    procs = {e["pid"]: e.get("args", {}).get("name")
             for e in evs if e["ph"] == "M" and e["name"] == "process_name"}
    for pid, name in sorted(TRACE_PROCESS_NAMES.items()):
        assert procs.get(pid) == name, \
            f"missing process_name metadata for pid {pid} ({name!r}): have {procs}"
    spans = {}
    for e in evs:
        if e["ph"] == "X":
            assert e.get("ts", -1) >= 0 and e.get("dur", 0) >= 0, \
                f"X span with bad ts/dur: {e}"
            spans.setdefault(e["pid"], []).append(e)
    assert spans.get(TRACE_PID_KERNEL), "no kernel-side X spans: chunk submissions missing"
    assert spans.get(TRACE_PID_WORKER), \
        "no worker-side X spans: the shm trace rings carried nothing back across the boundary"
    flows = {e["ph"] for e in evs if e["name"] == "crossing"}
    assert {"s", "f"} <= flows, \
        f"cross-process flow arrows not paired (crossing phases: {sorted(flows)})"
    runtime_track = [e for e in evs
                     if e["pid"] == TRACE_PID_RUNTIME and e["ph"] in ("X", "C")]
    assert runtime_track, "no go-runtime track events (GC pauses / heap counters missing)"
    meta = doc.get("metadata", {})
    assert "trace_dropped" in meta, "metadata lost the trace_dropped overflow count"
    return (f"{len(evs)} events; {len(spans[TRACE_PID_KERNEL])} kernel / "
            f"{len(spans[TRACE_PID_WORKER])} worker spans, flows paired, "
            f"runtime track present, {meta['trace_dropped']} dropped")


CHECKS = {"recovery": check_recovery, "contend": check_contend,
          "trace": check_trace}


def compare_baseline(table, rows, base_doc, tolerance):
    """Band the deterministic metrics of each row against the committed
    baseline. Rows are matched by identity; a row present in the baseline
    but missing from the current run fails (coverage regressed silently)."""
    assert base_doc.get("table") == table, \
        f"baseline is a {base_doc.get('table')!r} table, expected {table}"
    current = {row_key(table, r): r for r in rows}
    drift = []
    for base in base_doc["rows"]:
        key = row_key(table, base)
        cur = current.get(key)
        if cur is None:
            drift.append(f"{key}: row present in baseline but missing from this run")
            continue
        for metric in BANDED_METRICS.get(table, []):
            if metric not in base or metric not in cur:
                continue
            b, c = float(base[metric]), float(cur[metric])
            if abs(c - b) > tolerance * max(abs(b), 1.0):
                drift.append(f"{key}: {metric} = {c:g}, baseline {b:g} "
                             f"(tolerance {tolerance:.0%})")
    assert not drift, "baseline drift:\n  " + "\n  ".join(drift)
    return f"{len(base_doc['rows'])} baseline rows within {tolerance:.0%}"


def run_check(table, doc, baseline_doc=None, tolerance=DEFAULT_TOLERANCE):
    if table == "trace":
        # Trace documents are Chrome trace-event JSON, not bench tables:
        # no "table"/"rows" envelope and nothing deterministic to band.
        assert baseline_doc is None, "the trace check takes no --baseline"
        return check_trace(doc)
    assert doc.get("table") == table, \
        f"expected a {table} table, got {doc.get('table')!r}"
    summary = CHECKS[table](doc["rows"])
    if baseline_doc is not None:
        summary += "; " + compare_baseline(table, doc["rows"], baseline_doc, tolerance)
    return summary


def self_test():
    """Run the gate against the committed fixtures: the known-good files
    must pass (including against themselves as baselines), the known-bad
    files must be rejected. Guards the gate itself against rotting into a
    rubber stamp."""
    fixtures = os.path.join(os.path.dirname(os.path.abspath(__file__)), "testdata")

    def load(name):
        with open(os.path.join(fixtures, name)) as f:
            return json.load(f)

    failures, ran = [], 0

    def expect_ok(desc, fn):
        nonlocal ran
        ran += 1
        try:
            fn()
        except AssertionError as e:
            failures.append(f"{desc}: unexpectedly rejected: {e}")

    def expect_reject(desc, fn):
        nonlocal ran
        ran += 1
        try:
            fn()
        except AssertionError:
            return
        failures.append(f"{desc}: unexpectedly passed")

    rec_good, rec_bad = load("recovery_good.json"), load("recovery_bad.json")
    con_good, con_bad = load("contend_good.json"), load("contend_bad.json")
    tr_good, tr_bad = load("trace_good.json"), load("trace_bad.json")

    expect_ok("recovery good", lambda: run_check("recovery", rec_good))
    expect_ok("contend good", lambda: run_check("contend", con_good))
    expect_ok("trace good", lambda: run_check("trace", tr_good))
    expect_reject("recovery bad", lambda: run_check("recovery", rec_bad))
    expect_reject("contend bad", lambda: run_check("contend", con_bad))
    # The bad trace has kernel spans but an empty worker track and an
    # unpaired flow start: the exact signature of trace rings that were
    # never carved in the shared region.
    expect_reject("trace bad", lambda: run_check("trace", tr_bad))
    expect_reject("trace on a bench table", lambda: run_check("trace", rec_good))
    expect_ok("recovery self-baseline",
              lambda: run_check("recovery", rec_good, baseline_doc=rec_good))
    expect_ok("contend self-baseline",
              lambda: run_check("contend", con_good, baseline_doc=con_good))
    # A run that did half the baseline's work is drift, not noise.
    con_drift = copy.deepcopy(con_good)
    for row in con_drift["rows"]:
        row["Ops"] //= 2
    expect_reject("contend drifted baseline",
                  lambda: run_check("contend", con_good, baseline_doc=con_drift))
    expect_reject("wrong table", lambda: run_check("contend", rec_good))

    # Worker-side execution must be live: a proc row whose handler table
    # served nothing (bodies silently fell back in-process) is rejected.
    rec_dead_worker = copy.deepcopy(rec_good)
    for row in rec_dead_worker["rows"]:
        if row["Transport"].startswith("proc"):
            row["WorkerServedCalls"] = 0
    expect_reject("recovery proc rows with no worker-served bodies",
                  lambda: run_check("recovery", rec_dead_worker))

    if failures:
        for f in failures:
            print(f"self-test FAIL: {f}", file=sys.stderr)
        return 1
    print(f"ok (self-test): {ran} fixture scenarios behaved")
    return 0


def main(argv):
    if "--self-test" in argv:
        return self_test()

    args, baseline_path, tolerance = [], None, DEFAULT_TOLERANCE
    it = iter(argv[1:])
    for a in it:
        if a == "--baseline":
            baseline_path = next(it, None)
        elif a == "--tolerance":
            tolerance = float(next(it, DEFAULT_TOLERANCE))
        else:
            args.append(a)

    if not args or args[0] not in CHECKS:
        print(f"usage: {argv[0]} <{'|'.join(CHECKS)}> [bench.json] "
              "[--baseline BENCH.json] [--tolerance 0.10] | --self-test",
              file=sys.stderr)
        return 2
    table = args[0]
    source = open(args[1]) if len(args) > 1 and args[1] != "-" else sys.stdin
    with source:
        doc = json.load(source)
    baseline_doc = None
    if baseline_path:
        with open(baseline_path) as f:
            baseline_doc = json.load(f)
    summary = run_check(table, doc, baseline_doc=baseline_doc, tolerance=tolerance)
    print(f"ok ({table}): {summary}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
