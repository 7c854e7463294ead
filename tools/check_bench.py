#!/usr/bin/env python3
"""Gate and report on freshly emitted BENCH_*.json artifacts.

Usage:
    check_bench.py --fresh <dir> [--baseline <dir>] [--suites a,b,...]
                   [--warn-threshold 0.15]
    check_bench.py --self-test

Three responsibilities (docs/PERF.md "How CI consumes the artifacts"):

1. HARD GATE — allocation discipline. Every result row of every fresh
   BENCH_*.json must report allocs_per_op == 0.0: the RtEnv frame arena is
   supposed to absorb all coroutine frames, so ANY steady-state heap
   traffic is a regression (a missing field, or the legacy -1.0 "not
   measured" marker, also fails — a vacuous zero must not pass the gate).
   Exit status 1 on violation.

2. VISIBLE WARNING — throughput drift. Each fresh result is diffed against
   the committed baseline artifact of the same suite (bench/baselines/) by
   (name, threads) key. Rows regressing more than --warn-threshold
   (default 15%) are promoted from the scrolling per-row log to GitHub
   `::warning` annotations plus an end-of-run summary, so perf regressions
   stop scrolling by silently. CI-runner numbers are noisy, so this still
   never fails the job — it exists to make a human look (see the
   regression walkthrough in docs/PERF.md).

3. REPORT ONLY — per-row deltas (ops/sec and bytes_per_object) for trend
   reading in the log.

Some suites carry additional structural bounds: sharded (footprint vs
the domain/8 bitmap floor, shard-count throughput scaling on multi-core
hosts — check_sharded_suite, docs/PERF.md "Reading the sharded rows"),
waitfree_sim (slow_path_entry_rate presence/range, the forced-slow pin —
check_waitfree_sim_suite), and traffic (percentile ordering, the
batch_size_mean floor, open-loop pacing — check_traffic_suite,
docs/PERF.md "Reading the traffic rows").

--self-test exercises every gate against synthetic documents (schema,
alloc gate, sharded naming/footprint/scaling/skip logic, waitfree_sim
rates, traffic bounds, throughput warnings) and exits nonzero if any
gate misbehaves; CI runs it so the checker itself is under test.
"""

import argparse
import glob
import json
import os
import sys

DEFAULT_SUITES = ["registers", "rllsc", "universal", "max_register", "hi_set",
                  "sharded", "waitfree_sim", "traffic", "degradation"]

REQUIRED_ROW_KEYS = ("name", "threads", "ops_per_sec", "p50_ns", "p99_ns",
                     "allocs_per_op", "bytes_per_object")


def load(path):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def check_schema(suite, doc):
    errors = []
    if doc.get("suite") != suite:
        errors.append(f"suite field is {doc.get('suite')!r}, expected {suite!r}")
    if "meta" not in doc:
        errors.append("missing meta block (compiler/flags provenance)")
    else:
        for key in ("compiler", "cplusplus", "optimize", "assertions",
                    "sanitizer", "arch"):
            if key not in doc["meta"]:
                errors.append(f"meta missing {key!r}")
    results = doc.get("results")
    if not isinstance(results, list) or not results:
        errors.append("results must be a non-empty list")
        return errors
    for row in results:
        for key in REQUIRED_ROW_KEYS:
            if key not in row:
                errors.append(f"result {row.get('name', '?')!r} missing {key!r}")
    return errors


def check_alloc_gate(doc):
    """Returns rows violating the allocs_per_op == 0 steady-state contract."""
    bad = []
    for row in doc.get("results", []):
        allocs = row.get("allocs_per_op")
        if not isinstance(allocs, (int, float)) or allocs != 0:
            bad.append(row)
    return bad


def parse_sharded_row(name):
    """Splits a sharded-suite row name "<mix>/<n>M/s<shards>" into
    (domain, shards), or returns None for rows that do not follow the
    contract (bench/bench_sharded.cpp emits only conforming names)."""
    parts = name.split("/")
    if len(parts) != 3 or not parts[1].endswith("M"):
        return None
    if not parts[2].startswith("s"):
        return None
    try:
        domain = int(parts[1][:-1]) * 1_000_000
        shards = int(parts[2][1:])
    except ValueError:
        return None
    return domain, shards


def check_sharded_suite(doc):
    """Sharded-store acceptance bounds (docs/PERF.md "Reading the sharded
    rows"):

    * bytes_per_object ≤ 2 × domain/8 on EVERY row — the packed multi-word
      store must stay within 2× of the information-theoretic bitmap floor
      (the slack covers per-shard tail-word rounding). Hard failure.

    * ops/sec must scale 1 → 16 shards — monotonically non-decreasing
      across the s1/s4/s16 points of each striped mix, with s16 ≥ 2 × s1.
      This is an inter-core contention bound: it only MEANS anything when
      the recording host could run the bench threads on distinct cores, so
      it is enforced only when meta.host_cores ≥ the row's thread count
      (single-core containers time-slice the threads and the sweep is
      noise; the checker reports the skip instead of failing).
    """
    failures = []
    skips = []
    sweeps = {}
    for row in doc.get("results", []):
        parsed = parse_sharded_row(row.get("name", ""))
        if parsed is None:
            failures.append(
                f"row {row.get('name')!r} does not match the "
                "\"<mix>/<n>M/s<shards>\" naming contract")
            continue
        domain, shards = parsed
        bound = 2 * domain // 8
        if row.get("bytes_per_object", 0) > bound:
            failures.append(
                f"{row['name']}: bytes_per_object={row['bytes_per_object']} "
                f"exceeds 2x the domain/8 floor ({bound})")
        mix = row["name"].split("/")[0]
        if mix == "mixed":  # striped sweeps carry the scaling contract
            sweeps.setdefault((mix, domain), {})[shards] = row
    host_cores = doc.get("meta", {}).get("host_cores", 0)
    for (mix, domain), rows in sorted(sweeps.items()):
        points = [rows.get(s) for s in (1, 4, 16)]
        if any(p is None for p in points):
            continue  # partial sweep: nothing to compare
        threads = max(p.get("threads", 1) for p in points)
        if host_cores < threads:
            skips.append(
                f"{mix}/{domain // 1_000_000}M: host_cores={host_cores} < "
                f"threads={threads} — shard-scaling bound not applicable "
                "(no inter-core contention to eliminate)")
            continue
        rates = [p["ops_per_sec"] for p in points]
        if not (rates[0] <= rates[1] <= rates[2]):
            failures.append(
                f"{mix}/{domain // 1_000_000}M: ops/sec not monotone over "
                f"s1/s4/s16: {rates[0]:.0f} / {rates[1]:.0f} / "
                f"{rates[2]:.0f}")
        if rates[2] < 2 * rates[0]:
            failures.append(
                f"{mix}/{domain // 1_000_000}M: s16 must be >= 2x s1 "
                f"({rates[2]:.0f} vs {rates[0]:.0f} ops/s)")
    return failures, skips


def check_waitfree_sim_suite(doc):
    """Wait-free-simulation suite bounds (bench/bench_waitfree_sim.cpp):

    * EVERY row must report slow_path_entry_rate in [0, 1] — the combinator
      rows measure it from the alg's own counters and the alg4 control rows
      pin 0.0; a missing field means the emitter and the gate drifted apart.

    * The wfs/forced_slow_read row (fast_limit=0, read-only) must report
      exactly 1.0 — every operation is FORCED through announce → enqueue →
      help by construction, so any other value means the slow-path counter
      (or the fast-path bypass) is broken, not that the schedule was lucky.

    Contended rows are NOT required to show a positive rate: on a
    single-core host the threads time-slice and fast-path attempts rarely
    fail, which is a host property, not a combinator bug.
    """
    failures = []
    for row in doc.get("results", []):
        name = row.get("name", "?")
        rate = row.get("slow_path_entry_rate")
        if not isinstance(rate, (int, float)) or not 0.0 <= rate <= 1.0:
            failures.append(
                f"{name}: slow_path_entry_rate={rate!r} missing or outside "
                "[0, 1]")
            continue
        if name == "wfs/forced_slow_read" and rate != 1.0:
            failures.append(
                f"{name}: slow_path_entry_rate={rate} but fast_limit=0 "
                "forces EVERY op through the slow path (must be exactly 1.0)")
    return failures


def check_traffic_suite(doc):
    """Traffic-driver suite bounds (bench/bench_traffic.cpp, docs/PERF.md
    "Reading the traffic rows"):

    * latency percentiles must be ordered on EVERY row: p50 ≤ p99, and
      p99 ≤ p999 whenever p999_ns is present — a violation means the
      sojourn-histogram extraction is broken, not that the host was slow;

    * batch_size_mean, when present, must be ≥ 1 (an installed batch
      carries at least the winner's own op), and it MUST be present on
      combining rows ("combine" in the row name) — those rows exist to
      measure batching, so a missing field means the emitter and the gate
      drifted apart;

    * open-loop rows ("open" in the row name) must report offered_load and
      achieved_load with achieved ≤ 1.02 × offered — the open-loop driver
      paces arrivals at the offered rate, so achieving materially MORE
      than offered means the pacing or the accounting is broken. The 2%
      slack absorbs clock-edge jitter on short runs; closed-loop rows
      carry no offered/achieved contract (the loop itself is the pacer).
    """
    failures = []
    for row in doc.get("results", []):
        name = row.get("name", "?")
        p50, p99 = row.get("p50_ns"), row.get("p99_ns")
        p999 = row.get("p999_ns")
        if isinstance(p50, (int, float)) and isinstance(p99, (int, float)):
            if p50 > p99:
                failures.append(f"{name}: p50_ns={p50} > p99_ns={p99}")
            if isinstance(p999, (int, float)) and p99 > p999:
                failures.append(f"{name}: p99_ns={p99} > p999_ns={p999}")
        batch = row.get("batch_size_mean")
        if batch is not None:
            if not isinstance(batch, (int, float)) or batch < 1.0:
                failures.append(
                    f"{name}: batch_size_mean={batch!r} below 1 — a batch "
                    "installs at least the winner's own op")
        elif "combine" in name:
            failures.append(
                f"{name}: combining row is missing batch_size_mean")
        if "open" in name:
            offered = row.get("offered_load")
            achieved = row.get("achieved_load")
            if not isinstance(offered, (int, float)) or \
                    not isinstance(achieved, (int, float)):
                failures.append(
                    f"{name}: open-loop row missing offered_load/"
                    "achieved_load")
            elif achieved > 1.02 * offered:
                failures.append(
                    f"{name}: achieved_load={achieved:.0f} exceeds "
                    f"offered_load={offered:.0f} by more than 2% — the "
                    "open-loop pacer or the accounting is broken")
    return failures


# Stall-sweep families the degradation suite must emit in full: family
# prefix -> total thread count n (rows are "<family>_stall<k>of<n>" for
# every k in 0..n-1). Alg 4 is SWSR, so its sweep is the 2-thread
# configuration; the others run 3 threads.
DEGRADATION_FAMILIES = {
    "universal/plain": 3,
    "universal/combine": 3,
    "wfs/sim": 3,
    "alg4/native": 2,
}

def check_degradation_suite(doc):
    """Graceful-degradation suite bounds (bench/bench_degradation.cpp,
    docs/FAULTS.md "Reading the degradation book"):

    * COMPLETE SWEEPS — every family in DEGRADATION_FAMILIES must appear at
      every stall count k in 0..n-1. A missing row means the emitter and
      the gate drifted apart, or a stalled configuration hung and its row
      was silently dropped — the exact outcome this suite exists to expose.

    * SURVIVOR PROGRESS — every stall row must report ops_per_sec > 0.
      All four families are lock-free or wait-free, so survivors MUST keep
      completing operations no matter how many peers are parked mid-op
      (k < n); zero survivor throughput is the perf-book face of the
      progress-gate failure the crash audits catch in the sim.

    * wfs/sim rows must carry slow_path_entry_rate in [0, 1] (stalled
      readers pushing survivors onto the slow path is the mechanism being
      measured) and alg4/native control rows must pin exactly 0.0 (no slow
      path exists to enter).
    """
    failures = []
    rows = {row.get("name"): row for row in doc.get("results", [])}
    for family, n in sorted(DEGRADATION_FAMILIES.items()):
        for k in range(n):
            name = f"{family}_stall{k}of{n}"
            row = rows.get(name)
            if row is None:
                failures.append(
                    f"missing stall row {name!r} — the k-sweep for "
                    f"{family} must cover every k in 0..{n - 1}")
                continue
            ops = row.get("ops_per_sec")
            if not isinstance(ops, (int, float)) or ops <= 0:
                failures.append(
                    f"{name}: ops_per_sec={ops!r} — survivors of a "
                    "lock-free/wait-free object must keep completing ops "
                    f"with {k} of {n} threads stalled")
            rate = row.get("slow_path_entry_rate")
            if family == "wfs/sim":
                if not isinstance(rate, (int, float)) or \
                        not 0.0 <= rate <= 1.0:
                    failures.append(
                        f"{name}: slow_path_entry_rate={rate!r} missing or "
                        "outside [0, 1]")
            elif family == "alg4/native" and rate != 0.0:
                failures.append(
                    f"{name}: slow_path_entry_rate={rate!r} but the native "
                    "Alg 4 register has no slow path (must pin 0.0)")
    return failures


def report_throughput(suite, fresh, baseline, warn_threshold, warnings):
    if baseline is None:
        print(f"  [{suite}] no committed baseline — skipping throughput diff")
        return
    base_by_key = {
        (row["name"], row.get("threads", 1)): row
        for row in baseline.get("results", [])
    }
    for row in fresh.get("results", []):
        key = (row["name"], row.get("threads", 1))
        base = base_by_key.get(key)
        label = f"{row['name']} (threads={key[1]})"
        if base is None or not base.get("ops_per_sec"):
            print(f"  [{suite}] {label}: new result, no baseline")
            continue
        delta = (row["ops_per_sec"] - base["ops_per_sec"]) / base["ops_per_sec"]
        note = ""
        bytes_fresh = row.get("bytes_per_object")
        bytes_base = base.get("bytes_per_object")
        if bytes_base not in (None, bytes_fresh):
            note = f", bytes/object {bytes_base} -> {bytes_fresh}"
        print(f"  [{suite}] {label}: {row['ops_per_sec']:.0f} ops/s "
              f"vs baseline {base['ops_per_sec']:.0f} ({delta:+.1%}{note})")
        if delta < -warn_threshold:
            warnings.append(
                f"{suite}: {label} regressed {delta:+.1%} "
                f"({base['ops_per_sec']:.0f} -> {row['ops_per_sec']:.0f} "
                "ops/s vs committed baseline)")


# --------------------------------------------------------------- self-test

def _synthetic_row(name, threads=1, ops_per_sec=1e6, allocs_per_op=0.0,
                   bytes_per_object=0, **overrides):
    row = {"name": name, "threads": threads, "ops_per_sec": ops_per_sec,
           "p50_ns": 100, "p99_ns": 500, "allocs_per_op": allocs_per_op,
           "bytes_per_object": bytes_per_object}
    row.update(overrides)
    return row


def _synthetic_doc(suite, rows, host_cores=16):
    return {
        "suite": suite,
        "meta": {"compiler": "test", "cplusplus": 202002, "optimize": "-O2",
                 "assertions": False, "sanitizer": "none", "arch": "x86_64",
                 "host_cores": host_cores},
        "results": rows,
    }


def _sharded_doc(rates, bytes_factor=1.0, host_cores=16, threads=16,
                 mix="mixed"):
    """A striped s1/s4/s16 sweep at domain 4M with the given ops/sec points
    and bytes_per_object = bytes_factor × the domain/8 bitmap floor."""
    domain = 4_000_000
    rows = [
        _synthetic_row(f"{mix}/4M/s{shards}", threads=threads,
                       ops_per_sec=rate,
                       bytes_per_object=int(domain // 8 * bytes_factor))
        for shards, rate in zip((1, 4, 16), rates)
    ]
    return _synthetic_doc("sharded", rows, host_cores=host_cores)


def self_test():
    """Runs every gate against synthetic documents; returns an exit code."""
    problems = []

    def expect(condition, label):
        print(f"  [{'ok' if condition else 'FAIL'}] {label}")
        if not condition:
            problems.append(label)

    # Schema gate.
    good = _synthetic_doc("registers", [_synthetic_row("w/1")])
    expect(not check_schema("registers", good),
           "schema accepts a conforming document")
    expect(check_schema("rllsc", good),
           "schema rejects a suite-name mismatch")
    expect(check_schema("registers", {"suite": "registers"}),
           "schema rejects missing meta/results")
    truncated = _synthetic_doc("registers", [_synthetic_row("w/1")])
    del truncated["results"][0]["p99_ns"]
    expect(check_schema("registers", truncated),
           "schema rejects a row missing a required key")
    bare_meta = _synthetic_doc("registers", [_synthetic_row("w/1")])
    del bare_meta["meta"]["sanitizer"]
    expect(check_schema("registers", bare_meta),
           "schema rejects meta without provenance fields")

    # Alloc gate.
    expect(not check_alloc_gate(good),
           "alloc gate passes allocs_per_op == 0")
    expect(check_alloc_gate(
        _synthetic_doc("r", [_synthetic_row("w/1", allocs_per_op=0.25)])),
           "alloc gate flags nonzero allocs_per_op")
    expect(check_alloc_gate(
        _synthetic_doc("r", [_synthetic_row("w/1", allocs_per_op=-1.0)])),
           "alloc gate flags the legacy -1 'not measured' marker")
    unmeasured = _synthetic_doc("r", [_synthetic_row("w/1")])
    del unmeasured["results"][0]["allocs_per_op"]
    expect(check_alloc_gate(unmeasured),
           "alloc gate flags a missing allocs_per_op field")

    # Sharded row-name contract.
    expect(parse_sharded_row("mixed/4M/s16") == (4_000_000, 16),
           "parse_sharded_row decodes \"<mix>/<n>M/s<shards>\"")
    expect(parse_sharded_row("mixed/4M") is None,
           "parse_sharded_row rejects a missing shard component")
    expect(parse_sharded_row("mixed/4x/s2") is None,
           "parse_sharded_row rejects a malformed domain component")
    expect(parse_sharded_row("mixed/4M/16") is None,
           "parse_sharded_row rejects a shard component without 's'")

    # Sharded suite: pass / fail / skip.
    failures, skips = check_sharded_suite(_sharded_doc((1e6, 2e6, 3e6)))
    expect(not failures and not skips,
           "sharded: monotone 2x+ sweep within the footprint bound passes")
    failures, _ = check_sharded_suite(
        _sharded_doc((1e6, 2e6, 3e6), bytes_factor=2.5))
    expect(any("bytes_per_object" in f for f in failures),
           "sharded: footprint above 2x the domain/8 floor fails")
    failures, _ = check_sharded_suite(
        _synthetic_doc("sharded", [_synthetic_row("mixed-4M-s1")]))
    expect(any("naming contract" in f for f in failures),
           "sharded: a row violating the naming contract fails")
    failures, _ = check_sharded_suite(_sharded_doc((3e6, 2e6, 1e6)))
    expect(any("not monotone" in f for f in failures),
           "sharded: a non-monotone s1/s4/s16 sweep fails")
    failures, _ = check_sharded_suite(_sharded_doc((1e6, 1.5e6, 1.9e6)))
    expect(any(">= 2x" in f for f in failures),
           "sharded: s16 below 2x s1 fails")
    failures, skips = check_sharded_suite(
        _sharded_doc((3e6, 2e6, 1e6), host_cores=1))
    expect(not failures and any("host_cores" in s for s in skips),
           "sharded: the scaling bound is SKIPPED (not failed) when "
           "host_cores < threads")
    failures, skips = check_sharded_suite(
        _sharded_doc((1e6, 2e6, 3e6), mix="lookup"))
    expect(not failures and not skips,
           "sharded: non-mixed rows carry no scaling contract")

    # Wait-free-simulation suite: rate field presence / range / forced row.
    wfs_good = _synthetic_doc("waitfree_sim", [
        _synthetic_row("wfs/solo_read", slow_path_entry_rate=0.0),
        _synthetic_row("wfs/forced_slow_read", slow_path_entry_rate=1.0),
        _synthetic_row("alg4/solo_read", slow_path_entry_rate=0.0),
    ])
    expect(not check_waitfree_sim_suite(wfs_good),
           "waitfree_sim: rates in [0,1] with forced row at 1.0 pass")
    expect(check_waitfree_sim_suite(
        _synthetic_doc("waitfree_sim", [_synthetic_row("wfs/solo_read")])),
           "waitfree_sim: a row missing slow_path_entry_rate fails")
    expect(check_waitfree_sim_suite(
        _synthetic_doc("waitfree_sim", [
            _synthetic_row("wfs/solo_read", slow_path_entry_rate=1.5)])),
           "waitfree_sim: a rate outside [0,1] fails")
    expect(check_waitfree_sim_suite(
        _synthetic_doc("waitfree_sim", [
            _synthetic_row("wfs/forced_slow_read",
                           slow_path_entry_rate=0.4)])),
           "waitfree_sim: forced_slow_read below 1.0 fails")

    # Traffic suite: percentile ordering / batch floor / open-loop pacing.
    traffic_good = _synthetic_doc("traffic", [
        _synthetic_row("traffic/closed_contended_combine", p999_ns=900,
                       batch_size_mean=1.7),
        _synthetic_row("traffic/closed_contended_plain", p999_ns=900),
        _synthetic_row("traffic/open_poisson_combine", p999_ns=900,
                       batch_size_mean=1.0, offered_load=2e5,
                       achieved_load=1.99e5),
    ])
    expect(not check_traffic_suite(traffic_good),
           "traffic: ordered percentiles, batch >= 1, achieved <= offered "
           "pass")
    expect(check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/closed_contended_plain", p50_ns=600)])),
           "traffic: p50 above p99 fails")
    expect(check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/closed_contended_plain", p999_ns=400)])),
           "traffic: p99 above p999 fails")
    expect(check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/closed_contended_combine", p999_ns=900,
                           batch_size_mean=0.5)])),
           "traffic: batch_size_mean below 1 fails")
    expect(check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/closed_contended_combine",
                           p999_ns=900)])),
           "traffic: a combining row missing batch_size_mean fails")
    expect(not check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/closed_contended_plain", p999_ns=900)])),
           "traffic: a plain row may omit batch_size_mean")
    expect(check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/open_poisson_plain", p999_ns=900)])),
           "traffic: an open-loop row missing offered/achieved fails")
    expect(check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/open_poisson_plain", p999_ns=900,
                           offered_load=2e5, achieved_load=2.1e5)])),
           "traffic: achieved_load above 1.02x offered_load fails")
    expect(not check_traffic_suite(
        _synthetic_doc("traffic", [
            _synthetic_row("traffic/open_poisson_plain", p999_ns=900,
                           offered_load=2e5, achieved_load=2.03e5)])),
           "traffic: achieved within the 2% jitter slack passes")

    # Degradation suite: sweep completeness / survivor progress / rates.
    def _degradation_rows():
        rows = []
        for family, n in DEGRADATION_FAMILIES.items():
            for k in range(n):
                rate = {"wfs/sim": 0.2, "alg4/native": 0.0}.get(family, -1.0)
                row = _synthetic_row(f"{family}_stall{k}of{n}", threads=n)
                if rate >= 0:
                    row["slow_path_entry_rate"] = rate
                rows.append(row)
        return rows

    deg_good = _synthetic_doc("degradation", _degradation_rows())
    expect(not check_degradation_suite(deg_good),
           "degradation: complete sweeps with positive survivor throughput "
           "pass")
    deg_missing = _synthetic_doc("degradation", [
        r for r in _degradation_rows()
        if r["name"] != "universal/combine_stall2of3"])
    expect(any("missing stall row" in f
               for f in check_degradation_suite(deg_missing)),
           "degradation: a k-sweep with a missing stall count fails")
    deg_stuck = _synthetic_doc("degradation", _degradation_rows())
    for row in deg_stuck["results"]:
        if row["name"] == "wfs/sim_stall2of3":
            row["ops_per_sec"] = 0.0
    expect(any("survivors" in f for f in check_degradation_suite(deg_stuck)),
           "degradation: zero survivor throughput under stalls fails")
    deg_rate = _synthetic_doc("degradation", _degradation_rows())
    for row in deg_rate["results"]:
        if row["name"] == "wfs/sim_stall1of3":
            row["slow_path_entry_rate"] = 1.5
    expect(any("outside [0, 1]" in f
               for f in check_degradation_suite(deg_rate)),
           "degradation: a wfs rate outside [0,1] fails")
    deg_ctrl = _synthetic_doc("degradation", _degradation_rows())
    for row in deg_ctrl["results"]:
        if row["name"] == "alg4/native_stall0of2":
            row["slow_path_entry_rate"] = 0.3
    expect(any("no slow path" in f for f in check_degradation_suite(deg_ctrl)),
           "degradation: an alg4 control row off the 0.0 pin fails")

    # Throughput warnings.
    fresh = _synthetic_doc("registers",
                           [_synthetic_row("w/1", ops_per_sec=8e5)])
    baseline = _synthetic_doc("registers",
                              [_synthetic_row("w/1", ops_per_sec=1e6)])
    warnings = []
    report_throughput("registers", fresh, baseline, 0.15, warnings)
    expect(len(warnings) == 1,
           "throughput: a 20% drop vs baseline raises a warning")
    warnings = []
    report_throughput("registers", baseline, fresh, 0.15, warnings)
    expect(not warnings,
           "throughput: an improvement raises no warning")
    warnings = []
    report_throughput(
        "registers",
        _synthetic_doc("registers",
                       [_synthetic_row("w/1", ops_per_sec=9.5e5)]),
        baseline, 0.15, warnings)
    expect(not warnings,
           "throughput: a 5% drop stays below the warning threshold")

    if problems:
        print(f"\nself-test FAILED ({len(problems)} gate misbehaviors):",
              file=sys.stderr)
        for problem in problems:
            print(f"  - {problem}", file=sys.stderr)
        return 1
    print("\nself-test passed: every gate behaves as documented.")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--fresh",
                        help="directory holding freshly emitted BENCH_*.json")
    parser.add_argument("--self-test", action="store_true",
                        help="exercise every gate against synthetic documents "
                             "and exit (no artifacts needed)")
    parser.add_argument("--baseline", default=None,
                        help="directory holding committed baseline artifacts")
    parser.add_argument("--suites", default=",".join(DEFAULT_SUITES),
                        help="comma-separated suite names")
    parser.add_argument("--warn-threshold", type=float, default=0.15,
                        help="ops/sec regression fraction that raises a "
                             "visible CI warning (default 0.15 = 15%%)")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.fresh:
        parser.error("--fresh is required unless --self-test is given")

    suites = [s for s in args.suites.split(",") if s]
    failures = []
    warnings = []
    for suite in suites:
        fresh_path = os.path.join(args.fresh, f"BENCH_{suite}.json")
        if not os.path.exists(fresh_path):
            failures.append(f"{suite}: missing fresh artifact {fresh_path}")
            continue
        try:
            fresh = load(fresh_path)
        except (OSError, json.JSONDecodeError) as err:
            failures.append(f"{suite}: unreadable fresh artifact: {err}")
            continue

        for err in check_schema(suite, fresh):
            failures.append(f"{suite}: schema: {err}")
        for row in check_alloc_gate(fresh):
            failures.append(
                f"{suite}: {row.get('name')!r} (threads="
                f"{row.get('threads')}) reports allocs_per_op="
                f"{row.get('allocs_per_op')!r}; steady state must be 0 — "
                "a coroutine frame escaped the arena or the probe is off")
        if suite == "sharded":
            sharded_failures, sharded_skips = check_sharded_suite(fresh)
            failures.extend(f"sharded: {f}" for f in sharded_failures)
            for skip in sharded_skips:
                print(f"  [sharded] skipped: {skip}")
        if suite == "waitfree_sim":
            failures.extend(
                f"waitfree_sim: {f}" for f in check_waitfree_sim_suite(fresh))
        if suite == "traffic":
            failures.extend(
                f"traffic: {f}" for f in check_traffic_suite(fresh))
        if suite == "degradation":
            failures.extend(
                f"degradation: {f}" for f in check_degradation_suite(fresh))

        baseline = None
        if args.baseline:
            base_path = os.path.join(args.baseline, f"BENCH_{suite}.json")
            if os.path.exists(base_path):
                try:
                    baseline = load(base_path)
                except (OSError, json.JSONDecodeError) as err:
                    print(f"  [{suite}] unreadable baseline ({err}); "
                          "skipping diff")
        report_throughput(suite, fresh, baseline, args.warn_threshold,
                          warnings)

    stray = sorted(
        os.path.basename(p) for p in glob.glob(
            os.path.join(args.fresh, "BENCH_*.json"))
        if os.path.basename(p)[len("BENCH_"):-len(".json")] not in suites)
    if stray:
        print(f"  note: unchecked artifacts present: {', '.join(stray)} "
              "(add them to --suites and bench/baselines/)")

    if warnings:
        # GitHub Actions renders `::warning` lines as job annotations, so a
        # regression is visible on the run summary page without log-diving;
        # locally they read as a plain summary block. Warnings never fail
        # the job — runner throughput is too noisy for a hard gate.
        print(f"\nBENCH throughput warnings (> {args.warn_threshold:.0%} "
              "below baseline):")
        for warning in warnings:
            print(f"::warning title=bench throughput regression::{warning}")
            print(f"  ! {warning}")
    if failures:
        print("\nBENCH check FAILED:", file=sys.stderr)
        for failure in failures:
            print(f"  - {failure}", file=sys.stderr)
        return 1
    print("\nBENCH check passed: every suite reports allocs_per_op == 0"
          + (f"; {len(warnings)} throughput warning(s) above." if warnings
             else " and no throughput warnings."))
    return 0


if __name__ == "__main__":
    sys.exit(main())
