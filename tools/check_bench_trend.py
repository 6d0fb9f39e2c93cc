#!/usr/bin/env python3
"""Cross-PR wall-clock trend gate over the BENCH_*.json records.

Compares a freshly generated bench record against the committed copy
at the repo root (the machine-readable perf trajectory,
docs/PERFORMANCE.md). Two kinds of keys are held to two kinds of
bars:

- machine-independent keys (modeled seconds, workload counters,
  schema fields, closed-form trace parameters) must match the
  committed record exactly -- any drift is a fidelity regression,
  caught no matter which machine generated either file;
- wall-clock keys (FPS, ns/op) only have to stay within a loose
  ratio band of the committed value, because the committed numbers
  come from a dev container and CI runs on shared runners. The
  bands are deliberately coarse (0.25-0.4x) so runner noise cannot
  flake the job while a genuine order-of-magnitude regression still
  fails it.

A record (or an individual key) present only in the fresh file is a
new baseline, not a violation: the first PR that adds a bench (or
grows its record) must be able to commit the record it just
generated. Both cases print a NOTE so the reviewer sees the baseline
grow; removing a committed key still fails.

Usage:
    tools/check_bench_trend.py <committed.json> <fresh.json>
    tools/check_bench_trend.py --self-test

The rule set is selected by the record's "bench" field. Exit status
is nonzero on any violation; every violation is printed. Stdlib
only (runs on a bare CI python3).
"""

import json
import math
import re
import sys

# Rule vocabulary, first matching pattern wins:
#   ("higher", r)  wall-clock, higher is better: fresh >= r * committed
#   ("lower", r)   wall-clock, lower is better:  fresh <= committed / r
#   ("ignore",)    content not compared (presence/shape still is)
# Keys matching no pattern are machine-independent: exact for ints,
# bools and strings; relative 1e-9 for floats (formatting headroom).
RULES = {
    "runtime_throughput": [
        (r"^wallClockFps$", ("higher", 0.25)),
        (r"^wallClockFpsTraced$", ("higher", 0.25)),
        # Difference of two same-machine wall clocks; tiny and noise-
        # dominated (can go negative). The hard bound is the bench's
        # own --assert-tracer-overhead gate, not the trend.
        (r"^tracerOverheadPct$", ("ignore",)),
        # Per-pair median and range of the same difference: recorded
        # to show its spread, not gated.
        (r"^tracerOverhead(Median|Range)Pct$", ("ignore",)),
    ],
    "microbench_kernels": [
        (r"\.ns_per_op$", ("lower", 0.25)),
        (r"\.items_per_sec$", ("higher", 0.25)),
        # Ratio of two wall-clocks on one machine: tighter than the
        # absolute rates, and already floored at 1.5x absolute by
        # --assert-knn-speedup in the same CI job.
        (r"^knn_speedup_kitti$", ("higher", 0.4)),
    ],
    "serving_elastic": [
        # Human-readable autoscaler narration: float formatting, not
        # trajectory. The decisions themselves are pinned by
        # widthTrajectory/scaleEvents, which stay exact.
        (r"^elastic\.decisionLog\[", ("ignore",)),
    ],
    # batching_throughput reports the virtual-time schedule only
    # (wall-clock is stdout-only by design): the default exact rules
    # double as its determinism check.
    "batching_throughput": [],
    # serving_faults records the faulted virtual schedule: the
    # completion ratio, fault/retry/failover counters and modeled
    # FPS are all deterministic arithmetic (wall-clock stays on
    # stdout), so the exact rules pin the whole faulted schedule —
    # completionRatio drift is a fault-machinery regression.
    "serving_faults": [],
}


def flatten(value, path, out):
    if isinstance(value, dict):
        for k, v in value.items():
            flatten(v, f"{path}.{k}" if path else k, out)
    elif isinstance(value, list):
        out[f"{path}#len"] = len(value)
        for i, v in enumerate(value):
            flatten(v, f"{path}[{i}]", out)
    else:
        out[path] = value


def rule_for(bench, path):
    for pattern, rule in RULES[bench]:
        if re.search(pattern, path):
            return rule
    return ("exact",)


def check(committed, fresh):
    bench = committed.get("bench")
    if bench not in RULES:
        return [f"unknown bench '{bench}' (committed record)"], []
    if fresh.get("bench") != bench:
        return [
            f"bench mismatch: committed '{bench}' "
            f"vs fresh '{fresh.get('bench')}'"
        ], []

    a, b = {}, {}
    flatten(committed, "", a)
    flatten(fresh, "", b)

    problems = []
    notices = []
    for path in sorted(set(a) | set(b)):
        rule = rule_for(bench, path)
        if path not in a:
            if rule[0] != "ignore":
                notices.append(
                    f"{path}: only in fresh record (new baseline)"
                )
            continue
        if path not in b:
            if rule[0] != "ignore":
                problems.append(f"{path}: missing from fresh record")
            continue
        old, new = a[path], b[path]
        if rule[0] == "ignore":
            continue
        if rule[0] in ("higher", "lower"):
            ratio = rule[1]
            if not (
                isinstance(old, (int, float))
                and isinstance(new, (int, float))
            ):
                problems.append(f"{path}: expected numbers, got "
                                f"{old!r} vs {new!r}")
            elif rule[0] == "higher" and new < ratio * old:
                problems.append(
                    f"{path}: {new:g} fell below {ratio:g}x "
                    f"committed {old:g}"
                )
            elif rule[0] == "lower" and new * ratio > old:
                problems.append(
                    f"{path}: {new:g} exceeds committed {old:g} "
                    f"by more than {1 / ratio:g}x"
                )
            continue
        # Machine-independent: exact, with float formatting headroom.
        if isinstance(old, float) or isinstance(new, float):
            if not math.isclose(old, new, rel_tol=1e-9, abs_tol=0.0):
                problems.append(f"{path}: {old!r} -> {new!r} "
                                "(machine-independent key moved)")
        elif old != new:
            problems.append(f"{path}: {old!r} -> {new!r} "
                            "(machine-independent key moved)")
    return problems, notices


def self_test():
    """Verify the checker's verdicts on synthetic perturbations.

    Guards the gate itself: a rules edit that silently stops
    failing on drift (or starts flaking on noise) is caught here,
    without needing a real bench run. Run by CI before the real
    comparisons.
    """
    base = {
        "bench": "runtime_throughput",
        "schema": "hgpcn-bench-runtime/2",
        "frames": 8,
        "serialModeledFps": 123.13,
        "wallClockFps": 2.2,
        "wallClockFpsTraced": 2.1,
        "tracerOverheadPct": 1.2,
        "tracerOverheadMedianPct": 0.8,
        "tracerOverheadRangePct": 3.5,
        "pacedModeledFps": 11.297,
        "traceVirtualEvents": 24,
    }
    cases = []

    def case(name, mutate, expect_problems, expect_notices=0):
        fresh = dict(base)
        mutate(fresh)
        problems, notices = check(base, fresh)
        ok = (bool(problems) == expect_problems
              and len(notices) == expect_notices)
        cases.append((name, ok, problems, notices))

    case("identical record passes", lambda f: None, False)
    case("fresh-only key is a NOTE, not a failure",
         lambda f: f.update(newOverheadKey=1.0), False, 1)
    case("machine-independent drift fails",
         lambda f: f.update(pacedModeledFps=11.298), True)
    case("wall-clock collapse fails",
         lambda f: f.update(wallClockFpsTraced=0.1), True)
    case("wall-clock noise within band passes",
         lambda f: f.update(wallClockFps=1.9,
                            wallClockFpsTraced=2.6), False)
    case("ignored key may move freely",
         lambda f: f.update(tracerOverheadPct=-3.0), False)
    case("per-pair overhead spread may move freely",
         lambda f: f.update(tracerOverheadMedianPct=-9.0,
                            tracerOverheadRangePct=40.0), False)
    case("dropped committed key fails",
         lambda f: f.pop("traceVirtualEvents"), True)

    # serving_faults is all-exact: the faulted schedule is
    # deterministic, so any numeric drift is a regression.
    faults_base = {
        "bench": "serving_faults",
        "schema": "hgpcn-bench-faults/1",
        "frames": 756,
        "completionRatio": 0.994708,
        "framesFailed": 4,
        "framesRetried": 48,
        "failovers": 146,
        "faultedSustainedFps": 3744.8,
        "zeroPlanIdentical": True,
        "replayIdentical": True,
    }

    def faults_case(name, mutate, expect_problems):
        fresh = dict(faults_base)
        mutate(fresh)
        problems, notices = check(faults_base, fresh)
        ok = bool(problems) == expect_problems and not notices
        cases.append((name, ok, problems, notices))

    faults_case("identical faults record passes", lambda f: None,
                False)
    faults_case("completion-ratio drift fails",
                lambda f: f.update(completionRatio=0.92), True)
    faults_case("fault-counter drift fails",
                lambda f: f.update(framesRetried=47), True)
    faults_case("modeled-FPS drift fails (deterministic schedule)",
                lambda f: f.update(faultedSustainedFps=3744.9),
                True)
    faults_case("lost replay identity fails",
                lambda f: f.update(replayIdentical=False), True)

    failed = [c for c in cases if not c[1]]
    for name, ok, problems, notices in cases:
        print(f"{'ok' if ok else 'FAIL'}  {name}")
        if not ok:
            for p in problems:
                print(f"      problem: {p}")
            for n in notices:
                print(f"      notice: {n}")
    if failed:
        print(f"SELF-TEST FAIL: {len(failed)}/{len(cases)} cases")
        return 1
    print(f"SELF-TEST OK: {len(cases)} cases")
    return 0


def main(argv):
    if len(argv) == 2 and argv[1] == "--self-test":
        return self_test()
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        with open(argv[1]) as f:
            committed = json.load(f)
    except FileNotFoundError:
        with open(argv[2]) as f:
            fresh = json.load(f)
        bench = fresh.get("bench")
        if bench not in RULES:
            print(f"FAIL: unknown bench '{bench}' (fresh record)")
            return 1
        print(f"NOTE {bench}: no committed record at {argv[1]}; "
              "fresh record is the new baseline")
        return 0
    with open(argv[2]) as f:
        fresh = json.load(f)
    problems, notices = check(committed, fresh)
    name = committed.get("bench", argv[1])
    for n in notices:
        print(f"NOTE {name}: {n}")
    if problems:
        print(f"FAIL {name}: {len(problems)} violation(s)")
        for p in problems:
            print(f"  {p}")
        return 1
    print(f"OK {name}: fresh record within trend bounds "
          f"({len(fresh)} top-level keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
