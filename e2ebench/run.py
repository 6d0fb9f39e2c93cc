#!/usr/bin/env python3
"""End-to-end host benchmark of the HgPCN reproduction.

    python3 e2ebench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. Builds the driver (e2ebench/driver.cc,
linked against ../src) into .bench_build/, runs one workload for about
--seconds seconds and prints every metric by name with its unit, then,
as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics (tracing off); --trace 1 is
the separate traced pass and reports the per-layer metrics, prints the
per-layer table (wall ms beside modeled ms) and writes the spans as a
Chrome trace under .bench_out/. Every processed frame is checked
against the solo processFrame oracle; any mismatch makes "correct"
false and the exit code 1. README.md says why each workload exists.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True  # leave nothing behind in the checkout
import benchstats as bs  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
OUT_DIR = ROOT / ".bench_out"
BINARY = BUILD_DIR / "hgpcn_e2e"
WORKLOADS = ("lidar-stream", "object-latency", "drive-fleet")
BUILD_TIMEOUT_S = 850
RUN_GRACE_S = 150


class BenchError(Exception):
    """A build or run failure; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build the driver; return its path."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
         "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(BUILD_DIR), "--target", "hgpcn_e2e",
         "-j", jobs],
    ]
    for cmd in steps:
        try:
            proc = subprocess.run(cmd, capture_output=True, text=True,
                                  timeout=BUILD_TIMEOUT_S)
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"build step failed: {exc}") from exc
        if proc.returncode != 0:
            log(proc.stdout[-4000:])
            log(proc.stderr[-4000:])
            raise BenchError(f"build step failed: {' '.join(cmd)}")
    return BINARY


def run_driver(binary, args):
    """Run the driver and return its JSON document."""
    cmd = [str(binary), "--workload", args.workload, "--seed",
           str(args.seed), "--seconds", str(args.seconds), "--trace",
           str(args.trace)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=args.seconds + RUN_GRACE_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("driver timed out") from exc
    if proc.returncode != 0:
        log(proc.stderr[-4000:])
        raise BenchError(f"driver exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def source_stamp():
    """Git commit when the checkout is a repository, and a digest of
    the library sources either way."""
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30).stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        commit = ""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"git_commit": commit or "unknown (not a git checkout)",
            "src_sha256": digest.hexdigest()}


def ms(seconds):
    return seconds * 1e3


def p50(values):
    return bs.percentile(values, 50)


def e2e_metrics(doc):
    """End-to-end metrics of an untraced run: name -> (value, unit)."""
    fps = doc["frames_timed"] / doc["wall_timed_s"]
    latencies = doc["frame_s"]
    if bs.samples_beyond(len(latencies), 90) < bs.MIN_BEYOND:
        raise BenchError(f"{len(latencies)} latency samples: too few "
                         "for a p90 with ten beyond it")
    return {
        "fps": (fps, "frames/s"),
        "frame_ms_p50": (ms(bs.percentile(latencies, 50)), "ms"),
        "frame_ms_p90": (ms(bs.percentile(latencies, 90)), "ms"),
        "setup_s": (statistics.median(doc["setup_s"]), "s"),
        "peak_rss_mb": (statistics.median(doc["peak_rss_mib"]), "MiB"),
    }


def layer_metrics(doc):
    """Per-layer metrics of a traced run: name -> (value, unit), and
    the base of each ratio: name -> (base, what it counts)."""
    tr = doc["trace"]
    frames = doc["frames"]

    def modeled(key):
        return ms(p50([f[key] for f in frames]))

    def count(key):
        return p50([f[key] for f in frames])

    tp = tr["temporal"]
    hit_pct, hit_base = bs.ratio_pct(tp.get("octree_hits", 0),
                                     tp.get("frames", 0))
    node_pct, node_base = bs.ratio_pct(
        tp.get("nodes_reused", 0),
        tp.get("nodes_reused", 0) + tp.get("nodes_erected", 0))
    knn_pct, knn_base = bs.ratio_pct(
        tp.get("knn_incremental", 0),
        tp.get("knn_incremental", 0) + tp.get("knn_scratch", 0))
    span_ms = ms(p50(tr["frame_s"]))
    untraced_ms = ms(p50(tr["untraced_frame_s"]))
    gmacs = [m / s / 1e9 for m, s in zip(tr["macs"], tr["nn_s"])]
    metrics = {
        "modeled_fps": (doc["modeled_fps"], "frames/s"),
        "octree.build_ms": (ms(p50(tr["octree_s"])), "ms"),
        "octree.modeled_ms": (modeled("octree_modeled_s"), "ms"),
        "octree.table_bytes": (count("table_bytes"), "bytes"),
        "sampling.ois_ms": (ms(p50(tr["sampling_s"])), "ms"),
        "sampling.modeled_ms": (modeled("sampling_modeled_s"), "ms"),
        "nn.infer_ms": (ms(p50(tr["nn_s"])), "ms"),
        "nn.macs_per_frame": (count("macs"), "count"),
        "nn.gmacs_per_s": (p50(gmacs), "GMAC/s"),
        "nn.modeled_ms": (modeled("nn_modeled_s"), "ms"),
        "gather.distances_per_frame": (count("distances"), "count"),
        "gather.sort_candidates_per_frame":
            (count("sort_candidates"), "count"),
        "gather.modeled_ms": (modeled("gather_modeled_s"), "ms"),
        "sim.timing_ms": (ms(p50(tr["sim_s"])), "ms"),
        "temporal.octree_hit_pct": (hit_pct, "%"),
        "temporal.nodes_reused_pct": (node_pct, "%"),
        "temporal.knn_incremental_pct": (knn_pct, "%"),
        "runtime.overlap_x":
            (span_ms / 1e3 * statistics.median(tr["serve_fps"]), "x"),
        "serving.shard_frames_max_over_mean":
            (bs.max_over_mean(tr["shard_frames"]), "ratio"),
        # Spans are in microseconds.
        "frame.self_ms":
            (p50(bs.frame_self_times(tr["spans"])) / 1e3, "ms"),
        "frame.span_ms": (span_ms, "ms"),
        "frame.untraced_ms": (untraced_ms, "ms"),
        "trace.overhead_pct":
            (100.0 * (span_ms - untraced_ms) / untraced_ms, "%"),
    }
    bases = {
        "temporal.octree_hit_pct": (hit_base, "carried builds"),
        "temporal.nodes_reused_pct": (node_base, "octree nodes"),
        "temporal.knn_incremental_pct": (knn_base, "KNN index builds"),
        "serving.shard_frames_max_over_mean":
            (sum(tr["shard_frames"]), "frames over "
             f"{len(tr['shard_frames'])} shard(s)"),
    }
    return metrics, bases


def layer_table(doc, metrics):
    """Rows of (layer, wall ms, modeled ms, wall share, modeled share):
    modeled seconds beside measured wall seconds."""
    def val(name):
        return metrics[name][0]

    frame_wall = val("frame.span_ms")
    frame_modeled = ms(p50([f["e2e_modeled_s"] for f in doc["frames"]]))
    rows = [
        ("octree", val("octree.build_ms"), val("octree.modeled_ms")),
        ("sampling", val("sampling.ois_ms"), val("sampling.modeled_ms")),
        ("gather (in nn)", None, val("gather.modeled_ms")),
        ("nn", val("nn.infer_ms"), val("nn.modeled_ms")),
        ("sim (extra pass)", val("sim.timing_ms"), None),
        ("frame.self", val("frame.self_ms"), None),
        ("frame", frame_wall, frame_modeled),
    ]
    out = []
    for name, wall, model in rows:
        out.append((name, wall, model,
                    None if wall is None else wall / frame_wall,
                    None if model is None else model / frame_modeled))
    return out


def fmt(v, spec):
    """Format v, or a dash of the same width when there is none."""
    if v is None:
        return "-".rjust(int(spec.split(".")[0]))
    return format(v, spec)


def write_trace(doc, stamp, path):
    """Spans as Chrome trace JSON; children carry their frame's id."""
    events = [{"name": name, "ph": "X", "ts": start, "dur": end - start,
               "pid": 1, "tid": 1 if name == "frame" else 2,
               "args": {"frame": frame,
                        "parent": None if name == "frame" else
                        f"frame:{frame}"}}
              for name, frame, start, end in doc["trace"]["spans"]]
    path.write_text(json.dumps({"traceEvents": events,
                                "displayTimeUnit": "ms",
                                "metadata": stamp}))


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or not 1 <= args.seconds <= 600:
        ap.error("--seed must be >= 0 and --seconds in [1, 600]")

    try:
        binary = build()
        doc = run_driver(binary, args)
        stamp = {**doc["stamp"], **source_stamp()}
        metrics, bases = (layer_metrics(doc) if args.trace
                          else (e2e_metrics(doc), {}))
    except BenchError as exc:
        log(f"e2ebench: {exc}")
        return 1

    attempted, failed = int(doc["offered"]), int(doc["failed"])
    frac = bs.failed_frac(attempted, failed)
    correct = failed == 0 and doc["checked"] >= 1

    print(f"e2ebench {args.workload} seed {args.seed} "
          f"trace {args.trace}")
    print("stamp: " + json.dumps(stamp, sort_keys=True))
    print("inputs: " + json.dumps(doc["inputs"], sort_keys=True))
    for name, (value, unit) in metrics.items():
        base = (f" (base: {bases[name][0]:g} {bases[name][1]})"
                if name in bases else "")
        print(f"  {name:34s} {value:16.6g} {unit}{base}")
    print(f"  {'failed_frac':34s} {frac:16.6g} ratio "
          f"(base: {attempted} frames offered, {failed} failed, "
          f"{int(doc['checked'])} checked against the oracle)")
    if args.trace:
        print(f"  {'layer':18s} {'wall ms':>10s} {'modeled ms':>11s} "
              f"{'wall share':>10s} {'modeled share':>13s}")
        for name, wall, model, ws, mshare in layer_table(doc, metrics):
            print(f"  {name:18s} {fmt(wall, '10.3f')} "
                  f"{fmt(model, '11.3f')} {fmt(ws, '10.1%')} "
                  f"{fmt(mshare, '13.1%')}")

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": u}
                          for k, (v, u) in metrics.items()}}
    (OUT_DIR / f"result-{tag}.json").write_text(json.dumps(
        {**result, "stamp": stamp, "inputs": doc["inputs"]}, indent=1))
    if args.trace:
        trace_path = OUT_DIR / f"trace-{tag}.json"
        write_trace(doc, stamp, trace_path)
        print(f"trace: {trace_path.relative_to(ROOT)}")
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
