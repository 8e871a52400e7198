"""ldm benchmark: wire ingest and geo-query latency on three workloads.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Workloads (see BENCHMARK.json for why each is here), each a closed-loop
feed on one connection in ten chunks, with closed-loop reads of the five
queries after each chunk:
  station-stream   one station, 20 objects per CPM, infinite L4 TTL
  city-feed        ~10^4-segment map, 200 stations + probe payloads,
                   archiving eviction on the feed clock
  district-query   ~10^3-segment map, ~200 tracked objects with one TTL
                   of history, eviction on the feed clock; reads at the
                   latest line

Each measurement runs perfbench/workload.py in a fresh process. With
--trace 0 the result holds every end-to-end metric. With --trace 1 the
workload runs twice, untraced and traced, and the result holds every
per-layer metric, trace.overhead_share among them. The lines before the
last one report each metric with its unit and sample count, the machine
and the seed; the last line is the JSON result:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

The exit code is non-zero when an output was wrong or a run failed.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DEFAULT_SEED = 1
DEFAULT_SECONDS = 20
RUN_LIMIT_S = 175

# The end-to-end metrics of the result, as listed in BENCHMARK.json.
# Latency carries its bounds on the medians. The tails are printed with
# their sample counts but carry no bound: on a shared 2-vCPU host the
# ingest p99 moved by up to 0.8 of its median over ten seeds, and on
# city-feed a fixed 8-14 % of the objects_within, objects_near_node and
# objects_on_same_way calls contain a full collection of the interpreter's
# garbage collector, so their p90 sits on the edge between two modes.
# Also printed without a bound: failed_share, which is 0 on a good run
# (attempted and failed carry it), and the collector's share of the
# timed phase and the cost of one full collection over the set-up heap.
END_TO_END = (
    "setup_s", "ingest_msgs_per_s", "ingest_p50_ms",
    "q_within_p50_ms", "q_same_way_p50_ms", "q_stationary_p50_ms", "q_next_nodes_p50_ms",
    "q_near_node_p50_ms", "peak_rss_mb",
)

# Which end-to-end metric each per-layer metric should move, and on which
# workload; a change to one layer is judged by these pairings.
SHOULD_MOVE = {
    "feed.handle_line_ms": "ingest_p50_ms, ingest_msgs_per_s on station-stream, city-feed",
    "feed.transport_ms": "ingest_p50_ms on station-stream",
    "ingest.parse_cpm_ms": "ingest_p50_ms on station-stream",
    "ingest.cpm_to_openlabel_ms": "ingest_p50_ms on station-stream",
    "ingest.parse_openlabel_ms": "ingest_p50_ms on city-feed (the only OpenLABEL traffic)",
    "ingest.commit_payload_self_ms": "ingest_p50_ms on city-feed",
    "ingest.serialize_document_ms": "ingest_p99_ms on city-feed",
    "ingest.archive_bytes_per_frame": "ingest_p99_ms on city-feed",
    "store.lock_acquires_per_msg": "ingest_p50_ms on city-feed, station-stream",
    "store.relation_keys_read_per_msg": "ingest_msgs_per_s on city-feed; ~140 on station-stream, no change there",
    "store.write_calls_ms": "ingest_p50_ms on station-stream, city-feed",
    "store.write_lock_wait_ms": "ingest_p99_ms on city-feed, district-query (eviction holds the write lock)",
    "store.evict_pass_ms": "ingest_p99_ms on city-feed",
    "store.evict_pass_max_ms": "ingest_p99_ms on city-feed",
    "store.evict_passes": "ingest_p99_ms on city-feed (fixed by the feed clock)",
    "store.evicted_frames": "ingest_p99_ms on city-feed (fixed by the feed clock)",
    "store.snapshot_ms": "q_within_*, q_near_node_* on city-feed (~16k elements per snapshot), district-query",
    "store.snapshot_entries_per_row": "q_within_*, q_near_node_* on city-feed, district-query",
    "store.query_frames_calls_per_query": "q_stationary_* on district-query, city-feed (one call per tracked object)",
    "roadnet.map_match_ms": "q_same_way_*, q_next_nodes_* on city-feed (~10^4 segments), district-query",
    "roadnet.map_match_calls_per_query": "q_same_way_* on district-query (one match per tracked object)",
    "roadnet.ways_scanned_per_match": "q_same_way_* on district-query, city-feed; 24 on station-stream",
    "roadnet.segments_projected_per_match": "q_same_way_* on district-query, city-feed",
    "roadnet.parse_osm_s": "setup_s on city-feed, district-query",
    "roadnet.load_into_store_s": "setup_s on city-feed, district-query",
    "api.objects_within_self_ms": "q_within_* on district-query, city-feed",
    "api.objects_on_same_way_self_ms": "q_same_way_* on district-query, city-feed",
    "api.stationary_objects_self_ms": "q_stationary_* on district-query, city-feed",
    "api.next_road_nodes_self_ms": "q_next_nodes_* on district-query, city-feed",
    "api.objects_near_node_self_ms": "q_near_node_* on district-query, city-feed",
    "api.rows_per_query": "none: the base of the per-row ratios",
    "gc.pause_share": "ingest_p99_ms, q_*_p90_ms on city-feed (~0.15 of its timed phase; ~0.007 elsewhere)",
    "gc.setup_heap_collect_ms": "none while the set-up heap is frozen; a full collection over the map on city-feed",
    "trace.overhead_share": "none: tracing cost, on every workload",
}


def child(workload: str, seed: int, seconds: float, trace: int, deadline: float) -> dict:
    cmd = [sys.executable, str(HERE / "workload.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"workload {workload} (trace {trace}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def report(title: str, metrics: dict, notes: dict):
    print(title)
    for name, (value, unit, n) in metrics.items():
        note = f"  -> {notes[name]}" if name in notes else ""
        print(f"  {name:38s} {value:14.6g} {unit:8s} n={n}{note}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="ldm benchmark")
    ap.add_argument("--workload", required=True,
                    choices=("station-stream", "city-feed", "district-query"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=DEFAULT_SECONDS)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    runs = [child(args.workload, args.seed, args.seconds, 0, deadline)]
    if args.trace:
        runs.append(child(args.workload, args.seed, args.seconds, 1, deadline))
    base = runs[0]
    print(json.dumps({"info": {**base["info"], "default_seed": DEFAULT_SEED,
                               "workload": args.workload, "seconds": args.seconds}}))
    for r in runs:
        print(f"{'traced' if r['traced'] else 'untraced'} run: store {json.dumps(r['store'])}")
        for p in r["problems"]:
            print(f"  WRONG: {p}")
    report("end-to-end (untraced run):", base["e2e"],
           {k: "reported only, no bound" for k in base["e2e"] if k not in END_TO_END})

    if args.trace:
        traced = runs[1]
        layers = dict(traced["per_layer"])
        untraced_p50 = base["e2e"]["ingest_p50_ms"][0]
        traced_p50 = traced["e2e"]["ingest_p50_ms"][0]
        layers["trace.overhead_share"] = (traced_p50 / untraced_p50 - 1.0, "ratio",
                                          traced["e2e"]["ingest_p50_ms"][2])
        for name in ("gc_pause_share", "gc_setup_heap_collect_ms"):
            layers[name.replace("_", ".", 1)] = traced["e2e"][name]
        report(f"per-layer (traced run, {traced['spans_written']} spans written):", layers, SHOULD_MOVE)
        metrics = layers
    else:
        metrics = {k: base["e2e"][k] for k in END_TO_END}

    correct = all(r["correct"] for r in runs)
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u, _) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
