"""Run one benchmark workload in this process and print its result.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S --trace 0|1

perfbench/run.py starts this script in a fresh process for every
measurement. The last line of standard output is one JSON object with
the end-to-end metrics (and, with --trace 1, the per-layer metrics),
the correctness verdict and the operation counts.

A workload is set up several times from a fresh LocalDynamicMap (server
start, load_map, prefill over the wire); setup_s is the median and the
last set-up store is the one measured. The timed phase then drives the
program from outside only: wire lines through FeedServer on loopback,
queries through LocalDynamicMap methods, eviction through
LdmStore.evict_expired. The correctness gate runs outside the timed
phase.

Every run does a fixed amount of work: the number of wire lines and
queries that fill each phase's share of --seconds at the nominal
seed-speed rates below. So a faster program finishes sooner on exactly
the same inputs and store states, and two traced runs with one seed do
the same operations, which makes their count metrics repeat exactly.

The timed phase alternates closed-loop chunks of the feed with
closed-loop reads, so that every workload reports every end-to-end
metric and every read sees a store state fixed by the seed: station-
stream and district-query read at the latest line, city-feed at the
last frame of its roadside-unit prefill.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import shutil
import socket
import statistics
import sys
import threading
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(Path(__file__).resolve().parent)]

import oracles  # noqa: E402  brute-force reference, tests/oracles.py
from inputs import BUILDERS, LINE_US, QUERY_CYCLE, QUERY_KINDS, WorkloadInputs  # noqa: E402
from ldm.api import STATIONARY_SPEED_EPS, LocalDynamicMap  # noqa: E402
from ldm.errors import Unmatched  # noqa: E402
from ldm.feed import serve  # noqa: E402
from ldm.model import ElementKind, LdmLayer  # noqa: E402
from ldm.store import LdmConfig  # noqa: E402

NEXT_K = 5
SEC_US = 1_000_000

# The timed phase runs this many rounds of one feed chunk, then one
# read chunk.
BLOCKS = 10

# Per workload:
#   setups        set-ups per run; setup_s is their median, and a cheap
#                 set-up gets more repeats
#   feed_share    share of --seconds spent on wire lines, the rest on reads
#   lines_per_s, queries_per_s
#                 nominal seed-speed rates that size the work of a run
#   evict         run evict_expired at each second of the feed clock
#   read_at_prefill
#                 queries read at the last prefill frame instead of the
#                 latest line: once all 200 city stations are on line the
#                 store tracks ~4k objects, and one objects_on_same_way
#                 call over all of them would take ~40 s at seed speed
PLANS = {
    "station-stream": {"setups": 21, "feed_share": 0.7, "lines_per_s": 690, "queries_per_s": 1300,
                       "evict": False, "read_at_prefill": False},
    "city-feed": {"setups": 5, "feed_share": 0.5, "lines_per_s": 100, "queries_per_s": 32,
                  "evict": True, "read_at_prefill": True},
    "district-query": {"setups": 5, "feed_share": 0.3, "lines_per_s": 490, "queries_per_s": 38,
                       "evict": True, "read_at_prefill": False},
}

QUERY_METHOD = {
    "within": "objects_within",
    "same_way": "objects_on_same_way",
    "stationary": "stationary_objects",
    "next_nodes": "next_road_nodes",
    "near_node": "objects_near_node",
}


def pct(values, p: float) -> float:
    """Linear-interpolated percentile, p in [0, 100]."""
    if not values:
        return 0.0
    s = sorted(values)
    k = (len(s) - 1) * p / 100.0
    lo = math.floor(k)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (k - lo)


class FeedClock:
    """The feed's own clock: timestamp of the last acknowledged line."""

    def __init__(self, ts: int):
        self.cond = threading.Condition()
        self.ts = ts
        self.finished = False
        # Last whole second evicted; None when nothing evicts.
        self.evicted_to: int | None = None

    def advance(self, ts: int):
        with self.cond:
            self.ts = ts
            self.cond.notify_all()

    def finish(self):
        with self.cond:
            self.finished = True
            self.cond.notify_all()

    def wait_for_evictions(self):
        """Block until every eviction pass due by the clock has run, so
        that reads between feed chunks do not overlap one."""
        with self.cond:
            while self.evicted_to is not None and self.evicted_to + SEC_US <= self.ts:
                self.cond.wait()


class Env:
    """One set-up instance: store, map, running server and connection."""

    def __init__(self, w: WorkloadInputs, archive_dir: str):
        ttl = w.config["ttl_s"]
        cfg = LdmConfig(
            ttl_per_layer={**LdmConfig().ttl_per_layer,
                           LdmLayer.L4_Dynamic: math.inf if ttl is None else ttl},
            archive_dir=archive_dir if w.config["archive"] else None,
        )
        self.ldm = LocalDynamicMap(cfg)
        self.server = serve("127.0.0.1", 0, self.ldm)
        self.sock = socket.create_connection((self.server.host, self.server.port))
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")
        self.ldm.load_map(w.grid.xml)
        for line in w.prefill:
            self.sock.sendall(line.data)
            resp = json.loads(self.reader.readline())
            if not resp.get("ok"):
                raise RuntimeError(f"prefill line rejected: {resp}")

    def close(self):
        # One answered line first: FeedServer.close() raises if it runs
        # between the acceptor registering a connection's handler thread
        # and starting it, which a set-up with no prefill can hit.
        self.sock.sendall(b"{}\n")
        self.reader.readline()
        self.reader.close()
        self.sock.close()
        self.server.close()


# ---------------------------------------------------------------------------
# load generators


def closed_loop(env: Env, lines, clock: FeedClock):
    """One connection, next line sent when the previous one is answered."""
    lat, resp = [], []
    sock, reader = env.sock, env.reader
    for line in lines:
        t0 = perf_counter()
        sock.sendall(line.data)
        r = reader.readline()
        t1 = perf_counter()
        lat.append((t1 - t0) * 1e3)
        resp.append(r)
        clock.advance(line.ts)
    return lat, resp


def evictor(store, clock: FeedClock, passes: list):
    """Run evict_expired at every whole second of the feed's clock."""
    while True:
        with clock.cond:
            boundary = clock.evicted_to + SEC_US
            while clock.ts < boundary and not clock.finished:
                clock.cond.wait()
            if clock.ts < boundary:
                return
        store.evict_expired(boundary)
        passes.append(boundary)
        with clock.cond:
            clock.evicted_to = boundary
            clock.cond.notify_all()


class Querier:
    """Runs the query plan round-robin, closed loop, recording latency
    per query kind. A domain error (Unmatched) is a result."""

    def __init__(self, ldm: LocalDynamicMap, plan):
        self.ldm = ldm
        self.plan = plan
        self.ids: dict[str, int] = {}  # element name -> id, set before each read chunk
        self.lat = {k: [] for k in QUERY_KINDS}
        self.issued = 0
        self.failed = 0
        self.unmatched = 0
        self.errors: list[str] = []

    def one(self, at: int):
        q = self.plan[self.issued % len(self.plan)]
        method = getattr(self.ldm, QUERY_METHOD[q.kind])
        if q.kind == "stationary":
            args = (at, q.window_s)
        elif q.kind == "near_node":
            args = (q.node, q.radius_m, at)
        elif q.kind == "within":
            args = (self.ids[q.ego], q.radius_m, at)
        elif q.kind == "next_nodes":
            args = (self.ids[q.ego], NEXT_K, at)
        else:
            args = (self.ids[q.ego], at)
        self.issued += 1
        t0 = perf_counter()
        try:
            method(*args)
        except Unmatched:
            self.unmatched += 1
        except Exception as exc:  # noqa: BLE001 - counted as a failed operation
            self.failed += 1
            self.errors.append(f"{q.kind}: {type(exc).__name__}: {exc}")
        self.lat[q.kind].append((perf_counter() - t0) * 1e3)


def object_ids(ldm: LocalDynamicMap) -> dict[str, int]:
    return {e.name: e.id for e in ldm.store.elements() if e.kind is ElementKind.Object}


# ---------------------------------------------------------------------------
# correctness gate


def check_queries(ldm: LocalDynamicMap, sample, at: int, tracer=None) -> list[str]:
    """Compare a fixed query sample with the brute-force oracles."""
    if tracer is not None:
        with tracer.paused():
            return check_queries(ldm, sample, at)
    store, graph = ldm.store, ldm.road_graph
    ids = object_ids(ldm)
    bad = []
    for q in sample:
        ego = ids.get(q.ego)
        if q.kind == "within":
            got = [(r.element_id, r.distance_to_ego) for r in ldm.objects_within(ego, q.radius_m, at)]
            exp = oracles.objects_within(store, ego, q.radius_m, at)
        elif q.kind == "same_way":
            got = [r.element_id for r in ldm.objects_on_same_way(ego, at)]
            exp = oracles.objects_on_same_way(store, graph, ego, at)
        elif q.kind == "stationary":
            got = [r.element_id for r in ldm.stationary_objects(at, q.window_s)]
            exp = oracles.stationary_objects(store, at, q.window_s, STATIONARY_SPEED_EPS)
        elif q.kind == "next_nodes":
            pose = store.latest_frame(ego, at).pose
            exp = oracles.next_road_nodes(graph, pose.lat, pose.lon, pose.heading, NEXT_K)
            try:
                got = ldm.next_road_nodes(ego, NEXT_K, at)
            except Unmatched:
                got = None
        else:
            got = [(r.element_id, r.distance_to_node)
                   for r in ldm.objects_near_node(q.node, q.radius_m, at)]
            exp = oracles.objects_near_node(store, graph, q.node, q.radius_m, at)
        if got != exp:
            bad.append(f"{q.kind} ego={q.ego!r} node={q.node} at={at}: got {got!r}, oracle {exp!r}")
    return bad


# ---------------------------------------------------------------------------
# the run


def machine_info(seed: int) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    commit = None
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            ref = ref_file.read_text().strip() if ref_file.is_file() else None
        commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "loadavg_start": list(os.getloadavg()),
        "seed": seed,
        "git_commit": commit,
    }


def run(name: str, seed: int, seconds: float, traced: bool) -> dict:
    info = machine_info(seed)
    plan = PLANS[name]
    feed_s = plan["feed_share"] * seconds
    n_lines = max(BLOCKS, int(plan["lines_per_s"] * feed_s))
    n_queries = max(len(QUERY_CYCLE) * BLOCKS, int(plan["queries_per_s"] * (seconds - feed_s)))
    w = BUILDERS[name](seed, n_lines, n_queries)

    tracer = None
    if traced:
        from tracing import Tracer
        tracer = Tracer()
        tracer.install()

    scratch = ROOT / ".perfbench_tmp" / f"{name}-{seed}-{os.getpid()}"
    scratch.mkdir(parents=True, exist_ok=True)
    try:
        setup_times = []
        env = None
        for k in range(plan["setups"]):
            if env is not None:
                env.close()
                env = None
            archive = scratch / f"archive-{k}"
            t0 = perf_counter()
            env = Env(w, str(archive))
            setup_times.append(perf_counter() - t0)
        setup_layers = {}
        if tracer is not None:
            for n in ("roadnet.parse_osm", "roadnet.load_into_store"):
                v = tracer.durations(n)
                setup_layers[n] = (statistics.median(v) / 1e3, len(v))
            tracer.reset()
        result = timed(w, env, tracer, plan)
        if tracer is not None:
            tracer.uninstall()
        env.close()
        client = result.pop("_client")
        if tracer is not None:
            out_dir = ROOT / ".perfbench_out"
            out_dir.mkdir(exist_ok=True)
            result["spans_written"] = tracer.write_spans(out_dir / f"spans-{name}-seed{seed}.tsv")
            result["per_layer"] = per_layer(tracer, client, setup_layers)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    e2e = result["e2e"]
    e2e["setup_s"] = (statistics.median(setup_times), "s", len(setup_times))
    e2e["peak_rss_mb"] = (rss_mb, "MiB", 1)
    result["info"] = info
    result["workload"] = name
    return result


class GcTimer:
    """Time the interpreter's cyclic collector spends in the collections
    the program triggers, from gc.callbacks."""

    def __init__(self):
        self.seconds = 0.0
        self.collections = 0
        self.full = 0
        self._t0 = 0.0
        self._explicit = False

    def collect(self):
        """A full collection outside the timing, not counted."""
        self._explicit = True
        try:
            gc.collect()
        finally:
            self._explicit = False

    def __call__(self, phase: str, info: dict):
        if self._explicit:
            return
        if phase == "start":
            self._t0 = perf_counter()
        else:
            self.seconds += perf_counter() - self._t0
            self.collections += 1
            self.full += info["generation"] == 2


def timed(w, env, tracer, plan):
    # Start the timing from a collected heap, and move everything set up
    # so far (road map, prefill, inputs) out of the collector's view, as
    # a server could after loading its map. Otherwise each full collection
    # inside the run rescans the map, and whether a run holds four or
    # eight of them decides its tail latencies. What that rescan costs is
    # still reported: gc_setup_heap_collect_ms is the median time of three
    # full collections over the set-up heap, before it is frozen. The
    # collections over objects created while the program runs are timed
    # with the work they interrupt, and their share of the run is
    # reported as gc_pause_share.
    gc.collect()
    collect_ms = []
    for _ in range(3):
        t0 = perf_counter()
        gc.collect()
        collect_ms.append((perf_counter() - t0) * 1e3)
    gc.freeze()
    gc_timer = GcTimer()
    gc.callbacks.append(gc_timer)
    ldm = env.ldm
    store = ldm.store
    lines = w.feed
    clock = FeedClock(w.prefill[-1].ts if w.prefill else lines[0].ts - LINE_US)
    querier = Querier(ldm, w.queries)
    lat, resp = [], []
    feed_seconds = 0.0
    passes: list[int] = []
    bad_queries: list[str] = []
    evict = None
    if plan["evict"]:
        clock.evicted_to = clock.ts // SEC_US * SEC_US
        evict = threading.Thread(target=evictor, args=(store, clock, passes))
        evict.start()
    started = perf_counter()
    try:
        for b in range(BLOCKS):
            chunk = lines[b * len(lines) // BLOCKS:(b + 1) * len(lines) // BLOCKS]
            t0 = perf_counter()
            chunk_lat, chunk_resp = closed_loop(env, chunk, clock)
            feed_seconds += perf_counter() - t0
            lat += chunk_lat
            resp += chunk_resp

            clock.wait_for_evictions()
            # Reads start from a collected heap too: otherwise whether a
            # collection of the garbage the feed chunk left lands inside a
            # query or inside the next chunk decides the query tail.
            gc_timer.collect()
            querier.ids = object_ids(ldm)
            at = w.prefill[-1].ts if plan["read_at_prefill"] else clock.ts
            for _ in range(len(w.queries) * b // BLOCKS, len(w.queries) * (b + 1) // BLOCKS):
                querier.one(at)
            if b == BLOCKS - 1:
                # The gate checks the store the last reads saw.
                bad_queries = check_queries(ldm, w.oracle_sample, at, tracer)
    finally:
        clock.finish()
        if evict is not None:
            evict.join()
        gc.callbacks.remove(gc_timer)
    elapsed = perf_counter() - started

    # -- correctness gate --------------------------------------------------
    failed_lines = 0
    for r in resp:
        try:
            ok = json.loads(r).get("ok") is True
        except ValueError:
            ok = False
        failed_lines += not ok
    sent_frames = sum(line.frames for line in w.prefill + lines[:len(resp)])
    stats = store.stats()
    accounted = stats.frame_count + stats.evicted_total
    problems = []
    if failed_lines:
        problems.append(f"{failed_lines} wire responses were not ok")
    if accounted != sent_frames:
        problems.append(f"stored {stats.frame_count} + evicted {stats.evicted_total} frames != sent {sent_frames}")
    problems.extend(bad_queries)
    if querier.errors:
        problems.extend(querier.errors[:5])

    attempted = len(resp) + querier.issued + len(w.oracle_sample)
    failed = failed_lines + querier.failed + len(bad_queries)
    ok_lines = len(resp) - failed_lines
    e2e = {
        "ingest_msgs_per_s": (ok_lines / feed_seconds if feed_seconds else 0.0, "1/s", len(resp)),
        "ingest_p50_ms": (pct(lat, 50), "ms", len(lat)),
        "ingest_p99_ms": (pct(lat, 99), "ms", len(lat)),
        "gc_pause_share": (gc_timer.seconds / elapsed, "ratio", gc_timer.collections),
        "gc_setup_heap_collect_ms": (statistics.median(collect_ms), "ms", len(collect_ms)),
    }
    for kind in QUERY_KINDS:
        q_lat = querier.lat[kind]
        e2e[f"q_{kind}_p50_ms"] = (pct(q_lat, 50), "ms", len(q_lat))
        e2e[f"q_{kind}_p90_ms"] = (pct(q_lat, 90), "ms", len(q_lat))
    e2e["failed_share"] = (failed / attempted, "ratio", attempted)
    return {
        "traced": tracer is not None,
        "correct": not problems,
        "problems": problems[:10],
        "attempted": attempted,
        "failed": failed,
        "e2e": e2e,
        "store": {
            "elements": sum(stats.element_count_per_layer.values()),
            "frames": stats.frame_count,
            "evicted": stats.evicted_total,
            "relations": stats.relation_count,
            "road_segments": ldm.road_graph.segment_count(),
            "lines_sent": len(resp),
            "queries": querier.issued,
            "unmatched": querier.unmatched,
            "evict_passes": len(passes),
            "timed_seconds": elapsed,
            "gc_full_collections": gc_timer.full,
        },
        "_client": {"lat": lat},
    }


def per_layer(tracer, client: dict, setup_layers: dict) -> dict:
    """Per-layer metrics from the traced run: (value, unit, samples)."""
    d, c = tracer.durations, tracer.calls
    handle = d("feed.handle_line")
    lines = len(handle)
    out = {
        "feed.handle_line_ms": (pct(handle, 50), "ms", lines),
        "feed.transport_ms": (pct([a - b for a, b in zip(client["lat"], handle)], 50), "ms",
                              min(lines, len(client["lat"]))),
    }
    for n in ("parse_cpm", "cpm_to_openlabel", "parse_openlabel"):
        v = d(f"ingest.{n}")
        out[f"ingest.{n}_ms"] = (pct(v, 50), "ms", len(v))
    v = d("ingest.commit_payload", self_time=True)
    out["ingest.commit_payload_self_ms"] = (pct(v, 50), "ms", len(v))
    v = d("ingest.serialize_document")
    out["ingest.serialize_document_ms"] = (pct(v, 50), "ms", len(v))
    evicted = tracer.total("evicted_frames")
    out["ingest.archive_bytes_per_frame"] = (tracer.total("archive_bytes") / evicted if evicted else 0.0,
                                             "B/frame", int(evicted))

    def per_line(key):
        return sum(tracer.requests("feed.handle_line", key)) / lines if lines else 0.0

    out["store.lock_acquires_per_msg"] = (per_line("locks"), "count", lines)
    out["store.relation_keys_read_per_msg"] = (per_line("rel_keys"), "count", lines)
    v = tracer.requests("feed.handle_line", "write_ms")
    out["store.write_calls_ms"] = (pct(v, 50), "ms", len(v))
    v = tracer.lock_waits("write")
    out["store.write_lock_wait_ms"] = (pct(v, 99), "ms", len(v))
    v = d("store.evict_expired")
    out["store.evict_pass_ms"] = (pct(v, 50), "ms", len(v))
    out["store.evict_pass_max_ms"] = (max(v, default=0.0), "ms", len(v))
    out["store.evict_passes"] = (len(v), "count", len(v))
    out["store.evicted_frames"] = (evicted, "count", len(v))

    queries = [f"api.{m}" for m in QUERY_METHOD.values()]
    n_q = sum(c(q) for q in queries)

    def over_queries(key):
        return sum(sum(tracer.requests(q, key)) for q in queries)

    rows = over_queries("rows")
    v = d("store.snapshot")
    out["store.snapshot_ms"] = (pct(v, 50), "ms", len(v))
    out["store.snapshot_entries_per_row"] = (over_queries("snap_entries") / rows if rows else 0.0, "count", int(rows))
    out["store.query_frames_calls_per_query"] = (over_queries("qf") / n_q if n_q else 0.0, "count", n_q)
    v = d("roadnet.map_match")
    matches = over_queries("mm")
    out["roadnet.map_match_ms"] = (pct(v, 50), "ms", len(v))
    out["roadnet.map_match_calls_per_query"] = (matches / n_q if n_q else 0.0, "count", n_q)
    out["roadnet.ways_scanned_per_match"] = (over_queries("ways") / matches if matches else 0.0, "count", int(matches))
    out["roadnet.segments_projected_per_match"] = (over_queries("segs") / matches if matches else 0.0, "count",
                                                   int(matches))
    for n, (value, setups) in setup_layers.items():
        out[f"{n}_s"] = (value, "s", setups)
    for q in queries:
        v = d(q, self_time=True)
        out[f"{q}_self_ms"] = (pct(v, 50), "ms", len(v))
    out["api.rows_per_query"] = (rows / n_q if n_q else 0.0, "count", n_q)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(BUILDERS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
