"""In-memory span tracer for the benchmark's traced run.

The tracer wraps public functions of the program from outside: names in
the ldm.feed, ldm.ingest, ldm.roadnet and ldm.api namespaces, LdmStore
methods, and RWLock.acquire_read/acquire_write. Nothing under src/ is
edited; install() swaps module and class attributes and uninstall()
puts them back.

Each thread keeps its own span stack, so a span's parent is the span
that was open on the same thread when it started, and the outermost
span (a wire line's handle_line, a query, an eviction pass) is the
request every nested span and count belongs to. Self time is a span's
duration minus the time of its child spans. Spans and per-request
counts stay in memory and are written out by write_spans().
"""

from __future__ import annotations

import threading
from array import array
from contextlib import contextmanager
from time import perf_counter

# Per-request accumulators kept on the outermost span of each thread.
REQUEST_KEYS = ("locks", "rel_keys", "write_ms", "qf", "snap_entries", "mm", "ways", "segs", "rows")

STORE_METHODS = (
    "upsert_element", "insert_frame", "add_relation", "register_stream",
    "register_coordinate_system", "evict_expired", "get_element", "find_element",
    "elements", "relations", "element_dynamic_names", "query_frames",
    "latest_frame", "snapshot", "stats",
)
API_QUERIES = ("objects_within", "objects_on_same_way", "stationary_objects",
               "next_road_nodes", "objects_near_node")
FEED_NAMES = ("handle_line", "parse_envelope", "dispatch_envelope")
# ingest functions as bound in the namespaces that call them on the
# measured paths: the feed dispatch, the archive writer, map loading.
INGEST_IN_FEED = ("parse_cpm", "cpm_to_openlabel", "parse_openlabel", "commit_payload")
INGEST_IN_INGEST = ("build_document", "serialize_document")
ROADNET_IN_API = ("parse_osm", "load_into_store", "map_match", "next_nodes")
WRITE_CALLS = ("store.upsert_element", "store.insert_frame", "store.add_relation")


class _ThreadState:
    def __init__(self, tid: int):
        self.tid = tid
        self.stack: list[list] = []
        self.clear()

    def clear(self):
        self.dur: dict[str, array] = {}
        self.self_ms: dict[str, array] = {}
        self.requests: dict[str, dict[str, array]] = {}
        self.lock_wait = {"read": array("d"), "write": array("d")}
        self.totals: dict[str, float] = {}
        self.span_name = array("H")
        self.span_parent = array("l")
        self.span_t0 = array("d")
        self.span_t1 = array("d")


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._states: list[_ThreadState] = []
        self._registry = threading.Lock()
        self._patches: list[tuple[object, str, object]] = []
        self.names: list[str] = []
        self.active = True

    # -- per-thread state ----------------------------------------------

    def _state(self) -> _ThreadState:
        st = getattr(self._local, "st", None)
        if st is None:
            st = _ThreadState(threading.get_ident())
            with self._registry:
                self._states.append(st)
            self._local.st = st
        return st

    def reset(self):
        """Drop everything recorded so far (call while no span is open)."""
        for st in self._states:
            st.clear()

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the correctness gate)."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    # -- wrappers --------------------------------------------------------

    def _span(self, fn, name: str):
        tracer = self
        self.names.append(name)
        name_idx = len(self.names) - 1
        is_write = name in WRITE_CALLS

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            st = tracer._state()
            stack = st.stack
            idx = len(st.span_name)
            st.span_name.append(name_idx)
            st.span_parent.append(stack[-1][3] if stack else -1)
            frame = [name, 0.0, 0.0, idx, None if stack else dict.fromkeys(REQUEST_KEYS, 0)]
            stack.append(frame)
            t0 = frame[1] = perf_counter()
            st.span_t0.append(t0)
            st.span_t1.append(0.0)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                t1 = perf_counter()
                stack.pop()
                st.span_t1[idx] = t1
                dur = (t1 - t0) * 1e3
                st.dur.setdefault(name, array("d")).append(dur)
                st.self_ms.setdefault(name, array("d")).append(dur - frame[2])
                if stack:
                    stack[-1][2] += dur
                    if is_write:
                        stack[0][4]["write_ms"] += dur
                tracer._observe(st, name, frame, result)

        wrapper.__wrapped__ = fn
        return wrapper

    def _observe(self, st: _ThreadState, name: str, frame: list, result):
        """Counts taken from a finished span and its result (None if it
        raised or returned nothing)."""
        stack = st.stack
        acc = stack[0][4] if stack else frame[4]
        if name == "store.query_frames":
            acc["qf"] += 1
        elif name == "roadnet.map_match":
            acc["mm"] += 1
        elif result is None:
            pass
        elif name == "store.relations":
            if any(f[0] == "ingest.commit_payload" for f in stack):
                acc["rel_keys"] += len(result)
        elif name == "store.snapshot":
            acc["snap_entries"] += len(result.entries)
        elif name == "ingest.serialize_document":
            st.totals["archive_bytes"] = st.totals.get("archive_bytes", 0) + len(result.encode("utf-8"))
        elif name == "store.evict_expired":
            st.totals["evicted_frames"] = st.totals.get("evicted_frames", 0) + result
        if not stack:
            if name.startswith("api.") and isinstance(result, list):
                acc["rows"] = len(result)
            series = st.requests.setdefault(name, {k: array("d") for k in REQUEST_KEYS})
            for k in REQUEST_KEYS:
                series[k].append(acc[k])

    def _counter(self, fn, key: str):
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._state().stack
            if stack and tracer.active:
                stack[0][4][key] += 1
            return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _lock(self, fn, side: str):
        tracer = self

        def wrapper(lock):
            if not tracer.active:
                return fn(lock)
            st = tracer._state()
            t0 = perf_counter()
            fn(lock)
            dur = (perf_counter() - t0) * 1e3
            st.lock_wait[side].append(dur)
            if st.stack:
                st.stack[-1][2] += dur
                st.stack[0][4]["locks"] += 1

        wrapper.__wrapped__ = fn
        return wrapper

    def _patch(self, owner, attr: str, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self):
        import ldm.api as api
        import ldm.feed as feed
        import ldm.ingest as ingest
        import ldm.roadnet as roadnet
        import ldm.store as store

        for n in FEED_NAMES:
            self._patch(feed, n, self._span(getattr(feed, n), f"feed.{n}"))
        for n in INGEST_IN_FEED:
            self._patch(feed, n, self._span(getattr(feed, n), f"ingest.{n}"))
        for n in INGEST_IN_INGEST:
            self._patch(ingest, n, self._span(getattr(ingest, n), f"ingest.{n}"))
        for n in ROADNET_IN_API:
            self._patch(api, n, self._span(getattr(api, n), f"roadnet.{n}"))
        for n in API_QUERIES:
            self._patch(api.LocalDynamicMap, n, self._span(getattr(api.LocalDynamicMap, n), f"api.{n}"))
        for n in STORE_METHODS:
            self._patch(store.LdmStore, n, self._span(getattr(store.LdmStore, n), f"store.{n}"))
        self._patch(store.RWLock, "acquire_read", self._lock(store.RWLock.acquire_read, "read"))
        self._patch(store.RWLock, "acquire_write", self._lock(store.RWLock.acquire_write, "write"))
        self._patch(roadnet.RoadGraph, "way_bbox", self._counter(roadnet.RoadGraph.way_bbox, "ways"))
        self._patch(roadnet, "project_to_segment", self._counter(roadnet.project_to_segment, "segs"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- merged views ------------------------------------------------------

    def durations(self, name: str, self_time: bool = False) -> list[float]:
        out: list[float] = []
        for st in self._states:
            out.extend((st.self_ms if self_time else st.dur).get(name, ()))
        return out

    def calls(self, name: str) -> int:
        return sum(len(st.dur.get(name, ())) for st in self._states)

    def requests(self, name: str, key: str) -> list[float]:
        out: list[float] = []
        for st in self._states:
            series = st.requests.get(name)
            if series is not None:
                out.extend(series[key])
        return out

    def lock_waits(self, side: str) -> list[float]:
        out: list[float] = []
        for st in self._states:
            out.extend(st.lock_wait[side])
        return out

    def total(self, key: str) -> float:
        return sum(st.totals.get(key, 0) for st in self._states)

    def write_spans(self, path) -> int:
        """Write every span as tab-separated
        thread, index, name, parent index, start s, end s."""
        count = 0
        with open(path, "w", encoding="utf-8") as f:
            f.write("thread\tspan\tname\tparent\tstart_s\tend_s\n")
            for st in self._states:
                names = self.names
                for i in range(len(st.span_name)):
                    f.write(f"{st.tid}\t{i}\t{names[st.span_name[i]]}\t{st.span_parent[i]}"
                            f"\t{st.span_t0[i]:.9f}\t{st.span_t1[i]:.9f}\n")
                count += len(st.span_name)
        return count
