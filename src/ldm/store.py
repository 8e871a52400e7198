"""Embedded temporal property-graph store.

One process, in memory: elements keyed by id, each with its frame log
in timestamp order, relations as deduplicated edges, layer-scoped TTL
eviction, and consistent point-in-time snapshots.

Locking contract: many concurrent readers or one writer. The lock is
writer-preferring and reentrant within a thread, so composite writers
(payload commits, eviction) can read while holding the write side.
Readers never change store state: every index, the object grid
included, is brought up to date by the write that moves it.
"""

from __future__ import annotations

import logging
import math
import os
import threading
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field, replace
from typing import Optional

from .errors import (
    AttributeOverlap,
    InvalidConfig,
    InvalidElement,
    SinkError,
    UnknownElement,
)
from .geo import GeoBox
from .model import (
    ElementId,
    ElementKind,
    FrameRecord,
    LdmLayer,
    Relation,
    SceneElement,
    StreamDescriptor,
    Timestamp,
    now_us,
    record_violations,
    validate_element,
)


def default_ttls() -> dict[LdmLayer, float]:
    """Per-layer record lifetime in seconds, mirroring the dynamism
    gradient: permanent map data down to 30 s for moving objects."""
    return {
        LdmLayer.L1_Static: math.inf,
        LdmLayer.L2_QuasiStatic: 24 * 3600.0,
        LdmLayer.L3_Transient: 600.0,
        LdmLayer.L4_Dynamic: 30.0,
    }


@dataclass
class LdmConfig:
    """Store behavior knobs; all durations are seconds.

    With archive_dir set, eviction passes archive every frame they drop.
    Frames trimmed on write by max_frames_per_element are the exception:
    they count in evicted_total but are not archived.
    """

    ttl_per_layer: dict[LdmLayer, float] = field(default_factory=default_ttls)
    eviction_period: float = 1.0
    spatial_filter: Optional[GeoBox] = None
    archive_dir: Optional[str] = None
    max_frames_per_element: Optional[int] = None

    def ttl_us(self, layer: LdmLayer) -> float:
        ttl = self.ttl_per_layer.get(layer, math.inf)
        return ttl * 1e6


def validate_config(cfg: LdmConfig) -> None:
    """Raise InvalidConfig naming the offending field."""
    for layer in LdmLayer:
        ttl = cfg.ttl_per_layer.get(layer, math.inf)
        if not ttl > 0:
            raise InvalidConfig(f"ttl_per_layer[{layer.name}] must be > 0, got {ttl}")
    # L1 holds the road map, from which the road graph is derived and
    # which the state dir saves: evicting it would lose the map.
    l1 = cfg.ttl_per_layer.get(LdmLayer.L1_Static, math.inf)
    if math.isfinite(l1):
        raise InvalidConfig(f"ttl_per_layer[L1_Static] must be inf (the permanent layer), got {l1}")
    if not cfg.eviction_period > 0:
        raise InvalidConfig(f"eviction_period must be > 0, got {cfg.eviction_period}")
    finite = [t for t in cfg.ttl_per_layer.values() if math.isfinite(t)]
    if finite and cfg.eviction_period > min(finite):
        raise InvalidConfig(
            f"eviction_period {cfg.eviction_period} exceeds minimum finite TTL {min(finite)}"
        )
    if cfg.max_frames_per_element is not None and cfg.max_frames_per_element < 1:
        raise InvalidConfig(
            f"max_frames_per_element must be >= 1, got {cfg.max_frames_per_element}"
        )
    box = cfg.spatial_filter
    if box is not None:
        if box.min_lat > box.max_lat or box.min_lon > box.max_lon:
            raise InvalidConfig(f"spatial_filter box is inverted: {box}")
        if not (-90 <= box.min_lat and box.max_lat <= 90):
            raise InvalidConfig(f"spatial_filter latitude out of range: {box}")


@dataclass
class StoreStats:
    element_count_per_layer: dict[LdmLayer, int]
    frame_range: Optional[tuple[int, int]]
    relation_count: int
    last_update: Timestamp
    evicted_total: int
    frame_count: int = 0
    next_id: ElementId = 0


@dataclass
class SnapshotEntry:
    element: SceneElement
    frame: Optional[FrameRecord]


@dataclass
class Snapshot:
    """State of the scene as of a timestamp: per element, the latest
    frame at or before `at` (None for purely static elements). Later
    writes leave it unchanged: the store replaces, never mutates, the
    elements and records it hands out."""

    at: Timestamp
    entries: list[SnapshotEntry]
    relations: list[Relation]


# Object grid: cells are GRID_CELL_DEG degrees of latitude by
# GRID_CELL_DEG degrees of longitude (about 220 m north-south), a few per
# object-query box at the radii the queries are asked with.
GRID_CELL_DEG = 0.002


def _grid_cell(lat: float, lon: float) -> tuple[int, int]:
    return math.floor(lat / GRID_CELL_DEG), math.floor(lon / GRID_CELL_DEG)


class _ReadHolds(threading.local):
    """How many read holds the current thread has on one RWLock."""

    count = 0


class RWLock:
    """Writer-preferring reader/writer lock, reentrant per thread.

    A thread holding either side takes the read side again at once, even
    while a writer waits; a thread holding the write side may take the
    write side again too. Read holders must not upgrade to write (that
    would deadlock).
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer: Optional[int] = None
        self._depth = 0
        self._waiting_writers = 0
        self._held = _ReadHolds()

    def acquire_read(self):
        held = self._held
        if held.count:
            held.count += 1
            return
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._depth += 1
                return
            while self._writer is not None or self._waiting_writers:
                self._cond.wait()
            self._readers += 1
        held.count = 1

    def release_read(self):
        held = self._held
        if held.count > 1:
            held.count -= 1
            return
        with self._cond:
            if not held.count:  # a read taken inside the write side
                self._depth -= 1
                return
            held.count = 0
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self):
        me = threading.get_ident()
        with self._cond:
            if self._writer == me:
                self._depth += 1
                return
            self._waiting_writers += 1
            try:
                while self._writer is not None or self._readers:
                    self._cond.wait()
            finally:
                self._waiting_writers -= 1
            self._writer = me
            self._depth = 1

    def release_write(self):
        with self._cond:
            self._depth -= 1
            if self._depth == 0:
                self._writer = None
                self._cond.notify_all()

    class _Guard:
        def __init__(self, acquire, release):
            self._acquire = acquire
            self._release = release

        def __enter__(self):
            self._acquire()
            return self

        def __exit__(self, *exc):
            self._release()
            return False

    def read(self) -> "_Guard":
        return self._Guard(self.acquire_read, self.release_read)

    def write(self) -> "_Guard":
        return self._Guard(self.acquire_write, self.release_write)


class _Entry:
    """Mutable per-element storage: static descriptor, and the frame log
    as the ascending list of timestamps beside their records."""

    __slots__ = ("element", "times", "recs", "latest_ts", "dynamic_names", "cell")

    def __init__(self, element: SceneElement, latest_ts: Timestamp):
        # Handed out to readers as is, so it is never mutated: a static
        # merge replaces it. It carries no frames.
        self.element = element
        self.times: list[Timestamp] = []
        self.recs: list[FrameRecord] = []
        self.latest_ts = latest_ts
        # Dynamic attribute names stay reserved for the element's
        # lifetime even if the frames carrying them are evicted.
        self.dynamic_names: set[str] = set()
        # The object grid cell the entry is bucketed in, if any.
        self.cell: Optional[tuple[int, int]] = None


class LdmStore:
    """The scene database. All public methods are thread-safe."""

    def __init__(self, config: Optional[LdmConfig] = None):
        self._lock = RWLock()
        self._config = config or LdmConfig()
        validate_config(self._config)
        self._entries: dict[ElementId, _Entry] = {}
        # _entries partitioned by kind, then layer: eviction walks only
        # the finite-TTL layers, the object queries only the Object
        # tables. An entry never moves, as an element's layer never
        # changes.
        self._tables: dict[ElementKind, dict[LdmLayer, dict[ElementId, _Entry]]] = {
            kind: {layer: {} for layer in LdmLayer} for kind in ElementKind
        }
        # Zone map of the Object partitions: per layer, a lower bound on
        # its objects' first frame times. Only writes move it, down;
        # eviction drops only a partition's earliest frames, so the bound
        # stays low. Object reads skip the partitions whose bound is later
        # than the read.
        self._object_first_ts: dict[LdmLayer, float] = dict.fromkeys(LdmLayer, math.inf)
        self._by_key: dict[tuple, ElementId] = {}
        self._relations: dict[tuple, Relation] = {}
        self._rels_by_element: dict[ElementId, set[tuple]] = {}
        self._streams: dict[str, StreamDescriptor] = {}
        self._coord_systems: dict[str, dict] = {}
        self._next_id = 0
        self._last_update: Timestamp = 0
        self._evicted_total = 0
        # Uniform grid over the pose of each Object entry's latest frame,
        # for box reads at or after the last update. Every write that can
        # move an object's latest frame re-buckets it under the write lock.
        self._grid: dict[tuple[int, int], dict[ElementId, _Entry]] = {}

    # -- locking helpers (exposed so composite writers stay atomic) --

    def read_lock(self):
        return self._lock.read()

    def write_lock(self):
        return self._lock.write()

    # -- configuration --

    @property
    def config(self) -> LdmConfig:
        return self._config

    def configure(self, cfg: LdmConfig) -> None:
        validate_config(cfg)
        with self._lock.write():
            self._config = cfg

    # -- element / frame / relation writes --

    def upsert_element(self, e: SceneElement) -> ElementId:
        """Insert or merge one element with the frames it carries; see
        upsert_elements. Returns the element id."""
        return self.upsert_elements([e])[0][0]

    def upsert_elements(self, elements: list[SceneElement],
                        keep_ids: bool = False) -> tuple[list[ElementId], int, int]:
        """Insert or merge a batch of elements with the frames they
        carry, all or nothing.

        Elements merge by their (kind, name, type) identity with the
        stored element and with each other: static attributes merge, new
        keys winning, and frames are stored by timestamp, replacing the
        record stored at the same time. The whole batch is checked before
        anything is written, so a raise (InvalidElement) writes nothing:
        each element must be valid, keep its identity's layer, and no
        attribute name may be static and dynamic for one identity, frames
        stored earlier included. The ids on the values are ignored unless
        keep_ids (the state reload path) is set: then each element is
        stored under its own id, and an id that another identity holds,
        in the store or in the batch, raises InvalidElement too. The
        store never changes what it is given: a frame record whose
        element_id is the stored id is stored as given, any other as a
        copy carrying that id. The spatial filter drops outside frames.

        Returns the ids in input order, the number of elements created or
        whose statics changed, and the number of frames stored that differ
        from the record they replace.
        """
        for e in elements:
            violations = validate_element(e)
            if violations:
                raise InvalidElement(violations)
        with self._lock.write():
            ids = self._check_batch_locked(elements, keep_ids)
            # Every copy is made before the batch creates any entry, so
            # that its new entries lie together in memory: a scan over the
            # objects reads every entry, and copies between them slow it.
            batch = [[rec if rec.element_id == eid else
                      FrameRecord(rec.timestamp, eid, rec.pose, rec.dynamic_attributes, rec.source)
                      for _, rec in sorted(e.frames.items())] if e.frames else ()
                     for e, eid in zip(elements, ids)]
            changed = frames = 0
            for e, eid, recs in zip(elements, ids, batch):
                created_or_changed, written = self._write_element_locked(e, eid, recs)
                changed += created_or_changed
                frames += written
            return ids, changed, frames

    def _check_batch_locked(self, elements: list[SceneElement], keep_ids: bool) -> list[ElementId]:
        """Merge layer, static names and dynamic names per identity over
        the stored element and the batch; raise InvalidElement on a layer
        change or a name both static and dynamic, and with keep_ids on an
        id that another identity holds. Returns the id each element is
        stored under: its own with keep_ids, else its identity's stored
        id, or the next free one for a new identity."""
        merged: dict[tuple, tuple[ElementId, LdmLayer, set, set]] = {}
        ids: list[ElementId] = []
        fresh = 0
        # keep_ids: ids and identities must pair one to one, over the store
        # and the batch.
        id_of: dict[tuple, ElementId] = {}
        key_of: dict[ElementId, tuple] = {}
        for e in elements:
            key = (e.kind, e.name, e.semantic_type)
            if keep_ids:
                if (self._by_key.get(key) != (e.id if e.id in self._entries else None)
                        or id_of.setdefault(key, e.id) != e.id
                        or key_of.setdefault(e.id, key) != key):
                    raise InvalidElement([f"element id {e.id} or key {key} held by another element"])
            identity = merged.get(key)
            if identity is None:
                eid = self._by_key.get(key)
                if eid is None:
                    identity = (e.id if keep_ids else self._next_id + fresh, e.layer, set(), set())
                    fresh += 1
                else:
                    entry = self._entries[eid]
                    identity = (eid, entry.element.layer, set(entry.element.static_attributes),
                                set(entry.dynamic_names))
                merged[key] = identity
            eid, layer, statics, names = identity
            ids.append(eid)
            if layer is not e.layer:
                raise InvalidElement(
                    [f"layer change for existing element '{e.name}': "
                     f"{layer.name} -> {e.layer.name}"]
                )
            statics.update(e.static_attributes)
            names.update(e.dynamic_attribute_names())
        for _, _, statics, names in merged.values():
            overlap = statics & names
            if overlap:
                raise InvalidElement(
                    [f"attribute overlap: {n}" for n in sorted(overlap)]
                )
        return ids

    def _write_element_locked(self, e: SceneElement, eid: ElementId,
                              recs: list[FrameRecord]) -> tuple[bool, int]:
        """Write a checked element under eid: create its entry or merge
        its statics, then store recs, its frames in time order. Returns
        whether the element was created or its statics changed, and how
        many frames changed."""
        entry = self._entries.get(eid)
        if entry is None:
            element = SceneElement(eid, e.kind, e.name, e.semantic_type, e.layer, dict(e.static_attributes))
            entry = _Entry(element, self._last_update)
            self._entries[eid] = self._tables[e.kind][e.layer][eid] = entry
            self._by_key[(e.kind, e.name, e.semantic_type)] = eid
            self._next_id = max(self._next_id, eid + 1)
            changed = True
        else:
            old = entry.element.static_attributes
            changed = any(k not in old or old[k] != v for k, v in e.static_attributes.items())
            if changed:
                entry.element = replace(entry.element, static_attributes={**old, **e.static_attributes})
        frames = 0
        for rec in recs:
            frames += bool(self._write_frame_locked(entry, rec))
        if recs and e.kind is ElementKind.Object:
            self._rebucket_locked(entry)
            if recs[0].timestamp < self._object_first_ts[e.layer]:
                self._object_first_ts[e.layer] = recs[0].timestamp
        return changed, frames

    def insert_frame(self, rec: FrameRecord) -> bool:
        """Insert or update one frame record.

        Raises InvalidElement for a record that breaks its own
        invariants and AttributeOverlap for a dynamic name the element
        holds as static. Returns False (storing nothing) when a spatial
        filter is set and the record's pose falls outside it; True
        otherwise.
        """
        with self._lock.write():
            entry = self._entries.get(rec.element_id)
            if entry is None:
                raise UnknownElement(f"element {rec.element_id} not in store")
            violations = record_violations(rec)
            if violations:
                raise InvalidElement(violations)
            overlap = rec.dynamic_attributes.keys() & entry.element.static_attributes.keys()
            if overlap:
                raise AttributeOverlap("attribute overlap: " + ", ".join(sorted(overlap)))
            stored = self._write_frame_locked(entry, rec) is not None
            if stored and entry.element.kind is ElementKind.Object:
                self._rebucket_locked(entry)
                if rec.timestamp < self._object_first_ts[entry.element.layer]:
                    self._object_first_ts[entry.element.layer] = rec.timestamp
            return stored

    def _write_frame_locked(self, entry: _Entry, rec: FrameRecord) -> Optional[bool]:
        """Store a checked record unless the spatial filter drops it,
        then trim the element to the frame cap. Returns None when the
        filter drops it, else whether it differs from what was stored at
        its timestamp."""
        box = self._config.spatial_filter
        if box is not None and rec.pose is not None:
            if not box.contains(rec.pose.lat, rec.pose.lon):
                return None
        ts = rec.timestamp
        times, recs = entry.times, entry.recs
        changed = True
        if not times or ts > times[-1]:
            times.append(ts)
            recs.append(rec)
        else:
            pos = bisect_left(times, ts)
            if times[pos] == ts:
                changed = recs[pos] != rec
                recs[pos] = rec
            else:
                times.insert(pos, ts)
                recs.insert(pos, rec)
        entry.dynamic_names.update(rec.dynamic_attributes)
        entry.latest_ts = max(entry.latest_ts, ts)
        self._last_update = max(self._last_update, ts)

        cap = self._config.max_frames_per_element
        if cap is not None and len(times) > cap:
            drop = len(times) - cap
            del times[:drop], recs[:drop]
            self._evicted_total += drop
        return changed

    def add_relation(self, r: Relation) -> bool:
        """Store a relation edge; returns False for an exact duplicate,
        which is a no-op, and True for a new edge."""
        with self._lock.write():
            for end in (r.subject, r.object):
                if end not in self._entries:
                    raise UnknownElement(f"relation endpoint {end} not in store")
            key = r.key()
            if key in self._relations:
                return False
            self._relations[key] = r
            self._rels_by_element.setdefault(r.subject, set()).add(key)
            self._rels_by_element.setdefault(r.object, set()).add(key)
            return True

    def remove_relation(self, r: Relation) -> bool:
        """Drop a relation edge; returns False when it is not stored."""
        with self._lock.write():
            key = r.key()
            if self._relations.pop(key, None) is None:
                return False
            self._unlink_relation_locked(r.subject, key)
            self._unlink_relation_locked(r.object, key)
            return True

    def _unlink_relation_locked(self, eid: ElementId, key: tuple) -> None:
        peers = self._rels_by_element.get(eid)
        if peers is not None:
            peers.discard(key)
            if not peers:
                del self._rels_by_element[eid]

    def register_stream(self, stream: StreamDescriptor) -> None:
        with self._lock.write():
            self._streams[stream.name] = stream

    def register_coordinate_system(self, name: str, spec: dict) -> None:
        with self._lock.write():
            self._coord_systems[name] = spec

    # -- eviction --

    def evict_expired(self, now: Timestamp) -> int:
        """Drop every frame older than its layer TTL at `now`; drop
        finite-TTL elements left with no frames once they age out, along
        with their relations. Returns the number of frames removed.

        With archive_dir configured, the outgoing frames are written to
        a timestamped archive document first (compact JSON, a new file
        per pass); a failing archive write aborts the eviction so nothing
        is lost.
        """
        with self._lock.write():
            expired_frames: dict[ElementId, list[FrameRecord]] = {}
            dead_elements: list[ElementId] = []
            ttls = {layer: self._config.ttl_us(layer) for layer in LdmLayer}
            for tables in self._tables.values():
                for layer, table in tables.items():
                    ttl = ttls[layer]
                    if not math.isfinite(ttl):
                        continue
                    cutoff = now - ttl
                    for eid, entry in table.items():
                        pos = bisect_left(entry.times, cutoff)
                        if pos > 0:
                            expired_frames[eid] = entry.recs[:pos]
                        if pos == len(entry.times) and now - entry.latest_ts > ttl:
                            dead_elements.append(eid)

            if self._config.archive_dir and expired_frames:
                self._archive_locked(now, expired_frames)

            count = 0
            for eid, records in expired_frames.items():
                entry = self._entries[eid]
                n = len(records)
                del entry.times[:n], entry.recs[:n]
                if not entry.recs and entry.element.kind is ElementKind.Object:
                    self._rebucket_locked(entry)  # its latest frame went too
                count += n
            for eid in dead_elements:
                self._remove_element_locked(eid)
            self._evicted_total += count
            return count

    def _remove_element_locked(self, eid: ElementId) -> None:
        entry = self._entries.pop(eid)
        del self._tables[entry.element.kind][entry.element.layer][eid]
        key = (entry.element.kind, entry.element.name, entry.element.semantic_type)
        self._by_key.pop(key, None)
        self._unbucket_locked(entry)
        for rel_key in self._rels_by_element.pop(eid, set()):
            rel = self._relations.pop(rel_key, None)
            if rel is not None:
                self._unlink_relation_locked(rel.object if rel.subject == eid else rel.subject, rel_key)

    def _archive_locked(self, now: Timestamp, expired: dict[ElementId, list[FrameRecord]]) -> None:
        # Imported here: ingest sits above the store in the layering.
        from .ingest import build_document, serialize_document

        elements = [self._entries[eid].element for eid in sorted(expired)]
        doc = build_document(
            elements,
            frames_for=lambda eid: expired.get(eid, []),
            relations=[],
            streams={},
            note=f"evicted at {now}",
        )
        archive_dir = self._config.archive_dir
        try:
            os.makedirs(archive_dir, exist_ok=True)
            # Written aside (a name of this thread's own), then linked in
            # under the first free name: a crash leaves no partial archive,
            # and a second pass at the same `now` keeps the first's file.
            aside = os.path.join(archive_dir, f".evicted-{os.getpid()}-{threading.get_ident()}.tmp")
            with open(aside, "w", encoding="utf-8") as f:
                f.write(serialize_document(doc, compact=True))
            try:
                suffix = 0
                while True:
                    name = f"evicted-{now}-{suffix}.json" if suffix else f"evicted-{now}.json"
                    try:
                        os.link(aside, os.path.join(archive_dir, name))
                        break
                    except FileExistsError:
                        suffix += 1
            finally:
                os.unlink(aside)
        except OSError as exc:
            raise SinkError(str(exc)) from exc

    # -- reads --

    def get_element(self, eid: ElementId) -> SceneElement:
        with self._lock.read():
            entry = self._entries.get(eid)
            if entry is None:
                raise UnknownElement(f"element {eid} not in store")
            return entry.element

    def find_element(self, kind: ElementKind, name: str, semantic_type: str) -> Optional[SceneElement]:
        with self._lock.read():
            eid = self._by_key.get((kind, name, semantic_type))
            return self._entries[eid].element if eid is not None else None

    def elements(self) -> list[SceneElement]:
        with self._lock.read():
            return [self._entries[eid].element for eid in sorted(self._entries)]

    def relations(self) -> list[Relation]:
        with self._lock.read():
            return list(self._relations.values())

    def streams(self) -> dict[str, StreamDescriptor]:
        with self._lock.read():
            return dict(self._streams)

    def coordinate_systems(self) -> dict[str, dict]:
        with self._lock.read():
            return dict(self._coord_systems)

    def element_dynamic_names(self, eid: ElementId) -> frozenset:
        """Dynamic attribute names the element has ever carried; the
        names stay reserved even after the frames holding them expire."""
        with self._lock.read():
            entry = self._entries.get(eid)
            if entry is None:
                raise UnknownElement(f"element {eid} not in store")
            return frozenset(entry.dynamic_names)

    def restore_meta(self, next_id: int, last_update: Timestamp, evicted_total: int) -> None:
        """Reinstate counters from a state dump (state reload path)."""
        with self._lock.write():
            self._next_id = max(self._next_id, next_id)
            self._last_update = max(self._last_update, last_update)
            self._evicted_total = evicted_total

    def query_frames(self, element_id: ElementId, start: Timestamp, end: Timestamp) -> list[FrameRecord]:
        """Frames of one element with start <= timestamp < end, ascending
        by timestamp."""
        with self._lock.read():
            entry = self._entries.get(element_id)
            if entry is None:
                raise UnknownElement(f"element {element_id} not in store")
            lo = bisect_left(entry.times, start)
            hi = bisect_left(entry.times, end)
            return entry.recs[lo:hi]

    def latest_frame(self, element_id: ElementId, at: Timestamp) -> Optional[FrameRecord]:
        """The element's most recent frame with timestamp <= at."""
        with self._lock.read():
            entry = self._entries.get(element_id)
            if entry is None:
                raise UnknownElement(f"element {element_id} not in store")
            pos = bisect_right(entry.times, at)
            return entry.recs[pos - 1] if pos else None

    def snapshot(self, at: Timestamp) -> Snapshot:
        with self._lock.read():
            entries = []
            for eid in sorted(self._entries):
                entry = self._entries[eid]
                pos = bisect_right(entry.times, at)
                rec = entry.recs[pos - 1] if pos else None
                entries.append(SnapshotEntry(entry.element, rec))
            return Snapshot(at, entries, list(self._relations.values()))

    def objects_at(self, at: Timestamp, box: Optional[GeoBox] = None) -> list[SnapshotEntry]:
        """Every Object-kind element that has a frame at or before `at`,
        with the latest such frame: the Object entries of snapshot(at)
        whose frame is not None, in no set order and without the
        relations. Given a box, only the entries whose frame has a pose
        in it.

        A box read at or after the last update, with a finite box, visits
        only the objects in the grid cells the box overlaps; any other
        read scans only the Object partitions (one per layer) whose first
        frame is at or before `at`."""
        with self._lock.read():
            # The sum is finite only if every bound is.
            if box is not None and at >= self._last_update and math.isfinite(
                    box.min_lat + box.min_lon + box.max_lat + box.max_lon):
                return self._grid_entries_locked(box)
            out = []
            # Both dicts hold the layers in LdmLayer order; zip spares
            # an enum hash per layer.
            for table, first in zip(self._tables[ElementKind.Object].values(), self._object_first_ts.values()):
                if first > at:
                    continue
                for entry in table.values():
                    times = entry.times
                    if not times or times[0] > at:
                        continue
                    rec = entry.recs[-1] if times[-1] <= at else entry.recs[bisect_right(times, at) - 1]
                    if box is not None and (rec.pose is None or not box.contains(rec.pose.lat, rec.pose.lon)):
                        continue
                    out.append(SnapshotEntry(entry.element, rec))
            return out

    def _grid_entries_locked(self, box: GeoBox) -> list[SnapshotEntry]:
        """objects_at's read at or after the last update, from the grid."""
        grid = self._grid
        # Clamped to the range poses lie in.
        i0, j0 = _grid_cell(max(box.min_lat, -90.0), max(box.min_lon, -180.0))
        i1, j1 = _grid_cell(min(box.max_lat, 90.0), min(box.max_lon, 180.0))
        if (i1 - i0 + 1) * (j1 - j0 + 1) <= len(grid):
            cells = [grid[(i, j)] for i in range(i0, i1 + 1) for j in range(j0, j1 + 1) if (i, j) in grid]
        else:  # a box over more cells than are occupied
            cells = [cell for (i, j), cell in grid.items() if i0 <= i <= i1 and j0 <= j <= j1]
        out = []
        for cell in cells:
            for entry in cell.values():
                rec = entry.recs[-1]
                if box.contains(rec.pose.lat, rec.pose.lon):
                    out.append(SnapshotEntry(entry.element, rec))
        return out

    def _rebucket_locked(self, entry: _Entry) -> None:
        """Move an Object entry to the cell of its latest frame's pose, or
        out of the grid when that frame has no pose or it has no frame
        left."""
        pose = entry.recs[-1].pose if entry.recs else None
        cell = None if pose is None else _grid_cell(pose.lat, pose.lon)
        if cell != entry.cell:
            self._unbucket_locked(entry)
            if cell is not None:
                self._grid.setdefault(cell, {})[entry.element.id] = entry
                entry.cell = cell

    def _unbucket_locked(self, entry: _Entry) -> None:
        if entry.cell is not None:
            members = self._grid[entry.cell]
            del members[entry.element.id]
            if not members:
                del self._grid[entry.cell]
            entry.cell = None

    def stats(self) -> StoreStats:
        with self._lock.read():
            per_layer: dict[LdmLayer, int] = {}
            lo = None
            hi = None
            frame_count = 0
            for entry in self._entries.values():
                layer = entry.element.layer
                per_layer[layer] = per_layer.get(layer, 0) + 1
                frame_count += len(entry.times)
                if entry.times:
                    first, last = entry.times[0], entry.times[-1]
                    lo = first if lo is None else min(lo, first)
                    hi = last if hi is None else max(hi, last)
            frame_range = None if lo is None else (lo, hi)
            return StoreStats(
                element_count_per_layer=per_layer,
                frame_range=frame_range,
                relation_count=len(self._relations),
                last_update=self._last_update,
                evicted_total=self._evicted_total,
                frame_count=frame_count,
                next_id=self._next_id,
            )


class EvictionTimer:
    """Background writer that runs evict_expired on a fixed cadence."""

    def __init__(self, store: LdmStore, period_s: Optional[float] = None):
        self._store = store
        self._period = period_s if period_s is not None else store.config.eviction_period
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)

    def start(self) -> "EvictionTimer":
        self._thread.start()
        return self

    def _run(self):
        while not self._stop.wait(self._period):
            try:
                self._store.evict_expired(now_us())
            except Exception:  # noqa: BLE001 - a failed pass must not end the timer
                # The next pass retries on schedule.
                logging.getLogger("ldm").exception("eviction pass failed")

    def is_alive(self) -> bool:
        """Whether the timer thread still runs."""
        return self._thread.is_alive()

    def stop(self):
        self._stop.set()
        if self._thread.is_alive():
            self._thread.join(timeout=5.0)
