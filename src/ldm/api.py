"""Public scene-database API.

LocalDynamicMap binds the store and the road graph behind the six
operator-facing functions (configure, add objects, load map, export,
read objects, get info) plus the canned geo-queries consumer functions
build on: neighborhood search, same-road search, stationary objects,
upcoming road nodes and node-anchored search.

All query methods are pure reads and safe to call concurrently with
feed ingestion.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import IO, Optional, Union

from .errors import NoMap, NoPose, SinkError, UnknownNode, Unmatched
from .geo import GeoBox, bearing_deg, disc_box, haversine_m, heading_delta_deg
from .ingest import (
    ROOT_KEY,
    CommitCounts,
    CpmMessage,
    OpenLabelPayload,
    build_document,
    commit_payload,
    cpm_to_openlabel,
    parse_openlabel,
    serialize_document,
)
from .model import (
    ElementId,
    FrameRecord,
    GeoPose,
    LdmLayer,
    SceneElement,
    Timestamp,
)
from .roadnet import RoadGraph, graph_from_store, load_into_store, map_match, next_nodes, parse_osm, segments_near
from .store import LdmConfig, LdmStore, Snapshot

# Stationary-object query defaults: how far back to look and how fast an
# object may drift while still counting as non-moving.
STATIONARY_WINDOW_S = 5.0
STATIONARY_SPEED_EPS = 0.5


@dataclass
class ObjectReport:
    """One row of a geo-query result."""

    element_id: ElementId
    name: str
    semantic_type: str
    layer: LdmLayer
    pose: Optional[GeoPose] = None
    distance_to_ego: Optional[float] = None
    distance_to_node: Optional[float] = None
    matched_way: Optional[int] = None
    timestamp: Optional[Timestamp] = None

    def to_json(self) -> dict:
        out: dict = {
            "element_id": self.element_id,
            "name": self.name,
            "type": self.semantic_type,
            "layer": self.layer.name,
        }
        if self.pose is not None:
            out["pose"] = {"lat": self.pose.lat, "lon": self.pose.lon, "alt": self.pose.alt}
            if self.pose.heading is not None:
                out["pose"]["heading"] = self.pose.heading
            if self.pose.speed is not None:
                out["pose"]["speed"] = self.pose.speed
        if self.distance_to_ego is not None:
            out["distance_to_ego"] = self.distance_to_ego
        if self.distance_to_node is not None:
            out["distance_to_node"] = self.distance_to_node
        if self.matched_way is not None:
            out["matched_way"] = self.matched_way
        if self.timestamp is not None:
            out["timestamp"] = self.timestamp
        return out


@dataclass
class ExportCounts:
    elements: int
    frames: int
    relations: int


class LocalDynamicMap:
    """An embedded scene database instance."""

    def __init__(self, config: Optional[LdmConfig] = None):
        self.store = LdmStore(config)
        self.road_graph: Optional[RoadGraph] = None

    # -- configure ----------------------------------------------------

    def configure(self, cfg: LdmConfig) -> None:
        """Apply a new configuration; TTL changes affect only future
        evictions."""
        self.store.configure(cfg)

    # -- add objects --------------------------------------------------

    def add_objects(self, payload: Union[OpenLabelPayload, CpmMessage, str, bytes, dict],
                    source: str = "local_perception") -> CommitCounts:
        """Commit one scene payload (or CPM message) into the store.

        source tags the records of a document parsed here that name no
        source of their own. A parsed payload keeps the tags its parse
        gave, and a CPM's records are v2x."""
        if isinstance(payload, CpmMessage):
            payload = cpm_to_openlabel(payload)
        elif not isinstance(payload, OpenLabelPayload):
            payload = parse_openlabel(payload, source=source)
        return commit_payload(payload, self.store)

    # -- load map -----------------------------------------------------

    def load_map(self, source: Union[RoadGraph, bytes, str, IO]) -> tuple[int, int]:
        """Parse (if needed) and load a road network as permanent-layer
        elements, then set the graph map-matched queries use to the one
        those elements describe (graph_from_store; into a store with no
        L1 element, that is the parsed graph). Loading again merges like
        any commit: an existing node or way takes the new coordinates,
        node list and oneway flag, and its tags merge as statics do, so a
        tag the new map drops is kept."""
        graph = source if isinstance(source, RoadGraph) else parse_osm(source)
        with self.store.write_lock():
            fresh = not self.store.stats().element_count_per_layer.get(LdmLayer.L1_Static)
            counts = load_into_store(graph, self.store)
            self.road_graph = graph if fresh else graph_from_store(self.store)
        return counts

    # -- read objects -------------------------------------------------

    def read_frames(self, element_id: ElementId, start: Timestamp, end: Timestamp) -> list[FrameRecord]:
        return self.store.query_frames(element_id, start, end)

    def snapshot(self, at: Timestamp) -> Snapshot:
        return self.store.snapshot(at)

    def objects_within(self, ego: ElementId, radius_m: float, at: Timestamp) -> list[ObjectReport]:
        """All non-ego objects within radius_m (inclusive) of the ego
        position at `at`, ascending by (distance, element id)."""
        if not radius_m > 0:
            raise ValueError(f"radius must be > 0, got {radius_m}")
        _, ego_rec = self._positioned(ego, at)
        ego_pose = ego_rec.pose
        rows = []
        for element, rec in self._object_states(at, disc_box(ego_pose.lat, ego_pose.lon, radius_m), exclude=ego):
            d = haversine_m(ego_pose.lat, ego_pose.lon, rec.pose.lat, rec.pose.lon)
            if d <= radius_m:
                rows.append(self._report(element, rec, distance_to_ego=d))
        rows.sort(key=lambda r: (r.distance_to_ego, r.element_id))
        return rows

    def objects_on_same_way(self, ego: ElementId, at: Timestamp) -> list[ObjectReport]:
        """Objects map-matched to the same road way as the ego; empty
        when the ego itself does not match any way."""
        graph = self._graph()
        _, ego_rec = self._positioned(ego, at)
        ego_match = map_match(graph, ego_rec.pose.lat, ego_rec.pose.lon)
        if ego_match is None:
            return []
        # map_match returns a way only for positions inside its match box
        # that segments_near keeps for one of its segments.
        way_id, box = ego_match.way_id, graph.way_bbox(ego_match.way_id)
        rows = []
        for element, rec in self._object_states(at, box, exclude=ego):
            lat, lon = rec.pose.lat, rec.pose.lon
            m = map_match(graph, lat, lon) if any(segments_near(graph, way_id, box, lat, lon)) else None
            if m is not None and m.way_id == way_id:
                rows.append(self._report(element, rec, matched_way=way_id))
        rows.sort(key=lambda r: r.element_id)
        return rows

    def stationary_objects(
        self,
        at: Timestamp,
        window_s: float = STATIONARY_WINDOW_S,
        speed_eps: float = STATIONARY_SPEED_EPS,
    ) -> list[ObjectReport]:
        """Objects showing no movement over the lookback window.

        An object qualifies with at least two frames in (at - window, at]
        where every determinable speed (the pose speed field, else the
        displacement between consecutive in-window poses over their time
        delta) stays at or below speed_eps. Frames whose speed cannot be
        determined do not disqualify.
        """
        if window_s <= 0:
            raise ValueError(f"window must be > 0, got {window_s}")
        if speed_eps < 0:
            raise ValueError(f"speed_eps must be >= 0, got {speed_eps}")
        window_us = int(window_s * 1e6)
        rows = []
        # One read for the object list and every frame query, so an
        # eviction pass cannot remove an object between them.
        with self.store.read_lock():
            for entry in self.store.objects_at(at):
                # No frame in (at - window, at] if the latest one is older.
                if entry.frame.timestamp <= at - window_us:
                    continue
                # The latest frame is in the window: if it alone rules the
                # object out, so does the whole window.
                if not self._is_stationary([entry.frame], speed_eps):
                    continue
                element = entry.element
                frames = self.store.query_frames(element.id, at - window_us + 1, at + 1)
                if len(frames) < 2:
                    continue
                if self._is_stationary(frames, speed_eps):
                    rows.append(self._report(element, frames[-1]))
        rows.sort(key=lambda r: r.element_id)
        return rows

    @staticmethod
    def _is_stationary(frames: list[FrameRecord], speed_eps: float) -> bool:
        prev = None
        for rec in frames:
            speed = None
            if rec.pose is not None and rec.pose.speed is not None:
                speed = rec.pose.speed
            elif rec.pose is not None and prev is not None and prev.pose is not None:
                dt = (rec.timestamp - prev.timestamp) / 1e6
                if dt > 0:
                    speed = haversine_m(prev.pose.lat, prev.pose.lon, rec.pose.lat, rec.pose.lon) / dt
            if speed is not None and speed > speed_eps:
                return False
            prev = rec
        return True

    def next_road_nodes(self, ego: ElementId, k: int, at: Timestamp) -> list[int]:
        """Road nodes ahead of the ego along its heading: the forward
        endpoint of the matched segment, then breadth-first expansion."""
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        graph = self._graph()
        _, ego_rec = self._positioned(ego, at)
        heading = self._heading_of(ego, ego_rec)
        m = map_match(graph, ego_rec.pose.lat, ego_rec.pose.lon)
        if m is None:
            raise Unmatched(
                f"ego position ({ego_rec.pose.lat}, {ego_rec.pose.lon}) matches no road segment"
            )
        way = graph.ways[m.way_id]
        a = graph.nodes[way.node_refs[m.segment_index]]
        b = graph.nodes[way.node_refs[m.segment_index + 1]]
        seg_bearing = bearing_deg(a.lat, a.lon, b.lat, b.lon)
        forward = b.osm_id if heading_delta_deg(seg_bearing, heading) <= 90.0 else a.osm_id
        result = [forward]
        if k > 1:
            result.extend(next_nodes(graph, forward, heading, k - 1))
        return result[:k]

    def _heading_of(self, ego: ElementId, rec: FrameRecord) -> float:
        if rec.pose.heading is not None:
            return rec.pose.heading
        # No heading on the pose: derive one from the previous positioned
        # frame, walking back one frame at a time.
        with self.store.read_lock():
            prev = self.store.latest_frame(ego, rec.timestamp - 1)
            while prev is not None and prev.pose is None:
                prev = self.store.latest_frame(ego, prev.timestamp - 1)
        if prev is not None:
            return bearing_deg(prev.pose.lat, prev.pose.lon, rec.pose.lat, rec.pose.lon)
        raise NoPose(f"element {ego} has no heading and no prior pose to derive one")

    def objects_near_node(self, node_id: int, radius_m: float, at: Timestamp) -> list[ObjectReport]:
        """Objects within radius_m (inclusive) of a road node, ascending
        by (distance, element id)."""
        if not radius_m > 0:
            raise ValueError(f"radius must be > 0, got {radius_m}")
        if self.road_graph is None or node_id not in self.road_graph.nodes:
            raise UnknownNode(f"node {node_id} not in road graph")
        node = self.road_graph.nodes[node_id]
        rows = []
        for element, rec in self._object_states(at, disc_box(node.lat, node.lon, radius_m)):
            d = haversine_m(node.lat, node.lon, rec.pose.lat, rec.pose.lon)
            if d <= radius_m:
                rows.append(self._report(element, rec, distance_to_node=d))
        rows.sort(key=lambda r: (r.distance_to_node, r.element_id))
        return rows

    # -- export -------------------------------------------------------

    def export(self, start: Timestamp, end: Timestamp,
               destination: Union[str, Path, IO]) -> ExportCounts:
        """Write the archive document for [start, end).

        Included: every element with frames in the interval (with those
        frames), the permanent-layer elements its relations reference
        (transitively), relations with both endpoints included, streams
        and coordinate systems. Output ordering is fixed, so identical
        stores export byte-identical documents.
        """
        if start >= end:
            raise ValueError(f"interval [{start}, {end}) is empty")
        with self.store.read_lock():
            selected: dict[int, list[FrameRecord]] = {}
            for element in self.store.elements():
                frames = self.store.query_frames(element.id, start, end)
                if frames:
                    selected[element.id] = frames
            by_id = {e.id: e for e in self.store.elements()}
            relations = self.store.relations()

            doc_ids = set(selected)
            grew = True
            while grew:
                grew = False
                for rel in relations:
                    for have, other in ((rel.subject, rel.object), (rel.object, rel.subject)):
                        if have in doc_ids and other not in doc_ids:
                            if by_id[other].layer is LdmLayer.L1_Static:
                                doc_ids.add(other)
                                grew = True

            doc_relations = [r for r in relations if r.subject in doc_ids and r.object in doc_ids]
            doc = build_document(
                [by_id[i] for i in sorted(doc_ids)],
                frames_for=lambda eid: selected.get(eid, []),
                relations=doc_relations,
                streams=self.store.streams(),
                coordinate_systems=self.store.coordinate_systems() or None,
            )
            doc[ROOT_KEY]["metadata"]["export_interval"] = [start, end]
            text = serialize_document(doc)

        try:
            if hasattr(destination, "write"):
                destination.write(text)
            else:
                Path(destination).write_text(text, encoding="utf-8")
        except OSError as exc:
            raise SinkError(str(exc)) from exc
        return ExportCounts(
            elements=len(doc_ids),
            frames=sum(len(v) for v in selected.values()),
            relations=len(doc_relations),
        )

    # -- get info -----------------------------------------------------

    def get_info(self) -> list[tuple[str, object]]:
        """Database status as an ordered (name, value) field list."""
        with self.store.read_lock():
            stats = self.store.stats()
            per_layer = stats.element_count_per_layer
            latest_count = 0
            if stats.frame_range is not None:
                hi = stats.frame_range[1]
                latest_count = sum(1 for entry in self.store.objects_at(hi) if entry.frame.timestamp == hi)
            fields: list[tuple[str, object]] = [
                ("elements.total", sum(per_layer.values())),
            ]
            for layer in LdmLayer:
                fields.append((f"elements.{layer.name.split('_')[0]}", per_layer.get(layer, 0)))
            fields.extend([
                ("objects_at_latest_frame", latest_count),
                ("frames.total", stats.frame_count),
                ("frame_range.min", None if stats.frame_range is None else stats.frame_range[0]),
                ("frame_range.max", None if stats.frame_range is None else stats.frame_range[1]),
                ("relations.total", stats.relation_count),
                ("streams.total", len(self.store.streams())),
                ("last_update", stats.last_update),
                ("evicted.total", stats.evicted_total),
            ])
            return fields

    # -- shared helpers -----------------------------------------------

    def _graph(self) -> RoadGraph:
        if self.road_graph is None:
            raise NoMap("no road graph loaded")
        return self.road_graph

    def _positioned(self, eid: ElementId, at: Timestamp) -> tuple[SceneElement, FrameRecord]:
        element = self.store.get_element(eid)
        rec = self.store.latest_frame(eid, at)
        if rec is None:
            raise NoPose(f"element {eid} has no frame at or before {at}")
        if rec.pose is None:
            raise NoPose(f"element {eid}: its latest frame at or before {at} has no pose")
        return element, rec

    def _object_states(self, at: Timestamp, box: GeoBox, exclude: Optional[ElementId] = None):
        """(element, latest frame <= at) for every object but `exclude`
        whose latest frame has a pose in the box."""
        for entry in self.store.objects_at(at, box):
            if entry.element.id != exclude:
                yield entry.element, entry.frame

    @staticmethod
    def _report(element: SceneElement, rec: FrameRecord, **extra) -> ObjectReport:
        return ObjectReport(
            element_id=element.id,
            name=element.name,
            semantic_type=element.semantic_type,
            layer=element.layer,
            pose=rec.pose,
            timestamp=rec.timestamp,
            **extra,
        )
