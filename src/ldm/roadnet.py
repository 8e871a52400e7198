"""Static road network: OSM parsing, adjacency, traversal and matching.

Only the OSM subset the scene layer needs is read: <node> and <way>
elements, keeping ways tagged with "highway" and the nodes they
reference. A parsed RoadGraph is immutable by convention and safe to
share across threads.
"""

from __future__ import annotations

import math
import xml.etree.ElementTree as ET
from collections import deque
from dataclasses import dataclass, field
from itertools import chain, pairwise, product
from typing import IO, Iterable, Iterator, Optional, Union

from .errors import MalformedDocument, UnknownNode
from .geo import (
    EARTH_RADIUS_M,
    EnuPoint,
    GeoBox,
    bearing_deg,
    enu_offset,
    haversine_m,
    heading_delta_deg,
    project_to_segment,
)
from .model import ElementKind, LdmLayer, Relation, SceneElement

# Invented constants: candidate ways are prefiltered by their match box
# (bounding box inflated by MATCH_INFLATE_M), and a position further than
# MATCH_THRESHOLD_M (a map_match parameter) from every segment is
# reported as unmatched.
MATCH_THRESHOLD_M = 50.0
MATCH_INFLATE_M = 100.0

# Way-cell index: cells are CELL_DEG degrees of latitude by CELL_DEG
# degrees of longitude (about 0.0018), and each way is listed in every
# cell its inflated box overlaps. A "wide" way, whose inflated box spans
# more than MAX_CELLS_PER_WAY cells (near a pole, or a long way), is
# instead a candidate for every position. Boxes do not wrap, so a box
# that reaches past +-180 degrees or spans more than 180 degrees of
# longitude (across the antimeridian) takes every longitude: its way is
# wide, and the box test keeps only its latitude band.
CELL_DEG = math.degrees(2 * MATCH_INFLATE_M / EARTH_RADIUS_M)
MAX_CELLS_PER_WAY = 4096

ONEWAY_TRUE = {"yes", "true", "1"}


@dataclass
class RoadNode:
    osm_id: int
    lat: float
    lon: float


@dataclass
class RoadWay:
    osm_id: int
    node_refs: list[int]
    tags: dict[str, str] = field(default_factory=dict)
    oneway: bool = False


@dataclass
class MatchResult:
    way_id: int
    segment_index: int
    distance_m: float


@dataclass
class RoadGraph:
    """Geo-referenced road topology: nodes, ways and weighted adjacency.

    adjacency maps node id -> [(neighbor id, way id, segment length m)];
    edges are bidirectional unless the way is oneway. rebuild_adjacency
    derives adjacency, the way boxes and the way-cell index from nodes
    and ways; parse_osm and graph_from_store call it, and a graph filled
    by hand needs that call before it is queried.
    """

    nodes: dict[int, RoadNode] = field(default_factory=dict)
    ways: dict[int, RoadWay] = field(default_factory=dict)
    adjacency: dict[int, list[tuple[int, int, float]]] = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    _bboxes: dict[int, GeoBox] = field(default_factory=dict, compare=False, repr=False)
    _cells: dict[tuple[int, int], list[int]] = field(default_factory=dict, compare=False, repr=False)
    _wide_ways: list[int] = field(default_factory=list, compare=False, repr=False)

    def way_bbox(self, way_id: int) -> GeoBox:
        """The way's match box: the bounding box of its nodes inflated by
        MATCH_INFLATE_M, with every longitude if it would not wrap at the
        antimeridian. map_match returns the way only for positions inside
        it."""
        return self._bboxes[way_id]

    def ways_near(self, lat: float, lon: float) -> Iterable[int]:
        """The ways listed in the (finite) position's cell, plus the wide
        ways: a superset of the ways whose bounding box, inflated by
        MATCH_INFLATE_M, contains the position."""
        return chain(self._cells.get(_cell(lat, lon), ()), self._wide_ways)

    def segment_count(self) -> int:
        return sum(len(w.node_refs) - 1 for w in self.ways.values())


def parse_osm(source: Union[bytes, str, IO]) -> RoadGraph:
    """Parse an OSM XML document into a RoadGraph.

    Ways without a "highway" tag are dropped, as are nodes nothing keeps
    referencing. A way referencing a missing node is dropped with a
    warning recorded on the graph; malformed XML raises
    MalformedDocument with the error line.
    """
    if hasattr(source, "read"):
        source = source.read()
    if isinstance(source, str):
        source = source.encode("utf-8")
    try:
        root = ET.fromstring(source)
    except ET.ParseError as exc:
        line = exc.position[0] if exc.position else None
        raise MalformedDocument(f"not well-formed XML: {exc.msg}", line=line) from exc

    raw_nodes: dict[int, tuple[float, float]] = {}
    graph = RoadGraph()

    for el in root:
        if el.tag == "node":
            try:
                raw_nodes[int(el.attrib["id"])] = (
                    float(el.attrib["lat"]),
                    float(el.attrib["lon"]),
                )
            except (KeyError, ValueError) as exc:
                raise MalformedDocument(f"bad node element: {exc}") from exc
        elif el.tag == "way":
            try:
                way_id = int(el.attrib["id"])
            except (KeyError, ValueError) as exc:
                raise MalformedDocument(f"bad way element: {exc}") from exc
            refs = []
            tags = {}
            for child in el:
                if child.tag == "nd":
                    refs.append(int(child.attrib["ref"]))
                elif child.tag == "tag":
                    tags[child.attrib.get("k", "")] = child.attrib.get("v", "")
            if "highway" not in tags:
                continue
            missing = [r for r in refs if r not in raw_nodes]
            if missing:
                graph.warnings.append(
                    f"way {way_id} references missing node(s) {missing}; dropped"
                )
                continue
            # Consecutive duplicate refs carry no geometry; collapse them.
            deduped: list[int] = []
            for r in refs:
                if not deduped or deduped[-1] != r:
                    deduped.append(r)
            if len(deduped) < 2:
                graph.warnings.append(f"way {way_id} has fewer than 2 distinct nodes; dropped")
                continue
            oneway_tag = tags.get("oneway", "no").lower()
            if oneway_tag == "-1":
                deduped.reverse()
                oneway = True
            else:
                oneway = oneway_tag in ONEWAY_TRUE
            graph.ways[way_id] = RoadWay(way_id, deduped, tags, oneway)

    for way in graph.ways.values():
        for ref in way.node_refs:
            if ref not in graph.nodes:
                lat, lon = raw_nodes[ref]
                graph.nodes[ref] = RoadNode(ref, lat, lon)

    rebuild_adjacency(graph)
    return graph


def rebuild_adjacency(graph: RoadGraph) -> None:
    """Recompute adjacency (and segment lengths), the way match boxes and
    the way-cell index from nodes and ways."""
    graph.adjacency = {node_id: [] for node_id in graph.nodes}
    graph._bboxes, graph._cells, graph._wide_ways = {}, {}, []
    for way in graph.ways.values():
        refs = way.node_refs
        pts = [graph.nodes[n] for n in refs]
        for a, b, na, nb in zip(refs, refs[1:], pts, pts[1:]):
            length = haversine_m(na.lat, na.lon, nb.lat, nb.lon)
            graph.adjacency[a].append((b, way.osm_id, length))
            if not way.oneway:
                graph.adjacency[b].append((a, way.osm_id, length))
        lats = [p.lat for p in pts]
        lons = [p.lon for p in pts]
        box = GeoBox(min(lats), min(lons), max(lats), max(lons)).inflate_m(MATCH_INFLATE_M)
        if box.min_lon < -180.0 or box.max_lon > 180.0 or box.max_lon - box.min_lon > 180.0:
            box = GeoBox(box.min_lat, -math.inf, box.max_lat, math.inf)
        graph._bboxes[way.osm_id] = box
        _index_way(graph, way.osm_id, box)


def _cell(lat: float, lon: float) -> tuple[int, int]:
    return math.floor(lat / CELL_DEG), math.floor(lon / CELL_DEG)


def _index_way(graph: RoadGraph, way_id: int, box: GeoBox) -> None:
    """List the way in every cell the box overlaps. floor(x / CELL_DEG)
    is monotone in x, so a position inside the box lies in one of them."""
    try:
        (lat0, lon0), (lat1, lon1) = _cell(box.min_lat, box.min_lon), _cell(box.max_lat, box.max_lon)
    except (ValueError, OverflowError):  # NaN or infinite coordinates
        graph._wide_ways.append(way_id)
        return
    if (lat1 - lat0 + 1) * (lon1 - lon0 + 1) > MAX_CELLS_PER_WAY:
        graph._wide_ways.append(way_id)
        return
    for cell in product(range(lat0, lat1 + 1), range(lon0, lon1 + 1)):
        graph._cells.setdefault(cell, []).append(way_id)


def load_into_store(graph: RoadGraph, store) -> tuple[int, int]:
    """Commit the road graph into the store as permanent-layer elements.

    Nodes become "road.node" contexts, ways become "road.way" contexts
    with their tags as static attributes, connected to their nodes by
    "hasNode" relations. Idempotent: elements upsert by osm id, and a
    reloaded way's "hasNode" edges are replaced by those of its new node
    list. Returns (node count, way count).
    """
    with store.write_lock():
        node_ids, _, _ = store.upsert_elements([
            SceneElement(0, ElementKind.Context, str(osm_id), "road.node", LdmLayer.L1_Static,
                         {"lat": node.lat, "lon": node.lon})
            for osm_id, node in graph.nodes.items()
        ])
        node_eid = dict(zip(graph.nodes, node_ids))
        way_ids, _, _ = store.upsert_elements([
            SceneElement(0, ElementKind.Context, str(osm_id), "road.way", LdmLayer.L1_Static,
                         {**{f"tag.{k}": v for k, v in way.tags.items()},
                          "oneway": way.oneway, "node_refs": list(way.node_refs)})
            for osm_id, way in graph.ways.items()
        ])
        way_nodes = {way_eid: {node_eid[ref] for ref in way.node_refs}
                     for way_eid, way in zip(way_ids, graph.ways.values())}
        for rel in store.relations():
            nodes = way_nodes.get(rel.subject)
            if nodes is not None and rel.predicate == "hasNode" and rel.object not in nodes:
                store.remove_relation(rel)
        for way_eid, way in zip(way_ids, graph.ways.values()):
            for ref in way.node_refs:
                store.add_relation(Relation(way_eid, "hasNode", node_eid[ref]))
    return (len(graph.nodes), len(graph.ways))


def graph_from_store(store) -> Optional[RoadGraph]:
    """The road graph the store's L1 road elements describe: the inverse
    of load_into_store. None when the store holds no road node it can
    read.

    Reads "road.node" (lat, lon) and "road.way" (node_refs, tag.*,
    oneway) statics in element-id order. A road context this cannot read
    (a name that is not an osm id, a static missing or of the wrong type,
    a way whose refs are not all readable nodes) is left out of the graph
    and stays an ordinary store element.
    """
    nodes: dict[int, RoadNode] = {}
    ways: list[tuple[int, dict]] = []
    for e in store.elements():
        if (e.kind is not ElementKind.Context or e.layer is not LdmLayer.L1_Static
                or e.semantic_type not in ("road.node", "road.way")):
            continue
        osm_id = _osm_id(e.name)
        if osm_id is None:
            continue
        statics = e.static_attributes
        if e.semantic_type == "road.way":
            ways.append((osm_id, statics))
        elif _is_number(statics.get("lat")) and _is_number(statics.get("lon")):
            nodes[osm_id] = RoadNode(osm_id, statics["lat"], statics["lon"])
    if not nodes:
        return None
    graph = RoadGraph(nodes=nodes)
    for osm_id, statics in ways:
        refs = statics.get("node_refs")
        if (isinstance(refs, list) and len(refs) >= 2 and isinstance(statics.get("oneway"), bool)
                and all(type(r) is int and r in nodes for r in refs)):
            tags = {k[4:]: v for k, v in statics.items() if k.startswith("tag.")}
            graph.ways[osm_id] = RoadWay(osm_id, list(refs), tags, statics["oneway"])
    rebuild_adjacency(graph)
    return graph


def _osm_id(name: str) -> Optional[int]:
    """The osm id an element name spells as load_into_store writes it."""
    try:
        osm_id = int(name)
    except ValueError:
        return None
    return osm_id if str(osm_id) == name else None


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def next_nodes(graph: RoadGraph, from_id: int, heading: float, k: int) -> list[int]:
    """Breadth-first road nodes ahead of `from_id`.

    The expansion is seeded by the outgoing edge whose bearing deviates
    least from `heading` (ties to the lower node id) and follows
    adjacency from there, so oneway restrictions are respected. Returns
    up to k node ids in traversal order, never including from_id.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    if from_id not in graph.nodes:
        raise UnknownNode(f"node {from_id} not in road graph")
    origin = graph.nodes[from_id]
    outgoing = graph.adjacency.get(from_id, [])
    if not outgoing:
        return []

    def deviation(nbr: int) -> float:
        n = graph.nodes[nbr]
        return heading_delta_deg(bearing_deg(origin.lat, origin.lon, n.lat, n.lon), heading)

    seed = min((nbr for nbr, _, _ in outgoing), key=lambda n: (deviation(n), n))
    visited = {from_id, seed}
    queue = deque([seed])
    result: list[int] = []
    while queue and len(result) < k:
        node = queue.popleft()
        result.append(node)
        for nbr, _, _ in graph.adjacency.get(node, []):
            if nbr not in visited:
                visited.add(nbr)
                queue.append(nbr)
    return result


def segments_near(graph: RoadGraph, way_id: int, box: GeoBox, lat: float, lon: float,
                  threshold_m: float = MATCH_THRESHOLD_M) -> Iterator[tuple[int, RoadNode, RoadNode]]:
    """(index, start node, end node) of each segment of the way whose node
    box, grown by threshold_m in degrees at lat, holds the position; box is
    the way's match box, and where it takes every longitude only latitude
    is tested. The margins are padded by 1e-9 of threshold_m plus 1e-6 m:
    rounding in degrees and cos(lat) (~1e-15 relative) and in the
    projection's foot (~1e-8 m) move a distance by far less."""
    mlat = math.degrees((threshold_m * (1.0 + 1e-9) + 1e-6) / EARTH_RADIUS_M)
    cos_lat = abs(math.cos(math.radians(lat)))
    mlon = mlat / cos_lat if cos_lat and box.min_lon > -math.inf else math.inf
    lat0, lat1, lon0, lon1 = lat - mlat, lat + mlat, lon - mlon, lon + mlon
    for i, (a, b) in enumerate(pairwise(map(graph.nodes.__getitem__, graph.ways[way_id].node_refs))):
        if ((a.lat >= lat0 or b.lat >= lat0) and (a.lat <= lat1 or b.lat <= lat1)
                and (a.lon >= lon0 or b.lon >= lon0) and (a.lon <= lon1 or b.lon <= lon1)):
            yield i, a, b


def map_match(
    graph: RoadGraph,
    lat: float,
    lon: float,
    *,
    threshold_m: float = MATCH_THRESHOLD_M,
) -> Optional[MatchResult]:
    """Snap a position to the nearest road segment.

    Candidate ways are those whose match box (way_bbox) contains the
    position; the way-cell index lists them without visiting the rest of
    the map. Of those, the segments that segments_near keeps are measured
    in the position's ENU frame, as wgs84_to_enu computes it. That drops
    no segment within threshold_m: in a finite match box the frame is
    affine in (lat, lon) (east = R*dlon*cos(lat), north = R*dlat, no
    wrap), so such a segment's nearest point lies in its node box and
    within threshold_m in degrees of the position.
    Returns None for a position that is not finite, and when every
    segment is further than threshold_m. Near-ties (within 1e-9 m)
    resolve to the lower (way id, segment index).
    """
    if not (math.isfinite(lat) and math.isfinite(lon)):
        return None
    candidates: list[tuple[float, int, int]] = []
    origin = EnuPoint(0.0, 0.0)
    cos_lat = math.cos(math.radians(lat))
    for way_id in graph.ways_near(lat, lon):
        box = graph.way_bbox(way_id)
        if not box.contains(lat, lon):
            continue
        for i, a, b in segments_near(graph, way_id, box, lat, lon, threshold_m):
            proj = project_to_segment(origin, enu_offset(lat, lon, cos_lat, a.lat, a.lon),
                                      enu_offset(lat, lon, cos_lat, b.lat, b.lon))
            if proj.distance_m <= threshold_m:
                candidates.append((proj.distance_m, way_id, i))
    if not candidates:
        return None
    dmin = min(d for d, _, _ in candidates)
    best = min(
        ((w, i, d) for d, w, i in candidates if d <= dmin + 1e-9),
        key=lambda t: (t[0], t[1]),
    )
    return MatchResult(best[0], best[1], best[2])
