import json
import math
import random
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import (
    BASE_LAT,
    BASE_LON,
    beside_segment,
    chain_xml,
    grid_graph,
    offset_point,
    random_cpm,
    random_scene,
)
from ldm import api
from ldm.api import STATIONARY_SPEED_EPS, STATIONARY_WINDOW_S, LocalDynamicMap
from ldm.errors import InvalidConfig, NoMap, NoPose, UnknownElement, UnknownNode, Unmatched
from ldm.geo import enu_to_wgs84
from ldm.ingest import parse_openlabel
from ldm.model import ElementKind, FrameRecord, GeoPose, LdmLayer, SceneElement
from ldm.roadnet import RoadGraph, RoadNode, RoadWay, map_match, rebuild_adjacency
from ldm.store import LdmConfig, LdmStore, SnapshotEntry

T0 = 1_700_000_000_000_000
US = 1_000_000  # microseconds per second


def scene_with(objects):
    """objects: {name: [(ts, east_m, north_m, heading, speed), ...]}"""
    doc = {"openlabel": {"metadata": {}, "objects": {}, "frames": {}}}
    root = doc["openlabel"]
    all_ts = sorted({ts for tracks in objects.values() for ts, *_ in tracks})
    frame_of = {ts: i for i, ts in enumerate(all_ts)}
    for i, ts in enumerate(all_ts):
        root["frames"][str(i)] = {"timestamp": ts, "objects": {}}
    for uid, (name, track) in enumerate(objects.items()):
        root["objects"][str(uid)] = {"name": name, "type": "vehicle.car"}
        for ts, east, north, heading, speed in track:
            entry = root["frames"][str(frame_of[ts])]["objects"][str(uid)] = {}
            if east is None:  # a frame without a pose
                continue
            lat, lon = offset_point(east, north)
            pose = {"lat": lat, "lon": lon}
            if heading is not None:
                pose["heading"] = heading
            if speed is not None:
                pose["speed"] = speed
            entry["pose"] = pose
    return doc


def eid_of(ldm, name):
    return ldm.store.find_element(ElementKind.Object, name, "vehicle.car").id


class TestConfigure:
    def test_defaults_accepted(self):
        LocalDynamicMap().configure(LdmConfig())

    def test_bad_eviction_period_rejected(self):
        with pytest.raises(InvalidConfig):
            LocalDynamicMap().configure(LdmConfig(eviction_period=3600.0))

    def test_filter_applies_to_later_ingest(self):
        from ldm.geo import GeoBox

        ldm = LocalDynamicMap()
        ldm.configure(LdmConfig(spatial_filter=GeoBox(47.0, -123.0, 48.0, -122.0)))
        counts = ldm.add_objects(scene_with({"far": [(T0, 2_000_000.0, 0.0, None, None)]}))
        assert counts.frames == 0


class TestObjectsWithin:
    def test_empty_surroundings(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"ego": [(T0, 0.0, 0.0, 90.0, None)]}))
        assert ldm.objects_within(eid_of(ldm, "ego"), 100.0, T0) == []

    def test_object_at_fifty_meters(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({
            "ego": [(T0, 0.0, 0.0, 90.0, None)],
            "car-a": [(T0, 30.0, 40.0, None, None)],  # 50 m away
        }))
        rows = ldm.objects_within(eid_of(ldm, "ego"), 100.0, T0)
        assert len(rows) == 1
        assert rows[0].name == "car-a"
        assert rows[0].distance_to_ego == pytest.approx(50.0, abs=0.01)
        assert rows[0].timestamp == T0

    def test_boundary_is_inclusive(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({
            "ego": [(T0, 0.0, 0.0, None, None)],
            "edge": [(T0, 0.0, 80.0, None, None)],
        }))
        ego = eid_of(ldm, "ego")
        d = ldm.objects_within(ego, 1000.0, T0)[0].distance_to_ego
        assert ldm.objects_within(ego, d, T0) != []

    def test_sorted_by_distance_then_id(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({
            "ego": [(T0, 0.0, 0.0, None, None)],
            "far": [(T0, 0.0, 90.0, None, None)],
            "near": [(T0, 0.0, 10.0, None, None)],
        }))
        rows = ldm.objects_within(eid_of(ldm, "ego"), 200.0, T0)
        assert [r.name for r in rows] == ["near", "far"]

    def test_unpositioned_ego_raises(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"ego": [(T0, 0.0, 0.0, None, None)]}))
        with pytest.raises(NoPose):
            ldm.objects_within(eid_of(ldm, "ego"), 10.0, T0 - 1)
        with pytest.raises(UnknownElement):
            ldm.objects_within(999, 10.0, T0)

    def test_ego_whose_latest_frame_has_no_pose_raises_in_api_and_oracle(self):
        # The ego was positioned at T0 but not at its latest frame: it is
        # not placed at the older pose, by the query or by the oracle.
        ldm = LocalDynamicMap()
        ldm.road_graph = grid_graph(2, spacing_m=200.0)
        ldm.add_objects(scene_with({
            "ego": [(T0, 0.0, 0.0, None, None), (T0 + US, None, None, None, None)],
            "near": [(T0, 0.0, 5.0, None, None), (T0 + US, 0.0, 5.0, None, None)],
        }))
        ego, near = eid_of(ldm, "ego"), eid_of(ldm, "near")
        rows = ldm.objects_within(ego, 50.0, T0)
        assert [r.element_id for r in rows] == [near]
        assert [(r.element_id, r.distance_to_ego) for r in rows] == oracles.objects_within(ldm.store, ego, 50.0, T0)
        for query, oracle in ((lambda: ldm.objects_within(ego, 50.0, T0 + US),
                               lambda: oracles.objects_within(ldm.store, ego, 50.0, T0 + US)),
                              (lambda: ldm.objects_on_same_way(ego, T0 + US),
                               lambda: oracles.objects_on_same_way(ldm.store, ldm.road_graph, ego, T0 + US))):
            with pytest.raises(NoPose, match="latest frame"):
                query()
            with pytest.raises(NoPose):
                oracle()

    def test_matches_oracle_on_random_scene(self, rng):
        ldm = LocalDynamicMap()
        ldm.add_objects(random_scene(rng, max_objects=25, max_frames=30, base_ts=T0))
        ego = ldm.store.elements()[0].id
        at = T0 + 20 * 100_000
        for radius in (250.0, 1000.0, 4000.0):
            try:
                rows = ldm.objects_within(ego, radius, at)
            except NoPose:
                continue
            assert [(r.element_id, r.distance_to_ego) for r in rows] == \
                oracles.objects_within(ldm.store, ego, radius, at)


class TestObjectsOnSameWay:
    def build(self):
        ldm = LocalDynamicMap()
        # Two parallel chains 400 m apart.
        ldm.load_map(chain_xml(n=5, spacing_m=100.0, way_id=5))
        nodes = []
        for i in range(5):
            lat, lon = offset_point(i * 100.0, 400.0)
            nodes.append((50 + i, lat, lon))
        from conftest import osm_xml

        ldm.load_map(osm_xml(nodes, [(9, [50 + i for i in range(5)], {"highway": "residential"})]))
        return ldm

    def test_same_way_filtering(self):
        ldm = self.build()
        ldm.add_objects(scene_with({
            "ego": [(T0, 150.0, 3.0, 90.0, None)],
            "mate": [(T0, 250.0, -3.0, None, None)],
            "other": [(T0, 150.0, 397.0, None, None)],  # on the far way
        }))
        rows = ldm.objects_on_same_way(eid_of(ldm, "ego"), T0)
        assert [r.name for r in rows] == ["mate"]
        assert rows[0].matched_way == 5

    def test_unmatched_ego_gives_empty(self):
        ldm = self.build()
        ldm.add_objects(scene_with({
            "ego": [(T0, 150.0, 200.0, 90.0, None)],  # 200 m off both ways
            "mate": [(T0, 250.0, -3.0, None, None)],
        }))
        assert ldm.objects_on_same_way(eid_of(ldm, "ego"), T0) == []

    def test_no_map_raises(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"ego": [(T0, 0.0, 0.0, None, None)]}))
        with pytest.raises(NoMap):
            ldm.objects_on_same_way(eid_of(ldm, "ego"), T0)


def positions_doc(positions):
    """One frame at T0 with object "o<i>" at the i-th (lat, lon)."""
    root = {"metadata": {}, "objects": {}, "frames": {"0": {"timestamp": T0, "objects": {}}}}
    for uid, (lat, lon) in enumerate(positions):
        root["objects"][str(uid)] = {"name": f"o{uid}", "type": "vehicle.car"}
        root["frames"]["0"]["objects"][str(uid)] = {"pose": {"lat": lat, "lon": lon}}
    return {"openlabel": root}


# Mid latitudes; 80 N with 20 km ways, whose match boxes span too many
# cells for the way-cell index; and both sides of the antimeridian, where
# match boxes would not wrap, so they take every longitude. The last two
# give "wide" ways, candidates for every position.
SCENES = {"mid": ((BASE_LAT, BASE_LON), (150.0, 3000.0)),
          "pole": ((80.0, 15.0), (20000.0,)),
          "antimeridian": ((0.0, 179.9995), (150.0, 3000.0)),
          "antimeridian-65n": ((65.0, -179.999), (150.0, 3000.0))}


@st.composite
def same_way_scenes(draw):
    """A road graph, the ego position and object positions around it."""
    (lat0, lon0), spans = SCENES[draw(st.sampled_from(sorted(SCENES)))]
    nodes, ways = {}, {}
    for way_id in range(1, draw(st.integers(1, 5)) + 1):
        span = draw(st.sampled_from(spans))
        offsets = draw(st.lists(st.tuples(st.floats(-span, span), st.floats(-span, span)),
                                min_size=2, max_size=5))
        refs = []
        for east, north in offsets:
            lat, lon, _ = enu_to_wgs84(lat0, lon0, east, north, max_range_m=math.inf)
            nodes[len(nodes) + 1] = RoadNode(len(nodes) + 1, lat, lon)
            refs.append(len(nodes))
        ways[way_id] = RoadWay(way_id, refs)
    graph = RoadGraph(nodes=nodes, ways=ways)
    rebuild_adjacency(graph)

    near_node = st.builds(
        lambda n, east, north: enu_to_wgs84(n.lat, n.lon, east, north, max_range_m=math.inf)[:2],
        st.sampled_from(list(nodes.values())), st.floats(-80.0, 80.0), st.floats(-80.0, 80.0))
    off_map = st.builds(
        lambda east, north: enu_to_wgs84(lat0, lon0, east, north, max_range_m=math.inf)[:2],
        st.floats(-30000.0, 30000.0), st.floats(-30000.0, 30000.0))

    def corner(way_id, upper_lat, upper_lon, outside):
        # A corner of the way's match box, or the next float outside it.
        box = graph.way_bbox(way_id)
        lat, lon = (box.max_lat if upper_lat else box.min_lat), (box.max_lon if upper_lon else box.min_lon)
        if outside:
            lat = math.nextafter(lat, math.inf if upper_lat else -math.inf)
            lon = math.nextafter(lon, math.inf if upper_lon else -math.inf)
        if math.isinf(lon):  # a box with every longitude: its edge is the lat band
            lon = graph.nodes[ways[way_id].node_refs[0]].lon
        return lat, lon

    corners = st.builds(corner, st.sampled_from(sorted(ways)), st.booleans(), st.booleans(), st.booleans())
    segments = [(w, i) for w, way in sorted(ways.items()) for i in range(len(way.node_refs) - 1)]
    beside = st.builds(lambda seg, t, east, north: beside_segment(graph, *seg, t, east, north),
                       st.sampled_from(segments), st.floats(0.0, 1.0),
                       st.floats(-60.0, 60.0), st.floats(-60.0, 60.0))
    ego = draw(st.one_of(near_node, off_map, beside))
    others = draw(st.lists(st.one_of(near_node, off_map, corners, beside), max_size=12))
    return graph, ego, others


class TestSameWayPrefilter:
    @settings(max_examples=200, deadline=None)
    @given(same_way_scenes(), st.booleans())
    def test_equals_the_oracle(self, case, with_nan_poses):
        graph, ego_pos, others = case
        ldm = LocalDynamicMap()
        ldm.road_graph = graph
        ldm.add_objects(positions_doc([ego_pos, *others]))
        ego = eid_of(ldm, "o0")
        expected = oracles.objects_on_same_way(ldm.store, graph, ego, T0)
        if with_nan_poses:
            # The store rejects NaN positions, so add them after its read:
            # they skip the store's box test, and fail inside map_match.
            objects_at = ldm.store.objects_at
            ghosts = [SnapshotEntry(SceneElement(10_000 + i, ElementKind.Object, f"nan{i}", "vehicle.car",
                                                 LdmLayer.L4_Dynamic),
                                    FrameRecord(T0, 10_000 + i, GeoPose(lat, lon)))
                      for i, (lat, lon) in enumerate(((math.nan, ego_pos[1]), (ego_pos[0], math.nan)))]
            ldm.store.objects_at = lambda at, box=None: objects_at(at, box) + ghosts
        assert [r.element_id for r in ldm.objects_on_same_way(ego, T0)] == expected

    def test_across_the_antimeridian(self):
        # Both positions lie 11 m from the way, outside its nodes' inflated
        # box, which spans lon [-179.9909, 179.9909] and does not wrap.
        graph = RoadGraph(nodes={1: RoadNode(1, 0.0, 179.99), 2: RoadNode(2, 0.0, -179.99)},
                          ways={5: RoadWay(5, [1, 2])})
        rebuild_adjacency(graph)
        ldm = LocalDynamicMap()
        ldm.road_graph = graph
        ldm.add_objects(positions_doc([(0.0001, 179.999), (0.0001, -179.999)]))
        rows = ldm.objects_on_same_way(eid_of(ldm, "o0"), T0)
        assert [(r.element_id, r.matched_way) for r in rows] == [(eid_of(ldm, "o1"), 5)]

    def test_matches_only_objects_in_the_ego_way_box(self, monkeypatch):
        # 2,520 ways; 300 objects spread over the whole grid and 10 along
        # the ego's way.
        graph = grid_graph(36, spacing_m=400.0)
        assert len(graph.ways) == 2520
        rng = random.Random(3)
        ego_pos = offset_point(0.0, 205.0)
        positions = [ego_pos] + [offset_point(rng.uniform(-7000, 7000), rng.uniform(-7000, 7000))
                                 for _ in range(300)]
        positions += [offset_point(rng.uniform(-195, 195), rng.uniform(195, 215)) for _ in range(10)]
        ldm = LocalDynamicMap()
        ldm.road_graph = graph
        ldm.add_objects(positions_doc(positions))
        ego_way = map_match(graph, *ego_pos).way_id
        box = graph.way_bbox(ego_way)
        inside = sum(box.contains(lat, lon) for lat, lon in positions[1:])
        expected = sorted(eid_of(ldm, f"o{i}") for i, p in enumerate(positions)
                          if i and getattr(map_match(graph, *p), "way_id", None) == ego_way)

        calls = []
        monkeypatch.setattr(api, "map_match", lambda g, lat, lon: calls.append(1) or map_match(g, lat, lon))
        got = [r.element_id for r in ldm.objects_on_same_way(eid_of(ldm, "o0"), T0)]
        assert got == expected and len(got) >= 10
        assert len(calls) <= 1 + inside < 30

    def test_objects_far_from_every_ego_way_segment_are_not_matched(self, monkeypatch):
        # An L-shaped way: its match box holds the corner across from the
        # bend and the area beyond its ends, both over 50 m from it.
        nodes = {i: RoadNode(i, *offset_point(east, north))
                 for i, (east, north) in enumerate(((0.0, 0.0), (300.0, 0.0), (300.0, 300.0)))}
        graph = RoadGraph(nodes=nodes, ways={4: RoadWay(4, [0, 1, 2])})
        rebuild_adjacency(graph)
        positions = [offset_point(100.0, 3.0), offset_point(150.0, -4.0), offset_point(296.0, 200.0),
                     offset_point(50.0, 250.0), offset_point(-70.0, 0.0), offset_point(300.0, 360.0)]
        assert all(graph.way_bbox(4).contains(*p) for p in positions)
        ldm = LocalDynamicMap()
        ldm.road_graph = graph
        ldm.add_objects(positions_doc(positions))
        matched = []
        monkeypatch.setattr(api, "map_match", lambda g, lat, lon: matched.append((lat, lon)) or map_match(g, lat, lon))
        rows = ldm.objects_on_same_way(eid_of(ldm, "o0"), T0)
        assert [r.name for r in rows] == ["o1", "o2"]
        assert matched[0] == positions[0] and sorted(matched[1:]) == sorted(positions[1:3])


GRID_TTL_S = 4.0
GRID_CONFIG = {LdmLayer.L1_Static: math.inf, LdmLayer.L2_QuasiStatic: 30.0,
               LdmLayer.L3_Transient: 10.0, LdmLayer.L4_Dynamic: GRID_TTL_S}


@st.composite
def grid_histories(draw):
    """A same_way_scenes map and positions, a query radius, and steps
    over six objects: commits of one to three frames, each a later frame,
    an out-of-order one, a same-timestamp replacement or a pose-less
    latest frame, and eviction passes at the last update plus 1, 3, 10 s
    or the TTL exactly."""
    graph, ego, others = draw(same_way_scenes())
    positions = [ego, *others]
    frame = st.tuples(st.integers(0, 5), st.sampled_from(["later", "older", "same", "poseless"]),
                      st.integers(0, len(positions) - 1), st.integers(1, 3))
    commit = st.tuples(st.just("commit"), st.lists(frame, min_size=1, max_size=3))
    evict = st.tuples(st.just("evict"), st.sampled_from([1.0, 3.0, 10.0, GRID_TTL_S]))
    steps = draw(st.lists(st.one_of(commit, commit, evict), min_size=1, max_size=10))
    return graph, positions, steps, draw(st.sampled_from([20.0, 150.0, 3000.0, math.inf]))


def grid_step(store, positions, step):
    """Apply one grid_histories step to the store."""
    last = store.stats().last_update or T0
    if step[0] == "evict":
        store.evict_expired(last + int(step[1] * US))
        return
    batch = []
    for obj, how, pos, dt in step[1]:
        name = f"o{obj}"
        element = store.find_element(ElementKind.Object, name, "vehicle.car")
        latest = store.latest_frame(element.id, 1 << 62) if element is not None else None
        if how == "same" and latest is not None:
            ts = latest.timestamp
        else:
            ts = last - dt * US if how == "older" else last + dt * US
        pose = None if how == "poseless" else GeoPose(*positions[pos])
        batch.append(SceneElement(0, ElementKind.Object, name, "vehicle.car", LdmLayer.L4_Dynamic, {},
                                  {ts: FrameRecord(ts, 0, pose)}))
    store.upsert_elements(batch)


def check_box_queries(ldm, radius, at):
    """The three box queries at `at` equal the oracles, for each object
    positioned at `at` as the ego and for the first and last road node."""
    store, graph = ldm.store, ldm.road_graph
    for element, _ in oracles.object_states(store, at):
        rows = ldm.objects_within(element.id, radius, at)
        assert [(r.element_id, r.distance_to_ego) for r in rows] == \
            oracles.objects_within(store, element.id, radius, at)
        assert [r.element_id for r in ldm.objects_on_same_way(element.id, at)] == \
            oracles.objects_on_same_way(store, graph, element.id, at)
    for node in (min(graph.nodes), max(graph.nodes)):
        rows = ldm.objects_near_node(node, radius, at)
        assert [(r.element_id, r.distance_to_node) for r in rows] == \
            oracles.objects_near_node(store, graph, node, radius, at)


def kept_without_frames_case():
    """o1 is created with a frame older than the last update, then every
    frame of it expires at exactly the TTL after that update: the pass
    keeps it, frameless, and the grid must let it go."""
    nodes = {1: RoadNode(1, *offset_point(-100.0, 0.0)), 2: RoadNode(2, *offset_point(100.0, 0.0))}
    graph = RoadGraph(nodes=nodes, ways={1: RoadWay(1, [1, 2])})
    rebuild_adjacency(graph)
    steps = [("commit", [(0, "later", 0, 1)]), ("commit", [(1, "older", 1, 2)]), ("evict", GRID_TTL_S)]
    return graph, [offset_point(0.0, 5.0), offset_point(20.0, 0.0)], steps, 150.0


class TestGridReads:
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(grid_histories())
    @example(kept_without_frames_case())
    def test_box_queries_equal_the_oracles_after_every_step(self, case):
        graph, positions, steps, radius = case
        ldm = LocalDynamicMap(LdmConfig(ttl_per_layer=GRID_CONFIG))
        ldm.road_graph = graph
        for step in steps:
            grid_step(ldm.store, positions, step)
            last = ldm.store.stats().last_update
            for at in (last, last - 2 * US):
                check_box_queries(ldm, radius, at)

    def test_an_object_kept_without_frames_leaves_the_grid(self):
        graph, positions, steps, radius = kept_without_frames_case()
        ldm = LocalDynamicMap(LdmConfig(ttl_per_layer=GRID_CONFIG))
        ldm.road_graph = graph
        for step in steps[:2]:
            grid_step(ldm.store, positions, step)
        o0, o1 = eid_of(ldm, "o0"), eid_of(ldm, "o1")
        last = ldm.store.stats().last_update
        assert [r.element_id for r in ldm.objects_within(o0, radius, last)] == [o1]
        grid_step(ldm.store, positions, steps[2])
        assert ldm.store.get_element(o1) and ldm.store.query_frames(o1, 0, 1 << 62) == []
        assert ldm.objects_within(o0, radius, last) == []

    def test_readers_beside_a_writer_equal_the_oracle(self, monkeypatch):
        # Two readers query at the last update while a writer commits and
        # runs an eviction pass. Each read holds the read lock over its
        # query and its oracle, so both see one store state. Every
        # re-bucket must run on the thread that holds the write side; one
        # is slowed to widen it, and no grid visit may run beside it.
        ldm = LocalDynamicMap(LdmConfig(ttl_per_layer=GRID_CONFIG))
        ldm.road_graph = grid_graph(4, spacing_m=200.0)
        store = ldm.store
        rng = random.Random(11)

        def commit(ts, names):
            store.upsert_elements([
                SceneElement(0, ElementKind.Object, name, "vehicle.car", LdmLayer.L4_Dynamic, {},
                             {ts: FrameRecord(ts, 0, GeoPose(*offset_point(rng.uniform(-400, 400),
                                                                           rng.uniform(-400, 400))))})
                for name in names])

        names = [f"o{i}" for i in range(30)]
        commit(T0, names)
        rebucketing, clashes = [], []
        rebucket = LdmStore._rebucket_locked

        def slow_rebucket(self, entry):
            if self._lock._writer != threading.get_ident():
                clashes.append("a re-bucket outside the write side")
            rebucketing.append(entry)
            time.sleep(0.0002)
            rebucketing.pop()
            rebucket(self, entry)

        contains = api.GeoBox.contains

        def watched_contains(self, lat, lon):
            if rebucketing:
                clashes.append("a grid visit during a re-bucket")
            return contains(self, lat, lon)

        monkeypatch.setattr(LdmStore, "_rebucket_locked", slow_rebucket)
        monkeypatch.setattr(api.GeoBox, "contains", watched_contains)
        done = threading.Event()
        reads, errors = [], []

        def reader(seed):
            r = random.Random(seed)
            try:
                while not done.is_set() or len(reads) < 20:
                    with store.read_lock():
                        at = store.stats().last_update
                        if r.random() < 0.5:
                            ego = r.choice(oracles.object_states(store, at))[0].id
                            got = [(x.element_id, x.distance_to_ego) for x in ldm.objects_within(ego, 250.0, at)]
                            assert got == oracles.objects_within(store, ego, 250.0, at)
                        else:
                            node = r.choice(sorted(ldm.road_graph.nodes))
                            got = [(x.element_id, x.distance_to_node)
                                   for x in ldm.objects_near_node(node, 250.0, at)]
                            assert got == oracles.objects_near_node(store, ldm.road_graph, node, 250.0, at)
                    reads.append(at)
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)

        def writer():
            try:
                for step in range(1, 41):
                    commit(T0 + step * US // 10, rng.sample(names, 5))
                    if step == 20:
                        assert store.evict_expired(T0 + int(GRID_TTL_S * US) + US) > 0
                    time.sleep(0.001)
            except Exception as exc:  # noqa: BLE001 - reported by the main thread
                errors.append(exc)
            finally:
                done.set()

        threads = [threading.Thread(target=reader, args=(k,), daemon=True) for k in (1, 2)]
        threads.append(threading.Thread(target=writer, daemon=True))
        for t in threads:
            t.start()
        deadline = time.monotonic() + 30.0
        for t in threads:
            t.join(max(0.0, deadline - time.monotonic()))
        assert not [t for t in threads if t.is_alive()]
        assert errors == [] and clashes == []
        assert len(set(reads)) > 5


@st.composite
def stationary_scenes(draw):
    """Tracks over 8 one-second steps: per frame a missing pose, or a
    pose that moves 0, 0.3 or 5 m from the last one with no speed field,
    0 or exactly eps; then, maybe, one frame (the latest or an earlier
    one) reporting a speed above eps."""
    objects = {}
    for i in range(draw(st.integers(1, 6))):
        track, east = [], 0.0
        for step in sorted(draw(st.sets(st.integers(0, 7), min_size=1, max_size=6))):
            ts = T0 + step * 1_000_000
            if draw(st.integers(0, 4)) == 0:
                track.append((ts, None, None, None, None))
                continue
            east += draw(st.sampled_from([0.0, 0.3, 5.0]))
            track.append((ts, east, 0.0, None, draw(st.sampled_from([None, 0.0, STATIONARY_SPEED_EPS]))))
        fast = draw(st.one_of(st.none(), st.integers(0, len(track) - 1)))
        if fast is not None:
            ts, at_east, _, _, _ = track[fast]
            speed = draw(st.sampled_from([math.nextafter(STATIONARY_SPEED_EPS, math.inf), 3.0]))
            track[fast] = (ts, east if at_east is None else at_east, 0.0, None, speed)
        objects[f"o{i}"] = track
    return objects


class TestStationaryObjects:
    def test_slow_object_included(self):
        track = [(T0 + i * 1_000_000, 0.0, 0.0, None, s) for i, s in enumerate((0.0, 0.0, 0.1))]
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"parked": track}))
        rows = ldm.stationary_objects(T0 + 2_000_000, window_s=5.0, speed_eps=0.5)
        assert [r.name for r in rows] == ["parked"]

    def test_single_frame_excluded(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"flash": [(T0, 0.0, 0.0, None, 0.0)]}))
        assert ldm.stationary_objects(T0, 5.0, 0.5) == []

    def test_derived_speed_excludes_mover(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({
            "drift": [(T0, 0.0, 0.0, None, None), (T0 + 1_000_000, 0.0, 10.0, None, None)],
        }))
        assert ldm.stationary_objects(T0 + 1_000_000, 5.0, 0.5) == []

    def test_derived_speed_keeps_still_object(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({
            "still": [(T0, 5.0, 5.0, None, None), (T0 + 1_000_000, 5.2, 5.0, None, None)],
        }))
        rows = ldm.stationary_objects(T0 + 1_000_000, 5.0, 0.5)
        assert [r.name for r in rows] == ["still"]

    def test_window_edges_are_exact(self):
        # The window is (at - 5 s, at]: "inside" has its two frames at
        # its first and second microsecond, "before" ends on its edge.
        at = T0 + 5_000_000
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({
            "inside": [(T0 + 1, 0.0, 0.0, None, 0.0), (T0 + 2, 0.0, 0.0, None, 0.0)],
            "before": [(T0 - 1, 0.0, 0.0, None, 0.0), (T0, 0.0, 0.0, None, 0.0)],
        }))
        assert [r.name for r in ldm.stationary_objects(at, 5.0, 0.5)] == ["inside"]
        assert [r.name for r in ldm.stationary_objects(at - 2, 5.0, 0.5)] == ["inside", "before"]

    def test_matches_oracle_on_random_scene(self, rng):
        ldm = LocalDynamicMap()
        ldm.add_objects(random_scene(rng, max_objects=20, max_frames=40, base_ts=T0))
        at = T0 + 30 * 100_000
        got = [r.element_id for r in ldm.stationary_objects(at, 3.0, 5.0)]
        assert got == oracles.stationary_objects(ldm.store, at, 3.0, 5.0)

    @settings(max_examples=200, deadline=None)
    @given(stationary_scenes(), st.integers(0, 7))
    def test_equals_the_oracle_over_mixed_speed_fields(self, objects, at_step):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with(objects))
        at = T0 + at_step * 1_000_000
        got = [r.element_id for r in ldm.stationary_objects(at)]
        assert got == oracles.stationary_objects(ldm.store, at, STATIONARY_WINDOW_S, STATIONARY_SPEED_EPS)

    def test_movers_are_rejected_without_reading_their_window(self, monkeypatch):
        # 200 objects whose latest frame reports 10 m/s.
        track = [(T0 + i * 1_000_000, 10.0 * i, 0.0, None, 10.0) for i in range(3)]
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({f"m{i}": track for i in range(200)}))
        calls = []
        query_frames = ldm.store.query_frames
        monkeypatch.setattr(ldm.store, "query_frames", lambda *a: calls.append(a) or query_frames(*a))
        assert ldm.stationary_objects(T0 + 2_000_000) == []
        assert calls == []

    def test_eviction_started_mid_query_waits_for_it(self, monkeypatch):
        # The eviction pass starts right after the object list is read and
        # drops every object; the query must still see each of them. Both
        # objects report speed 0, so the query reads each one's window.
        track = [(T0 + i * 1_000_000, 0.0, 0.0, None, 0.0) for i in range(3)]
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"parked": track, "kerb": track}))
        at = T0 + 2_000_000
        expected = [(r.element_id, r.timestamp) for r in ldm.stationary_objects(at)]
        assert len(expected) == 2

        store, events = ldm.store, []
        objects_at, query_frames = store.objects_at, store.query_frames

        def evict():
            events.append(("evicted", store.evict_expired(at + 3600 * 1_000_000)))

        evictor = threading.Thread(target=evict, daemon=True)

        def objects_at_then_evict(t):
            out = objects_at(t)
            evictor.start()
            deadline = time.monotonic() + 10
            while not store._lock._waiting_writers and evictor.is_alive() and time.monotonic() < deadline:
                time.sleep(0.001)
            return out

        def logged_query_frames(*args):
            events.append(("query_frames", args[0]))
            return query_frames(*args)

        monkeypatch.setattr(store, "objects_at", objects_at_then_evict)
        monkeypatch.setattr(store, "query_frames", logged_query_frames)
        got = [(r.element_id, r.timestamp) for r in ldm.stationary_objects(at)]
        evictor.join(timeout=10)
        assert not evictor.is_alive()
        assert got == expected
        assert [name for name, _ in events] == ["query_frames", "query_frames", "evicted"]
        assert events[-1][1] == 6
        assert store.stats().element_count_per_layer == {}


class TestNextRoadNodes:
    def build(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=5, spacing_m=100.0))
        return ldm

    def test_forward_from_mid_segment(self):
        ldm = self.build()
        ldm.add_objects(scene_with({"ego": [(T0, 150.0, 2.0, 90.0, None)]}))
        assert ldm.next_road_nodes(eid_of(ldm, "ego"), 2, T0) == [3, 4]

    def test_reversed_heading(self):
        ldm = self.build()
        ldm.add_objects(scene_with({"ego": [(T0, 150.0, 2.0, 270.0, None)]}))
        assert ldm.next_road_nodes(eid_of(ldm, "ego"), 2, T0) == [2, 1]

    def test_heading_derived_from_track_when_missing(self):
        ldm = self.build()
        ldm.add_objects(scene_with({
            "ego": [(T0, 100.0, 2.0, None, None), (T0 + 1_000_000, 150.0, 2.0, None, None)],
        }))
        assert ldm.next_road_nodes(eid_of(ldm, "ego"), 2, T0 + 1_000_000) == [3, 4]

    def test_heading_derived_past_a_frame_without_pose(self, monkeypatch):
        # Heading west: from 200 m to 150 m, with a pose-less frame between.
        ldm = self.build()
        ldm.add_objects(scene_with({
            "ego": [(T0, 200.0, 2.0, None, None), (T0 + 500_000, None, None, None, None),
                    (T0 + 1_000_000, 150.0, 2.0, None, None)],
        }))
        monkeypatch.setattr(ldm.store, "query_frames", None)  # the history is not copied
        assert ldm.next_road_nodes(eid_of(ldm, "ego"), 2, T0 + 1_000_000) == [2, 1]

    def test_unmatched_raises(self):
        ldm = self.build()
        ldm.add_objects(scene_with({"ego": [(T0, 150.0, 5000.0, 90.0, None)]}))
        with pytest.raises(Unmatched):
            ldm.next_road_nodes(eid_of(ldm, "ego"), 2, T0)

    def test_no_map_raises(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"ego": [(T0, 0.0, 0.0, 90.0, None)]}))
        with pytest.raises(NoMap):
            ldm.next_road_nodes(eid_of(ldm, "ego"), 2, T0)


class TestObjectsNearNode:
    def test_object_twenty_meters_from_node(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=3, spacing_m=100.0))
        # node 2 sits 100 m east of the base point
        ldm.add_objects(scene_with({"bike": [(T0, 100.0, 20.0, None, None)]}))
        rows = ldm.objects_near_node(2, 25.0, T0)
        assert len(rows) == 1
        assert rows[0].distance_to_node == pytest.approx(20.0, abs=0.01)
        assert rows[0].distance_to_ego is None

    def test_empty_radius(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=3))
        assert ldm.objects_near_node(1, 10.0, T0) == []

    def test_unknown_node(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=3))
        with pytest.raises(UnknownNode):
            ldm.objects_near_node(99, 10.0, T0)
        with pytest.raises(UnknownNode):
            LocalDynamicMap().objects_near_node(1, 10.0, T0)


class TestRadius:
    def scene(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=3, spacing_m=100.0))
        ldm.add_objects(scene_with({
            "ego": [(T0, 0.0, 0.0, None, None), (T0 + US, 10.0, 0.0, None, None)],
            "near": [(T0, 30.0, 0.0, None, None)],
            "far": [(T0, 9_000_000.0, 0.0, None, None), (T0 + US, 9_000_000.0, 5.0, None, None)],
            "blind": [(T0, 50.0, 0.0, None, None), (T0 + US, None, None, None, None)],
        }))
        return ldm

    def test_nan_radius_raises(self):
        ldm = self.scene()
        with pytest.raises(ValueError):
            ldm.objects_within(eid_of(ldm, "ego"), math.nan, T0 + US)
        with pytest.raises(ValueError):
            ldm.objects_near_node(1, math.nan, T0 + US)

    def test_infinite_radius_returns_every_positioned_object(self):
        ldm = self.scene()
        ego = eid_of(ldm, "ego")
        # At the last update "blind" has no pose; before it, it has one.
        for at, names in ((T0 + US, {"near", "far"}), (T0, {"near", "far", "blind"})):
            expected = {eid_of(ldm, n) for n in names}
            assert {r.element_id for r in ldm.objects_within(ego, math.inf, at)} == expected
            assert {r.element_id for r in ldm.objects_near_node(1, math.inf, at)} == expected | {ego}


class TestReadmeQuickStart:
    def test_the_cpm_line_commits_a_c6_message(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Library quick start", 1)[1].split("```python", 1)[1].split("```", 1)[0]
        lines = block.splitlines()
        imports = [line for line in lines if line.startswith(("from ", "import "))]
        cpm_line = next(line for line in lines if "cpm_dict" in line).split("#")[0].strip()
        assert cpm_line == "m.add_objects(parse_cpm(cpm_dict))"
        cpm_dict = random_cpm(random.Random(606), n_objects=20, station_id=1, base_ts=T0)
        namespace = {"m": LocalDynamicMap(), "cpm_dict": cpm_dict}
        exec("\n".join(imports + [cpm_line]), namespace)
        # The station and its 20 perceived objects.
        assert namespace["m"].get_info()[0] == ("elements.total", 21)


class TestExport:
    def test_empty_interval_contents(self, tmp_path):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"car": [(T0, 0.0, 0.0, None, None)]}))
        out = tmp_path / "empty.json"
        counts = ldm.export(1, 2, out)
        assert (counts.elements, counts.frames, counts.relations) == (0, 0, 0)
        doc = json.loads(out.read_text())
        assert doc["openlabel"]["objects"] == {}
        assert doc["openlabel"]["frames"] == {}

    def test_round_trip_reproduces_payload(self, rng, tmp_path):
        original = random_scene(rng, max_objects=15, max_frames=20, base_ts=T0)
        ldm = LocalDynamicMap()
        ldm.add_objects(original)
        out = tmp_path / "dump.json"
        ldm.export(T0, T0 + 10**12, out)
        exported = parse_openlabel(out.read_text())

        src = parse_openlabel(original)
        by_name = {(e.name, e.semantic_type): e for e in exported.objects.values()}

        for pe in src.objects.values():
            key = (pe.name, pe.semantic_type)
            assert key in by_name
            assert by_name[key].static_attributes == pe.static_attributes
            for ts, want in pe.frames.items():
                got = by_name[key].frames[ts]
                assert got.pose.lat == pytest.approx(want.pose.lat, abs=1e-9)
                assert got.pose.lon == pytest.approx(want.pose.lon, abs=1e-9)
                assert got.dynamic_attributes == want.dynamic_attributes

    def test_export_is_byte_deterministic(self, rng, tmp_path):
        doc = random_scene(rng, max_objects=10, max_frames=10, base_ts=T0)

        def build():
            ldm = LocalDynamicMap()
            ldm.load_map(chain_xml(n=3))
            ldm.add_objects(doc)
            return ldm

        a, b = tmp_path / "a.json", tmp_path / "b.json"
        ldm1 = build()
        ldm1.export(T0, T0 + 10**12, a)
        ldm1.export(T0, T0 + 10**12, b)
        assert a.read_bytes() == b.read_bytes()
        ldm2 = build()
        c = tmp_path / "c.json"
        ldm2.export(T0, T0 + 10**12, c)
        assert a.read_bytes() == c.read_bytes()

    def test_permanent_layer_closure_via_relations(self, tmp_path):
        from ldm.model import Relation

        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=3, spacing_m=100.0))
        ldm.add_objects(scene_with({"car": [(T0, 100.0, 3.0, None, None)]}))
        car = eid_of(ldm, "car")
        way = ldm.store.find_element(ElementKind.Context, "1", "road.way")
        ldm.store.add_relation(Relation(car, "isOnWay", way.id))
        out = tmp_path / "closure.json"
        ldm.export(T0, T0 + 1, out)
        exported = parse_openlabel(out.read_text())
        names = {(e.name, e.semantic_type) for e in exported.contexts.values()}
        # the way and, transitively, its three nodes came along
        assert ("1", "road.way") in names
        assert {("1", "road.node"), ("2", "road.node"), ("3", "road.node")} <= names
        preds = {r.predicate for r in exported.relations}
        assert preds == {"isOnWay", "hasNode"}


class TestGetInfo:
    def test_empty_store(self):
        fields = dict(LocalDynamicMap().get_info())
        assert fields["elements.total"] == 0
        assert fields["elements.L1"] == 0
        assert fields["objects_at_latest_frame"] == 0
        assert fields["relations.total"] == 0
        assert fields["frame_range.min"] is None

    def test_after_map_load(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=3))
        fields = dict(ldm.get_info())
        assert fields["elements.L1"] == 4
        assert fields["relations.total"] == 3

    def test_objects_at_latest_frame(self):
        ldm = LocalDynamicMap()
        ldm.add_objects(scene_with({"car": [(T0, 0.0, 0.0, None, None)]}))
        fields = dict(ldm.get_info())
        assert fields["objects_at_latest_frame"] == 1
        assert fields["frames.total"] == 1

    def test_field_order_is_stable(self):
        names = [n for n, _ in LocalDynamicMap().get_info()]
        assert names.index("elements.total") == 0
        assert names == [n for n, _ in LocalDynamicMap().get_info()]


class TestQueriesArePureReads:
    def test_stats_unchanged_by_queries(self):
        ldm = LocalDynamicMap()
        ldm.load_map(chain_xml(n=5))
        ldm.add_objects(scene_with({
            "ego": [(T0, 150.0, 2.0, 90.0, None)],
            "car": [(T0, 160.0, 2.0, None, 0.0)],
        }))
        ego = eid_of(ldm, "ego")
        before = ldm.store.stats()
        ldm.objects_within(ego, 500.0, T0)
        ldm.objects_on_same_way(ego, T0)
        ldm.stationary_objects(T0)
        ldm.next_road_nodes(ego, 3, T0)
        ldm.objects_near_node(2, 100.0, T0)
        ldm.get_info()
        assert ldm.store.stats() == before
