import math
import random

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
    osm_xml,
    random_osm,
)
from ldm.errors import MalformedDocument, UnknownNode
from ldm.geo import EnuPoint, GeoBox, enu_to_wgs84, haversine_m, project_to_segment, wgs84_to_enu
from ldm.model import ElementKind, LdmLayer
from ldm import roadnet
from ldm.roadnet import (
    CELL_DEG,
    MATCH_INFLATE_M,
    MATCH_THRESHOLD_M,
    RoadGraph,
    RoadNode,
    RoadWay,
    graph_from_store,
    load_into_store,
    map_match,
    next_nodes,
    parse_osm,
    rebuild_adjacency,
)
from ldm.store import LdmStore


def simple_triangle():
    nodes = [(1, BASE_LAT, BASE_LON)]
    lat2, lon2 = offset_point(100.0, 0.0)
    lat3, lon3 = offset_point(200.0, 50.0)
    nodes += [(2, lat2, lon2), (3, lat3, lon3)]
    return osm_xml(nodes, [(10, [1, 2, 3], {"highway": "residential"})])


class TestParseOsm:
    def test_basic_graph(self):
        g = parse_osm(simple_triangle())
        assert set(g.nodes) == {1, 2, 3}
        assert set(g.ways) == {10}
        # two segments, both directions
        assert len(g.adjacency[1]) == 1
        assert len(g.adjacency[2]) == 2
        assert g.warnings == []

    def test_way_without_highway_tag_excluded(self):
        doc = osm_xml(
            [(1, 0.0, 0.0), (2, 0.001, 0.0)],
            [(10, [1, 2], {"waterway": "river"})],
        )
        g = parse_osm(doc)
        assert g.ways == {} and g.nodes == {}

    def test_dangling_ref_drops_way_with_warning(self):
        doc = osm_xml(
            [(1, 0.0, 0.0), (2, 0.001, 0.0)],
            [
                (10, [1, 2, 99], {"highway": "residential"}),
                (11, [1, 2], {"highway": "primary"}),
            ],
        )
        g = parse_osm(doc)
        assert set(g.ways) == {11}
        assert len(g.warnings) == 1
        assert "99" in g.warnings[0]

    def test_malformed_xml_raises_with_line(self):
        with pytest.raises(MalformedDocument) as err:
            parse_osm(b"<osm>\n<node id=oops/>\n</osm>")
        assert err.value.line == 2

    def test_consecutive_duplicate_refs_collapsed(self):
        doc = osm_xml(
            [(1, 0.0, 0.0), (2, 0.001, 0.0)],
            [(10, [1, 1, 2, 2], {"highway": "residential"})],
        )
        g = parse_osm(doc)
        assert g.ways[10].node_refs == [1, 2]

    def test_oneway_adjacency_is_directed(self):
        g = parse_osm(chain_xml(n=3, oneway=True))
        assert [n for n, _, _ in g.adjacency[1]] == [2]
        assert g.adjacency[3] == []

    def test_reverse_oneway_flips_refs(self):
        doc = osm_xml(
            [(1, 0.0, 0.0), (2, 0.001, 0.0)],
            [(10, [1, 2], {"highway": "residential", "oneway": "-1"})],
        )
        g = parse_osm(doc)
        assert g.ways[10].node_refs == [2, 1]
        assert g.ways[10].oneway is True

    def test_deterministic_parse(self):
        doc = random_osm(random.Random(5), n_ways=10)
        g1, g2 = parse_osm(doc), parse_osm(doc)
        assert list(g1.nodes.items()) == list(g2.nodes.items())
        assert list(g1.ways.items()) == list(g2.ways.items())
        assert g1.adjacency == g2.adjacency
        assert g1.warnings == g2.warnings

    def test_adjacency_lengths_sum_to_polyline_length(self):
        g = parse_osm(random_osm(random.Random(9), n_ways=8))
        for way in g.ways.values():
            polyline = 0.0
            for a, b in zip(way.node_refs, way.node_refs[1:]):
                na, nb = g.nodes[a], g.nodes[b]
                polyline += haversine_m(na.lat, na.lon, nb.lat, nb.lon)
            edges = 0.0
            for a, b in zip(way.node_refs, way.node_refs[1:]):
                edges += next(
                    length for nbr, wid, length in g.adjacency[a]
                    if nbr == b and wid == way.osm_id
                )
            assert edges == pytest.approx(polyline, rel=1e-6)


class TestLoadIntoStore:
    def test_counts_and_relations(self):
        g = parse_osm(simple_triangle())
        store = LdmStore()
        assert load_into_store(g, store) == (3, 1)
        elements = store.elements()
        assert len(elements) == 4
        assert all(e.layer is LdmLayer.L1_Static for e in elements)
        assert all(e.kind is ElementKind.Context for e in elements)
        assert store.stats().relation_count == 3

    def test_reload_is_idempotent(self):
        g = parse_osm(simple_triangle())
        store = LdmStore()
        load_into_store(g, store)
        before = (store.elements(), store.relations())
        assert load_into_store(g, store) == (3, 1)
        assert (store.elements(), store.relations()) == before

    def test_empty_graph(self):
        assert load_into_store(RoadGraph(), LdmStore()) == (0, 0)

    def test_graph_from_store_inverts_it(self):
        assert graph_from_store(LdmStore()) is None
        for seed in range(5):
            g = parse_osm(random_osm(random.Random(seed), n_ways=15))
            store = LdmStore()
            load_into_store(g, store)
            back = graph_from_store(store)
            assert list(back.nodes.items()) == list(g.nodes.items())
            assert list(back.ways.items()) == list(g.ways.items())
            assert back.adjacency == g.adjacency
            assert (back._bboxes, back._cells, back._wide_ways) == (g._bboxes, g._cells, g._wide_ways)

    def test_way_reload_replaces_its_node_edges(self):
        nodes = [(n, *offset_point(100.0 * n, 0.0)) for n in (1, 2, 3, 4)]
        store = LdmStore()
        load_into_store(parse_osm(osm_xml(nodes, [(9, [1, 2, 3], {"highway": "residential"}),
                                                  (5, [2, 3], {"highway": "residential"})])), store)
        load_into_store(parse_osm(osm_xml(nodes, [(9, [1, 4], {"highway": "residential"})])), store)

        def edges(way):
            eid = store.find_element(ElementKind.Context, str(way), "road.way").id
            return {int(store.get_element(r.object).name)
                    for r in store.relations() if r.subject == eid and r.predicate == "hasNode"}

        assert edges(9) == {1, 4}
        assert edges(5) == {2, 3}  # a way not reloaded keeps its edges
        assert store.stats().relation_count == 4


class TestNextNodes:
    def test_chain_forward(self):
        g = parse_osm(chain_xml(n=5))
        # chain runs west->east; heading 90 means east
        assert next_nodes(g, 1, 90.0, 3) == [2, 3, 4]

    def test_k_exceeds_reachable(self):
        g = parse_osm(chain_xml(n=3))
        assert next_nodes(g, 1, 90.0, 10) == [2, 3]

    def test_isolated_node(self):
        doc = osm_xml(
            [(1, 0.0, 0.0), (2, 0.001, 0.0), (7, 0.5, 0.5)],
            [(10, [1, 2], {"highway": "residential"}), (11, [7, 1], {"highway": "path"})],
        )
        g = parse_osm(doc)
        # node 3 of a oneway that ends there has no outgoing edges
        g2 = parse_osm(chain_xml(n=3, oneway=True))
        assert next_nodes(g2, 3, 90.0, 2) == []
        assert next_nodes(g, 7, 0.0, 1) == [1]

    def test_heading_picks_the_seed_direction(self):
        g = parse_osm(chain_xml(n=5))
        # From the middle, heading west walks the chain backwards.
        assert next_nodes(g, 3, 270.0, 2) == [2, 1]
        assert next_nodes(g, 3, 90.0, 2) == [4, 5]

    def test_unknown_node(self):
        g = parse_osm(chain_xml(n=3))
        with pytest.raises(UnknownNode):
            next_nodes(g, 99, 0.0, 1)

    def test_matches_oracle_on_random_graphs(self):
        rng = random.Random(31)
        for trial in range(10):
            g = parse_osm(random_osm(rng, n_ways=12))
            node_ids = list(g.nodes)
            for _ in range(20):
                start = rng.choice(node_ids)
                heading = rng.uniform(0, 360)
                k = rng.randint(1, 8)
                assert next_nodes(g, start, heading, k) == oracles.walk_next_nodes(g, start, heading, k)


class TestMapMatch:
    def test_point_beside_only_way(self):
        g = parse_osm(chain_xml(n=3, spacing_m=100.0))
        lat, lon = offset_point(150.0, 5.0)  # 5 m north of mid-segment
        m = map_match(g, lat, lon)
        assert m is not None
        assert m.way_id == 1
        assert m.segment_index == 1
        assert m.distance_m == pytest.approx(5.0, abs=0.01)
        oracle = oracles.match_point(g, lat, lon)
        assert (m.way_id, m.segment_index, m.distance_m) == oracle

    def test_far_point_unmatched(self):
        g = parse_osm(chain_xml(n=3))
        lat, lon = offset_point(0.0, 500.0)
        assert map_match(g, lat, lon) is None

    def test_equidistant_tie_breaks_to_lower_way_id(self):
        lat_n, lon_a = offset_point(-50.0, 20.0)
        _, lon_b = offset_point(50.0, 20.0)
        lat_s, _ = offset_point(-50.0, -20.0)
        doc = osm_xml(
            [
                (1, lat_s, lon_a), (2, lat_s, lon_b),
                (3, lat_n, lon_a), (4, lat_n, lon_b),
            ],
            [
                (7, [3, 4], {"highway": "residential"}),
                (3, [1, 2], {"highway": "residential"}),
            ],
        )
        g = parse_osm(doc)
        m = map_match(g, BASE_LAT, BASE_LON)
        assert m.way_id == 3

    def test_matches_exhaustive_oracle_on_random_graphs(self):
        rng = random.Random(77)
        for trial in range(8):
            g = parse_osm(random_osm(rng, n_ways=15))
            for _ in range(40):
                lat, lon = offset_point(rng.uniform(-4500, 4500), rng.uniform(-4500, 4500))
                got = map_match(g, lat, lon)
                expected = oracles.match_point(g, lat, lon)
                if expected is None:
                    assert got is None
                else:
                    assert (got.way_id, got.segment_index, got.distance_m) == expected

    def test_across_the_antimeridian(self):
        # The nodes' inflated box spans lon [-179.9909, 179.9909] and does
        # not wrap: both points, 11 m from the way, lie outside it, so the
        # match box takes every longitude instead.
        graph = RoadGraph(nodes={1: RoadNode(1, 0.0, 179.99), 2: RoadNode(2, 0.0, -179.99)},
                          ways={5: RoadWay(5, [1, 2])})
        rebuild_adjacency(graph)
        for lon in (179.999, -179.999):
            m = map_match(graph, 0.0001, lon)
            assert as_tuple(m) == oracles.match_point(graph, 0.0001, lon)
            assert m.way_id == 5 and m.distance_m == pytest.approx(11.12, abs=0.01)

    @pytest.mark.parametrize("origin", [(0.0, 179.9995), (65.0, -179.999)])
    def test_matches_exhaustive_oracle_across_the_antimeridian(self, origin):
        # Points within 80 m of a segment, on either side of the line.
        rng = random.Random(78)
        for trial in range(8):
            g = parse_osm(random_osm(rng, n_ways=15, spread_m=1500.0, origin=origin))
            for _ in range(40):
                way_id = rng.choice(sorted(g.ways))
                index = rng.randrange(len(g.ways[way_id].node_refs) - 1)
                lat, lon = beside_segment(g, way_id, index, rng.random(),
                                          rng.uniform(-80, 80), rng.uniform(-80, 80))
                assert as_tuple(map_match(g, lat, lon)) == oracles.match_point(g, lat, lon)


def match_box(graph, way_id):
    """A way's bounding box, from its nodes, inflated by MATCH_INFLATE_M.
    Boxes do not wrap, so one that reaches past +-180 degrees or spans
    more than 180 degrees of longitude keeps only its latitude band."""
    way = graph.ways[way_id]
    lats = [graph.nodes[n].lat for n in way.node_refs]
    lons = [graph.nodes[n].lon for n in way.node_refs]
    box = GeoBox(min(lats), min(lons), max(lats), max(lons)).inflate_m(MATCH_INFLATE_M)
    if box.min_lon < -180.0 or box.max_lon > 180.0 or box.max_lon - box.min_lon > 180.0:
        return GeoBox(box.min_lat, -math.inf, box.max_lat, math.inf)
    return box


def full_scan_match(graph, lat, lon, threshold_m=MATCH_THRESHOLD_M):
    """map_match without the way-cell index: the inflated box of every
    way is tested. Returns (way id, segment index, distance)."""
    candidates = []
    for way_id, way in graph.ways.items():
        if not match_box(graph, way_id).contains(lat, lon):
            continue
        for i, (a, b) in enumerate(zip(way.node_refs, way.node_refs[1:])):
            na, nb = graph.nodes[a], graph.nodes[b]
            ea = wgs84_to_enu(lat, lon, na.lat, na.lon, max_range_m=math.inf)
            eb = wgs84_to_enu(lat, lon, nb.lat, nb.lon, max_range_m=math.inf)
            proj = project_to_segment(EnuPoint(0.0, 0.0), ea, eb)
            if proj.distance_m <= threshold_m:
                candidates.append((proj.distance_m, way_id, i))
    if not candidates:
        return None
    dmin = min(d for d, _, _ in candidates)
    return min(((w, i, d) for d, w, i in candidates if d <= dmin + 1e-9), key=lambda t: (t[0], t[1]))


def as_tuple(m):
    return None if m is None else (m.way_id, m.segment_index, m.distance_m)


# The equator, mid latitudes, 80 N, and both sides of the antimeridian.
ORIGINS = [(0.0, 0.0), (BASE_LAT, BASE_LON), (80.0, 15.0), (-33.9, 151.2),
           (0.0, 179.9995), (65.0, -179.999)]


@st.composite
def maps_and_points(draw):
    lat0, lon0 = draw(st.sampled_from(ORIGINS))
    nodes, ways = {}, {}
    for way_id in range(1, draw(st.integers(1, 6)) + 1):
        # Spans up to 20 km give ways over many cells, and near the pole
        # or the antimeridian ways too wide for the cells.
        span = draw(st.sampled_from([150.0, 3000.0, 20000.0]))
        offsets = draw(st.lists(st.tuples(st.floats(-span, span), st.floats(-span, span)),
                                min_size=2, max_size=5))
        refs = []
        for east, north in offsets:
            lat, lon, _ = enu_to_wgs84(lat0, lon0, east, north, max_range_m=math.inf)
            nodes[len(nodes) + 1] = RoadNode(len(nodes) + 1, lat, lon)
            refs.append(len(nodes))
        ways[way_id] = RoadWay(way_id, refs)
    if draw(st.booleans()):
        # A copy of a way under a lower id: every distance to it ties.
        ways[0] = RoadWay(0, list(ways[draw(st.sampled_from(sorted(ways)))].node_refs))
    graph = RoadGraph(nodes=nodes, ways=ways)
    rebuild_adjacency(graph)

    near_node = st.builds(
        lambda n, east, north: enu_to_wgs84(n.lat, n.lon, east, north, max_range_m=math.inf)[:2],
        st.sampled_from(list(nodes.values())), st.floats(-150.0, 150.0), st.floats(-150.0, 150.0))
    off_map = st.builds(
        lambda east, north: enu_to_wgs84(lat0, lon0, east, north, max_range_m=math.inf)[:2],
        st.floats(-40000.0, 40000.0), st.floats(-40000.0, 40000.0))
    def inflated_corner(way_id, upper):
        # On the edge of the prefilter: way_bbox is the inflated box. A box
        # with every longitude has its edge at any longitude of the way.
        box = graph.way_bbox(way_id)
        lat, lon = (box.max_lat, box.max_lon) if upper else (box.min_lat, box.min_lon)
        return lat, lon if math.isfinite(lon) else graph.nodes[ways[way_id].node_refs[0]].lon

    corner = st.builds(inflated_corner, st.sampled_from(sorted(ways)), st.booleans())
    on_cell_edge = near_node.map(lambda p: (math.floor(p[0] / CELL_DEG) * CELL_DEG,
                                            math.floor(p[1] / CELL_DEG) * CELL_DEG))
    points = draw(st.lists(st.one_of(near_node, off_map, corner, on_cell_edge), min_size=1, max_size=12))
    threshold = draw(st.one_of(st.just(MATCH_THRESHOLD_M), st.floats(0.0, 300.0)))
    return graph, points, threshold


def threshold_edge(a, b, east=1.0, north=1.0):
    """A case for test_indexed_match_equals_full_scan: a way from a to b
    ((lat, lon) pairs), and positions MATCH_THRESHOLD_M meters from b
    along east, along north and diagonally, with the signs given. b is
    the corner of the segment's node box that faces them, so b is the
    way's point nearest each. The threshold is the first position's
    distance as the full scan measures it: that position lies on the
    edge of the pre-test box, and the others within rounding of it."""
    graph = RoadGraph(nodes={1: RoadNode(1, *a), 2: RoadNode(2, *b)}, ways={1: RoadWay(1, [1, 2])})
    rebuild_adjacency(graph)
    d = MATCH_THRESHOLD_M / math.sqrt(2.0)
    points = [enu_to_wgs84(*b, east * e, north * n, max_range_m=math.inf)[:2]
              for e, n in ((MATCH_THRESHOLD_M, 0.0), (0.0, MATCH_THRESHOLD_M), (d, d))]
    return graph, points, full_scan_match(graph, *points[0], math.inf)[2]


class TestWayCellIndex:
    @settings(max_examples=300, deadline=None)
    @given(maps_and_points())
    # On the edge of the segment pre-test: at mid latitudes and at 80 N
    # (where a margin without rounding slack drops the segment), on finite
    # match boxes on either side of the antimeridian, and on ways by the
    # antimeridian whose match boxes take every longitude, from either
    # side with positions across it.
    @example(threshold_edge((47.6, -122.3), (47.600736, -122.29678)))
    @example(threshold_edge((80.0, 15.0), (80.000665, 15.001752)))
    @example(threshold_edge((0.0009, 179.98), (0.0, 179.99), north=-1.0))
    @example(threshold_edge((0.0009, -179.98), (0.0, -179.99), east=-1.0, north=-1.0))
    @example(threshold_edge((0.0009, 179.999), (0.0, 179.9999), north=-1.0))
    @example(threshold_edge((0.0009, -179.999), (0.0, -179.9999), east=-1.0, north=-1.0))
    def test_indexed_match_equals_full_scan(self, case):
        graph, points, threshold = case
        assert all(graph.way_bbox(w) == match_box(graph, w) for w in graph.ways)
        for lat, lon in points:
            assert as_tuple(map_match(graph, lat, lon, threshold_m=threshold)) == \
                full_scan_match(graph, lat, lon, threshold)

    def test_nan_coordinates_match_as_the_full_scan_does(self):
        # parse_osm reads lat="nan", which gives way 10 a NaN box: no
        # cell lists that way, and no cell holds a NaN position.
        doc = osm_xml([(1, 0.0, 0.0), (2, float("nan"), 0.0), (3, 0.0, 0.0005), (4, 0.001, 0.0005)],
                      [(10, [2, 1], {"highway": "residential"}), (11, [3, 4], {"highway": "residential"})])
        graph = parse_osm(doc)
        for lat, lon in ((0.0005, 0.0005), (0.0, 0.0), (float("nan"), 0.0005)):
            assert as_tuple(map_match(graph, lat, lon)) == full_scan_match(graph, lat, lon)

    def test_nan_negative_and_infinite_thresholds_match_as_the_full_scan_does(self):
        graph = grid_graph(blocks=4, spacing_m=150.0, segs_per_way=4)
        points = [offset_point(5.0, 3.0), offset_point(-70.0, 40.0), offset_point(160.0, 230.0)]
        for threshold in (math.nan, -1.0, -math.inf, math.inf, 1e308):
            for lat, lon in points:
                assert as_tuple(map_match(graph, lat, lon, threshold_m=threshold)) == \
                    full_scan_match(graph, lat, lon, threshold)

    def test_equals_full_scan_on_a_1056_segment_grid(self):
        graph = grid_graph(blocks=12, spacing_m=150.0, segs_per_way=4)
        rng = random.Random(11)
        for _ in range(500):
            lat, lon = offset_point(rng.uniform(-1100, 1100), rng.uniform(-1100, 1100))
            assert as_tuple(map_match(graph, lat, lon)) == full_scan_match(graph, lat, lon)

    def test_a_long_way_is_projected_only_inside_its_box(self, monkeypatch):
        # A 17 km diagonal way at 47.6 N: its box spans more than 4,096
        # cells, so every position lists it, but only those inside its
        # box project its nodes.
        nodes = {1: RoadNode(1, *offset_point(0.0, 0.0)), 2: RoadNode(2, *offset_point(12000.0, 12000.0))}
        graph = RoadGraph(nodes=nodes, ways={7: RoadWay(7, [1, 2])})
        rebuild_adjacency(graph)
        box = graph.way_bbox(7)
        cells = [math.floor(box.max_lat / CELL_DEG) - math.floor(box.min_lat / CELL_DEG) + 1,
                 math.floor(box.max_lon / CELL_DEG) - math.floor(box.min_lon / CELL_DEG) + 1]
        assert cells[0] * cells[1] > 4096
        projected = []
        enu_offset = roadnet.enu_offset
        monkeypatch.setattr(roadnet, "enu_offset", lambda *a: projected.append(1) or enu_offset(*a))
        assert map_match(graph, *offset_point(20000.0, 0.0)) is None and projected == []
        m = map_match(graph, *offset_point(6000.0, 6010.0))
        assert (m.way_id, m.segment_index) == (7, 0) and len(projected) == 2

    def test_only_segments_near_the_point_are_projected(self, monkeypatch):
        # 5 m north of the middle node of a straight 200-segment way.
        graph = parse_osm(chain_xml(n=201, spacing_m=100.0))
        lat, lon = offset_point(10000.0, 5.0)
        projected = []
        project = roadnet.project_to_segment
        monkeypatch.setattr(roadnet, "project_to_segment", lambda *a: projected.append(1) or project(*a))
        m = map_match(graph, lat, lon)
        assert len(projected) <= 2
        assert as_tuple(m) == full_scan_match(graph, lat, lon)
        assert m.segment_index in (99, 100) and m.distance_m == pytest.approx(5.0, abs=0.01)

    def test_ways_tested_per_match_do_not_grow_with_the_map(self, monkeypatch):
        tested = []
        way_bbox = RoadGraph.way_bbox
        monkeypatch.setattr(RoadGraph, "way_bbox", lambda g, w: tested.append(w) or way_bbox(g, w))
        counts, matches = [], []
        for blocks, n_ways in ((4, 24), (36, 2520)):
            graph = grid_graph(blocks, spacing_m=400.0)
            assert len(graph.ways) == n_ways
            tested.clear()
            # 5 m north of the middle of the block edge north of the centre.
            matches.append(as_tuple(map_match(graph, *offset_point(0.0, 205.0))))
            counts.append(len(tested))
        assert counts[0] == counts[1] <= 30
        assert matches[0] is not None and matches[0][1:] == matches[1][1:]

