"""Acceptance suite: one test per release criterion, each printing a
PASS line with its measured numbers (run with -s to see them).

The real-time criterion replays a paced 60-second feed, so the module
takes a bit over a minute end to end.
"""

import hashlib
import io
import json
import math
import random
import socket
import string
import time

import pytest

import oracles
from conftest import offset_point, osm_xml, random_cpm, random_osm, random_scene
from ldm.api import LocalDynamicMap
from ldm.errors import Unmatched
from ldm.geo import bearing_deg, enu_to_wgs84, haversine_m, wgs84_to_enu
from ldm.ingest import cpm_to_openlabel, parse_cpm, parse_openlabel
from ldm.model import ElementKind, FrameRecord, LdmLayer, Relation, SceneElement
from ldm.roadnet import map_match, parse_osm
from ldm.feed import replay, serve
from ldm.store import LdmConfig, LdmStore

T0 = 1_700_000_000_000_000
US = 1_000_000


def report(num, label, detail=""):
    print(f"ACCEPTANCE {num} ({label}): PASS {detail}".rstrip())


# ---------------------------------------------------------------------------


def test_c1_round_trip_fidelity(tmp_path):
    """100 random scenes survive commit -> export -> parse unchanged."""
    rng = random.Random(101)
    started = time.monotonic()
    scenes = 0
    records = 0
    for i in range(100):
        original = random_scene(rng, max_objects=50, max_frames=200, base_ts=T0)
        src = parse_openlabel(original)
        ldm = LocalDynamicMap()
        ldm.add_objects(original)
        sink = io.StringIO()
        ldm.export(T0, T0 + 10**12, sink)
        back = parse_openlabel(sink.getvalue())

        by_key = {(e.name, e.semantic_type): e for e in back.objects.values()}

        for pe in src.objects.values():
            key = (pe.name, pe.semantic_type)
            assert key in by_key, f"scene {i}: object {key} lost"
            assert by_key[key].static_attributes == pe.static_attributes
            for ts, data in pe.frames.items():
                got = by_key[key].frames.get(ts)
                assert got is not None, f"scene {i}: frame ts {ts} lost"
                assert abs(got.pose.lat - data.pose.lat) <= 1e-9
                assert abs(got.pose.lon - data.pose.lon) <= 1e-9
                assert got.dynamic_attributes == data.dynamic_attributes
                records += 1
        scenes += 1
    elapsed = time.monotonic() - started
    assert elapsed <= 30.0, f"round-trip of 100 scenes took {elapsed:.1f} s (budget 30 s)"
    report(1, "round-trip fidelity", f"[{scenes} scenes, {records} records, {elapsed:.1f} s]")


def test_c2_cpm_conversion_correctness():
    """1000 random messages: <1 cm vs the high-precision oracle."""
    rng = random.Random(202)
    worst = 0.0
    checked = 0
    for _ in range(1000):
        msg = parse_cpm(random_cpm(rng))
        payload = cpm_to_openlabel(msg)
        assert len(payload.objects) == len(msg.perceived_objects) + 1
        ref = msg.reference_position
        for i, obj in enumerate(msg.perceived_objects):
            pose = payload.objects[i + 1].frames[msg.generation_time].pose
            exp_lat, exp_lon = oracles.hp_local_to_wgs84(
                ref.lat, ref.lon, obj.x_distance / 100.0, obj.y_distance / 100.0
            )
            err = oracles.hp_haversine_m(pose.lat, pose.lon, float(exp_lat), float(exp_lon))
            worst = max(worst, err)
            assert err < 0.01, f"conversion error {err:.4f} m"
            checked += 1
    report(2, "CPM conversion", f"[{checked} objects, worst error {worst:.2e} m]")


# ---------------------------------------------------------------------------


def _graph_scene(rng, n_ways, n_objects, spread_m=4000.0):
    """A road graph plus a scene of tracked objects hugging the ways."""
    graph = parse_osm(random_osm(rng, n_ways=n_ways, spread_m=spread_m))
    way_ids = list(graph.ways)

    def random_point_near_way(max_off=30.0):
        way = graph.ways[rng.choice(way_ids)]
        seg = rng.randrange(len(way.node_refs) - 1)
        a = graph.nodes[way.node_refs[seg]]
        b = graph.nodes[way.node_refs[seg + 1]]
        t = rng.uniform(0.1, 0.9)
        lat = a.lat + t * (b.lat - a.lat)
        lon = a.lon + t * (b.lon - a.lon)
        east = rng.uniform(-max_off, max_off)
        north = rng.uniform(-max_off, max_off)
        plat, plon, _ = enu_to_wgs84(lat, lon, east, north, max_range_m=math.inf)
        seg_bearing = bearing_deg(a.lat, a.lon, b.lat, b.lon)
        return plat, plon, seg_bearing

    scene = {"openlabel": {"metadata": {}, "objects": {}, "frames": {}}}
    root = scene["openlabel"]
    n_frames = rng.randint(2, 5)
    for f in range(n_frames):
        root["frames"][str(f)] = {"timestamp": T0 + f * 100_000, "objects": {}}
    for uid in range(n_objects):
        root["objects"][str(uid)] = {"name": f"obj-{uid}", "type": "vehicle.car"}
        for f in range(n_frames):
            if uid > 0 and rng.random() < 0.3:
                continue
            if rng.random() < 0.7:
                lat, lon, seg_bearing = random_point_near_way()
                heading = (seg_bearing + (180.0 if rng.random() < 0.5 else 0.0)
                           + rng.uniform(-30, 30)) % 360
            else:
                lat, lon = offset_point(rng.uniform(-6000, 6000), rng.uniform(-6000, 6000))
                heading = rng.uniform(0, 360)
            entry = {"pose": {"lat": lat, "lon": lon, "heading": round(heading, 3)}}
            if rng.random() < 0.5:
                entry["pose"]["speed"] = round(rng.uniform(0, 3.0), 3)
            root["frames"][str(f)]["objects"][str(uid)] = entry
    return graph, scene


def test_c3_query_oracle_equivalence():
    """Every geo query equals its brute-force oracle, set and order."""
    rng = random.Random(303)
    totals = {"within": 0, "same_way": 0, "stationary": 0, "near_node": 0,
              "next_nodes": 0, "match": 0}
    segments_max = 0
    for scene_no in range(50):
        if scene_no == 0:
            # one scene at the scale bound: just short of 10^4 segments
            graph, scene = _graph_scene(random.Random(999), n_ways=3200,
                                        n_objects=25, spread_m=9000.0)
            assert graph.segment_count() > 9_000
        else:
            graph, scene = _graph_scene(rng, n_ways=rng.randint(4, 30),
                                        n_objects=rng.randint(5, 30))
        segments_max = max(segments_max, graph.segment_count())
        ldm = LocalDynamicMap()
        ldm.load_map(graph)
        ldm.add_objects(scene)
        at = T0 + rng.randint(0, 5) * 100_000
        objects = [e for e in ldm.store.elements() if e.kind is ElementKind.Object]
        ego = objects[0].id

        ego_rec = ldm.store.latest_frame(ego, at)
        if ego_rec is not None and ego_rec.pose is not None:
            for radius in (100.0, 1500.0):
                got = [(r.element_id, r.distance_to_ego) for r in ldm.objects_within(ego, radius, at)]
                assert got == oracles.objects_within(ldm.store, ego, radius, at)
                totals["within"] += 1

            got_rows = ldm.objects_on_same_way(ego, at)
            assert [r.element_id for r in got_rows] == \
                oracles.objects_on_same_way(ldm.store, graph, ego, at)
            totals["same_way"] += 1

            expected_next = oracles.next_road_nodes(
                graph, ego_rec.pose.lat, ego_rec.pose.lon, ego_rec.pose.heading, 5)
            if expected_next is None:
                with pytest.raises(Unmatched):
                    ldm.next_road_nodes(ego, 5, at)
            else:
                assert ldm.next_road_nodes(ego, 5, at) == expected_next
            totals["next_nodes"] += 1

        got = [r.element_id for r in ldm.stationary_objects(at, 3.0, 0.5)]
        assert got == oracles.stationary_objects(ldm.store, at, 3.0, 0.5)
        totals["stationary"] += 1

        node_id = rng.choice(list(graph.nodes))
        got = [(r.element_id, r.distance_to_node)
               for r in ldm.objects_near_node(node_id, 500.0, at)]
        assert got == oracles.objects_near_node(ldm.store, graph, node_id, 500.0, at)
        totals["near_node"] += 1

        for _ in range(10):
            lat, lon = offset_point(rng.uniform(-5000, 5000), rng.uniform(-5000, 5000))
            got_m = map_match(graph, lat, lon)
            exp = oracles.match_point(graph, lat, lon)
            if exp is None:
                assert got_m is None
            else:
                assert (got_m.way_id, got_m.segment_index, got_m.distance_m) == exp
            totals["match"] += 1
    assert segments_max <= 10_000
    report(3, "query/oracle equivalence",
           f"[{sum(totals.values())} checks, largest graph {segments_max} segments]")


def test_c4_eviction_semantics():
    """Randomized insert/advance/evict: TTLs respected, L1 untouched,
    no dangling relations, idempotent eviction."""
    rng = random.Random(404)
    ttls = {
        LdmLayer.L1_Static: math.inf,
        LdmLayer.L2_QuasiStatic: 900.0,
        LdmLayer.L3_Transient: 120.0,
        LdmLayer.L4_Dynamic: 25.0,
    }
    store = LdmStore(LdmConfig(ttl_per_layer=dict(ttls), eviction_period=10.0))
    layers = list(ttls)
    ids = []
    for i in range(16):
        layer = layers[i % 4]
        ids.append(store.upsert_element(SceneElement(
            0, ElementKind.Object, f"e-{i}", "thing", layer)))
    l1_ids = {eid for eid in ids if store.get_element(eid).layer is LdmLayer.L1_Static}
    last_ts = {eid: -1 for eid in ids}
    now = 0
    steps = 0
    evictions = 0
    for _ in range(10_000):
        steps += 1
        roll = rng.random()
        live = {e.id for e in store.elements()}
        if roll < 0.62:
            eid = rng.choice(ids)
            if eid in live:
                ts = max(last_ts[eid] + 1, now - rng.randint(0, 3) * US)
                last_ts[eid] = ts
                store.insert_frame(FrameRecord(ts, eid))
        elif roll < 0.8:
            if len(live) >= 2:
                a, b = rng.sample(sorted(live), 2)
                store.add_relation(Relation(a, "near", b))
        else:
            now += rng.randint(1, 60) * US
            store.evict_expired(now)
            evictions += 1
            assert store.evict_expired(now) == 0, "evict not idempotent"
            live_after = {e.id for e in store.elements()}
            assert l1_ids <= live_after, "a permanent-layer element vanished"
            for e in store.elements():
                ttl = ttls[e.layer] * 1e6
                for f in store.query_frames(e.id, 0, 1 << 62):
                    if math.isfinite(ttl):
                        assert now - f.timestamp <= ttl, "stale frame survived eviction"
            for rel in store.relations():
                assert rel.subject in live_after and rel.object in live_after, "dangling relation"
    report(4, "eviction semantics", f"[{steps} steps, {evictions} evictions]")


def test_c5_geodesy():
    """Metric properties, ENU round-trip, and cross-path agreement."""
    rng = random.Random(505)

    def rand_point():
        return rng.uniform(-90.0, 90.0), rng.uniform(-180.0, 179.999)

    for _ in range(10_000):
        a, b, c = rand_point(), rand_point(), rand_point()
        ab = haversine_m(a[0], a[1], b[0], b[1])
        ba = haversine_m(b[0], b[1], a[0], a[1])
        scale = max(ab, 1.0)
        assert abs(ab - ba) / scale < 1e-6
        ac = haversine_m(a[0], a[1], c[0], c[1])
        bc = haversine_m(b[0], b[1], c[0], c[1])
        assert ac <= ab + bc + 1e-6 * (ab + bc + 1.0)

    worst_rt = 0.0
    for _ in range(5_000):
        olat = rng.uniform(-85.0, 85.0)
        olon = rng.uniform(-180.0, 179.9)
        lat = olat + rng.uniform(-0.25, 0.25)
        lon = (olon + rng.uniform(-0.25, 0.25) + 180.0) % 360.0 - 180.0
        if abs(lat) > 90 or haversine_m(olat, olon, lat, lon) > 49_000:
            continue
        enu = wgs84_to_enu(olat, olon, lat, lon)
        rlat, rlon, _ = enu_to_wgs84(olat, olon, enu.east, enu.north)
        worst_rt = max(worst_rt, abs(rlat - lat), abs(rlon - lon))
        assert abs(rlat - lat) < 1e-9 and abs(rlon - lon) < 1e-9

    for _ in range(5_000):
        olat = rng.uniform(-85.0, 85.0)
        olon = rng.uniform(-179.0, 179.0)
        lat = olat + rng.uniform(-0.008, 0.008)
        lon = olon + rng.uniform(-0.008, 0.008)
        d_hav = haversine_m(olat, olon, lat, lon)
        if not 1.0 < d_hav < 1000.0:
            continue
        enu = wgs84_to_enu(olat, olon, lat, lon)
        assert abs(d_hav - math.hypot(enu.east, enu.north)) / d_hav < 1e-4
    report(5, "geodesy", f"[worst round-trip {worst_rt:.2e} deg]")


def test_c6_real_time_standin():
    """Paced 60 s feed at 100 msg/s x 20 objects: p99 commit < 10 ms,
    then p99 neighborhood query < 5 ms against the 10^5+ frame store."""
    rng = random.Random(606)
    rate_hz = 100
    seconds = 60
    lines = []
    for i in range(rate_hz * seconds):
        ts = T0 + i * (US // rate_hz)
        doc = random_cpm(rng, n_objects=20, station_id=1, base_ts=ts)
        doc["generation_time"] = ts
        doc["reference_position"] = {"lat": 47.6, "lon": -122.3, "heading": 90.0, "speed": 10.0}
        for obj in doc["perceived_objects"]:
            obj["x_distance"] = rng.randint(-200_000, 200_000)  # within 2 km
            obj["y_distance"] = rng.randint(-200_000, 200_000)
        lines.append(json.dumps({"offset_ms": i * 1000 // rate_hz, "type": "cpm", "payload": doc}))

    ldm = LocalDynamicMap(LdmConfig(ttl_per_layer={LdmLayer.L4_Dynamic: math.inf}))
    summary = replay(io.StringIO("\n".join(lines)), 1.0, ldm)
    assert summary.errors == 0
    assert summary.committed == rate_hz * seconds
    p99_commit = summary.latency_ms(0.99)
    stats = ldm.store.stats()
    assert stats.frame_count >= 100_000, f"only {stats.frame_count} frames stored"
    assert p99_commit < 10.0, f"p99 commit latency {p99_commit:.2f} ms"

    station = next(e for e in ldm.store.elements() if e.name == "station-1")
    latest = stats.last_update
    q_lat = []
    rows = None
    for _ in range(300):
        at = latest - rng.randint(0, 50) * US
        t0 = time.perf_counter()
        rows = ldm.objects_within(station.id, 5000.0, at)
        q_lat.append((time.perf_counter() - t0) * 1000.0)
    q_lat.sort()
    p99_query = q_lat[min(len(q_lat) - 1, int(0.99 * len(q_lat)))]
    assert p99_query < 5.0, f"p99 query latency {p99_query:.2f} ms"
    assert rows, "query returned nothing against a populated store"
    report(6, "real-time stand-in",
           f"[{stats.frame_count} frames, p99 commit {p99_commit:.2f} ms, "
           f"p99 query {p99_query:.2f} ms, wall {summary.wall_seconds:.1f} s]")


def _fuzz_lines(rng, count):
    printable = string.printable.replace("\n", "").replace("\r", "")
    lines = []
    for _ in range(count):
        roll = rng.random()
        if roll < 0.3:
            raw = bytes(rng.randrange(1, 256) for _ in range(rng.randrange(1, 80)))
            raw = raw.replace(b"\n", b"*").replace(b"\r", b"*")
            if not raw.strip():
                raw = b"x" + raw
            lines.append(raw)
        elif roll < 0.55:
            lines.append("".join(rng.choice(printable) for _ in range(rng.randrange(1, 120))).encode())
        elif roll < 0.7:
            lines.append(json.dumps({"type": rng.choice(["cpm", "openlabel", "cam", 7]),
                                     "payload": rng.choice([None, 3, [], "x"])}).encode())
        elif roll < 0.9:
            doc = random_cpm(rng, n_objects=1)
            field = rng.choice(["station_id", "generation_time", "reference_position"])
            doc[field] = rng.choice([None, "bad", -99, {}])
            lines.append(json.dumps({"type": "cpm", "payload": doc}).encode())
        else:
            doc = random_cpm(rng, n_objects=2, base_ts=T0)
            lines.append(json.dumps({"type": "cpm", "payload": doc}).encode())
    return lines


def test_c7_robustness():
    """10k fuzzed wire lines: every line answered, nothing crashes, the
    store invariants hold; OSM dangling refs follow the drop policy."""
    rng = random.Random(707)
    ldm = LocalDynamicMap()
    lines = _fuzz_lines(rng, 10_000)
    answered = 0
    with serve("127.0.0.1", 0, ldm) as server:
        sock = socket.create_connection((server.host, server.port), timeout=30)
        reader = sock.makefile("rb")
        chunk = 250
        for i in range(0, len(lines), chunk):
            batch = lines[i:i + chunk]
            sock.sendall(b"\n".join(batch) + b"\n")
            for _ in batch:
                response = json.loads(reader.readline())
                assert response["ok"] in (True, False)
                answered += 1
        reader.close()
        sock.close()
    assert answered == len(lines)

    # Store invariants after the bombardment.
    stats = ldm.store.stats()
    live = {e.id for e in ldm.store.elements()}
    assert all(v >= 0 for v in stats.element_count_per_layer.values())
    for rel in ldm.store.relations():
        assert rel.subject in live and rel.object in live
    recount = 0
    for e in ldm.store.elements():
        frames = ldm.store.query_frames(e.id, 0, 1 << 62)
        recount += len(frames)
        for a, b in zip(frames, frames[1:]):
            assert a.timestamp < b.timestamp
    assert recount == stats.frame_count
    ldm.store.snapshot(stats.last_update)

    # Dangling-ref policy on a crafted OSM corpus.
    doc = osm_xml(
        [(1, 0.0, 0.0), (2, 0.001, 0.0), (3, 0.002, 0.0)],
        [
            (10, [1, 2], {"highway": "residential"}),
            (11, [2, 404], {"highway": "residential"}),
            (12, [404, 405], {"highway": "primary"}),
            (13, [2, 3], {"highway": "service"}),
        ],
    )
    graph = parse_osm(doc)
    assert set(graph.ways) == {10, 13}
    assert len(graph.warnings) == 2
    assert all("404" in w or "405" in w for w in graph.warnings)
    report(7, "robustness", f"[{answered} fuzz lines answered, {stats.frame_count} frames intact]")


def _c8_seeded_map():
    rng = random.Random(808)
    ldm = LocalDynamicMap()
    ldm.load_map(random_osm(rng, n_ways=6))
    ldm.add_objects(random_scene(rng, max_objects=12, max_frames=15, base_ts=T0))
    for _ in range(5):
        ldm.add_objects(cpm_to_openlabel(parse_cpm(random_cpm(rng, base_ts=T0))))
    return ldm


def test_c8_determinism(tmp_path):
    """Identical stores export byte-identical archives; parsing is
    byte-deterministic."""
    exports = []
    for i in range(2):
        ldm = _c8_seeded_map()
        out = tmp_path / f"export-{i}.json"
        ldm.export(T0 - 10**9, T0 + 10**12, out)
        exports.append(out.read_bytes())
    assert exports[0] == exports[1], "identical stores exported different bytes"
    again = tmp_path / "again.json"
    ldm.export(T0 - 10**9, T0 + 10**12, again)
    assert again.read_bytes() == exports[1], "re-export of one store differed"

    doc = random_osm(random.Random(11), n_ways=9)
    g1, g2 = parse_osm(doc), parse_osm(doc)
    assert list(g1.nodes.items()) == list(g2.nodes.items())
    assert list(g1.ways.items()) == list(g2.ways.items())
    assert g1.adjacency == g2.adjacency and g1.warnings == g2.warnings
    report(8, "determinism", f"[export {len(exports[0])} bytes stable]")


# sha256 of the c8 store's export. It moves with any change to the
# document format or to what a commit stores.
C8_EXPORT_SHA256 = "17d0f4ff545b0c513900d52fb6262268cb4e03bc69176e9cd08833bdd1b0543f"


def test_c8_export_digest_is_pinned(tmp_path):
    out = tmp_path / "export.json"
    _c8_seeded_map().export(T0 - 10**9, T0 + 10**12, out)
    assert hashlib.sha256(out.read_bytes()).hexdigest() == C8_EXPORT_SHA256
