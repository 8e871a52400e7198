"""Shared fixtures and generators for the test suite."""

import math
import random

import pytest

from ldm.geo import enu_to_wgs84, wgs84_to_enu
from ldm.roadnet import RoadGraph, RoadNode, RoadWay, rebuild_adjacency

BASE_LAT = 47.6000
BASE_LON = -122.3000


def offset_point(east_m, north_m, lat=BASE_LAT, lon=BASE_LON):
    """WGS84 position east_m/north_m meters from the reference point."""
    rlat, rlon, _ = enu_to_wgs84(lat, lon, east_m, north_m, max_range_m=math.inf)
    return rlat, rlon


def beside_segment(graph, way_id, index, t, east_m, north_m):
    """The point a fraction t along segment `index` of the way, moved
    east_m/north_m meters, all in the ENU frame of the segment's first
    node (so it works across the antimeridian)."""
    refs = graph.ways[way_id].node_refs
    a, b = graph.nodes[refs[index]], graph.nodes[refs[index + 1]]
    ab = wgs84_to_enu(a.lat, a.lon, b.lat, b.lon, max_range_m=math.inf)
    return enu_to_wgs84(a.lat, a.lon, t * ab.east + east_m, t * ab.north + north_m, max_range_m=math.inf)[:2]


def osm_xml(nodes, ways):
    """Minimal OSM document. nodes: [(id, lat, lon)], ways: [(id, refs, tags)]."""
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6">']
    for nid, lat, lon in nodes:
        parts.append(f'  <node id="{nid}" lat="{lat!r}" lon="{lon!r}"/>')
    for wid, refs, tags in ways:
        parts.append(f'  <way id="{wid}">')
        for ref in refs:
            parts.append(f'    <nd ref="{ref}"/>')
        for k, v in tags.items():
            parts.append(f'    <tag k="{k}" v="{v}"/>')
        parts.append("  </way>")
    parts.append("</osm>")
    return "\n".join(parts).encode("utf-8")


def chain_xml(n=5, spacing_m=100.0, way_id=1, oneway=False):
    """A straight west-to-east chain of n nodes, spacing_m apart."""
    nodes = []
    for i in range(n):
        lat, lon = offset_point(i * spacing_m, 0.0)
        nodes.append((i + 1, lat, lon))
    tags = {"highway": "residential"}
    if oneway:
        tags["oneway"] = "yes"
    return osm_xml(nodes, [(way_id, [i + 1 for i in range(n)], tags)])


def grid_graph(blocks, spacing_m, segs_per_way=1):
    """A square street grid centred on the base point: one way per block
    edge, split into segs_per_way segments."""
    half = (blocks - 1) * spacing_m / 2.0
    nodes, ways = {}, {}

    def node(east, north):
        nodes[len(nodes)] = RoadNode(len(nodes), *offset_point(east, north))
        return len(nodes) - 1

    corner = {(i, j): node(-half + j * spacing_m, -half + i * spacing_m)
              for i in range(blocks) for j in range(blocks)}
    for (i, j), a in corner.items():
        for di, dj in ((0, 1), (1, 0)):
            b = corner.get((i + di, j + dj))
            if b is None:
                continue
            x0, y0 = -half + j * spacing_m, -half + i * spacing_m
            inner = [node(x0 + dj * spacing_m * k / segs_per_way, y0 + di * spacing_m * k / segs_per_way)
                     for k in range(1, segs_per_way)]
            ways[len(ways)] = RoadWay(len(ways), [a, *inner, b])
    graph = RoadGraph(nodes=nodes, ways=ways)
    rebuild_adjacency(graph)
    return graph


def random_osm(rng: random.Random, n_ways=20, max_nodes_per_way=6, spread_m=4000.0,
               origin=(BASE_LAT, BASE_LON)):
    """Random synthetic road network around origin (the base point by
    default)."""
    nodes = []
    ways = []
    nid = 1
    for w in range(n_ways):
        way_len = rng.randint(2, max_nodes_per_way)
        cx = rng.uniform(-spread_m, spread_m)
        cy = rng.uniform(-spread_m, spread_m)
        refs = []
        heading = rng.uniform(0, 2 * math.pi)
        for s in range(way_len):
            step = rng.uniform(40.0, 250.0)
            cx += step * math.sin(heading)
            cy += step * math.cos(heading)
            heading += rng.uniform(-0.6, 0.6)
            lat, lon = offset_point(cx, cy, *origin)
            nodes.append((nid, lat, lon))
            refs.append(nid)
            nid += 1
        tags = {"highway": rng.choice(["residential", "primary", "secondary"])}
        if rng.random() < 0.25:
            tags["oneway"] = "yes"
        ways.append((100 + w, refs, tags))
    return osm_xml(nodes, ways)


def random_scene(rng: random.Random, max_objects=50, max_frames=200, base_ts=1_700_000_000_000_000):
    """A random scene document dict: objects with static attrs and a
    random subset of positioned frames."""
    n_objects = rng.randint(1, max_objects)
    n_frames = rng.randint(1, max_frames)
    objects = {}
    for uid in range(n_objects):
        objects[str(uid)] = {
            "name": f"obj-{uid}",
            "type": rng.choice(["vehicle.car", "vehicle.truck", "pedestrian", "cyclist"]),
            "layer": "L4",
            "static": {
                "width_m": round(rng.uniform(0.4, 2.6), 3),
                "tag": f"t{rng.randint(0, 9)}",
                "extent": [round(rng.uniform(0, 5), 3) for _ in range(3)],
            },
        }
    # every object appears in at least one frame: an interval export
    # only carries elements with frames in the interval
    appearances = {uid: {rng.randrange(n_frames)} for uid in range(n_objects)}
    for uid in range(n_objects):
        appearances[uid].update(i for i in range(n_frames) if rng.random() < 0.5)
    frames = {}
    for i in range(n_frames):
        ts = base_ts + i * 100_000 + rng.randint(0, 99)
        body = {"timestamp": ts, "objects": {}}
        for uid in range(n_objects):
            if i not in appearances[uid]:
                continue
            east = rng.uniform(-2000.0, 2000.0)
            north = rng.uniform(-2000.0, 2000.0)
            lat, lon = offset_point(east, north)
            entry = {
                "pose": {
                    "lat": lat,
                    "lon": lon,
                    "alt": round(rng.uniform(0, 50), 2),
                    "heading": round(rng.uniform(0, 359.9), 2),
                    "speed": round(rng.uniform(0, 30), 3),
                },
                "data": {"quality": rng.randint(0, 100)},
            }
            body["objects"][str(uid)] = entry
        if body["objects"]:
            frames[str(i)] = body
    doc = {"openlabel": {
        "metadata": {"schema_version": "ldm-scene/1.0"},
        "objects": objects,
        "frames": frames,
    }}
    return doc


def random_cpm(rng: random.Random, max_offset_m=10_000.0, n_objects=None, station_id=None,
               base_ts=1_700_000_000_000_000):
    n = n_objects if n_objects is not None else rng.randint(0, 15)
    return {
        "station_id": station_id if station_id is not None else rng.randint(0, 500),
        "generation_time": base_ts + rng.randint(0, 10_000_000),
        "reference_position": {
            "lat": round(rng.uniform(-70.0, 70.0), 6),
            "lon": round(rng.uniform(-179.0, 179.0), 6),
            "alt": round(rng.uniform(0, 100), 1),
            "heading": round(rng.uniform(0, 359.9), 1),
            "speed": round(rng.uniform(0, 40), 2),
        },
        "perceived_objects": [
            {
                "object_id": i,
                "x_distance": rng.randint(-int(max_offset_m * 100 / 1.5), int(max_offset_m * 100 / 1.5)),
                "y_distance": rng.randint(-int(max_offset_m * 100 / 1.5), int(max_offset_m * 100 / 1.5)),
                "x_speed": rng.randint(-3000, 3000),
                "y_speed": rng.randint(-3000, 3000),
                # class stays stable per (station, object id) so repeated
                # messages from one station keep fusing into one element
                "object_class": ["unknown", "pedestrian", "cyclist", "vehicle"][i % 4],
                "confidence": rng.randint(0, 100),
            }
            for i in range(n)
        ],
    }


@pytest.fixture
def rng():
    return random.Random(1234)
