"""Seeded input generation for the ldm benchmark.

Everything a workload feeds to the program is built here from the seed
before any timing starts: OSM XML for the road grid, encoded wire
lines (CPM and OpenLABEL envelopes) and the query plan. The same seed
always gives byte-identical inputs.

Geometry uses its own equirectangular offset math, so the inputs do not
change when the program's geodesy code changes.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

BASE_LAT = 47.6
BASE_LON = -122.3
T0 = 1_700_000_000_000_000  # feed clock origin, microseconds
LINE_US = 10_000  # feed clock step per wire line: 100 msg/s
_R = 6_371_000.0

QUERY_KINDS = ("within", "same_way", "stationary", "next_nodes", "near_node")
# The round-robin order of a query plan. objects_on_same_way map-matches
# every tracked object and costs 5-100x any other query; the four others
# run twice per round so that they gather more samples in a run.
QUERY_CYCLE = ("within", "stationary", "next_nodes", "near_node") * 2 + ("same_way",)


def offset_to_wgs84(east_m: float, north_m: float) -> tuple[float, float]:
    lat = BASE_LAT + math.degrees(north_m / _R)
    lon = BASE_LON + math.degrees(east_m / (_R * math.cos(math.radians(BASE_LAT))))
    return round(lat, 8), round(lon, 8)


# ---------------------------------------------------------------------------
# road grid


@dataclass
class RoadGrid:
    """A square street grid: every block edge is one OSM way split into
    `segs_per_way` segments by jittered shape nodes."""

    xml: bytes
    half_m: float
    intersections: list[tuple[int, float, float]]  # (node id, east m, north m)


def road_grid(rng: random.Random, blocks: int, spacing_m: float, segs_per_way: int = 4,
              shift_east_m: float = 0.0) -> RoadGrid:
    half = (blocks - 1) * spacing_m / 2.0
    nodes: list[tuple[int, float, float]] = []
    ways: list[tuple[int, list[int], dict]] = []
    grid_id = {}
    for i in range(blocks):
        for j in range(blocks):
            nid = 1 + i * blocks + j
            grid_id[i, j] = nid
            nodes.append((nid, -half + j * spacing_m + shift_east_m, -half + i * spacing_m))
    intersections = list(nodes)
    next_node = blocks * blocks + 1
    next_way = 1_000_000
    coords = {n[0]: (n[1], n[2]) for n in nodes}
    for i in range(blocks):
        for j in range(blocks):
            for di, dj in ((0, 1), (1, 0)):
                if i + di >= blocks or j + dj >= blocks:
                    continue
                a, b = grid_id[i, j], grid_id[i + di, j + dj]
                (ax, ay), (bx, by) = coords[a], coords[b]
                refs = [a]
                for k in range(1, segs_per_way):
                    f = k / segs_per_way
                    jitter = rng.uniform(-3.0, 3.0)
                    x = ax + (bx - ax) * f + (jitter if di else 0.0)
                    y = ay + (by - ay) * f + (jitter if dj else 0.0)
                    nodes.append((next_node, x, y))
                    refs.append(next_node)
                    next_node += 1
                refs.append(b)
                tags = {"highway": rng.choice(["residential", "secondary", "primary"])}
                if rng.random() < 0.15:
                    tags["oneway"] = "yes"
                ways.append((next_way, refs, tags))
                next_way += 1
    parts = ['<?xml version="1.0" encoding="UTF-8"?>', '<osm version="0.6" generator="perfbench">']
    for nid, x, y in nodes:
        lat, lon = offset_to_wgs84(x, y)
        parts.append(f'  <node id="{nid}" lat="{lat!r}" lon="{lon!r}"/>')
    for wid, refs, tags in ways:
        parts.append(f'  <way id="{wid}">')
        parts.extend(f'    <nd ref="{r}"/>' for r in refs)
        parts.extend(f'    <tag k="{k}" v="{v}"/>' for k, v in tags.items())
        parts.append("  </way>")
    parts.append("</osm>")
    return RoadGrid(xml="\n".join(parts).encode("utf-8"), half_m=half, intersections=intersections)


# ---------------------------------------------------------------------------
# moving objects and wire lines


@dataclass
class Track:
    """An object moving back and forth along one street axis."""

    east: float
    north: float
    axis: tuple[float, float]  # unit vector along the street
    u0: float
    speed: float  # m/s, signed along the axis
    span: float  # position wraps within [-span, span] along the axis
    object_class: str

    def at(self, t_s: float) -> tuple[float, float, float, float]:
        """(east, north, v_east, v_north) at feed time t_s seconds."""
        u = (self.u0 + self.speed * t_s + self.span) % (2 * self.span) - self.span
        return (self.east + u * self.axis[0], self.north + u * self.axis[1],
                self.speed * self.axis[0], self.speed * self.axis[1])


def street_track(rng: random.Random, east: float, north: float, span: float) -> Track:
    axis = rng.choice(((1.0, 0.0), (0.0, 1.0)))
    lateral = rng.uniform(-2.0, 2.0)
    speed = 0.0 if rng.random() < 0.25 else rng.choice((-1, 1)) * rng.uniform(3.0, 15.0)
    return Track(
        east=east + lateral * axis[1],
        north=north + lateral * axis[0],
        axis=axis,
        u0=rng.uniform(-span, span),
        speed=speed,
        span=span,
        object_class=rng.choice(("vehicle", "vehicle", "cyclist", "pedestrian")),
    )


@dataclass
class Station:
    station_id: int
    east: float
    north: float
    tracks: list[Track] = field(default_factory=list)


def encode(msg_type: str, payload: dict) -> bytes:
    return json.dumps({"type": msg_type, "payload": payload}, separators=(",", ":")).encode() + b"\n"


def station_cpm(st: Station, ts: int) -> dict:
    lat, lon = offset_to_wgs84(st.east, st.north)
    t_s = (ts - T0) / 1e6
    objs = []
    for k, tr in enumerate(st.tracks):
        e, n, ve, vn = tr.at(t_s)
        objs.append({
            "object_id": k,
            "x_distance": round((e - st.east) * 100),
            "y_distance": round((n - st.north) * 100),
            "x_speed": round(ve * 100),
            "y_speed": round(vn * 100),
            "object_class": tr.object_class,
            "confidence": 60 + (k * 7) % 40,
        })
    return {
        "station_id": st.station_id,
        "generation_time": ts,
        "reference_position": {"lat": lat, "lon": lon, "alt": 20.0, "heading": 90.0, "speed": 0.0},
        "perceived_objects": objs,
    }


def c6_cpm(rng: random.Random, ts: int) -> dict:
    """The acceptance c6 message shape: one fixed station, 20 objects
    scattered within 2 km."""
    return {
        "station_id": 1,
        "generation_time": ts,
        "reference_position": {"lat": BASE_LAT, "lon": BASE_LON, "heading": 90.0, "speed": 10.0},
        "perceived_objects": [
            {
                "object_id": i,
                "x_distance": rng.randint(-200_000, 200_000),
                "y_distance": rng.randint(-200_000, 200_000),
                "x_speed": rng.randint(-3000, 3000),
                "y_speed": rng.randint(-3000, 3000),
                "object_class": ("unknown", "pedestrian", "cyclist", "vehicle")[i % 4],
                "confidence": rng.randint(0, 100),
            }
            for i in range(20)
        ],
    }


def probe_scene(probe: int, track: Track, detections: list[tuple[float, float]], ts: int) -> dict:
    """An on-board perception payload: one probe vehicle and four
    detected objects, with dynamic attributes and detectedBy relations."""
    t_s = (ts - T0) / 1e6
    e, n, ve, vn = track.at(t_s)
    heading = math.degrees(math.atan2(ve, vn)) % 360.0
    speed = math.hypot(ve, vn)
    objects = {"0": {"name": f"probe-{probe}", "type": "vehicle.car", "layer": "L4",
                     "static": {"fleet": "probe"}}}
    lat, lon = offset_to_wgs84(e, n)
    frame_objects = {"0": {"pose": {"lat": lat, "lon": lon, "alt": 1.5, "heading": round(heading, 3),
                                    "speed": round(speed, 3)},
                           "data": {"lane": 1, "wipers": False}}}
    relations = []
    for j, (de, dn) in enumerate(detections, start=1):
        objects[str(j)] = {"name": f"probe-{probe}-det-{j}", "type": "vehicle.car", "layer": "L4"}
        lat, lon = offset_to_wgs84(e + de, n + dn)
        frame_objects[str(j)] = {"pose": {"lat": lat, "lon": lon, "alt": 1.5, "heading": round(heading, 3),
                                          "speed": round(speed, 3)},
                                 "data": {"occluded": j % 2 == 0, "score": 0.5 + j / 10}}
        relations.append({"subject": j, "predicate": "detectedBy", "object": 0})
    return {"openlabel": {
        "metadata": {"schema_version": "ldm-scene/1.0"},
        "objects": objects,
        "frames": {"0": {"timestamp": ts, "objects": frame_objects}},
        "relations": relations,
    }}


def roadside_scene(rsu: Station, ts: int) -> dict:
    """A roadside unit's perception payload: its tracked objects on the
    transient layer (L3), one frame."""
    t_s = (ts - T0) / 1e6
    objects, frame_objects = {}, {}
    for k, tr in enumerate(rsu.tracks):
        e, n, ve, vn = tr.at(t_s)
        lat, lon = offset_to_wgs84(e, n)
        objects[str(k)] = {"name": f"rsu-{k}", "type": tr.object_class, "layer": "L3"}
        frame_objects[str(k)] = {"pose": {"lat": lat, "lon": lon, "alt": 1.0,
                                          "heading": round(math.degrees(math.atan2(ve, vn)) % 360.0, 3),
                                          "speed": round(math.hypot(ve, vn), 3)}}
    return {"openlabel": {
        "metadata": {"schema_version": "ldm-scene/1.0"},
        "objects": objects,
        "frames": {"0": {"timestamp": ts, "objects": frame_objects}},
    }}


# ---------------------------------------------------------------------------
# workload inputs


@dataclass
class Line:
    data: bytes
    ts: int  # feed clock time of the line
    frames: int  # frame records the line carries


@dataclass
class Query:
    kind: str
    ego: str = ""  # element name, resolved to an id before timing
    node: int = 0
    radius_m: float = 0.0
    window_s: float = 5.0  # stationary lookback


@dataclass
class WorkloadInputs:
    grid: RoadGrid
    config: dict  # ttl_s for L4 (None = infinite), archive (bool)
    prefill: list[Line]
    feed: list[Line]
    queries: list[Query]
    oracle_sample: list[Query]


def _query_plan(rng: random.Random, n: int, egos: list[str], nodes: list[int],
                within_m: float, near_m: float) -> list[Query]:
    out = []
    for i in range(n):
        kind = QUERY_CYCLE[i % len(QUERY_CYCLE)]
        if kind == "near_node":
            out.append(Query(kind, node=rng.choice(nodes), radius_m=near_m))
        elif kind == "stationary":
            out.append(Query(kind))
        else:
            out.append(Query(kind, ego=rng.choice(egos), radius_m=within_m))
    return out


def _cpm_names(st: Station) -> list[str]:
    return [f"station-{st.station_id}"] + [f"cpm-{st.station_id}-{k}" for k in range(len(st.tracks))]


def _stations(rng: random.Random, grid: RoadGrid, count: int, objects: int, span: float) -> list[Station]:
    # Interior intersections only, so every object stays on a street.
    interior = [n for n in grid.intersections
                if abs(n[1]) < grid.half_m - 1 and abs(n[2]) < grid.half_m - 1]
    sites = rng.sample(interior, count)
    stations = []
    for sid, (_, x, y) in enumerate(sites, start=1):
        st = Station(sid, x, y)
        st.tracks = [street_track(rng, x, y, span) for _ in range(objects)]
        stations.append(st)
    return stations


def station_stream(seed: int, n_lines: int, n_queries: int) -> WorkloadInputs:
    """c6 shape: one station, 20 objects, infinite L4 TTL. A 96-segment
    grid around the station gives the three map queries roads to run on;
    it adds 112 elements and 120 relations, against the ~10^4 segments of
    city-feed."""
    rng = random.Random(seed)
    # Shifted so that a north-south street runs through the station.
    grid = road_grid(rng, blocks=4, spacing_m=1300.0, shift_east_m=650.0)
    feed = []
    for i in range(n_lines):
        ts = T0 + i * LINE_US
        feed.append(Line(encode("cpm", c6_cpm(rng, ts)), ts, 21))
    # The station is the only ego: its 20 objects jump at random each
    # message, so whether one of them matches a road is a coin toss.
    egos = ["station-1"]
    nodes = [n[0] for n in grid.intersections]
    return WorkloadInputs(
        grid=grid,
        config={"ttl_s": None, "archive": False},
        prefill=[],
        feed=feed,
        queries=_query_plan(rng, n_queries, egos, nodes, within_m=500.0, near_m=500.0),
        oracle_sample=_query_plan(rng, 10, egos, nodes, within_m=500.0, near_m=500.0),
    )


CITY_STATIONS = 200
CITY_PROBES = 40
CITY_TTL_S = 3.0


def city_feed(seed: int, n_lines: int, n_queries: int) -> WorkloadInputs:
    """A ~10^4-segment district; 200 roadside stations x 20 objects and
    40 probe vehicles; short L4 TTL with archiving eviction."""
    rng = random.Random(seed)
    grid = road_grid(rng, blocks=36, spacing_m=100.0)
    stations = _stations(rng, grid, CITY_STATIONS, 20, span=45.0)
    probes = []
    for p in range(CITY_PROBES):
        _, x, y = rng.choice(grid.intersections)
        track = street_track(rng, x, y, span=45.0)
        track.speed = rng.choice((-1, 1)) * rng.uniform(5.0, 12.0)
        dets = [(rng.uniform(-30, 30), rng.uniform(-30, 30)) for _ in range(4)]
        probes.append((p, track, dets))

    # A roadside unit tracks 10 objects on the transient layer for the
    # 3 s before the feed starts. Reads run at its last frame: L3 outlives
    # the run, while the ~4k L4 objects of the feed have no frame by then.
    rsu = _stations(rng, grid, 1, 10, span=45.0)[0]
    prefill = []
    for k in range(30):
        ts = T0 - (30 - k) * 100_000
        prefill.append(Line(encode("openlabel", roadside_scene(rsu, ts)), ts, len(rsu.tracks)))

    feed = []
    cpm_i = probe_i = 0
    for i in range(n_lines):
        ts = T0 + i * LINE_US
        if i % 5 == 4:
            p, track, dets = probes[probe_i % CITY_PROBES]
            probe_i += 1
            feed.append(Line(encode("openlabel", probe_scene(p, track, dets, ts)), ts, 5))
        else:
            st = stations[cpm_i % CITY_STATIONS]
            cpm_i += 1
            feed.append(Line(encode("cpm", station_cpm(st, ts)), ts, 21))

    egos = [f"rsu-{k}" for k in range(len(rsu.tracks))]
    near = [nid for nid, x, y in grid.intersections
            if abs(x - rsu.east) <= 300 and abs(y - rsu.north) <= 300]
    return WorkloadInputs(
        grid=grid,
        config={"ttl_s": CITY_TTL_S, "archive": True},
        prefill=prefill,
        feed=feed,
        queries=_query_plan(rng, n_queries, egos, near, within_m=150.0, near_m=100.0),
        oracle_sample=_query_plan(rng, 10, egos, near, within_m=150.0, near_m=100.0),
    )


DISTRICT_STATIONS = 10
DISTRICT_TTL_S = 5.0


def district_query(seed: int, n_lines: int, n_queries: int) -> WorkloadInputs:
    """A ~10^3-segment district with 10 stations x 20 objects; the
    prefill is one L4 TTL of history, the feed continues it at 100 msg/s
    of feed clock, and eviction keeps one TTL of history in the store."""
    rng = random.Random(seed)
    grid = road_grid(rng, blocks=12, spacing_m=150.0)
    stations = _stations(rng, grid, DISTRICT_STATIONS, 20, span=70.0)
    history = int(DISTRICT_TTL_S * 1e6 / LINE_US)

    def line(i: int) -> Line:
        ts = T0 + i * LINE_US
        st = stations[i % DISTRICT_STATIONS]
        return Line(encode("cpm", station_cpm(st, ts)), ts, 21)

    prefill = [line(i) for i in range(-history, 0)]
    feed = [line(i) for i in range(n_lines)]
    egos = [n for st in stations for n in _cpm_names(st)]
    nodes = [n[0] for n in grid.intersections]
    return WorkloadInputs(
        grid=grid,
        config={"ttl_s": DISTRICT_TTL_S, "archive": False},
        prefill=prefill,
        feed=feed,
        queries=_query_plan(rng, n_queries, egos, nodes, within_m=150.0, near_m=100.0),
        oracle_sample=_query_plan(rng, 10, egos, nodes, within_m=150.0, near_m=100.0),
    )


BUILDERS = {
    "station-stream": station_stream,
    "city-feed": city_feed,
    "district-query": district_query,
}
