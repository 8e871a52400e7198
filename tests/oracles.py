"""Independent brute-force oracles the implementation is checked against.

These deliberately re-derive results from raw data (way tables, frame
logs) instead of calling the query paths they verify. Geodesy primitives
are shared; everything above them is recomputed here.
"""

import math
from collections import deque

import mpmath as mp

from ldm.errors import NoPose
from ldm.geo import EnuPoint, bearing_deg, haversine_m, project_to_segment, wgs84_to_enu
from ldm.model import ElementKind

_R = 6_371_000


def hp_local_to_wgs84(lat0, lon0, east_m, north_m, dps=40):
    """Arbitrary-precision spherical tangent-plane inverse (east along
    the origin parallel, north along the meridian)."""
    with mp.workdps(dps):
        R = mp.mpf(_R)
        lat = mp.mpf(repr(lat0)) + mp.degrees(mp.mpf(repr(north_m)) / R)
        dlon = mp.degrees(mp.mpf(repr(east_m)) / (R * mp.cos(mp.radians(mp.mpf(repr(lat0))))))
        lon = mp.mpf(repr(lon0)) + dlon
        lon = mp.fmod(lon + 180, 360) - 180
        return lat, lon


def hp_haversine_m(lat1, lon1, lat2, lon2, dps=40):
    """Arbitrary-precision great-circle distance, sphere radius 6371 km."""
    with mp.workdps(dps):
        p1, l1, p2, l2 = [mp.radians(mp.mpf(repr(float(x)))) for x in (lat1, lon1, lat2, lon2)]
        a = mp.sin((p2 - p1) / 2) ** 2 + mp.cos(p1) * mp.cos(p2) * mp.sin((l2 - l1) / 2) ** 2
        return float(2 * _R * mp.asin(mp.sqrt(a)))


def match_point(graph, lat, lon, threshold_m=50.0):
    """Exhaustive projection over every segment of every way."""
    candidates = []
    for way_id, way in graph.ways.items():
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
    best = min(((w, i, d) for d, w, i in candidates if d <= dmin + 1e-9),
               key=lambda t: (t[0], t[1]))
    return best  # (way_id, segment_index, distance_m)


def walk_next_nodes(graph, from_id, heading, k):
    """Breadth-first walk rebuilt from the way table, not adjacency."""
    adj = {}
    for way in graph.ways.values():
        for a, b in zip(way.node_refs, way.node_refs[1:]):
            adj.setdefault(a, []).append(b)
            if not way.oneway:
                adj.setdefault(b, []).append(a)
    outgoing = adj.get(from_id, [])
    if not outgoing:
        return []
    origin = graph.nodes[from_id]

    def deviation(nid):
        n = graph.nodes[nid]
        d = abs(bearing_deg(origin.lat, origin.lon, n.lat, n.lon) - heading) % 360.0
        return min(d, 360.0 - d)

    seed = min(outgoing, key=lambda n: (deviation(n), n))
    visited = {from_id, seed}
    queue = deque([seed])
    result = []
    while queue and len(result) < k:
        node = queue.popleft()
        result.append(node)
        for nbr in adj.get(node, []):
            if nbr not in visited:
                visited.add(nbr)
                queue.append(nbr)
    return result


def next_road_nodes(graph, lat, lon, heading, k):
    """Forward endpoint of the matched segment, then a breadth-first
    walk, all recomputed from the way table."""
    m = match_point(graph, lat, lon)
    if m is None:
        return None
    way = graph.ways[m[0]]
    a = graph.nodes[way.node_refs[m[1]]]
    b = graph.nodes[way.node_refs[m[1] + 1]]
    seg_bearing = bearing_deg(a.lat, a.lon, b.lat, b.lon)
    delta = abs(seg_bearing - heading) % 360.0
    forward = b.osm_id if min(delta, 360.0 - delta) <= 90.0 else a.osm_id
    result = [forward]
    if k > 1:
        result.extend(walk_next_nodes(graph, forward, heading, k - 1))
    return result[:k]


def object_states(store, at, exclude=None):
    """(element, latest frame <= at) from the raw frame log, for every
    object whose latest frame <= at has a pose: an object last reported
    without a pose is not placed at an older one."""
    out = []
    for element in store.elements():
        if element.kind is not ElementKind.Object or element.id == exclude:
            continue
        frames = [f for f in store.query_frames(element.id, 0, 1 << 62) if f.timestamp <= at]
        if frames:
            latest = max(frames, key=lambda f: f.timestamp)
            if latest.pose is not None:
                out.append((element, latest))
    return out


def ego_pose(store, ego, at):
    """The pose of the ego's latest frame at or before `at`, from the raw
    frame log; NoPose when there is no such frame or it has no pose (an
    ego is not placed at an older frame's pose)."""
    frames = [f for f in store.query_frames(ego, 0, 1 << 62) if f.timestamp <= at]
    latest = max(frames, key=lambda f: f.timestamp) if frames else None
    if latest is None or latest.pose is None:
        raise NoPose(f"element {ego}: no pose in its latest frame at or before {at}")
    return latest.pose


def objects_within(store, ego, radius_m, at):
    """Expected (element_id, distance) rows, sorted like the query."""
    pose = ego_pose(store, ego, at)
    rows = []
    for element, rec in object_states(store, at, exclude=ego):
        d = haversine_m(pose.lat, pose.lon, rec.pose.lat, rec.pose.lon)
        if d <= radius_m:
            rows.append((element.id, d))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def objects_near_node(store, graph, node_id, radius_m, at):
    node = graph.nodes[node_id]
    rows = []
    for element, rec in object_states(store, at):
        d = haversine_m(node.lat, node.lon, rec.pose.lat, rec.pose.lon)
        if d <= radius_m:
            rows.append((element.id, d))
    rows.sort(key=lambda r: (r[1], r[0]))
    return rows


def objects_on_same_way(store, graph, ego, at):
    pose = ego_pose(store, ego, at)
    ego_match = match_point(graph, pose.lat, pose.lon)
    if ego_match is None:
        return []
    rows = []
    for element, rec in object_states(store, at, exclude=ego):
        m = match_point(graph, rec.pose.lat, rec.pose.lon)
        if m is not None and m[0] == ego_match[0]:
            rows.append(element.id)
    return sorted(rows)


def stationary_objects(store, at, window_s, speed_eps):
    window_us = int(window_s * 1e6)
    out = []
    for element in store.elements():
        if element.kind is not ElementKind.Object:
            continue
        frames = [f for f in store.query_frames(element.id, 0, 1 << 62)
                  if at - window_us < f.timestamp <= at]
        frames.sort(key=lambda f: f.timestamp)
        if len(frames) < 2:
            continue
        moving = False
        prev = None
        for f in frames:
            speed = None
            if f.pose is not None and f.pose.speed is not None:
                speed = f.pose.speed
            elif f.pose is not None and prev is not None and prev.pose is not None:
                dt = (f.timestamp - prev.timestamp) / 1e6
                if dt > 0:
                    speed = haversine_m(prev.pose.lat, prev.pose.lon,
                                        f.pose.lat, f.pose.lon) / dt
            if speed is not None and speed > speed_eps:
                moving = True
                break
            prev = f
        if not moving:
            out.append(element.id)
    return sorted(out)
