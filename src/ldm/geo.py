"""Geodesy kernel: great-circle distance, local ENU conversion, segment
projection and bearings.

Model: spherical earth, radius 6 371 000 m, with an equirectangular
local tangent plane for ENU. Sub-decimeter accurate at the scales the
scene database works at (well under 10 km); swappable for an ellipsoidal
pipeline if that ever stops being true. Horizontal math ignores altitude.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import OutOfLocalRange

EARTH_RADIUS_M = 6_371_000.0

# Validity bound of the local tangent plane approximation.
LOCAL_RANGE_M = 50_000.0


@dataclass
class EnuPoint:
    """East/north/up meters relative to a declared WGS84 origin."""

    east: float
    north: float
    up: float = 0.0


@dataclass
class SegmentProjection:
    distance_m: float
    t: float
    foot: EnuPoint


@dataclass(frozen=True)
class GeoBox:
    """Geographic bounding box (degrees), min/max inclusive."""

    min_lat: float
    min_lon: float
    max_lat: float
    max_lon: float

    def contains(self, lat: float, lon: float) -> bool:
        return (
            self.min_lat <= lat <= self.max_lat
            and self.min_lon <= lon <= self.max_lon
        )

    def inflate_m(self, margin_m: float) -> "GeoBox":
        """Grow the box by margin_m meters on every side."""
        dlat = math.degrees(margin_m / EARTH_RADIUS_M)
        # Longitude margin uses the latitude closest to the pole so the
        # inflated box is never too small.
        worst_lat = max(abs(self.min_lat), abs(self.max_lat))
        cos_lat = max(math.cos(math.radians(worst_lat)), 1e-9)
        dlon = math.degrees(margin_m / (EARTH_RADIUS_M * cos_lat))
        return GeoBox(
            self.min_lat - dlat,
            self.min_lon - dlon,
            self.max_lat + dlat,
            self.max_lon + dlon,
        )


def disc_box(lat: float, lon: float, radius_m: float) -> GeoBox:
    """A box holding every position within radius_m great-circle meters
    of (lat, lon): the point inflated by the radius plus 1/16 of it plus
    1 m, with every longitude where that box would wrap at the
    antimeridian or span more than 60 degrees of longitude.

    inflate_m's longitude margin, r / cos(lat) in radians, falls short
    of the disc's half-width, asin(sin(r) / cos(lat)), by under 1/16
    while r / cos(lat) is below 0.56 rad (32 degrees); the extra meter
    covers rounding."""
    box = GeoBox(lat, lon, lat, lon).inflate_m(radius_m * 17 / 16 + 1.0)
    if box.min_lon <= -180.0 or box.max_lon >= 180.0 or box.max_lon - box.min_lon > 60.0:
        return GeoBox(box.min_lat, -math.inf, box.max_lat, math.inf)
    return box


def haversine_m(lat1: float, lon1: float, lat2: float, lon2: float) -> float:
    """Great-circle distance in meters between two WGS84 positions."""
    p1 = math.radians(lat1)
    p2 = math.radians(lat2)
    dp = p2 - p1
    dl = math.radians(lon2 - lon1)
    a = math.sin(dp / 2.0) ** 2 + math.cos(p1) * math.cos(p2) * math.sin(dl / 2.0) ** 2
    return 2.0 * EARTH_RADIUS_M * math.asin(min(1.0, math.sqrt(a)))


def _wrap_deg(d: float) -> float:
    """Wrap a degree value into [-180, 180)."""
    return (d + 180.0) % 360.0 - 180.0


def wgs84_to_enu(
    origin_lat: float,
    origin_lon: float,
    lat: float,
    lon: float,
    alt: float = 0.0,
    origin_alt: float = 0.0,
    *,
    max_range_m: float = LOCAL_RANGE_M,
) -> EnuPoint:
    """Project a WGS84 position into the local ENU frame at the origin.

    Equirectangular: east = R*dlon*cos(origin_lat), north = R*dlat,
    up = dalt. Raises OutOfLocalRange when the great-circle distance to
    the origin exceeds max_range_m (pass math.inf to disable).
    """
    if math.isfinite(max_range_m):
        d = haversine_m(origin_lat, origin_lon, lat, lon)
        if d > max_range_m:
            raise OutOfLocalRange(
                f"point {d:.0f} m from origin exceeds local range {max_range_m:.0f} m"
            )
    return enu_offset(origin_lat, origin_lon, math.cos(math.radians(origin_lat)), lat, lon,
                      alt - origin_alt)


def enu_offset(
    origin_lat: float,
    origin_lon: float,
    cos_origin_lat: float,
    lat: float,
    lon: float,
    up: float = 0.0,
) -> EnuPoint:
    """wgs84_to_enu's formula with cos(radians(origin_lat)) passed in and
    no range check, for projecting many points into one frame:
    east = (R*dlon)*cos_origin_lat, north = R*dlat."""
    return EnuPoint(
        EARTH_RADIUS_M * math.radians(_wrap_deg(lon - origin_lon)) * cos_origin_lat,
        EARTH_RADIUS_M * math.radians(lat - origin_lat),
        up,
    )


def enu_to_wgs84(
    origin_lat: float,
    origin_lon: float,
    east: float,
    north: float,
    up: float = 0.0,
    origin_alt: float = 0.0,
    *,
    max_range_m: float = LOCAL_RANGE_M,
) -> tuple[float, float, float]:
    """Inverse of wgs84_to_enu: (lat, lon, alt) of a local ENU offset."""
    if math.isfinite(max_range_m):
        d = math.hypot(east, north)
        if d > max_range_m:
            raise OutOfLocalRange(
                f"offset {d:.0f} m exceeds local range {max_range_m:.0f} m"
            )
    cos_lat = math.cos(math.radians(origin_lat))
    if abs(cos_lat) < 1e-12:
        raise OutOfLocalRange("local frame undefined at the poles")
    lat = origin_lat + math.degrees(north / EARTH_RADIUS_M)
    lon = _wrap_deg(origin_lon + math.degrees(east / (EARTH_RADIUS_M * cos_lat)))
    return (lat, lon, origin_alt + up)


def project_to_segment(p: EnuPoint, a: EnuPoint, b: EnuPoint) -> SegmentProjection:
    """Project p onto segment a->b in the east/north plane.

    t is clamped to [0, 1]; a zero-length segment is treated as the
    point a.
    """
    dx = b.east - a.east
    dy = b.north - a.north
    len_sq = dx * dx + dy * dy
    if len_sq == 0.0:
        t = 0.0
    else:
        t = ((p.east - a.east) * dx + (p.north - a.north) * dy) / len_sq
        t = min(1.0, max(0.0, t))
    foot = EnuPoint(a.east + t * dx, a.north + t * dy, 0.0)
    return SegmentProjection(math.hypot(p.east - foot.east, p.north - foot.north), t, foot)


def bearing_deg(from_lat: float, from_lon: float, to_lat: float, to_lon: float) -> float:
    """Compass bearing (degrees from north, clockwise) of the local
    direction from one position to another."""
    enu = wgs84_to_enu(from_lat, from_lon, to_lat, to_lon, max_range_m=math.inf)
    return math.degrees(math.atan2(enu.east, enu.north)) % 360.0


def heading_delta_deg(a: float, b: float) -> float:
    """Smallest absolute angle between two headings, in [0, 180]."""
    d = abs(a - b) % 360.0
    return min(d, 360.0 - d)
