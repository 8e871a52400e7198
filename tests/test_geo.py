import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ldm.errors import OutOfLocalRange
from ldm.geo import (
    EnuPoint,
    GeoBox,
    bearing_deg,
    disc_box,
    enu_to_wgs84,
    haversine_m,
    heading_delta_deg,
    project_to_segment,
    wgs84_to_enu,
)

# Frozen from an arbitrary-precision (50-digit) spherical oracle,
# R = 6 371 000 m.
MERIDIAN_MILLIDEG_M = 111.19492664455874
ANTIPODAL_M = 20015086.796020573

lat_st = st.floats(min_value=-90.0, max_value=90.0, allow_nan=False)
lon_st = st.floats(min_value=-180.0, max_value=179.999999, allow_nan=False)
point_st = st.tuples(lat_st, lon_st)


class TestHaversine:
    def test_identity(self):
        assert haversine_m(12.34, 56.78, 12.34, 56.78) == 0.0

    def test_millidegree_meridian(self):
        assert haversine_m(0.0, 0.0, 0.001, 0.0) == pytest.approx(MERIDIAN_MILLIDEG_M, abs=0.01)

    def test_antipodal(self):
        assert haversine_m(0.0, 0.0, 0.0, -180.0) == pytest.approx(ANTIPODAL_M, abs=10)

    @given(point_st, point_st)
    def test_symmetry(self, a, b):
        d1 = haversine_m(a[0], a[1], b[0], b[1])
        d2 = haversine_m(b[0], b[1], a[0], a[1])
        assert d1 == pytest.approx(d2, rel=1e-6, abs=1e-9)
        assert d1 >= 0.0

    @given(point_st, point_st, point_st)
    @settings(max_examples=300)
    def test_triangle_inequality(self, a, b, c):
        ac = haversine_m(a[0], a[1], c[0], c[1])
        ab = haversine_m(a[0], a[1], b[0], b[1])
        bc = haversine_m(b[0], b[1], c[0], c[1])
        assert ac <= ab + bc + 1e-6 * (ab + bc + 1.0)


class TestEnu:
    def test_origin_maps_to_zero(self):
        p = wgs84_to_enu(48.1, 11.5, 48.1, 11.5)
        assert (p.east, p.north, p.up) == (0.0, 0.0, 0.0)

    def test_millidegree_north(self):
        p = wgs84_to_enu(0.0, 0.0, 0.001, 0.0)
        assert p.north == pytest.approx(MERIDIAN_MILLIDEG_M, abs=0.01)
        assert p.east == 0.0

    def test_out_of_range_raises(self):
        with pytest.raises(OutOfLocalRange):
            wgs84_to_enu(0.0, 0.0, 1.0, 0.0)  # ~111 km
        with pytest.raises(OutOfLocalRange):
            enu_to_wgs84(0.0, 0.0, 60_000.0, 0.0)

    def test_range_check_can_be_disabled(self):
        p = wgs84_to_enu(0.0, 0.0, 1.0, 0.0, max_range_m=math.inf)
        assert p.north == pytest.approx(111_194.9, abs=1.0)

    @given(
        st.floats(min_value=-85.0, max_value=85.0),
        st.floats(min_value=-180.0, max_value=179.99),
        st.floats(min_value=-0.2, max_value=0.2),
        st.floats(min_value=-0.2, max_value=0.2),
    )
    @settings(max_examples=300)
    def test_round_trip_within_nanodegree(self, olat, olon, dlat, dlon):
        # keep the point inside the valid lon domain [-180, 180)
        lat, lon = olat + dlat, (olon + dlon + 180.0) % 360.0 - 180.0
        if abs(lat) > 90 or haversine_m(olat, olon, lat, lon) > 49_000:
            return
        enu = wgs84_to_enu(olat, olon, lat, lon)
        rlat, rlon, _ = enu_to_wgs84(olat, olon, enu.east, enu.north)
        assert rlat == pytest.approx(lat, abs=1e-9)
        assert rlon == pytest.approx(lon, abs=1e-9)

    @given(
        st.floats(min_value=-85.0, max_value=85.0),
        st.floats(min_value=-179.0, max_value=179.0),
        st.floats(min_value=-0.008, max_value=0.008),
        st.floats(min_value=-0.008, max_value=0.008),
    )
    @settings(max_examples=300)
    def test_agrees_with_haversine_under_1km(self, olat, olon, dlat, dlon):
        lat, lon = olat + dlat, olon + dlon
        d_hav = haversine_m(olat, olon, lat, lon)
        if not 1.0 < d_hav < 1000.0:
            return
        enu = wgs84_to_enu(olat, olon, lat, lon)
        d_enu = math.hypot(enu.east, enu.north)
        assert abs(d_hav - d_enu) / d_hav < 1e-4


class TestSegmentProjection:
    def test_point_on_midpoint(self):
        proj = project_to_segment(EnuPoint(1.0, 0.0), EnuPoint(0.0, 0.0), EnuPoint(2.0, 0.0))
        assert proj.distance_m == 0.0
        assert proj.t == 0.5

    def test_perpendicular_above_start(self):
        proj = project_to_segment(EnuPoint(0.0, 1.0), EnuPoint(0.0, 0.0), EnuPoint(2.0, 0.0))
        assert proj.distance_m == pytest.approx(1.0)
        assert proj.t == 0.0
        assert (proj.foot.east, proj.foot.north) == (0.0, 0.0)

    def test_clamps_past_end(self):
        proj = project_to_segment(EnuPoint(5.0, 1.0), EnuPoint(0.0, 0.0), EnuPoint(2.0, 0.0))
        assert proj.t == 1.0
        assert proj.distance_m == pytest.approx(math.hypot(3.0, 1.0))

    def test_degenerate_segment_is_a_point(self):
        proj = project_to_segment(EnuPoint(3.0, 4.0), EnuPoint(0.0, 0.0), EnuPoint(0.0, 0.0))
        assert proj.distance_m == pytest.approx(5.0)
        assert proj.t == 0.0

    @given(
        st.tuples(*[st.floats(min_value=-1000, max_value=1000) for _ in range(6)]),
    )
    @settings(max_examples=300)
    # A segment far shorter than a micrometre still has a nearer end.
    @example((-1.0, 0.0, 0.0, 0.0, -6e-8, 0.0))
    def test_never_beats_endpoints(self, coords):
        px, py, ax, ay, bx, by = coords
        p, a, b = EnuPoint(px, py), EnuPoint(ax, ay), EnuPoint(bx, by)
        proj = project_to_segment(p, a, b)
        assert proj.distance_m <= math.hypot(px - ax, py - ay) + 1e-9
        assert proj.distance_m <= math.hypot(px - bx, py - by) + 1e-9


class TestBearings:
    def test_cardinal_directions(self):
        assert bearing_deg(0.0, 0.0, 0.01, 0.0) == pytest.approx(0.0, abs=1e-9)
        assert bearing_deg(0.0, 0.0, 0.0, 0.01) == pytest.approx(90.0, abs=1e-9)
        assert bearing_deg(0.0, 0.0, -0.01, 0.0) == pytest.approx(180.0, abs=1e-9)
        assert bearing_deg(0.0, 0.0, 0.0, -0.01) == pytest.approx(270.0, abs=1e-9)

    def test_heading_delta(self):
        assert heading_delta_deg(10.0, 350.0) == pytest.approx(20.0)
        assert heading_delta_deg(90.0, 270.0) == pytest.approx(180.0)
        assert heading_delta_deg(45.0, 45.0) == 0.0


class TestGeoBox:
    def test_contains(self):
        box = GeoBox(0.0, 0.0, 1.0, 1.0)
        assert box.contains(0.5, 0.5)
        assert not box.contains(1.5, 0.5)

    def test_inflate_adds_margin(self):
        box = GeoBox(0.0, 0.0, 0.0, 0.0).inflate_m(1000.0)
        # 1 km is roughly 0.009 degrees at the equator.
        assert box.contains(0.0089, 0.0)
        assert box.contains(0.0, -0.0089)
        assert not box.contains(0.01, 0.0)


def destination(lat, lon, bearing, distance_m):
    """The great-circle destination, lon wrapped into [-180, 180)."""
    p1, d, b = math.radians(lat), distance_m / 6_371_000.0, math.radians(bearing)
    p2 = math.asin(math.sin(p1) * math.cos(d) + math.cos(p1) * math.sin(d) * math.cos(b))
    dl = math.atan2(math.sin(b) * math.sin(d) * math.cos(p1), math.cos(d) - math.sin(p1) * math.sin(p2))
    return math.degrees(p2), (lon + math.degrees(dl) + 180.0) % 360.0 - 180.0


class TestDiscBox:
    @settings(max_examples=500, deadline=None)
    @given(point_st, st.floats(0.1, 5e6), st.floats(0.0, 1.0), st.floats(0.0, 360.0))
    @example((89.999, 0.0), 100.0, 1.0, 90.0)
    @example((0.0, 179.9995), 100.0, 1.0, 90.0)
    @example((-65.0, -179.999), 3000.0, 1.0, 270.0)
    def test_holds_every_position_within_the_radius(self, center, radius, share, bearing):
        lat, lon = destination(*center, bearing, radius * share)
        if haversine_m(*center, lat, lon) <= radius:
            assert disc_box(*center, radius).contains(lat, lon)

    def test_plain_inflation_misses_part_of_a_disc_near_the_pole(self):
        center = (89.999, 0.0)
        points = [destination(*center, b, 99.9) for b in range(0, 360, 5)]
        naive = GeoBox(*center, *center).inflate_m(100.0)
        assert not all(naive.contains(*p) for p in points)
        assert all(disc_box(*center, 100.0).contains(*p) for p in points)

    def test_wraps_to_every_longitude_only_where_it_must(self):
        box = disc_box(47.6, -122.3, 150.0)
        assert math.isfinite(box.min_lon) and math.isfinite(box.max_lon)
        assert box.contains(47.6, -122.3) and not box.contains(47.6, -122.31)
        for center in ((0.0, 179.9995), (0.0, -180.0), (89.999, 15.0)):
            box = disc_box(*center, 150.0)
            assert (box.min_lon, box.max_lon) == (-math.inf, math.inf)
        assert disc_box(0.0, 0.0, math.inf) == GeoBox(-math.inf, -math.inf, math.inf, math.inf)
