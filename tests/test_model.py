import pytest

from ldm.model import (
    ElementKind,
    FrameRecord,
    GeoPose,
    LdmLayer,
    SceneElement,
    validate_element,
)


def make_element(static=None, frames=None, eid=0):
    return SceneElement(
        id=eid,
        kind=ElementKind.Object,
        name="car-7",
        semantic_type="vehicle.car",
        layer=LdmLayer.L4_Dynamic,
        static_attributes=static or {},
        frames=frames or {},
    )


def frame(ts, attrs=None, pose=None, eid=0):
    return FrameRecord(ts, eid, pose=pose, dynamic_attributes=attrs or {})


class TestGeoPose:
    def test_heading_wraps_on_construction(self):
        assert GeoPose(0.0, 0.0, heading=370.0).heading == pytest.approx(10.0)
        assert GeoPose(0.0, 0.0, heading=-90.0).heading == pytest.approx(270.0)

    def test_range_violations(self):
        assert GeoPose(0.0, 0.0).range_violations() == []
        bad = GeoPose(95.0, 200.0, speed=-1.0).range_violations()
        assert len(bad) == 3


class TestValidateElement:
    def test_static_only_element_is_ok(self):
        e = make_element(static={"brand": "acme"})
        assert validate_element(e) == []

    def test_attribute_overlap_is_reported(self):
        e = make_element(
            static={"speed": 3.0},
            frames={100: frame(100, attrs={"speed": 4.0})},
        )
        violations = validate_element(e)
        assert any("attribute overlap: speed" in v for v in violations)

    def test_out_of_range_latitude_is_reported(self):
        e = make_element(frames={100: frame(100, pose=GeoPose(95.0, 0.0))})
        violations = validate_element(e)
        assert any("lat out of range" in v for v in violations)

    def test_key_other_than_record_timestamp_is_reported(self):
        e = make_element(frames={0: frame(100)})
        assert any("frame key 0 != record timestamp 100" in v for v in validate_element(e))

    def test_mismatched_element_id_is_reported(self):
        e = make_element(frames={100: frame(100, eid=9)})
        assert any("element_id" in v for v in validate_element(e))
