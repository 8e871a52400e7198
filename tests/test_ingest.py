import json
import random

import pytest

import oracles
from conftest import random_cpm
from ldm.api import LocalDynamicMap
from ldm.errors import InvalidElement, InvalidMessage, SceneSyntaxError, SchemaError
from ldm.geo import GeoBox
from ldm.ingest import (
    CpmMessage,
    PerceivedObject,
    commit_payload,
    cpm_to_openlabel,
    parse_cpm,
    parse_openlabel,
)
from ldm.model import ElementKind, FrameSource, GeoPose, LdmLayer
from ldm.store import LdmConfig, LdmStore

# Frozen: 10 m east of (0, 0) on the 6 371 000 m sphere.
LON_10M_EAST_AT_EQUATOR = 8.9932160591873051e-05

MINIMAL_SCENE = {
    "openlabel": {
        "metadata": {"schema_version": "ldm-scene/1.0"},
        "objects": {"0": {"name": "car-7", "type": "vehicle.car"}},
        "frames": {
            "0": {
                "timestamp": 1000,
                "objects": {"0": {"pose": {"lat": 1.0, "lon": 2.0}}},
            }
        },
    }
}


class TestParseOpenlabel:
    def test_minimal_document(self):
        p = parse_openlabel(json.dumps(MINIMAL_SCENE))
        assert len(p.objects) == 1
        assert p.frame_times == {0: 1000}
        assert p.objects[0].name == "car-7"
        assert p.objects[0].frames[1000].pose.lat == 1.0

    def test_undeclared_object_reference(self):
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["frames"]["0"]["objects"]["7"] = {}
        with pytest.raises(SchemaError) as err:
            parse_openlabel(doc)
        assert "7" in str(err.value)

    def test_empty_document_missing_root(self):
        with pytest.raises(SchemaError) as err:
            parse_openlabel("{}")
        assert "missing root scene key" in str(err.value)

    def test_second_root_key_rejected(self):
        doc = {"openlabel": {}, "extra": {}}
        with pytest.raises(SchemaError):
            parse_openlabel(doc)

    def test_syntax_error_carries_position(self):
        with pytest.raises(SceneSyntaxError) as err:
            parse_openlabel("{\n  broken")
        assert err.value.line == 2

    def test_unknown_keys_ignored(self):
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["future_section"] = {"x": 1}
        doc["openlabel"]["objects"]["0"]["future_field"] = True
        p = parse_openlabel(doc)
        assert p.objects[0].name == "car-7"

    def test_bad_attribute_value_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["objects"]["0"]["static"] = {"nested": {"no": "way"}}
        with pytest.raises(SchemaError):
            parse_openlabel(doc)

    def test_missing_timestamp_rejected(self):
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        del doc["openlabel"]["frames"]["0"]["timestamp"]
        with pytest.raises(SchemaError) as err:
            parse_openlabel(doc)
        assert "timestamp" in str(err.value)

    def test_relation_endpoints_resolved(self):
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["objects"]["1"] = {"name": "car-8", "type": "vehicle.car"}
        doc["openlabel"]["relations"] = [
            {"subject": 0, "predicate": "follows", "object": 1}
        ]
        p = parse_openlabel(doc)
        assert p.relations[0].predicate == "follows"
        doc["openlabel"]["relations"][0]["object"] = 9
        with pytest.raises(SchemaError):
            parse_openlabel(doc)


class TestCpmParsing:
    def test_round_numbers(self):
        msg = parse_cpm(json.dumps(random_cpm(random.Random(3))))
        assert isinstance(msg, CpmMessage)

    def test_missing_station_id(self):
        with pytest.raises(InvalidMessage) as err:
            parse_cpm({"generation_time": 1, "reference_position": {"lat": 0, "lon": 0}})
        assert err.value.field == "station_id"

    @pytest.mark.parametrize("field,value", [
        ("lat", "x"), ("heading", "n"), ("lat", True), ("speed", False), ("alt", [1.0]), ("lon", None),
        ("lat", 10 ** 400),
    ])
    def test_reference_position_fields_must_be_numbers(self, field, value):
        doc = random_cpm(random.Random(2), n_objects=1)
        doc["reference_position"][field] = value
        with pytest.raises(InvalidMessage) as err:
            parse_cpm(doc)
        assert err.value.field == "reference_position"
        assert field in str(err.value)

    def test_optional_reference_position_fields_may_be_null(self):
        doc = random_cpm(random.Random(2), n_objects=1)
        doc["reference_position"].update(alt=None, heading=None, speed=None)
        ref = parse_cpm(doc).reference_position
        assert (ref.alt, ref.heading, ref.speed) == (0.0, None, None)

    def test_distance_bound_enforced(self):
        doc = random_cpm(random.Random(4), n_objects=1)
        doc["perceived_objects"][0]["x_distance"] = 13_107_101
        with pytest.raises(InvalidMessage) as err:
            parse_cpm(doc)
        assert "x_distance" in str(err.value)

    def test_confidence_range_enforced(self):
        doc = random_cpm(random.Random(5), n_objects=1)
        doc["perceived_objects"][0]["confidence"] = 101
        with pytest.raises(InvalidMessage):
            parse_cpm(doc)

    def test_unknown_class_rejected(self):
        doc = random_cpm(random.Random(6), n_objects=1)
        doc["perceived_objects"][0]["object_class"] = "dragon"
        with pytest.raises(InvalidMessage):
            parse_cpm(doc)


class TestCpmConversion:
    def test_ten_meters_east_at_equator(self):
        msg = CpmMessage(
            station_id=5,
            generation_time=1000,
            reference_position=GeoPose(0.0, 0.0),
            perceived_objects=[PerceivedObject(0, x_distance=1000, y_distance=0)],
        )
        payload = cpm_to_openlabel(msg)
        pose = payload.objects[1].frames[1000].pose
        assert pose.lat == pytest.approx(0.0, abs=1e-12)
        assert pose.lon == pytest.approx(LON_10M_EAST_AT_EQUATOR, abs=1e-12)

    def test_station_only_when_no_objects(self):
        msg = CpmMessage(3, 1000, GeoPose(10.0, 20.0))
        payload = cpm_to_openlabel(msg)
        assert len(payload.objects) == 1
        assert payload.objects[0].name == "station-3"
        assert payload.objects[0].frames[1000].pose.lat == 10.0

    def test_three_four_five_speed(self):
        msg = CpmMessage(
            1, 1000, GeoPose(0.0, 0.0),
            [PerceivedObject(0, 100, 100, x_speed=300, y_speed=400)],
        )
        pose = cpm_to_openlabel(msg).objects[1].frames[1000].pose
        assert pose.speed == pytest.approx(5.0)
        # atan2(300, 400) east-of-north
        assert pose.heading == pytest.approx(36.8698976458, abs=1e-6)

    def test_object_count_invariant(self):
        rng = random.Random(11)
        for _ in range(25):
            msg = parse_cpm(random_cpm(rng))
            payload = cpm_to_openlabel(msg)
            assert len(payload.objects) == len(msg.perceived_objects) + 1

    def test_position_error_under_one_cm(self):
        rng = random.Random(12)
        for _ in range(50):
            msg = parse_cpm(random_cpm(rng))
            payload = cpm_to_openlabel(msg)
            ref = msg.reference_position
            for i, obj in enumerate(msg.perceived_objects):
                pose = payload.objects[i + 1].frames[msg.generation_time].pose
                exp_lat, exp_lon = oracles.hp_local_to_wgs84(
                    ref.lat, ref.lon, obj.x_distance / 100.0, obj.y_distance / 100.0
                )
                err_m = oracles.hp_haversine_m(pose.lat, pose.lon, float(exp_lat), float(exp_lon))
                assert err_m < 0.01

    def test_confidence_becomes_dynamic_attribute(self):
        msg = CpmMessage(1, 1000, GeoPose(0.0, 0.0),
                         [PerceivedObject(4, 100, 100, confidence=87)])
        payload = cpm_to_openlabel(msg)
        assert payload.objects[1].frames[1000].dynamic_attributes == {"confidence": 87}
        assert payload.objects[1].name == "cpm-1-4"
        assert payload.relations[0].predicate == "perceivedBy"


class TestCommitPayload:
    def test_single_object_counts(self):
        store = LdmStore()
        counts = commit_payload(parse_openlabel(MINIMAL_SCENE), store)
        assert (counts.elements, counts.frames, counts.relations) == (1, 1, 0)
        e = store.find_element(ElementKind.Object, "car-7", "vehicle.car")
        assert e is not None
        frames = store.query_frames(e.id, 0, 1 << 62)
        assert len(frames) == 1
        assert frames[0].timestamp == 1000
        assert frames[0].source is FrameSource.LocalPerception

    def test_recommit_is_idempotent(self):
        store = LdmStore()
        payload = parse_openlabel(MINIMAL_SCENE)
        commit_payload(payload, store)
        before = (store.elements(), [store.query_frames(e.id, 0, 1 << 62) for e in store.elements()])
        counts = commit_payload(payload, store)
        assert (counts.elements, counts.frames, counts.relations) == (0, 0, 0)
        after = (store.elements(), [store.query_frames(e.id, 0, 1 << 62) for e in store.elements()])
        assert before == after

    def test_spatial_filter_drops_frame_not_element(self):
        store = LdmStore(LdmConfig(spatial_filter=GeoBox(40.0, -130.0, 50.0, -110.0)))
        counts = commit_payload(parse_openlabel(MINIMAL_SCENE), store)  # pose (1, 2) is outside
        assert (counts.elements, counts.frames, counts.relations) == (1, 0, 0)

    def test_commit_is_atomic_on_overlap(self):
        store = LdmStore()
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["objects"]["1"] = {
            "name": "car-8", "type": "vehicle.car", "static": {"speed": 1.0},
        }
        doc["openlabel"]["frames"]["0"]["objects"]["1"] = {"data": {"speed": 2.0}}
        with pytest.raises(InvalidElement):
            commit_payload(parse_openlabel(doc), store)
        assert store.elements() == []
        assert store.stats().last_update == 0

    @staticmethod
    def _contents(store):
        return (
            [(e.id, e.layer, dict(e.static_attributes), store.query_frames(e.id, 0, 1 << 62))
             for e in store.elements()],
            store.stats().last_update,
        )

    def _seeded_store(self):
        store = LdmStore()
        commit_payload(parse_openlabel(MINIMAL_SCENE), store)
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["objects"] = {"0": {"name": "sign-1", "type": "sign.stop", "layer": "L2"}}
        commit_payload(parse_openlabel(doc), store)
        return store

    def test_commit_is_atomic_on_layer_change_of_last_element(self):
        store = self._seeded_store()
        before = self._contents(store)
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        root = doc["openlabel"]
        root["objects"]["1"] = {"name": "car-8", "type": "vehicle.car"}
        root["objects"]["2"] = {"name": "sign-1", "type": "sign.stop", "layer": "L3"}
        root["frames"]["0"]["timestamp"] = 2000
        root["frames"]["0"]["objects"]["1"] = {"pose": {"lat": 1.0, "lon": 2.1}}
        with pytest.raises(InvalidElement, match="layer change"):
            commit_payload(parse_openlabel(doc), store)
        assert self._contents(store) == before

    def test_commit_is_atomic_on_bad_pose_in_last_frame(self):
        store = self._seeded_store()
        before = self._contents(store)
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        root = doc["openlabel"]
        root["objects"]["1"] = {"name": "car-8", "type": "vehicle.car"}
        root["frames"]["0"]["timestamp"] = 2000
        root["frames"]["1"] = {"timestamp": 3000, "objects": {"1": {"pose": {"lat": 95.0, "lon": 2.0}}}}
        with pytest.raises(InvalidElement, match="lat out of range"):
            commit_payload(parse_openlabel(doc), store)
        assert self._contents(store) == before

    @pytest.mark.parametrize("elements, error", [
        ([({"name": "car-9", "type": "vehicle.car", "layer": "L4"}, {"pose": {"lat": 1.0, "lon": 2.1}}),
          ({"name": "car-9", "type": "vehicle.car", "layer": "L3"}, None)], "layer change"),
        ([({"name": "car-9", "type": "vehicle.car", "static": {"s": 1}}, None),
          ({"name": "car-9", "type": "vehicle.car"}, {"data": {"s": 2}})], "attribute overlap"),
        ([({"name": "car-9", "type": "vehicle.car"}, {"pose": {"lat": 1.0, "lon": 2.1}}),
          ({"name": "", "type": "vehicle.car"}, None)], "name empty"),
        ([({"name": "sign-2", "type": "sign.stop"}, None),
          ({"name": "sign-2", "type": "sign.stop", "layer": "L3"}, None)], None),
    ], ids=["layers-L4-L3", "static-and-dynamic-name", "empty-name-after-valid", "layerless-and-L3"])
    def test_elements_sharing_a_payload_commit_whole_or_not_at_all(self, elements, error):
        for order in (elements, elements[::-1]):
            store = self._seeded_store()
            before = self._contents(store)
            root = {"objects": {}, "frames": {"0": {"timestamp": 2000, "objects": {}}}}
            for uid, (body, data) in enumerate(order, 1):
                root["objects"][str(uid)] = body
                if data is not None:
                    root["frames"]["0"]["objects"][str(uid)] = data
            payload = parse_openlabel({"openlabel": root})
            if error is None:
                commit_payload(payload, store)
                sign = store.find_element(ElementKind.Object, "sign-2", "sign.stop")
                assert sign.layer is LdmLayer.L3_Transient
            else:
                with pytest.raises(InvalidElement, match=error):
                    commit_payload(payload, store)
                assert self._contents(store) == before

    def test_messages_fuse_by_timestamp(self):
        store = LdmStore()
        rng = random.Random(13)
        base = random_cpm(rng, n_objects=2, station_id=9)
        first = parse_cpm(base)
        second = parse_cpm({**base, "generation_time": base["generation_time"] + 100_000})
        commit_payload(cpm_to_openlabel(first), store)
        counts = commit_payload(cpm_to_openlabel(second), store)
        assert counts.elements == 0  # same station, same object ids
        assert counts.frames == 3  # station + 2 objects at the new instant
        station = store.find_element(ElementKind.Object, "station-9", "v2x.station")
        assert len(store.query_frames(station.id, 0, 1 << 62)) == 2

    def test_layer_from_payload_is_used(self):
        store = LdmStore()
        doc = {
            "openlabel": {
                "metadata": {},
                "contexts": {"0": {"name": "sign-1", "type": "sign.stop", "layer": "L2"}},
                "frames": {},
            }
        }
        commit_payload(parse_openlabel(doc), store)
        e = store.find_element(ElementKind.Context, "sign-1", "sign.stop")
        assert e.layer is LdmLayer.L2_QuasiStatic

    def test_relations_committed_with_span_remap(self):
        store = LdmStore()
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["objects"]["1"] = {"name": "car-8", "type": "vehicle.car"}
        doc["openlabel"]["frames"]["0"]["objects"]["1"] = {"pose": {"lat": 1.0, "lon": 2.1}}
        doc["openlabel"]["relations"] = [
            {"subject": 0, "predicate": "follows", "object": 1, "frame_span": [0, 1]}
        ]
        counts = commit_payload(parse_openlabel(doc), store)
        assert counts.relations == 1
        rel = store.relations()[0]
        assert rel.frame_span == (1000, 1001)  # remapped into timestamp space


class TestPayloadIsTheBatch:
    """A parsed payload holds the store's own elements and records, and
    committing it leaves it as parsed."""

    DOC = {"openlabel": {
        "objects": {
            "9": {"name": "car-9", "type": "vehicle.car", "static": {"w": 1.8}},
            "4": {"name": "car-4", "type": "vehicle.car", "layer": "L3"},
        },
        "contexts": {"2": {"name": "sign-2", "type": "sign.stop"}},
        "frames": {
            "1": {"timestamp": 2000, "objects": {"9": {"pose": {"lat": 1.0, "lon": 2.0}, "source": "v2x"},
                                                  "4": {"data": {"q": 3}, "timestamp": 2500}}},
            "0": {"timestamp": 1000, "objects": {"9": {"pose": {"lat": 1.1, "lon": 2.0}, "data": {"q": 1}}},
                  "contexts": {"2": {"data": {"state": "on"}}}},
        },
        "relations": [{"subject": 9, "predicate": "sees", "object": 2, "frame_span": [0, 2]}],
    }}

    def test_one_payload_commits_alike_into_any_store_and_stays_as_parsed(self, tmp_path):
        payload = parse_openlabel(self.DOC)
        exports = []
        for name, seed in (("a", None), ("seeded", MINIMAL_SCENE), ("b", None)):
            ldm = LocalDynamicMap()
            if seed is not None:
                ldm.add_objects(seed)  # the payload's elements get other ids here
            ldm.add_objects(payload)
            out = tmp_path / f"{name}.json"
            ldm.export(0, 1 << 62, out)
            exports.append(out.read_bytes())
        assert exports[0] == exports[2]
        assert exports[0] != exports[1]
        assert payload == parse_openlabel(self.DOC)

    @pytest.mark.parametrize("keys", [("0", "1"), ("1", "0")])
    def test_higher_frame_index_wins_at_one_timestamp(self, keys):
        frames = {
            "0": {"timestamp": 1000, "objects": {"0": {"pose": {"lat": 1.0, "lon": 2.0}}}},
            "1": {"timestamp": 1000, "objects": {"0": {"pose": {"lat": 1.5, "lon": 2.0}}}},
        }
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["frames"] = {k: frames[k] for k in keys}
        store = LdmStore()
        commit_payload(parse_openlabel(doc), store)
        assert [r.pose.lat for r in store.query_frames(0, 0, 1 << 62)] == [1.5]

    def test_record_timestamp_override_lands_at_its_own_time(self):
        payload = parse_openlabel(self.DOC)
        store = LdmStore()
        commit_payload(payload, store)
        car4 = store.find_element(ElementKind.Object, "car-4", "vehicle.car")
        assert [r.timestamp for r in store.query_frames(car4.id, 0, 1 << 62)] == [2500]
        assert payload.frame_times == {0: 1000, 1: 2000}
        assert store.relations()[0].frame_span == (1000, 2001)

    def test_repeated_frame_index_replaces_the_frame_after_both_are_checked(self):
        doc = json.loads(json.dumps(MINIMAL_SCENE))
        doc["openlabel"]["objects"]["1"] = {"name": "car-8", "type": "vehicle.car"}
        doc["openlabel"]["frames"] = {
            "0": {"timestamp": 1000, "objects": {"0": {"pose": {"lat": 1.0, "lon": 2.0}}, "1": {}}},
            "00": {"timestamp": 2000, "objects": {"0": {"pose": {"lat": 1.5, "lon": 2.0}}}},
        }
        payload = parse_openlabel(doc)
        assert payload.frame_times == {0: 2000}
        assert {uid: list(e.frames) for uid, e in payload.objects.items()} == {0: [2000], 1: []}
        doc["openlabel"]["frames"]["0"]["objects"]["7"] = {}
        with pytest.raises(SchemaError, match="undeclared object uid 7"):
            parse_openlabel(doc)

    def test_default_source_applies_at_parse(self):
        payload = parse_openlabel(self.DOC, source="synthetic")
        assert payload.objects[9].frames[2000].source is FrameSource.V2X
        assert payload.objects[9].frames[1000].source is FrameSource.Synthetic
        ldm = LocalDynamicMap()
        ldm.add_objects(payload, source="local_perception")  # a parsed payload keeps its tags
        car9 = ldm.store.find_element(ElementKind.Object, "car-9", "vehicle.car")
        assert [r.source for r in ldm.store.query_frames(car9.id, 0, 1 << 62)] == \
            [FrameSource.Synthetic, FrameSource.V2X]
