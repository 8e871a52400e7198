import logging
import math
import random
import sys
import threading
import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ldm import store as store_module
from ldm.errors import (
    AttributeOverlap,
    InvalidConfig,
    InvalidElement,
    SinkError,
    UnknownElement,
)
from ldm.ingest import parse_openlabel
from ldm.geo import GeoBox, disc_box, enu_to_wgs84
from ldm.model import (
    ElementKind,
    FrameRecord,
    FrameSource,
    GeoPose,
    LdmLayer,
    Relation,
    SceneElement,
)
from ldm.store import EvictionTimer, LdmConfig, LdmStore, validate_config

US = 1_000_000  # microseconds per second


def element(name, layer=LdmLayer.L4_Dynamic, kind=ElementKind.Object, static=None, sem="vehicle.car"):
    return SceneElement(0, kind, name, sem, layer, static or {})


def rec(eid, ts, pose=None, attrs=None):
    return FrameRecord(ts, eid, pose=pose, dynamic_attributes=attrs or {})


class TestUpsert:
    def test_first_insert_gets_id_zero(self):
        store = LdmStore()
        assert store.upsert_element(element("car-7")) == 0

    def test_reinsert_merges_statics_and_keeps_id(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7", static={"brand": "acme"}))
        again = store.upsert_element(element("car-7", static={"color": "red", "brand": "apex"}))
        assert again == eid
        e = store.get_element(eid)
        assert e.static_attributes == {"brand": "apex", "color": "red"}

    def test_validation_failure_raises(self):
        store = LdmStore()
        with pytest.raises(InvalidElement):
            store.upsert_element(element(""))

    def test_layer_change_rejected(self):
        store = LdmStore()
        store.upsert_element(element("sign-1", layer=LdmLayer.L2_QuasiStatic))
        with pytest.raises(InvalidElement):
            store.upsert_element(element("sign-1", layer=LdmLayer.L4_Dynamic))

    def test_static_key_colliding_with_dynamic_name_rejected(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 100, attrs={"speed": 1.0}))
        with pytest.raises(InvalidElement):
            store.upsert_element(element("car-7", static={"speed": 9.0}))

    def test_frame_clashing_with_stored_static_writes_nothing(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7", static={"brand": "acme"}))
        e = element("car-7", static={"color": "red"})
        e.frames = {100: rec(0, 100, attrs={"brand": "x"})}
        with pytest.raises(InvalidElement, match="attribute overlap"):
            store.upsert_element(e)
        assert store.get_element(eid).static_attributes == {"brand": "acme"}
        assert store.query_frames(eid, 0, 1 << 62) == []

    def test_frame_count_is_the_frames_that_changed_the_log(self):
        # A frame at a stored timestamp replaces the record there: an
        # equal record counts no change, a different one counts one.
        store = LdmStore()

        def commit(*frames):
            e = element("car-7")
            e.frames = {f.timestamp: f for f in frames}
            return store.upsert_elements([e])[2]

        assert commit(rec(0, 200), rec(0, 400)) == 2
        assert commit(rec(0, 300), rec(0, 200)) == 1
        assert commit(rec(0, 400, attrs={"v": 1})) == 1
        assert store.query_frames(0, 0, 1000) == [rec(0, 200), rec(0, 300), rec(0, 400, attrs={"v": 1})]

    def test_given_records_are_never_changed(self):
        # A record that already carries the stored id is stored as given;
        # any other is stored as a copy carrying it.
        store = LdmStore()
        store.upsert_element(element("car-0"))
        given = [rec(0, 100, pose=GeoPose(1.0, 2.0)), rec(5, 200, attrs={"v": 1})]
        batch = [element("car-0"), replace(element("car-1"), id=5)]
        batch[0].frames = {100: given[0]}
        batch[1].frames = {200: given[1]}
        assert store.upsert_elements(batch)[0] == [0, 1]
        assert [r.element_id for r in given] == [0, 5]
        assert store.query_frames(0, 0, 1000)[0] is given[0]
        assert store.query_frames(1, 0, 1000) == [rec(1, 200, attrs={"v": 1})]

    def test_keep_ids_preserves_id(self):
        store = LdmStore()
        e = element("car-7")
        e.id = 41
        assert store.upsert_elements([e], keep_ids=True)[0] == [41]
        assert store.upsert_element(element("car-8")) == 42

    def test_keep_ids_rejects_an_id_held_by_another_identity(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        clashes = [
            [replace(element("car-8"), id=eid)],  # id stored under car-7
            [replace(element("car-7"), id=eid + 1)],  # car-7 stored under eid
            [replace(element("a"), id=9), replace(element("b"), id=9)],
            [replace(element("a"), id=9), replace(element("a"), id=10)],
        ]
        for batch in clashes:
            with pytest.raises(InvalidElement, match="held by another element"):
                store.upsert_elements(batch, keep_ids=True)
        assert [e.name for e in store.elements()] == ["car-7"]
        assert store.upsert_elements([replace(element("car-7"), id=eid)], keep_ids=True)[0] == [eid]


class TestInsertFrame:
    def test_insert_and_last_update(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        assert store.insert_frame(rec(eid, 123)) is True
        assert store.stats().last_update == 123

    def test_unknown_element(self):
        store = LdmStore()
        with pytest.raises(UnknownElement):
            store.insert_frame(rec(99, 1))

    def test_spatial_filter_drops_outside(self):
        cfg = LdmConfig(spatial_filter=GeoBox(0.0, 0.0, 1.0, 1.0))
        store = LdmStore(cfg)
        eid = store.upsert_element(element("car-7"))
        inside = rec(eid, 100, pose=GeoPose(0.5, 0.5))
        outside = rec(eid, 200, pose=GeoPose(5.0, 5.0))
        assert store.insert_frame(inside) is True
        assert store.insert_frame(outside) is False
        assert len(store.query_frames(eid, 0, 1 << 62)) == 1

    def test_attribute_overlap_propagates(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7", static={"brand": "acme"}))
        with pytest.raises(AttributeOverlap):
            store.insert_frame(rec(eid, 100, attrs={"brand": "x"}))

    def test_out_of_order_arrival_with_consistent_order_is_fine(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 500))
        store.insert_frame(rec(eid, 300))
        frames = store.query_frames(eid, 0, 1000)
        assert [f.timestamp for f in frames] == [300, 500]

    def test_last_writer_wins_update(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 100, attrs={"speed": 1.0}))
        store.insert_frame(rec(eid, 100, attrs={"speed": 2.0}))
        frames = store.query_frames(eid, 0, 1000)
        assert len(frames) == 1
        assert frames[0].dynamic_attributes["speed"] == 2.0

    def test_frame_cap_trims_oldest(self):
        store = LdmStore(LdmConfig(max_frames_per_element=3))
        eid = store.upsert_element(element("car-7"))
        for i in range(5):
            store.insert_frame(rec(eid, 100 + i))
        frames = store.query_frames(eid, 0, 1000)
        assert [f.timestamp for f in frames] == [102, 103, 104]
        assert store.stats().evicted_total == 2

    def test_frame_cap_trims_without_archiving(self, tmp_path):
        # The cap drops frames on write; only eviction passes archive.
        store = LdmStore(LdmConfig(max_frames_per_element=3, archive_dir=str(tmp_path)))
        eid = store.upsert_element(element("car-7"))
        for i in range(5):
            store.insert_frame(rec(eid, 100 + i, pose=GeoPose(1.0, 2.0)))
        assert store.stats().evicted_total == 2
        assert list(tmp_path.iterdir()) == []


class TestRelations:
    def test_add_and_dedup(self):
        store = LdmStore()
        a = store.upsert_element(element("car-7"))
        b = store.upsert_element(element("way-3", kind=ElementKind.Context, sem="road.way",
                                         layer=LdmLayer.L1_Static))
        store.add_relation(Relation(a, "isOnWay", b))
        store.add_relation(Relation(a, "isOnWay", b))
        assert store.stats().relation_count == 1

    def test_add_reports_whether_the_edge_is_new(self):
        store = LdmStore()
        a = store.upsert_element(element("car-7"))
        b = store.upsert_element(element("car-8"))
        assert store.add_relation(Relation(a, "follows", b)) is True
        assert store.add_relation(Relation(a, "follows", b)) is False

    def test_remove_reports_whether_the_edge_was_stored(self):
        store = LdmStore()
        a = store.upsert_element(element("a"))
        b = store.upsert_element(element("b"))
        store.add_relation(Relation(a, "near", b))
        store.add_relation(Relation(b, "near", a))
        assert store.remove_relation(Relation(a, "near", b)) is True
        assert store.remove_relation(Relation(a, "near", b)) is False
        assert store.relations() == [Relation(b, "near", a)]
        # The remaining edge still cascades when its subject goes.
        store.evict_expired(100 * US)
        assert store.relations() == []

    def test_missing_endpoint(self):
        store = LdmStore()
        a = store.upsert_element(element("car-7"))
        with pytest.raises(UnknownElement):
            store.add_relation(Relation(a, "isOnWay", 99))


class TestEviction:
    def test_expired_l4_frame_is_removed(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 0))
        assert store.evict_expired(31 * US) >= 1
        with pytest.raises(UnknownElement):
            store.get_element(eid)  # frameless dynamic element went with it

    def test_l1_never_evicted(self):
        store = LdmStore()
        eid = store.upsert_element(element("node-1", kind=ElementKind.Context,
                                           sem="road.node", layer=LdmLayer.L1_Static))
        assert store.evict_expired(10**18) == 0
        assert store.get_element(eid).name == "node-1"

    def test_empty_store(self):
        assert LdmStore().evict_expired(123) == 0

    def test_idempotent_per_timestamp(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        for i in range(5):
            store.insert_frame(rec(eid, i * US))
        now = 40 * US
        first = store.evict_expired(now)
        assert first > 0
        assert store.evict_expired(now) == 0

    def test_relations_cascade_with_element(self):
        store = LdmStore()
        a = store.upsert_element(element("car-7"))
        b = store.upsert_element(element("car-8"))
        store.insert_frame(rec(a, 0))
        store.insert_frame(rec(b, 100 * US))
        store.add_relation(Relation(a, "follows", b))
        store.evict_expired(50 * US)  # a's only frame expires; b's is fresh
        assert store.stats().relation_count == 0
        remaining = {e.name for e in store.elements()}
        assert remaining == {"car-8"}

    def test_boundary_age_is_kept(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 0))
        # age == TTL exactly: not strictly older, stays
        assert store.evict_expired(30 * US) == 0

    def test_archive_written_before_eviction(self, tmp_path):
        store = LdmStore(LdmConfig(archive_dir=str(tmp_path)))
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 0, pose=GeoPose(1.0, 2.0)))
        store.evict_expired(31 * US)
        files = list(tmp_path.glob("evicted-*.json"))
        assert len(files) == 1
        assert "car-7" in files[0].read_text()

    def test_archive_holds_exactly_the_evicted_records(self, tmp_path):
        store = LdmStore(LdmConfig(archive_dir=str(tmp_path)))
        car = store.upsert_element(element("car-7", static={"brand": "acme"}))
        phase = store.upsert_element(element("phase-1", kind=ElementKind.Context,
                                             layer=LdmLayer.L3_Transient, sem="signal.phase"))
        store.upsert_element(element("node-1", kind=ElementKind.Context, sem="road.node",
                                     layer=LdmLayer.L1_Static, static={"lat": 1.0, "lon": 2.0}))
        sources = list(FrameSource)
        for i in range(6):
            store.insert_frame(FrameRecord((570 + i) * US, car, GeoPose(1.0 + i / 1e4, 2.0, speed=i / 3),
                                           {"confidence": 90 + i, "tag": f"t{i}"},
                                           sources[i % len(sources)]))
        store.insert_frame(FrameRecord(0, phase, None, {"state": "red"}, FrameSource.V2X))
        store.insert_frame(FrameRecord(700 * US, phase, None, {"state": "green"}))
        now = 603 * US  # car frames at 570..572 s and the phase's 0 s frame expire
        expected = {(car, r.timestamp): r for r in store.query_frames(car, 0, 573 * US)}
        expected[phase, 0] = store.query_frames(phase, 0, 1)[0]
        assert store.evict_expired(now) == len(expected)

        [path] = tmp_path.glob("evicted-*.json")
        text = path.read_text(encoding="utf-8")
        assert text.count("\n") == 1 and ": " not in text and ", " not in text
        payload = parse_openlabel(text)
        assert {uid: (e.name, e.static_attributes) for uid, e in payload.objects.items()} == {
            car: ("car-7", {"brand": "acme"})}
        assert {uid: e.name for uid, e in payload.contexts.items()} == {phase: "phase-1"}
        got = {}
        for uid, e in (*payload.objects.items(), *payload.contexts.items()):
            for ts, rec in e.frames.items():
                got[uid, ts] = rec
        assert got == expected

    def test_second_pass_at_the_same_time_keeps_the_first_archive(self, tmp_path):
        store = LdmStore(LdmConfig(archive_dir=str(tmp_path)))
        a = store.upsert_element(element("car-a"))
        store.insert_frame(rec(a, 0, pose=GeoPose(1.0, 2.0)))
        assert store.evict_expired(100 * US) == 1
        b = store.upsert_element(element("car-b"))
        store.insert_frame(rec(b, 1, pose=GeoPose(1.0, 2.0)))  # a late frame
        assert store.evict_expired(100 * US) == 1
        assert store.stats().evicted_total == 2
        names = {}
        for path in tmp_path.glob("evicted-*.json"):
            payload = parse_openlabel(path.read_text(encoding="utf-8"))
            names[path.name] = sorted(e.name for e in payload.objects.values())
        assert names == {f"evicted-{100 * US}.json": ["car-a"],
                         f"evicted-{100 * US}-1.json": ["car-b"]}
        assert sorted(p.name for p in tmp_path.iterdir()) == sorted(names)

    def test_failed_archive_leaves_no_file_and_evicts_nothing(self, tmp_path, monkeypatch):
        store = LdmStore(LdmConfig(archive_dir=str(tmp_path)))
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 0, pose=GeoPose(1.0, 2.0)))

        def no_link(src, dst):
            raise OSError("disk full")

        monkeypatch.setattr(store_module.os, "link", no_link)
        with pytest.raises(SinkError):
            store.evict_expired(100 * US)
        assert list(tmp_path.iterdir()) == []
        assert store.stats().frame_count == 1

    def test_a_pass_searches_only_finite_ttl_entries(self, monkeypatch):
        # k permanent road nodes and n objects: a pass looks up each
        # layer's TTL once and searches the n frame logs whatever k is,
        # and none once the objects are gone.
        searches, lookups = [], []
        bisect_left = store_module.bisect_left
        monkeypatch.setattr(store_module, "bisect_left", lambda *a: searches.append(1) or bisect_left(*a))
        ttl_us = LdmConfig.ttl_us
        monkeypatch.setattr(LdmConfig, "ttl_us", lambda *a: lookups.append(1) or ttl_us(*a))
        n = 50
        for k in (0, 3000):
            store = LdmStore()
            store.upsert_elements([element(f"node-{i}", kind=ElementKind.Context, sem="road.node",
                                           layer=LdmLayer.L1_Static) for i in range(k)])
            store.upsert_elements([SceneElement(0, ElementKind.Object, f"car-{i}", "vehicle.car",
                                                LdmLayer.L4_Dynamic, {}, {0: FrameRecord(0, 0)})
                                   for i in range(n)])
            searches.clear()
            lookups.clear()
            assert store.evict_expired(10 * US) == 0
            assert len(searches) == n
            assert len(lookups) == len(LdmLayer)
            assert store.evict_expired(100 * US) == n
            assert store.objects_at(1 << 62) == []
            searches.clear()
            assert store.evict_expired(200 * US) == 0
            assert searches == []
            # A re-created identity is listed and searched again.
            store.upsert_element(SceneElement(0, ElementKind.Object, "car-0", "vehicle.car",
                                              LdmLayer.L4_Dynamic, {}, {300 * US: FrameRecord(300 * US, 0)}))
            assert [e.element.name for e in store.objects_at(300 * US)] == ["car-0"]
            searches.clear()
            assert store.evict_expired(300 * US) == 0
            assert len(searches) == 1


class TestEvictionTimer:
    def test_failed_pass_is_logged_and_the_next_pass_runs(self, tmp_path):
        archive = tmp_path / "archive"
        archive.write_text("a file where the archive directory should be")
        store = LdmStore(LdmConfig(archive_dir=str(archive)))
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 0, pose=GeoPose(1.0, 2.0)))

        failed = threading.Event()
        probe = logging.Handler(logging.ERROR)
        probe.emit = lambda record: failed.set()
        logger = logging.getLogger("ldm")
        logger.addHandler(probe)
        timer = EvictionTimer(store, period_s=0.01).start()
        try:
            assert failed.wait(5.0)
            assert timer._thread.is_alive()
            assert store.stats().frame_count == 1  # a failed pass evicts nothing

            archive.unlink()
            archive.mkdir(exist_ok=True)  # a pass in between may have made it
            deadline = time.monotonic() + 5.0
            while store.stats().evicted_total == 0 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert store.stats().evicted_total == 1
            assert len(list(archive.glob("evicted-*.json"))) == 1
        finally:
            timer.stop()
            logger.removeHandler(probe)


    def test_a_pass_raising_any_exception_is_logged_and_the_next_pass_runs(self, monkeypatch):
        store = LdmStore()
        passes = []
        evict = store.evict_expired

        def flaky(now):
            passes.append(now)
            if len(passes) == 1:
                raise KeyError("lost entry")
            return evict(now)

        monkeypatch.setattr(store, "evict_expired", flaky)
        logged = []
        probe = logging.Handler(logging.ERROR)
        probe.emit = logged.append
        logger = logging.getLogger("ldm")
        logger.addHandler(probe)
        timer = EvictionTimer(store, period_s=0.01).start()
        try:
            deadline = time.monotonic() + 5.0
            while len(passes) < 2 and time.monotonic() < deadline:
                time.sleep(0.01)
            assert len(passes) >= 2 and timer.is_alive()
            assert logged and logged[0].exc_info[0] is KeyError
        finally:
            timer.stop()
            logger.removeHandler(probe)
        assert not timer.is_alive()


class TestQueryFrames:
    def test_half_open_interval(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        for ts in (10, 20, 30):
            store.insert_frame(rec(eid, ts))
        got = store.query_frames(eid, 10, 30)
        assert [f.timestamp for f in got] == [10, 20]

    def test_empty_interval(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        assert store.query_frames(eid, 0, 5) == []

    def test_unknown_element(self):
        with pytest.raises(UnknownElement):
            LdmStore().query_frames(1, 0, 10)


class TestSnapshot:
    def test_empty_store(self):
        snap = LdmStore().snapshot(100)
        assert snap.entries == [] and snap.relations == []

    def test_latest_at_or_before(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 10))
        store.insert_frame(rec(eid, 20))
        snap = store.snapshot(15)
        assert snap.entries[0].frame.timestamp == 10

    def test_unchanged_by_later_insert_upsert_and_eviction(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7", static={"c": 1}))
        store.insert_frame(rec(eid, 0))
        entry = store.snapshot(0).entries[0]
        before = (len(entry.element.frames), dict(entry.element.static_attributes), entry.frame)
        store.insert_frame(rec(eid, 10 * US))
        store.upsert_element(element("car-7", static={"c": 2}))
        store.evict_expired(100 * US)
        assert (len(entry.element.frames), entry.element.static_attributes, entry.frame) == before

    def test_static_only_before_first_frame(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 10))
        snap = store.snapshot(5)
        assert snap.entries[0].frame is None
        assert snap.entries[0].element.id == eid


class TestObjectsAt:
    def test_latest_frame_per_object_only(self):
        store = LdmStore()
        car = store.upsert_element(element("car-7"))
        store.upsert_element(element("road", layer=LdmLayer.L1_Static, kind=ElementKind.Context))
        store.upsert_element(element("parked"))
        late = store.upsert_element(element("car-9"))
        store.insert_frame(rec(car, 10))
        store.insert_frame(rec(car, 20))
        store.insert_frame(rec(late, 30))

        def latest(at):
            return {e.element.id: e.frame for e in store.objects_at(at)}

        # parked has no frame, late none at or before 15: both are absent.
        assert latest(15) == {car: rec(car, 10)}
        assert latest(9) == {}
        assert latest(30) == {car: rec(car, 20), late: rec(late, 30)}

    def test_objects_without_a_frame_yet_cost_no_search(self, monkeypatch):
        # 2,000 objects whose frames all come after the read time: none
        # is listed, and no frame log is searched for them, nor for
        # objects whose latest frame is at or before the read time.
        store = LdmStore()
        store.upsert_elements([SceneElement(0, ElementKind.Object, f"car-{i}", "vehicle.car",
                                            LdmLayer.L4_Dynamic, {}, {ts: FrameRecord(ts, 0)
                                                                      for ts in (100, 200)})
                               for i in range(2000)])
        searches = []
        bisect_right = store_module.bisect_right
        monkeypatch.setattr(store_module, "bisect_right", lambda *a: searches.append(1) or bisect_right(*a))
        assert store.objects_at(99) == []
        assert len(store.objects_at(200)) == 2000
        assert searches == []
        assert {e.frame.timestamp for e in store.objects_at(150)} == {100}
        assert len(searches) == 2000

    def test_a_read_skips_the_partitions_whose_first_frame_is_later(self, monkeypatch):
        # 2,000 L4 objects with frames after the read time and 10 L3
        # objects with frames before it: a read visits no L4 entry. A
        # write at or before the read time into one L4 object, by
        # insert_frame or by upsert, makes the next read list it.
        def objects(layer, prefix, n, times):
            return [SceneElement(0, ElementKind.Object, f"{prefix}-{i}", "vehicle.car", layer, {},
                                 {ts: FrameRecord(ts, 0) for ts in times}) for i in range(n)]

        store = LdmStore()  # L4 TTL 30 s, L3 600 s
        cars = store.upsert_elements(objects(LdmLayer.L4_Dynamic, "car", 2000, (100 * US, 101 * US)))[0]
        cones = store.upsert_elements(objects(LdmLayer.L3_Transient, "cone", 10, (10 * US,)))[0]
        visited = set()
        times = store_module._Entry.times
        monkeypatch.setattr(store_module._Entry, "times", property(
            lambda entry: visited.add(entry.element.id) or times.__get__(entry), times.__set__))

        def read(at):
            visited.clear()
            got = sorted(e.element.id for e in store.objects_at(at))
            return got, len(visited & set(cars))

        assert read(50 * US) == (cones, 0)
        assert len(read(100 * US)[0]) == 2010
        assert store.insert_frame(FrameRecord(40 * US, cars[5]))
        assert read(50 * US) == (sorted([*cones, cars[5]]), 2000)

        store = LdmStore()
        cars = store.upsert_elements(objects(LdmLayer.L4_Dynamic, "car", 2000, (100 * US, 101 * US)))[0]
        cones = store.upsert_elements(objects(LdmLayer.L3_Transient, "cone", 10, (10 * US,)))[0]
        assert read(50 * US) == (cones, 0)
        store.upsert_elements(objects(LdmLayer.L4_Dynamic, "car", 1, (50 * US,)))
        assert read(50 * US) == (sorted([*cones, cars[0]]), 2000)

    def test_a_box_read_at_the_latest_update_visits_only_the_box_cells(self, monkeypatch):
        # 2,000 objects over a 20 km square. A write re-buckets the
        # objects whose latest frame it changed, and a read re-buckets
        # none. A read at the last update visits the objects in the cells
        # its box overlaps; an earlier read, or an infinite box, scans
        # every object.
        rng = random.Random(5)
        lat0, lon0 = 47.6, -122.3
        poses = [GeoPose(*enu_to_wgs84(lat0, lon0, rng.uniform(-10_000, 10_000), rng.uniform(-10_000, 10_000),
                                       max_range_m=math.inf)[:2]) for _ in range(2000)]

        def moves(ts, which):
            return [SceneElement(0, ElementKind.Object, f"car-{i}", "vehicle.car", LdmLayer.L4_Dynamic, {},
                                 {ts: FrameRecord(ts, 0, poses[i])}) for i in which]

        rebucketed, visits = [], []
        rebucket = LdmStore._rebucket_locked
        monkeypatch.setattr(LdmStore, "_rebucket_locked",
                            lambda self, entry: rebucketed.append(entry.element.id) or rebucket(self, entry))
        store = LdmStore()
        ids = store.upsert_elements(moves(100, range(2000)))[0]
        assert sorted(rebucketed) == sorted(ids) and len(ids) == 2000
        box = disc_box(lat0, lon0, 300.0)
        cell = store_module._grid_cell
        (i0, j0), (i1, j1) = cell(box.min_lat, box.min_lon), cell(box.max_lat, box.max_lon)
        in_cells = sum(i0 <= i <= i1 and j0 <= j <= j1 for i, j in (cell(p.lat, p.lon) for p in poses))
        inside = sorted(eid for eid, p in zip(ids, poses) if box.contains(p.lat, p.lon))
        contains = GeoBox.contains
        monkeypatch.setattr(GeoBox, "contains", lambda self, lat, lon: visits.append(1) or contains(self, lat, lon))

        def write(ts, i):
            rebucketed.clear()
            poses[i] = GeoPose(lat0, lon0)
            store.upsert_elements(moves(ts, [i]))
            return rebucketed == [ids[i]]

        def read(at, query_box=box):
            rebucketed.clear()
            visits.clear()
            got = sorted(e.element.id for e in store.objects_at(at, query_box))
            assert rebucketed == []
            return got

        assert read(100) == inside and inside
        assert len(visits) == in_cells < 40
        assert read(100) == inside and len(visits) == in_cells
        assert write(200, 7)
        assert read(200) == sorted({*inside, ids[7]})
        assert write(300, 8)
        assert read(299) == sorted({*inside, ids[7]}) and len(visits) == 2000
        assert len(read(300, GeoBox(-90.0, -math.inf, 90.0, math.inf))) == 2000
        assert len(visits) == 2000

    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(["upsert", "merge", "frame", "evict", "restore"]),
                              st.integers(0, 5), st.integers(0, 30)), max_size=40),
           st.sampled_from([None, 1, 2]))
    def test_equals_the_object_entries_of_snapshot(self, ops, cap):
        layers = [LdmLayer.L4_Dynamic, LdmLayer.L3_Transient, LdmLayer.L1_Static]
        store = LdmStore(LdmConfig(ttl_per_layer={
            LdmLayer.L1_Static: math.inf, LdmLayer.L2_QuasiStatic: 30.0,
            LdmLayer.L3_Transient: 10.0, LdmLayer.L4_Dynamic: 4.0,
        }, max_frames_per_element=cap))
        pose = GeoPose(47.6, -122.3)
        for n, (op, i, t) in enumerate(ops):
            kind = ElementKind.Object if i % 2 else ElementKind.Context
            name, layer, ts = f"e-{i}", layers[i % 3], t * US
            if op == "upsert":
                store.upsert_element(SceneElement(0, kind, name, "x", layer, {},
                                                  {ts: FrameRecord(ts, 0, pose, {"v": t})}))
            elif op == "merge":
                store.upsert_element(SceneElement(0, kind, name, "x", layer, {f"s{t}": n}))
            elif op == "frame":
                live = store.elements()
                if live:
                    store.insert_frame(FrameRecord(ts, live[i % len(live)].id, pose, {"v": t}))
            elif op == "evict":
                store.evict_expired(ts)
            else:
                store.upsert_elements([SceneElement(1000 - n, kind, f"r-{n}", "x", layer, {"r": n},
                                                    {ts: FrameRecord(ts, 1000 - n, pose)})],
                                      keep_ids=True)
        for at in sorted({t * US for _, _, t in ops} | {-1, 1 << 62}):
            got = sorted(store.objects_at(at), key=lambda e: e.element.id)
            assert got == [e for e in store.snapshot(at).entries
                           if e.element.kind is ElementKind.Object and e.frame is not None]


class TestStats:
    def test_empty(self):
        stats = LdmStore().stats()
        assert stats.element_count_per_layer == {}
        assert stats.frame_range is None
        assert stats.relation_count == 0

    def test_per_layer_counts(self):
        store = LdmStore()
        store.upsert_element(element("n", kind=ElementKind.Context, sem="road.node",
                                     layer=LdmLayer.L1_Static))
        store.upsert_element(element("a"))
        store.upsert_element(element("b"))
        per_layer = store.stats().element_count_per_layer
        assert per_layer == {LdmLayer.L1_Static: 1, LdmLayer.L4_Dynamic: 2}

    def test_evicted_total_accumulates(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        for i in range(5):
            store.insert_frame(rec(eid, i * US))
        store.evict_expired(100 * US)
        assert store.stats().evicted_total == 5


class TestConfigValidation:
    def test_defaults_are_valid(self):
        validate_config(LdmConfig())

    def test_eviction_period_above_min_ttl_rejected(self):
        cfg = LdmConfig(eviction_period=60.0)  # L4 TTL is 30 s
        with pytest.raises(InvalidConfig):
            validate_config(cfg)

    def test_nonpositive_ttl_rejected(self):
        cfg = LdmConfig()
        cfg.ttl_per_layer[LdmLayer.L3_Transient] = 0.0
        with pytest.raises(InvalidConfig):
            validate_config(cfg)

    def test_finite_l1_ttl_rejected(self):
        # L1 holds the road map; a pass with L1 = 10 s used to evict it
        # from the store while the road graph kept it.
        cfg = LdmConfig()
        cfg.ttl_per_layer[LdmLayer.L1_Static] = 10.0
        with pytest.raises(InvalidConfig, match="L1_Static"):
            validate_config(cfg)

    def test_inverted_filter_rejected(self):
        cfg = LdmConfig(spatial_filter=GeoBox(1.0, 0.0, 0.0, 1.0))
        with pytest.raises(InvalidConfig):
            validate_config(cfg)


class TestProperties:
    def test_snapshot_matches_brute_force_log(self):
        rng = random.Random(7)
        store = LdmStore(LdmConfig(ttl_per_layer={LdmLayer.L4_Dynamic: math.inf}))
        shadow: dict[int, dict[int, FrameRecord]] = {}
        ids = []
        for i in range(8):
            eid = store.upsert_element(element(f"car-{i}"))
            ids.append(eid)
            shadow[eid] = {}
        for eid in ids:
            pairs = sorted(rng.sample(range(1000), rng.randint(0, 30)))
            order = list(pairs)
            rng.shuffle(order)
            for idx in order:
                r = rec(eid, 1000 + idx, attrs={"n": float(idx)})
                store.insert_frame(r)
                shadow[eid][idx] = r
        for at in [999, 1000, 1200, 1500, 2001, 5000]:
            snap = store.snapshot(at)
            for entry in snap.entries:
                log = shadow[entry.element.id]
                eligible = [r for r in log.values() if r.timestamp <= at]
                expected = max(eligible, key=lambda r: r.timestamp, default=None)
                assert entry.frame == expected

    def test_frame_inserts_commute(self):
        rng = random.Random(21)
        records = []
        for eid in range(4):
            for idx in sorted(rng.sample(range(100), 12)):
                records.append(rec(eid, 10_000 + idx, attrs={"v": float(idx)}))

        def build(order):
            store = LdmStore()
            for i in range(4):
                store.upsert_element(element(f"car-{i}"))
            for r in order:
                store.insert_frame(r)
            return store

        base = build(records)
        shuffled = records[:]
        rng.shuffle(shuffled)
        other = build(shuffled)
        assert base.elements() == other.elements()
        for e in base.elements():
            assert base.query_frames(e.id, 0, 1 << 62) == other.query_frames(e.id, 0, 1 << 62)

    def test_random_insert_evict_preserves_integrity(self):
        rng = random.Random(42)
        cfg = LdmConfig(ttl_per_layer={
            LdmLayer.L1_Static: math.inf,
            LdmLayer.L2_QuasiStatic: 500.0,
            LdmLayer.L3_Transient: 60.0,
            LdmLayer.L4_Dynamic: 20.0,
        }, eviction_period=10.0)
        store = LdmStore(cfg)
        layers = [LdmLayer.L1_Static, LdmLayer.L2_QuasiStatic, LdmLayer.L3_Transient,
                  LdmLayer.L4_Dynamic]
        ids = [store.upsert_element(element(f"e-{i}", layer=layers[i % 4],
                                            kind=ElementKind.Object))
               for i in range(12)]
        last_ts = {eid: -1 for eid in ids}
        now = 0
        for step in range(2000):
            action = rng.random()
            if action < 0.6:
                eid = rng.choice(ids)
                if eid in {e.id for e in store.elements()}:
                    ts = max(last_ts[eid] + 1, now + rng.randint(0, 5))
                    last_ts[eid] = ts
                    store.insert_frame(rec(eid, ts))
            elif action < 0.8:
                live = [e.id for e in store.elements()]
                if len(live) >= 2:
                    a, b = rng.sample(live, 2)
                    store.add_relation(Relation(a, "near", b))
            else:
                now += rng.randint(1, 40) * US
                store.evict_expired(now)
                assert store.evict_expired(now) == 0  # idempotent
            # Referential integrity after every step.
            live_ids = {e.id for e in store.elements()}
            for rel in store.relations():
                assert rel.subject in live_ids and rel.object in live_ids
        # After a final eviction no frame is older than its layer TTL.
        now += 1000 * US
        store.evict_expired(now)
        for e in store.elements():
            ttl = cfg.ttl_us(e.layer)
            for f in store.query_frames(e.id, 0, 1 << 62):
                if math.isfinite(ttl):
                    assert now - f.timestamp <= ttl


class TestLocking:
    def test_reentrant_write_and_read_within_write(self):
        store = LdmStore()
        with store.write_lock():
            eid = store.upsert_element(element("car-7"))
            store.insert_frame(rec(eid, 100))
            assert store.get_element(eid).name == "car-7"

    def test_parallel_readers_and_writers_make_progress(self):
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        errors = []

        def writer():
            try:
                for i in range(200):
                    store.insert_frame(rec(eid, 1000 + i))
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        def reader():
            try:
                for _ in range(200):
                    # Nested reads under one hold see one store state.
                    with store.read_lock():
                        frames = len(store.query_frames(eid, 0, 1 << 62))
                        store.snapshot(10_000)
                        assert store.stats().frame_count == frames
            except Exception as exc:  # pragma: no cover
                errors.append(exc)

        threads = [threading.Thread(target=f, daemon=True) for f in (writer, reader, reader, reader)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            deadline = time.monotonic() + 30
            for t in threads:
                t.join(timeout=max(0.0, deadline - time.monotonic()))
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        assert len(store.query_frames(eid, 0, 1 << 62)) == 200

    def test_nested_read_returns_while_a_writer_waits(self):
        # Thread "a" holds the read side, a writer queues behind it, then
        # "a" reads again: that read must not wait for the writer, which
        # waits for "a". A reader that arrives after the writer still
        # waits for it.
        store = LdmStore()
        eid = store.upsert_element(element("car-7"))
        store.insert_frame(rec(eid, 100))
        order = []
        holding = threading.Event()

        def writer_queued():
            deadline = time.monotonic() + 10
            while store._lock._waiting_writers == 0 and time.monotonic() < deadline:
                time.sleep(0.001)
            return store._lock._waiting_writers == 1

        def reader_a():
            with store.read_lock():
                holding.set()
                if writer_queued():
                    store.stats()
                    order.append("a nested read")

        def writer():
            holding.wait(10)
            store.evict_expired(100 + 3600 * US)
            order.append("write")

        def reader_b():
            store.stats()
            order.append("b read")

        a, w, b = (threading.Thread(target=f, daemon=True) for f in (reader_a, writer, reader_b))
        a.start()
        w.start()
        assert writer_queued()
        b.start()
        for t in (a, w, b):
            t.join(timeout=10)
        assert not any(t.is_alive() for t in (a, w, b))
        assert order == ["a nested read", "write", "b read"]
