"""The per-line object graph holds no reference cycles: with the cyclic
collector off, refcounting alone frees everything the wire paths, the
queries, an archiving eviction pass and a state reload leave behind."""

import gc
import json

from conftest import chain_xml, offset_point
from ldm.api import LocalDynamicMap
from ldm.feed import handle_line
from ldm.model import ElementKind
from ldm.state import load_state, save_state
from ldm.store import LdmConfig

T0 = 1_700_000_000_000_000
US = 1_000_000


def _cpm_line(ts, lat=None):
    ref_lat, ref_lon = offset_point(150.0, 5.0)
    doc = {
        "station_id": 7,
        "generation_time": ts,
        "reference_position": {"lat": ref_lat if lat is None else lat, "lon": ref_lon, "speed": 0.0},
        "perceived_objects": [
            {"object_id": i, "x_distance": 1000 * i, "y_distance": -300, "object_class": "vehicle",
             "confidence": 90}
            for i in range(4)
        ],
    }
    return json.dumps({"type": "cpm", "payload": doc})


def _openlabel_line(ts, name="probe-1"):
    lat, lon = offset_point(250.0, -4.0)
    doc = {"openlabel": {
        "objects": {"0": {"name": name, "type": "vehicle.car", "static": {"w": 1.8}}},
        "contexts": {"3": {"name": "sign-1", "type": "sign.stop", "layer": "L2"}},
        "frames": {
            "0": {"timestamp": ts, "objects": {"0": {"pose": {"lat": lat, "lon": lon}, "data": {"q": 1}}}},
            "1": {"timestamp": ts + US, "objects": {"0": {"pose": {"lat": lat, "lon": lon}}},
                  "contexts": {"3": {"data": {"state": "on"}}}},
        },
        "relations": [{"subject": 0, "predicate": "sees", "object": 3, "frame_span": [0, 2]}],
    }}
    return json.dumps({"type": "openlabel", "payload": doc})


GOOD_LINES = [_cpm_line(T0), _openlabel_line(T0), _cpm_line(T0 + 2 * US), _openlabel_line(T0 + 2 * US)]
BAD_LINES = [
    b"{not json",
    b"\xff\xfe{{{nope",
    json.dumps({"type": "cpm", "payload": {}}),
    _openlabel_line(T0, name=""),
    _cpm_line(T0, lat=95.0),
]


def test_wire_paths_queries_eviction_and_reload_leave_no_cycles(tmp_path):
    saved = LocalDynamicMap()
    saved.load_map(chain_xml())
    for line in GOOD_LINES:
        handle_line(saved, line)
    # save_state and export stay outside the guard: the stdlib's
    # pure-Python indented JSON encoder leaves its closure cells and
    # functions in cycles on every call.
    save_state(saved, tmp_path / "state")
    ldm = LocalDynamicMap(LdmConfig(archive_dir=str(tmp_path / "archive")))
    ldm.load_map(chain_xml())

    gc.collect()
    gc.disable()
    try:
        assert [handle_line(ldm, line)["ok"] for line in GOOD_LINES] == [True] * len(GOOD_LINES)
        assert [handle_line(ldm, line)["ok"] for line in BAD_LINES] == [False] * len(BAD_LINES)

        at = T0 + 2 * US
        ego = ldm.store.find_element(ElementKind.Object, "station-7", "v2x.station").id
        assert ldm.objects_within(ego, 500.0, at)
        ldm.objects_on_same_way(ego, at)
        ldm.stationary_objects(at, 5.0)
        assert ldm.next_road_nodes(ego, 2, at)
        assert ldm.objects_near_node(3, 500.0, at)
        assert ldm.store.evict_expired(T0 + 100 * US) > 0
        assert list((tmp_path / "archive").glob("evicted-*.json"))
        assert load_state(tmp_path / "state").store.elements() == saved.store.elements()
        found = gc.collect()
    finally:
        gc.enable()
    assert found == 0
