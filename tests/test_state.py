import random

import pytest

import oracles
from conftest import chain_xml, offset_point, random_osm, random_scene
from ldm.api import LocalDynamicMap
from ldm.errors import FileError
from ldm.model import ElementKind, Relation
from ldm.roadnet import map_match
from ldm.state import SCENE_FILE, load_state, save_state

T0 = 1_700_000_000_000_000


def test_missing_dir_yields_fresh_instance(tmp_path):
    ldm = load_state(tmp_path / "nope")
    assert ldm.store.elements() == []
    assert ldm.road_graph is None


def test_round_trip_preserves_everything(tmp_path, rng):
    ldm = LocalDynamicMap()
    ldm.load_map(chain_xml(n=4))
    ldm.add_objects(random_scene(rng, max_objects=8, max_frames=12, base_ts=T0))
    car = next(e for e in ldm.store.elements() if e.kind is ElementKind.Object)
    way = ldm.store.find_element(ElementKind.Context, "1", "road.way")
    ldm.store.add_relation(Relation(car.id, "isOnWay", way.id))

    save_state(ldm, tmp_path)
    assert (tmp_path / SCENE_FILE).exists()
    back = load_state(tmp_path)

    assert back.store.elements() == ldm.store.elements()
    for e in ldm.store.elements():
        assert back.store.query_frames(e.id, 0, 1 << 62) == ldm.store.query_frames(e.id, 0, 1 << 62)
    assert sorted(r.key() for r in back.store.relations()) == \
        sorted(r.key() for r in ldm.store.relations())
    assert list(back.road_graph.nodes.items()) == list(ldm.road_graph.nodes.items())
    assert list(back.road_graph.ways.items()) == list(ldm.road_graph.ways.items())
    assert back.road_graph.adjacency == ldm.road_graph.adjacency
    assert back.store.stats().last_update == ldm.store.stats().last_update
    # New elements keep getting fresh ids after reload.
    new_id = back.store.upsert_element(ldm.store.elements()[0].__class__(
        0, ElementKind.Object, "brand-new", "vehicle.car",
        ldm.store.elements()[0].layer,
    ))
    assert new_id == max(e.id for e in ldm.store.elements()) + 1


def test_counters_survive(tmp_path):
    ldm = LocalDynamicMap()
    ldm.add_objects({"openlabel": {
        "metadata": {},
        "objects": {"0": {"name": "car", "type": "vehicle.car"}},
        "frames": {"0": {"timestamp": T0, "objects": {"0": {}}}},
    }})
    ldm.store.evict_expired(T0 + 60_000_000)
    evicted = ldm.store.stats().evicted_total
    assert evicted == 1
    save_state(ldm, tmp_path)
    back = load_state(tmp_path)
    assert back.store.stats().evicted_total == evicted


def _one_object(name):
    return {"openlabel": {
        "metadata": {},
        "objects": {"0": {"name": name, "type": "vehicle.car"}},
        "frames": {"0": {"timestamp": T0, "objects": {"0": {}}}},
    }}


def test_failed_save_leaves_the_previous_state_whole(tmp_path, monkeypatch):
    ldm = LocalDynamicMap()
    ldm.load_map(chain_xml(n=4))
    ldm.add_objects(_one_object("a"))
    save_state(ldm, tmp_path)

    def unwritable(graph):
        raise OSError("no space left on device")

    ldm.add_objects(_one_object("b"))
    monkeypatch.setattr("ldm.state._graph_to_json", unwritable)
    with pytest.raises(FileError):
        save_state(ldm, tmp_path)
    monkeypatch.undo()

    back = load_state(tmp_path)
    assert [e.name for e in back.store.elements() if e.kind is ElementKind.Object] == ["a"]
    assert list(back.road_graph.ways.items()) == list(ldm.road_graph.ways.items())


def test_second_load_map_and_reload_keep_the_match_index(tmp_path):
    ldm = LocalDynamicMap()
    ldm.load_map(chain_xml(n=5, spacing_m=400.0, way_id=7))
    # Moves nodes 1-5 (so way 7) and adds ways 100-111.
    ldm.load_map(random_osm(random.Random(4), n_ways=12, spread_m=1500.0))
    save_state(ldm, tmp_path)
    back = load_state(tmp_path)
    rng = random.Random(5)
    nodes = list(ldm.road_graph.nodes.values())
    matched = 0
    for _ in range(400):
        node = rng.choice(nodes)
        lat, lon = offset_point(rng.uniform(-80, 80), rng.uniform(-80, 80), node.lat, node.lon)
        expected = oracles.match_point(ldm.road_graph, lat, lon)
        for graph in (ldm.road_graph, back.road_graph):
            m = map_match(graph, lat, lon)
            assert (None if m is None else (m.way_id, m.segment_index, m.distance_m)) == expected
        matched += expected is not None and expected[0] == 7
    assert matched > 0
