import json
import random
from pathlib import Path

import pytest

import oracles
from conftest import chain_xml, offset_point, osm_xml, random_osm, random_scene
from ldm.api import LocalDynamicMap
from ldm.errors import FileError, InvalidElement
from ldm.model import ElementKind, FrameRecord, Relation
from ldm.roadnet import graph_from_store, map_match
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

    def half_written(path, text, encoding=None):
        with open(path, "w", encoding=encoding) as f:
            f.write(text[: len(text) // 2])
        raise OSError("no space left on device")

    ldm.add_objects(_one_object("b"))
    monkeypatch.setattr(Path, "write_text", half_written)
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
    assert_graph_is_the_stores(back)
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


def assert_graph_is_the_stores(ldm):
    derived = graph_from_store(ldm.store)
    assert list(ldm.road_graph.nodes.items()) == list(derived.nodes.items())
    assert list(ldm.road_graph.ways.items()) == list(derived.ways.items())
    assert ldm.road_graph.adjacency == derived.adjacency


def test_graph_is_the_stores_after_each_load_and_reload(tmp_path):
    nodes = [(n, *offset_point(100.0 * n, 0.0)) for n in (1, 2, 3, 4)]
    ldm = LocalDynamicMap()
    ldm.load_map(osm_xml(nodes, [(9, [1, 2, 3], {"highway": "residential", "name": "Main"}),
                                 (5, [3, 4], {"highway": "primary"})]))
    assert_graph_is_the_stores(ldm)
    # Moves node 2, reroutes way 9 and drops its name tag: the tag merges
    # like any static, so it stays.
    moved = [(1, *offset_point(100.0, 0.0)), (2, *offset_point(200.0, 50.0)), (4, *offset_point(400.0, 0.0))]
    ldm.load_map(osm_xml(moved, [(9, [1, 2, 4], {"highway": "primary", "oneway": "yes"})]))
    assert_graph_is_the_stores(ldm)
    assert ldm.road_graph.nodes[2].lat == moved[1][1]
    way = ldm.road_graph.ways[9]
    assert (way.node_refs, way.oneway) == ([1, 2, 4], True)
    assert way.tags == {"highway": "primary", "name": "Main", "oneway": "yes"}
    assert sorted(ldm.road_graph.ways) == [5, 9]

    save_state(ldm, tmp_path)
    back = load_state(tmp_path)
    assert_graph_is_the_stores(back)
    assert list(back.road_graph.ways.items()) == list(ldm.road_graph.ways.items())
    assert back.road_graph.adjacency == ldm.road_graph.adjacency


def test_unreadable_road_contexts_stay_out_of_the_graph(tmp_path):
    ldm = LocalDynamicMap()
    ldm.add_objects({"openlabel": {"metadata": {}, "objects": {}, "contexts": {
        "0": {"name": "77", "type": "road.node", "layer": "L1"},
        "1": {"name": "007", "type": "road.node", "layer": "L1", "static": {"lat": 47.6, "lon": -122.3}},
        "2": {"name": "500", "type": "road.way", "layer": "L1",
              "static": {"node_refs": [1, 999], "oneway": False}},
        "3": {"name": "501", "type": "road.way", "layer": "L1",
              "static": {"node_refs": [1, 2], "oneway": "no"}},
        "4": {"name": "78", "type": "road.node", "layer": "L3", "static": {"lat": 47.6, "lon": -122.3}},
    }}})
    assert graph_from_store(ldm.store) is None
    for _ in range(2):
        assert ldm.load_map(chain_xml(n=3)) == (3, 1)
        assert sorted(ldm.road_graph.nodes) == [1, 2, 3]
        assert sorted(ldm.road_graph.ways) == [1]
        assert_graph_is_the_stores(ldm)
    save_state(ldm, tmp_path)
    back = load_state(tmp_path)
    assert back.store.elements() == ldm.store.elements()
    assert_graph_is_the_stores(back)
    assert list(back.road_graph.ways.items()) == list(ldm.road_graph.ways.items())


def test_static_and_dynamic_name_in_the_file_raises(tmp_path):
    (tmp_path / SCENE_FILE).write_text(json.dumps({"openlabel": {
        "metadata": {},
        "objects": {"0": {"name": "car", "type": "vehicle.car", "layer": "L4", "static": {"color": "red"}}},
        "frames": {str(T0): {"timestamp": T0, "objects": {"0": {"data": {"color": "blue"}}}}},
    }}), encoding="utf-8")
    with pytest.raises(InvalidElement, match="attribute overlap: color"):
        load_state(tmp_path)


def test_stale_map_and_meta_files_are_ignored(tmp_path):
    ldm = LocalDynamicMap()
    ldm.load_map(chain_xml(n=4))
    ldm.add_objects(_one_object("a"))
    save_state(ldm, tmp_path)
    stale_map = json.dumps({"nodes": [[1, 0.0, 0.0], [2, 1.0, 1.0]],
                            "ways": [{"id": 1, "refs": [1, 2], "tags": {}, "oneway": False}]})
    (tmp_path / "map.json").write_text(stale_map, encoding="utf-8")
    (tmp_path / "meta.json").write_text('{"next_id": 999, "last_update": 1, "evicted_total": 7}',
                                        encoding="utf-8")
    back = load_state(tmp_path)
    assert list(back.road_graph.nodes.items()) == list(ldm.road_graph.nodes.items())
    assert back.store.stats() == ldm.store.stats()
    save_state(back, tmp_path)
    assert (tmp_path / "map.json").read_text(encoding="utf-8") == stale_map
    assert sorted(p.name for p in tmp_path.iterdir()) == ["map.json", "meta.json", SCENE_FILE]


def test_reload_does_not_reuse_the_ids_of_evicted_elements(tmp_path):
    ldm = LocalDynamicMap()
    ldm.add_objects(_one_object("a"))
    ldm.add_objects(_one_object("b"))
    a = ldm.store.find_element(ElementKind.Object, "a", "vehicle.car").id
    ldm.store.insert_frame(FrameRecord(T0 + 100_000_000, a))
    ldm.store.evict_expired(T0 + 60_000_000)
    assert [e.name for e in ldm.store.elements()] == ["a"]
    assert ldm.store.stats().next_id == 2
    save_state(ldm, tmp_path)
    back = load_state(tmp_path)
    assert back.store.stats().next_id == 2
    assert back.add_objects(_one_object("c")).elements == 1
    assert back.store.find_element(ElementKind.Object, "c", "vehicle.car").id == 2
