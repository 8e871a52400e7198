import json
import logging
import math
from pathlib import Path

import pytest

from conftest import chain_xml, offset_point, osm_xml
from ldm.cli import main, parse_config_text
from ldm.errors import InvalidConfig
from ldm.geo import GeoBox
from ldm.model import LdmLayer
from ldm.state import SCENE_FILE, load_state

T0 = 1_700_000_000_000_000


def scene_doc():
    lat_e, lon_e = offset_point(150.0, 2.0)
    lat_c, lon_c = offset_point(160.0, 2.0)
    return {
        "openlabel": {
            "metadata": {},
            "objects": {
                "0": {"name": "ego", "type": "vehicle.car"},
                "1": {"name": "car-a", "type": "vehicle.car"},
            },
            "frames": {
                "0": {
                    "timestamp": T0,
                    "objects": {
                        "0": {"pose": {"lat": lat_e, "lon": lon_e, "heading": 90.0}},
                        "1": {"pose": {"lat": lat_c, "lon": lon_c, "speed": 0.0}},
                    },
                }
            },
        }
    }


@pytest.fixture
def workspace(tmp_path):
    osm = tmp_path / "map.osm"
    osm.write_bytes(chain_xml(n=5, spacing_m=100.0))
    scene = tmp_path / "scene.json"
    scene.write_text(json.dumps(scene_doc()), encoding="utf-8")
    db = tmp_path / "db"
    return {"osm": osm, "scene": scene, "db": str(db), "tmp": tmp_path}


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestConfigFile:
    def test_parse_full_config(self):
        cfg = parse_config_text(
            "# comment\n"
            "ttl.l1 = inf\n"
            "ttl.l4 = 12\n"
            "eviction_period = 2\n"
            "spatial_filter = 40.0,-130.0,50.0,-110.0\n"
            "max_frames_per_element = 9\n"
        )
        assert cfg.ttl_per_layer[LdmLayer.L1_Static] == math.inf
        assert cfg.ttl_per_layer[LdmLayer.L4_Dynamic] == 12.0
        assert cfg.eviction_period == 2.0
        assert cfg.spatial_filter == GeoBox(40.0, -130.0, 50.0, -110.0)
        assert cfg.max_frames_per_element == 9

    def test_unknown_key_rejected(self):
        with pytest.raises(InvalidConfig):
            parse_config_text("nonsense = 1\n")

    def test_invariants_checked(self):
        with pytest.raises(InvalidConfig):
            parse_config_text("ttl.l4 = 5\neviction_period = 10\n")


class TestInfo:
    def test_fresh_state_all_zero(self, capsys, workspace):
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "info")
        assert code == 0
        rows = [json.loads(line) for line in out.splitlines()]
        values = {r["name"]: r["value"] for r in rows}
        assert values["elements.total"] == 0
        assert values["relations.total"] == 0
        assert values["evicted.total"] == 0

    def test_pretty_variant(self, capsys, workspace):
        code, out, _ = run_cli(capsys, "info", "--pretty")
        assert code == 0
        assert "elements.total" in out


class TestLoadMapAndIngest:
    def test_load_map_counts_and_persistence(self, capsys, workspace):
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "load-map", str(workspace["osm"]))
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"nodes": 5, "ways": 1}
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "info")
        values = {r["name"]: r["value"] for r in map(json.loads, out.splitlines())}
        assert values["elements.L1"] == 6

    def test_load_map_warns_only_about_its_own_file(self, capsys, workspace):
        nodes = [(n, *offset_point(100.0 * n, 0.0)) for n in (1, 2)]
        road = {"highway": "residential"}
        dirty = workspace["tmp"] / "a.osm"
        dirty.write_bytes(osm_xml(nodes, [(9, [1, 2], road), (10, [1, 404], road)]))
        clean = workspace["tmp"] / "b.osm"
        clean.write_bytes(osm_xml(nodes, [(11, [2, 1], road)]))
        code, _, err = run_cli(capsys, "--db", workspace["db"], "load-map", str(dirty))
        assert code == 0 and "way 10" in err
        code, out, err = run_cli(capsys, "--db", workspace["db"], "load-map", str(clean))
        assert code == 0 and err == ""
        assert json.loads(out.splitlines()[-1]) == {"nodes": 2, "ways": 1}
        assert sorted(load_state(workspace["db"]).road_graph.ways) == [9, 11]

    def test_ingest_counts(self, capsys, workspace):
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "ingest", str(workspace["scene"]))
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"elements": 2, "frames": 2, "relations": 0}

    def test_ingest_cpm_file(self, capsys, workspace):
        cpm = {
            "station_id": 7,
            "generation_time": T0,
            "reference_position": {"lat": 47.6, "lon": -122.3},
            "perceived_objects": [],
        }
        path = workspace["tmp"] / "cpm.json"
        path.write_text(json.dumps(cpm), encoding="utf-8")
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "ingest", str(path))
        assert code == 0
        assert json.loads(out.splitlines()[-1])["elements"] == 1

    def test_missing_file_is_domain_error(self, capsys, workspace):
        code, _, err = run_cli(capsys, "ingest", "/no/such/file.json")
        assert code == 1
        assert "error:" in err


class TestQueryCommand:
    def seed(self, capsys, workspace):
        run_cli(capsys, "--db", workspace["db"], "load-map", str(workspace["osm"]))
        run_cli(capsys, "--db", workspace["db"], "ingest", str(workspace["scene"]))

    @staticmethod
    def ego_id(workspace):
        from ldm.model import ElementKind

        ldm = load_state(workspace["db"])
        return ldm.store.find_element(ElementKind.Object, "ego", "vehicle.car").id

    def test_objects_within_matches_library(self, capsys, workspace):
        self.seed(capsys, workspace)
        ego = self.ego_id(workspace)
        code, out, _ = run_cli(
            capsys, "--db", workspace["db"], "query", "objects-within",
            "--ego", str(ego), "--radius", "100", "--at", str(T0),
        )
        assert code == 0
        ldm = load_state(workspace["db"])
        expected = [json.dumps(r.to_json(), ensure_ascii=False)
                    for r in ldm.objects_within(ego, 100.0, T0)]
        assert out.splitlines() == expected
        assert len(expected) == 1

    def test_next_road_nodes_lines(self, capsys, workspace):
        self.seed(capsys, workspace)
        ego = self.ego_id(workspace)
        code, out, _ = run_cli(
            capsys, "--db", workspace["db"], "query", "next-road-nodes",
            "--ego", str(ego), "--k", "2", "--at", str(T0),
        )
        assert code == 0
        assert [json.loads(x) for x in out.splitlines()] == [3, 4]

    def test_stationary_and_near_node(self, capsys, workspace):
        self.seed(capsys, workspace)
        code, out, _ = run_cli(
            capsys, "--db", workspace["db"], "query", "objects-near-node",
            "--node", "2", "--radius", "200", "--at", str(T0),
        )
        assert code == 0
        assert len(out.splitlines()) == 2
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "query", "stationary",
                               "--at", str(T0))
        assert code == 0
        assert out.splitlines() == []  # single frame each: no evidence

    def test_info_matches_library(self, capsys, workspace):
        self.seed(capsys, workspace)
        code, out, _ = run_cli(capsys, "--db", workspace["db"], "info")
        assert code == 0
        expected = [json.dumps({"name": n, "value": v}, ensure_ascii=False)
                    for n, v in load_state(workspace["db"]).get_info()]
        assert out.splitlines() == expected

    def test_export_matches_library_bytes(self, capsys, workspace):
        self.seed(capsys, workspace)
        cli_out = workspace["tmp"] / "cli.json"
        code, _, _ = run_cli(capsys, "--db", workspace["db"], "export",
                             "--from", str(T0), "--to", str(T0 + 1),
                             "--out", str(cli_out))
        assert code == 0
        lib_out = workspace["tmp"] / "lib.json"
        load_state(workspace["db"]).export(T0, T0 + 1, lib_out)
        assert cli_out.read_bytes() == lib_out.read_bytes()

    def test_bogus_query_name_is_usage_error(self, capsys, workspace):
        code, _, err = run_cli(capsys, "query", "bogus")
        assert code == 2
        assert "usage" in err

    def test_missing_flag_is_domain_error(self, capsys, workspace):
        self.seed(capsys, workspace)
        code, _, err = run_cli(capsys, "--db", workspace["db"], "query", "objects-within")
        assert code == 1
        assert "--ego" in err

    def test_unknown_flag_rejected(self, capsys, workspace):
        code, _, err = run_cli(capsys, "info", "--bogus-flag")
        assert code == 2


class TestExportCommand:
    def test_export_writes_deterministic_file(self, capsys, workspace):
        run_cli(capsys, "--db", workspace["db"], "ingest", str(workspace["scene"]))
        out_a = workspace["tmp"] / "a.json"
        out_b = workspace["tmp"] / "b.json"
        for out_path in (out_a, out_b):
            code, out, _ = run_cli(
                capsys, "--db", workspace["db"], "export",
                "--from", str(T0), "--to", str(T0 + 1), "--out", str(out_path),
            )
            assert code == 0
            assert json.loads(out.splitlines()[-1])["frames"] == 2
        assert out_a.read_bytes() == out_b.read_bytes()


class TestServeCommand:
    def test_bind_error_exits_one(self, capsys, workspace):
        import socket

        blocker = socket.socket()
        blocker.bind(("127.0.0.1", 0))
        port = blocker.getsockname()[1]
        try:
            code, _, err = run_cli(capsys, "serve", "--listen", f"127.0.0.1:{port}")
        finally:
            blocker.close()
        assert code == 1
        assert "bind" in err.lower()

    def test_sigterm_saves_state(self, workspace):
        import re
        import signal
        import socket
        import subprocess
        import sys
        import time

        proc = subprocess.Popen(
            [sys.executable, "-m", "ldm.cli", "--db", workspace["db"],
             "serve", "--listen", "127.0.0.1:0", "--no-evict"],
            stderr=subprocess.PIPE, text=True,
        )
        try:
            line = proc.stderr.readline()
            port = int(re.search(r":(\d+)$", line.strip()).group(1))
            cpm = {"station_id": 5, "generation_time": T0,
                   "reference_position": {"lat": 47.6, "lon": -122.3},
                   "perceived_objects": []}
            with socket.create_connection(("127.0.0.1", port), timeout=10) as sock:
                sock.sendall((json.dumps({"type": "cpm", "payload": cpm}) + "\n").encode())
                ack = json.loads(sock.makefile("rb").readline())
            assert ack["ok"] is True
            proc.send_signal(signal.SIGTERM)
            assert proc.wait(timeout=15) == 0
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        back = load_state(workspace["db"])
        from ldm.model import ElementKind

        assert back.store.find_element(ElementKind.Object, "station-5", "v2x.station") is not None


    def test_a_dead_acceptor_saves_state_and_exits_non_zero(self, workspace, monkeypatch, caplog):
        from ldm import feed

        monkeypatch.setattr(feed.FeedServer, "_accept_loop", lambda self: None)
        with caplog.at_level(logging.ERROR, logger="ldm"):
            code = main(["--db", workspace["db"], "serve", "--listen", "127.0.0.1:0", "--no-evict"])
        assert code == 1
        assert any("acceptor" in r.getMessage() for r in caplog.records if r.name == "ldm")
        assert (Path(workspace["db"]) / SCENE_FILE).exists()  # saved as on a clean shutdown


class TestConfigFlag:
    def test_spatial_filter_from_config_drops_frames(self, capsys, workspace):
        cfg = workspace["tmp"] / "ldm.conf"
        cfg.write_text("spatial_filter = 10.0,10.0,11.0,11.0\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "--config", str(cfg), "--db", workspace["db"],
            "ingest", str(workspace["scene"]),
        )
        assert code == 0
        assert json.loads(out.splitlines()[-1]) == {"elements": 2, "frames": 0, "relations": 0}

    def test_bad_config_exits_one(self, capsys, workspace):
        cfg = workspace["tmp"] / "bad.conf"
        cfg.write_text("ttl.l4 = -1\n", encoding="utf-8")
        code, _, err = run_cli(capsys, "--config", str(cfg), "info")
        assert code == 1
        assert "ttl" in err


class TestPrettyOutput:
    def test_pretty_query_renders_table(self, capsys, workspace):
        run_cli(capsys, "--db", workspace["db"], "ingest", str(workspace["scene"]))
        from ldm.model import ElementKind

        ego = load_state(workspace["db"]).store.find_element(
            ElementKind.Object, "ego", "vehicle.car").id
        code, out, _ = run_cli(
            capsys, "--db", workspace["db"], "query", "objects-within",
            "--ego", str(ego), "--radius", "100", "--at", str(T0), "--pretty",
        )
        assert code == 0
        assert "car-a" in out and "name" in out


class TestReplayCommand:
    def test_replay_summary(self, capsys, workspace):
        lines = []
        for i in range(5):
            cpm = {
                "station_id": 9,
                "generation_time": T0 + i * 1_000_000,
                "reference_position": {"lat": 47.6, "lon": -122.3},
                "perceived_objects": [],
            }
            lines.append(json.dumps({"offset_ms": 0, "type": "cpm", "payload": cpm}))
        scenario = workspace["tmp"] / "scenario.ndjson"
        scenario.write_text("\n".join(lines) + "\n", encoding="utf-8")
        code, out, _ = run_cli(
            capsys, "--db", workspace["db"], "replay", str(scenario), "--speed", "inf",
        )
        assert code == 0
        summary = json.loads(out.splitlines()[-1])
        assert summary["messages"] == 5
        assert summary["committed"] == 5
        assert summary["errors"] == 0
