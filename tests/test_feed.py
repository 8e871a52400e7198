import errno
import io
import json
import logging
import math
import os
import random
import socket
import threading

import pytest

from conftest import random_cpm
import ldm.feed as feed
from ldm.api import LocalDynamicMap
from ldm.errors import FileError
from ldm.feed import FeedServer, handle_line, replay, serve

T0 = 1_700_000_000_000_000


def cpm_line(rng=None, **kw):
    doc = random_cpm(rng or random.Random(0), **kw)
    return json.dumps({"type": "cpm", "payload": doc})


def scenario_text(n=10, step_ms=0, rng_seed=8):
    rng = random.Random(rng_seed)
    lines = []
    for i in range(n):
        doc = random_cpm(rng, n_objects=3, station_id=77, base_ts=T0 + i * 1_000_000)
        doc["generation_time"] = T0 + i * 1_000_000
        lines.append(json.dumps({"offset_ms": i * step_ms, "type": "cpm", "payload": doc}))
    return "\n".join(lines) + "\n"


class SocketClient:
    def __init__(self, host, port):
        self.sock = socket.create_connection((host, port), timeout=10)
        self.file = self.sock.makefile("rb")

    def send_line(self, text):
        self.sock.sendall(text.encode("utf-8") + b"\n")
        return json.loads(self.file.readline())

    def close(self):
        self.file.close()
        self.sock.close()


class TestHandleLine:
    def test_valid_cpm_commits(self):
        ldm = LocalDynamicMap()
        response = handle_line(ldm, cpm_line(n_objects=2))
        assert response["ok"] is True
        assert response["committed"]["elements"] == 3

    def test_garbage_is_isolated(self):
        ldm = LocalDynamicMap()
        response = handle_line(ldm, b"\xff\xfe{{{nope")
        assert response["ok"] is False
        assert "error" in response

    def test_unknown_type_rejected(self):
        ldm = LocalDynamicMap()
        response = handle_line(ldm, json.dumps({"type": "cam", "payload": {}}))
        assert response["ok"] is False


class TestServer:
    def test_valid_line_acked_and_store_updated(self):
        ldm = LocalDynamicMap()
        with serve("127.0.0.1", 0, ldm) as server:
            client = SocketClient(server.host, server.port)
            ack = client.send_line(cpm_line(n_objects=2, station_id=4))
            client.close()
        assert ack["ok"] is True
        assert ack["committed"]["frames"] == 3
        names = {e.name for e in ldm.store.elements()}
        assert "station-4" in names

    def test_garbage_line_does_not_kill_connection(self):
        ldm = LocalDynamicMap()
        with serve("127.0.0.1", 0, ldm) as server:
            client = SocketClient(server.host, server.port)
            bad = client.send_line("not json at all")
            good = client.send_line(cpm_line(n_objects=1))
            client.close()
        assert bad["ok"] is False
        assert good["ok"] is True

    def test_oversized_line_is_rejected_but_survivable(self):
        ldm = LocalDynamicMap()
        with serve("127.0.0.1", 0, ldm) as server:
            client = SocketClient(server.host, server.port)
            huge = '{"type":"cpm","payload":{"x":"' + "a" * (1 << 20) + '"}}'
            bad = client.send_line(huge)
            good = client.send_line(cpm_line(n_objects=1))
            client.close()
        assert bad["ok"] is False
        assert "exceeds" in bad["error"]
        assert good["ok"] is True

    def test_concurrent_clients_all_commit(self):
        ldm = LocalDynamicMap()
        per_client = 20
        with serve("127.0.0.1", 0, ldm) as server:
            def run(station):
                client = SocketClient(server.host, server.port)
                rng = random.Random(station)
                for i in range(per_client):
                    doc = random_cpm(rng, n_objects=2, station_id=station,
                                     base_ts=T0 + i * 1_000_000)
                    doc["generation_time"] = T0 + i * 1_000_000
                    ack = client.send_line(json.dumps({"type": "cpm", "payload": doc}))
                    assert ack["ok"] is True
                client.close()

            threads = [threading.Thread(target=run, args=(s,)) for s in (1, 2, 3)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        # 3 stations x (1 station element + 2 objects)
        assert len(ldm.store.elements()) == 9
        stats = ldm.store.stats()
        assert stats.frame_count == 3 * per_client * 3

    def test_bind_error_on_taken_port(self):
        ldm = LocalDynamicMap()
        with serve("127.0.0.1", 0, ldm) as server:
            from ldm.errors import BindError

            with pytest.raises(BindError):
                FeedServer("127.0.0.1", server.port, ldm)

    def test_close_joins_a_handler_whose_start_is_held(self, monkeypatch):
        # The handler's start() is held until close() has begun. Without
        # ordering between the two, close() may join a thread that was
        # never started; repeated because that race is timing-dependent.
        for _ in range(30):
            server = serve("127.0.0.1", 0, LocalDynamicMap())
            entered = threading.Event()

            class HeldThread(threading.Thread):
                def start(self):
                    entered.set()
                    server._stopping.wait(5.0)
                    super().start()

            monkeypatch.setattr(feed.threading, "Thread", HeldThread)
            client = socket.create_connection((server.host, server.port), timeout=10)
            try:
                assert entered.wait(5.0)
                server.close()
                assert not any(h.is_alive() for h in server._handlers)
            finally:
                client.close()
                monkeypatch.undo()

    def test_finished_handlers_are_dropped(self):
        with serve("127.0.0.1", 0, LocalDynamicMap()) as server:
            for station in range(50):
                client = SocketClient(server.host, server.port)
                assert client.send_line(cpm_line(n_objects=1, station_id=station))["ok"] is True
                client.close()
            assert len(server._handlers) < 10


class FlakyListener:
    """A listening socket whose first accept() fails as if the process
    were out of file descriptors."""

    def __init__(self, sock):
        self._sock = sock
        self.failed = False

    def accept(self):
        if not self.failed:
            self.failed = True
            raise OSError(errno.EMFILE, os.strerror(errno.EMFILE))
        return self._sock.accept()

    def __getattr__(self, name):
        return getattr(self._sock, name)


class TestAcceptErrors:
    def test_a_failed_accept_is_logged_and_the_next_client_served(self, caplog):
        ldm = LocalDynamicMap()
        server = FeedServer("127.0.0.1", 0, ldm)
        server._sock = FlakyListener(server._sock)
        with caplog.at_level(logging.WARNING, logger="ldm"), server.start():
            client = SocketClient(server.host, server.port)
            ack = client.send_line(cpm_line(n_objects=1, station_id=6))
            client.close()
            assert server.is_alive()
        assert server._sock.failed and ack["ok"] is True
        assert any("EMFILE" in r.getMessage() for r in caplog.records if r.name == "ldm")
        assert not server.is_alive()


class TestReplay:
    def test_all_messages_commit_at_infinite_speed(self):
        ldm = LocalDynamicMap()
        summary = replay(io.StringIO(scenario_text(10)), math.inf, ldm)
        assert summary.messages == 10
        assert summary.committed == 10
        assert summary.errors == 0
        assert summary.latency_ms(0.99) is not None

    def test_malformed_entry_counted_not_fatal(self):
        text = scenario_text(10).splitlines()
        text[4] = "{garbage"
        summary = replay(io.StringIO("\n".join(text)), math.inf, LocalDynamicMap())
        assert summary.messages == 10
        assert summary.committed == 9
        assert summary.errors == 1

    def test_pacing_speed_two(self):
        lines = scenario_text(2, step_ms=1000)
        ldm = LocalDynamicMap()
        summary = replay(io.StringIO(lines), 2.0, ldm)
        assert summary.committed == 2
        assert 0.4 <= summary.wall_seconds <= 1.5  # target 0.5 s, scheduler slack

    def test_final_state_is_speed_independent(self, tmp_path):
        text = scenario_text(8, step_ms=50)
        outs = []
        for speed in (math.inf, 4.0):
            ldm = LocalDynamicMap()
            replay(io.StringIO(text), speed, ldm)
            out = tmp_path / f"speed-{speed}.json"
            ldm.export(0, 1 << 62, out)
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_missing_file_raises(self):
        with pytest.raises(FileError):
            replay("/nonexistent/scenario.ndjson", 1.0, LocalDynamicMap())

    def test_decreasing_offset_is_counted_as_error(self):
        lines = scenario_text(3, step_ms=10).splitlines()
        body = json.loads(lines[2])
        body["offset_ms"] = 0
        lines[2] = json.dumps(body)
        summary = replay(io.StringIO("\n".join(lines)), math.inf, LocalDynamicMap())
        assert summary.errors == 1
        assert summary.committed == 2


class TestFuzzSmoke:
    def test_random_bytes_never_kill_the_listener(self):
        rng = random.Random(99)
        ldm = LocalDynamicMap()
        with serve("127.0.0.1", 0, ldm) as server:
            client = SocketClient(server.host, server.port)
            for _ in range(200):
                junk = bytes(rng.randrange(32, 256) for _ in range(rng.randrange(1, 120)))
                junk = junk.replace(b"\n", b" ")
                client.sock.sendall(junk + b"\n")
                response = json.loads(client.file.readline())
                assert response["ok"] is False
            good = client.send_line(cpm_line(n_objects=1))
            assert good["ok"] is True
            client.close()
