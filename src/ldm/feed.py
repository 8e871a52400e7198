"""Real-time input plumbing: socket listener and scenario replay.

Transport is a plain TCP stream of newline-delimited UTF-8 JSON
envelopes, one message per line:

    {"type": "cpm" | "openlabel", "payload": { ... }}

and one JSON response line per input line:

    {"ok": true, "committed": {"elements": E, "frames": F, "relations": R}}
    {"ok": false, "error": "..."}

A scenario file holds the same lines with a pacing prefix field:

    {"offset_ms": N, "type": ..., "payload": ...}

Payload timestamps, not arrival times, drive store time. A broker client
(MQTT etc.) can be layered on by feeding received messages through
handle_line().
"""

from __future__ import annotations

import errno
import json
import logging
import math
import socket
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Optional, Union

from .api import LocalDynamicMap
from .errors import BindError, FileError, LdmError, SchemaError
from .ingest import CommitCounts, commit_payload, cpm_to_openlabel, parse_cpm, parse_openlabel

MAX_LINE_BYTES = 1 << 20

MSG_TYPES = ("cpm", "openlabel")


@dataclass
class FeedEnvelope:
    msg_type: str
    payload: dict


def parse_envelope(body: dict) -> FeedEnvelope:
    if not isinstance(body, dict):
        raise SchemaError("envelope must be a JSON object")
    msg_type = body.get("type")
    if msg_type not in MSG_TYPES:
        raise SchemaError(f"envelope type must be one of {MSG_TYPES}, got {msg_type!r}", "type")
    payload = body.get("payload")
    if not isinstance(payload, dict):
        raise SchemaError("envelope payload must be a JSON object", "payload")
    return FeedEnvelope(msg_type, payload)


def dispatch_envelope(ldm: LocalDynamicMap, env: FeedEnvelope) -> CommitCounts:
    """Convert-and-commit one envelope into the store."""
    if env.msg_type == "cpm":
        return commit_payload(cpm_to_openlabel(parse_cpm(env.payload)), ldm.store)
    return commit_payload(parse_openlabel(env.payload), ldm.store)


def handle_line(ldm: LocalDynamicMap, line: Union[bytes, str]) -> dict:
    """Process one wire line, returning the response object.

    Never raises: any failure (bad UTF-8, bad JSON, schema or store
    errors) becomes an {"ok": false, ...} response so one bad line can
    never take the feed down.
    """
    try:
        if isinstance(line, bytes):
            line = line.decode("utf-8")
        body = json.loads(line)
        env = parse_envelope(body)
        counts = dispatch_envelope(ldm, env)
        return {"ok": True, "committed": counts.as_dict()}
    except Exception as exc:  # noqa: BLE001 - wire isolation boundary
        return {"ok": False, "error": f"{type(exc).__name__}: {exc}"}


def _too_long_response() -> dict:
    return {"ok": False, "error": f"line exceeds {MAX_LINE_BYTES} bytes"}


class FeedServer:
    """Line-oriented TCP listener feeding a LocalDynamicMap.

    One acceptor thread plus one handler thread per connection; commits
    serialize through the store's writer lock. close() stops accepting,
    lets in-flight lines finish, and joins all handlers.
    """

    def __init__(self, host: str, port: int, ldm: LocalDynamicMap):
        self._ldm = ldm
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        try:
            self._sock.bind((host, port))
        except OSError as exc:
            self._sock.close()
            raise BindError(f"cannot bind {host}:{port}: {exc}") from exc
        self._sock.listen(16)
        # Periodic accept timeout so close() can stop the acceptor.
        self._sock.settimeout(0.2)
        self.host, self.port = self._sock.getsockname()[:2]
        self._stopping = threading.Event()
        self._conns: set[socket.socket] = set()
        self._conns_lock = threading.Lock()
        self._handlers: list[threading.Thread] = []
        self._acceptor = threading.Thread(target=self._accept_loop, daemon=True)

    def start(self) -> "FeedServer":
        self._acceptor.start()
        return self

    def _accept_loop(self):
        while not self._stopping.is_set():
            try:
                conn, _addr = self._sock.accept()
            except TimeoutError:
                continue
            except OSError as exc:
                # Out of descriptors or buffers, or a connection aborted
                # before accept: log, back off and accept again. close()
                # stops the loop before it closes the socket.
                if not self._stopping.is_set():
                    logging.getLogger("ldm").warning(
                        "accept failed (%s): %s", errno.errorcode.get(exc.errno, exc.errno), exc)
                    self._stopping.wait(0.1)
                continue
            conn.settimeout(None)
            # Started under the lock, so close() never sees an unstarted
            # handler; finished ones are dropped here.
            with self._conns_lock:
                if self._stopping.is_set():
                    conn.close()
                    break
                self._conns.add(conn)
                self._handlers = [h for h in self._handlers if h.is_alive()]
                handler = threading.Thread(target=self._serve_conn, args=(conn,), daemon=True)
                handler.start()
                self._handlers.append(handler)

    def is_alive(self) -> bool:
        """Whether the acceptor thread still runs."""
        return self._acceptor.is_alive()

    def _serve_conn(self, conn: socket.socket):
        buf = b""
        oversized = False
        try:
            while True:
                try:
                    data = conn.recv(65536)
                except OSError:
                    break
                if not data:
                    break
                buf += data
                while b"\n" in buf:
                    line, buf = buf.split(b"\n", 1)
                    if oversized:
                        # Tail of a line we already rejected.
                        oversized = False
                        continue
                    if len(line) > MAX_LINE_BYTES:
                        self._respond(conn, _too_long_response())
                        continue
                    if not line.strip():
                        continue
                    self._respond(conn, handle_line(self._ldm, line))
                if len(buf) > MAX_LINE_BYTES:
                    self._respond(conn, _too_long_response())
                    buf = b""
                    oversized = True
        finally:
            try:
                conn.close()
            except OSError:
                pass
            with self._conns_lock:
                self._conns.discard(conn)

    @staticmethod
    def _respond(conn: socket.socket, response: dict):
        try:
            conn.sendall(json.dumps(response, ensure_ascii=False).encode("utf-8") + b"\n")
        except OSError:
            pass

    def close(self):
        """Stop accepting, drain in-flight lines, join all threads."""
        self._stopping.set()
        try:
            self._sock.close()
        except OSError:
            pass
        with self._conns_lock:
            conns = list(self._conns)
            handlers = list(self._handlers)
        for conn in conns:
            try:
                conn.shutdown(socket.SHUT_RD)
            except OSError:
                pass
        for handler in handlers:
            handler.join(timeout=10.0)
        if self._acceptor.is_alive():
            self._acceptor.join(timeout=10.0)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def serve(host: str, port: int, ldm: LocalDynamicMap) -> FeedServer:
    """Bind and start a feed listener; raises BindError if the port is
    taken. Returns the running server handle."""
    return FeedServer(host, port, ldm).start()


# ---------------------------------------------------------------------------
# replay


@dataclass
class ReplaySummary:
    messages: int = 0
    committed: int = 0
    errors: int = 0
    wall_seconds: float = 0.0
    commit_latencies_ms: list = field(default_factory=list, repr=False)

    def latency_ms(self, quantile: float) -> Optional[float]:
        if not self.commit_latencies_ms:
            return None
        ordered = sorted(self.commit_latencies_ms)
        pos = min(len(ordered) - 1, int(quantile * len(ordered)))
        return ordered[pos]


def replay(source: Union[str, Path, IO], speed: float, ldm: LocalDynamicMap) -> ReplaySummary:
    """Replay a scenario file into the store at offset/speed pacing.

    speed=math.inf means as fast as possible. Pacing never changes final
    store contents because the payloads carry their own timestamps.
    Malformed or failing lines are counted and skipped; the replay keeps
    going. messages = committed + errors always holds.
    """
    if not speed > 0:
        raise ValueError(f"speed must be > 0, got {speed}")
    summary = ReplaySummary()
    started = time.monotonic()
    pace = 0
    for line in _read_lines(source):
        if not line.strip():
            continue
        summary.messages += 1
        env = None
        try:
            body = json.loads(line)
            offset = int(body["offset_ms"])
            if offset < pace:
                raise FileError(f"offset {offset} decreases (last {pace})")
            pace = offset
            env = parse_envelope(body)
        except (ValueError, KeyError, TypeError, LdmError):
            summary.errors += 1
        if math.isfinite(speed):
            target = pace / 1000.0 / speed
            delay = target - (time.monotonic() - started)
            if delay > 0:
                time.sleep(delay)
        if env is None:
            continue
        t0 = time.perf_counter()
        try:
            dispatch_envelope(ldm, env)
        except Exception:  # noqa: BLE001 - per-message isolation
            summary.errors += 1
        else:
            summary.committed += 1
            summary.commit_latencies_ms.append((time.perf_counter() - t0) * 1000.0)
    summary.wall_seconds = time.monotonic() - started
    return summary


def _read_lines(source: Union[str, Path, IO]):
    if hasattr(source, "read"):
        for line in source:
            yield line if isinstance(line, str) else line.decode("utf-8")
        return
    try:
        with open(source, "r", encoding="utf-8") as f:
            for line in f:
                yield line
    except OSError as exc:
        raise FileError(f"cannot read scenario: {exc}") from exc
