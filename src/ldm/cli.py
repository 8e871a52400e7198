"""Operator command line.

    ldm [--config FILE] [--db DIR] COMMAND ...

Commands: serve, load-map, ingest, replay, query, export, info. Results
are printed as JSON lines (pipe-friendly, byte-equal to the library
results); --pretty switches the read commands to a human table.

--db names a state directory reloaded at start and saved after mutating
commands, so a scene built up by one invocation is queryable by the
next. The config file is plain "key = value" lines mirroring the store
configuration (full-line # comments allowed):

    ttl.l1 = inf                    # seconds per layer
    ttl.l4 = 30
    eviction_period = 1.0
    spatial_filter = 47.0,-122.5,47.8,-121.9   (min_lat,min_lon,max_lat,max_lon)
    archive_dir = /var/ldm/archive
    max_frames_per_element = 100000
"""

from __future__ import annotations

import argparse
import json
import logging
import signal
import sys
import threading
from pathlib import Path
from typing import Optional

from . import feed as feed_mod
from .api import LocalDynamicMap, ObjectReport
from .errors import InvalidConfig, LdmError
from .geo import GeoBox
from .model import LdmLayer, now_us
from .roadnet import parse_osm
from .state import load_state, save_state
from .store import EvictionTimer, LdmConfig, validate_config

QUERY_NAMES = (
    "objects-within",
    "objects-on-same-way",
    "stationary",
    "next-road-nodes",
    "objects-near-node",
)

_TTL_KEYS = {
    "ttl.l1": LdmLayer.L1_Static,
    "ttl.l2": LdmLayer.L2_QuasiStatic,
    "ttl.l3": LdmLayer.L3_Transient,
    "ttl.l4": LdmLayer.L4_Dynamic,
}


def parse_config_text(text: str) -> LdmConfig:
    """Parse the key-value configuration format (see module docstring)."""
    cfg = LdmConfig()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise InvalidConfig(f"line {lineno}: expected 'key = value', got '{line}'")
        key, value = (part.strip() for part in line.split("=", 1))
        try:
            if key in _TTL_KEYS:
                cfg.ttl_per_layer[_TTL_KEYS[key]] = float(value)
            elif key == "eviction_period":
                cfg.eviction_period = float(value)
            elif key == "archive_dir":
                cfg.archive_dir = value
            elif key == "max_frames_per_element":
                cfg.max_frames_per_element = int(value)
            elif key == "spatial_filter":
                parts = [float(p) for p in value.split(",")]
                if len(parts) != 4:
                    raise ValueError("expected 4 comma-separated numbers")
                cfg.spatial_filter = GeoBox(*parts)
            else:
                raise InvalidConfig(f"line {lineno}: unknown key '{key}'")
        except ValueError as exc:
            raise InvalidConfig(f"line {lineno}: bad value for '{key}': {exc}") from exc
    validate_config(cfg)
    return cfg


def load_config(path: str) -> LdmConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InvalidConfig(f"cannot read config {path}: {exc}") from exc
    return parse_config_text(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ldm",
        description="Embedded layered scene database for road traffic data.",
    )
    parser.add_argument("--config", metavar="FILE", help="configuration file")
    parser.add_argument("--db", metavar="DIR", help="state directory kept between invocations")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the live feed listener")
    p.add_argument("--listen", default="127.0.0.1:9807", metavar="HOST:PORT")
    p.add_argument("--no-evict", action="store_true", help="disable the periodic eviction task")

    p = sub.add_parser("load-map", help="load an OSM file into the permanent layer")
    p.add_argument("path", help="OSM XML file")

    p = sub.add_parser("ingest", help="commit one scene or CPM JSON file")
    p.add_argument("path", help="JSON file (scene document or CPM message)")
    p.add_argument("--source", default="local_perception",
                   choices=["local_perception", "v2x", "synthetic"])

    p = sub.add_parser("replay", help="replay a scenario file with pacing")
    p.add_argument("path", help="scenario file of offset-prefixed envelopes")
    p.add_argument("--speed", default=1.0, type=float,
                   help="pacing factor; 'inf' for as fast as possible")

    p = sub.add_parser("query", help="run a named query")
    p.add_argument("name", choices=QUERY_NAMES)
    p.add_argument("--ego", type=int, help="ego element id")
    p.add_argument("--radius", type=float, help="radius in meters")
    p.add_argument("--at", type=int, help="query time, microseconds since epoch "
                                          "(default: latest store time)")
    p.add_argument("--k", type=int, default=5, help="node count for next-road-nodes")
    p.add_argument("--node", type=int, help="road node id for objects-near-node")
    p.add_argument("--window", type=float, default=5.0, help="stationary lookback seconds")
    p.add_argument("--speed-eps", type=float, default=0.5, help="stationary speed threshold m/s")
    p.add_argument("--pretty", action="store_true", help="table output instead of JSON lines")

    p = sub.add_parser("export", help="write an archive document for a time interval")
    p.add_argument("--from", dest="start", type=int, required=True, metavar="T")
    p.add_argument("--to", dest="end", type=int, required=True, metavar="T")
    p.add_argument("--out", required=True, metavar="FILE")

    p = sub.add_parser("info", help="print database status fields")
    p.add_argument("--pretty", action="store_true")
    return parser


def _emit(obj) -> None:
    print(json.dumps(obj, ensure_ascii=False))


def _print_reports(rows: list[ObjectReport], pretty: bool) -> None:
    if not pretty:
        for row in rows:
            _emit(row.to_json())
        return
    header = f"{'id':>5}  {'name':<24} {'type':<16} {'layer':<4} {'dist_m':>9}  {'way':>8}  {'lat':>11} {'lon':>12}"
    print(header)
    print("-" * len(header))
    for r in rows:
        dist = r.distance_to_ego if r.distance_to_ego is not None else r.distance_to_node
        print(
            f"{r.element_id:>5}  {r.name:<24.24} {r.semantic_type:<16.16} "
            f"{r.layer.name.split('_')[0]:<4} "
            f"{'' if dist is None else format(dist, '.2f'):>9}  "
            f"{'' if r.matched_way is None else r.matched_way:>8}  "
            f"{'' if r.pose is None else format(r.pose.lat, '.6f'):>11} "
            f"{'' if r.pose is None else format(r.pose.lon, '.6f'):>12}"
        )


def _default_at(ldm: LocalDynamicMap) -> int:
    last = ldm.store.stats().last_update
    return last if last > 0 else now_us()


def _require_flag(value, flag: str):
    if value is None:
        raise LdmError(f"missing required flag {flag} for this query")
    return value


def _run_query(ldm: LocalDynamicMap, args) -> None:
    at = args.at if args.at is not None else _default_at(ldm)
    if args.name == "objects-within":
        rows = ldm.objects_within(_require_flag(args.ego, "--ego"),
                                  _require_flag(args.radius, "--radius"), at)
        _print_reports(rows, args.pretty)
    elif args.name == "objects-on-same-way":
        rows = ldm.objects_on_same_way(_require_flag(args.ego, "--ego"), at)
        _print_reports(rows, args.pretty)
    elif args.name == "stationary":
        rows = ldm.stationary_objects(at, args.window, args.speed_eps)
        _print_reports(rows, args.pretty)
    elif args.name == "next-road-nodes":
        nodes = ldm.next_road_nodes(_require_flag(args.ego, "--ego"), args.k, at)
        for node in nodes:
            _emit(node)
    elif args.name == "objects-near-node":
        rows = ldm.objects_near_node(_require_flag(args.node, "--node"),
                                     _require_flag(args.radius, "--radius"), at)
        _print_reports(rows, args.pretty)


def _run_serve(ldm: LocalDynamicMap, args) -> int:
    """Serve until a signal, or until the acceptor or the eviction timer
    dies; returns the exit code."""
    host, _, port = args.listen.rpartition(":")
    server = feed_mod.serve(host or "127.0.0.1", int(port), ldm)
    evictor = None
    if not args.no_evict:
        evictor = EvictionTimer(ldm.store).start()

    stop = threading.Event()
    previous = {}
    try:
        # Explicit handlers: SIGTERM for service managers, and SIGINT even
        # when inherited as ignored (non-interactive background shells).
        for sig in (signal.SIGINT, signal.SIGTERM):
            previous[sig] = signal.signal(sig, lambda *_: stop.set())
    except ValueError:
        pass  # not the main thread; Ctrl+C still raises below
    print(f"listening on {server.host}:{server.port}", file=sys.stderr)
    threads = {"acceptor": server, "eviction timer": evictor}
    dead = None
    try:
        while dead is None and not stop.wait(0.5):
            dead = next((name for name, t in threads.items() if t is not None and not t.is_alive()), None)
        if dead is not None:
            logging.getLogger("ldm").error("the %s thread died; shutting down", dead)
    except KeyboardInterrupt:
        pass
    finally:
        for sig, handler in previous.items():
            signal.signal(sig, handler)
        print("shutting down", file=sys.stderr)
        server.close()
        if evictor is not None:
            evictor.stop()
    return 0 if dead is None else 1


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code
        return code if isinstance(code, int) else (0 if code is None else 2)

    try:
        cfg = load_config(args.config) if args.config else None
        if args.db:
            ldm = load_state(args.db, cfg)
        else:
            ldm = LocalDynamicMap(cfg)

        mutated, code = False, 0
        if args.command == "info":
            for name, value in ldm.get_info():
                if args.pretty:
                    print(f"{name:<26} {value}")
                else:
                    _emit({"name": name, "value": value})
        elif args.command == "load-map":
            graph = parse_osm(Path(args.path).read_bytes())
            for warning in graph.warnings:
                print(f"warning: {warning}", file=sys.stderr)
            nodes, ways = ldm.load_map(graph)
            _emit({"nodes": nodes, "ways": ways})
            mutated = True
        elif args.command == "ingest":
            doc = json.loads(Path(args.path).read_text(encoding="utf-8"))
            if isinstance(doc, dict) and "station_id" in doc:
                from .ingest import parse_cpm

                counts = ldm.add_objects(parse_cpm(doc))
            else:
                counts = ldm.add_objects(doc, source=args.source)
            _emit(counts.as_dict())
            mutated = True
        elif args.command == "replay":
            summary = feed_mod.replay(args.path, args.speed, ldm)
            _emit({
                "messages": summary.messages,
                "committed": summary.committed,
                "errors": summary.errors,
                "wall_seconds": round(summary.wall_seconds, 3),
            })
            mutated = True
        elif args.command == "export":
            counts = ldm.export(args.start, args.end, args.out)
            _emit({"elements": counts.elements, "frames": counts.frames,
                   "relations": counts.relations})
        elif args.command == "query":
            _run_query(ldm, args)
        elif args.command == "serve":
            mutated = True
            code = _run_serve(ldm, args)

        if mutated and args.db:
            save_state(ldm, args.db)
        return code
    except (LdmError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
