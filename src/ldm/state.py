"""CLI state directory: full store dump and reload between invocations.

The scene content is saved in the same document format the export
function emits (every element, frameless ones included), next to a JSON
rendering of the road graph and a small counters file. Element ids are
preserved across reload, so ids printed by one CLI invocation stay valid
in the next. This is operator plumbing, not an archive: archives are
written by the export function.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Optional, Union

from .api import LocalDynamicMap
from .errors import FileError
from .ingest import build_document, parse_openlabel, serialize_document
from .model import ElementKind, FrameRecord, FrameSource, LdmLayer, Relation, SceneElement
from .roadnet import RoadGraph, RoadNode, RoadWay, rebuild_adjacency
from .store import LdmConfig

SCENE_FILE = "scene.json"
MAP_FILE = "map.json"
META_FILE = "meta.json"


def save_state(ldm: LocalDynamicMap, state_dir: Union[str, Path]) -> None:
    state_dir = Path(state_dir)
    try:
        state_dir.mkdir(parents=True, exist_ok=True)
        with ldm.store.read_lock():
            doc = build_document(
                ldm.store.elements(),
                frames_for=lambda eid: ldm.store.query_frames(eid, 0, 1 << 62),
                relations=ldm.store.relations(),
                streams=ldm.store.streams(),
                coordinate_systems=ldm.store.coordinate_systems() or None,
                note="cli state dump",
            )
            stats = ldm.store.stats()
            meta = {
                "next_id": max((e.id for e in ldm.store.elements()), default=-1) + 1,
                "last_update": stats.last_update,
                "evicted_total": stats.evicted_total,
            }
        texts = {SCENE_FILE: serialize_document(doc), META_FILE: json.dumps(meta) + "\n"}
        if ldm.road_graph is not None:
            texts[MAP_FILE] = _graph_to_json(ldm.road_graph)
        # Every file is written aside before any is replaced, so a failed
        # save leaves the previous state whole.
        for name, text in texts.items():
            (state_dir / f"{name}.tmp").write_text(text, encoding="utf-8")
        for name in texts:
            os.replace(state_dir / f"{name}.tmp", state_dir / name)
    except OSError as exc:
        raise FileError(f"cannot write state dir {state_dir}: {exc}") from exc


def load_state(state_dir: Union[str, Path], config: Optional[LdmConfig] = None) -> LocalDynamicMap:
    """Reconstruct a LocalDynamicMap from a state directory.

    A missing directory (first run) simply yields a fresh instance.
    """
    ldm = LocalDynamicMap(config)
    state_dir = Path(state_dir)
    scene_path = state_dir / SCENE_FILE
    if not scene_path.exists():
        return ldm

    payload = parse_openlabel(scene_path.read_text(encoding="utf-8"))
    for kind, table in ((ElementKind.Object, payload.objects), (ElementKind.Context, payload.contexts)):
        for uid in sorted(table):
            pe = table[uid]
            frames = {}
            for frame in payload.frames.values():
                section = frame.objects if kind is ElementKind.Object else frame.contexts
                data = section.get(uid)
                if data is None:
                    continue
                ts = data.timestamp if data.timestamp is not None else frame.timestamp
                frames[ts] = FrameRecord(
                    timestamp=ts,
                    element_id=uid,
                    pose=data.pose,
                    dynamic_attributes=dict(data.data),
                    source=FrameSource(data.source) if data.source else FrameSource.LocalPerception,
                )
            ldm.store.restore_element(SceneElement(
                id=uid,
                kind=kind,
                name=pe.name,
                semantic_type=pe.semantic_type,
                layer=pe.layer or LdmLayer.L4_Dynamic,
                static_attributes=dict(pe.static),
                frames=frames,
            ))
    for rel in payload.relations:
        ldm.store.add_relation(Relation(rel.subject, rel.predicate, rel.object, rel.frame_span))
    for stream in payload.streams.values():
        ldm.store.register_stream(stream)
    for name, cs in payload.coordinate_systems.items():
        ldm.store.register_coordinate_system(name, cs)

    meta_path = state_dir / META_FILE
    if meta_path.exists():
        meta = json.loads(meta_path.read_text(encoding="utf-8"))
        ldm.store.restore_meta(
            next_id=int(meta.get("next_id", 0)),
            last_update=int(meta.get("last_update", 0)),
            evicted_total=int(meta.get("evicted_total", 0)),
        )

    map_path = state_dir / MAP_FILE
    if map_path.exists():
        ldm.road_graph = _graph_from_json(map_path.read_text(encoding="utf-8"))
    return ldm


def _graph_to_json(graph: RoadGraph) -> str:
    doc = {
        "nodes": [[n.osm_id, n.lat, n.lon] for n in graph.nodes.values()],
        "ways": [
            {"id": w.osm_id, "refs": w.node_refs, "tags": w.tags, "oneway": w.oneway}
            for w in graph.ways.values()
        ],
        "warnings": graph.warnings,
    }
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


def _graph_from_json(text: str) -> RoadGraph:
    doc = json.loads(text)
    graph = RoadGraph()
    for osm_id, lat, lon in doc.get("nodes", []):
        graph.nodes[int(osm_id)] = RoadNode(int(osm_id), float(lat), float(lon))
    for body in doc.get("ways", []):
        graph.ways[int(body["id"])] = RoadWay(
            int(body["id"]),
            [int(r) for r in body["refs"]],
            {str(k): str(v) for k, v in body.get("tags", {}).items()},
            bool(body.get("oneway", False)),
        )
    graph.warnings = [str(w) for w in doc.get("warnings", [])]
    rebuild_adjacency(graph)
    return graph
