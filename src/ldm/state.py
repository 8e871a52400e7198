"""CLI state directory: full store dump and reload between invocations.

The state is one file, scene.json: the document the export function
emits, holding every element (frameless ones and the road map's L1
elements included), with the store's counters in its metadata. Element
ids are preserved across reload, so ids printed by one CLI invocation
stay valid in the next, and the road graph is derived from the reloaded
L1 elements. This is operator plumbing, not an archive: archives are
written by the export function.
"""

from __future__ import annotations

import os
from dataclasses import replace
from pathlib import Path
from typing import Optional, Union

from .api import LocalDynamicMap
from .errors import FileError
from .ingest import ROOT_KEY, build_document, parse_openlabel, serialize_document
from .model import LdmLayer, Relation
from .roadnet import graph_from_store
from .store import LdmConfig

SCENE_FILE = "scene.json"


def save_state(ldm: LocalDynamicMap, state_dir: Union[str, Path]) -> None:
    """Write the state dir's scene.json. It is written aside and then
    renamed into place, so a failed save leaves the previous state whole."""
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
        doc[ROOT_KEY]["metadata"].update(
            next_id=stats.next_id, last_update=stats.last_update, evicted_total=stats.evicted_total,
        )
        aside = state_dir / f"{SCENE_FILE}.tmp"
        aside.write_text(serialize_document(doc), encoding="utf-8")
        os.replace(aside, state_dir / SCENE_FILE)
    except OSError as exc:
        raise FileError(f"cannot write state dir {state_dir}: {exc}") from exc


def load_state(state_dir: Union[str, Path], config: Optional[LdmConfig] = None) -> LocalDynamicMap:
    """Reconstruct a LocalDynamicMap from a state directory.

    A missing directory (first run) simply yields a fresh instance. The
    elements are written in one checked batch under their saved ids, so
    a hand-edited file that breaks a commit rule raises InvalidElement.
    Files other than scene.json are ignored.
    """
    ldm = LocalDynamicMap(config)
    scene_path = Path(state_dir) / SCENE_FILE
    if not scene_path.exists():
        return ldm

    payload = parse_openlabel(scene_path.read_text(encoding="utf-8"))
    elements = [e if e.layer else replace(e, layer=LdmLayer.L4_Dynamic)
                for table in (payload.objects, payload.contexts) for e in table.values()]
    ldm.store.upsert_elements(elements, keep_ids=True)
    # Spans are stored as timestamps, not payload frame indices.
    for rel in payload.relations:
        ldm.store.add_relation(Relation(rel.subject, rel.predicate, rel.object, rel.frame_span))
    for stream in payload.streams.values():
        ldm.store.register_stream(stream)
    for name, cs in payload.coordinate_systems.items():
        ldm.store.register_coordinate_system(name, cs)

    meta = payload.metadata
    ldm.store.restore_meta(
        next_id=int(meta.get("next_id", 0)),
        last_update=int(meta.get("last_update", 0)),
        evicted_total=int(meta.get("evicted_total", 0)),
    )
    ldm.road_graph = graph_from_store(ldm.store)
    return ldm
