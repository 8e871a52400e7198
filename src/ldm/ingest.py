"""Input adapters and the scene document format.

Two input families feed the store: OpenLABEL-style scene JSON (objects,
contexts, frames, streams, relations under a single "openlabel" root)
and a JSON profile of cooperative perception messages keeping the ETSI
field names and units (centimeters, centimeters/second). Both parse
straight into the store's own types: a payload's elements are
SceneElements carrying their FrameRecords, and a commit hands them to
the store as one batch.

The serializer lives here too so parse and export share one schema:
documents are emitted with a fixed ordering (sorted keys, ascending
frames) and are byte-identical for identical stores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Optional, Union

from .errors import InvalidMessage, SceneSyntaxError, SchemaError
from .geo import enu_to_wgs84
from .model import (
    ElementKind,
    FrameRecord,
    FrameSource,
    GeoPose,
    LdmLayer,
    Relation,
    SceneElement,
    StreamDescriptor,
    StreamType,
    Timestamp,
)

_SOURCES = {s.value: s for s in FrameSource}

SCHEMA_VERSION = "ldm-scene/1.0"
ROOT_KEY = "openlabel"

# ETSI-style bound on relative distances (centimeters).
MAX_DISTANCE_CM = 13_107_100

OBJECT_CLASSES = ("unknown", "pedestrian", "cyclist", "vehicle")

_LAYER_TAGS = {
    "L1": LdmLayer.L1_Static,
    "L2": LdmLayer.L2_QuasiStatic,
    "L3": LdmLayer.L3_Transient,
    "L4": LdmLayer.L4_Dynamic,
}
_LAYER_NAMES = {v: k for k, v in _LAYER_TAGS.items()}


# ---------------------------------------------------------------------------
# payload model


@dataclass
class PayloadRelation:
    subject_kind: ElementKind
    subject: int
    predicate: str
    object_kind: ElementKind
    object: int
    frame_span: Optional[tuple[int, int]] = None


@dataclass
class OpenLabelPayload:
    """A parsed scene document in the store's own types.

    objects and contexts map uid -> SceneElement with id = uid, each
    carrying its frames as FrameRecords keyed by timestamp; an element's
    layer is None where the document leaves it out. frame_times maps each
    frame index to its timestamp, for relation frame spans.
    """

    metadata: dict = field(default_factory=dict)
    objects: dict[int, SceneElement] = field(default_factory=dict)
    contexts: dict[int, SceneElement] = field(default_factory=dict)
    frame_times: dict[int, Timestamp] = field(default_factory=dict)
    streams: dict[str, StreamDescriptor] = field(default_factory=dict)
    coordinate_systems: dict = field(default_factory=dict)
    relations: list[PayloadRelation] = field(default_factory=list)


# ---------------------------------------------------------------------------
# parsing


def _require(cond: bool, message: str, path: str) -> None:
    if not cond:
        raise SchemaError(message, path)


def _parse_uid(raw, path: str) -> int:
    try:
        uid = int(raw)
    except (TypeError, ValueError):
        raise SchemaError(f"uid '{raw}' is not an integer", path) from None
    _require(uid >= 0, f"uid {uid} is negative", path)
    return uid


def _check_attr_value(value, path: str):
    if isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, list):
        _require(
            all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in value),
            "vector attribute must contain only numbers",
            path,
        )
        return value
    raise SchemaError(
        f"attribute value of type {type(value).__name__} is not boolean/number/text/vector",
        path,
    )


def _parse_attrs(raw, path: str) -> dict:
    _require(isinstance(raw, dict), "attribute map must be an object", path)
    return {str(k): _check_attr_value(v, f"{path}/{k}") for k, v in raw.items()}


def _parse_pose(raw, path: str) -> GeoPose:
    _require(isinstance(raw, dict), "pose must be an object", path)
    for req in ("lat", "lon"):
        _require(req in raw, f"pose missing '{req}'", path)
    for key in ("lat", "lon", "alt", "heading", "speed"):
        if key in raw and raw[key] is not None:
            _require(
                isinstance(raw[key], (int, float)) and not isinstance(raw[key], bool),
                f"pose field '{key}' must be a number",
                f"{path}/{key}",
            )
    return GeoPose(
        lat=float(raw["lat"]),
        lon=float(raw["lon"]),
        alt=float(raw.get("alt", 0.0) or 0.0),
        heading=None if raw.get("heading") is None else float(raw["heading"]),
        speed=None if raw.get("speed") is None else float(raw["speed"]),
    )


def _parse_elements(raw, path: str, kind: ElementKind) -> dict[int, SceneElement]:
    _require(isinstance(raw, dict), "element table must be an object", path)
    out: dict[int, SceneElement] = {}
    for key, body in raw.items():
        uid = _parse_uid(key, f"{path}/{key}")
        _require(isinstance(body, dict), "element must be an object", f"{path}/{key}")
        _require("name" in body, "element missing 'name'", f"{path}/{key}")
        layer = None
        if body.get("layer") is not None:
            tag = str(body["layer"])
            _require(tag in _LAYER_TAGS, f"unknown layer tag '{tag}'", f"{path}/{key}/layer")
            layer = _LAYER_TAGS[tag]
        out[uid] = SceneElement(uid, kind, str(body["name"]), str(body.get("type", "")), layer,
                                _parse_attrs(body.get("static", {}), f"{path}/{key}/static"))
    return out


def _parse_record(raw, uid: int, ts: Timestamp, source: FrameSource, path: str) -> FrameRecord:
    """One element's entry in a frame at ts, tagged with source unless
    it names its own; its own "timestamp" overrides ts."""
    _require(isinstance(raw, dict), "frame data must be an object", path)
    tag = raw.get("source")
    if tag is not None:
        _require(tag in _SOURCES, f"unknown source '{tag}'", f"{path}/source")
        source = _SOURCES[tag]
    own_ts = raw.get("timestamp")
    if own_ts is not None:
        _require(isinstance(own_ts, int) and own_ts >= 0, "timestamp must be a non-negative integer",
                 f"{path}/timestamp")
        ts = own_ts
    pose = _parse_pose(raw["pose"], f"{path}/pose") if raw.get("pose") is not None else None
    return FrameRecord(ts, uid, pose, _parse_attrs(raw.get("data", {}), f"{path}/data"), source)


def parse_openlabel(document: Union[str, bytes, dict],
                    source: Union[str, FrameSource] = "local_perception") -> OpenLabelPayload:
    """Parse a scene document into an OpenLabelPayload; a frame record
    that names no source is tagged with source.

    Unknown keys are ignored for forward compatibility. Raises
    SceneSyntaxError for unparseable JSON and SchemaError (naming the
    offending path) for structural violations, including frame entries
    referencing undeclared elements.
    """
    source = FrameSource(source)
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SceneSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(document, dict) or ROOT_KEY not in document:
        raise SchemaError(f"missing root scene key '{ROOT_KEY}'")
    if len(document) != 1:
        raise SchemaError(f"expected exactly one root scene key, found {sorted(document)}")
    root = document[ROOT_KEY]
    _require(isinstance(root, dict), "scene root must be an object", ROOT_KEY)

    payload = OpenLabelPayload()
    payload.metadata = dict(root.get("metadata", {})) if isinstance(root.get("metadata", {}), dict) else {}
    payload.objects = _parse_elements(root.get("objects", {}), "objects", ElementKind.Object)
    payload.contexts = _parse_elements(root.get("contexts", {}), "contexts", ElementKind.Context)

    raw_frames = root.get("frames", {})
    _require(isinstance(raw_frames, dict), "frames must be an object", "frames")
    # Every frame is checked in document order, then its records go to
    # their elements in ascending index order, so a later index wins for
    # one element and timestamp, and a repeated index replaces the frame.
    records: dict[int, tuple[dict[int, FrameRecord], dict[int, FrameRecord]]] = {}
    for key, body in raw_frames.items():
        fpath = f"frames/{key}"
        index = _parse_uid(key, fpath)
        _require(isinstance(body, dict), "frame must be an object", fpath)
        _require("timestamp" in body, "frame missing 'timestamp'", fpath)
        ts = body["timestamp"]
        _require(
            isinstance(ts, int) and not isinstance(ts, bool) and ts >= 0,
            "timestamp must be a non-negative integer",
            f"{fpath}/timestamp",
        )
        records[index] = ({}, {})
        for section, table, target in zip(("objects", "contexts"), (payload.objects, payload.contexts),
                                          records[index]):
            raw_section = body.get(section, {})
            _require(isinstance(raw_section, dict), f"frame {section} must be an object", f"{fpath}/{section}")
            for ukey, data in raw_section.items():
                uid = _parse_uid(ukey, f"{fpath}/{section}/{ukey}")
                _require(
                    uid in table,
                    f"frame references undeclared {section[:-1]} uid {uid}",
                    f"{fpath}/{section}/{ukey}",
                )
                target[uid] = _parse_record(data, uid, ts, source, f"{fpath}/{section}/{ukey}")
        payload.frame_times[index] = ts
    for index in sorted(records):
        for table, target in zip((payload.objects, payload.contexts), records[index]):
            for uid, rec in target.items():
                table[uid].frames[rec.timestamp] = rec

    raw_streams = root.get("streams", {})
    _require(isinstance(raw_streams, dict), "streams must be an object", "streams")
    for name, body in raw_streams.items():
        _require(isinstance(body, dict), "stream must be an object", f"streams/{name}")
        type_tag = str(body.get("type", "other")).lower()
        try:
            stype = StreamType(type_tag)
        except ValueError:
            stype = StreamType.Other
        payload.streams[str(name)] = StreamDescriptor(str(name), stype, str(body.get("uri", "")))

    if isinstance(root.get("coordinate_systems"), dict):
        payload.coordinate_systems = dict(root["coordinate_systems"])

    raw_rels = root.get("relations", [])
    _require(isinstance(raw_rels, list), "relations must be a list", "relations")
    for i, body in enumerate(raw_rels):
        rpath = f"relations/{i}"
        _require(isinstance(body, dict), "relation must be an object", rpath)
        for req in ("subject", "predicate", "object"):
            _require(req in body, f"relation missing '{req}'", rpath)
        rel = PayloadRelation(*_resolve_endpoint(payload, body, "subject", rpath), str(body["predicate"]),
                              *_resolve_endpoint(payload, body, "object", rpath))
        span = body.get("frame_span")
        if span is not None:
            _require(
                isinstance(span, list) and len(span) == 2
                and all(isinstance(x, int) and not isinstance(x, bool) for x in span)
                and span[0] < span[1],
                "frame_span must be [start, end) with start < end",
                f"{rpath}/frame_span",
            )
            rel.frame_span = (span[0], span[1])
        payload.relations.append(rel)
    return payload


def _resolve_endpoint(payload: OpenLabelPayload, body: dict, role: str,
                      path: str) -> tuple[ElementKind, int]:
    """The kind and uid of a relation endpoint: its explicit kind, else
    that of the one element table declaring the uid."""
    explicit = body.get(f"{role}_kind")
    if explicit is not None:
        try:
            kind = ElementKind(str(explicit))
        except ValueError:
            raise SchemaError(f"unknown kind '{explicit}'", f"{path}/{role}_kind") from None
    uid = _parse_uid(body[role], f"{path}/{role}")
    if explicit is None:
        in_obj = uid in payload.objects
        _require(
            not (in_obj and uid in payload.contexts),
            f"relation {role} uid {uid} is ambiguous; add '{role}_kind'",
            f"{path}/{role}",
        )
        kind = ElementKind.Object if in_obj else ElementKind.Context
    table = payload.objects if kind is ElementKind.Object else payload.contexts
    _require(uid in table, f"relation {role} uid {uid} undeclared", f"{path}/{role}")
    return kind, uid


# ---------------------------------------------------------------------------
# serialization


def _pose_to_json(pose: GeoPose) -> dict:
    out = {"lat": pose.lat, "lon": pose.lon, "alt": pose.alt}
    if pose.heading is not None:
        out["heading"] = pose.heading
    if pose.speed is not None:
        out["speed"] = pose.speed
    return out


def _sorted_attrs(attrs: dict) -> dict:
    return {k: attrs[k] for k in sorted(attrs)}


def build_document(
    elements: Iterable[SceneElement],
    frames_for: Callable[[int], Iterable[FrameRecord]],
    relations: Iterable[Relation],
    streams: dict[str, StreamDescriptor],
    coordinate_systems: Optional[dict] = None,
    note: Optional[str] = None,
) -> dict:
    """Assemble the canonical scene document for a set of elements.

    frames_for yields the frame records to emit for each element id,
    ascending by timestamp. Ordering is fixed everywhere (ascending
    uids, ascending timestamps, sorted attribute names) so serialization
    is deterministic.
    """
    elements = sorted(elements, key=lambda e: e.id)
    kind_of = {e.id: e.kind for e in elements}

    objects: dict[str, dict] = {}
    contexts: dict[str, dict] = {}
    for e in elements:
        body = {"name": e.name, "type": e.semantic_type, "layer": _LAYER_NAMES[e.layer]}
        if e.static_attributes:
            body["static"] = _sorted_attrs(e.static_attributes)
        (objects if e.kind is ElementKind.Object else contexts)[str(e.id)] = body

    # One document frame per timestamp, keyed by that timestamp.
    by_ts: dict[Timestamp, dict] = {}
    for e in elements:
        for rec in frames_for(e.id):
            slot = by_ts.setdefault(rec.timestamp, {"objects": {}, "contexts": {}})
            data: dict = {}
            if rec.pose is not None:
                data["pose"] = _pose_to_json(rec.pose)
            if rec.dynamic_attributes:
                data["data"] = _sorted_attrs(rec.dynamic_attributes)
            data["source"] = rec.source.value
            section = "objects" if kind_of[rec.element_id] is ElementKind.Object else "contexts"
            slot[section][str(rec.element_id)] = data

    frames: dict[str, dict] = {}
    for ts in sorted(by_ts):
        slot = by_ts[ts]
        body = {"timestamp": ts}
        for section in ("objects", "contexts"):
            if slot[section]:
                body[section] = {k: slot[section][k] for k in sorted(slot[section], key=int)}
        frames[str(ts)] = body

    rel_rows = []
    for r in sorted(
        relations,
        key=lambda r: (r.subject, r.predicate, r.object, r.frame_span or (-1, -1)),
    ):
        row = {
            "subject": r.subject,
            "subject_kind": kind_of[r.subject].value,
            "predicate": r.predicate,
            "object": r.object,
            "object_kind": kind_of[r.object].value,
        }
        if r.frame_span is not None:
            row["frame_span"] = [r.frame_span[0], r.frame_span[1]]
        rel_rows.append(row)

    metadata = {"schema_version": SCHEMA_VERSION}
    if note:
        metadata["note"] = note

    root: dict = {"metadata": metadata, "objects": objects}
    if contexts:
        root["contexts"] = contexts
    root["frames"] = frames
    if streams:
        root["streams"] = {
            name: {"type": streams[name].stream_type.value, "uri": streams[name].source_uri}
            for name in sorted(streams)
        }
    if coordinate_systems:
        root["coordinate_systems"] = {k: coordinate_systems[k] for k in sorted(coordinate_systems)}
    root["relations"] = rel_rows
    return {ROOT_KEY: root}


def serialize_document(doc: dict, compact: bool = False) -> str:
    """Render a document dict exactly as build_document ordered it:
    indented, or on one line without spaces when compact (eviction
    archives, where the one-shot C encoder does the work)."""
    if compact:
        return json.dumps(doc, ensure_ascii=False, separators=(",", ":")) + "\n"
    return json.dumps(doc, ensure_ascii=False, indent=2) + "\n"


# ---------------------------------------------------------------------------
# cooperative perception messages


@dataclass
class PerceivedObject:
    """One object a station reports, relative to its reference position.

    Distances are centimeters east (x) / north (y) of the reference;
    speeds are centimeters per second along the same axes.
    """

    object_id: int
    x_distance: int
    y_distance: int
    x_speed: int = 0
    y_speed: int = 0
    object_class: str = "unknown"
    confidence: int = 100


@dataclass
class CpmMessage:
    """A cooperative perception message; constructing one checks it and
    raises InvalidMessage naming the first violated field."""

    station_id: int
    generation_time: Timestamp
    reference_position: GeoPose
    perceived_objects: list[PerceivedObject] = field(default_factory=list)

    def __post_init__(self):
        if self.station_id < 0:
            raise InvalidMessage(f"station_id must be >= 0, got {self.station_id}", "station_id")
        if self.generation_time < 0:
            raise InvalidMessage("generation_time must be >= 0", "generation_time")
        bad = self.reference_position.range_violations()
        if bad:
            raise InvalidMessage(f"reference_position: {bad[0]}", "reference_position")
        for i, obj in enumerate(self.perceived_objects):
            where = f"perceived_objects[{i}]"
            if abs(obj.x_distance) > MAX_DISTANCE_CM:
                raise InvalidMessage(f"{where}.x_distance exceeds {MAX_DISTANCE_CM}", f"{where}.x_distance")
            if abs(obj.y_distance) > MAX_DISTANCE_CM:
                raise InvalidMessage(f"{where}.y_distance exceeds {MAX_DISTANCE_CM}", f"{where}.y_distance")
            if obj.object_class not in OBJECT_CLASSES:
                raise InvalidMessage(
                    f"{where}.object_class '{obj.object_class}' not one of {OBJECT_CLASSES}",
                    f"{where}.object_class",
                )
            if not (0 <= obj.confidence <= 100):
                raise InvalidMessage(f"{where}.confidence {obj.confidence} not in [0, 100]",
                                     f"{where}.confidence")


def parse_cpm(document: Union[str, bytes, dict]) -> CpmMessage:
    """Parse the CPM JSON profile; raises InvalidMessage naming fields."""
    if isinstance(document, (str, bytes)):
        try:
            document = json.loads(document)
        except json.JSONDecodeError as exc:
            raise SceneSyntaxError(exc.msg, exc.lineno, exc.colno) from exc
    if not isinstance(document, dict):
        raise InvalidMessage("message must be a JSON object")

    def need(key, types, where="message"):
        if key not in document:
            raise InvalidMessage(f"missing field '{key}'", key)
        val = document[key]
        if not isinstance(val, types) or isinstance(val, bool):
            raise InvalidMessage(f"{where}.{key} has wrong type", key)
        return val

    station_id = need("station_id", int)
    generation_time = need("generation_time", int)
    ref_raw = document.get("reference_position")
    if not isinstance(ref_raw, dict) or "lat" not in ref_raw or "lon" not in ref_raw:
        raise InvalidMessage("reference_position must carry lat and lon", "reference_position")
    ref = GeoPose(
        lat=float(ref_raw["lat"]),
        lon=float(ref_raw["lon"]),
        alt=float(ref_raw.get("alt", 0.0) or 0.0),
        heading=None if ref_raw.get("heading") is None else float(ref_raw["heading"]),
        speed=None if ref_raw.get("speed") is None else float(ref_raw["speed"]),
    )
    objs = []
    raw_objs = document.get("perceived_objects", [])
    if not isinstance(raw_objs, list):
        raise InvalidMessage("perceived_objects must be a list", "perceived_objects")
    for i, body in enumerate(raw_objs):
        where = f"perceived_objects[{i}]"
        if not isinstance(body, dict):
            raise InvalidMessage(f"{where} must be an object", where)
        try:
            objs.append(PerceivedObject(
                object_id=int(body["object_id"]),
                x_distance=int(body["x_distance"]),
                y_distance=int(body["y_distance"]),
                x_speed=int(body.get("x_speed", 0)),
                y_speed=int(body.get("y_speed", 0)),
                object_class=str(body.get("object_class", "unknown")),
                confidence=int(body.get("confidence", 100)),
            ))
        except (KeyError, TypeError, ValueError) as exc:
            raise InvalidMessage(f"{where} is malformed: {exc}", where) from exc
    return CpmMessage(station_id, generation_time, ref, objs)


def cpm_to_openlabel(m: CpmMessage) -> OpenLabelPayload:
    """Convert a CPM into a one-frame scene payload of v2x records.

    The sending station becomes object "station-{id}" at its reference
    position; each perceived object becomes "cpm-{station}-{object}"
    with an absolute WGS84 pose computed in the station's local frame,
    speed/heading from the velocity components, and its confidence
    carried as a dynamic attribute. A "perceivedBy" relation ties each
    object to the station.
    """
    ts = m.generation_time
    ref = m.reference_position
    payload = OpenLabelPayload(metadata={"schema_version": SCHEMA_VERSION, "source_format": "cpm"},
                               frame_times={0: ts})
    payload.objects[0] = SceneElement(
        0, ElementKind.Object, f"station-{m.station_id}", "v2x.station", LdmLayer.L4_Dynamic,
        {"station_id": m.station_id},
        {ts: FrameRecord(ts, 0, GeoPose(ref.lat, ref.lon, ref.alt, ref.heading, ref.speed), {},
                         FrameSource.V2X)},
    )
    for uid, obj in enumerate(m.perceived_objects, 1):
        lat, lon, alt = enu_to_wgs84(
            ref.lat, ref.lon, obj.x_distance / 100.0, obj.y_distance / 100.0, origin_alt=ref.alt,
        )
        speed = math.hypot(obj.x_speed, obj.y_speed) / 100.0
        heading = math.degrees(math.atan2(obj.x_speed, obj.y_speed)) % 360.0
        payload.objects[uid] = SceneElement(
            uid, ElementKind.Object, f"cpm-{m.station_id}-{obj.object_id}", obj.object_class,
            LdmLayer.L4_Dynamic, {"station_id": m.station_id, "object_id": obj.object_id},
            {ts: FrameRecord(ts, uid, GeoPose(lat, lon, alt, heading, speed),
                             {"confidence": obj.confidence}, FrameSource.V2X)},
        )
        payload.relations.append(PayloadRelation(ElementKind.Object, uid, "perceivedBy", ElementKind.Object, 0))
    return payload


# ---------------------------------------------------------------------------
# commit


@dataclass
class CommitCounts:
    elements: int = 0
    frames: int = 0
    relations: int = 0

    def as_dict(self) -> dict:
        return {"elements": self.elements, "frames": self.frames, "relations": self.relations}


def commit_payload(payload: OpenLabelPayload, store) -> CommitCounts:
    """Commit a parsed payload into the store, atomically.

    Elements upsert by (kind, name, type); frame records key by their
    timestamp so repeated and out-of-order payloads fuse cleanly; the
    spatial filter silently drops outside frames. The store checks every
    element against itself and the rest of the payload before it writes
    any, so a hard error commits nothing. A missing layer is taken from
    the same identity elsewhere in the payload, else from the stored
    element, else L4. Counts report entities actually created or changed,
    which makes an identical re-commit report all zeros. The payload is
    left as parsed, so it commits again, into any store, alike.
    """
    frame_ts = payload.frame_times
    spans: list[Optional[tuple[int, int]]] = []
    for i, rel in enumerate(payload.relations):
        span = None
        if rel.frame_span is not None:
            a, b = rel.frame_span
            if a not in frame_ts or (b - 1) not in frame_ts:
                raise SchemaError(
                    f"frame_span [{a}, {b}) references frames not in the payload",
                    f"relations/{i}/frame_span",
                )
            span = (frame_ts[a], frame_ts[b - 1] + 1)
        spans.append(span)

    # Objects first, then contexts, each ascending by uid: the order new
    # ids are handed out in.
    by_uid = {(kind, uid): table[uid]
              for kind, table in ((ElementKind.Object, payload.objects), (ElementKind.Context, payload.contexts))
              for uid in sorted(table)}
    batch = list(by_uid.values())
    layers: dict[tuple, LdmLayer] = {}
    for e in batch:
        if e.layer is not None:
            layers.setdefault((e.kind, e.name, e.semantic_type), e.layer)

    with store.write_lock():
        for i, e in enumerate(batch):
            if e.layer is None:
                key = (e.kind, e.name, e.semantic_type)
                if key not in layers:
                    stored = store.find_element(*key)
                    layers[key] = stored.layer if stored else LdmLayer.L4_Dynamic
                batch[i] = replace(e, layer=layers[key])
        ids, changed, frames = store.upsert_elements(batch)
        eids = dict(zip(by_uid, ids))
        counts = CommitCounts(elements=changed, frames=frames)
        for rel, span in zip(payload.relations, spans):
            if store.add_relation(Relation(eids[(rel.subject_kind, rel.subject)], rel.predicate,
                                           eids[(rel.object_kind, rel.object)], span)):
                counts.relations += 1

        for stream in payload.streams.values():
            store.register_stream(stream)
        for name, cs in payload.coordinate_systems.items():
            store.register_coordinate_system(name, cs)
        return counts
