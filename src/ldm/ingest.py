"""Input adapters and the scene document format.

Two input families feed the store: OpenLABEL-style scene JSON (objects,
contexts, frames, streams, relations under a single "openlabel" root)
and a JSON profile of cooperative perception messages keeping the ETSI
field names and units (centimeters, centimeters/second). CPM messages
are converted to the scene payload shape before commit so the store
only ever sees one representation.

The serializer lives here too so parse and export share one schema:
documents are emitted with a fixed ordering (sorted keys, ascending
frames) and are byte-identical for identical stores.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
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

_SOURCE_TAGS = {s.value for s in FrameSource}

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
class PayloadElement:
    uid: int
    name: str
    semantic_type: str = ""
    layer: Optional[LdmLayer] = None
    static: dict = field(default_factory=dict)


@dataclass
class PayloadFrameData:
    """Dynamic state of one element within one payload frame."""

    pose: Optional[GeoPose] = None
    data: dict = field(default_factory=dict)
    source: Optional[str] = None
    timestamp: Optional[Timestamp] = None  # overrides the frame timestamp


@dataclass
class PayloadFrame:
    index: int
    timestamp: Timestamp
    objects: dict[int, PayloadFrameData] = field(default_factory=dict)
    contexts: dict[int, PayloadFrameData] = field(default_factory=dict)


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
    metadata: dict = field(default_factory=dict)
    objects: dict[int, PayloadElement] = field(default_factory=dict)
    contexts: dict[int, PayloadElement] = field(default_factory=dict)
    frames: dict[int, PayloadFrame] = field(default_factory=dict)
    streams: dict[str, StreamDescriptor] = field(default_factory=dict)
    coordinate_systems: dict = field(default_factory=dict)
    relations: list[PayloadRelation] = field(default_factory=list)

    def element(self, kind: ElementKind, uid: int) -> PayloadElement:
        table = self.objects if kind is ElementKind.Object else self.contexts
        return table[uid]


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


def _parse_elements(raw, path: str) -> dict[int, PayloadElement]:
    _require(isinstance(raw, dict), "element table must be an object", path)
    out: dict[int, PayloadElement] = {}
    for key, body in raw.items():
        uid = _parse_uid(key, f"{path}/{key}")
        _require(isinstance(body, dict), "element must be an object", f"{path}/{key}")
        _require("name" in body, "element missing 'name'", f"{path}/{key}")
        layer = None
        if body.get("layer") is not None:
            tag = str(body["layer"])
            _require(tag in _LAYER_TAGS, f"unknown layer tag '{tag}'", f"{path}/{key}/layer")
            layer = _LAYER_TAGS[tag]
        out[uid] = PayloadElement(
            uid=uid,
            name=str(body["name"]),
            semantic_type=str(body.get("type", "")),
            layer=layer,
            static=_parse_attrs(body.get("static", {}), f"{path}/{key}/static"),
        )
    return out


def _parse_frame_data(raw, path: str) -> PayloadFrameData:
    _require(isinstance(raw, dict), "frame data must be an object", path)
    source = raw.get("source")
    if source is not None:
        _require(source in _SOURCE_TAGS, f"unknown source '{source}'", f"{path}/source")
    ts = raw.get("timestamp")
    if ts is not None:
        _require(isinstance(ts, int) and ts >= 0, "timestamp must be a non-negative integer", f"{path}/timestamp")
    return PayloadFrameData(
        pose=_parse_pose(raw["pose"], f"{path}/pose") if raw.get("pose") is not None else None,
        data=_parse_attrs(raw.get("data", {}), f"{path}/data"),
        source=source,
        timestamp=ts,
    )


def parse_openlabel(document: Union[str, bytes, dict]) -> OpenLabelPayload:
    """Parse a scene JSON document into an OpenLabelPayload.

    Unknown keys are ignored for forward compatibility. Raises
    SceneSyntaxError for unparseable JSON and SchemaError (naming the
    offending path) for structural violations, including frame entries
    referencing undeclared elements.
    """
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
    payload.objects = _parse_elements(root.get("objects", {}), "objects")
    payload.contexts = _parse_elements(root.get("contexts", {}), "contexts")

    raw_frames = root.get("frames", {})
    _require(isinstance(raw_frames, dict), "frames must be an object", "frames")
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
        frame = PayloadFrame(index=index, timestamp=ts)
        for section, table, target in (
            ("objects", payload.objects, frame.objects),
            ("contexts", payload.contexts, frame.contexts),
        ):
            raw_section = body.get(section, {})
            _require(isinstance(raw_section, dict), f"frame {section} must be an object", f"{fpath}/{section}")
            for ukey, data in raw_section.items():
                uid = _parse_uid(ukey, f"{fpath}/{section}/{ukey}")
                _require(
                    uid in table,
                    f"frame references undeclared {section[:-1]} uid {uid}",
                    f"{fpath}/{section}/{ukey}",
                )
                target[uid] = _parse_frame_data(data, f"{fpath}/{section}/{ukey}")
        payload.frames[index] = frame

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
        rel = PayloadRelation(
            subject_kind=_resolve_endpoint_kind(payload, body, "subject", rpath),
            subject=_parse_uid(body["subject"], f"{rpath}/subject"),
            predicate=str(body["predicate"]),
            object_kind=_resolve_endpoint_kind(payload, body, "object", rpath),
            object=_parse_uid(body["object"], f"{rpath}/object"),
            frame_span=None,
        )
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


def _resolve_endpoint_kind(payload: OpenLabelPayload, body: dict, role: str, path: str) -> ElementKind:
    explicit = body.get(f"{role}_kind")
    if explicit is not None:
        try:
            kind = ElementKind(str(explicit))
        except ValueError:
            raise SchemaError(f"unknown kind '{explicit}'", f"{path}/{role}_kind") from None
    else:
        uid = _parse_uid(body[role], f"{path}/{role}")
        in_obj = uid in payload.objects
        in_ctx = uid in payload.contexts
        _require(in_obj or in_ctx, f"relation {role} uid {uid} undeclared", f"{path}/{role}")
        _require(
            not (in_obj and in_ctx),
            f"relation {role} uid {uid} is ambiguous; add '{role}_kind'",
            f"{path}/{role}",
        )
        kind = ElementKind.Object if in_obj else ElementKind.Context
    uid = _parse_uid(body[role], f"{path}/{role}")
    table = payload.objects if kind is ElementKind.Object else payload.contexts
    _require(uid in table, f"relation {role} uid {uid} undeclared", f"{path}/{role}")
    return kind


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
    station_id: int
    generation_time: Timestamp
    reference_position: GeoPose
    perceived_objects: list[PerceivedObject] = field(default_factory=list)


def validate_cpm(m: CpmMessage) -> None:
    """Raise InvalidMessage naming the first violated field."""
    if m.station_id < 0:
        raise InvalidMessage(f"station_id must be >= 0, got {m.station_id}", "station_id")
    if m.generation_time < 0:
        raise InvalidMessage("generation_time must be >= 0", "generation_time")
    bad = m.reference_position.range_violations()
    if bad:
        raise InvalidMessage(f"reference_position: {bad[0]}", "reference_position")
    for i, obj in enumerate(m.perceived_objects):
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
            raise InvalidMessage(f"{where}.confidence {obj.confidence} not in [0, 100]", f"{where}.confidence")


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
    msg = CpmMessage(station_id, generation_time, ref, objs)
    validate_cpm(msg)
    return msg


def cpm_to_openlabel(m: CpmMessage) -> OpenLabelPayload:
    """Convert a CPM into a one-frame scene payload.

    The sending station becomes object "station-{id}" at its reference
    position; each perceived object becomes "cpm-{station}-{object}"
    with an absolute WGS84 pose computed in the station's local frame,
    speed/heading from the velocity components, and its confidence
    carried as a dynamic attribute. A "perceivedBy" relation ties each
    object to the station.
    """
    validate_cpm(m)
    payload = OpenLabelPayload(metadata={"schema_version": SCHEMA_VERSION, "source_format": "cpm"})
    frame = PayloadFrame(index=0, timestamp=m.generation_time)
    payload.frames[0] = frame

    payload.objects[0] = PayloadElement(
        uid=0,
        name=f"station-{m.station_id}",
        semantic_type="v2x.station",
        layer=LdmLayer.L4_Dynamic,
        static={"station_id": m.station_id},
    )
    frame.objects[0] = PayloadFrameData(
        pose=GeoPose(
            m.reference_position.lat,
            m.reference_position.lon,
            m.reference_position.alt,
            m.reference_position.heading,
            m.reference_position.speed,
        ),
        source="v2x",
    )

    for i, obj in enumerate(m.perceived_objects):
        uid = i + 1
        lat, lon, alt = enu_to_wgs84(
            m.reference_position.lat,
            m.reference_position.lon,
            obj.x_distance / 100.0,
            obj.y_distance / 100.0,
            origin_alt=m.reference_position.alt,
        )
        speed = math.hypot(obj.x_speed, obj.y_speed) / 100.0
        heading = math.degrees(math.atan2(obj.x_speed, obj.y_speed)) % 360.0
        payload.objects[uid] = PayloadElement(
            uid=uid,
            name=f"cpm-{m.station_id}-{obj.object_id}",
            semantic_type=obj.object_class,
            layer=LdmLayer.L4_Dynamic,
            static={"station_id": m.station_id, "object_id": obj.object_id},
        )
        frame.objects[uid] = PayloadFrameData(
            pose=GeoPose(lat, lon, alt, heading, speed),
            data={"confidence": obj.confidence},
            source="v2x",
        )
        payload.relations.append(PayloadRelation(
            subject_kind=ElementKind.Object,
            subject=uid,
            predicate="perceivedBy",
            object_kind=ElementKind.Object,
            object=0,
        ))
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


def payload_elements(payload: OpenLabelPayload,
                     default_source: FrameSource) -> dict[tuple[ElementKind, int], SceneElement]:
    """The payload's elements keyed by (kind, uid), objects first and
    ascending by uid, each with id = uid and carrying its frames. A frame
    without a source tag gets default_source; the layer stays None where
    the payload leaves it out."""
    elements: dict[tuple[ElementKind, int], SceneElement] = {}
    for kind, table in ((ElementKind.Object, payload.objects), (ElementKind.Context, payload.contexts)):
        for uid in sorted(table):
            pe = table[uid]
            elements[(kind, uid)] = SceneElement(uid, kind, pe.name, pe.semantic_type, pe.layer, pe.static)
    for index in sorted(payload.frames):
        frame = payload.frames[index]
        for kind, section in ((ElementKind.Object, frame.objects), (ElementKind.Context, frame.contexts)):
            for uid, data in section.items():
                ts = data.timestamp if data.timestamp is not None else frame.timestamp
                elements[(kind, uid)].frames[ts] = FrameRecord(
                    timestamp=ts,
                    element_id=uid,
                    pose=data.pose,
                    dynamic_attributes=dict(data.data),
                    source=FrameSource(data.source) if data.source else default_source,
                )
    return elements


def commit_payload(payload: OpenLabelPayload, store, source: str = "local_perception") -> CommitCounts:
    """Commit a parsed payload into the store, atomically.

    Elements upsert by (kind, name, type); frame records key by their
    timestamp so repeated and out-of-order payloads fuse cleanly; the
    spatial filter silently drops outside frames. The store checks every
    element against itself and the rest of the payload before it writes
    any, so a hard error commits nothing. A missing layer is taken from
    the same identity elsewhere in the payload, else from the stored
    element, else L4. Counts report entities actually created or changed,
    which makes an identical re-commit report all zeros.
    """
    default_source = FrameSource(source) if isinstance(source, str) else source
    frame_ts = {i: f.timestamp for i, f in payload.frames.items()}
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

    elements = payload_elements(payload, default_source)
    layers: dict[tuple, LdmLayer] = {}
    for e in elements.values():
        if e.layer is not None:
            layers.setdefault((e.kind, e.name, e.semantic_type), e.layer)

    with store.write_lock():
        for e in elements.values():
            if e.layer is None:
                key = (e.kind, e.name, e.semantic_type)
                if key not in layers:
                    stored = store.find_element(*key)
                    layers[key] = stored.layer if stored else LdmLayer.L4_Dynamic
                e.layer = layers[key]
        ids, changed, frames = store.upsert_elements(list(elements.values()))
        eids = dict(zip(elements, ids))
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
