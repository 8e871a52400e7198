"""Core scene data model: layers, elements, frames, poses, relations.

Everything here is a plain value type; the store (ldm.store) owns all
shared mutable state.

Attribute values are restricted to four kinds: boolean, number, text and
number-vector. An attribute name is either static (lives on the element)
or dynamic (lives in frame records) for a given element, never both.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Union

# Microseconds since the Unix epoch. Arrival order is not assumed to be
# time order: a frame is keyed by its timestamp alone.
Timestamp = int

ElementId = int

AttrValue = Union[bool, int, float, str, list]


def now_us() -> Timestamp:
    """Current wall-clock time in microseconds since the epoch."""
    return time.time_ns() // 1000


class LdmLayer(Enum):
    """Dynamism layers, from permanent map data to fast-moving objects."""

    L1_Static = 1
    L2_QuasiStatic = 2
    L3_Transient = 3
    L4_Dynamic = 4


class ElementKind(Enum):
    Object = "object"
    Context = "context"


class FrameSource(Enum):
    LocalPerception = "local_perception"
    V2X = "v2x"
    Synthetic = "synthetic"


class StreamType(Enum):
    Camera = "camera"
    Lidar = "lidar"
    Gnss = "gnss"
    V2X = "v2x"
    Other = "other"


@dataclass
class GeoPose:
    """WGS84 position plus optional kinematics.

    Heading is degrees clockwise from true north, normalized into
    [0, 360) on construction (feeds commonly deliver wrapped values).
    Range violations on lat/lon/speed are reported by validation, not
    at construction time, so invalid input can still be inspected.
    """

    lat: float
    lon: float
    alt: float = 0.0
    heading: Optional[float] = None
    speed: Optional[float] = None

    def __post_init__(self):
        if self.heading is not None and math.isfinite(self.heading):
            self.heading = self.heading % 360.0

    def range_violations(self) -> list[str]:
        out = []
        if not (-90.0 <= self.lat <= 90.0):
            out.append(f"lat out of range: {self.lat}")
        if not (-180.0 <= self.lon < 180.0):
            out.append(f"lon out of range: {self.lon}")
        if self.speed is not None and self.speed < 0:
            out.append(f"speed negative: {self.speed}")
        return out


@dataclass
class FrameRecord:
    """Time-indexed snapshot of one element's dynamic state."""

    timestamp: Timestamp
    element_id: ElementId
    pose: Optional[GeoPose] = None
    dynamic_attributes: dict = field(default_factory=dict)
    source: FrameSource = FrameSource.LocalPerception


@dataclass
class SceneElement:
    """One scene entity: static descriptor plus per-frame dynamic records.

    frames maps timestamp -> FrameRecord and is input only: elements read
    from the store are static descriptors with no frames (read frames
    through the store).
    """

    id: ElementId
    kind: ElementKind
    name: str
    semantic_type: str
    layer: LdmLayer
    static_attributes: dict = field(default_factory=dict)
    frames: dict[Timestamp, FrameRecord] = field(default_factory=dict)

    def dynamic_attribute_names(self) -> set[str]:
        names: set[str] = set()
        for rec in self.frames.values():
            names.update(rec.dynamic_attributes)
        return names


@dataclass
class Relation:
    """Directed predicate edge between two stored elements."""

    subject: ElementId
    predicate: str
    object: ElementId
    frame_span: Optional[tuple[int, int]] = None

    def key(self) -> tuple:
        return (self.subject, self.predicate, self.object, self.frame_span)


@dataclass
class StreamDescriptor:
    """A data source feeding the scene (sensor, receiver, ...)."""

    name: str
    stream_type: StreamType = StreamType.Other
    source_uri: str = ""


def record_violations(rec: FrameRecord) -> list[str]:
    """Check the invariants of one frame record on its own."""
    violations = [f"timestamp negative: {rec.timestamp}"] if rec.timestamp < 0 else []
    if rec.pose is not None:
        violations.extend(rec.pose.range_violations())
    return violations


def validate_element(e: SceneElement) -> list[str]:
    """Check every SceneElement invariant; returns violation messages.

    Total function: an empty list means the element is valid.
    """
    violations: list[str] = []
    if e.id < 0:
        violations.append(f"id negative: {e.id}")
    if not e.name:
        violations.append("name empty")

    overlap = set(e.static_attributes) & e.dynamic_attribute_names()
    for name in sorted(overlap):
        violations.append(f"attribute overlap: {name}")

    for ts in sorted(e.frames):
        rec = e.frames[ts]
        if rec.timestamp != ts:
            violations.append(f"frame key {ts} != record timestamp {rec.timestamp}")
        if rec.element_id != e.id:
            violations.append(f"frame {ts} element_id {rec.element_id} != {e.id}")
        violations.extend(record_violations(rec))
    return violations
