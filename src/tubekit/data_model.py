"""Canonical records (detections, activity instances, video metadata) and
their line-oriented JSON file formats.

File formats, one JSON object per line:

* detections:   {"video_id", "frame", "x1", "y1", "x2", "y2", "class", "score"}
* instances:    {"video_id", "activity", "start", "end", "confidence",
                 "boxes": [{"frame", "x1", "y1", "x2", "y2"}, ...]}
* video meta:   {"video_id", "frame_count", "frame_rate", "width", "height"}

All numeric fields are decimal-encoded, and every ``video_id`` is a JSON
string. Writers emit keys in sorted order and records in canonical order so
output bytes are stable across runs.

Instances, tubelets and proposals are *tracks*: an ``extent`` plus an (n,4)
float64 ``boxes`` array whose row k is frame ``extent.start + k``.
``encode_boxes``/``decode_boxes`` are the one JSON box-list codec they share.
"""

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInputError, ParseError, SchemaError
from .geometry import Box, Interval

OBJECT_CLASSES = ("person", "car", "truck", "bicycle")

VEHICLE_ACTIVITIES = (
    "Closing",
    "Opening",
    "Closing_Trunk",
    "Open_Trunk",
    "vehicle_turning_left",
    "vehicle_turning_right",
    "vehicle_u_turn",
    "Entering",
    "Exiting",
)

PERSON_ACTIVITIES = (
    "specialized_talking_phone",
    "specialized_texting_phone",
    "Transport_HeavyCarry",
    "activity_carrying",
    "Pull",
    "Riding",
    "Talking",
    "Loading",
    "Unloading",
)

ACTIVITY_CLASSES = VEHICLE_ACTIVITIES + PERSON_ACTIVITIES


@dataclass(frozen=True)
class Detection:
    """One class-labeled, scored bounding box in one frame."""

    video_id: str
    frame: int
    box: Box
    object_class: str
    score: float

    def __post_init__(self):
        if self.frame < 0:
            raise InvalidInputError(f"negative frame: {self.frame}")
        if self.object_class not in OBJECT_CLASSES:
            raise InvalidInputError(f"object class not admitted: {self.object_class!r}")
        if not 0.0 <= self.score <= 1.0:
            raise InvalidInputError(f"score out of [0,1]: {self.score}")


def track_boxes(boxes, extent):
    """`boxes` as a float64 array with one (x1, y1, x2, y2) row per frame of
    `extent`; any other shape is an input error."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.shape != (extent.length, 4):
        raise InvalidInputError(
            f"need one box per frame of [{extent.start}, {extent.end}), got shape {boxes.shape}"
        )
    return boxes


@dataclass(frozen=True, eq=False)
class ActivityInstance:
    """A ground-truth or system-output activity with one box per frame."""

    video_id: str
    activity: str
    extent: Interval
    boxes: np.ndarray  # (extent.length, 4) float64
    confidence: float = 1.0

    def __post_init__(self):
        if self.activity not in ACTIVITY_CLASSES:
            raise SchemaError(f"unknown activity class: {self.activity!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidInputError(f"confidence out of [0,1]: {self.confidence}")
        object.__setattr__(self, "boxes", track_boxes(self.boxes, self.extent))


@dataclass(frozen=True)
class VideoMeta:
    video_id: str
    frame_count: int
    frame_rate: float
    frame_bounds: Box

    def __post_init__(self):
        if self.frame_count <= 0:
            raise InvalidInputError(f"frame_count must be positive: {self.frame_count}")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise InvalidInputError(f"frame_rate must be finite and positive: {self.frame_rate}")


@dataclass
class DetectionReadResult:
    detections: list
    dropped_classes: int = 0
    dropped_class_names: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# JSONL plumbing


def read_jsonl(path):
    """Yield (line_number, record) pairs; malformed lines raise ParseError."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ParseError(f"malformed record: {exc}", path=path, line=lineno)
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", path=path, line=lineno)
            yield lineno, rec


def write_jsonl(records, path):
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(json.dumps(rec, sort_keys=True))
            fh.write("\n")


def int_field(rec, key):
    """`rec[key]` as an int. An integral float such as 3.0 is accepted; a
    fractional or non-finite number, a bool or a non-number is an input error."""
    value = rec[key]
    if type(value) is int:  # a bool is an int subclass
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidInputError(f"{key} must be an integer: {value!r}")


def str_field(rec, key):
    """`rec[key]`, which must be a string; a null, number, bool or list is an
    input error, not a value to stringify."""
    value = rec[key]
    if not isinstance(value, str):
        raise InvalidInputError(f"{key} must be a string: {value!r}")
    return value


def read_records(path, kind, build):
    """`build(record)` for each record of a JSONL file; a record it cannot
    build raises ParseError naming path:line."""
    out = []
    for lineno, rec in read_jsonl(path):
        try:
            out.append(build(rec))
        except KeyError as exc:
            raise ParseError(f"invalid {kind}: missing key {exc}", path=path, line=lineno)
        except (InvalidInputError, SchemaError, ValueError, TypeError) as exc:
            raise ParseError(f"invalid {kind}: {exc}", path=path, line=lineno)
    return out


BOX_KEYS = ("x1", "y1", "x2", "y2")


def encode_boxes(extent, boxes, **columns):
    """The JSON box list of a track: one {"frame", "x1", "y1", "x2", "y2"}
    object per frame, plus one key per extra column (a list, one value per
    frame)."""
    keys = ("frame", *BOX_KEYS, *columns)
    rows = zip(extent.frames(), *boxes.T.tolist(), *columns.values())
    return [dict(zip(keys, row)) for row in rows]


def decode_boxes(rows, extent, *columns):
    """Inverse of `encode_boxes`: the box array in frame order, then one list
    per named extra column. The rows must hold every frame of `extent` once,
    in any order, and every box must be finite and not inverted."""
    rows = sorted(rows, key=lambda r: int_field(r, "frame"))
    if [int_field(r, "frame") for r in rows] != list(extent.frames()):
        raise InvalidInputError(f"boxes must hold each frame of [{extent.start}, {extent.end}) once")
    boxes = np.array([[r[k] for k in BOX_KEYS] for r in rows], dtype=np.float64)
    bad = ~np.isfinite(boxes).all(axis=1) | (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])
    if bad.any():
        raise InvalidInputError(f"non-finite or inverted box at frame {extent.start + int(np.argmax(bad))}")
    return (boxes, *([r[c] for r in rows] for c in columns))


def _require(rec, keys, path, lineno):
    missing = [k for k in keys if k not in rec]
    if missing:
        raise ParseError(f"missing keys {missing}", path=path, line=lineno)


# ---------------------------------------------------------------------------
# detections


def read_detections(path):
    """Read a detections file; records with non-admitted classes are dropped
    and counted rather than rejected."""
    out = []
    dropped = 0
    dropped_names = {}
    for lineno, rec in read_jsonl(path):
        _require(rec, ("video_id", "frame", "x1", "y1", "x2", "y2", "class", "score"), path, lineno)
        cls = rec["class"]
        if not isinstance(cls, str):
            raise ParseError(f"invalid detection: class must be a string: {cls!r}", path=path, line=lineno)
        if cls not in OBJECT_CLASSES:
            dropped += 1
            dropped_names[cls] = dropped_names.get(cls, 0) + 1
            continue
        try:
            det = Detection(
                video_id=str_field(rec, "video_id"),
                frame=int_field(rec, "frame"),
                box=Box(float(rec["x1"]), float(rec["y1"]), float(rec["x2"]), float(rec["y2"])),
                object_class=cls,
                score=float(rec["score"]),
            )
        except (InvalidInputError, ValueError, TypeError) as exc:
            raise ParseError(f"invalid detection: {exc}", path=path, line=lineno)
        out.append(det)
    out.sort(key=lambda d: (d.video_id, d.frame))
    return DetectionReadResult(out, dropped, dropped_names)


def write_detections(detections, path):
    recs = []
    for d in sorted(detections, key=lambda d: (d.video_id, d.frame, d.box)):
        recs.append(
            {
                "video_id": d.video_id,
                "frame": d.frame,
                "x1": d.box.x1,
                "y1": d.box.y1,
                "x2": d.box.x2,
                "y2": d.box.y2,
                "class": d.object_class,
                "score": d.score,
            }
        )
    write_jsonl(recs, path)


# ---------------------------------------------------------------------------
# activity instances (ground truth and system output share the format)


def _instance_from_record(rec):
    extent = Interval(int_field(rec, "start"), int_field(rec, "end"))
    (boxes,) = decode_boxes(rec["boxes"], extent)
    return ActivityInstance(
        video_id=str_field(rec, "video_id"),
        activity=str(rec["activity"]),
        extent=extent,
        boxes=boxes,
        confidence=float(rec["confidence"]),
    )


def read_instances(path):
    out = read_records(path, "instance", _instance_from_record)
    out.sort(key=lambda i: (-i.confidence, i.video_id, i.extent.start, i.activity))
    return out


# Ground truth is the same format; the name documents intent at call sites.
read_ground_truth = read_instances


def write_instances(instances, path):
    ordered = sorted(
        instances, key=lambda i: (-i.confidence, i.video_id, i.extent.start, i.activity)
    )
    recs = []
    for inst in ordered:
        recs.append(
            {
                "video_id": inst.video_id,
                "activity": inst.activity,
                "start": inst.extent.start,
                "end": inst.extent.end,
                "confidence": inst.confidence,
                "boxes": encode_boxes(inst.extent, inst.boxes),
            }
        )
    write_jsonl(recs, path)


# ---------------------------------------------------------------------------
# video metadata


def read_video_meta(path):
    """Read video metadata into a dict keyed by video_id."""
    out = {}
    for lineno, rec in read_jsonl(path):
        _require(rec, ("video_id", "frame_count", "frame_rate", "width", "height"), path, lineno)
        try:
            meta = VideoMeta(
                video_id=str_field(rec, "video_id"),
                frame_count=int_field(rec, "frame_count"),
                frame_rate=float(rec["frame_rate"]),
                frame_bounds=Box(0.0, 0.0, float(rec["width"]), float(rec["height"])),
            )
        except (InvalidInputError, ValueError, TypeError) as exc:
            raise ParseError(f"invalid video meta: {exc}", path=path, line=lineno)
        out[meta.video_id] = meta
    return out


def write_video_meta(metas, path):
    recs = []
    for m in sorted(metas, key=lambda m: m.video_id):
        recs.append(
            {
                "video_id": m.video_id,
                "frame_count": m.frame_count,
                "frame_rate": m.frame_rate,
                "width": m.frame_bounds.x2,
                "height": m.frame_bounds.y2,
            }
        )
    write_jsonl(recs, path)
