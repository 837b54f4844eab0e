"""Canonical records (detections, activity instances, video metadata) and
their line-oriented JSON file formats.

File formats, one JSON object per line:

* detections:   {"video_id", "frame", "x1", "y1", "x2", "y2", "class", "score"}
* instances:    {"video_id", "activity", "start", "end", "confidence",
                 "boxes": [{"frame", "x1", "y1", "x2", "y2"}, ...]}
* video meta:   {"video_id", "frame_count", "frame_rate", "width", "height"}

All numeric fields are decimal-encoded, every ``video_id`` is a JSON string
and every real-valued field is a finite JSON number (not a string or bool).
No frame lies before 0 or past `FRAME_LIMIT` (2**53): a detection's frame is
below it, and a track's ``end`` and a video's ``frame_count`` are at most it.
Every reader goes through `read_records`: a record it cannot build, or one
that claims a key (such as a meta line's ``video_id``) an earlier record of
the file claimed, raises ParseError naming path:line.
Writers emit records in canonical order, each line the text
``json.dumps(record, sort_keys=True)`` gives (ints and floats as ``repr``
writes them). They format it directly, with ``box_rows_text`` and one line
format per record kind, not a dict per record, and refuse NaN and infinity.

Detections are held per video as columns (`VideoDetections`). Instances,
tubelets and proposals are *tracks*: an ``extent`` plus an (n,4) float64
``boxes`` array whose row k is frame ``extent.start + k``; ``extent_field``
reads the extent of each. They share one box list format: ``box_rows_text``
writes it, and ``box_values`` checks it as ``decode_boxes`` and the track
readers read it.
"""

import json
import math
import sys
from array import array
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, ParseError
from .geometry import Interval

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

# No frame value passes FRAME_LIMIT: a detection's frame lies below it, and a
# track's end and a video's frame_count are at most it. Below 2**53 every
# frame is exact in float64, which soft-NMS's window spans rely on, and no sum
# of two frame values passes int64. At 1,000 fps it is about 285,000 years.
FRAME_LIMIT = 2**53


# A detection's class code indexes DETECTION_CLASSES, the admitted classes
# in sorted order, so ascending codes visit the classes by name.
DETECTION_CLASSES = tuple(sorted(OBJECT_CLASSES))


@dataclass(frozen=True, eq=False)
class VideoDetections:
    """One video's detections as columns, row i being one detection. The rows
    are ordered by frame, box (x1, y1, x2, y2), then descending score, exact
    ties in input order; `_sorted_columns` builds them so."""

    video_id: str
    frames: np.ndarray  # (n,) int64
    boxes: np.ndarray  # (n,4) float64 x1, y1, x2, y2
    scores: np.ndarray  # (n,) float64 in [0, 1]
    classes: np.ndarray  # (n,) int64 index into DETECTION_CLASSES

    def __len__(self):
        return len(self.frames)

    @property
    def extent(self):
        """[first detection frame, last + 1); needs at least one row."""
        return Interval(int(self.frames[0]), int(self.frames[-1]) + 1)


def detection_columns(video_id, rows):
    """`VideoDetections` from (frame, x1, y1, x2, y2, score, class code)
    tuples in input order."""
    ints = np.array([(r[0], r[6]) for r in rows], dtype=np.int64).reshape(-1, 2)
    return _sorted_columns(video_id, ints, np.array([r[1:6] for r in rows], dtype=np.float64).reshape(-1, 5))


def _sorted_columns(video_id, ints, reals):
    """`VideoDetections` from (frame, class code) and (x1, y1, x2, y2, score)
    rows in input order: the one sort of every detection. The rows are
    valid: `_detection_from_record` checks each one a file holds."""
    frames, classes, boxes, scores = ints[:, 0], ints[:, 1], reals[:, :4], reals[:, 4]
    order = np.lexsort((-scores, boxes[:, 3], boxes[:, 2], boxes[:, 1], boxes[:, 0], frames))  # stable
    return VideoDetections(video_id, frames[order], boxes[order], scores[order], classes[order])


def track_boxes(boxes, extent):
    """`boxes` as a float64 array with one (x1, y1, x2, y2) row per frame of
    `extent`; any other shape is an input error."""
    boxes = np.asarray(boxes, dtype=np.float64)
    if boxes.shape != (extent.length, 4):
        raise InvalidInputError(f"need one box per frame of [{extent.start}, {extent.end}), got shape {boxes.shape}")
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
            raise InvalidInputError(f"unknown activity class: {self.activity!r}")
        if not 0.0 <= self.confidence <= 1.0:
            raise InvalidInputError(f"confidence out of [0,1]: {self.confidence}")
        object.__setattr__(self, "boxes", track_boxes(self.boxes, self.extent))


@dataclass(frozen=True)
class VideoMeta:
    video_id: str
    frame_count: int
    frame_rate: float
    width: float
    height: float

    def __post_init__(self):
        if not 0 < self.frame_count <= FRAME_LIMIT:
            raise InvalidInputError(f"frame_count must be in [1, 2**53]: {self.frame_count}")
        if not (math.isfinite(self.frame_rate) and self.frame_rate > 0):
            raise InvalidInputError(f"frame_rate must be finite and positive: {self.frame_rate}")
        if not (0.0 <= self.width < math.inf and 0.0 <= self.height < math.inf):
            raise InvalidInputError(f"frame size must be finite and >= 0: {self.width} x {self.height}")


# ---------------------------------------------------------------------------
# JSONL plumbing


def read_jsonl(path):
    """Yield (line_number, record) pairs; a line that is not UTF-8 or that
    `json.loads` rejects raises ParseError."""
    with open(path, "r", encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                if not line.isascii():  # a byte that is not UTF-8 was read as a lone surrogate: decode strictly
                    line.encode("utf-8", "surrogateescape").decode("utf-8")
                rec = json.loads(line)
            except (ValueError, RecursionError) as exc:  # also: bad UTF-8, an int past the digit limit, too deep
                raise ParseError(f"malformed record: {exc}", path=path, line=lineno)
            if not isinstance(rec, dict):
                raise ParseError("record is not an object", path=path, line=lineno)
            yield lineno, rec


def write_jsonl(lines, path):
    """Write each JSON text of `lines` as one line; every writer's lines pass
    through here."""
    with open(path, "w", encoding="utf-8") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")


def finite_list(array, what):
    """`array.tolist()`; a NaN or infinity raises ValueError (JSON has none)."""
    if not np.isfinite(array).all():
        raise ValueError(f"cannot write a non-finite {what}: JSON has no NaN or infinity")
    return array.tolist()


def int_field(rec, key):
    """`rec[key]` as an int. An integral float such as 3.0 is accepted; a
    fractional or non-finite number, a bool or a non-number is an input error."""
    value = rec[key]
    if type(value) is int:  # a bool is an int subclass
        return value
    if isinstance(value, float) and value.is_integer():
        return int(value)
    raise InvalidInputError(f"{key} must be an integer: {value!r}")


_FLOAT_MAX = sys.float_info.max
_NUMBER_TYPES = {int, float}  # a bool is neither


def float_field(rec, key):
    """`rec[key]` as a float. A finite JSON int or float is accepted; a bool,
    string, null or non-finite number is an input error."""
    value = rec[key]
    if type(value) in _NUMBER_TYPES and -_FLOAT_MAX <= value <= _FLOAT_MAX:
        return float(value)
    raise InvalidInputError(f"{key} must be a finite number: {value!r}")


def require_numbers(values, what):
    """Raise unless every one of `values` is a JSON int or float: one type
    check over the list, not one call per value."""
    if not set(map(type, values)) <= _NUMBER_TYPES:
        raise InvalidInputError(f"{what} must be JSON numbers")


def str_field(rec, key):
    """`rec[key]`, which must be a string; a null, number, bool or list is an
    input error, not a value to stringify."""
    value = rec[key]
    if not isinstance(value, str):
        raise InvalidInputError(f"{key} must be a string: {value!r}")
    return value


def read_records(path, kind, build, keys=None):
    """Yield `build(record)` for each record of a JSONL file, the one loop
    over `read_jsonl`: a malformed line or a record `build` cannot build
    raises ParseError naming path:line. With `keys`, so does a record that
    claims a key an earlier claim of the file has: `keys(built)` gives the
    (what, video_id, id) keys the record claims, checked in that order (an id
    of None claims the video id itself), held as one id set per (what, video_id)."""
    seen = {}  # (what, video_id) -> the ids claimed
    for lineno, rec in read_jsonl(path):
        try:
            built = build(rec)
        except KeyError as exc:
            raise ParseError(f"invalid {kind}: missing key {exc}", path=path, line=lineno)
        except (InvalidInputError, ValueError, TypeError, OverflowError) as exc:
            raise ParseError(f"invalid {kind}: {exc}", path=path, line=lineno)
        for what, video_id, key in keys(built) if keys else ():
            claimed = seen.setdefault((what, video_id), set())
            if key in claimed:
                shown = video_id if key is None else (video_id, key)
                raise ParseError(f"duplicate {what} {shown!r}: an earlier {what} has it", path=path, line=lineno)
            claimed.add(key)
        yield built


BOX_KEYS = ("x1", "y1", "x2", "y2")


def extent_field(rec):
    """The [start, end) frames of a track record; a start below 0 or an end
    past `FRAME_LIMIT` is an input error."""
    start = int_field(rec, "start")
    if start < 0:
        raise InvalidInputError(f"start must be >= 0: {start}")
    end = int_field(rec, "end")
    if end > FRAME_LIMIT:
        raise InvalidInputError(f"end must be <= 2**53: {end}")
    return Interval(start, end)


# One box-list row: the frame, then x1, x2, y1, y2 (sorted key order).
_BOX_ROW = '{"frame": %d, "x1": %r, "x2": %r, "y1": %r, "y2": %r}'


def box_rows_text(start, boxes):
    """The JSON text of each row of a track's box list, row k being frame
    `start + k`."""
    x1, y1, x2, y2 = finite_list(boxes.T, "box coordinate")
    return list(map(_BOX_ROW.__mod__, zip(range(start, start + len(x1)), x1, x2, y1, y2)))


def box_values(rows, extent):
    """The x1, y1, x2, y2 values of a track's box list back to back, in frame
    order, as a float64 `array`. The rows must hold every frame of `extent`
    once, in any order, and every box must be finite and not inverted."""
    rows = sorted(rows, key=lambda r: int_field(r, "frame"))
    if [int_field(r, "frame") for r in rows] != list(extent.frames()):
        raise InvalidInputError(f"boxes must hold each frame of [{extent.start}, {extent.end}) once")
    values = [r[k] for r in rows for k in BOX_KEYS]
    require_numbers(values, "box coordinates")
    values = array("d", values)
    for k, (x1, y1, x2, y2) in enumerate(zip(*[iter(values)] * 4)):
        # a NaN fails every comparison; an infinity fails the outer ones
        if not (-math.inf < x1 <= x2 < math.inf and -math.inf < y1 <= y2 < math.inf):
            raise InvalidInputError(f"non-finite or inverted box at frame {extent.start + k}")
    return values


def decode_boxes(rows, extent):
    """Inverse of `box_rows_text`: the (n,4) box array in frame order of rows
    that `box_values` accepts. It owns its memory, so `_row_owner` finds row
    views of it."""
    return np.frombuffer(box_values(rows, extent)).reshape(-1, 4).copy()


# ---------------------------------------------------------------------------
# detections


_DETECTION_KEYS = frozenset(("video_id", "frame", *BOX_KEYS, "class", "score"))


def _detection_from_record(rec):
    """(video id, (frame, class code), (x1, y1, x2, y2, score)) of a detection
    record; (None, class name, None) for a class not admitted, which is
    counted, not checked, but must still carry every key."""
    cls = str_field(rec, "class")
    if cls not in OBJECT_CLASSES:
        missing = _DETECTION_KEYS - rec.keys()
        if missing:
            raise KeyError(min(missing))
        return None, cls, None
    frame, reals = int_field(rec, "frame"), tuple(float_field(rec, k) for k in (*BOX_KEYS, "score"))
    x1, y1, x2, y2, score = reals
    if not 0 <= frame < FRAME_LIMIT or x1 > x2 or y1 > y2 or not 0.0 <= score <= 1.0:
        raise InvalidInputError(f"frame outside [0, 2**53), inverted box or score outside [0, 1]: {(frame, *reals)}")
    return str_field(rec, "video_id"), (frame, DETECTION_CLASSES.index(cls)), reals


def read_detections(path):
    """Read a detections file into per-video columns: returns a dict of
    `VideoDetections` by video id and a dict of dropped records by class name
    (records with a class not admitted are dropped and counted, not
    rejected). An admitted row's values go straight into its video's two
    typed arrays, 56 bytes a row, with no Python object kept per row."""
    dropped = {}  # class name -> count

    def admitted():
        for video_id, ints, reals in read_records(path, "detection", _detection_from_record):
            if video_id is None:
                dropped[ints] = dropped.get(ints, 0) + 1
            else:
                yield video_id, ints, reals

    return {v: _sorted_columns(v, ints.reshape(-1, 2), reals.reshape(-1, 5))
            for v, ints, reals in columns_by_video(admitted())}, dropped


def columns_by_video(rows):
    """Extend one int64 and one float64 typed `array` per video by each
    (video id, ints, reals) row; yield each video's (video id, int64 values,
    float64 values) in video id order, dropping its arrays from the dict."""
    columns = defaultdict(lambda: (array("q"), array("d")))  # video id -> its two arrays
    for video_id, ints, reals in rows:
        columns[video_id][0].extend(ints)
        columns[video_id][1].extend(reals)
    for video_id in sorted(columns):
        ints, reals = columns.pop(video_id)
        yield video_id, np.frombuffer(ints, np.int64), np.frombuffer(reals)


_DETECTION_LINE = '{"class": %s, "frame": %d, "score": %r, "video_id": %s, "x1": %r, "x2": %r, "y1": %r, "y2": %r}'
CLASS_TEXT = [json.dumps(c) for c in DETECTION_CLASSES]


def write_detections(videos, path):
    """Write `VideoDetections` (an iterable), the videos in id order and each
    video's rows in column order."""

    def lines():
        for d in sorted(videos, key=lambda d: d.video_id):
            x1, y1, x2, y2 = finite_list(d.boxes.T, "box coordinate")
            classes = [CLASS_TEXT[c] for c in d.classes.tolist()]
            video = [json.dumps(d.video_id)] * len(d)
            rows = zip(classes, d.frames.tolist(), finite_list(d.scores, "score"), video, x1, x2, y1, y2)
            yield from map(_DETECTION_LINE.__mod__, rows)

    write_jsonl(lines(), path)


# ---------------------------------------------------------------------------
# activity instances (ground truth and system output share the format)


def _instance_from_record(rec):
    extent = extent_field(rec)
    boxes = decode_boxes(rec["boxes"], extent)
    return ActivityInstance(
        video_id=str_field(rec, "video_id"),
        activity=str_field(rec, "activity"),
        extent=extent,
        boxes=boxes,
        confidence=float_field(rec, "confidence"),
    )


def instance_order(inst):
    """The canonical order of instances: descending confidence, then
    video_id, start and activity."""
    return -inst.confidence, inst.video_id, inst.extent.start, inst.activity


def read_instances(path):
    return sorted(read_records(path, "instance", _instance_from_record), key=instance_order)


# Ground truth is the same format; the name documents intent at call sites.
read_ground_truth = read_instances


_INSTANCE_LINE = '{"activity": %s, "boxes": [%s], "confidence": %s, "end": %d, "start": %d, "video_id": %s}'


def _row_owner(boxes):
    """(owner, k) when `boxes` is rows k, k+1, ... of `owner`, the ndarray
    that holds its memory; (boxes, 0) when it is not such a row slice."""
    owner = boxes
    while isinstance(owner.base, np.ndarray):
        owner = owner.base
    if owner is boxes or owner.shape[1:] != (4,) or (owner.dtype, owner.strides) != (boxes.dtype, boxes.strides):
        return boxes, 0
    offset = boxes.__array_interface__["data"][0] - owner.__array_interface__["data"][0]
    k, rest = divmod(offset, owner.strides[0])
    return (boxes, 0) if rest or not 0 <= k <= len(owner) - len(boxes) else (owner, k)


def write_instances(instances, path):
    """Write instances in `instance_order`. Instances cut from one tubelet view
    its box array: each owner array's rows are formatted once, for the frames
    its instances need, and dropped after its last instance. Two rows share
    text only when they are the same memory at the same frame."""
    instances = sorted(instances, key=instance_order)
    spans, owners = [], {}  # per instance (key, first row); key -> [owner, lo, hi, last user]
    for i, inst in enumerate(instances):
        owner, k = _row_owner(inst.boxes)
        key = (id(owner), inst.extent.start - k)  # the owner and the frame of its row 0
        lo, hi = owners[key][1:3] if key in owners else (k, k)
        owners[key] = [owner, min(lo, k), max(hi, k + len(inst.boxes)), i]
        spans.append((key, k))

    def lines():
        texts = {}
        for i, (inst, (key, k)) in enumerate(zip(instances, spans)):
            owner, lo, hi, last = owners[key]
            if key not in texts:
                texts[key] = box_rows_text(key[1] + lo, owner[lo:hi])
            rows = texts.pop(key) if i == last else texts[key]
            yield _INSTANCE_LINE % (
                json.dumps(inst.activity), ", ".join(rows[k - lo : k - lo + len(inst.boxes)]),
                json.dumps(inst.confidence, allow_nan=False), inst.extent.end, inst.extent.start,
                json.dumps(inst.video_id),
            )

    write_jsonl(lines(), path)


# ---------------------------------------------------------------------------
# video metadata


def _meta_from_record(rec):
    return VideoMeta(
        video_id=str_field(rec, "video_id"),
        frame_count=int_field(rec, "frame_count"),
        frame_rate=float_field(rec, "frame_rate"),
        width=float_field(rec, "width"),
        height=float_field(rec, "height"),
    )


def read_video_meta(path):
    """Read video metadata into a dict keyed by video_id; a second record of
    a video_id raises ParseError naming path:line."""
    metas = read_records(path, "video meta", _meta_from_record, lambda meta: [("video meta", meta.video_id, None)])
    return {m.video_id: m for m in metas}


def write_video_meta(metas, path):
    keys = ("video_id", "frame_count", "frame_rate", "width", "height")
    recs = ({k: getattr(m, k) for k in keys} for m in sorted(metas, key=lambda m: m.video_id))
    write_jsonl((json.dumps(rec, sort_keys=True, allow_nan=False) for rec in recs), path)
