"""Tubelet refinement: static-tubelet filtering, box-size normalization and
multi-scale temporal jittering into proposals."""

import json
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .data_model import (
    ACTIVITY_CLASSES,
    box_rows_text,
    decode_boxes,
    extent_field,
    float_field,
    int_field,
    read_records,
    str_field,
    write_jsonl,
)
from .errors import InvalidInputError
from .geometry import Interval, mean_center_steps
from .linking import Track, tubelet_key
from .proposals import NON_ACTION


@dataclass(frozen=True)
class RefineConfig:
    coord_displacement_min: float = 0.5  # px/frame
    enlarge_factor: float = 1.2
    window_sizes: tuple = (32, 64, 128, 256)
    window_stride: int = 16

    def __post_init__(self):
        if self.coord_displacement_min < 0.0:
            raise InvalidInputError(f"refine.coord_displacement_min must be >= 0: {self.coord_displacement_min}")
        if self.enlarge_factor < 1.0:
            raise InvalidInputError(f"enlarge_factor must be >= 1: {self.enlarge_factor}")
        if not self.window_sizes or self.window_sizes[0] < 1 or list(self.window_sizes) != sorted(self.window_sizes):
            raise InvalidInputError(f"window_sizes must be nonempty, ascending and >= 1: {self.window_sizes}")
        if self.window_stride < 1:
            raise InvalidInputError(f"window_stride must be >= 1: {self.window_stride}")


@dataclass(eq=False)
class Proposal:
    """A temporal window over a size-normalised tubelet, the unit that gets
    scored. Every proposal over a tubelet shares that one tubelet object."""

    proposal_id: int
    tubelet: Track  # size-normalised
    window: Interval
    scores: Optional[dict] = None  # activity class (or "non_action") -> score

    def __post_init__(self):
        extent = self.tubelet.extent
        if not extent.start <= self.window.start < self.window.end <= extent.end:
            raise InvalidInputError(f"window [{self.window.start}, {self.window.end}) outside its tubelet "
                                    f"[{extent.start}, {extent.end})")

    @property
    def video_id(self):
        return self.tubelet.video_id

    @property
    def object_class(self):
        return self.tubelet.object_class

    @property
    def tubelet_id(self):
        return self.tubelet.id

    @property
    def extent(self):
        return self.window

    @property
    def boxes(self):
        """The tubelet's box rows over the window: a view, not a copy."""
        offset = self.tubelet.extent.start
        return self.tubelet.boxes[self.window.start - offset:self.window.end - offset]


def filter_static(tubelets, config=RefineConfig()):
    """Drop the low-motion tubelets of a `LinkedTubelets`: a tubelet is kept
    when its mean per-frame box centre displacement reaches
    `config.coord_displacement_min`, computed on its table's columns (0.0 for
    one row). Returns the kept tubelets, a `Track` view each in table
    order, and the number removed."""
    kept = []
    for table in tubelets.tables:
        moving = mean_center_steps(table.boxes, table.firsts, table.lengths) >= config.coord_displacement_min
        kept.extend(map(table.__getitem__, np.flatnonzero(moving).tolist()))
    return kept, len(tubelets) - len(kept)


def normalize_boxes(tubelet, width, height, enlarge_factor):
    """Resize every box about its center to the tubelet-wide max width/height,
    then enlarge by `enlarge_factor` and clamp to the frame [0, width] x
    [0, height]; returns them as a `Track` of the tubelet's id and extent."""
    b = tubelet.boxes
    hw = 0.5 * float((b[:, 2] - b[:, 0]).max()) * enlarge_factor
    hh = 0.5 * float((b[:, 3] - b[:, 1]).max()) * enlarge_factor
    cx = 0.5 * (b[:, 0] + b[:, 2])
    cy = 0.5 * (b[:, 1] + b[:, 3])
    resized = np.stack([cx - hw, cy - hh, cx + hw, cy + hh], axis=1)
    high = np.array([width, height] * 2, dtype=np.float64)
    return Track(tubelet.id, tubelet.video_id, tubelet.object_class, tubelet.extent,
                 np.minimum(np.maximum(resized, 0.0), high))


def jitter(tubelet, config=RefineConfig()):
    """Slide multi-scale temporal windows over the tubelet.

    For each window size w with w >= tubelet length the whole extent is
    emitted once; otherwise windows start every `window_stride` frames and a
    tail window flush with the end guarantees full coverage. Duplicates are
    removed; output sorted by (start, end)."""
    start, end = tubelet.extent.start, tubelet.extent.end
    length = tubelet.extent.length
    windows = set()
    for w in config.window_sizes:
        if w >= length:
            windows.add((start, end))
            continue
        s = 0
        while s + w <= length:
            windows.add((start + s, start + s + w))
            s += config.window_stride
        windows.add((end - w, end))
    return [Interval(s, e) for s, e in sorted(windows)]


def make_proposals(tubelet, width, height, config=RefineConfig(), id_start=0):
    """Normalize a tubelet's boxes in a width x height frame and cut it into
    proposal windows."""
    norm = normalize_boxes(tubelet, width, height, config.enlarge_factor)
    return [Proposal(id_start + i, norm, window) for i, window in enumerate(jitter(norm, config))]


# ---------------------------------------------------------------------------
# serialization (scored and unscored proposals share the format)


_PROPOSALS_LINE = '{"boxes": [%s], "class": %s, "end": %d, "id": %d, "proposals": %s, "start": %d, "video_id": %s}'


def write_proposals(proposals, path):
    """One line per normalised tubelet: its `Track` fields, box rows in the
    instances' format and a `proposals` list of {proposal_id, start, end[, scores]}."""
    lines = {}  # (video_id, tubelet_id) -> (track, proposal entries)
    for p in sorted(proposals, key=lambda p: (p.video_id, p.proposal_id)):
        entry = {"proposal_id": p.proposal_id, "start": p.window.start, "end": p.window.end}
        if p.scores is not None:
            entry["scores"] = p.scores
        lines.setdefault((p.video_id, p.tubelet_id), (p.tubelet, []))[1].append(entry)

    def text(t, entries):
        return _PROPOSALS_LINE % (", ".join(box_rows_text(t.extent.start, t.boxes)), json.dumps(t.object_class),
                                  t.extent.end, t.id, json.dumps(entries, sort_keys=True, allow_nan=False),
                                  t.extent.start, json.dumps(t.video_id))

    write_jsonl((text(*lines[key]) for key in sorted(lines)), path)


def _scores_from_record(scores):
    out = {k: float_field(scores, k) for k in scores}
    for key, value in out.items():
        if key not in ACTIVITY_CLASSES and key != NON_ACTION:
            raise InvalidInputError(f"unknown score class: {key!r}")
        if not 0.0 <= value <= 1.0:
            raise InvalidInputError(f"score out of [0,1]: {key}={value}")
    return out


def _proposals_from_record(rec):
    extent = extent_field(rec)
    boxes = decode_boxes(rec["boxes"], extent)
    track = Track(int_field(rec, "id"), str_field(rec, "video_id"), str_field(rec, "class"), extent, boxes)
    return [Proposal(int_field(e, "proposal_id"), track, extent_field(e),
                     _scores_from_record(e["scores"]) if "scores" in e else None) for e in rec["proposals"]]


def read_proposals(path):
    """A proposals or scored file's proposals, in (video_id, proposal_id) order;
    each (video_id, proposal_id) and each line's (video_id, id) is unique."""
    seen = set()

    def build(rec):
        props = _proposals_from_record(rec)
        for key in ((p.video_id, p.proposal_id) for p in props):
            if key in seen:
                raise InvalidInputError(f"duplicate proposal {key!r}: an earlier proposal has it")
            seen.add(key)
        return props

    lines = read_records(path, "proposals", build, tubelet_key)
    return sorted((p for line in lines for p in line), key=lambda p: (p.video_id, p.proposal_id))
