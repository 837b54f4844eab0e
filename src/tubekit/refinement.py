"""Tubelet refinement: static-tubelet filtering, box-size normalization and
multi-scale temporal jittering into proposals, one `TubeletProposals` per tubelet."""

import json
from dataclasses import dataclass

import numpy as np

from .data_model import (
    DETECTION_CLASSES,
    box_rows_text,
    extent_field,
    float_field,
    int_field,
    read_records,
    write_jsonl,
)
from .errors import InvalidInputError
from .geometry import Interval, mean_center_steps
from .linking import Track, tubelet_fields, tubelet_key
from .proposals import SCORE_CLASSES


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


@dataclass(frozen=True, eq=False)
class TubeletProposals:
    """The proposals over one normalised tubelet, one proposals-file line: proposal
    i has id ids[i], the frames windows[i] of `track` and, once scored, row i of
    `scores` (NaN: a class left out). Indexing makes its `Track`, a view of `track`'s rows."""

    track: Track  # size-normalised
    ids: np.ndarray  # (n,) int64, ascending
    windows: np.ndarray  # (n,2) int64 start, length; an end is at most FRAME_LIMIT
    scores: np.ndarray | None = None  # (n, len(SCORE_CLASSES)) float64

    def __len__(self):
        return len(self.ids)

    def __getitem__(self, i):
        start, length = self.windows[i].tolist()
        offset, t = start - self.track.extent.start, self.track
        return Track(int(self.ids[i]), t.video_id, t.object_class, Interval(start, start + length),
                     t.boxes[offset:offset + length])


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
    proposal windows, numbered from `id_start`: one `TubeletProposals`."""
    norm = normalize_boxes(tubelet, width, height, config.enlarge_factor)
    windows = np.array([(w.start, w.length) for w in jitter(norm, config)], dtype=np.int64)
    return TubeletProposals(norm, np.arange(id_start, id_start + len(windows), dtype=np.int64), windows)


# ---------------------------------------------------------------------------
# serialization (scored and unscored proposals share the format)


_PROPOSALS_LINE = '{"boxes": [%s], "class": %s, "end": %d, "id": %d, "proposals": %s, "start": %d, "video_id": %s}'


def write_proposals(lines, path):
    """One line per `TubeletProposals` that holds a proposal, in the order given:
    its `Track` fields, box rows and a `proposals` list of {proposal_id, start, end[, scores]}."""

    def text(line):
        t, spans = line.track, zip(line.ids.tolist(), line.windows.tolist())
        entries = [{"proposal_id": i, "start": s, "end": s + n} for i, (s, n) in spans]
        for entry, row in zip(entries, [] if line.scores is None else line.scores.tolist()):
            entry["scores"] = {name: v for name, v in zip(SCORE_CLASSES, row) if v == v}  # not NaN
        return _PROPOSALS_LINE % (", ".join(box_rows_text(t.extent.start, t.boxes)), json.dumps(t.object_class),
                                  t.extent.end, t.id, json.dumps(entries, sort_keys=True, allow_nan=False),
                                  t.extent.start, json.dumps(t.video_id))

    write_jsonl((text(line) for line in lines if len(line)), path)


def score_matrix(maps):
    """The (n, len(SCORE_CLASSES)) score matrix of n score maps ({class: score}):
    row i holds map i, NaN for each class it leaves out."""
    return np.array([[m.get(c, np.nan) for c in SCORE_CLASSES] for m in maps], np.float64).reshape(-1, len(SCORE_CLASSES))


def _score_map(scores):
    """A proposal's `scores` object as {class: float}, each a score class's, in [0, 1]."""
    out = {k: float_field(scores, k) for k in scores}
    for key, value in out.items():
        if key not in SCORE_CLASSES:
            raise InvalidInputError(f"unknown score class: {key!r}")
        if not 0.0 <= value <= 1.0:
            raise InvalidInputError(f"score out of [0,1]: {key}={value}")
    return out


def _proposals_from_record(rec):
    video_id, (tubelet_id, start, length, code), values = tubelet_fields(rec)
    extent = Interval(start, start + length)
    # a copy that owns its memory, so that `write_instances` finds the row views of it
    boxes = np.frombuffer(values).reshape(-1, 4).copy()
    track = Track(tubelet_id, video_id, DETECTION_CLASSES[code], extent, boxes)
    entries = rec["proposals"]
    ids = np.array([int_field(e, "proposal_id") for e in entries], dtype=np.int64)
    windows = np.array([(w.start, w.length) for w in map(extent_field, entries)], dtype=np.int64).reshape(-1, 2)
    # every end is at most FRAME_LIMIT, so start + length cannot overflow
    outside = (windows[:, 0] < extent.start) | (windows.sum(axis=1) > extent.end)
    if outside.any():
        start, n = windows[np.argmax(outside)].tolist()
        raise InvalidInputError(f"window [{start}, {start + n}) outside its tubelet [{extent.start}, {extent.end})")
    order, scored = np.argsort(ids, kind="stable"), any("scores" in e for e in entries)
    # then every proposal needs `scores` (a KeyError): a matrix cannot tell a missing map from an empty one
    scores = score_matrix([_score_map(e["scores"]) for e in entries])[order] if scored else None
    return TubeletProposals(track, ids[order], windows[order], scores)


def _claims(line):
    """The keys a proposals line claims: each (video_id, proposal_id), then its tubelet's (video_id, id)."""
    t = line.track
    return [*(("proposal", t.video_id, i) for i in line.ids.tolist()), tubelet_key(t.video_id, t.id)]


def read_proposals(path):
    """A proposals or scored file's lines that hold a proposal, in (video_id, id)
    order; each line's (video_id, id) and each (video_id, proposal_id) is unique."""
    lines = read_records(path, "proposals", _proposals_from_record, _claims)
    return sorted((line for line in lines if len(line)), key=lambda line: (line.track.video_id, line.track.id))
