"""Tubelet refinement: static-tubelet filtering, box-size normalization,
multi-scale temporal jittering and uniform frame sampling."""

from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from .data_model import ACTIVITY_CLASSES, float_field, int_field, read_records, write_jsonl
from .errors import InvalidInputError
from .geometry import Interval, mean_center_step
from .linking import Tubelet, tubelet_from_record, tubelet_record
from .proposals import NON_ACTION


@dataclass(frozen=True)
class MotionStats:
    flow_max: float
    flow_mean: float
    coord_displacement: float  # mean per-frame center displacement, px


@dataclass(frozen=True)
class RefineConfig:
    coord_displacement_min: float = 0.5  # px/frame
    flow_mean_min: float = 1.0
    enlarge_factor: float = 1.2
    window_sizes: tuple = (32, 64, 128, 256)
    window_stride: int = 16
    sample_count: int = 64

    def __post_init__(self):
        if not self.window_sizes or list(self.window_sizes) != sorted(self.window_sizes):
            raise InvalidInputError(f"window_sizes must be nonempty ascending: {self.window_sizes}")
        if self.window_stride < 1:
            raise InvalidInputError(f"window_stride must be >= 1: {self.window_stride}")
        if self.sample_count < 1:
            raise InvalidInputError(f"sample_count must be >= 1: {self.sample_count}")


@dataclass(eq=False)
class Proposal:
    """A temporal window over a size-normalised tubelet, the unit that gets
    scored. Every proposal over a tubelet shares that one tubelet object."""

    proposal_id: int
    tubelet: Tubelet  # size-normalised
    window: Interval
    sample_count: int
    scores: Optional[dict] = None  # activity class (or "non_action") -> score

    def __post_init__(self):
        extent = self.tubelet.extent
        if not extent.start <= self.window.start < self.window.end <= extent.end:
            raise InvalidInputError(
                f"window [{self.window.start}, {self.window.end}) outside its tubelet "
                f"[{extent.start}, {extent.end})"
            )
        if self.sample_count < 1:
            raise InvalidInputError(f"sample_count must be >= 1: {self.sample_count}")

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

    @property
    def sampled_frames(self):
        """Absolute indices of the `sample_count` frames fed to a scorer."""
        return [self.window.start + r for r in sample_frames(self.window.length, self.sample_count)]


def motion_stats(tubelet, motion_source=None):
    """Per-tubelet motion summary from box centers and an optional per-frame
    motion-magnitude provider ``motion_source(video_id, frame) -> float``."""
    disp = mean_center_step(tubelet.boxes)
    if motion_source is None:
        return MotionStats(0.0, 0.0, disp)
    mags = [float(motion_source(tubelet.video_id, f)) for f in tubelet.extent.frames()]
    return MotionStats(max(mags), sum(mags) / len(mags), disp)


def filter_static(tubelets, config=RefineConfig(), motion_source=None):
    """Drop low-motion tubelets. A tubelet is kept when either its mean center
    displacement or (when a flow source is present) its mean flow magnitude
    clears the configured threshold. Order-preserving."""
    kept = []
    removed = 0
    for t in tubelets:
        stats = motion_stats(t, motion_source)
        keep = stats.coord_displacement >= config.coord_displacement_min
        if motion_source is not None:
            keep = keep or stats.flow_mean >= config.flow_mean_min
        if keep:
            kept.append(t)
        else:
            removed += 1
    return kept, removed


def normalize_boxes(tubelet, width, height, enlarge_factor=1.2):
    """Resize every box about its center to the tubelet-wide max width/height,
    then enlarge by `enlarge_factor` and clamp to the frame [0, width] x
    [0, height]."""
    if enlarge_factor < 1.0:
        raise InvalidInputError(f"enlarge factor must be >= 1: {enlarge_factor}")
    b = tubelet.boxes
    hw = 0.5 * float((b[:, 2] - b[:, 0]).max()) * enlarge_factor
    hh = 0.5 * float((b[:, 3] - b[:, 1]).max()) * enlarge_factor
    cx = 0.5 * (b[:, 0] + b[:, 2])
    cy = 0.5 * (b[:, 1] + b[:, 3])
    resized = np.stack([cx - hw, cy - hh, cx + hw, cy + hh], axis=1)
    high = np.array([width, height] * 2, dtype=np.float64)
    return replace(tubelet, boxes=np.minimum(np.maximum(resized, 0.0), high))


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


def sample_frames(length, sample_count):
    """Uniform sampling of `sample_count` indices in [0, length); repeats
    naturally when the window is shorter than the sample count."""
    if length < 1 or sample_count < 1:
        raise InvalidInputError(f"need positive length/count, got {length}/{sample_count}")
    return [k * length // sample_count for k in range(sample_count)]


def make_proposals(tubelet, width, height, config=RefineConfig(), id_start=0):
    """Normalize a tubelet's boxes in a width x height frame and cut it into
    proposal windows."""
    norm = normalize_boxes(tubelet, width, height, config.enlarge_factor)
    return [
        Proposal(id_start + i, norm, window, config.sample_count)
        for i, window in enumerate(jitter(norm, config))
    ]


# ---------------------------------------------------------------------------
# serialization (scored and unscored proposals share the format)


def write_proposals(proposals, path):
    """One line per normalised tubelet: its tubelets.jsonl record plus
    `sample_count` and a `proposals` list of {proposal_id, start, end[, scores]}."""
    lines = {}
    for p in sorted(proposals, key=lambda p: (p.video_id, p.proposal_id)):
        key = (p.video_id, p.tubelet_id)
        if key not in lines:
            lines[key] = {**tubelet_record(p.tubelet), "sample_count": p.sample_count, "proposals": []}
        entry = {"proposal_id": p.proposal_id, "start": p.window.start, "end": p.window.end}
        if p.scores is not None:
            entry["scores"] = p.scores
        lines[key]["proposals"].append(entry)
    write_jsonl([lines[key] for key in sorted(lines)], path)


def _scores_from_record(scores):
    out = {k: float_field(scores, k) for k in scores}
    for key, value in out.items():
        if key not in ACTIVITY_CLASSES and key != NON_ACTION:
            raise InvalidInputError(f"unknown score class: {key!r}")
        if not 0.0 <= value <= 1.0:
            raise InvalidInputError(f"score out of [0,1]: {key}={value}")
    return out


def _proposals_from_record(rec):
    tubelet = tubelet_from_record(rec)
    sample_count = int_field(rec, "sample_count")
    return [
        Proposal(
            proposal_id=int_field(e, "proposal_id"),
            tubelet=tubelet,
            window=Interval(int_field(e, "start"), int_field(e, "end")),
            sample_count=sample_count,
            scores=_scores_from_record(e["scores"]) if "scores" in e else None,
        )
        for e in rec["proposals"]
    ]


def read_proposals(path):
    out = [p for line in read_records(path, "proposals", _proposals_from_record) for p in line]
    out.sort(key=lambda p: (p.video_id, p.proposal_id))
    return out
