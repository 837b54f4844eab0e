"""Tubelet refinement: static-tubelet filtering, box-size normalization,
multi-scale temporal jittering and uniform frame sampling."""

import math
from dataclasses import dataclass, field
from typing import Optional

from .data_model import read_jsonl, write_jsonl
from .errors import InvalidInputError, ParseError
from .geometry import Box, Interval, clamp_box
from .linking import Tubelet


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


@dataclass
class Proposal:
    """A temporal window over a tubelet, the unit that gets scored."""

    proposal_id: int
    tubelet_id: int
    video_id: str
    object_class: str
    window: Interval
    boxes: dict  # frame -> Box, dense over window, size-normalized
    sampled_frames: list  # absolute frame indices, len == sample_count
    scores: Optional[dict] = None  # activity class (or "non_action") -> score


def motion_stats(tubelet, motion_source=None):
    """Per-tubelet motion summary from box centers and an optional per-frame
    motion-magnitude provider ``motion_source(video_id, frame) -> float``."""
    frames = list(tubelet.extent.frames())
    if len(frames) < 2:
        disp = 0.0
    else:
        total = 0.0
        prev = tubelet.boxes[frames[0]].center
        for f in frames[1:]:
            cur = tubelet.boxes[f].center
            total += math.hypot(cur[0] - prev[0], cur[1] - prev[1])
            prev = cur
        disp = total / (len(frames) - 1)
    if motion_source is None:
        return MotionStats(0.0, 0.0, disp)
    mags = [float(motion_source(tubelet.video_id, f)) for f in frames]
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


def normalize_boxes(tubelet, frame_bounds, enlarge_factor=1.2):
    """Resize every box about its center to the tubelet-wide max width/height,
    then enlarge by `enlarge_factor` and clamp to the frame."""
    if enlarge_factor < 1.0:
        raise InvalidInputError(f"enlarge factor must be >= 1: {enlarge_factor}")
    wmax = max(b.width for b in tubelet.boxes.values())
    hmax = max(b.height for b in tubelet.boxes.values())
    hw = 0.5 * wmax * enlarge_factor
    hh = 0.5 * hmax * enlarge_factor
    boxes = {}
    for f, b in tubelet.boxes.items():
        cx, cy = b.center
        boxes[f] = clamp_box(Box(cx - hw, cy - hh, cx + hw, cy + hh), frame_bounds)
    return Tubelet(
        tubelet.id,
        tubelet.video_id,
        tubelet.object_class,
        tubelet.extent,
        boxes,
        tubelet.box_scores,
        tubelet.provenance,
    )


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


def make_proposals(tubelet, frame_bounds, config=RefineConfig(), id_start=0):
    """Normalize a tubelet's boxes and cut it into sampled proposal windows."""
    norm = normalize_boxes(tubelet, frame_bounds, config.enlarge_factor)
    proposals = []
    for i, window in enumerate(jitter(norm, config)):
        rel = sample_frames(window.length, config.sample_count)
        proposals.append(
            Proposal(
                proposal_id=id_start + i,
                tubelet_id=norm.id,
                video_id=norm.video_id,
                object_class=norm.object_class,
                window=window,
                boxes={f: norm.boxes[f] for f in window.frames()},
                sampled_frames=[window.start + r for r in rel],
            )
        )
    return proposals


# ---------------------------------------------------------------------------
# serialization (scored and unscored proposals share the format)


def write_proposals(proposals, path):
    recs = []
    ordered = sorted(proposals, key=lambda p: (p.video_id, p.proposal_id))
    for p in ordered:
        rec = {
            "proposal_id": p.proposal_id,
            "tubelet_id": p.tubelet_id,
            "video_id": p.video_id,
            "class": p.object_class,
            "start": p.window.start,
            "end": p.window.end,
            "sampled_frames": list(p.sampled_frames),
            "boxes": [
                {
                    "frame": f,
                    "x1": p.boxes[f].x1,
                    "y1": p.boxes[f].y1,
                    "x2": p.boxes[f].x2,
                    "y2": p.boxes[f].y2,
                }
                for f in sorted(p.boxes)
            ],
        }
        if p.scores is not None:
            rec["scores"] = {k: p.scores[k] for k in sorted(p.scores)}
        recs.append(rec)
    write_jsonl(recs, path)


def read_proposals(path):
    out = []
    for lineno, rec in read_jsonl(path):
        try:
            boxes = {
                int(b["frame"]): Box(float(b["x1"]), float(b["y1"]), float(b["x2"]), float(b["y2"]))
                for b in rec["boxes"]
            }
            out.append(
                Proposal(
                    proposal_id=int(rec["proposal_id"]),
                    tubelet_id=int(rec["tubelet_id"]),
                    video_id=str(rec["video_id"]),
                    object_class=str(rec["class"]),
                    window=Interval(int(rec["start"]), int(rec["end"])),
                    boxes=boxes,
                    sampled_frames=[int(f) for f in rec["sampled_frames"]],
                    scores={str(k): float(v) for k, v in rec["scores"].items()}
                    if "scores" in rec
                    else None,
                )
            )
        except (KeyError, InvalidInputError, ValueError, TypeError) as exc:
            raise ParseError(f"invalid proposal: {exc}", path=path, line=lineno)
    out.sort(key=lambda p: (p.video_id, p.proposal_id))
    return out
