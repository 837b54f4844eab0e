"""Turn per-frame detections into tubelets.

Two strategies: greedy adjacent-frame linking with gap interpolation, and
tracking-based linking that bridges missed detections with a motion
predictor (constant-velocity by default) and a patience window.
"""

from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data_model import (
    OBJECT_CLASSES,
    decode_boxes,
    encode_boxes,
    int_field,
    read_records,
    track_boxes,
    write_jsonl,
)
from .errors import InvalidInputError
from .geometry import Box, Interval

PROVENANCES = ("detected", "interpolated", "tracked")


@dataclass(frozen=True, eq=False)
class Tubelet:
    """Temporally contiguous boxes of one object; row k of every array is
    frame extent.start + k."""

    id: int
    video_id: str
    object_class: str
    extent: Interval
    boxes: np.ndarray  # (n,4) float64 x1, y1, x2, y2
    box_scores: np.ndarray  # (n,) float64
    provenance: np.ndarray  # (n,) int8 index into PROVENANCES

    def __post_init__(self):
        object.__setattr__(self, "boxes", track_boxes(self.boxes, self.extent))
        if self.box_scores.shape != (self.extent.length,) or self.provenance.shape != (self.extent.length,):
            raise InvalidInputError("tubelet scores and provenance need one value per frame of the extent")
        if self.object_class not in OBJECT_CLASSES:
            raise InvalidInputError(f"object class not admitted: {self.object_class!r}")


@dataclass(frozen=True)
class LinkConfig:
    iou_link_threshold: float = 0.5
    patience: int = 50
    max_interp_gap: int = 8

    def __post_init__(self):
        if not 0.0 < self.iou_link_threshold <= 1.0:
            raise InvalidInputError(f"iou_link_threshold out of (0,1]: {self.iou_link_threshold}")
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1: {self.patience}")


# ---------------------------------------------------------------------------
# interpolation


@dataclass
class LinkStats:
    """Book-keeping emitted alongside tubelets."""

    splits_on_long_gap: int = 0
    interpolated_frames: int = 0
    tracked_frames: int = 0


def interpolate_gaps(observed, max_interp_gap, stats=None):
    """Fill holes in a sparse frame -> (Box, score) map by linear interpolation.

    Holes longer than `max_interp_gap` split the sequence. Returns a list of
    dense segments, each a (boxes, scores, provenance) triple of frame maps.
    """
    if not observed:
        return []
    frames = sorted(observed)
    segments = []
    boxes = {frames[0]: observed[frames[0]][0]}
    scores = {frames[0]: observed[frames[0]][1]}
    prov = {frames[0]: "detected"}
    for prev, cur in zip(frames, frames[1:]):
        gap = cur - prev - 1
        if gap > max_interp_gap:
            segments.append((boxes, scores, prov))
            if stats is not None:
                stats.splits_on_long_gap += 1
            boxes, scores, prov = {}, {}, {}
        elif gap > 0:
            b0, s0 = observed[prev]
            b1, s1 = observed[cur]
            for f in range(prev + 1, cur):
                # (f-prev)*(delta)/(span) rather than a premultiplied ratio:
                # exact for linear motion with representable velocities
                k, span = f - prev, cur - prev
                boxes[f] = Box(
                    b0.x1 + k * (b1.x1 - b0.x1) / span,
                    b0.y1 + k * (b1.y1 - b0.y1) / span,
                    b0.x2 + k * (b1.x2 - b0.x2) / span,
                    b0.y2 + k * (b1.y2 - b0.y2) / span,
                )
                scores[f] = s0 + k * (s1 - s0) / span
                prov[f] = "interpolated"
                if stats is not None:
                    stats.interpolated_frames += 1
        boxes[cur] = observed[cur][0]
        scores[cur] = observed[cur][1]
        prov[cur] = "detected"
    segments.append((boxes, scores, prov))
    return segments


# ---------------------------------------------------------------------------
# greedy linking


def _group_by_class_frame(detections):
    grouped = {}
    for det in sorted(detections, key=lambda d: (d.frame, d.box, -d.score)):
        grouped.setdefault(det.object_class, {}).setdefault(det.frame, []).append(det)
    return grouped


def _greedy_pairs(iou, threshold, strict):
    """One-to-one matching of an IoU matrix, descending IoU, deterministic
    tie-break on (row, col). `strict` selects > vs >= against the threshold."""
    rows, cols = np.nonzero(iou > threshold if strict else iou >= threshold)
    order = sorted(range(len(rows)), key=lambda k: (-iou[rows[k], cols[k]], rows[k], cols[k]))
    used_r, used_c = set(), set()
    out = []
    for k in order:
        r, c = int(rows[k]), int(cols[k])
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        out.append((r, c))
    return out


def greedy_link(detections, config=LinkConfig(), stats=None):
    """Greedy adjacent-frame linking; chains separated by short gaps are merged
    and the holes filled by linear interpolation."""
    if stats is None:
        stats = LinkStats()
    video_ids = {d.video_id for d in detections}
    if len(video_ids) > 1:
        raise InvalidInputError(f"detections span multiple videos: {sorted(video_ids)}")
    video_id = video_ids.pop() if video_ids else ""

    tubelets = []
    for cls, by_frame in sorted(_group_by_class_frame(detections).items()):
        # chains: lists of Detection with strictly consecutive frames
        chains = []
        open_by_tail = {}  # frame -> list of chain indices whose tail is at frame
        for f in sorted(by_frame):
            dets = by_frame[f]
            tails = open_by_tail.pop(f - 1, [])
            matched_dets = set()
            if tails:
                tail_boxes = [chains[ci][-1].box for ci in tails]
                det_boxes = [d.box for d in dets]
                iou = kernels.iou_matrix(
                    [[b.x1, b.y1, b.x2, b.y2] for b in tail_boxes],
                    [[b.x1, b.y1, b.x2, b.y2] for b in det_boxes],
                )
                for r, c in _greedy_pairs(iou, config.iou_link_threshold, strict=True):
                    chains[tails[r]].append(dets[c])
                    open_by_tail.setdefault(f, []).append(tails[r])
                    matched_dets.add(c)
            for c, det in enumerate(dets):
                if c not in matched_dets:
                    chains.append([det])
                    open_by_tail.setdefault(f, []).append(len(chains) - 1)

        tubelets.extend(
            _merge_and_emit(chains, video_id, cls, config, stats)
        )

    tubelets.sort(key=_emit_order)
    return [replace(t, id=i) for i, t in enumerate(tubelets)], stats


def _merge_and_emit(chains, video_id, cls, config, stats):
    """Merge chains across gaps <= max_interp_gap when end/start boxes still
    overlap above the link threshold, then emit tubelets."""
    n = len(chains)
    candidates = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gap = chains[j][0].frame - chains[i][-1].frame - 1
            if not 1 <= gap <= config.max_interp_gap:
                continue
            iou = kernels.iou_matrix(
                [[chains[i][-1].box.x1, chains[i][-1].box.y1, chains[i][-1].box.x2, chains[i][-1].box.y2]],
                [[chains[j][0].box.x1, chains[j][0].box.y1, chains[j][0].box.x2, chains[j][0].box.y2]],
            )[0, 0]
            if iou > config.iou_link_threshold:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    next_of = {}
    used_starts = set()
    for _, i, j in candidates:
        if i in next_of or j in used_starts:
            continue
        next_of[i] = j
        used_starts.add(j)

    out = []
    for i in range(n):
        if i in used_starts:
            continue
        sequence = list(chains[i])
        k = i
        while k in next_of:
            k = next_of[k]
            sequence.extend(chains[k])
        observed = {d.frame: (d.box, d.score) for d in sequence}
        for boxes, scores, prov in interpolate_gaps(observed, config.max_interp_gap, stats):
            out.append(_emit(video_id, cls, [(f, boxes[f], scores[f], prov[f]) for f in sorted(boxes)]))
    return out


def _emit(video_id, object_class, entries):
    """A tubelet (id -1) from frame-ordered (frame, Box, score, provenance)
    entries that hold every frame of their span."""
    frames, boxes, scores, prov = zip(*entries)
    return Tubelet(
        id=-1,
        video_id=video_id,
        object_class=object_class,
        extent=Interval(frames[0], frames[-1] + 1),
        boxes=np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64),
        box_scores=np.array(scores, dtype=np.float64),
        provenance=np.array([PROVENANCES.index(p) for p in prov], dtype=np.int8),
    )


def _emit_order(t):
    """Linkers number tubelets by start frame, class, then first box."""
    return (t.extent.start, t.object_class, tuple(t.boxes[0].tolist()))


# ---------------------------------------------------------------------------
# tracking-based linking


def predict_next(history):
    """Constant-velocity extrapolation of the box center from the last two
    boxes; width/height carried forward. Single-element history repeats."""
    if not history:
        raise InvalidInputError("empty box history")
    last = history[-1]
    if len(history) == 1:
        return last
    prev = history[-2]
    dcx = 0.5 * (last.x1 + last.x2) - 0.5 * (prev.x1 + prev.x2)
    dcy = 0.5 * (last.y1 + last.y2) - 0.5 * (prev.y1 + prev.y2)
    return Box(last.x1 + dcx, last.y1 + dcy, last.x2 + dcx, last.y2 + dcy)


class ConstantVelocityTracker:
    """Default pluggable tracker; pixel-free, pure box extrapolation."""

    def predict_next(self, history):
        return predict_next(history)


@dataclass
class _Track:
    object_class: str
    entries: list  # (frame, Box, score, provenance)
    misses: int = 0
    last_match_frame: int = 0
    seed_order: int = 0


def track_link(detections, tracker=None, config=LinkConfig(), stats=None):
    """Tracking-based linking: live tracks predict a box every frame, merge
    with unclaimed detections by IoU, and terminate after `patience`
    consecutive unmatched frames. Trailing predicted-only frames are trimmed."""
    if tracker is None:
        tracker = ConstantVelocityTracker()
    if stats is None:
        stats = LinkStats()
    video_ids = {d.video_id for d in detections}
    if len(video_ids) > 1:
        raise InvalidInputError(f"detections span multiple videos: {sorted(video_ids)}")
    video_id = video_ids.pop() if video_ids else ""

    by_frame = {}
    for det in sorted(detections, key=lambda d: (d.frame, d.box, -d.score)):
        by_frame.setdefault(det.frame, []).append(det)

    finished = []
    live = []
    seed_counter = 0
    if by_frame:
        first, last = min(by_frame), max(by_frame)
        for f in range(first, last + 1):
            dets = by_frame.get(f, [])
            claimed = set()
            by_class = {}
            for idx, det in enumerate(dets):
                by_class.setdefault(det.object_class, []).append(idx)

            predictions = [tracker.predict_next([e[1] for e in tr.entries]) for tr in live]

            for cls in sorted(by_class):
                track_ids = [ti for ti, tr in enumerate(live) if tr.object_class == cls]
                det_ids = by_class[cls]
                if not track_ids:
                    continue
                iou = kernels.iou_matrix(
                    [[predictions[ti].x1, predictions[ti].y1, predictions[ti].x2, predictions[ti].y2]
                     for ti in track_ids],
                    [[dets[di].box.x1, dets[di].box.y1, dets[di].box.x2, dets[di].box.y2]
                     for di in det_ids],
                )
                for r, c in _greedy_pairs(iou, config.iou_link_threshold, strict=False):
                    tr = live[track_ids[r]]
                    det = dets[det_ids[c]]
                    tr.entries.append((f, det.box, det.score, "detected"))
                    tr.misses = 0
                    tr.last_match_frame = f
                    claimed.add(det_ids[c])

            still_live = []
            for ti, tr in enumerate(live):
                if tr.entries[-1][0] == f:
                    still_live.append(tr)
                    continue
                carry_score = tr.entries[-1][2]
                tr.entries.append((f, predictions[ti], carry_score, "tracked"))
                tr.misses += 1
                stats.tracked_frames += 1
                if tr.misses >= config.patience:
                    finished.append(tr)
                else:
                    still_live.append(tr)
            live = still_live

            for idx, det in enumerate(dets):
                if idx in claimed:
                    continue
                live.append(
                    _Track(
                        object_class=det.object_class,
                        entries=[(f, det.box, det.score, "detected")],
                        last_match_frame=f,
                        seed_order=seed_counter,
                    )
                )
                seed_counter += 1
    finished.extend(live)

    tubelets = []
    for tr in finished:
        entries = [e for e in tr.entries if e[0] <= tr.last_match_frame]
        if entries:
            tubelets.append(_emit(video_id, tr.object_class, entries))
    tubelets.sort(key=_emit_order)
    return [replace(t, id=i) for i, t in enumerate(tubelets)], stats


# ---------------------------------------------------------------------------
# serialization


def tubelet_record(t):
    """The tubelets.jsonl record of one tubelet."""
    return {
        "id": t.id,
        "video_id": t.video_id,
        "class": t.object_class,
        "start": t.extent.start,
        "end": t.extent.end,
        "boxes": encode_boxes(
            t.extent,
            t.boxes,
            score=t.box_scores.tolist(),
            provenance=[PROVENANCES[c] for c in t.provenance.tolist()],
        ),
    }


def tubelet_from_record(rec):
    """Inverse of `tubelet_record`; raises on any invalid field."""
    extent = Interval(int_field(rec, "start"), int_field(rec, "end"))
    boxes, scores, prov = decode_boxes(rec["boxes"], extent, "score", "provenance")
    scores = np.array(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise InvalidInputError("non-finite box score")
    unknown = set(prov) - set(PROVENANCES)
    if unknown:
        raise InvalidInputError(f"unknown provenance {unknown}")
    return Tubelet(
        id=int_field(rec, "id"),
        video_id=str(rec["video_id"]),
        object_class=str(rec["class"]),
        extent=extent,
        boxes=boxes,
        box_scores=scores,
        provenance=np.array([PROVENANCES.index(p) for p in prov], dtype=np.int8),
    )


def write_tubelets(tubelets, path):
    write_jsonl([tubelet_record(t) for t in sorted(tubelets, key=lambda t: (t.video_id, t.id))], path)


def read_tubelets(path):
    out = read_records(path, "tubelet", tubelet_from_record)
    out.sort(key=lambda t: (t.video_id, t.id))
    return out
