"""Turn per-frame detections into tubelets.

Two strategies: greedy adjacent-frame linking with gap interpolation, and
tracking-based linking that bridges missed detections with a
constant-velocity predictor and a patience window.
"""

from dataclasses import dataclass

import numpy as np

from . import kernels
from .data_model import (
    OBJECT_CLASSES,
    decode_boxes,
    encode_boxes,
    int_field,
    read_records,
    str_field,
    track_boxes,
    write_jsonl,
)
from .errors import InvalidInputError
from .geometry import Box, Interval

PROVENANCES = ("detected", "interpolated", "tracked")


@dataclass(eq=False)
class Tubelet:
    """Temporally contiguous boxes of one object; row k of every array is
    frame extent.start + k. `id` is assigned by whoever numbers the tubelets
    (a linker within a video, `link` across the videos of a file)."""

    id: int
    video_id: str
    object_class: str
    extent: Interval
    boxes: np.ndarray  # (n,4) float64 x1, y1, x2, y2
    box_scores: np.ndarray  # (n,) float64
    provenance: np.ndarray  # (n,) int8 index into PROVENANCES

    def __post_init__(self):
        self.boxes = track_boxes(self.boxes, self.extent)
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
    video_id = _single_video(detections)

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

    return _numbered(tubelets), stats


def _merge_and_emit(chains, video_id, cls, config, stats):
    """Merge chains across gaps <= max_interp_gap when end/start boxes still
    overlap above the link threshold, then emit tubelets.

    A candidate is a (tail of i, head of j) pair whose gap is 1 to
    max_interp_gap frames; every candidate's IoU comes from one `paired_iou`
    over the pairs, found per tail by binary search in the heads' frames."""
    n = len(chains)
    tails = np.array([(c[-1].box.x1, c[-1].box.y1, c[-1].box.x2, c[-1].box.y2) for c in chains], dtype=np.float64)
    heads = np.array([(c[0].box.x1, c[0].box.y1, c[0].box.x2, c[0].box.y2) for c in chains], dtype=np.float64)
    head_frames = np.array([c[0].frame for c in chains], dtype=np.int64)
    tail_frames = np.array([c[-1].frame for c in chains], dtype=np.int64)
    head_order = np.argsort(head_frames, kind="stable")
    # heads of tail i: frames tail + 2 .. tail + 1 + max_interp_gap
    lo = np.searchsorted(head_frames[head_order], tail_frames + 2, side="left")
    hi = np.searchsorted(head_frames[head_order], tail_frames + 1 + config.max_interp_gap, side="right")
    counts = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(n), counts)
    j = head_order[np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    iou = kernels.paired_iou(tails[i], heads[j])
    linked = iou > config.iou_link_threshold
    candidates = sorted(zip((-iou[linked]).tolist(), i[linked].tolist(), j[linked].tolist()))
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


def _numbered(tubelets):
    """The tubelets sorted by `_emit_order` (a stable sort) and numbered from 0."""
    tubelets.sort(key=_emit_order)
    for i, t in enumerate(tubelets):
        t.id = i
    return tubelets


def _single_video(detections):
    """The one video id of the detections ("" when there are none)."""
    video_ids = {d.video_id for d in detections}
    if len(video_ids) > 1:
        raise InvalidInputError(f"detections span multiple videos: {sorted(video_ids)}")
    return video_ids.pop() if video_ids else ""


# ---------------------------------------------------------------------------
# tracking-based linking

# Class codes follow the sorted class names, so ascending codes visit the
# classes in the order `sorted` gives their names.
_CLASS_ORDER = tuple(sorted(OBJECT_CLASSES))
_DETECTED = PROVENANCES.index("detected")
_TRACKED = PROVENANCES.index("tracked")


def predict_next(last, prev):
    """Constant-velocity prediction for (k,4) arrays of each track's last box
    and the box before it: the centre moves on by its last step, width and
    height are carried forward. Elementwise float64, in the scalar formula's
    order: d = 0.5*(l.x1+l.x2) - 0.5*(p.x1+p.x2), then l.x1 + d, ..."""
    step = 0.5 * (last[:, :2] + last[:, 2:]) - 0.5 * (prev[:, :2] + prev[:, 2:])
    return last + np.concatenate((step, step), axis=1)


def _detection_arrays(detections):
    """The detections ordered by frame, box (x1, y1, x2, y2), then descending
    score, ties in input order: (n,4) boxes, scores, class codes, and a map
    of each frame to its [first, end) rows."""
    ordered = sorted(detections, key=lambda d: (d.frame, d.box.x1, d.box.y1, d.box.x2, d.box.y2, -d.score))
    boxes = np.array([(d.box.x1, d.box.y1, d.box.x2, d.box.y2) for d in ordered], dtype=np.float64)
    scores = np.array([d.score for d in ordered], dtype=np.float64)
    classes = np.array([_CLASS_ORDER.index(d.object_class) for d in ordered], dtype=np.int64)
    frame_rows = {}
    for i, d in enumerate(ordered):
        frame_rows.setdefault(d.frame, [i, i])[1] = i + 1
    return boxes, scores, classes, frame_rows


# Every `_COMPACT_BLOCKS` row blocks are merged into one without the rows an
# ended track will not emit (a track ends after `patience` predicted rows,
# all trimmed), so those rows do not pile up until the end of the video.
# A live track keeps all its rows.
_LIVE = np.iinfo(np.int64).max
_COMPACT_BLOCKS = 64


def _kept_rows(blocks, length):
    """The rows of the blocks, column by column, without the rows of a track
    past its end (age >= length[track id])."""
    tids, ages, *columns = (np.concatenate(col) for col in zip(*blocks))
    kept = ages < length[tids]
    return [tids[kept], ages[kept]] + [col[kept] for col in columns]


def track_link(detections, config=LinkConfig(), stats=None):
    """Tracking-based linking: live tracks predict a box every frame, merge
    with unclaimed detections by IoU, and terminate after `patience`
    consecutive unmatched frames. Trailing predicted-only frames are trimmed.

    The live tracks are parallel arrays in the order they were seeded. Every
    frame records one row per live track (its matched detection, or else its
    prediction) and one per new track, with the row's age (frame - seed
    frame). At the end each track's rows up to its last match are scattered
    into one array per column, the tracks in the order they ended and the
    still-live ones last; `_numbered` sorts stably, so that order breaks its
    ties."""
    if stats is None:
        stats = LinkStats()
    video_id = _single_video(detections)
    if not detections:
        return [], stats
    det_boxes, det_scores, det_classes, frame_rows = _detection_arrays(detections)

    # live state, one entry per live track
    tids = np.zeros(0, dtype=np.int64)
    seeds = np.zeros(0, dtype=np.int64)  # frame of the first detection
    last = np.zeros((0, 4))  # the last box and the one before it
    prev = np.zeros((0, 4))
    classes = np.zeros(0, dtype=np.int64)
    misses = np.zeros(0, dtype=np.int64)  # frames since the last match
    carried = np.zeros(0)  # score of the last matched detection
    # by track id
    seed_frame, seed_class, length = [], [], []
    end_order = []  # track ids, in the order the tracks ended
    blocks = []  # (track ids, ages, boxes, scores, detected?) rows

    for f in range(min(frame_rows), max(frame_rows) + 1):
        lo, hi = frame_rows.get(f, (0, 0))
        f_boxes, f_scores, f_classes = det_boxes[lo:hi], det_scores[lo:hi], det_classes[lo:hi]

        # a track seeded on the previous frame has one box: it stays put
        ages = f - seeds
        pred = np.where(ages[:, None] >= 2, predict_next(last, prev), last)
        if not np.isfinite(pred).all():
            raise InvalidInputError(f"non-finite predicted box at frame {f}")
        match = np.full(len(tids), -1)
        claimed = np.zeros(hi - lo, dtype=bool)
        for c in sorted(set(f_classes.tolist())):
            (rows,) = (classes == c).nonzero()
            if not rows.size:
                continue
            (cols,) = (f_classes == c).nonzero()
            iou = kernels.iou_matrix(pred[rows], f_boxes[cols])
            for r, col in _greedy_pairs(iou, config.iou_link_threshold, strict=False):
                match[rows[r]] = cols[col]
                claimed[cols[col]] = True

        hit = match >= 0
        matched = match[hit]
        pred[hit] = f_boxes[matched]
        carried = carried.copy()  # the previous frame's block holds the old array
        carried[hit] = f_scores[matched]
        blocks.append((tids, ages, pred, carried, hit))
        stats.tracked_frames += len(hit) - len(matched)
        prev, last = last, pred
        misses = np.where(hit, 0, misses + 1)

        done = misses >= config.patience
        if done.any():
            end_order.append(tids[done])
            for t, n in zip(tids[done].tolist(), (f + 1 - config.patience - seeds[done]).tolist()):
                length[t] = n
            keep = ~done
            tids, seeds, last, prev = tids[keep], seeds[keep], last[keep], prev[keep]
            classes, misses, carried = classes[keep], misses[keep], carried[keep]

        (new,) = (~claimed).nonzero()
        if new.size:
            new_tids = np.arange(len(seed_frame), len(seed_frame) + new.size)
            seed_frame.extend([f] * new.size)
            seed_class.extend(f_classes[new].tolist())
            length.extend([_LIVE] * new.size)
            zeros = np.zeros(new.size, dtype=np.int64)
            blocks.append((new_tids, zeros, f_boxes[new], f_scores[new], zeros == 0))
            tids = np.concatenate((tids, new_tids))
            seeds = np.concatenate((seeds, zeros + f))
            last = np.concatenate((last, f_boxes[new]))
            prev = np.concatenate((prev, f_boxes[new]))
            classes = np.concatenate((classes, f_classes[new]))
            misses = np.concatenate((misses, zeros))
            carried = np.concatenate((carried, f_scores[new]))
        if len(blocks) >= _COMPACT_BLOCKS:
            blocks = [_kept_rows(blocks, np.array(length))]
    end_order.append(tids)
    for t, n in zip(tids.tolist(), (f + 1 - misses - seeds).tolist()):
        length[t] = n

    # track t's rows go to first[t] .. first[t] + length[t] - 1
    order = np.concatenate(end_order)
    length = np.array(length)
    first = np.zeros(len(length), dtype=np.int64)
    first[order] = np.cumsum(length[order]) - length[order]
    row_tids, ages, *columns = _kept_rows(blocks, length)
    boxes, scores, detected = (np.empty_like(col) for col in columns)
    for out, col in zip((boxes, scores, detected), columns):
        out[first[row_tids] + ages] = col
    prov = np.where(detected, _DETECTED, _TRACKED).astype(np.int8)

    tubelets = []
    for t in order.tolist():
        lo, n, start = int(first[t]), int(length[t]), seed_frame[t]
        tubelets.append(
            Tubelet(
                id=-1,
                video_id=video_id,
                object_class=_CLASS_ORDER[seed_class[t]],
                extent=Interval(start, start + n),
                boxes=boxes[lo : lo + n],
                box_scores=scores[lo : lo + n],
                provenance=prov[lo : lo + n],
            )
        )
    return _numbered(tubelets), stats


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
        video_id=str_field(rec, "video_id"),
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
