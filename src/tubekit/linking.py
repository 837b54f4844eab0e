"""Turn per-frame detections into tubelets.

Two strategies: greedy adjacent-frame linking with gap interpolation, and
tracking-based linking that bridges missed detections with a
constant-velocity predictor and a patience window.

Both linkers return one video's tubelets as one `VideoTubelets` column
table: each tubelet's start frame, length, class code and first row, and the
box, score and provenance rows of all of them. The table is a read-only
sequence that makes a `Tubelet` (views of its rows) only when one is indexed
or iterated, so a one-frame tubelet, most of a cluttered scene's, costs its
row, not an object. `link` numbers the tables of a file's videos on across
them as one `LinkedTubelets`, and `write_tubelets` formats their lines
straight from the columns. A linker returns only its table. Greedy linking
joins chains only across at most `link.max_interp_gap` missing frames and
fills each such hole, so it never cuts a tubelet at a gap.
"""

import itertools
import json
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data_model import (
    _CLASS_TEXT,
    DETECTION_CLASSES,
    OBJECT_CLASSES,
    box_rows_text,
    decode_boxes,
    finite_list,
    int_field,
    read_records,
    require_numbers,
    str_field,
    track_boxes,
    write_jsonl,
)
from .errors import InvalidInputError
from .geometry import Interval

PROVENANCES = ("detected", "interpolated", "tracked")
_DETECTED, _INTERPOLATED, _TRACKED = range(len(PROVENANCES))


@dataclass(eq=False)
class Track:
    """Temporally contiguous boxes of one object; row k of `boxes` is frame
    extent.start + k. A proposal's normalised tubelet is one."""

    id: int
    video_id: str
    object_class: str
    extent: Interval
    boxes: np.ndarray  # (n,4) float64 x1, y1, x2, y2

    def __post_init__(self):
        self.boxes = track_boxes(self.boxes, self.extent)
        if self.object_class not in OBJECT_CLASSES:
            raise InvalidInputError(f"object class not admitted: {self.object_class!r}")


@dataclass(eq=False)
class Tubelet(Track):
    """A linked track, with each row's detection score and provenance. A
    linker's tubelet is a view that its `VideoTubelets` table makes and
    numbers; a read one is numbered by its file."""

    box_scores: np.ndarray  # (n,) float64
    provenance: np.ndarray  # (n,) int8 index into PROVENANCES

    def __post_init__(self):
        super().__post_init__()
        if self.box_scores.shape != (self.extent.length,) or self.provenance.shape != (self.extent.length,):
            raise InvalidInputError("tubelet scores and provenance need one value per frame of the extent")


@dataclass(frozen=True, eq=False)
class VideoTubelets(Sequence):
    """One video's tubelets as columns, in the order the linkers number them
    (`_numbered`). Tubelet i has id `first_id + i` and class
    DETECTION_CLASSES[classes[i]]; its row k, frame starts[i] + k for
    k < lengths[i], is row firsts[i] + k of `boxes`, `box_scores` and
    `provenance`. Indexing makes a `Tubelet` whose arrays view those rows;
    the rows are read-only, so no view can change the table."""

    video_id: str
    starts: np.ndarray  # (t,) int64 first frame
    lengths: np.ndarray  # (t,) int64 frame count
    classes: np.ndarray  # (t,) int64 index into DETECTION_CLASSES
    firsts: np.ndarray  # (t,) int64 first row
    boxes: np.ndarray  # (r,4) float64 x1, y1, x2, y2
    box_scores: np.ndarray  # (r,) float64
    provenance: np.ndarray  # (r,) int8 index into PROVENANCES
    first_id: int = 0

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, i):
        k = range(len(self))[i]
        lo, n, start = int(self.firsts[k]), int(self.lengths[k]), int(self.starts[k])
        rows = slice(lo, lo + n)
        return Tubelet(self.first_id + k, self.video_id, DETECTION_CLASSES[self.classes[k]],
                       Interval(start, start + n), self.boxes[rows], self.box_scores[rows], self.provenance[rows])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def lines(self):
        """The tubelets.jsonl line of each tubelet, in id order, formatted
        from the columns."""
        video = json.dumps(self.video_id)
        columns = (self.starts.tolist(), self.lengths.tolist(), self.classes.tolist(), self.firsts.tolist())
        for i, (start, n, code, lo) in enumerate(zip(*columns)):
            rows = slice(lo, lo + n)
            yield _tubelet_text(self.first_id + i, _CLASS_TEXT[code], start, video, self.boxes[rows],
                                self.box_scores[rows], self.provenance[rows])


class LinkedTubelets:
    """The tables of several videos as one sequence of tubelets, numbered on
    from 0 across the tables in their order: what `link` returns. Iterating
    makes each `Tubelet` as its table does."""

    def __init__(self, tables):
        first_ids = np.cumsum([0] + [len(t) for t in tables]).tolist()
        self.tables = [replace(t, first_id=i) for t, i in zip(tables, first_ids)]
        self._len = first_ids[-1]

    def __len__(self):
        return self._len

    def __iter__(self):
        return itertools.chain.from_iterable(self.tables)

    def lines(self):
        """The tubelets.jsonl lines of every table, in (video_id, id) order."""
        tables = sorted(self.tables, key=lambda t: (t.video_id, t.first_id))
        return itertools.chain.from_iterable(t.lines() for t in tables)

    def row_count(self, provenance):
        """How many rows of the tables have `provenance` (0 with no table)."""
        return sum(int(np.count_nonzero(t.provenance == PROVENANCES.index(provenance))) for t in self.tables)

    def tracks_ended(self, videos, patience):
        """How many tubelets end `patience` or more frames before the last frame
        of their `videos[video_id]`: for `track_link`, the tracks patience ended."""
        return sum(int((t.starts + t.lengths + patience <= videos[t.video_id].extent.end).sum())
                   for t in self.tables if len(t))


@dataclass(frozen=True)
class LinkConfig:
    iou_link_threshold: float = 0.5
    patience: int = 50
    max_interp_gap: int = 8
    strategy: str = "tracking"  # "tracking" (track_link) | "greedy" (greedy_link)

    def __post_init__(self):
        if not 0.0 < self.iou_link_threshold <= 1.0:
            raise InvalidInputError(f"iou_link_threshold out of (0,1]: {self.iou_link_threshold}")
        if self.patience < 1:
            raise InvalidInputError(f"patience must be >= 1: {self.patience}")
        if self.max_interp_gap < 0:
            raise InvalidInputError(f"max_interp_gap must be >= 0: {self.max_interp_gap}")
        if self.strategy not in ("greedy", "tracking"):
            raise InvalidInputError(f"unknown link.strategy: {self.strategy!r}")


# ---------------------------------------------------------------------------
# interpolation


def interpolate_gaps(frames, boxes, scores, firsts=(0,)):
    """Fill every hole between the detected rows of an object by linear
    interpolation, in the scalar formula's order b0 + k * (b1 - b0) / span
    (not a premultiplied ratio: exact for linear motion with representable
    velocities). The caller passes only holes to fill: greedy linking joins
    rows across at most `link.max_interp_gap` missing frames.

    The rows (one frame, box and score each) hold one or more objects back to
    back: object j starts at row `firsts[j]`, and its frames strictly increase.
    Returns each object as one dense tubelet, in row order, as columns: their
    start frames and lengths, then their box, score and provenance rows back
    to back.
    """
    span = np.diff(frames)
    joined = np.ones(len(span), dtype=bool)  # rows i and i + 1 are one object's
    joined[np.asarray(firsts[1:], dtype=np.int64) - 1] = False
    # row i stands for its own frame and, when joined, the hole after it:
    # output rows k = 0 .. span - 1 frames past row i
    counts = np.append(np.where(joined, span, 1), 1)
    src = np.repeat(np.arange(len(frames)), counts)
    starts = np.cumsum(counts) - counts
    k = np.arange(len(src)) - starts[src]
    hole = k > 0
    i, k_hole, n = src[hole], k[hole], span[src[hole]]
    out_boxes, out_scores = boxes[src], scores[src]
    out_boxes[hole] = boxes[i] + k_hole[:, None] * (boxes[i + 1] - boxes[i]) / n[:, None]
    out_scores[hole] = scores[i] + k_hole * (scores[i + 1] - scores[i]) / n
    if not np.isfinite(out_boxes).all():
        raise InvalidInputError("non-finite interpolated box")
    prov = np.where(hole, _INTERPOLATED, _DETECTED).astype(np.int8)
    heads = np.append(0, starts[1:][~joined])  # the first output row of each object
    return frames[src[heads]], np.diff(heads, append=len(src)), out_boxes, out_scores, prov


# ---------------------------------------------------------------------------
# greedy linking


def _greedy_pairs(iou, rows, cols, gaps=None):
    """One-to-one matching of the candidate pairs (rows[k], cols[k]) by
    ascending gaps[k] if given, descending iou[k], then (row, col), each row
    and column claimed once. Returns the claimed (row, col) pairs in order."""
    keys = ([] if gaps is None else [gaps.tolist()]) + [(-iou).tolist(), rows.tolist(), cols.tolist()]
    used_r, used_c = set(), set()
    out = []
    for *_, r, c in sorted(zip(*keys)):
        if r in used_r or c in used_c:
            continue
        used_r.add(r)
        used_c.add(c)
        out.append((r, c))
    return out


def greedy_link(detections, config=LinkConfig()):
    """Greedy adjacent-frame linking of one video's `VideoDetections`; chains
    separated by short gaps are merged and the holes filled by linear
    interpolation. A pair links at IoU >= `iou_link_threshold`, as in
    `track_link`."""
    parts = []
    for code in sorted(set(detections.classes.tolist())):
        (rows,) = (detections.classes == code).nonzero()
        frames = detections.frames[rows]
        # chains: lists of rows with strictly consecutive frames
        chains = []
        open_by_tail = {}  # frame -> list of chain indices whose tail is at frame
        for lo, hi in zip(*_runs(frames)):
            f, dets = int(frames[lo]), rows[lo:hi].tolist()
            tails = open_by_tail.pop(f - 1, [])
            matched_dets = set()
            if tails:
                iou = kernels.iou_matrix(detections.boxes[[chains[ci][-1] for ci in tails]], detections.boxes[dets])
                linked = np.nonzero(iou >= config.iou_link_threshold)
                for r, c in _greedy_pairs(iou[linked], *linked):
                    chains[tails[r]].append(dets[c])
                    open_by_tail.setdefault(f, []).append(tails[r])
                    matched_dets.add(c)
            for c, row in enumerate(dets):
                if c not in matched_dets:
                    chains.append([row])
                    open_by_tail.setdefault(f, []).append(len(chains) - 1)
        parts.append(_merge_and_emit(detections, chains, code, config))
    return _numbered(detections.video_id, parts)


def _runs(values):
    """[first, end) bounds of the runs of equal values in a sorted array of
    non-negative values (frames)."""
    first = np.flatnonzero(np.diff(values, prepend=-1)).tolist()
    return first, first[1:] + [len(values)]


def _merge_and_emit(detections, chains, code, config):
    """Merge chains (lists of detection rows of class `code`) across gaps <=
    max_interp_gap when end/start boxes still reach the link threshold, then
    emit the tubelets as one part of `_numbered`.

    A candidate is a (tail of i, head of j) pair whose gap is 1 to
    max_interp_gap frames; every candidate's IoU comes from one `paired_iou`
    over the pairs, found per tail by binary search in the heads' frames.
    They are claimed by shortest gap, then highest IoU: a tail that passed
    over a nearer head would leave it to start a second, overlapping tubelet."""
    n = len(chains)
    tail_rows = [c[-1] for c in chains]
    head_rows = [c[0] for c in chains]
    tails, heads = detections.boxes[tail_rows], detections.boxes[head_rows]
    tail_frames, head_frames = detections.frames[tail_rows], detections.frames[head_rows]
    head_order = np.argsort(head_frames, kind="stable")
    # heads of tail i: frames tail + 2 .. tail + 1 + max_interp_gap
    lo = np.searchsorted(head_frames[head_order], tail_frames + 2, side="left")
    hi = np.searchsorted(head_frames[head_order], tail_frames + 1 + config.max_interp_gap, side="right")
    counts = np.maximum(hi - lo, 0)
    i = np.repeat(np.arange(n), counts)
    j = head_order[np.arange(len(i)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
    iou = kernels.paired_iou(tails[i], heads[j])
    linked = iou >= config.iou_link_threshold
    gaps = head_frames[j[linked]] - tail_frames[i[linked]]
    next_of = dict(_greedy_pairs(iou[linked], i[linked], j[linked], gaps))
    used_starts = set(next_of.values())

    rows, firsts = [], []  # the merged sequences back to back, and where each starts
    for i in range(n):
        if i in used_starts:
            continue
        firsts.append(len(rows))
        rows.extend(chains[i])
        k = i
        while k in next_of:
            k = next_of[k]
            rows.extend(chains[k])
    starts, lengths, *rows = interpolate_gaps(detections.frames[rows], detections.boxes[rows],
                                              detections.scores[rows], firsts)
    return (starts, lengths, np.full(len(starts), code), *rows)


# no tubelet: starts, lengths, class codes, boxes, scores, provenance
_NO_TUBELETS = (np.zeros(0, np.int64),) * 3 + (np.zeros((0, 4)), np.zeros(0), np.zeros(0, np.int8))


def _numbered(video_id, parts):
    """One video's `VideoTubelets` from `parts`, each the columns (start
    frames, lengths, class codes, boxes, scores, provenance) of tubelets
    whose rows lie back to back. The tubelets are numbered from 0 by start
    frame, class, then first box (x1, y1, x2, y2); a stable sort, so the
    order of `parts` breaks the ties."""
    starts, lengths, classes, boxes, scores, prov = (np.concatenate(col) for col in zip(_NO_TUBELETS, *parts))
    firsts = np.cumsum(lengths) - lengths
    head = boxes[firsts]
    order = np.lexsort((head[:, 3], head[:, 2], head[:, 1], head[:, 0], classes, starts))
    for rows in (boxes, scores, prov):
        rows.flags.writeable = False
    return VideoTubelets(video_id, starts[order], lengths[order], classes[order], firsts[order], boxes, scores, prov)


# ---------------------------------------------------------------------------
# tracking-based linking


def predict_next(last, prev):
    """Constant-velocity prediction for (k,4) arrays of each track's last box
    and the box before it: the centre moves on by its last step, width and
    height are carried forward. Elementwise float64, in the scalar formula's
    order: d = 0.5*(l.x1+l.x2) - 0.5*(p.x1+p.x2), then l.x1 + d, ..."""
    step = 0.5 * (last[:, :2] + last[:, 2:]) - 0.5 * (prev[:, :2] + prev[:, 2:])
    return last + np.concatenate((step, step), axis=1)


# A row `patience` or more frames before the current one is final: either
# its track has ended and `length` says whether it is kept, or its track has
# matched since (a live track has fewer than `patience` misses) and keeps it.
# Once the final row blocks number `_COMPACT_BLOCKS` or hold `_COMPACT_ROWS`
# rows, they are compacted into one chunk without the rows an ended track
# will not emit (a track ends after `patience` predicted rows, all trimmed),
# so those rows do not pile up until the end of the video: the blocks hold
# fewer rows than the last `patience` frames' plus `_COMPACT_ROWS`. A chunk
# loses no row later, so each row is copied once before the final pass,
# whatever the video length.
_LIVE = np.iinfo(np.int64).max
_COMPACT_BLOCKS = 64
_COMPACT_ROWS = 4096


def _kept_rows(blocks, length):
    """The rows of the blocks, column by column, without the rows of a track
    past its end (age >= length[track id])."""
    tids, ages, *columns = (np.concatenate(col) for col in zip(*blocks))
    kept = ages < length[tids]
    return [tids[kept], ages[kept]] + [col[kept] for col in columns]


def track_link(detections, config=LinkConfig()):
    """Tracking-based linking of one video's `VideoDetections`: live tracks
    predict a box every frame, merge with unclaimed detections by IoU, and
    terminate after `patience` consecutive unmatched frames. Trailing
    predicted-only frames are trimmed.

    The live tracks are parallel arrays in the order they were seeded. Each
    frame matches the predictions to the detections through one IoU matrix
    over all live tracks and all detections, its cross-class cells set to 0:
    `iou_link_threshold` is > 0, so each class is a block of its own and the
    (row, col) tie order holds within it. A frame with no live track and no
    detection is skipped. Every frame records one row per live track (its
    matched detection, or else its prediction) and one per new track, with
    the row's age (frame - seed frame); rows `patience` or more frames old
    are compacted as they go. At the end each track's rows up to its last
    match are scattered into one array per column, the tracks in the order
    they ended and the still-live ones last; `_numbered` sorts stably, so
    that order breaks its ties."""
    if not len(detections):
        return _numbered(detections.video_id, [])
    det_boxes, det_scores, det_classes = detections.boxes, detections.scores, detections.classes
    frame_rows = {int(detections.frames[lo]): (lo, hi) for lo, hi in zip(*_runs(detections.frames))}

    # live state, one entry per live track
    tids = np.zeros(0, dtype=np.int64)
    seeds = np.zeros(0, dtype=np.int64)  # frame of the first detection
    last = np.zeros((0, 4))  # the last box and the one before it
    prev = np.zeros((0, 4))
    classes = np.zeros(0, dtype=np.int64)
    misses = np.zeros(0, dtype=np.int64)  # frames since the last match
    carried = np.zeros(0)  # score of the last matched detection
    # by track id; `length` has room for more tracks than were seeded
    seed_frame, seed_class = [], []
    length = np.full(64, _LIVE, dtype=np.int64)
    end_order = []  # track ids, in the order the tracks ended
    blocks, block_frames = [], []  # (track ids, ages, boxes, scores, detected?) rows, and their frames
    final = final_rows = 0  # how many of the first blocks are final, and their rows
    chunks = []  # compacted blocks, oldest first

    for f in range(min(frame_rows), max(frame_rows) + 1):
        lo, hi = frame_rows.get(f, (0, 0))
        if not len(tids) and lo == hi:
            continue
        f_boxes, f_scores, f_classes = det_boxes[lo:hi], det_scores[lo:hi], det_classes[lo:hi]
        claimed = np.zeros(hi - lo, dtype=bool)

        if len(tids):
            # a track seeded on the previous frame has one box: it stays put
            ages = f - seeds
            pred = np.where(ages[:, None] >= 2, predict_next(last, prev), last)
            if not np.isfinite(pred).all():
                raise InvalidInputError(f"non-finite predicted box at frame {f}")
            hit = np.zeros(len(tids), dtype=bool)
            if hi > lo:
                iou = kernels.iou_matrix(pred, f_boxes)
                iou[classes[:, None] != f_classes] = 0.0
                linked = np.nonzero(iou >= config.iou_link_threshold)
                pairs = _greedy_pairs(iou[linked], *linked)
                if pairs:
                    rows, matched = np.array(pairs).T
                    hit[rows] = claimed[matched] = True
                    pred[rows] = f_boxes[matched]
                    carried = carried.copy()  # the previous frame's block holds the old array
                    carried[rows] = f_scores[matched]
            blocks.append((tids, ages, pred, carried, hit))
            block_frames.append(f)
            prev, last = last, pred
            misses = np.where(hit, 0, misses + 1)

            done = misses >= config.patience
            if done.any():
                end_order.append(tids[done])
                length[tids[done]] = f + 1 - config.patience - seeds[done]
                keep = ~done
                tids, seeds, last, prev = tids[keep], seeds[keep], last[keep], prev[keep]
                classes, misses, carried = classes[keep], misses[keep], carried[keep]

        (new,) = (~claimed).nonzero()
        if new.size:
            new_tids = np.arange(len(seed_frame), len(seed_frame) + new.size)
            seed_frame.extend([f] * new.size)
            seed_class.extend(f_classes[new].tolist())
            if len(seed_frame) > len(length):
                length = np.concatenate((length, np.full(len(seed_frame), _LIVE, dtype=np.int64)))
            zeros = np.zeros(new.size, dtype=np.int64)
            blocks.append((new_tids, zeros, f_boxes[new], f_scores[new], zeros == 0))
            block_frames.append(f)
            tids = np.concatenate((tids, new_tids))
            seeds = np.concatenate((seeds, zeros + f))
            last = np.concatenate((last, f_boxes[new]))
            prev = np.concatenate((prev, f_boxes[new]))
            classes = np.concatenate((classes, f_classes[new]))
            misses = np.concatenate((misses, zeros))
            carried = np.concatenate((carried, f_scores[new]))
        while final < len(blocks) and block_frames[final] <= f - config.patience:
            final_rows += len(blocks[final][0])
            final += 1
        if final >= _COMPACT_BLOCKS or final_rows >= _COMPACT_ROWS:
            chunks.append(_kept_rows(blocks[:final], length))
            del blocks[:final], block_frames[:final]
            final = final_rows = 0
    end_order.append(tids)
    length[tids] = f + 1 - misses - seeds

    # track t's rows go to first[t] .. first[t] + length[t] - 1
    order = np.concatenate(end_order)
    length = length[: len(seed_frame)]
    first = np.zeros(len(length), dtype=np.int64)
    first[order] = np.cumsum(length[order]) - length[order]
    row_tids, ages, *columns = _kept_rows(chunks + blocks, length)
    boxes, scores, detected = (np.empty_like(col) for col in columns)
    for out, col in zip((boxes, scores, detected), columns):
        out[first[row_tids] + ages] = col
    prov = np.where(detected, _DETECTED, _TRACKED).astype(np.int8)
    starts, classes = np.array(seed_frame)[order], np.array(seed_class, dtype=np.int64)[order]
    return _numbered(detections.video_id, [(starts, length[order], classes, boxes, scores, prov)])


# ---------------------------------------------------------------------------
# serialization


_TUBELET_LINE = '{"boxes": [%s], "class": %s, "end": %d, "id": %d, "start": %d, "video_id": %s}'
_TUBELET_ROW = '{"frame": %d, "provenance": %s, "score": %r, "x1": %r, "x2": %r, "y1": %r, "y2": %r}'
_PROVENANCE_TEXT = [json.dumps(p) for p in PROVENANCES]


def _tubelet_text(tubelet_id, class_text, start, video_text, boxes, scores, provenance):
    """The one tubelets.jsonl line format, filled from a tubelet's fields
    (the class and video id as JSON text) and its row arrays."""
    columns = ([_PROVENANCE_TEXT[c] for c in provenance.tolist()], finite_list(scores, "box score"))
    rows = box_rows_text(start, boxes, _TUBELET_ROW, columns)
    return _TUBELET_LINE % (", ".join(rows), class_text, start + len(rows), tubelet_id, start, video_text)


def track_fields(rec, *columns):
    """The `Track` fields of a tubelets or proposals record, in field order,
    then the named extra columns of its box rows as `decode_boxes` gives them."""
    extent = Interval(int_field(rec, "start"), int_field(rec, "end"))
    boxes, *values = decode_boxes(rec["boxes"], extent, *columns)
    return (int_field(rec, "id"), str_field(rec, "video_id"), str_field(rec, "class"), extent, boxes), *values


def tubelet_from_record(rec):
    """The `Tubelet` of a parsed tubelets.jsonl line; raises on any invalid field."""
    fields, scores, prov = track_fields(rec, "score", "provenance")
    require_numbers(scores, "box scores")
    scores = np.array(scores, dtype=np.float64)
    if not np.isfinite(scores).all():
        raise InvalidInputError("non-finite box score")
    unknown = set(prov) - set(PROVENANCES)
    if unknown:
        raise InvalidInputError(f"unknown provenance {unknown}")
    return Tubelet(*fields, scores, np.array(list(map(PROVENANCES.index, prov)), dtype=np.int8))


def tubelet_key(rec):
    """The (video_id, id) that names a tubelet in a tubelets or proposals
    file: no two lines of one file may share it."""
    return rec["video_id"], int_field(rec, "id")


def write_tubelets(tubelets, path):
    """Write a `LinkedTubelets` or `VideoTubelets` in (video_id, id) order,
    formatted from its columns, making no `Tubelet`."""
    write_jsonl(tubelets.lines(), path)


def read_tubelets(path):
    return sorted(read_records(path, "tubelet", tubelet_from_record, tubelet_key), key=lambda t: (t.video_id, t.id))
