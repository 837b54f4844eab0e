"""Turn per-frame detections into tubelets.

Two strategies: greedy linking by one claim rule, the holes filled by
interpolation, and tracking-based linking that bridges missed detections
with a constant-velocity predictor and a patience window.

Both linkers return one video's tubelets as one `VideoTubelets` column
table: each tubelet's id, start frame, length, class code and first row,
and the box rows of all of them: only a tubelet's boxes feed the later
stages, so a row keeps no detection score or provenance. The table is a
read-only sequence that makes a `Track` (a view of its rows) only when one
is indexed or iterated, so a one-frame tubelet, most of a cluttered scene's,
costs its row, not an object. `link` numbers the tables of a file's videos
on across them as one `LinkedTubelets`, and `write_tubelets` formats their
lines straight from the columns; `read_tubelets` fills the same tables from
a file, one per video, parsing each line with `tubelet_fields`, the parser
of every tubelets, proposals and scored line's track fields. A linker
returns only its table, and the tracker records only the rows that its
tubelets keep. Each admitted detection is one tubelet row in both linkers.
Greedy linking claims links of 1 to `link.max_interp_gap` + 1 frames by
(gap, -IoU, tail row, head row), each row once as a tail and once as a head,
and fills each hole it links across, so it never cuts a tubelet at a gap.
"""

import itertools
import json
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data_model import (
    CLASS_TEXT,
    DETECTION_CLASSES,
    FRAME_LIMIT,
    OBJECT_CLASSES,
    box_rows_text,
    box_values,
    columns_by_video,
    extent_field,
    int_field,
    read_records,
    str_field,
    track_boxes,
    write_jsonl,
)
from .errors import InvalidInputError
from .geometry import Interval


@dataclass(eq=False)
class Track:
    """Temporally contiguous boxes of one object; row k of `boxes` is frame
    extent.start + k. A tubelet is one, as are a proposal and its normalised tubelet."""

    id: int
    video_id: str
    object_class: str
    extent: Interval
    boxes: np.ndarray  # (n,4) float64 x1, y1, x2, y2

    def __post_init__(self):
        self.boxes = track_boxes(self.boxes, self.extent)
        if self.object_class not in OBJECT_CLASSES:
            raise InvalidInputError(f"object class not admitted: {self.object_class!r}")


_TUBELET_LINE = '{"boxes": [%s], "class": %s, "end": %d, "id": %d, "start": %d, "video_id": %s}'


@dataclass(frozen=True, eq=False)
class VideoTubelets(Sequence):
    """One video's tubelets as columns, in id order: the order the linkers
    number them (`_numbered`) or a file's. Tubelet i has id ids[i] and class
    DETECTION_CLASSES[classes[i]]; its row k, frame starts[i] + k for
    k < lengths[i], is row firsts[i] + k of `boxes`. Indexing makes a
    `Track` whose boxes view those rows; the rows are read-only, so no view
    can change the table."""

    video_id: str
    starts: np.ndarray  # (t,) int64 first frame
    lengths: np.ndarray  # (t,) int64 frame count
    classes: np.ndarray  # (t,) int64 index into DETECTION_CLASSES
    firsts: np.ndarray  # (t,) int64 first row
    boxes: np.ndarray  # (r,4) float64 x1, y1, x2, y2
    ids: np.ndarray  # (t,) int64

    def __len__(self):
        return len(self.starts)

    def __getitem__(self, i):
        k = range(len(self))[i]
        lo, n, start = int(self.firsts[k]), int(self.lengths[k]), int(self.starts[k])
        return Track(int(self.ids[k]), self.video_id, DETECTION_CLASSES[self.classes[k]],
                     Interval(start, start + n), self.boxes[lo:lo + n])

    def __iter__(self):
        return map(self.__getitem__, range(len(self)))

    def lines(self):
        """The tubelets.jsonl line of each tubelet, in id order, formatted
        from the columns."""
        video = json.dumps(self.video_id)
        columns = (self.ids, self.starts, self.lengths, self.classes, self.firsts)
        for tubelet_id, start, n, code, lo in zip(*(col.tolist() for col in columns)):
            rows = ", ".join(box_rows_text(start, self.boxes[lo:lo + n]))
            yield _TUBELET_LINE % (rows, CLASS_TEXT[code], start + n, tubelet_id, start, video)


class LinkedTubelets:
    """The tables of several videos, one per video in video id order, as one
    sequence of tubelets: what `link` and `read_tubelets` return. Iterating
    makes each `Track` as its table does."""

    def __init__(self, tables):
        self.tables = tables
        self._len = sum(map(len, tables))

    @classmethod
    def numbered(cls, tables):
        """The linkers' `tables`, their tubelets numbered on from 0 across
        the tables in their order."""
        first_ids = np.cumsum([0] + [len(t) for t in tables]).tolist()
        return cls([replace(t, ids=t.ids + i) for t, i in zip(tables, first_ids)])

    def __len__(self):
        return self._len

    def __iter__(self):
        return itertools.chain.from_iterable(self.tables)

    def lines(self):
        """The tubelets.jsonl lines of every table, in (video_id, id) order."""
        return itertools.chain.from_iterable(t.lines() for t in self.tables)

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
        if not 1 <= self.patience <= FRAME_LIMIT:
            raise InvalidInputError(f"link.patience must be in [1, 2**53]: {self.patience}")
        if not 0 <= self.max_interp_gap <= FRAME_LIMIT:
            raise InvalidInputError(f"link.max_interp_gap must be in [0, 2**53]: {self.max_interp_gap}")
        if self.strategy not in ("greedy", "tracking"):
            raise InvalidInputError(f"unknown link.strategy: {self.strategy!r}")


# ---------------------------------------------------------------------------
# interpolation


def interpolate_gaps(frames, boxes, firsts=(0,)):
    """Fill every hole between the detected rows of an object by linear
    interpolation, in the scalar formula's order b0 + k * (b1 - b0) / span
    (not a premultiplied ratio: exact for linear motion with representable
    velocities). The caller passes only holes to fill: greedy linking joins
    rows across at most `link.max_interp_gap` missing frames.

    The rows (one frame and box each) hold one or more objects back to back:
    object j starts at row `firsts[j]`, and its frames strictly increase.
    Returns each object as one dense tubelet, in row order, as columns: their
    start frames and lengths, then their box rows back to back.
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
    out = boxes[src]
    out[hole] = boxes[i] + k_hole[:, None] * (boxes[i + 1] - boxes[i]) / n[:, None]
    if not np.isfinite(out).all():
        raise InvalidInputError("non-finite interpolated box")
    heads = np.append(0, starts[1:][~joined])  # the first output row of each object
    return frames[src[heads]], np.diff(heads, append=len(src)), out


# ---------------------------------------------------------------------------
# greedy linking


def _greedy_pairs(iou, rows, cols, gaps=None):
    """One-to-one matching of the candidate pairs (rows[k], cols[k]) by ascending
    gaps[k] if given, descending iou[k], then (row, col), each row and column
    claimed once. Returns the claimed candidates' indices k, in claim order."""
    order = np.lexsort((cols, rows, -iou) if gaps is None else (cols, rows, -iou, gaps))
    used_r, used_c, claimed = set(), set(), []
    for k, r, c in zip(order.tolist(), rows[order].tolist(), cols[order].tolist()):
        if r not in used_r and c not in used_c:
            used_r.add(r)
            used_c.add(c)
            claimed.append(k)
    return np.array(claimed, dtype=np.int64)


def greedy_link(detections, config=LinkConfig()):
    """Greedy linking of one video's `VideoDetections`, one class at a time.
    A link joins a row to one 1 to `max_interp_gap` + 1 frames later at IoU
    >= `iou_link_threshold`, as in `track_link`. Links are claimed by (gap,
    -IoU, tail row, head row), each row once as a tail and once as a head,
    and the holes they cross are filled by linear interpolation. The
    adjacent-frame links are claimed first, then the longer ones over the
    rows still free: the same claims as one sorted list."""
    parts = []
    for code in sorted(set(detections.classes.tolist())):
        (rows,) = (detections.classes == code).nonzero()
        frames, boxes, itself = detections.frames[rows], detections.boxes[rows], np.arange(len(rows))
        next_of, prev_of = itself.copy(), itself.copy()  # each row's linked row, or itself
        for gaps in ((1, 1), (2, config.max_interp_gap + 1)):
            tails, heads = (next_of == itself).nonzero()[0], (prev_of == itself).nonzero()[0]
            gap, iou, a, b = _link_candidates(frames, boxes, tails, heads, gaps, config.iou_link_threshold)
            k = _greedy_pairs(iou, a, b, gap)
            next_of[a[k]], prev_of[b[k]] = b[k], a[k]
        for _ in range(len(rows).bit_length()):  # each row's tubelet's first row
            prev_of = prev_of[prev_of]
        order = np.argsort(prev_of, kind="stable")  # rows increase along a tubelet
        firsts = np.flatnonzero(np.diff(prev_of[order], prepend=-1))
        starts, lengths, out = interpolate_gaps(frames[order], boxes[order], firsts)
        parts.append((starts, lengths, np.full(len(starts), code), out))
    return _numbered(detections.video_id, parts)


# tails per `_link_candidates` block: a 9,000-frame class of 25,000 detections
# peaked at 9.9 MB as one block, at 2.4 MB in blocks of 4,096 tails
_TAIL_BLOCK = 4096


def _link_candidates(frames, boxes, tails, heads, gaps, threshold):
    """The (gap, IoU, tail, head) columns of the links from the rows `tails`
    to the rows `heads` (both ascending, so in frame order) gaps[0] to
    gaps[1] frames later at IoU >= `threshold`: each tail's heads found by
    binary search, one `paired_iou` per block of tails."""
    head_frames, blocks = frames[heads], []
    for block in np.split(tails, range(_TAIL_BLOCK, len(tails), _TAIL_BLOCK)):
        lo = np.searchsorted(head_frames, frames[block] + gaps[0], side="left")
        hi = np.searchsorted(head_frames, frames[block] + gaps[1], side="right")
        counts = np.maximum(hi - lo, 0)
        a = np.repeat(block, counts)
        b = heads[np.arange(len(a)) - np.repeat(np.cumsum(counts) - counts - lo, counts)]
        iou = kernels.paired_iou(boxes[a], boxes[b])
        linked = iou >= threshold
        a, b = a[linked], b[linked]
        blocks.append((frames[b] - frames[a], iou[linked], a, b))
    return tuple(np.concatenate(column) for column in zip(*blocks))


# no tubelet: starts, lengths, class codes, boxes
_NO_TUBELETS = (np.zeros(0, np.int64),) * 3 + (np.zeros((0, 4)),)


def _numbered(video_id, parts):
    """One video's `VideoTubelets` from `parts`, each the columns (start
    frames, lengths, class codes, boxes) of tubelets whose rows lie back to
    back. The tubelets are numbered from 0 by start frame, class, then first
    box (x1, y1, x2, y2); a stable sort, so the order of `parts` breaks the
    ties."""
    if len(parts) == 1:  # its arrays become the table's, not copied
        (starts, lengths, classes, boxes), = parts
    else:
        starts, lengths, classes, boxes = (np.concatenate(col) for col in zip(_NO_TUBELETS, *parts))
    firsts = np.cumsum(lengths) - lengths
    head = boxes[firsts]
    order = np.lexsort((head[:, 3], head[:, 2], head[:, 1], head[:, 0], classes, starts))
    boxes.flags.writeable = False
    return VideoTubelets(video_id, starts[order], lengths[order], classes[order], firsts[order], boxes,
                         np.arange(len(order)))


# ---------------------------------------------------------------------------
# tracking-based linking


def predict_next(last, prev):
    """Constant-velocity prediction for (k,4) arrays of each track's last box
    and the box before it: the centre moves on by its last step, width and
    height are carried forward. Elementwise float64, in the scalar formula's
    order: d = 0.5*(l.x1+l.x2) - 0.5*(p.x1+p.x2), then l.x1 + d, ..."""
    step = 0.5 * (last[:, :2] + last[:, 2:]) - 0.5 * (prev[:, :2] + prev[:, 2:])
    return last + np.concatenate((step, step), axis=1)


def track_link(detections, config=LinkConfig()):
    """Tracking-based linking of one video's `VideoDetections`: live tracks
    predict a box every frame, merge with unclaimed detections by IoU, and
    terminate after `patience` consecutive unmatched frames. Trailing
    predicted-only frames are trimmed.

    The live tracks are parallel arrays in the order they were seeded, each
    predicted by `predict_next(last, prev)`: a new track's `prev` is its own
    box, so it predicts that box. Each frame matches the predictions to the
    detections through one IoU matrix over all live tracks and all
    detections, its cross-class cells set to 0: `iou_link_threshold` is > 0,
    so each class is a block of its own and the (row, col) tie order holds
    within it. A frame with no live track and no detection is skipped. Only
    the detected rows are recorded, when a track is seeded or matched, to
    five typed `array` columns: each row's track, frame and box, the box the
    track had before it and the misses it bridges. See `_track_columns`."""
    if not len(detections):
        return _numbered(detections.video_id, [])
    det_boxes, det_classes = detections.boxes, detections.classes
    first = np.flatnonzero(np.diff(detections.frames, prepend=-1)).tolist()  # each frame's first row
    frame_rows = {int(detections.frames[lo]): (lo, hi) for lo, hi in zip(first, first[1:] + [len(detections)])}

    # live state, one entry per live track
    tids = np.zeros(0, dtype=np.int64)
    last = np.zeros((0, 4))  # the last box and the one before it
    prev = np.zeros((0, 4))
    classes = np.zeros(0, dtype=np.int64)
    misses = np.zeros(0, dtype=np.int64)  # frames since the last match
    seed_frame, seed_class = [], []  # by track id
    recorded = array("q"), array("q"), array("d"), array("d"), array("q")  # track ids, frames, boxes, before, misses

    for f in range(min(frame_rows), max(frame_rows) + 1):
        lo, hi = frame_rows.get(f, (0, 0))
        if not len(tids) and lo == hi:
            continue
        f_boxes, f_classes = det_boxes[lo:hi], det_classes[lo:hi]
        claimed = np.zeros(hi - lo, dtype=bool)

        if len(tids):
            pred = predict_next(last, prev)
            if not np.isfinite(pred).all():
                raise InvalidInputError(f"non-finite predicted box at frame {f}")
            rows = matched = np.zeros(0, dtype=np.int64)
            if hi > lo:
                iou = kernels.iou_matrix(pred, f_boxes)
                iou[classes[:, None] != f_classes] = 0.0
                rows, matched = np.nonzero(iou >= config.iou_link_threshold)
                k = _greedy_pairs(iou[rows, matched], rows, matched)
                rows, matched = rows[k], matched[k]
            if len(rows):
                claimed[matched] = True
                boxes = f_boxes[matched]
                for column, v in zip(recorded, (tids[rows], np.full_like(rows, f), boxes, last[rows], misses[rows])):
                    column.frombytes(v.tobytes())
                pred[rows], misses[rows] = boxes, -1  # 0 after the += 1 below
            prev, last = last, pred
            misses += 1

            keep = misses < config.patience
            if not keep.all():
                tids, last, prev, classes, misses = tids[keep], last[keep], prev[keep], classes[keep], misses[keep]

        (new,) = (~claimed).nonzero()
        if new.size:
            boxes, zeros = f_boxes[new], np.zeros(new.size, dtype=np.int64)
            new_tids = np.arange(len(seed_frame), len(seed_frame) + new.size)
            seed_frame.extend([f] * new.size)
            seed_class.extend(f_classes[new].tolist())
            for column, v in zip(recorded, (new_tids, zeros + f, boxes, boxes, zeros)):
                column.frombytes(v.tobytes())
            tids = np.concatenate((tids, new_tids))
            last = np.concatenate((last, boxes))
            prev = np.concatenate((prev, boxes))  # a new track's step is 0: it predicts its own box
            classes = np.concatenate((classes, f_classes[new]))
            misses = np.concatenate((misses, zeros))
    return _numbered(detections.video_id, [_track_columns(recorded, seed_frame, seed_class)])


def _track_columns(recorded, seed_frame, seed_class):
    """The tubelet columns of `track_link` (a part of `_numbered`) from the
    row columns it recorded and the tracks' seed frames and classes: the
    tracks in seed order, which breaks `_numbered`'s ties, and each track's
    rows by age, a row's frame less its track's seed frame."""
    row_tids, ages, gaps = (np.frombuffer(recorded[k], np.int64) for k in (0, 1, 4))
    boxes, before = (np.frombuffer(recorded[k]).reshape(-1, 4) for k in (2, 3))
    starts = np.array(seed_frame, dtype=np.int64)
    ages -= starts[row_tids]  # the recorded frames become ages, in place
    length = np.zeros(len(starts), dtype=np.int64)
    np.maximum.at(length, row_tids, ages + 1)  # a track's last row is detected
    first = np.cumsum(length) - length  # track t's rows are first[t] .. first[t] + length[t] - 1
    slots = first[row_tids] + ages
    row_at = np.empty(int(length.sum()), dtype=np.int64)
    row_at[slots] = np.arange(len(slots))
    out = np.empty((len(row_at), 4))
    out[slots] = boxes
    # the m predictions before a row that bridged m misses, replayed from the detected
    # row before them (the same `predict_next` on the same values, so the same floats)
    (bridges,) = gaps.nonzero()
    gaps = gaps[bridges]
    at = slots[bridges] - gaps  # each first prediction's slot
    anchor = row_at[at - 1]
    last, prev = boxes[anchor], before[anchor]
    for k in range(int(gaps.max(initial=0))):
        prev, last = last, predict_next(last, prev)
        live = gaps > k
        out[at[live] + k] = last[live]
    return starts, length, np.array(seed_class, dtype=np.int64), out


# ---------------------------------------------------------------------------
# serialization


def tubelet_fields(rec):
    """The track fields of a parsed tubelets, proposals or scored line: its
    video id, its (id, start frame, length, class code) as an int64 `array`,
    then its box values back to back. Every check of a `Track` of the line is
    made, in the order its fields are: an invalid field raises. Keys it does
    not read, such as the per-row `score` and `provenance` of older files,
    are ignored."""
    extent = extent_field(rec)
    values = box_values(rec["boxes"], extent)
    tubelet_id, video_id, object_class = int_field(rec, "id"), str_field(rec, "video_id"), str_field(rec, "class")
    if object_class not in OBJECT_CLASSES:
        raise InvalidInputError(f"object class not admitted: {object_class!r}")
    ints = array("q", (tubelet_id, extent.start, extent.length, DETECTION_CLASSES.index(object_class)))
    return video_id, ints, values


def tubelet_key(video_id, tubelet_id):
    """The key a tubelets or proposals line claims, ("tubelet", video_id, id):
    no two lines of one file may share it (see `read_records`)."""
    return "tubelet", video_id, tubelet_id


def write_tubelets(tubelets, path):
    """Write a `LinkedTubelets` or `VideoTubelets` in (video_id, id) order,
    formatted from its columns, making no `Track`."""
    write_jsonl(tubelets.lines(), path)


def read_tubelets(path):
    """A tubelets file as a `LinkedTubelets` of one `VideoTubelets` per video,
    each in id order: every line's values go straight into its video's two
    typed columns, and no `Track` is made. A line that is not a valid
    tubelet, or that repeats an earlier line's (video_id, id), raises
    ParseError naming path:line."""
    lines = read_records(path, "tubelet", tubelet_fields, lambda fields: [tubelet_key(fields[0], fields[1][0])])
    tables = []
    for video_id, ints, values in columns_by_video(lines):
        ids, starts, lengths, classes = ints.reshape(-1, 4).T
        order = np.argsort(ids)
        boxes = values.reshape(-1, 4)
        boxes.flags.writeable = False
        tables.append(VideoTubelets(video_id, starts[order], lengths[order], classes[order],
                                    (np.cumsum(lengths) - lengths)[order], boxes, ids[order]))
    return LinkedTubelets(tables)
