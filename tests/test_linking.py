import itertools
import json
import tracemalloc
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tubekit import cli, kernels, linking
from tubekit.data_model import DETECTION_CLASSES, OBJECT_CLASSES, VideoMeta, detection_columns
from tubekit.evaluation import tubelet_recall
from tubekit.geometry import Box, Interval, spatial_iou
from tubekit.linking import (
    LinkConfig,
    Track,
    greedy_link,
    interpolate_gaps,
    predict_next,
    track_link,
)
from tubekit.synthgen import SceneConfig, generate


@dataclass(frozen=True)
class Det:
    """A scalar detection record: what the test scenes and the reference
    linkers work on."""

    video_id: str
    frame: int
    box: Box
    object_class: str
    score: float


def det(frame, x1, y1=0.0, w=10.0, h=10.0, cls="person", score=0.9, video="v0"):
    return Det(video, frame, Box(x1, y1, x1 + w, y1 + h), cls, score)


def xyxy(box):
    return (box.x1, box.y1, box.x2, box.y2)


def columns(dets, video_id="v0"):
    """The `VideoDetections` of scalar records, in their list order."""
    rows = [(d.frame, *xyxy(d.box), d.score, DETECTION_CLASSES.index(d.object_class)) for d in dets]
    return detection_columns(video_id, rows)


def records(video):
    """The scalar records of a `VideoDetections`, in row order."""
    return [
        Det(video.video_id, f, Box(*b), DETECTION_CLASSES[c], s)
        for f, b, s, c in zip(video.frames.tolist(), video.boxes.tolist(), video.scores.tolist(),
                              video.classes.tolist())
    ]


def video_columns(dets):
    """The `VideoDetections` of one video's scalar records, under the video
    id the reference linkers give their tubelets."""
    return columns(dets, dets[0].video_id if dets else "")


def row_keys(tubelets):
    """The multiset of (frame, class, box tuple) over every row of the tubelets."""
    return Counter((f, t.object_class, tuple(t.boxes[k].tolist()))
                   for t in tubelets for k, f in enumerate(t.extent.frames()))


def detection_keys(dets):
    """The multiset of (frame, class, box tuple) over scalar records."""
    return Counter((d.frame, d.object_class, xyxy(d.box)) for d in dets)


def segments(starts, lengths, boxes):
    """The (extent, boxes) of each segment of the columns `interpolate_gaps` returns."""
    firsts = np.cumsum(lengths) - lengths
    return [(Interval(s, s + n), boxes[lo:lo + n]) for s, n, lo in zip(starts.tolist(), lengths.tolist(),
                                                                       firsts.tolist())]


def interpolate(observed):
    """The segments of `interpolate_gaps` on a frame -> box tuple map."""
    frames = sorted(observed)
    return segments(*interpolate_gaps(np.array(frames), rows(*(observed[f] for f in frames))))


class TestInterpolateGaps:
    def test_single_frame_hole_midpoint(self):
        observed = {4: (0, 0, 10, 10), 6: (10, 0, 20, 10)}
        (extent, boxes), = interpolate(observed)
        assert extent == Interval(4, 7)
        assert boxes.tolist() == [[0, 0, 10, 10], [5, 0, 15, 10], [10, 0, 20, 10]]

    def test_no_holes_identity(self):
        observed = {f: (f, 0, f + 10, 10) for f in range(5)}
        (extent, boxes), = interpolate(observed)
        assert extent == Interval(0, 5)
        assert boxes.tolist() == [list(observed[f]) for f in range(5)]

    def test_three_frame_hole_linear(self):
        observed = {0: (0, 0, 10, 10), 4: (40, 0, 50, 10)}
        (_, boxes), = interpolate(observed)
        assert boxes[1:4, 0].tolist() == [10, 20, 30]

    def test_rows_equal_the_scalar_reference(self):
        # 1 to 3 objects back to back, each with holes of 0 to 12 frames (all
        # filled, one object each) and frames that may overlap the previous
        # object's; -0.0 must survive on a detected row
        rng = np.random.default_rng(11)
        for _ in range(200):
            objects, want = [], []
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 12))
                frames = int(rng.integers(0, 30)) + np.cumsum(rng.integers(1, 14, n))
                x, y = rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n)
                x[0] = -0.0
                boxes = np.stack([x, y, x + rng.uniform(0, 90, n), y + rng.uniform(0, 90, n)], axis=1)
                objects.append((frames, boxes))
                observed = {f: (Box(*b), 0.5) for f, b in zip(frames.tolist(), boxes.tolist())}
                want.append(reference_interpolate_gaps(observed)[0])
            firsts = np.cumsum([0] + [len(f) for f, _ in objects[:-1]]).tolist()
            got = segments(*interpolate_gaps(*(np.concatenate(col) for col in zip(*objects)), firsts))
            assert len(got) == len(want)
            for (extent, b), want_boxes in zip(got, want):
                assert list(extent.frames()) == sorted(want_boxes)
                want_rows = np.array([xyxy(want_boxes[f]) for f in extent.frames()])
                assert b.tobytes() == want_rows.tobytes()


class TestGreedyLink:
    def test_single_chain(self):
        dets = [det(f, x1=f * 1.0) for f in range(3)]
        tubes = greedy_link(columns(dets))
        assert len(tubes) == 1
        assert tubes[0].extent.length == 3

    def test_threshold_split(self):
        # middle pair IoU ~0.3 < 0.5 splits the chain
        dets = [det(0, 0.0), det(1, 5.5), det(2, 6.5)]
        assert spatial_iou(dets[0].box, dets[1].box) < 0.5
        assert spatial_iou(dets[1].box, dets[2].box) > 0.5
        tubes = greedy_link(columns(dets))
        assert sorted(t.extent.length for t in tubes) == [1, 2]

    def test_two_parallel_lanes(self):
        dets = []
        for f in range(5):
            dets.append(det(f, x1=f * 1.0, y1=0.0))
            dets.append(det(f, x1=f * 1.0, y1=100.0))
        tubes = greedy_link(columns(dets))
        assert len(tubes) == 2
        assert all(t.extent.length == 5 for t in tubes)

    def test_greedy_matches_brute_force_on_small_frames(self):
        # at most 3 boxes per frame with well-separated IoUs: greedy matching
        # must equal the optimal one-to-one assignment
        frame0 = [det(0, 0.0), det(0, 30.0), det(0, 60.0)]
        frame1 = [det(1, 1.0), det(1, 31.0), det(1, 61.0)]
        tubes = greedy_link(columns(frame0 + frame1))
        assert len(tubes) == 3

        iou = [[spatial_iou(a.box, b.box) for b in frame1] for a in frame0]
        best = max(
            itertools.permutations(range(3)),
            key=lambda perm: sum(iou[i][perm[i]] for i in range(3)),
        )
        # every tubelet pairs frame-0 box i with frame-1 box best[i]
        for t in tubes:
            i = next(k for k, d in enumerate(frame0) if xyxy(d.box) == tuple(t.boxes[0]))
            assert tuple(t.boxes[1]) == xyxy(frame1[best[i]].box)

    def test_class_gated(self):
        dets = [det(0, 0.0, cls="person"), det(1, 0.0, cls="car")]
        tubes = greedy_link(columns(dets))
        assert len(tubes) == 2

    def test_no_detection_shared_between_tubelets(self):
        # no hole to fill, so the rows are the detections, each once
        dets = [det(f, x1=x, y1=y) for f in range(4) for x, y in ((f * 2.0, 0.0), (f * 2.0, 8.0))]
        assert row_keys(greedy_link(columns(dets))) == detection_keys(dets)


class TestTrackLink:
    def test_bridges_gap_with_tracking(self):
        # constant motion 5 px/frame, detections missing on frames 5-9
        dets = [det(f, x1=5.0 * f, w=40.0) for f in list(range(5)) + [10]]
        tubes = track_link(columns(dets))
        assert len(tubes) == 1
        t = tubes[0]
        assert (t.extent.start, t.extent.end) == (0, 11)
        for f in range(5, 10):
            assert t.boxes[f, 0] == pytest.approx(5.0 * f)
        assert tuple(t.boxes[10].tolist()) == xyxy(dets[-1].box)

    def test_patience_splits_long_gap(self):
        dets = [det(f, x1=0.0) for f in range(5)] + [det(f, x1=0.0) for f in range(65, 70)]
        tubes = track_link(columns(dets), config=LinkConfig(patience=50))
        assert len(tubes) == 2

    def test_trailing_tracked_frames_trimmed(self):
        dets = [det(f, x1=0.0) for f in range(5)] + [det(40, 500.0)]
        tubes = track_link(columns(dets))
        first = min(tubes, key=lambda t: t.extent.start)
        assert first.extent.end == 5
        assert row_keys([first]) == detection_keys(dets[:5])

    def test_single_frame_video(self):
        tubes = track_link(columns([det(0, 0.0), det(0, 100.0)]))
        assert len(tubes) == 2
        assert all(t.extent.length == 1 for t in tubes)

    def test_exact_duplicates_number_in_seed_order(self):
        # two exact duplicates seed two tracks that tie on start, class and
        # first box; the first seeded claims the next detections, so the
        # second ends first, and seed order still numbers the first one 0
        dets = [det(0, 0.0), det(0, 0.0)] + [det(f, 0.0) for f in range(1, 8)]
        tubes = track_link(columns(dets), config=LinkConfig(patience=2))
        assert [(t.id, t.extent) for t in tubes] == [(0, Interval(0, 8)), (1, Interval(0, 1))]
        assert_same_tubelets(tubes, reference_track_link(dets, LinkConfig(patience=2)))

    def test_matched_detection_isolated_from_future_matching(self):
        # two tracks converging on one detection: only one may claim it
        dets = [
            det(0, 0.0), det(0, 12.0),
            det(1, 6.0),
        ]
        # no track bridges a miss, so the rows are the detections, each once
        assert row_keys(track_link(columns(dets))) == detection_keys(dets)


def rows(*boxes):
    return np.array(boxes, dtype=np.float64)


class TestPredictNext:
    def test_single_element_carry_forward(self):
        # a track with one box predicts it by the one rule, a step of 0 from
        # itself: the same values, and -0.0 + 0.0 reads 0.0 as on every
        # later predicted frame
        dets = [det(0, -0.0, w=40.0), det(0, 500.0), det(2, 0.0, w=40.0)]
        tubes = track_link(columns(dets))
        (t,) = [t for t in tubes if t.extent.length == 3]  # frame 1 holds no detection
        assert t.boxes[1].tolist() == t.boxes[0].tolist()
        assert np.signbit(t.boxes[0, 0]) and not np.signbit(t.boxes[1, 0])

    def test_constant_velocity(self):
        assert np.array_equal(predict_next(rows((5, 0, 15, 10)), rows((0, 0, 10, 10))), rows((10, 0, 20, 10)))

    def test_stationary(self):
        b = rows((3, 4, 13, 14), (0.5, 0.25, 2.5, 8.0))
        assert np.array_equal(predict_next(b, b), b)

    def test_rows_equal_the_scalar_formula(self):
        rng = np.random.default_rng(5)

        def boxes(n):
            x, y = rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n)
            return np.stack([x, y, x + rng.uniform(0.0, 90.0, n), y + rng.uniform(0.0, 90.0, n)], axis=1)

        last, prev = boxes(300), boxes(300)
        got = predict_next(last, prev)
        for k in range(300):
            b = reference_predict_next(Box(*prev[k].tolist()), Box(*last[k].tolist()))
            assert got[k].tolist() == [b.x1, b.y1, b.x2, b.y2]


# ---------------------------------------------------------------------------
# scalar references of the linkers: the Box-based tracker the array code
# replaced, and the greedy rule over one sorted candidate list per class.
# They take lists of scalar records and, unlike the linkers, keep each row's
# detection score and provenance


def reference_predict_next(prev, last):
    dcx = 0.5 * (last.x1 + last.x2) - 0.5 * (prev.x1 + prev.x2)
    dcy = 0.5 * (last.y1 + last.y2) - 0.5 * (prev.y1 + prev.y2)
    return Box(last.x1 + dcx, last.y1 + dcy, last.x2 + dcx, last.y2 + dcy)


@dataclass
class _RefTrack:
    seed: int  # the number of tracks seeded before it
    object_class: str
    entries: list  # (frame, Box, score, provenance)
    prev: Box  # the box before the last entry's; a new track's own box
    misses: int = 0
    last_match_frame: int = 0


@dataclass(eq=False)
class RefTubelet(Track):
    """A reference linker's tubelet: a `Track` with each row's score and
    provenance ("detected", "interpolated" or "tracked")."""

    box_scores: tuple
    provenance: tuple


def _ref_emit(video_id, object_class, entries):
    frames, boxes, scores, prov = zip(*entries)
    return RefTubelet(
        id=-1,
        video_id=video_id,
        object_class=object_class,
        extent=Interval(frames[0], frames[-1] + 1),
        boxes=np.array([(b.x1, b.y1, b.x2, b.y2) for b in boxes], dtype=np.float64),
        box_scores=scores,
        provenance=prov,
    )


def _ref_numbered(tubelets):
    # by start frame, class, then first box; ties in emit order
    order = sorted(tubelets, key=lambda t: (t.extent.start, t.object_class, tuple(t.boxes[0].tolist())))
    return [replace(t, id=i) for i, t in enumerate(order)]


def reference_greedy_pairs(candidates, rank=lambda t: (-t[0], t[1], t[2])):
    """Sort-and-claim over (..., row, col) candidates, by default (iou, row,
    col) ones: in `rank` order, by default descending IoU with ties by (row,
    col), each row and column claimed once."""
    pairs, used_rows, used_cols = [], set(), set()
    for *_, r, c in sorted(candidates, key=rank):
        if r not in used_rows and c not in used_cols:
            used_rows.add(r)
            used_cols.add(c)
            pairs.append((r, c))
    return pairs


def reference_iou_pairs(boxes_a, boxes_b, linked):
    """`reference_greedy_pairs` over the cells of the IoU matrix of two box
    lists whose IoU passes `linked`."""
    iou = kernels.iou_matrix(np.array([xyxy(b) for b in boxes_a]), np.array([xyxy(b) for b in boxes_b]))
    return reference_greedy_pairs(
        [(iou[r, c], r, c) for r in range(len(boxes_a)) for c in range(len(boxes_b)) if linked(iou[r, c])]
    )


def reference_tracks(detections, config=LinkConfig()):
    """The scalar tracker's tracks: those `patience` ended, in the order they
    ended, then those still live after the last detection frame. Every
    prediction is `reference_predict_next(prev, last box)`, with no case for
    a new track: its `prev` is its own box."""
    by_frame = {}
    for d in sorted(detections, key=lambda d: (d.frame, d.box, -d.score)):
        by_frame.setdefault(d.frame, []).append(d)
    finished, live, seeded = [], [], 0
    if by_frame:
        for f in range(min(by_frame), max(by_frame) + 1):
            dets = by_frame.get(f, [])
            claimed = set()
            by_class = {}
            for idx, d in enumerate(dets):
                by_class.setdefault(d.object_class, []).append(idx)
            predictions = [reference_predict_next(tr.prev, tr.entries[-1][1]) for tr in live]
            for cls in sorted(by_class):
                track_ids = [ti for ti, tr in enumerate(live) if tr.object_class == cls]
                det_ids = by_class[cls]
                if not track_ids:
                    continue
                pairs = reference_iou_pairs([predictions[ti] for ti in track_ids], [dets[di].box for di in det_ids],
                                            lambda iou: iou >= config.iou_link_threshold)
                for r, c in pairs:
                    tr = live[track_ids[r]]
                    d = dets[det_ids[c]]
                    tr.prev = tr.entries[-1][1]
                    tr.entries.append((f, d.box, d.score, "detected"))
                    tr.misses = 0
                    tr.last_match_frame = f
                    claimed.add(det_ids[c])
            still_live = []
            for ti, tr in enumerate(live):
                if tr.entries[-1][0] == f:
                    still_live.append(tr)
                    continue
                tr.prev = tr.entries[-1][1]
                tr.entries.append((f, predictions[ti], tr.entries[-1][2], "tracked"))
                tr.misses += 1
                if tr.misses >= config.patience:
                    finished.append(tr)
                else:
                    still_live.append(tr)
            live = still_live
            for idx, d in enumerate(dets):
                if idx not in claimed:
                    live.append(_RefTrack(seeded, d.object_class, [(f, d.box, d.score, "detected")], d.box,
                                          last_match_frame=f))
                    seeded += 1
    return finished, live


def reference_track_link(detections, config=LinkConfig()):
    video_ids = {d.video_id for d in detections}
    video_id = video_ids.pop() if video_ids else ""
    tubelets = []
    # in seed order, so that `_ref_numbered` breaks exact ties by it
    for tr in sorted(itertools.chain(*reference_tracks(detections, config)), key=lambda tr: tr.seed):
        entries = [e for e in tr.entries if e[0] <= tr.last_match_frame]
        tubelets.append(_ref_emit(video_id, tr.object_class, entries))
    return _ref_numbered(tubelets)


def reference_link(videos, config=LinkConfig()):
    """The reference linker of `config.strategy` on `VideoDetections` by
    video id, the tubelets numbered on across the videos in id order, as
    `cli.link` numbers them."""
    link = reference_greedy_link if config.strategy == "greedy" else reference_track_link
    out = []
    for v in sorted(videos):
        first_id = len(out)
        out.extend(replace(t, id=first_id + t.id) for t in link(records(videos[v]), config))
    return out


def previous_format_line(t):
    """A reference tubelet's tubelets.jsonl line in the format before the
    box-row one: each row also held its detection score and provenance."""
    keys = ("frame", "provenance", "score", "x1", "y1", "x2", "y2")
    rows = [dict(zip(keys, (f, p, sc, *b)))
            for f, p, sc, b in zip(t.extent.frames(), t.provenance, t.box_scores, t.boxes.tolist())]
    return json.dumps({"boxes": rows, "class": t.object_class, "end": t.extent.end, "id": t.id,
                       "start": t.extent.start, "video_id": t.video_id}, sort_keys=True)


def filled_rows(tubelets):
    """How many rows of reference tubelets each provenance other than
    "detected" names: the rows a linker fills in."""
    return Counter(p for t in tubelets for p in t.provenance if p != "detected")


def reference_interpolate_gaps(observed):
    """Fill every hole in a non-empty sparse frame -> (Box, score) map;
    returns dense (boxes, scores, provenance) frame maps."""
    frames = sorted(observed)
    boxes = {frames[0]: observed[frames[0]][0]}
    scores = {frames[0]: observed[frames[0]][1]}
    prov = {frames[0]: "detected"}
    for prev, cur in zip(frames, frames[1:]):
        if cur - prev > 1:
            b0, s0 = observed[prev]
            b1, s1 = observed[cur]
            for f in range(prev + 1, cur):
                k, span = f - prev, cur - prev
                boxes[f] = Box(
                    b0.x1 + k * (b1.x1 - b0.x1) / span,
                    b0.y1 + k * (b1.y1 - b0.y1) / span,
                    b0.x2 + k * (b1.x2 - b0.x2) / span,
                    b0.y2 + k * (b1.y2 - b0.y2) / span,
                )
                scores[f] = s0 + k * (s1 - s0) / span
                prov[f] = "interpolated"
        boxes[cur] = observed[cur][0]
        scores[cur] = observed[cur][1]
        prov[cur] = "detected"
    return boxes, scores, prov


def reference_greedy_link(detections, config=LinkConfig()):
    """The greedy rule over one sorted candidate list per class: every link
    (a, b) from a detection to one 1 to `max_interp_gap` + 1 frames after it
    at IoU >= `iou_link_threshold`, claimed by (gap, -IoU, row of a, row of
    b), each row once as a tail and once as a head; a row is its place in
    the detections' row order (frame, box, descending score, input order)."""
    video_ids = {d.video_id for d in detections}
    video_id = video_ids.pop() if video_ids else ""
    dets = sorted(detections, key=lambda d: (d.frame, d.box, -d.score))
    tubelets = []
    for cls in sorted({d.object_class for d in dets}):
        rows = [k for k, d in enumerate(dets) if d.object_class == cls]
        candidates = []
        for a in rows:
            for b in rows:
                gap = dets[b].frame - dets[a].frame
                if not 1 <= gap <= config.max_interp_gap + 1:
                    continue
                iou = kernels.iou_matrix(np.array([xyxy(dets[a].box)]), np.array([xyxy(dets[b].box)]))[0, 0]
                if iou >= config.iou_link_threshold:
                    candidates.append((gap, iou, a, b))
        next_of = dict(reference_greedy_pairs(candidates, rank=lambda t: (t[0], -t[1], t[2], t[3])))
        for a in sorted(set(rows) - set(next_of.values())):  # each tubelet's first row
            sequence = [dets[a]]
            while a in next_of:
                a = next_of[a]
                sequence.append(dets[a])
            boxes, scores, prov = reference_interpolate_gaps({d.frame: (d.box, d.score) for d in sequence})
            tubelets.append(_ref_emit(video_id, cls, [(f, boxes[f], scores[f], prov[f]) for f in sorted(boxes)]))
    return _ref_numbered(tubelets)


# ---------------------------------------------------------------------------
# seeded scenes


def scene(seed):
    """Detections of one video: a few objects in several classes on a coarse
    grid (so boxes and scores tie), some crossing, with dropout, exact
    duplicates and false positives; now and then empty or a single detection."""
    rng = np.random.default_rng(seed)
    kind = seed % 25
    if kind == 0:
        return []
    if kind == 1:
        return [det(int(rng.integers(0, 5)), float(rng.integers(0, 50)), cls=str(rng.choice(OBJECT_CLASSES)))]
    frames = int(rng.integers(2, 40))
    classes = rng.choice(OBJECT_CLASSES, size=int(rng.integers(1, 4)), replace=False)
    dets = []
    for _ in range(int(rng.integers(1, 5))):
        cls = str(rng.choice(classes))
        x, y = float(rng.integers(0, 40)) * 2.0, float(rng.integers(0, 6)) * 4.0
        vx, vy = float(rng.integers(-4, 5)) * 0.5, float(rng.integers(-1, 2)) * 0.5
        w, h = float(rng.integers(4, 12)) * 2.0, float(rng.integers(4, 12)) * 2.0
        score = float(rng.choice([0.5, 0.9]))
        for f in range(frames):
            if rng.random() < 0.2:
                continue
            d = det(f, x + vx * f, y + vy * f, w, h, cls=cls, score=score)
            dets.append(d)
            if rng.random() < 0.05:
                dets.append(d)  # an exact duplicate
    for _ in range(int(rng.poisson(frames * 0.5))):
        dets.append(det(int(rng.integers(0, frames)), float(rng.integers(0, 60)) * 2.0,
                        float(rng.integers(0, 6)) * 4.0, 10.0, 10.0,
                        cls=str(rng.choice(classes)), score=float(rng.choice([0.3, 0.5]))))
    order = rng.permutation(len(dets))
    return [dets[k] for k in order]


def long_scene(seed, frames=1600, quiet=(760, 860)):
    """Detections of one long video in three classes: objects that come and
    go on a coarse grid (so boxes and scores tie), with dropout and false
    positives, and no detection at all in the frames [quiet[0], quiet[1])."""
    rng = np.random.default_rng(seed)
    classes = ("car", "person", "truck")
    dets = []
    for _ in range(24):
        cls = classes[int(rng.integers(3))]
        first = int(rng.integers(0, frames - 20))
        x, y = float(rng.integers(0, 40)) * 2.0, float(rng.integers(0, 6)) * 4.0
        vx, vy = float(rng.integers(-4, 5)) * 0.5, float(rng.integers(-1, 2)) * 0.5
        w, h = float(rng.integers(4, 12)) * 2.0, float(rng.integers(4, 12)) * 2.0
        score = float(rng.choice([0.5, 0.9]))
        for k in range(min(frames - first, int(rng.integers(20, 400)))):
            if rng.random() >= 0.15:
                dets.append(det(first + k, x + vx * k, y + vy * k, w, h, cls=cls, score=score))
    for _ in range(int(rng.poisson(frames * 0.3))):
        dets.append(det(int(rng.integers(0, frames)), float(rng.integers(0, 60)) * 2.0,
                        float(rng.integers(0, 6)) * 4.0, 10.0, 10.0,
                        cls=classes[int(rng.integers(3))], score=float(rng.choice([0.3, 0.5]))))
    return [d for d in dets if not quiet[0] <= d.frame < quiet[1]]


CONFIGS = [
    LinkConfig(iou_link_threshold=t, patience=p, max_interp_gap=g)
    for t, p, g in [(0.5, 50, 8), (0.05, 1, 2), (1.0, 2, 8), (0.05, 5, 0), (0.3, 50, 3)]
]
SCENES_PER_CONFIG = 50  # 250 scenes per linker, each config on its own seeds


def assert_same_tubelets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.video_id, a.object_class, a.extent) == (b.id, b.video_id, b.object_class, b.extent)
        assert a.boxes.dtype == b.boxes.dtype and a.boxes.shape == b.boxes.shape
        assert np.array_equal(a.boxes, b.boxes) and a.boxes.tobytes() == b.boxes.tobytes()


@pytest.fixture(scope="module")
def corpus_videos():
    """One synthgen corpus, dropout 0.2 and 6 false positives per frame, as
    per-video scalar record lists."""
    corpus = generate(SceneConfig(seed=41, video_count=2, frames_per_video=120, objects_per_video=(2, 3),
                                  dropout_rate=0.2, box_jitter_px=2.0, false_positive_rate=6.0, score_noise=0.05))
    return [records(corpus.detections[v]) for v in sorted(corpus.detections)]


def test_greedy_pairs_equal_the_reference_on_tied_ious():
    # three IoU values only, so most candidates tie and the (row, col) order decides
    rng = np.random.default_rng(11)
    for _ in range(200):
        iou = rng.choice([0.25, 0.5, 0.75], size=tuple(rng.integers(1, 6, size=2)))
        rows, cols = np.nonzero(iou >= 0.5)
        want = reference_greedy_pairs([(iou[r, c], r, c) for r, c in zip(rows.tolist(), cols.tolist())])
        claimed = linking._greedy_pairs(iou[rows, cols], rows, cols)
        assert list(zip(rows[claimed].tolist(), cols[claimed].tolist())) == want


class TestTrackLinkEqualsReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"t{c.iou_link_threshold}-p{c.patience}")
    def test_seeded_scenes(self, config):
        k = CONFIGS.index(config)
        for seed in range(k * SCENES_PER_CONFIG, (k + 1) * SCENES_PER_CONFIG):
            dets = scene(seed)
            assert_same_tubelets(track_link(columns(dets), config=config), reference_track_link(dets, config))

    @pytest.mark.parametrize("patience", [1, 2, 5, 50])
    def test_dropout_and_false_positive_corpus(self, patience, corpus_videos):
        for dets in corpus_videos:
            config = LinkConfig(patience=patience)
            assert_same_tubelets(track_link(columns(dets, dets[0].video_id), config=config),
                                 reference_track_link(dets, config))

    @pytest.mark.parametrize("patience", [5, 50])
    def test_long_scene_with_a_quiet_stretch(self, patience):
        dets = long_scene(7)
        frames = sorted({d.frame for d in dets})
        assert frames[-1] - frames[0] >= 1500 and len({d.object_class for d in dets}) == 3
        # every track ends in the quiet stretch, and the frames after that are skipped
        assert max(np.diff(frames)) > patience + 1
        config = LinkConfig(patience=patience)
        assert_same_tubelets(track_link(columns(dets), config=config), reference_track_link(dets, config))

    def test_six_thousand_frames(self):
        # dropout bridges hundreds of misses, each replayed at the end of the video
        corpus = generate(SceneConfig(seed=5, video_count=1, frames_per_video=6000, objects_per_video=(6, 6),
                                      dropout_rate=0.1, box_jitter_px=2.0, false_positive_rate=0.3))
        (video,) = corpus.detections.values()
        got = track_link(video)
        assert len(got.boxes) - len(video) > 500  # tracked rows
        assert_same_tubelets(got, reference_track_link(records(video)))


def linked_funnel(tmp_path, videos, config):
    """The record counts of `cli.link` on `videos` (scalar record lists, one
    per video) under `config`."""
    columns_by_id = {dets[0].video_id: columns(dets, dets[0].video_id) for dets in videos}
    metas = {v: VideoMeta(v, 10**6, 30.0, 1280.0, 720.0) for v in columns_by_id}
    m = cli.Manifest("link", cli.Config(link=config))
    cli.link(m, (columns_by_id, {}), metas, tmp_path / "tubelets.jsonl")
    return m.counts


class TestTracksEnded:
    # the link funnel's `tracks_ended` is read from the tubelets alone: the
    # tracks whose last row + patience is at most the video's last frame
    @pytest.mark.parametrize("patience", [1, 2, 5, 50])
    def test_dropout_and_false_positive_corpus(self, tmp_path, patience, corpus_videos):
        config = LinkConfig(patience=patience)
        want = sum(len(reference_tracks(dets, config)[0]) for dets in corpus_videos)
        assert want > 0
        assert linked_funnel(tmp_path, corpus_videos, config)["tracks_ended"] == want

    @pytest.mark.parametrize("patience", [5, 50])
    def test_long_scene_with_a_quiet_stretch(self, tmp_path, patience):
        dets = long_scene(7)
        config = LinkConfig(patience=patience)
        finished, live = reference_tracks(dets, config)
        assert finished and live
        assert linked_funnel(tmp_path, [dets], config)["tracks_ended"] == len(finished)

    def test_seeded_scenes(self, tmp_path):
        ended = 0
        for k, config in enumerate(CONFIGS):
            for dets in filter(None, map(scene, range(k * 10, k * 10 + 10))):
                want = len(reference_tracks(dets, config)[0])
                assert linked_funnel(tmp_path, [dets], config)["tracks_ended"] == want
                ended += want
        assert ended > 0

    def test_greedy_ends_no_track(self, tmp_path, corpus_videos):
        counts = linked_funnel(tmp_path, corpus_videos, LinkConfig(strategy="greedy", patience=1))
        assert counts["tubelets"] > 0 and counts["tracks_ended"] == 0


class TestTrackLinkCost:
    def test_one_iou_matrix_per_frame_with_live_tracks_and_detections(self, monkeypatch):
        dets = long_scene(3)
        config = LinkConfig(patience=5)
        shapes = []
        iou_matrix = kernels.iou_matrix

        def recording(boxes_a, boxes_b):
            shapes.append((len(boxes_a), len(boxes_b)))
            return iou_matrix(boxes_a, boxes_b)

        monkeypatch.setattr(kernels, "iou_matrix", recording)
        track_link(columns(dets), config=config)
        monkeypatch.undo()
        # a track is live from the frame after its seed to `patience` frames
        # after its last match, the last row of its tubelet
        tubelets = reference_track_link(dets, config)
        per_frame = Counter(d.frame for d in dets)
        live = [sum(t.extent.start < f < t.extent.end + config.patience for t in tubelets) for f in sorted(per_frame)]
        want = [(n, per_frame[f]) for f, n in zip(sorted(per_frame), live) if n]
        assert len({d.object_class for d in dets}) == 3 and len(want) < len(per_frame)
        assert shapes == want

    def test_clutter_holds_only_the_rows_it_emits(self):
        # 6 false positives a frame keep about 300 tracks live; a row per live
        # track per frame over the last `patience` frames peaked near 3.0 MB a
        # video, the emitted rows alone at 0.7-0.9 MB
        corpus = generate(SceneConfig(seed=0, video_count=2, frames_per_video=400, objects_per_video=(1, 2),
                                      dropout_rate=0.2, box_jitter_px=2.0, false_positive_rate=6.0,
                                      score_noise=0.05))
        for video in corpus.detections.values():
            tracemalloc.start()
            try:
                tubelets = track_link(video, LinkConfig(patience=50))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert len(tubelets) > 2000 and peak < 2.0e6, (len(tubelets), peak)


class TestGreedyMergeEqualsReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"t{c.iou_link_threshold}-g{c.max_interp_gap}")
    def test_seeded_scenes(self, config):
        k = CONFIGS.index(config)
        for seed in range(k * SCENES_PER_CONFIG, (k + 1) * SCENES_PER_CONFIG):
            dets = scene(seed)
            assert_same_tubelets(greedy_link(columns(dets), config), reference_greedy_link(dets, config))

    def test_dropout_and_false_positive_corpus(self, corpus_videos):
        for dets in corpus_videos:
            assert_same_tubelets(greedy_link(columns(dets, dets[0].video_id)), reference_greedy_link(dets))


# the scenes and configs on which the per-frame chain loop and the merge of
# chains claimed other links than the one rule: two links that share a tail
# or a head tie exactly on gap and IoU. The frame loop broke such a tie by
# the tail's place in its list of open chains and the merge by the order the
# chains were made; the rule breaks it by row.
TIES = [(708, LinkConfig(iou_link_threshold=0.3, max_interp_gap=40)),
        (1417, LinkConfig(iou_link_threshold=0.1, max_interp_gap=3)),
        (1417, LinkConfig(iou_link_threshold=0.05, max_interp_gap=0)),
        (1799, LinkConfig(iou_link_threshold=0.1, max_interp_gap=3)),
        (2611, LinkConfig(iou_link_threshold=0.1, max_interp_gap=3)),
        (3090, LinkConfig()),
        (3090, LinkConfig(iou_link_threshold=0.1, max_interp_gap=3)),
        (3090, LinkConfig(iou_link_threshold=0.3, max_interp_gap=40)),
        (3673, LinkConfig(iou_link_threshold=0.1, max_interp_gap=3)),
        (3673, LinkConfig(iou_link_threshold=0.3, max_interp_gap=40))]


@pytest.mark.parametrize("seed, config", TIES, ids=[f"{s}-t{c.iou_link_threshold}-g{c.max_interp_gap}" for s, c in TIES])
def test_greedy_breaks_exact_ties_by_row(seed, config):
    dets = scene(seed)
    assert_same_tubelets(greedy_link(columns(dets), config), reference_greedy_link(dets, config))


@pytest.mark.parametrize("seed, frames", [pytest.param(7, 3000, id="7"), pytest.param(8, 3000, id="8"),
                                          (7, 9000), (8, 9000)])
def test_greedy_gives_one_tubelet_per_object_at_length(seed, frames):
    # at 3,000 frames an object moves about 0.3 px a frame, less than the 2 px
    # jitter; ranking the merges by IoU alone then skipped nearer heads, and
    # each skipped chain started a second, overlapping tubelet of its object.
    # 9,000 frames is the paper's video length.
    corpus = generate(SceneConfig(seed=seed, video_count=2, frames_per_video=frames, objects_per_video=(6, 6),
                                  dropout_rate=0.1, box_jitter_px=2.0, score_noise=0.05))
    tubes = linking.LinkedTubelets.numbered([greedy_link(corpus.detections[v]) for v in sorted(corpus.detections)])

    def center_y(boxes):
        return 0.5 * float(boxes[0, 1] + boxes[0, 3])

    extents = {}  # (video, object lane) -> extents of its tubelets
    for t in tubes:
        lanes = [r for r in corpus.ground_truth if r.video_id == t.video_id]
        lane = min(range(len(lanes)), key=lambda k: abs(center_y(lanes[k].boxes) - center_y(t.boxes)))
        extents.setdefault((t.video_id, lane), []).append(t.extent)
    for spans in extents.values():
        spans.sort()
        assert all(a.end <= b.start for a, b in zip(spans, spans[1:]))
    assert len(tubes) == len(corpus.ground_truth) == 12
    assert tubelet_recall(tubes, corpus.ground_truth, (0.5, 0.9)).recall == (1.0, 1.0)


@pytest.fixture
def scenes(corpus_videos):
    """Seeded scenes with dropout, false positives and exact duplicates, and
    the corpus videos, which add 2 px of jitter."""
    return [scene(seed) for seed in range(60)] + corpus_videos


@pytest.mark.parametrize("link", [track_link, greedy_link], ids=["tracking", "greedy"])
def test_a_still_object_is_one_tubelet_at_threshold_one(link):
    # the same box on 10 frames has IoU exactly 1.0 from frame to frame
    tubes = link(columns([det(f, 20.0) for f in range(10)]), LinkConfig(iou_link_threshold=1.0))
    assert [(t.extent, t.boxes.tolist()) for t in tubes] == [(Interval(0, 10), [[20.0, 0.0, 30.0, 10.0]] * 10)]


@pytest.mark.parametrize("max_interp_gap", [0, 2, 8])
def test_greedy_interpolates_no_hole_longer_than_max_interp_gap(scenes, max_interp_gap):
    # greedy links rows only across holes it may fill, so interpolate_gaps
    # needs no rule for a longer hole; the reference, equal to it, says
    # which rows it filled
    config = LinkConfig(max_interp_gap=max_interp_gap)
    runs = []
    for dets in scenes:
        tubes = reference_greedy_link(dets, config)
        assert_same_tubelets(greedy_link(video_columns(dets), config), tubes)
        for t in tubes:
            interpolated = np.append(np.array(t.provenance) == "interpolated", False)
            edges = np.flatnonzero(np.diff(interpolated, prepend=False))  # run starts and ends, alternating
            runs.extend(np.diff(edges)[::2].tolist())
    assert max(runs, default=0) <= max_interp_gap
    assert bool(runs) == (max_interp_gap > 0)


@pytest.mark.parametrize("link", [track_link, greedy_link], ids=["tracking", "greedy"])
class TestLinkProperties:
    def test_tubelets_dense_and_frames_unique(self, link, scenes):
        for dets in scenes:
            tubes = link(columns(dets))
            assert [t.id for t in tubes] == list(range(len(tubes)))
            for t in tubes:
                assert type(t) is Track and t.boxes.shape == (t.extent.length, 4)
                assert np.isfinite(t.boxes).all()

    def test_each_detection_is_one_detected_row(self, link, scenes):
        # the detections are contained in the rows, and the other rows are
        # as many as the scalar reference fills in: each detection is one row
        reference = reference_track_link if link is track_link else reference_greedy_link
        for dets in scenes:
            tubes = link(columns(dets))
            rows = row_keys(tubes)
            assert not detection_keys(dets) - rows
            assert rows.total() - len(dets) == filled_rows(reference(dets)).total()

    def test_filled_rows_never_trail_the_last_detected_row(self, link, scenes):
        for dets in scenes:
            detections = detection_keys(dets)
            for t in link(columns(dets)):
                for k, f in ((0, t.extent.start), (-1, t.extent.end - 1)):
                    assert (f, t.object_class, tuple(t.boxes[k].tolist())) in detections


@pytest.mark.parametrize("strategy", ["tracking", "greedy"])
def test_link_funnel_counts_the_rows_the_references_fill(tmp_path, scenes, strategy):
    # every admitted detection is one tubelet row, so `link` counts the rows
    # beyond the detections; the references, which keep each row's
    # provenance, say which rows those are
    config = LinkConfig(strategy=strategy)
    reference = reference_track_link if strategy == "tracking" else reference_greedy_link
    filled = Counter()
    for dets in filter(None, scenes):
        counts = linked_funnel(tmp_path, [dets], config)
        assert not detection_keys(dets) - row_keys(linking.read_tubelets(tmp_path / "tubelets.jsonl"))
        want = filled_rows(reference(dets, config))
        assert (counts["interpolated_frames"], counts["tracked_frames"]) == (want["interpolated"], want["tracked"])
        filled += want
    assert set(filled) == {"tracked" if strategy == "tracking" else "interpolated"}
