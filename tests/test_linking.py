import itertools
from collections import Counter
from dataclasses import dataclass, replace

import numpy as np
import pytest

from tubekit import kernels, linking
from tubekit.data_model import DETECTION_CLASSES, OBJECT_CLASSES, detection_columns
from tubekit.geometry import Box, Interval, spatial_iou
from tubekit.linking import (
    PROVENANCES,
    LinkConfig,
    LinkStats,
    Tubelet,
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


def detected_rows(tubelet):
    """(frame, box tuple) of every detected row of a tubelet."""
    return [
        (f, tuple(tubelet.boxes[k].tolist()))
        for k, f in enumerate(tubelet.extent.frames())
        if PROVENANCES[tubelet.provenance[k]] == "detected"
    ]


def interpolate(observed, max_interp_gap=8, stats=None):
    """`interpolate_gaps` on a frame -> (box tuple, score) map."""
    frames = sorted(observed)
    return interpolate_gaps(np.array(frames), rows(*(observed[f][0] for f in frames)),
                            np.array([observed[f][1] for f in frames]), max_interp_gap, stats)


class TestInterpolateGaps:
    def test_single_frame_hole_midpoint(self):
        observed = {4: ((0, 0, 10, 10), 0.9), 6: ((10, 0, 20, 10), 0.7)}
        (extent, boxes, scores, prov), = interpolate(observed)
        assert extent == Interval(4, 7)
        assert boxes[1].tolist() == [5, 0, 15, 10]
        assert scores[1] == pytest.approx(0.8)
        assert [PROVENANCES[p] for p in prov] == ["detected", "interpolated", "detected"]

    def test_no_holes_identity(self):
        observed = {f: ((f, 0, f + 10, 10), 0.5) for f in range(5)}
        (extent, boxes, scores, prov), = interpolate(observed)
        assert extent == Interval(0, 5)
        assert boxes.tolist() == [list(observed[f][0]) for f in range(5)]
        assert set(prov.tolist()) == {PROVENANCES.index("detected")}

    def test_three_frame_hole_linear(self):
        observed = {0: ((0, 0, 10, 10), 1.0), 4: ((40, 0, 50, 10), 1.0)}
        (_, boxes, _, _), = interpolate(observed)
        assert boxes[1:4, 0].tolist() == [10, 20, 30]

    def test_long_hole_splits(self):
        observed = {0: ((0, 0, 10, 10), 1.0), 20: ((0, 0, 10, 10), 1.0)}
        stats = LinkStats()
        segments = interpolate(observed, max_interp_gap=8, stats=stats)
        assert [extent for extent, *_ in segments] == [Interval(0, 1), Interval(20, 21)]
        assert stats == LinkStats(splits_on_long_gap=1)

    def test_rows_equal_the_scalar_reference(self):
        # 1 to 3 objects back to back, each with holes of 0 to 12 frames (some
        # split at max_interp_gap 8) and frames that may overlap the previous
        # object's; -0.0 must survive on a detected row
        rng = np.random.default_rng(11)
        for _ in range(200):
            got_stats, want_stats = LinkStats(), LinkStats()
            objects, want = [], []
            for _ in range(int(rng.integers(1, 4))):
                n = int(rng.integers(1, 12))
                frames = int(rng.integers(0, 30)) + np.cumsum(rng.integers(1, 14, n))
                x, y = rng.uniform(-1e3, 1e3, n), rng.uniform(-1e3, 1e3, n)
                x[0] = -0.0
                boxes = np.stack([x, y, x + rng.uniform(0, 90, n), y + rng.uniform(0, 90, n)], axis=1)
                scores = rng.uniform(0, 1, n)
                objects.append((frames, boxes, scores))
                observed = {f: (Box(*b), sc) for f, b, sc in zip(frames.tolist(), boxes.tolist(), scores.tolist())}
                want += reference_interpolate_gaps(observed, 8, want_stats)
            firsts = np.cumsum([0] + [len(f) for f, _, _ in objects[:-1]]).tolist()
            got = interpolate_gaps(*(np.concatenate(col) for col in zip(*objects)), 8, got_stats, firsts)
            assert got_stats == want_stats
            assert len(got) == len(want)
            for (extent, b, sc, prov), (want_boxes, want_scores, want_prov) in zip(got, want):
                assert list(extent.frames()) == sorted(want_boxes)
                want_rows = np.array([xyxy(want_boxes[f]) for f in extent.frames()])
                assert b.tobytes() == want_rows.tobytes()
                assert sc.tolist() == [want_scores[f] for f in extent.frames()]
                assert [PROVENANCES[p] for p in prov] == [want_prov[f] for f in extent.frames()]


class TestGreedyLink:
    def test_single_chain(self):
        dets = [det(f, x1=f * 1.0) for f in range(3)]
        tubes, _ = greedy_link(columns(dets))
        assert len(tubes) == 1
        assert tubes[0].extent.length == 3

    def test_threshold_split(self):
        # middle pair IoU ~0.3 < 0.5 splits the chain
        dets = [det(0, 0.0), det(1, 5.5), det(2, 6.5)]
        assert spatial_iou(dets[0].box, dets[1].box) < 0.5
        assert spatial_iou(dets[1].box, dets[2].box) > 0.5
        tubes, _ = greedy_link(columns(dets))
        assert sorted(t.extent.length for t in tubes) == [1, 2]

    def test_two_parallel_lanes(self):
        dets = []
        for f in range(5):
            dets.append(det(f, x1=f * 1.0, y1=0.0))
            dets.append(det(f, x1=f * 1.0, y1=100.0))
        tubes, _ = greedy_link(columns(dets))
        assert len(tubes) == 2
        assert all(t.extent.length == 5 for t in tubes)

    def test_greedy_matches_brute_force_on_small_frames(self):
        # at most 3 boxes per frame with well-separated IoUs: greedy matching
        # must equal the optimal one-to-one assignment
        frame0 = [det(0, 0.0), det(0, 30.0), det(0, 60.0)]
        frame1 = [det(1, 1.0), det(1, 31.0), det(1, 61.0)]
        tubes, _ = greedy_link(columns(frame0 + frame1))
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
        tubes, _ = greedy_link(columns(dets))
        assert len(tubes) == 2

    def test_no_detection_shared_between_tubelets(self):
        dets = [det(f, x1=x, y1=y) for f in range(4) for x, y in ((f * 2.0, 0.0), (f * 2.0, 8.0))]
        tubes, _ = greedy_link(columns(dets))
        seen = set()
        for t in tubes:
            for row in detected_rows(t):
                assert row not in seen
                seen.add(row)


class TestTrackLink:
    def test_bridges_gap_with_tracking(self):
        # constant motion 5 px/frame, detections missing on frames 5-9
        dets = [det(f, x1=5.0 * f, w=40.0) for f in list(range(5)) + [10]]
        tubes, _ = track_link(columns(dets))
        assert len(tubes) == 1
        t = tubes[0]
        assert (t.extent.start, t.extent.end) == (0, 11)
        for f in range(5, 10):
            assert PROVENANCES[t.provenance[f]] == "tracked"
            assert t.boxes[f, 0] == pytest.approx(5.0 * f)
        assert PROVENANCES[t.provenance[10]] == "detected"

    def test_patience_splits_long_gap(self):
        dets = [det(f, x1=0.0) for f in range(5)] + [det(f, x1=0.0) for f in range(65, 70)]
        tubes, _ = track_link(columns(dets), config=LinkConfig(patience=50))
        assert len(tubes) == 2

    def test_trailing_tracked_frames_trimmed(self):
        dets = [det(f, x1=0.0) for f in range(5)] + [det(40, 500.0)]
        tubes, _ = track_link(columns(dets))
        first = min(tubes, key=lambda t: t.extent.start)
        assert first.extent.end == 5
        assert all(PROVENANCES[p] == "detected" for p in first.provenance)

    def test_single_frame_video(self):
        tubes, _ = track_link(columns([det(0, 0.0), det(0, 100.0)]))
        assert len(tubes) == 2
        assert all(t.extent.length == 1 for t in tubes)

    def test_matched_detection_isolated_from_future_matching(self):
        # two tracks converging on one detection: only one may claim it
        dets = [
            det(0, 0.0), det(0, 12.0),
            det(1, 6.0),
        ]
        tubes, _ = track_link(columns(dets))
        detected = [row for t in tubes for row in detected_rows(t)]
        assert len(detected) == len(set(detected)) == 3


def rows(*boxes):
    return np.array(boxes, dtype=np.float64)


class TestPredictNext:
    def test_single_element_carry_forward(self):
        # a track with one box predicts that box, bit for bit (-0.0 stays -0.0)
        dets = [det(0, -0.0, w=40.0), det(0, 500.0), det(2, 0.0, w=40.0)]
        tubes, _ = track_link(columns(dets))
        (t,) = [t for t in tubes if t.extent.length == 3]
        assert PROVENANCES[t.provenance[1]] == "tracked"
        assert t.boxes[1].tobytes() == t.boxes[0].tobytes()
        assert np.signbit(t.boxes[1, 0])

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
            b = reference_predict_next([Box(*prev[k].tolist()), Box(*last[k].tolist())])
            assert got[k].tolist() == [b.x1, b.y1, b.x2, b.y2]


# ---------------------------------------------------------------------------
# the Box-based linkers the array code replaced, kept as references; they
# take lists of scalar records


def reference_predict_next(history):
    last = history[-1]
    if len(history) == 1:
        return last
    prev = history[-2]
    dcx = 0.5 * (last.x1 + last.x2) - 0.5 * (prev.x1 + prev.x2)
    dcy = 0.5 * (last.y1 + last.y2) - 0.5 * (prev.y1 + prev.y2)
    return Box(last.x1 + dcx, last.y1 + dcy, last.x2 + dcx, last.y2 + dcy)


@dataclass
class _RefTrack:
    object_class: str
    entries: list  # (frame, Box, score, provenance)
    misses: int = 0
    last_match_frame: int = 0


def _ref_emit(video_id, object_class, entries):
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


def _ref_numbered(tubelets):
    return [replace(t, id=i) for i, t in enumerate(sorted(tubelets, key=linking._emit_order))]


def reference_track_link(detections, config=LinkConfig()):
    stats = LinkStats()
    video_ids = {d.video_id for d in detections}
    video_id = video_ids.pop() if video_ids else ""
    by_frame = {}
    for d in sorted(detections, key=lambda d: (d.frame, d.box, -d.score)):
        by_frame.setdefault(d.frame, []).append(d)
    finished, live = [], []
    if by_frame:
        for f in range(min(by_frame), max(by_frame) + 1):
            dets = by_frame.get(f, [])
            claimed = set()
            by_class = {}
            for idx, d in enumerate(dets):
                by_class.setdefault(d.object_class, []).append(idx)
            predictions = [reference_predict_next([e[1] for e in tr.entries]) for tr in live]
            for cls in sorted(by_class):
                track_ids = [ti for ti, tr in enumerate(live) if tr.object_class == cls]
                det_ids = by_class[cls]
                if not track_ids:
                    continue
                iou = kernels.iou_matrix(
                    [[predictions[ti].x1, predictions[ti].y1, predictions[ti].x2, predictions[ti].y2]
                     for ti in track_ids],
                    [[dets[di].box.x1, dets[di].box.y1, dets[di].box.x2, dets[di].box.y2] for di in det_ids],
                )
                for r, c in linking._greedy_pairs(iou, config.iou_link_threshold, strict=False):
                    tr = live[track_ids[r]]
                    d = dets[det_ids[c]]
                    tr.entries.append((f, d.box, d.score, "detected"))
                    tr.misses = 0
                    tr.last_match_frame = f
                    claimed.add(det_ids[c])
            still_live = []
            for ti, tr in enumerate(live):
                if tr.entries[-1][0] == f:
                    still_live.append(tr)
                    continue
                tr.entries.append((f, predictions[ti], tr.entries[-1][2], "tracked"))
                tr.misses += 1
                if tr.misses >= config.patience:
                    finished.append(tr)
                else:
                    still_live.append(tr)
            live = still_live
            for idx, d in enumerate(dets):
                if idx not in claimed:
                    live.append(_RefTrack(d.object_class, [(f, d.box, d.score, "detected")], last_match_frame=f))
    finished.extend(live)
    tubelets = []
    for tr in finished:
        entries = [e for e in tr.entries if e[0] <= tr.last_match_frame]
        stats.tracked_frames += sum(e[3] == "tracked" for e in entries)
        tubelets.append(_ref_emit(video_id, tr.object_class, entries))
    return _ref_numbered(tubelets), stats


def reference_interpolate_gaps(observed, max_interp_gap, stats=None):
    """Fill holes in a sparse frame -> (Box, score) map; returns dense
    (boxes, scores, provenance) frame maps."""
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


def reference_merge_and_emit(chains, video_id, cls, config, stats):
    n = len(chains)
    candidates = []
    for i in range(n):
        for j in range(n):
            if i == j:
                continue
            gap = chains[j][0].frame - chains[i][-1].frame - 1
            if not 1 <= gap <= config.max_interp_gap:
                continue
            a, b = chains[i][-1].box, chains[j][0].box
            iou = kernels.iou_matrix([[a.x1, a.y1, a.x2, a.y2]], [[b.x1, b.y1, b.x2, b.y2]])[0, 0]
            if iou > config.iou_link_threshold:
                candidates.append((iou, i, j))
    candidates.sort(key=lambda t: (-t[0], t[1], t[2]))
    next_of, used_starts = {}, set()
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
        for boxes, scores, prov in reference_interpolate_gaps(observed, config.max_interp_gap, stats):
            out.append(_ref_emit(video_id, cls, [(f, boxes[f], scores[f], prov[f]) for f in sorted(boxes)]))
    return out


def reference_greedy_link(detections, config=LinkConfig()):
    stats = LinkStats()
    video_ids = {d.video_id for d in detections}
    video_id = video_ids.pop() if video_ids else ""
    grouped = {}
    for d in sorted(detections, key=lambda d: (d.frame, d.box, -d.score)):
        grouped.setdefault(d.object_class, {}).setdefault(d.frame, []).append(d)
    tubelets = []
    for cls, by_frame in sorted(grouped.items()):
        chains = []  # lists of records with strictly consecutive frames
        open_by_tail = {}  # frame -> chain indices whose tail is at frame
        for f in sorted(by_frame):
            dets = by_frame[f]
            tails = open_by_tail.pop(f - 1, [])
            matched = set()
            if tails:
                iou = kernels.iou_matrix([xyxy(chains[ci][-1].box) for ci in tails], [xyxy(d.box) for d in dets])
                for r, c in linking._greedy_pairs(iou, config.iou_link_threshold, strict=True):
                    chains[tails[r]].append(dets[c])
                    open_by_tail.setdefault(f, []).append(tails[r])
                    matched.add(c)
            for c, d in enumerate(dets):
                if c not in matched:
                    chains.append([d])
                    open_by_tail.setdefault(f, []).append(len(chains) - 1)
        tubelets.extend(reference_merge_and_emit(chains, video_id, cls, config, stats))
    return _ref_numbered(tubelets), stats


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


CONFIGS = [
    LinkConfig(iou_link_threshold=t, patience=p, max_interp_gap=g)
    for t, p, g in [(0.5, 50, 8), (0.05, 1, 2), (1.0, 2, 8), (0.05, 5, 0), (0.3, 50, 3)]
]
SCENES_PER_CONFIG = 50  # 250 scenes per linker, each config on its own seeds


def assert_same_tubelets(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert (a.id, a.video_id, a.object_class, a.extent) == (b.id, b.video_id, b.object_class, b.extent)
        for x, y in ((a.boxes, b.boxes), (a.box_scores, b.box_scores), (a.provenance, b.provenance)):
            assert x.dtype == y.dtype and x.shape == y.shape
            assert np.array_equal(x, y) and x.tobytes() == y.tobytes()


@pytest.fixture(scope="module")
def corpus_videos():
    """One synthgen corpus, dropout 0.2 and 6 false positives per frame, as
    per-video scalar record lists."""
    corpus = generate(SceneConfig(seed=41, video_count=2, frames_per_video=120, objects_per_video=(2, 3),
                                  dropout_rate=0.2, box_jitter_px=2.0, false_positive_rate=6.0, score_noise=0.05))
    return [records(corpus.detections[v]) for v in sorted(corpus.detections)]


class TestTrackLinkEqualsReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"t{c.iou_link_threshold}-p{c.patience}")
    def test_seeded_scenes(self, config):
        k = CONFIGS.index(config)
        for seed in range(k * SCENES_PER_CONFIG, (k + 1) * SCENES_PER_CONFIG):
            dets = scene(seed)
            got, got_stats = track_link(columns(dets), config=config)
            want, want_stats = reference_track_link(dets, config)
            assert_same_tubelets(got, want)
            assert got_stats == want_stats

    @pytest.mark.parametrize("patience", [1, 2, 5, 50])
    def test_dropout_and_false_positive_corpus(self, patience, corpus_videos):
        for dets in corpus_videos:
            config = LinkConfig(patience=patience)
            got, got_stats = track_link(columns(dets, dets[0].video_id), config=config)
            want, want_stats = reference_track_link(dets, config)
            assert_same_tubelets(got, want)
            assert got_stats == want_stats


class TestGreedyMergeEqualsReference:
    @pytest.mark.parametrize("config", CONFIGS, ids=lambda c: f"t{c.iou_link_threshold}-g{c.max_interp_gap}")
    def test_seeded_scenes(self, config):
        k = CONFIGS.index(config)
        for seed in range(k * SCENES_PER_CONFIG, (k + 1) * SCENES_PER_CONFIG):
            dets = scene(seed)
            got, got_stats = greedy_link(columns(dets), config)
            want, want_stats = reference_greedy_link(dets, config)
            assert_same_tubelets(got, want)
            assert got_stats == want_stats

    def test_dropout_and_false_positive_corpus(self, corpus_videos):
        for dets in corpus_videos:
            got, got_stats = greedy_link(columns(dets, dets[0].video_id))
            want, want_stats = reference_greedy_link(dets)
            assert_same_tubelets(got, want)
            assert got_stats == want_stats


def detection_key(frame, cls, box, score):
    return (frame, cls, tuple(float(v) for v in box), float(score))


@pytest.mark.parametrize("link", [track_link, greedy_link], ids=["tracking", "greedy"])
class TestLinkProperties:
    @pytest.fixture
    def scenes(self, corpus_videos):
        return [scene(seed) for seed in range(60)] + corpus_videos

    def test_tubelets_dense_and_frames_unique(self, link, scenes):
        for dets in scenes:
            tubes, _ = link(columns(dets))
            assert [t.id for t in tubes] == list(range(len(tubes)))
            for t in tubes:
                n = t.extent.length
                assert t.boxes.shape == (n, 4) and t.box_scores.shape == (n,) and t.provenance.shape == (n,)
                assert np.isfinite(t.boxes).all()

    def test_each_detection_is_one_detected_row(self, link, scenes):
        for dets in scenes:
            tubes, _ = link(columns(dets))
            rows = Counter(
                detection_key(f, t.object_class, t.boxes[k], t.box_scores[k])
                for t in tubes
                for k, f in enumerate(t.extent.frames())
                if PROVENANCES[t.provenance[k]] == "detected"
            )
            assert rows == Counter(detection_key(d.frame, d.object_class, xyxy(d.box), d.score) for d in dets)

    def test_filled_rows_never_trail_the_last_detected_row(self, link, scenes):
        filled = "tracked" if link is track_link else "interpolated"
        for dets in scenes:
            tubes, _ = link(columns(dets))
            for t in tubes:
                prov = [PROVENANCES[c] for c in t.provenance.tolist()]
                assert prov[0] == prov[-1] == "detected"
                assert set(prov) <= {"detected", filled}
                if filled == "tracked":  # a tracked row carries the last detected score
                    for k in range(1, len(prov)):
                        if prov[k] == "tracked":
                            assert t.box_scores[k] == t.box_scores[k - 1]
