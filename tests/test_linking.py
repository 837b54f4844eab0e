import itertools

import pytest

from tubekit.data_model import Detection
from tubekit.errors import InvalidInputError
from tubekit.geometry import Box, spatial_iou
from tubekit.linking import (
    PROVENANCES,
    ConstantVelocityTracker,
    LinkConfig,
    greedy_link,
    interpolate_gaps,
    predict_next,
    track_link,
)


def det(frame, x1, y1=0.0, w=10.0, h=10.0, cls="person", score=0.9, video="v0"):
    return Detection(video, frame, Box(x1, y1, x1 + w, y1 + h), cls, score)


def xyxy(box):
    return (box.x1, box.y1, box.x2, box.y2)


def detected_rows(tubelet):
    """(frame, box tuple) of every detected row of a tubelet."""
    return [
        (f, tuple(tubelet.boxes[k].tolist()))
        for k, f in enumerate(tubelet.extent.frames())
        if PROVENANCES[tubelet.provenance[k]] == "detected"
    ]


class TestInterpolateGaps:
    def test_single_frame_hole_midpoint(self):
        observed = {4: (Box(0, 0, 10, 10), 0.9), 6: (Box(10, 0, 20, 10), 0.7)}
        (boxes, scores, prov), = interpolate_gaps(observed, max_interp_gap=8)
        assert boxes[5] == Box(5, 0, 15, 10)
        assert scores[5] == pytest.approx(0.8)
        assert prov[5] == "interpolated"
        assert prov[4] == prov[6] == "detected"

    def test_no_holes_identity(self):
        observed = {f: (Box(f, 0, f + 10, 10), 0.5) for f in range(5)}
        (boxes, scores, prov), = interpolate_gaps(observed, 8)
        assert boxes == {f: b for f, (b, _) in observed.items()}
        assert set(prov.values()) == {"detected"}

    def test_three_frame_hole_linear(self):
        observed = {0: (Box(0, 0, 10, 10), 1.0), 4: (Box(40, 0, 50, 10), 1.0)}
        (boxes, _, _), = interpolate_gaps(observed, 8)
        assert [boxes[f].x1 for f in (1, 2, 3)] == [10, 20, 30]

    def test_long_hole_splits(self):
        observed = {0: (Box(0, 0, 10, 10), 1.0), 20: (Box(0, 0, 10, 10), 1.0)}
        segments = interpolate_gaps(observed, max_interp_gap=8)
        assert len(segments) == 2


class TestGreedyLink:
    def test_single_chain(self):
        dets = [det(f, x1=f * 1.0) for f in range(3)]
        tubes, _ = greedy_link(dets)
        assert len(tubes) == 1
        assert tubes[0].extent.length == 3

    def test_threshold_split(self):
        # middle pair IoU ~0.3 < 0.5 splits the chain
        dets = [det(0, 0.0), det(1, 5.5), det(2, 6.5)]
        assert spatial_iou(dets[0].box, dets[1].box) < 0.5
        assert spatial_iou(dets[1].box, dets[2].box) > 0.5
        tubes, _ = greedy_link(dets)
        assert sorted(t.extent.length for t in tubes) == [1, 2]

    def test_two_parallel_lanes(self):
        dets = []
        for f in range(5):
            dets.append(det(f, x1=f * 1.0, y1=0.0))
            dets.append(det(f, x1=f * 1.0, y1=100.0))
        tubes, _ = greedy_link(dets)
        assert len(tubes) == 2
        assert all(t.extent.length == 5 for t in tubes)

    def test_greedy_matches_brute_force_on_small_frames(self):
        # at most 3 boxes per frame with well-separated IoUs: greedy matching
        # must equal the optimal one-to-one assignment
        frame0 = [det(0, 0.0), det(0, 30.0), det(0, 60.0)]
        frame1 = [det(1, 1.0), det(1, 31.0), det(1, 61.0)]
        tubes, _ = greedy_link(frame0 + frame1)
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
        tubes, _ = greedy_link(dets)
        assert len(tubes) == 2

    def test_no_detection_shared_between_tubelets(self):
        dets = [det(f, x1=x, y1=y) for f in range(4) for x, y in ((f * 2.0, 0.0), (f * 2.0, 8.0))]
        tubes, _ = greedy_link(dets)
        seen = set()
        for t in tubes:
            for row in detected_rows(t):
                assert row not in seen
                seen.add(row)

    def test_multi_video_rejected(self):
        with pytest.raises(InvalidInputError):
            greedy_link([det(0, 0.0), det(0, 0.0, video="v1")])


class TestTrackLink:
    def test_bridges_gap_with_tracking(self):
        # constant motion 5 px/frame, detections missing on frames 5-9
        dets = [det(f, x1=5.0 * f, w=40.0) for f in list(range(5)) + [10]]
        tubes, _ = track_link(dets)
        assert len(tubes) == 1
        t = tubes[0]
        assert (t.extent.start, t.extent.end) == (0, 11)
        for f in range(5, 10):
            assert PROVENANCES[t.provenance[f]] == "tracked"
            assert t.boxes[f, 0] == pytest.approx(5.0 * f)
        assert PROVENANCES[t.provenance[10]] == "detected"

    def test_patience_splits_long_gap(self):
        dets = [det(f, x1=0.0) for f in range(5)] + [det(f, x1=0.0) for f in range(65, 70)]
        tubes, _ = track_link(dets, config=LinkConfig(patience=50))
        assert len(tubes) == 2

    def test_trailing_tracked_frames_trimmed(self):
        dets = [det(f, x1=0.0) for f in range(5)] + [det(40, 500.0)]
        tubes, _ = track_link(dets)
        first = min(tubes, key=lambda t: t.extent.start)
        assert first.extent.end == 5
        assert all(PROVENANCES[p] == "detected" for p in first.provenance)

    def test_single_frame_video(self):
        tubes, _ = track_link([det(0, 0.0), det(0, 100.0)])
        assert len(tubes) == 2
        assert all(t.extent.length == 1 for t in tubes)

    def test_matched_detection_isolated_from_future_matching(self):
        # two tracks converging on one detection: only one may claim it
        dets = [
            det(0, 0.0), det(0, 12.0),
            det(1, 6.0),
        ]
        tubes, _ = track_link(dets)
        detected = [row for t in tubes for row in detected_rows(t)]
        assert len(detected) == len(set(detected)) == 3


class TestPredictNext:
    def test_single_element_carry_forward(self):
        b = Box(0, 0, 10, 10)
        assert predict_next([b]) == b

    def test_constant_velocity(self):
        assert predict_next([Box(0, 0, 10, 10), Box(5, 0, 15, 10)]) == Box(10, 0, 20, 10)

    def test_stationary(self):
        b = Box(3, 4, 13, 14)
        assert predict_next([b, b]) == b

    def test_empty_history_rejected(self):
        with pytest.raises(InvalidInputError):
            predict_next([])

    def test_tracker_class_delegates(self):
        tracker = ConstantVelocityTracker()
        assert tracker.predict_next([Box(0, 0, 2, 2), Box(1, 1, 3, 3)]) == Box(2, 2, 4, 4)
