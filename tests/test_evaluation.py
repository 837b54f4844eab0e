import itertools

import numpy as np
import pytest
from conftest import box_rows, linked, make_tubelet

from tubekit.data_model import ActivityInstance, VideoMeta
from tubekit.errors import InvalidInputError
from tubekit.evaluation import (
    AlignmentPolicy,
    DetCurve,
    align_instances,
    det_curve,
    mean_p_miss,
    p_miss_at_rfa,
    total_corpus_minutes,
    tubelet_recall,
)
from tubekit.geometry import Interval, temporal_iou


def instance(start, end, activity="Riding", confidence=1.0, video_id="v0", box=(0, 0, 10, 10)):
    return ActivityInstance(video_id, activity, Interval(start, end), box_rows(box, end - start), confidence)


def meta(video_id="v0", frame_count=18000, frame_rate=30.0):
    # 18000 frames at 30fps = 10 minutes
    return VideoMeta(video_id, frame_count, frame_rate, 1280.0, 720.0)


class TestTubeletRecall:
    def test_perfect_cover(self):
        gt = [instance(0, 10), instance(20, 40, activity="Pull")]
        tubes = [make_tubelet(g.boxes, start=g.extent.start, tubelet_id=i) for i, g in enumerate(gt)]
        curve = tubelet_recall(linked(tubes), gt, [0.1, 0.5, 0.9])
        assert curve.recall == (1.0, 1.0, 1.0)

    def test_no_tubelets(self):
        curve = tubelet_recall(linked([]), [instance(0, 10)], [0.1, 0.5])
        assert curve.recall == (0.0, 0.0)

    def test_partial_cover(self):
        g1 = instance(0, 10)
        g2 = instance(100, 110, activity="Pull")
        # covers g1 at IoU ~0.6 (temporal 6/10 overlap, same boxes)
        t1 = make_tubelet(box_rows((0, 0, 10, 10), 6))
        # covers g2 at IoU 0.2
        t2 = make_tubelet(box_rows((0, 0, 10, 10), 2), start=100, tubelet_id=1)
        curve = tubelet_recall(linked([t1, t2]), [g1, g2], [0.3])
        assert curve.recall == (0.5,)

    def test_a_tubelet_scores_its_coverage_of_a_short_reference(self):
        # one object's tubelet over frames [0, 300) and one 40-frame activity
        # of it: temporal IoU 40/300, but the tubelet covers the whole reference
        tube = make_tubelet(box_rows((0, 0, 10, 10), 300))
        gt = [instance(100, 140), instance(280, 320, activity="Pull")]
        curve = tubelet_recall(linked([tube]), gt, [0.1, 0.4, 0.5, 0.9])
        assert curve.recall == (1.0, 1.0, 0.5, 0.5)  # the second reference is half covered

    def test_empty_ground_truth_rejected(self):
        with pytest.raises(InvalidInputError):
            tubelet_recall(linked([]), [], [0.5])

    def test_non_increasing(self):
        gt = [instance(0, 10), instance(30, 60, activity="Pull")]
        tubes = [
            make_tubelet(box_rows((0, 0, 10, 10), 7)),
            make_tubelet(box_rows((2, 0, 12, 10), 30), start=30, tubelet_id=1),
        ]
        curve = tubelet_recall(linked(tubes), gt, [0.1 * i for i in range(1, 10)])
        assert list(curve.recall) == sorted(curve.recall, reverse=True)


def brute_force_alignment(system, reference, min_tiou):
    """Optimal one-to-one matching: max count, then max total temporal IoU."""
    n, m = len(system), len(reference)
    tiou = [[temporal_iou(s.extent, r.extent) for r in reference] for s in system]
    best = (0, 0.0)
    for k in range(min(n, m), -1, -1):
        found = False
        for si in itertools.permutations(range(n), k):
            for rj in itertools.permutations(range(m), k):
                ts = [tiou[i][j] for i, j in zip(si, rj)]
                if all(t >= min_tiou for t in ts):
                    found = True
                    best = max(best, (k, sum(ts)))
        if found:
            break
    return best


class TestAlignInstances:
    def test_identity(self):
        refs = [instance(0, 10), instance(30, 40, activity="Pull")]
        res = align_instances(list(refs), refs)
        assert len(res.matches) == 2
        assert res.misses == [] and res.false_alarms == []

    def test_empty_system(self):
        refs = [instance(0, 10), instance(30, 40)]
        res = align_instances([], refs)
        assert len(res.misses) == 2

    def test_two_competing_for_one(self):
        ref = instance(0, 10)
        sys = [instance(0, 10, confidence=0.9), instance(1, 11, confidence=0.8)]
        res = align_instances(sys, [ref])
        assert len(res.matches) == 1 and len(res.false_alarms) == 1

    def test_cross_video_never_matches(self):
        res = align_instances([instance(0, 10, video_id="va")], [instance(0, 10, video_id="vb")])
        assert res.matches == []

    def test_cross_class_never_matches(self):
        res = align_instances([instance(0, 10, activity="Pull")], [instance(0, 10, activity="Riding")])
        assert res.matches == []

    def test_matches_brute_force_optimum(self):
        rng = np.random.default_rng(42)
        policy = AlignmentPolicy()
        for _ in range(60):
            n, m = int(rng.integers(0, 6)), int(rng.integers(0, 6))
            def iv(conf):
                s = int(rng.integers(0, 40))
                return instance(s, s + int(rng.integers(1, 25)), confidence=conf)
            sys = [iv(round(float(rng.random()), 3)) for _ in range(n)]
            refs = [iv(1.0) for _ in range(m)]
            res = align_instances(sys, refs, policy)
            got = (len(res.matches), sum(t for _, _, t in res.matches))
            want = brute_force_alignment(sys, refs, policy.temporal_iou_min)
            assert got[0] == want[0]
            assert got[1] == pytest.approx(want[1], abs=1e-9)


class TestDetCurve:
    def test_perfect_system(self):
        refs = [instance(0, 10), instance(30, 40, activity="Pull")]
        curves = det_curve(list(refs), refs, {"v0": meta()})
        for c in curves.values():
            assert c.points[0] == (0.0, 0.0)
            assert p_miss_at_rfa(c, 0.15) == 0.0

    def test_empty_system(self):
        refs = [instance(0, 10)]
        curves = det_curve([], refs, {"v0": meta()})
        assert curves["Riding"].points == ((0.0, 1.0),)
        assert p_miss_at_rfa(curves["Riding"], 0.15) == 1.0

    def test_hand_counted_scenario(self):
        # 3 references; system finds 2 plus 1 false alarm in a 10-minute corpus
        refs = [instance(0, 10), instance(50, 60), instance(100, 110)]
        sys = [
            instance(0, 10, confidence=0.9),
            instance(50, 60, confidence=0.8),
            instance(500, 510, confidence=0.7),
        ]
        curves = det_curve(sys, refs, {"v0": meta()})
        assert (0.1, 1 / 3) in curves["Riding"].points

    def test_monotone(self):
        rng = np.random.default_rng(5)
        refs = [instance(int(s), int(s) + 20) for s in rng.integers(0, 5000, size=12)]
        sys = [
            instance(int(s), int(s) + 20, confidence=round(float(rng.random()), 3))
            for s in rng.integers(0, 5000, size=25)
        ]
        curves = det_curve(sys, refs, {"v0": meta()})
        for c in curves.values():
            rfas = [p[0] for p in c.points]
            pms = [p[1] for p in c.points]
            assert rfas == sorted(rfas)
            assert pms == sorted(pms, reverse=True)

    def test_zero_duration_rejected(self):
        with pytest.raises(InvalidInputError):
            total_corpus_minutes({})


class TestPMissAtRfa:
    def test_perfect(self):
        assert p_miss_at_rfa(DetCurve("Riding", ((0.0, 0.0),)), 0.15) == 0.0

    def test_no_detections(self):
        assert p_miss_at_rfa(DetCurve("Riding", ((0.0, 1.0),)), 0.15) == 1.0

    def test_linear_interpolation(self):
        c = DetCurve("Riding", ((0.1, 0.5), (0.2, 0.3)))
        assert p_miss_at_rfa(c, 0.15) == pytest.approx(0.4)

    def test_curve_entirely_above_target(self):
        c = DetCurve("Riding", ((0.5, 0.2),))
        assert p_miss_at_rfa(c, 0.15) == 1.0

    def test_target_beyond_curve(self):
        c = DetCurve("Riding", ((0.05, 0.6), (0.1, 0.4)))
        assert p_miss_at_rfa(c, 0.5) == 0.4


class TestMeanPMiss:
    def test_all_zero(self):
        assert mean_p_miss({"Riding": 0.0, "Pull": 0.0}) == 0.0

    def test_singleton(self):
        assert mean_p_miss({"Riding": 0.37}) == 0.37

    def test_arithmetic_mean(self):
        assert mean_p_miss({"Riding": 0.2, "Pull": 0.4}) == pytest.approx(0.3)

    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            mean_p_miss({})


def reference_det_curve(system, references, metas, policy):
    """The DET sweep as one full alignment per distinct confidence."""
    minutes = total_corpus_minutes(metas)
    curves = {}
    for cls in sorted({r.activity for r in references}):
        refs_c = [r for r in references if r.activity == cls]
        sys_c = sorted((s for s in system if s.activity == cls),
                       key=lambda s: (-s.confidence, s.video_id, s.extent.start))
        points = []
        for theta in sorted({s.confidence for s in sys_c}, reverse=True):
            res = align_instances([s for s in sys_c if s.confidence >= theta], refs_c, policy)
            points.append((len(res.false_alarms) / minutes, len(res.misses) / len(refs_c)))
        points = sorted(points) or [(0.0, 1.0)]
        cleaned = []
        for rfa, p in points:
            if cleaned and cleaned[-1][0] == rfa:
                cleaned[-1] = (rfa, min(cleaned[-1][1], p))
            else:
                cleaned.append((rfa, p))
        running, mono = 1.0, []
        for rfa, p in cleaned:
            running = min(running, p)
            mono.append((rfa, running))
        curves[cls] = DetCurve(cls, tuple(mono))
    return curves


class TestDetCurveEqualsPerThresholdAlignment:
    # the sweep's curve equals that of the optimal (Hungarian) alignment
    @pytest.mark.parametrize("seed", [pytest.param(31, id="optimal")])
    def test_random_multi_video_buckets(self, seed):
        rng = np.random.default_rng(seed)
        metas = {v: meta(v, frame_count=900) for v in ("va", "vb", "vc")}

        def draw(confidences):
            # on a coarse grid, tIoU ties are common
            step = int(rng.choice([1, 5]))
            s = step * int(rng.integers(0, 60 // step))
            return instance(s, s + step * int(rng.integers(1, 30 // step)),
                            activity=str(rng.choice(["Riding", "Pull"])), video_id=str(rng.choice(list(metas))),
                            confidence=float(rng.choice(confidences)))

        for _ in range(300):
            policy = AlignmentPolicy(temporal_iou_min=float(rng.choice([0.1, 0.2, 0.5])))
            refs = [draw([1.0]) for _ in range(int(rng.integers(1, 9)))]
            # few distinct confidences, so that thresholds admit several instances at once
            system = [draw([0.2, 0.5, 0.5, 0.9, round(float(rng.random()), 2)])
                      for _ in range(int(rng.integers(0, 14)))]
            assert det_curve(system, refs, metas, policy) == reference_det_curve(system, refs, metas, policy)

    def test_augmenting_path_deeper_than_the_recursion_limit(self):
        # system k overlaps references k and k+1 and first takes k; the last
        # instance overlaps only reference 0, so the one maximum matching that
        # covers every reference shifts all m earlier matches by one
        m = 1100
        refs = [instance(10 * j, 10 * j + 10) for j in range(m + 1)]
        system = [instance(10 * k + 5, 10 * k + 15, confidence=1.0 - k / (2 * m)) for k in range(m)]
        system.append(instance(0, 5, confidence=0.01))
        policy = AlignmentPolicy(temporal_iou_min=0.3)
        assert det_curve(system, refs, {"v0": meta()}, policy)["Riding"].points == ((0.0, 0.0),)
