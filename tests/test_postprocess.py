import math

import numpy as np
import pytest
from conftest import box_rows, make_proposal, make_tubelet

from tubekit.errors import InvalidInputError
from tubekit.geometry import Interval, temporal_iou
from tubekit.linking import track_link
from tubekit.postprocess import SoftNmsConfig, fuse, proposals_to_instances, soft_nms
from tubekit.proposals import NON_ACTION, tubelet_spatial_iou
from tubekit.refinement import Proposal, filter_static, make_proposals
from tubekit.synthgen import SceneConfig, generate


def scored(window, s, pid, tubelet_id=0, activity="Riding", video_id="v0", object_class="person",
           boxes=None):
    return make_proposal(
        window,
        boxes=boxes,
        proposal_id=pid,
        tubelet_id=tubelet_id,
        video_id=video_id,
        object_class=object_class,
        scores={activity: s, NON_ACTION: 1.0 - s},
    )


class TestSoftNms:
    def test_single_proposal_unchanged(self):
        p = scored(Interval(0, 10), 0.7, 0)
        out = soft_nms([p], "Riding")
        assert len(out) == 1
        assert out[0].scores["Riding"] == 0.7

    def test_gaussian_closed_form(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(0, 10), 0.8, 1)
        out = soft_nms([a, b], "Riding", SoftNmsConfig(method="gaussian", sigma=0.5))
        by_id = {p.proposal_id: p.scores["Riding"] for p in out}
        assert by_id[0] == 0.9
        assert by_id[1] == pytest.approx(0.8 * math.exp(-2.0), abs=1e-12)

    def test_zero_overlap_no_decay(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(10, 20), 0.8, 1, boxes=box_rows((0, 0, 10, 10), 10))
        out = soft_nms([a, b], "Riding")
        assert {p.scores["Riding"] for p in out} == {0.9, 0.8}

    def test_linear_decay(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(0, 10), 0.8, 1)
        out = soft_nms([a, b], "Riding", SoftNmsConfig(method="linear", linear_threshold=0.3))
        # tiou 1.0 decays the second score to 0.8 * (1 - 1.0) = 0, below the floor
        assert [p.proposal_id for p in out] == [0]

    def test_linear_below_threshold_untouched(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(8, 20), 0.8, 1, boxes=box_rows((0, 0, 10, 10), 12))
        # tiou = 2/20 = 0.1 <= 0.3 threshold
        out = soft_nms([a, b], "Riding", SoftNmsConfig(method="linear", linear_threshold=0.3))
        assert {p.scores["Riding"] for p in out} == {0.9, 0.8}

    def test_sigma_to_zero_is_hard_nms(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(2, 12), 0.8, 1, boxes=box_rows((0, 0, 10, 10), 10))
        out = soft_nms([a, b], "Riding", SoftNmsConfig(sigma=1e-12))
        assert [p.proposal_id for p in out] == [0]

    def test_never_increases_scores_and_sorted(self):
        props = [scored(Interval(2 * i, 2 * i + 10), 0.5 + 0.04 * i, i) for i in range(8)]
        out = soft_nms(props, "Riding")
        originals = {p.proposal_id: p.scores["Riding"] for p in props}
        final = [p.scores["Riding"] for p in out]
        assert final == sorted(final, reverse=True)
        for p in out:
            assert p.scores["Riding"] <= originals[p.proposal_id] + 1e-15

    def test_distinct_objects_not_suppressed(self):
        # same time span, disjoint boxes, different tubelets: no decay
        a = scored(Interval(0, 10), 0.9, 0, tubelet_id=0)
        b = scored(Interval(0, 10), 0.8, 1, tubelet_id=1,
                   boxes=box_rows((500, 500, 510, 510), 10))
        out = soft_nms([a, b], "Riding")
        assert {p.scores["Riding"] for p in out} == {0.9, 0.8}

    def test_missing_score_rejected(self):
        p = make_proposal(Interval(0, 10), scores={NON_ACTION: 1.0})
        with pytest.raises(InvalidInputError):
            soft_nms([p], "Riding")


def corpus_proposals(seed):
    """Proposals of a corpus with dropout and false positives, with seeded
    random scores for two activities."""
    corpus = generate(SceneConfig(seed=seed, video_count=2, frames_per_video=150, objects_per_video=(2, 3),
                                  dropout_rate=0.2, box_jitter_px=2.0, false_positive_rate=0.5))
    rng = np.random.default_rng(seed)
    props = []
    for video_id, meta in sorted(corpus.metas.items()):
        tubes, _ = track_link(corpus.detections[video_id])
        for t in filter_static(tubes)[0]:
            for p in make_proposals(t, meta.width, meta.height, id_start=len(props)):
                p.scores = {"Riding": float(rng.uniform(0.0, 1.0)), "Pull": float(rng.uniform(0.0, 1.0))}
                props.append(p)
    return props


class TestSoftNmsOnCorpus:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_never_raises_a_score(self, seed):
        props = corpus_proposals(seed)
        assert len({p.tubelet_id for p in props}) > 2
        for cfg in (SoftNmsConfig(), SoftNmsConfig(method="linear")):
            for activity in ("Riding", "Pull"):
                for video_id in {p.video_id for p in props}:
                    bucket = [p for p in props if p.video_id == video_id]
                    before = {p.proposal_id: p.scores[activity] for p in bucket}
                    out = soft_nms(bucket, activity, cfg)
                    after = [p.scores[activity] for p in out]
                    assert after == sorted(after, reverse=True)
                    assert all(p.scores[activity] <= before[p.proposal_id] for p in out)
                    assert len({p.proposal_id for p in out}) == len(out)

    def test_single_proposal_unchanged(self):
        floor = SoftNmsConfig().score_floor
        for p in corpus_proposals(5):
            out = soft_nms([p], "Riding")
            if p.scores["Riding"] < floor:
                assert out == []
                continue
            (kept,) = out
            assert kept.proposal_id == p.proposal_id and kept.tubelet is p.tubelet
            assert kept.scores == p.scores


class TestFuse:
    def test_disjoint_singletons(self):
        v = [scored(Interval(0, 10), 0.9, 0, activity="Closing", object_class="car")]
        p = [scored(Interval(0, 10), 0.8, 1, tubelet_id=1, activity="Riding",
                    boxes=box_rows((300, 300, 310, 310), 10))]
        fused = fuse(v, p)
        assert len(fused) == 2

    def test_one_empty(self):
        p = [scored(Interval(0, 10), 0.8, 0, activity="Riding")]
        fused = fuse([], p)
        assert len(fused) == 1
        assert fused[0].scores["Riding"] == 0.8

    def test_weights_scale_before_nms(self):
        v = [scored(Interval(0, 10), 0.9, 0, activity="Closing", object_class="car")]
        p = [scored(Interval(0, 10), 0.8, 1, tubelet_id=1, activity="Riding",
                    boxes=box_rows((300, 300, 310, 310), 10))]
        fused = fuse(v, p, weights=(1.0, 0.5))
        by_id = {f.proposal_id: f for f in fused}
        assert by_id[0].scores["Closing"] == pytest.approx(0.9)
        assert by_id[1].scores["Riding"] == pytest.approx(0.4)

    def test_overlapping_activity_sets_rejected(self):
        a = [scored(Interval(0, 10), 0.9, 0, activity="Riding")]
        b = [scored(Interval(0, 10), 0.8, 1, activity="Riding")]
        with pytest.raises(InvalidInputError):
            fuse(a, b)

    def test_commutative_up_to_order(self):
        v = [scored(Interval(0, 10), 0.9, 0, activity="Closing", object_class="car")]
        p = [scored(Interval(0, 10), 0.8, 1, tubelet_id=1, activity="Riding",
                    boxes=box_rows((300, 300, 310, 310), 10))]
        ab = {(f.proposal_id, tuple(sorted(f.scores.items()))) for f in fuse(v, p)}
        # swapping requires swapping weights too, which default equal
        ba = {(f.proposal_id, tuple(sorted(f.scores.items()))) for f in fuse(p, v)}
        assert ab == ba


class TestProposalsToInstances:
    def test_threshold_zero_keeps_all_scored_classes(self):
        p = scored(Interval(0, 10), 0.9, 0)
        out = proposals_to_instances([p], 0.0)
        assert len(out) == 1  # one activity class carries a score
        assert out[0].activity == "Riding"
        assert out[0].confidence == 0.9

    def test_threshold_one_filters_everything(self):
        p = scored(Interval(0, 10), 0.9, 0)
        assert proposals_to_instances([p], 1.0) == []

    def test_mixed_scores(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(20, 30), 0.4, 1, boxes=box_rows((0, 0, 10, 10), 10))
        out = proposals_to_instances([a, b], 0.5)
        assert len(out) == 1
        assert out[0].extent == Interval(0, 10)

    def test_output_ordering_deterministic(self):
        props = [
            scored(Interval(0, 10), 0.5, 0, video_id="vb"),
            scored(Interval(0, 10), 0.5, 1, video_id="va"),
            scored(Interval(0, 10), 0.9, 2, video_id="vc"),
        ]
        out = proposals_to_instances(props, 0.1)
        assert [i.video_id for i in out] == ["vc", "va", "vb"]

    def test_instance_carries_window_and_boxes(self):
        boxes = np.array([[f, 0, f + 10, 10] for f in range(5, 15)], dtype=np.float64)
        p = scored(Interval(5, 15), 0.7, 0, boxes=boxes)
        (inst,) = proposals_to_instances([p], 0.1)
        assert inst.extent == Interval(5, 15)
        assert np.array_equal(inst.boxes, boxes)
        assert np.shares_memory(inst.boxes, p.tubelet.boxes)


# ---------------------------------------------------------------------------
# the array program against the per-pair loop it replaced


def reference_soft_nms(proposals, activity, config):
    """Soft-NMS as one loop over pairs: re-sort, take the top, test each other
    proposal for neighbourhood with `tubelet_spatial_iou` and decay it."""

    def decay(tiou):
        if config.method == "gaussian":
            return math.exp(-(tiou * tiou) / config.sigma)
        return 1.0 - tiou if tiou > config.linear_threshold else 1.0

    def is_neighbor(a, b):
        return a.tubelet_id == b.tubelet_id or tubelet_spatial_iou(a, b) > 0.0

    remaining = [[p, float(p.scores[activity])] for p in proposals]
    remaining = [it for it in remaining if it[1] >= config.score_floor]
    result = []
    while remaining:
        remaining.sort(key=lambda it: (-it[1], it[0].video_id, it[0].window.start, it[0].proposal_id))
        top = remaining.pop(0)
        result.append(top)
        survivors = []
        for it in remaining:
            if is_neighbor(top[0], it[0]):
                it[1] *= decay(temporal_iou(top[0].window, it[0].window))
            if it[1] >= config.score_floor:
                survivors.append(it)
        remaining = survivors
    return [(p.proposal_id, s) for p, s in result]


CONFIGS = (
    SoftNmsConfig(),
    SoftNmsConfig(sigma=0.1),
    SoftNmsConfig(method="linear"),
    SoftNmsConfig(method="linear", linear_threshold=0.0, score_floor=0.2),
)


def random_bucket(rng):
    """Proposals over 1-4 tubelets whose boxes drift across each other, so
    that some common frames overlap and others do not. Windows often touch,
    scores often tie or sit under the floor, and two distinct tubelets may
    carry the same id."""
    proposals = []
    for k in range(int(rng.integers(1, 5))):
        start = int(rng.integers(0, 30))
        length = int(rng.integers(1, 30))
        x = rng.choice([0.0, 15.0, 200.0]) + rng.choice([-1.5, 0.0, 1.5]) * np.arange(length)
        boxes = np.stack([x, np.zeros(length), x + 10.0, np.full(length, 10.0)], axis=1)
        tubelet = make_tubelet(boxes, start, tubelet_id=int(rng.integers(0, 3)))
        cuts = np.sort(rng.choice(np.arange(start, start + length + 1), size=min(length + 1, 4), replace=False))
        spans = list(zip(cuts[:-1], cuts[1:])) + [(start, start + length)]
        for lo, hi in spans:
            score = float(rng.choice([0.0005, 0.3, 0.5, 0.9, rng.uniform(0.0, 1.0)]))
            proposals.append(Proposal(0, tubelet, Interval(int(lo), int(hi)), 8, {"Riding": score}))
    for pid, i in enumerate(rng.permutation(len(proposals))):
        proposals[int(i)].proposal_id = pid
    return proposals


class TestSoftNmsEqualsPairwiseLoop:
    def test_random_buckets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            bucket = random_bucket(rng)
            for cfg in CONFIGS:
                out = soft_nms(bucket, "Riding", cfg)
                assert [(p.proposal_id, p.scores["Riding"]) for p in out] == \
                    reference_soft_nms(bucket, "Riding", cfg)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_corpus_buckets(self, seed):
        props = corpus_proposals(seed)
        for cfg in CONFIGS:
            for video_id in sorted({p.video_id for p in props}):
                bucket = [p for p in props if p.video_id == video_id]
                for activity in ("Riding", "Pull"):
                    out = soft_nms(bucket, activity, cfg)
                    assert [(p.proposal_id, p.scores[activity]) for p in out] == \
                        reference_soft_nms(bucket, activity, cfg)

    def test_tiny_overlap_whose_mean_rounds_to_zero(self):
        # frame 0 overlaps by one subnormal IoU; its mean over the two frames
        # of window [0, 2) rounds to 0, so those windows are not neighbours,
        # while window [0, 1) alone overlaps
        a = make_tubelet(box_rows((0.0, 0.0, 1.0, 1.0), 2), tubelet_id=0)
        b_rows = np.array([[-1.0, -1.0, 3e-162, 3e-162], [5.0, 5.0, 6.0, 6.0]])
        b = make_tubelet(b_rows, tubelet_id=1)
        props = [
            Proposal(0, a, Interval(0, 2), 8, {"Riding": 0.9}),
            Proposal(1, b, Interval(0, 2), 8, {"Riding": 0.8}),
            Proposal(2, b, Interval(0, 1), 8, {"Riding": 0.7}),
        ]
        assert tubelet_spatial_iou(props[0], props[1]) == 0.0
        assert tubelet_spatial_iou(props[0], props[2]) > 0.0
        for cfg in CONFIGS:
            out = soft_nms(props, "Riding", cfg)
            assert [(p.proposal_id, p.scores["Riding"]) for p in out] == reference_soft_nms(props, "Riding", cfg)
