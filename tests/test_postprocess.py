import dataclasses
import math

import numpy as np
import pytest
from conftest import box_rows, make_proposal, make_tubelet

from tubekit.errors import InvalidInputError
from tubekit.geometry import Interval, temporal_iou
from tubekit.linking import LinkedTubelets, track_link
from tubekit.kernels import paired_iou
from tubekit.postprocess import FusionConfig, SoftNmsConfig, fuse, proposals_to_instances, soft_nms
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


def nms(proposals, activity, config=SoftNmsConfig()):
    """`soft_nms` over the bucket of the proposals' `activity` scores: the
    kept (proposal, final score) pairs."""
    return soft_nms([(p, p.scores[activity]) for p in proposals], config)


class TestSoftNms:
    def test_single_proposal_unchanged(self):
        p = scored(Interval(0, 10), 0.7, 0)
        out = nms([p], "Riding")
        assert len(out) == 1
        assert out[0][1] == 0.7

    def test_gaussian_closed_form(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(0, 10), 0.8, 1)
        out = nms([a, b], "Riding", SoftNmsConfig(method="gaussian", sigma=0.5))
        by_id = {p.proposal_id: s for p, s in out}
        assert by_id[0] == 0.9
        assert by_id[1] == pytest.approx(0.8 * math.exp(-2.0), abs=1e-12)

    def test_zero_overlap_no_decay(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(10, 20), 0.8, 1, boxes=box_rows((0, 0, 10, 10), 10))
        out = nms([a, b], "Riding")
        assert {s for _, s in out} == {0.9, 0.8}

    def test_linear_decay(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(0, 10), 0.8, 1)
        out = nms([a, b], "Riding", SoftNmsConfig(method="linear", linear_threshold=0.3))
        # tiou 1.0 decays the second score to 0.8 * (1 - 1.0) = 0, below the threshold
        assert [p.proposal_id for p, _ in out] == [0]

    def test_linear_below_threshold_untouched(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(8, 20), 0.8, 1, boxes=box_rows((0, 0, 10, 10), 12))
        # tiou = 2/20 = 0.1 <= 0.3 threshold
        out = nms([a, b], "Riding", SoftNmsConfig(method="linear", linear_threshold=0.3))
        assert {s for _, s in out} == {0.9, 0.8}

    def test_sigma_to_zero_is_hard_nms(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(2, 12), 0.8, 1, boxes=box_rows((0, 0, 10, 10), 10))
        out = nms([a, b], "Riding", SoftNmsConfig(sigma=1e-12))
        assert [p.proposal_id for p, _ in out] == [0]

    def test_never_increases_scores_and_sorted(self):
        props = [scored(Interval(2 * i, 2 * i + 10), 0.5 + 0.04 * i, i) for i in range(8)]
        out = nms(props, "Riding")
        originals = {p.proposal_id: p.scores["Riding"] for p in props}
        final = [s for _, s in out]
        assert final == sorted(final, reverse=True)
        for p, s in out:
            assert s <= originals[p.proposal_id] + 1e-15

    def test_distinct_objects_not_suppressed(self):
        # same time span, disjoint boxes, different tubelets: no decay
        a = scored(Interval(0, 10), 0.9, 0, tubelet_id=0)
        b = scored(Interval(0, 10), 0.8, 1, tubelet_id=1,
                   boxes=box_rows((500, 500, 510, 510), 10))
        out = nms([a, b], "Riding")
        assert {s for _, s in out} == {0.9, 0.8}


def corpus_proposals(seed):
    """Proposals of a corpus with dropout and false positives, with seeded
    random scores for two activities."""
    corpus = generate(SceneConfig(seed=seed, video_count=2, frames_per_video=150, objects_per_video=(2, 3),
                                  dropout_rate=0.2, box_jitter_px=2.0, false_positive_rate=0.5))
    rng = np.random.default_rng(seed)
    props = []
    for video_id, meta in sorted(corpus.metas.items()):
        tubes = track_link(corpus.detections[video_id])
        for t in filter_static(LinkedTubelets([tubes]))[0]:
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
                    out = nms(bucket, activity, cfg)
                    after = [s for _, s in out]
                    assert after == sorted(after, reverse=True)
                    assert all(s <= before[p.proposal_id] for p, s in out)
                    assert len({p.proposal_id for p, _ in out}) == len(out)

    def test_single_proposal_unchanged(self):
        threshold = SoftNmsConfig().score_threshold
        for p in corpus_proposals(5):
            out = nms([p], "Riding")
            if p.scores["Riding"] < threshold:
                assert out == []
                continue
            ((kept, s),) = out
            assert kept.proposal_id == p.proposal_id and kept.tubelet is p.tubelet
            assert s == p.scores["Riding"]


def vehicle_and_person():
    """One vehicle and one person proposal at the same time, boxes apart."""
    v = [scored(Interval(0, 10), 0.9, 0, activity="Closing", object_class="car")]
    p = [scored(Interval(0, 10), 0.8, 1, tubelet_id=1, activity="Riding",
                boxes=box_rows((300, 300, 310, 310), 10))]
    return v, p


def facts(instances):
    return [(i.video_id, i.activity, i.extent, i.confidence) for i in instances]


# fuse's nms and fusion sections at their defaults
DEFAULTS = (SoftNmsConfig(), FusionConfig())


class TestFuse:
    def test_disjoint_singletons(self):
        fused = fuse(*vehicle_and_person(), *DEFAULTS)
        assert len(fused) == 2

    def test_one_empty(self):
        p = [scored(Interval(0, 10), 0.8, 0, activity="Riding")]
        fused = fuse([], p, *DEFAULTS)
        assert len(fused) == 1
        assert fused[0].confidence == 0.8

    def test_weights_scale_before_nms(self):
        fused = fuse(*vehicle_and_person(), SoftNmsConfig(), FusionConfig(person_weight=0.5))
        by_activity = {i.activity: i.confidence for i in fused}
        assert by_activity["Closing"] == pytest.approx(0.9)
        assert by_activity["Riding"] == pytest.approx(0.4)

    def test_overlapping_activity_sets_rejected(self):
        a = [scored(Interval(0, 10), 0.9, 0, activity="Riding")]
        b = [scored(Interval(0, 10), 0.8, 1, activity="Riding")]
        with pytest.raises(InvalidInputError):
            fuse(a, b, *DEFAULTS)

    def test_commutative_up_to_order(self):
        # fuse is not commutative in its sources: each may score only its own
        # group's activities, so swapped sources raise instead of weighting a
        # group by the other group's weight
        v, p = vehicle_and_person()
        with pytest.raises(InvalidInputError, match="vehicle_related output scores activity class 'Riding'"):
            fuse(p, v, SoftNmsConfig(), FusionConfig(vehicle_weight=0.5))
        with pytest.raises(InvalidInputError, match="person_related output scores activity class 'Closing'"):
            fuse([], v, *DEFAULTS)

    def test_unscored_proposal_rejected(self):
        # refine's output given to fuse: an unscored proposal names its input
        v, _ = vehicle_and_person()
        unscored = [make_proposal(Interval(0, 10), proposal_id=3)]
        with pytest.raises(InvalidInputError, match="person_related input holds unscored proposal 3"):
            fuse(v, unscored, *DEFAULTS)

    def test_dropped_entry_never_becomes_an_instance(self):
        # linear decay takes the second score to 0, under the threshold: only
        # the kept entry becomes an instance
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(0, 10), 0.8, 1)
        funnel = {}
        out = fuse([], [a, b], SoftNmsConfig(method="linear"), FusionConfig(), funnel)
        assert funnel == {"nms_in": 2}
        assert facts(out) == [("v0", "Riding", Interval(0, 10), 0.9)]

    def test_every_entry_soft_nms_keeps_is_an_instance(self):
        # 0.04 is under the default threshold, 0.06 over it, and no window
        # overlaps another: nothing decays
        props = [scored(Interval(20 * i, 20 * i + 10), s, i) for i, s in enumerate((0.04, 0.06, 0.9))]
        for cfg in (SoftNmsConfig(), SoftNmsConfig(score_threshold=0.5), SoftNmsConfig(score_threshold=1.0)):
            kept = nms(props, "Riding", cfg)
            assert facts(fuse([], props, cfg, FusionConfig())) == [("v0", "Riding", p.window, s) for p, s in kept]
        assert [s for _, s in nms(props, "Riding")] == [0.9, 0.06]


def triples(*proposals):
    """The (proposal, activity, score) triple of each activity score."""
    return [(p, act, s) for p in proposals for act, s in p.scores.items() if act != NON_ACTION]


class TestProposalsToInstances:
    def test_keeps_all_scored_classes(self):
        p = scored(Interval(0, 10), 0.9, 0)
        out = proposals_to_instances(triples(p))
        assert len(out) == 1  # one activity class carries a score
        assert out[0].activity == "Riding"
        assert out[0].confidence == 0.9

    def test_mixed_scores(self):
        a = scored(Interval(0, 10), 0.9, 0)
        b = scored(Interval(20, 30), 0.01, 1, boxes=box_rows((0, 0, 10, 10), 10))
        out = proposals_to_instances(triples(a, b))
        assert [(i.extent, i.confidence) for i in out] == [(Interval(0, 10), 0.9), (Interval(20, 30), 0.01)]

    def test_output_ordering_deterministic(self):
        props = [
            scored(Interval(0, 10), 0.5, 0, video_id="vb"),
            scored(Interval(0, 10), 0.5, 1, video_id="va"),
            scored(Interval(0, 10), 0.9, 2, video_id="vc"),
        ]
        out = proposals_to_instances(triples(*props))
        assert [i.video_id for i in out] == ["vc", "va", "vb"]

    def test_ties_in_proposal_id_order(self):
        # equal confidence, video, start and activity: the lower proposal id
        # comes first, whatever the input order
        props = [scored(Interval(0, end), 0.5, pid) for end, pid in ((10, 3), (11, 1), (12, 2))]
        for kept in (triples(*props), triples(*props[::-1])):
            assert [i.extent.end for i in proposals_to_instances(kept)] == [11, 12, 10]

    def test_instance_carries_window_and_boxes(self):
        boxes = np.array([[f, 0, f + 10, 10] for f in range(5, 15)], dtype=np.float64)
        p = scored(Interval(5, 15), 0.7, 0, boxes=boxes)
        (inst,) = proposals_to_instances(triples(p))
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
        # the same tubelet id, or some common frame where the boxes overlap
        start, end = max(a.window.start, b.window.start), min(a.window.end, b.window.end)
        rows_a, rows_b = (p.boxes[start - p.window.start:end - p.window.start] for p in (a, b))
        return a.tubelet_id == b.tubelet_id or (start < end and bool((paired_iou(rows_a, rows_b) > 0.0).any()))

    remaining = [[p, float(p.scores[activity])] for p in proposals]
    remaining = [it for it in remaining if it[1] >= config.score_threshold]
    result = []
    while remaining:
        remaining.sort(key=lambda it: (-it[1], it[0].video_id, it[0].window.start, it[0].proposal_id))
        top = remaining.pop(0)
        result.append(top)
        survivors = []
        for it in remaining:
            if is_neighbor(top[0], it[0]):
                it[1] *= decay(temporal_iou(top[0].window, it[0].window))
            if it[1] >= config.score_threshold:
                survivors.append(it)
        remaining = survivors
    return [(p.proposal_id, s) for p, s in result]


CONFIGS = (
    SoftNmsConfig(),
    SoftNmsConfig(sigma=0.1),
    SoftNmsConfig(method="linear"),
    SoftNmsConfig(method="linear", linear_threshold=0.0, score_threshold=0.2),
    SoftNmsConfig(score_threshold=0.001),
)


def random_bucket(rng):
    """Proposals over 1-4 tubelets whose boxes drift across each other, so
    that some common frames overlap and others do not. Windows often touch,
    scores often tie or sit under the threshold, and two distinct tubelets may
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
            proposals.append(Proposal(0, tubelet, Interval(int(lo), int(hi)), {"Riding": score}))
    for pid, i in enumerate(rng.permutation(len(proposals))):
        proposals[int(i)].proposal_id = pid
    return proposals


class TestSoftNmsEqualsPairwiseLoop:
    def test_random_buckets(self):
        rng = np.random.default_rng(2024)
        for _ in range(300):
            bucket = random_bucket(rng)
            for cfg in CONFIGS:
                out = nms(bucket, "Riding", cfg)
                assert [(p.proposal_id, s) for p, s in out] == reference_soft_nms(bucket, "Riding", cfg)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_corpus_buckets(self, seed):
        props = corpus_proposals(seed)
        for cfg in CONFIGS:
            for video_id in sorted({p.video_id for p in props}):
                bucket = [p for p in props if p.video_id == video_id]
                for activity in ("Riding", "Pull"):
                    out = nms(bucket, activity, cfg)
                    assert [(p.proposal_id, s) for p, s in out] == reference_soft_nms(bucket, activity, cfg)

    def test_tiny_overlap_whose_mean_rounds_to_zero(self):
        # frame 0 overlaps by one subnormal IoU; its mean over the two frames
        # of window [0, 2) rounds to 0, yet that one frame makes the windows
        # neighbours: the rule is "some common frame has IoU > 0", not
        # "mean IoU > 0"
        a = make_tubelet(box_rows((0.0, 0.0, 1.0, 1.0), 2), tubelet_id=0)
        b_rows = np.array([[-1.0, -1.0, 3e-162, 3e-162], [5.0, 5.0, 6.0, 6.0]])
        b = make_tubelet(b_rows, tubelet_id=1)
        props = [
            Proposal(0, a, Interval(0, 2), {"Riding": 0.9}),
            Proposal(1, b, Interval(0, 2), {"Riding": 0.8}),
        ]
        assert 0.0 < paired_iou(a.boxes[:1], b.boxes[:1])[0] < 2.0 ** -1000
        assert tubelet_spatial_iou(*props) == 0.0
        for cfg in CONFIGS:
            out = nms(props, "Riding", cfg)
            assert [(p.proposal_id, s) for p, s in out] == reference_soft_nms(props, "Riding", cfg)
        # tIoU 1: the gaussian decays the second score by exp(-1 / sigma)
        assert [(p.proposal_id, s) for p, s in nms(props, "Riding")] == [(0, 0.9), (1, 0.8 * math.exp(-2.0))]


class TestOneCut:
    def test_a_higher_threshold_keeps_the_kept_entries_at_or_above_it(self):
        # selection runs in non-increasing score order and an entry decays
        # only the entries selected after it, so an entry kept below t2
        # changes nothing kept at or above t2
        rng = np.random.default_rng(2026)
        cuts = (0.0005, 0.001, 0.05, 0.3, 0.5, 0.9, 1.0)
        for _ in range(300):
            bucket = random_bucket(rng)
            t1, t2 = sorted(float(rng.choice([*cuts, rng.uniform(0.0005, 1.0)])) for _ in range(2))
            for cfg in CONFIGS:
                low = nms(bucket, "Riding", dataclasses.replace(cfg, score_threshold=t1))
                high = nms(bucket, "Riding", dataclasses.replace(cfg, score_threshold=t2))
                assert [(p.proposal_id, s) for p, s in high] == [(p.proposal_id, s) for p, s in low if s >= t2]
