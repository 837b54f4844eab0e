import dataclasses
import math
import tracemalloc
from dataclasses import dataclass
from typing import Optional

import numpy as np
import pytest
from conftest import box_rows, make_proposal, make_tubelet
from hypothesis import given, settings
from hypothesis import strategies as st

from tubekit.data_model import FRAME_LIMIT, ActivityInstance, instance_order
from tubekit.errors import InvalidInputError
from tubekit.geometry import Interval, temporal_iou
from tubekit.linking import LinkedTubelets, Track, track_link
from tubekit.kernels import paired_iou
from tubekit.postprocess import FusionConfig, SoftNmsConfig, fuse, proposals_to_instances, soft_nms
from tubekit.proposals import (
    NON_ACTION,
    PERSON_ACTIVITIES,
    PERSON_GROUP,
    SCORE_CLASSES,
    VEHICLE_ACTIVITIES,
    VEHICLE_GROUP,
    tubelet_spatial_iou,
)
from tubekit.refinement import TubeletProposals, filter_static, make_proposals, score_matrix
from tubekit.synthgen import SceneConfig, generate


def scored(window, s, pid, tubelet_id=0, activity="Riding", video_id="v0", object_class="person",
           boxes=None):
    """A line of one proposal that scores `activity` s and non-action 1 - s."""
    return make_proposal(
        window,
        boxes=boxes,
        proposal_id=pid,
        tubelet_id=tubelet_id,
        video_id=video_id,
        object_class=object_class,
        scores={activity: s, NON_ACTION: 1.0 - s},
    )


def scores_by_id(lines, activity):
    """{proposal id: `activity` score} of every proposal of the lines that
    scores it."""
    j = SCORE_CLASSES.index(activity)
    return {p.id: float(line.scores[k, j]) for line in lines for k, p in enumerate(line)
            if not math.isnan(line.scores[k, j])}


def nms(lines, activity, config=SoftNmsConfig()):
    """`soft_nms` over the bucket of the lines' `activity` scores: the kept
    (proposal `Track`, final score) pairs."""
    j = SCORE_CLASSES.index(activity)
    members = [(line, k) for line in lines for k in range(len(line)) if not math.isnan(line.scores[k, j])]
    kept, final = soft_nms(np.array([line.scores[k, j] for line, k in members]),
                           np.array([line.windows[k] for line, k in members], dtype=np.int64).reshape(-1, 2),
                           np.array([line.ids[k] for line, k in members], dtype=np.int64),
                           [line.track for line, _ in members], config)
    return [(members[i][0][members[i][1]], s) for i, s in zip(kept, final)]


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
        by_id = {p.id: s for p, s in out}
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
        assert [p.id for p, _ in out] == [0]

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
        assert [p.id for p, _ in out] == [0]

    def test_never_increases_scores_and_sorted(self):
        props = [scored(Interval(2 * i, 2 * i + 10), 0.5 + 0.04 * i, i) for i in range(8)]
        out = nms(props, "Riding")
        originals = scores_by_id(props, "Riding")
        final = [s for _, s in out]
        assert final == sorted(final, reverse=True)
        for p, s in out:
            assert s <= originals[p.id] + 1e-15

    def test_distinct_objects_not_suppressed(self):
        # same time span, disjoint boxes, different tubelets: no decay
        a = scored(Interval(0, 10), 0.9, 0, tubelet_id=0)
        b = scored(Interval(0, 10), 0.8, 1, tubelet_id=1,
                   boxes=box_rows((500, 500, 510, 510), 10))
        out = nms([a, b], "Riding")
        assert {s for _, s in out} == {0.9, 0.8}

    def test_a_neighbouring_bucket_holds_no_square_float_matrix(self):
        # 1,000 windows of one track all neighbour each other: the (n, n) bool
        # neighbour mask takes 1 MB, one (n, n) float64 matrix 8 MB
        rng = np.random.default_rng(31)
        track = make_tubelet(box_rows((0, 0, 10, 10), 2000))
        lengths = rng.integers(32, 257, size=1000)
        windows = np.stack([rng.integers(0, 2000 - lengths + 1), lengths], axis=1)
        scores = rng.uniform(0.0, 1.0, size=1000)
        tracemalloc.start()
        try:
            soft_nms(scores, windows, np.arange(1000), [track] * 1000)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000_000

    def test_cuts_the_whole_bucket_itself(self):
        # soft_nms is given every bucket entry and returns indices into them:
        # the entries under the threshold are its to drop
        a = scored(Interval(0, 10), 0.01, 0)
        b = scored(Interval(30, 40), 0.6, 1)
        scores, windows, ids = np.array([0.01, 0.6]), np.array([[0, 10], [30, 10]]), np.array([0, 1])
        assert soft_nms(scores, windows, ids, [a.track, b.track]) == ([1], [0.6])
        assert soft_nms(scores[:1], windows[:1], ids[:1], [a.track]) == ([], [])


def corpus_proposals(seed):
    """The lines of a corpus with dropout and false positives, with seeded
    random scores for two activities."""
    corpus = generate(SceneConfig(seed=seed, video_count=2, frames_per_video=150, objects_per_video=(2, 3),
                                  dropout_rate=0.2, box_jitter_px=2.0, false_positive_rate=0.5))
    rng = np.random.default_rng(seed)
    lines, count = [], 0
    for video_id, meta in sorted(corpus.metas.items()):
        tubes = track_link(corpus.detections[video_id])
        for t in filter_static(LinkedTubelets([tubes]))[0]:
            line = make_proposals(t, meta.width, meta.height, id_start=count)
            rows = [{"Riding": float(rng.uniform(0.0, 1.0)), "Pull": float(rng.uniform(0.0, 1.0))} for _ in line]
            lines.append(dataclasses.replace(line, scores=score_matrix(rows)))
            count += len(line)
    return lines


def single(line, k):
    """A line of proposal k of `line` alone."""
    return TubeletProposals(line.track, line.ids[k:k + 1], line.windows[k:k + 1], line.scores[k:k + 1])


class TestSoftNmsOnCorpus:
    @pytest.mark.parametrize("seed", [3, 4])
    def test_never_raises_a_score(self, seed):
        lines = corpus_proposals(seed)
        assert len({line.track.id for line in lines}) > 2
        for cfg in (SoftNmsConfig(), SoftNmsConfig(method="linear")):
            for activity in ("Riding", "Pull"):
                for video_id in {line.track.video_id for line in lines}:
                    bucket = [line for line in lines if line.track.video_id == video_id]
                    before = scores_by_id(bucket, activity)
                    out = nms(bucket, activity, cfg)
                    after = [s for _, s in out]
                    assert after == sorted(after, reverse=True)
                    assert all(s <= before[p.id] for p, s in out)
                    assert len({p.id for p, _ in out}) == len(out)

    def test_single_proposal_unchanged(self):
        threshold = SoftNmsConfig().score_threshold
        for line in corpus_proposals(5):
            for k, p in enumerate(line):
                out = nms([single(line, k)], "Riding")
                score = line.scores[k, SCORE_CLASSES.index("Riding")]
                if score < threshold:
                    assert out == []
                    continue
                ((kept, s),) = out
                assert (kept.id, kept.extent) == (p.id, p.extent)
                assert np.shares_memory(kept.boxes, line.track.boxes)
                assert s == score


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

    def test_out_of_group_error_names_the_first_class_by_name(self):
        # the columns are walked in sorted-name order, as a file's sorted
        # score keys were: "Closing" < "Opening" < "vehicle_u_turn"
        line = make_proposal(Interval(0, 10), scores={"vehicle_u_turn": 0.5, "Opening": 0.5, "Closing": 0.5})
        with pytest.raises(InvalidInputError, match="person_related output scores activity class 'Closing'"):
            fuse([], [line], *DEFAULTS)

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
            assert facts(fuse([], props, cfg, FusionConfig())) == [("v0", "Riding", p.extent, s) for p, s in kept]
        assert [s for _, s in nms(props, "Riding")] == [0.9, 0.06]


def triples(*lines):
    """The (proposal `Track`, activity, score) triple of each activity score
    of each proposal of the lines."""
    return [(p, act, float(s)) for line in lines for p, row in zip(line, line.scores)
            for act, s in zip(SCORE_CLASSES, row) if act != NON_ACTION and not math.isnan(s)]


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
        assert np.shares_memory(inst.boxes, p.track.boxes)


# ---------------------------------------------------------------------------
# the array program against the per-object code it replaced


@dataclass(eq=False)
class RefProposal:
    """A temporal window over a size-normalised tubelet, one object per
    proposal with a dict of scores: how the pipeline held proposals before
    it held lines."""

    proposal_id: int
    tubelet: Track  # size-normalised
    window: Interval
    scores: Optional[dict] = None  # activity class (or "non_action") -> score

    @property
    def video_id(self):
        return self.tubelet.video_id

    @property
    def tubelet_id(self):
        return self.tubelet.id

    @property
    def boxes(self):
        offset = self.tubelet.extent.start
        return self.tubelet.boxes[self.window.start - offset:self.window.end - offset]


def ref_proposals(lines):
    """One `RefProposal` per proposal of the lines, sharing its line's track,
    its scores a dict without the classes its row holds as NaN."""
    return [RefProposal(p.id, line.track, p.extent,
                        {c: float(s) for c, s in zip(SCORE_CLASSES, row) if not math.isnan(s)})
            for line in lines for p, row in zip(line, line.scores)]


def reference_soft_nms(entries, config):
    """Soft-NMS as one loop over pairs on (proposal, score) entries: re-sort,
    take the top, test each other proposal for neighbourhood with
    `paired_iou` and decay it. Returns the kept (proposal, final score)
    pairs."""

    def decay(tiou):
        if config.method == "gaussian":
            return math.exp(-(tiou * tiou) / config.sigma)
        return 1.0 - tiou if tiou > config.linear_threshold else 1.0

    def is_neighbor(a, b):
        # the same tubelet id, or some common frame where the boxes overlap
        start, end = max(a.window.start, b.window.start), min(a.window.end, b.window.end)
        rows_a, rows_b = (p.boxes[start - p.window.start:end - p.window.start] for p in (a, b))
        return a.tubelet_id == b.tubelet_id or (start < end and bool((paired_iou(rows_a, rows_b) > 0.0).any()))

    remaining = [[p, float(s)] for p, s in entries if s >= config.score_threshold]
    result = []
    while remaining:
        remaining.sort(key=lambda it: (-it[1], it[0].video_id, it[0].window.start, it[0].proposal_id))
        top = remaining.pop(0)
        result.append((top[0], top[1]))
        survivors = []
        for it in remaining:
            if is_neighbor(top[0], it[0]):
                it[1] *= decay(temporal_iou(top[0].window, it[0].window))
            if it[1] >= config.score_threshold:
                survivors.append(it)
        remaining = survivors
    return result


def reference_nms(lines, activity, config):
    """`reference_soft_nms` of the lines' `activity` scores: the kept
    (proposal id, final score) pairs."""
    bucket = [(p, p.scores[activity]) for p in ref_proposals(lines) if activity in p.scores]
    return [(p.proposal_id, s) for p, s in reference_soft_nms(bucket, config)]


def reference_fuse(vehicle_scored, person_scored, nms, fusion, funnel):
    """Late fusion on `RefProposal`s: a (proposal, weighted score) tuple per
    bucket entry, `reference_soft_nms` per bucket and an instance per kept
    entry, ordered as `proposals_to_instances` orders them."""
    buckets = {}
    sources = ((vehicle_scored, VEHICLE_GROUP, fusion.vehicle_weight),
               (person_scored, PERSON_GROUP, fusion.person_weight))
    for source, group, weight in sources:
        for p in source:
            for act, s in p.scores.items():
                if act != NON_ACTION:
                    assert act in group.activities
                    buckets.setdefault((p.video_id, act), []).append((p, s * weight))
    kept = []
    for (_, act), entries in sorted(buckets.items()):
        kept.extend((p, act, s) for p, s in reference_soft_nms(entries, nms))
    funnel["nms_in"] = sum(map(len, buckets.values()))
    kept.sort(key=lambda t: (t[0].video_id, t[0].proposal_id))
    instances = [ActivityInstance(p.video_id, act, p.window, p.boxes, s) for p, act, s in kept]
    instances.sort(key=instance_order)
    return instances


CONFIGS = (
    SoftNmsConfig(),
    SoftNmsConfig(sigma=0.1),
    SoftNmsConfig(method="linear"),
    SoftNmsConfig(method="linear", linear_threshold=0.0, score_threshold=0.2),
    SoftNmsConfig(score_threshold=0.001),
)


def drifting_tubelet(rng, video_id="v0", object_class="person", length=None):
    """A tubelet of `length` frames (1-29 if None), with an id in 0-2, whose
    boxes drift across those of the others, so that some common frames
    overlap and others do not."""
    start = int(rng.integers(0, 30))
    length = int(rng.integers(1, 30)) if length is None else length
    x = rng.choice([0.0, 15.0, 200.0]) + rng.choice([-1.5, 0.0, 1.5]) * np.arange(length)
    boxes = np.stack([x, np.zeros(length), x + 10.0, np.full(length, 10.0)], axis=1)
    return make_tubelet(boxes, start, int(rng.integers(0, 3)), video_id, object_class)


def random_windows(rng, tubelet):
    """Up to 3 touching windows that cut the tubelet, and the whole of it."""
    start, end = tubelet.extent.start, tubelet.extent.end
    cuts = np.sort(rng.choice(np.arange(start, end + 1), size=min(end - start + 1, 4), replace=False))
    return list(zip(cuts[:-1].tolist(), cuts[1:].tolist())) + [(start, end)]


def lines_of(parts):
    """A line per (tubelet, [(proposal id, (start, end), score row)]) part, its
    entries in id order."""
    lines = []
    for tubelet, entries in parts:
        entries = sorted(entries, key=lambda e: e[0])
        lines.append(TubeletProposals(tubelet, np.array([e[0] for e in entries], dtype=np.int64),
                                      np.array([(s, e - s) for _, (s, e), _ in entries], dtype=np.int64).reshape(-1, 2),
                                      score_matrix([e[2] for e in entries])))
    return lines


def random_bucket(rng):
    """Lines over 1-4 tubelets whose boxes drift across each other. Windows
    often touch, scores often tie or sit under the threshold, and two distinct
    tubelets may carry the same id."""
    parts = []
    for _ in range(int(rng.integers(1, 5))):
        tubelet = drifting_tubelet(rng)
        spans = random_windows(rng, tubelet)
        scores = [float(rng.choice([0.0005, 0.3, 0.5, 0.9, rng.uniform(0.0, 1.0)])) for _ in spans]
        parts.append((tubelet, [[None, span, {"Riding": s}] for span, s in zip(spans, scores)]))
    flat = [entry for _, entries in parts for entry in entries]
    for pid, i in enumerate(rng.permutation(len(flat))):
        flat[int(i)][0] = pid
    return lines_of(parts)


def crowded_bucket(rng):
    """Lines over 2-3 drifting tubelets of 400 frames with 100-120 windows of
    2-10 frames each, scored 0.2-1 with ties: few windows overlap in time, so
    soft-NMS keeps most of the 200 or more entries."""
    parts = []
    for _ in range(int(rng.integers(2, 4))):
        tubelet = drifting_tubelet(rng, length=400)
        starts = rng.integers(tubelet.extent.start, tubelet.extent.end, size=int(rng.integers(100, 121)))
        ends = np.minimum(starts + rng.integers(2, 11, size=len(starts)), tubelet.extent.end)
        parts.append((tubelet, [[None, (s, e), {"Riding": float(rng.choice([0.5, 0.9, rng.uniform(0.2, 1.0)]))}]
                                for s, e in zip(starts.tolist(), ends.tolist())]))
    flat = [entry for _, entries in parts for entry in entries]
    for pid, i in enumerate(rng.permutation(len(flat))):
        flat[int(i)][0] = pid
    return lines_of(parts)


class TestSoftNmsEqualsPairwiseLoop:
    def test_random_buckets(self):
        rng = np.random.default_rng(2024)
        for bucket in [random_bucket(rng) for _ in range(300)] + [crowded_bucket(rng)]:
            for cfg in CONFIGS:
                out = nms(bucket, "Riding", cfg)
                assert [(p.id, s) for p, s in out] == reference_nms(bucket, "Riding", cfg)

    @pytest.mark.parametrize("seed", [3, 4])
    def test_corpus_buckets(self, seed):
        lines = corpus_proposals(seed)
        for cfg in CONFIGS:
            for video_id in sorted({line.track.video_id for line in lines}):
                bucket = [line for line in lines if line.track.video_id == video_id]
                for activity in ("Riding", "Pull"):
                    out = nms(bucket, activity, cfg)
                    assert [(p.id, s) for p, s in out] == reference_nms(bucket, activity, cfg)

    def test_tiny_overlap_whose_mean_rounds_to_zero(self):
        # frame 0 overlaps by one subnormal IoU; its mean over the two frames
        # of window [0, 2) rounds to 0, yet that one frame makes the windows
        # neighbours: the rule is "some common frame has IoU > 0", not
        # "mean IoU > 0"
        a = make_tubelet(box_rows((0.0, 0.0, 1.0, 1.0), 2), tubelet_id=0)
        b_rows = np.array([[-1.0, -1.0, 3e-162, 3e-162], [5.0, 5.0, 6.0, 6.0]])
        b = make_tubelet(b_rows, tubelet_id=1)
        props = lines_of([(a, [(0, (0, 2), {"Riding": 0.9})]), (b, [(1, (0, 2), {"Riding": 0.8})])])
        assert 0.0 < paired_iou(a.boxes[:1], b.boxes[:1])[0] < 2.0 ** -1000
        assert tubelet_spatial_iou(props[0][0], props[1][0]) == 0.0
        for cfg in CONFIGS:
            out = nms(props, "Riding", cfg)
            assert [(p.id, s) for p, s in out] == reference_nms(props, "Riding", cfg)
        # tIoU 1: the gaussian decays the second score by exp(-1 / sigma)
        assert [(p.id, s) for p, s in nms(props, "Riding")] == [(0, 0.9), (1, 0.8 * math.exp(-2.0))]


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
                assert [(p.id, s) for p, s in high] == [(p.id, s) for p, s in low if s >= t2]


def shifted(lines, offset):
    """The lines with every tubelet and window `offset` frames later."""
    return [TubeletProposals(dataclasses.replace(line.track, extent=Interval(line.track.extent.start + offset,
                                                                            line.track.extent.end + offset)),
                             line.ids, line.windows + np.array([offset, 0]), line.scores) for line in lines]


class TestShiftInTime:
    # a random bucket's frames lie below 58
    @settings(max_examples=100, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1),
           offset=st.integers(0, FRAME_LIMIT - 58) | st.sampled_from([2**52 + 1, FRAME_LIMIT - 58]))
    def test_a_shift_within_the_frame_limit_changes_nothing(self, seed, offset):
        # soft-NMS's window spans are float64, exact for every frame within the limit
        bucket = random_bucket(np.random.default_rng(seed))
        moved = shifted(bucket, offset)
        for cfg in CONFIGS:
            want = [(p.id, s) for p, s in nms(bucket, "Riding", cfg)]
            assert [(p.id, s) for p, s in nms(moved, "Riding", cfg)] == want

    @pytest.mark.parametrize("start", [0, 2**52 + 1, FRAME_LIMIT - 48])
    def test_windows_16_frames_apart_decay_by_their_temporal_iou(self, start):
        # windows (start, 32) and (start + 16, 32) have temporal IoU 1/3 wherever they lie
        track = make_tubelet(box_rows((0, 0, 10, 10), 48), start)
        line = lines_of([(track, [(0, (start, start + 32), {"Riding": 0.9}), (1, (start + 16, start + 48),
                                                                              {"Riding": 0.8})])])
        tiou = 16 / 48
        assert [(p.id, s) for p, s in nms(line, "Riding")] == [(0, 0.9), (1, 0.8 * math.exp(-(tiou * tiou) / 0.5))]


def random_source(rng, activities, object_classes, next_id):
    """Lines over 0-4 drifting tubelets in two videos, their proposals
    numbered on from `next_id[video]`. Each proposal scores a random subset of
    `activities` (the others NaN, so some lines leave an activity out
    altogether) from values that often tie or sit under the threshold."""
    parts = []
    for _ in range(int(rng.integers(0, 5))):
        video_id = str(rng.choice(["v0", "v1"]))
        tubelet = drifting_tubelet(rng, video_id, str(rng.choice(object_classes)))
        line_activities = [a for a in activities if rng.uniform() < 0.6]
        entries = []
        for span in random_windows(rng, tubelet):
            row = {a: float(rng.choice([0.0005, 0.04, 0.3, 0.5, 0.9, rng.uniform(0.0, 1.0)]))
                   for a in line_activities if rng.uniform() < 0.8}
            row[NON_ACTION] = float(rng.uniform())
            entries.append((next_id[video_id], span, row))
            next_id[video_id] += 1
        parts.append((tubelet, entries))
    return lines_of(parts)


FUSE_CONFIGS = (
    (SoftNmsConfig(), FusionConfig()),
    (SoftNmsConfig(method="linear"), FusionConfig(vehicle_weight=0.5)),
    (SoftNmsConfig(sigma=1e-6), FusionConfig(person_weight=0.3)),
    (SoftNmsConfig(score_threshold=0.001), FusionConfig(vehicle_weight=0.7, person_weight=0.25)),
)


class TestFuseEqualsPerObjectFuse:
    def test_random_sources(self):
        # ids are unique per video across both sources, as in a proposals file
        rng = np.random.default_rng(2027)
        for _ in range(200):
            next_id = {"v0": 0, "v1": 0}
            vehicle = random_source(rng, VEHICLE_ACTIVITIES[:3], ("car", "truck"), next_id)
            person = random_source(rng, PERSON_ACTIVITIES[:3], ("person", "bicycle"), next_id)
            for nms_cfg, fusion in FUSE_CONFIGS:
                funnel, ref_funnel = {}, {}
                got = fuse(vehicle, person, nms_cfg, fusion, funnel)
                want = reference_fuse(ref_proposals(vehicle), ref_proposals(person), nms_cfg, fusion, ref_funnel)
                assert funnel == ref_funnel
                assert facts(got) == facts(want)
                assert [i.boxes.tobytes() for i in got] == [i.boxes.tobytes() for i in want]
