import itertools
from types import SimpleNamespace

import numpy as np
import pytest
from conftest import box_rows, make_proposal, make_tubelet

from tubekit.data_model import (
    ACTIVITY_CLASSES,
    PERSON_ACTIVITIES,
    VEHICLE_ACTIVITIES,
    ActivityInstance,
)
from tubekit.errors import InvalidInputError, ScoringError
from tubekit.geometry import Box, Interval, spatial_iou
from tubekit.proposals import (
    NON_ACTION,
    PERSON_GROUP,
    VEHICLE_GROUP,
    HeuristicScorer,
    LabelPolicy,
    OracleScorer,
    ScorerConfig,
    label_proposal,
    route,
    score,
    tubelet_spatial_iou,
)
from tubekit.refinement import TubeletProposals


def proposal(window, **kwargs):
    """The `Track` a scorer sees for the one proposal of `make_proposal`."""
    (p,) = make_proposal(window, **kwargs)
    return p


def instance(activity="Riding", start=0, end=10, box=(0, 0, 10, 10), video_id="v0"):
    return ActivityInstance(video_id, activity, Interval(start, end), box_rows(box, end - start), 1.0)


def random_track(rng, n):
    """n random boxes; every third row is degenerate (a point, or a zero-width
    or zero-height line)."""
    xy = rng.uniform(0, 60, size=(n, 2))
    wh = rng.uniform(0, 40, size=(n, 2))
    wh[::3, rng.integers(0, 2)] = 0.0
    return np.hstack([xy, xy + wh])


def scalar_spatial_iou(a, b):
    """Reference: mean of scalar spatial_iou over the common frames."""
    common = sorted(set(a.extent.frames()) & set(b.extent.frames()))
    if not common:
        return 0.0
    box = lambda t, f: Box(*t.boxes[f - t.extent.start].tolist())  # noqa: E731
    return float(np.mean([spatial_iou(box(a, f), box(b, f)) for f in common]))


class TestTubeletSpatialIou:
    def test_identity(self):
        boxes = box_rows((0, 0, 10, 10), 5)
        assert tubelet_spatial_iou(make_tubelet(boxes), make_tubelet(boxes.copy())) == 1.0

    def test_disjoint_supports(self):
        a = make_tubelet(box_rows((0, 0, 10, 10), 5))
        b = make_tubelet(box_rows((0, 0, 10, 10), 5), start=10)
        assert tubelet_spatial_iou(a, b) == 0.0

    def test_mean_aggregation(self):
        a = make_tubelet([[0, 0, 10, 10], [0, 0, 10, 10]])
        b = make_tubelet([[0, 0, 10, 10], [100, 100, 110, 110]])
        assert tubelet_spatial_iou(a, b) == pytest.approx(0.5)

    def test_equals_scalar_reference_on_seeded_tracks(self):
        # extents (a, b): disjoint, touching, nested, partial, identical
        extents = [((0, 20), (30, 50)), ((0, 10), (10, 20)), ((0, 40), (10, 20)),
                   ((0, 30), (20, 50)), ((5, 25), (5, 25))]
        rng = np.random.default_rng(31)
        for (sa, ea), (sb, eb) in extents:
            for _ in range(10):
                a = make_tubelet(random_track(rng, ea - sa), start=sa)
                b = make_tubelet(random_track(rng, eb - sb), start=sb, tubelet_id=1)
                # a proposal is a view into its tubelet at an offset
                window = Interval(sb + (eb - sb) // 4, eb)
                (p,) = TubeletProposals(b, np.array([0]), np.array([[window.start, window.length]]))
                inst = ActivityInstance("v0", "Riding", Interval(sa, ea), a.boxes, 1.0)
                for x, y in ((a, b), (b, a), (p, a), (inst, p), (a, a)):
                    assert tubelet_spatial_iou(x, y) == scalar_spatial_iou(x, y)


class TestLabelProposal:
    def test_perfect_match_positive(self):
        inst = instance("Riding")
        p = proposal(Interval(0, 10), boxes=inst.boxes)
        label = label_proposal(p, [inst])
        assert label.kind == "positive"
        assert label.activity == "Riding"
        assert label.matched_instance == 0

    def test_low_temporal_iou_negative(self):
        inst = instance(start=0, end=10)
        p = proposal(Interval(90, 100))
        assert label_proposal(p, [inst]).kind == "negative"

    def test_between_thresholds_ignore(self):
        # temporal IoU 0.3 < 0.5 but >= 0.2, high spatial overlap
        inst = instance(start=0, end=13)
        p = proposal(Interval(7, 20), boxes=box_rows((0, 0, 10, 10), 13))
        assert 0.2 <= 6 / 20 < 0.5
        assert label_proposal(p, [inst]).kind == "ignore"

    def test_spatial_threshold_gates_positive(self):
        inst = instance(box=(0, 0, 10, 10))
        # same window, boxes shifted so IoU ~0.2 < 0.35
        p = proposal(Interval(0, 10), boxes=box_rows((7, 0, 17, 10), 10))
        label = label_proposal(p, [inst])
        assert label.kind == "ignore"

    def test_no_instances_negative(self):
        p = proposal(Interval(0, 10))
        assert label_proposal(p, []).kind == "negative"

    def test_permutation_invariant(self):
        instances = [
            instance("Riding", 0, 10),
            instance("Talking", 2, 12),
            instance("Pull", 40, 60),
        ]
        p = proposal(Interval(0, 11))
        labels = {
            label_proposal(p, list(perm)).activity
            for perm in itertools.permutations(instances)
        }
        assert labels == {"Riding"}

    def test_best_match_by_temporal_then_spatial(self):
        a = instance("Riding", 0, 10)
        b = instance("Talking", 0, 12)
        p = proposal(Interval(0, 10))
        assert label_proposal(p, [b, a]).activity == "Riding"

    def test_degenerate_policy(self):
        # thresholds (1.0, 1.0, 0.0): only exact matches positive, nothing negative
        policy = LabelPolicy(spatial_pos=1.0, temporal_pos=1.0, temporal_neg=0.0)
        inst = instance("Riding")
        exact = proposal(Interval(0, 10), boxes=inst.boxes)
        assert label_proposal(exact, [inst], policy).kind == "positive"
        near = proposal(Interval(0, 9), boxes=box_rows((0, 0, 10, 10), 9))
        assert label_proposal(near, [inst], policy).kind == "ignore"

    def test_invalid_policy(self):
        with pytest.raises(InvalidInputError):
            LabelPolicy(temporal_pos=0.1, temporal_neg=0.2)


class TestRoute:
    @pytest.mark.parametrize(
        "cls,group",
        [("car", "vehicle_related"), ("truck", "vehicle_related"),
         ("person", "person_related"), ("bicycle", "person_related")],
    )
    def test_routing(self, cls, group):
        p = proposal(Interval(0, 10), object_class=cls)
        assert route(p).name == group

    def test_unknown_class(self):
        # a Track rejects "dog", so route sees it only from a duck-typed object
        with pytest.raises(InvalidInputError):
            route(SimpleNamespace(object_class="dog"))


def test_groups_partition_activities():
    assert VEHICLE_GROUP.activities | PERSON_GROUP.activities == set(ACTIVITY_CLASSES)
    assert not VEHICLE_GROUP.activities & PERSON_GROUP.activities
    assert len(VEHICLE_GROUP.activities) == len(PERSON_GROUP.activities) == 9
    assert VEHICLE_GROUP.activities == set(VEHICLE_ACTIVITIES)
    assert PERSON_GROUP.activities == set(PERSON_ACTIVITIES)


class TestOracleScorer:
    def test_matched_proposal(self):
        inst = instance("Loading")
        p = proposal(Interval(0, 10), boxes=inst.boxes)
        scores = OracleScorer([inst], ScorerConfig(), LabelPolicy()).score(p, PERSON_GROUP)
        assert scores["Loading"] == 1.0
        assert scores[NON_ACTION] == 0.0
        assert all(scores[a] == 0.0 for a in PERSON_GROUP.activities if a != "Loading")

    def test_unmatched_proposal(self):
        p = proposal(Interval(0, 10))
        scores = OracleScorer([], ScorerConfig(), LabelPolicy()).score(p, PERSON_GROUP)
        assert scores[NON_ACTION] == 1.0

    def test_epsilon(self):
        inst = instance("Loading")
        p = proposal(Interval(0, 10), boxes=inst.boxes)
        scores = OracleScorer([inst], ScorerConfig(epsilon=0.1), LabelPolicy()).score(p, PERSON_GROUP)
        assert scores["Loading"] == pytest.approx(0.9)
        assert scores[NON_ACTION] == pytest.approx(0.1)

    def test_label_noise_deterministic(self):
        inst = instance("Loading")
        p = proposal(Interval(0, 10), boxes=inst.boxes)
        scorer = OracleScorer([inst], ScorerConfig(label_noise=1.0, seed=3), LabelPolicy())
        first = scorer.score(p, PERSON_GROUP)
        assert first == scorer.score(p, PERSON_GROUP)
        assert first["Loading"] == 0.0  # always flipped at noise 1.0


class TestHeuristicScorer:
    def test_static_proposal_non_action_maximal(self):
        p = proposal(Interval(0, 10))
        scores = HeuristicScorer().score(p, PERSON_GROUP)
        assert scores[NON_ACTION] == max(scores.values())
        assert scores[NON_ACTION] == 1.0

    def test_monotone_in_displacement(self):
        slow = proposal(Interval(0, 10), boxes=np.array([[f, 0, f + 10, 10] for f in range(10)]))
        fast = proposal(Interval(0, 10), boxes=np.array([[5 * f, 0, 5 * f + 10, 10] for f in range(10)]))
        scorer = HeuristicScorer()
        s_slow = scorer.score(slow, PERSON_GROUP)
        s_fast = scorer.score(fast, PERSON_GROUP)
        assert s_fast[NON_ACTION] < s_slow[NON_ACTION]
        assert s_fast["Riding"] > s_slow["Riding"]


class TestScoreValidation:
    def test_scoring_error_carries_proposal_id(self):
        class Broken:
            def score(self, proposal, group):
                raise RuntimeError("boom")

        p = proposal(Interval(0, 10), proposal_id=42)
        with pytest.raises(ScoringError) as exc:
            score(p, PERSON_GROUP, Broken())
        assert exc.value.proposal_id == 42

    def test_out_of_range_score_rejected(self):
        class Bad:
            def score(self, proposal, group):
                return {NON_ACTION: 1.5}

        p = proposal(Interval(0, 10))
        with pytest.raises(ScoringError):
            score(p, PERSON_GROUP, Bad())

    def test_route_label_consistency(self):
        # a positive label's class lands in the routed group when the object
        # class matches the activity's column
        inst = instance("Riding")
        p = proposal(Interval(0, 10), boxes=inst.boxes, object_class="bicycle")
        group = route(p)
        label = label_proposal(p, [inst])
        assert label.kind == "positive"
        assert label.activity in group.activities
