"""Proposal labeling against ground truth, vehicle/person model routing, and
the pluggable scorer interface (one proposal `Track` at a time) with two bundled scorers."""

import zlib
from dataclasses import dataclass
from typing import Optional

from . import kernels
from .data_model import ACTIVITY_CLASSES, PERSON_ACTIVITIES, VEHICLE_ACTIVITIES
from .errors import InvalidInputError, ScoringError
from .geometry import mean_center_step, temporal_iou

NON_ACTION = "non_action"
LABEL_KINDS = ("positive", "negative", "ignore")
SCORE_CLASSES = ACTIVITY_CLASSES + (NON_ACTION,)  # the columns of a score matrix


@dataclass(frozen=True)
class LabelPolicy:
    spatial_pos: float = 0.35
    temporal_pos: float = 0.5
    temporal_neg: float = 0.2

    def __post_init__(self):
        if not 0.0 <= self.spatial_pos <= 1.0:
            raise InvalidInputError(f"spatial_pos out of [0,1]: {self.spatial_pos}")
        if not 0.0 <= self.temporal_neg < self.temporal_pos <= 1.0:
            raise InvalidInputError(
                f"need 0 <= temporal_neg < temporal_pos <= 1: {self.temporal_neg}/{self.temporal_pos}"
            )


@dataclass(frozen=True)
class ProposalLabel:
    kind: str  # "positive" | "negative" | "ignore"
    activity: Optional[str] = None  # set iff positive
    matched_instance: Optional[int] = None  # index into the instance list


@dataclass(frozen=True)
class ModelGroup:
    name: str
    activities: frozenset


VEHICLE_GROUP = ModelGroup("vehicle_related", frozenset(VEHICLE_ACTIVITIES))
PERSON_GROUP = ModelGroup("person_related", frozenset(PERSON_ACTIVITIES))
MODEL_GROUPS = {g.name: g for g in (VEHICLE_GROUP, PERSON_GROUP)}

_CLASS_TO_GROUP = {
    "car": VEHICLE_GROUP,
    "truck": VEHICLE_GROUP,
    "person": PERSON_GROUP,
    "bicycle": PERSON_GROUP,
}


def tubelet_spatial_iou(a, b):
    """Mean per-frame box IoU of two tracks (anything with an `extent` and one
    `boxes` row per frame of it) over their common frames; 0 when the extents
    are disjoint."""
    start = max(a.extent.start, b.extent.start)
    end = min(a.extent.end, b.extent.end)
    if start >= end:
        return 0.0
    rows_a = a.boxes[start - a.extent.start:end - a.extent.start]
    rows_b = b.boxes[start - b.extent.start:end - b.extent.start]
    return float(kernels.paired_iou(rows_a, rows_b).mean())


def label_proposal(proposal, instances, policy=LabelPolicy()):
    """Assign positive/negative/ignore per the spatial/temporal overlap policy.

    Positive: some same-video instance clears both thresholds; the best match
    is the one with maximal temporal IoU, spatial IoU breaking ties.
    Negative: every instance's temporal IoU is below the negative bound.
    """
    best = None  # (tiou, siou, -index)
    best_idx = None
    max_tiou = 0.0
    for idx, inst in enumerate(instances):
        if inst.video_id != proposal.video_id:
            continue
        tiou = temporal_iou(proposal.extent, inst.extent)
        max_tiou = max(max_tiou, tiou)
        if tiou < policy.temporal_pos:
            continue
        siou = tubelet_spatial_iou(proposal, inst)
        if siou < policy.spatial_pos:
            continue
        key = (tiou, siou, -idx)
        if best is None or key > best:
            best = key
            best_idx = idx
    if best_idx is not None:
        return ProposalLabel("positive", instances[best_idx].activity, best_idx)
    if max_tiou < policy.temporal_neg:
        return ProposalLabel("negative")
    return ProposalLabel("ignore")


def route(track) -> ModelGroup:
    """Map the object class of a tubelet or proposal to its scoring model group."""
    group = _CLASS_TO_GROUP.get(track.object_class)
    if group is None:
        raise InvalidInputError(f"cannot route object class {track.object_class!r}")
    return group


def score(proposal, group, scorer):
    """Invoke a scorer on one proposal `Track` and validate its output: scores
    over the group's activities plus the non-action class, all within [0,1]."""
    try:
        scores = scorer.score(proposal, group)
    except ScoringError:
        raise
    except Exception as exc:
        raise ScoringError(str(exc), proposal_id=proposal.id)
    allowed = group.activities | {NON_ACTION}
    for key, value in scores.items():
        if key not in allowed:
            raise ScoringError(f"score key outside group: {key!r}", proposal.id)
        if not 0.0 <= value <= 1.0:
            raise ScoringError(f"score out of [0,1]: {key}={value}", proposal.id)
    return scores


# ---------------------------------------------------------------------------
# bundled scorers


class OracleScorer:
    """Ground-truth-backed scorer for end-to-end tests: a proposal that
    `policy` labels positive gets its matched class at 1 - `config.epsilon`,
    flipped to a random wrong class with probability `config.label_noise`
    (deterministic per proposal and `config.seed`).

    `label_counts` tallies the label of every proposal scored, by group name
    and then label kind."""

    def __init__(self, instances, config, policy):
        self.instances = list(instances)
        self.config = config
        self.policy = policy
        self.label_counts = {}

    def _unit_draw(self, proposal, salt):
        token = f"{self.config.seed}:{salt}:{proposal.video_id}:{proposal.id}"
        return (zlib.crc32(token.encode()) & 0xFFFFFFFF) / 2**32

    def score(self, proposal, group):
        label = label_proposal(proposal, self.instances, self.policy)
        counts = self.label_counts.setdefault(group.name, dict.fromkeys(LABEL_KINDS, 0))
        counts[label.kind] += 1
        scores = {a: 0.0 for a in group.activities}
        if label.kind == "positive" and label.activity in group.activities:
            activity = label.activity
            if self.config.label_noise > 0.0 and self._unit_draw(proposal, "flip") < self.config.label_noise:
                others = sorted(group.activities - {activity})
                activity = others[int(self._unit_draw(proposal, "pick") * len(others)) % len(others)]
            scores[activity] = 1.0 - self.config.epsilon
            scores[NON_ACTION] = self.config.epsilon
        else:
            scores[NON_ACTION] = 1.0
        return scores


class HeuristicScorer:
    """Pixel-free smoke-test scorer: activity mass grows with the proposal's
    mean center displacement, so static proposals score non-action highest."""

    def score(self, proposal, group):
        disp = mean_center_step(proposal.boxes)
        non_action = 1.0 / (1.0 + disp)
        per_activity = (1.0 - non_action) / len(group.activities)
        scores = {a: per_activity for a in group.activities}
        scores[NON_ACTION] = non_action
        return scores


@dataclass(frozen=True)
class ScorerConfig:
    name: str = "oracle"  # "oracle" | "heuristic"
    epsilon: float = 0.0
    label_noise: float = 0.0
    seed: int = 0

    def __post_init__(self):
        valid = 0.0 <= self.epsilon < 1.0 and 0.0 <= self.label_noise <= 1.0
        if self.name not in ("oracle", "heuristic") or not valid:
            raise InvalidInputError(f"need a known name, epsilon in [0,1) and label_noise in [0,1]: {self}")
