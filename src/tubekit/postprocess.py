"""Soft-NMS over scored proposals and late fusion of the vehicle/person model
outputs into final activity instances."""

import math
from dataclasses import dataclass, replace

from .data_model import ActivityInstance
from .errors import InvalidInputError
from .geometry import temporal_iou
from .proposals import NON_ACTION, tubelet_spatial_iou


@dataclass(frozen=True)
class SoftNmsConfig:
    method: str = "gaussian"  # "gaussian" | "linear"
    sigma: float = 0.5
    linear_threshold: float = 0.3
    score_floor: float = 0.001

    def __post_init__(self):
        if self.method not in ("gaussian", "linear"):
            raise InvalidInputError(f"unknown soft-NMS method: {self.method!r}")
        if self.sigma <= 0.0:
            raise InvalidInputError(f"sigma must be positive: {self.sigma}")


def _decay(tiou, config):
    if config.method == "gaussian":
        return math.exp(-(tiou * tiou) / config.sigma)
    if tiou > config.linear_threshold:
        return 1.0 - tiou
    return 1.0


def _is_neighbor(a, b):
    # Distinct objects sharing a time span must not suppress each other:
    # decay applies only within one tubelet or when the boxes actually overlap.
    if a.tubelet_id == b.tubelet_id:
        return True
    return tubelet_spatial_iou(a, b) > 0.0


def soft_nms(proposals, activity, config=SoftNmsConfig()):
    """Rescore proposals of one video for one activity class.

    Iteratively selects the highest-scoring proposal and decays the scores of
    its temporal neighbors (gaussian exp(-tiou^2/sigma) or linear 1-tiou).
    Proposals falling below `score_floor` are dropped. Returns rescored
    copies sorted by final score, descending."""
    items = []
    for p in proposals:
        if p.scores is None or activity not in p.scores:
            raise InvalidInputError(f"proposal {p.proposal_id} lacks a score for {activity!r}")
        items.append([p, float(p.scores[activity])])

    result = []
    remaining = [it for it in items if it[1] >= config.score_floor]
    while remaining:
        remaining.sort(key=lambda it: (-it[1], it[0].video_id, it[0].window.start, it[0].proposal_id))
        top = remaining.pop(0)
        result.append(top)
        survivors = []
        for it in remaining:
            if _is_neighbor(top[0], it[0]):
                tiou = temporal_iou(top[0].window, it[0].window)
                it[1] *= _decay(tiou, config)
            if it[1] >= config.score_floor:
                survivors.append(it)
        remaining = survivors
    return [replace(p, scores={**p.scores, activity: s}) for p, s in result]


def _activity_set(proposals):
    acts = set()
    for p in proposals:
        if p.scores:
            acts.update(k for k in p.scores if k != NON_ACTION)
    return acts


def fuse(vehicle_scored, person_scored, config=SoftNmsConfig(), weights=(1.0, 1.0)):
    """Late fusion: scale each model's class scores by its fusion weight,
    concatenate, and run per-(video, class) soft-NMS. Class scores of
    suppressed proposals are zeroed so downstream thresholding drops them."""
    overlap = _activity_set(vehicle_scored) & _activity_set(person_scored)
    if overlap:
        raise InvalidInputError(f"model outputs share activity classes: {sorted(overlap)}")

    pool = []
    for source, weight in ((vehicle_scored, weights[0]), (person_scored, weights[1])):
        for p in source:
            scores = {
                k: (v * weight if k != NON_ACTION else v) for k, v in (p.scores or {}).items()
            }
            pool.append(replace(p, scores=scores))

    buckets = {}
    for p in pool:
        for act in p.scores:
            if act == NON_ACTION:
                continue
            buckets.setdefault((p.video_id, act), []).append(p)

    final_scores = {}  # (proposal key, activity) -> post-NMS score
    for (video_id, act), bucket in sorted(buckets.items()):
        for kept in soft_nms(bucket, act, config):
            final_scores[(video_id, kept.proposal_id, act)] = kept.scores[act]

    fused = []
    for p in pool:
        scores = {}
        for act, s in p.scores.items():
            if act == NON_ACTION:
                scores[act] = s
            else:
                scores[act] = final_scores.get((p.video_id, p.proposal_id, act), 0.0)
        fused.append(replace(p, scores=scores))
    fused.sort(key=lambda p: (p.video_id, p.proposal_id))
    return fused


def proposals_to_instances(proposals, score_threshold=0.05):
    """Materialize every (class, proposal) pair at or above the threshold as
    an ActivityInstance. Output ordering is deterministic: descending
    confidence, ties by (video_id, start, activity)."""
    instances = []
    for p in proposals:
        if not p.scores:
            continue
        for act, s in p.scores.items():
            if act == NON_ACTION or s < score_threshold:
                continue
            instances.append(
                ActivityInstance(
                    video_id=p.video_id,
                    activity=act,
                    extent=p.window,
                    boxes=p.boxes,
                    confidence=s,
                )
            )
    instances.sort(key=lambda i: (-i.confidence, i.video_id, i.extent.start, i.activity))
    return instances
