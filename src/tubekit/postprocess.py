"""Soft-NMS over scored proposals and late fusion of the vehicle/person model
outputs into final activity instances."""

import math
from dataclasses import dataclass, replace

import numpy as np

from . import kernels
from .data_model import ActivityInstance, instance_order
from .errors import InvalidInputError
from .proposals import NON_ACTION


@dataclass(frozen=True)
class FusionConfig:
    vehicle_weight: float = 1.0  # scales the group's class scores before soft-NMS
    person_weight: float = 1.0

    def __post_init__(self):
        if not all(math.isfinite(w) and w >= 0.0 for w in (self.vehicle_weight, self.person_weight)):
            raise InvalidInputError(f"fusion weights must be finite and >= 0: {self}")


@dataclass(frozen=True)
class OutputConfig:
    score_threshold: float = 0.05  # the lowest score that becomes an instance

    def __post_init__(self):
        if not 0.0 <= self.score_threshold <= 1.0:
            raise InvalidInputError(f"score_threshold out of [0,1]: {self.score_threshold}")


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


def _decay_matrix(tiou, config):
    """Score multiplier for every pair: gaussian exp(-tiou^2/sigma), or linear
    1 - tiou above the threshold and 1 otherwise. The gaussian goes through
    math.exp (once per distinct value), whose bits np.exp does not promise."""
    if config.method == "linear":
        return np.where(tiou > config.linear_threshold, 1.0 - tiou, 1.0)
    exponents, inverse = np.unique(-(tiou * tiou) / config.sigma, return_inverse=True)
    return np.array([math.exp(x) for x in exponents.tolist()])[inverse].reshape(tiou.shape)


def _neighbor_mask(proposals):
    """(n,n) bool: proposals i and j may suppress each other. That is when
    they share a tubelet id, or when some common frame of their windows has
    box IoU > 0. One `paired_iou` per pair of tubelets covers every pair of
    their windows through a prefix count of the frames with IoU > 0, which
    answers the same as "mean IoU over the common frames > 0"."""
    groups = {}
    for i, p in enumerate(proposals):
        groups.setdefault(id(p.tubelet), (p.tubelet, []))[1].append(i)
    groups = list(groups.values())
    windows = np.array([(p.window.start, p.window.end) for p in proposals], dtype=np.int64)
    mask = np.zeros((len(proposals), len(proposals)), dtype=bool)
    for a, (ta, ia) in enumerate(groups):
        for tb, ib in groups[a:]:
            if ta.id == tb.id:
                hit = True
            else:
                hit = _window_overlaps(ta, tb, windows[ia], windows[ib])
                if hit is None:
                    continue
            mask[np.ix_(ia, ib)] = hit
            mask[np.ix_(ib, ia)] = np.transpose(hit)
    return mask


# A mean of non-negative IoUs is > 0 exactly when one of them is, unless one
# is so small that dividing the sum by the frame count rounds it to 0.
_TINY_IOU = 2.0 ** -960


def _window_overlaps(ta, tb, windows_a, windows_b):
    """(len(windows_a), len(windows_b)) bool: the two windows, over tubelets
    `ta` and `tb`, have a common frame where the boxes overlap. None when the
    tubelets share no frame."""
    start = max(ta.extent.start, tb.extent.start)
    end = min(ta.extent.end, tb.extent.end)
    if start >= end:
        return None
    iou = kernels.paired_iou(
        ta.boxes[start - ta.extent.start:end - ta.extent.start],
        tb.boxes[start - tb.extent.start:end - tb.extent.start],
    )
    lo = np.maximum(windows_a[:, 0, None], windows_b[None, :, 0]) - start
    hi = np.minimum(windows_a[:, 1, None], windows_b[None, :, 1]) - start
    common = lo < hi
    if (iou[iou > 0.0] < _TINY_IOU).any():
        means = [[iou[l:h].mean() if l < h else 0.0 for l, h in zip(*row)]
                 for row in zip(lo.tolist(), hi.tolist())]
        return np.array(means) > 0.0
    overlapping = np.concatenate(([0], np.cumsum(iou > 0.0)))
    return common & (overlapping[np.clip(hi, 0, end - start)] > overlapping[np.clip(lo, 0, end - start)])


def soft_nms(proposals, activity, config=SoftNmsConfig()):
    """Rescore proposals of one video for one activity class.

    Iteratively selects the highest-scoring proposal and decays the scores of
    its temporal neighbors (gaussian exp(-tiou^2/sigma) or linear 1-tiou).
    Proposals falling below `score_floor` are dropped. Returns rescored
    copies sorted by final score, descending."""
    for p in proposals:
        if p.scores is None or activity not in p.scores:
            raise InvalidInputError(f"proposal {p.proposal_id} lacks a score for {activity!r}")
    live = [p for p in proposals if float(p.scores[activity]) >= config.score_floor]
    if not live:
        return []
    # argmax takes the first of tied scores, so this order breaks ties
    live.sort(key=lambda p: (p.video_id, p.window.start, p.proposal_id))
    scores = np.array([float(p.scores[activity]) for p in live])
    windows = [(p.window.start, p.window.end) for p in live]
    decay = _decay_matrix(kernels.temporal_iou_matrix(windows, windows), config)
    neighbors = _neighbor_mask(live)

    alive = np.ones(len(live), dtype=bool)
    result = []
    while alive.any():
        candidates = np.flatnonzero(alive)
        top = int(candidates[np.argmax(scores[candidates])])
        result.append((live[top], float(scores[top])))
        alive[top] = False
        hit = alive & neighbors[top]
        scores[hit] *= decay[top, hit]
        alive &= scores >= config.score_floor
    return [replace(p, scores={**p.scores, activity: s}) for p, s in result]


def _activity_set(proposals):
    acts = set()
    for p in proposals:
        if p.scores:
            acts.update(k for k in p.scores if k != NON_ACTION)
    return acts


def fuse(vehicle_scored, person_scored, config=SoftNmsConfig(), weights=(1.0, 1.0), funnel=None):
    """Late fusion: scale each model's class scores by its fusion weight,
    concatenate, and run per-(video, class) soft-NMS. Class scores of
    suppressed proposals are zeroed so downstream thresholding drops them.
    A `funnel` dict receives `nms_in` and `nms_kept`, the bucket entries
    given to soft-NMS and returned by it."""
    overlap = _activity_set(vehicle_scored) & _activity_set(person_scored)
    if overlap:
        raise InvalidInputError(f"model outputs share activity classes: {sorted(overlap)}")

    pool = []
    for source, weight in ((vehicle_scored, weights[0]), (person_scored, weights[1])):
        for p in source:
            scores = {k: (v * weight if k != NON_ACTION else v) for k, v in (p.scores or {}).items()}
            pool.append(replace(p, scores=scores))

    buckets = {}
    for p in pool:
        for act in p.scores:
            if act == NON_ACTION:
                continue
            buckets.setdefault((p.video_id, act), []).append(p)

    final_scores = {}  # (proposal key, activity) -> post-NMS score
    nms_kept = 0
    for (video_id, act), bucket in sorted(buckets.items()):
        kept_bucket = soft_nms(bucket, act, config)
        nms_kept += len(kept_bucket)
        for kept in kept_bucket:
            final_scores[(video_id, kept.proposal_id, act)] = kept.scores[act]
    if funnel is not None:
        funnel["nms_in"] = sum(len(bucket) for bucket in buckets.values())
        funnel["nms_kept"] = nms_kept

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
    instances.sort(key=instance_order)
    return instances
