"""Soft-NMS over scored proposals and late fusion of the vehicle/person model
outputs into final activity instances."""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data_model import ActivityInstance, instance_order
from .errors import InvalidInputError
from .proposals import NON_ACTION, PERSON_GROUP, VEHICLE_GROUP


@dataclass(frozen=True)
class FusionConfig:
    vehicle_weight: float = 1.0  # scales the group's class scores before soft-NMS
    person_weight: float = 1.0

    def __post_init__(self):
        for key in ("vehicle_weight", "person_weight"):
            if not 0.0 <= getattr(self, key) <= 1.0:
                raise InvalidInputError(f"fusion.{key} out of [0,1]: {getattr(self, key)}")


@dataclass(frozen=True)
class SoftNmsConfig:
    method: str = "gaussian"  # "gaussian" | "linear"
    sigma: float = 0.5
    linear_threshold: float = 0.3
    score_threshold: float = 0.05  # the lowest score soft-NMS keeps; each kept entry is an instance

    def __post_init__(self):
        if self.method not in ("gaussian", "linear"):
            raise InvalidInputError(f"unknown soft-NMS method: {self.method!r}")
        if self.sigma <= 0.0:
            raise InvalidInputError(f"sigma must be positive: {self.sigma}")
        if not 0.0 <= self.linear_threshold <= 1.0:
            raise InvalidInputError(f"linear_threshold out of [0,1]: {self.linear_threshold}")
        if not 0.0 < self.score_threshold <= 1.0:
            raise InvalidInputError(f"nms.score_threshold out of (0,1]: {self.score_threshold}")


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
    their windows through a prefix count of the frames with IoU > 0."""
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
    overlapping = np.concatenate(([0], np.cumsum(iou > 0.0)))
    return (lo < hi) & (overlapping[np.clip(hi, 0, end - start)] > overlapping[np.clip(lo, 0, end - start)])


def soft_nms(entries, config=SoftNmsConfig()):
    """Rescore one (video, activity) bucket of (proposal, score) entries.

    Iteratively selects the highest-scoring entry and decays the scores of
    its neighbours (gaussian exp(-tiou^2/sigma) or linear 1-tiou). Entries
    falling below `score_threshold` are dropped. Returns the kept (proposal,
    final score) pairs in selection order, so by final score, descending.
    An entry decays only entries selected after it, so at threshold t2 this
    returns exactly its output at any t1 <= t2 cut to the scores >= t2."""
    # argmax takes the first of tied scores, so this order breaks ties
    live = sorted((e for e in entries if e[1] >= config.score_threshold),
                  key=lambda e: (e[0].video_id, e[0].window.start, e[0].proposal_id))
    if not live:
        return []
    proposals = [p for p, _ in live]
    scores = np.array([s for _, s in live], dtype=np.float64)
    windows = np.array([(p.window.start, p.window.end) for p in proposals], dtype=np.float64)
    decay = _decay_matrix(kernels.temporal_iou_matrix(windows, windows), config)
    neighbors = _neighbor_mask(proposals)

    alive = np.ones(len(live), dtype=bool)
    result = []
    while alive.any():
        candidates = np.flatnonzero(alive)
        top = int(candidates[np.argmax(scores[candidates])])
        result.append((proposals[top], float(scores[top])))
        alive[top] = False
        hit = alive & neighbors[top]
        scores[hit] *= decay[top, hit]
        alive &= scores >= config.score_threshold
    return result


def fuse(vehicle_scored, person_scored, nms, fusion, funnel=None):
    """Late fusion: put each activity score of each proposal, times its
    group's `fusion` weight, in its (video, activity) bucket, run soft-NMS
    under `nms` per bucket and return every entry it keeps as an instance.
    Each source may score only the activities of its group (`VEHICLE_GROUP`,
    `PERSON_GROUP`). A `funnel` dict receives `nms_in`, the bucket entries
    given to soft-NMS."""
    buckets = {}
    sources = ((vehicle_scored, VEHICLE_GROUP, fusion.vehicle_weight),
               (person_scored, PERSON_GROUP, fusion.person_weight))
    for source, group, weight in sources:
        for p in source:
            if p.scores is None:
                raise InvalidInputError(f"{group.name} input holds unscored proposal {p.proposal_id}: fuse needs scores")
            for act, s in p.scores.items():
                if act == NON_ACTION:
                    continue
                if act not in group.activities:
                    raise InvalidInputError(f"{group.name} output scores activity class {act!r} outside its group")
                buckets.setdefault((p.video_id, act), []).append((p, s * weight))

    kept = []
    for (_, act), entries in sorted(buckets.items()):
        kept.extend((p, act, s) for p, s in soft_nms(entries, nms))
    if funnel is not None:
        funnel["nms_in"] = sum(map(len, buckets.values()))
    return proposals_to_instances(kept)


def proposals_to_instances(kept):
    """An ActivityInstance, viewing its proposal's boxes, for each (proposal,
    activity, score) triple. Ordered by `instance_order`, ties by (video_id,
    proposal_id)."""
    kept = sorted(kept, key=lambda t: (t[0].video_id, t[0].proposal_id))
    instances = [ActivityInstance(p.video_id, act, p.window, p.boxes, s) for p, act, s in kept]
    instances.sort(key=instance_order)
    return instances
