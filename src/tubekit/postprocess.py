"""Soft-NMS over the score matrices of scored proposals and late fusion of the
vehicle/person model outputs into final activity instances."""

import math
from dataclasses import dataclass

import numpy as np

from . import kernels
from .data_model import ACTIVITY_CLASSES, ActivityInstance, instance_order
from .errors import InvalidInputError
from .proposals import PERSON_GROUP, SCORE_CLASSES, VEHICLE_GROUP


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


def _neighbor_mask(tracks, windows):
    """(n,n) bool: entries i and j, over windows of tracks[i] and tracks[j], may
    suppress each other. That is when the tracks share a tubelet id, or when some
    common frame of the windows has box IoU > 0. One `paired_iou` per pair of tracks
    covers every pair of their windows through a prefix count of the frames with IoU > 0."""
    groups = {}
    for i, track in enumerate(tracks):
        groups.setdefault(id(track), (track, []))[1].append(i)
    groups = list(groups.values())
    mask = np.zeros((len(tracks), len(tracks)), dtype=bool)
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
    a, b = windows_a[:, 0, None] - start, windows_b[None, :, 0] - start  # windows are (start, length)
    lo, hi = np.maximum(a, b), np.minimum(a + windows_a[:, 1, None], b + windows_b[None, :, 1])
    overlapping = np.concatenate(([0], np.cumsum(iou > 0.0)))
    return (lo < hi) & (overlapping[np.clip(hi, 0, end - start)] > overlapping[np.clip(lo, 0, end - start)])


def soft_nms(scores, windows, ids, tracks, config=SoftNmsConfig()):
    """Rescore one (video, activity) bucket: entry i is proposal ids[i], score
    scores[i], over the frames windows[i] = (start, length) of normalised track tracks[i].

    Iteratively selects the highest-scoring entry and decays the scores of
    its neighbours (gaussian exp(-tiou^2/sigma) or linear 1-tiou). Entries
    falling below `score_threshold` are dropped. Returns the kept entries'
    indices in selection order, so by final score, descending, and those scores.
    An entry decays only entries selected after it, so at threshold t2 this
    returns exactly its output at any t1 <= t2 cut to the scores >= t2."""
    live = np.flatnonzero(scores >= config.score_threshold)
    # argmax takes the first of tied scores, so this (window start, proposal id) order breaks ties
    live = live[np.lexsort((ids[live], windows[live, 0]))]
    scores, windows = scores[live], windows[live]  # copies: the decay writes to scores
    spans = np.cumsum(windows, axis=1, dtype=np.float64)  # (start, end)
    decay = _decay_matrix(kernels.temporal_iou_matrix(spans, spans), config)
    neighbors = _neighbor_mask([tracks[i] for i in live.tolist()], windows)

    alive = np.ones(len(live), dtype=bool)
    kept = []
    while alive.any():
        candidates = np.flatnonzero(alive)
        top = int(candidates[np.argmax(scores[candidates])])
        kept.append(top)
        alive[top] = False
        hit = alive & neighbors[top]
        scores[hit] *= decay[top, hit]
        alive &= scores >= config.score_threshold
    return live[kept].tolist(), scores[kept].tolist()  # a selected score decays no more


def fuse(vehicle_scored, person_scored, nms, fusion, funnel=None):
    """Late fusion of scored lines: put each activity score (not NaN) of each
    proposal, times its group's `fusion` weight, in its (video, activity) bucket,
    run soft-NMS under `nms` per bucket and return every entry it keeps as an
    instance. Each source may score only the activities of its group (`VEHICLE_GROUP`,
    `PERSON_GROUP`). A `funnel` dict receives `nms_in`, the bucket entries given to soft-NMS."""
    buckets = {}  # (video_id, activity) -> [(line, mask of its rows that score it, weight)]
    sources = ((vehicle_scored, VEHICLE_GROUP, fusion.vehicle_weight),
               (person_scored, PERSON_GROUP, fusion.person_weight))
    for source, group, weight in sources:
        for act in sorted(ACTIVITY_CLASSES):  # so an error names the first class by name
            for line in source:
                if line.scores is None:
                    raise InvalidInputError(f"{group.name} input holds unscored proposal {line.ids[0]}: "
                                            "fuse needs scores")
                scored = ~np.isnan(line.scores[:, SCORE_CLASSES.index(act)])
                if scored.any():
                    if act not in group.activities:
                        raise InvalidInputError(
                            f"{group.name} output scores activity class {act!r} outside its group in tubelet "
                            f"{(line.track.video_id, line.track.id)!r} of class {line.track.object_class!r}: fuse "
                            "takes one scored file per group, as `score --group` writes it")
                    buckets.setdefault((line.track.video_id, act), []).append((line, scored, weight))

    kept = []
    for (_, act), members in sorted(buckets.items()):
        scores = np.concatenate([line.scores[m, SCORE_CLASSES.index(act)] * weight for line, m, weight in members])
        windows = np.concatenate([line.windows[m] for line, m, _ in members])
        ids = np.concatenate([line.ids[m] for line, m, _ in members])
        owners = [line for line, m, _ in members for _ in range(m.sum())]  # entry i is row rows[i] of owners[i]
        rows = np.concatenate([np.flatnonzero(m) for _, m, _ in members])
        for i, s in zip(*soft_nms(scores, windows, ids, [line.track for line in owners], nms)):
            kept.append((owners[i][rows[i]], act, s))
    if funnel is not None:
        funnel["nms_in"] = sum(int(m.sum()) for members in buckets.values() for _, m, _ in members)
    return proposals_to_instances(kept)


def proposals_to_instances(kept):
    """An ActivityInstance, viewing its proposal's boxes, for each (proposal
    `Track`, activity, score) triple. Ordered by `instance_order`, ties by
    (video_id, proposal id)."""
    kept = sorted(kept, key=lambda t: (t[0].video_id, t[0].id))
    instances = [ActivityInstance(p.video_id, act, p.extent, p.boxes, s) for p, act, s in kept]
    instances.sort(key=instance_order)
    return instances
