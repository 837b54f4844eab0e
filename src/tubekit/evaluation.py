"""Recall@IoU for tubelet generation and DET-style p_miss vs rate-of-false-
alarm scoring of final activity instances."""

import json
from dataclasses import dataclass, field

import numpy as np

from .data_model import instance_order
from .errors import InvalidInputError
from .geometry import temporal_iou
from .proposals import tubelet_spatial_iou


@dataclass(frozen=True)
class RecallCurve:
    thresholds: tuple  # ascending
    recall: tuple  # same length, non-increasing


@dataclass(frozen=True)
class DetCurve:
    activity: str
    points: tuple  # (rfa, p_miss) sorted by rfa ascending


@dataclass(frozen=True)
class EvalConfig:
    target_rfa: float = 0.15  # the DET summary's p_miss is read at this rfa
    recall_thresholds: tuple = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)  # tubelet recall IoUs

    def __post_init__(self):
        thresholds = self.recall_thresholds
        if not (0.0 <= self.target_rfa < float("inf") and thresholds and all(0.0 <= t <= 1.0 for t in thresholds)):
            raise InvalidInputError(f"need a finite target_rfa >= 0 and nonempty recall_thresholds in [0,1]: {self}")


@dataclass(frozen=True)
class AlignmentPolicy:
    """A system instance and a reference of one (video, activity) may match
    when their temporal IoU is at least `temporal_iou_min`. The DET sweep
    uses only the size of a maximum matching over those pairs. Among the
    maximum matchings, `align_instances` (Hungarian) keeps one of largest
    total temporal IoU; no output depends on that tie-break."""

    temporal_iou_min: float = 0.2

    def __post_init__(self):
        if not 0.0 < self.temporal_iou_min <= 1.0:
            raise InvalidInputError(f"temporal_iou_min out of (0,1]: {self.temporal_iou_min}")


@dataclass
class AlignmentResult:
    matches: list = field(default_factory=list)  # (system instance, reference, tiou)
    misses: list = field(default_factory=list)  # unmatched references
    false_alarms: list = field(default_factory=list)  # unmatched system instances


# ---------------------------------------------------------------------------
# tubelet recall


def tubelet_recall(tubelets, instances, thresholds):
    """Fraction of ground-truth instances covered by at least one tubelet of a
    `LinkedTubelets` with both mean spatial IoU and coverage |T∩R| / |R|
    above each threshold: a tubelet follows its object through every
    activity, so its temporal IoU with a short one is at most reference /
    tubelet.

    An instance's overlap with each tubelet of its video's table is one
    array step. The tubelets that overlap it are scored in descending
    coverage, as `Track` views, until the coverage is no more than the best
    score: it bounds the score, and the best is a max, so the order does not
    change it."""
    if not instances:
        raise InvalidInputError("recall is undefined for empty ground truth")
    thresholds = sorted(thresholds)
    by_video = {}
    for table in tubelets.tables:
        by_video.setdefault(table.video_id, []).append(table)

    coverage = []
    for inst in instances:
        best, ref = 0.0, inst.extent
        for table in by_video.get(inst.video_id, ()):
            overlap = np.minimum(table.starts + table.lengths, ref.end) - np.maximum(table.starts, ref.start)
            (candidates,) = (overlap > 0).nonzero()
            for i in candidates[np.argsort(-overlap[candidates], kind="stable")].tolist():
                cover = int(overlap[i]) / ref.length
                if cover <= best:
                    break
                best = max(best, min(cover, tubelet_spatial_iou(table[i], inst)))
        coverage.append(best)

    recall = tuple(sum(1 for c in coverage if c > tau) / len(coverage) for tau in thresholds)
    return RecallCurve(tuple(thresholds), recall)


# ---------------------------------------------------------------------------
# instance alignment


def _align_group(system, reference, policy):
    """Align one (video, activity) bucket; returns (matches, misses, fas)."""
    tiou = np.zeros((len(system), len(reference)))
    for i, s in enumerate(system):
        for j, r in enumerate(reference):
            tiou[i, j] = temporal_iou(s.extent, r.extent)
    admissible = tiou >= policy.temporal_iou_min

    pairs = []
    if system and reference:
        # imported here: scipy.optimize is most of the CLI's import time
        from scipy.optimize import linear_sum_assignment

        # Bonus larger than any achievable total IoU makes the assignment
        # lexicographic: match count first, total temporal IoU second.
        bonus = len(system) + len(reference) + 1.0
        weights = np.where(admissible, tiou + bonus, 0.0)
        rows, cols = linear_sum_assignment(weights, maximize=True)
        pairs = [(int(i), int(j)) for i, j in zip(rows, cols) if admissible[i, j]]

    matched_sys = {i for i, _ in pairs}
    matched_ref = {j for _, j in pairs}
    matches = [(system[i], reference[j], float(tiou[i, j])) for i, j in pairs]
    misses = [r for j, r in enumerate(reference) if j not in matched_ref]
    fas = [s for i, s in enumerate(system) if i not in matched_sys]
    return matches, misses, fas


def align_instances(system, reference, policy=AlignmentPolicy()):
    """One-to-one alignment of system output against references, bucketed by
    (video, activity). Unmatched references are misses; unmatched system
    instances are false alarms."""
    buckets = {}
    for s in system:
        buckets.setdefault((s.video_id, s.activity), ([], []))[0].append(s)
    for r in reference:
        buckets.setdefault((r.video_id, r.activity), ([], []))[1].append(r)

    result = AlignmentResult()
    for key in sorted(buckets):
        sys_b, ref_b = buckets[key]
        m, mi, fa = _align_group(sys_b, ref_b, policy)
        result.matches.extend(m)
        result.misses.extend(mi)
        result.false_alarms.extend(fa)
    return result


# ---------------------------------------------------------------------------
# DET curves


def total_corpus_minutes(metas):
    minutes = sum(m.frame_count / m.frame_rate for m in metas.values()) / 60.0
    if minutes <= 0.0:
        raise InvalidInputError("total corpus duration must be positive")
    return minutes


class _Matching:
    """A growing maximum matching of system instances to the references of
    one (video, activity) bucket, over the pairs with tIoU >= the policy's
    minimum: one augmenting-path search per added instance (Kuhn)."""

    def __init__(self, references, policy):
        self.references = references
        self.policy = policy
        self.edges = []  # per system instance: admissible reference indices
        self.owner = [None] * len(references)  # reference -> system instance
        self.size = 0

    def add(self, instance):
        self.edges.append(
            [j for j, r in enumerate(self.references)
             if temporal_iou(instance.extent, r.extent) >= self.policy.temporal_iou_min]
        )
        if self._augment(len(self.edges) - 1):
            self.size += 1

    def _augment(self, root):
        """Depth-first search for an augmenting path from system instance
        `root`, kept on explicit stacks; flips the path and returns True when
        one is found."""
        seen = set()
        path = [root]  # system instances on the path
        via = []  # via[k]: the reference that leads from path[k] to path[k + 1]
        pending = [iter(self.edges[root])]
        while path:
            j = next((j for j in pending[-1] if j not in seen), None)
            if j is None:
                path.pop()
                pending.pop()
                if via:
                    via.pop()
                continue
            seen.add(j)
            if self.owner[j] is None:
                for i, ref in zip(path, via + [j]):
                    self.owner[ref] = i
                return True
            via.append(j)
            path.append(self.owner[j])
            pending.append(iter(self.edges[self.owner[j]]))
        return False


def det_curve(system, references, metas, policy=AlignmentPolicy()):
    """Sweep the confidence threshold and emit one (rfa, p_miss) curve per
    activity class present in the references.

    Misses and false alarms depend only on how many instances are matched,
    so the sweep adds system instances in descending confidence and grows
    one matching per (video, activity) bucket instead of re-aligning at
    every threshold. A matching grows by at most one per instance and never
    shrinks, so the points come in rising rfa with non-increasing p_miss."""
    minutes = total_corpus_minutes(metas)
    classes = sorted({r.activity for r in references})
    if not classes:
        raise InvalidInputError("no reference instances")

    curves = {}
    for cls in classes:
        refs_c = [r for r in references if r.activity == cls]
        sys_c = sorted((s for s in system if s.activity == cls), key=instance_order)
        buckets = {}
        for r in refs_c:
            buckets.setdefault(r.video_id, []).append(r)
        buckets = {video_id: _Matching(refs, policy) for video_id, refs in buckets.items()}
        points = []
        matched = 0
        for k, s in enumerate(sys_c):
            bucket = buckets.get(s.video_id)
            if bucket is not None:
                before = bucket.size
                bucket.add(s)
                matched += bucket.size - before
            if k + 1 == len(sys_c) or sys_c[k + 1].confidence != s.confidence:
                point = ((k + 1 - matched) / minutes, (len(refs_c) - matched) / len(refs_c))
                if points and points[-1][0] == point[0]:
                    points.pop()  # the same false alarms with no more misses: keep the last
                points.append(point)
        curves[cls] = DetCurve(cls, tuple(points or [(0.0, 1.0)]))
    return curves


def p_miss_at_rfa(curve, target_rfa):
    """p_miss at the largest swept rfa <= target, linearly interpolated when a
    bracketing point exists; 1.0 when the whole curve sits above the target."""
    points = sorted(curve.points)
    below = [p for p in points if p[0] <= target_rfa]
    if not below:
        return 1.0
    r0, p0 = below[-1]
    above = [p for p in points if p[0] > target_rfa]
    if not above or r0 == target_rfa:
        return p0
    r1, p1 = above[0]
    t = (target_rfa - r0) / (r1 - r0)
    return p0 + t * (p1 - p0)


def mean_p_miss(per_class):
    """Mean p_miss over the classes present."""
    if not per_class:
        raise InvalidInputError("no per-class values")
    return sum(per_class.values()) / len(per_class)


def det_summary(curves, target_rfa):
    """p_miss at `target_rfa` per class and their mean."""
    per_class = {cls: p_miss_at_rfa(curves[cls], target_rfa) for cls in sorted(curves)}
    return {"target_rfa": target_rfa, "per_class_p_miss": per_class, "mean_p_miss": mean_p_miss(per_class)}


# ---------------------------------------------------------------------------
# exports


def write_recall_csv(curve, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("threshold,recall\n")
        for tau, rec in zip(curve.thresholds, curve.recall):
            fh.write(f"{tau:.6f},{rec:.6f}\n")


def write_det_csv(curves, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("activity,rfa,p_miss\n")
        for cls in sorted(curves):
            for rfa, p in curves[cls].points:
                fh.write(f"{cls},{rfa:.6f},{p:.6f}\n")


def write_det_summary(summary, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(summary, fh, sort_keys=True, indent=2)
        fh.write("\n")
