"""Half-open frame-interval arithmetic, box-track helpers, and the scalar
box reference.

Everything here is pure. The pipeline holds boxes as (n,4) float64 arrays
(see `kernels`); no code in the package builds a `Box`. `Box` and
`spatial_iou` are the scalar definitions that the exact kernel tests compare
the array code against, and the benchmark's tracer counts `Box`
constructions to show that none happen.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError


@dataclass(frozen=True, order=True)
class Box:
    """Axis-aligned box with real-valued corner coordinates, x1<=x2, y1<=y2."""

    x1: float
    y1: float
    x2: float
    y2: float

    def __post_init__(self):
        for v in (self.x1, self.y1, self.x2, self.y2):
            if not math.isfinite(v):
                raise InvalidInputError(f"non-finite box coordinate: {self}")
        if self.x1 > self.x2 or self.y1 > self.y2:
            raise InvalidInputError(f"inverted box: {self}")

    def area(self):
        return (self.x2 - self.x1) * (self.y2 - self.y1)


@dataclass(frozen=True, order=True)
class Interval:
    """Half-open frame interval [start, end), start < end, integer frames."""

    start: int
    end: int

    def __post_init__(self):
        if self.start >= self.end:
            raise InvalidInputError(f"empty interval: [{self.start}, {self.end})")

    @property
    def length(self):
        return self.end - self.start

    def frames(self):
        return range(self.start, self.end)


def spatial_iou(a: Box, b: Box) -> float:
    """Intersection-over-union of two boxes; 0 when the union is degenerate."""
    iw = min(a.x2, b.x2) - max(a.x1, b.x1)
    ih = min(a.y2, b.y2) - max(a.y1, b.y1)
    inter = max(0.0, iw) * max(0.0, ih)
    union = a.area() + b.area() - inter
    if union <= 0.0:
        return 0.0
    return inter / union


def temporal_iou(a: Interval, b: Interval) -> float:
    """Intersection-over-union of two half-open frame intervals."""
    inter = min(a.end, b.end) - max(a.start, b.start)
    union = max(a.end, b.end) - min(a.start, b.start)
    if inter <= 0:
        return 0.0
    return inter / union


def mean_center_steps(boxes, firsts, lengths):
    """The mean distance between the centres of consecutive rows of each
    track whose rows are `lengths[i]` rows of an (r,4) x1, y1, x2, y2 array
    from row `firsts[i]`; 0 for fewer than two rows. The distances go through
    math.hypot and each track's are summed left to right, so a mean does not
    depend on numpy's summation order or on the other tracks."""
    cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
    cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
    dx, dy = cx[1:] - cx[:-1], cy[1:] - cy[:-1]  # step k: from row k to row k + 1
    means = np.zeros(len(lengths))
    for i in np.flatnonzero(np.asarray(lengths) > 1).tolist():
        lo, n = int(firsts[i]), int(lengths[i])
        total = 0.0
        for step in map(math.hypot, dx[lo:lo + n - 1].tolist(), dy[lo:lo + n - 1].tolist()):
            total += step
        means[i] = total / (n - 1)
    return means


def mean_center_step(boxes):
    """`mean_center_steps` of the one track whose rows are all of `boxes`."""
    return float(mean_center_steps(boxes, (0,), (len(boxes),))[0])
