import numpy as np
import pytest

from tubekit import kernels
from tubekit.geometry import Box, Interval, spatial_iou, temporal_iou


def random_boxes(rng, n):
    xy = rng.uniform(0, 100, size=(n, 2))
    wh = rng.uniform(0, 50, size=(n, 2))
    return np.hstack([xy, xy + wh])


def random_intervals(rng, n):
    start = rng.integers(0, 100, size=(n, 1)).astype(float)
    length = rng.integers(1, 60, size=(n, 1)).astype(float)
    return np.hstack([start, start + length])


# Degenerate boxes: a point, a zero-width line, a zero-height line, and
# boxes that touch, coincide or contain one another.
DEGENERATE_BOXES = np.array(
    [
        [5.0, 5.0, 5.0, 5.0],
        [5.0, 0.0, 5.0, 10.0],
        [0.0, 5.0, 10.0, 5.0],
        [0.0, 0.0, 10.0, 10.0],
        [10.0, 0.0, 20.0, 10.0],
        [0.0, 0.0, 10.0, 10.0],
        [2.0, 2.0, 8.0, 8.0],
    ]
)

# Intervals that touch, coincide, nest or are disjoint.
DEGENERATE_INTERVALS = np.array([[0.0, 5.0], [5.0, 10.0], [0.0, 5.0], [1.0, 3.0], [20.0, 21.0]])


# The "backends" are the vectorised kernels and the scalar references in
# tubekit.geometry. Both use the same arithmetic, so the results are equal.


def test_backends_agree_on_iou_matrix():
    rng = np.random.default_rng(7)
    a = np.vstack([random_boxes(rng, 40), DEGENERATE_BOXES])
    b = np.vstack([random_boxes(rng, 30), DEGENERATE_BOXES])
    expected = [[spatial_iou(Box(*p), Box(*q)) for q in b] for p in a]
    np.testing.assert_array_equal(kernels.iou_matrix(a, b), expected)


def test_backends_agree_on_paired_iou():
    rng = np.random.default_rng(8)
    a = np.vstack([random_boxes(rng, 50), DEGENERATE_BOXES])
    b = np.vstack([random_boxes(rng, 50), DEGENERATE_BOXES[::-1]])
    expected = [spatial_iou(Box(*p), Box(*q)) for p, q in zip(a, b)]
    np.testing.assert_array_equal(kernels.paired_iou(a, b), expected)


def test_backends_agree_on_temporal_iou_matrix():
    rng = np.random.default_rng(9)
    a = np.vstack([random_intervals(rng, 25), DEGENERATE_INTERVALS])
    b = np.vstack([random_intervals(rng, 35), DEGENERATE_INTERVALS])
    expected = [[temporal_iou(Interval(*map(int, p)), Interval(*map(int, q))) for q in b] for p in a]
    np.testing.assert_array_equal(kernels.temporal_iou_matrix(a, b), expected)


def test_empty_inputs():
    no_boxes, one_box = np.zeros((0, 4)), np.array([[0.0, 0.0, 1.0, 1.0]])
    assert kernels.iou_matrix(no_boxes, no_boxes).shape == (0, 0)
    assert kernels.iou_matrix(one_box, no_boxes).shape == (1, 0)
    assert kernels.iou_matrix(no_boxes, one_box).shape == (0, 1)
    assert kernels.paired_iou(no_boxes, no_boxes).shape == (0,)
    assert kernels.temporal_iou_matrix(np.zeros((0, 2)), np.array([[0.0, 1.0]])).shape == (0, 1)


def test_paired_shape_mismatch():
    with pytest.raises(ValueError):
        kernels.paired_iou(np.array([[0.0, 0.0, 1.0, 1.0]]), np.array([[0.0, 0.0, 1.0, 1.0], [0.0, 0.0, 2.0, 2.0]]))


def test_degenerate_union_is_zero():
    a = np.array([[5.0, 5.0, 5.0, 5.0]])
    assert kernels.iou_matrix(a, a)[0, 0] == 0.0
