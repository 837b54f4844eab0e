import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from tubekit.errors import InvalidInputError
from tubekit.geometry import Box, Interval, spatial_iou, temporal_iou


class TestBox:
    def test_inverted_rejected(self):
        with pytest.raises(InvalidInputError):
            Box(10, 0, 5, 10)

    def test_non_finite_rejected(self):
        with pytest.raises(InvalidInputError):
            Box(0, 0, math.inf, 10)
        with pytest.raises(InvalidInputError):
            Box(0, math.nan, 10, 10)

    def test_degenerate_area_zero(self):
        assert Box(5, 5, 5, 10).area() == 0.0


class TestInterval:
    def test_empty_rejected(self):
        with pytest.raises(InvalidInputError):
            Interval(5, 5)
        with pytest.raises(InvalidInputError):
            Interval(6, 5)

    def test_length(self):
        assert Interval(3, 10).length == 7


class TestSpatialIou:
    def test_identity(self):
        assert spatial_iou(Box(0, 0, 10, 10), Box(0, 0, 10, 10)) == 1.0

    def test_disjoint(self):
        assert spatial_iou(Box(0, 0, 10, 10), Box(20, 20, 30, 30)) == 0.0

    def test_half_overlap(self):
        # intersection 50, union 150
        assert spatial_iou(Box(0, 0, 10, 10), Box(5, 0, 15, 10)) == pytest.approx(1 / 3)

    def test_two_degenerate_boxes(self):
        assert spatial_iou(Box(5, 5, 5, 5), Box(5, 5, 5, 5)) == 0.0


class TestTemporalIou:
    def test_identity(self):
        assert temporal_iou(Interval(0, 10), Interval(0, 10)) == 1.0

    def test_touching_half_open(self):
        assert temporal_iou(Interval(0, 10), Interval(10, 20)) == 0.0

    def test_partial(self):
        assert temporal_iou(Interval(0, 10), Interval(5, 15)) == pytest.approx(1 / 3)


boxes = st.tuples(
    st.floats(-100, 100), st.floats(-100, 100), st.floats(0, 100), st.floats(0, 100)
).map(lambda t: Box(t[0], t[1], t[0] + t[2], t[1] + t[3]))

intervals = st.tuples(st.integers(-50, 50), st.integers(1, 100)).map(
    lambda t: Interval(t[0], t[0] + t[1])
)


@given(boxes, boxes)
def test_spatial_iou_symmetric_unit_range(a, b):
    v = spatial_iou(a, b)
    assert v == spatial_iou(b, a)
    assert 0.0 <= v <= 1.0


@given(boxes, st.floats(-50, 50), st.floats(-50, 50))
def test_spatial_iou_translation_invariant(a, dx, dy):
    b = Box(a.x1 + 3, a.y1 + 3, a.x2 + 3, a.y2 + 3)
    shifted_a = Box(a.x1 + dx, a.y1 + dy, a.x2 + dx, a.y2 + dy)
    shifted_b = Box(b.x1 + dx, b.y1 + dy, b.x2 + dx, b.y2 + dy)
    assert spatial_iou(a, b) == pytest.approx(spatial_iou(shifted_a, shifted_b), abs=1e-9)


@given(intervals, intervals)
def test_temporal_iou_symmetric_unit_range(a, b):
    v = temporal_iou(a, b)
    assert v == temporal_iou(b, a)
    assert 0.0 <= v <= 1.0
    if v == 1.0:
        assert a == b
