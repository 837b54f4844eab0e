import numpy as np
import pytest
from conftest import box_rows, linked, make_tubelet

from tubekit.errors import InvalidInputError
from tubekit.geometry import Interval, mean_center_step
from tubekit.linking import Track
from tubekit.refinement import (
    RefineConfig,
    filter_static,
    jitter,
    make_proposals,
    normalize_boxes,
)


def moving_tubelet(length, step=2.0, w=10.0, start_x=50.0):
    return make_tubelet([[start_x + step * f, 50, start_x + step * f + w, 50 + w] for f in range(length)])


class TestMotionStats:
    def test_static(self):
        assert mean_center_step(make_tubelet(box_rows((0, 0, 10, 10), 5)).boxes) == 0.0

    def test_constant_motion(self):
        assert mean_center_step(moving_tubelet(10, step=2.0).boxes) == pytest.approx(2.0)

    def test_length_one(self):
        assert mean_center_step(moving_tubelet(1).boxes) == 0.0


class TestFilterStatic:
    def test_static_removed(self):
        static = make_tubelet(box_rows((0, 0, 10, 10), 5))
        kept, removed = filter_static(linked([static]))
        assert kept == [] and removed == 1

    def test_mover_kept(self):
        kept, removed = filter_static(linked([moving_tubelet(10, step=2.0)]))
        assert len(kept) == 1 and removed == 0

    def test_empty(self):
        assert filter_static(linked([])) == ([], 0)

    def test_idempotent_and_order_preserving(self):
        tubes = [moving_tubelet(10, step=2.0, start_x=10.0), moving_tubelet(10, step=3.0, start_x=300.0)]
        once, _ = filter_static(linked(tubes))
        twice, removed = filter_static(linked(once))
        fields = [[(t.id, t.extent, t.boxes.tolist()) for t in kept] for kept in (tubes, once, twice)]
        assert fields[0] == fields[1] == fields[2] and removed == 0


class TestNormalizeBoxes:
    def test_max_extension(self, frame_size):
        t = make_tubelet([[100, 100, 110, 110], [100, 100, 120, 110]])
        out = normalize_boxes(t, *frame_size, enlarge_factor=1.0)
        assert (out.boxes[:, 2] - out.boxes[:, 0]).tolist() == [20, 20]
        assert (out.boxes[:, 3] - out.boxes[:, 1]).tolist() == [10, 10]

    def test_uniform_boxes_enlarged(self, frame_size):
        t = make_tubelet(box_rows((100, 100, 110, 110), 3))
        out = normalize_boxes(t, *frame_size, enlarge_factor=1.2)
        assert out.boxes[:, 2] - out.boxes[:, 0] == pytest.approx([12] * 3)
        assert out.boxes[:, 3] - out.boxes[:, 1] == pytest.approx([12] * 3)

    def test_single_frame_identity(self, frame_size):
        t = make_tubelet([[100, 100, 110, 110]])
        out = normalize_boxes(t, *frame_size, enlarge_factor=1.0)
        assert np.array_equal(out.boxes, t.boxes)

    def test_double_apply_equals_single(self, frame_size):
        t = make_tubelet([[100, 100, 110, 110], [100, 100, 130, 125]])
        once = normalize_boxes(t, *frame_size, 1.2)
        twice = normalize_boxes(once, *frame_size, 1.0)
        assert np.array_equal(twice.boxes, once.boxes)

    def test_factor_below_one_rejected(self):
        # the config rejects the factor before any box is normalised
        with pytest.raises(InvalidInputError):
            RefineConfig(enlarge_factor=0.9)


class TestJitter:
    def test_sliding_with_tail(self):
        t = moving_tubelet(40)
        cfg = RefineConfig(window_sizes=(32,), window_stride=16)
        assert jitter(t, cfg) == [Interval(0, 32), Interval(8, 40)]

    def test_short_tubelet_dedup(self):
        t = moving_tubelet(20)
        windows = jitter(t, RefineConfig())
        assert windows == [Interval(0, 20)]

    def test_exact_fit(self):
        t = moving_tubelet(256)
        cfg = RefineConfig(window_sizes=(256,), window_stride=16)
        assert jitter(t, cfg) == [Interval(0, 256)]

    def test_union_covers_tubelet(self):
        for length in (1, 17, 33, 100, 300):
            t = moving_tubelet(length)
            covered = set()
            for w in jitter(t, RefineConfig()):
                covered.update(w.frames())
            assert covered == set(range(length))

    def test_windows_absolute_for_offset_tubelet(self):
        t = make_tubelet([[2.0 * f, 50, 2.0 * f + 10, 60] for f in range(100, 140)], start=100)
        cfg = RefineConfig(window_sizes=(32,), window_stride=16)
        assert jitter(t, cfg) == [Interval(100, 132), Interval(108, 140)]


class TestMakeProposals:
    def test_windows_view_one_normalised_track(self, frame_size):
        t = moving_tubelet(100)
        line = make_proposals(t, *frame_size)
        # the normalised track keeps the tubelet's identity, as a new `Track`
        assert type(line.track) is Track
        assert (line.track.id, line.track.extent) == (t.id, t.extent)
        assert line.scores is None
        assert [[w.start, w.length] for w in jitter(line.track)] == line.windows.tolist()
        for p, window in zip(line, line.windows.tolist()):
            # a proposal is a `Track` of its id and window
            assert type(p) is Track and (p.video_id, p.object_class) == (t.video_id, t.object_class)
            assert [p.extent.start, p.extent.length] == window
            assert p.boxes.shape == (p.extent.length, 4)
            # boxes are rows of the one shared normalised tubelet, not copies
            assert np.shares_memory(p.boxes, line.track.boxes)
            offset = p.extent.start - line.track.extent.start
            assert np.array_equal(p.boxes, line.track.boxes[offset:offset + p.extent.length])

    def test_ids_sequential(self, frame_size):
        t = moving_tubelet(100)
        line = make_proposals(t, *frame_size, id_start=7)
        assert line.ids.dtype == np.int64
        assert [p.id for p in line] == line.ids.tolist() == list(range(7, 7 + len(line)))
