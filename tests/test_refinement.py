import numpy as np
import pytest
from conftest import box_rows, make_tubelet

from tubekit.errors import InvalidInputError
from tubekit.geometry import Interval
from tubekit.refinement import (
    RefineConfig,
    filter_static,
    jitter,
    make_proposals,
    motion_stats,
    normalize_boxes,
    sample_frames,
)


def moving_tubelet(length, step=2.0, w=10.0, start_x=50.0):
    return make_tubelet([[start_x + step * f, 50, start_x + step * f + w, 50 + w] for f in range(length)])


class TestMotionStats:
    def test_static(self):
        t = make_tubelet(box_rows((0, 0, 10, 10), 5))
        s = motion_stats(t)
        assert (s.flow_max, s.flow_mean, s.coord_displacement) == (0.0, 0.0, 0.0)

    def test_constant_motion(self):
        s = motion_stats(moving_tubelet(10, step=2.0))
        assert s.coord_displacement == pytest.approx(2.0)

    def test_length_one(self):
        assert motion_stats(moving_tubelet(1)).coord_displacement == 0.0

    def test_flow_source(self):
        t = moving_tubelet(4)
        s = motion_stats(t, motion_source=lambda vid, f: float(f))
        assert s.flow_max == 3.0
        assert s.flow_mean == pytest.approx(1.5)
        assert s.flow_max >= s.flow_mean >= 0.0


class TestFilterStatic:
    def test_static_removed(self):
        static = make_tubelet(box_rows((0, 0, 10, 10), 5))
        kept, removed = filter_static([static])
        assert kept == [] and removed == 1

    def test_mover_kept(self):
        kept, removed = filter_static([moving_tubelet(10, step=2.0)])
        assert len(kept) == 1 and removed == 0

    def test_empty(self):
        assert filter_static([]) == ([], 0)

    def test_idempotent_and_order_preserving(self):
        tubes = [moving_tubelet(10, step=2.0, start_x=10.0), moving_tubelet(10, step=3.0, start_x=300.0)]
        once, _ = filter_static(tubes)
        twice, removed = filter_static(once)
        assert twice == once and removed == 0

    def test_flow_channel_can_rescue(self):
        static = make_tubelet(box_rows((0, 0, 10, 10), 5))
        kept, _ = filter_static([static], motion_source=lambda vid, f: 5.0)
        assert kept == [static]


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

    def test_factor_below_one_rejected(self, frame_size):
        t = make_tubelet([[100, 100, 110, 110]])
        with pytest.raises(InvalidInputError):
            normalize_boxes(t, *frame_size, enlarge_factor=0.9)


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


class TestSampleFrames:
    def test_repeats_when_short(self):
        assert sample_frames(4, 8) == [0, 0, 1, 1, 2, 2, 3, 3]

    def test_identity_when_equal(self):
        assert sample_frames(8, 8) == list(range(8))

    def test_stride_two(self):
        assert sample_frames(16, 8) == [0, 2, 4, 6, 8, 10, 12, 14]

    def test_properties(self):
        for length in (1, 3, 63, 64, 65, 500):
            out = sample_frames(length, 64)
            assert len(out) == 64
            assert out[0] == 0
            assert out == sorted(out)
            assert all(0 <= i < length for i in out)

    def test_invalid(self):
        with pytest.raises(InvalidInputError):
            sample_frames(0, 8)


class TestMakeProposals:
    def test_sampled_frames_inside_window(self, frame_size):
        t = moving_tubelet(100)
        props = make_proposals(t, *frame_size)
        for p in props:
            assert len(p.sampled_frames) == 64
            assert all(p.window.start <= f < p.window.end for f in p.sampled_frames)
            assert p.boxes.shape == (p.window.length, 4)
            # boxes are rows of the one shared normalised tubelet, not copies
            assert p.tubelet is props[0].tubelet
            assert np.shares_memory(p.boxes, p.tubelet.boxes)
            offset = p.window.start - p.tubelet.extent.start
            assert np.array_equal(p.boxes, p.tubelet.boxes[offset:offset + p.window.length])

    def test_ids_sequential(self, frame_size):
        t = moving_tubelet(100)
        props = make_proposals(t, *frame_size, id_start=7)
        assert [p.proposal_id for p in props] == list(range(7, 7 + len(props)))
