"""The column paths over tubelet tables against the per-object loops they
replaced: `read_tubelets` against a reader that builds one `Track` per
line, and `filter_static`, the `refine` frame-range check and
`tubelet_recall` against loops over `Track` views.

The tables are random: several videos, ids that are not contiguous,
tubelets of 1 to 50 rows on a coarse grid (so centre steps and coverages
tie and land exactly on thresholds), and references inside and outside each
video.
"""

import json
import math
import re

import numpy as np
import pytest
from conftest import box_rows, linked, make_tubelet, tubelet_line
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubekit import cli, linking
from tubekit.data_model import (
    DETECTION_CLASSES,
    ActivityInstance,
    VideoMeta,
    extent_field,
    int_field,
    read_records,
    require_numbers,
    str_field,
    write_jsonl,
)
from tubekit.errors import InvalidInputError, ParseError
from tubekit.evaluation import RecallCurve, tubelet_recall
from tubekit.geometry import Interval, mean_center_step, mean_center_steps
from tubekit.linking import LinkedTubelets, Track, VideoTubelets, tubelet_key
from tubekit.proposals import tubelet_spatial_iou
from tubekit.refinement import RefineConfig, filter_static

# ---------------------------------------------------------------------------
# the per-object references


def bad_boxes(boxes):
    """(n,) bool: the rows of an (n,4) box array that are non-finite or inverted."""
    return ~np.isfinite(boxes).all(axis=1) | (boxes[:, 0] > boxes[:, 2]) | (boxes[:, 1] > boxes[:, 3])


def reference_tubelet_from_record(rec):
    """The `Track` of a parsed tubelets.jsonl line, made as the reader did
    before it filled column tables: every field checked in field order, the
    boxes through one numpy array."""
    extent = extent_field(rec)
    rows = sorted(rec["boxes"], key=lambda r: int_field(r, "frame"))
    if [int_field(r, "frame") for r in rows] != list(extent.frames()):
        raise InvalidInputError(f"boxes must hold each frame of [{extent.start}, {extent.end}) once")
    values = [r[k] for r in rows for k in ("x1", "y1", "x2", "y2")]
    require_numbers(values, "box coordinates")
    boxes = np.empty((len(rows), 4))
    boxes.reshape(-1)[:] = values
    bad = bad_boxes(boxes)
    if bad.any():
        raise InvalidInputError(f"non-finite or inverted box at frame {extent.start + int(np.argmax(bad))}")
    return Track(int_field(rec, "id"), str_field(rec, "video_id"), str_field(rec, "class"), extent, boxes)


def reference_read_tubelets(path):
    """A tubelets file as `Track`s in (video_id, id) order, one per line."""
    tubelets = read_records(path, "tubelet", reference_tubelet_from_record,
                            lambda t: [tubelet_key(t.video_id, t.id)])
    return sorted(tubelets, key=lambda t: (t.video_id, t.id))


def reference_mean_center_step(boxes):
    if len(boxes) < 2:
        return 0.0
    cx = 0.5 * (boxes[:, 0] + boxes[:, 2])
    cy = 0.5 * (boxes[:, 1] + boxes[:, 3])
    total = 0.0
    for step_x, step_y in zip((cx[1:] - cx[:-1]).tolist(), (cy[1:] - cy[:-1]).tolist()):
        total += math.hypot(step_x, step_y)
    return total / (len(boxes) - 1)


def reference_filter_static(tubelets, config=RefineConfig()):
    kept = [t for t in tubelets if reference_mean_center_step(t.boxes) >= config.coord_displacement_min]
    return kept, len(tubelets) - len(kept)


def reference_check_frame_range(tubelets, metas):
    for t in tubelets:
        meta, extent = metas.get(t.video_id), t.extent
        if meta is None:
            raise InvalidInputError(f"tubelet references unknown video_id {t.video_id!r}")
        if extent.end > meta.frame_count:
            raise InvalidInputError(
                f"video {t.video_id!r}: tubelet extent [{extent.start}, {extent.end}) ends at frame "
                f"{extent.end - 1}, outside its frame_count {meta.frame_count}"
            )


def reference_tubelet_recall(tubelets, instances, thresholds):
    thresholds = sorted(thresholds)
    by_video = {}
    for t in tubelets:
        by_video.setdefault(t.video_id, []).append(t)
    coverage = []
    for inst in instances:
        best, ref = 0.0, inst.extent
        for tub in by_video.get(inst.video_id, []):
            cover = max(min(tub.extent.end, ref.end) - max(tub.extent.start, ref.start), 0) / ref.length
            if cover <= best:
                continue
            best = max(best, min(cover, tubelet_spatial_iou(tub, inst)))
        coverage.append(best)
    recall = tuple(sum(1 for c in coverage if c > tau) / len(coverage) for tau in thresholds)
    return RecallCurve(tuple(thresholds), recall)


# ---------------------------------------------------------------------------
# random tables


def random_tables(rng, videos=("v0", "v1", "v2"), max_tubelets=12, max_length=50, frames=120):
    """One `VideoTubelets` per video, in id order with rows back to back: ids
    spread out, boxes on a half-pixel grid that stand still, move by exactly
    0.5 px a frame in x or y, or wander."""
    tables = []
    for video_id in videos:
        t = int(rng.integers(1, max_tubelets + 1))
        ids = np.sort(rng.choice(10**6, size=t, replace=False)).astype(np.int64)
        lengths = rng.integers(1, max_length + 1, size=t)
        starts = rng.integers(0, frames, size=t)
        boxes = []
        for n in lengths.tolist():
            x, y, w, h = (float(v) * 0.5 for v in rng.integers(0, 200, size=4))
            motion = rng.integers(4)
            k = np.arange(n, dtype=np.float64)[:, None]
            if motion == 0:
                step = np.zeros((n, 2))
            elif motion == 1:
                step = np.concatenate((0.5 * k, 0.0 * k), axis=1)
            elif motion == 2:
                step = np.concatenate((0.0 * k, 0.5 * k), axis=1)
            else:
                step = np.cumsum(rng.integers(-2, 3, size=(n, 2)) * 0.5, axis=0)
            boxes.append(np.concatenate((step + (x, y), step + (x + w, y + h)), axis=1))
        tables.append(VideoTubelets(
            video_id, starts.astype(np.int64), lengths.astype(np.int64),
            rng.integers(0, len(DETECTION_CLASSES), size=t).astype(np.int64),
            np.cumsum(lengths) - lengths, np.concatenate(boxes), ids))
    return LinkedTubelets(tables)


def random_instances(rng, videos, count=12, frames=150):
    """References of the videos and of one video no tubelet has, some past
    the frames the tubelets reach, on the same half-pixel grid."""
    out = []
    for _ in range(count):
        video_id = str(rng.choice(list(videos) + ["elsewhere"]))
        start = int(rng.integers(0, frames))
        end = start + int(rng.integers(1, 60))
        x, y = (float(v) * 0.5 for v in rng.integers(0, 200, size=2))
        k = np.arange(end - start, dtype=np.float64)[:, None] * 0.5 * rng.integers(0, 2)
        boxes = np.concatenate((k + (x, y), k + (x + 20.0, y + 20.0)), axis=1)
        out.append(ActivityInstance(video_id, "Riding", Interval(start, end), boxes))
    return out


def columns_of(table):
    """A table's tubelet columns in id order, and each tubelet's rows."""
    rows = [table.boxes[lo:lo + n].tobytes() for lo, n in zip(table.firsts.tolist(), table.lengths.tolist())]
    return (table.video_id, table.ids.tolist(), table.starts.tolist(), table.lengths.tolist(),
            table.classes.tolist(), rows)


def write_lines(path, recs):
    write_jsonl((json.dumps(rec) for rec in recs), path)


# ---------------------------------------------------------------------------
# read_tubelets


class TestReadTubelets:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_written_columns_read_back_exactly(self, tmp_path, seed, data):
        rng = np.random.default_rng(seed)
        tubes = random_tables(rng, max_length=8)
        recs = [json.loads(tubelet_line(t)) for t in tubes]
        for rec in recs:
            rng.shuffle(rec["boxes"])  # rows in any order
            # integral floats name the same frames and id
            for target, key in ((rec, "start"), (rec, "end"), (rec, "id"), (rec["boxes"][0], "frame")):
                if data.draw(st.booleans()):
                    target[key] = float(target[key])
        order = data.draw(st.permutations(range(len(recs))))
        path = tmp_path / "tubelets.jsonl"
        write_lines(path, [recs[k] for k in order])

        back = linking.read_tubelets(path)
        assert [t.video_id for t in back.tables] == [t.video_id for t in tubes.tables]
        for got, want in zip(back.tables, tubes.tables):
            assert got.boxes.dtype == want.boxes.dtype and got.ids.dtype == want.ids.dtype
            assert columns_of(got) == columns_of(want)
            assert not got.boxes.flags.writeable
        # and the same `Track`s as one per line
        ref = reference_read_tubelets(path)
        assert [(t.video_id, t.id, t.object_class, t.extent, t.boxes.tobytes()) for t in back] == [
            (t.video_id, t.id, t.object_class, t.extent, t.boxes.tobytes()) for t in ref]

    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(seed=st.integers(0, 2**32 - 1), data=st.data())
    def test_a_bad_box_on_a_late_row_names_its_line(self, tmp_path, seed, data):
        # a table read into shared columns must still map a bad row to its line
        rng = np.random.default_rng(seed)
        recs = [json.loads(tubelet_line(t)) for t in random_tables(rng, max_tubelets=4, max_length=12)]
        long_lines = [k for k, rec in enumerate(recs) if k >= 2 and len(rec["boxes"]) >= 2]
        if not long_lines:
            return
        k = data.draw(st.sampled_from(long_lines))
        row = recs[k]["boxes"][data.draw(st.integers(1, len(recs[k]["boxes"]) - 1))]
        bad = data.draw(st.sampled_from([{"x1": row["x2"] + 1.0}, {"y2": row["y1"] - 0.5}, {"x2": float("inf")},
                                         {"y1": float("nan")}]))
        row.update(bad)
        path = tmp_path / "tubelets.jsonl"
        write_lines(path, recs)
        with pytest.raises(ParseError) as got:
            linking.read_tubelets(path)
        with pytest.raises(ParseError) as want:
            reference_read_tubelets(path)
        assert str(got.value) == str(want.value)
        assert re.match(f"^{re.escape(str(path))}:{k + 1}: invalid tubelet: non-finite or inverted box at frame "
                        f"{row['frame']}$", str(got.value))

    def test_an_id_or_frame_past_int64_is_a_parse_error(self, tmp_path):
        recs = [json.loads(tubelet_line(t)) for t in random_tables(np.random.default_rng(3), videos=("v0",))]
        recs[-1]["id"] = 2**63
        path = tmp_path / "tubelets.jsonl"
        write_lines(path, recs)
        with pytest.raises(ParseError, match=f":{len(recs)}: invalid tubelet"):
            linking.read_tubelets(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "tubelets.jsonl"
        path.write_text("")
        back = linking.read_tubelets(path)
        assert len(back) == 0 and back.tables == [] and list(back) == []


# ---------------------------------------------------------------------------
# the column paths of refine and eval-recall


SEEDS = range(40)


@pytest.mark.parametrize("minimum", [0.0, 0.5, 0.75])
def test_filter_static_equals_the_per_tubelet_loop(minimum):
    config = RefineConfig(coord_displacement_min=minimum)
    kept_any = removed_any = 0
    for seed in SEEDS:
        tubes = random_tables(np.random.default_rng(seed))
        kept, removed = filter_static(tubes, config)
        want, want_removed = reference_filter_static(list(tubes), config)
        assert [(t.video_id, t.id) for t in kept] == [(t.video_id, t.id) for t in want]
        assert removed == want_removed
        assert all(type(t) is Track for t in kept)
        kept_any += len(kept)
        removed_any += removed
    assert kept_any and (removed_any or minimum == 0.0)


def test_mean_center_steps_equal_one_track_at_a_time():
    # real-valued boxes, whose steps math.hypot and numpy's hypot round apart
    # now and then, and tracks whose rows are not in track order
    # (a two-row track's mean is its one step, so most tracks are short)
    rng = np.random.default_rng(0)
    for scale in (0.01, 1.0, 100.0, 1e6):
        lengths = rng.choice([1, 2, 2, 3, 50], size=1000)
        boxes = rng.normal(size=(int(lengths.sum()), 4)) * scale
        order = rng.permutation(len(lengths))
        firsts, lengths = (np.cumsum(lengths) - lengths)[order], lengths[order]
        means = mean_center_steps(boxes, firsts, lengths)
        assert means.tolist() == [reference_mean_center_step(boxes[lo:lo + n]) for lo, n in zip(firsts, lengths)]
        assert mean_center_step(boxes) == reference_mean_center_step(boxes)


def test_frame_range_check_equals_the_per_tubelet_loop(tmp_path):
    # the one frame-range check, as `refine` makes it on a table's columns
    m = cli.Manifest("refine", cli.Config())

    def refine(tubelets, metas):
        cli.refine(m, tubelets, metas, tmp_path / "proposals.jsonl")

    failed = passed = 0
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        tubes = random_tables(rng)
        ends = {t.video_id: int((t.starts + t.lengths).max()) for t in tubes.tables}
        metas = {v: VideoMeta(v, end + int(rng.integers(-2, 4)), 30.0, 100.0, 100.0)
                 for v, end in ends.items() if rng.random() < 0.95}

        def outcome(check, tubelets):
            try:
                check(tubelets, metas)
            except InvalidInputError as exc:
                return str(exc)
            return None

        got = outcome(refine, tubes)
        assert got == outcome(reference_check_frame_range, list(tubes))
        failed += got is not None
        passed += got is None
    assert failed and passed


def test_tubelet_recall_equals_the_per_tubelet_loop():
    thresholds = [0.1, 0.25, 0.5, 0.75, 0.9]
    for seed in SEEDS:
        rng = np.random.default_rng(seed)
        tubes = random_tables(rng, frames=100)
        instances = random_instances(rng, [t.video_id for t in tubes.tables])
        # references that copy a tubelet's rows, so some are covered exactly
        for t in list(tubes)[:: max(1, len(tubes) // 4)]:
            instances.append(ActivityInstance(t.video_id, "Pull", t.extent, t.boxes))
        assert tubelet_recall(tubes, instances, thresholds) == reference_tubelet_recall(list(tubes), instances,
                                                                                        thresholds)


def test_tubelet_recall_scores_only_candidates_it_needs(monkeypatch):
    # one reference and many tubelets over part of it: the one that matches
    # it exactly covers it wholly, so no other tubelet is scored
    made = []
    ref = ActivityInstance("v0", "Riding", Interval(10, 40), box_rows((0, 0, 10, 10), 30))
    tubes = [make_tubelet(box_rows((0, 0, 10, 10), 8), start=s, tubelet_id=2 * s) for s in range(0, 60, 3)]
    tubes.insert(5, make_tubelet(ref.boxes, start=10, tubelet_id=1))

    class Counted(Track):
        def __post_init__(self):
            made.append(self.id)
            super().__post_init__()

    monkeypatch.setattr(linking, "Track", Counted)
    assert tubelet_recall(linked(tubes), [ref], [0.5]).recall == (1.0,)
    assert made == [1]
