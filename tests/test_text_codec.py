"""The writers format each JSONL line as text. Every line must be the bytes
`json.dumps(record, sort_keys=True)` gives for the record the old dict
encoder built; that encoder is kept here as the reference. A NaN or infinity
must make a writer raise instead of writing `NaN`, which no reader accepts."""

import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import make_tubelet, write_tubelet_list
from tubekit import data_model
from tubekit.data_model import (
    ACTIVITY_CLASSES,
    BOX_KEYS,
    DETECTION_CLASSES,
    FRAME_LIMIT,
    OBJECT_CLASSES,
    ActivityInstance,
    VideoDetections,
    box_rows_text,
    instance_order,
    write_detections,
    write_instances,
)
from tubekit.geometry import Interval
from tubekit.linking import Track
from tubekit.proposals import SCORE_CLASSES
from tubekit.refinement import TubeletProposals, read_proposals, score_matrix, write_proposals

# -- the reference: the dict-per-row encoder the writers used before --------


def reference_encode_boxes(extent, boxes):
    keys = ("frame", *BOX_KEYS)
    return [dict(zip(keys, row)) for row in zip(extent.frames(), *boxes.T.tolist())]


def reference_track_record(t):
    return {
        "id": t.id,
        "video_id": t.video_id,
        "class": t.object_class,
        "start": t.extent.start,
        "end": t.extent.end,
        "boxes": reference_encode_boxes(t.extent, t.boxes),
    }


def reference_instance_record(inst):
    return {
        "video_id": inst.video_id,
        "activity": inst.activity,
        "start": inst.extent.start,
        "end": inst.extent.end,
        "confidence": inst.confidence,
        "boxes": reference_encode_boxes(inst.extent, inst.boxes),
    }


def reference_proposal_records(lines):
    """One record per line that holds a proposal, in the order given; each
    entry's scores map holds the classes its row does not hold as NaN."""
    records = []
    for line in lines:
        entries = []
        for k, p in enumerate(line):
            entry = {"proposal_id": p.id, "start": p.extent.start, "end": p.extent.end}
            if line.scores is not None:
                entry["scores"] = {c: float(v) for c, v in zip(SCORE_CLASSES, line.scores[k]) if not math.isnan(v)}
            entries.append(entry)
        if entries:
            records.append({**reference_track_record(line.track), "proposals": entries})
    return records


def reference_detection_records(videos):
    keys = ("video_id", "frame", *BOX_KEYS, "class", "score")
    recs = []
    for d in sorted(videos, key=lambda d: d.video_id):
        classes = [DETECTION_CLASSES[c] for c in d.classes.tolist()]
        for row in zip(d.frames.tolist(), *d.boxes.T.tolist(), classes, d.scores.tolist()):
            recs.append(dict(zip(keys, (d.video_id, *row))))
    return recs


def reference_text(records):
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def written(tmp_path, write, items):
    path = tmp_path / "out.jsonl"
    write(items, path)
    return path.read_text()


# -- strategies -------------------------------------------------------------

SPECIAL_FLOATS = (0.0, -0.0, 5e-324, -5e-324, 1.7976931348623157e308, -1.7976931348623157e308, 3.0, 1e16, 1e-7,
                  0.1, 1e15, 123456789.0, 2.5e-5, 1e22)
FRAME_MAX = 2**63 - 1

finite_floats = st.one_of(st.sampled_from(SPECIAL_FLOATS), st.floats(allow_nan=False, allow_infinity=False))
unit_floats = st.one_of(st.sampled_from((0.0, 1.0, 5e-324, 1e-7, 0.1)), st.floats(0.0, 1.0))
video_ids = st.one_of(st.sampled_from(("v0", "synth_0001")), st.text(max_size=6))


@st.composite
def tracks(draw, max_rows=6, frame_max=FRAME_MAX):
    """(start, (n,4) float64 boxes) with frames up to `frame_max`."""
    n = draw(st.integers(1, max_rows))
    start = draw(st.one_of(st.integers(0, 1000), st.integers(frame_max - 1000, frame_max - n + 1)))
    boxes = np.array(draw(st.lists(finite_floats, min_size=4 * n, max_size=4 * n)), dtype=np.float64).reshape(n, 4)
    return start, boxes


# -- the encoder ------------------------------------------------------------


@pytest.mark.parametrize("value", SPECIAL_FLOATS)
def test_special_values_encode_as_json_does(value):
    boxes = np.full((2, 4), value)
    for start in (0, FRAME_MAX - 1):
        extent = Interval(start, start + 2)
        text = "[" + ", ".join(box_rows_text(start, boxes)) + "]"
        assert text == json.dumps(reference_encode_boxes(extent, boxes), sort_keys=True)


@settings(max_examples=300, deadline=None)
@given(tracks())
def test_box_rows_equal_the_reference(track):
    start, boxes = track
    extent = Interval(start, start + len(boxes))
    text = "[" + ", ".join(box_rows_text(start, boxes)) + "]"
    assert text == json.dumps(reference_encode_boxes(extent, boxes), sort_keys=True)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(tracks(), st.sampled_from(OBJECT_CLASSES), video_ids, st.integers(0, 2**40), unit_floats),
                max_size=4))
def test_tubelet_and_proposal_lines_equal_the_reference(tmp_path, drawn):
    tubes = [Track(tid, video, cls, Interval(start, start + len(boxes)), boxes)
             for (start, boxes), cls, video, tid, _ in drawn]
    assert written(tmp_path, write_tubelet_list, tubes) == reference_text(
        reference_track_record(t) for t in sorted(tubes, key=lambda t: (t.video_id, t.id)))
    # a line is scored or not as a whole; even lines are scored
    props = []
    for i, (t, (*_, score)) in enumerate(zip(tubes, drawn)):
        n = min(2, t.extent.length)
        props.append(TubeletProposals(
            t, np.arange(10 * i, 10 * i + n), np.array([(t.extent.start + j, t.extent.length - j) for j in range(n)]),
            None if i % 2 else score_matrix([{"Riding": score, "non_action": 1.0 - score}, {"Talking": score}][:n])))
    assert written(tmp_path, write_proposals, props) == reference_text(reference_proposal_records(props))


score_rows = st.lists(st.one_of(st.just(math.nan), unit_floats), min_size=len(SCORE_CLASSES),
                      max_size=len(SCORE_CLASSES))


@st.composite
def proposal_lines(draw):
    """Up to 4 `TubeletProposals` with distinct (video_id, tubelet id): random
    tracks ending at FRAME_LIMIT or before, up to 4 windows each, proposal ids ascending in a line and unique
    in a video, and on a scored line scores with NaN gaps (a row may be all
    NaN)."""
    lines, next_id = [], {}
    for video_id, tubelet_id in draw(st.lists(st.tuples(video_ids, st.integers(0, 2**40)), max_size=4, unique=True)):
        (start, boxes), n = draw(tracks(frame_max=FRAME_LIMIT - 1)), draw(st.integers(0, 4))
        boxes[:, [0, 2]], boxes[:, [1, 3]] = np.sort(boxes[:, [0, 2]]), np.sort(boxes[:, [1, 3]])  # x1 <= x2, y1 <= y2
        track = Track(tubelet_id, video_id, draw(st.sampled_from(OBJECT_CLASSES)), Interval(start, start + len(boxes)),
                      boxes)
        offsets = draw(st.lists(st.integers(0, len(boxes) - 1), min_size=n, max_size=n))
        windows = [(start + k, draw(st.integers(1, len(boxes) - k))) for k in offsets]
        gaps = draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        ids = next_id.get(video_id, 0) + np.cumsum(np.array(gaps, dtype=np.int64))
        next_id[video_id] = int(ids[-1]) + 1 if n else next_id.get(video_id, 0)
        scores = np.array(draw(st.lists(score_rows, min_size=n, max_size=n))).reshape(n, len(SCORE_CLASSES)) if draw(
            st.booleans()) else None
        lines.append(TubeletProposals(track, ids, np.array(windows, dtype=np.int64).reshape(-1, 2), scores))
    return lines


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(proposal_lines())
def test_proposal_lines_round_trip(tmp_path, lines):
    # a line with no proposal is not written; the others read back in
    # (video_id, tubelet id) order, a NaN score a class left out
    write_proposals(lines, tmp_path / "p.jsonl")
    back = read_proposals(tmp_path / "p.jsonl")
    want = sorted((line for line in lines if len(line)), key=lambda line: (line.track.video_id, line.track.id))
    assert len(back) == len(want)
    for a, b in zip(want, back):
        assert (a.track.id, a.track.video_id, a.track.object_class, a.track.extent) == (
            b.track.id, b.track.video_id, b.track.object_class, b.track.extent)
        assert a.track.boxes.tobytes() == b.track.boxes.tobytes()
        assert (a.ids.tolist(), a.windows.tolist()) == (b.ids.tolist(), b.windows.tolist())
        assert b.ids.dtype == b.windows.dtype == np.int64
        assert (a.scores is None) == (b.scores is None)
        if a.scores is not None:
            gaps = np.isnan(a.scores)
            assert np.array_equal(gaps, np.isnan(b.scores))
            assert a.scores[~gaps].tobytes() == b.scores[~gaps].tobytes()  # -0.0 keeps its sign


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(st.tuples(st.sampled_from(("v1", "v0", "é")),
                          st.lists(st.tuples(st.integers(0, FRAME_MAX), finite_floats, finite_floats, finite_floats,
                                             finite_floats, unit_floats, st.integers(0, len(DETECTION_CLASSES) - 1)),
                                   min_size=1, max_size=5)),
                max_size=3, unique_by=lambda v: v[0]))
def test_detection_lines_equal_the_reference(tmp_path, drawn):
    videos = []
    for video, rows in drawn:
        frames, *coords, scores, classes = zip(*rows)
        videos.append(VideoDetections(video, np.array(frames, dtype=np.int64), np.array(coords).T.copy(),
                                      np.array(scores), np.array(classes, dtype=np.int64)))
    assert written(tmp_path, write_detections, videos) == reference_text(reference_detection_records(videos))


# -- instances, and rows shared between them --------------------------------


@st.composite
def instance_sets(draw):
    """Instances over a few owner arrays: row-slice views at any offset
    (several may share a row at different frames), whole arrays, copies."""
    owners = [draw(tracks(max_rows=8)) for _ in range(draw(st.integers(1, 3)))]
    out = []
    for _ in range(draw(st.integers(1, 6))):
        start, boxes = draw(st.sampled_from(owners))
        lo = draw(st.integers(0, len(boxes) - 1))
        hi = draw(st.integers(lo + 1, len(boxes)))
        rows = boxes[lo:hi] if draw(st.booleans()) else boxes[lo:hi].copy()
        first = start + lo if draw(st.integers(0, 3)) else draw(st.integers(0, 1000))
        out.append(ActivityInstance(draw(st.sampled_from(("v0", "v1"))), draw(st.sampled_from(ACTIVITY_CLASSES)),
                                    Interval(first, first + len(rows)), rows, draw(unit_floats)))
    return out


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(instance_sets())
def test_instance_lines_equal_the_reference(tmp_path, instances):
    assert written(tmp_path, write_instances, instances) == reference_text(
        reference_instance_record(i) for i in sorted(instances, key=instance_order))


def test_views_at_different_offsets_in_one_call(tmp_path):
    owner = np.arange(40, dtype=np.float64).reshape(10, 4) + 0.5
    views = [
        ActivityInstance("v0", "Riding", Interval(100, 104), owner[0:4], 0.9),
        ActivityInstance("v0", "Talking", Interval(102, 110), owner[2:10], 0.8),
        ActivityInstance("v0", "Pull", Interval(105, 107), owner[5:7], 0.7),
        # the same memory as the first instance, but other frames: no shared text
        ActivityInstance("v0", "Loading", Interval(7, 11), owner[0:4], 0.6),
        ActivityInstance("v1", "Riding", Interval(100, 110), owner, 0.5),
    ]
    text = written(tmp_path, write_instances, views)
    assert text == reference_text(reference_instance_record(i) for i in sorted(views, key=instance_order))
    lines = [json.loads(line) for line in text.splitlines()]
    assert [b["frame"] for b in lines[3]["boxes"]] == [7, 8, 9, 10]
    assert lines[1]["boxes"] == lines[4]["boxes"][2:]


@pytest.mark.parametrize("layout", ["fortran", "every-other-row", "columns-permuted", "reversed-rows", "from-flat",
                                    "int-memory"])
def test_non_contiguous_box_arrays(tmp_path, layout):
    base = np.arange(64, dtype=np.float64).reshape(16, 4) * 1.25
    boxes = {
        "fortran": np.asfortranarray(base[:8]),
        "every-other-row": base[::2],
        "columns-permuted": base[:8][:, [2, 3, 0, 1]],
        "reversed-rows": base[7::-1],
        "from-flat": base.ravel()[2:34].reshape(8, 4),  # rows start mid-row of the owner
        "int-memory": np.arange(32, dtype=np.int64).reshape(8, 4).copy().view(np.float64),  # owner of another dtype
    }[layout]
    instances = [ActivityInstance("v0", "Riding", Interval(3, 11), boxes, 0.5),
                 ActivityInstance("v0", "Pull", Interval(5, 9), boxes[2:6], 0.4),
                 ActivityInstance("v0", "Talking", Interval(0, 16), base, 0.3)]
    assert written(tmp_path, write_instances, instances) == reference_text(
        reference_instance_record(i) for i in sorted(instances, key=instance_order))


def test_instances_read_from_a_file_share_rows(tmp_path, monkeypatch):
    # the instances `fuse` makes from scored files view the box arrays the
    # reader decoded, and each of those arrays' rows is formatted once
    tubelets = [make_tubelet(np.arange(48, dtype=np.float64).reshape(12, 4) + k, start=3, tubelet_id=k)
                for k in range(2)]
    windows = np.array([(3, 12), (3, 6), (5, 6), (9, 6)])  # (start, length)
    props = [TubeletProposals(t, np.arange(len(windows) * k, len(windows) * (k + 1)), windows,
                              score_matrix([{"Riding": 0.5}] * len(windows))) for k, t in enumerate(tubelets)]
    write_proposals(props, tmp_path / "scored.jsonl")
    instances = [ActivityInstance(p.video_id, "Riding", p.extent, p.boxes, 0.1 * (1 + p.id % 4))
                 for line in read_proposals(tmp_path / "scored.jsonl") for p in line]
    calls = []

    def counted(*args):
        calls.append(args)
        return box_rows_text(*args)

    monkeypatch.setattr(data_model, "box_rows_text", counted)
    assert written(tmp_path, write_instances, instances) == reference_text(
        reference_instance_record(i) for i in sorted(instances, key=instance_order))
    assert len(calls) == len(tubelets)


# -- non-finite values raise ------------------------------------------------


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_values_raise(tmp_path, bad):
    boxes = np.tile([0.0, 0.0, 10.0, 10.0], (3, 1))
    boxes[1, 2] = bad
    with pytest.raises(ValueError, match="non-finite"):
        write_instances([ActivityInstance("v0", "Riding", Interval(0, 3), boxes, 0.5)], tmp_path / "i.jsonl")
    with pytest.raises(ValueError, match="non-finite"):
        write_tubelet_list([make_tubelet(boxes)], tmp_path / "t.jsonl")
    if not math.isnan(bad):  # a NaN in a score matrix marks a class left out
        props = [TubeletProposals(make_tubelet(boxes[[0, 0, 0]]), np.array([0]), np.array([[0, 3]]),
                                  score_matrix([{"Riding": bad}]))]
        with pytest.raises(ValueError):
            write_proposals(props, tmp_path / "p.jsonl")
    frames, scores, classes = np.arange(3), np.full(3, 0.5), np.zeros(3, dtype=np.int64)
    with pytest.raises(ValueError, match="non-finite"):
        write_detections([VideoDetections("v0", frames, boxes, scores, classes)], tmp_path / "d.jsonl")
    with pytest.raises(ValueError, match="non-finite"):
        write_detections([VideoDetections("v0", frames, boxes[[0, 0, 0]], np.array([0.5, bad, 0.5]), classes)],
                         tmp_path / "d.jsonl")
