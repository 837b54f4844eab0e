import json
import math
import re
from collections import Counter

import numpy as np
import pytest
from conftest import box_rows
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubekit import data_model as dm
from tubekit.errors import InvalidInputError, ParseError
from tubekit.geometry import Interval


def det_line(cls="person", frame=0, score=0.9):
    return (
        f'{{"video_id": "v0", "frame": {frame}, "x1": 0, "y1": 0, "x2": 10, "y2": 10, '
        f'"class": "{cls}", "score": {score}}}\n'
    )


class TestReadDetections:
    def test_singleton(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line())
        videos, dropped = dm.read_detections(p)
        assert list(videos) == ["v0"] and len(videos["v0"]) == 1
        assert dm.DETECTION_CLASSES[videos["v0"].classes[0]] == "person"
        assert videos["v0"].boxes.tolist() == [[0.0, 0.0, 10.0, 10.0]]  # JSON integers read as floats
        assert videos["v0"].boxes.dtype == np.float64
        assert dropped == {}

    def test_unknown_class_dropped_and_counted(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line() + det_line(cls="dog"))
        videos, dropped = dm.read_detections(p)
        assert len(videos["v0"]) == 1
        assert dropped == {"dog": 1}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        assert dm.read_detections(p) == ({}, {})

    def test_rows_sorted_by_frame_box_then_descending_score(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line(frame=1) + det_line(frame=0, score=0.5) + det_line(frame=0, score=0.7))
        videos, _ = dm.read_detections(p)
        assert videos["v0"].frames.tolist() == [0, 0, 1]
        assert videos["v0"].scores.tolist() == [0.7, 0.5, 0.9]

    def test_malformed_line_reports_number(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line() + "{not json\n")
        with pytest.raises(ParseError) as exc:
            dm.read_detections(p)
        assert exc.value.line == 2

    def test_missing_key(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text('{"video_id": "v0", "frame": 0}\n')
        with pytest.raises(ParseError):
            dm.read_detections(p)

    def test_score_out_of_range(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line(score=1.5))
        with pytest.raises(ParseError):
            dm.read_detections(p)


def text_mode_lines(path):
    """The (line number, record or None if json.loads rejects it) pairs of the
    non-blank lines a text-mode reader splits the file into."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if line.strip():
                try:
                    yield lineno, json.loads(line.strip())
                except ValueError:
                    yield lineno, None


class TestReadJsonl:
    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(parts=st.lists(st.tuples(st.text(alphabet="a \t\x85\u2028\u00e9\U0001f600", max_size=4),
                                    st.sampled_from(["\n", "\r\n", "\r", "\r\r\n", "\n\r", " \r", "\t\n",
                                                     "\n\n", " ", ""])),
                          max_size=8))
    def test_splits_lines_as_text_mode_does(self, tmp_path, parts):
        # the records hold characters str.splitlines breaks at, raw; a file
        # breaks only at "\n", "\r\n" and a lone "\r"
        p = tmp_path / "r.jsonl"
        p.write_bytes("".join(json.dumps({"k": s}, ensure_ascii=False) + sep for s, sep in parts).encode("utf-8"))
        want = list(text_mode_lines(p))
        bad = [lineno for lineno, rec in want if rec is None]
        if bad:
            with pytest.raises(ParseError) as exc:
                list(dm.read_jsonl(p))
            assert exc.value.line == bad[0]
        else:
            assert list(dm.read_jsonl(p)) == want

    def test_invalid_utf8_names_its_line(self, tmp_path):
        p = tmp_path / "r.jsonl"
        p.write_bytes(b'{"k": 1}\r{"k": 2}\r\n\n{"k": "\xff"}\n{"k": 3}\n')
        with pytest.raises(ParseError, match="can't decode byte 0xff") as exc:
            list(dm.read_jsonl(p))
        assert exc.value.line == 4


def make_instance(activity="Riding", start=0, end=10, video_id="v0"):
    return dm.ActivityInstance(video_id, activity, Interval(start, end), box_rows((0, 0, 10, 10), end - start), 1.0)


class TestInstances:
    def test_round_trip(self, tmp_path):
        p = tmp_path / "gt.jsonl"
        instances = [make_instance(), make_instance(activity="Loading", start=5, end=20)]
        dm.write_instances(instances, p)
        back = dm.read_ground_truth(p)
        fields = lambda i: (i.video_id, i.activity, i.extent, i.confidence, i.boxes.tolist())  # noqa: E731
        assert sorted(map(fields, back)) == sorted(map(fields, instances))

    def test_unknown_activity_rejected(self):
        with pytest.raises(InvalidInputError, match="unknown activity class: 'Swimming'") as exc:
            make_instance(activity="Swimming")
        assert "Swimming" in str(exc.value)

    def test_sparse_boxes_rejected(self):
        # one box short of the 10-frame extent
        with pytest.raises(InvalidInputError):
            dm.ActivityInstance("v0", "Riding", Interval(0, 10), box_rows((0, 0, 10, 10), 9), 1.0)

    def test_empty_write(self, tmp_path):
        p = tmp_path / "gt.jsonl"
        dm.write_instances([], p)
        assert p.read_text() == ""
        assert dm.read_instances(p) == []

    def test_byte_stable(self, tmp_path):
        instances = [make_instance(start=i, end=i + 10) for i in range(50)]
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        dm.write_instances(instances, a)
        dm.write_instances(instances, b)
        assert a.read_bytes() == b.read_bytes()


class TestDetectionRoundTrip:
    def test_round_trip(self, tmp_path):
        car = dm.DETECTION_CLASSES.index("car")
        videos = {
            v: dm.detection_columns(v, [(f, f + 0.5, 0.0, f + 10.0, 10.0, 0.8, car) for f in range(20)])
            for v in ("v0", "v1")
        }
        p = tmp_path / "d.jsonl"
        dm.write_detections(videos.values(), p)
        back, dropped = dm.read_detections(p)
        assert list(back) == ["v0", "v1"] and dropped == {}
        for v, d in videos.items():
            for column in ("frames", "boxes", "scores", "classes"):
                a, b = getattr(back[v], column), getattr(d, column)
                assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @settings(max_examples=100, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_written_columns_read_back_exactly(self, tmp_path, data):
        # few distinct values, so that rows tie exactly on frame, box and score
        # and only their input order, kept by a stable sort, tells them apart
        frames = st.sampled_from([0, 1, 7, dm.FRAME_LIMIT - 1]) | st.integers(0, dm.FRAME_LIMIT - 1)
        coords = st.sampled_from([0.0, 0.5, 3.25, 1e300]) | st.floats(-1e6, 1e6, allow_nan=False)
        scores = st.sampled_from([0.0, 0.5, 1.0]) | st.floats(0.0, 1.0)
        codes = st.integers(0, len(dm.DETECTION_CLASSES) - 1)

        def row(frame, xs, ys, score, code):
            return (frame, min(xs), min(ys), max(xs), max(ys), score, code)

        rows = st.builds(row, frames, st.tuples(coords, coords), st.tuples(coords, coords), scores, codes)
        video_ids = data.draw(st.lists(st.text(min_size=1, max_size=4), min_size=1, max_size=4, unique=True))
        videos = {v: dm.detection_columns(v, data.draw(st.lists(rows, min_size=1, max_size=25))) for v in video_ids}
        p = tmp_path / "d.jsonl"
        dm.write_detections(videos.values(), p)
        lines = p.read_text().splitlines(keepends=True)
        # records of classes that are not admitted, anywhere in the file
        extra = data.draw(st.lists(st.sampled_from(["dog", "cat"]), max_size=5))
        for cls in extra:
            k = data.draw(st.integers(0, len(lines)))
            lines.insert(k, json.dumps({"video_id": video_ids[0], "frame": 0, "x1": 0, "y1": 0, "x2": 1, "y2": 1,
                                        "class": cls, "score": 0.5}) + "\n")
        p.write_text("".join(lines))

        back, dropped = dm.read_detections(p)
        assert list(back) == sorted(video_ids)
        assert dropped == Counter(extra)
        for v, d in videos.items():
            assert back[v].video_id == v and len(back[v]) == len(d)
            for column in ("frames", "boxes", "scores", "classes"):
                a, b = getattr(back[v], column), getattr(d, column)
                assert a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

        # one bad row still names its file and line
        k = data.draw(st.integers(0, len(lines) - 1))
        bad = json.loads(lines[k])
        bad.update(data.draw(st.sampled_from([{"score": 1.5}, {"x1": 2.0, "x2": 1.0}, {"frame": -1},
                                              {"frame": dm.FRAME_LIMIT}, {"y2": "1"}])), **{"class": "car"})
        lines[k] = json.dumps(bad) + "\n"
        p.write_text("".join(lines))
        with pytest.raises(ParseError, match=f"^{re.escape(str(p))}:{k + 1}: invalid detection"):
            dm.read_detections(p)


class TestVideoMeta:
    def test_round_trip(self, tmp_path):
        metas = [
            dm.VideoMeta("v0", 100, 30.0, 1280.0, 720.0),
            dm.VideoMeta("v1", 200, 25.0, 640.0, 480.0),
        ]
        p = tmp_path / "m.jsonl"
        dm.write_video_meta(metas, p)
        back = dm.read_video_meta(p)
        assert back == {m.video_id: m for m in metas}

    def test_non_positive_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            dm.VideoMeta("v0", 100, 0.0, 10.0, 10.0)

    def test_negative_or_infinite_size_rejected(self):
        for width, height in ((-1.0, 10.0), (10.0, math.inf)):
            with pytest.raises(InvalidInputError):
                dm.VideoMeta("v0", 100, 30.0, width, height)


def test_group_partition_constants():
    assert len(dm.VEHICLE_ACTIVITIES) == 9
    assert len(dm.PERSON_ACTIVITIES) == 9
    assert len(set(dm.ACTIVITY_CLASSES)) == 18
