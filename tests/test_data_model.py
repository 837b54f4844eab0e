import pytest
from conftest import box_rows

from tubekit import data_model as dm
from tubekit.errors import InvalidInputError, ParseError, SchemaError
from tubekit.geometry import Box, Interval


def det_line(cls="person", frame=0, score=0.9):
    return (
        f'{{"video_id": "v0", "frame": {frame}, "x1": 0, "y1": 0, "x2": 10, "y2": 10, '
        f'"class": "{cls}", "score": {score}}}\n'
    )


class TestReadDetections:
    def test_singleton(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line())
        res = dm.read_detections(p)
        assert len(res.detections) == 1
        assert res.detections[0].object_class == "person"
        assert res.dropped_classes == 0

    def test_unknown_class_dropped_and_counted(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text(det_line() + det_line(cls="dog"))
        res = dm.read_detections(p)
        assert len(res.detections) == 1
        assert res.dropped_classes == 1
        assert res.dropped_class_names == {"dog": 1}

    def test_empty_file(self, tmp_path):
        p = tmp_path / "d.jsonl"
        p.write_text("")
        res = dm.read_detections(p)
        assert res.detections == []

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
        with pytest.raises(SchemaError) as exc:
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
        dets = [
            dm.Detection("v0", f, Box(f, 0, f + 10, 10), "car", 0.8) for f in range(20)
        ]
        p = tmp_path / "d.jsonl"
        dm.write_detections(dets, p)
        back = dm.read_detections(p)
        assert back.detections == dets


class TestVideoMeta:
    def test_round_trip(self, tmp_path):
        metas = [
            dm.VideoMeta("v0", 100, 30.0, Box(0, 0, 1280, 720)),
            dm.VideoMeta("v1", 200, 25.0, Box(0, 0, 640, 480)),
        ]
        p = tmp_path / "m.jsonl"
        dm.write_video_meta(metas, p)
        back = dm.read_video_meta(p)
        assert back == {m.video_id: m for m in metas}

    def test_non_positive_rate_rejected(self):
        with pytest.raises(InvalidInputError):
            dm.VideoMeta("v0", 100, 0.0, Box(0, 0, 10, 10))


def test_group_partition_constants():
    assert len(dm.VEHICLE_ACTIVITIES) == 9
    assert len(dm.PERSON_ACTIVITIES) == 9
    assert len(set(dm.ACTIVITY_CLASSES)) == 18
