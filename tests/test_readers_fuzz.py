"""Fuzz of the file readers: tubelets, proposals (unscored and scored),
instances (system output and ground truth), detections and video metadata.
Mutations include a ``video_id`` that is not a string and a real-valued
field given as a string, a bool or an integer beyond the float range.

Each example writes two valid records with the library's own writers, breaks
one field of the second, and requires the reader to raise ParseError naming
``path:2`` and the CLI stage that reads the file to exit 1 with the same
location.
"""

import json
import math

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import make_tubelet
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from tubekit import data_model, linking, refinement
from tubekit.cli import main
from tubekit.errors import ParseError
from tubekit.geometry import Interval

KINDS = ("tubelets", "proposals", "scored", "instances", "ground_truth")


def _tubelets():
    rows = lambda k0: [[10.0 + 2 * k, 20.0, 40.0 + 2 * k, 60.0] for k in range(k0, k0 + 5)]  # noqa: E731
    return [make_tubelet(rows(0), start=0, tubelet_id=0), make_tubelet(rows(3), start=5, tubelet_id=1)]


def _proposals(scored):
    t0, t1 = _tubelets()
    scores = (lambda s: {"Riding": s, "non_action": 1.0 - s}) if scored else (lambda s: None)
    return [
        refinement.Proposal(0, t0, Interval(0, 3), 8, scores(0.75)),
        refinement.Proposal(1, t0, Interval(1, 5), 8, scores(0.5)),
        refinement.Proposal(2, t1, Interval(5, 10), 8, scores(0.25)),
    ]


def _instances():
    return [
        data_model.ActivityInstance("v0", "Riding", Interval(0, 5), _tubelets()[0].boxes, 0.75),
        data_model.ActivityInstance("v0", "Pull", Interval(5, 10), _tubelets()[1].boxes, 0.5),
    ]


def _write(kind, path):
    if kind == "tubelets":
        linking.write_tubelets(_tubelets(), path)
    elif kind in ("proposals", "scored"):
        refinement.write_proposals(_proposals(kind == "scored"), path)
    else:
        data_model.write_instances(_instances(), path)


READERS = {
    "tubelets": linking.read_tubelets,
    "proposals": refinement.read_proposals,
    "scored": refinement.read_proposals,
    "instances": data_model.read_instances,
    "ground_truth": data_model.read_ground_truth,
}


def _cli_args(kind, bad, d):
    """The subcommand that reads a file of `kind`, with `bad` in its place."""
    gt, tubes, meta, empty = (str(d / n) for n in ("gt.jsonl", "tubes.jsonl", "meta.jsonl", "empty.jsonl"))
    out = str(d / "out")
    return {
        "tubelets": ["eval-recall", "--tubelets", bad, "--ground-truth", gt, "--out", out],
        "proposals": ["score", "--proposals", bad, "--scorer", "heuristic", "--out", out],
        "scored": ["fuse", "--vehicle", empty, "--person", bad, "--out", out],
        "instances": ["eval-det", "--instances", bad, "--ground-truth", gt, "--meta", meta,
                      "--out-csv", out, "--out-summary", out + ".json"],
        "ground_truth": ["eval-recall", "--tubelets", tubes, "--ground-truth", bad, "--out", out],
    }[kind]


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    """Valid companion files for the CLI stages."""
    d = tmp_path_factory.mktemp("inputs")
    data_model.write_instances(_instances(), d / "gt.jsonl")
    linking.write_tubelets(_tubelets(), d / "tubes.jsonl")
    (d / "meta.jsonl").write_text(
        '{"frame_count": 10, "frame_rate": 30.0, "height": 720.0, "video_id": "v0", "width": 1280.0}\n'
    )
    (d / "empty.jsonl").write_text("")
    return d


# ---------------------------------------------------------------------------
# single-field mutations of one record


def _required_keys(kind, rec):
    keys = [("top", k) for k in rec]
    keys += [("box", k) for k in rec["boxes"][0]]
    if "proposals" in rec:
        keys += [("proposal", k) for k in ("proposal_id", "start", "end")]
    return keys


def drop_key(kind, rec, draw):
    where, key = draw(st.sampled_from(_required_keys(kind, rec)))
    target = {"top": rec, "box": draw(st.sampled_from(rec["boxes"])),
              "proposal": rec.get("proposals", [{}])[0]}[where]
    del target[key]


def non_finite(kind, rec, draw):
    row = draw(st.sampled_from(rec["boxes"]))
    row[draw(st.sampled_from(("x1", "y1", "x2", "y2")))] = draw(st.sampled_from((math.nan, math.inf, -math.inf)))


def inverted(kind, rec, draw):
    row = draw(st.sampled_from(rec["boxes"]))
    lo, hi = draw(st.sampled_from((("x1", "x2"), ("y1", "y2"))))
    row[lo] = row[hi] + draw(st.floats(0.5, 100.0))


def missing_frame(kind, rec, draw):
    del rec["boxes"][draw(st.integers(0, len(rec["boxes"]) - 1))]


def duplicated_frame(kind, rec, draw):
    rows = rec["boxes"]
    i, j = draw(st.lists(st.integers(0, len(rows) - 1), min_size=2, max_size=2, unique=True))
    rows[i]["frame"] = rows[j]["frame"]


def window_outside(kind, rec, draw):
    entry = draw(st.sampled_from(rec["proposals"]))
    if draw(st.booleans()):
        entry["start"] = rec["start"] - draw(st.integers(1, 20))
    else:
        entry["end"] = rec["end"] + draw(st.integers(1, 20))


def fractional_integer(kind, rec, draw):
    """An integer field of the record, a box row or a proposal entry made
    fractional, non-finite, a string or a bool."""
    fields = [(rec, k) for k in ("start", "end", "id", "sample_count") if k in rec]
    fields += [(row, "frame") for row in rec["boxes"]]
    fields += [(e, k) for e in rec.get("proposals", []) for k in ("proposal_id", "start", "end")]
    target, key = draw(st.sampled_from(fields))
    target[key] = draw(st.sampled_from((target[key] + 0.5, target[key] - 0.25, math.nan, math.inf,
                                        str(target[key]), True)))


def unknown_class(kind, rec, draw):
    if kind in ("instances", "ground_truth"):
        rec["activity"] = draw(st.sampled_from(("Swimming", "riding", "")))
    elif kind == "scored" and draw(st.booleans()):
        rec["proposals"][0]["scores"]["Swimming"] = 0.5
    else:
        rec["class"] = draw(st.sampled_from(("dog", "Person", "")))


NOT_A_STRING = (None, 7, 0.5, ["v0"], True)


def non_string_video_id(kind, rec, draw):
    rec["video_id"] = draw(st.sampled_from(NOT_A_STRING))


TOO_LARGE = 10**400  # a JSON integer no float can hold


def not_a_float(kind, rec, draw):
    """A real-valued field (a box coordinate or score, a confidence or a
    proposal score) made a string of its value, a bool or `TOO_LARGE`."""
    fields = [(row, k) for row in rec["boxes"] for k in ("x1", "y1", "x2", "y2", "score") if k in row]
    fields += [(rec, "confidence")] if "confidence" in rec else []
    fields += [(e["scores"], k) for e in rec.get("proposals", []) if "scores" in e for k in e["scores"]]
    target, key = draw(st.sampled_from(fields))
    target[key] = draw(st.sampled_from((str(target[key]), True, False, TOO_LARGE)))


MUTATIONS = [drop_key, non_finite, inverted, missing_frame, duplicated_frame, fractional_integer, unknown_class,
             non_string_video_id, not_a_float]


def test_unmutated_files_read_and_run(tmp_path, inputs):
    for kind in KINDS:
        path = tmp_path / f"{kind}.jsonl"
        _write(kind, path)
        assert len(path.read_text().splitlines()) == 2
        assert READERS[kind](path)
        res = CliRunner().invoke(main, _cli_args(kind, str(path), inputs))
        assert res.exit_code == 0, (kind, res.output)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(KINDS), data=st.data())
def test_single_field_mutation_is_a_parse_error(tmp_path, inputs, kind, data):
    path = tmp_path / f"{kind}.jsonl"
    _write(kind, path)
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    mutations = MUTATIONS + ([window_outside] if kind in ("proposals", "scored") else [])
    mutate = data.draw(st.sampled_from(mutations), label="mutation")
    mutate(kind, second, data.draw)
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")

    with pytest.raises(ParseError) as exc:
        READERS[kind](path)
    assert (exc.value.path, exc.value.line) == (path, 2)
    assert str(exc.value).startswith(f"{path}:2: ")

    res = CliRunner().invoke(main, _cli_args(kind, str(path), inputs))
    assert res.exit_code == 1, res.output
    assert f"{path}:2: " in json.loads(res.output.strip().splitlines()[-1])["error"]


def test_extent_must_match_box_rows(tmp_path):
    # frames 0-4 written, extent widened to 0-6: the rows no longer cover it
    path = tmp_path / "tubelets.jsonl"
    linking.write_tubelets(_tubelets()[:1], path)
    rec = json.loads(path.read_text())
    rec["end"] = 6
    path.write_text(json.dumps(rec) + "\n")
    with pytest.raises(ParseError, match=":1: .*each frame of \\[0, 6\\)"):
        linking.read_tubelets(path)


def test_rows_in_any_order_decode_in_frame_order(tmp_path):
    path = tmp_path / "tubelets.jsonl"
    tube = _tubelets()[1]
    linking.write_tubelets([tube], path)
    rec = json.loads(path.read_text())
    rec["boxes"].reverse()
    path.write_text(json.dumps(rec) + "\n")
    (back,) = linking.read_tubelets(path)
    assert np.array_equal(back.boxes, tube.boxes)


# ---------------------------------------------------------------------------
# detections and video metadata


def _detections():
    car = data_model.DETECTION_CLASSES.index("car")
    return [data_model.detection_columns("v0", [(f, 10.0 + f, 20.0, 40.0 + f, 60.0, 0.9, car) for f in (0, 1)])]


def _metas():
    return [data_model.VideoMeta(v, 10, 30.0, 1280.0, 720.0) for v in ("v0", "v1")]


FLAT_KINDS = {
    "detections": (lambda path: data_model.write_detections(_detections(), path), data_model.read_detections),
    "video_meta": (lambda path: data_model.write_video_meta(_metas(), path), data_model.read_video_meta),
}

NOT_AN_INTEGER = (1.5, 2.7, -0.5, math.nan, math.inf, "1", True, None, [1])
NOT_A_CLASS = (["car"], {"name": "car"}, 3, None, True)


def flat_mutations(kind, rec):
    """(key, bad values) pairs for one record of `kind`."""
    coordinate = (math.nan, math.inf, -math.inf, "x", None)

    def as_non_float(key):  # the value as a string, a bool or TOO_LARGE
        return (str(rec[key]), True, False, TOO_LARGE)

    if kind == "detections":
        return [
            ("video_id", NOT_A_STRING),
            ("frame", NOT_AN_INTEGER + (-1, 2**63)),
            ("class", NOT_A_CLASS),
            ("score", (math.nan, math.inf, 1.5, -0.1, "high") + as_non_float("score")),
            ("x1", coordinate + (rec["x2"] + 1.0,) + as_non_float("x1")),
            ("y1", coordinate + (rec["y2"] + 1.0,) + as_non_float("y1")),
            ("x2", coordinate + as_non_float("x2")),
            ("y2", coordinate + as_non_float("y2")),
        ]
    return [
        ("video_id", NOT_A_STRING),
        ("frame_count", NOT_AN_INTEGER + (0, -10)),
        ("frame_rate", (math.nan, math.inf, -math.inf, 0.0, -30.0, "fast", None) + as_non_float("frame_rate")),
        ("width", coordinate + (-1.0,) + as_non_float("width")),
        ("height", coordinate + (-1.0,) + as_non_float("height")),
    ]


def _flat_cli_args(kind, bad, d):
    """`link`, with `bad` as its detections or its video metadata."""
    det, meta = str(d / "detections.jsonl"), str(d / "video_meta.jsonl")
    if kind == "detections":
        det = bad
    else:
        meta = bad
    return ["link", "--detections", det, "--meta", meta, "--out", str(d / "tubelets.jsonl")]


@pytest.fixture(scope="module")
def flat_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("flat")
    for kind, (write, _) in FLAT_KINDS.items():
        write(d / f"{kind}.jsonl")
    return d


def test_unmutated_detections_and_meta_read_and_run(tmp_path, flat_inputs):
    for kind, (write, read) in FLAT_KINDS.items():
        path = tmp_path / f"{kind}.jsonl"
        write(path)
        assert len(path.read_text().splitlines()) == 2
        assert read(path)
        res = CliRunner().invoke(main, _flat_cli_args(kind, str(path), flat_inputs))
        assert res.exit_code == 0, (kind, res.output)


@settings(max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(kind=st.sampled_from(sorted(FLAT_KINDS)), data=st.data())
def test_detection_and_meta_mutation_is_a_parse_error(tmp_path, flat_inputs, kind, data):
    write, read = FLAT_KINDS[kind]
    path = tmp_path / f"{kind}.jsonl"
    write(path)
    first, second = (json.loads(line) for line in path.read_text().splitlines())
    if data.draw(st.booleans(), label="drop"):
        del second[data.draw(st.sampled_from(sorted(second)), label="key")]
    else:
        key, values = data.draw(st.sampled_from(flat_mutations(kind, second)), label="field")
        second[key] = data.draw(st.sampled_from(values), label="value")
    path.write_text(json.dumps(first) + "\n" + json.dumps(second) + "\n")

    with pytest.raises(ParseError) as exc:
        read(path)
    assert (exc.value.path, exc.value.line) == (path, 2)
    assert str(exc.value).startswith(f"{path}:2: ")

    res = CliRunner().invoke(main, _flat_cli_args(kind, str(path), flat_inputs))
    assert res.exit_code == 1, res.output
    assert f"{path}:2: " in json.loads(res.output.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize("video_id", [None, 7])
def test_non_string_video_id_rejected_even_when_the_files_agree(tmp_path, video_id):
    # the same null or number in the detections and the meta used to link
    # (a null became the video "None"); a string "7" must not match a number 7
    meta = tmp_path / "meta.jsonl"
    det = tmp_path / "detections.jsonl"
    meta_rec = {"video_id": video_id, "frame_count": 10, "frame_rate": 30.0, "width": 1280.0, "height": 720.0}
    meta.write_text(json.dumps(meta_rec) + "\n")
    det_id = video_id if video_id is None else str(video_id)
    det_rec = {"video_id": det_id, "frame": 0, "x1": 1.0, "y1": 2.0, "x2": 3.0, "y2": 4.0, "class": "car", "score": 0.5}
    det.write_text(json.dumps(det_rec) + "\n")
    with pytest.raises(ParseError, match=f"{meta}:1: .*video_id must be a string"):
        data_model.read_video_meta(meta)
    res = CliRunner().invoke(main, ["link", "--detections", str(det), "--meta", str(meta),
                                    "--out", str(tmp_path / "tubelets.jsonl")])
    assert res.exit_code == 1, res.output
    assert ":1: " in json.loads(res.output.strip().splitlines()[-1])["error"]
