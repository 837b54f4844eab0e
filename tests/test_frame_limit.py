"""The frame limit at the edge of every input: frames, ends and frame counts
past `data_model.FRAME_LIMIT` (2**53), and tubelet ids past int64, exit 1
naming `path:line` or the config key, through the subcommand that reads
them; frames at the limit itself run end to end.

Each case past the limit is one that an int64 edge used to let through: it
wrote a proposal, scored a recall, exited 2 or gave a wrong message.
"""

import json
import re

import pytest
from click.testing import CliRunner

from tubekit import refinement
from tubekit.cli import main
from tubekit.data_model import FRAME_LIMIT
from tubekit.errors import ParseError

EDGE = 2**63  # one past int64


def _boxes(start, end):
    """Box rows for frames [start, end) that move 1 px a frame."""
    return [{"frame": f, "x1": 10.0 + k, "x2": 40.0 + k, "y1": 20.0, "y2": 60.0}
            for k, f in enumerate(range(start, end))]


def _tubelet(start, end, tubelet_id=0):
    return {"boxes": _boxes(start, end), "class": "person", "end": end, "id": tubelet_id, "start": start,
            "video_id": "v0"}


def _reference(start, end):
    return {"activity": "Riding", "boxes": _boxes(start, end), "confidence": 1.0, "end": end, "start": start,
            "video_id": "v0"}


def _detection(frame):
    return {"class": "person", "frame": frame, "score": 0.9, "video_id": "v0", "x1": 10.0, "x2": 40.0, "y1": 20.0,
            "y2": 60.0}


def _meta(frame_count):
    return {"frame_count": frame_count, "frame_rate": 30.0, "height": 720.0, "video_id": "v0", "width": 1280.0}


def _file(path, *records):
    path.write_text("".join(json.dumps(rec) + "\n" for rec in records))
    return str(path)


def _run(args):
    """(exit code, the error of the last stderr line, if any)."""
    res = CliRunner().invoke(main, args)
    last = res.output.strip().splitlines()[-1] if res.output.strip() else "{}"
    return res.exit_code, json.loads(last).get("error", "") if last.startswith("{") else ""


def test_refine_rejects_a_tubelet_past_the_limit_beside_a_valid_one(tmp_path):
    # the tubelet [2**63 - 2, 2**63) of a 10-frame video gave a proposal over it
    tubes = _file(tmp_path / "tubes.jsonl", _tubelet(0, 5), _tubelet(EDGE - 2, EDGE, 1))
    code, error = _run(["refine", "--tubelets", tubes, "--meta", _file(tmp_path / "meta.jsonl", _meta(10)),
                        "--out", str(tmp_path / "proposals.jsonl")])
    assert code == 1 and f"{tubes}:2: invalid tubelet: end must be <= 2**53: {EDGE}" in error


def test_refine_names_the_line_of_a_tubelet_at_the_int64_edge(tmp_path):
    # its end wrapped round in int64 and gave "empty interval: [2**63 - 1, -2**63)"
    tubes = _file(tmp_path / "tubes.jsonl", _tubelet(EDGE - 1, EDGE))
    code, error = _run(["refine", "--tubelets", tubes, "--meta", _file(tmp_path / "meta.jsonl", _meta(10)),
                        "--out", str(tmp_path / "proposals.jsonl")])
    assert code == 1 and f"{tubes}:1: invalid tubelet: end must be <= 2**53: {EDGE}" in error


def test_eval_recall_rejects_a_reference_past_the_limit(tmp_path):
    # it exited 2 with an OverflowError
    gt = _file(tmp_path / "gt.jsonl", _reference(EDGE - 2, EDGE))
    code, error = _run(["eval-recall", "--tubelets", _file(tmp_path / "tubes.jsonl", _tubelet(0, 5)),
                        "--ground-truth", gt, "--out", str(tmp_path / "recall.csv")])
    assert code == 1 and f"{gt}:1: invalid instance: end must be <= 2**53: {EDGE}" in error


def test_eval_recall_rejects_a_tubelet_past_the_limit(tmp_path):
    # the reference [2**63 - 11, 2**63 - 1) is covered 1/11 by the tubelet,
    # yet its recall at 0.1 read 1.0
    tubes = _file(tmp_path / "tubes.jsonl", _tubelet(EDGE - 2, EDGE))
    code, error = _run(["eval-recall", "--tubelets", tubes,
                        "--ground-truth", _file(tmp_path / "gt.jsonl", _reference(EDGE - 11, EDGE - 1)),
                        "--out", str(tmp_path / "recall.csv")])
    assert code == 1 and f"{tubes}:1: invalid tubelet" in error


@pytest.mark.parametrize("strategy", ["tracking", "greedy"])
def test_link_rejects_a_detection_past_the_limit(tmp_path, strategy):
    # tracking exited 2 with an OverflowError; greedy left the pair one
    # missing frame apart unmerged
    dets = _file(tmp_path / "dets.jsonl", _detection(EDGE - 3), _detection(EDGE - 1))
    code, error = _run(["link", "--detections", dets, "--meta", _file(tmp_path / "meta.jsonl", _meta(EDGE)),
                        "--strategy", strategy, "--out", str(tmp_path / "tubes.jsonl")])
    assert code == 1 and f"{dets}:1: invalid detection: frame outside [0, 2**53)" in error


def test_link_rejects_a_frame_count_past_the_limit(tmp_path):
    meta = _file(tmp_path / "meta.jsonl", _meta(FRAME_LIMIT + 1))
    code, error = _run(["link", "--detections", _file(tmp_path / "dets.jsonl", _detection(3)), "--meta", meta,
                        "--out", str(tmp_path / "tubes.jsonl")])
    assert code == 1 and f"{meta}:1: invalid video meta: frame_count must be in [1, 2**53]" in error


@pytest.mark.parametrize("key, strategy", [("patience", "tracking"), ("max_interp_gap", "greedy")])
def test_link_rejects_a_window_key_past_the_limit(tmp_path, key, strategy):
    # both exited 2 with an OverflowError
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"link": {key: EDGE, "strategy": strategy}}))
    code, error = _run(["link", "--detections", _file(tmp_path / "dets.jsonl", _detection(3), _detection(5)),
                        "--meta", _file(tmp_path / "meta.jsonl", _meta(10)), "--config", str(config),
                        "--out", str(tmp_path / "tubes.jsonl")])
    assert code == 1 and f"link.{key} must be in" in error and str(EDGE) in error


def _scored_line(start, windows, tubelet_id=0):
    """A scored line over the tubelet [start, start + 48), one Riding score a window."""
    line = _tubelet(start, start + 48, tubelet_id)
    line["proposals"] = [{"end": s + n, "proposal_id": i, "scores": {"Riding": 0.9, "non_action": 0.1}, "start": s}
                         for i, (s, n) in enumerate(windows)]
    return line


def test_fuse_rejects_windows_past_the_limit(tmp_path):
    # at 2**60 a float64 span could not tell frames 16 apart, so the two
    # windows' temporal IoU read 0.0 (1/3 at frame 0) and neither decayed the other
    start = 2**60
    scored = _file(tmp_path / "person.jsonl", _scored_line(start, [(start, 32), (start + 16, 32)]))
    code, error = _run(["fuse", "--vehicle", _file(tmp_path / "vehicle.jsonl"), "--person", scored,
                        "--out", str(tmp_path / "instances.jsonl")])
    assert code == 1 and f"{scored}:1: invalid proposals: end must be <= 2**53" in error


def test_a_proposals_line_with_a_tubelet_id_past_int64_is_a_parse_error(tmp_path):
    # a tubelets.jsonl line with that id was a parse error; a proposals line was read
    line = _scored_line(0, [(0, 32)], tubelet_id=2**64)
    del line["proposals"][0]["scores"]
    path = _file(tmp_path / "proposals.jsonl", line)
    with pytest.raises(ParseError, match=f"^{re.escape(path)}:1: invalid proposals"):
        refinement.read_proposals(path)
    code, error = _run(["score", "--proposals", path, "--scorer", "heuristic", "--out", str(tmp_path / "s.jsonl")])
    assert code == 1 and f"{path}:1: invalid proposals" in error


@pytest.mark.parametrize("strategy", ["tracking", "greedy"])
def test_frames_at_the_limit_run_end_to_end(tmp_path, strategy):
    # the last two frames a video of FRAME_LIMIT frames can hold, one
    # missing frame apart: one tubelet [FRAME_LIMIT - 3, FRAME_LIMIT), which
    # refine and eval-recall read back
    dets = _file(tmp_path / "dets.jsonl", _detection(FRAME_LIMIT - 3), _detection(FRAME_LIMIT - 1))
    meta = _file(tmp_path / "meta.jsonl", _meta(FRAME_LIMIT))
    tubes = str(tmp_path / "tubes.jsonl")
    assert _run(["link", "--detections", dets, "--meta", meta, "--strategy", strategy, "--out", tubes])[0] == 0
    (line,) = map(json.loads, (tmp_path / "tubes.jsonl").read_text().splitlines())
    assert (line["start"], line["end"]) == (FRAME_LIMIT - 3, FRAME_LIMIT)
    counts = json.loads((tmp_path / "tubes.jsonl.manifest.json").read_text())["record_counts"]
    assert counts["interpolated_frames" if strategy == "greedy" else "tracked_frames"] == 1
    assert _run(["refine", "--tubelets", tubes, "--meta", meta, "--out", str(tmp_path / "proposals.jsonl")])[0] == 0
    gt = tmp_path / "gt.jsonl"
    gt.write_text(json.dumps({**_reference(FRAME_LIMIT - 3, FRAME_LIMIT),
                              "boxes": [dict(row, x1=10.0, x2=40.0) for row in line["boxes"]]}) + "\n")
    recall = tmp_path / "recall.csv"
    assert _run(["eval-recall", "--tubelets", tubes, "--ground-truth", str(gt), "--out", str(recall)])[0] == 0
    assert recall.read_text().splitlines()[-1] == "0.900000,1.000000"
