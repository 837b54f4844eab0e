import builtins
import dataclasses
import hashlib
import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path
from unittest.mock import ANY

import numpy as np
import pytest
from click.testing import CliRunner

from conftest import box_rows, make_proposal, make_tubelet, write_tubelet_list
from test_goldens import CORPORA
from test_linking import filled_rows, previous_format_line, reference_link
from tubekit import cli, data_model, linking, refinement, synthgen
from tubekit.geometry import Interval
from tubekit.proposals import SCORE_CLASSES, VEHICLE_GROUP
from tubekit.cli import main

runner = CliRunner()


def run(args):
    return runner.invoke(main, args, catch_exceptions=False)


@pytest.fixture(scope="module")
def corpus_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("corpus")
    res = run(["synth", "--out-dir", str(out), "--seed", "11", "--videos", "2", "--frames", "80"])
    assert res.exit_code == 0
    return out


def test_default_config(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    res = run(["default-config", "--out", str(cfg_path)])
    assert res.exit_code == 0
    cfg = json.loads(cfg_path.read_text())
    assert cfg["link"]["patience"] == 50
    assert cfg["refine"]["window_sizes"] == [32, 64, 128, 256]
    assert cfg["label"] == {"spatial_pos": 0.35, "temporal_pos": 0.5, "temporal_neg": 0.2}
    assert cfg["nms"]["sigma"] == 0.5
    assert cfg["eval"]["target_rfa"] == 0.15


def test_synth_writes_corpus(corpus_dir):
    for name in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl", "corpus_manifest.json"):
        assert (corpus_dir / name).exists()


@pytest.mark.parametrize("strategy", ["greedy", "tracking"])
def test_link(corpus_dir, tmp_path, strategy):
    out = tmp_path / f"tubes_{strategy}.jsonl"
    res = run([
        "link", "--detections", str(corpus_dir / "detections.jsonl"),
        "--meta", str(corpus_dir / "video_meta.jsonl"),
        "--strategy", strategy, "--out", str(out),
    ])
    assert res.exit_code == 0
    assert out.exists() and out.stat().st_size > 0
    assert (tmp_path / f"tubes_{strategy}.jsonl.manifest.json").exists()


@pytest.mark.parametrize("strategy, link", [("tracking", linking.track_link), ("greedy", linking.greedy_link)])
def test_link_makes_no_tubelet(tmp_path, monkeypatch, strategy, link):
    # 6 false positives per frame, so most tubelets are one frame long: the
    # linkers' tables hold their rows, and `link` writes the file from the
    # columns without making a `Track`
    corpus = synthgen.generate(synthgen.SceneConfig(
        seed=41, video_count=2, frames_per_video=120, objects_per_video=(2, 3), dropout_rate=0.2,
        box_jitter_px=2.0, false_positive_rate=6.0, score_noise=0.05))
    paths = synthgen.write_corpus(corpus, tmp_path / "corpus")
    made = []

    class Counted(linking.Track):
        def __post_init__(self):
            made.append(self.id)
            super().__post_init__()

    monkeypatch.setattr(linking, "Track", Counted)
    out = tmp_path / "tubelets.jsonl"
    assert run(["link", "--detections", paths["detections"], "--meta", paths["video_meta"], "--strategy", strategy,
                "--out", str(out)]).exit_code == 0
    assert made == []

    # the tables' `Track` views, each made when iterated, write the same bytes one `tubelet_line` each
    tubes = list(linking.LinkedTubelets.numbered([link(corpus.detections[v]) for v in sorted(corpus.detections)]))
    assert made == list(range(len(tubes)))
    assert sum(t.extent.length == 1 for t in tubes) > len(tubes) / 2
    write_tubelet_list(tubes, tmp_path / "views.jsonl")
    assert (tmp_path / "views.jsonl").read_bytes() == out.read_bytes()


def _manifest(out_path):
    return json.loads(Path(f"{out_path}.manifest.json").read_text())


def _check_phases(manifest, stage_phases):
    """Every stage of `timings_s` has the read/compute/write phases
    `stage_phases`, and they sum to no more than the stage's seconds."""
    for stage, seconds in manifest["timings_s"].items():
        phases = manifest["phases_s"][stage]
        assert set(phases) == stage_phases, stage
        assert sum(phases.values()) <= seconds


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_full_stage_chain_and_pipeline_equivalence(tmp_path, name):
    cfg = write_config(tmp_path, CORPORA[name])
    corpus = tmp_path / "corpus"
    assert run(["synth", "--out-dir", str(corpus), "--config", cfg]).exit_code == 0
    det, gt, meta = (str(corpus / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))

    tubes = str(tmp_path / "tubelets.jsonl")
    assert run(["link", "--detections", det, "--meta", meta, "--out", tubes, "--config", cfg]).exit_code == 0

    props = str(tmp_path / "proposals.jsonl")
    assert run(["refine", "--tubelets", tubes, "--meta", meta, "--out", props, "--config", cfg]).exit_code == 0

    veh = str(tmp_path / "scored_vehicle.jsonl")
    per = str(tmp_path / "scored_person.jsonl")
    for out, group in ((veh, "vehicle_related"), (per, "person_related")):
        assert run([
            "score", "--proposals", props, "--ground-truth", gt, "--out", out, "--group", group, "--config", cfg,
        ]).exit_code == 0

    inst = str(tmp_path / "instances.jsonl")
    assert run(["fuse", "--vehicle", veh, "--person", per, "--out", inst, "--config", cfg]).exit_code == 0

    recall = str(tmp_path / "recall.csv")
    assert run([
        "eval-recall", "--tubelets", tubes, "--ground-truth", gt, "--out", recall, "--config", cfg,
    ]).exit_code == 0
    assert Path(recall).read_text().splitlines()[0] == "threshold,recall"

    det_csv = str(tmp_path / "det.csv")
    summary = str(tmp_path / "summary.json")
    assert run([
        "eval-det", "--instances", inst, "--ground-truth", gt, "--meta", meta,
        "--out-csv", det_csv, "--out-summary", summary, "--config", cfg,
    ]).exit_code == 0
    if name == "clean":
        assert json.loads(Path(summary).read_text())["mean_p_miss"] == 0.0

    # pipeline subcommand on the same inputs produces identical data files
    pipe_dir = tmp_path / "pipe"
    assert run([
        "pipeline", "--out-dir", str(pipe_dir), "--detections", det, "--ground-truth", gt, "--meta", meta,
        "--config", cfg,
    ]).exit_code == 0
    for manual, staged in (
        (tubes, "tubelets.jsonl"),
        (props, "proposals.jsonl"),
        (veh, "scored_vehicle.jsonl"),
        (per, "scored_person.jsonl"),
        (inst, "instances.jsonl"),
        (recall, "recall.csv"),
        (det_csv, "det.csv"),
        (summary, "summary.json"),
    ):
        assert Path(manual).read_bytes() == (pipe_dir / staged).read_bytes()

    # each subcommand times its read, compute and write; pipeline reads its
    # inputs once, as a phase of its own, and its stages read nothing
    for out in (tubes, props, veh, per, inst, recall, det_csv):
        _check_phases(_manifest(out), {"read", "compute", "write"})
    pipeline = _manifest(pipe_dir / "run")
    _check_phases(pipeline, {"compute", "write"})
    assert set(pipeline["phases_s"]) == {"inputs", *pipeline["timings_s"]}
    assert set(pipeline["phases_s"]["inputs"]) == {"read"}

    # pipeline counts and warns what the seven subcommands count and warn
    subcommands = [_manifest(out) for out in (tubes, props, veh, per, inst, recall, det_csv)]
    merged = {}
    for manifest in subcommands:
        for key, value in manifest["record_counts"].items():
            if key not in merged:
                merged[key] = value
            elif key == "tubelets":  # link writes them; refine and eval-recall read the same file
                assert value == merged[key]
            else:  # the two score manifests: scored proposals and labels per group
                merged[key] = {**merged[key], **value} if isinstance(value, dict) else merged[key] + value
    assert pipeline["record_counts"] == merged
    assert sorted(pipeline["warnings"]) == sorted(w for manifest in subcommands for w in manifest["warnings"])

    # the oracle's label funnel is the same scored alone or in the pipeline
    scored_labels = {}
    for out in (veh, per):
        scored_labels.update(_manifest(out)["record_counts"].get("labels", {}))
    assert pipeline["record_counts"].get("labels", {}) == scored_labels
    assert bool(scored_labels) == (CORPORA[name].get("scorer", {}).get("name", "oracle") == "oracle")


def _same_track(a, b):
    assert (a.video_id, a.extent) == (b.video_id, b.extent)
    assert (a.boxes.dtype, a.boxes.shape) == (b.boxes.dtype, b.boxes.shape)
    assert a.boxes.tobytes() == b.boxes.tobytes()


def _same_proposals(held, read):
    assert len(held) == len(read)
    for a, b in zip(held, read):
        _same_track(a.track, b.track)
        assert (a.track.id, a.track.object_class) == (b.track.id, b.track.object_class)
        for x, y in ((a.ids, b.ids), (a.windows, b.windows)):
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes())
        assert (a.scores is None) == (b.scores is None)
        if a.scores is not None:  # NaN marks a class left out, on both sides
            assert (a.scores.shape, a.scores.tobytes()) == (b.scores.shape, b.scores.tobytes())


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_pipeline_objects_equal_its_files(tmp_path, name):
    # pipeline hands objects from stage to stage without reading its files
    # back, so the codecs must round-trip them exactly
    out = tmp_path / "run"
    held = cli.run_pipeline(cli._merged_config(write_config(tmp_path, CORPORA[name])), str(out))

    tubes = linking.read_tubelets(out / "tubelets.jsonl")
    assert len(held["tubelets"]) == len(tubes) > 0
    for a, b in zip(held["tubelets"], tubes):
        _same_track(a, b)
        assert (a.id, a.object_class) == (b.id, b.object_class)

    _same_proposals(held["proposals"], refinement.read_proposals(out / "proposals.jsonl"))
    assert all(line.scores is None for line in held["proposals"])
    for group, file_name in (("vehicle_related", "scored_vehicle.jsonl"), ("person_related", "scored_person.jsonl")):
        _same_proposals(held["scored"][group], refinement.read_proposals(out / file_name))

    instances = data_model.read_instances(out / "instances.jsonl")
    assert len(held["instances"]) == len(instances)
    for a, b in zip(held["instances"], instances):
        _same_track(a, b)
        assert (a.activity, a.confidence) == (b.activity, b.confidence)


def test_pipeline_reads_each_input_once(corpus_dir, tmp_path, monkeypatch):
    inputs = [str(corpus_dir / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl")]
    opened = []
    real_open = builtins.open

    def recording_open(file, mode="r", *args, **kwargs):
        opened.append((os.path.abspath(file), mode))
        return real_open(file, mode, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", recording_open)
    res = run(["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", inputs[0],
               "--ground-truth", inputs[1], "--meta", inputs[2]])
    monkeypatch.undo()
    assert res.exit_code == 0
    reads = Counter(path for path, mode in opened if "r" in mode)
    assert reads == Counter(os.path.abspath(p) for p in inputs)
    assert len([path for path, mode in opened if "w" in mode]) == 9  # 8 data files and the manifest


def test_pipeline_with_synth(tmp_path):
    out_dir = tmp_path / "run"
    cfg = {"synth": {"seed": 2, "video_count": 2, "frames_per_video": 80}}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    res = run(["pipeline", "--config", str(cfg_path), "--out-dir", str(out_dir)])
    assert res.exit_code == 0
    payload = json.loads(res.output.strip().splitlines()[-1])
    assert payload["mean_p_miss"] == 0.0
    assert (out_dir / "run.manifest.json").exists()


def test_worker_counts_do_not_change_bytes(corpus_dir, tmp_path):
    # `--workers` is deprecated: every stage runs on the calling thread, and
    # the flag still parses, warns once and changes no byte
    det, gt, meta = (str(corpus_dir / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))

    def commands(out_dir, *extra):
        out_dir.mkdir()
        tubes, props, scored = (str(out_dir / f"{n}.jsonl") for n in ("tubelets", "proposals", "scored"))
        return [
            ["link", "--detections", det, "--meta", meta, "--out", tubes, *extra],
            ["refine", "--tubelets", tubes, "--meta", meta, "--out", props, *extra],
            ["score", "--proposals", props, "--ground-truth", gt, "--out", scored, *extra],
            ["pipeline", "--out-dir", str(out_dir / "run"), "--detections", det, "--ground-truth", gt,
             "--meta", meta, *extra],
        ]

    for args in commands(tmp_path / "plain"):
        assert run(args).exit_code == 0
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    code = (
        "import sys, threading\n"
        "from tubekit.cli import main\n"
        f"for args in {commands(tmp_path / 'flag', '--workers', '2')!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "print(threading.active_count(), 'concurrent.futures' in sys.modules)\n"
    )
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "1 False"
    warning = "--workers is deprecated and has no effect: every stage runs on one thread"
    assert _warnings(out.stderr) == [warning] * 4

    written = [p.relative_to(tmp_path / "plain") for p in sorted((tmp_path / "plain").rglob("*"))
               if p.is_file() and not p.name.endswith(".manifest.json")]
    assert len(written) == 11  # 3 stage files and the pipeline's 8
    for name in written:
        assert (tmp_path / "flag" / name).read_bytes() == (tmp_path / "plain" / name).read_bytes(), name
    for manifest in ("tubelets.jsonl", "proposals.jsonl", "scored.jsonl", "run/run"):
        assert _manifest(tmp_path / "flag" / manifest)["warnings"] == [warning]
        assert _manifest(tmp_path / "plain" / manifest)["warnings"] == []

    res = runner.invoke(main, commands(tmp_path / "zero", "--workers", "0")[0])
    assert res.exit_code == 1
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "link" and "--workers" in report["error"]
    assert not (tmp_path / "zero" / "tubelets.jsonl").exists()


def test_missing_input_exits_one(tmp_path):
    res = runner.invoke(main, [
        "link", "--detections", str(tmp_path / "nope.jsonl"),
        "--meta", str(tmp_path / "nope_meta.jsonl"), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert res.exit_code == 1


@pytest.mark.parametrize("args, stage, names", [
    (["link", "--detections", "{d}/nope.jsonl", "--meta", "{d}/meta.jsonl", "--out", "{d}/o"], "link",
     "does not exist"),
    (["synth", "--out-dir", "{d}/corpus", "--seed", "abc"], "synth", "'abc'"),
    (["score", "--proposals", "{d}/empty.jsonl", "--out", "{d}/o", "--group", "bogus"], "score", "'bogus'"),
    (["link", "--detections", "{d}/empty.jsonl", "--out", "{d}/o"], "link", "--meta"),
    (["link", "--detections", "{d}/empty.jsonl", "--meta", "{d}/meta.jsonl", "--out", "{d}/o", "--bogus"], "link",
     "--bogus"),
], ids=["missing-input", "bad-int", "bad-choice", "missing-option", "unknown-option"])
def test_usage_error_exits_one_with_one_json_line(tmp_path, args, stage, names):
    (tmp_path / "empty.jsonl").write_text("")
    (tmp_path / "meta.jsonl").write_text("")
    res = runner.invoke(main, [a.format(d=tmp_path) for a in args])
    assert res.exit_code == 1, res.output
    (line,) = res.stderr.splitlines()
    report = json.loads(line)
    assert report["stage"] == stage and names in report["error"]
    assert not (tmp_path / "o").exists() and not (tmp_path / "corpus").exists()


def test_help_exits_zero():
    res = runner.invoke(main, ["link", "--help"])
    assert res.exit_code == 0 and res.stderr == ""
    assert "--detections" in res.output


@pytest.mark.parametrize("args, code, report", [
    (["--bogus"], 1, {"error": "No such option '--bogus'."}),
    ([], 1, {"error": "Missing command."}),
    (["bogus"], 1, {"error": "No such command 'bogus'."}),
    (["--help"], 0, None),
], ids=["unknown-option", "no-arguments", "unknown-subcommand", "help"])
def test_group_usage_errors_exit_one_with_one_json_line(args, code, report):
    # the group's own arguments go through the same handler as a subcommand's;
    # no subcommand was named, so the line names no stage
    res = runner.invoke(main, args)
    assert res.exit_code == code, res.output
    if report is None:
        assert res.stderr == "" and "Usage:" in res.output
    else:
        (line,) = res.stderr.splitlines()
        assert json.loads(line) == report


def test_stage_failure_exits_two(corpus_dir, tmp_path, monkeypatch):
    def fail(*args):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "link", fail)
    res = runner.invoke(main, ["link", "--detections", str(corpus_dir / "detections.jsonl"),
                               "--meta", str(corpus_dir / "video_meta.jsonl"), "--out", str(tmp_path / "o.jsonl")])
    assert res.exit_code == 2, res.output
    (line,) = res.stderr.splitlines()
    assert json.loads(line) == {"stage": "link", "error": "RuntimeError('boom')"}


@pytest.mark.parametrize("given", [("--detections",), ("--ground-truth",), ("--detections", "--meta")])
def test_pipeline_with_some_inputs_exits_one_before_any_write(corpus_dir, tmp_path, given):
    # it used to ignore them and run on a synthetic corpus
    paths = {"--detections": "detections.jsonl", "--ground-truth": "ground_truth.jsonl", "--meta": "video_meta.jsonl"}
    out = tmp_path / "run"
    res = runner.invoke(main, ["pipeline", "--out-dir", str(out),
                               *(arg for flag in given for arg in (flag, str(corpus_dir / paths[flag])))])
    assert res.exit_code == 1, res.output
    report = json.loads(res.stderr)
    missing = [flag for flag in paths if flag not in given]
    assert report["stage"] == "pipeline" and report["error"].endswith("missing " + ", ".join(missing))
    assert not out.exists()


def test_fuse_of_unscored_proposals_exits_one(tmp_path):
    # refine's output given to fuse used to exit 0 with 0 instances
    props = tmp_path / "proposals.jsonl"
    refinement.write_proposals([make_proposal(Interval(0, 10))], props)
    out = tmp_path / "instances.jsonl"
    res = runner.invoke(main, ["fuse", "--vehicle", str(props), "--person", str(props), "--out", str(out)])
    assert res.exit_code == 1, res.output
    report = json.loads(res.stderr)
    assert report["stage"] == "fuse" and "vehicle_related input holds unscored proposal 0" in report["error"]
    assert not out.exists()


def test_fuse_of_one_file_of_both_groups_names_the_line(corpus_dir, tmp_path):
    # `score` without --group writes both groups' scores to one file; given
    # as both of fuse's inputs, the error named only the activity class
    det, gt, meta = (str(corpus_dir / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))
    tubes, props, scored, out = (str(tmp_path / n) for n in ("t.jsonl", "p.jsonl", "s.jsonl", "i.jsonl"))
    for args in (["link", "--detections", det, "--meta", meta, "--out", tubes],
                 ["refine", "--tubelets", tubes, "--meta", meta, "--out", props],
                 ["score", "--proposals", props, "--ground-truth", gt, "--out", scored]):
        assert run(args).exit_code == 0
    res = runner.invoke(main, ["fuse", "--vehicle", scored, "--person", scored, "--out", out])
    assert res.exit_code == 1, res.output
    # fuse walks the activities by name, then the lines in file order
    act, line = next((act, line) for act in sorted(data_model.ACTIVITY_CLASSES) if act not in VEHICLE_GROUP.activities
                     for line in refinement.read_proposals(scored)
                     if not np.isnan(line.scores[:, SCORE_CLASSES.index(act)]).all())
    t = line.track
    report = json.loads(res.stderr)
    assert report == {"stage": "fuse", "error": (
        f"vehicle_related output scores activity class {act!r} outside its group in tubelet "
        f"({t.video_id!r}, {t.id}) of class {t.object_class!r}: fuse takes one scored file per group, "
        "as `score --group` writes it")}
    assert not os.path.exists(out)


def test_malformed_input_exits_one(tmp_path):
    bad = tmp_path / "bad.jsonl"
    bad.write_text("{not json\n")
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"video_id": "v0", "frame_count": 10, "frame_rate": 30, "width": 100, "height": 100}\n')
    res = runner.invoke(main, [
        "link", "--detections", str(bad), "--meta", str(meta), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert res.exit_code == 1
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "link"


@pytest.mark.parametrize("line", [
    "[" * 200_000 + "]" * 200_000,  # json.loads: RecursionError
    '{"video_id": "v0", "frame": ' + "1" * 5_000 + ', "x1": 0, "y1": 0, "x2": 1, "y2": 1, "class": "car", '
    '"score": 0.5}',  # json.loads: ValueError past Python's int digit limit, not a JSONDecodeError
], ids=["nested", "long-int"])
def test_line_json_cannot_decode_exits_one_naming_it(tmp_path, line):
    dets = tmp_path / "d.jsonl"
    dets.write_text('{"video_id": "v0", "frame": 0, "x1": 0, "y1": 0, "x2": 1, "y2": 1, "class": "car", '
                    f'"score": 0.5}}\n{line}\n')
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"video_id": "v0", "frame_count": 10, "frame_rate": 30, "width": 100, "height": 100}\n')
    res = run(["link", "--detections", str(dets), "--meta", str(meta), "--out", str(tmp_path / "o.jsonl")])
    assert res.exit_code == 1
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "link" and report["error"].startswith(f"{dets}:2: malformed record: ")


def test_unknown_video_id_consistency_error(tmp_path):
    det = tmp_path / "d.jsonl"
    det.write_text(
        '{"video_id": "ghost", "frame": 0, "x1": 0, "y1": 0, "x2": 10, "y2": 10, "class": "person", "score": 0.9}\n'
    )
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"video_id": "v0", "frame_count": 10, "frame_rate": 30, "width": 100, "height": 100}\n')
    res = runner.invoke(main, [
        "link", "--detections", str(det), "--meta", str(meta), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert res.exit_code == 1
    assert "ghost" in res.output


def test_detection_frame_past_frame_count_exits_one(tmp_path):
    # a frame far past the video would make the tracker step through every
    # frame in between
    meta = tmp_path / "meta.jsonl"
    meta.write_text('{"video_id": "v0", "frame_count": 10, "frame_rate": 30, "width": 100, "height": 100}\n')
    reports = {}
    for last in (9, 5000):
        det = tmp_path / f"d{last}.jsonl"
        det.write_text("".join(json.dumps({"video_id": "v0", "frame": f, "x1": 0, "y1": 0, "x2": 10, "y2": 10,
                                           "class": "person", "score": 0.9}) + "\n" for f in (0, last)))
        res = runner.invoke(main, ["link", "--detections", str(det), "--meta", str(meta),
                                   "--out", str(tmp_path / f"o{last}.jsonl")])
        reports[last] = (res.exit_code, res.output.strip().splitlines()[-1])
    assert reports[9][0] == 0
    code, line = reports[5000]
    report = json.loads(line)
    assert code == 1 and report["stage"] == "link"
    assert all(part in report["error"] for part in ("'v0'", "frame 5000", "frame_count 10"))
    assert not (tmp_path / "o5000.jsonl").exists()


def test_oracle_without_ground_truth_exits_one(corpus_dir, tmp_path):
    props = tmp_path / "p.jsonl"
    props.write_text("")
    res = runner.invoke(main, [
        "score", "--proposals", str(props), "--scorer", "oracle", "--out", str(tmp_path / "o.jsonl"),
    ])
    assert res.exit_code == 1


@pytest.fixture(scope="module")
def dropout_corpus(tmp_path_factory):
    out = tmp_path_factory.mktemp("dropout_corpus")
    res = run([
        "synth", "--out-dir", str(out), "--seed", "11", "--videos", "2", "--frames", "120", "--dropout", "0.3",
    ])
    assert res.exit_code == 0
    return out


def write_config(tmp_path, cfg):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    return str(path)


def test_link_strategy_from_config_or_flag(dropout_corpus, tmp_path):
    det = str(dropout_corpus / "detections.jsonl")
    meta = str(dropout_corpus / "video_meta.jsonl")
    cfg = write_config(tmp_path, {"link": {"strategy": "greedy"}})
    outputs = {}
    for name, extra in (("default", []), ("flag", ["--strategy", "greedy"]), ("config", ["--config", cfg])):
        out = tmp_path / f"{name}.jsonl"
        assert run(["link", "--detections", det, "--meta", meta, "--out", str(out), *extra]).exit_code == 0
        outputs[name] = out.read_bytes()
    assert outputs["config"] == outputs["flag"]
    assert outputs["config"] != outputs["default"]


def test_scorer_from_config_or_flag(dropout_corpus, tmp_path):
    meta = str(dropout_corpus / "video_meta.jsonl")
    gt = str(dropout_corpus / "ground_truth.jsonl")
    tubes = str(tmp_path / "tubelets.jsonl")
    props = str(tmp_path / "proposals.jsonl")
    assert run(["link", "--detections", str(dropout_corpus / "detections.jsonl"), "--meta", meta,
                "--out", tubes]).exit_code == 0
    assert run(["refine", "--tubelets", tubes, "--meta", meta, "--out", props]).exit_code == 0
    cfg = write_config(tmp_path, {"scorer": {"name": "heuristic"}})
    outputs = {}
    for name, extra in (("default", []), ("flag", ["--scorer", "heuristic"]), ("config", ["--config", cfg])):
        out = tmp_path / f"{name}.jsonl"
        assert run(["score", "--proposals", props, "--ground-truth", gt, "--out", str(out), *extra]).exit_code == 0
        outputs[name] = out.read_bytes()
    assert outputs["config"] == outputs["flag"]
    assert outputs["config"] != outputs["default"]


def test_label_policy_reaches_oracle(corpus_dir, tmp_path):
    meta = str(corpus_dir / "video_meta.jsonl")
    gt = str(corpus_dir / "ground_truth.jsonl")
    tubes = str(tmp_path / "tubelets.jsonl")
    props = str(tmp_path / "proposals.jsonl")
    assert run(["link", "--detections", str(corpus_dir / "detections.jsonl"), "--meta", meta,
                "--out", tubes]).exit_code == 0
    assert run(["refine", "--tubelets", tubes, "--meta", meta, "--out", props]).exit_code == 0
    cfg = write_config(tmp_path, {"label": {"spatial_pos": 1.0, "temporal_pos": 1.0, "temporal_neg": 0.0}})
    outputs = []
    for extra in ([], ["--config", cfg]):
        out = tmp_path / f"scored{len(outputs)}.jsonl"
        assert run(["score", "--proposals", props, "--ground-truth", gt, "--out", str(out), *extra]).exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] != outputs[1]


@pytest.mark.parametrize(
    "cfg, name",
    [
        ({"link": {"patiense": 5}}, "link.patiense"),
        ({"linking": {"patience": 5}}, "linking"),
        ({"refine": {"flow_mean_min": 1.0}}, "refine.flow_mean_min"),
        ({"output": {"score_threshold": 0.1}}, "'output'"),
        ({"nms": {"score_floor": 0.001}}, "nms.score_floor"),
        ({"workers": 1}, "unknown config section: 'workers'"),
        ({"refine": {"sample_count": 64}}, "unknown config key: refine.sample_count"),
    ],
)
def test_unknown_config_key_exits_one(corpus_dir, tmp_path, cfg, name):
    res = runner.invoke(main, [
        "link", "--detections", str(corpus_dir / "detections.jsonl"),
        "--meta", str(corpus_dir / "video_meta.jsonl"), "--out", str(tmp_path / "o.jsonl"),
        "--config", write_config(tmp_path, cfg),
    ])
    assert res.exit_code == 1
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "link" and name in report["error"]


@pytest.mark.parametrize(
    "cfg, extra, section",
    [
        ({"link": {"patience": "5"}}, [], "'link'"),
        ({"refine": {"window_sizes": 5}}, [], "'refine'"),
        ({"nms": {"method": "box"}}, [], "'nms'"),
        ({"align": {"temporal_iou_min": 0.0}}, [], "'align'"),
        ({"link": {"strategy": "nearest"}}, [], "link.strategy"),
        ({"workers": 0}, [], "workers"),  # no longer a section: any value exits 1
        ({"workers": 1.5}, [], "workers"),
        ({}, ["--workers", "0"], "workers"),
        ({"eval": {"recall_thresholds": 5}}, [], "'eval'"),
        ({"nms": {"score_threshold": "0.1"}}, [], "nms.score_threshold"),
        ({"eval": {"target_rfa": "x"}}, [], "'eval'"),
        ({"scorer": {"name": "oracel"}}, [], "'scorer'"),
        ({"scorer": {"epsilon": 2}}, [], "'scorer'"),
        ({"fusion": {"vehicle_weight": -1.0}}, [], "'fusion'"),
        ({"fusion": {"person_weight": -0.5}}, [], "'fusion'"),
        ({"refine": {"enlarge_factor": 0.5}}, [], "enlarge_factor"),
        ({"refine": {"window_sizes": [0, 32]}}, [], "window_sizes"),
        ({"refine": {"window_stride": 2.5}}, [], "window_stride"),
        ({"refine": {"sample_count": 2.5}}, [], "sample_count"),  # no longer a key: any value exits 1
        ({"label": {"spatial_pos": "x"}}, [], "spatial_pos"),
        ({"link": {"patience": 2.5}}, [], "patience"),
        ({"link": {"max_interp_gap": -3}}, [], "max_interp_gap"),
        ({"nms": {"linear_threshold": "x"}}, [], "linear_threshold"),
        ({"synth": {"activity_mix": [1]}}, [], "synth.activity_mix"),
        ({"synth": {"activity_mix": {"Closing": True}}}, [], "synth.activity_mix"),
        ({"synth": {"activity_mix": {"Closing": "1"}}}, [], "synth.activity_mix"),
        ({"fusion": {"vehicle_weight": 3.0}}, [], "fusion.vehicle_weight"),
        ({"fusion": {"person_weight": 1.5}}, [], "fusion.person_weight"),
        ({"synth": {"seed": -1}}, [], "seed must be >= 0"),
        ({"nms": {"score_threshold": 1.5}}, [], "nms.score_threshold"),
        ({"nms": {"score_threshold": -0.1}}, [], "nms.score_threshold"),
        ({"refine": {"coord_displacement_min": -5.0}}, [], "refine.coord_displacement_min"),
        ({"synth": {"frame_rate": 0.0}}, [], "synth.frame_rate"),
        ({"synth": {"frame_width": -1.0}}, [], "synth.frame_width"),
        ({"synth": {"frame_height": -1.0}}, [], "synth.frame_height"),
        ({"nms": {"score_threshold": 0.0}}, [], "nms.score_threshold"),
    ],
)
def test_bad_config_value_exits_one_before_any_write(corpus_dir, tmp_path, cfg, extra, section):
    out = tmp_path / "run"
    res = runner.invoke(main, [
        "pipeline", "--out-dir", str(out), "--detections", str(corpus_dir / "detections.jsonl"),
        "--ground-truth", str(corpus_dir / "ground_truth.jsonl"), "--meta", str(corpus_dir / "video_meta.jsonl"),
        "--config", write_config(tmp_path, cfg), *extra,
    ])
    assert res.exit_code == 1, res.output
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "pipeline" and section in report["error"]
    assert not out.exists()


@pytest.mark.parametrize("args, key", [(["link", "--strategy", "nearest"], "link.strategy"),
                                       (["score", "--scorer", "p3d"], "'scorer'")])
def test_unknown_strategy_or_scorer_flag_exits_one(corpus_dir, tmp_path, args, key):
    # the flag is checked by the config section it sets, like its config key
    inputs = {"link": ["--detections", str(corpus_dir / "detections.jsonl"),
                       "--meta", str(corpus_dir / "video_meta.jsonl")],
              "score": ["--proposals", str(tmp_path / "p.jsonl")]}[args[0]]
    (tmp_path / "p.jsonl").write_text("")
    res = runner.invoke(main, [*args, *inputs, "--out", str(tmp_path / "out.jsonl")])
    assert res.exit_code == 1, res.output
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == args[0] and key in report["error"]


def test_fusion_weight_flag_above_one_exits_one_before_any_write(tmp_path):
    scored = tmp_path / "scored.jsonl"
    scored.write_text("")
    out = tmp_path / "instances.jsonl"
    res = runner.invoke(main, ["fuse", "--vehicle", str(scored), "--person", str(scored), "--out", str(out),
                               "--vehicle-weight", "3.0"])
    assert res.exit_code == 1, res.output
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "fuse" and "fusion.vehicle_weight" in report["error"]
    assert not out.exists()


META_V0 = '{"video_id": "v0", "frame_count": 10, "frame_rate": 30, "width": 100, "height": 100}\n'


def test_tubelet_past_frame_count_exits_one(tmp_path):
    meta = tmp_path / "meta.jsonl"
    meta.write_text(META_V0)
    moving = [[2.0 * k, 0.0, 2.0 * k + 10, 10.0] for k in range(40)]
    reports = {}
    for start in (0, 5000):
        tubes = tmp_path / f"t{start}.jsonl"
        write_tubelet_list([make_tubelet(moving[:10] if start == 0 else moving, start=start)], tubes)
        res = runner.invoke(main, ["refine", "--tubelets", str(tubes), "--meta", str(meta),
                                   "--out", str(tmp_path / f"p{start}.jsonl")])
        reports[start] = (res.exit_code, res.output.strip().splitlines()[-1])
    assert reports[0][0] == 0
    code, line = reports[5000]
    report = json.loads(line)
    assert code == 1 and report["stage"] == "refine"
    assert all(part in report["error"] for part in ("'v0'", "[5000, 5040)", "frame_count 10"))
    assert not (tmp_path / "p5000.jsonl").exists()


@pytest.mark.parametrize("past", ["instances", "ground_truth"])
def test_instance_past_frame_count_exits_one(tmp_path, past):
    meta = tmp_path / "meta.jsonl"
    meta.write_text(META_V0)
    paths = {}
    for name in ("instances", "ground_truth"):
        start = 5000 if name == past else 0
        paths[name] = tmp_path / f"{name}.jsonl"
        data_model.write_instances([data_model.ActivityInstance("v0", "Riding", Interval(start, start + 5),
                                                                box_rows((0, 0, 10, 10), 5), 0.9)], paths[name])
    res = runner.invoke(main, ["eval-det", "--instances", str(paths["instances"]),
                               "--ground-truth", str(paths["ground_truth"]), "--meta", str(meta),
                               "--out-csv", str(tmp_path / "det.csv"), "--out-summary", str(tmp_path / "s.json")])
    assert res.exit_code == 1, res.output
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "eval-det"
    assert all(part in report["error"] for part in ("'v0'", "[5000, 5005)", "frame_count 10"))
    assert not (tmp_path / "det.csv").exists()


# The config's identity: the bytes of `default-config` and the hash a run
# under it records. A new, renamed or re-defaulted key changes both.
DEFAULT_CONFIG_SHA256 = "d6abbafa9400490a92826fbf48937e9d5be105f3d67ea532bb611c653fdb8ad6"
DEFAULT_CONFIG_HASH = "4aa513a158a61e87b9c7ce4336290b88826361e153d7bd1bb146c4377cd495b8"


def test_default_config_round_trips(corpus_dir, tmp_path):
    cfg_path = tmp_path / "default.json"
    assert run(["default-config", "--out", str(cfg_path)]).exit_code == 0
    assert hashlib.sha256(cfg_path.read_bytes()).hexdigest() == DEFAULT_CONFIG_SHA256
    # the hash is of the checked values: an integral 50.0 is the int 50
    integral = write_config(tmp_path, {"link": {"patience": 50.0}})
    hashes = []
    for extra in ([], ["--config", str(cfg_path)], ["--config", integral]):
        out = tmp_path / f"tubes{len(hashes)}.jsonl"
        assert run([
            "link", "--detections", str(corpus_dir / "detections.jsonl"),
            "--meta", str(corpus_dir / "video_meta.jsonl"), "--out", str(out), *extra,
        ]).exit_code == 0
        hashes.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text())["config_hash"])
    assert hashes == [DEFAULT_CONFIG_HASH] * 3


def test_malformed_instance_box_exits_one(tmp_path):
    tubes = tmp_path / "tubelets.jsonl"
    tubes.write_text("")
    gt = tmp_path / "ground_truth.jsonl"
    gt.write_text(json.dumps({
        "video_id": "v0", "activity": "Riding", "start": 0, "end": 1, "confidence": 1.0,
        "boxes": [{"frame": 0, "x1": 0, "x2": 10, "y2": 10}],
    }) + "\n")
    res = runner.invoke(main, [
        "eval-recall", "--tubelets", str(tubes), "--ground-truth", str(gt), "--out", str(tmp_path / "r.csv"),
    ])
    assert res.exit_code == 1
    assert "ground_truth.jsonl:1" in json.loads(res.output.strip().splitlines()[-1])["error"]


@pytest.mark.parametrize("text", ["{bad", "[1]"])
def test_malformed_config_file_exits_one(tmp_path, text):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    res = runner.invoke(main, [
        "synth", "--out-dir", str(tmp_path / "corpus"), "--config", str(cfg),
    ])
    assert res.exit_code == 1
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "synth" and str(cfg) in report["error"]


def test_deeply_nested_config_file_exits_one(tmp_path):
    # json.load raises RecursionError, not a ValueError, on nesting this deep
    cfg = tmp_path / "cfg.json"
    cfg.write_text("[" * 100_000 + "]" * 100_000)
    res = run(["synth", "--out-dir", str(tmp_path / "corpus"), "--config", str(cfg)])
    assert res.exit_code == 1
    report = json.loads(res.output.strip().splitlines()[-1])
    assert report["stage"] == "synth" and report["error"].startswith(f"{cfg}: malformed config: ")


def _python_last_line(code):
    """The last line that `code` prints when run by a fresh interpreter with
    this checkout's `src` on its path."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    return out.stdout.strip().splitlines()[-1]


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is most of the start-up time of a stage process; only
    # `evaluation.align_instances` needs it, and it loads it when it runs
    code = "import sys, tubekit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    assert _python_last_line(code) == "[]"


def test_cli_import_leaves_the_thread_pool_unloaded():
    # no stage runs on a thread pool, so neither concurrent.futures nor the
    # logging it imports is ever loaded
    code = "import sys, tubekit.cli; print('concurrent.futures' in sys.modules, 'logging' in sys.modules)"
    assert _python_last_line(code) == "False False"


def test_eval_det_leaves_scipy_unloaded(corpus_dir, tmp_path):
    # the DET sweep counts matchings itself; only align_instances needs scipy
    gt = str(corpus_dir / "ground_truth.jsonl")
    args = ["eval-det", "--instances", gt, "--ground-truth", gt, "--meta", str(corpus_dir / "video_meta.jsonl"),
            "--out-csv", str(tmp_path / "det.csv"), "--out-summary", str(tmp_path / "summary.json")]
    code = (
        "import sys\n"
        "from tubekit.cli import main\n"
        f"main({args!r}, standalone_mode=False)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    assert _python_last_line(code) == "[]"
    assert json.loads((tmp_path / "summary.json").read_text())["mean_p_miss"] == 0.0


@pytest.mark.parametrize("name", ["noisy-oracle", "heuristic"])
def test_pipeline_leaves_numpy_ma_unloaded(tmp_path, name):
    # a plain np.unique, with no return_* flag, imports numpy.ma and with it
    # about 0.8 MB of a stage process's peak RSS; no stage needs it
    out = tmp_path / "run"
    args = ["pipeline", "--config", write_config(tmp_path, CORPORA[name]), "--out-dir", str(out)]
    code = (
        "import sys\n"
        "from tubekit.cli import main\n"
        f"main({args!r}, standalone_mode=False)\n"
        "print('numpy.ma' in sys.modules)\n"
    )
    assert _python_last_line(code) == "False"
    assert json.loads((out / "run.manifest.json").read_text())["record_counts"]["instances"] > 0


def test_pipeline_runs_without_scipy(tmp_path):
    # scipy is a test dependency only: no stage imports it, so `pipeline`
    # exits 0 when every `import scipy` fails
    out = tmp_path / "run"
    args = ["pipeline", "--config", write_config(tmp_path, CORPORA["noisy-oracle"]), "--out-dir", str(out)]
    code = f"import sys\nsys.modules['scipy'] = None\nfrom tubekit.cli import main\nmain({args!r})\n"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert res.returncode == 0, res.stderr
    assert json.loads((out / "run.manifest.json").read_text())["record_counts"]["instances"] > 0


def test_stage_processes_leave_openssl_unloaded(corpus_dir, tmp_path):
    # the config hash is the interpreter's built-in SHA-256, so no stage but
    # `synth` loads OpenSSL's `_hashlib`; `synth` does, because numpy.random
    # imports `secrets`, which imports `hmac`
    det, gt, meta = (str(corpus_dir / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))
    tubes, props, vehicle, person, inst = (str(tmp_path / f"{n}.jsonl") for n in
                                           ("tubelets", "proposals", "vehicle", "person", "instances"))
    commands = [
        ["link", "--detections", det, "--meta", meta, "--out", tubes],
        ["refine", "--tubelets", tubes, "--meta", meta, "--out", props],
        ["score", "--proposals", props, "--ground-truth", gt, "--group", "vehicle_related", "--out", vehicle],
        ["score", "--proposals", props, "--ground-truth", gt, "--group", "person_related", "--out", person],
        ["fuse", "--vehicle", vehicle, "--person", person, "--out", inst],
        ["eval-recall", "--tubelets", tubes, "--ground-truth", gt, "--out", str(tmp_path / "recall.csv")],
        ["eval-det", "--instances", inst, "--ground-truth", gt, "--meta", meta,
         "--out-csv", str(tmp_path / "det.csv"), "--out-summary", str(tmp_path / "summary.json")],
        ["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", det, "--ground-truth", gt, "--meta", meta],
    ]
    code = (
        "import sys\n"
        "from tubekit.cli import main\n"
        f"for args in {commands!r}:\n"
        "    main(args, standalone_mode=False)\n"
        "print('_hashlib' in sys.modules)\n"
    )
    assert _python_last_line(code) == "False"


def test_config_hash_is_the_sha256_of_the_checked_config(corpus_dir, tmp_path):
    cfg_path = write_config(tmp_path, {"link": {"patience": 3.0},
                                       "synth": {"activity_mix": {"Closing": 0.25, "Riding": 0.75}}})
    cfg = cli.Config(synthgen.SceneConfig(activity_mix={"Closing": 0.25, "Riding": 0.75}),
                     linking.LinkConfig(patience=3, strategy="greedy"))
    expected = hashlib.sha256(json.dumps(dataclasses.asdict(cfg), sort_keys=True).encode()).hexdigest()
    args = ["link", "--detections", str(corpus_dir / "detections.jsonl"), "--meta", str(corpus_dir / "video_meta.jsonl"),
            "--config", cfg_path, "--strategy", "greedy"]
    assert run([*args, "--out", str(tmp_path / "a.jsonl")]).exit_code == 0
    assert json.loads((tmp_path / "a.jsonl.manifest.json").read_text())["config_hash"] == expected
    # without the built-in modules the hash falls back to hashlib's, and is the same
    fallback = [*args, "--out", str(tmp_path / "b.jsonl")]
    code = (
        "import hashlib, sys\n"
        "sys.modules['_sha2'] = sys.modules['_sha256'] = None\n"
        "from tubekit import cli\n"
        f"cli.main({fallback!r}, standalone_mode=False)\n"
        "print(cli.sha256 is hashlib.sha256)\n"
    )
    assert _python_last_line(code) == "True"
    assert json.loads((tmp_path / "b.jsonl.manifest.json").read_text())["config_hash"] == expected


def _warnings(output):
    lines = [json.loads(line) for line in output.splitlines() if line.startswith("{")]
    return [line["warning"] for line in lines if "warning" in line]


def test_fuse_funnel_and_empty_output_warning(corpus_dir, tmp_path):
    det, gt, meta = (str(corpus_dir / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))
    res = run(["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", det, "--ground-truth", gt,
               "--meta", meta])
    assert res.exit_code == 0 and _warnings(res.output) == []
    manifest = json.loads((tmp_path / "run" / "run.manifest.json").read_text())
    counts = manifest["record_counts"]
    assert counts["nms_in"] > counts["instances"] > 0
    assert manifest["warnings"] == []

    # halved by the fusion weights, no score reaches 0.75: fuse and pipeline both warn
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fusion": {"vehicle_weight": 0.5, "person_weight": 0.5},
                               "nms": {"score_threshold": 0.75}}))
    veh, per = (str(tmp_path / "run" / f"scored_{g}.jsonl") for g in ("vehicle", "person"))
    fused = tmp_path / "instances.jsonl"
    res = run(["fuse", "--vehicle", veh, "--person", per, "--out", str(fused), "--config", str(cfg)])
    assert res.exit_code == 0 and fused.read_text() == ""
    fuse_manifest = json.loads((tmp_path / "instances.jsonl.manifest.json").read_text())
    assert fuse_manifest["record_counts"]["nms_in"] == counts["nms_in"]
    (warning,) = fuse_manifest["warnings"]
    assert "nms.score_threshold 0.75" in warning and f"of {counts['nms_in']} bucket entries" in warning
    assert _warnings(res.output) == [warning]

    res = run(["pipeline", "--out-dir", str(tmp_path / "empty"), "--detections", det, "--ground-truth", gt,
               "--meta", meta, "--config", str(cfg)])
    assert res.exit_code == 0
    assert json.loads((tmp_path / "empty" / "run.manifest.json").read_text())["warnings"] == [warning]
    assert _warnings(res.output) == [warning]


def test_score_threshold_takes_effect(corpus_dir, tmp_path):
    # at 0.3, pipeline and fuse both write exactly the default run's
    # instances of confidence >= 0.3
    det, gt, meta = (str(corpus_dir / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))
    assert run(["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", det, "--ground-truth", gt,
                "--meta", meta]).exit_code == 0
    lines = (tmp_path / "run" / "instances.jsonl").read_text().splitlines(keepends=True)
    want = "".join(line for line in lines if json.loads(line)["confidence"] >= 0.3)
    assert 0 < len(want.splitlines()) < len(lines)
    cfg = write_config(tmp_path, {"nms": {"score_threshold": 0.3}})
    assert run(["pipeline", "--out-dir", str(tmp_path / "cut"), "--detections", det, "--ground-truth", gt,
                "--meta", meta, "--config", cfg]).exit_code == 0
    veh, per = (str(tmp_path / "run" / f"scored_{g}.jsonl") for g in ("vehicle", "person"))
    fused = tmp_path / "instances.jsonl"
    assert run(["fuse", "--vehicle", veh, "--person", per, "--out", str(fused), "--config", cfg]).exit_code == 0
    assert (tmp_path / "cut" / "instances.jsonl").read_text() == fused.read_text() == want
    assert _manifest(fused)["record_counts"]["instances"] == len(want.splitlines())


@pytest.mark.parametrize("videos, frames, spatial_pos", [(1, 600, None), (2, 120, None), (2, 120, 1.0)],
                         ids=["1-600", "2-120", "2-120-spatial_pos_1"])
def test_zero_positive_labels_warning(tmp_path, videos, frames, spatial_pos):
    # no window (at most 256 frames) reaches temporal IoU 0.5 against an
    # activity spanning a whole 600-frame video; at 120 frames every group
    # with references gets positives, unless label.spatial_pos 1.0 asks for
    # exact boxes, and then the warning blames that and not the window bound
    settings = {"synth": {"seed": 0, "video_count": videos, "frames_per_video": frames}}
    if spatial_pos is not None:
        settings["label"] = {"spatial_pos": spatial_pos}
    cfg = write_config(tmp_path, settings)
    out = tmp_path / "run"
    res = run(["pipeline", "--config", cfg, "--out-dir", str(out)])
    assert res.exit_code == 0
    manifest = _manifest(out / "run")
    labels = manifest["record_counts"]["labels"]
    assert sorted(labels) == ["person_related", "vehicle_related"]
    assert sum(c["positive"] + c["negative"] + c["ignore"] for c in labels.values()) == \
        manifest["record_counts"]["proposals"]
    with_refs = [group for group in sorted(labels) if labels[group]["references"]]
    assert with_refs and all(labels[g]["longest_reference"] == frames for g in with_refs)
    warnings = [w for w in _warnings(res.output) if w.startswith("0 positive labels")]
    if frames <= 256 * 2 and spatial_pos is None:
        assert warnings == [] and manifest["warnings"] == []
        assert all(labels[g]["positive"] > 0 for g in with_refs)
        return
    assert all(labels[g]["positive"] == 0 for g in with_refs)
    assert len(warnings) == len(with_refs) and manifest["warnings"][:len(warnings)] == warnings
    for group, warning in zip(with_refs, warnings):
        assert f" {group} " in warning
        if frames > 256 * 2:
            assert all(part in warning for part in ("label.temporal_pos is 0.5", "256 frames", "600 frames"))
        else:
            scored = labels[group]["negative"] + labels[group]["ignore"]
            assert f"its {scored} scored proposals" in warning and "label.spatial_pos 1.0" in warning
            assert "refine.window_sizes" not in warning and "frames" not in warning

    # the score subcommand counts and warns the same for the group it scores
    group = with_refs[0]
    scored = tmp_path / "scored.jsonl"
    res = run(["score", "--proposals", str(out / "proposals.jsonl"), "--ground-truth",
               str(out / "ground_truth.jsonl"), "--group", group, "--config", cfg, "--out", str(scored)])
    assert res.exit_code == 0
    score_manifest = _manifest(scored)
    assert score_manifest["record_counts"]["labels"] == {group: labels[group]}
    assert _warnings(res.output) == score_manifest["warnings"] == warnings[:1]


def test_all_static_tubelets_warning_names_the_static_filter(tmp_path):
    # boxes wider than a 10-px frame pin every object, so refine removes every
    # tubelet; the run warns about the static filter, and no later stage
    # blames its labels or the score cut for the missing proposals
    cfg = write_config(tmp_path, {"synth": {"frame_width": 10.0, "video_count": 2, "frames_per_video": 80}})
    out = tmp_path / "run"
    res = run(["pipeline", "--config", cfg, "--out-dir", str(out)])
    assert res.exit_code == 0
    manifest = _manifest(out / "run")
    counts = manifest["record_counts"]
    assert counts["tubelets"] == counts["removed_static"] > 0 and counts["proposals"] == counts["instances"] == 0
    assert _warnings(res.output) == manifest["warnings"]
    static, fused = manifest["warnings"]
    assert f"all {counts['tubelets']} tubelets were removed as static" in static
    assert "refine.coord_displacement_min 0.5" in static
    assert fused == "0 instances: there is no scored proposal to fuse"
    assert not any("label." in w or "nms.score_threshold" in w for w in manifest["warnings"])

    # the refine and score subcommands say the same: refine warns, score does not
    props, scored = str(tmp_path / "proposals.jsonl"), str(tmp_path / "scored.jsonl")
    res = run(["refine", "--tubelets", str(out / "tubelets.jsonl"), "--meta", str(out / "video_meta.jsonl"),
               "--out", props])
    assert res.exit_code == 0 and _warnings(res.output) == _manifest(props)["warnings"] == [static]
    res = run(["score", "--proposals", props, "--ground-truth", str(out / "ground_truth.jsonl"), "--out", scored])
    assert res.exit_code == 0 and _warnings(res.output) == _manifest(scored)["warnings"] == []


def test_link_funnel_in_manifests(dropout_corpus, tmp_path):
    # two videos with dropout, plus detections of classes the linker drops
    det = tmp_path / "detections.jsonl"
    extra = [{"video_id": "synth_0000", "frame": f, "x1": 1.0, "y1": 1.0, "x2": 5.0, "y2": 5.0, "class": c,
              "score": 0.5} for f, c in ((0, "dog"), (3, "dog"), (4, "cat"))]
    det.write_text((dropout_corpus / "detections.jsonl").read_text() + "".join(json.dumps(r) + "\n" for r in extra))
    meta, gt = str(dropout_corpus / "video_meta.jsonl"), str(dropout_corpus / "ground_truth.jsonl")
    videos, _ = data_model.read_detections(det)

    for strategy in ("tracking", "greedy"):
        # the scalar reference linkers keep each row's provenance
        filled = filled_rows(reference_link(videos, linking.LinkConfig(strategy=strategy)))
        expected = {"detections_in": sum(map(len, videos.values())), "dropped_class_names": {"cat": 1, "dog": 2},
                    "interpolated_frames": filled["interpolated"], "tracked_frames": filled["tracked"]}
        assert set(filled) == {"tracked" if strategy == "tracking" else "interpolated"}
        out = tmp_path / f"{strategy}.jsonl"
        assert run(["link", "--detections", str(det), "--meta", meta, "--strategy", strategy,
                    "--out", str(out)]).exit_code == 0
        counts = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())["record_counts"]
        assert {k: counts[k] for k in expected} == expected
        # each admitted detection is one row of the file, and the funnel counts the others
        rows = sum(len(json.loads(line)["boxes"]) for line in out.read_text().splitlines())
        assert rows - counts["detections_in"] == counts["tracked_frames"] + counts["interpolated_frames"]

    cfg = write_config(tmp_path, {"link": {"strategy": "greedy"}})
    assert run(["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", str(det), "--ground-truth", gt,
                "--meta", meta, "--config", cfg]).exit_code == 0
    counts = json.loads((tmp_path / "run" / "run.manifest.json").read_text())["record_counts"]
    assert {k: counts[k] for k in expected} == expected


LINK_FUNNEL = {"tubelets", "detections_in", "dropped_class_names", "interpolated_frames", "tracked_frames",
               "tracks_ended"}


def test_funnel_keys_are_pinned(dropout_corpus, tmp_path):
    # adding or dropping a funnel key must change this test
    det, gt, meta = (str(dropout_corpus / n) for n in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"))
    out = tmp_path / "tubelets.jsonl"
    assert run(["link", "--detections", det, "--meta", meta, "--out", str(out)]).exit_code == 0
    assert set(_manifest(out)["record_counts"]) == LINK_FUNNEL
    # refine and eval-recall count the tubelets they read, so a stagewise run shows the whole funnel
    props, recall = str(tmp_path / "proposals.jsonl"), str(tmp_path / "recall.csv")
    assert run(["refine", "--tubelets", str(out), "--meta", meta, "--out", props]).exit_code == 0
    assert run(["eval-recall", "--tubelets", str(out), "--ground-truth", gt, "--out", recall]).exit_code == 0
    tubelets = _manifest(out)["record_counts"]["tubelets"]
    assert _manifest(props)["record_counts"] == {"tubelets": tubelets, "proposals": ANY, "removed_static": ANY}
    assert _manifest(recall)["record_counts"] == {"tubelets": tubelets, "thresholds": 9}
    assert run(["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", det, "--ground-truth", gt,
                "--meta", meta]).exit_code == 0
    assert set(_manifest(tmp_path / "run" / "run")["record_counts"]) == LINK_FUNNEL | {
        "proposals", "removed_static", "scored", "labels", "nms_in", "instances", "thresholds", "classes"}


@pytest.mark.parametrize("strategy", ["tracking", "greedy"])
def test_link_with_no_admitted_detection_writes_an_empty_file(dropout_corpus, tmp_path, strategy):
    det = tmp_path / "detections.jsonl"
    det.write_text("".join(json.dumps({"video_id": "synth_0000", "frame": f, "x1": 1.0, "y1": 1.0, "x2": 5.0,
                                       "y2": 5.0, "class": "dog", "score": 0.5}) + "\n" for f in range(3)))
    out = tmp_path / "tubelets.jsonl"
    res = run(["link", "--detections", str(det), "--meta", str(dropout_corpus / "video_meta.jsonl"),
               "--strategy", strategy, "--out", str(out)])
    assert res.exit_code == 0, res.output
    assert out.read_bytes() == b""
    assert _manifest(out)["record_counts"] == {"tubelets": 0, "detections_in": 0, "dropped_class_names": {"dog": 3},
                                               "interpolated_frames": 0, "tracked_frames": 0, "tracks_ended": 0}


# One case per key of `default-config`: the overrides of the base run under
# which the key can show, then a changed valid value for it.
KEY_CASES_BASE = {"synth.seed": 3, "synth.video_count": 2, "synth.frames_per_video": 80,
                  "synth.objects_per_video": [2, 3], "synth.dropout_rate": 0.1, "synth.box_jitter_px": 2.0,
                  "synth.false_positive_rate": 0.5}
KEY_CASES = {
    "synth.seed": ({}, 4),
    "synth.video_count": ({}, 1),
    "synth.frames_per_video": ({}, 64),
    "synth.objects_per_video": ({}, [1, 1]),
    "synth.activity_mix": ({}, {"Riding": 0.5, "Closing": 0.5}),
    "synth.dropout_rate": ({}, 0.3),
    "synth.box_jitter_px": ({}, 1.0),
    "synth.false_positive_rate": ({}, 1.0),
    "synth.score_noise": ({}, 0.1),
    "synth.frame_width": ({}, 960.0),
    "synth.frame_height": ({}, 540.0),
    "synth.frame_rate": ({}, 25.0),
    "link.iou_link_threshold": ({}, 0.8),
    "link.patience": ({}, 1),
    "link.max_interp_gap": ({"link.strategy": "greedy"}, 1),
    "link.strategy": ({}, "greedy"),
    "refine.coord_displacement_min": ({}, 0.0),
    "refine.enlarge_factor": ({}, 1.5),
    "refine.window_sizes": ({}, [16, 48]),
    "refine.window_stride": ({}, 8),
    "label.spatial_pos": ({}, 0.6),
    "label.temporal_pos": ({}, 0.9),  # above a 64-frame window's 0.8 against an 80-frame reference
    "label.temporal_neg": ({}, 0.45),  # above a 32-frame window's 0.4
    "scorer.name": ({}, "heuristic"),
    "scorer.epsilon": ({}, 0.2),
    "scorer.label_noise": ({}, 0.5),
    "scorer.seed": ({"scorer.label_noise": 0.5}, 1),
    "nms.method": ({}, "linear"),
    "nms.sigma": ({}, 0.1),
    "nms.linear_threshold": ({"nms.method": "linear"}, 0.8),
    "nms.score_threshold": ({}, 0.5),
    "fusion.vehicle_weight": ({}, 0.5),
    "fusion.person_weight": ({}, 0.5),
    "eval.target_rfa": ({}, 1.0),
    "eval.recall_thresholds": ({}, [0.5]),
    "align.temporal_iou_min": ({}, 0.9),
}
# what a run shows of its config: the proposals and scored files are left
# out, so a key that only they echo counts as dead
OBSERVED_FILES = ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl", "tubelets.jsonl",
                  "instances.jsonl", "det.csv", "summary.json", "recall.csv")


def test_every_config_key_takes_effect(tmp_path):
    # every tunable changes what a run writes or counts, or it is dead; a new
    # key needs a case here
    assert set(KEY_CASES) == {f"{section}.{key}" for section, keys in cli.DEFAULT_CONFIG.items() for key in keys}
    runs = {}

    def observed(flags):
        name = json.dumps(flags, sort_keys=True)
        if name not in runs:
            out = tmp_path / str(len(runs))
            cli.run_pipeline(cli._merged_config(None, flags), str(out))
            runs[name] = ({f: (out / f).read_bytes() for f in OBSERVED_FILES},
                          _manifest(out / "run")["record_counts"])
        return runs[name]

    dead = [key for key, (override, value) in KEY_CASES.items()
            if observed({**KEY_CASES_BASE, **override}) == observed({**KEY_CASES_BASE, **override, key: value})]
    assert dead == []


# The noisy-oracle golden corpus's proposals and scored files as an older
# format wrote them: each line also held `sample_count` and each box row its
# tubelet row's `score` and `provenance`.
PREVIOUS_FORMAT_DIGESTS = {
    "proposals.jsonl": "ca784b84ea486c22bf62f98d7d4888a03ef7e6aa95a79618fcc1dfeee364743a",
    "scored_vehicle.jsonl": "9db38e6ec0ad5971067e13ee71ab6beaee4f524a8c0c8df9bc2317acc53309fe",
    "scored_person.jsonl": "d487e9bc5278b5fa41fb0d95e95bc84c789287585beee4a72e9a1d97ee6227f4",
}


def test_previous_proposals_format_still_reads(tmp_path):
    # the readers ignore the keys they do not use, so a file in the previous
    # format reads to the same proposals and fuses to the same bytes
    out, cfg = tmp_path / "run", write_config(tmp_path, CORPORA["noisy-oracle"])
    config = cli._merged_config(cfg)
    cli.run_pipeline(config, str(out))
    # tubelet rows no longer hold a score and provenance; the scalar reference
    # linker still gives them
    videos, _ = data_model.read_detections(out / "detections.jsonl")
    tubelets = {(t.video_id, t.id): t for t in reference_link(videos, config.link)}
    old = {}
    for name, digest in PREVIOUS_FORMAT_DIGESTS.items():
        lines = []
        for _, rec in data_model.read_jsonl(out / name):
            t = tubelets[rec["video_id"], rec["id"]]
            for row, score, provenance in zip(rec["boxes"], t.box_scores, t.provenance):
                row.update(score=score, provenance=provenance)
            lines.append(json.dumps({**rec, "sample_count": 64}, sort_keys=True) + "\n")
        old[name] = tmp_path / f"old_{name}"
        old[name].write_text("".join(lines))
        assert hashlib.sha256(old[name].read_bytes()).hexdigest() == digest
        _same_proposals(refinement.read_proposals(out / name), refinement.read_proposals(old[name]))

    fused = tmp_path / "instances.jsonl"
    res = run(["fuse", "--vehicle", str(old["scored_vehicle.jsonl"]), "--person", str(old["scored_person.jsonl"]),
               "--out", str(fused), "--config", cfg])
    assert res.exit_code == 0
    assert fused.read_bytes() == (out / "instances.jsonl").read_bytes()


# The golden corpora's tubelets.jsonl as the format before the box-row one
# wrote it: each box row also held the row's detection `score` and
# `provenance`.
PREVIOUS_TUBELETS_DIGESTS = {
    "clean": "4437c373c13b6632d31395372a9fc5911df636b9456415b11468350c7efa56f3",
    "noisy-oracle": "499f74d32bb6f7cff9855c73f3b92b670190fda01b302cb5bff595b7b2930aee",
    "heuristic": "35ed5c999fbb915afc01243778762d535412f2c5c4cb51b1a5ef581c3b547674",
    "greedy": "63aa94d8b3d4d0e07392c4f04bf2a824de9d05826f3074b3004d79794d7ad762",
    "clipped-scores": "c5b369b2ba3299fd403cf855f61e4a4e3c12513498b01bb3f5bff9d3814560e0",
}


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_previous_tubelets_format_still_reads(tmp_path, name):
    # the reader ignores the per-row keys it does not use, so a file in the
    # previous format reads to the same columns, and refine and eval-recall
    # on it write the same bytes
    out, cfg = tmp_path / "run", write_config(tmp_path, CORPORA[name])
    config = cli._merged_config(cfg)
    cli.run_pipeline(config, str(out))
    videos, _ = data_model.read_detections(out / "detections.jsonl")
    old = tmp_path / "old_tubelets.jsonl"
    data_model.write_jsonl(map(previous_format_line, reference_link(videos, config.link)), old)
    assert hashlib.sha256(old.read_bytes()).hexdigest() == PREVIOUS_TUBELETS_DIGESTS[name]

    new_tables, old_tables = (linking.read_tubelets(path).tables for path in (out / "tubelets.jsonl", old))
    assert len(new_tables) == len(old_tables) > 0
    for a, b in zip(new_tables, old_tables):
        assert a.video_id == b.video_id
        for col in ("starts", "lengths", "classes", "firsts", "boxes", "ids"):
            x, y = getattr(a, col), getattr(b, col)
            assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), col

    meta, gt = str(out / "video_meta.jsonl"), str(out / "ground_truth.jsonl")
    props, recall = tmp_path / "proposals.jsonl", tmp_path / "recall.csv"
    assert run(["refine", "--tubelets", str(old), "--meta", meta, "--out", str(props), "--config", cfg]).exit_code == 0
    assert run(["eval-recall", "--tubelets", str(old), "--ground-truth", gt, "--out", str(recall),
                "--config", cfg]).exit_code == 0
    assert props.read_bytes() == (out / "proposals.jsonl").read_bytes()
    assert recall.read_bytes() == (out / "recall.csv").read_bytes()
