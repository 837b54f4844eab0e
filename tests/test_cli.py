import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from click.testing import CliRunner

from tubekit import data_model, linking
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


def test_full_stage_chain_and_pipeline_equivalence(corpus_dir, tmp_path):
    det = str(corpus_dir / "detections.jsonl")
    meta = str(corpus_dir / "video_meta.jsonl")
    gt = str(corpus_dir / "ground_truth.jsonl")

    tubes = str(tmp_path / "tubelets.jsonl")
    assert run(["link", "--detections", det, "--meta", meta, "--out", tubes]).exit_code == 0

    props = str(tmp_path / "proposals.jsonl")
    assert run(["refine", "--tubelets", tubes, "--meta", meta, "--out", props]).exit_code == 0

    veh = str(tmp_path / "scored_vehicle.jsonl")
    per = str(tmp_path / "scored_person.jsonl")
    for out, group in ((veh, "vehicle_related"), (per, "person_related")):
        assert run([
            "score", "--proposals", props, "--scorer", "oracle", "--ground-truth", gt,
            "--out", out, "--group", group,
        ]).exit_code == 0

    inst = str(tmp_path / "instances.jsonl")
    assert run(["fuse", "--vehicle", veh, "--person", per, "--out", inst]).exit_code == 0

    recall = str(tmp_path / "recall.csv")
    assert run(["eval-recall", "--tubelets", tubes, "--ground-truth", gt, "--out", recall]).exit_code == 0
    assert Path(recall).read_text().splitlines()[0] == "threshold,recall"

    det_csv = str(tmp_path / "det.csv")
    summary = str(tmp_path / "summary.json")
    res = run([
        "eval-det", "--instances", inst, "--ground-truth", gt, "--meta", meta,
        "--out-csv", det_csv, "--out-summary", summary,
    ])
    assert res.exit_code == 0
    assert json.loads(Path(summary).read_text())["mean_p_miss"] == 0.0

    # pipeline subcommand on the same inputs produces identical data files
    pipe_dir = tmp_path / "pipe"
    res = run([
        "pipeline", "--out-dir", str(pipe_dir),
        "--detections", det, "--ground-truth", gt, "--meta", meta,
    ])
    assert res.exit_code == 0
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
    det = str(corpus_dir / "detections.jsonl")
    meta = str(corpus_dir / "video_meta.jsonl")
    outputs = []
    for workers in (1, 4):
        out = tmp_path / f"tubes_w{workers}.jsonl"
        assert run([
            "link", "--detections", det, "--meta", meta, "--out", str(out),
            "--workers", str(workers),
        ]).exit_code == 0
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]


def test_missing_input_exits_one(tmp_path):
    res = runner.invoke(main, [
        "link", "--detections", str(tmp_path / "nope.jsonl"),
        "--meta", str(tmp_path / "nope_meta.jsonl"), "--out", str(tmp_path / "o.jsonl"),
    ])
    assert res.exit_code != 0


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
    [({"link": {"patiense": 5}}, "link.patiense"), ({"linking": {"patience": 5}}, "linking")],
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


def test_default_config_round_trips(corpus_dir, tmp_path):
    cfg_path = tmp_path / "default.json"
    assert run(["default-config", "--out", str(cfg_path)]).exit_code == 0
    hashes = []
    for extra in ([], ["--config", str(cfg_path)]):
        out = tmp_path / f"tubes{len(hashes)}.jsonl"
        assert run([
            "link", "--detections", str(corpus_dir / "detections.jsonl"),
            "--meta", str(corpus_dir / "video_meta.jsonl"), "--out", str(out), *extra,
        ]).exit_code == 0
        hashes.append(json.loads((tmp_path / f"{out.name}.manifest.json").read_text())["config_hash"])
    assert hashes[0] == hashes[1]


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


def test_cli_import_leaves_scipy_unloaded():
    # scipy.optimize is most of the start-up time of a stage process; only
    # eval-det needs it, and it loads it when it aligns
    code = "import sys, tubekit.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "[]"


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
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip().splitlines()[-1] == "[]"
    assert json.loads((tmp_path / "summary.json").read_text())["mean_p_miss"] == 0.0


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
    assert counts["nms_in"] >= counts["nms_kept"] >= counts["instances"] > 0
    assert manifest["warnings"] == []

    # halved by the fusion weights, no score reaches 0.75: fuse and pipeline both warn
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"fusion": {"vehicle_weight": 0.5, "person_weight": 0.5},
                               "output": {"score_threshold": 0.75}}))
    veh, per = (str(tmp_path / "run" / f"scored_{g}.jsonl") for g in ("vehicle", "person"))
    fused = tmp_path / "instances.jsonl"
    res = run(["fuse", "--vehicle", veh, "--person", per, "--out", str(fused), "--config", str(cfg)])
    assert res.exit_code == 0 and fused.read_text() == ""
    fuse_manifest = json.loads((tmp_path / "instances.jsonl.manifest.json").read_text())
    assert fuse_manifest["record_counts"]["nms_in"] == counts["nms_in"]
    (warning,) = fuse_manifest["warnings"]
    assert "output.score_threshold" in warning and "nms.score_floor" in warning
    assert _warnings(res.output) == [warning]

    res = run(["pipeline", "--out-dir", str(tmp_path / "empty"), "--detections", det, "--ground-truth", gt,
               "--meta", meta, "--config", str(cfg)])
    assert res.exit_code == 0
    assert json.loads((tmp_path / "empty" / "run.manifest.json").read_text())["warnings"] == [warning]
    assert _warnings(res.output) == [warning]


def test_link_funnel_in_manifests(dropout_corpus, tmp_path):
    # two videos with dropout, plus detections of classes the linker drops
    det = tmp_path / "detections.jsonl"
    extra = [{"video_id": "synth_0000", "frame": f, "x1": 1.0, "y1": 1.0, "x2": 5.0, "y2": 5.0, "class": c,
              "score": 0.5} for f, c in ((0, "dog"), (3, "dog"), (4, "cat"))]
    det.write_text((dropout_corpus / "detections.jsonl").read_text() + "".join(json.dumps(r) + "\n" for r in extra))
    meta, gt = str(dropout_corpus / "video_meta.jsonl"), str(dropout_corpus / "ground_truth.jsonl")
    videos, _ = data_model.read_detections(det)

    for strategy, link in (("tracking", linking.track_link), ("greedy", linking.greedy_link)):
        stats = linking.LinkStats()
        for video in sorted(videos):
            link(videos[video], stats=stats)
        expected = {"detections_in": sum(map(len, videos.values())), "dropped_class_names": {"cat": 1, "dog": 2},
                    "splits_on_long_gap": stats.splits_on_long_gap,
                    "interpolated_frames": stats.interpolated_frames, "tracked_frames": stats.tracked_frames}
        assert (stats.tracked_frames if strategy == "tracking" else stats.interpolated_frames) > 0
        for workers in (1, 2):
            out = tmp_path / f"{strategy}_w{workers}.jsonl"
            assert run(["link", "--detections", str(det), "--meta", meta, "--strategy", strategy,
                        "--out", str(out), "--workers", str(workers)]).exit_code == 0
            counts = json.loads((tmp_path / f"{out.name}.manifest.json").read_text())["record_counts"]
            assert {k: counts[k] for k in expected} == expected
            # the funnel counts the filled rows the file holds
            written = Counter(b["provenance"] for line in out.read_text().splitlines()
                              for b in json.loads(line)["boxes"])
            assert (written["tracked"], written["interpolated"]) == (counts["tracked_frames"],
                                                                     counts["interpolated_frames"])

    cfg = write_config(tmp_path, {"link": {"strategy": "greedy"}})
    assert run(["pipeline", "--out-dir", str(tmp_path / "run"), "--detections", str(det), "--ground-truth", gt,
                "--meta", meta, "--config", cfg]).exit_code == 0
    counts = json.loads((tmp_path / "run" / "run.manifest.json").read_text())["record_counts"]
    assert {k: counts[k] for k in expected} == expected
