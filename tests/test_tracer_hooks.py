"""The benchmark's tracer (`perfbench/tracer.py`) patches tubekit functions by
name. A rename or removal in `src/` would silently stop a traced layer from
being measured, so every name it hooks must resolve."""

import importlib
import importlib.util
import json
from pathlib import Path

from tubekit import cli, data_model, linking, synthgen

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"

# a small corpus with dropout and false positives, for whole runs
SMALL_RUN = {"synth.seed": 3, "synth.video_count": 2, "synth.frames_per_video": 80, "synth.dropout_rate": 0.1,
             "synth.false_positive_rate": 0.5}


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_resolves():
    tracer = load_tracer()
    assert tracer.LAYERS
    for mod_name, fn_name, _ in tracer.LAYERS:
        module = importlib.import_module(f"tubekit.{mod_name}")
        assert callable(getattr(module, fn_name, None)), f"tubekit.{mod_name}.{fn_name}"


def test_install_patches_and_uninstall_restores():
    tracer_module = load_tracer()
    modules = {mod_name: importlib.import_module(f"tubekit.{mod_name}") for mod_name, _, _ in tracer_module.LAYERS}
    before = {(m, f): getattr(modules[m], f) for m, f, _ in tracer_module.LAYERS}
    tracer = tracer_module.Tracer("test")
    tracer.install()
    try:
        for (m, f), original in before.items():
            assert getattr(modules[m], f) is not original, f"tubekit.{m}.{f} not patched"
    finally:
        tracer.uninstall()
    for (m, f), original in before.items():
        assert getattr(modules[m], f) is original


def test_link_counters_follow_track_link(tmp_path):
    # the benchmark's linking.detections_in / tubelets_out read these counts;
    # a change to track_link's arguments or return value must not zero them
    corpus = synthgen.generate(
        synthgen.SceneConfig(seed=7, video_count=2, frames_per_video=60, objects_per_video=(2, 3),
                             dropout_rate=0.2, false_positive_rate=2.0)
    )
    paths = synthgen.write_corpus(corpus, tmp_path / "corpus")
    video = corpus.detections["synth_0000"]
    tracer = load_tracer().Tracer("test")
    tracer.install()
    try:
        tubes = linking.track_link(video)
        direct = tracer.totals()
        cli_tubes = cli.link(cli.Manifest("link", cli._merged_config()),
                             data_model.read_detections(paths["detections"]),
                             data_model.read_video_meta(paths["video_meta"]), tmp_path / "tubelets.jsonl")
        both = tracer.totals()
    finally:
        tracer.uninstall()
    assert direct["linking.track_link"]["in"] == len(video)
    assert direct["linking.track_link"]["out"] == len(tubes) > 0
    assert direct.get("geometry.Box", {}).get("inits", 0) == 0
    assert both.get("geometry.Box", {}).get("inits", 0) == 0
    assert both["linking.track_link"]["calls"] == 3  # once more per video
    assert both["linking.track_link"]["in"] == len(video) + corpus.manifest["counts"]["detections"]
    assert both["linking.track_link"]["out"] == len(tubes) + len(cli_tubes)


def test_write_counters_equal_the_written_files(tmp_path):
    # the benchmark's data_model.write_jsonl_records / write_mb read these
    # counts; a writer that bypasses write_jsonl would silently lower them
    cfg = cli._merged_config(flags=SMALL_RUN)
    tracer = load_tracer().Tracer("test")
    tracer.install()
    try:
        cli.run_pipeline(cfg, tmp_path / "run")
        writes = tracer.totals()["data_model.write_jsonl"]
    finally:
        tracer.uninstall()
    files = sorted((tmp_path / "run").glob("*.jsonl"))
    assert len(files) == 8
    assert writes["calls"] == len(files)
    assert writes["bytes"] == sum(f.stat().st_size for f in files)
    assert writes["records"] == sum(len(f.read_bytes().splitlines()) for f in files)


def test_fuse_counters_equal_the_manifest_funnel(tmp_path):
    # the benchmark's postprocess.soft_nms_in / soft_nms_kept_ratio /
    # instances_out read these counts; they must agree with the funnel the
    # run records
    cfg = cli._merged_config(flags=SMALL_RUN)
    tracer = load_tracer().Tracer("test")
    tracer.install()
    try:
        cli.run_pipeline(cfg, tmp_path / "run")
        totals = tracer.totals()
    finally:
        tracer.uninstall()
    counts = json.loads((tmp_path / "run" / "run.manifest.json").read_text())["record_counts"]
    assert counts["nms_in"] > counts["instances"] > 0
    assert totals["postprocess.soft_nms"]["in"] == counts["nms_in"]
    assert totals["postprocess.soft_nms"]["out"] == counts["instances"]
    assert totals["postprocess.proposals_to_instances"]["out"] == counts["instances"]
