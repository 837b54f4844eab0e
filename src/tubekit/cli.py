"""Pipeline driver.

Subcommands mirror the three pipeline stages plus evaluation:

    synth, link, refine, score, fuse, eval-recall, eval-det, pipeline,
    default-config

Stages communicate only through files. Each run writes a manifest
(``<output>.manifest.json``) with the config hash, timings and record counts;
data outputs are byte-reproducible across runs and worker counts.

Exit codes: 0 success, 1 input error, 2 stage failure.
"""

import dataclasses
import hashlib
import json
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor

import click

from . import data_model, evaluation, linking, postprocess, proposals, refinement, synthgen
from .errors import ConsistencyError, InvalidInputError, ParseError, SchemaError, TubekitError
from .evaluation import AlignmentPolicy
from .linking import LinkConfig
from .postprocess import SoftNmsConfig
from .proposals import LabelPolicy
from .refinement import RefineConfig

# Config sections backed by a stage dataclass: their defaults are the
# dataclass defaults, and `_stage_config` builds the dataclass from the section.
STAGE_CONFIGS = {
    "synth": synthgen.SceneConfig,
    "link": LinkConfig,
    "refine": RefineConfig,
    "label": LabelPolicy,
    "nms": SoftNmsConfig,
    "align": AlignmentPolicy,
}

DEFAULT_CONFIG = {
    **{
        section: {f.name: f.default for f in dataclasses.fields(cls)}
        for section, cls in STAGE_CONFIGS.items()
    },
    "scorer": {"name": "oracle", "epsilon": 0.0, "label_noise": 0.0, "seed": 0},
    "fusion": {"vehicle_weight": 1.0, "person_weight": 1.0},
    "eval": {
        "target_rfa": 0.15,
        "recall_thresholds": [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9],
    },
    "output": {"score_threshold": 0.05},
    "workers": 1,
}
DEFAULT_CONFIG["link"]["strategy"] = "tracking"


def _merged_config(path=None):
    """The default config overridden by the JSON file at `path`; an unknown
    section or key is an input error."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except ValueError as exc:
            raise InvalidInputError(f"{path}: malformed config: {exc}")
        if not isinstance(user, dict):
            raise InvalidInputError(f"{path}: config must be a JSON object")
        for section, value in user.items():
            if section not in cfg:
                raise InvalidInputError(f"unknown config section: {section!r}")
            if not isinstance(cfg[section], dict):
                cfg[section] = value
                continue
            if not isinstance(value, dict):
                raise InvalidInputError(f"config section {section!r} must be an object")
            for key in value:
                if key not in cfg[section]:
                    raise InvalidInputError(f"unknown config key: {section}.{key}")
            cfg[section].update(value)
    return cfg


def _stage_config(cfg, section):
    """Build the stage dataclass from its config section; JSON lists become tuples."""
    cls = STAGE_CONFIGS[section]
    kwargs = {}
    for f in dataclasses.fields(cls):
        value = cfg[section][f.name]
        kwargs[f.name] = tuple(value) if isinstance(value, list) else value
    return cls(**kwargs)


def _config_hash(cfg):
    return hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()


def _write_manifest(out_path, stage, cfg, timings, counts, warnings=None):
    manifest = {
        "stage": stage,
        "config_hash": _config_hash(cfg),
        "timings_s": timings,
        "record_counts": counts,
    }
    if warnings is not None:
        manifest["warnings"] = warnings
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _parallel_map(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# stage implementations (shared by subcommands and the pipeline)


def run_synth(cfg, out_dir):
    corpus = synthgen.generate(_stage_config(cfg, "synth"))
    return synthgen.write_corpus(corpus, out_dir), corpus


def run_link(detections_path, meta_path, strategy, cfg, out_path, workers=1):
    """Link every video and write the tubelets; returns them with the link
    funnel (detections in, dropped class names, and the `LinkStats` counts
    summed over the videos in sorted order)."""
    videos, dropped = data_model.read_detections(detections_path)
    metas = data_model.read_video_meta(meta_path)
    unknown = set(videos) - set(metas)
    if unknown:
        raise ConsistencyError(f"detections reference unknown video_id(s): {sorted(unknown)}")
    if strategy not in ("greedy", "tracking"):
        raise InvalidInputError(f"unknown strategy: {strategy!r}")
    link = linking.greedy_link if strategy == "greedy" else linking.track_link

    link_cfg = _stage_config(cfg, "link")
    linked = _parallel_map(lambda v: link(videos[v], config=link_cfg), sorted(videos), workers)
    all_tubes = []
    for tubes, _ in linked:
        for t in tubes:
            t.id = len(all_tubes)
            all_tubes.append(t)
    linking.write_tubelets(all_tubes, out_path)
    funnel = {
        "detections_in": sum(map(len, videos.values())),
        "dropped_class_names": dict(sorted(dropped.items())),
        **{f.name: sum(getattr(stats, f.name) for _, stats in linked) for f in dataclasses.fields(linking.LinkStats)},
    }
    return all_tubes, funnel


def run_refine(tubelets_path, meta_path, cfg, out_path, workers=1):
    tubes = linking.read_tubelets(tubelets_path)
    metas = data_model.read_video_meta(meta_path)
    unknown = {t.video_id for t in tubes} - set(metas)
    if unknown:
        raise ConsistencyError(f"tubelets reference unknown video_id(s): {sorted(unknown)}")

    refine_cfg = _stage_config(cfg, "refine")
    kept, removed = refinement.filter_static(tubes, refine_cfg)

    def _one(tub):
        meta = metas[tub.video_id]
        return refinement.make_proposals(tub, meta.width, meta.height, refine_cfg)

    props = []
    for plist in _parallel_map(_one, kept, workers):
        props.extend(plist)
    props.sort(key=lambda p: (p.video_id, p.tubelet_id, p.window.start, p.window.end))
    for i, p in enumerate(props):
        p.proposal_id = i
    refinement.write_proposals(props, out_path)
    return props, removed


def run_score(proposals_path, cfg, out_path, ground_truth_path=None, group_filter=None, workers=1):
    props = refinement.read_proposals(proposals_path)
    scorer_cfg = cfg["scorer"]
    ground_truth = None
    if scorer_cfg["name"] == "oracle":
        if ground_truth_path is None:
            raise InvalidInputError("oracle scorer requires --ground-truth")
        ground_truth = data_model.read_ground_truth(ground_truth_path)
    scorer = proposals.make_scorer(
        scorer_cfg["name"],
        ground_truth=ground_truth,
        epsilon=scorer_cfg["epsilon"],
        label_noise=scorer_cfg["label_noise"],
        seed=scorer_cfg["seed"],
        policy=_stage_config(cfg, "label"),
    )

    if group_filter is not None:
        props = [p for p in props if proposals.route(p).name == group_filter]

    def _one(p):
        p.scores = proposals.score(p, proposals.route(p), scorer)
        return p

    scored = _parallel_map(_one, props, workers)
    refinement.write_proposals(scored, out_path)
    return scored


def run_fuse(vehicle_path, person_path, cfg, out_path, funnel=None):
    vehicle = refinement.read_proposals(vehicle_path)
    person = refinement.read_proposals(person_path)
    nms_cfg = _stage_config(cfg, "nms")
    weights = (cfg["fusion"]["vehicle_weight"], cfg["fusion"]["person_weight"])
    fused = postprocess.fuse(vehicle, person, nms_cfg, weights, funnel)
    instances = postprocess.proposals_to_instances(fused, cfg["output"]["score_threshold"])
    data_model.write_instances(instances, out_path)
    return instances


def _fuse_warnings(stage, instances, funnel, cfg):
    """Warn on stderr when fusion produced no instance; returns the warnings
    for the manifest."""
    if instances:
        return []
    warning = (
        f"0 instances: soft-NMS kept {funnel['nms_kept']} of {funnel['nms_in']} bucket entries at "
        f"nms.score_floor {cfg['nms']['score_floor']}, and none reached output.score_threshold "
        f"{cfg['output']['score_threshold']}"
    )
    click.echo(json.dumps({"stage": stage, "warning": warning}), err=True)
    return [warning]


def run_eval_recall(tubelets_path, ground_truth_path, cfg, out_path):
    tubes = linking.read_tubelets(tubelets_path)
    refs = data_model.read_ground_truth(ground_truth_path)
    curve = evaluation.tubelet_recall(tubes, refs, cfg["eval"]["recall_thresholds"])
    evaluation.write_recall_csv(curve, out_path)
    return curve


def run_eval_det(instances_path, ground_truth_path, meta_path, cfg, out_csv, out_summary):
    system = data_model.read_instances(instances_path)
    refs = data_model.read_ground_truth(ground_truth_path)
    metas = data_model.read_video_meta(meta_path)
    policy = _stage_config(cfg, "align")
    curves = evaluation.det_curve(system, refs, metas, policy)
    evaluation.write_det_csv(curves, out_csv)
    summary = evaluation.write_det_summary(curves, out_summary, cfg["eval"]["target_rfa"])
    return curves, summary


# ---------------------------------------------------------------------------
# click wiring


def _guarded(stage):
    """Abort with a structured error naming the stage: exit 1 on input errors,
    exit 2 on anything else."""

    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                return fn(*args, **kwargs)
            except (ParseError, SchemaError, ConsistencyError, InvalidInputError, FileNotFoundError) as exc:
                click.echo(json.dumps({"stage": stage, "error": str(exc)}), err=True)
                sys.exit(1)
            except TubekitError as exc:
                click.echo(json.dumps({"stage": stage, "error": str(exc)}), err=True)
                sys.exit(2)
            except Exception as exc:  # stage failure
                click.echo(json.dumps({"stage": stage, "error": repr(exc)}), err=True)
                sys.exit(2)

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@click.group()
def main():
    """Spatio-temporal activity detection pipeline toolkit."""


@main.command("default-config")
@click.option("--out", type=click.Path(), required=True)
def default_config_cmd(out):
    """Write the reference config with every documented default."""
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(DEFAULT_CONFIG, fh, sort_keys=True, indent=2)
        fh.write("\n")
    click.echo(f"wrote {out}")


@main.command("synth")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--seed", type=int, default=None)
@click.option("--videos", type=int, default=None)
@click.option("--frames", type=int, default=None)
@click.option("--dropout", type=float, default=None)
@_guarded("synth")
def synth_cmd(config_path, out_dir, seed, videos, frames, dropout):
    """Generate a synthetic corpus (detections, ground truth, video meta)."""
    cfg = _merged_config(config_path)
    for key, value in (
        ("seed", seed),
        ("video_count", videos),
        ("frames_per_video", frames),
        ("dropout_rate", dropout),
    ):
        if value is not None:
            cfg["synth"][key] = value
    started = time.perf_counter()
    paths, corpus = run_synth(cfg, out_dir)
    _write_manifest(
        os.path.join(out_dir, "synth"),
        "synth",
        cfg,
        {"synth": time.perf_counter() - started},
        corpus.manifest["counts"],
    )
    click.echo(json.dumps(paths, sort_keys=True))


@main.command("link")
@click.option("--detections", type=click.Path(exists=True), required=True)
@click.option("--meta", type=click.Path(exists=True), required=True)
@click.option("--strategy", type=click.Choice(["greedy", "tracking"]), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--workers", type=int, default=None)
@_guarded("link")
def link_cmd(detections, meta, strategy, out, config_path, workers):
    """Link per-frame detections into tubelets."""
    cfg = _merged_config(config_path)
    if strategy is not None:
        cfg["link"]["strategy"] = strategy
    if workers is not None:
        cfg["workers"] = workers
    started = time.perf_counter()
    tubes, funnel = run_link(detections, meta, cfg["link"]["strategy"], cfg, out, cfg["workers"])
    _write_manifest(out, "link", cfg, {"link": time.perf_counter() - started}, {"tubelets": len(tubes), **funnel})
    click.echo(f"wrote {len(tubes)} tubelets to {out}")


@main.command("refine")
@click.option("--tubelets", type=click.Path(exists=True), required=True)
@click.option("--meta", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--workers", type=int, default=None)
@_guarded("refine")
def refine_cmd(tubelets, meta, out, config_path, workers):
    """Filter static tubelets, normalize boxes, jitter into proposals."""
    cfg = _merged_config(config_path)
    if workers is not None:
        cfg["workers"] = workers
    started = time.perf_counter()
    props, removed = run_refine(tubelets, meta, cfg, out, cfg["workers"])
    _write_manifest(
        out,
        "refine",
        cfg,
        {"refine": time.perf_counter() - started},
        {"proposals": len(props), "removed_static": removed},
    )
    click.echo(f"wrote {len(props)} proposals to {out} ({removed} static tubelets removed)")


@main.command("score")
@click.option("--proposals", "proposals_path", type=click.Path(exists=True), required=True)
@click.option("--scorer", type=click.Choice(["oracle", "heuristic"]), default=None)
@click.option("--ground-truth", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--group", type=click.Choice(["vehicle_related", "person_related"]), default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--workers", type=int, default=None)
@_guarded("score")
def score_cmd(proposals_path, scorer, ground_truth, out, group, epsilon, config_path, workers):
    """Score proposals with the selected scorer (optionally one model group)."""
    cfg = _merged_config(config_path)
    if scorer is not None:
        cfg["scorer"]["name"] = scorer
    if epsilon is not None:
        cfg["scorer"]["epsilon"] = epsilon
    if workers is not None:
        cfg["workers"] = workers
    started = time.perf_counter()
    scored = run_score(proposals_path, cfg, out, ground_truth, group, cfg["workers"])
    _write_manifest(out, "score", cfg, {"score": time.perf_counter() - started}, {"scored": len(scored)})
    click.echo(f"wrote {len(scored)} scored proposals to {out}")


@main.command("fuse")
@click.option("--vehicle", type=click.Path(exists=True), required=True)
@click.option("--person", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--vehicle-weight", type=float, default=None)
@click.option("--person-weight", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_guarded("fuse")
def fuse_cmd(vehicle, person, out, vehicle_weight, person_weight, config_path):
    """Late-fuse the two model outputs into final activity instances."""
    cfg = _merged_config(config_path)
    if vehicle_weight is not None:
        cfg["fusion"]["vehicle_weight"] = vehicle_weight
    if person_weight is not None:
        cfg["fusion"]["person_weight"] = person_weight
    started = time.perf_counter()
    funnel = {}
    instances = run_fuse(vehicle, person, cfg, out, funnel)
    elapsed = time.perf_counter() - started
    warnings = _fuse_warnings("fuse", instances, funnel, cfg)
    _write_manifest(out, "fuse", cfg, {"fuse": elapsed}, {"instances": len(instances), **funnel}, warnings)
    click.echo(f"wrote {len(instances)} instances to {out}")


@main.command("eval-recall")
@click.option("--tubelets", type=click.Path(exists=True), required=True)
@click.option("--ground-truth", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_guarded("eval-recall")
def eval_recall_cmd(tubelets, ground_truth, out, config_path):
    """Recall of tubelet generation across IoU thresholds (CSV)."""
    cfg = _merged_config(config_path)
    started = time.perf_counter()
    curve = run_eval_recall(tubelets, ground_truth, cfg, out)
    _write_manifest(
        out, "eval-recall", cfg, {"eval-recall": time.perf_counter() - started},
        {"thresholds": len(curve.thresholds)},
    )
    click.echo(f"wrote recall curve to {out}")


@main.command("eval-det")
@click.option("--instances", type=click.Path(exists=True), required=True)
@click.option("--ground-truth", type=click.Path(exists=True), required=True)
@click.option("--meta", type=click.Path(exists=True), required=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-summary", type=click.Path(), required=True)
@click.option("--target-rfa", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_guarded("eval-det")
def eval_det_cmd(instances, ground_truth, meta, out_csv, out_summary, target_rfa, config_path):
    """DET curves (p_miss vs rfa) and the summary p_miss@target."""
    cfg = _merged_config(config_path)
    if target_rfa is not None:
        cfg["eval"]["target_rfa"] = target_rfa
    started = time.perf_counter()
    _, summary = run_eval_det(instances, ground_truth, meta, cfg, out_csv, out_summary)
    _write_manifest(
        out_csv, "eval-det", cfg, {"eval-det": time.perf_counter() - started},
        {"classes": len(summary["per_class_p_miss"])},
    )
    click.echo(json.dumps({"mean_p_miss": summary["mean_p_miss"]}))


@main.command("pipeline")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--detections", type=click.Path(exists=True), default=None)
@click.option("--ground-truth", type=click.Path(exists=True), default=None)
@click.option("--meta", type=click.Path(exists=True), default=None)
@click.option("--workers", type=int, default=None)
@_guarded("pipeline")
def pipeline_cmd(config_path, out_dir, detections, ground_truth, meta, workers):
    """Run every stage in sequence. Inputs come from the synthetic generator
    unless --detections/--ground-truth/--meta are all given."""
    cfg = _merged_config(config_path)
    if workers is not None:
        cfg["workers"] = workers
    workers = cfg["workers"]
    os.makedirs(out_dir, exist_ok=True)

    timings = {}
    counts = {}

    def timed(name, fn):
        started = time.perf_counter()
        out = fn()
        timings[name] = time.perf_counter() - started
        return out

    if detections and ground_truth and meta:
        det_path, gt_path, meta_path = detections, ground_truth, meta
    else:
        paths, corpus = timed("synth", lambda: run_synth(cfg, out_dir))
        det_path, gt_path, meta_path = paths["detections"], paths["ground_truth"], paths["video_meta"]
        counts["detections"] = corpus.manifest["counts"]["detections"]

    tubelets_path = os.path.join(out_dir, "tubelets.jsonl")
    tubes, link_funnel = timed(
        "link",
        lambda: run_link(det_path, meta_path, cfg["link"]["strategy"], cfg, tubelets_path, workers),
    )
    counts["tubelets"] = len(tubes)
    counts.update(link_funnel)

    proposals_path = os.path.join(out_dir, "proposals.jsonl")
    props, removed = timed("refine", lambda: run_refine(tubelets_path, meta_path, cfg, proposals_path, workers))
    counts["proposals"] = len(props)
    counts["removed_static"] = removed

    vehicle_path = os.path.join(out_dir, "scored_vehicle.jsonl")
    person_path = os.path.join(out_dir, "scored_person.jsonl")
    timed(
        "score",
        lambda: (
            run_score(proposals_path, cfg, vehicle_path, gt_path, "vehicle_related", workers),
            run_score(proposals_path, cfg, person_path, gt_path, "person_related", workers),
        ),
    )

    instances_path = os.path.join(out_dir, "instances.jsonl")
    funnel = {}
    instances = timed("fuse", lambda: run_fuse(vehicle_path, person_path, cfg, instances_path, funnel))
    counts["instances"] = len(instances)
    counts.update(funnel)
    warnings = _fuse_warnings("pipeline", instances, funnel, cfg)

    recall_path = os.path.join(out_dir, "recall.csv")
    timed("eval-recall", lambda: run_eval_recall(tubelets_path, gt_path, cfg, recall_path))

    det_csv = os.path.join(out_dir, "det.csv")
    summary_path = os.path.join(out_dir, "summary.json")
    _, summary = timed(
        "eval-det", lambda: run_eval_det(instances_path, gt_path, meta_path, cfg, det_csv, summary_path)
    )

    _write_manifest(os.path.join(out_dir, "run"), "pipeline", cfg, timings, counts, warnings)
    click.echo(json.dumps({"mean_p_miss": summary["mean_p_miss"], "out_dir": out_dir}))


if __name__ == "__main__":
    main()
