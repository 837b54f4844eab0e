"""Pipeline driver.

Subcommands mirror the three pipeline stages plus evaluation:

    synth, link, refine, score, fuse, eval-recall, eval-det, pipeline,
    default-config

Each stage is read, compute, write. Its compute function (`link`, `refine`,
`score`, `fuse`, `eval_recall`, `eval_det`) takes and returns objects and
never touches a path. A subcommand (`run_link` ... `run_eval_det`) reads its
input files, computes and writes its output files. `pipeline`
(`run_pipeline`) reads only its three inputs, or generates them, hands the
objects from stage to stage in memory, and still writes every file the
subcommands write, byte for byte.

Each run writes a manifest (``<output>.manifest.json``) with the config hash,
the seconds per stage (``timings_s``) and per read/compute/write phase
(``phases_s``), and record counts; data outputs are byte-reproducible across
runs and worker counts.

Exit codes: 0 success, 1 input error, 2 stage failure.
"""

import contextlib
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


_INPUTS = "inputs"  # the phases_s entry of pipeline's input read


def _write_manifest(out_path, stage, cfg, phases, counts, warnings=None):
    """Write `<out_path>.manifest.json`. `phases` holds the read/compute/write
    seconds of each stage (`phases_s`); a stage's `timings_s` entry is their
    sum. The pipeline's one read of its inputs belongs to no stage."""
    manifest = {
        "stage": stage,
        "config_hash": _config_hash(cfg),
        "timings_s": {name: sum(seconds.values()) for name, seconds in phases.items() if name != _INPUTS},
        "phases_s": phases,
        "record_counts": counts,
    }
    if warnings is not None:
        manifest["warnings"] = warnings
    with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


@contextlib.contextmanager
def _phase(phases, stage, name):
    """Record the wall seconds of the `with` body as `phases[stage][name]`
    (when `phases` is a dict)."""
    started = time.perf_counter()
    yield
    if phases is not None:
        phases.setdefault(stage, {})[name] = time.perf_counter() - started


def _parallel_map(fn, items, workers):
    if workers <= 1 or len(items) <= 1:
        return [fn(it) for it in items]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


# ---------------------------------------------------------------------------
# stage computations: objects in, objects out, no paths


def link(detections, metas, strategy, cfg, workers=1):
    """Link every video of `detections` (what `read_detections` returns:
    per-video columns and the dropped-class counts) into tubelets numbered
    across the videos in id order. Returns them with the link funnel
    (detections in, dropped class names, and the `LinkStats` counts summed
    over the videos in sorted order). A video missing from `metas`, or with
    a detection frame at or past its `frame_count`, is a ConsistencyError."""
    videos, dropped = detections
    unknown = set(videos) - set(metas)
    if unknown:
        raise ConsistencyError(f"detections reference unknown video_id(s): {sorted(unknown)}")
    for video_id in sorted(videos):
        frames, frame_count = videos[video_id].frames, metas[video_id].frame_count
        if len(frames) and frames[-1] >= frame_count:  # frames ascend
            raise ConsistencyError(
                f"video {video_id!r}: detection frame {int(frames[-1])} is outside its frame_count {frame_count}"
            )
    if strategy not in ("greedy", "tracking"):
        raise InvalidInputError(f"unknown strategy: {strategy!r}")
    link_video = linking.greedy_link if strategy == "greedy" else linking.track_link

    link_cfg = _stage_config(cfg, "link")
    linked = _parallel_map(lambda v: link_video(videos[v], config=link_cfg), sorted(videos), workers)
    all_tubes = []
    for tubes, _ in linked:
        for t in tubes:
            t.id = len(all_tubes)
            all_tubes.append(t)
    funnel = {
        "detections_in": sum(map(len, videos.values())),
        "dropped_class_names": dict(sorted(dropped.items())),
        **{f.name: sum(getattr(stats, f.name) for _, stats in linked) for f in dataclasses.fields(linking.LinkStats)},
    }
    return all_tubes, funnel


def refine(tubelets, metas, cfg, workers=1):
    """Drop the static tubelets and cut the others into proposals, numbered
    in (video_id, tubelet_id, start, end) order; returns the proposals and
    the number of tubelets removed."""
    unknown = {t.video_id for t in tubelets} - set(metas)
    if unknown:
        raise ConsistencyError(f"tubelets reference unknown video_id(s): {sorted(unknown)}")

    refine_cfg = _stage_config(cfg, "refine")
    kept, removed = refinement.filter_static(tubelets, refine_cfg)

    def _one(tub):
        meta = metas[tub.video_id]
        return refinement.make_proposals(tub, meta.width, meta.height, refine_cfg)

    props = []
    for plist in _parallel_map(_one, kept, workers):
        props.extend(plist)
    props.sort(key=lambda p: (p.video_id, p.tubelet_id, p.window.start, p.window.end))
    for i, p in enumerate(props):
        p.proposal_id = i
    return props, removed


def score(props, ground_truth, cfg, groups=tuple(proposals.MODEL_GROUPS), workers=1):
    """Route each proposal once and score it under its model group, skipping
    those routed outside `groups` (group names). The scored proposals are new
    objects; `props` keep `scores` unset. Returns {group name: scored
    proposals in input order} and the label funnel: for the oracle scorer,
    per group the positive/negative/ignore label counts, the number of
    references of the group's activities and the longest one's frame count;
    empty for any other scorer."""
    scorer_cfg = cfg["scorer"]
    scorer = proposals.make_scorer(
        scorer_cfg["name"],
        ground_truth=ground_truth,
        epsilon=scorer_cfg["epsilon"],
        label_noise=scorer_cfg["label_noise"],
        seed=scorer_cfg["seed"],
        policy=_stage_config(cfg, "label"),
    )
    routed = []
    for p in props:
        group = proposals.route(p)
        if group.name in groups:
            routed.append((p, group))

    def _one(item):
        p, group = item
        return dataclasses.replace(p, scores=proposals.score(p, group, scorer))

    scored = _parallel_map(_one, routed, workers)
    by_group = {name: [] for name in groups}
    for (_, group), p in zip(routed, scored):
        by_group[group.name].append(p)

    labels = {}
    if isinstance(scorer, proposals.OracleScorer):
        for name in groups:
            activities = proposals.MODEL_GROUPS[name].activities
            lengths = [r.extent.length for r in ground_truth if r.activity in activities]
            labels[name] = {
                **dict.fromkeys(proposals.LABEL_KINDS, 0),
                **scorer.label_counts.get(name, {}),
                "references": len(lengths),
                "longest_reference": max(lengths, default=0),
            }
    return by_group, labels


def fuse(vehicle, person, cfg, funnel=None):
    """Late-fuse the two groups' scored proposals into the final instances,
    in `data_model.instance_order`; `funnel` receives `nms_in`/`nms_kept`."""
    nms_cfg = _stage_config(cfg, "nms")
    weights = (cfg["fusion"]["vehicle_weight"], cfg["fusion"]["person_weight"])
    fused = postprocess.fuse(vehicle, person, nms_cfg, weights, funnel)
    return postprocess.proposals_to_instances(fused, cfg["output"]["score_threshold"])


def eval_recall(tubelets, references, cfg):
    return evaluation.tubelet_recall(tubelets, references, cfg["eval"]["recall_thresholds"])


def eval_det(instances, references, metas, cfg):
    """DET curves per activity and their summary at `eval.target_rfa`."""
    curves = evaluation.det_curve(instances, references, metas, _stage_config(cfg, "align"))
    return curves, evaluation.det_summary(curves, cfg["eval"]["target_rfa"])


def _label_warnings(stage, labels, cfg):
    """Warn on stderr for each group that has references but no positive
    label; returns the warnings for the manifest."""
    window = cfg["refine"]["window_sizes"][-1]
    warnings = []
    for group, counts in sorted(labels.items()):
        if not counts["references"] or counts["positive"]:
            continue
        warnings.append(
            f"0 positive labels in {group} against {counts['references']} references: label.temporal_pos is "
            f"{cfg['label']['temporal_pos']}, the longest window (refine.window_sizes) is {window} frames and "
            f"the longest reference is {counts['longest_reference']} frames; a window inside a longer "
            f"reference has temporal IoU at most window / reference"
        )
    for warning in warnings:
        click.echo(json.dumps({"stage": stage, "warning": warning}), err=True)
    return warnings


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


# ---------------------------------------------------------------------------
# subcommand stages: read the input files, compute, write the output files


def run_synth(cfg, out_dir, phases=None):
    with _phase(phases, "synth", "compute"):
        corpus = synthgen.generate(_stage_config(cfg, "synth"))
    with _phase(phases, "synth", "write"):
        paths = synthgen.write_corpus(corpus, out_dir)
    return paths, corpus


def run_link(detections_path, meta_path, strategy, cfg, out_path, workers=1, phases=None):
    with _phase(phases, "link", "read"):
        detections = data_model.read_detections(detections_path)
        metas = data_model.read_video_meta(meta_path)
    with _phase(phases, "link", "compute"):
        tubes, funnel = link(detections, metas, strategy, cfg, workers)
    with _phase(phases, "link", "write"):
        linking.write_tubelets(tubes, out_path)
    return tubes, funnel


def run_refine(tubelets_path, meta_path, cfg, out_path, workers=1, phases=None):
    with _phase(phases, "refine", "read"):
        tubes = linking.read_tubelets(tubelets_path)
        metas = data_model.read_video_meta(meta_path)
    with _phase(phases, "refine", "compute"):
        props, removed = refine(tubes, metas, cfg, workers)
    with _phase(phases, "refine", "write"):
        refinement.write_proposals(props, out_path)
    return props, removed


def run_score(proposals_path, cfg, out_path, ground_truth_path=None, group_filter=None, workers=1, phases=None):
    """Score the proposals of every group, or of `group_filter` alone, into
    one file; returns the scored proposals and the label funnel."""
    with _phase(phases, "score", "read"):
        props = refinement.read_proposals(proposals_path)
        ground_truth = None
        if cfg["scorer"]["name"] == "oracle":
            if ground_truth_path is None:
                raise InvalidInputError("oracle scorer requires --ground-truth")
            ground_truth = data_model.read_ground_truth(ground_truth_path)
    groups = tuple(proposals.MODEL_GROUPS) if group_filter is None else (group_filter,)
    with _phase(phases, "score", "compute"):
        by_group, labels = score(props, ground_truth, cfg, groups, workers)
    scored = [p for group in by_group.values() for p in group]
    with _phase(phases, "score", "write"):
        refinement.write_proposals(scored, out_path)
    return scored, labels


def run_fuse(vehicle_path, person_path, cfg, out_path, funnel=None, phases=None):
    with _phase(phases, "fuse", "read"):
        vehicle = refinement.read_proposals(vehicle_path)
        person = refinement.read_proposals(person_path)
    with _phase(phases, "fuse", "compute"):
        instances = fuse(vehicle, person, cfg, funnel)
    with _phase(phases, "fuse", "write"):
        data_model.write_instances(instances, out_path)
    return instances


def run_eval_recall(tubelets_path, ground_truth_path, cfg, out_path, phases=None):
    with _phase(phases, "eval-recall", "read"):
        tubes = linking.read_tubelets(tubelets_path)
        refs = data_model.read_ground_truth(ground_truth_path)
    with _phase(phases, "eval-recall", "compute"):
        curve = eval_recall(tubes, refs, cfg)
    with _phase(phases, "eval-recall", "write"):
        evaluation.write_recall_csv(curve, out_path)
    return curve


def run_eval_det(instances_path, ground_truth_path, meta_path, cfg, out_csv, out_summary, phases=None):
    with _phase(phases, "eval-det", "read"):
        system = data_model.read_instances(instances_path)
        refs = data_model.read_ground_truth(ground_truth_path)
        metas = data_model.read_video_meta(meta_path)
    with _phase(phases, "eval-det", "compute"):
        curves, summary = eval_det(system, refs, metas, cfg)
    with _phase(phases, "eval-det", "write"):
        evaluation.write_det_csv(curves, out_csv)
        evaluation.write_det_summary(summary, out_summary)
    return curves, summary


def run_pipeline(cfg, out_dir, inputs=None):
    """Every stage in sequence on the (detections, ground truth, video meta)
    files `inputs`, or on a corpus generated into `out_dir` when `inputs` is
    None. The inputs are read once; each stage takes the objects the stages
    before it returned and writes the same file its subcommand writes. Writes
    the run manifest and returns the tubelets, proposals, scored proposals
    (by group), instances and DET summary by name."""
    os.makedirs(out_dir, exist_ok=True)
    workers = cfg["workers"]
    phases, counts = {}, {}

    def out(name):
        return os.path.join(out_dir, name)

    if inputs is None:
        _, corpus = run_synth(cfg, out_dir, phases)
        detections = corpus.detections, {}
        # the order read_ground_truth sorts to: the oracle breaks ties by it
        ground_truth = sorted(corpus.ground_truth, key=data_model.instance_order)
        metas = corpus.metas
        counts["detections"] = corpus.manifest["counts"]["detections"]
    else:
        detections_path, ground_truth_path, meta_path = inputs
        with _phase(phases, _INPUTS, "read"):
            detections = data_model.read_detections(detections_path)
            ground_truth = data_model.read_ground_truth(ground_truth_path)
            metas = data_model.read_video_meta(meta_path)

    with _phase(phases, "link", "compute"):
        tubes, link_funnel = link(detections, metas, cfg["link"]["strategy"], cfg, workers)
    with _phase(phases, "link", "write"):
        linking.write_tubelets(tubes, out("tubelets.jsonl"))
    counts["tubelets"] = len(tubes)
    counts.update(link_funnel)

    with _phase(phases, "refine", "compute"):
        props, removed = refine(tubes, metas, cfg, workers)
    with _phase(phases, "refine", "write"):
        refinement.write_proposals(props, out("proposals.jsonl"))
    counts["proposals"] = len(props)
    counts["removed_static"] = removed

    with _phase(phases, "score", "compute"):
        scored, labels = score(props, ground_truth, cfg, workers=workers)
    with _phase(phases, "score", "write"):
        refinement.write_proposals(scored["vehicle_related"], out("scored_vehicle.jsonl"))
        refinement.write_proposals(scored["person_related"], out("scored_person.jsonl"))
    if labels:
        counts["labels"] = labels
    warnings = _label_warnings("pipeline", labels, cfg)

    funnel = {}
    with _phase(phases, "fuse", "compute"):
        instances = fuse(scored["vehicle_related"], scored["person_related"], cfg, funnel)
    with _phase(phases, "fuse", "write"):
        data_model.write_instances(instances, out("instances.jsonl"))
    counts["instances"] = len(instances)
    counts.update(funnel)
    warnings += _fuse_warnings("pipeline", instances, funnel, cfg)

    with _phase(phases, "eval-recall", "compute"):
        recall = eval_recall(tubes, ground_truth, cfg)
    with _phase(phases, "eval-recall", "write"):
        evaluation.write_recall_csv(recall, out("recall.csv"))

    with _phase(phases, "eval-det", "compute"):
        curves, summary = eval_det(instances, ground_truth, metas, cfg)
    with _phase(phases, "eval-det", "write"):
        evaluation.write_det_csv(curves, out("det.csv"))
        evaluation.write_det_summary(summary, out("summary.json"))

    _write_manifest(out("run"), "pipeline", cfg, phases, counts, warnings)
    return {"tubelets": tubes, "proposals": props, "scored": scored, "instances": instances, "summary": summary}


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
    phases = {}
    paths, corpus = run_synth(cfg, out_dir, phases)
    _write_manifest(os.path.join(out_dir, "synth"), "synth", cfg, phases, corpus.manifest["counts"])
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
    phases = {}
    tubes, funnel = run_link(detections, meta, cfg["link"]["strategy"], cfg, out, cfg["workers"], phases)
    _write_manifest(out, "link", cfg, phases, {"tubelets": len(tubes), **funnel})
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
    phases = {}
    props, removed = run_refine(tubelets, meta, cfg, out, cfg["workers"], phases)
    _write_manifest(out, "refine", cfg, phases, {"proposals": len(props), "removed_static": removed})
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
    phases = {}
    scored, labels = run_score(proposals_path, cfg, out, ground_truth, group, cfg["workers"], phases)
    warnings = _label_warnings("score", labels, cfg)
    counts = {"scored": len(scored), **({"labels": labels} if labels else {})}
    _write_manifest(out, "score", cfg, phases, counts, warnings)
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
    phases, funnel = {}, {}
    instances = run_fuse(vehicle, person, cfg, out, funnel, phases)
    warnings = _fuse_warnings("fuse", instances, funnel, cfg)
    _write_manifest(out, "fuse", cfg, phases, {"instances": len(instances), **funnel}, warnings)
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
    phases = {}
    curve = run_eval_recall(tubelets, ground_truth, cfg, out, phases)
    _write_manifest(out, "eval-recall", cfg, phases, {"thresholds": len(curve.thresholds)})
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
    phases = {}
    _, summary = run_eval_det(instances, ground_truth, meta, cfg, out_csv, out_summary, phases)
    _write_manifest(out_csv, "eval-det", cfg, phases, {"classes": len(summary["per_class_p_miss"])})
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
    inputs = (detections, ground_truth, meta) if detections and ground_truth and meta else None
    summary = run_pipeline(cfg, out_dir, inputs)["summary"]
    click.echo(json.dumps({"mean_p_miss": summary["mean_p_miss"], "out_dir": out_dir}))


if __name__ == "__main__":
    main()
