"""Pipeline driver.

Subcommands mirror the three pipeline stages plus evaluation:

    synth, link, refine, score, fuse, eval-recall, eval-det, pipeline,
    default-config

Each stage is one function (`synth`, `link`, `refine`, `score`, `fuse`,
`eval_recall`, `eval_det`) that takes objects and output paths, computes,
writes its file(s), records its counts, warnings and phase seconds in a
`Manifest`, and returns objects. A subcommand merges the config and its
flags, reads its input files in a timed `read` phase, calls its stage and
writes the manifest. `pipeline` (`run_pipeline`) reads its three inputs once,
or generates them, calls the stages in sequence on the objects they return
and writes one manifest; its files are those of the subcommands, byte for
byte.

The config is built once per command, by `_merged_config`, into a frozen
`Config`: one field per section, each the dataclass of its stage. Each
section checks its own values when it is built (`link.strategy` by
`LinkConfig`), and the stages read their sections from `m.cfg`.
`DEFAULT_CONFIG`, what `default-config` writes, is `Config()` as a dict.

Each run writes a manifest (``<output>.manifest.json``) with the config hash,
the seconds per stage (``timings_s``) and per read/compute/write phase
(``phases_s``), record counts and warnings; data outputs are byte-reproducible
across runs. The config hash is the built-in SHA-256 of the checked values
(an integral ``3.0`` for an int hashes as ``3``), so that no stage process
but `synth` loads OpenSSL, which costs 3.5-3.8 MB of peak RSS.

The readers check each record on its own, frames included (see
`data_model.FRAME_LIMIT`); what needs two files, a track's extent against its
video's frame_count, is `_check_frame_range`, made once for every input.

Exit codes, all set by `_ExitCodeGroup`: 0 success, 1 bad input (a usage
error, such as a missing input file, or an `InvalidInputError`), 2 stage failure.
"""

import contextlib
import dataclasses
import json
import os
import sys
import time

import click

from . import data_model, evaluation, linking, postprocess, proposals, refinement, synthgen
from .errors import InvalidInputError, TubekitError
from .evaluation import AlignmentPolicy, EvalConfig
from .linking import LinkConfig
from .postprocess import FusionConfig, SoftNmsConfig
from .proposals import LabelPolicy, ScorerConfig
from .refinement import RefineConfig
try:  # the built-in SHA-256 that hashlib falls back to; hashlib's own loads OpenSSL
    from _sha2 import sha256  # CPython 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # CPython 3.10-3.11
    except ImportError:
        from hashlib import sha256

@dataclasses.dataclass(frozen=True)
class Config:
    """The checked config: one field per section, each its stage's dataclass.
    `_merged_config` builds it once per command."""

    synth: synthgen.SceneConfig = synthgen.SceneConfig()
    link: LinkConfig = LinkConfig()
    refine: RefineConfig = RefineConfig()
    label: LabelPolicy = LabelPolicy()
    scorer: ScorerConfig = ScorerConfig()
    nms: SoftNmsConfig = SoftNmsConfig()
    fusion: FusionConfig = FusionConfig()
    eval: EvalConfig = EvalConfig()
    align: AlignmentPolicy = AlignmentPolicy()


DEFAULT_CONFIG = dataclasses.asdict(Config())


def _merged_config(path=None, flags=None):
    """The `Config` of the default config overridden by the JSON file at
    `path`, then by each value of `flags` ({"section.key": value}) that is
    not None.

    The config is checked before any stage runs: an unknown section or key,
    a value not of its default's type or a section its dataclass rejects is
    an input error."""
    cfg = json.loads(json.dumps(DEFAULT_CONFIG))  # deep copy
    if path:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                user = json.load(fh)
        except (ValueError, RecursionError) as exc:  # as in `data_model.read_jsonl`
            raise InvalidInputError(f"{path}: malformed config: {exc}")
        if not isinstance(user, dict):
            raise InvalidInputError(f"{path}: config must be a JSON object")
        for section, value in user.items():
            if section not in cfg:
                raise InvalidInputError(f"unknown config section: {section!r}")
            if not isinstance(value, dict):
                raise InvalidInputError(f"config section {section!r} must be an object")
            for key in value:
                if key not in cfg[section]:
                    raise InvalidInputError(f"unknown config key: {section}.{key}")
            cfg[section].update(value)
    for name, value in (flags or {}).items():
        if value is not None:
            section, key = name.split(".")
            cfg[section][key] = value
    return Config(**{f.name: _config_value(f.name, cfg[f.name], f.default) for f in dataclasses.fields(Config)})


_FIELD_READERS = {int: data_model.int_field, float: data_model.float_field, str: data_model.str_field}


def _config_value(name, value, default):
    """`value` read as its `default`'s type: an int, float or string, or for
    a tuple default a list read element by element as the type of the
    default's first. A None default (`synth.activity_mix`) takes null or an
    object of finite numbers. A dataclass default (a section) takes an
    object with each of its fields, and the section is built from them."""
    if dataclasses.is_dataclass(default):
        try:
            return type(default)(**{f.name: _config_value(f"{name}.{f.name}", value[f.name], f.default)
                                    for f in dataclasses.fields(default)})
        except (TypeError, ValueError, InvalidInputError) as exc:
            raise InvalidInputError(f"config section {name!r}: {exc}")
    if default is None:
        if value is None:
            return None
        if not isinstance(value, dict):
            raise InvalidInputError(f"{name} must be null or an object: {value!r}")
        return {key: _config_value(f"{name}.{key}", v, 0.0) for key, v in value.items()}
    if isinstance(default, tuple):
        if not isinstance(value, (list, tuple)):
            raise InvalidInputError(f"{name} must be a list: {value!r}")
        return tuple(_config_value(f"{name}[{i}]", v, default[0]) for i, v in enumerate(value))
    return _FIELD_READERS[type(default)]({name: value}, name)


class Manifest:
    """What one command records about its run: the read/compute/write seconds
    of each stage, the record counts and the warnings, and the config they
    ran under. A `workers` value, from the deprecated `--workers` flag, is
    warned about and not used: every stage runs on the calling thread."""

    def __init__(self, command, cfg, workers=None):
        self.command, self.cfg = command, cfg
        self.phases, self.counts, self.warnings = {}, {}, []
        if workers is not None:
            self.warn("--workers is deprecated and has no effect: every stage runs on one thread")

    @contextlib.contextmanager
    def phase(self, stage, name):
        """Record the wall seconds of the `with` body as stage `stage`'s phase `name`."""
        started = time.perf_counter()
        yield
        self.phases.setdefault(stage, {})[name] = time.perf_counter() - started

    def warn(self, warning):
        click.echo(json.dumps({"stage": self.command, "warning": warning}), err=True)
        self.warnings.append(warning)

    def write(self, out_path):
        """Write `<out_path>.manifest.json`. A stage's `timings_s` entry is the
        sum of its phases; the pipeline's one read of its inputs (`inputs`)
        belongs to no stage."""
        manifest = {
            "stage": self.command,
            "config_hash": sha256(json.dumps(dataclasses.asdict(self.cfg), sort_keys=True).encode()).hexdigest(),
            "timings_s": {name: sum(s.values()) for name, s in self.phases.items() if name != "inputs"},
            "phases_s": self.phases,
            "record_counts": self.counts,
            "warnings": self.warnings,
        }
        with open(str(out_path) + ".manifest.json", "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True, indent=2)
            fh.write("\n")


def _check_frame_range(what, spans, metas):
    """The frame-range rule of every input: each (video_id, start, end) of a
    track (detection columns, tubelet or instance), in Python ints, must name
    a video of `metas` and end at or before that video's frame_count; the
    first that does not raises an InvalidInputError."""
    for video_id, start, end in spans:
        meta = metas.get(video_id)
        if meta is None:
            raise InvalidInputError(f"{what} references unknown video_id {video_id!r}")
        if end > meta.frame_count:
            raise InvalidInputError(f"video {video_id!r}: {what} extent [{start}, {end}) ends at frame {end - 1}, "
                                    f"outside its frame_count {meta.frame_count}")


def _spans(tracks):
    """The (video_id, start, end) of each track."""
    return ((t.video_id, t.extent.start, t.extent.end) for t in tracks)


# ---------------------------------------------------------------------------
# stages: objects and output paths in, files written, counts recorded,
# objects out


def synth(m, out_dir):
    """Generate the synthetic corpus into `out_dir`; returns it and its paths."""
    with m.phase("synth", "compute"):
        corpus = synthgen.generate(m.cfg.synth)
    with m.phase("synth", "write"):
        paths = synthgen.write_corpus(corpus, out_dir)
    m.counts.update(corpus.manifest["counts"])
    return corpus, paths


def link(m, detections, metas, out):
    """Link every video of `detections` (what `read_detections` returns:
    per-video columns and the dropped-class counts) into one `LinkedTubelets`,
    numbered across the videos in id order; writing it makes no `Track`.
    Counts the link funnel: detections in, dropped class names, the rows the
    linker filled in (all rows less the detections, each one row) and the
    tracks that `link.patience` ended."""
    cfg = m.cfg
    videos, dropped = detections
    greedy = cfg.link.strategy == "greedy"
    with m.phase("link", "compute"):
        _check_frame_range("detection", _spans(videos.values()), metas)
        link_video = linking.greedy_link if greedy else linking.track_link
        tubes = linking.LinkedTubelets.numbered([link_video(videos[v], config=cfg.link) for v in sorted(videos)])
    with m.phase("link", "write"):
        linking.write_tubelets(tubes, out)
    detections_in = sum(map(len, videos.values()))
    filled = sum(len(t.boxes) for t in tubes.tables) - detections_in
    m.counts.update(
        tubelets=len(tubes),
        detections_in=detections_in,
        dropped_class_names=dict(sorted(dropped.items())),
        interpolated_frames=filled if greedy else 0,
        tracked_frames=0 if greedy else filled,
        tracks_ended=0 if greedy else tubes.tracks_ended(videos, cfg.link.patience),
    )
    return tubes


def refine(m, tubelets, metas, out):
    """Drop the static tubelets and cut each other one into a `TubeletProposals`,
    numbered as made in (video_id, tubelet_id, start, end) order: `link` and
    `read_tubelets` give that order, and `jitter` gives (start, end). Warns, naming
    `refine.coord_displacement_min`, when every tubelet is static."""
    cfg = m.cfg
    with m.phase("refine", "compute"):
        _check_frame_range("tubelet", ((t.video_id, s, s + n) for t in tubelets.tables
                                       for s, n in zip(t.starts.tolist(), t.lengths.tolist())), metas)
        kept, removed = refinement.filter_static(tubelets, cfg.refine)
        lines, count = [], 0
        for tub in kept:
            meta = metas[tub.video_id]
            lines.append(refinement.make_proposals(tub, meta.width, meta.height, cfg.refine, id_start=count))
            count += len(lines[-1])
    with m.phase("refine", "write"):
        refinement.write_proposals(lines, out)
    m.counts.update(tubelets=len(tubelets), proposals=count, removed_static=removed)
    if removed and not kept:
        m.warn(f"all {removed} tubelets were removed as static: none moves its box centre by a mean of "
               f"refine.coord_displacement_min {cfg.refine.coord_displacement_min} px a frame; no proposal is left")
    return lines


def score(m, lines, ground_truth, outs):
    """Route each `TubeletProposals` line once, by its track, and score it
    under its model group, skipping those routed outside the groups `outs`
    maps to a file; groups that share a file are written together. A scored
    line is a new one that shares its input's arrays and adds a score matrix;
    `lines` keep `scores` unset. Returns {group name: scored lines in input order}.

    With the oracle scorer, counts the label funnel: per group the
    positive/negative/ignore label counts, the number of references of the
    group's activities and the longest one's frame count. A group with
    references and scored proposals but no positive label warns, blaming the
    longest window only when it binds (longest reference * temporal_pos > it)."""
    cfg = m.cfg
    groups = tuple(outs)
    with m.phase("score", "compute"):
        oracle = cfg.scorer.name == "oracle"
        scorer = proposals.OracleScorer(ground_truth, cfg.scorer, cfg.label) if oracle else proposals.HeuristicScorer()
        by_group = {name: [] for name in groups}
        for line in lines:
            group = proposals.route(line.track)
            if group.name in groups:
                scores = refinement.score_matrix([proposals.score(p, group, scorer) for p in line])
                by_group[group.name].append(dataclasses.replace(line, scores=scores))
    with m.phase("score", "write"):
        for path in dict.fromkeys(outs.values()):
            refinement.write_proposals([line for g in groups if outs[g] == path for line in by_group[g]], path)
    m.counts["scored"] = sum(len(line) for name in groups for line in by_group[name])

    if not oracle:
        return by_group
    labels = m.counts["labels"] = {}
    for name in sorted(groups):
        activities = proposals.MODEL_GROUPS[name].activities
        lengths = [r.extent.length for r in ground_truth if r.activity in activities]
        counts = labels[name] = {
            **dict.fromkeys(proposals.LABEL_KINDS, 0),
            **scorer.label_counts.get(name, {}),
            "references": len(lengths),
            "longest_reference": max(lengths, default=0),
        }
        if counts["references"] and by_group[name] and not counts["positive"]:
            if counts["longest_reference"] * cfg.label.temporal_pos > cfg.refine.window_sizes[-1]:
                cause = (
                    f"label.temporal_pos is {cfg.label.temporal_pos}, the longest window (refine.window_sizes) is "
                    f"{cfg.refine.window_sizes[-1]} frames and the longest reference is "
                    f"{counts['longest_reference']} frames; a window inside a longer reference has temporal IoU "
                    f"at most window / reference"
                )
            else:
                cause = (
                    f"none of its {sum(map(len, by_group[name]))} scored proposals reaches both label.spatial_pos "
                    f"{cfg.label.spatial_pos} and label.temporal_pos {cfg.label.temporal_pos} against a reference"
                )
            m.warn(f"0 positive labels in {name} against {counts['references']} references: {cause}")
    return by_group


def fuse(m, vehicle, person, out):
    """Late-fuse the two groups' scored lines into the final instances,
    in `data_model.instance_order`: every entry soft-NMS keeps. Counts them
    and `nms_in`; 0 instances warn, blaming the cut only if `nms_in` > 0."""
    cfg = m.cfg
    with m.phase("fuse", "compute"):
        instances = postprocess.fuse(vehicle, person, cfg.nms, cfg.fusion, m.counts)
    with m.phase("fuse", "write"):
        data_model.write_instances(instances, out)
    m.counts["instances"] = len(instances)
    if not m.counts["nms_in"]:
        m.warn("0 instances: there is no scored proposal to fuse")
    elif not instances:
        m.warn(f"0 instances: soft-NMS kept none of {m.counts['nms_in']} bucket entries at "
               f"nms.score_threshold {cfg.nms.score_threshold}")
    return instances


def eval_recall(m, tubelets, references, out):
    """Tubelet recall at each `eval.recall_thresholds` IoU."""
    with m.phase("eval-recall", "compute"):
        curve = evaluation.tubelet_recall(tubelets, references, m.cfg.eval.recall_thresholds)
    with m.phase("eval-recall", "write"):
        evaluation.write_recall_csv(curve, out)
    m.counts.update(tubelets=len(tubelets), thresholds=len(curve.thresholds))
    return curve


def eval_det(m, instances, references, metas, out_csv, out_summary):
    """DET curves per activity and their summary at `eval.target_rfa`."""
    with m.phase("eval-det", "compute"):
        _check_frame_range("instance", _spans(instances), metas)
        _check_frame_range("ground-truth instance", _spans(references), metas)
        curves = evaluation.det_curve(instances, references, metas, m.cfg.align)
        summary = evaluation.det_summary(curves, m.cfg.eval.target_rfa)
    with m.phase("eval-det", "write"):
        evaluation.write_det_csv(curves, out_csv)
        evaluation.write_det_summary(summary, out_summary)
    m.counts["classes"] = len(summary["per_class_p_miss"])
    return curves, summary


def run_pipeline(cfg, out_dir, inputs=None, workers=None):
    """Every stage in sequence on the (detections, ground truth, video meta)
    files `inputs`, or on a corpus generated into `out_dir` when `inputs` is
    None; a generated corpus adds synth's `videos` and `detections` counts
    (its `instances` count gives way to fuse's). Writes the run manifest and
    returns the tubelets, proposals, scored proposals (by group), instances
    and DET summary by name. `workers` only warns (see `Manifest`)."""
    os.makedirs(out_dir, exist_ok=True)
    m = Manifest("pipeline", cfg, workers)

    def out(name):
        return os.path.join(out_dir, name)

    if inputs is None:
        corpus, _ = synth(m, out_dir)
        detections = corpus.detections, {}
        # the order read_ground_truth sorts to: the oracle breaks ties by it
        ground_truth = sorted(corpus.ground_truth, key=data_model.instance_order)
        metas = corpus.metas
    else:
        detections_path, ground_truth_path, meta_path = inputs
        with m.phase("inputs", "read"):
            detections = data_model.read_detections(detections_path)
            ground_truth = data_model.read_ground_truth(ground_truth_path)
            metas = data_model.read_video_meta(meta_path)

    tubes = link(m, detections, metas, out("tubelets.jsonl"))
    props = refine(m, tubes, metas, out("proposals.jsonl"))
    scored = score(m, props, ground_truth, {"vehicle_related": out("scored_vehicle.jsonl"),
                                            "person_related": out("scored_person.jsonl")})
    instances = fuse(m, scored["vehicle_related"], scored["person_related"], out("instances.jsonl"))
    eval_recall(m, tubes, ground_truth, out("recall.csv"))
    _, summary = eval_det(m, instances, ground_truth, metas, out("det.csv"), out("summary.json"))
    m.write(out("run"))
    return {"tubelets": tubes, "proposals": props, "scored": scored, "instances": instances, "summary": summary}


# ---------------------------------------------------------------------------
# click wiring: merge the config and flags, read the inputs, call the stage


def _exit_codes(ctx, call, *args):
    """`call(*args)`, with its errors mapped to exit codes: a usage error (such
    as a missing input file or an unknown subcommand), an `InvalidInputError`
    or a `FileNotFoundError` exits 1, any other error exits 2, each as one
    JSON line on stderr naming the subcommand, if one was named. Click's own
    exits, such as `--help`'s, pass through."""
    try:
        return call(*args)
    except (click.exceptions.Exit, click.Abort):
        raise
    except click.UsageError as exc:
        code, error = 1, exc.format_message()
    except (InvalidInputError, FileNotFoundError) as exc:
        code, error = 1, str(exc)
    except Exception as exc:  # stage failure
        code, error = 2, str(exc) if isinstance(exc, TubekitError) else repr(exc)
    stage = ctx.invoked_subcommand
    click.echo(json.dumps({"stage": stage, "error": error} if stage else {"error": error}), err=True)
    sys.exit(code)


class _ExitCodeGroup(click.Group):
    """The one exit handler of the command line: the group's own arguments
    and every subcommand run through `_exit_codes`. With no arguments at all
    (`no_args_is_help=False`) the group fails with "Missing command." rather
    than printing its help."""

    def parse_args(self, ctx, args):
        return _exit_codes(ctx, super().parse_args, ctx, args)

    def invoke(self, ctx):
        return _exit_codes(ctx, super().invoke, ctx)


@click.group(cls=_ExitCodeGroup, no_args_is_help=False)
def main():
    """Spatio-temporal activity detection pipeline toolkit."""


# Threads took turns on the GIL and only added time and allocator arenas, so
# `--workers` is kept only so that old command lines still parse.
_workers_option = click.option("--workers", type=click.IntRange(min=1), default=None, hidden=True)


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
def synth_cmd(config_path, out_dir, seed, videos, frames, dropout):
    """Generate a synthetic corpus (detections, ground truth, video meta)."""
    flags = {"synth.seed": seed, "synth.video_count": videos, "synth.frames_per_video": frames,
             "synth.dropout_rate": dropout}
    m = Manifest("synth", _merged_config(config_path, flags))
    _, paths = synth(m, out_dir)
    m.write(os.path.join(out_dir, "synth"))
    click.echo(json.dumps(paths, sort_keys=True))


@main.command("link")
@click.option("--detections", type=click.Path(exists=True), required=True)
@click.option("--meta", type=click.Path(exists=True), required=True)
@click.option("--strategy", default=None, help="link.strategy: greedy or tracking")
@click.option("--out", type=click.Path(), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_workers_option
def link_cmd(detections, meta, strategy, out, config_path, workers):
    """Link per-frame detections into tubelets."""
    m = Manifest("link", _merged_config(config_path, {"link.strategy": strategy}), workers)
    with m.phase("link", "read"):
        videos = data_model.read_detections(detections)
        metas = data_model.read_video_meta(meta)
    tubes = link(m, videos, metas, out)
    m.write(out)
    click.echo(f"wrote {len(tubes)} tubelets to {out}")


@main.command("refine")
@click.option("--tubelets", type=click.Path(exists=True), required=True)
@click.option("--meta", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_workers_option
def refine_cmd(tubelets, meta, out, config_path, workers):
    """Filter static tubelets, normalize boxes, jitter into proposals."""
    m = Manifest("refine", _merged_config(config_path), workers)
    with m.phase("refine", "read"):
        tubes = linking.read_tubelets(tubelets)
        metas = data_model.read_video_meta(meta)
    count = sum(map(len, refine(m, tubes, metas, out)))
    m.write(out)
    click.echo(f"wrote {count} proposals to {out} ({m.counts['removed_static']} static tubelets removed)")


@main.command("score")
@click.option("--proposals", "proposals_path", type=click.Path(exists=True), required=True)
@click.option("--scorer", default=None, help="scorer.name: oracle or heuristic")
@click.option("--ground-truth", type=click.Path(exists=True), default=None)
@click.option("--out", type=click.Path(), required=True)
@click.option("--group", type=click.Choice(["vehicle_related", "person_related"]), default=None)
@click.option("--epsilon", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@_workers_option
def score_cmd(proposals_path, scorer, ground_truth, out, group, epsilon, config_path, workers):
    """Score proposals with the selected scorer (optionally one model group)."""
    m = Manifest("score", _merged_config(config_path, {"scorer.name": scorer, "scorer.epsilon": epsilon}), workers)
    with m.phase("score", "read"):
        props = refinement.read_proposals(proposals_path)
        references = None
        if m.cfg.scorer.name == "oracle":
            if ground_truth is None:
                raise InvalidInputError("oracle scorer requires --ground-truth")
            references = data_model.read_ground_truth(ground_truth)
    score(m, props, references, dict.fromkeys(proposals.MODEL_GROUPS if group is None else (group,), out))
    m.write(out)
    click.echo(f"wrote {m.counts['scored']} scored proposals to {out}")


@main.command("fuse")
@click.option("--vehicle", type=click.Path(exists=True), required=True)
@click.option("--person", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--vehicle-weight", type=float, default=None)
@click.option("--person-weight", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def fuse_cmd(vehicle, person, out, vehicle_weight, person_weight, config_path):
    """Late-fuse the two model outputs into final activity instances."""
    flags = {"fusion.vehicle_weight": vehicle_weight, "fusion.person_weight": person_weight}
    m = Manifest("fuse", _merged_config(config_path, flags))
    with m.phase("fuse", "read"):
        vehicle_scored = refinement.read_proposals(vehicle)
        person_scored = refinement.read_proposals(person)
    instances = fuse(m, vehicle_scored, person_scored, out)
    m.write(out)
    click.echo(f"wrote {len(instances)} instances to {out}")


@main.command("eval-recall")
@click.option("--tubelets", type=click.Path(exists=True), required=True)
@click.option("--ground-truth", type=click.Path(exists=True), required=True)
@click.option("--out", type=click.Path(), required=True)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def eval_recall_cmd(tubelets, ground_truth, out, config_path):
    """Recall of tubelet generation across IoU thresholds (CSV)."""
    m = Manifest("eval-recall", _merged_config(config_path))
    with m.phase("eval-recall", "read"):
        tubes = linking.read_tubelets(tubelets)
        references = data_model.read_ground_truth(ground_truth)
    eval_recall(m, tubes, references, out)
    m.write(out)
    click.echo(f"wrote recall curve to {out}")


@main.command("eval-det")
@click.option("--instances", type=click.Path(exists=True), required=True)
@click.option("--ground-truth", type=click.Path(exists=True), required=True)
@click.option("--meta", type=click.Path(exists=True), required=True)
@click.option("--out-csv", type=click.Path(), required=True)
@click.option("--out-summary", type=click.Path(), required=True)
@click.option("--target-rfa", type=float, default=None)
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
def eval_det_cmd(instances, ground_truth, meta, out_csv, out_summary, target_rfa, config_path):
    """DET curves (p_miss vs rfa) and the summary p_miss@target."""
    m = Manifest("eval-det", _merged_config(config_path, {"eval.target_rfa": target_rfa}))
    with m.phase("eval-det", "read"):
        system = data_model.read_instances(instances)
        references = data_model.read_ground_truth(ground_truth)
        metas = data_model.read_video_meta(meta)
    _, summary = eval_det(m, system, references, metas, out_csv, out_summary)
    m.write(out_csv)
    click.echo(json.dumps({"mean_p_miss": summary["mean_p_miss"]}))


@main.command("pipeline")
@click.option("--config", "config_path", type=click.Path(exists=True), default=None)
@click.option("--out-dir", type=click.Path(), required=True)
@click.option("--detections", type=click.Path(exists=True), default=None)
@click.option("--ground-truth", type=click.Path(exists=True), default=None)
@click.option("--meta", type=click.Path(exists=True), default=None)
@_workers_option
def pipeline_cmd(config_path, out_dir, detections, ground_truth, meta, workers):
    """Run every stage in sequence on --detections, --ground-truth and --meta,
    or, given none of them, on a corpus from the synthetic generator."""
    inputs = {"--detections": detections, "--ground-truth": ground_truth, "--meta": meta}
    missing = [flag for flag, path in inputs.items() if path is None]
    if 0 < len(missing) < len(inputs):
        raise click.UsageError(f"give all of {', '.join(inputs)} or none of them; missing {', '.join(missing)}")
    summary = run_pipeline(_merged_config(config_path), out_dir, None if missing else tuple(inputs.values()),
                           workers)["summary"]
    click.echo(json.dumps({"mean_p_miss": summary["mean_p_miss"], "out_dir": out_dir}))


if __name__ == "__main__":
    main()
