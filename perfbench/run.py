"""Pipeline benchmark for tubekit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Set-up generates the workload's synthetic
corpus from the seed with the ``synth`` subcommand (timed as ``setup_s``).
The program then receives only ``--detections/--ground-truth/--meta``. Each
repetition runs the whole pipeline in fresh child processes
(``python -m tubekit.cli`` with ``src`` on ``PYTHONPATH``), one batch job
at a time, and checks the four final outputs against the digests stored in
``perfbench/goldens.json``. Repetitions continue until ``--seconds`` is used
up; timings are medians over them.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` spends half of
the time on untraced repetitions and half on traced ones, where every stage
process runs under ``perfbench/tracer.py``, and reports the per-layer
metrics. Human-readable lines go first; the last line of standard output is
one JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDENS = os.path.join(HERE, "goldens.json")

# Corpus slot s uses synth seeds SEED_STRIDE*s ... SEED_STRIDE*s + videos - 1
# (synthgen seeds video v with seed + v), so slots share no video. Seeds
# beyond the stored slots reuse them: seed n runs slot n % SLOTS.
SLOTS = 32
SEED_STRIDE = 100
SETUP_REPEATS = 3
# A run must end within 180 s, so every child is killed at this deadline
# (counted from the start of the run) and counts as failed.
DEADLINE_S = 170.0
OUTPUTS = ("instances.jsonl", "det.csv", "summary.json", "recall.csv")

_VEHICLE_ACTIVITIES = ("Closing", "Opening", "Closing_Trunk", "Open_Trunk", "vehicle_turning_left",
                       "vehicle_turning_right", "vehicle_u_turn", "Entering", "Exiting")

# Each workload fixes objects_per_video so that the seed changes what the
# corpus holds but not how much work it is. Soft-NMS cost grows with the
# square of a bucket, so dense-heuristic also keeps every track whole (no
# dropout) and in one model group (vehicle activities only); otherwise its
# run time varies 2x from seed to seed.
WORKLOADS = {
    "noisy-long": {
        "config": {
            "synth": {
                "video_count": 2,
                "frames_per_video": 600,
                "objects_per_video": [4, 4],
                "dropout_rate": 0.1,
                "box_jitter_px": 2.0,
                "false_positive_rate": 0.3,
                "score_noise": 0.05,
            },
        },
        "stagewise": False,
    },
    "dense-heuristic": {
        "config": {
            "synth": {
                "video_count": 1,
                "frames_per_video": 400,
                "objects_per_video": [2, 2],
                "activity_mix": {a: 1 / 9 for a in _VEHICLE_ACTIVITIES},
                "dropout_rate": 0.0,
                "box_jitter_px": 2.0,
            },
            "scorer": {"name": "heuristic"},
        },
        "stagewise": False,
    },
    "clutter-stagewise": {
        "config": {
            "synth": {
                "video_count": 2,
                "frames_per_video": 400,
                "objects_per_video": [1, 2],
                "dropout_rate": 0.2,
                "box_jitter_px": 2.0,
                "false_positive_rate": 6.0,
                "score_noise": 0.05,
            },
        },
        "stagewise": True,
    },
}

END_TO_END = {
    "pipeline_s": "s",
    "realtime_x": "video-s/s",
    "peak_rss_mb": "MB",
    "bytes_written_mb": "MB",
    "mean_p_miss": "ratio",
    "recall_at_0.5": "ratio",
    "setup_s": "s",
    "fail_ratio": "ratio",
}

_STAGE_KEYS = ("link", "refine", "score", "fuse", "eval-recall", "eval-det")


def _unit(metric):
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB"
    if metric.endswith("_ratio"):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# child processes


class Bench:
    """Paths and process launching for one workload run in one checkout."""

    def __init__(self, root, workload, seed):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.slot = seed % SLOTS
        self.spec = WORKLOADS[workload]
        self.work = os.path.join(root, ".perfbench", workload)
        self.corpus = os.path.join(self.work, "corpus")
        self.config_path = os.path.join(self.work, "config.json")
        self.deadline = time.monotonic() + DEADLINE_S
        src = os.path.join(root, "src")
        pythonpath = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ, PYTHONPATH=src + (os.pathsep + pythonpath if pythonpath else ""))

    def config(self):
        cfg = json.loads(json.dumps(self.spec["config"]))
        cfg["synth"]["seed"] = SEED_STRIDE * self.slot
        return cfg

    def spawn(self, argv, log_path):
        """Run one child to completion; return (exit code, peak RSS in MB).

        The RSS comes from ``os.wait4`` on that child alone."""
        with open(log_path, "wb") as log:
            proc = subprocess.Popen(argv, stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=self.root)
        timer = threading.Timer(max(0.0, self.deadline - time.monotonic()), proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return proc.returncode, usage.ru_maxrss * 1024 / 1e6

    def cli(self, args, traced=None):
        """argv for one tubekit subcommand, optionally under the tracer."""
        if traced is None:
            return [sys.executable, "-m", "tubekit.cli", *args]
        out_path, run_id = traced
        return [sys.executable, os.path.join(HERE, "tracer.py"), out_path, run_id, "--", *args]

    def inputs(self):
        return [os.path.join(self.corpus, f) for f in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl")]

    def pipeline_stage(self, out):
        det, gt, meta = self.inputs()
        return ("pipeline", ["pipeline", "--config", self.config_path, "--out-dir", out, "--detections", det,
                             "--ground-truth", gt, "--meta", meta, "--workers", "1"])

    def stages(self, out):
        """(name, subcommand args) for each stage process of one repetition."""
        if not self.spec["stagewise"]:
            return [self.pipeline_stage(out)]
        det, gt, meta = self.inputs()
        cfg = ["--config", self.config_path]
        o = lambda name: os.path.join(out, name)  # noqa: E731
        scorer = self.spec["config"].get("scorer", {}).get("name", "oracle")
        score = ["score", "--proposals", o("proposals.jsonl"), "--scorer", scorer, "--ground-truth", gt, *cfg,
                 "--workers", "2"]
        return [
            ("link", ["link", "--detections", det, "--meta", meta, "--out", o("tubelets.jsonl"), *cfg,
                      "--workers", "2"]),
            ("refine", ["refine", "--tubelets", o("tubelets.jsonl"), "--meta", meta, "--out", o("proposals.jsonl"),
                        *cfg, "--workers", "2"]),
            ("score", [*score, "--group", "vehicle_related", "--out", o("scored_vehicle.jsonl")]),
            ("score", [*score, "--group", "person_related", "--out", o("scored_person.jsonl")]),
            ("fuse", ["fuse", "--vehicle", o("scored_vehicle.jsonl"), "--person", o("scored_person.jsonl"),
                      "--out", o("instances.jsonl"), *cfg]),
            ("eval-recall", ["eval-recall", "--tubelets", o("tubelets.jsonl"), "--ground-truth", gt,
                             "--out", o("recall.csv"), *cfg]),
            ("eval-det", ["eval-det", "--instances", o("instances.jsonl"), "--ground-truth", gt, "--meta", meta,
                          "--out-csv", o("det.csv"), "--out-summary", o("summary.json"), *cfg]),
        ]

    # -- set-up --------------------------------------------------------------

    def setup(self, repeats=SETUP_REPEATS):
        """Generate the corpus ``repeats`` times; return each synth wall time."""
        os.makedirs(self.work, exist_ok=True)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            json.dump(self.config(), fh, sort_keys=True, indent=2)
        walls = []
        for _ in range(repeats):
            shutil.rmtree(self.corpus, ignore_errors=True)
            started = time.perf_counter()
            code, _ = self.spawn(self.cli(["synth", "--config", self.config_path, "--out-dir", self.corpus]),
                                 os.path.join(self.work, "synth.log"))
            walls.append(time.perf_counter() - started)
            if code != 0:
                raise RuntimeError(f"synth exited {code}; see {os.path.join(self.work, 'synth.log')}")
        return walls

    # -- one repetition --------------------------------------------------------

    def repetition(self, index, traced=False):
        """Run every stage once into a fresh directory and measure it."""
        out = os.path.join(self.work, "trace" if traced else "run")
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)
        run_id = f"{self.workload}-seed{self.seed}-rep{index}"
        rep = {"run": run_id, "exit_codes": [], "peak_rss_mb": 0.0}
        stages = self.stages(out)
        trace_files = [os.path.join(out, f"trace-{k}-{name}.json") for k, (name, _) in enumerate(stages)]
        started = time.perf_counter()
        for k, (name, args) in enumerate(stages):
            code, rss = self.spawn(self.cli(args, (trace_files[k], run_id) if traced else None),
                                   os.path.join(out, f"stage-{k}-{name}.log"))
            rep["exit_codes"].append(code)
            rep["peak_rss_mb"] = max(rep["peak_rss_mb"], rss)
            if code != 0:
                break
        rep["wall_s"] = time.perf_counter() - started
        rep["ok"] = rep["exit_codes"] == [0] * len(stages)
        if rep["ok"]:
            rep.update(inspect_outputs(out))
            rep["stage_s"] = stage_times(out)
        if traced:
            rep["totals"], rep["spans"] = merge_traces(p for p in trace_files if os.path.exists(p))
        return rep


def repeat(bench, seconds, traced=False, first_index=0):
    """Run repetitions until the next one would overrun ``seconds`` (at least one)."""
    reps = []
    started = time.perf_counter()
    while True:
        reps.append(bench.repetition(first_index + len(reps), traced))
        elapsed = time.perf_counter() - started
        if elapsed + statistics.median(r["wall_s"] for r in reps) > seconds:
            return reps


# ---------------------------------------------------------------------------
# outputs


def sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def corpus_digest(corpus_dir):
    h = hashlib.sha256()
    for name in ("detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl"):
        h.update(name.encode() + b"\0" + sha256(os.path.join(corpus_dir, name)).encode() + b"\n")
    return h.hexdigest()


def inspect_outputs(out):
    """Digests, bytes written and quality figures of one finished repetition."""
    data_files = [f for f in os.listdir(out) if not f.endswith((".manifest.json", ".log")) and not
                  f.startswith("trace-")]
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        mean_p_miss = json.load(fh)["mean_p_miss"]
    recall = None
    with open(os.path.join(out, "recall.csv"), encoding="utf-8") as fh:
        for line in fh.read().splitlines()[1:]:
            threshold, value = line.split(",")
            if float(threshold) == 0.5:
                recall = float(value)
    with open(os.path.join(out, "instances.jsonl"), encoding="utf-8") as fh:
        instances = sum(1 for line in fh if line.strip())
    return {
        "digests": {name: sha256(os.path.join(out, name)) for name in OUTPUTS},
        "bytes_written_mb": sum(os.path.getsize(os.path.join(out, f)) for f in data_files) / 1e6,
        "mean_p_miss": mean_p_miss,
        "recall_at_0.5": recall,
        "instances_out": instances,
    }


def stage_times(out):
    """Stage seconds from the run's own manifests, summed over processes."""
    totals = {k: 0.0 for k in _STAGE_KEYS}
    for name in os.listdir(out):
        if name.endswith(".manifest.json"):
            with open(os.path.join(out, name), encoding="utf-8") as fh:
                for key, value in json.load(fh)["timings_s"].items():
                    if key in totals:
                        totals[key] += value
    return totals


def check(rep, golden):
    """True when the repetition exited cleanly and its outputs match the goldens."""
    return rep["ok"] and golden is not None and rep["digests"] == golden["outputs"]


# ---------------------------------------------------------------------------
# metrics


def end_to_end(reps, setup_walls, duration_s, fail_ratio):
    median = statistics.median
    pipeline_s = median(r["wall_s"] for r in reps)
    last = ([r for r in reps if r["ok"]] or reps)[-1]
    return {
        "pipeline_s": pipeline_s,
        "realtime_x": duration_s / pipeline_s,
        "peak_rss_mb": median(r["peak_rss_mb"] for r in reps),
        "bytes_written_mb": last.get("bytes_written_mb", 0.0),
        "mean_p_miss": last.get("mean_p_miss", 1.0),
        "recall_at_0.5": last.get("recall_at_0.5", 0.0),
        "setup_s": median(setup_walls),
        "fail_ratio": fail_ratio,
    }


def cli_layer(reps):
    good = [r for r in reps if r["ok"]]
    if not good:
        return {}
    out = {}
    for key in _STAGE_KEYS:
        out["cli." + key.replace("-", "_") + "_s"] = statistics.median(r["stage_s"][key] for r in good)
    out["cli.startup_s"] = statistics.median(r["wall_s"] - sum(r["stage_s"].values()) for r in good)
    return out


def layer_metrics(totals):
    """Per-layer metrics from the tracer's merged per-function totals."""

    def get(name, key):
        return totals.get(name, {}).get(key, 0.0)

    def ratio(name):
        return get(name, "out") / get(name, "in") if get(name, "in") else 0.0

    return {
        "data_model.read_jsonl_s": get("data_model.read_jsonl", "s"),
        "data_model.read_jsonl_records": get("data_model.read_jsonl", "records"),
        "data_model.read_mb": get("data_model.read_jsonl", "bytes") / 1e6,
        "data_model.write_jsonl_s": get("data_model.write_jsonl", "s"),
        "data_model.write_jsonl_records": get("data_model.write_jsonl", "records"),
        "data_model.write_mb": get("data_model.write_jsonl", "bytes") / 1e6,
        "geometry.box_inits": get("geometry.Box", "inits"),
        "linking.track_link_s": get("linking.track_link", "s"),
        "linking.detections_in": get("linking.track_link", "in"),
        "linking.tubelets_out": get("linking.track_link", "out"),
        "linking.read_tubelets_s": get("linking.read_tubelets", "s"),
        "linking.write_tubelets_s": get("linking.write_tubelets", "s"),
        "kernels.iou_matrix_calls": get("kernels.iou_matrix", "calls"),
        "kernels.iou_matrix_cells": get("kernels.iou_matrix", "cells"),
        "kernels.iou_matrix_s": get("kernels.iou_matrix", "s"),
        "kernels.paired_iou_calls": get("kernels.paired_iou", "calls"),
        "kernels.paired_iou_rows": get("kernels.paired_iou", "rows"),
        "kernels.paired_iou_s": get("kernels.paired_iou", "s"),
        "refinement.filter_static_kept_ratio": ratio("refinement.filter_static"),
        "refinement.make_proposals_s": get("refinement.make_proposals", "s"),
        "refinement.proposals_out": get("refinement.make_proposals", "out"),
        "refinement.read_proposals_s": get("refinement.read_proposals", "s"),
        "refinement.write_proposals_s": get("refinement.write_proposals", "s"),
        "proposals.score_calls": get("proposals.score", "calls"),
        "proposals.score_s": get("proposals.score", "s"),
        "proposals.label_proposal_calls": get("proposals.label_proposal", "calls"),
        "proposals.label_proposal_s": get("proposals.label_proposal", "s"),
        "proposals.spatial_iou_calls": get("proposals.tubelet_spatial_iou", "calls"),
        "proposals.spatial_iou_s": get("proposals.tubelet_spatial_iou", "s"),
        "postprocess.fuse_s": get("postprocess.fuse", "s"),
        "postprocess.soft_nms_calls": get("postprocess.soft_nms", "calls"),
        "postprocess.soft_nms_in": get("postprocess.soft_nms", "in"),
        "postprocess.soft_nms_kept_ratio": ratio("postprocess.soft_nms"),
        "postprocess.soft_nms_s": get("postprocess.soft_nms", "s"),
        "postprocess.neighbor_tests": get("proposals.tubelet_spatial_iou", "neighbor_tests"),
        "postprocess.instances_out": get("postprocess.proposals_to_instances", "out"),
        "evaluation.tubelet_recall_s": get("evaluation.tubelet_recall", "s"),
        "evaluation.det_curve_s": get("evaluation.det_curve", "s"),
        "evaluation.align_calls": get("evaluation.align_instances", "calls"),
        "evaluation.align_s": get("evaluation.align_instances", "s"),
    }


def merge_traces(paths):
    """Sum the per-function totals of one traced repetition's processes."""
    totals, spans = {}, []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            trace = json.load(fh)
        spans.extend(trace["spans"])
        for name, agg in trace["totals"].items():
            merged = totals.setdefault(name, {})
            for key, value in agg.items():
                merged[key] = merged.get(key, 0.0) + value
    return totals, spans


# ---------------------------------------------------------------------------
# environment


def git_sha(root):
    """HEAD of the checkout's own ``.git``, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root, seed, slot, corpus):
    from importlib import metadata

    sys.path.insert(0, os.path.join(root, "src"))
    from tubekit import kernels

    return {
        "git_sha": git_sha(root),
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "click": metadata.version("click"),
        "numba_enabled": bool(kernels.NUMBA_ENABLED),
        "seed": seed,
        "corpus_slot": slot,
        "corpus_sha256": corpus,
    }


# ---------------------------------------------------------------------------
# main


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def load_goldens():
    with open(GOLDENS, encoding="utf-8") as fh:
        return json.load(fh)


def note(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def main(argv=None):
    args = parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "tubekit", "cli.py")):
        note("no src/tubekit/cli.py here; run from the root of a tubekit checkout")
        return 2
    bench = Bench(root, args.workload, args.seed)
    golden = load_goldens().get(args.workload, {}).get(str(bench.slot))
    if golden is None:
        note(f"no stored digests for {args.workload} slot {bench.slot}; every repetition counts as failed")

    setup_walls = bench.setup()
    corpus = corpus_digest(bench.corpus)
    corpus_ok = golden is not None and corpus == golden["corpus"]
    if golden is not None and not corpus_ok:
        note("the generated corpus differs from the stored one (synthgen changed?); "
             "outputs cannot match until the goldens are re-baselined")
    with open(os.path.join(bench.corpus, "video_meta.jsonl"), encoding="utf-8") as fh:
        metas = [json.loads(line) for line in fh if line.strip()]
    duration_s = sum(m["frame_count"] / m["frame_rate"] for m in metas)

    untraced_budget = args.seconds / 2 if args.trace else args.seconds
    reps = repeat(bench, untraced_budget)
    traced = []
    if args.trace:
        traced, generate_s = traced_run(bench, args.seconds - untraced_budget, first_index=len(reps))

    all_reps = reps + traced
    failed = sum(1 for r in all_reps if not (corpus_ok and check(r, golden)))
    e2e = end_to_end(reps, setup_walls, duration_s, failed / len(all_reps))
    instances_out = reps[-1].get("instances_out")

    for r in all_reps:
        if not r["ok"]:
            note(f"{r['run']}: a stage exited non-zero (exit codes {r['exit_codes']})")
        elif not check(r, golden):
            bad = [n for n in OUTPUTS if golden is None or r["digests"][n] != golden["outputs"][n]]
            note(f"{r['run']}: outputs differ from the stored digests: {', '.join(bad)}")
    if instances_out == 0:
        note(f"{args.workload}: 0 instances (mean_p_miss {e2e['mean_p_miss']}). This is the window cliff "
             "(ROADMAP item 5): every activity spans its whole video, so past 512 frames no window reaches "
             "temporal IoU 0.5 and no proposal is positive. Reported, not counted as a failure.")

    env = environment(root, args.seed, bench.slot, corpus)
    result = {"workload": args.workload, "env": env, "repetitions": len(reps), "end_to_end": e2e,
              "postprocess.instances_out": instances_out, "reps": [_brief(r) for r in all_reps]}
    print(f"env {json.dumps(env, sort_keys=True)}")
    for name, unit in END_TO_END.items():
        print(f"{args.workload} {name} {e2e[name]:.6g} {unit}")
    if args.trace:
        layers = cli_layer(reps)
        layers.update(median_metrics([layer_metrics(r["totals"]) for r in traced]))
        layers["synthgen.generate_s"] = generate_s
        layers["trace.overhead_s"] = statistics.median(r["wall_s"] for r in traced) - e2e["pipeline_s"]
        result["per_layer"] = layers
        for name, value in layers.items():
            print(f"{args.workload} {name} {value:.6g} {_unit(name)}")
        # a failed repetition leaves layers unmeasured; correct is false then
        metrics = {name: {"value": layers.get(name, 0.0), "unit": _unit(name)}
                   for name in _benchmark_metrics("per_layer")}
    else:
        print(f"{args.workload} postprocess.instances_out {instances_out} count")
        metrics = {name: {"value": e2e[name], "unit": END_TO_END[name]} for name in _benchmark_metrics("end_to_end")}

    with open(os.path.join(bench.work, f"result-seed{args.seed}-trace{args.trace}.json"), "w",
              encoding="utf-8") as fh:
        json.dump(result, fh, sort_keys=True, indent=2)
    print(json.dumps({"correct": failed == 0, "attempted": len(all_reps), "failed": failed, "metrics": metrics}))
    return 0


def traced_run(bench, seconds, first_index):
    """Trace the synth stage once, then repeat the pipeline under the tracer."""
    corpus_dir = os.path.join(bench.work, "traced-corpus")
    trace_file = os.path.join(bench.work, "trace-synth.json")
    shutil.rmtree(corpus_dir, ignore_errors=True)
    code, _ = bench.spawn(bench.cli(["synth", "--config", bench.config_path, "--out-dir", corpus_dir],
                                    (trace_file, f"{bench.workload}-seed{bench.seed}-synth")),
                          os.path.join(bench.work, "trace-synth.log"))
    if code != 0 or corpus_digest(corpus_dir) != corpus_digest(bench.corpus):
        raise RuntimeError("traced synth did not reproduce the corpus")
    totals, _ = merge_traces([trace_file])
    generate_s = totals.get("synthgen.generate", {}).get("s", 0.0)

    reps = repeat(bench, seconds, traced=True, first_index=first_index)
    with open(os.path.join(bench.work, f"spans-seed{bench.seed}.jsonl"), "w", encoding="utf-8") as out:
        for r in reps:
            for span in r.pop("spans"):
                out.write(json.dumps(span, sort_keys=True) + "\n")
    return reps, generate_s


def median_metrics(rows):
    if not rows:
        return {}
    return {name: statistics.median(row[name] for row in rows) for name in rows[0]}


def _benchmark_metrics(section):
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)[section]]


def _brief(rep):
    return {k: rep[k] for k in ("run", "exit_codes", "ok", "wall_s", "peak_rss_mb", "stage_s", "digests") if k in rep}


if __name__ == "__main__":
    sys.exit(main())
