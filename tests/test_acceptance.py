"""Acceptance gate: one test per shipping criterion.

Each test prints a single ``criterion N PASS`` line once its assertions hold,
so a ``pytest -v -s`` run reads as a checklist. Oracles here are written
independently of the library code they check.
"""

import itertools
import json
import math
import time

import numpy as np
import pytest
from click.testing import CliRunner
from conftest import box_rows, make_proposal

from tubekit import cli, linking, synthgen
from tubekit.data_model import ActivityInstance
from tubekit.evaluation import AlignmentPolicy, align_instances, tubelet_recall
from tubekit.geometry import Box, Interval, spatial_iou, temporal_iou
from tubekit.postprocess import SoftNmsConfig, soft_nms
from tubekit.proposals import (
    MODEL_GROUPS,
    PERSON_GROUP,
    VEHICLE_GROUP,
    label_proposal,
)
from tubekit.synthgen import SceneConfig, generate


def _passed(n, detail):
    print(f"criterion {n} PASS: {detail}")


def _link_corpus(corpus, linker):
    tubes = []
    for v in sorted(corpus.detections):
        out, _ = linker(corpus.detections[v])
        tubes.extend(out)
    return tubes


# ---------------------------------------------------------------------------
# 1. geometry against a rasterized-area oracle


def _raster_box_iou(a, b):
    grid = np.zeros((80, 80), dtype=bool)
    ga, gb = grid.copy(), grid.copy()
    ga[int(a[1]):int(a[3]), int(a[0]):int(a[2])] = True
    gb[int(b[1]):int(b[3]), int(b[0]):int(b[2])] = True
    union = np.count_nonzero(ga | gb)
    if union == 0:
        return 0.0
    return np.count_nonzero(ga & gb) / union


def _raster_interval_iou(a, b):
    fa, fb = set(range(*a)), set(range(*b))
    union = fa | fb
    if not union:
        return 0.0
    return len(fa & fb) / len(union)


def test_criterion_01_geometry_oracle():
    rng = np.random.default_rng(101)
    start = time.perf_counter()
    for _ in range(1000):
        xs = np.sort(rng.integers(0, 80, size=2))
        ys = np.sort(rng.integers(0, 80, size=2))
        a = (xs[0], ys[0], xs[1] + 1, ys[1] + 1)
        xs = np.sort(rng.integers(0, 80, size=2))
        ys = np.sort(rng.integers(0, 80, size=2))
        b = (xs[0], ys[0], xs[1] + 1, ys[1] + 1)
        got = spatial_iou(Box(*[float(v) for v in a]), Box(*[float(v) for v in b]))
        assert got == pytest.approx(_raster_box_iou(a, b), abs=1e-9)

        sa = int(rng.integers(0, 60))
        ia = (sa, sa + int(rng.integers(1, 40)))
        sb = int(rng.integers(0, 60))
        ib = (sb, sb + int(rng.integers(1, 40)))
        got = temporal_iou(Interval(*ia), Interval(*ib))
        assert got == pytest.approx(_raster_interval_iou(ia, ib), abs=1e-9)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _passed(1, f"1000 box and interval pairs within 1e-9 of raster oracle in {elapsed:.2f}s")


# ---------------------------------------------------------------------------
# 2. exact reconstruction of linear tracks


def test_criterion_02_interpolation_exactness():
    checked = 0
    for vx, vy in ((0.5, 1.25), (-2.0, 0.75), (3.0, -1.5), (1.0, 0.0)):
        def true_box(f):
            x, y = 200.0 + vx * f, 150.0 + vy * f
            return [x, y, x + 24.0, y + 40.0]

        # holes of every length up to the max gap, including non-power-of-two
        kept = set(range(61))
        hole_start = 2
        for hole in (1, 2, 3, 5, 7, 8):
            kept -= set(range(hole_start, hole_start + hole))
            hole_start += hole + 2
        frames = sorted(kept)
        segments = linking.interpolate_gaps(np.array(frames), np.array([true_box(f) for f in frames]),
                                            np.full(len(frames), 0.9), max_interp_gap=8)
        assert len(segments) == 1
        extent, boxes, scores, prov = segments[0]
        assert extent == Interval(0, 61)
        for f in range(61):
            assert boxes[f].tolist() == true_box(f)
            assert scores[f] == 0.9
            checked += 1
        interp = [f for f in range(61) if f not in kept]
        assert all(linking.PROVENANCES[prov[f]] == "interpolated" for f in interp)
    _passed(2, f"{checked} frames on 4 linear tracks reconstructed with zero coordinate error")


# ---------------------------------------------------------------------------
# 3. noise-free identity


def _partition_matches(tubes, ground_truth):
    if len(tubes) != len(ground_truth):
        return False
    gt_by_key = {(g.video_id, tuple(g.boxes[0])): g for g in ground_truth}
    for t in tubes:
        g = gt_by_key.get((t.video_id, tuple(t.boxes[0])))
        if g is None or t.extent != g.extent:
            return False
        if not np.array_equal(t.boxes, g.boxes):
            return False
    return True


def test_criterion_03_noise_free_identity():
    start = time.perf_counter()
    corpus = generate(SceneConfig(seed=300, video_count=10, frames_per_video=150,
                                  objects_per_video=(5, 6)))
    thresholds = [round(0.1 * i, 1) for i in range(1, 10)]
    for linker in (linking.greedy_link, linking.track_link):
        tubes = _link_corpus(corpus, linker)
        assert _partition_matches(tubes, corpus.ground_truth)
        curve = tubelet_recall(tubes, corpus.ground_truth, thresholds)
        assert curve.recall == tuple(1.0 for _ in thresholds)
    elapsed = time.perf_counter() - start
    _passed(3, f"both linkers exact on 10x(5+) clean videos, recall 1.0 up to tau 0.9, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. tracking beats greedy under dropout


def test_criterion_04_dropout_tracking_advantage():
    start = time.perf_counter()
    at_02 = []
    for seed in range(10):
        for dropout in (0.1, 0.2, 0.3):
            corpus = generate(SceneConfig(
                seed=400 + seed, video_count=4, frames_per_video=200,
                objects_per_video=(3, 5), dropout_rate=dropout,
            ))
            recalls = {}
            for name, linker in (("greedy", linking.greedy_link), ("tracking", linking.track_link)):
                tubes = _link_corpus(corpus, linker)
                recalls[name] = tubelet_recall(tubes, corpus.ground_truth, [0.3]).recall[0]
            assert recalls["tracking"] >= recalls["greedy"], (seed, dropout, recalls)
            if dropout == 0.2:
                at_02.append(recalls["tracking"])
    assert min(at_02) >= 0.8
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    _passed(4, f"tracking >= greedy in all 30 trials, min recall@0.3 {min(at_02):.2f} "
               f"at dropout 0.2, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. labeling threshold table


def test_criterion_05_labeling_table():
    gt = [ActivityInstance("v0", "Riding", Interval(0, 100), box_rows((0, 0, 10, 10), 100), 1.0)]
    # window [a, 100) has temporal IoU (100-a)/100 with the instance; a box of
    # width w nested in the 10x10 reference has spatial IoU w/10
    table = {
        (0.1, 0.2): "negative",
        (0.1, 0.5): "negative",
        (0.3, 0.2): "ignore",
        (0.3, 0.5): "ignore",
        (0.6, 0.2): "ignore",
        (0.6, 0.5): "positive",
    }
    for (tiou, siou), want in sorted(table.items()):
        a = round(100 * (1 - tiou))
        w = 10 * siou
        p = make_proposal(Interval(a, 100), boxes=box_rows((0, 0, w, 10), 100 - a))
        label = label_proposal(p, gt)
        assert label.kind == want, (tiou, siou, label)
        if want == "positive":
            assert label.activity == "Riding"
    _passed(5, "6-case temporal x spatial IoU table labels exactly as specified")


# ---------------------------------------------------------------------------
# 6. model decomposition partition


def test_criterion_06_group_partition():
    vehicle = {
        "Closing", "Opening", "Closing_Trunk", "Open_Trunk",
        "vehicle_turning_left", "vehicle_turning_right", "vehicle_u_turn",
        "Entering", "Exiting",
    }
    person = {
        "specialized_talking_phone", "specialized_texting_phone",
        "Transport_HeavyCarry", "activity_carrying", "Pull", "Riding",
        "Talking", "Loading", "Unloading",
    }
    assert set(VEHICLE_GROUP.activities) == vehicle
    assert set(PERSON_GROUP.activities) == person
    assert len(vehicle) == len(person) == 9
    assert not vehicle & person
    assert set(MODEL_GROUPS) == {"vehicle_related", "person_related"}
    _passed(6, "vehicle/person groups equal the 18-class partition, 9 + 9")


# ---------------------------------------------------------------------------
# 7. soft-NMS closed form and hard-NMS limit


def _interval_iou(a, b):
    inter = max(0, min(a[1], b[1]) - max(a[0], b[0]))
    union = (a[1] - a[0]) + (b[1] - b[0]) - inter
    return inter / union if union else 0.0


def _nms_oracle(props, activity, method, sigma, linear_threshold, floor):
    live = {p.proposal_id: float(p.scores[activity]) for p in props
            if p.scores[activity] >= floor}
    spans = {p.proposal_id: (p.window.start, p.window.end) for p in props}
    kept = []
    while live:
        top = min(live, key=lambda pid: (-live[pid], spans[pid][0], pid))
        kept.append((top, live.pop(top)))
        for pid in list(live):
            t = _interval_iou(spans[top], spans[pid])
            if method == "gaussian":
                live[pid] *= math.exp(-t * t / sigma)
            elif t > linear_threshold:
                live[pid] *= 1.0 - t
            if live[pid] < floor:
                del live[pid]
    return kept


def _hard_nms_oracle(props, activity, floor):
    live = {p.proposal_id: float(p.scores[activity]) for p in props
            if p.scores[activity] >= floor}
    spans = {p.proposal_id: (p.window.start, p.window.end) for p in props}
    kept = []
    while live:
        top = min(live, key=lambda pid: (-live[pid], spans[pid][0], pid))
        kept.append(top)
        del live[top]
        for pid in list(live):
            if _interval_iou(spans[top], spans[pid]) > 0.0:
                del live[pid]
    return kept


def test_criterion_07_soft_nms_closed_form():
    rng = np.random.default_rng(700)
    for case in range(100):
        n = int(rng.integers(2, 9))
        props = []
        for pid in range(n):
            s = int(rng.integers(0, 50))
            window = Interval(s, s + int(rng.integers(5, 30)))
            props.append(make_proposal(
                window, proposal_id=pid,
                scores={"Riding": float(rng.uniform(0.05, 1.0))},
            ))
        method = "gaussian" if case % 2 == 0 else "linear"
        cfg = SoftNmsConfig(method=method)
        out = soft_nms(props, "Riding", cfg)
        want = _nms_oracle(props, "Riding", method, cfg.sigma,
                           cfg.linear_threshold, cfg.score_floor)
        assert [p.proposal_id for p in out] == [pid for pid, _ in want]
        for p, (_, s) in zip(out, want):
            assert p.scores["Riding"] == pytest.approx(s, abs=1e-9)

        limit = soft_nms(props, "Riding", SoftNmsConfig(sigma=1e-12))
        assert [p.proposal_id for p in limit] == _hard_nms_oracle(
            props, "Riding", cfg.score_floor)
    _passed(7, "100 random sets match the decay formulas within 1e-9; "
               "sigma->0 reproduces hard NMS")


# ---------------------------------------------------------------------------
# 8. alignment equals brute-force optimum


def _instance(start, end, confidence=1.0):
    return ActivityInstance("v0", "Riding", Interval(start, end),
                            box_rows((0, 0, 10, 10), end - start), confidence)


def _brute_force_alignment(system, reference, min_tiou):
    n, m = len(system), len(reference)
    tiou = [[temporal_iou(s.extent, r.extent) for r in reference] for s in system]
    best = (0, 0.0)
    for k in range(min(n, m), -1, -1):
        found = False
        for si in itertools.combinations(range(n), k):
            for rj in itertools.permutations(range(m), k):
                ts = [tiou[i][j] for i, j in zip(si, rj)]
                if all(t >= min_tiou for t in ts):
                    found = True
                    best = max(best, (k, sum(ts)))
        if found:
            break
    return best


def test_criterion_08_alignment_oracle():
    rng = np.random.default_rng(800)
    policy = AlignmentPolicy()
    for _ in range(200):
        n, m = int(rng.integers(0, 7)), int(rng.integers(0, 7))

        def iv(conf):
            s = int(rng.integers(0, 40))
            return _instance(s, s + int(rng.integers(1, 25)), confidence=conf)

        system = [iv(round(float(rng.random()), 3)) for _ in range(n)]
        reference = [iv(1.0) for _ in range(m)]
        res = align_instances(system, reference, policy)
        got = (len(res.matches), sum(t for _, _, t in res.matches))
        want = _brute_force_alignment(system, reference, policy.temporal_iou_min)
        assert got[0] == want[0]
        assert got[1] == pytest.approx(want[1], abs=1e-9)
    _passed(8, "200 seeded cases (<= 6 per side) equal the brute-force optimum")


# ---------------------------------------------------------------------------
# 9. DET properties end to end


def _pipeline_mean_p_miss(tmp_path, dropout):
    d = tmp_path / f"drop_{int(dropout * 100):02d}"
    d.mkdir()
    cfg = cli._merged_config()
    cfg["synth"].update(seed=900, video_count=4, frames_per_video=200,
                        objects_per_video=[3, 5], dropout_rate=dropout)
    paths, _ = cli.run_synth(cfg, d)
    tubes = d / "tubelets.jsonl"
    props = d / "proposals.jsonl"
    cli.run_link(paths["detections"], paths["video_meta"], "tracking", cfg, tubes)
    cli.run_refine(tubes, paths["video_meta"], cfg, props)
    scored = {}
    for group in ("vehicle_related", "person_related"):
        out = d / f"scored_{group}.jsonl"
        cli.run_score(props, cfg, out, paths["ground_truth"], group)
        scored[group] = out
    inst = d / "instances.jsonl"
    cli.run_fuse(scored["vehicle_related"], scored["person_related"], cfg, inst)
    curves, summary = cli.run_eval_det(
        inst, paths["ground_truth"], paths["video_meta"], cfg,
        d / "det.csv", d / "summary.json",
    )
    for c in curves.values():
        pms = [p[1] for p in c.points]
        assert pms == sorted(pms, reverse=True), c.activity
    return summary["mean_p_miss"]


def test_criterion_09_det_properties(tmp_path):
    start = time.perf_counter()
    means = [_pipeline_mean_p_miss(tmp_path, rate) for rate in (0.0, 0.1, 0.2, 0.3)]
    assert means[0] == 0.0
    assert means == sorted(means)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0
    _passed(9, f"curves monotone, clean mean p_miss@0.15rfa 0.0, means {means} "
               f"non-decreasing in dropout, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 10. byte determinism of every subcommand


def _run_all_stages(runner, corpus_dir, out_dir, workers):
    out_dir.mkdir()
    det = str(corpus_dir / "detections.jsonl")
    meta = str(corpus_dir / "video_meta.jsonl")
    gt = str(corpus_dir / "ground_truth.jsonl")
    w = str(workers)

    def ok(args):
        res = runner.invoke(cli.main, args, catch_exceptions=False)
        assert res.exit_code == 0, res.output

    ok(["default-config", "--out", str(out_dir / "config.json")])
    tubes = str(out_dir / "tubelets.jsonl")
    ok(["link", "--detections", det, "--meta", meta, "--out", tubes, "--workers", w])
    props = str(out_dir / "proposals.jsonl")
    ok(["refine", "--tubelets", tubes, "--meta", meta, "--out", props, "--workers", w])
    veh = str(out_dir / "scored_vehicle.jsonl")
    per = str(out_dir / "scored_person.jsonl")
    for out, group in ((veh, "vehicle_related"), (per, "person_related")):
        ok(["score", "--proposals", props, "--scorer", "oracle", "--ground-truth", gt,
            "--out", out, "--group", group, "--workers", w])
    inst = str(out_dir / "instances.jsonl")
    ok(["fuse", "--vehicle", veh, "--person", per, "--out", inst])
    ok(["eval-recall", "--tubelets", tubes, "--ground-truth", gt,
        "--out", str(out_dir / "recall.csv")])
    ok(["eval-det", "--instances", inst, "--ground-truth", gt, "--meta", meta,
        "--out-csv", str(out_dir / "det.csv"),
        "--out-summary", str(out_dir / "summary.json")])
    pipe = out_dir / "pipe"
    ok(["pipeline", "--out-dir", str(pipe), "--detections", det,
        "--ground-truth", gt, "--meta", meta, "--workers", w])


def _data_files(root):
    out = {}
    for p in sorted(root.rglob("*")):
        if p.is_file() and not p.name.endswith("manifest.json"):
            out[str(p.relative_to(root))] = p.read_bytes()
    return out


def test_criterion_10_determinism(tmp_path):
    runner = CliRunner()
    corpora = []
    for tag in ("a", "b"):
        out = tmp_path / f"corpus_{tag}"
        res = runner.invoke(cli.main, [
            "synth", "--out-dir", str(out), "--seed", "10", "--videos", "2",
            "--frames", "80",
        ], catch_exceptions=False)
        assert res.exit_code == 0
        corpora.append(out)
    assert _data_files(corpora[0]) == _data_files(corpora[1])

    runs = {}
    for name, workers in (("run1_w1", 1), ("run2_w1", 1), ("run3_w4", 4)):
        _run_all_stages(runner, corpora[0], tmp_path / name, workers)
        runs[name] = _data_files(tmp_path / name)
    assert runs["run1_w1"] == runs["run2_w1"]
    assert runs["run1_w1"] == runs["run3_w4"]
    _passed(10, "every subcommand byte-identical across repeat runs and workers 1 vs 4")
