"""Smoke test of the benchmark itself (not part of the tier-1 suite).

    python3 -m pytest -q perfbench/test_smoke.py

Runs from the repository root. Each case runs the benchmark for one short
repetition, so the whole file takes a few minutes.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import run  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def bench(cwd, workload, trace=0, seed=0):
    cmd = [sys.executable, *SPEC["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_spec_names_the_workloads_the_runner_knows():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)
    assert SPEC["command"][0] == "python3"


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", list(run.WORKLOADS))
def test_every_metric_is_printed_with_its_unit(workload, trace):
    proc = bench(ROOT, workload, trace)
    result = result_of(proc)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert sorted(result["metrics"]) == sorted(m["name"] for m in expected)
    lines = proc.stdout.splitlines()
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(f"{workload} {metric['name']} ") and line.endswith(" " + metric["unit"])
                   for line in lines), metric["name"]
    if not trace:
        for name, unit in run.END_TO_END.items():
            assert any(line.startswith(f"{workload} {name} ") and line.endswith(" " + unit) for line in lines)


def _copy_checkout(dest):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns("__pycache__")
    shutil.copytree(os.path.join(ROOT, "perfbench"), os.path.join(dest, "perfbench"), ignore=ignore)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(dest, "src"), ignore=ignore)


def test_a_flipped_byte_in_a_stored_digest_counts_as_failed(tmp_path):
    _copy_checkout(tmp_path)
    path = tmp_path / "perfbench" / "goldens.json"
    goldens = json.loads(path.read_text())
    digest = goldens["dense-heuristic"]["0"]["outputs"]["det.csv"]
    goldens["dense-heuristic"]["0"]["outputs"]["det.csv"] = ("1" if digest[0] != "1" else "2") + digest[1:]
    path.write_text(json.dumps(goldens))

    proc = bench(tmp_path, "dense-heuristic")
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] == result["attempted"] >= 1
    assert "dense-heuristic fail_ratio 1 ratio" in proc.stdout.splitlines()
    assert "det.csv" in proc.stderr


def test_fails_without_a_result_when_the_program_is_missing(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(tmp_path, "noisy-long")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
