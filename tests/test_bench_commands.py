"""The benchmark (`perfbench/run.py`) runs fixed subcommand argument lists. A
change to a flag, an output name or a manifest field would break it without
any other test failing, so every workload's argument lists run here, in
process, on a small corpus built from that workload's config."""

import importlib.util
import json
from pathlib import Path

import pytest
from click.testing import CliRunner

from tubekit.cli import main

RUN = Path(__file__).resolve().parent.parent / "perfbench" / "run.py"


def load_run():
    spec = importlib.util.spec_from_file_location("perfbench_run", RUN)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


run = load_run()


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_bench_commands_run_and_report_every_stage(tmp_path, workload):
    bench = run.Bench(str(tmp_path), workload, seed=0)
    cfg = bench.config()
    cfg["synth"]["frames_per_video"] = 60
    Path(bench.work).mkdir(parents=True)
    Path(bench.config_path).write_text(json.dumps(cfg))
    runner = CliRunner()

    def ok(args):
        res = runner.invoke(main, args, catch_exceptions=False)
        assert res.exit_code == 0, (args, res.output)

    ok(["synth", "--config", bench.config_path, "--out-dir", bench.corpus])
    for out, stages in (("stages", bench.stages), ("pipeline", lambda out: [bench.pipeline_stage(out)])):
        out = tmp_path / out
        out.mkdir()
        for _, args in stages(str(out)):
            ok(args)
        # a stage no manifest times reads 0.0
        assert all(seconds > 0 for seconds in run.stage_times(str(out)).values())
