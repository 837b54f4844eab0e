"""Re-baseline ``perfbench/goldens.json`` from the current code.

    python3 perfbench/make_goldens.py [--workload NAME ...]

For every workload and corpus slot it generates the corpus, runs
``tubekit pipeline`` once with one worker, and stores the SHA-256 of the
three input files and of the four final outputs. The stagewise workload is
checked against these same pipeline digests. Only a change that means to
alter the outputs or the corpus may re-run this, and it must say why.
"""

import argparse
import json
import os
import shutil
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402


def golden(root, workload, slot):
    bench = run.Bench(root, workload, slot)
    bench.setup(repeats=1)
    out = os.path.join(bench.work, "golden")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    _, args = bench.pipeline_stage(out)
    code, _ = bench.spawn(bench.cli(args), os.path.join(bench.work, "golden.log"))
    if code != 0:
        raise SystemExit(f"{workload} slot {slot}: pipeline exited {code}")
    return {"corpus": run.corpus_digest(bench.corpus), "outputs": run.inspect_outputs(out)["digests"]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", action="append", choices=sorted(run.WORKLOADS))
    args = ap.parse_args(argv)
    root = os.getcwd()
    goldens = run.load_goldens() if os.path.exists(run.GOLDENS) else {}
    for workload in args.workload or sorted(run.WORKLOADS):
        goldens[workload] = {}
        for slot in range(run.SLOTS):
            goldens[workload][str(slot)] = golden(root, workload, slot)
            print(f"{workload} slot {slot} done", flush=True)
    tmp = run.GOLDENS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, sort_keys=True, indent=1)
        fh.write("\n")
    os.replace(tmp, run.GOLDENS)


if __name__ == "__main__":
    main()
