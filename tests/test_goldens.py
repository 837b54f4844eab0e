"""Golden digests: `tubekit pipeline` on four small fixed corpora must write
byte-identical tubelets and final outputs across refactors.

A deliberate change to any of these files (a new corpus generator, a new
scoring rule) re-baselines the digests below in its own commit, and says so.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from tubekit.cli import main

OUTPUTS = ("tubelets.jsonl", "instances.jsonl", "det.csv", "summary.json", "recall.csv")

CORPORA = {
    "clean": {"synth": {"seed": 0, "video_count": 2, "frames_per_video": 120}},
    "noisy-oracle": {
        "synth": {
            "seed": 1,
            "video_count": 2,
            "frames_per_video": 240,
            "dropout_rate": 0.1,
            "box_jitter_px": 2.0,
            "false_positive_rate": 0.3,
        },
        "scorer": {"name": "oracle", "epsilon": 0.1, "label_noise": 0.2},
    },
    "heuristic": {
        "synth": {"seed": 2, "video_count": 2, "frames_per_video": 120, "box_jitter_px": 2.0},
        "scorer": {"name": "heuristic"},
    },
    "greedy": {
        "synth": {
            "seed": 4,
            "video_count": 2,
            "frames_per_video": 160,
            "dropout_rate": 0.15,
            "box_jitter_px": 2.0,
            "false_positive_rate": 1.0,
            "score_noise": 0.05,
        },
        "link": {"strategy": "greedy"},
    },
}

GOLDENS = {
    "clean": {
        "tubelets.jsonl": "4437c373c13b6632d31395372a9fc5911df636b9456415b11468350c7efa56f3",
        "instances.jsonl": "daa78a50133c6c252a96469ee1ea89b1f7c04781beee8525b7269afb63cd4c2b",
        "det.csv": "f02f47cf6b7672d63219802c3bfc9fd9325c2dec2574db90df11963c9f7ad27d",
        "summary.json": "9bff52cc11c503e658c6b6b6869682e26dccdb4072d7f0555d5e0da285232f85",
        "recall.csv": "8e4b46849f1759038253abdd6d3b500146e4a52e28c7c698bf4aa6cccf19a7b2",
    },
    "noisy-oracle": {
        "tubelets.jsonl": "499f74d32bb6f7cff9855c73f3b92b670190fda01b302cb5bff595b7b2930aee",
        "instances.jsonl": "75104a4626be08cb2eaf6ca724a896f801288437805b610259326ad51266e234",
        "det.csv": "539e03fd721eb0f284cbe64bc1fe6915c36b25d6029af20091f2ef7eff0c0912",
        "summary.json": "109afd18287af97207ca88fff4f980e063b0643f235744cf41ae1eee9c362cc0",
        "recall.csv": "3824620ba9051be4a75e2a01270cb3abbc11102ee0c57792c4940f4824c9f86d",
    },
    "heuristic": {
        "tubelets.jsonl": "35ed5c999fbb915afc01243778762d535412f2c5c4cb51b1a5ef581c3b547674",
        "instances.jsonl": "e515ed9aa5df4aaaef0c5e9c0b9e45caa4d53c270de244c1fc001da032e8ec2b",
        "det.csv": "ddd8c692e332ea8e4d0c86c91e7b603e8a8387b645cd7a4f369d6dd58a64ecaf",
        "summary.json": "31da692103be9daa95d861256edf0c72236f1fddac2f0284fb3ffc3b97c18772",
        "recall.csv": "5e51d09b2b93076bc75f2275f9c5462b433d47fe2c6b3788bba156d1d1813cb8",
    },
    "greedy": {
        "tubelets.jsonl": "63aa94d8b3d4d0e07392c4f04bf2a824de9d05826f3074b3004d79794d7ad762",
        "instances.jsonl": "51133effd5faf65e6b7d3a420f1da1e13ec0909474e40512bd1695dbe14a3677",
        "det.csv": "663d7c93d503347dca1194ff174b76f5ce180dfacb351f723b8e21b431cd3dca",
        "summary.json": "513f81d7e595c0d5835126ea8717ec93369feade860dd2b012767b101ff83efa",
        "recall.csv": "3bb98f5839d45a28069d239576d8c3527a570f141925aee56cd6556cc879e5b1",
    },
}


def _sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", sorted(CORPORA))
def test_pipeline_outputs_match_goldens(tmp_path, name):
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps(CORPORA[name]))
    out = tmp_path / "run"
    res = CliRunner().invoke(main, ["pipeline", "--config", str(cfg_path), "--out-dir", str(out)],
                             catch_exceptions=False)
    assert res.exit_code == 0, res.output
    assert {f: _sha256(out / f) for f in OUTPUTS} == GOLDENS[name]
