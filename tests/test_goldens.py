"""Golden digests: `tubekit pipeline` on five small fixed corpora must write
byte-identical data files across refactors: the generated corpus, the
tubelets, the unscored and scored proposals, and the final outputs.

A deliberate change to any of these files (a new corpus generator, a new
scoring rule) re-baselines the digests below in its own commit, and says so.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from tubekit.cli import main

OUTPUTS = (
    "tubelets.jsonl", "instances.jsonl", "det.csv", "summary.json", "recall.csv",
    "proposals.jsonl", "scored_vehicle.jsonl", "scored_person.jsonl",
    "detections.jsonl", "ground_truth.jsonl", "video_meta.jsonl",
)

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
    # score noise wide enough that the synthetic scores hit both clip ends, 0.05 and 1.0
    "clipped-scores": {
        "synth": {
            "seed": 6,
            "video_count": 2,
            "frames_per_video": 80,
            "dropout_rate": 0.1,
            "box_jitter_px": 2.0,
            "false_positive_rate": 0.5,
            "score_noise": 0.5,
        },
    },
}

GOLDENS = {
    "clean": {
        "tubelets.jsonl": "515ef44ccc6c87d7de6d5af9543728360b7845cad870ffbe486e2126fe65eace",
        "instances.jsonl": "daa78a50133c6c252a96469ee1ea89b1f7c04781beee8525b7269afb63cd4c2b",
        "det.csv": "f02f47cf6b7672d63219802c3bfc9fd9325c2dec2574db90df11963c9f7ad27d",
        "summary.json": "9bff52cc11c503e658c6b6b6869682e26dccdb4072d7f0555d5e0da285232f85",
        "recall.csv": "8e4b46849f1759038253abdd6d3b500146e4a52e28c7c698bf4aa6cccf19a7b2",
        "proposals.jsonl": "5ad2c92ea782548e90143a2ac3de283d6a4213019f22e62b5a223e4298aeba0f",
        "scored_vehicle.jsonl": "d14b4f5edfab76622fc7793ed40d9baec1f20145644dd96928ff2942639d8d6c",
        "scored_person.jsonl": "7c92e96c5b8a79b6e1d0ad7d1bf527913bea7961dd973303f129b496b52153f7",
        "detections.jsonl": "3baa2b2eefe42619c8c2e48b7ed05e120c8b3e3a4a0f3e16c8aaa6b2239449e6",
        "ground_truth.jsonl": "b9328db26a102de86bfc379223c008bdcd5193b90608c3f93e238f78b4cb9db4",
        "video_meta.jsonl": "7dea6b64797909f97fc7bbc5f6e2988d720b2be1eb423bd21dff2cb594e9bc65",
    },
    "noisy-oracle": {
        "tubelets.jsonl": "187a7cf56ed7fcb19176f996cc1fdbd37bf050cd314c0d5879d80fca7a5ec364",
        "instances.jsonl": "75104a4626be08cb2eaf6ca724a896f801288437805b610259326ad51266e234",
        "det.csv": "539e03fd721eb0f284cbe64bc1fe6915c36b25d6029af20091f2ef7eff0c0912",
        "summary.json": "109afd18287af97207ca88fff4f980e063b0643f235744cf41ae1eee9c362cc0",
        "recall.csv": "3824620ba9051be4a75e2a01270cb3abbc11102ee0c57792c4940f4824c9f86d",
        "proposals.jsonl": "b4a9e941d33f0413d44ac64b0ce264f22e391cdd8d282c00a6e9970a294fea64",
        "scored_vehicle.jsonl": "8925eabb89bae041671363e54cd09ed8e37bc58ac7dc20e66e7286a18e6eb109",
        "scored_person.jsonl": "0759ad8d0b0dd9da280036a77c10a82ae17fd0edde76e8f5c6304385be02f0fd",
        "detections.jsonl": "7fcf7ec5123ebe8fc40dd66a042d9c9ab6bc6f4ae17fbae5db361c905d7ca915",
        "ground_truth.jsonl": "efa97b836643ef037240f53d26413c6ecedda748d07ece63f9a373c694a2919d",
        "video_meta.jsonl": "77e3dc2abb330e09f647ef241f1f3f297301fd6c0bb210602cb94f17cc05eafb",
    },
    "heuristic": {
        "tubelets.jsonl": "aed0b84a137c71c51932d9adb17ead5e71f078150e3ec5b00e199c77d36f70c8",
        "instances.jsonl": "e515ed9aa5df4aaaef0c5e9c0b9e45caa4d53c270de244c1fc001da032e8ec2b",
        "det.csv": "ddd8c692e332ea8e4d0c86c91e7b603e8a8387b645cd7a4f369d6dd58a64ecaf",
        "summary.json": "31da692103be9daa95d861256edf0c72236f1fddac2f0284fb3ffc3b97c18772",
        "recall.csv": "5e51d09b2b93076bc75f2275f9c5462b433d47fe2c6b3788bba156d1d1813cb8",
        "proposals.jsonl": "6351fd0da5cf36a5c67642ad94c4c657df0174354a4968dfce1312d8a04ea574",
        "scored_vehicle.jsonl": "e2226db172fb77b008d57af9062076e019506126434c9262a80314eba7a6bd54",
        "scored_person.jsonl": "f533fccf2f958231ee42621304d5a91ac46f948c903c9b09e33aaccea8e085bf",
        "detections.jsonl": "ace3e0f03ffaa4145bc3482aa6cf9f8de4e6aba6e53e5ee569c8402f62cc2e13",
        "ground_truth.jsonl": "d54ba0fb0d3915275a218a2920734718ce91796b5332054c03fbec578e8d1e66",
        "video_meta.jsonl": "7dea6b64797909f97fc7bbc5f6e2988d720b2be1eb423bd21dff2cb594e9bc65",
    },
    "greedy": {
        "tubelets.jsonl": "40096216fed1b03874bcd24cf18048d56642ebae308365345b636c37ca63cf21",
        "instances.jsonl": "51133effd5faf65e6b7d3a420f1da1e13ec0909474e40512bd1695dbe14a3677",
        "det.csv": "663d7c93d503347dca1194ff174b76f5ce180dfacb351f723b8e21b431cd3dca",
        "summary.json": "513f81d7e595c0d5835126ea8717ec93369feade860dd2b012767b101ff83efa",
        "recall.csv": "3bb98f5839d45a28069d239576d8c3527a570f141925aee56cd6556cc879e5b1",
        "proposals.jsonl": "89190dea1e7c25f9a69802ee9ded71cf102927f7aee96d3a476d3cc1ca43aaba",
        "scored_vehicle.jsonl": "8e82df2c369eb92e959d917887b8957316dafce23929798c5b6e8ef119a7d016",
        "scored_person.jsonl": "2ad716f57d29618f44cd3ba3bf4d492b0e0e30566f95ae8eaaef5879a52c8057",
        "detections.jsonl": "8bd632150cbfd814adbb83847f947b87a3bc36a5b47476ce4d6f922bb7b54ca2",
        "ground_truth.jsonl": "f07004e9ba05d5a2e8d191b3d75d4ccea84337b86bff3e19b440e42183bf7497",
        "video_meta.jsonl": "2cdc9b1c4274100deaa26b7804676666e20a6b819c7f00ec9f59b498ecc37b81",
    },
    "clipped-scores": {
        "tubelets.jsonl": "6b564c26d8d904b77f5dbdec8a8bebf2db2fc73d51c5168abcdb376f0b92ded8",
        "instances.jsonl": "e371c4c75726e96a97097bedac59e7474a10b5c4175da857eab1c1a9a6c944d2",
        "det.csv": "622b4c3cd009f315a9860458c0d762d328019e7fddcc367aa315b372766cfed8",
        "summary.json": "52a96f24f3cf7ef7999750c7122ecab65a4298aee66a37d11da7cfeb3b498827",
        "recall.csv": "7c30912fa7d56dcf0d53eea80477eb59e2334ddf424616f513d24367c3aed37d",
        "proposals.jsonl": "bfac8ce004094f59cacf104aa0b4793db9425f313bb3a5a2bdd8706d3e904b3e",
        "scored_vehicle.jsonl": "d1c38e03a8970ed8eea936458603a8773a2cb71d59fc49d1a41085946b03fbd2",
        "scored_person.jsonl": "019eec7122925ee29c08b61c3f4225ff256db4e545da35e58664f1eca263a5dc",
        "detections.jsonl": "03531ab44e27852ae037715799182a33a2eb1a74c13b7798273a1e89f5b102c6",
        "ground_truth.jsonl": "906b953c78dd2181090f0ac1c3026910d9010ff0ea08b5cf93615c23def91e79",
        "video_meta.jsonl": "61d613d8555c428412ce9fa19a4b708e4d2f01710936336cb5b190f9d5a47618",
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
