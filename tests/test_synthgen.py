import json
from pathlib import Path

import numpy as np
import pytest

from tubekit import linking
from tubekit.data_model import ACTIVITY_CLASSES, DETECTION_CLASSES, OBJECT_CLASSES
from tubekit.errors import InvalidInputError, SchemaError
from tubekit.synthgen import SceneConfig, SynthCorpus, generate, write_corpus


def detection_rows(corpus):
    """(video_id, frame, box tuple, class, score) of every detection."""
    return [
        (v, f, tuple(b), DETECTION_CLASSES[c], s)
        for v, d in sorted(corpus.detections.items())
        for f, b, c, s in zip(d.frames.tolist(), d.boxes.tolist(), d.classes.tolist(), d.scores.tolist())
    ]


def small(seed=0, **kw):
    defaults = dict(seed=seed, video_count=2, frames_per_video=60, objects_per_video=(2, 3))
    defaults.update(kw)
    return SceneConfig(**defaults)


class TestConfigValidation:
    def test_unknown_activity_in_mix(self):
        with pytest.raises(SchemaError):
            SceneConfig(activity_mix={"Swimming": 1.0})

    def test_mix_must_sum_to_one(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(activity_mix={"Riding": 0.5})

    def test_bad_object_range(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(objects_per_video=(3, 2))

    def test_bad_dropout(self):
        with pytest.raises(InvalidInputError):
            SceneConfig(dropout_rate=1.5)


class TestGenerate:
    def test_noise_free_detections_equal_ground_truth(self):
        corpus = generate(small())
        gt_boxes = {}
        for inst in corpus.ground_truth:
            for f, row in zip(inst.extent.frames(), inst.boxes.tolist()):
                gt_boxes.setdefault((inst.video_id, f), []).append(tuple(row))
        rows = detection_rows(corpus)
        assert len(rows) == sum(i.extent.length for i in corpus.ground_truth)
        for video_id, frame, box, _, _ in rows:
            assert box in gt_boxes[(video_id, frame)]

    def test_same_seed_byte_identical(self, tmp_path):
        a = write_corpus(generate(small(seed=9)), tmp_path / "a")
        b = write_corpus(generate(small(seed=9)), tmp_path / "b")
        for key in ("detections", "ground_truth", "video_meta", "manifest"):
            assert Path(a[key]).read_bytes() == Path(b[key]).read_bytes()

    def test_different_seed_differs(self):
        a = generate(small(seed=1))
        b = generate(small(seed=2))
        assert detection_rows(a) != detection_rows(b)

    def test_dropout_binomial_bound(self):
        cfg = SceneConfig(
            seed=3, video_count=10, frames_per_video=250, objects_per_video=(4, 4),
            dropout_rate=0.2,
        )
        corpus = generate(cfg)
        slots = sum(i.extent.length for i in corpus.ground_truth)
        assert slots == 10000
        dropped = slots - corpus.manifest["counts"]["detections"]
        assert abs(dropped - 2000) <= 150  # 3 sigma of Binomial(10000, 0.2)

    def test_instances_valid_and_classes_admitted(self):
        corpus = generate(small(seed=4, false_positive_rate=0.5, box_jitter_px=1.0))
        for inst in corpus.ground_truth:
            assert inst.activity in ACTIVITY_CLASSES
            assert inst.boxes.shape == (inst.extent.length, 4)
        for _, _, _, object_class, score in detection_rows(corpus):
            assert object_class in OBJECT_CLASSES
            assert 0.0 <= score <= 1.0

    def test_vehicle_activities_on_vehicle_tracks(self):
        corpus = generate(small(seed=5, activity_mix={"Closing": 0.5, "Riding": 0.5}))
        by_video_frame = {}
        for video_id, frame, box, object_class, _ in detection_rows(corpus):
            by_video_frame.setdefault((video_id, frame), []).append((box, object_class))
        for inst in corpus.ground_truth:
            f = inst.extent.start
            matching = [c for box, c in by_video_frame[(inst.video_id, f)] if box == tuple(inst.boxes[0])]
            assert len(matching) == 1
            cls = matching[0]
            if inst.activity == "Closing":
                assert cls in ("car", "truck")
            else:
                assert cls == "bicycle"

    def test_noise_free_linkers_reconstruct_tracks(self):
        corpus = generate(small(seed=6))
        for link in (linking.greedy_link, linking.track_link):
            tubes = []
            for v in sorted(corpus.detections):
                out, _ = link(corpus.detections[v])
                tubes.extend(out)
            assert len(tubes) == len(corpus.ground_truth)
            gt_by_key = {(g.video_id, tuple(g.boxes[0])): g for g in corpus.ground_truth}
            for t in tubes:
                g = gt_by_key[(t.video_id, tuple(t.boxes[0]))]
                assert t.extent == g.extent
                assert np.array_equal(t.boxes, g.boxes)


class TestWriteCorpus:
    def test_manifest_records_rng_and_config(self, tmp_path):
        paths = write_corpus(generate(small(seed=7)), tmp_path / "c")
        manifest = json.loads(Path(paths["manifest"]).read_text())
        assert "PCG64" in manifest["rng"]
        assert manifest["config"]["seed"] == 7
        assert manifest["counts"]["videos"] == 2
