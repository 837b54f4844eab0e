"""Seeded synthetic surveillance-scene generator.

Objects move on piecewise-linear, bounded-speed trajectories inside
non-overlapping horizontal lanes (one object per lane, so noise-free linking
must recover the exact track partition). Detections are the true boxes
corrupted by dropout, coordinate jitter, score noise and injected false
positives. Fully deterministic: video v uses numpy's default_rng seeded with
``seed + v``.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, field

import numpy as np

from .data_model import (
    ACTIVITY_CLASSES,
    DETECTION_CLASSES,
    OBJECT_CLASSES,
    VEHICLE_ACTIVITIES,
    ActivityInstance,
    VideoMeta,
    detection_columns,
    write_detections,
    write_instances,
    write_video_meta,
)
from .errors import InvalidInputError
from .geometry import Interval

RNG_ALGORITHM = "numpy.random.default_rng (PCG64); per-video child seed = seed + video_index"


@dataclass(frozen=True)
class SceneConfig:
    seed: int = 0
    video_count: int = 10
    frames_per_video: int = 200
    objects_per_video: tuple = (3, 6)  # inclusive range
    activity_mix: dict = None  # activity -> probability; None = uniform
    dropout_rate: float = 0.0
    box_jitter_px: float = 0.0
    false_positive_rate: float = 0.0  # expected injected boxes per frame
    score_noise: float = 0.0
    frame_width: float = 1280.0
    frame_height: float = 720.0
    frame_rate: float = 30.0

    def __post_init__(self):
        if self.seed < 0:
            raise InvalidInputError(f"seed must be >= 0: {self.seed}")
        if self.video_count < 1 or self.frames_per_video < 1:
            raise InvalidInputError("video_count and frames_per_video must be positive")
        lo, hi = self.objects_per_video
        if lo < 1 or hi < lo:
            raise InvalidInputError(f"bad objects_per_video range: {self.objects_per_video}")
        if not 0.0 <= self.dropout_rate <= 1.0:
            raise InvalidInputError(f"dropout_rate out of [0,1]: {self.dropout_rate}")
        if self.box_jitter_px < 0 or self.false_positive_rate < 0 or self.score_noise < 0:
            raise InvalidInputError("noise magnitudes must be >= 0")
        if not math.isfinite(2.0 * self.box_jitter_px):  # the width of its uniform draw
            raise InvalidInputError(f"synth.box_jitter_px must be finite when doubled: {self.box_jitter_px}")
        if self.frame_rate <= 0.0:
            raise InvalidInputError(f"synth.frame_rate must be positive: {self.frame_rate}")
        for key in ("frame_width", "frame_height"):
            if getattr(self, key) < 0.0:
                raise InvalidInputError(f"synth.{key} must be >= 0: {getattr(self, key)}")
        if self.activity_mix is not None:
            for act, p in self.activity_mix.items():
                if act not in ACTIVITY_CLASSES:
                    raise InvalidInputError(f"unknown activity in mix: {act!r}")
                if not 0.0 <= p <= 1.0:
                    raise InvalidInputError(f"mix probability out of [0,1]: {act}={p}")
            total = sum(self.activity_mix.values())
            if abs(total - 1.0) > 1e-9:
                raise InvalidInputError(f"activity_mix must sum to 1, got {total}")

    def mix_items(self):
        if self.activity_mix is None:
            p = 1.0 / len(ACTIVITY_CLASSES)
            return [(a, p) for a in ACTIVITY_CLASSES]
        return sorted(self.activity_mix.items())


@dataclass
class SynthCorpus:
    detections: dict  # video_id -> VideoDetections
    ground_truth: list
    metas: dict  # video_id -> VideoMeta
    manifest: dict = field(default_factory=dict)


def _trajectory(rng, config, lane_center_y, half_w, frames):
    """Piecewise-linear x-motion with reflection at the frame walls."""
    margin = half_w + 2.0
    lo, hi = margin, max(margin, config.frame_width - margin)  # a frame narrower than the box pins it
    x = rng.uniform(lo, hi)
    speed = rng.uniform(3.0, 6.0)
    direction = 1.0 if rng.random() < 0.5 else -1.0
    # head toward the farther wall and cap the speed so the walk stays in
    # bounds for the whole video; reflection below is only a safety net
    if (hi - x if direction > 0 else x - lo) < (hi - lo) / 2:
        direction = -direction
    room = hi - x if direction > 0 else x - lo
    if frames > 1:
        speed = min(speed, room / (frames - 1))
    centers = []
    for _ in range(frames):
        centers.append((x, lane_center_y))
        x += direction * speed
        if x < lo:
            x = 2 * lo - x
            direction = 1.0
        elif x > hi:
            x = 2 * hi - x
            direction = -1.0
    return centers


def generate(config: SceneConfig) -> SynthCorpus:
    activities, probs = zip(*config.mix_items())
    probs = np.asarray(probs, dtype=np.float64)
    probs = probs / probs.sum()

    detections = {}
    ground_truth = []
    metas = {}

    for v in range(config.video_count):
        rng = np.random.default_rng(config.seed + v)
        video_id = f"synth_{v:04d}"
        metas[video_id] = VideoMeta(
            video_id=video_id,
            frame_count=config.frames_per_video,
            frame_rate=config.frame_rate,
            width=config.frame_width,
            height=config.frame_height,
        )
        rows = []  # (frame, x1, y1, x2, y2, score, class code), in draw order
        lo, hi = config.objects_per_video
        n_objects = int(rng.integers(lo, hi + 1))
        lane_h = config.frame_height / n_objects

        for obj in range(n_objects):
            activity = activities[int(rng.choice(len(activities), p=probs))]
            if activity in VEHICLE_ACTIVITIES:
                object_class = "car" if rng.random() < 0.5 else "truck"
                w = rng.uniform(56.0, 84.0)
                h = min(rng.uniform(32.0, 48.0), 0.8 * lane_h)
            else:
                object_class = "bicycle" if activity == "Riding" else "person"
                w = rng.uniform(28.0, 40.0)
                h = min(rng.uniform(44.0, 64.0), 0.8 * lane_h)
            lane_center_y = (obj + 0.5) * lane_h
            centers = _trajectory(rng, config, lane_center_y, 0.5 * w, config.frames_per_video)

            boxes = [(cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h) for cx, cy in centers]
            ground_truth.append(
                ActivityInstance(
                    video_id=video_id,
                    activity=activity,
                    extent=Interval(0, config.frames_per_video),
                    boxes=np.array(boxes, dtype=np.float64),
                    confidence=1.0,
                )
            )

            for f in range(config.frames_per_video):
                if config.dropout_rate > 0.0 and rng.random() < config.dropout_rate:
                    continue
                b = boxes[f]
                if config.box_jitter_px > 0.0:
                    j = config.box_jitter_px
                    x1, y1, x2, y2 = (v + d for v, d in zip(b, rng.uniform(-j, j, 4).tolist()))  # in draw order
                    b = (min(x1, x2), min(y1, y2), max(x1, x2), max(y1, y2))  # jitter past half the box flips it
                score = 0.9
                if config.score_noise > 0.0:
                    score = min(max(0.9 + rng.normal(0.0, config.score_noise), 0.05), 1.0)
                rows.append((f, *b, score, DETECTION_CLASSES.index(object_class)))

        if config.false_positive_rate > 0.0:
            for f in range(config.frames_per_video):
                for _ in range(int(rng.poisson(config.false_positive_rate))):
                    w = rng.uniform(20.0, 60.0)
                    h = rng.uniform(20.0, 60.0)
                    cx = rng.uniform(0.5 * w, max(0.5 * w, config.frame_width - 0.5 * w))
                    cy = rng.uniform(0.5 * h, max(0.5 * h, config.frame_height - 0.5 * h))
                    box = (cx - 0.5 * w, cy - 0.5 * h, cx + 0.5 * w, cy + 0.5 * h)
                    object_class = OBJECT_CLASSES[int(rng.integers(len(OBJECT_CLASSES)))]
                    rows.append((f, *box, float(rng.uniform(0.05, 0.5)), DETECTION_CLASSES.index(object_class)))
        if rows:
            detections[video_id] = detection_columns(video_id, rows)

    manifest = {
        "rng": RNG_ALGORITHM,
        "config": asdict(config),
        "counts": {
            "videos": config.video_count,
            "instances": len(ground_truth),
            "detections": sum(map(len, detections.values())),
        },
    }
    return SynthCorpus(detections, ground_truth, metas, manifest)


def write_corpus(corpus: SynthCorpus, out_dir):
    os.makedirs(out_dir, exist_ok=True)
    paths = {
        "detections": os.path.join(out_dir, "detections.jsonl"),
        "ground_truth": os.path.join(out_dir, "ground_truth.jsonl"),
        "video_meta": os.path.join(out_dir, "video_meta.jsonl"),
        "manifest": os.path.join(out_dir, "corpus_manifest.json"),
    }
    write_detections(corpus.detections.values(), paths["detections"])
    write_instances(corpus.ground_truth, paths["ground_truth"])
    write_video_meta(corpus.metas.values(), paths["video_meta"])
    with open(paths["manifest"], "w", encoding="utf-8") as fh:
        json.dump(corpus.manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return paths
