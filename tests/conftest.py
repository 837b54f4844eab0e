import itertools
import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tubekit.data_model import DETECTION_CLASSES, write_jsonl
from tubekit.geometry import Interval
from tubekit.linking import LinkedTubelets, Track, VideoTubelets
from tubekit.refinement import TubeletProposals, score_matrix


def box_rows(box, n):
    """An (n,4) track array repeating one (x1, y1, x2, y2) box."""
    return np.tile(np.asarray(box, dtype=np.float64), (n, 1))


def make_tubelet(boxes, start=0, tubelet_id=0, video_id="v0", object_class="person"):
    """A tubelet (a `Track`) whose row k of `boxes` is frame start + k."""
    return Track(tubelet_id, video_id, object_class, Interval(start, start + len(boxes)), boxes)


def linked(tubelets):
    """`Track`s as a `LinkedTubelets`, one column table per run of one
    video's tubelets, in list order and with their own ids."""
    tables = []
    for video_id, run in itertools.groupby(tubelets, key=lambda t: t.video_id):
        run = list(run)
        lengths = np.array([t.extent.length for t in run], dtype=np.int64)
        tables.append(VideoTubelets(
            video_id, np.array([t.extent.start for t in run], dtype=np.int64), lengths,
            np.array([DETECTION_CLASSES.index(t.object_class) for t in run], dtype=np.int64),
            np.cumsum(lengths) - lengths, np.concatenate([t.boxes for t in run]),
            np.array([t.id for t in run], dtype=np.int64)))
    return LinkedTubelets(tables)


def tubelet_line(t):
    """The tubelets.jsonl line of one tubelet `Track`, as `linking.write_tubelets`
    formats it from a table's columns."""
    (line,) = linked([t]).lines()
    return line


def write_tubelet_list(tubelets, path):
    """Write tubelet `Track`s as a tubelets file: one `tubelet_line` each, in
    (video_id, id) order, as `linking.write_tubelets` writes a linker's table."""
    write_jsonl(map(tubelet_line, sorted(tubelets, key=lambda t: (t.video_id, t.id))), path)


def make_proposal(window, boxes=None, proposal_id=0, tubelet_id=0, video_id="v0",
                  object_class="person", scores=None):
    """A `TubeletProposals` line of one proposal over its own tubelet spanning
    exactly `window`, scored by the dict `scores` unless it is None; boxes
    default to (0, 0, 10, 10) on every frame. Index it for the proposal's
    `Track`."""
    if boxes is None:
        boxes = box_rows((0, 0, 10, 10), window.length)
    tubelet = make_tubelet(boxes, window.start, tubelet_id, video_id, object_class)
    return TubeletProposals(tubelet, np.array([proposal_id], dtype=np.int64),
                            np.array([[window.start, window.length]], dtype=np.int64),
                            None if scores is None else score_matrix([scores]))


@pytest.fixture
def frame_size():
    """(width, height) of the frame the refinement tests clamp to."""
    return 1280.0, 720.0
