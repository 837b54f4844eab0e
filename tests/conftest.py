import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))

from tubekit.geometry import Interval
from tubekit.linking import Tubelet
from tubekit.refinement import Proposal


def box_rows(box, n):
    """An (n,4) track array repeating one (x1, y1, x2, y2) box."""
    return np.tile(np.asarray(box, dtype=np.float64), (n, 1))


def make_tubelet(boxes, start=0, tubelet_id=0, video_id="v0", object_class="person"):
    """A tubelet whose row k of `boxes` is frame start + k; scores 0.9, all detected."""
    n = len(boxes)
    return Tubelet(tubelet_id, video_id, object_class, Interval(start, start + n),
                   np.asarray(boxes, dtype=np.float64), np.full(n, 0.9), np.zeros(n, dtype=np.int8))


def make_proposal(window, boxes=None, proposal_id=0, tubelet_id=0, video_id="v0",
                  object_class="person", scores=None, sample_count=8):
    """A proposal over its own tubelet spanning exactly `window`; boxes default
    to (0, 0, 10, 10) on every frame."""
    if boxes is None:
        boxes = box_rows((0, 0, 10, 10), window.length)
    tubelet = make_tubelet(boxes, window.start, tubelet_id, video_id, object_class)
    return Proposal(proposal_id, tubelet, window, sample_count, scores)


@pytest.fixture
def frame_size():
    """(width, height) of the frame the refinement tests clamp to."""
    return 1280.0, 720.0
