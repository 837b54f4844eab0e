"""tubekit: spatio-temporal activity detection pipeline toolkit.

Converts per-frame object detections into linked tubelets, multi-scale
temporal proposals and scored activity instances, and evaluates them with
recall@IoU and miss-rate-vs-false-alarm (DET) metrics.
"""

__version__ = "0.1.0"

from .geometry import Interval, temporal_iou  # noqa: F401
