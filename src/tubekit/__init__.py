"""tubekit: spatio-temporal activity detection pipeline toolkit.

Converts per-frame object detections into linked tubelets, multi-scale
temporal proposals and scored activity instances, and evaluates them with
recall@IoU and miss-rate-vs-false-alarm (DET) metrics.
"""

__version__ = "0.1.0"

from .geometry import Box, Interval, spatial_iou, temporal_iou  # noqa: F401
