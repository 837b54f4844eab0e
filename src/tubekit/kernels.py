"""Numeric hot kernels: pairwise IoU matrices and per-frame IoU reductions,
vectorised with numpy."""

import numpy as np

# There is no compiled backend; the pipeline benchmark records this flag.
NUMBA_ENABLED = False


def iou_matrix(a, b):
    """Pairwise spatial IoU of two (n,4)/(m,4) float64 xyxy box arrays -> (n,m)."""
    ax1, ay1, ax2, ay2 = a[:, 0], a[:, 1], a[:, 2], a[:, 3]
    bx1, by1, bx2, by2 = b[:, 0], b[:, 1], b[:, 2], b[:, 3]
    iw = np.minimum(ax2[:, None], bx2[None, :]) - np.maximum(ax1[:, None], bx1[None, :])
    ih = np.minimum(ay2[:, None], by2[None, :]) - np.maximum(ay1[:, None], by1[None, :])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (ax2 - ax1) * (ay2 - ay1)
    area_b = (bx2 - bx1) * (by2 - by1)
    union = area_a[:, None] + area_b[None, :] - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def paired_iou(a, b):
    """Elementwise spatial IoU of two equally-shaped (n,4) float64 box arrays -> (n,)."""
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    iw = np.minimum(a[:, 2], b[:, 2]) - np.maximum(a[:, 0], b[:, 0])
    ih = np.minimum(a[:, 3], b[:, 3]) - np.maximum(a[:, 1], b[:, 1])
    inter = np.maximum(iw, 0.0) * np.maximum(ih, 0.0)
    area_a = (a[:, 2] - a[:, 0]) * (a[:, 3] - a[:, 1])
    area_b = (b[:, 2] - b[:, 0]) * (b[:, 3] - b[:, 1])
    union = area_a + area_b - inter
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out


def temporal_iou_matrix(a, b):
    """Pairwise temporal IoU of two (n,2)/(m,2) float64 half-open interval arrays."""
    inter = np.minimum(a[:, 1, None], b[None, :, 1]) - np.maximum(a[:, 0, None], b[None, :, 0])
    union = np.maximum(a[:, 1, None], b[None, :, 1]) - np.minimum(a[:, 0, None], b[None, :, 0])
    inter = np.clip(inter, 0.0, None)
    out = np.zeros_like(inter)
    np.divide(inter, union, out=out, where=union > 0.0)
    return out
