"""Glyph rendering: tabular features drawn as symbols inside hybrid images.

Three glyphs per subject, always in this order: a pentagon whose radius
encodes left-hemisphere lesion size, a pie slice of fixed size whose
intensity encodes recovery time, and a severity symbol whose shape comes
from the fixed table ``SEVERITY_SYMBOLS`` (one shape per category).
Hybrid stitched images draw the glyphs into three freed slice cells
(``glyph_cell_boxes``), hybrid ROI images into a strip below the tiles
(``glyph_strip_boxes``).

The glyph geometry follows from the boxes alone.  With ``m`` the smallest
side of the three boxes, the pentagon radius runs from ``max(1, 0.10 m)``
to ``0.45 m`` as lesion size goes from 0 to ``size_ref``, the pie radius is
``0.32 m`` and its intensity runs from 0.25 to 1.0 as recovery time goes
from 0 to ``time_ref``; values at or above a reference saturate.  Every
glyph therefore fits its box; boxes under 6 px are refused.  Only the
train-only normalizers ``(size_ref, time_ref)`` are passed in.
Rasterization is plain pixel-center containment, no anti-aliasing, so
identical inputs give bit-identical rasters.  Only the pentagon depends on
the subject's values beyond a fill intensity: each box size's pixel-centre
grid and the masks of the pie and of the five severity symbols are
computed once per box geometry and kept read-only, so a subject's render
draws its pentagon and fills the cached masks.
"""

from __future__ import annotations

import functools
from typing import Sequence

import numpy as np

from .core import SubjectRecord, Volume3D
from .imaging import (
    LayoutError,
    PixelMap,
    RoiImageSpec,
    StitchSpec,
    downsample,
    roi_image,
    stitch,
)

# moderate/normal/unknown symbols follow the source convention; severe and
# mild are our own picks (only three of the five shapes are prescribed).
SEVERITY_SYMBOLS = {
    "severe": "square",
    "moderate": "triangle",
    "mild": "cross",
    "normal": "ellipse",
    "unknown": "star",
}

# glyph box = (row0, col0, height, width) on the host canvas
Box = tuple[int, int, int, int]


class GlyphOverlapError(ValueError):
    pass


def normalizers_from_records(records: Sequence[SubjectRecord]) -> tuple[float, float]:
    """(size_ref, time_ref) as 99th percentiles of the given records.

    Call with training-group records only; lock-box subjects must not shape
    the encoding.
    """
    if not records:
        raise ValueError("no records")
    sizes = np.array([r.left_lesion_size for r in records], dtype=np.float64)
    times = np.array([r.recovery_time for r in records], dtype=np.float64)
    size_ref = float(np.percentile(sizes, 99))
    time_ref = float(np.percentile(times, 99))
    # degenerate cohorts (all zeros) still need a usable scale
    return max(size_ref, 1e-9), max(time_ref, 1e-9)


# ---------------------------------------------------------------------------
# Rasterizer.  A shape is a predicate on pixel centers (col+0.5, row+0.5):
# ``inside(px, py, cx, cy, radius)`` with (cx, cy) the cell center.


@functools.lru_cache(maxsize=16)
def _pixel_centers(h: int, w: int):
    """(px, py) centres of an (h, w) box's pixels as a (1, w) row and an
    (h, 1) column that broadcast to the grid, cached read-only."""
    ys, xs = np.ogrid[0:h, 0:w]
    px, py = xs + 0.5, ys + 0.5
    px.flags.writeable = py.flags.writeable = False
    return px, py


def _in_polygon(px, py, verts: np.ndarray) -> np.ndarray:
    """Even-odd rule; handles convex and star polygons alike."""
    inside = np.zeros(np.broadcast_shapes(px.shape, py.shape), dtype=bool)
    n = len(verts)
    for i in range(n):
        x0, y0 = verts[i]
        x1, y1 = verts[(i + 1) % n]
        if y1 == y0:
            continue
        crosses = (y0 <= py) != (y1 <= py)
        xint = x0 + (py - y0) / (y1 - y0) * (x1 - x0)
        inside ^= crosses & (px < xint)
    return inside


def _regular_verts(cx: float, cy: float, radius: float, n: int,
                   start_angle: float = -np.pi / 2) -> np.ndarray:
    angles = start_angle + 2 * np.pi * np.arange(n) / n
    return np.stack([cx + radius * np.cos(angles),
                     cy + radius * np.sin(angles)], axis=1)


def _in_star(px, py, cx, cy, radius):
    verts = np.empty((10, 2))
    verts[0::2] = _regular_verts(cx, cy, radius, 5)
    verts[1::2] = _regular_verts(cx, cy, 0.45 * radius, 5,
                                 start_angle=-np.pi / 2 + np.pi / 5)
    return _in_polygon(px, py, verts)


def _in_cross(px, py, cx, cy, radius):
    dx, dy = np.abs(px - cx), np.abs(py - cy)
    arm = 0.24 * radius
    return ((dx <= arm) & (dy <= radius)) | ((dy <= arm) & (dx <= radius))


def _in_pie(px, py, cx, cy, radius):
    """120-degree sector opening from straight-up to lower-right."""
    dx, dy = px - cx, py - cy
    ang = np.arctan2(dy, dx)
    return ((dx * dx + dy * dy <= radius * radius)
            & (ang >= -np.pi / 2) & (ang < np.pi / 6))


_INSIDE = {
    "pentagon": lambda px, py, cx, cy, r: _in_polygon(
        px, py, _regular_verts(cx, cy, r, 5)),
    "pie": _in_pie,
    "square": lambda px, py, cx, cy, r: ((np.abs(px - cx) <= 0.72 * r)
                                         & (np.abs(py - cy) <= 0.72 * r)),
    "triangle": lambda px, py, cx, cy, r: _in_polygon(
        px, py, _regular_verts(cx, cy, r, 3)),
    "cross": _in_cross,
    "ellipse": lambda px, py, cx, cy, r: (
        ((px - cx) / r) ** 2 + ((py - cy) / (0.55 * r)) ** 2 <= 1.0),
    "star": _in_star,
}


def _shape_mask(shape: str, h: int, w: int, radius: float) -> np.ndarray:
    """(h, w) bool: the pixels whose centres lie inside ``shape`` centred in
    the box; no anti-aliasing."""
    px, py = _pixel_centers(h, w)
    return _INSIDE[shape](px, py, w / 2, h / 2, radius)


@functools.lru_cache(maxsize=64)
def _fixed_mask(shape: str, h: int, w: int, radius: float) -> np.ndarray:
    """``_shape_mask`` of a glyph whose size follows from its boxes alone
    (the pie, the severity symbols), cached read-only per geometry."""
    mask = _shape_mask(shape, h, w, radius)
    mask.flags.writeable = False
    return mask


def _clamp01(v: float) -> float:
    return min(1.0, max(0.0, v))


def render_glyphs(record: SubjectRecord, size_ref: float, time_ref: float,
                  canvas: np.ndarray, boxes: Sequence[Box]) -> np.ndarray:
    """Draw the three glyphs into the given canvas boxes (pentagon, pie,
    severity, in that order), sized from the smallest box side.  Draws in
    place and returns ``canvas``; boxes must be empty."""
    if len(boxes) != 3:
        raise ValueError(f"need 3 glyph boxes, got {len(boxes)}")
    m = min(min(bh, bw) for (_r, _c, bh, bw) in boxes)
    r_min, r_max = max(1.0, 0.10 * m), 0.45 * m
    radius = r_min + (r_max - r_min) * _clamp01(record.left_lesion_size / size_ref)
    intensity = 0.25 + 0.75 * _clamp01(record.recovery_time / time_ref)
    (_, _, ph, pw), (_, _, qh, qw), (_, _, sh, sw) = boxes
    fills = ((_shape_mask("pentagon", ph, pw, radius), 1.0),
             (_fixed_mask("pie", qh, qw, 0.32 * m), intensity),
             (_fixed_mask(SEVERITY_SYMBOLS[record.severity], sh, sw,
                          0.38 * min(sh, sw)), 1.0))
    for box, (mask, value) in zip(boxes, fills):
        r0, c0, bh, bw = box
        region = canvas[r0:r0 + bh, c0:c0 + bw]
        if np.any(region != 0.0):
            raise GlyphOverlapError(f"placement box {box} is not empty")
        region[mask] = np.float32(value)
    return canvas


# ---------------------------------------------------------------------------
# Hybrid image builders


def hybrid_stitched(volume: Volume3D, stitch_spec: StitchSpec,
                    boxes: Sequence[Box], record: SubjectRecord,
                    size_ref: float, time_ref: float,
                    target: tuple[int, int]) -> np.ndarray:
    """Stitched image with the 4 most-dorsal slices dropped and glyphs in
    ``boxes``, area-average downsampled to ``target`` (w, h)."""
    base = stitch(volume, stitch_spec)
    return downsample(render_glyphs(record, size_ref, time_ref, base, boxes),
                      *target)


def glyph_cell_boxes(stitch_spec: StitchSpec) -> list[Box]:
    """The cells of the first three of the 4 most-dorsal slices, which the
    spec must have removed; the fourth stays blank."""
    n = stitch_spec.dims[2]
    if n < 4:
        raise LayoutError("need at least 4 slices to free glyph cells")
    dorsal = tuple(range(n - 4, n))
    if tuple(sorted(stitch_spec.removed_cells)) != dorsal:
        raise LayoutError(
            f"removed_cells must be the 4 most-dorsal slice cells {dorsal}, "
            f"got {tuple(sorted(stitch_spec.removed_cells))}")
    ny, nx = stitch_spec.slice_shape
    return _drawable([(*stitch_spec.cell_origin(c), ny, nx)
                      for c in dorsal[:3]])


def glyph_strip_boxes(roi_spec: RoiImageSpec) -> list[Box]:
    """Three equal-width boxes across the canvas's reserved bottom strip."""
    if roi_spec.reserved_bottom <= 0:
        raise LayoutError("roi_spec must reserve a bottom strip for glyphs")
    canvas_h, canvas_w = roi_spec.canvas
    strip_h = roi_spec.reserved_bottom
    bw = canvas_w // 3
    r0 = canvas_h - strip_h
    return _drawable([(r0, i * bw, strip_h, bw) for i in range(3)])


def _drawable(boxes: list[Box]) -> list[Box]:
    """``boxes``, refused if their smallest side is under 6 px."""
    m = min(min(bh, bw) for (_r, _c, bh, bw) in boxes)
    if m < 6:
        raise LayoutError(f"glyph boxes of {m}px are too small to draw into")
    return boxes


def hybrid_roi(volume: Volume3D, pmap: PixelMap, boxes: Sequence[Box],
               record: SubjectRecord, size_ref: float, time_ref: float,
               target: tuple[int, int]) -> np.ndarray:
    """ROI tile image plus the three glyphs in ``boxes``, area-average
    downsampled to ``target`` (w, h)."""
    base = roi_image(volume, pmap)
    return downsample(render_glyphs(record, size_ref, time_ref, base, boxes),
                      *target)
