"""2D image construction from volumes: stitching, ROI tiles, downsampling.

Layout convention, shared by every routine here: an axial slice at depth z is
drawn with image row = voxel y and image column = voxel x, and slices fill
grid cells row-major in ascending-z order.  A stitched image shows every
axial slice, so a ``StitchSpec`` is only the volume dims and the freed
cells, and the grid follows from the depth: slice z fills flat cell z
(row-major, 0-based), and cells in ``removed_cells`` stay at zero so glyph
symbols can be drawn there later.  Every image is an (h, w) float32 array
in [0, 1]: renders copy ``Volume3D`` intensities, which are float32 in
[0, 1], and ``downsample`` clips.

ROI tiles are laid out ``TILE_GAP`` apart by one shelf packer,
``shelf_pack``: ``pipeline.fit_roi_spec`` sizes a canvas with it, and the
tile plan places its tiles with it at the canvas width, refusing a canvas
they overflow.  The variant's layout compiles its tile plan over the atlas,
once, into a ``PixelMap``: the flat voxel index each canvas pixel shows.
An ROI render takes only that map, which holds its canvas, and is a single
gather from the volume.  Neither step scans the atlas: ``roi_crops`` looks
the crops up in the atlas's ``crop_table`` and the map is built from its
voxel index (``LabelVolume.voxels_of``), both computed once per atlas.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import LabelVolume, Volume3D

TILE_GAP = 1  # pixels between ROI tiles


class LayoutError(ValueError):
    pass


@dataclass(frozen=True)
class StitchSpec:
    """Grid layout for stitching every axial slice of a ``dims`` volume."""

    dims: tuple[int, int, int]  # (nx, ny, nz) of the stitched volumes
    removed_cells: tuple[int, ...] = ()  # flat cell indices freed for glyphs

    def __post_init__(self):
        for cell in self.removed_cells:
            if not 0 <= cell < self.dims[2]:
                raise LayoutError(f"removed cell {cell} outside grid")

    @functools.cached_property
    def grid(self) -> tuple[int, int]:
        """(rows, cols): the squarest exact factorization of the depth."""
        nz = self.dims[2]
        rows = max(1, int(math.sqrt(nz)))
        while nz % rows:
            rows -= 1
        return rows, nz // rows

    @property
    def slice_shape(self) -> tuple[int, int]:
        """(ny, nx): cell height, cell width."""
        nx, ny, _ = self.dims
        return ny, nx

    @property
    def image_shape(self) -> tuple[int, int]:
        rows, cols = self.grid
        ny, nx = self.slice_shape
        return rows * ny, cols * nx

    def cell_origin(self, cell: int) -> tuple[int, int]:
        rows, cols = self.grid
        ny, nx = self.slice_shape
        r, c = divmod(cell, cols)
        return r * ny, c * nx


def _stitch_slices(data: np.ndarray, spec: StitchSpec, dtype) -> np.ndarray:
    """(h, w) grid of the axial slices of a ``data[x, y, z]`` array; the
    removed cells stay zero."""
    out = np.zeros(spec.image_shape, dtype=dtype)
    ny, nx = spec.slice_shape
    removed = set(spec.removed_cells)
    for z in range(spec.dims[2]):
        if z in removed:
            continue
        r0, c0 = spec.cell_origin(z)
        out[r0:r0 + ny, c0:c0 + nx] = data[:, :, z].T
    return out


def stitch(volume: Volume3D, spec: StitchSpec) -> np.ndarray:
    """Stitch every axial slice into a grid image."""
    if volume.dims != spec.dims:
        raise LayoutError(f"volume dims {volume.dims} != spec dims {spec.dims}")
    return _stitch_slices(volume.data, spec, np.float32)


@functools.lru_cache(maxsize=32)
def _pool_weights(src: int, dst: int) -> np.ndarray:
    """(dst, src) area-overlap weights; each output row sums to 1.

    Cached per (src, dst) and returned read-only.
    """
    if dst > src:
        raise ValueError(f"target {dst} exceeds source {src}")
    if dst <= 0:
        raise ValueError("target dims must be positive")
    weights = np.zeros((dst, src), dtype=np.float64)
    scale = src / dst
    for i in range(dst):
        lo, hi = i * scale, (i + 1) * scale
        for r in range(int(np.floor(lo)), min(src, int(np.ceil(hi)))):
            weights[i, r] = min(hi, r + 1) - max(lo, r)
    weights /= scale
    weights.flags.writeable = False
    return weights


def downsample(pixels: np.ndarray, target_w: int,
               target_h: int) -> np.ndarray:
    """Area-average pooling of an (h, w) image to (target_h, target_w)."""
    wr = _pool_weights(pixels.shape[0], target_h)
    wc = _pool_weights(pixels.shape[1], target_w)
    out = wr @ pixels.astype(np.float64) @ wc.T
    return np.clip(out, 0.0, 1.0).astype(np.float32)


# ---------------------------------------------------------------------------
# ROI images


@dataclass(frozen=True)
class RoiImageSpec:
    """Tile layout for ROI images.

    ``roi_labels`` is in importance-rank order; tiles are emitted per ROI in
    that order, per slice ascending in z, and shelf-packed left-to-right,
    top-to-bottom with ``TILE_GAP`` pixels of separation.  ``reserved_bottom``
    rows at the canvas bottom are kept free (glyph strip for hybrid images).
    """

    roi_labels: tuple[int, ...]
    canvas: tuple[int, int]  # (height, width)
    reserved_bottom: int = 0

    def __post_init__(self):
        if len(set(self.roi_labels)) != len(self.roi_labels):
            raise LayoutError("roi_labels must be distinct")
        if self.reserved_bottom >= self.canvas[0]:
            raise LayoutError("reserved strip swallows the whole canvas")


@dataclass(frozen=True)
class PixelMap:
    """Which voxel each pixel of an ROI image's ``canvas`` displays.

    ``voxels`` are flat indices into ``data.ravel()`` of a ``data[x, y, z]``
    volume of ``dims``, shown at the flat canvas positions ``shown``; every
    other pixel is blank.
    """

    dims: tuple[int, int, int]
    canvas: tuple[int, int]  # (height, width)
    shown: np.ndarray
    voxels: np.ndarray

    @classmethod
    def compile(cls, plan: RoiTilePlan, atlas: LabelVolume) -> "PixelMap":
        """The map of ``plan``'s tiles over ``atlas``'s labels: each tile
        shows the voxels of its label on its slice that lie inside its
        rectangle (background tiles show nothing).  Built label by label
        from the atlas's voxel index; the tiles must not overlap, and no
        packed plan's do."""
        _, ny, nz = atlas.dims
        canvas_h, canvas_w = plan.spec.canvas
        flat = np.full(canvas_h * canvas_w, -1, dtype=atlas.label_voxels.dtype)
        by_label: dict[int, list] = {}
        for tile in plan.tiles:
            by_label.setdefault(tile[0], []).append(tile)
        for label, tiles in by_label.items():
            # per slice: the tile's voxel box and the offset from voxel (x, y)
            # to its pixel (tile row = voxel y, tile column = voxel x); a
            # slice without a tile has an empty box
            box = np.zeros((5, nz), dtype=np.int64)
            _, z, x0, x1, y0, y1, row0, col0 = np.array(tiles).T
            box[:, z] = x0, x1, y0, y1, (row0 - y0) * canvas_w + col0 - x0
            voxels = atlas.voxels_of(label)
            x, rest = np.divmod(voxels, ny * nz)
            y, z = np.divmod(rest, nz)
            x0, x1, y0, y1, offset = box.take(z, axis=1)
            inside = (x0 <= x) & (x < x1) & (y0 <= y) & (y < y1)
            flat[(offset + y * canvas_w + x)[inside]] = voxels[inside]
        shown = np.flatnonzero(flat >= 0)
        voxels = flat[shown]
        for arr in (shown, voxels):
            arr.flags.writeable = False
        return cls(dims=atlas.dims, canvas=plan.spec.canvas, shown=shown,
                   voxels=voxels)


@dataclass(frozen=True)
class RoiTilePlan:
    """Precomputed tile geometry for one (atlas, spec) pair."""

    spec: RoiImageSpec
    # per tile: (label, z, x0, x1, y0, y1, row0, col0)
    tiles: tuple[tuple[int, int, int, int, int, int, int, int], ...]


def plan_roi_tiles(atlas: LabelVolume, spec: RoiImageSpec) -> RoiTilePlan:
    """Shelf-pack every (ROI, slice) crop at the width of the canvas; a
    canvas that the tiles (plus the reserved strip) overflow is refused.

    The layout depends only on the atlas and spec, so one plan serves a whole
    cohort sharing the atlas.
    """
    crops = roi_crops(atlas, spec.roi_labels)
    cropped = {c[0] for c in crops}
    for label in spec.roi_labels:
        if label not in atlas.label_names or label not in cropped:
            raise LayoutError(f"ROI {label} absent or empty in atlas")
    canvas_h, canvas_w = spec.canvas
    widest = max((x1 - x0 for _, _, x0, x1, _, _ in crops), default=0)
    origins, packed_h = shelf_pack(crops, canvas_w)
    if packed_h + spec.reserved_bottom > canvas_h or widest > canvas_w:
        raise LayoutError(
            f"ROI tiles packed {canvas_w} px wide take {packed_h} rows plus "
            f"{spec.reserved_bottom} reserved, and the widest is {widest} px; "
            f"the canvas is {canvas_h}x{canvas_w}")
    tiles = tuple(crop + origin for crop, origin in zip(crops, origins))
    return RoiTilePlan(spec=spec, tiles=tiles)


def shelf_pack(crops, width: int) -> tuple[list[tuple[int, int]], int]:
    """Shelf-pack (label, z, x0, x1, y0, y1) crops in order, left to right
    and top to bottom, ``TILE_GAP`` pixels apart, on a canvas ``width``
    pixels wide.  Returns each tile's (row0, col0) and the packed height."""
    origins = []
    cur_row, cur_col, shelf_h = 0, 0, 0
    for (_, _, x0, x1, y0, y1) in crops:
        th, tw = y1 - y0, x1 - x0
        if cur_col + tw > width:
            cur_row += shelf_h + TILE_GAP
            cur_col, shelf_h = 0, 0
        origins.append((cur_row, cur_col))
        cur_col += tw + TILE_GAP
        shelf_h = max(shelf_h, th)
    return origins, cur_row + shelf_h


def roi_crops(atlas: LabelVolume,
              labels) -> list[tuple[int, int, int, int, int, int]]:
    """(label, z, x0, x1, y0, y1): the bounding box of each ROI on every
    axial slice it occupies, per label in the given order, z ascending;
    looked up in the atlas's ``crop_table``."""
    table = atlas.crop_table
    return [crop for label in labels for crop in table.get(label, ())]


def roi_image(volume: Volume3D, pmap: PixelMap) -> np.ndarray:
    """Render ROI crops (non-ROI pixels zeroed) onto the map's canvas."""
    if volume.dims != pmap.dims:
        raise LayoutError(f"volume dims {volume.dims} != atlas dims {pmap.dims}")
    canvas_h, canvas_w = pmap.canvas
    pixels = np.zeros(canvas_h * canvas_w, dtype=np.float32)
    pixels[pmap.shown] = volume.data.ravel()[pmap.voxels]
    return pixels.reshape(canvas_h, canvas_w)


def stitched_label_image(atlas: LabelVolume, spec: StitchSpec) -> np.ndarray:
    """(h, w) uint16 atlas labels in stitched-image space (0 = unmapped)."""
    return _stitch_slices(atlas.labels, spec, np.uint16)
