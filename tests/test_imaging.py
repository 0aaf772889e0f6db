import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokepred import imaging
from strokepred.core import LabelVolume, Volume3D
from strokepred.imaging import (
    LayoutError,
    PixelMap,
    RoiImageSpec,
    RoiTilePlan,
    StitchSpec,
    downsample,
    plan_roi_tiles,
    roi_image,
    stitch,
    stitched_label_image,
)
from strokepred.rng import CounterRng


def make_volume(dims, seed=7):
    rng = CounterRng(seed, "imgtest")
    n = dims[0] * dims[1] * dims[2]
    data = np.array([rng.uniform() for _ in range(n)], dtype=np.float32)
    return Volume3D(dims=dims, data=data.reshape(dims))


def stitch_pixel(spec, voxel):
    """(row, col) of a displayed voxel under the layout convention: slice
    k fills flat cell k, image row = voxel y, image column = voxel x."""
    x, y, z = voxel
    r0, c0 = spec.cell_origin(z)
    return r0 + y, c0 + x


def voxel_map(atlas, plan):
    """(h, w, 3) voxel (x, y, z) each ROI canvas pixel shows, -1 if blank,
    from the plan's pixel map over ``atlas``."""
    pmap = PixelMap.compile(plan, atlas)
    out = np.full((*plan.spec.canvas, 3), -1, dtype=np.int64)
    out.reshape(-1, 3)[pmap.shown] = np.stack(
        np.unravel_index(pmap.voxels, atlas.dims), axis=1)
    return out


def test_stitch_dimensions_64_slice_grid():
    # 8x8 grid of 95x79 axial slices comes out 632 rows by 760 cols
    vol = Volume3D(dims=(95, 79, 64), data=np.zeros((95, 79, 64), np.float32))
    spec = StitchSpec(vol.dims)
    img = stitch(vol, spec)
    assert spec.grid == (8, 8)
    assert img.shape == (632, 760)


def test_stitch_known_pixel_mapping():
    # 4x4x4 volume on a 2x2 grid: pixel (0, 5) sits in cell 1 (z=1),
    # within-cell col 1 -> x=1, row 0 -> y=0.
    dims = (4, 4, 4)
    data = np.zeros(dims, np.float32)
    data[1, 0, 1] = 0.625
    vol = Volume3D(dims=dims, data=data)
    spec = StitchSpec(dims)
    img = stitch(vol, spec)
    assert img[0, 5] == np.float32(0.625)
    assert np.count_nonzero(img) == 1


def test_stitch_roundtrip_exhaustive():
    dims = (8, 8, 8)
    vol = make_volume(dims)
    spec = StitchSpec(dims)
    img = stitch(vol, spec)
    shown = np.zeros(img.shape, dtype=bool)
    for voxel in np.ndindex(*dims):
        r, c = stitch_pixel(spec, voxel)
        assert img[r, c] == vol.data[voxel]
        assert not shown[r, c]
        shown[r, c] = True
    # every voxel of every selected slice is displayed exactly once
    assert shown.sum() == 8 * 8 * 8
    assert np.all(img[~shown] == 0.0)


def test_stitch_is_lossless():
    dims = (6, 5, 4)
    vol = make_volume(dims, seed=11)
    spec = StitchSpec(dims)
    img = stitch(vol, spec)
    assert np.isclose(img.sum(dtype=np.float64),
                      vol.data.sum(dtype=np.float64), rtol=1e-6)


def test_stitch_removed_cells_blank():
    dims = (4, 4, 4)
    vol = make_volume(dims, seed=3)
    spec = StitchSpec(dims, removed_cells=(3,))
    img = stitch(vol, spec)
    assert np.all(img[4:8, 4:8] == 0.0)
    expected = vol.data[:, :, :3].sum(dtype=np.float64)
    assert np.isclose(img.sum(dtype=np.float64), expected, rtol=1e-6)


def test_stitch_rejects_bad_spec():
    dims = (4, 4, 8)
    vol = make_volume(dims, seed=5)
    with pytest.raises(LayoutError):
        StitchSpec(dims, removed_cells=(8,))  # outside the grid
    spec = StitchSpec((4, 4, 6))  # made for another depth
    with pytest.raises(LayoutError):
        stitch(vol, spec)


@settings(max_examples=25, deadline=None)
@given(
    nx=st.integers(2, 6), ny=st.integers(2, 6), nz=st.integers(1, 6),
    data=st.data(),
)
def test_stitch_provenance_property(nx, ny, nz, data):
    vol = make_volume((nx, ny, nz), seed=nz * 100 + nx * 10 + ny)
    spec = StitchSpec(vol.dims)
    img = stitch(vol, spec)
    x = data.draw(st.integers(0, nx - 1))
    y = data.draw(st.integers(0, ny - 1))
    z = data.draw(st.integers(0, nz - 1))
    r, c = stitch_pixel(spec, (x, y, z))
    assert img[r, c] == vol.data[x, y, z]


def test_downsample_hand_computed_means():
    px = np.arange(16, dtype=np.float32).reshape(4, 4) / 16.0
    out = downsample(px, 2, 2)
    # each output pixel is the mean of a 2x2 block
    expected = np.array([
        [px[0:2, 0:2].mean(), px[0:2, 2:4].mean()],
        [px[2:4, 0:2].mean(), px[2:4, 2:4].mean()],
    ])
    assert np.allclose(out, expected, atol=1e-7)


def test_downsample_256_from_stitched():
    vol = make_volume((16, 16, 4), seed=9)
    spec = StitchSpec(vol.dims)
    big = stitch(vol, spec)
    small = downsample(big, 16, 16)
    assert small.shape == (16, 16)
    assert np.isclose(small.mean(dtype=np.float64),
                      big.mean(dtype=np.float64), atol=1e-6)


def test_downsample_non_integer_factor_preserves_mean():
    rng = CounterRng(21, "ds")
    px = np.array([rng.uniform() for _ in range(35 * 21)],
                  dtype=np.float32).reshape(35, 21)
    out = downsample(px, 8, 13)
    assert np.isclose(out.mean(dtype=np.float64),
                      px.mean(dtype=np.float64), atol=1e-6)


def test_downsample_is_linear():
    rng = CounterRng(4, "lin")
    a = np.array([rng.uniform(0, 0.5) for _ in range(100)],
                 dtype=np.float32).reshape(10, 10)
    b = np.array([rng.uniform(0, 0.5) for _ in range(100)],
                 dtype=np.float32).reshape(10, 10)
    da = downsample(a, 4, 4)
    db = downsample(b, 4, 4)
    dab = downsample(a + b, 4, 4)
    assert np.allclose(dab, da + db, atol=1e-6)


def test_downsample_rejects_upscale():
    img = np.zeros((4, 4), np.float32)
    with pytest.raises(ValueError):
        downsample(img, 8, 4)


# ---------------------------------------------------------------------------
# ROI images


def make_two_roi_atlas():
    """6x6x3 atlas: label 1 is a 2x3 box on z=0, label 2 spans z=1..2."""
    labels = np.zeros((6, 6, 3), np.uint16)
    labels[1:3, 2:5, 0] = 1
    labels[4:6, 0:2, 1] = 2
    labels[4:5, 0:3, 2] = 2
    return LabelVolume(dims=(6, 6, 3), labels=labels)


def test_roi_image_masks_and_packs():
    atlas = make_two_roi_atlas()
    vol = make_volume((6, 6, 3), seed=13)
    plan = plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(1, 2),
                                              canvas=(12, 12)))
    img = roi_image(vol, PixelMap.compile(plan, atlas))
    vmap = voxel_map(atlas, plan)
    nz = np.argwhere(img > 0)
    assert len(nz) > 0
    for r, c in nz:
        x, y, z = vmap[r, c]
        assert atlas.labels[x, y, z] in (1, 2)
        assert img[r, c] == vol.data[x, y, z]
    # tile 0 is ROI 1's z=0 crop at the origin: 3 rows (y 2..4), 2 cols (x 1..2)
    assert tuple(vmap[0, 0]) == (1, 2, 0)
    assert tuple(vmap[2, 1]) == (2, 4, 0)


def test_roi_image_no_foreign_voxels():
    # voxels outside the listed ROIs never contribute a nonzero pixel
    atlas = make_two_roi_atlas()
    data = np.full((6, 6, 3), 0.9, np.float32)  # bright everywhere
    vol = Volume3D(dims=(6, 6, 3), data=data)
    plan = plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(1,), canvas=(8, 8)))
    img = roi_image(vol, PixelMap.compile(plan, atlas))
    mapped = voxel_map(atlas, plan)[..., 0] >= 0
    assert np.all(img[~mapped] == 0.0)
    count_roi1 = int(np.sum(atlas.labels == 1))
    assert int(mapped.sum()) == count_roi1


def test_roi_image_provenance_injective():
    atlas = make_two_roi_atlas()
    spec = RoiImageSpec(roi_labels=(1, 2), canvas=(12, 12))
    voxels = PixelMap.compile(plan_roi_tiles(atlas, spec), atlas).voxels
    assert len(set(voxels.tolist())) == len(voxels)


@pytest.mark.parametrize("canvas, named", [
    ((3, 4), "packed 4 px wide take 7 rows plus 0 reserved, and the widest "
             "is 2 px; the canvas is 3x4"),
    ((3, 1), "the widest is 2 px; the canvas is 3x1")],
    ids=["too-short", "too-narrow"])
def test_roi_tiles_refuse_a_canvas_they_overflow(canvas, named):
    atlas = make_two_roi_atlas()
    with pytest.raises(LayoutError, match=named):
        plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(1, 2), canvas=canvas))
    plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(1, 2), canvas=(12, 12)))


def test_roi_image_reserved_bottom_left_blank():
    atlas = make_two_roi_atlas()
    vol = make_volume((6, 6, 3), seed=23)
    spec = RoiImageSpec(roi_labels=(1, 2), canvas=(14, 8), reserved_bottom=4)
    img = roi_image(vol, PixelMap.compile(plan_roi_tiles(atlas, spec), atlas))
    assert np.all(img[10:, :] == 0.0)


def test_roi_image_unknown_label():
    atlas = make_two_roi_atlas()
    with pytest.raises(LayoutError):
        plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(1, 9), canvas=(12, 12)))


def test_roi_order_follows_label_ranking():
    atlas = make_two_roi_atlas()
    vol = make_volume((6, 6, 3), seed=29)
    a_plan = plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(1, 2),
                                                canvas=(12, 12)))
    b_plan = plan_roi_tiles(atlas, RoiImageSpec(roi_labels=(2, 1),
                                                canvas=(12, 12)))
    a = roi_image(vol, PixelMap.compile(a_plan, atlas))
    b = roi_image(vol, PixelMap.compile(b_plan, atlas))
    # first tile differs: ranking order controls placement
    assert voxel_map(atlas, a_plan)[0, 0, 2] == 0  # ROI 1 lives on z=0
    assert voxel_map(atlas, b_plan)[0, 0, 2] in (1, 2)  # ROI 2 slices first
    assert a[0, 0] == vol.data[tuple(voxel_map(atlas, a_plan)[0, 0])]
    assert b[0, 0] == vol.data[tuple(voxel_map(atlas, b_plan)[0, 0])]


def test_stitched_label_image_matches_provenance():
    atlas = make_two_roi_atlas()
    vol = make_volume((6, 6, 3), seed=31)
    spec = StitchSpec(vol.dims)
    img = stitch(vol, spec)
    lab = stitched_label_image(atlas, spec)
    shown = np.zeros(lab.shape, dtype=bool)
    for voxel in np.ndindex(*vol.dims):
        r, c = stitch_pixel(spec, voxel)
        assert lab[r, c] == atlas.labels[voxel]
        assert img[r, c] == vol.data[voxel]
        shown[r, c] = True
    assert np.all(lab[~shown] == 0)


# ---------------------------------------------------------------------------
# Compiled ROI pixel maps against a per-tile reference


def reference_roi_image(volume, atlas, plan):
    """Per-tile loop: copy each tile's ROI voxels and record their (x, y, z)."""
    h, w = plan.spec.canvas
    pixels = np.zeros((h, w), dtype=np.float32)
    prov = np.full((h, w, 3), -1, dtype=np.int32)
    for (label, z, x0, x1, y0, y1, row0, col0) in plan.tiles:
        crop = volume.data[x0:x1, y0:y1, z].T
        mask = (atlas.labels[x0:x1, y0:y1, z] == label).T
        th, tw = crop.shape
        pixels[row0:row0 + th, col0:col0 + tw] = np.where(mask, crop, 0.0)
        xs, ys = np.meshgrid(np.arange(x0, x1), np.arange(y0, y1))
        region = prov[row0:row0 + th, col0:col0 + tw]
        region[..., 0] = np.where(mask, xs, region[..., 0])
        region[..., 1] = np.where(mask, ys, region[..., 1])
        region[..., 2] = np.where(mask, z, region[..., 2])
    return pixels, prov


def synthetic_atlases():
    from strokepred.synthcohort import SynthConfig, gen_atlas
    cfg = SynthConfig(seed=9, n_subjects=10, dims=(20, 24, 16), n_rois=7,
                      n_tracts=4)
    return gen_atlas(cfg, "rois"), gen_atlas(cfg, "tracts")


@pytest.mark.parametrize("order", ["ascending", "descending", "subset"])
@pytest.mark.parametrize("reserved", [0, 5])
def test_roi_image_equals_per_tile_reference(order, reserved):
    atlas, _ = synthetic_atlases()
    labels = sorted(atlas.label_names)
    labels = {"ascending": labels, "descending": labels[::-1],
              "subset": [5, 2, 6]}[order]
    spec = RoiImageSpec(roi_labels=tuple(labels), canvas=(90 + reserved, 90),
                        reserved_bottom=reserved)
    plan = plan_roi_tiles(atlas, spec)
    for seed in (3, 4):
        vol = make_volume(atlas.dims, seed=seed)
        img = roi_image(vol, PixelMap.compile(plan, atlas))
        pixels, prov = reference_roi_image(vol, atlas, plan)
        assert img.tobytes() == pixels.tobytes()
        assert np.array_equal(voxel_map(atlas, plan), prov)


def test_roi_plan_recompiles_for_another_atlas():
    rois, tracts = synthetic_atlases()
    spec = RoiImageSpec(roi_labels=(1, 2), canvas=(60, 60))
    plan = plan_roi_tiles(rois, spec)
    vol = make_volume(rois.dims, seed=5)
    # same geometry, other labels: the map follows the atlas it compiled
    img = roi_image(vol, PixelMap.compile(plan, tracts))
    pixels, prov = reference_roi_image(vol, tracts, plan)
    assert img.tobytes() == pixels.tobytes()
    assert np.array_equal(voxel_map(tracts, plan), prov)


def test_roi_provenance_shared_and_read_only():
    atlas, _ = synthetic_atlases()
    spec = RoiImageSpec(roi_labels=(1, 3), canvas=(60, 60))
    plan = plan_roi_tiles(atlas, spec)
    pmap = PixelMap.compile(plan, atlas)
    a = roi_image(make_volume(atlas.dims, seed=1), pmap)
    b = roi_image(make_volume(atlas.dims, seed=2), pmap)
    with pytest.raises(ValueError):
        pmap.voxels[0] = 7
    assert not np.shares_memory(a, b)


def test_pool_weights_cached_and_read_only():
    from strokepred.imaging import _pool_weights
    w = _pool_weights(35, 8)
    assert _pool_weights(35, 8) is w
    assert np.allclose(w.sum(axis=1), 1.0)
    with pytest.raises(ValueError):
        w[0, 0] = 1.0




# ---------------------------------------------------------------------------
# The crop table and the label-by-label pixel map against the per-label crops
# and per-tile compile they replaced


def reference_roi_crops(atlas, labels):
    """Per-label crops: one whole-atlas mask per label."""
    nx, ny, _ = atlas.dims
    crops = []
    for label in labels:
        mask = atlas.labels == label
        in_x = mask.any(axis=1)
        in_y = mask.any(axis=0)
        zs = np.flatnonzero(in_x.any(axis=0))
        in_x, in_y = in_x[:, zs], in_y[:, zs]
        x0, x1 = in_x.argmax(axis=0), nx - in_x[::-1].argmax(axis=0)
        y0, y1 = in_y.argmax(axis=0), ny - in_y[::-1].argmax(axis=0)
        crops += [(int(label), int(z), int(a), int(b), int(c), int(d))
                  for z, a, b, c, d in zip(zs, x0, x1, y0, y1)]
    return crops


def reference_compile(plan, atlas):
    """Per-tile compile: (shown, voxels) of the map, each tile writing its
    whole rectangle."""
    _, ny, nz = atlas.dims
    flat = np.full(plan.spec.canvas, -1, dtype=np.int32)
    for (label, z, x0, x1, y0, y1, row0, col0) in plan.tiles:
        index = (np.arange(y0, y1, dtype=np.int32)[:, None] * nz
                 + np.arange(x0, x1, dtype=np.int32)[None, :] * (ny * nz) + z)
        mask = (atlas.labels[x0:x1, y0:y1, z] == label).T
        flat[row0:row0 + (y1 - y0), col0:col0 + (x1 - x0)] = \
            np.where(mask, index, -1)
    shown = np.flatnonzero(flat >= 0)
    return shown, flat.ravel()[shown]


def assert_compiles_like_reference(plan, atlas):
    pmap = PixelMap.compile(plan, atlas)
    shown, voxels = reference_compile(plan, atlas)
    assert pmap.shown.dtype == shown.dtype and pmap.voxels.dtype == np.int32
    assert pmap.shown.tobytes() == shown.tobytes()
    assert pmap.voxels.tobytes() == voxels.tobytes()


ATLAS_DIMS = [(16, 16, 16), (24, 24, 24), (33, 28, 25), (40, 48, 36)]


def grid_atlases(dims):
    from strokepred.synthcohort import SynthConfig, gen_atlas
    cfg = SynthConfig(seed=41, n_subjects=10, dims=dims)
    return gen_atlas(cfg, "rois"), gen_atlas(cfg, "tracts")


def ranked_subsets(atlas):
    """Label lists in importance order: all, reversed, and two subsets."""
    labels = sorted(atlas.label_names)
    return [labels, labels[::-1], labels[::-3][:4],
            [v for v in (7, 3, 12, 1) if v in labels]]


@pytest.mark.parametrize("dims", ATLAS_DIMS)
@pytest.mark.parametrize("kind", [0, 1], ids=["rois", "tracts"])
def test_crop_table_gives_the_per_label_crops(dims, kind):
    atlas = grid_atlases(dims)[kind]
    every = list(range(int(atlas.labels.max()) + 2))  # background, an absent
    for labels in ranked_subsets(atlas) + [every, [99, -3]]:
        assert imaging.roi_crops(atlas, labels) == \
            reference_roi_crops(atlas, labels)


@pytest.mark.parametrize("dims", ATLAS_DIMS)
@pytest.mark.parametrize("kind", [0, 1], ids=["rois", "tracts"])
def test_pixel_map_compiles_like_the_per_tile_loop(dims, kind):
    from strokepred.pipeline import fit_roi_spec
    atlases = grid_atlases(dims)
    atlas, other = atlases[kind], atlases[1 - kind]
    for labels in ranked_subsets(atlas):
        plan = fit_roi_spec(atlas, labels, 0.22)
        assert_compiles_like_reference(plan, atlas)
        for cut in (len(plan.tiles) - 1, len(plan.tiles) // 2):
            dropped = RoiTilePlan(spec=plan.spec,
                                  tiles=plan.tiles[:cut] + plan.tiles[cut + 1:])
            assert_compiles_like_reference(dropped, atlas)
        # a plan laid out over the other atlas, rendered over this one
        shared = [v for v in labels if v in other.label_names]
        assert_compiles_like_reference(fit_roi_spec(other, shared), atlas)


def test_label_voxels_index_each_label_and_are_read_only():
    atlas = grid_atlases((33, 28, 25))[0]
    index = atlas.label_voxels
    assert index.dtype == np.int32 and not index.flags.writeable
    assert atlas.label_voxels is index  # built once
    for label in range(-1, int(atlas.labels.max()) + 3):
        want = np.flatnonzero(atlas.labels.ravel() == label) if label else []
        assert np.array_equal(atlas.voxels_of(label), want), label
    table = atlas.crop_table
    assert atlas.crop_table is table
    with pytest.raises(TypeError):
        table[1] = ()


@settings(max_examples=60, deadline=None)
@given(dims=st.tuples(st.integers(1, 7), st.integers(1, 7), st.integers(1, 5)),
       data=st.data())
def test_crop_table_and_pixel_map_on_arbitrary_labels(dims, data):
    n = dims[0] * dims[1] * dims[2]
    values = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
    atlas = LabelVolume(dims=dims,
                        labels=np.array(values, np.uint16).reshape(dims))
    labels = list(range(7))
    assert imaging.roi_crops(atlas, labels) == \
        reference_roi_crops(atlas, labels)
    present = atlas.present_labels()
    ranked = data.draw(st.permutations(present))
    crops = imaging.roi_crops(atlas, ranked)
    width = max([1] + [c[3] - c[2] for c in crops])
    spec = RoiImageSpec(roi_labels=tuple(ranked), canvas=(
        imaging.shelf_pack(crops, width)[1] + 1, width))
    assert_compiles_like_reference(plan_roi_tiles(atlas, spec), atlas)
