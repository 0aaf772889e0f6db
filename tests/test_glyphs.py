import numpy as np
import pytest

from strokepred.core import LabelVolume, SubjectRecord, Volume3D
from strokepred.glyphs import (
    SEVERITY_SYMBOLS,
    GlyphOverlapError,
    GlyphSpec,
    glyph_strip_boxes,
    hybrid_roi,
    hybrid_stitched,
    normalizers_from_records,
    render_glyphs,
    severity_raster,
    shape_raster,
)
from strokepred.imaging import (
    Image2D,
    LayoutError,
    RoiImageSpec,
    StitchSpec,
    downsample,
    plan_roi_tiles,
    stitch,
)
from strokepred.rng import CounterRng


def make_spec(**over):
    kw = dict(pentagon_radius=(4.0, 14.0), pie_radius=12.0,
              pie_intensity=(0.2, 1.0), size_ref=1000.0, time_ref=365.0)
    kw.update(over)
    return GlyphSpec(**kw)


def make_record(severity="normal", recovery_time=30.0, lesion=200, score=70.0):
    return SubjectRecord(id="s1", severity=severity, recovery_time=recovery_time,
                         left_lesion_size=lesion, score=score)


def boxes_for(cell=32):
    return [(0, 0, cell, cell), (0, cell, cell, cell), (0, 2 * cell, cell, cell)]


def blank(cell=32):
    return np.zeros((cell, 3 * cell), dtype=np.float32)


def test_spec_validation():
    with pytest.raises(ValueError):
        make_spec(pentagon_radius=(10.0, 10.0))
    with pytest.raises(ValueError):
        make_spec(pie_intensity=(0.5, 0.4))
    with pytest.raises(ValueError):
        make_spec(pie_intensity=(0.5, 1.5))
    with pytest.raises(ValueError):
        make_spec(size_ref=0.0)


def test_zero_lesion_gives_r_min_pentagon():
    spec = make_spec()
    out = render_glyphs(make_record(lesion=0), spec, blank(), boxes_for())
    expected = shape_raster("pentagon", 32, 32, spec.pentagon_radius[0])
    assert np.array_equal(out[:, 0:32], expected)


def test_saturated_recovery_gives_i_max():
    spec = make_spec()
    rec = make_record(recovery_time=spec.time_ref * 3)
    out = render_glyphs(rec, spec, blank(), boxes_for())
    pie = out[:, 32:64]
    assert pie.max() == np.float32(spec.pie_intensity[1])
    # fixed support: same pixels as any other intensity
    ref = shape_raster("pie", 32, 32, spec.pie_radius, 1.0)
    assert np.array_equal(pie > 0, ref > 0)


def test_severity_shapes_match_mapping():
    spec = make_spec()
    for severity, shape in (("normal", "ellipse"), ("unknown", "star"),
                            ("moderate", "triangle"), ("severe", "square"),
                            ("mild", "cross")):
        out = render_glyphs(make_record(severity=severity), spec, blank(), boxes_for())
        expected = shape_raster(shape, 32, 32, 0.38 * 32)
        assert np.array_equal(out[:, 64:96], expected), severity


def test_pentagon_fill_monotone_in_lesion_size():
    spec = make_spec()
    counts = []
    for lesion in range(0, 1300, 50):
        out = render_glyphs(make_record(lesion=lesion), spec, blank(), boxes_for())
        counts.append(int(np.count_nonzero(out[:, 0:32])))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_pie_intensity_monotone_in_recovery_time():
    spec = make_spec()
    means = []
    for days in np.linspace(0, 500, 26):
        out = render_glyphs(make_record(recovery_time=float(days)), spec,
                            blank(), boxes_for())
        means.append(float(out[:, 32:64].mean()))
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert means[-1] > means[0]


def test_severity_rasters_distinct_after_downsampling():
    # desk preset: 64x64 cells downsampled 8x; every pair of severity
    # symbols must stay apart by more than 0.05 somewhere
    cells = {}
    for cat, shape in SEVERITY_SYMBOLS.items():
        raster = severity_raster(shape, 64, 64)
        cells[cat] = downsample(Image2D(64, 64, raster), 8, 8).pixels
    cats = sorted(cells)
    for i, a in enumerate(cats):
        for b in cats[i + 1:]:
            assert float(np.abs(cells[a] - cells[b]).max()) > 0.05, (a, b)


def test_render_requires_empty_boxes():
    spec = make_spec()
    canvas = blank()
    canvas[5, 5] = 0.3
    with pytest.raises(GlyphOverlapError):
        render_glyphs(make_record(), spec, canvas, boxes_for())


def test_render_rejects_oversized_glyph():
    spec = make_spec(pentagon_radius=(4.0, 40.0))
    with pytest.raises(LayoutError):
        render_glyphs(make_record(), spec, blank(), boxes_for())


def test_render_deterministic():
    spec = make_spec()
    a = render_glyphs(make_record(lesion=333, recovery_time=77), spec, blank(), boxes_for())
    b = render_glyphs(make_record(lesion=333, recovery_time=77), spec, blank(), boxes_for())
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Hybrid images


def make_volume(dims, seed=7):
    rng = CounterRng(seed, "glyphtest")
    n = dims[0] * dims[1] * dims[2]
    data = np.array([rng.uniform() for _ in range(n)], dtype=np.float32)
    return Volume3D(dims=dims, data=data.reshape(dims))


def hybrid_specs(dims=(32, 32, 16), grid=(4, 4)):
    n = dims[2]
    stitch_spec = StitchSpec.for_volume(dims, grid=grid,
                                        removed_cells=(n - 4, n - 3, n - 2, n - 1))
    glyph_spec = make_spec(pentagon_radius=(3.0, 12.0), pie_radius=10.0)
    return stitch_spec, glyph_spec


def test_hybrid_stitched_requires_dorsal_cells():
    dims = (32, 32, 16)
    vol = make_volume(dims)
    bad = StitchSpec.for_volume(dims, grid=(4, 4), removed_cells=(0, 1, 2, 3))
    _, glyph_spec = hybrid_specs()
    with pytest.raises(LayoutError):
        hybrid_stitched(vol, make_record(), bad, glyph_spec)


def test_hybrid_stitched_locality():
    dims = (32, 32, 16)
    vol = make_volume(dims)
    stitch_spec, glyph_spec = hybrid_specs()
    hybrid = hybrid_stitched(vol, make_record(), stitch_spec, glyph_spec)
    plain = stitch(vol, StitchSpec.for_volume(dims, grid=(4, 4)))
    diff = hybrid.pixels != plain.pixels
    freed = np.zeros(diff.shape, dtype=bool)
    for cell in (12, 13, 14, 15):
        r0, c0 = stitch_spec.cell_origin(cell)
        freed[r0:r0 + 32, c0:c0 + 32] = True
    assert np.any(diff)
    assert not np.any(diff & ~freed)


def test_hybrid_stitched_severity_diff_confined():
    dims = (32, 32, 16)
    vol = make_volume(dims)
    stitch_spec, glyph_spec = hybrid_specs()
    a = hybrid_stitched(vol, make_record(severity="normal"), stitch_spec, glyph_spec)
    b = hybrid_stitched(vol, make_record(severity="severe"), stitch_spec, glyph_spec)
    diff = a.pixels != b.pixels
    # severity glyph lives in the third placement cell (cell 14 here)
    r0, c0 = stitch_spec.cell_origin(14)
    sev_cell = np.zeros(diff.shape, dtype=bool)
    sev_cell[r0:r0 + 32, c0:c0 + 32] = True
    assert np.any(diff)
    assert not np.any(diff & ~sev_cell)


def test_hybrid_stitched_glyph_pixels_carry_no_provenance():
    dims = (32, 32, 16)
    stitch_spec, glyph_spec = hybrid_specs()
    a = hybrid_stitched(make_volume(dims, seed=1), make_record(), stitch_spec,
                        glyph_spec)
    b = hybrid_stitched(make_volume(dims, seed=2), make_record(), stitch_spec,
                        glyph_spec)
    r0, c0 = stitch_spec.cell_origin(12)
    assert np.array_equal(a.pixels[r0:r0 + 32, c0:c0 + 32],
                          b.pixels[r0:r0 + 32, c0:c0 + 32])
    assert not np.array_equal(a.pixels[:32, :32], b.pixels[:32, :32])


def test_hybrid_stitched_deterministic_and_downsampled():
    dims = (32, 32, 16)
    vol = make_volume(dims)
    stitch_spec, glyph_spec = hybrid_specs()
    a = hybrid_stitched(vol, make_record(), stitch_spec, glyph_spec, target=(32, 32))
    b = hybrid_stitched(vol, make_record(), stitch_spec, glyph_spec, target=(32, 32))
    assert np.array_equal(a.pixels, b.pixels)
    assert (a.height, a.width) == (32, 32)


def make_seven_roi_atlas(dims=(24, 24, 6)):
    labels = np.zeros(dims, np.uint16)
    for k in range(1, 8):
        x = 3 * (k - 1)
        labels[x:x + 3, 2:6, (k - 1) % dims[2]] = k
    return LabelVolume(dims=dims, labels=labels)


def test_hybrid_roi_glyphs_only_when_no_rois():
    atlas = make_seven_roi_atlas()
    vol = make_volume(atlas.dims, seed=11)
    roi_spec = RoiImageSpec(roi_labels=(), canvas=(48, 96), reserved_bottom=24)
    glyph_spec = make_spec(pentagon_radius=(3.0, 10.0), pie_radius=9.0)
    img = hybrid_roi(vol, atlas, roi_spec, make_record(), glyph_spec)
    assert np.any(img.pixels[24:, :] > 0)
    assert np.all(img.pixels[:24, :] == 0.0)


def test_hybrid_roi_strip_disjoint_from_tiles():
    atlas = make_seven_roi_atlas()
    vol = make_volume(atlas.dims, seed=13)
    glyph_spec = make_spec(pentagon_radius=(3.0, 10.0), pie_radius=9.0)
    for canvas, reserved in (((48, 96), 24), ((64, 72), 22), ((56, 120), 30)):
        roi_spec = RoiImageSpec(roi_labels=tuple(range(1, 8)), canvas=canvas,
                                reserved_bottom=reserved)
        img = hybrid_roi(vol, atlas, roi_spec, make_record(), glyph_spec)
        strip_start = canvas[0] - reserved
        shown = plan_roi_tiles(atlas, roi_spec).pixel_map(atlas).shown
        assert np.all(shown // canvas[1] < strip_start)  # no tile in the strip
        assert np.any(img.pixels[strip_start:, :] > 0)  # glyphs present


def test_hybrid_roi_seven_rois_plus_three_glyphs():
    atlas = make_seven_roi_atlas()
    vol = Volume3D(dims=atlas.dims,
                   data=np.full(atlas.dims, 0.8, np.float32))
    roi_spec = RoiImageSpec(roi_labels=tuple(range(1, 8)), canvas=(48, 96),
                            reserved_bottom=24)
    glyph_spec = make_spec(pentagon_radius=(3.0, 10.0), pie_radius=9.0)
    img = hybrid_roi(vol, atlas, roi_spec, make_record(), glyph_spec)
    pmap = plan_roi_tiles(atlas, roi_spec).pixel_map(atlas)
    assert set(atlas.labels.ravel()[pmap.voxels].tolist()) == set(range(1, 8))
    assert np.all(img.pixels.ravel()[pmap.shown] == np.float32(0.8))
    for (r0, c0, bh, bw) in glyph_strip_boxes(roi_spec):
        assert np.any(img.pixels[r0:r0 + bh, c0:c0 + bw] > 0)


def test_hybrid_roi_requires_reserved_strip():
    atlas = make_seven_roi_atlas()
    vol = make_volume(atlas.dims, seed=17)
    roi_spec = RoiImageSpec(roi_labels=(1,), canvas=(48, 96))
    glyph_spec = make_spec(pentagon_radius=(3.0, 10.0), pie_radius=9.0)
    with pytest.raises(LayoutError):
        hybrid_roi(vol, atlas, roi_spec, make_record(), glyph_spec)


def test_normalizers_are_99th_percentiles():
    records = [make_record(lesion=i * 10, recovery_time=float(i)) for i in range(101)]
    size_ref, time_ref = normalizers_from_records(records)
    assert size_ref == pytest.approx(np.percentile([r.left_lesion_size for r in records], 99))
    assert time_ref == pytest.approx(np.percentile([r.recovery_time for r in records], 99))
    with pytest.raises(ValueError):
        normalizers_from_records([])
