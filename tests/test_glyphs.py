import numpy as np
import pytest

from strokepred import glyphs
from strokepred.core import LabelVolume, SubjectRecord, Volume3D
from strokepred.glyphs import (
    SEVERITY_SYMBOLS,
    GlyphOverlapError,
    glyph_cell_boxes,
    glyph_strip_boxes,
    hybrid_roi,
    hybrid_stitched,
    normalizers_from_records,
    render_glyphs,
)
from strokepred.imaging import (
    LayoutError,
    PixelMap,
    RoiImageSpec,
    StitchSpec,
    downsample,
    plan_roi_tiles,
    stitch,
)
from strokepred.rng import CounterRng


SIZE_REF, TIME_REF = 1000.0, 365.0  # train-only normalizers


def shape_raster(shape, h, w, radius, intensity=1.0):
    """The rasterizer without a cache: a fresh pixel-centre grid, the
    shape's containment test, and a float32 fill."""
    ys, xs = np.mgrid[0:h, 0:w]
    out = np.zeros((h, w), dtype=np.float32)
    out[glyphs._INSIDE[shape](xs + 0.5, ys + 0.5, w / 2, h / 2,
                              radius)] = np.float32(intensity)
    return out


def severity_raster(shape, h, w):
    return shape_raster(shape, h, w, 0.38 * min(h, w))


def make_record(severity="normal", recovery_time=30.0, lesion=200, score=70.0):
    return SubjectRecord(id="s1", severity=severity, recovery_time=recovery_time,
                         left_lesion_size=lesion, score=score)


def boxes_for(cell=32):
    return [(0, 0, cell, cell), (0, cell, cell, cell), (0, 2 * cell, cell, cell)]


def blank(cell=32):
    return np.zeros((cell, 3 * cell), dtype=np.float32)


def reference_glyphs(record, size_ref, time_ref, canvas, boxes):
    """The former ``GlyphSpec`` arithmetic, with the spec built from the
    boxes as the pipeline built it, drawn by the former render loop."""
    m = min(min(bh, bw) for (_r, _c, bh, bw) in boxes)
    pentagon_radius = (max(1.0, 0.10 * m), 0.45 * m)
    pie_radius = 0.32 * m
    pie_intensity = (0.25, 1.0)
    r_min, r_max = pentagon_radius
    radius = r_min + (r_max - r_min) * min(
        1.0, max(0.0, record.left_lesion_size / size_ref))
    i_min, i_max = pie_intensity
    intensity = i_min + (i_max - i_min) * min(
        1.0, max(0.0, record.recovery_time / time_ref))
    rasters = [shape_raster("pentagon", boxes[0][2], boxes[0][3], radius),
               shape_raster("pie", boxes[1][2], boxes[1][3], pie_radius,
                            intensity),
               severity_raster(SEVERITY_SYMBOLS[record.severity],
                               boxes[2][2], boxes[2][3])]
    out = canvas.copy()
    for (r0, c0, bh, bw), raster in zip(boxes, rasters):
        out[r0:r0 + bh, c0:c0 + bw] = raster
    return out


NON_SQUARE = [(0, 0, 20, 31), (3, 31, 17, 40), (0, 71, 25, 22)]


@pytest.mark.parametrize("boxes", [boxes_for(side) for side in (6, 7, 13, 16, 32)]
                         + [NON_SQUARE],
                         ids=["6", "7", "13", "16", "32", "non-square"])
@pytest.mark.parametrize("lesion,recovery_time", [
    (0, 0.0), (0, 10 * TIME_REF), (10 * SIZE_REF, 0.0),
    (10 * SIZE_REF, 10 * TIME_REF), (333, 77.0)])
def test_render_matches_the_former_spec_arithmetic(boxes, lesion,
                                                   recovery_time):
    canvas = np.zeros((max(r + h for r, _, h, _ in boxes),
                       max(c + w for _, c, _, w in boxes)), np.float32)
    for severity in SEVERITY_SYMBOLS:
        record = make_record(severity=severity, lesion=lesion,
                             recovery_time=recovery_time)
        got = render_glyphs(record, SIZE_REF, TIME_REF, canvas.copy(), boxes)
        want = reference_glyphs(record, SIZE_REF, TIME_REF, canvas, boxes)
        assert got.tobytes() == want.tobytes()


def test_zero_lesion_gives_r_min_pentagon():
    out = render_glyphs(make_record(lesion=0), SIZE_REF, TIME_REF, blank(),
                        boxes_for())
    expected = shape_raster("pentagon", 32, 32, 0.10 * 32)
    assert np.array_equal(out[:, 0:32], expected)


def test_saturated_recovery_gives_i_max():
    rec = make_record(recovery_time=TIME_REF * 3)
    out = render_glyphs(rec, SIZE_REF, TIME_REF, blank(), boxes_for())
    pie = out[:, 32:64]
    assert pie.max() == np.float32(1.0)
    # fixed support: same pixels as any other intensity
    ref = shape_raster("pie", 32, 32, 0.32 * 32, 1.0)
    assert np.array_equal(pie > 0, ref > 0)


def test_severity_shapes_match_mapping():
    for severity, shape in (("normal", "ellipse"), ("unknown", "star"),
                            ("moderate", "triangle"), ("severe", "square"),
                            ("mild", "cross")):
        out = render_glyphs(make_record(severity=severity), SIZE_REF,
                            TIME_REF, blank(), boxes_for())
        expected = shape_raster(shape, 32, 32, 0.38 * 32)
        assert np.array_equal(out[:, 64:96], expected), severity


def test_pentagon_fill_monotone_in_lesion_size():
    counts = []
    for lesion in range(0, 1300, 50):
        out = render_glyphs(make_record(lesion=lesion), SIZE_REF, TIME_REF,
                            blank(), boxes_for())
        counts.append(int(np.count_nonzero(out[:, 0:32])))
    assert counts == sorted(counts)
    assert counts[-1] > counts[0]


def test_pie_intensity_monotone_in_recovery_time():
    means = []
    for days in np.linspace(0, 500, 26):
        out = render_glyphs(make_record(recovery_time=float(days)), SIZE_REF,
                            TIME_REF, blank(), boxes_for())
        means.append(float(out[:, 32:64].mean()))
    assert all(b >= a for a, b in zip(means, means[1:]))
    assert means[-1] > means[0]


def test_severity_rasters_distinct_after_downsampling():
    # desk preset: 64x64 cells downsampled 8x; every pair of severity
    # symbols must stay apart by more than 0.05 somewhere
    cells = {}
    for cat, shape in SEVERITY_SYMBOLS.items():
        raster = severity_raster(shape, 64, 64)
        cells[cat] = downsample(raster, 8, 8)
    cats = sorted(cells)
    for i, a in enumerate(cats):
        for b in cats[i + 1:]:
            assert float(np.abs(cells[a] - cells[b]).max()) > 0.05, (a, b)


def test_render_requires_empty_boxes():
    canvas = blank()
    canvas[5, 5] = 0.3
    with pytest.raises(GlyphOverlapError):
        render_glyphs(make_record(), SIZE_REF, TIME_REF, canvas, boxes_for())


def test_glyph_boxes_under_6px_are_refused():
    # a strip 5 px high, and boxes 5 px wide on a 17 px wide canvas
    for canvas, reserved, m in (((40, 30), 5, 5), ((40, 17), 10, 5)):
        roi_spec = RoiImageSpec(roi_labels=(), canvas=canvas,
                                reserved_bottom=reserved)
        with pytest.raises(LayoutError,
                           match=f"glyph boxes of {m}px are too small"):
            glyph_strip_boxes(roi_spec)
    assert glyph_strip_boxes(RoiImageSpec(roi_labels=(), canvas=(40, 18),
                                          reserved_bottom=6))
    with pytest.raises(LayoutError, match="glyph boxes of 5px are too small"):
        glyph_cell_boxes(StitchSpec((8, 5, 16), removed_cells=(12, 13, 14, 15)))
    assert glyph_cell_boxes(StitchSpec((8, 6, 16),
                                       removed_cells=(12, 13, 14, 15)))


def test_render_draws_into_the_canvas_it_is_given():
    canvas = blank()
    out = render_glyphs(make_record(), SIZE_REF, TIME_REF, canvas, boxes_for())
    assert out is canvas
    assert np.array_equal(canvas, reference_glyphs(
        make_record(), SIZE_REF, TIME_REF, blank(), boxes_for()))


def test_render_deterministic():
    rec = make_record(lesion=333, recovery_time=77)
    a = render_glyphs(rec, SIZE_REF, TIME_REF, blank(), boxes_for())
    b = render_glyphs(rec, SIZE_REF, TIME_REF, blank(), boxes_for())
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# Hybrid images


def make_volume(dims, seed=7):
    rng = CounterRng(seed, "glyphtest")
    n = dims[0] * dims[1] * dims[2]
    data = np.array([rng.uniform() for _ in range(n)], dtype=np.float32)
    return Volume3D(dims=dims, data=data.reshape(dims))


DIMS = (32, 32, 16)
FULL = (128, 128)  # (w, h) of the 4x4 grid: downsampling to it is a no-op
HYBRID_SPEC = StitchSpec(DIMS, removed_cells=(12, 13, 14, 15))


def hybrid(volume, record, target=FULL):
    return hybrid_stitched(volume, HYBRID_SPEC, glyph_cell_boxes(HYBRID_SPEC),
                           record, SIZE_REF, TIME_REF, target)


def test_hybrid_stitched_requires_dorsal_cells():
    bad = StitchSpec(DIMS, removed_cells=(0, 1, 2, 3))
    with pytest.raises(LayoutError):
        glyph_cell_boxes(bad)


def test_hybrid_stitched_locality():
    vol = make_volume(DIMS)
    hybrid_img = hybrid(vol, make_record())
    plain = stitch(vol, StitchSpec(DIMS))
    diff = hybrid_img != plain
    freed = np.zeros(diff.shape, dtype=bool)
    for cell in (12, 13, 14, 15):
        r0, c0 = HYBRID_SPEC.cell_origin(cell)
        freed[r0:r0 + 32, c0:c0 + 32] = True
    assert np.any(diff)
    assert not np.any(diff & ~freed)


def test_hybrid_stitched_severity_diff_confined():
    vol = make_volume(DIMS)
    a = hybrid(vol, make_record(severity="normal"))
    b = hybrid(vol, make_record(severity="severe"))
    diff = a != b
    # severity glyph lives in the third placement cell (cell 14 here)
    r0, c0 = HYBRID_SPEC.cell_origin(14)
    sev_cell = np.zeros(diff.shape, dtype=bool)
    sev_cell[r0:r0 + 32, c0:c0 + 32] = True
    assert np.any(diff)
    assert not np.any(diff & ~sev_cell)


def test_hybrid_stitched_glyph_pixels_carry_no_provenance():
    a = hybrid(make_volume(DIMS, seed=1), make_record())
    b = hybrid(make_volume(DIMS, seed=2), make_record())
    r0, c0 = HYBRID_SPEC.cell_origin(12)
    assert np.array_equal(a[r0:r0 + 32, c0:c0 + 32],
                          b[r0:r0 + 32, c0:c0 + 32])
    assert not np.array_equal(a[:32, :32], b[:32, :32])


def test_hybrid_stitched_deterministic_and_downsampled():
    vol = make_volume(DIMS)
    a = hybrid(vol, make_record(), target=(32, 32))
    b = hybrid(vol, make_record(), target=(32, 32))
    assert np.array_equal(a, b)
    assert a.shape == (32, 32)


def make_seven_roi_atlas(dims=(24, 24, 6)):
    labels = np.zeros(dims, np.uint16)
    for k in range(1, 8):
        x = 3 * (k - 1)
        labels[x:x + 3, 2:6, (k - 1) % dims[2]] = k
    return LabelVolume(dims=dims, labels=labels)


def pixel_map(atlas, roi_spec):
    return PixelMap.compile(plan_roi_tiles(atlas, roi_spec), atlas)


def hybrid_roi_full(volume, atlas, roi_spec, record):
    """Hybrid ROI image at canvas resolution, with the spec's tile plan and
    glyph boxes."""
    canvas_h, canvas_w = roi_spec.canvas
    return hybrid_roi(volume, pixel_map(atlas, roi_spec),
                      glyph_strip_boxes(roi_spec), record, SIZE_REF, TIME_REF,
                      (canvas_w, canvas_h))


def test_hybrid_roi_glyphs_only_when_no_rois():
    atlas = make_seven_roi_atlas()
    vol = make_volume(atlas.dims, seed=11)
    roi_spec = RoiImageSpec(roi_labels=(), canvas=(48, 96), reserved_bottom=24)
    img = hybrid_roi_full(vol, atlas, roi_spec, make_record())
    assert np.any(img[24:, :] > 0)
    assert np.all(img[:24, :] == 0.0)


def test_hybrid_roi_strip_disjoint_from_tiles():
    atlas = make_seven_roi_atlas()
    vol = make_volume(atlas.dims, seed=13)
    for canvas, reserved in (((48, 96), 24), ((64, 72), 22), ((56, 120), 30)):
        roi_spec = RoiImageSpec(roi_labels=tuple(range(1, 8)), canvas=canvas,
                                reserved_bottom=reserved)
        img = hybrid_roi_full(vol, atlas, roi_spec, make_record())
        strip_start = canvas[0] - reserved
        shown = pixel_map(atlas, roi_spec).shown
        assert np.all(shown // canvas[1] < strip_start)  # no tile in the strip
        assert np.any(img[strip_start:, :] > 0)  # glyphs present


def test_hybrid_roi_seven_rois_plus_three_glyphs():
    atlas = make_seven_roi_atlas()
    vol = Volume3D(dims=atlas.dims,
                   data=np.full(atlas.dims, 0.8, np.float32))
    roi_spec = RoiImageSpec(roi_labels=tuple(range(1, 8)), canvas=(48, 96),
                            reserved_bottom=24)
    img = hybrid_roi_full(vol, atlas, roi_spec, make_record())
    pmap = pixel_map(atlas, roi_spec)
    assert set(atlas.labels.ravel()[pmap.voxels].tolist()) == set(range(1, 8))
    assert np.all(img.ravel()[pmap.shown] == np.float32(0.8))
    for (r0, c0, bh, bw) in glyph_strip_boxes(roi_spec):
        assert np.any(img[r0:r0 + bh, c0:c0 + bw] > 0)


def test_hybrid_roi_requires_reserved_strip():
    atlas = make_seven_roi_atlas()
    vol = make_volume(atlas.dims, seed=17)
    roi_spec = RoiImageSpec(roi_labels=(1,), canvas=(48, 96))
    with pytest.raises(LayoutError):
        hybrid_roi_full(vol, atlas, roi_spec, make_record())


def test_normalizers_are_99th_percentiles():
    records = [make_record(lesion=i * 10, recovery_time=float(i)) for i in range(101)]
    size_ref, time_ref = normalizers_from_records(records)
    assert size_ref == pytest.approx(np.percentile([r.left_lesion_size for r in records], 99))
    assert time_ref == pytest.approx(np.percentile([r.recovery_time for r in records], 99))
    with pytest.raises(ValueError):
        normalizers_from_records([])


# ---------------------------------------------------------------------------
# Masks cached per box geometry


STRIP_BOXES = glyph_strip_boxes(RoiImageSpec(roi_labels=(), canvas=(70, 95),
                                             reserved_bottom=17))
CELL_BOXES = glyph_cell_boxes(StitchSpec((29, 23, 16),
                                         removed_cells=(12, 13, 14, 15)))


def host_canvas(boxes):
    return np.zeros((max(r + h for r, _, h, _ in boxes),
                     max(c + w for _, c, _, w in boxes)), np.float32)


@pytest.mark.parametrize("boxes", [STRIP_BOXES, CELL_BOXES],
                         ids=["strip", "cells"])
def test_cached_masks_match_the_uncached_rasterizer(boxes):
    m = min(min(bh, bw) for (_r, _c, bh, bw) in boxes)
    (_, _, qh, qw), (r0, c0, sh, sw) = boxes[1], boxes[2]
    pie = glyphs._fixed_mask("pie", qh, qw, 0.32 * m)
    assert np.array_equal(pie, shape_raster("pie", qh, qw, 0.32 * m) > 0)
    for severity, shape in SEVERITY_SYMBOLS.items():
        want = severity_raster(shape, sh, sw)
        mask = glyphs._fixed_mask(shape, sh, sw, 0.38 * min(sh, sw))
        assert np.array_equal(mask, want > 0), shape
        got = render_glyphs(make_record(severity=severity), SIZE_REF,
                            TIME_REF, host_canvas(boxes), boxes)
        assert got[r0:r0 + sh, c0:c0 + sw].tobytes() == want.tobytes()
        assert got.tobytes() == reference_glyphs(
            make_record(severity=severity), SIZE_REF, TIME_REF,
            host_canvas(boxes), boxes).tobytes()


def test_cached_masks_and_centres_are_read_only():
    render_glyphs(make_record(), SIZE_REF, TIME_REF, host_canvas(STRIP_BOXES),
                  STRIP_BOXES)
    _, _, h, w = STRIP_BOXES[2]
    mask = glyphs._fixed_mask("ellipse", h, w, 0.38 * min(h, w))
    px, py = glyphs._pixel_centers(h, w)
    for arr in (mask, px, py):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0, 0] = arr[0, 0]


def test_rendering_a_then_b_then_a_gives_the_same_rasters():
    a = make_record(severity="unknown", lesion=120, recovery_time=40.0)
    b = make_record(severity="severe", lesion=950, recovery_time=300.0)
    renders = [render_glyphs(r, SIZE_REF, TIME_REF, host_canvas(boxes), boxes)
               for boxes in (STRIP_BOXES, CELL_BOXES) for r in (a, b, a)]
    for first, _, again in (renders[:3], renders[3:]):
        assert first.tobytes() == again.tobytes()
    assert renders[0].tobytes() == reference_glyphs(
        a, SIZE_REF, TIME_REF, host_canvas(STRIP_BOXES), STRIP_BOXES).tobytes()
    assert renders[1].tobytes() != renders[0].tobytes()


def test_lesion_sizes_do_not_grow_the_caches():
    def draw(lesion):
        return render_glyphs(make_record(lesion=lesion), SIZE_REF, TIME_REF,
                             host_canvas(CELL_BOXES), CELL_BOXES)

    draw(0)
    before = (glyphs._fixed_mask.cache_info(),
              glyphs._pixel_centers.cache_info())
    pentagons = {draw(lesion)[:, :29].tobytes() for lesion in range(0, 1000, 5)}
    after = (glyphs._fixed_mask.cache_info(),
             glyphs._pixel_centers.cache_info())
    assert len(pentagons) > 20  # the sizes drew different pentagons
    for old, new in zip(before, after):
        assert (new.currsize, new.misses) == (old.currsize, old.misses)
