import dataclasses
import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strokepred import core, synthcohort
from strokepred.rng import CounterRng
from strokepred.synthcohort import (SEVERITY_FROM_LOAD, SynthConfig,
                                    TruthModel, atlas_sites, brain_mask,
                                    cohort_records, default_truth, gen_atlas,
                                    gen_subject, ground_truth_score,
                                    severity_from_load, subject_loads,
                                    write_cohort)

SMALL = SynthConfig(seed=7, n_subjects=10, dims=(24, 24, 24), n_rois=8,
                    n_tracts=4)


def test_brain_mask_center_in_corners_out():
    m = brain_mask((32, 32, 32))
    assert m[16, 16, 16]
    assert not m[0, 0, 0] and not m[31, 31, 31]
    # ellipsoid is symmetric about the grid center
    assert np.array_equal(m, m[::-1, :, :])
    assert np.array_equal(m, m[:, :, ::-1])


def test_atlas_sites_distinct_in_mask_hemisphere_split():
    cfg = SynthConfig(seed=3, n_subjects=10, dims=(32, 32, 32), n_rois=16)
    sites = atlas_sites(cfg, "rois")
    assert sites.shape == (16, 3)
    assert len({tuple(s) for s in sites}) == 16
    mask = brain_mask(cfg.dims)
    for x, y, z in sites:
        assert mask[x, y, z]
    assert (sites[:12, 0] < 16).all()  # first 12 left of midline
    assert (sites[12:, 0] >= 16).all()


GRID_DIMS = [(17, 17, 17), (33, 33, 33), (64, 64, 64), (20, 24, 28),
             (64, 48, 40)]
# squared distances from sites to brain voxels pass int16's 32767 here
WIDE_DIMS = (300, 16, 16)


@pytest.mark.parametrize("dims", GRID_DIMS + [WIDE_DIMS])
def test_atlas_voronoi_matches_brute_force_nearest_site(dims):
    cfg = SynthConfig(seed=5, n_subjects=10, dims=dims)
    atlas = gen_atlas(cfg, "rois")
    sites = atlas_sites(cfg, "rois")
    mask = brain_mask(cfg.dims)
    x, y, z = np.mgrid[0:dims[0], 0:dims[1], 0:dims[2]].astype(np.float64)
    d2 = np.stack([(x - sx) ** 2 + (y - sy) ** 2 + (z - sz) ** 2
                   for sx, sy, sz in sites])
    nearest = np.argmin(d2, axis=0) + 1  # argmin takes the first on ties
    assert np.array_equal(atlas.labels[mask], nearest[mask])
    assert (atlas.labels[~mask] == 0).all()
    if dims == WIDE_DIMS:  # so gen_atlas computed them in int32
        assert d2[:, mask].max() > np.iinfo(np.int16).max


def test_atlas_every_label_present_and_named():
    atlas = gen_atlas(SMALL, "rois")
    present = set(np.unique(atlas.labels)) - {0}
    assert present == set(range(1, SMALL.n_rois + 1))
    assert atlas.label_names[1] == "roi01"
    tracts = gen_atlas(SMALL, "tracts")
    assert tracts.label_names[1] == "tract01"
    assert set(np.unique(tracts.labels)) - {0} == set(range(1, SMALL.n_tracts + 1))


def test_atlas_deterministic():
    a = gen_atlas(SMALL, "rois")
    b = gen_atlas(SMALL, "rois")
    assert np.array_equal(a.labels, b.labels)


def test_gen_subject_bit_identical_across_calls():
    atlas = gen_atlas(SMALL)
    v1, l1, r1 = gen_subject(SMALL, default_truth(), 4, atlas)
    v2, l2, r2 = gen_subject(SMALL, default_truth(), 4, atlas)
    assert np.array_equal(v1.data, v2.data)
    assert np.array_equal(l1.labels, l2.labels)
    assert r1 == r2


def test_subjects_differ_across_seeds():
    atlas = gen_atlas(SMALL)
    _, _, r0 = gen_subject(SMALL, default_truth(), 0, atlas)
    _, _, r1 = gen_subject(SMALL, default_truth(), 1, atlas)
    assert r0.id != r1.id
    assert (r0.score, r0.recovery_time) != (r1.score, r1.recovery_time)


def test_lesion_and_intensity_confined_to_brain():
    atlas = gen_atlas(SMALL)
    volume, lesion, _ = gen_subject(SMALL, default_truth(), 2, atlas)
    mask = brain_mask(SMALL.dims)
    assert not lesion.labels[~mask].any()
    assert (volume.data[~mask] == 0).all()
    assert (volume.data[mask] > 0).all()


def test_zero_lesion_config_gives_empty_mask():
    cfg = SynthConfig(seed=9, n_subjects=10, dims=(24, 24, 24), n_rois=6,
                      lesion_count=(0, 0))
    atlas = gen_atlas(cfg)
    _, lesion, record = gen_subject(cfg, default_truth(), 0, atlas)
    assert lesion.labels.sum() == 0
    assert record.left_lesion_size == 0
    assert record.severity in ("normal", "unknown")


def test_score_direct_arithmetic():
    truth = TruthModel(causal_rois=(1,), betas=(15.0,),
                       gamma={c: 0.0 for c in core.SEVERITY_CATEGORIES},
                       delta=0.0, noise_sd=0.0, base=70.0)
    assert ground_truth_score({1: 1.0}, "normal", 0.0, truth) == pytest.approx(55.0)


def test_score_trivial_truth_is_base():
    truth = TruthModel(causal_rois=(), betas=(),
                       gamma={c: 0.0 for c in core.SEVERITY_CATEGORIES},
                       delta=0.0, noise_sd=0.0, base=80.0)
    assert ground_truth_score({}, "severe", 500.0, truth) == 80.0


def test_score_monotonicity():
    truth = default_truth()
    lo = ground_truth_score({1: 0.1, 2: 0.0, 3: 0.0}, "normal", 30.0, truth)
    hi = ground_truth_score({1: 0.6, 2: 0.0, 3: 0.0}, "normal", 30.0, truth)
    assert hi < lo  # more causal damage, lower score
    slow = ground_truth_score({1: 0.1, 2: 0.0, 3: 0.0}, "normal", 10.0, truth)
    assert slow < lo  # less recovery time, lower score
    sev = ground_truth_score({1: 0.1, 2: 0.0, 3: 0.0}, "severe", 30.0, truth)
    assert sev < lo


def test_score_requires_causal_loads():
    with pytest.raises(ValueError):
        ground_truth_score({1: 0.5}, "normal", 10.0, default_truth())


def test_severity_threshold_boundaries():
    cfg = SynthConfig()
    assert severity_from_load(0.55, cfg) == "severe"
    assert severity_from_load(0.549, cfg) == "moderate"
    assert severity_from_load(0.30, cfg) == "moderate"
    assert severity_from_load(0.299, cfg) == "mild"
    assert severity_from_load(0.10, cfg) == "mild"
    assert severity_from_load(0.099, cfg) == "normal"
    assert severity_from_load(0.0, cfg) == "normal"


@given(a=st.floats(0, 1), b=st.floats(0, 1))
def test_severity_monotone_in_load(a, b):
    cfg = SynthConfig()
    if a > b:
        a, b = b, a
    # larger load is never ranked less severe
    assert SEVERITY_FROM_LOAD.index(severity_from_load(b, cfg)) \
        <= SEVERITY_FROM_LOAD.index(severity_from_load(a, cfg))


def test_non_causal_damage_does_not_move_score():
    atlas = gen_atlas(SMALL)
    truth = TruthModel(causal_rois=(1, 2), betas=(30.0, 20.0),
                       gamma=default_truth().gamma, delta=2.0,
                       noise_sd=0.0, base=62.0)
    spare = 5  # not causal
    lesion_a = atlas.labels == spare
    # grow the non-causal lesion into another non-causal parcel
    lesion_b = lesion_a | (atlas.labels == 6)
    la = subject_loads(lesion_a, atlas, truth.causal_rois)
    lb = subject_loads(lesion_b, atlas, truth.causal_rois)
    assert la == lb == {1: 0.0, 2: 0.0}
    sa = ground_truth_score(la, "mild", 42.0, truth)
    sb = ground_truth_score(lb, "mild", 42.0, truth)
    assert sa == sb


def test_severity_mirrors_causal_load_unless_unknown():
    atlas = gen_atlas(SMALL)
    truth = default_truth()
    for seed in range(10):
        _, lesion, record = gen_subject(SMALL, truth, seed, atlas)
        total = sum(subject_loads(lesion.labels == 1, atlas,
                                  truth.causal_rois).values())
        if record.severity != "unknown":
            assert record.severity == severity_from_load(total, SMALL)


# ---------------------------------------------------------------------------
# Lesion loads and the left lesion size


def _block_atlas(dims=(4, 4, 4)):
    labels = np.zeros(dims, dtype=np.uint16)
    labels[0:2, 0:2, 0:2] = 7  # an 8-voxel ROI
    return core.LabelVolume(dims=dims, labels=labels,
                            label_names={3: "empty_roi", 7: "roi"})


def test_subject_loads_extremes_and_fraction():
    atlas = _block_atlas()
    disjoint = np.zeros(atlas.dims, dtype=bool)
    disjoint[3, 3, 3] = True
    partial = disjoint.copy()
    partial[0, 0, 0] = partial[1, 1, 1] = True
    assert subject_loads(atlas.labels == 7, atlas, [7]) == {7: 1.0}
    assert subject_loads(disjoint, atlas, [7]) == {7: 0.0}
    assert subject_loads(partial, atlas, [7]) == {7: 0.25}
    assert subject_loads(partial, atlas, []) == {}


@pytest.mark.parametrize("roi", [3, 9, 0, -1])
def test_subject_loads_refuse_an_roi_with_no_voxels(roi):
    # 3 is named but empty, 9 is no label, 0 is the background
    atlas = _block_atlas()
    with pytest.raises(ValueError, match=f"ROI {roi} has no voxels"):
        subject_loads(np.ones(atlas.dims, dtype=bool), atlas, [7, roi])


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_subject_load_times_roi_size_is_the_brute_force_count(seed):
    rng = np.random.default_rng(seed)
    dims = (6, 5, 7)
    atlas = core.LabelVolume(
        dims=dims, labels=rng.integers(0, 4, size=dims).astype(np.uint16))
    lesion = rng.integers(0, 2, size=dims).astype(bool)
    rois = atlas.present_labels()
    loads = subject_loads(lesion, atlas, rois)
    assert list(loads) == rois
    for roi in rois:
        n_roi = int(np.count_nonzero(atlas.labels == roi))
        brute = sum(1 for x, y, z in np.ndindex(dims)
                    if atlas.labels[x, y, z] == roi and lesion[x, y, z])
        assert abs(loads[roi] * n_roi - brute) < 1e-9


def test_left_lesion_size_counts_lesion_voxels_left_of_the_midline():
    cfg = SynthConfig(seed=471, n_subjects=10, dims=(33, 28, 25), n_rois=10)
    atlas = gen_atlas(cfg)
    on_the_midline = 0  # lesion voxels at x == 16, which count as right
    for seed in range(cfg.n_subjects):
        _, lesion, record = gen_subject(cfg, default_truth(), seed, atlas)
        xs = np.argwhere(lesion.labels == 1)[:, 0]
        assert record.left_lesion_size == sum(1 for x in xs if x < 33 // 2)
        on_the_midline += int(np.count_nonzero(xs == 16))
    assert on_the_midline


def test_cohort_records_match_streamed_subjects():
    atlas = gen_atlas(SMALL)
    records = cohort_records(SMALL, default_truth(), atlas)
    assert len(records) == SMALL.n_subjects
    for seed, record in enumerate(records):
        assert record == gen_subject(SMALL, default_truth(), seed, atlas)[2]
    assert len({r.id for r in records}) == len(records)


# SHA-256 of _cohort_digest(PINNED) as computed at commit 3e17cb3, whose
# atlas distances were float64; any change to a synthesized byte or record
# field changes it
PINNED = SynthConfig(seed=4242, n_subjects=10, dims=(28, 24, 20), n_rois=14,
                     n_tracts=5)
PINNED_SHA256 = \
    "6ccd33983ae94e532dd0ac67c74e3f9a710ee91b94d2f383a8946164b8f236d1"


def _cohort_digest(config, truth):
    """Both atlases with their names, every record field, and the first and
    last subjects' volume and lesion bytes."""
    h = hashlib.sha256()
    atlas = gen_atlas(config, "rois")
    for vol in (atlas, gen_atlas(config, "tracts")):
        h.update(vol.labels.astype("<u2").tobytes())
        h.update(json.dumps(sorted(vol.label_names.items())).encode())
    records = cohort_records(config, truth, atlas)
    h.update(json.dumps([dataclasses.asdict(r) for r in records]).encode())
    for seed in (0, config.n_subjects - 1):
        volume, lesion, record = gen_subject(config, truth, seed, atlas)
        assert record == records[seed]
        h.update(volume.data.astype("<f4").tobytes())
        h.update(lesion.labels.astype("<u2").tobytes())
    return h.hexdigest()


def test_synthesized_bytes_match_the_pinned_digest():
    assert _cohort_digest(PINNED, default_truth()) == PINNED_SHA256


def test_desk_cohort_aphasic_fraction(desk_cohort):
    frac = np.mean([core.outcome_label(r.score) for r in desk_cohort.records])
    assert abs(frac - 0.34) <= 0.05


def test_desk_cohort_left_lesion_dominance(desk_cohort):
    assert desk_cohort.total_lesioned > 0
    assert desk_cohort.left_lesioned / desk_cohort.total_lesioned >= 0.8


def test_desk_cohort_unknown_fraction(desk_cohort):
    frac = np.mean([r.severity == "unknown" for r in desk_cohort.records])
    assert abs(frac - 0.2) <= 0.06


def test_desk_cohort_all_severities_represented(desk_cohort):
    counts = {c: 0 for c in core.SEVERITY_CATEGORIES}
    for r in desk_cohort.records:
        counts[r.severity] += 1
    assert min(counts.values()) >= 5


def test_desk_cohort_recovery_times_in_range(desk_cohort):
    lo, hi = desk_cohort.config.recovery_range
    for r in desk_cohort.records:
        assert lo <= r.recovery_time <= hi


def test_config_refuses_a_hemisphere_without_room_for_its_roi_sites():
    # 1480 brain voxels, 740 per half: the right half would need 788 sites
    with pytest.raises(ValueError, match="n_rois 800 puts 788 ROI sites in "
                       "the right hemisphere, which holds 740 brain voxels"):
        SynthConfig(dims=(16, 16, 16), n_rois=800)
    with pytest.raises(ValueError, match="n_tracts 1481 exceeds the 1480 "
                       "brain voxels"):
        SynthConfig(dims=(16, 16, 16), n_tracts=1481)
    SynthConfig(dims=(16, 16, 16), n_rois=12 + 740, n_tracts=1480)


def test_config_validation():
    with pytest.raises(ValueError):
        SynthConfig(n_subjects=5)
    with pytest.raises(ValueError):
        SynthConfig(dims=(8, 32, 32))
    with pytest.raises(ValueError):
        SynthConfig(severity_thresholds=(0.3, 0.3, 0.1))
    with pytest.raises(ValueError):
        SynthConfig(left_bias=1.5)


def test_truth_validation():
    with pytest.raises(ValueError):
        TruthModel(causal_rois=(1, 2), betas=(1.0,), gamma=default_truth().gamma,
                   delta=0.0, noise_sd=1.0, base=60.0)
    with pytest.raises(ValueError):
        TruthModel(causal_rois=(1,), betas=(1.0,), gamma={"severe": 1.0},
                   delta=0.0, noise_sd=1.0, base=60.0)
    with pytest.raises(ValueError, match=r"causal_rois repeat ROIs \[1\]"):
        TruthModel(causal_rois=(1, 2, 1), betas=(1.0, 1.0, 1.0),
                   gamma=default_truth().gamma, delta=0.0, noise_sd=1.0,
                   base=60.0)
    with pytest.raises(ValueError, match=r"unknown categories \['Severe'\]"):
        TruthModel(causal_rois=(1,), betas=(1.0,),
                   gamma={**default_truth().gamma, "Severe": 1.0},
                   delta=0.0, noise_sd=1.0, base=60.0)


def test_truth_json_round_trip():
    t = default_truth()
    doc = json.loads(json.dumps(dataclasses.asdict(t)))
    assert TruthModel.from_json_dict(doc) == t
    c = SMALL
    doc = json.loads(json.dumps(dataclasses.asdict(c)))
    assert SynthConfig.from_json_dict(doc) == c


def test_write_cohort_round_trip(tmp_path):
    manifest = write_cohort(SMALL, default_truth(), tmp_path)
    assert len(manifest.subjects) == SMALL.n_subjects
    loaded = core.CohortManifest.load(tmp_path)
    assert loaded.to_json() == manifest.to_json()
    for rel in loaded.referenced_paths():
        assert (tmp_path / rel).is_file()
    atlas = core.read_volume(tmp_path / "atlas.vol")
    assert np.array_equal(atlas.labels, gen_atlas(SMALL, "rois").labels)
    rec = loaded.subjects[2]
    vol = core.read_volume(tmp_path / loaded.volume_paths[rec.id])
    want, lesion, _ = gen_subject(SMALL, default_truth(), 2, atlas)
    assert np.array_equal(vol.data, want.data)
    les = core.read_volume(tmp_path / loaded.lesion_paths[rec.id])
    assert np.array_equal(les.labels, lesion.labels)


# ---------------------------------------------------------------------------
# Broadcast grids reproduce the dense-grid formulas bit for bit


def _dense_background(config, rng):
    nx, ny, nz = config.dims
    phases = [rng.uniform(0, 2 * math.pi) for _ in range(3)]
    freqs = [rng.randint(1, 3) for _ in range(3)]
    x, y, z = np.mgrid[0:nx, 0:ny, 0:nz].astype(np.float64)
    bg = (0.55
          + 0.13 * np.cos(2 * math.pi * freqs[0] * x / nx + phases[0])
          + 0.11 * np.cos(2 * math.pi * freqs[1] * y / ny + phases[1])
          + 0.09 * np.cos(2 * math.pi * freqs[2] * z / nz + phases[2]))
    return np.clip(bg, 0.05, 0.95)


# 23 is not a multiple of the 8-row slab a 64 x 64 cross-section takes,
# and the last, 7-row slab holds lesion voxels
SLAB_REMAINDER_DIMS = (23, 64, 64)


@pytest.mark.parametrize("dims", GRID_DIMS + [SLAB_REMAINDER_DIMS])
def test_background_equals_dense_grid_formula(dims):
    """The slab-wise intensity volume equals the dense float64 grid's
    ``bg * mask``, times 0.3 in the lesion, cast to float32, byte for byte."""
    cfg = SynthConfig(seed=11, n_subjects=10, dims=dims)
    atlas = gen_atlas(cfg)
    mask = brain_mask(dims)
    step = max(1, synthcohort.SLAB_BYTES // (8 * dims[1] * dims[2]))
    last_slab_lesioned = False
    for subject in range(3):
        lesion, background, _ = synthcohort._draw(cfg, default_truth(),
                                                  subject, atlas)
        fast = synthcohort._intensity(cfg, background, mask, lesion)
        # the reference redraws the background after the lesions itself
        rng = CounterRng(cfg.seed, "subject", subject)
        assert np.array_equal(synthcohort._sample_lesion(cfg, rng, mask),
                              lesion)
        assert lesion.any()
        bg = _dense_background(cfg, rng)
        dense = bg * mask
        dense[lesion] = bg[lesion] * 0.3
        dense = dense.astype(np.float32)
        assert fast.dtype == np.float32 and fast.shape == dims
        assert fast.tobytes() == dense.tobytes()
        last_slab_lesioned |= lesion[dims[0] - dims[0] % step:].any()
    if dims == SLAB_REMAINDER_DIMS:
        assert dims[0] % step and last_slab_lesioned


@pytest.mark.parametrize("dims", GRID_DIMS)
def test_brain_mask_equals_dense_grid_formula(dims):
    nx, ny, nz = dims
    x, y, z = np.mgrid[0:nx, 0:ny, 0:nz].astype(np.float64)
    dense = (((x - (nx - 1) / 2) / (0.45 * nx)) ** 2
             + ((y - (ny - 1) / 2) / (0.45 * ny)) ** 2
             + ((z - (nz - 1) / 2) / (0.42 * nz)) ** 2) <= 1.0
    assert np.array_equal(brain_mask(dims), dense)


def test_brain_mask_computed_once_and_read_only():
    m = brain_mask((24, 24, 24))
    assert brain_mask([24, 24, 24]) is m
    with pytest.raises(ValueError):
        m[12, 12, 12] = False
