"""Synthetic cohort generator with a known ground-truth outcome rule.

Everything here is driven by the counter-based generator in ``rng``; a
(config.seed, subject_seed) pair pins down every voxel and record field, so
cohorts regenerate bit-identically and subjects can be built in parallel or
streamed one at a time without storing the whole cohort.

``_draw`` makes every draw of a subject's stream, in one fixed order:
lesions, background phases and frequencies, the unknown-severity
overwrite, recovery time, score noise.  It composes no volume, so the
records alone cost no intensity volume; ``gen_subject`` composes the
volume and lesion from its draws.  The atlases' Voronoi distances are
squared voxel offsets, computed exactly in integers.

The outcome rule is deliberately simple: damage to a small set of causal
atlas regions lowers the score, initial severity carries a penalty, longer
recovery time helps.  Nothing anatomical is being modeled.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

import numpy as np

from . import core
from .core import LabelVolume, SubjectRecord, Volume3D
from .rng import CounterRng

SEVERITY_FROM_LOAD = ("severe", "moderate", "mild", "normal")
N_LEFT_ROIS = 12  # ROI labels 1..12 lie in the left hemisphere


@dataclass(frozen=True)
class TruthModel:
    """Ground-truth scoring rule (the oracle the pipeline must rediscover)."""

    causal_rois: tuple[int, ...]
    betas: tuple[float, ...]  # score points lost per unit lesion load
    gamma: Mapping[str, float]  # severity penalty per category
    delta: float  # benefit per unit log(1 + recovery_time)
    noise_sd: float
    base: float

    def __post_init__(self):
        if len(self.betas) != len(self.causal_rois):
            raise ValueError("betas must align with causal_rois")
        if self.noise_sd < 0:
            raise ValueError("noise_sd must be >= 0")
        repeated = sorted({r for r in self.causal_rois
                           if self.causal_rois.count(r) > 1})
        if repeated:
            raise ValueError(f"causal_rois repeat ROIs {repeated}")
        missing = set(core.SEVERITY_CATEGORIES) - set(self.gamma)
        if missing:
            raise ValueError(f"gamma missing categories {sorted(missing)}")
        unknown = set(self.gamma) - set(core.SEVERITY_CATEGORIES)
        if unknown:
            raise ValueError(f"gamma has unknown categories {sorted(unknown)}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "TruthModel":
        return core.from_json_object(cls, d, "truth config")


def default_truth() -> TruthModel:
    # tuned so a 400-subject default-config cohort lands near 34% aphasic
    return TruthModel(
        causal_rois=(1, 2, 3),
        betas=(38.0, 30.0, 24.0),
        gamma={"severe": 12.0, "moderate": 8.0, "mild": 4.0,
               "normal": 0.0, "unknown": 6.0},
        delta=2.0,
        noise_sd=5.0,
        base=62.0,
    )


@dataclass(frozen=True)
class SynthConfig:
    seed: int = 2024
    n_subjects: int = 400
    dims: tuple[int, int, int] = (64, 64, 64)
    n_rois: int = 20  # labels 1..N_LEFT_ROIS left hemisphere, the rest right
    n_tracts: int = 12
    lesion_count: tuple[int, int] = (1, 3)
    lesion_radius: tuple[float, float] = (4.0, 11.0)  # ellipsoid semi-axes
    left_bias: float = 0.9  # probability a lesion center is left-hemisphere
    unknown_prob: float = 0.2  # chance severity is recorded as unknown
    recovery_range: tuple[float, float] = (7.0, 1000.0)  # days, log-uniform
    # total causal load thresholds for severe / moderate / mild
    severity_thresholds: tuple[float, float, float] = (0.55, 0.3, 0.1)

    def __post_init__(self):
        if self.n_subjects < 10:
            raise ValueError("n_subjects must be >= 10")
        if min(self.dims) < 16:
            raise ValueError("dims must be >= 16 per axis")
        if self.n_rois < 2:
            raise ValueError("n_rois must be >= 2")
        if self.n_tracts < 1:
            raise ValueError("n_tracts must be >= 1")
        if not 0 <= self.left_bias <= 1 or not 0 <= self.unknown_prob <= 1:
            raise ValueError("probabilities must lie in [0, 1]")
        lo, hi = self.lesion_count
        if not 0 <= lo <= hi:
            raise ValueError("bad lesion_count range")
        if self.lesion_radius[0] > self.lesion_radius[1] or self.lesion_radius[0] < 0:
            raise ValueError("bad lesion_radius range")
        if not 0 < self.recovery_range[0] <= self.recovery_range[1]:
            raise ValueError("recovery_range must satisfy 0 < low <= high, "
                             f"got {list(self.recovery_range)}")
        t = self.severity_thresholds
        if not t[0] > t[1] > t[2] > 0:
            raise ValueError("severity thresholds must be strictly decreasing")
        # atlas_sites draws distinct brain voxels until each site has one;
        # the left hemisphere of a 16^3 grid already holds 740 for its 12
        mask = brain_mask(self.dims)
        n_right = self.n_rois - min(N_LEFT_ROIS, self.n_rois)
        right = int(np.count_nonzero(mask[self.dims[0] // 2:]))
        if n_right > right:
            raise ValueError(
                f"n_rois {self.n_rois} puts {n_right} ROI sites in the right "
                f"hemisphere, which holds {right} brain voxels")
        if self.n_tracts > np.count_nonzero(mask):
            raise ValueError(f"n_tracts {self.n_tracts} exceeds the "
                             f"{np.count_nonzero(mask)} brain voxels")

    @classmethod
    def from_json_dict(cls, d: dict) -> "SynthConfig":
        return core.from_json_object(cls, d, "cohort config")


def require_atlas_rois(config: SynthConfig, truth: TruthModel) -> None:
    """Refuse a truth whose causal ROIs are not labels of the config's
    atlas.  Those are exactly 1..n_rois: every Voronoi site keeps its own
    voxel."""
    outside = [r for r in truth.causal_rois if not 1 <= r <= config.n_rois]
    if outside:
        raise ValueError(f"truth causal_rois {outside} are not atlas labels "
                         f"1..{config.n_rois} (cohort n_rois)")


# ---------------------------------------------------------------------------
# Atlas generation


def brain_mask(dims: tuple[int, int, int]) -> np.ndarray:
    """Ellipsoidal mask, semi-axes (0.45, 0.45, 0.42) of each extent.

    Computed once per ``dims`` and returned read-only.
    """
    return _brain_mask(tuple(int(d) for d in dims))


@functools.lru_cache(maxsize=8)
def _brain_mask(dims: tuple[int, int, int]) -> np.ndarray:
    nx, ny, nz = dims
    cx, cy, cz = (nx - 1) / 2, (ny - 1) / 2, (nz - 1) / 2
    ax, ay, az = 0.45 * nx, 0.45 * ny, 0.42 * nz
    x, y, z = _axes(dims)
    mask = ((x - cx) / ax) ** 2 + ((y - cy) / ay) ** 2 + ((z - cz) / az) ** 2 <= 1.0
    mask.flags.writeable = False
    return mask


def _axes(dims, start=(0, 0, 0)) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """float64 coordinate vectors shaped to broadcast like ``np.mgrid``.

    Elementwise arithmetic on these gives the same values as on the dense
    grid, and a broadcast sum ``(X + Y) + Z`` adds in the same order.
    """
    x0, y0, z0 = start
    nx, ny, nz = dims
    return (np.arange(x0, x0 + nx, dtype=np.float64)[:, None, None],
            np.arange(y0, y0 + ny, dtype=np.float64)[None, :, None],
            np.arange(z0, z0 + nz, dtype=np.float64)[None, None, :])


def atlas_sites(config: SynthConfig, kind: str = "rois") -> np.ndarray:
    """(n, 3) integer site voxels, distinct, inside the brain mask.

    For kind="rois" the first min(N_LEFT_ROIS, n) sites are constrained to
    the left hemisphere (x < nx/2), the rest to the right; tract sites are
    unconstrained.  Deterministic in config.seed.
    """
    if kind not in ("rois", "tracts"):
        raise ValueError(f"unknown atlas kind {kind!r}")
    n = config.n_rois if kind == "rois" else config.n_tracts
    nx, ny, nz = config.dims
    mask = brain_mask(config.dims)  # SynthConfig checked there is room
    n_left = min(N_LEFT_ROIS, n) if kind == "rois" else 0
    rng = CounterRng(config.seed, "atlas", kind)
    sites: list[tuple[int, int, int]] = []
    taken = set()
    for i in range(n):
        while True:
            x = rng.randint(0, nx - 1)
            y = rng.randint(0, ny - 1)
            z = rng.randint(0, nz - 1)
            if not mask[x, y, z] or (x, y, z) in taken:
                continue
            if kind == "rois":
                if i < n_left and x >= nx // 2:
                    continue
                if i >= n_left and x < nx // 2:
                    continue
            break
        taken.add((x, y, z))
        sites.append((x, y, z))
    return np.array(sites, dtype=np.int64)


def gen_atlas(config: SynthConfig, kind: str = "rois") -> LabelVolume:
    """Voronoi parcellation of the brain mask; ties go to the lowest label.

    Squared distances are exact, in the smallest signed integer type that
    holds the largest one the grid can reach (int16 up to 105^3 voxels).
    """
    reach = sum((n - 1) ** 2 for n in config.dims)
    dtype = next(t for t in (np.int16, np.int32, np.int64)
                 if reach <= np.iinfo(t).max)
    sites = atlas_sites(config, kind).astype(dtype)
    axes = [np.arange(n, dtype=dtype) for n in config.dims]

    def distance2(site, out=None):
        dx2, dy2, dz2 = ((axis - s) ** 2 for axis, s in zip(axes, site))
        return np.add((dx2[:, None] + dy2[None, :])[:, :, None], dz2,
                      out=out)

    best = distance2(sites[0])  # site 1 is nearest until another is closer
    labels = np.ones(config.dims, dtype=np.uint16)
    d2 = np.empty_like(best)
    closer = np.empty(config.dims, dtype=bool)
    for label, site in enumerate(sites[1:], start=2):
        distance2(site, out=d2)
        np.less(d2, best, out=closer)  # strict: the lower label wins ties
        np.minimum(best, d2, out=best)
        np.copyto(labels, label, where=closer)
    labels *= brain_mask(config.dims)  # 0 outside the brain
    prefix = "roi" if kind == "rois" else "tract"
    names = {i + 1: f"{prefix}{i + 1:02d}" for i in range(len(sites))}
    return LabelVolume(dims=config.dims, labels=labels, label_names=names)


# ---------------------------------------------------------------------------
# Subject generation


def ground_truth_score(loads: Mapping[int, float], severity: str,
                       recovery_time: float, truth: TruthModel,
                       noise: float = 0.0) -> float:
    """score = base - sum(beta_j * load_j) - gamma(severity)
    + delta * log(1 + recovery_time) + noise."""
    for roi in truth.causal_rois:
        if roi not in loads:
            raise ValueError(f"loads missing causal ROI {roi}")
    damage = sum(b * loads[r] for r, b in zip(truth.causal_rois, truth.betas))
    return (truth.base - damage - truth.gamma[severity]
            + truth.delta * math.log1p(recovery_time) + noise)


def severity_from_load(total_causal_load: float, config: SynthConfig) -> str:
    t_severe, t_moderate, t_mild = config.severity_thresholds
    if total_causal_load >= t_severe:
        return "severe"
    if total_causal_load >= t_moderate:
        return "moderate"
    if total_causal_load >= t_mild:
        return "mild"
    return "normal"


def _sample_lesion(config: SynthConfig, rng: CounterRng,
                   mask: np.ndarray) -> np.ndarray:
    nx, ny, nz = config.dims
    lesion = np.zeros(config.dims, dtype=bool)
    n_les = rng.randint(*config.lesion_count)
    r_lo, r_hi = config.lesion_radius
    for _ in range(n_les):
        go_left = rng.bernoulli(config.left_bias)
        while True:
            cx = rng.randint(0, nx - 1)
            cy = rng.randint(0, ny - 1)
            cz = rng.randint(0, nz - 1)
            if not mask[cx, cy, cz]:
                continue
            if go_left and cx >= nx // 2:
                continue
            break
        a = rng.uniform(r_lo, r_hi)
        b = rng.uniform(r_lo, r_hi)
        c = rng.uniform(r_lo, r_hi)
        if min(a, b, c) <= 0:
            continue
        x0, x1 = max(0, int(cx - a)), min(nx, int(cx + a) + 1)
        y0, y1 = max(0, int(cy - b)), min(ny, int(cy + b) + 1)
        z0, z1 = max(0, int(cz - c)), min(nz, int(cz + c) + 1)
        x, y, z = _axes((x1 - x0, y1 - y0, z1 - z0), start=(x0, y0, z0))
        inside = (((x - cx) / a) ** 2 + ((y - cy) / b) ** 2
                  + ((z - cz) / c) ** 2) <= 1.0
        lesion[x0:x1, y0:y1, z0:z1] |= inside
    return lesion & mask


# Largest float64 slab ``_intensity`` composes at once.
SLAB_BYTES = 256 * 1024


def _intensity(config: SynthConfig, background: tuple[tuple, tuple],
               mask: np.ndarray, lesion_mask: np.ndarray) -> np.ndarray:
    """The subject's float32 intensity volume: a smooth background in
    [0.05, 0.95] inside the brain mask, scaled by 0.3 in the lesion, 0
    outside.  ``background`` holds the drawn (phases, freqs).

    Each voxel is ``clip(((0.55 + X) + Y) + Z)`` in float64, then times 1
    or 0 for the mask (exact), times 0.3 in the lesion, rounded once to
    float32: the same values as composing the whole float64 grid first.
    The x+y term is built once; the volume is written one x-slab at a
    time, each at most ``SLAB_BYTES`` of float64 or else one x-row.
    """
    nx, ny, nz = config.dims
    phases, freqs = background
    x, y, z = _axes(config.dims)
    xy = (0.55
          + 0.13 * np.cos(2 * math.pi * freqs[0] * x / nx + phases[0])
          + 0.11 * np.cos(2 * math.pi * freqs[1] * y / ny + phases[1]))
    zterm = 0.09 * np.cos(2 * math.pi * freqs[2] * z / nz + phases[2])
    out = np.empty(config.dims, dtype=np.float32)
    step = max(1, min(nx, SLAB_BYTES // (8 * ny * nz)))
    slab = np.empty((step, ny, nz))
    for x0 in range(0, nx, step):
        rows = slice(x0, x0 + step)
        part = slab[:min(step, nx - x0)]
        np.add(xy[rows], zterm, out=part)
        np.clip(part, 0.05, 0.95, out=part)
        part *= mask[rows]
        np.multiply(part, 0.3, out=part, where=lesion_mask[rows])
        out[rows] = part
    return out


def _draw(config: SynthConfig, truth: TruthModel, subject_seed: int,
          atlas: LabelVolume,
          ) -> tuple[np.ndarray, tuple[tuple, tuple], SubjectRecord]:
    """Every draw of one subject, in the stream's fixed order: the boolean
    lesion mask, the background's (phases, freqs) and the record."""
    rng = CounterRng(config.seed, "subject", subject_seed)
    lesion_mask = _sample_lesion(config, rng, brain_mask(config.dims))
    background = (tuple(rng.uniform(0, 2 * math.pi) for _ in range(3)),
                  tuple(rng.randint(1, 3) for _ in range(3)))

    loads = subject_loads(lesion_mask, atlas, truth.causal_rois)
    total = sum(loads.values())
    severity = severity_from_load(total, config)
    if rng.bernoulli(config.unknown_prob):
        severity = "unknown"
    recovery_time = rng.log_uniform(*config.recovery_range)
    noise = rng.normal(0.0, truth.noise_sd) if truth.noise_sd > 0 else 0.0
    score = ground_truth_score(loads, severity, recovery_time, truth, noise)

    record = SubjectRecord(
        id=f"s{subject_seed:04d}",
        severity=severity,
        recovery_time=recovery_time,
        left_lesion_size=int(np.count_nonzero(
            lesion_mask[:config.dims[0] // 2])),  # the left hemisphere
        score=score,
    )
    return lesion_mask, background, record


def gen_subject(config: SynthConfig, truth: TruthModel, subject_seed: int,
                atlas: LabelVolume,
                ) -> tuple[Volume3D, LabelVolume, SubjectRecord]:
    """Build one subject from its draws (``_draw``): intensity volume,
    lesion mask, tabular record, bit-identical for a given
    (config.seed, subject_seed).  ``atlas`` is the cohort's ROI atlas,
    ``gen_atlas(config)``.
    """
    lesion_mask, background, record = _draw(config, truth, subject_seed,
                                            atlas)
    volume = Volume3D(dims=config.dims, data=_intensity(
        config, background, brain_mask(config.dims), lesion_mask))
    lesion = LabelVolume(dims=config.dims,
                         labels=lesion_mask.astype(np.uint16),
                         label_names={1: "lesion"})
    return volume, lesion, record


def subject_loads(lesion_mask: np.ndarray, atlas: LabelVolume,
                  rois: Sequence[int]) -> dict[int, float]:
    """Lesion load per ROI: the fraction of the ROI's atlas voxels that the
    boolean ``lesion_mask`` covers.  An ROI with no voxels is refused."""
    hits = np.bincount(atlas.labels[lesion_mask],
                       minlength=max((0, *rois)) + 1)
    sizes = atlas.label_counts
    loads = {}
    for roi in rois:
        n_roi = int(sizes[roi]) if 0 < roi < len(sizes) else 0
        if not n_roi:
            raise ValueError(f"ROI {roi} has no voxels in the atlas")
        loads[roi] = int(hits[roi]) / n_roi
    return loads


def cohort_records(config: SynthConfig, truth: TruthModel,
                   atlas: LabelVolume) -> list[SubjectRecord]:
    """The cohort's records, drawn without composing any volume."""
    return [_draw(config, truth, i, atlas)[2]
            for i in range(config.n_subjects)]


def write_cohort(config: SynthConfig, truth: TruthModel,
                 out_dir: str | Path) -> core.CohortManifest:
    """Write atlas, tract atlas, per-subject volumes, and manifest.json;
    subject files that an earlier cohort left there are deleted."""
    out_dir = Path(out_dir)
    (out_dir / "volumes").mkdir(parents=True, exist_ok=True)
    (out_dir / "lesions").mkdir(exist_ok=True)
    atlas = gen_atlas(config, "rois")
    tracts = gen_atlas(config, "tracts")
    core.write_volume(atlas, out_dir / "atlas.vol")
    core.write_volume(tracts, out_dir / "tracts.vol")
    subjects = []
    volume_paths = {}
    lesion_paths = {}
    for i in range(config.n_subjects):
        volume, lesion, record = gen_subject(config, truth, i, atlas)
        vp = f"volumes/{record.id}.vol"
        lp = f"lesions/{record.id}.vol"
        core.write_volume(volume, out_dir / vp)
        core.write_volume(lesion, out_dir / lp)
        subjects.append(record)
        volume_paths[record.id] = vp
        lesion_paths[record.id] = lp
    kept = {*volume_paths.values(), *lesion_paths.values()}
    for sub in ("volumes", "lesions"):  # files an earlier cohort left
        for stale in (out_dir / sub).glob("*.vol"):
            if f"{sub}/{stale.name}" not in kept:
                stale.unlink()
    manifest = core.CohortManifest(
        subjects=subjects,
        volume_paths=volume_paths,
        lesion_paths=lesion_paths,
        atlas_path="atlas.vol",
        atlas_labels=dict(atlas.label_names),
        tract_atlas_path="tracts.vol",
        tract_labels=dict(tracts.label_names),
        seed=config.seed,
        dims=config.dims,
    )
    manifest.save(out_dir)
    return manifest
