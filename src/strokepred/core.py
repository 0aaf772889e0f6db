"""Domain types, volume file I/O and outcome labeling.

Volumes are stored on disk in the self-describing "VOL1" binary layout:

    offset  size  field
    0       4     magic b"VOL1"
    4       4     nx (u32 little-endian)
    8       4     ny
    12      4     nz
    16      1     dtype code: 0 = float32 intensities, 1 = uint16 labels
    17      15    zero padding (header padded to a 16-byte boundary)
    32      -     payload, little-endian, x-fastest (index = x + nx*(y + ny*z))

All multi-byte integers are little-endian.  In memory a volume holds
exactly its VOL1 payload dtype, native-endian: a ``Volume3D``'s ``data``
is float32 and a ``LabelVolume``'s ``labels`` uint16, each indexed
``[x, y, z]``.  Both refuse an array of any other dtype.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import struct
import sys
import types
import typing
from collections.abc import Mapping
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"VOL1"
HEADER_SIZE = 32
DTYPE_FLOAT32 = 0
DTYPE_UINT16 = 1

SEVERITY_CATEGORIES = ("severe", "moderate", "mild", "normal", "unknown")

APHASIA_THRESHOLD = 60.0

MANIFEST_VERSION = 1


class FormatError(ValueError):
    """Malformed volume/image file; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


class DimensionMismatchError(ValueError):
    pass


@functools.cache
def field_types(cls) -> dict:
    """Field name -> resolved type annotation of the dataclass ``cls``."""
    return typing.get_type_hints(cls)


def _fits(value, hint) -> bool:
    """Whether the parsed JSON ``value`` is of the type ``hint``: an int is
    never a bool, a float is a finite int or float (``json`` parses NaN and
    Infinity, and 1e400 as inf), a tuple or list is a JSON array (of
    the annotated length when fixed), a dict's int keys are digit strings
    and a dataclass is a JSON object; other hints are not checked."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return any(_fits(value, arm) for arm in args)
    if hint is float:
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    if origin in (tuple, list):
        if type(value) is not list:
            return False
        if origin is tuple and args[-1:] != (...,):
            return len(value) == len(args) and all(map(_fits, value, args))
        return all(_fits(item, args[0]) for item in value)
    if origin in (dict, Mapping):
        key_ok = str.isdigit if args[0] is int else (lambda key: True)
        return type(value) is dict and all(
            key_ok(key) and _fits(item, args[1]) for key, item in value.items())
    if dataclasses.is_dataclass(hint):
        hint = dict
    return not isinstance(hint, type) or type(value) is hint


def check_json(doc, hints: dict, what: str, required=()) -> dict:
    """``doc`` if it is a JSON object whose keys all name entries of
    ``hints``, holds every ``required`` key, and whose values are of their
    hinted types; else a ValueError naming ``what`` and the key."""
    if not isinstance(doc, dict):
        raise ValueError(f"{what} must be a JSON object, "
                         f"not {type(doc).__name__}")
    for key in required:
        if key not in doc:
            raise ValueError(f"{what} has no key {key!r}")
    for key, value in doc.items():
        hint = hints.get(key)
        if hint is None:
            raise ValueError(f"unknown {what} key {key!r}")
        if not _fits(value, hint):
            name = hint.__name__ if isinstance(hint, type) else str(hint)
            raise ValueError(f"{what} key {key!r} must hold "
                             f"{name.replace('typing.', '')}, not {value!r}")
    return doc


def _from_json(value, hint, key: str):
    """The checked JSON ``value`` of field ``key`` as its annotated type:
    a tuple hint takes a tuple, a float hint a float, a dataclass hint a
    nested config object and a union the arm the value fits; any other
    value is kept as parsed."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin in (typing.Union, types.UnionType):
        return _from_json(value, next(a for a in args if _fits(value, a)), key)
    if hint is float:
        return float(value)
    if origin is tuple:
        hints = args[:1] * len(value) if args[-1:] == (...,) else args
        return tuple(_from_json(v, h, key) for v, h in zip(value, hints))
    if dataclasses.is_dataclass(hint):
        return from_json_object(hint, value, f"{key} config")
    return value


def from_json_object(cls, doc, what: str):
    """``cls(**doc)`` for the dataclass ``cls`` from a parsed JSON config.

    ``doc`` must pass ``check_json`` against the field annotations of
    ``cls``, and each value is converted by its annotation (``_from_json``),
    so ``dataclasses.asdict`` of a config round-trips through JSON.  A wrong
    shape or type raises ValueError naming ``what``, never TypeError.
    """
    hints = field_types(cls)
    kw = {key: _from_json(value, hints[key], key)
          for key, value in check_json(doc, hints, what).items()}
    try:
        return cls(**kw)
    except TypeError as exc:
        raise ValueError(f"bad {what}: {exc}") from exc


@dataclass(frozen=True)
class Volume3D:
    """Scalar intensity volume, values in [0, 1]; float32 data only."""

    dims: tuple[int, int, int]
    data: np.ndarray  # shape dims, float32

    def __post_init__(self):
        nx, ny, nz = self.dims
        if self.data.shape != (nx, ny, nz):
            raise DimensionMismatchError(
                f"data shape {self.data.shape} != dims {self.dims}")
        if self.data.dtype != np.float32:
            raise ValueError(f"volume data must be float32, not "
                             f"{self.data.dtype}")
        if not np.all(np.isfinite(self.data)):
            raise ValueError("volume intensities must be finite")
        if self.data.size and (self.data.min() < 0.0 or self.data.max() > 1.0):
            raise ValueError("volume intensities must lie in [0, 1]")
        self.data.flags.writeable = False


@dataclass(frozen=True)
class LabelVolume:
    """Integer label volume; 0 is background; uint16 labels only.

    The labels are read-only, so what follows from them alone is computed
    once, on first use, and kept read-only: ``label_counts``, the ROI
    layouts' ``crop_table`` and the pixel maps' voxel index
    ``label_voxels``."""

    dims: tuple[int, int, int]
    labels: np.ndarray  # shape dims, uint16
    label_names: dict[int, str] = field(default_factory=dict)

    def __post_init__(self):
        nx, ny, nz = self.dims
        if self.labels.shape != (nx, ny, nz):
            raise DimensionMismatchError(
                f"labels shape {self.labels.shape} != dims {self.dims}")
        if self.labels.dtype != np.uint16:
            raise ValueError(f"labels must be uint16, not {self.labels.dtype}")
        names = dict(self.label_names)
        top = int(self.labels.max()) if self.labels.size else 0
        if not all(lab in names for lab in range(1, top + 1)):
            for lab in self.present_labels():
                names.setdefault(lab, f"label_{lab}")
        object.__setattr__(self, "label_names", names)
        self.labels.flags.writeable = False

    @functools.cached_property
    def label_counts(self) -> np.ndarray:
        """Voxels per label value, 0..max label (read-only, counted once)."""
        counts = np.bincount(self.labels.ravel())
        counts.flags.writeable = False
        return counts

    @functools.cached_property
    def crop_table(self) -> Mapping[int, tuple[tuple[int, ...], ...]]:
        """Read-only map from every label value that occurs, background
        included, to its crops (label, z, x0, x1, y0, y1): the bounding box
        of the label on each axial slice it occupies, z ascending.

        Built once, in one pass: a label's x extent on a slice is reached at
        a voxel that starts one of its runs along y, and its y extent at one
        that starts a run along x, so only run starts are reduced."""
        nx, ny, nz = self.dims
        present = np.flatnonzero(self.label_counts)
        dense = np.zeros(self.label_counts.size, dtype=np.intp)
        dense[present] = np.arange(present.size)
        flat = self.labels.ravel()
        lo = np.full((2, present.size * nz), max(nx, ny))  # per (label, z)
        hi = np.full((2, present.size * nz), -1)
        for axis in (0, 1):  # x, then y
            ahead, behind = [slice(None)] * 3, [slice(None)] * 3
            ahead[1 - axis], behind[1 - axis] = slice(1, None), slice(None, -1)
            starts = np.ones(self.dims, dtype=bool)
            np.not_equal(self.labels[tuple(ahead)], self.labels[tuple(behind)],
                         out=starts[tuple(ahead)])
            index = np.flatnonzero(starts)
            coord = index // (ny * nz) if axis == 0 else index // nz % ny
            key = dense[flat[index]] * nz + index % nz
            np.minimum.at(lo[axis], key, coord)
            np.maximum.at(hi[axis], key, coord)
        found = np.flatnonzero(hi[0] >= 0)
        rows = np.stack([present[found // nz], found % nz, lo[0, found],
                         hi[0, found] + 1, lo[1, found], hi[1, found] + 1])
        return types.MappingProxyType({
            label: tuple(map(tuple, crops)) for label, crops in
            itertools.groupby(rows.T.tolist(), key=lambda row: row[0])})

    @functools.cached_property
    def label_voxels(self) -> np.ndarray:
        """Flat indices into ``labels.ravel()`` of every nonzero voxel,
        grouped by label ascending and ascending within a label (read-only,
        int32 when they fit); ``voxels_of`` slices out one label's."""
        flat = self.labels.ravel()
        index = np.flatnonzero(flat)
        if flat.size <= np.iinfo(np.int32).max:
            index = index.astype(np.int32)
        index = index[np.argsort(flat[index], kind="stable")]
        index.flags.writeable = False
        return index

    def voxels_of(self, label: int) -> np.ndarray:
        """Flat indices of the voxels of nonzero ``label``, ascending;
        empty for a label that does not occur."""
        counts = self.label_counts
        if not 0 < label < counts.size:
            return self.label_voxels[:0]
        start = int(counts[1:label].sum())
        return self.label_voxels[start:start + int(counts[label])]

    def present_labels(self) -> list[int]:
        """Nonzero labels that occur, ascending."""
        return [int(v) for v in np.flatnonzero(self.label_counts[1:]) + 1]


@dataclass
class SubjectRecord:
    """Tabular row for one subject."""

    id: str
    severity: str
    recovery_time: float  # days since stroke at assessment
    left_lesion_size: int  # damaged voxels in the left hemisphere
    score: float  # spoken picture description T-score
    group: int | None = None  # 1..5 once partitioned

    def __post_init__(self):
        if self.severity not in SEVERITY_CATEGORIES:
            raise ValueError(f"unknown severity category {self.severity!r}")
        if not np.isfinite(self.score):
            raise ValueError("score must be finite")
        if self.recovery_time < 0:
            raise ValueError("recovery_time must be >= 0")
        if self.left_lesion_size < 0:
            raise ValueError("left_lesion_size must be >= 0")


def outcome_label(score: float) -> int:
    """1 = aphasic (score strictly below 60), 0 = non-aphasic."""
    if not np.isfinite(score):
        raise ValueError("score must be finite")
    return 1 if score < APHASIA_THRESHOLD else 0


# ---------------------------------------------------------------------------
# VOL1 file format


def write_volume(volume: Volume3D | LabelVolume, path: str | Path) -> None:
    """Serialize a volume to the VOL1 binary layout (see module docstring)."""
    path = Path(path)
    nx, ny, nz = volume.dims
    if isinstance(volume, Volume3D):
        code = DTYPE_FLOAT32
        payload = np.ascontiguousarray(
            volume.data.transpose(2, 1, 0), dtype="<f4").tobytes()
    else:
        code = DTYPE_UINT16
        payload = np.ascontiguousarray(
            volume.labels.transpose(2, 1, 0), dtype="<u2").tobytes()
    header = MAGIC + struct.pack("<IIIB", nx, ny, nz, code)
    header += b"\x00" * (HEADER_SIZE - len(header))
    path.write_bytes(header + payload)


def read_volume(path: str | Path,
                label_names: dict[int, str] | None = None) -> Volume3D | LabelVolume:
    """Parse a VOL1 file; dtype code selects Volume3D vs LabelVolume."""
    raw = Path(path).read_bytes()
    if len(raw) < HEADER_SIZE:
        raise FormatError("truncated header", len(raw))
    if raw[:4] != MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}", 0)
    nx, ny, nz, code = struct.unpack("<IIIB", raw[4:17])
    if min(nx, ny, nz) == 0 or nx * ny * nz > 2**31:
        raise FormatError(f"dims ({nx}, {ny}, {nz}) out of range", 4)
    if code not in (DTYPE_FLOAT32, DTYPE_UINT16):
        raise FormatError(f"unknown dtype code {code}", 16)
    padding = raw[17:HEADER_SIZE]
    if padding.strip(b"\x00"):
        raise FormatError("nonzero header padding",
                          17 + len(padding) - len(padding.lstrip(b"\x00")))
    itemsize = 4 if code == DTYPE_FLOAT32 else 2
    expected = HEADER_SIZE + nx * ny * nz * itemsize
    if len(raw) != expected:
        raise FormatError(
            f"payload length {len(raw) - HEADER_SIZE} != expected {expected - HEADER_SIZE}",
            min(len(raw), expected))
    dims = (nx, ny, nz)  # copies below are C-ordered, so ravel() is a view
    if code == DTYPE_FLOAT32:
        data = np.frombuffer(raw, dtype="<f4", offset=HEADER_SIZE)
        bad = np.flatnonzero(~((data >= 0.0) & (data <= 1.0)))  # NaN too
        if len(bad):
            value = float(data[bad[0]])
            raise FormatError(
                f"intensity {value} outside [0, 1]" if np.isfinite(value)
                else f"non-finite intensity {value}",
                HEADER_SIZE + 4 * int(bad[0]))
        data = data.reshape(nz, ny, nx).transpose(2, 1, 0)
        return Volume3D(dims=dims, data=data.astype(np.float32, order="C"))
    labels = np.frombuffer(raw, dtype="<u2", offset=HEADER_SIZE)
    labels = labels.reshape(nz, ny, nx).transpose(2, 1, 0)
    return LabelVolume(dims=dims, labels=labels.astype(np.uint16, order="C"),
                       label_names=label_names or {})


# ---------------------------------------------------------------------------
# Cohort manifest


# the manifest.json keys; all but the two tract keys are required
_MANIFEST_KEYS = ("subjects", "atlas_path", "atlas_labels", "seed", "dims",
                  "version", "tract_atlas_path", "tract_labels")


@dataclass
class CohortManifest:
    """Index of a cohort directory: subject records plus file references.

    Serialized as JSON (manifest.json); volume paths are relative to the
    manifest's directory.
    """

    subjects: list[SubjectRecord]
    volume_paths: dict[str, str]
    lesion_paths: dict[str, str]
    atlas_path: str
    atlas_labels: dict[int, str]
    tract_atlas_path: str | None = None
    tract_labels: dict[int, str] = field(default_factory=dict)
    seed: int = 0
    dims: tuple[int, int, int] = (64, 64, 64)
    version: int = MANIFEST_VERSION

    def __post_init__(self):
        ids = [s.id for s in self.subjects]
        if len(set(ids)) != len(ids):
            raise ValueError("subject ids must be unique")

    def to_json(self) -> str:
        doc = {key: getattr(self, key) for key in _MANIFEST_KEYS[1:]}
        for key in ("atlas_labels", "tract_labels"):
            doc[key] = {str(k): v for k, v in doc[key].items()}
        doc["subjects"] = [{**dataclasses.asdict(s),
                            "volume": self.volume_paths[s.id],
                            "lesion": self.lesion_paths[s.id]}
                           for s in self.subjects]
        return json.dumps(doc, indent=2, sort_keys=True)

    @classmethod
    def from_json(cls, text: str, where: str) -> "CohortManifest":
        """Parse manifest JSON, checked against the field annotations; a
        missing key or a wrong type raises ValueError naming ``where`` and
        the key."""
        what = f"cohort manifest {where}"
        hints = field_types(cls)
        doc = check_json(json.loads(text),
                         {key: hints[key] for key in _MANIFEST_KEYS}, what,
                         required=_MANIFEST_KEYS[:-2])
        row_hints = {**field_types(SubjectRecord), "volume": str,
                     "lesion": str}
        rows = [check_json(row, row_hints, f"{what} subject {i}",
                           required=row_hints)
                for i, row in enumerate(doc.pop("subjects"))]
        for i, row in enumerate(rows):  # ids name the files explain writes
            if row["id"] in ("", ".", "..") or {"/", "\\"} & set(row["id"]):
                raise ValueError(f"{what} subject {i}: id {row['id']!r} is "
                                 "not a file name")
        paths = {key: {row["id"]: row.pop(key) for row in rows}
                 for key in ("volume", "lesion")}
        for key in ("atlas_labels", "tract_labels"):
            doc[key] = {int(k): v for k, v in doc.get(key, {}).items()}
            for name in doc[key].values():  # an unquoted "\r" splits a CSV row
                if not name.isprintable():
                    raise ValueError(f"{what} key {key!r}: label name "
                                     f"{name!r} is not printable")
        return cls(subjects=[SubjectRecord(**row) for row in rows],
                   volume_paths=paths["volume"], lesion_paths=paths["lesion"],
                   **{**doc, "dims": tuple(doc["dims"])})

    def save(self, directory: str | Path) -> Path:
        path = Path(directory) / "manifest.json"
        path.write_text(self.to_json())
        return path

    @classmethod
    def load(cls, directory: str | Path) -> "CohortManifest":
        path = Path(directory) / "manifest.json"
        manifest = cls.from_json(path.read_text(), str(path))
        missing = [p for p in manifest.referenced_paths()
                   if not (path.parent / p).exists()]
        if missing:
            raise FileNotFoundError(
                f"manifest references missing files: {missing[:5]}")
        return manifest

    def referenced_paths(self) -> list[str]:
        paths = [self.atlas_path]
        if self.tract_atlas_path:
            paths.append(self.tract_atlas_path)
        for s in self.subjects:
            paths.append(self.volume_paths[s.id])
            paths.append(self.lesion_paths[s.id])
        return paths
