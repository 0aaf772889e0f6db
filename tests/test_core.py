import dataclasses
import json
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from strokepred import core, synthcohort
from strokepred.core import (
    DimensionMismatchError,
    FormatError,
    LabelVolume,
    SubjectRecord,
    Volume3D,
    outcome_label,
    read_volume,
    write_volume,
)


# --- file format -----------------------------------------------------------

def test_roundtrip_small_volume(tmp_path):
    vol = Volume3D(dims=(2, 2, 2), data=np.full((2, 2, 2), 0.5, dtype=np.float32))
    path = tmp_path / "v.vol"
    write_volume(vol, path)
    back = read_volume(path)
    assert isinstance(back, Volume3D)
    assert back.dims == (2, 2, 2)
    assert np.array_equal(back.data, vol.data)


def test_bad_magic_raises_format_error(tmp_path):
    path = tmp_path / "bad.vol"
    path.write_bytes(b"XXXX" + b"\x00" * 60)
    with pytest.raises(FormatError) as err:
        read_volume(path)
    assert err.value.offset == 0


def test_truncated_payload_reports_offset(tmp_path):
    vol = Volume3D(dims=(4, 4, 4), data=np.zeros((4, 4, 4), dtype=np.float32))
    path = tmp_path / "t.vol"
    write_volume(vol, path)
    path.write_bytes(path.read_bytes()[:-8])
    with pytest.raises(FormatError):
        read_volume(path)


@pytest.mark.parametrize("value,index,what", [
    (np.nan, 2, "non-finite"), (np.inf, 5, "non-finite"),
    (-np.inf, 0, "non-finite"), (1.5, 7, "outside"), (-0.25, 3, "outside")])
def test_float_payload_out_of_range_reports_first_offset(tmp_path, value,
                                                         index, what):
    vol = Volume3D(dims=(2, 2, 2), data=np.full((2, 2, 2), 0.5, dtype=np.float32))
    path = tmp_path / "v.vol"
    write_volume(vol, path)
    raw = bytearray(path.read_bytes())
    payload = np.frombuffer(raw, dtype="<f4", offset=core.HEADER_SIZE).copy()
    payload[index] = value
    payload[-1] = 2.0  # a later bad value does not mask the first
    raw[core.HEADER_SIZE:] = payload.tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(FormatError, match=what) as err:
        read_volume(path)
    assert err.value.offset == 32 + 4 * index


def test_dim_overflow_rejected(tmp_path):
    header = core.MAGIC + np.array([2**20, 2**20, 2**20], dtype="<u4").tobytes() + b"\x00" * 16
    path = tmp_path / "o.vol"
    path.write_bytes(header)
    with pytest.raises(FormatError):
        read_volume(path)


def test_file_size_formula(tmp_path):
    # header bytes + itemsize * voxel count, from the documented layout
    vol = Volume3D(dims=(64, 64, 64), data=np.zeros((64, 64, 64), dtype=np.float32))
    path = tmp_path / "big.vol"
    write_volume(vol, path)
    assert path.stat().st_size == core.HEADER_SIZE + 4 * 64**3


def test_payload_is_x_fastest(tmp_path):
    data = np.zeros((3, 2, 2), dtype=np.float32)
    data[1, 0, 0] = 0.25  # second element in x-fastest order
    vol = Volume3D(dims=(3, 2, 2), data=data)
    path = tmp_path / "x.vol"
    write_volume(vol, path)
    payload = np.frombuffer(path.read_bytes()[core.HEADER_SIZE:], dtype="<f4")
    assert payload[1] == 0.25


@settings(max_examples=30, deadline=None)
@given(
    dims=st.tuples(st.integers(1, 12), st.integers(1, 12), st.integers(1, 12)),
    kind=st.sampled_from(["intensity", "labels"]),
    seed=st.integers(0, 2**32 - 1),
)
def test_roundtrip_property(tmp_path_factory, dims, kind, seed):
    rng = np.random.default_rng(seed)
    path = tmp_path_factory.mktemp("vols") / "v.vol"
    if kind == "intensity":
        data = rng.random(dims, dtype=np.float32)
        vol = Volume3D(dims=dims, data=data)
        write_volume(vol, path)
        back = read_volume(path)
        assert np.array_equal(back.data, vol.data)
    else:
        labels = rng.integers(0, 5, size=dims).astype(np.uint16)
        vol = LabelVolume(dims=dims, labels=labels)
        write_volume(vol, path)
        back = read_volume(path)
        assert np.array_equal(back.labels, vol.labels)


def test_roundtrip_dim_128(tmp_path):
    rng = np.random.default_rng(0)
    data = rng.random((128, 3, 2), dtype=np.float32)
    vol = Volume3D(dims=(128, 3, 2), data=data)
    path = tmp_path / "v128.vol"
    write_volume(vol, path)
    assert np.array_equal(read_volume(path).data, data)


def test_volumes_refuse_an_array_of_another_shape():
    with pytest.raises(DimensionMismatchError):
        Volume3D(dims=(4, 4, 5), data=np.zeros((4, 4, 4), dtype=np.float32))
    with pytest.raises(DimensionMismatchError):
        LabelVolume(dims=(4, 4, 5), labels=np.zeros((4, 4, 4), dtype=np.uint16))


# --- lesion size -----------------------------------------------------------
# A record's left_lesion_size counts the lesion voxels with x < nx // 2;
# gen_subject is given a drawn lesion whose voxels are known.

def left_lesion_size_of(monkeypatch, dims, lesion_mask):
    config = synthcohort.SynthConfig(seed=5, n_subjects=10, dims=dims,
                                     n_rois=4)
    monkeypatch.setattr(synthcohort, "_sample_lesion",
                        lambda config, rng, mask: lesion_mask)
    _, lesion, record = synthcohort.gen_subject(
        config, synthcohort.default_truth(), 0, synthcohort.gen_atlas(config))
    assert np.array_equal(lesion.labels, lesion_mask)
    return record.left_lesion_size


def test_lesion_size_full_overlap(monkeypatch):
    dims = (17, 16, 16)
    # a lesion filling the grid covers the whole left half, x < 8
    assert left_lesion_size_of(monkeypatch, dims,
                               np.ones(dims, dtype=bool)) == 8 * 16 * 16


def test_lesion_size_handcrafted(monkeypatch):
    dims = (17, 16, 16)
    coords = [(0, 0, 0), (7, 2, 3), (0, 15, 1), (8, 0, 0), (16, 15, 15)]
    lesion_mask = np.zeros(dims, dtype=bool)
    for x, y, z in coords:
        lesion_mask[x, y, z] = True
    expected = sum(1 for (x, _, _) in coords if x < 17 // 2)
    assert expected == 3  # the midline x == 8 counts as right
    assert left_lesion_size_of(monkeypatch, dims, lesion_mask) == expected


# --- outcome labeling ------------------------------------------------------

@pytest.mark.parametrize("score,expected", [(59.9, 1), (60.0, 0), (75.0, 0)])
def test_outcome_label_threshold(score, expected):
    assert outcome_label(score) == expected


def test_outcome_label_rejects_nonfinite():
    with pytest.raises(ValueError):
        outcome_label(float("nan"))


@settings(max_examples=50, deadline=None)
@given(
    s1=st.floats(min_value=-50, max_value=150, allow_nan=False),
    s2=st.floats(min_value=-50, max_value=150, allow_nan=False),
)
def test_outcome_label_monotone(s1, s2):
    lo, hi = min(s1, s2), max(s1, s2)
    # a lower score can never look healthier than a higher one
    assert outcome_label(lo) >= outcome_label(hi)


# --- records & manifest ----------------------------------------------------

def test_subject_record_validation():
    with pytest.raises(ValueError):
        SubjectRecord(id="s", severity="bogus", recovery_time=1,
                      left_lesion_size=0, score=60.0)
    with pytest.raises(ValueError):
        SubjectRecord(id="s", severity="mild", recovery_time=1,
                      left_lesion_size=0, score=float("inf"))


def test_manifest_roundtrip(tmp_path):
    from strokepred.core import CohortManifest

    records = [
        SubjectRecord(id="s000", severity="mild", recovery_time=10.0,
                      left_lesion_size=5, score=61.5, group=1),
        SubjectRecord(id="s001", severity="unknown", recovery_time=40.0,
                      left_lesion_size=0, score=70.0, group=None),
    ]
    manifest = CohortManifest(
        subjects=records,
        volume_paths={"s000": "vols/s000.vol", "s001": "vols/s001.vol"},
        lesion_paths={"s000": "lesions/s000.vol", "s001": "lesions/s001.vol"},
        atlas_path="atlas.vol",
        atlas_labels={1: "roi_a", 2: "roi_b"},
        seed=7,
        dims=(16, 16, 16),
    )
    again = CohortManifest.from_json(manifest.to_json(), "manifest.json")
    assert [s.id for s in again.subjects] == ["s000", "s001"]
    assert again.subjects[0].group == 1
    assert again.subjects[1].group is None
    assert again.atlas_labels == {1: "roi_a", 2: "roi_b"}
    assert again.dims == (16, 16, 16)


def test_manifest_duplicate_ids_rejected():
    from strokepred.core import CohortManifest

    rec = SubjectRecord(id="dup", severity="mild", recovery_time=1.0,
                        left_lesion_size=0, score=65.0)
    with pytest.raises(ValueError):
        CohortManifest(
            subjects=[rec, rec],
            volume_paths={"dup": "a"}, lesion_paths={"dup": "b"},
            atlas_path="atlas.vol", atlas_labels={},
        )


# annotations held as types, not strings, as in a module without
# ``from __future__ import annotations``
_PLAIN_CFG = dataclasses.make_dataclass("PlainCfg", [
    ("n", int), ("xs", tuple[int, ...]), ("pair", tuple[float, float]),
    ("name", str | None, None), ("labels", dict[int, str], None)])


def test_from_json_object_checks_every_annotated_type():
    cfg = core.from_json_object(
        _PLAIN_CFG, {"n": 3, "xs": [], "pair": [1, 2.5], "name": None,
                     "labels": {"4": "roi"}}, "plain config")
    assert cfg == _PLAIN_CFG(3, (), (1, 2.5), None, {"4": "roi"})
    for key, value in [("n", [3]), ("n", True), ("n", 3.0), ("n", None),
                       ("xs", [1, "2"]), ("xs", 1), ("pair", [1.0]),
                       ("name", 5), ("labels", {"a": "roi"}),
                       ("labels", {"4": 4})]:
        doc = {"n": 3, "xs": [1], "pair": [0, 1], key: value}
        with pytest.raises(ValueError, match=f"plain config key '{key}'"):
            core.from_json_object(_PLAIN_CFG, doc, "plain config")


def test_manifest_refuses_a_missing_key_or_a_bad_subject_row():
    from strokepred.core import CohortManifest

    manifest = CohortManifest(
        subjects=[SubjectRecord(id="s0", severity="mild", recovery_time=1.0,
                                left_lesion_size=2, score=61.5)],
        volume_paths={"s0": "v.vol"}, lesion_paths={"s0": "l.vol"},
        atlas_path="atlas.vol", atlas_labels={1: "roi_a"})
    doc = json.loads(manifest.to_json())
    del doc["tract_labels"], doc["tract_atlas_path"]
    assert CohortManifest.from_json(json.dumps(doc), "m").tract_labels == {}
    for bad, match in [({"seed": None}, "'seed'"),
                       ({"dims": [16, 16]}, "'dims'"),
                       ({"subjects": [{**doc["subjects"][0],
                                       "left_lesion_size": 2.0}]},
                        "subject 0 key 'left_lesion_size'"),
                       ({"subjects": [{"id": "s0"}]}, "subject 0 has no key")]:
        with pytest.raises(ValueError, match=match):
            CohortManifest.from_json(json.dumps({**doc, **bad}), "m")
    del doc["version"]
    with pytest.raises(ValueError, match="has no key 'version'"):
        CohortManifest.from_json(json.dumps(doc), "m")


def test_present_labels_equals_unique():
    from strokepred.synthcohort import (SynthConfig, default_truth, gen_atlas,
                                        gen_subject)
    cfg = SynthConfig(seed=3, n_subjects=10, dims=(24, 20, 16), n_rois=9)
    atlas = gen_atlas(cfg)
    _, lesion, _ = gen_subject(cfg, default_truth(), 0, atlas)
    sparse = np.zeros((5, 5, 5), np.uint16)
    sparse[1, 2, 3], sparse[4, 0, 0] = 65535, 7
    for labels in (atlas.labels, lesion.labels, np.zeros((4, 3, 2), np.uint16),
                   sparse):
        vol = LabelVolume(dims=labels.shape, labels=labels)
        expected = [int(v) for v in np.unique(labels) if v != 0]
        assert vol.present_labels() == expected


def test_label_counts_are_the_bincount_counted_once_and_read_only(
        monkeypatch):
    from strokepred.synthcohort import subject_loads
    rng = np.random.default_rng(4)
    labels = rng.integers(0, 6, size=(7, 6, 5)).astype(np.uint16)
    labels[labels == 3] = 0  # a label absent below the top
    vol = LabelVolume(dims=labels.shape, labels=labels,
                      label_names={k: str(k) for k in range(1, 6)})
    whole = []
    bincount = np.bincount

    def counting(arr, *args, **kw):
        whole.append(np.size(arr) == labels.size)
        return bincount(arr, *args, **kw)

    monkeypatch.setattr(np, "bincount", counting)
    counts = vol.label_counts
    assert np.array_equal(counts, bincount(labels.ravel()))
    assert vol.present_labels() == [1, 2, 4, 5]
    lesion = rng.integers(0, 2, size=labels.shape).astype(bool)
    loads = subject_loads(lesion, vol, [1, 2, 4, 5])
    assert loads[4] == np.count_nonzero(lesion & (labels == 4)) / counts[4]
    assert vol.label_counts is counts and sum(whole) == 1
    with pytest.raises(ValueError):
        counts[1] = 0


@pytest.mark.parametrize("labels", [
    np.full((2, 2, 2), 70000, np.int32), np.full((2, 2, 2), np.inf),
    np.full((2, 2, 2), 2.7), np.full((2, 2, 2), np.nan),
    np.full((2, 2, 2), -1, np.int64), np.full((2, 2, 2), -0.5),
    np.ones((2, 2, 2), bool), np.full((2, 2, 2), 65535, np.int64),
    np.full((2, 2, 2), 3.0, np.float32), np.zeros((2, 2, 2), np.uint32),
    np.zeros((2, 2, 2), ">u2")])
def test_label_volume_refuses_any_dtype_but_uint16(labels):
    with pytest.raises(ValueError, match=f"uint16, not {labels.dtype}$"):
        LabelVolume(dims=(2, 2, 2), labels=labels)


@pytest.mark.parametrize("dtype", [np.float64, np.float16, np.uint8, ">f4"])
def test_volume_refuses_any_dtype_but_float32(dtype):
    data = np.zeros((2, 2, 2), dtype)
    with pytest.raises(ValueError, match=f"float32, not {data.dtype}$"):
        Volume3D(dims=(2, 2, 2), data=data)


def test_labels_outside_the_named_range_get_default_names():
    labels = np.zeros((3, 3, 3), np.uint16)
    labels[0, 0, 0], labels[1, 1, 1] = 1, 5
    assert LabelVolume(dims=(3, 3, 3), labels=labels,
                       label_names={1: "a"}).label_names == {
                           1: "a", 5: "label_5"}
    named = {1: "a", 5: "e", 9: "i"}  # 2..4 unnamed but absent
    assert LabelVolume(dims=(3, 3, 3), labels=labels,
                       label_names=named).label_names == named


def test_fully_named_volumes_skip_the_label_count(monkeypatch):
    from strokepred.synthcohort import (SynthConfig, default_truth, gen_atlas,
                                        gen_subject)

    def refuse(self):
        raise AssertionError("present_labels called")

    monkeypatch.setattr(LabelVolume, "present_labels", refuse)
    cfg = SynthConfig(seed=3, n_subjects=10, dims=(24, 20, 16), n_rois=9)
    atlas = gen_atlas(cfg)
    assert len(gen_atlas(cfg, "tracts").label_names) == cfg.n_tracts
    _, lesion, _ = gen_subject(cfg, default_truth(), 0, atlas)
    assert lesion.label_names == {1: "lesion"} and lesion.labels.any()


# --- VOL1 reader fuzzing: every malformed file is a FormatError ------------

@pytest.fixture(scope="module")
def vol1_files(tmp_path_factory):
    """Valid VOL1 bytes per dtype, and a scratch path for mutated copies."""
    root = tmp_path_factory.mktemp("vol1-fuzz")
    rng = np.random.default_rng(5)
    vols = {"intensity": Volume3D(dims=(3, 4, 5),
                                  data=rng.random((3, 4, 5), dtype=np.float32)),
            "labels": LabelVolume(dims=(4, 3, 2), labels=rng.integers(
                0, 9, size=(4, 3, 2)).astype(np.uint16))}
    raw = {}
    for kind, vol in vols.items():
        write_volume(vol, root / f"{kind}.vol")
        raw[kind] = (root / f"{kind}.vol").read_bytes()
    return raw, root / "mutated.vol"


def assert_vol1_rejected(path, blob):
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_volume(path)
    assert 0 <= err.value.offset <= len(blob)


KINDS = st.sampled_from(["intensity", "labels"])


@settings(max_examples=40, deadline=None)
@given(kind=KINDS, data=st.data())
def test_vol1_truncation_fuzz(vol1_files, kind, data):
    raw, path = vol1_files
    cut = data.draw(st.integers(0, len(raw[kind]) - 1))
    assert_vol1_rejected(path, raw[kind][:cut])


@settings(max_examples=60, deadline=None)
@given(kind=KINDS, pos=st.integers(0, core.HEADER_SIZE - 1),
       mask=st.integers(1, 255))
def test_vol1_flipped_header_byte_fuzz(vol1_files, kind, pos, mask):
    raw, path = vol1_files
    blob = bytearray(raw[kind])
    blob[pos] ^= mask
    assert_vol1_rejected(path, bytes(blob))


@settings(max_examples=40, deadline=None)
@given(kind=KINDS, dims=st.tuples(*[st.integers(0, 2**32 - 1)] * 3))
def test_vol1_huge_dims_fuzz(vol1_files, kind, dims):
    raw, path = vol1_files
    assume(dims != struct.unpack_from("<III", raw[kind], 4))
    blob = raw[kind][:4] + struct.pack("<III", *dims) + raw[kind][16:]
    assert_vol1_rejected(path, blob)


@settings(max_examples=30, deadline=None)
@given(kind=KINDS, code=st.integers(2, 255))
def test_vol1_dtype_code_fuzz(vol1_files, kind, code):
    raw, path = vol1_files
    blob = raw[kind][:16] + bytes([code]) + raw[kind][17:]
    assert_vol1_rejected(path, blob)


def test_vol1_nonzero_padding_reports_its_offset(vol1_files):
    raw, path = vol1_files
    blob = bytearray(raw["labels"])
    blob[29] = 7
    path.write_bytes(bytes(blob))
    with pytest.raises(FormatError) as err:
        read_volume(path)
    assert err.value.offset == 29
