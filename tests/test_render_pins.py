"""Byte pins of every variant's render.  The hashes were taken from the
renderer before its layouts were compiled once per atlas and its glyph
masks once per box; a render speedup must leave them unchanged."""

import hashlib

import numpy as np
import pytest

from strokepred import glyphs, pipeline
from strokepred.pipeline import CohortData, RunConfig
from strokepred.synthcohort import SynthConfig, default_truth

DIMS = {"cube": (24, 24, 24), "oblong": (33, 28, 25)}
RANKED = (7, 3, 12, 1)  # importance order, not label order

# sha256 of (images in id order, label map, full_shape)
PINS = {
    "cube/stitched/all":
        "21086839833e08101342cbfb85bfa8f4f633eb09c89a0cd85a4028ff550f4f2e",
    "cube/gm-roi/all":
        "f09e9a1affdaa817852682bda3f060122295c39e3036da38e467100b3390bfb2",
    "cube/gm-roi/ranked":
        "6f3a739500c20c4ac8ddbbc62d76adbc819f3d0a4b5f04deaa1655d45e93992c",
    "cube/wm-roi/all":
        "1cc93d4ff09741662b4a02d66007582b115a7023413c266bbbc6d5e6773d1a1b",
    "cube/wm-roi/ranked":
        "855acb937e2fc509612c566766fc15add352021676d33037932e41bd59d5bc70",
    "cube/hybrid-stitched/all":
        "ac7abce0aef153adb87e5fad7688ca32a7ad22aedd9ffc31c44ebf8545fb2b53",
    "cube/hybrid-gm-roi/all":
        "1a646a5d67a452d199168ffaead5ed8f0b24e45728cf8f0148b59d283d71547f",
    "cube/hybrid-gm-roi/ranked":
        "d98ed53936971cdb5c96a248e7eb0b833ab60e00bd4387bb72e4312721a3caad",
    "cube/hybrid-wm-roi/all":
        "a4d91e1a0f29f91e6ab04151ab512a463ad79a5691ab5e15a1f9d1a73a0d0580",
    "cube/hybrid-wm-roi/ranked":
        "a324ebd9f98a22786c8e0ae0bbdfea9ede95d3a715eb4782b3758ee2f3d4984f",
    "oblong/stitched/all":
        "58fe35def09206551cf6fdc39ff87a5e0c5fb1415b055765ef0c4c99d6e065c8",
    "oblong/gm-roi/all":
        "9c72b04c907c849f4828ffe1b5378c4be075490c272ef99963a430ad95706f57",
    "oblong/gm-roi/ranked":
        "ec44c663aa96562aa075bd84c9aec8e681c8fd6efe74911afc686d31d8f12d91",
    "oblong/wm-roi/all":
        "4ee762d2863bfc50b315fd37fe03e0383b9c50488ae0f2d8068b99ccd2eb512e",
    "oblong/wm-roi/ranked":
        "48e3617801ea23f7f5b4c38c57043c5ad9f703bf21c5b2b016db4a04a395fca9",
    "oblong/hybrid-stitched/all":
        "6f2937ad59a6986e6d8d51166860710ae6d2696698d8c3753428c54cf3a4af87",
    "oblong/hybrid-gm-roi/all":
        "06545043dcd9da52f6a143c1175dc30895e109976c4d2df6e6dd0faec1a4b6fd",
    "oblong/hybrid-gm-roi/ranked":
        "00edbb9c547292d7931c2a3e10c54401b0126d2288ec2f6812015aee768db4a4",
    "oblong/hybrid-wm-roi/all":
        "d549418c48fb34217aa9448f2e78dfa90a28b15002773fcd144d7123070e5cb5",
    "oblong/hybrid-wm-roi/ranked":
        "429dfc66275db5fffe9fb5fcb539a8eca3529ba428c782827b2f8d869381ebd8",
}


@pytest.fixture(scope="module", params=sorted(DIMS))
def cohort(request):
    config = SynthConfig(seed=37, n_subjects=10, dims=DIMS[request.param])
    return request.param, CohortData.from_memory(config, default_truth())


def _layouts():
    for variant in pipeline.VARIANTS:
        yield variant, None
        if not variant.endswith("stitched"):
            yield variant, RANKED


def _digest(data) -> str:
    h = hashlib.sha256()
    for sid in sorted(data.images):
        image = data.images[sid]
        assert image.dtype == np.float32
        h.update(sid.encode() + b"\0" + image.tobytes())
    h.update(data.label_image.dtype.str.encode()
             + np.ascontiguousarray(data.label_image).tobytes())
    h.update(repr(tuple(data.full_shape)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("variant,roi_labels", list(_layouts()))
def test_every_variant_renders_its_pinned_bytes(cohort, variant, roi_labels):
    name, data = cohort
    config = RunConfig(variant=variant, image_size=40, channels=(4, 8),
                       roi_labels=roi_labels)
    refs = glyphs.normalizers_from_records(data.records)
    built = pipeline.build_variant(data, config, *refs)
    assert len(built.images) == len(data.records)
    key = f"{name}/{variant}/{'ranked' if roi_labels else 'all'}"
    assert _digest(built) == PINS[key], key
