import json
import math
import struct
import tracemalloc
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strokepred import learn
from strokepred.core import FormatError, SubjectRecord
from strokepred.learn import (
    CKP_MAGIC,
    MODEL_KINDS,
    ArrayDataset,
    CnnConfig,
    NumericAbort,
    TabularEncoding,
    TrainConfig,
    backward,
    build_params,
    class_weighted_bce,
    class_weights_from_labels,
    forward,
    logistic_fit,
    predict_proba,
    read_checkpoint,
    rmsprop_step,
    sigmoid,
    train,
    write_checkpoint,
)
from strokepred.rng import CounterRng


def tiny_cnn(hw=(4, 4), channels=(2,)):
    return CnnConfig(input_hw=hw, channels=channels)


def rand_batch(rng, n, hw, tab_dim=None, dtype=np.float64):
    h, w = hw
    images = np.array([rng.uniform() for _ in range(n * h * w)],
                      dtype=dtype).reshape(n, h, w)
    tabular = None
    if tab_dim:
        tabular = np.array([rng.uniform() for _ in range(n * tab_dim)],
                           dtype=dtype).reshape(n, tab_dim)
    labels = np.array([rng.bernoulli(0.5) for _ in range(n)], dtype=np.int64)
    if labels.sum() == 0:
        labels[0] = 1
    if labels.sum() == n:
        labels[0] = 0
    return images, tabular, labels


# ---------------------------------------------------------------------------
# Forward


def test_zero_params_give_probability_half():
    cnn = tiny_cnn()
    rng = CounterRng(1, "fw")
    images, tabular, _ = rand_batch(rng, 3, (4, 4), tab_dim=3)
    for kind in ("lightweight", "early_fusion", "daft"):
        params = build_params(kind, cnn=cnn, tabular_dim=None if kind == "lightweight" else 3)
        tab = None if kind == "lightweight" else tabular
        p = sigmoid(forward(params, images, tab))
        assert np.allclose(p, 0.5)
    params = build_params("logistic", tabular_dim=3)
    assert np.allclose(sigmoid(forward(params, None, tabular)), 0.5)
    params = build_params("lightweight", cnn=cnn)
    assert np.allclose(predict_proba(params, images), 0.5)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("kind", MODEL_KINDS)
def test_an_empty_batch_has_no_logits(kind, dtype):
    cnn = tiny_cnn((8, 8), (2, 3))
    tab_dim = 4 if kind in ("early_fusion", "daft") else None
    params = build_params(kind, cnn=cnn, tabular_dim=tab_dim,
                          rng=CounterRng(3, "init"), dtype=dtype)
    images = np.zeros((0, 8, 8), dtype=dtype)
    tabular = None if tab_dim is None else np.zeros((0, 4), dtype=dtype)
    logits = forward(params, images, tabular)
    assert logits.shape == (0,) and logits.dtype == dtype
    if tab_dim is None:  # an image-only model
        assert predict_proba(params, images).shape == (0,)
    # a batch of one is untouched, and still checked
    one, tab, _ = rand_batch(CounterRng(4, "one"), 1, (8, 8), tab_dim,
                             dtype=dtype)
    assert forward(params, one, tab).shape == (1,)
    with pytest.raises(ValueError):
        forward(params, np.zeros((0, 4, 4), dtype=dtype), tabular)


def test_daft_identity_matches_lightweight():
    cnn = tiny_cnn((8, 8), (2, 3))
    rng = CounterRng(2, "id")
    light = build_params("lightweight", cnn=cnn, rng=CounterRng(7, "init"))
    daft = build_params("daft", cnn=cnn, tabular_dim=4)
    # copy the shared backbone and head, zero the affine map (bias gamma=1)
    for name, _ in light.layout:
        daft.view(name)[...] = light.view(name)
    daft.view("film_w")[...] = 0.0
    daft.view("film_b")[...] = 0.0
    daft.view("film_b")[:cnn.channels[-1]] = 1.0
    images, tabular, _ = rand_batch(rng, 4, (8, 8), tab_dim=4, dtype=np.float32)
    a = forward(light, images)
    b = forward(daft, images, tabular)
    assert np.array_equal(a, b)


def test_hand_computed_forward_single_block():
    # 2x2 image, one block: padded conv, ReLU, 2x2 pool, dense head
    cnn = CnnConfig(input_hw=(2, 2), channels=(1,))
    params = build_params("lightweight", cnn=cnn, dtype=np.float64)
    k = np.array([[0, 0, 0], [0, 1, 2], [0, 3, 4]], dtype=np.float64)
    params.view("conv0_w")[...] = k[None, None]
    params.view("conv0_b")[...] = 0.5
    params.view("head_w")[...] = 2.0
    params.view("head_b")[...] = -0.5
    image = np.array([[[0.1, 0.2], [0.3, 0.4]]], dtype=np.float64)
    # conv outputs: 3.0, 1.4, 1.1, 0.4 (+0.5 bias); max after pool = 3.5
    logit = forward(params, image)[0]
    assert logit == pytest.approx(2.0 * 3.5 - 0.5, abs=1e-12)


def test_forward_validates_inputs():
    cnn = tiny_cnn()
    light = build_params("lightweight", cnn=cnn)
    fused = build_params("early_fusion", cnn=cnn, tabular_dim=3)
    images = np.zeros((2, 4, 4))
    with pytest.raises(ValueError):
        forward(fused, images, None)  # fusion needs tabular
    with pytest.raises(ValueError):
        forward(light, images, np.zeros((2, 3)))  # lightweight takes none
    with pytest.raises(ValueError):
        forward(light, np.zeros((2, 5, 4)))  # wrong shape
    with pytest.raises(ValueError):
        forward(fused, images, np.zeros((2, 4)))  # wrong tabular dim


# ---------------------------------------------------------------------------
# Loss


def test_bce_at_chance_is_ln2():
    logits = np.zeros(8)
    labels = np.array([0, 1] * 4)
    assert class_weighted_bce(logits, labels) == pytest.approx(math.log(2), abs=1e-12)


def test_bce_perfect_predictions_near_zero():
    logits = np.array([-12.0, 12.0, -12.0, 12.0])
    labels = np.array([0, 1, 0, 1])
    assert class_weighted_bce(logits, labels) < 1e-4


def test_bce_class_weighted_hand_value():
    # 75/25 batch: weights w0 = 4/(2*3), w1 = 4/(2*1)
    logits = np.array([-2.0, -2.0, -2.0, 1.0])
    labels = np.array([0, 0, 0, 1])
    w0, w1 = class_weights_from_labels(labels)
    assert (w0, w1) == (4 / 6, 2.0)
    l_neg = math.log(1 + math.exp(-2.0))  # softplus(-2)
    l_pos = math.log(1 + math.exp(1.0)) - 1.0  # softplus(1) - 1
    expected = (3 * w0 * l_neg + w1 * l_pos) / 4
    assert class_weighted_bce(logits, labels, (w0, w1)) == pytest.approx(
        expected, abs=1e-12)


def test_bce_extreme_logits_finite():
    logits = np.array([-1e8, 1e8])
    labels = np.array([1, 0])
    loss = class_weighted_bce(logits, labels)
    assert np.isfinite(loss) and loss > 1e6


def test_class_weights_require_both_classes():
    with pytest.raises(ValueError):
        class_weights_from_labels(np.array([1, 1, 1]))


# ---------------------------------------------------------------------------
# Gradients


def _loss_and_piece(params, images, tabular, labels, weights):
    """The loss, and the piece of the piecewise-smooth loss that the forward
    pass evaluates: per conv block, the positions that the tie rules pass a
    gradient to (each pool window's first maximum, gated by ReLU > 0)."""
    from strokepred import learn
    logits, cache = learn._run(params, images, tabular, keep_cache=True)
    piece = b"".join(
        (learn._relu_pool_backward(np.ones_like(b["pooled"]), b["act"],
                                   b["pooled"]) != 0).tobytes()
        for b in cache.get("blocks", ()))
    return class_weighted_bce(logits, labels, weights), piece


def _gradcheck_case(kind, cnn, tab_dim, seed, eps=1e-3, init=None):
    """Largest relative error of the analytic gradient against finite
    differences, per parameter.

    Where the forward pass stays on one piece over [-eps, eps] the reference
    is the central difference.  A ReLU or max-pool kink inside that range
    makes the central difference meaningless; there the reference is the
    second-order one-sided difference on the side that stays on the piece
    evaluated at the parameter over [0, 2 eps], the side that the tie rules
    pick when the parameter sits exactly on the kink.  Where kinks lie on
    both sides, the step shrinks up to a hundredfold."""
    rng = CounterRng(seed, "gc", kind)
    n = 3
    hw = cnn.input_hw if cnn else (4, 4)
    images, tabular, labels = rand_batch(rng, n, hw, tab_dim)
    if kind == "logistic" and tab_dim is None:
        tabular = None
    if kind == "lightweight":
        tabular = None
    params = build_params(kind, cnn=cnn, tabular_dim=tab_dim,
                          rng=init or CounterRng(rng.key, "init"),
                          dtype=np.float64)
    weights = (0.7, 1.3)
    imgs = None if (kind == "logistic" and tab_dim is not None) else images
    _, grad = backward(params, imgs, tabular, labels, weights)
    ref = np.full_like(grad, np.nan)  # nan: no side stays on the piece
    for i in range(len(params.vector)):
        orig = params.vector[i]
        for h in (eps, eps / 10, eps / 100):  # closer, where kinks crowd
            f, piece = {}, {}
            for k in (-2, -1, 0, 1, 2):
                params.vector[i] = orig + k * h
                f[k], piece[k] = _loss_and_piece(params, imgs, tabular,
                                                 labels, weights)
            params.vector[i] = orig
            if piece[-1] == piece[0] == piece[1]:
                ref[i] = (f[1] - f[-1]) / (2 * h)
            elif piece[-2] == piece[-1] == piece[0]:
                ref[i] = (3 * f[0] - 4 * f[-1] + f[-2]) / (2 * h)
            elif piece[2] == piece[1] == piece[0]:
                ref[i] = (-3 * f[0] + 4 * f[1] - f[2]) / (2 * h)
            else:
                continue
            break
    rel = np.abs(grad - ref) / np.maximum(np.abs(grad) + np.abs(ref), 1e-6)
    return float(np.max(np.where(np.isnan(rel), np.inf, rel)))


GRADCHECK_CASES = [
    ("lightweight", tiny_cnn(), None, 11),
    ("lightweight", tiny_cnn((8, 8), (2, 3)), None, 100),
    ("logistic", tiny_cnn(), None, 13),
    ("logistic", None, 5, 14),
    ("early_fusion", tiny_cnn(), 3, 15),
    ("early_fusion", tiny_cnn((8, 8), (2, 2)), 4, 100),
    ("daft", tiny_cnn(), 3, 200),
    ("daft", tiny_cnn((8, 8), (2, 3)), 4, 18),
    ("daft", tiny_cnn((4, 4), (3,)), 7, 19),
    ("early_fusion", tiny_cnn((4, 4), (2,)), 7, 20),
    # non-square inputs, so a swap of the h and w axes cannot pass
    ("lightweight", tiny_cnn((4, 8), (2, 3)), None, 21),
    ("daft", tiny_cnn((4, 8), (2, 3)), 4, 22),
    ("early_fusion", tiny_cnn((8, 4), (2,)), 3, 24),
]


@pytest.mark.parametrize("kind,cnn,tab_dim,seed", GRADCHECK_CASES)
def test_gradcheck_finite_differences(kind, cnn, tab_dim, seed):
    assert _gradcheck_case(kind, cnn, tab_dim, seed) < 1e-4


@pytest.mark.parametrize("kind,cnn,tab_dim,seed", GRADCHECK_CASES)
def test_gradcheck_on_fresh_init_streams(kind, cnn, tab_dim, seed):
    # these draws put parameters within eps of a kink, one exactly on it
    init = CounterRng(seed, "gc", kind, "init")
    assert _gradcheck_case(kind, cnn, tab_dim, seed, init=init) < 1e-4


# ---------------------------------------------------------------------------
# Channels-last kernels against the NCHW reference they replaced
#
# The reference below is the earlier (n, c, h, w) conv stack: im2col from a
# sliding-window view, an argmax max-pool and put_along_axis pool backward.
# The channels-last kernels multiply the same matrices and keep the same
# tie rule, so logits, loss and gradient must match to the byte.


def _ref_conv_forward(x, w, b):
    n, c, h, wd = x.shape
    xp = np.pad(x, ((0, 0), (0, 0), (1, 1), (1, 1)))
    win = np.lib.stride_tricks.sliding_window_view(xp, (3, 3), axis=(2, 3))
    cols = np.ascontiguousarray(win.transpose(0, 2, 3, 1, 4, 5)).reshape(
        n * h * wd, c * 9)
    out = cols @ w.reshape(w.shape[0], -1).T + b
    return out.reshape(n, h, wd, w.shape[0]).transpose(0, 3, 1, 2), cols


def _ref_conv_input_grad(dout_r, w, x_shape):
    n, c, h, wd = x_shape
    dwin = (dout_r @ w.reshape(w.shape[0], -1)).reshape(n, h, wd, c, 3, 3)
    dxp = np.zeros((n, c, h + 2, wd + 2), dtype=dout_r.dtype)
    for ki in range(3):
        for kj in range(3):
            dxp[:, :, ki:ki + h, kj:kj + wd] += dwin[:, :, :, :, ki, kj].transpose(
                0, 3, 1, 2)
    return dxp[:, :, 1:h + 1, 1:wd + 1]


def _ref_pool_forward(x):
    n, c, h, w = x.shape
    xr = np.ascontiguousarray(
        x.reshape(n, c, h // 2, 2, w // 2, 2).transpose(0, 1, 2, 4, 3, 5)
    ).reshape(n, c, h // 2, w // 2, 4)
    idx = xr.argmax(axis=-1)
    return np.take_along_axis(xr, idx[..., None], axis=-1)[..., 0], idx


def _ref_pool_backward(dout, idx, x_shape):
    n, c, h, w = x_shape
    dxr = np.zeros((n, c, h // 2, w // 2, 4), dtype=dout.dtype)
    np.put_along_axis(dxr, idx[..., None], dout[..., None], axis=-1)
    return dxr.reshape(n, c, h // 2, w // 2, 2, 2).transpose(
        0, 1, 2, 4, 3, 5).reshape(n, c, h, w)


def _ref_run(params, images, tabular):
    dtype = params.vector.dtype
    x = images.astype(dtype, copy=False)[:, None, :, :]
    blocks, cache = [], {}
    for i in range(params.cnn.n_blocks):
        pre, cols = _ref_conv_forward(x, params.view(f"conv{i}_w"),
                                      params.view(f"conv{i}_b"))
        act = np.maximum(pre, 0)
        pooled, idx = _ref_pool_forward(act)
        blocks.append({"x_shape": x.shape, "cols": cols, "pre": pre,
                       "idx": idx, "act_shape": act.shape})
        x = pooled
    if params.kind == "daft":
        tab = tabular.astype(dtype, copy=False)
        c_last = params.cnn.channels[-1]
        film = tab @ params.view("film_w").T + params.view("film_b")
        gamma, beta = film[:, :c_last], film[:, c_last:]
        cache.update(pre_mod=x, gamma=gamma, tab=tab)
        x = x * gamma[:, :, None, None] + beta[:, :, None, None]
    feats = x.reshape(x.shape[0], -1)
    cache["maps_shape"] = x.shape
    if params.kind == "early_fusion":
        feats = np.concatenate([feats, tabular.astype(dtype, copy=False)],
                               axis=1)
    logits = feats @ params.view("head_w").T + params.view("head_b")
    cache.update(feats=feats, blocks=blocks)
    return logits[:, 0], cache


def _ref_backward(params, images, tabular, labels, weights):
    logits, cache = _ref_run(params, images, tabular)
    loss = class_weighted_bce(logits, labels, weights)
    y = np.asarray(labels, dtype=np.float64)
    wv = np.where(y == 1, weights[1], weights[0])
    dz = (wv * (sigmoid(logits) - y) / len(y)).astype(params.vector.dtype)
    grad = np.zeros_like(params.vector)
    gview = replace(params, vector=grad)
    feats = cache["feats"]
    gview.view("head_w")[...] = dz[None, :] @ feats
    gview.view("head_b")[...] = dz.sum()
    dfeats = dz[:, None] @ params.view("head_w")
    if params.kind == "early_fusion":
        dfeats = dfeats[:, :feats.shape[1] - params.tabular_dim]
    dmaps = dfeats.reshape(cache["maps_shape"])
    if params.kind == "daft":
        c_last = params.cnn.channels[-1]
        pre_mod, gamma, tab = cache["pre_mod"], cache["gamma"], cache["tab"]
        dgamma = (dmaps * pre_mod).sum(axis=(2, 3))
        dbeta = dmaps.sum(axis=(2, 3))
        dmaps = dmaps * gamma[:, :, None, None]
        gview.view("film_w")[:c_last] = dgamma.T @ tab
        gview.view("film_w")[c_last:] = dbeta.T @ tab
        gview.view("film_b")[:c_last] = dgamma.sum(axis=0)
        gview.view("film_b")[c_last:] = dbeta.sum(axis=0)
    dx = dmaps
    for i in reversed(range(params.cnn.n_blocks)):
        blk = cache["blocks"][i]
        w = params.view(f"conv{i}_w")
        dact = _ref_pool_backward(dx, blk["idx"], blk["act_shape"])
        dpre = dact * (blk["pre"] > 0)
        dpre_r = np.ascontiguousarray(dpre.transpose(0, 2, 3, 1)).reshape(
            -1, w.shape[0])
        gview.view(f"conv{i}_w")[...] = (dpre_r.T @ blk["cols"]).reshape(w.shape)
        gview.view(f"conv{i}_b")[...] = dpre_r.sum(axis=0)
        if i > 0:
            dx = _ref_conv_input_grad(dpre_r, w, blk["x_shape"])
    return loss, grad


def _parity_images(style, n, hw, gen):
    h, w = hw
    if style == "random":
        return gen.uniform(size=(n, h, w))
    if style == "constant":  # every interior window ties
        return np.full((n, h, w), 0.5)
    # plateaus: 4x4 tiles of one value, so windows tie inside each tile
    tiles = gen.uniform(size=(n, h // 4, w // 4))
    return np.repeat(np.repeat(tiles, 4, axis=1), 4, axis=2)


PARITY_KINDS = ["lightweight", "early_fusion", "daft"]
PARITY_DTYPES = [np.float32, np.float64]
# One output channel in the first block, (1, 2), makes numpy hand block 0's
# product to GEMV, whose sums depend on the operand layout.
PARITY_SHAPES = [((8, 8), (2, 3)), ((8, 16), (2, 3)),
                 ((16, 32), (4, 8, 16, 32)), ((8, 8), (1, 2))]


@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("dtype", PARITY_DTYPES)
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("hw,channels", PARITY_SHAPES)
def test_channels_last_kernels_match_nchw_reference(kind, dtype, n, hw,
                                                    channels):
    _assert_matches_nchw_reference(kind, dtype, n, hw, channels)


def _widest_conv_input(n, hw, channels):
    """The (n, h, w, c) input of the conv block with the most im2col
    columns per image."""
    return max(((n, hw[0] >> i, hw[1] >> i, c)
                for i, c in enumerate((1, *channels[:-1]))), key=math.prod)


# A chunk budget of one byte leaves one image per chunk in every block; three
# images' worth of the widest block splits 7 images 3 + 4 there (the short
# remainder joins the last chunk).
@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("dtype", PARITY_DTYPES)
@pytest.mark.parametrize("hw,channels", PARITY_SHAPES)
@pytest.mark.parametrize("per_chunk,n", [(1, 1), (1, 7), (3, 7)])
def test_chunked_fills_match_nchw_reference(monkeypatch, kind, dtype, hw,
                                            channels, per_chunk, n):
    x_shape = _widest_conv_input(n, hw, channels)
    itemsize = np.dtype(dtype).itemsize
    budget = (1 if per_chunk == 1
              else per_chunk * math.prod(x_shape[1:]) * 9 * itemsize)
    monkeypatch.setattr(learn, "CHUNK_BYTES", budget)
    sizes = [len(range(n)[p]) for p in learn._image_chunks(x_shape, itemsize)]
    assert sizes == ([1] * n if per_chunk == 1 else [3, 4])
    _assert_matches_nchw_reference(kind, dtype, n, hw, channels)


@pytest.mark.parametrize("n", [16, 128])
def test_channels_last_kernels_match_nchw_reference_default_network(n):
    # the shapes training (batch 16) and explanations (batch 128) run
    _assert_matches_nchw_reference("lightweight", np.float32, n, (64, 64),
                                   (4, 8, 16))


# A block with c > 1 input channels whose GEMM has 255 = 3*5*17, 256 = 4*8*8
# or 257 = 1*1*257 rows, either side of ``GEMM_ROW_FLOOR``.  A network's
# GEMM rows are multiples of 4, so the kernels are called directly: below
# the floor the columns stay row-major, from it up they are channel-major
# (the transposed view of a contiguous (c*9, rows) buffer).
@pytest.mark.parametrize("dtype", PARITY_DTYPES)
@pytest.mark.parametrize("c,c_out", [(4, 8), (16, 32)])
@pytest.mark.parametrize("n,h,wd", [(3, 5, 17), (4, 8, 8), (1, 1, 257)])
def test_conv_kernels_match_nchw_reference_at_the_row_floor(dtype, c, c_out,
                                                            n, h, wd):
    rows = n * h * wd
    gen = np.random.default_rng([rows, c])
    x = gen.uniform(-1, 1, size=(n, h, wd, c)).astype(dtype)
    w = gen.normal(0, 0.3, size=(c_out, c, 3, 3)).astype(dtype)
    b = gen.normal(0, 0.1, size=c_out).astype(dtype)
    out, cols = learn._conv_forward(x, w, b)
    ref_out, ref_cols = _ref_conv_forward(x.transpose(0, 3, 1, 2), w, b)
    assert cols.flags.c_contiguous == (rows < learn.GEMM_ROW_FLOOR)
    assert out.tobytes() == ref_out.transpose(0, 2, 3, 1).tobytes()
    # backward: the weight-gradient GEMM and the input gradient
    dout = gen.normal(size=(rows, c_out)).astype(dtype)
    assert (dout.T @ cols).tobytes() == (dout.T @ ref_cols).tobytes()
    ref_dx = _ref_conv_input_grad(dout, w, (n, c, h, wd))
    assert learn._conv_input_grad(dout, w, x.shape).tobytes() == \
        ref_dx.transpose(0, 2, 3, 1).tobytes()


def _quarter_loop_pool_backward(dout, act, pooled):
    """The pool routing as four strided passes, one per window position,
    row-major: a position takes the gated gradient if it holds the peak and
    no earlier position did."""
    gated = dout * (pooled > 0)
    dpre = np.empty_like(act)
    taken = np.zeros(pooled.shape, dtype=bool)
    for di, dj in ((0, 0), (0, 1), (1, 0), (1, 1)):
        first = (act[:, di::2, dj::2] == pooled) & ~taken
        dpre[:, di::2, dj::2] = np.where(first, gated, 0)
        taken |= first
    return dpre


# 17 window kinds: the 15 sets of positions that tie at the window's peak,
# an all-zero window (a ReLU'd one), and a window of +0.0 and -0.0.
WINDOW_KINDS = 17


def _tie_windows(n, w, c, dtype, gen):
    """(n, 2 * WINDOW_KINDS, w, c) activations whose windows cycle through
    every kind along each row of windows, each column and each channel."""
    shape = (n, WINDOW_KINDS, w // 2, c)
    kind = np.indices(shape[1:]).sum(axis=0) % WINDOW_KINDS
    ties = ((kind[..., None] + 1) >> np.arange(4)) & 1 == 1
    top = gen.uniform(0.5, 1.0, (*shape, 1))
    win = np.where(ties, top, top * gen.choice([0.0, 0.25, 0.9], (*shape, 4)))
    win[:, kind == 15] = 0.0
    win[:, kind == 16] = gen.choice([0.0, -0.0], win[:, kind == 16].shape)
    return win.reshape(*shape, 2, 2).transpose(0, 1, 4, 2, 5, 3).reshape(
        n, 2 * WINDOW_KINDS, w, c).astype(dtype)


@pytest.mark.parametrize("dtype", PARITY_DTYPES)
@pytest.mark.parametrize("n", [1, 16])
@pytest.mark.parametrize("w", [2, 6, 64])
@pytest.mark.parametrize("c", [1, 3, 4, 16])
def test_pool_backward_routes_to_the_first_maximum_of_every_tie(dtype, n, w,
                                                                 c):
    gen = np.random.default_rng([n, w, c])
    act = _tie_windows(n, w, c, dtype, gen)
    pooled = learn._pool_forward(act)
    # negative and -0.0 upstream gradients: the sign bit must survive the
    # routing, and the ReLU gate turns a gradient over a zero peak to +-0
    dout = gen.normal(size=pooled.shape).astype(dtype)
    dout[gen.uniform(size=dout.shape) < 0.2] = -0.0
    got = learn._relu_pool_backward(dout, act, pooled)
    assert got.dtype == dtype and got.shape == act.shape
    assert got.tobytes() == _quarter_loop_pool_backward(
        dout, act, pooled).tobytes()


# The bias gradient adds the (rows, c_out) output grad row after row, the
# order of ``sum(axis=0)`` over a contiguous matrix; one column is numpy's
# pairwise sum.  Values spread over six decades, so another order differs.
@pytest.mark.parametrize("dtype", PARITY_DTYPES)
@pytest.mark.parametrize("rows", [1, 7, 1001, 4097])
def test_bias_gradient_adds_row_after_row(dtype, rows):
    gen = np.random.default_rng(rows)
    wide = (gen.normal(size=(rows, 32))
            * 10.0 ** gen.uniform(-3, 3, (rows, 32))).astype(dtype)
    wide[gen.uniform(size=wide.shape) < 0.1] = -0.0
    in_order = np.zeros(32, dtype=dtype)
    for row in wide:
        in_order += row
    for c_out in range(2, 33):
        dpre_r = np.ascontiguousarray(wide[:, :c_out])
        assert learn._bias_grad(dpre_r).tobytes() == \
            in_order[:c_out].tobytes(), c_out
    one = np.ascontiguousarray(wide[:, :1])
    assert learn._bias_grad(one).tobytes() == one.sum(axis=0).tobytes()


# ---------------------------------------------------------------------------
# Inference runs the conv stack one chunk of whole images at a time


def _stack_step(hw, channels, itemsize):
    """Images per inference chunk: ``CHUNK_BYTES`` of block-0 columns, but
    enough images for ``GEMM_ROW_FLOOR`` rows in the last (smallest) block."""
    h, w = hw
    last_rows = (h >> (len(channels) - 1)) * (w >> (len(channels) - 1))
    return max(1, -(-learn.GEMM_ROW_FLOOR // last_rows),
               learn.CHUNK_BYTES // (h * w * 9 * itemsize))


# A one-byte budget leaves the floor to set the step: one image on the
# default network, eight on the 48x48 one, whose last block has 36 rows.
@pytest.mark.parametrize("kind", PARITY_KINDS)
@pytest.mark.parametrize("dtype", PARITY_DTYPES)
@pytest.mark.parametrize("hw,channels", [((64, 64), (4, 8, 16)),
                                         ((48, 48), (3, 5, 7, 9))])
@pytest.mark.parametrize("budget", [None, 1])
def test_chunked_stack_matches_whole_batch_logits(monkeypatch, kind, dtype,
                                                   hw, channels, budget):
    if budget is not None:
        monkeypatch.setattr(learn, "CHUNK_BYTES", budget)
    step = _stack_step(hw, channels, np.dtype(dtype).itemsize)
    tab_dim = None if kind == "lightweight" else 7
    params = build_params(kind, cnn=CnnConfig(hw, channels),
                          tabular_dim=tab_dim, rng=CounterRng(step, kind),
                          dtype=dtype)
    convs = []  # the batch size of each conv call
    conv_forward = learn._conv_forward

    def counted(x, w, b):
        convs.append(len(x))
        return conv_forward(x, w, b)

    monkeypatch.setattr(learn, "_conv_forward", counted)
    gen = np.random.default_rng([step, *hw])
    # 3 * step - 1 is two chunks and the longest remainder
    for n in sorted({1, step - 1, step, step + 1, 3 * step - 1, 210} - {0}):
        images = gen.uniform(size=(n, *hw)).astype(dtype)
        tabular = None if tab_dim is None else gen.uniform(size=(n, tab_dim))
        whole, _ = learn._run(params, images, tabular, keep_cache=True)
        convs.clear()
        assert forward(params, images, tabular).tobytes() == whole.tobytes(), n
        # a chunk per ``step`` images, a short remainder in the last chunk
        chunks = max(1, n // step)
        assert convs == [step] * (len(channels) * (chunks - 1)) + (
            [n - step * (chunks - 1)] * len(channels)), n


def test_forward_memory_does_not_grow_with_the_batch():
    # one chunk's transients set the peak, plus the batch's small pooled maps
    params = build_params("lightweight", cnn=CnnConfig((64, 64), (4, 8, 16)),
                          rng=CounterRng(0, "memory"))

    def peak_bytes(n):
        images = np.random.default_rng(n).uniform(size=(n, 64, 64)).astype(
            np.float32)
        tracemalloc.start()
        try:
            forward(params, images)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak_bytes(256) <= 2 * peak_bytes(16)


def _assert_matches_nchw_reference(kind, dtype, n, hw, channels):
    cnn = CnnConfig(hw, channels)
    tab_dim = None if kind == "lightweight" else 7
    params = build_params(kind, cnn=cnn, tabular_dim=tab_dim,
                          rng=CounterRng(n, "parity", kind), dtype=dtype)
    gen = np.random.default_rng([n, *hw, len(channels)])
    for name, _ in params.layout:  # nonzero biases, so pre-activations vary
        if name.endswith("_b"):
            params.view(name)[...] += gen.normal(0, 0.1,
                                                 params.view(name).shape)
    tabular = None if tab_dim is None else gen.uniform(size=(n, tab_dim))
    for style in ("random", "constant", "plateau"):
        images = _parity_images(style, n, hw, gen).astype(dtype)
        ref_logits, _ = _ref_run(params, images, tabular)
        assert forward(params, images, tabular).tobytes() == ref_logits.tobytes()
        # all-positive labels make every dz negative, so the pool routes
        # negative gradients and (pre > 0) masks them to signed zeros
        for labels in (np.ones(n, dtype=np.int64), np.arange(n) % 2):
            loss, grad = backward(params, images, tabular, labels, (0.7, 1.3))
            ref_loss, ref_grad = _ref_backward(params, images, tabular,
                                               labels, (0.7, 1.3))
            assert loss == ref_loss
            assert grad.tobytes() == ref_grad.tobytes(), (style, labels)


def test_gradient_zero_for_dead_parameters():
    # negative pre-activations kill the ReLU path; conv weights get no gradient
    cnn = tiny_cnn()
    params = build_params("lightweight", cnn=cnn, dtype=np.float64)
    params.view("conv0_b")[...] = -5.0  # every activation clamped to 0
    params.view("head_w")[...] = 1.0
    images = np.full((2, 4, 4), 0.2)
    labels = np.array([1, 1])
    _, grad = backward(params, images, None, labels)
    gview = build_params("lightweight", cnn=cnn, dtype=np.float64)
    gview.vector = grad
    assert np.all(gview.view("conv0_w") == 0.0)
    assert np.all(gview.view("head_w") == 0.0)
    # head bias still learns
    assert gview.view("head_b")[0] != 0.0


def test_gradient_linear_in_batch_concat():
    cnn = tiny_cnn()
    rng = CounterRng(3, "lin")
    params = build_params("lightweight", cnn=cnn,
                          rng=CounterRng(rng.key, "init"), dtype=np.float64)
    img_a, _, lab_a = rand_batch(rng, 4, (4, 4))
    img_b, _, lab_b = rand_batch(rng, 6, (4, 4))
    _, ga = backward(params, img_a, None, lab_a)
    _, gb = backward(params, img_b, None, lab_b)
    _, gab = backward(params, np.concatenate([img_a, img_b]), None,
                      np.concatenate([lab_a, lab_b]))
    assert np.allclose(gab * 10, ga * 4 + gb * 6, atol=1e-12)


def test_loss_and_gradient_permutation_invariant():
    cnn = tiny_cnn()
    rng = CounterRng(4, "perm")
    params = build_params("early_fusion", cnn=cnn, tabular_dim=3,
                          rng=CounterRng(rng.key, "init"), dtype=np.float64)
    images, tabular, labels = rand_batch(rng, 8, (4, 4), tab_dim=3)
    perm = list(range(8))
    rng.shuffle(perm)
    perm = np.array(perm)
    l1, g1 = backward(params, images, tabular, labels)
    l2, g2 = backward(params, images[perm], tabular[perm], labels[perm])
    assert abs(l1 - l2) < 1e-12
    assert np.max(np.abs(g1 - g2)) < 1e-12


def test_fusion_kinds_sensitive_to_tabular():
    cnn = tiny_cnn()
    rng = CounterRng(5, "sens")
    images, tabular, labels = rand_batch(rng, 4, (4, 4), tab_dim=3)
    for kind in ("early_fusion", "daft"):
        params = build_params(kind, cnn=cnn, tabular_dim=3,
                              rng=CounterRng(rng.key, "init", kind),
                              dtype=np.float64)
        shifted = forward(params, images, tabular + 0.5)
        assert np.all(shifted != forward(params, images, tabular)), kind


# ---------------------------------------------------------------------------
# Optimizers


def test_rmsprop_first_step_arithmetic():
    p = np.array([1.0])
    g = np.array([3.0])
    v = np.zeros(1)
    p2, v2 = rmsprop_step(p, g, v, lr=0.01)
    assert v2[0] == pytest.approx(0.1 * 9.0, abs=1e-15)
    assert p2[0] == pytest.approx(1.0 - 0.01 * 3.0 / (math.sqrt(0.9) + 1e-8),
                                  abs=1e-12)


def test_optimizers_abort_on_non_finite_gradient():
    with pytest.raises(NumericAbort):
        rmsprop_step(np.array([1.0]), np.array([np.nan]), np.zeros(1), 0.1)
    with pytest.raises(NumericAbort):
        rmsprop_step(np.array([1.0]), np.array([np.inf]), np.zeros(1), 0.1)


@pytest.mark.parametrize("lrs", [(), (0.0,), (-1e-3,), (math.nan,),
                                 (1e-3, math.inf), (1e-3, 1e-3)])
def test_train_config_refuses_learning_rates_it_cannot_train_with(lrs):
    with pytest.raises(ValueError, match="learning rates"):
        TrainConfig(lrs=lrs)


# ---------------------------------------------------------------------------
# Training loop


def separable_sets(n_train=40, n_val=16):
    """Class 1 has a bright top-left quadrant; trivially separable."""
    rng = CounterRng(9, "sep")
    def make(n):
        images = np.zeros((n, 8, 8), dtype=np.float32)
        labels = np.zeros(n, dtype=np.int64)
        for i in range(n):
            base = 0.1 + 0.05 * rng.uniform()
            images[i] += base
            if i % 2 == 0:
                images[i, :4, :4] = 0.9 - 0.05 * rng.uniform()
                labels[i] = 1
        return ArrayDataset(images=images, tabular=None, labels=labels)
    return make(n_train), make(n_val)


def test_train_single_epoch_returns_first_snapshot():
    tr, va = separable_sets()
    cfg = TrainConfig(max_epochs=1, batch_size=8)
    params, val_losses = train("lightweight", tr, va, cfg, lr=1e-3, seed=3,
                               cnn=CnnConfig((8, 8), (2, 2)))
    assert len(val_losses) == 1
    assert np.all(np.isfinite(params.vector))


def test_train_separates_toy_data():
    tr, va = separable_sets()
    cfg = TrainConfig(max_epochs=50, batch_size=8)
    params, losses = train("lightweight", tr, va, cfg, lr=1e-3, seed=3,
                           cnn=CnnConfig((8, 8), (2, 2)))
    p = predict_proba(params, va.images)
    pred = (p >= 0.5).astype(int)
    y = va.labels
    sens = np.mean(pred[y == 1] == 1)
    spec = np.mean(pred[y == 0] == 0)
    assert (sens + spec) / 2 == 1.0
    # snapshot is the argmin of recorded validation losses (earliest tie)
    assert min(losses) == losses[int(np.argmin(losses))]


def test_train_is_deterministic():
    tr, va = separable_sets()
    cfg = TrainConfig(max_epochs=5, batch_size=8)
    run = lambda: train("lightweight", tr, va, cfg, lr=1e-3, seed=11,
                        cnn=CnnConfig((8, 8), (2, 2)))
    p1, h1 = run()
    p2, h2 = run()
    assert np.array_equal(p1.vector, p2.vector)
    assert h1 == h2


def test_train_snapshot_beats_final_epoch_when_val_worsens():
    tr, va = separable_sets()
    cfg = TrainConfig(max_epochs=30, batch_size=8)
    params, val_losses = train("lightweight", tr, va, cfg, lr=1e-3, seed=5,
                               cnn=CnnConfig((8, 8), (2, 2)))
    best = min(val_losses)
    got = class_weighted_bce(forward(params, va.images), va.labels,
                             class_weights_from_labels(tr.labels))
    assert got == pytest.approx(best, rel=1e-6)


def test_train_forwards_only_the_validation_set_once_per_epoch(monkeypatch):
    from strokepred import learn
    tr, va = separable_sets()
    seen = []
    real_forward = learn.forward

    def counting_forward(params, images, tabular=None):
        seen.append(len(images))
        return real_forward(params, images, tabular)

    monkeypatch.setattr(learn, "forward", counting_forward)
    cfg = TrainConfig(max_epochs=4, batch_size=8)
    _, val_losses = train("lightweight", tr, va, cfg, lr=1e-3, seed=3,
                          cnn=CnnConfig((8, 8), (2, 2)))
    assert len(val_losses) == 4
    assert seen == [len(va)] * 4


def test_train_aborts_on_non_finite_minibatch_loss():
    tr, va = separable_sets()
    images = tr.images.copy()
    images[13] = np.nan  # lands in one minibatch of the first epoch
    bad = ArrayDataset(images=images, tabular=None, labels=tr.labels)
    cfg = TrainConfig(max_epochs=2, batch_size=8)
    with pytest.raises(NumericAbort, match=r"training loss nan at epoch 1, "
                                           r"batch [1-5]$"):
        train("lightweight", bad, va, cfg, lr=1e-3, seed=3,
              cnn=CnnConfig((8, 8), (2, 2)))


def test_backward_skips_block_zero_input_gradient(monkeypatch):
    from strokepred import learn
    calls = []
    real = learn._conv_input_grad

    def counting(dout_r, w, x_shape):
        calls.append(x_shape[-1])  # channels-last: (n, h, w, c)
        return real(dout_r, w, x_shape)

    monkeypatch.setattr(learn, "_conv_input_grad", counting)
    cnn = tiny_cnn((8, 8), (2, 3, 4))
    params = build_params("lightweight", cnn=cnn, rng=CounterRng(1, "init"))
    images, _, labels = rand_batch(CounterRng(2, "b"), 4, (8, 8))
    backward(params, images, None, labels)
    assert calls == [3, 2]  # blocks 2 and 1; block 0's input is the image


# ---------------------------------------------------------------------------
# Logistic fit (IRLS)


def test_logistic_fit_all_positive_labels(monkeypatch):
    monkeypatch.setattr(learn, "LOGISTIC_RIDGE", 10.0)
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.ones(4)
    params = logistic_fit(x, y)
    assert np.all(np.isfinite(params.vector))
    assert abs(params.view("w")[0, 0]) < 0.1  # strong ridge pins the slope
    assert params.view("b")[0] > 0.5  # intercept carries the signal


def _gd_oracle(x, y, ridge, lr=0.05, iters=200000):
    design = np.concatenate([np.ones((len(x), 1)), x], axis=1)
    beta = np.zeros(design.shape[1])
    for _ in range(iters):
        p = 1.0 / (1.0 + np.exp(-(design @ beta)))
        g = design.T @ (p - y)
        g[1:] += ridge * beta[1:]
        beta -= lr * g / len(x)
    return beta


def test_logistic_fit_matches_gradient_descent_oracle(monkeypatch):
    monkeypatch.setattr(learn, "LOGISTIC_RIDGE", 0.1)
    x = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0.0, 0.0, 1.0, 1.0])
    params = logistic_fit(x, y)
    beta = _gd_oracle(x, y, 0.1)
    assert params.view("b")[0] == pytest.approx(beta[0], abs=1e-4)
    assert params.view("w")[0, 0] == pytest.approx(beta[1], abs=1e-4)


def test_logistic_fit_deterministic_and_validates(monkeypatch):
    monkeypatch.setattr(learn, "LOGISTIC_RIDGE", 0.01)
    rng = CounterRng(6, "lf")
    x = np.array([rng.uniform() for _ in range(40)]).reshape(20, 2)
    y = (x[:, 0] + x[:, 1] > 1.0).astype(float)
    a = logistic_fit(x, y)
    b = logistic_fit(x, y)
    assert np.array_equal(a.vector, b.vector)
    with pytest.raises(ValueError):
        logistic_fit(x, y * 2)


# ---------------------------------------------------------------------------
# Tabular encoding


def make_record(severity, rt, size):
    return SubjectRecord(id=f"r{severity}{rt}", severity=severity,
                         recovery_time=rt, left_lesion_size=size, score=65.0)


def test_tabular_encoding_shape_and_ranges():
    enc = TabularEncoding(size_ref=1000.0, time_ref=365.0)
    records = [make_record(s, 50.0 * (i + 1), 100 * i)
               for i, s in enumerate(("severe", "moderate", "mild", "normal",
                                      "unknown"))]
    x = enc.design(records)
    assert x.shape == (5, 7)
    assert np.allclose(x[:, :5].sum(axis=1), 1.0)
    assert np.all((x >= 0) & (x <= 1))
    # saturation beyond the reference values
    big = enc.design([make_record("normal", 5000.0, 10**6)])[0]
    assert big[5] == 1.0 and big[6] == 1.0


# ---------------------------------------------------------------------------
# Checkpoints


@pytest.mark.parametrize("kind,cnn,tab", [
    ("lightweight", tiny_cnn(), None),
    ("logistic", None, 7),
    ("early_fusion", tiny_cnn(), 7),
    ("daft", tiny_cnn(), 7),
])
def test_checkpoint_roundtrip(tmp_path, kind, cnn, tab):
    params = build_params(kind, cnn=cnn, tabular_dim=tab,
                          rng=CounterRng(8, "ck", kind))
    p = tmp_path / "model.ckp1"
    write_checkpoint(params, p)
    back = read_checkpoint(p)
    assert back.kind == kind
    assert np.array_equal(back.vector, params.vector)
    assert back.layout == params.layout


def test_checkpoint_bad_magic(tmp_path):
    p = tmp_path / "bad.ckp1"
    p.write_bytes(b"XXXX" + b"\x00" * 16)
    with pytest.raises(FormatError):
        read_checkpoint(p)


def test_checkpoint_truncated_payload(tmp_path):
    params = build_params("logistic", tabular_dim=3)
    p = tmp_path / "t.ckp1"
    write_checkpoint(params, p)
    p.write_bytes(p.read_bytes()[:-4])
    with pytest.raises(FormatError):
        read_checkpoint(p)


# --- malformed CKP1 files: FormatError with a byte offset, nothing else ----

LIGHT_META = {"kind": "lightweight", "cnn": asdict(tiny_cnn()),
              "tabular_dim": None}


def ckp1_bytes(header, payload=b""):
    """CKP1 layout: magic, u32 header length, header bytes, payload."""
    if not isinstance(header, bytes):
        header = json.dumps(header).encode("utf-8")
    return CKP_MAGIC + struct.pack("<I", len(header)) + header + payload


def light_payload():
    params = build_params("lightweight", cnn=tiny_cnn(),
                          rng=CounterRng(2, "ckp"))
    return params.vector.astype("<f4").tobytes()


def read_malformed(tmp_path, blob):
    path = tmp_path / "bad.ckp1"
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert 0 <= err.value.offset <= len(blob)
    return err.value


def test_checkpoint_list_header_rejected(tmp_path):
    assert read_malformed(tmp_path, ckp1_bytes([1, 2])).offset == 8


def test_checkpoint_payload_not_whole_floats(tmp_path):
    blob = ckp1_bytes(LIGHT_META, light_payload()[:-2])
    header_len = len(json.dumps(LIGHT_META).encode())
    assert read_malformed(tmp_path, blob).offset == 8 + header_len


def test_checkpoint_header_not_utf8(tmp_path):
    header = b'{"kind": "light\xffweight"}'
    err = read_malformed(tmp_path, ckp1_bytes(header))
    assert err.offset == 8 + header.index(b"\xff")


def test_checkpoint_header_not_json(tmp_path):
    header = b'{"kind": lightweight}'
    err = read_malformed(tmp_path, ckp1_bytes(header))
    assert err.offset == 8 + header.index(b"lightweight")


def test_checkpoint_header_without_kind(tmp_path):
    meta = {k: v for k, v in LIGHT_META.items() if k != "kind"}
    err = read_malformed(tmp_path, ckp1_bytes(meta, light_payload()))
    assert err.offset == 8 and "'kind'" in str(err)


def test_checkpoint_unknown_kind(tmp_path):
    meta = dict(LIGHT_META, kind="bogus")
    err = read_malformed(tmp_path, ckp1_bytes(meta, light_payload()))
    assert err.offset == 8 and "bogus" in str(err)


def test_checkpoint_non_finite_parameter(tmp_path):
    payload = bytearray(light_payload())
    payload[12:16] = struct.pack("<f", math.nan)
    err = read_malformed(tmp_path, ckp1_bytes(LIGHT_META, bytes(payload)))
    assert err.offset == 8 + len(json.dumps(LIGHT_META).encode()) + 12


CKP_CASES = [("lightweight", tiny_cnn(), None), ("logistic", None, 7),
             ("early_fusion", tiny_cnn(), 7), ("daft", tiny_cnn(), 7)]


@pytest.fixture(scope="module")
def ckp1_files(tmp_path_factory):
    """Valid CKP1 bytes for every kind the program writes, and a scratch
    path for mutated copies."""
    root = tmp_path_factory.mktemp("ckp1-fuzz")
    raw = []
    for kind, cnn, tab in CKP_CASES:
        path = root / f"{kind}.ckp1"
        write_checkpoint(build_params(kind, cnn=cnn, tabular_dim=tab,
                                      rng=CounterRng(3, kind)), path)
        raw.append(path.read_bytes())
    return raw, root / "mutated.ckp1"


def assert_ckp1_rejected(path, blob):
    path.write_bytes(blob)
    with pytest.raises(FormatError) as err:
        read_checkpoint(path)
    assert 0 <= err.value.offset <= len(blob)


CASE = st.integers(0, len(CKP_CASES) - 1)


@settings(max_examples=40, deadline=None)
@given(case=CASE, data=st.data())
def test_ckp1_truncation_fuzz(ckp1_files, case, data):
    raw, path = ckp1_files
    cut = data.draw(st.integers(0, len(raw[case]) - 1))
    assert_ckp1_rejected(path, raw[case][:cut])


@settings(max_examples=60, deadline=None)
@given(case=CASE, data=st.data())
def test_ckp1_flipped_header_bit_fuzz(ckp1_files, case, data):
    raw, path = ckp1_files
    blob = bytearray(raw[case])
    header_end = 8 + struct.unpack_from("<I", blob, 4)[0]
    pos = data.draw(st.integers(0, header_end - 1))
    blob[pos] ^= 1 << data.draw(st.integers(0, 7))
    assert_ckp1_rejected(path, bytes(blob))


HUGE = st.integers(2**20, 2**62)


@settings(max_examples=40, deadline=None)
@given(case=CASE, kind=st.sampled_from(MODEL_KINDS), hw=st.tuples(HUGE, HUGE),
       channels=st.lists(HUGE, min_size=1, max_size=3),
       tabular_dim=st.none() | HUGE)
def test_ckp1_huge_dims_fuzz(ckp1_files, case, kind, hw, channels,
                             tabular_dim):
    raw, path = ckp1_files
    header_end = 8 + struct.unpack_from("<I", raw[case], 4)[0]
    meta = {"kind": kind, "cnn": {"input_hw": list(hw), "channels": channels},
            "tabular_dim": tabular_dim}
    assert_ckp1_rejected(path, ckp1_bytes(meta, raw[case][header_end:]))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(), inner, max_size=3),
    max_leaves=6)


@settings(max_examples=40, deadline=None)
@given(case=CASE, header=JSON_VALUES)
def test_ckp1_json_header_fuzz(ckp1_files, case, header):
    raw, path = ckp1_files
    header_end = 8 + struct.unpack_from("<I", raw[case], 4)[0]
    assert_ckp1_rejected(path, ckp1_bytes(header, raw[case][header_end:]))
