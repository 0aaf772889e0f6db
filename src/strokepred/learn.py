"""Models and training: lightweight CNN, logistic baseline, two fusion kinds.

Everything is plain numpy with hand-written backprop.  The four model kinds
share one parameter container and one forward/backward pair:

* ``lightweight``: blocks of conv3x3 (stride 1, pad 1) -> ReLU -> maxpool 2x2,
  then flatten -> dense -> 1 logit.  Image input only.
* ``logistic``: a linear layer on either the flattened image or the tabular
  vector, fixed at build time by whether ``tabular_dim`` is set.
* ``early_fusion``: lightweight backbone, tabular vector concatenated to the
  flattened features before the dense head.
* ``daft``: lightweight backbone whose final-block feature maps get a
  per-channel affine (gamma, beta) computed from the tabular vector by one
  dense map; gamma=1, beta=0 reproduces ``lightweight`` exactly.

Training has one fixed protocol (``train``): RMSprop on the BCE weighted
by class weights from the training labels, minibatches shuffled from the
caller's seed, and the snapshot of the epoch with the lowest validation
loss.  ``TrainConfig`` holds only the lr grid, epochs and batch size.

The conv stack runs channels-last, (n, h, w, c), from the image to the last
pool: each conv is one im2col GEMM whose output is the next block's input.
Most of its time goes to moving memory, so each pass is kept long and
contiguous where that leaves every sum unchanged:

* each conv pads its input once, channels-first, and fills its columns
  channel-major, nine contiguous copies into a (c, 9, n, h, w) buffer, and
  multiplies their transposed view; BLAS sums a transposed GEMM operand in
  the same order.  Two cases keep row-major columns, as their sums depend
  on the layout: one output channel (numpy hands the product to GEMV) and
  a GEMM of fewer than ``GEMM_ROW_FLOOR`` rows (OpenBLAS's small-matrix
  kernels);
* the columns, and the input gradient's shifted adds, are built one chunk
  of whole images at a time, so each tap pass stays in cache; in training
  each GEMM still runs once over the whole batch;
* inference (``forward``, so ``predict_proba``) runs the whole conv stack,
  conv, ReLU and pool of every block, over one such chunk of whole images
  at a time, so a batch-128 forward holds a few MB of transients, not 50.
  The chunks are ``_image_chunks`` of the image block, with a short
  remainder joining the last chunk, and each has at least enough images to
  give every block's GEMM ``GEMM_ROW_FLOOR`` (256) rows: from there up a
  BLAS row's result does not depend on the row count, so the logits are
  those of one whole-batch pass.  Training keeps whole-batch GEMMs: its
  weight-gradient GEMMs and bias sums run over the whole batch's cache;
* the bias is added in place over whole (h*w*c_out) rows;
* each max-pool takes the max of the two row views, then of the two
  column views of that result;
* the pool gradient is routed over whole (w*c) rows of each window's two
  image rows, where a window's other column is a shift by c, and each
  output row is written through a bit mask: the gated gradient's bits or
  +0, never a product that could turn +0 into -0;
* each conv bias gradient is ``einsum("ij->j")`` of the (rows, c_out)
  output grad, which adds row after row as ``sum(axis=0)`` does, over
  whole rows; with one output channel ``sum`` adds pairwise and is kept.

The pooled maps are written once, transposed, to (n, c, h, w), so DAFT, the
dense head and the CKP1 parameter layout keep the (c, h, w) flatten order.
DAFT and the head run once over the whole batch, since the head's GEMV sums
depend on the batch size.  A pool window's gradient goes to its first
maximum, row-major over the 2x2 window.

Arrays follow the dtype of the parameter vector (float32 for real training,
float64 in gradient tests), and every reduction has a fixed order, so runs
are bit-reproducible.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .core import (FormatError, SEVERITY_CATEGORIES, SubjectRecord,
                   from_json_object)
from .rng import CounterRng

MODEL_KINDS = ("lightweight", "logistic", "early_fusion", "daft")
RMSPROP_RHO = 0.9
RMSPROP_EPS = 1e-8
# the IRLS logistic fit: ridge on the slopes, sweep cap, convergence step
LOGISTIC_RIDGE = 1e-6
LOGISTIC_MAX_ITER = 100
LOGISTIC_TOL = 1e-8
CKP_MAGIC = b"CKP1"
# Column bytes per chunk of an im2col fill: half the 2 MiB per-core L2 of
# the 2-CPU Xeon it was timed on, leaving room for the chunk's padded
# input; at batch 128 it beat a whole-L2 chunk.
CHUNK_BYTES = 1 << 20
# OpenBLAS leaves its small-matrix kernels at this many GEMM rows; from there
# up a row's result depends neither on the row count nor on whether the
# columns are row- or channel-major, so every conv GEMM of an inference
# chunk gets at least this many rows.
GEMM_ROW_FLOOR = 256


class NumericAbort(RuntimeError):
    """Training produced a non-finite value; carries diagnostics."""


@dataclass(frozen=True)
class CnnConfig:
    input_hw: tuple[int, int]
    channels: tuple[int, ...]

    def __post_init__(self):
        h, w = self.input_hw
        if h < 1 or w < 1:
            raise ValueError(f"input {h}x{w} must be positive")
        if not self.channels or any(c <= 0 for c in self.channels):
            raise ValueError("channels must be nonempty and positive")
        f = 2 ** len(self.channels)
        if h % f or w % f:
            raise ValueError(
                f"input {h}x{w} not divisible by 2^{len(self.channels)}")

    @property
    def n_blocks(self) -> int:
        return len(self.channels)

    @property
    def feature_dim(self) -> int:
        h, w = self.input_hw
        f = 2 ** self.n_blocks
        return self.channels[-1] * (h // f) * (w // f)


@dataclass(frozen=True)
class TrainConfig:
    lrs: tuple[float, ...] = (3e-3, 1e-3)
    max_epochs: int = 24
    batch_size: int = 16

    def __post_init__(self):
        if (not self.lrs or not all(0 < lr < math.inf for lr in self.lrs)
                or len(set(self.lrs)) != len(self.lrs)):
            raise ValueError("learning rates must be nonempty, positive, "
                             "finite and distinct")
        if self.max_epochs < 1 or self.batch_size < 1:
            raise ValueError("max_epochs and batch_size must be >= 1")

    def to_json_dict(self) -> dict:  # deskbench's name for asdict
        return asdict(self)


# ---------------------------------------------------------------------------
# Parameters


@dataclass
class ModelParams:
    kind: str
    layout: tuple[tuple[str, tuple[int, ...]], ...]
    vector: np.ndarray
    cnn: CnnConfig | None = None
    tabular_dim: int | None = None

    def __post_init__(self):
        if self.kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {self.kind!r}")
        total = _layout_size(self.layout)
        if self.vector.shape != (total,):
            raise ValueError(f"vector length {self.vector.shape} != layout {total}")
        if not np.all(np.isfinite(self.vector)):
            raise ValueError("parameters must be finite")

    def view(self, name: str) -> np.ndarray:
        start, stop, shape = _offsets(self.layout)[name]
        return self.vector[start:stop].reshape(shape)


@functools.cache
def _offsets(layout: tuple[tuple[str, tuple[int, ...]], ...]
             ) -> dict[str, tuple[int, int, tuple[int, ...]]]:
    """name -> (start, stop, shape) of each parameter in the flat vector,
    computed once per layout (a process sees a handful of layouts)."""
    table, off = {}, 0
    for name, shape in layout:
        size = math.prod(shape)
        table[name] = (off, off + size, shape)
        off += size
    return table


def _layout_size(layout) -> int:
    return sum(math.prod(shape) for _, shape in layout)


def _layout_for(kind: str, cnn: CnnConfig | None,
                tabular_dim: int | None) -> tuple[tuple[str, tuple[int, ...]], ...]:
    if kind == "logistic":
        if tabular_dim is not None:
            d = tabular_dim
        elif cnn is not None:
            d = cnn.input_hw[0] * cnn.input_hw[1]
        else:
            raise ValueError("logistic needs tabular_dim or cnn.input_hw")
        return (("w", (1, d)), ("b", (1,)))
    if cnn is None:
        raise ValueError(f"{kind} requires a CnnConfig")
    entries: list[tuple[str, tuple[int, ...]]] = []
    c_in = 1
    for i, c_out in enumerate(cnn.channels):
        entries.append((f"conv{i}_w", (c_out, c_in, 3, 3)))
        entries.append((f"conv{i}_b", (c_out,)))
        c_in = c_out
    head_in = cnn.feature_dim
    if kind == "early_fusion":
        if tabular_dim is None:
            raise ValueError("early_fusion requires tabular_dim")
        head_in += tabular_dim
    if kind == "daft":
        if tabular_dim is None:
            raise ValueError("daft requires tabular_dim")
        c_last = cnn.channels[-1]
        entries.append(("film_w", (2 * c_last, tabular_dim)))
        entries.append(("film_b", (2 * c_last,)))
    entries.append(("head_w", (1, head_in)))
    entries.append(("head_b", (1,)))
    return tuple(entries)


def build_params(kind: str, cnn: CnnConfig | None = None,
                 tabular_dim: int | None = None,
                 rng: CounterRng | None = None,
                 dtype=np.float32) -> ModelParams:
    """Allocate parameters; He fan-in init when an rng is given, else zeros.

    DAFT's affine map starts at identity (gamma bias 1) on top of He-random
    fusion weights.
    """
    layout = _layout_for(kind, cnn, tabular_dim)
    vec = np.zeros(_layout_size(layout), dtype=dtype)
    params = ModelParams(kind=kind, layout=layout, vector=vec, cnn=cnn,
                         tabular_dim=tabular_dim)
    if rng is not None:
        for name, shape in layout:
            v = params.view(name)
            if name.endswith("_b") or name == "b":
                if name == "film_b":
                    c_last = shape[0] // 2
                    v[:c_last] = 1.0  # gamma starts at identity
                continue
            fan_in = int(np.prod(shape[1:])) if len(shape) > 1 else shape[0]
            sd = math.sqrt(2.0 / fan_in)
            v[...] = np.asarray(rng.normals(int(np.prod(shape)), 0.0, sd),
                                dtype=dtype).reshape(shape)
    return params


# ---------------------------------------------------------------------------
# Forward / backward


def _image_chunks(x_shape: tuple[int, ...], itemsize: int,
                  min_images: int = 1) -> list[slice]:
    """In-order slices of a channels-last conv input's images, each of as
    many whole images as have at most ``CHUNK_BYTES`` of im2col columns, but
    at least ``min_images``; a shorter remainder joins the last slice."""
    n, h, wd, c = x_shape
    step = max(min_images, CHUNK_BYTES // (h * wd * c * 9 * itemsize))
    k = max(1, n // step)
    return [slice(i * step, n if i == k - 1 else (i + 1) * step)
            for i in range(k)]


def _conv_forward(x: np.ndarray, w: np.ndarray, b: np.ndarray):
    """3x3 same conv of a channels-last (n, h, w, c) batch by one im2col GEMM.

    The columns keep the (c, ki, kj) order of ``w.reshape(c_out, -1)``; the
    (n*h*w, c_out) product is already the next layer's channels-last input.
    The batch is padded once into a channels-first (c, n, h+2, w+2) array,
    and the columns are filled by nine shifted copies of it, one per tap.
    They are channel-major, a (c, 9, n, h, w) buffer whose copies are
    contiguous per channel, and the GEMM takes its transposed (n*h*w, c*9)
    view: BLAS sums a transposed operand in the same order, here and in
    ``backward``'s weight-gradient GEMM.  Two cases keep row-major
    (n, h, w, c, 9) columns, since their sums do depend on the operand
    layout: one output channel, as numpy hands both products to GEMV, and
    fewer than ``GEMM_ROW_FLOOR`` rows, where OpenBLAS uses its small-matrix
    kernels.

    The columns are filled one chunk of whole images at a time
    (``_image_chunks``: each chunk's columns at most ``CHUNK_BYTES``), all
    nine taps per chunk, so the chunk's padded input stays in cache between
    taps (and a row-major copy, which writes every 9th float, pulls only
    the chunk's lines).  Each column value is still one copy of one padded
    input value, and the one GEMM over the whole batch is unchanged, so no
    output changes.  The bias is added in place over whole (h*w*c_out)
    rows, not broadcast over c_out-wide ones.
    """
    n, h, wd, c = x.shape
    c_out = w.shape[0]
    m = n * h * wd
    xp = np.zeros((c, n, h + 2, wd + 2), dtype=x.dtype)
    xp[:, :, 1:h + 1, 1:wd + 1] = x.transpose(3, 0, 1, 2)
    channel_major = c_out > 1 and m >= GEMM_ROW_FLOOR
    buf = np.empty((c, 9, n, h, wd) if channel_major else (n, h, wd, c, 9),
                   dtype=x.dtype)
    taps = buf if channel_major else buf.transpose(3, 4, 0, 1, 2)
    for part in _image_chunks(x.shape, x.itemsize):
        for t in range(9):
            ki, kj = divmod(t, 3)
            taps[:, t, part] = xp[:, part, ki:ki + h, kj:kj + wd]
    cols = (buf.reshape(c * 9, m).T if channel_major
            else buf.reshape(m, c * 9))
    out = cols @ w.reshape(c_out, -1).T
    rows = out.reshape(n, -1)  # a view: the add lands in ``out``
    rows += np.tile(b, h * wd)
    return out.reshape(n, h, wd, c_out), cols


def _conv_input_grad(dout_r: np.ndarray, w: np.ndarray,
                     x_shape: tuple[int, ...]) -> np.ndarray:
    """Gradient w.r.t. the channels-last conv input from the (n*h*w, c_out)
    output grad.

    One GEMM gives every tap's gradient, (n, h, w, c, 3, 3); the nine
    shifted adds then run over the same image chunks as the forward fill.
    An image's padded gradient only receives its own image's taps, in the
    same (ki, kj) order per chunk, so every sum is the one a whole-batch
    pass makes."""
    n, h, wd, c = x_shape
    dwin = (dout_r @ w.reshape(w.shape[0], -1)).reshape(n, h, wd, c, 3, 3)
    dxp = np.zeros((n, h + 2, wd + 2, c), dtype=dout_r.dtype)
    for part in _image_chunks(x_shape, dwin.itemsize):
        for ki in range(3):
            for kj in range(3):
                dxp[part, ki:ki + h, kj:kj + wd] += dwin[part, ..., ki, kj]
    return dxp[:, 1:h + 1, 1:wd + 1]


def _pool_forward(x: np.ndarray) -> np.ndarray:
    """2x2 max-pool: the max of the two row views, then of the two column
    views of that; max is exact, so the order does not change a value."""
    rows = np.maximum(x[:, 0::2], x[:, 1::2])
    return np.maximum(rows[:, :, 0::2], rows[:, :, 1::2])


@functools.cache
def _odd_columns(w: int, c: int) -> np.ndarray:
    """Read-only (w*c,) mask of a channels-last row's odd columns: the
    right-hand column of each 2x2 window."""
    odd = np.zeros((w // 2, 2, c), dtype=bool)
    odd[:, 1] = True
    odd = odd.reshape(-1)
    odd.flags.writeable = False
    return odd


def _relu_pool_backward(dout: np.ndarray, act: np.ndarray,
                        pooled: np.ndarray) -> np.ndarray:
    """Gradient w.r.t. the pre-ReLU conv output.

    Each window's gradient goes to its first maximum, row-major over the
    2x2 window (the position ``argmax`` picks), times the ReLU gate
    ``pooled > 0``; every other position gets +0.

    The work runs over whole (w*c) rows of each window's two image rows,
    against the peak and the gated gradient repeated to row width.  A
    window's two columns are neighbouring c-blocks of a row, so its other
    column is a shift by c.  A first maximum in row 0 is a hit with no hit
    left of it in the window; in row 1, a hit with none left of it and
    none in the window's row 0.  Each output row is written through a bit
    mask, ``(0 - first) & gated``, so it holds the gated value, sign bit
    and all, or +0."""
    n, h, w, c = act.shape
    pair = _odd_columns(w, c)[c:]  # pair[p]: p and p + c share a window
    peak = np.repeat(pooled, 2, axis=2).reshape(n, h // 2, w * c)
    gated = np.repeat(dout * (pooled > 0), 2, axis=2).reshape(peak.shape)
    bits = gated.view(f"i{act.itemsize}")
    rows = act.reshape(n, h // 2, 2, w * c)
    hit0, hit1 = rows[:, :, 0] == peak, rows[:, :, 1] == peak
    blocked0 = np.zeros_like(hit0)
    np.logical_and(hit0[..., :-c], pair, out=blocked0[..., c:])
    blocked1 = hit0.copy()
    blocked1[..., c:] |= (hit0[..., :-c] | hit1[..., :-c]) & pair
    blocked1[..., :-c] |= hit0[..., c:] & pair
    dpre = np.empty(act.shape, dtype=act.dtype)
    out = dpre.view(bits.dtype).reshape(rows.shape)
    for r, (hit, blocked) in enumerate(((hit0, blocked0), (hit1, blocked1))):
        first = np.greater(hit, blocked, out=blocked)
        np.subtract(0, first, out=out[:, :, r], dtype=bits.dtype)
        out[:, :, r] &= bits
    return dpre


def _bias_grad(dpre_r: np.ndarray) -> np.ndarray:
    """Conv bias gradient: the column sums of the (rows, c_out) output
    grad, adding row after row.  ``einsum`` keeps that order and runs over
    whole rows; with one column ``sum`` adds pairwise, and einsum would
    not match it."""
    if dpre_r.shape[1] == 1:
        return dpre_r.sum(axis=0)
    return np.einsum("ij->j", dpre_r)


def _check_inputs(params: ModelParams, images, tabular):
    needs_tab = params.kind in ("early_fusion", "daft") or (
        params.kind == "logistic" and params.tabular_dim is not None)
    if needs_tab and tabular is None:
        raise ValueError(f"{params.kind} requires a tabular batch")
    if params.kind == "lightweight" and tabular is not None:
        raise ValueError("lightweight takes no tabular input")
    if needs_tab and tabular.shape[1] != params.tabular_dim:
        raise ValueError(
            f"tabular dim {tabular.shape[1]} != expected {params.tabular_dim}")
    if params.kind != "logistic" or params.tabular_dim is None:
        if images is None:
            raise ValueError(f"{params.kind} requires an image batch")
        h, w = params.cnn.input_hw
        if images.ndim != 3 or images.shape[1:] != (h, w):
            raise ValueError(f"image batch {images.shape} != (n, {h}, {w})")


def _run(params: ModelParams, images, tabular, keep_cache: bool):
    """Shared forward pass of checked inputs; the cache is for backward."""
    dtype = params.vector.dtype
    cache: dict = {}
    if params.kind == "logistic":
        x = (tabular if params.tabular_dim is not None
             else images.reshape(images.shape[0], -1)).astype(dtype, copy=False)
        logits = x @ params.view("w").T + params.view("b")
        cache["x"] = x
        return logits[:, 0], cache
    cnn = params.cnn
    n, h, wd = images.shape
    f = 2 ** cnn.n_blocks
    images = images.astype(dtype, copy=False)[:, :, :, None]  # (n, h, w, 1)
    # the pooled maps in the head's (n, c, h, w) order
    x = np.empty((n, cnn.channels[-1], h // f, wd // f), dtype=dtype)
    last_rows = (h * wd * 4) // (f * f)  # GEMM rows per image, last block
    parts = ([slice(0, n)] if keep_cache else _image_chunks(
        images.shape, images.itemsize, -(-GEMM_ROW_FLOOR // last_rows)))
    blocks = []
    for part in parts:
        xc = images[part]
        for i in range(cnn.n_blocks):
            pre, cols = _conv_forward(xc, params.view(f"conv{i}_w"),
                                      params.view(f"conv{i}_b"))
            act = np.maximum(pre, 0, out=pre)
            pooled = _pool_forward(act)
            if keep_cache:
                blocks.append({"x_shape": xc.shape, "cols": cols, "act": act,
                               "pooled": pooled})
            xc = pooled
        x[part] = xc.transpose(0, 3, 1, 2)
    cache["blocks"] = blocks
    if params.kind == "daft":
        tab = tabular.astype(dtype, copy=False)
        c_last = params.cnn.channels[-1]
        film = tab @ params.view("film_w").T + params.view("film_b")
        gamma, beta = film[:, :c_last], film[:, c_last:]
        cache["pre_mod"] = x
        cache["gamma"] = gamma
        x = x * gamma[:, :, None, None] + beta[:, :, None, None]
        cache["tab"] = tab
    feats = x.reshape(x.shape[0], -1)
    cache["maps_shape"] = x.shape
    if params.kind == "early_fusion":
        tab = tabular.astype(dtype, copy=False)
        feats = np.concatenate([feats, tab], axis=1)
        cache["tab"] = tab
    logits = feats @ params.view("head_w").T + params.view("head_b")
    cache["feats"] = feats
    return logits[:, 0], cache


def forward(params: ModelParams, images: np.ndarray | None,
            tabular: np.ndarray | None = None) -> np.ndarray:
    """Batch logits, shape (n,); an empty batch has none."""
    _check_inputs(params, images, tabular)
    if len(tabular if images is None else images) == 0:
        return np.zeros(0, dtype=params.vector.dtype)
    logits, _ = _run(params, images, tabular, keep_cache=False)
    if not np.all(np.isfinite(logits)):
        raise NumericAbort("non-finite logits in forward pass")
    return logits


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def predict_proba(params: ModelParams, images) -> np.ndarray:
    return sigmoid(forward(params, images))


def class_weighted_bce(logits: np.ndarray, labels: np.ndarray,
                       weights: tuple[float, float] = (1.0, 1.0)) -> float:
    """Mean over the batch of w_{y_i} * BCE(sigma(z_i), y_i), stable form."""
    z = np.asarray(logits, dtype=np.float64)
    y = np.asarray(labels, dtype=np.float64)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary")
    if min(weights) <= 0:
        raise ValueError("class weights must be positive")
    # softplus(z) - y*z, with softplus(z) = max(z,0) + log1p(exp(-|z|))
    per = np.maximum(z, 0) - y * z + np.log1p(np.exp(-np.abs(z)))
    w = np.where(y == 1, weights[1], weights[0])
    return float(np.mean(w * per))


def class_weights_from_labels(labels: np.ndarray) -> tuple[float, float]:
    """w_c = N / (2 * N_c); requires both classes present."""
    n = len(labels)
    n1 = int(np.sum(labels))
    n0 = n - n1
    if n0 == 0 or n1 == 0:
        raise ValueError("both classes must be present to derive weights")
    return n / (2.0 * n0), n / (2.0 * n1)


def backward(params: ModelParams, images, tabular, labels,
             weights: tuple[float, float] = (1.0, 1.0)):
    """(loss, gradient) of the class-weighted BCE over the batch.

    Only parameter gradients are built: conv block 0's input gradient (the
    gradient w.r.t. the images) is never computed."""
    _check_inputs(params, images, tabular)
    logits, cache = _run(params, images, tabular, keep_cache=True)
    loss = class_weighted_bce(logits, labels, weights)
    y = np.asarray(labels, dtype=np.float64)
    wv = np.where(y == 1, weights[1], weights[0])
    dz = (wv * (sigmoid(logits) - y) / len(y)).astype(params.vector.dtype)

    grad = np.zeros_like(params.vector)
    gview = ModelParams(kind=params.kind, layout=params.layout, vector=grad,
                        cnn=params.cnn, tabular_dim=params.tabular_dim)

    if params.kind == "logistic":
        x = cache["x"]
        gview.view("w")[...] = dz[None, :] @ x
        gview.view("b")[...] = dz.sum()
        return loss, grad

    feats = cache["feats"]
    gview.view("head_w")[...] = dz[None, :] @ feats
    gview.view("head_b")[...] = dz.sum()
    dfeats = dz[:, None] @ params.view("head_w")

    if params.kind == "early_fusion":  # drop the tabular input columns
        dfeats = dfeats[:, :feats.shape[1] - params.tabular_dim]

    dmaps = dfeats.reshape(cache["maps_shape"])
    if params.kind == "daft":
        c_last = params.cnn.channels[-1]
        pre_mod = cache["pre_mod"]
        gamma = cache["gamma"]
        tab = cache["tab"]
        dgamma = (dmaps * pre_mod).sum(axis=(2, 3))  # (n, c)
        dbeta = dmaps.sum(axis=(2, 3))
        dmaps = dmaps * gamma[:, :, None, None]
        gview.view("film_w")[:c_last] = dgamma.T @ tab
        gview.view("film_w")[c_last:] = dbeta.T @ tab
        gview.view("film_b")[:c_last] = dgamma.sum(axis=0)
        gview.view("film_b")[c_last:] = dbeta.sum(axis=0)

    dx = dmaps.transpose(0, 2, 3, 1)  # back to the conv stack's (n, h, w, c)
    for i in reversed(range(params.cnn.n_blocks)):
        blk = cache["blocks"][i]
        w = params.view(f"conv{i}_w")
        dpre_r = _relu_pool_backward(dx, blk["act"], blk["pooled"]).reshape(
            -1, w.shape[0])
        gview.view(f"conv{i}_w")[...] = (dpre_r.T @ blk["cols"]).reshape(w.shape)
        gview.view(f"conv{i}_b")[...] = _bias_grad(dpre_r)
        if i > 0:  # block 0's input is the image: no layer below needs it
            dx = _conv_input_grad(dpre_r, w, blk["x_shape"])
    return loss, grad


# ---------------------------------------------------------------------------
# Optimizer


def rmsprop_step(vector: np.ndarray, grad: np.ndarray, state: np.ndarray,
                 lr: float):
    if lr <= 0:
        raise ValueError("lr must be positive")
    if not np.all(np.isfinite(grad)):
        bad = int(np.sum(~np.isfinite(grad)))
        raise NumericAbort(
            f"rmsprop_step: {bad}/{grad.size} non-finite gradient entries")
    state = RMSPROP_RHO * state + (1.0 - RMSPROP_RHO) * grad * grad
    return vector - lr * grad / (np.sqrt(state) + RMSPROP_EPS), state


# ---------------------------------------------------------------------------
# Datasets and training


@dataclass
class ArrayDataset:
    images: np.ndarray | None
    tabular: np.ndarray | None
    labels: np.ndarray

    def __post_init__(self):
        y = np.asarray(self.labels)
        if not np.all((y == 0) | (y == 1)):
            raise ValueError("labels must be binary")
        ns = {a.shape[0] for a in (self.images, self.tabular, self.labels)
              if a is not None}
        if len(ns) != 1:
            raise ValueError("images/tabular/labels lengths disagree")

    def __len__(self) -> int:
        return len(self.labels)

    def take(self, idx) -> "ArrayDataset":
        return ArrayDataset(
            images=None if self.images is None else self.images[idx],
            tabular=None if self.tabular is None else self.tabular[idx],
            labels=self.labels[idx])


def train(kind: str, train_set: ArrayDataset, val_set: ArrayDataset,
          config: TrainConfig, lr: float, seed: int, cnn: CnnConfig,
          ) -> tuple[ModelParams, list[float]]:
    """Mini-batch training; returns the snapshot from the epoch with minimum
    validation loss (ties -> earliest) plus the per-epoch validation losses.
    The model takes the training set's tabular columns, if it has any.

    The training set is only ever seen in minibatches: each minibatch loss
    must be finite, and the one full forward per epoch is on the
    validation set."""
    if len(val_set) == 0:
        raise ValueError("validation set must be nonempty")
    tabular_dim = (None if train_set.tabular is None
                   else train_set.tabular.shape[1])
    weights = class_weights_from_labels(train_set.labels)
    params = build_params(kind, cnn=cnn, tabular_dim=tabular_dim,
                          rng=CounterRng(seed, "init", kind))
    shuffle_rng = CounterRng(seed, "shuffle", kind)
    opt_state = np.zeros_like(params.vector)
    n = len(train_set)
    best_vec = None
    best_val = math.inf
    val_losses: list[float] = []
    for epoch in range(1, config.max_epochs + 1):
        order = list(range(n))
        shuffle_rng.shuffle(order)
        for batch_no, start in enumerate(range(0, n, config.batch_size), 1):
            idx = order[start:start + config.batch_size]
            batch = train_set.take(idx)
            loss, grad = backward(params, batch.images, batch.tabular,
                                  batch.labels, weights)
            if not math.isfinite(loss):
                raise NumericAbort(f"training loss {loss} at epoch {epoch}, "
                                   f"batch {batch_no}")
            params.vector, opt_state = rmsprop_step(
                params.vector, grad, opt_state, lr)
        val_loss = class_weighted_bce(
            forward(params, val_set.images, val_set.tabular),
            val_set.labels, weights)
        if math.isnan(val_loss):
            raise NumericAbort(f"validation loss NaN at epoch {epoch}")
        val_losses.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_vec = params.vector.copy()
    best = ModelParams(kind=kind, layout=params.layout, vector=best_vec,
                       cnn=cnn, tabular_dim=tabular_dim)
    return best, val_losses


# ---------------------------------------------------------------------------
# Logistic regression via IRLS (the tabular baseline)


def logistic_fit(x: np.ndarray, y: np.ndarray) -> ModelParams:
    """Ridge-penalized (``LOGISTIC_RIDGE``) logistic regression; intercept
    unpenalized.  IRLS until max |delta coef| < ``LOGISTIC_TOL`` or
    ``LOGISTIC_MAX_ITER`` sweeps.  Deterministic: no randomness anywhere.
    """
    x = np.asarray(x, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if not np.all((y == 0) | (y == 1)):
        raise ValueError("labels must be binary")
    n, d = x.shape
    design = np.concatenate([np.ones((n, 1)), x], axis=1)
    beta = np.zeros(d + 1)
    penalty = LOGISTIC_RIDGE * np.eye(d + 1)
    penalty[0, 0] = 0.0
    trace = []
    for it in range(LOGISTIC_MAX_ITER):
        eta = design @ beta
        p = sigmoid(eta)
        w = np.clip(p * (1.0 - p), 1e-10, None)
        z = eta + (y - p) / w
        a = design.T @ (design * w[:, None]) + penalty
        b = design.T @ (w * z)
        try:
            new = np.linalg.solve(a, b)
        except np.linalg.LinAlgError as exc:
            raise NumericAbort(f"IRLS solve failed at iteration {it}: {exc}")
        if not np.all(np.isfinite(new)):
            raise NumericAbort(
                f"IRLS diverged at iteration {it}; trace={trace[-5:]}")
        delta = float(np.max(np.abs(new - beta)))
        trace.append(delta)
        beta = new
        if delta < LOGISTIC_TOL:
            break
    params = build_params("logistic", tabular_dim=d, dtype=np.float64)
    params.view("w")[...] = beta[1:]
    params.view("b")[...] = beta[0]
    return params


# ---------------------------------------------------------------------------
# Tabular encoding


@dataclass(frozen=True)
class TabularEncoding:
    """Severity one-hot (5) + normalized lesion size + normalized log
    recovery time.  References come from training-split statistics."""

    size_ref: float
    time_ref: float

    def __post_init__(self):
        if self.size_ref <= 0 or self.time_ref <= 0:
            raise ValueError("references must be positive")

    @property
    def dim(self) -> int:
        return 7

    def design(self, records: Sequence[SubjectRecord]) -> np.ndarray:
        onehot = np.zeros((len(records), len(SEVERITY_CATEGORIES)))
        for i, r in enumerate(records):
            onehot[i, SEVERITY_CATEGORIES.index(r.severity)] = 1.0
        size = np.array([min(1.0, max(0.0, r.left_lesion_size / self.size_ref))
                         for r in records])
        ref = math.log1p(self.time_ref)
        time = np.array([min(1.0, max(0.0, math.log1p(r.recovery_time) / ref))
                         for r in records])
        return np.concatenate([onehot, size[:, None], time[:, None]], axis=1)


# ---------------------------------------------------------------------------
# Checkpoints (CKP1)


def write_checkpoint(params: ModelParams, path: str | Path) -> None:
    """Write ``params`` as CKP1: magic, u32 header length, JSON header (kind,
    cnn, tabular_dim), then the parameter vector as little-endian float32.

    Every kind is stored as float32, so the float64 coefficients of an IRLS
    logistic fit lose precision in a round trip.
    """
    meta = {
        "kind": params.kind,
        "cnn": None if params.cnn is None else asdict(params.cnn),
        "tabular_dim": params.tabular_dim,
    }
    blob = json.dumps(meta, sort_keys=True).encode("utf-8")
    payload = np.ascontiguousarray(params.vector, dtype="<f4").tobytes()
    Path(path).write_bytes(CKP_MAGIC + struct.pack("<I", len(blob)) + blob + payload)


def read_checkpoint(path: str | Path) -> ModelParams:
    """Parse a CKP1 file; any malformed part raises FormatError with the
    byte offset where it starts."""
    raw = Path(path).read_bytes()
    if len(raw) < 8:
        raise FormatError("truncated checkpoint", len(raw))
    if raw[:4] != CKP_MAGIC:
        raise FormatError(f"bad magic {raw[:4]!r}", 0)
    (jlen,) = struct.unpack("<I", raw[4:8])
    start = 8 + jlen  # payload offset
    if len(raw) < start:
        raise FormatError("truncated config JSON", 8)
    blob = raw[8:start]
    try:
        meta = json.loads(blob.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError(f"config JSON is not UTF-8: {exc.reason}",
                          8 + exc.start) from None
    except json.JSONDecodeError as exc:
        at = len(exc.doc[:exc.pos].encode("utf-8"))
        raise FormatError(f"bad config JSON: {exc.msg}", 8 + at) from None
    if not isinstance(meta, dict):
        raise FormatError("config JSON is not an object", 8)
    for key in ("kind", "cnn", "tabular_dim"):
        if key not in meta:
            raise FormatError(f"config JSON has no {key!r}", 8)
    kind, tabular_dim = meta["kind"], meta["tabular_dim"]
    if kind not in MODEL_KINDS:
        raise FormatError(f"unknown model kind {kind!r}", 8)
    try:
        cnn = None if meta["cnn"] is None \
            else from_json_object(CnnConfig, meta["cnn"], "cnn config")
        layout = _layout_for(kind, cnn, tabular_dim)
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"bad model config: {exc}", 8) from None
    if not all(type(d) is int and d > 0 for _, shape in layout for d in shape):
        raise FormatError("layout dimensions must be positive integers", 8)
    total = _layout_size(layout)
    if len(raw) - start != 4 * total:
        raise FormatError(f"payload of {len(raw) - start} bytes != "
                          f"{total} float32 parameters", start)
    vec = np.frombuffer(raw, dtype="<f4", offset=start).copy()
    bad = np.flatnonzero(~np.isfinite(vec))
    if len(bad):
        raise FormatError("non-finite parameter", start + 4 * int(bad[0]))
    return ModelParams(kind=kind, layout=layout, vector=vec, cnn=cnn,
                       tabular_dim=tabular_dim)
