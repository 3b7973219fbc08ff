"""Network data types, evaluation, validation, and interval range analysis.

Three network kinds are used throughout:

* ``SkipNet``: hidden layers of equal width, with skip connections from the
  input to every hidden layer and from every hidden unit to the output.
  The first hidden layer reads only the inputs; layer l+1 reads the inputs
  and layer l; the output is an affine map over the inputs and all hidden
  units.
* ``StandardNet``: a plain feedforward net where layer l reads only layer
  l-1 and the output reads only the last hidden layer. Layer widths may
  vary.
* ``ShallowNet``: one hidden layer of ReLU or sigmoidal-step units whose
  weighted sum is the output.

Evaluation compiles any of them into one straight-line program: per unit,
its bias and its nonzero (source, weight) terms in declaration order. One
kernel runs that program over chunks of points. Every sum is formed in
declaration order, so the output is bit-identical for every chunk size and
thread count, and zero-weight padding changes no bit.

All types are immutable after construction and all functions here are pure,
so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby
from typing import Callable, NamedTuple

import numpy as np

from .errors import InputError, StructuralError

__all__ = [
    "Box",
    "SkipNet",
    "StandardNet",
    "ShallowNet",
    "IntervalReport",
    "affine_net",
    "eval_skip",
    "eval_skip_batch",
    "eval_standard",
    "eval_standard_batch",
    "eval_shallow",
    "eval_shallow_batch",
    "evaluate",
    "evaluate_batch",
    "validate",
    "interval_bounds",
    "RELU_ACTIVATION",
    "SIGMOIDAL_ACTIVATION",
]

RELU_ACTIVATION = "relu"
SIGMOIDAL_ACTIVATION = "sigmoidal-step"


def _frozen(a, dtype=float) -> np.ndarray:
    """Contiguous read-only float array."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    arr.setflags(write=False)
    return arr


def _frozen_tuple(seq) -> tuple:
    return tuple(_frozen(a) for a in seq)


# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box with finite endpoints and lo < hi per axis."""

    lo: np.ndarray
    hi: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "lo", _frozen(np.atleast_1d(self.lo)))
        object.__setattr__(self, "hi", _frozen(np.atleast_1d(self.hi)))
        if self.lo.ndim != 1 or self.lo.shape != self.hi.shape:
            raise StructuralError("box endpoints must be 1-d arrays of equal length")
        if not (np.isfinite(self.lo).all() and np.isfinite(self.hi).all()):
            raise StructuralError("box endpoints must be finite")
        if not (self.lo < self.hi).all():
            raise StructuralError("box requires lo < hi on every axis")

    @property
    def dim(self) -> int:
        return self.lo.shape[0]

    @staticmethod
    def symmetric(dim: int, radius: float = 1.0) -> "Box":
        return Box(np.full(dim, -radius), np.full(dim, radius))

    def contains(self, other: "Box") -> bool:
        if other.dim != self.dim:
            return False
        return bool((self.lo <= other.lo).all() and (other.hi <= self.hi).all())

    def contains_points(self, X: np.ndarray, atol: float = 0.0) -> bool:
        return bool(
            (X >= self.lo - atol).all() and (X <= self.hi + atol).all()
        )

    def sample(self, n: int, rng: np.random.Generator) -> np.ndarray:
        """n points drawn uniformly from the box, reproducible from rng."""
        return rng.uniform(self.lo, self.hi, size=(n, self.dim))

    def as_pairs(self) -> list:
        return [[float(a), float(b)] for a, b in zip(self.lo, self.hi)]


# ---------------------------------------------------------------------------
# Network types


@dataclass(frozen=True)
class SkipNet:
    """ReLU net with input skips to every layer and hidden skips to the output.

    ``first_w`` is (width, input_dim) and ``first_b`` (width,). Each deeper
    layer has ``wx`` (width, input_dim) over the inputs, ``wy`` (width, width)
    over the previous layer, and a bias vector. The output map is
    ``out_a0 + out_a . x + sum(out_beta[l, m] * y[l, m])``.

    A purely affine function is the depth-0 net: ``first_w is None`` and all
    layer tuples are empty. ``shifts`` records positivity offsets introduced
    by structural rewrites; it does not affect evaluation.
    """

    input_dim: int
    first_w: np.ndarray | None
    first_b: np.ndarray | None
    hidden_wx: tuple
    hidden_wy: tuple
    hidden_b: tuple
    out_a0: float
    out_a: np.ndarray
    out_beta: np.ndarray
    domain: Box
    shifts: tuple = field(default=())

    def __post_init__(self):
        if self.first_w is not None:
            object.__setattr__(self, "first_w", _frozen(self.first_w))
            object.__setattr__(self, "first_b", _frozen(self.first_b))
        object.__setattr__(self, "hidden_wx", _frozen_tuple(self.hidden_wx))
        object.__setattr__(self, "hidden_wy", _frozen_tuple(self.hidden_wy))
        object.__setattr__(self, "hidden_b", _frozen_tuple(self.hidden_b))
        object.__setattr__(self, "out_a0", float(self.out_a0))
        object.__setattr__(self, "out_a", _frozen(self.out_a))
        object.__setattr__(self, "out_beta", _frozen(np.asarray(self.out_beta, dtype=float).reshape(self.depth, self.width)))
        object.__setattr__(self, "shifts", tuple(float(s) for s in self.shifts))

    @property
    def depth(self) -> int:
        """Number of hidden layers. The output affine map is not a layer."""
        if self.first_w is None:
            return 0
        return 1 + len(self.hidden_b)

    @property
    def width(self) -> int:
        if self.first_w is None:
            return 0
        return self.first_w.shape[0]


def affine_net(a0: float, a, domain: Box) -> SkipNet:
    """Depth-0 net computing ``a0 + a . x``."""
    a = np.asarray(a, dtype=float)
    return SkipNet(
        input_dim=domain.dim,
        first_w=None,
        first_b=None,
        hidden_wx=(),
        hidden_wy=(),
        hidden_b=(),
        out_a0=float(a0),
        out_a=a,
        out_beta=np.zeros((0, 0)),
        domain=domain,
    )


@dataclass(frozen=True)
class StandardNet:
    """Plain feedforward ReLU net; layer l reads only layer l-1.

    ``layer_w[l]`` has shape (width_l, width_{l-1}) with width_{-1} equal to
    the input dimension. The output is ``out_w . h_last + out_b``.
    """

    input_dim: int
    layer_w: tuple
    layer_b: tuple
    out_w: np.ndarray
    out_b: float
    domain: Box
    shifts: tuple = field(default=())

    def __post_init__(self):
        object.__setattr__(self, "layer_w", _frozen_tuple(self.layer_w))
        object.__setattr__(self, "layer_b", _frozen_tuple(self.layer_b))
        object.__setattr__(self, "out_w", _frozen(self.out_w))
        object.__setattr__(self, "out_b", float(self.out_b))
        object.__setattr__(self, "shifts", tuple(float(s) for s in self.shifts))

    @property
    def depth(self) -> int:
        return len(self.layer_b)

    @property
    def widths(self) -> tuple:
        return tuple(b.shape[0] for b in self.layer_b)


@dataclass(frozen=True)
class ShallowNet:
    """One-hidden-layer net ``c0 + sum_j c[j] * act(a[j] . x + b[j])``.

    ``activation`` is ``"relu"`` or ``"sigmoidal-step"``, the bounded ramp
    ``act(z) = ReLU(z) - ReLU(z - 1)``.
    """

    input_dim: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c0: float
    activation: str
    domain: Box

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(np.asarray(self.a, dtype=float).reshape(-1, self.input_dim)))
        object.__setattr__(self, "b", _frozen(self.b))
        object.__setattr__(self, "c", _frozen(self.c))
        object.__setattr__(self, "c0", float(self.c0))

    @property
    def units(self) -> int:
        return self.a.shape[0]


# ---------------------------------------------------------------------------
# Evaluation
#
# Every net kind compiles to one straight-line program of stages; a stage
# computes some hidden units, then adds its terms to the output sum. A unit is
# a register row, a bias and its nonzero (source row, weight) terms in
# declaration order: input terms, then previous-layer terms, ascending. The
# registers hold the inputs, then two banks that layers alternate between; a
# shallow net puts every unit on one row, in a stage of its own.
#
# Sums run in that order with one rounding per multiply and per add, so no bit
# depends on the chunk size or the thread count, and skipping zero weights
# keeps padding neutral. A +-1 weight is a bare add or subtract, which rounds
# the same; a shallow net keeps zero output terms (-0.0 + 0 * z is +0.0).

_CHUNK = 1 << 16  # points per kernel pass; verify's thread pool splits on it too


class _Program(NamedTuple):
    input_dim: int
    registers: int
    out_bias: float
    ceiling: float | None  # clip after the ReLU: 1.0 for the sigmoidal step
    stages: tuple  # ((units, output terms), ...); a unit is (row, bias, terms)


def _split(rows: np.ndarray, weights: np.ndarray, counts) -> list:
    """Flat (row, weight) terms cut into consecutive groups of ``counts``."""
    terms = list(zip(rows.tolist(), weights.tolist()))
    ends = np.cumsum(counts, dtype=int).tolist()
    return [tuple(terms[a:b]) for a, b in zip([0] + ends[:-1], ends)]


def _layers(W: np.ndarray, b: np.ndarray, src: np.ndarray, dst: np.ndarray) -> list:
    """Units of stacked layers, one tuple per layer: ``W`` is (layers, units,
    sources), ``b`` (layers, units); column k of layer l reads row ``src[l, k]``
    and its unit m writes row ``dst[l, m]``."""
    l, m, k = np.nonzero(W)
    width = W.shape[1]
    terms = _split(src[l, k], W[l, m, k], np.bincount(l * width + m, minlength=b.size))
    units = list(zip(dst.ravel().tolist(), b.ravel().tolist(), terms))
    return [tuple(units[i * width : (i + 1) * width]) for i in range(len(W))]


def _compile_skip(net: SkipNet) -> _Program:
    d, w, depth = net.input_dim, net.width, net.depth
    nz = np.flatnonzero(net.out_a)
    stages = [((), _split(nz, net.out_a[nz], [nz.size])[0])]
    if depth:
        banks = d + (np.arange(depth) % 2)[:, None] * w + np.arange(w)
        wx = np.stack((net.first_w,) + net.hidden_wx)
        wy = np.stack((np.zeros((w, w)),) + net.hidden_wy)
        # layer l reads the inputs and the bank that layer l - 1 wrote
        src = np.hstack([np.broadcast_to(np.arange(d), (depth, d)), np.roll(banks, 1, axis=0)])
        b = np.stack((net.first_b,) + net.hidden_b)
        l, m = np.nonzero(net.out_beta)
        outs = _split(banks[l, m], net.out_beta[l, m], np.bincount(l, minlength=depth))
        stages += zip(_layers(np.concatenate([wx, wy], axis=2), b, src, banks), outs)
    return _Program(d, d + min(depth, 2) * w, net.out_a0, None, tuple(stages))


def _compile_standard(net: StandardNet) -> _Program:
    d, widest = net.input_dim, max(net.widths, default=0)
    stages, prev = [], np.arange(d)
    for _, group in groupby(range(net.depth), key=lambda l: net.layer_w[l].shape):
        ls = list(group)
        banks = d + (np.array(ls) % 2)[:, None] * widest + np.arange(len(net.layer_b[ls[0]]))
        W = np.stack([net.layer_w[l] for l in ls])
        b = np.stack([net.layer_b[l] for l in ls])
        stages += [(units, ()) for units in _layers(W, b, np.vstack([prev, *banks[:-1]]), banks)]
        prev = banks[-1]
    nz = np.flatnonzero(net.out_w)
    stages.append(((), _split(prev[nz], net.out_w[nz], [nz.size])[0]))
    return _Program(d, d + min(net.depth, 2) * widest, net.out_b, None, tuple(stages))


def _compile_shallow(net: ShallowNet) -> _Program:
    d, n = net.input_dim, net.units
    src = np.broadcast_to(np.arange(d), (n, d))
    units = _layers(net.a[:, None, :], net.b[:, None], src, np.full((n, 1), d))
    outs = [((d, c),) for c in net.c.tolist()]
    ceiling = 1.0 if net.activation == SIGMOIDAL_ACTIVATION else None
    return _Program(d, d + 1, net.c0, ceiling, tuple(zip(units, outs)))


def _add_terms(z: np.ndarray, terms, rows: list, tmp: np.ndarray, start=None) -> None:
    """Add the terms to z in order. Given ``start``, z is set to it first, in
    the first term's pass when there is one."""
    acc = z if start is None else start
    for row, w in terms:
        if abs(w) == 1.0:
            (np.add if w > 0 else np.subtract)(acc, rows[row], out=z)
        else:
            np.multiply(rows[row], w, out=tmp)
            np.add(acc, tmp, out=z)
        acc = z
    if acc is not z:
        z.fill(acc)


def _run(prog: _Program, X) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != prog.input_dim:
        raise InputError(
            f"expected points of dimension {prog.input_dim}, got array of shape {X.shape}"
        )
    if not np.isfinite(X).all():
        raise InputError("evaluation points must be finite")
    out, regs = np.empty(len(X)), np.empty((prog.registers + 1, min(len(X), _CHUNK)))
    for a in range(0, len(X), _CHUNK):
        acc = out[a : a + _CHUNK]
        regs[: prog.input_dim, : len(acc)] = X[a : a + _CHUNK].T
        *rows, tmp = regs[:, : len(acc)]  # the extra last row holds products
        acc.fill(prog.out_bias)
        for units, out_terms in prog.stages:
            for row, bias, terms in units:
                z = rows[row]
                _add_terms(z, terms, rows, tmp, start=bias)
                np.maximum(z, 0.0, out=z)
                if prog.ceiling is not None:
                    np.minimum(z, prog.ceiling, out=z)
            _add_terms(acc, out_terms, rows, tmp)
    return out


def evaluate_batch(net, X) -> np.ndarray:
    """Evaluate any supported network type on an (n, d) array of points."""
    for kind, compile_kind in (
        (SkipNet, _compile_skip), (StandardNet, _compile_standard), (ShallowNet, _compile_shallow)
    ):
        if isinstance(net, kind):
            return _run(compile_kind(net), X)
    raise StructuralError(f"cannot evaluate object of type {type(net).__name__}")


def evaluate(net, x) -> float:
    """Evaluate any supported network type at a single point."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 1:
        raise InputError(f"expected a single point, got shape {x.shape}")
    return float(evaluate_batch(net, x.reshape(1, -1))[0])


# Per-kind names kept for callers; every kind runs the same kernel.
eval_skip_batch = eval_standard_batch = eval_shallow_batch = evaluate_batch
eval_skip = eval_standard = eval_shallow = evaluate


# ---------------------------------------------------------------------------
# Validation


def _finite(name, arr, problems):
    if not np.isfinite(arr).all():
        problems.append(f"non-finite weight in {name}")


def _validate_skip(net: SkipNet) -> list:
    p = []
    d, width, depth = net.input_dim, net.width, net.depth
    if d < 1:
        p.append("input_dim must be positive")
    if depth == 0:
        if net.out_beta.size != 0:
            p.append("depth-0 net carries hidden output coefficients")
    else:
        if net.first_w.shape != (width, d):
            p.append(f"first layer weight shape {net.first_w.shape} != ({width}, {d})")
        if net.first_b.shape != (width,):
            p.append(f"first layer bias shape {net.first_b.shape} != ({width},)")
        _finite("first layer", net.first_w, p)
        _finite("first layer bias", net.first_b, p)
        if not (len(net.hidden_wx) == len(net.hidden_wy) == len(net.hidden_b) == depth - 1):
            p.append(
                f"hidden layer count {len(net.hidden_b)} inconsistent with depth {depth}"
            )
        for i, (wx, wy, b) in enumerate(zip(net.hidden_wx, net.hidden_wy, net.hidden_b)):
            layer = i + 2
            if wx.shape != (width, d):
                p.append(f"layer {layer} input-weight shape {wx.shape} != ({width}, {d})")
            if wy.shape != (width, width):
                p.append(f"layer {layer} recurrent-weight shape {wy.shape} != ({width}, {width})")
            if b.shape != (width,):
                p.append(f"layer {layer} bias shape {b.shape} != ({width},)")
            _finite(f"layer {layer}", wx, p)
            _finite(f"layer {layer}", wy, p)
            _finite(f"layer {layer} bias", b, p)
    if net.out_a.shape != (d,):
        p.append(f"output input-coefficient shape {net.out_a.shape} != ({d},)")
    if net.out_beta.shape != (depth, width):
        p.append(f"output hidden-coefficient shape {net.out_beta.shape} != ({depth}, {width})")
    _finite("output", net.out_a, p)
    _finite("output", net.out_beta, p)
    if not np.isfinite(net.out_a0):
        p.append("non-finite output bias")
    if net.domain.dim != d:
        p.append(f"domain dimension {net.domain.dim} != input_dim {d}")
    return p


def _validate_standard(net: StandardNet) -> list:
    p = []
    if net.input_dim < 1:
        p.append("input_dim must be positive")
    if net.depth == 0:
        p.append("standard net requires at least one hidden layer")
        return p
    prev = net.input_dim
    for i, (W, b) in enumerate(zip(net.layer_w, net.layer_b)):
        layer = i + 1
        if W.ndim != 2 or W.shape != (b.shape[0], prev):
            p.append(f"layer {layer} weight shape {W.shape} does not chain from width {prev}")
            prev = W.shape[0] if W.ndim == 2 else prev
            continue
        _finite(f"layer {layer}", W, p)
        _finite(f"layer {layer} bias", b, p)
        prev = W.shape[0]
    if net.out_w.shape != (prev,):
        p.append(f"output weight shape {net.out_w.shape} != ({prev},)")
    _finite("output", net.out_w, p)
    if not np.isfinite(net.out_b):
        p.append("non-finite output bias")
    if net.domain.dim != net.input_dim:
        p.append(f"domain dimension {net.domain.dim} != input_dim {net.input_dim}")
    return p


def _validate_shallow(net: ShallowNet) -> list:
    p = []
    if net.units < 1:
        p.append("shallow net requires at least one unit")
    if net.a.shape != (net.units, net.input_dim):
        p.append(f"direction shape {net.a.shape} != ({net.units}, {net.input_dim})")
    if net.b.shape != (net.units,) or net.c.shape != (net.units,):
        p.append("offset/coefficient vectors must have one entry per unit")
    _finite("directions", net.a, p)
    _finite("offsets", net.b, p)
    _finite("coefficients", net.c, p)
    if not np.isfinite(net.c0):
        p.append("non-finite output bias")
    if net.activation not in (RELU_ACTIVATION, SIGMOIDAL_ACTIVATION):
        p.append(f"unknown activation tag {net.activation!r}")
    if net.domain.dim != net.input_dim:
        p.append(f"domain dimension {net.domain.dim} != input_dim {net.input_dim}")
    return p


def validate(net) -> list:
    """Return a list of human-readable invariant violations; empty iff valid."""
    if isinstance(net, SkipNet):
        return _validate_skip(net)
    if isinstance(net, StandardNet):
        return _validate_standard(net)
    if isinstance(net, ShallowNet):
        return _validate_shallow(net)
    return [f"unsupported network type {type(net).__name__}"]


# ---------------------------------------------------------------------------
# Interval range analysis


@dataclass(frozen=True)
class IntervalReport:
    """Conservative per-unit pre-activation ranges plus the output range.

    ``pre_lo[l][m] <= preactivation(l, m) <= pre_hi[l][m]`` for every point
    of the analyzed box; ``post_*`` are the ranges after ReLU.
    """

    pre_lo: tuple
    pre_hi: tuple
    post_lo: tuple
    post_hi: tuple
    out_lo: float
    out_hi: float


def _affine_range(W, b, lo, hi):
    pos = np.clip(W, 0.0, None)
    neg = np.clip(W, None, 0.0)
    return b + pos @ lo + neg @ hi, b + pos @ hi + neg @ lo


def interval_bounds(net, box: Box) -> IntervalReport:
    """Propagate the box through the net, layer by layer.

    The returned intervals are supersets of the true ranges (standard
    interval arithmetic, no correlation tracking).
    """
    if box.dim != net.input_dim:
        raise InputError(f"box dimension {box.dim} != input_dim {net.input_dim}")
    pre_lo, pre_hi, post_lo, post_hi = [], [], [], []
    if isinstance(net, SkipNet):
        if net.depth > 0:
            lo, hi = _affine_range(net.first_w, net.first_b, box.lo, box.hi)
            pre_lo.append(lo)
            pre_hi.append(hi)
            post_lo.append(np.maximum(lo, 0.0))
            post_hi.append(np.maximum(hi, 0.0))
            for wx, wy, b in zip(net.hidden_wx, net.hidden_wy, net.hidden_b):
                xlo, xhi = _affine_range(wx, np.zeros_like(b), box.lo, box.hi)
                ylo, yhi = _affine_range(wy, b, post_lo[-1], post_hi[-1])
                lo, hi = xlo + ylo, xhi + yhi
                pre_lo.append(lo)
                pre_hi.append(hi)
                post_lo.append(np.maximum(lo, 0.0))
                post_hi.append(np.maximum(hi, 0.0))
        olo, ohi = _affine_range(net.out_a.reshape(1, -1), np.array([net.out_a0]), box.lo, box.hi)
        olo, ohi = float(olo[0]), float(ohi[0])
        for l in range(net.depth):
            blo, bhi = _affine_range(
                net.out_beta[l].reshape(1, -1), np.zeros(1), post_lo[l], post_hi[l]
            )
            olo += float(blo[0])
            ohi += float(bhi[0])
    elif isinstance(net, StandardNet):
        lo_in, hi_in = box.lo, box.hi
        for W, b in zip(net.layer_w, net.layer_b):
            lo, hi = _affine_range(W, b, lo_in, hi_in)
            pre_lo.append(lo)
            pre_hi.append(hi)
            lo_in, hi_in = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
            post_lo.append(lo_in)
            post_hi.append(hi_in)
        olo, ohi = _affine_range(net.out_w.reshape(1, -1), np.array([net.out_b]), lo_in, hi_in)
        olo, ohi = float(olo[0]), float(ohi[0])
    else:
        raise StructuralError(f"interval analysis unsupported for {type(net).__name__}")
    return IntervalReport(
        pre_lo=tuple(pre_lo),
        pre_hi=tuple(pre_hi),
        post_lo=tuple(post_lo),
        post_hi=tuple(post_hi),
        out_lo=olo,
        out_hi=ohi,
    )
