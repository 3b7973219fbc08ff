"""Structural algebra on networks.

Operations here rewrite networks while preserving the computed function:
scaled addition, composition, width padding, input substitution, conversion
of skip-form nets to plain feedforward form, re-layering of shallow nets
into deep ones, and rewriting of bounded-ramp activations into ReLU pairs.
A scaled sum of any number of operands stacks in one step, ``_sum``.

Signed values that must survive a ReLU layer untouched are stored with a
positivity shift: a channel holds ``v + c`` with ``c`` large enough that
the ReLU argument stays nonnegative over the domain box, and every consumer
subtracts ``c`` through its bias. All shift constants are recorded on the
result's ``shifts`` metadata.

Shifts have two sources. A builder that composes onto a product chain
declares the chain's two shifts, ``SkipNet.chain_shifts``, from bounds it
proves (``builders._compose_grow``), and ``compose`` takes them with no
analysis. Every other shift comes from ranges: ``nets.interval_bounds``,
whose ``term_lo`` bounds each hidden layer's output term, and
``nets._affine_range`` for the output head over the box, under one rule,
``_shift``: a value with lower bound ``lo`` is shifted by ``max(0, -lo)``.
``_shifts`` applies it to running partials, each the sum of its terms taken
in order.

One function lays out the standard form: ``skip_to_standard`` alone builds
input-carry and accumulator channels, which hold the box's lower ends and
the output partial shifted. ``wide_to_deep`` relayers a shallow net as a
skip net and goes through it. ``compose`` threads its partial through a
free channel of the inner net instead and adds no channel.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from .errors import (
    ConversionError,
    NoFreeChannelError,
    ParameterError,
    StructuralError,
)
from .nets import (
    Box,
    RELU_ACTIVATION,
    SIGMOIDAL_ACTIVATION,
    ShallowNet,
    SkipNet,
    StandardNet,
    _affine_range,
    affine_net,
    interval_bounds,
)

__all__ = [
    "add",
    "compose",
    "pad_width",
    "substitute_inputs",
    "skip_to_standard",
    "wide_to_deep",
    "sigmoidal_to_relu",
    "count_params",
    "count_params_standard",
]


def _require(cond: bool, message: str):
    if not cond:
        raise StructuralError(message)


def _head_lo(f: SkipNet) -> float:
    """Lower bound of the affine head ``out_a0 + out_a . x`` over the domain."""
    return f.out_a0 + float(_affine_range(f.out_a, 0.0, f.domain.lo, f.domain.hi)[0])


def _shift(lo) -> list:
    """Positivity shift ``max(0, -lo)`` of each lower bound in ``lo``.

    Python's ``max`` keeps a zero shift +0.0, where ``np.maximum(0.0, -0.0)``
    is -0.0.
    """
    return [max(0.0, -v) for v in np.asarray(lo, dtype=float).tolist()]


def _shifts(base: float, terms_lo) -> list:
    """Positivity shift of each running partial ``base + t_0 + .. + t_k``.

    ``terms_lo`` are lower bounds of the terms, summed left to right.
    """
    return _shift(base + np.cumsum(terms_lo))


# ---------------------------------------------------------------------------
# Scaled addition


def add(f1: SkipNet, f2: SkipNet, alpha1: float, alpha2: float) -> SkipNet:
    """Net computing ``alpha1 * f1(x) + alpha2 * f2(x)``.

    Hidden layers stack, f1's first, so the result depth is the sum of the
    operand depths and the width is unchanged. Operands must share input
    dimension, width, and domain box; a depth-0 operand folds into the
    other's output coefficients without adding layers.
    """
    return _sum([(alpha1, f1), (alpha2, f2)])


def _sum(terms) -> SkipNet:
    """Net computing the sum of ``alpha * f(x)`` over the ``(alpha, f)`` terms.

    Scaled sums stack in one step, one concatenation per array. The first
    deep operand's layers come first; each later deep operand's first layer
    becomes an interior layer that still reads only x. Depth-0 operands add
    no layers. ``out_a0`` and ``out_a`` are summed left to right, and the
    scaled ``out_beta`` rows and the shifts follow, in operand order.
    """
    terms = [(float(alpha), f) for alpha, f in terms]
    f1 = terms[0][1]
    for _, f2 in terms[1:]:
        _require(f1.input_dim == f2.input_dim, "input dimensions differ")
        _require(f1.domain.as_pairs() == f2.domain.as_pairs(), "operands must share a domain box")
    # a sum of depth-0 operands keeps the last one's empty layers
    deep = [(alpha, f) for alpha, f in terms if f.depth > 0] or terms[-1:]
    lead = deep[0][1]
    wx, wy, b = [lead.hidden_wx], [lead.hidden_wy], [lead.hidden_b]
    for _, f in deep[1:]:
        _require(
            lead.width == f.width,
            f"widths differ ({lead.width} vs {f.width}); pad_width the narrower operand",
        )
        wx += [f.first_w[None], f.hidden_wx]
        wy += [np.zeros((1, f.width, f.width)), f.hidden_wy]
        b += [f.first_b[None], f.hidden_b]
    out_a0, out_a = terms[0][0] * f1.out_a0, terms[0][0] * f1.out_a
    for alpha, f in terms[1:]:
        out_a0, out_a = out_a0 + alpha * f.out_a0, out_a + alpha * f.out_a
    return replace(
        lead,
        hidden_wx=np.concatenate(wx),
        hidden_wy=np.concatenate(wy),
        hidden_b=np.concatenate(b),
        out_a0=out_a0,
        out_a=out_a,
        out_beta=np.vstack([alpha * f.out_beta for alpha, f in deep]),
        shifts=tuple(s for _, f in terms for s in f.shifts),
    )


# ---------------------------------------------------------------------------
# Width padding and input substitution


def pad_width(f: SkipNet, new_width: int) -> SkipNet:
    """Widen every layer to ``new_width`` with structurally dead units.

    Added units have zero weights, zero bias, and zero output coefficient,
    so evaluation is bit-identical. Padding a depth-0 net is a no-op.
    """
    if f.depth == 0:
        return f
    if new_width < f.width:
        raise StructuralError(f"cannot pad width {f.width} down to {new_width}")
    if new_width == f.width:
        return f
    extra = (0, new_width - f.width)
    return SkipNet(
        input_dim=f.input_dim,
        first_w=np.pad(f.first_w, [extra, (0, 0)]),
        first_b=np.pad(f.first_b, extra),
        hidden_wx=np.pad(f.hidden_wx, [(0, 0), extra, (0, 0)]),
        hidden_wy=np.pad(f.hidden_wy, [(0, 0), extra, extra]),
        hidden_b=np.pad(f.hidden_b, [(0, 0), extra]),
        out_a0=f.out_a0,
        out_a=f.out_a,
        out_beta=np.pad(f.out_beta, [(0, 0), extra]),
        domain=f.domain,
        shifts=f.shifts,
    )


def substitute_inputs(f: SkipNet, T, offset, new_domain: Box) -> SkipNet:
    """Replace each input ``x_i`` by the affine form ``offset[i] + T[i] . z``.

    ``T`` has one row per old input with ``new_domain.dim`` columns. Every
    weight that read an old input is rewired exactly; the hidden structure
    is untouched.
    """
    T = np.asarray(T, dtype=float).reshape(f.input_dim, new_domain.dim)
    offset = np.asarray(offset, dtype=float).reshape(f.input_dim)
    return SkipNet(
        input_dim=new_domain.dim,
        first_w=f.first_w @ T,
        first_b=f.first_b + f.first_w @ offset,
        hidden_wx=f.hidden_wx @ T,
        hidden_wy=f.hidden_wy,
        hidden_b=f.hidden_b + f.hidden_wx @ offset,
        out_a0=f.out_a0 + float(f.out_a @ offset),
        out_a=f.out_a @ T,
        out_beta=f.out_beta,
        domain=new_domain,
        shifts=f.shifts,
    )


# ---------------------------------------------------------------------------
# Composition


def _fold_affine_inner(f2: SkipNet, f1: SkipNet) -> SkipNet:
    """Compose when the inner net is affine: rewire f2's first input."""
    a, a0 = f1.out_a, f1.out_a0
    return SkipNet(
        input_dim=f1.input_dim,
        first_w=f2.first_w[:, 1:] + np.outer(f2.first_w[:, 0], a),
        first_b=f2.first_b + f2.first_w[:, 0] * a0,
        hidden_wx=f2.hidden_wx[:, :, 1:] + f2.hidden_wx[:, :, :1] * a,
        hidden_wy=f2.hidden_wy,
        hidden_b=f2.hidden_b + f2.hidden_wx[:, :, 0] * a0,
        out_a0=f2.out_a0 + float(f2.out_a[0]) * a0,
        out_a=f2.out_a[1:] + float(f2.out_a[0]) * a,
        out_beta=f2.out_beta,
        domain=f1.domain,
        shifts=f2.shifts,
    )


def _find_accumulator_channel(f: SkipNet, first: int) -> int | None:
    """Channel usable for output threading over the layers after ``first``.

    Past layer ``first`` (0-based) the channel must carry no output
    coefficient and no other unit may read it, so overwriting it cannot
    change any surviving value. Highest index wins, matching where padding
    puts dead units.
    """
    read = ((f.hidden_wy[first + 1 :] != 0.0) & ~np.eye(f.width, dtype=bool)).any(axis=(0, 1))
    used = (f.out_beta[first + 1 :] != 0.0).any(axis=0)
    free = np.flatnonzero(~(read | used))
    return int(free[-1]) if free.size else None


def compose(f2: SkipNet, f1: SkipNet) -> SkipNet:
    """Net computing ``f2(f1(x), x)``; f2's first input is the inner value.

    The result stacks f1's layers, then f2's, so its depth is the sum of
    the operand depths and its width equals ``f1.width``. Requires
    ``f2.input_dim == f1.input_dim + 1`` and ``f2.width == f1.width - 1``.

    Inside f1's layers, a structurally free channel accumulates a running
    partial of f1's output so the full value becomes readable at f1's last
    layer; from there a shifted carry channel holds it for every f2 stage
    that reads the inner value. If f1 offers no free channel over the
    layers that need threading, ``NoFreeChannelError`` is raised; padding
    f1 one unit wider always makes room.

    A depth-0 operand is folded into the partner directly and waives the
    width precondition.
    """
    _require(
        f2.input_dim == f1.input_dim + 1,
        f"outer net must take {f1.input_dim + 1} inputs, has {f2.input_dim}",
    )
    if f1.depth == 0:
        return _fold_affine_inner(f2, f1)
    if f2.depth == 0:
        return add(f1, affine_net(f2.out_a0, f2.out_a[1:], f1.domain), float(f2.out_a[0]), 1.0)
    _require(
        f2.width == f1.width - 1,
        f"outer width must be {f1.width - 1} (inner width minus one), has {f2.width}",
    )
    d = f1.input_dim
    W = f1.width
    M = f2.width
    L1, L2 = f1.depth, f2.depth

    # f1's layers after the first one with output coefficients (hidden
    # indices first ..) thread the running output partial.
    support = np.flatnonzero((f1.out_beta != 0.0).any(axis=1))
    first = int(support[0]) if support.size else L1 - 1
    if first < L1 - 1:
        acc = _find_accumulator_channel(f1, first)
        if acc is None:
            raise NoFreeChannelError(
                "inner net has no structurally free channel to thread its "
                "output; pad_width it one unit wider"
            )

    # acc_shift[k] shifts f1's output partial over layers 0 .. first+k-1; the
    # terms before layer ``first`` are zeros, so the partial starts from +0.0
    # there. carry_shift shifts the whole of f1(x): the head, then every term.
    if f1.chain_shifts is not None:
        partial, carry_shift = f1.chain_shifts
        acc_shift = [0.0] + [partial] * (L1 - 1 - first)
    else:
        rep = interval_bounds(f1, f1.domain)
        acc_shift = _shifts(0.0, [0.0, *rep.term_lo[first:-1]])
        carry_shift = _shift(_head_lo(f1) + np.cumsum(rep.term_lo)[-1:])[0]

    # Coefficients expressing f1(x) over (last layer of f1, x, constant).
    e_coeffs = f1.out_beta[-1].copy() if support.size else np.zeros(W)
    e_const = f1.out_a0

    # Hidden layers: f1's L1 - 1, the boundary layer, then f2's L2 - 1.
    n = L1 + L2 - 1
    wx, wy, b = np.zeros((n, W, d)), np.zeros((n, W, W)), np.zeros((n, W))
    wx[: L1 - 1], wy[: L1 - 1], b[: L1 - 1] = f1.hidden_wx, f1.hidden_wy, f1.hidden_b

    # Thread the running output partial through the free channel; the
    # layers before it are f1's own.
    if first < L1 - 1:
        wx[first : L1 - 1, acc] = 0.0
        wy[first : L1 - 1, acc] = f1.out_beta[first:-1]
        wy[first + 1 : L1 - 1, acc, acc] += 1.0
        b[first : L1 - 1, acc] = np.diff(acc_shift)
        e_coeffs[acc] = 1.0
        e_const = f1.out_a0 - acc_shift[-1]

    # Stage t = 2 .. L2 of f2, and its output as stage L2 + 1, read the inner
    # value through the carry, which lives on stages 1 .. carry_alive.
    inner_w = f2.hidden_wx[:, :, 0]
    readers = np.flatnonzero(np.append((inner_w != 0.0).any(axis=1), f2.out_a[0] != 0.0))
    carry_alive = int(readers[-1]) + 1 if readers.size else 0
    new_shifts = acc_shift[1:] + ([carry_shift] if carry_alive > 0 else [])

    # Boundary layer: f2's first layer plus the carry channel.
    c = f2.first_w[:, 0]
    wy[L1 - 1, :M] = c[:, None] * e_coeffs
    wx[L1 - 1, :M] = f2.first_w[:, 1:] + c[:, None] * f1.out_a
    b[L1 - 1, :M] = f2.first_b + c * e_const
    if carry_alive > 0:
        wy[L1 - 1, M], wx[L1 - 1, M], b[L1 - 1, M] = e_coeffs, f1.out_a, e_const + carry_shift

    # Remaining f2 stages, rewired to the carry channel.
    wx[L1:, :M] = f2.hidden_wx[:, :, 1:]
    wy[L1:, :M, :M] = f2.hidden_wy
    wy[L1:, :M, M] = inner_w
    wy[L1:, M, M] = np.arange(2, L2 + 1) <= carry_alive
    b[L1:, :M] = f2.hidden_b - inner_w * carry_shift

    out_beta = np.zeros((L1 + L2, W))
    out_beta[L1:, :M] = f2.out_beta
    ay = float(f2.out_a[0])
    if ay != 0.0:
        out_beta[L1 + L2 - 1, M] = ay
    return SkipNet(
        input_dim=d,
        first_w=f1.first_w,
        first_b=f1.first_b,
        hidden_wx=wx,
        hidden_wy=wy,
        hidden_b=b,
        out_a0=f2.out_a0 - ay * carry_shift,
        out_a=f2.out_a[1:],
        out_beta=out_beta,
        domain=f1.domain,
        shifts=f1.shifts + f2.shifts + tuple(new_shifts),
    )


# ---------------------------------------------------------------------------
# Skip form to plain feedforward form


def skip_to_standard(f: SkipNet) -> StandardNet:
    """Rewrite a skip-form net as a plain feedforward net.

    Every hidden layer of the result has width ``M + d + 1``: the M original
    units, d channels that carry the (shifted) inputs forward, and one
    channel that accumulates the output affine form layer by layer.
    """
    if f.depth < 1:
        raise ConversionError("depth-0 nets have no layers to convert")
    d, M, L = f.input_dim, f.width, f.depth
    rep = interval_bounds(f, f.domain)
    cx = np.array(_shift(f.domain.lo))
    # acc_shift[l] shifts the output partial over the head and layers 0 .. l-1
    acc_shift = _shifts(_head_lo(f), [0.0, *rep.term_lo[:-1]])

    width = M + d + 1
    W1 = np.zeros((width, d))
    b1 = np.zeros(width)
    W1[:M] = f.first_w
    b1[:M] = f.first_b
    W1[M : M + d] = np.eye(d)
    b1[M : M + d] = cx
    W1[M + d] = f.out_a
    b1[M + d] = f.out_a0 + acc_shift[0]
    Wh = np.zeros((L - 1, width, width))
    bh = np.zeros((L - 1, width))
    Wh[:, :M, :M] = f.hidden_wy
    Wh[:, :M, M : M + d] = f.hidden_wx
    bh[:, :M] = f.hidden_b - f.hidden_wx @ cx
    Wh[:, M : M + d, M : M + d] = np.eye(d)
    Wh[:, M + d, :M] = f.out_beta[:-1]
    Wh[:, M + d, M + d] = 1.0
    bh[:, M + d] = np.diff(acc_shift)
    out_w = np.zeros(width)
    out_w[:M] = f.out_beta[L - 1]
    out_w[M + d] = 1.0
    return StandardNet(
        input_dim=d,
        layer_w=(W1, *Wh),
        layer_b=(b1, *bh),
        out_w=out_w,
        out_b=-acc_shift[-1],
        domain=f.domain,
        shifts=tuple(cx) + tuple(acc_shift),
    )


# ---------------------------------------------------------------------------
# Shallow net re-layering


def wide_to_deep(s: ShallowNet, partition) -> StandardNet:
    """Restack a one-layer ReLU net into ``len(partition)`` hidden layers.

    Layer l hosts the next ``partition[l]`` of the original units, then d
    shifted input carries, then one accumulator holding the partial sum of
    ``c0`` and all units placed before it, so layer l has
    ``partition[l] + d + 1`` nodes in that order. The net is relayered as a
    skip net with one layer per block, each block padded with dead units to
    the largest one and read from the inputs alone; ``skip_to_standard``
    lays out its carries and accumulator, and the dead units are sliced away.
    """
    if s.activation != RELU_ACTIVATION:
        raise ConversionError("re-layering requires ReLU units; run sigmoidal_to_relu first")
    partition = [int(m) for m in partition]
    if any(m < 1 for m in partition):
        raise StructuralError("partition entries must be positive")
    if sum(partition) != s.units:
        raise StructuralError(
            f"partition sums to {sum(partition)}, net has {s.units} units"
        )
    d, L, M = s.input_dim, len(partition), max(partition)
    # row-major order over (layer, unit) places the units block by block
    live = np.arange(M) < np.array(partition)[:, None]
    wx, b, beta = np.zeros((L, M, d)), np.zeros((L, M)), np.zeros((L, M))
    wx[live], b[live], beta[live] = s.a, s.b, s.c
    std = skip_to_standard(SkipNet(
        input_dim=d, first_w=wx[0], first_b=b[0],
        hidden_wx=wx[1:], hidden_wy=np.zeros((L - 1, M, M)), hidden_b=b[1:],
        out_a0=s.c0, out_a=np.zeros(d), out_beta=beta, domain=s.domain,
    ))
    keep = [np.r_[:m, M : M + d + 1] for m in partition]
    return replace(
        std,
        layer_w=tuple(W[np.ix_(r, c)] for W, r, c in zip(std.layer_w, keep, [np.arange(d), *keep])),
        layer_b=tuple(bl[r] for bl, r in zip(std.layer_b, keep)),
        out_w=std.out_w[keep[-1]],
    )


def sigmoidal_to_relu(s: ShallowNet) -> ShallowNet:
    """Expand each bounded-ramp unit into a ReLU pair.

    ``c * ramp(z)`` becomes ``c * ReLU(z) - c * ReLU(z - 1)``, doubling the
    unit count while computing the identical function.
    """
    if s.activation != SIGMOIDAL_ACTIVATION:
        raise StructuralError(
            f"expected activation {SIGMOIDAL_ACTIVATION!r}, got {s.activation!r}"
        )
    n = s.units
    a = np.empty((2 * n, s.input_dim))
    b = np.empty(2 * n)
    c = np.empty(2 * n)
    a[0::2] = s.a
    a[1::2] = s.a
    b[0::2] = s.b
    b[1::2] = s.b - 1.0
    c[0::2] = s.c
    c[1::2] = -s.c
    return ShallowNet(
        input_dim=s.input_dim,
        a=a,
        b=b,
        c=c,
        c0=s.c0,
        activation=RELU_ACTIVATION,
        domain=s.domain,
    )


# ---------------------------------------------------------------------------
# Parameter counting


def count_params(width: int, depth: int, input_dim: int) -> int:
    """Parameter count of the standard form, one constant channel per layer.

    Counts ``(d+1)(M+d+1)`` for the first layer, ``(M+d+2)^2`` per deeper
    layer (each of the M+d+1 units plus a constant channel is charged
    M+d+2 numbers), and ``M+d+2`` for the output map. This overcounts the
    materialized arrays by ``(M+d+2)(depth-1)``; ``count_params_standard``
    returns the exact array census.
    """
    if width < 1 or depth < 1 or input_dim < 1:
        raise ParameterError("count_params requires positive width, depth, input_dim")
    m = width + input_dim
    return (input_dim + 1) * (m + 1) + (m + 2) * (m + 2) * (depth - 1) + (m + 2)


def count_params_standard(net: StandardNet) -> int:
    """Number of stored weights and biases in a plain feedforward net."""
    total = 0
    for W, b in zip(net.layer_w, net.layer_b):
        total += W.size + b.size
    return total + net.out_w.size + 1
