"""Network data types, evaluation, validation, and interval range analysis.

Three network kinds are used throughout:

* ``SkipNet``: hidden layers of equal width, with skip connections from the
  input to every hidden layer and from every hidden unit to the output.
  The first hidden layer reads only the inputs; layer l+1 reads the inputs
  and layer l; the output is an affine map over the inputs and all hidden
  units. The layers after the first are stored stacked: ``hidden_wx`` is
  (depth-1, width, input_dim), ``hidden_wy`` (depth-1, width, width) and
  ``hidden_b`` (depth-1, width).
* ``StandardNet``: a plain feedforward net where layer l reads only layer
  l-1 and the output reads only the last hidden layer. Layer widths may
  vary.
* ``ShallowNet``: one hidden layer of ReLU or sigmoidal-step units whose
  weighted sum is the output.

Evaluation compiles any of them into one straight-line program: per unit,
its bias and its nonzero (source, weight) terms in declaration order. Every
program is value-numbered under one slot rule: a layer reads the layer
before it, which for a first layer is x, and a skip layer reads x ahead of
it. A shallow net is one first layer. A skip net's first layer weighs a zero
layer before it, so that it matches the later units that read only x. So the
program computes each distinct unit once, however often the net repeats it,
and leaves out units that no output reads; in a standard net, a unit that
passes a computed unit on unchanged (a carry, an accumulator that adds
nothing) costs nothing. The first evaluation keeps the program on the net.
One kernel runs it over the points in the fewest passes whose register
file holds at most 2**19 floats, split evenly. Beside the register file it
keeps a row of zeros, and the ReLU is ``np.maximum`` against that row rather
than against the scalar 0.0, which takes numpy's slower non-vector path
(4.17 vs 0.96 us on 10,000 points, numpy 2.4.6 on a 2-core AMD EPYC). The
bits are the same. Every sum is formed in declaration order, so the output
is bit-identical for every pass size and thread count, and zero-weight
padding changes no bit.

A standard net stacks its layers into blocks of equal shapes once, when it
is made, and its layer tuples are views into them; validation, the document
writer and compilation read the blocks.
Interval range analysis of a skip net propagates each distinct (layer row,
incoming ranges) pair once, bit for bit: a summed polynomial net repeats
each monomial's chain prefix, so a deep one has few distinct pairs.

All types are immutable after construction (the kept program is derived
from the fields and changes no value) and all functions here are pure, so
values can be shared freely across threads.
"""

from __future__ import annotations

import threading
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
_BLOCK = 1 << 14  # floats per block of layers, so that copies and temporaries stay small


def _frozen(a, dtype=float) -> np.ndarray:
    """Contiguous read-only float array; ``a`` itself, frozen, if it is one."""
    arr = np.ascontiguousarray(np.asarray(a, dtype=dtype))
    arr.setflags(write=False)
    return arr


def _stacked(name: str, layers, shape: tuple) -> np.ndarray:
    """Read-only (layers, *shape) array from a stacked array or a sequence of
    per-layer arrays; no layers gives a (0, *shape) array."""
    if len(layers) == 0:
        return _frozen(np.zeros((0, *shape)))
    try:
        return _frozen(layers)
    except ValueError as exc:
        raise StructuralError(f"{name}: hidden layers differ in shape") from exc


# ---------------------------------------------------------------------------
# Boxes


@dataclass(frozen=True)
class Box:
    """Axis-aligned closed box with finite endpoints and lo < hi per axis.

    Contiguous float arrays passed in are frozen and shared; pass a copy to
    keep editing one.
    """

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

    ``first_w`` is (width, input_dim) and ``first_b`` (width,). The deeper
    layers are stacked: ``hidden_wx`` (depth-1, width, input_dim) weighs the
    inputs, ``hidden_wy`` (depth-1, width, width) the previous layer, and
    ``hidden_b`` (depth-1, width) holds the biases. The constructor also
    takes a sequence of per-layer arrays and stacks it; contiguous float arrays
    passed in are frozen and shared, so pass a copy to keep editing one. The
    output map is ``out_a0 + out_a . x + sum(out_beta[l, m] * y[l, m])``.

    A purely affine function is the depth-0 net that ``affine_net`` makes:
    width 0, ``first_w`` (0, input_dim), ``first_b`` (0,) and stacked arrays
    with no layers. ``shifts`` records positivity offsets introduced by
    structural rewrites; it does not affect evaluation.

    ``chain_shifts`` is not a constructor argument: a builder sets it to the
    ``(partial, carry)`` shifts ``compose`` takes for an inner net in place
    of range analysis. Every rewrite, ``dataclasses.replace`` too, drops it.
    """

    input_dim: int
    first_w: np.ndarray
    first_b: np.ndarray
    hidden_wx: np.ndarray
    hidden_wy: np.ndarray
    hidden_b: np.ndarray
    out_a0: float
    out_a: np.ndarray
    out_beta: np.ndarray
    domain: Box
    shifts: tuple = field(default=())
    chain_shifts: tuple | None = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self):
        object.__setattr__(self, "first_w", _frozen(self.first_w))
        object.__setattr__(self, "first_b", _frozen(self.first_b))
        if self.first_w.ndim != 2:
            raise StructuralError("first_w must be 2-d; affine_net builds the depth-0 net")
        w, d = self.width, self.input_dim
        object.__setattr__(self, "hidden_wx", _stacked("hidden_wx", self.hidden_wx, (w, d)))
        object.__setattr__(self, "hidden_wy", _stacked("hidden_wy", self.hidden_wy, (w, w)))
        object.__setattr__(self, "hidden_b", _stacked("hidden_b", self.hidden_b, (w,)))
        object.__setattr__(self, "out_a0", float(self.out_a0))
        object.__setattr__(self, "out_a", _frozen(self.out_a))
        object.__setattr__(self, "out_beta", _frozen(self.out_beta).reshape(self.depth, self.width))
        object.__setattr__(self, "shifts", tuple(float(s) for s in self.shifts))

    @property
    def depth(self) -> int:
        """Number of hidden layers. The output affine map is not a layer."""
        return 1 + len(self.hidden_b) if self.width else 0

    @property
    def width(self) -> int:
        return self.first_w.shape[0]


def affine_net(a0: float, a, domain: Box) -> SkipNet:
    """Depth-0 net computing ``a0 + a . x``."""
    a = np.asarray(a, dtype=float)
    return SkipNet(
        input_dim=domain.dim,
        first_w=np.zeros((0, domain.dim)),
        first_b=np.zeros(0),
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
    The constructor copies the layers into read-only blocks, one per run of
    layers of equal shapes cut every _BLOCK floats, and ``layer_w`` and
    ``layer_b`` are tuples of views into them, so the caller's layer arrays
    stay writable and are not kept. A contiguous float ``out_w`` passed in is
    frozen and shared; pass a copy to keep editing one.
    """

    input_dim: int
    layer_w: tuple
    layer_b: tuple
    out_w: np.ndarray
    out_b: float
    domain: Box
    shifts: tuple = field(default=())

    def __post_init__(self):
        if len(self.layer_w) != len(self.layer_b):
            raise StructuralError(
                f"layer_w holds {len(self.layer_w)} layers but layer_b holds {len(self.layer_b)}"
            )
        layers = [(np.asarray(W, dtype=float), np.asarray(b, dtype=float))
                  for W, b in zip(self.layer_w, self.layer_b)]

        def block(lwb):
            layer, (W, b) = lwb
            return W.shape, b.shape, layer * (W.size + b.size) // _BLOCK

        blocks = []
        for _, run in groupby(enumerate(layers, 1), key=block):
            numbers, wbs = zip(*run)
            W, b = (_frozen(np.array(a)) for a in zip(*wbs))  # np.stack's views cost more
            blocks.append((numbers, W, b))
        object.__setattr__(self, "_blocks", tuple(blocks))
        object.__setattr__(self, "layer_w", tuple([W for _, Ws, _ in blocks for W in Ws]))
        object.__setattr__(self, "layer_b", tuple([b for _, _, bs in blocks for b in bs]))
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
    ``act(z) = ReLU(z) - ReLU(z - 1)``. Contiguous float arrays passed in
    are frozen and shared; pass a copy to keep editing one.
    """

    input_dim: int
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c0: float
    activation: str
    domain: Box

    def __post_init__(self):
        object.__setattr__(self, "a", _frozen(self.a).reshape(-1, self.input_dim))
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
# registers hold the inputs, then the rows the units write.
#
# _numbered numbers the units of every kind in one loop, under one slot rule:
# a layer reads the layer before it, which for a first layer is x, and a skip
# layer reads x ahead of it. So a unit's row is its bias, its weights of x if
# its layer reads x, then its weights of the layer before; a standard layer
# weighs x only as layer 1, and a shallow net is one first layer. The skip
# net's first layer keeps w zero columns for a layer before it, so its rows
# have the bits of the hidden units that read only x: every added monomial
# begins with such a layer, and its units are computed once. Units with the
# same bias (sign bit included) and the same terms over the same values run
# the same float operations on the same bits, so each distinct unit is
# computed once, and units that no output term reads are left out. In a
# standard net, a unit with bias +0.0 and one weight-1.0 term on a computed
# unit is that unit's value: 0.0 + y and max(y, 0) are y for a ReLU output
# y >= +0.0. A unit that reads an input, which may be -0.0, is always
# computed. So input carries and unchanged accumulators cost nothing. A layer
# of the same row kinds as an earlier one, over the same previous values, has
# that layer's ids, so the layers a summed polynomial net repeats from a
# shared product chain are numbered once.
#
# _schedule makes every program, shallow ones included, in one placement pass.
# It counts each value's reads, once per distinct live unit that reads it and
# once per output term; a value with none is dead. Output terms keep their
# order; units are placed chain by chain, a unit takes a free row as it is
# placed, and a row is freed when its value's count reaches zero. So a shallow
# unit takes the row its predecessor freed, in a stage of its own, unless its
# direction is all zero: it then reads nothing and joins the previous stage on
# a row of its own. Shared values stay live longer, so a numbered program
# needs more rows, and it takes fewer points per pass.
#
# A pass costs one numpy call per term and per activation whatever its
# size, and a deep net has tens of thousands of them, so _run takes the
# fewest passes whose register file, product row included, holds at most
# _REGISTER_FLOATS floats (a pass of one point if its rows alone hold more),
# and splits the points evenly over them.
#
# The ReLU runs against a row of zeros, np.maximum(z, zero, out=z), with zero
# a slice of one np.zeros row of a pass's length made per _run beside the
# register file. numpy's vector loop for maximum takes two arrays, and a Python
# scalar sends the call down a slower path: with numpy 2.4.6 on a 2-core AMD
# EPYC, np.maximum(z, 0.0, out=z) on 10,000 points takes 4.17 us, and 0.96 us
# with a row of zeros as the operand (np.add takes 1.17 us). With z the first
# operand both forms give the same bits: -0.0 becomes +0.0 (the row first would
# keep -0.0), and NaN, +-inf and subnormals pass unchanged.
#
# Sums run in that order with one rounding per multiply and per add, so no bit
# depends on the pass size or the thread count, and skipping zero weights
# keeps padding neutral. A +-1 weight is a bare add or subtract, which rounds
# the same; a shallow net keeps zero output terms (-0.0 + 0 * z is +0.0).

# Floats of a pass's register file. Larger passes run little faster, but
# lift a process's peak memory more.
_REGISTER_FLOATS = 1 << 19


class _Program(NamedTuple):
    input_dim: int
    registers: int
    out_bias: float
    ceiling: float | None  # clip after the ReLU: 1.0 for the sigmoidal step
    stages: tuple  # ((units, output terms), ...); a unit is (row, bias, terms)

    @property
    def units(self) -> int:
        """Units the program computes."""
        return sum(len(units) for units, _ in self.stages)


def _schedule(d: int, units: list, outs: list, out_bias: float) -> _Program:
    """Program of numbered units (value ids from d up, each reading only
    smaller ids; x_i is id i) and output terms (value id, weight) in order.
    It counts the reads of each value, then places the units in one pass:
    each takes a free row as it is placed, and a value's row is freed when
    its count reaches zero."""
    n = d + len(units)
    # one read per distinct live unit that reads a value and per output term;
    # a value with no read is dead
    reads = [0] * n
    for v, _ in outs:
        reads[v] += 1
    for v in range(n - 1, d - 1, -1):
        if reads[v]:
            ops = units[v - d][1]
            for o in ops if len(ops) == 1 else set(ops):
                reads[o] += 1
    # A chain starts at a unit that reads no computed unit and takes in the
    # units that read it; chains run one after the other, each level by level.
    # Level 0 marks the values outside every chain: x, dead units and
    # bias-only units. A bias-only unit goes just before its first reader.
    level, chain, order = [0] * n, [0] * n, []
    for v in range(d, n):
        ops = units[v - d][1]
        if ops and reads[v]:
            top_level, top_chain = 0, -1
            for o in ops:
                if level[o]:
                    if level[o] > top_level:
                        top_level = level[o]
                    if chain[o] > top_chain:
                        top_chain = chain[o]
            level[v] = top_level + 1
            chain[v] = top_chain if top_chain >= 0 else v
            order.append((chain[v], level[v], v))
    order.sort()
    # Each unit takes a free row as it is placed, before its operands free
    # theirs; a value read for the last time frees its row.
    row, free, body, program, top, j = list(range(d)) + [None] * len(units), [], [], [], d, 0
    for v in [None, *[v for _, _, v in order]]:
        if v is not None:
            c, ops, xs = units[v - d]
            for o in ops:
                if row[o] is None:  # a bias-only unit
                    row[o], top = (free.pop(), top) if free else (top, top + 1)
                    body.append((row[o], units[o - d][0], ()))
            row[v], top = (free.pop(), top) if free else (top, top + 1)
            if len(ops) == 1:
                o = ops[0]
                reads[o] -= 1
                if not reads[o] and o >= d:
                    free.append(row[o])
                body.append((row[v], c, ((row[o], xs[0]),)))
            else:
                for o in dict.fromkeys(ops):  # one read per distinct operand
                    reads[o] -= 1
                    if not reads[o] and o >= d:
                        free.append(row[o])
                body.append((row[v], c, tuple(zip([row[o] for o in ops], xs))))
        i = j  # each output term goes in once it and every earlier one can
        while j < len(outs):
            o = outs[j][0]
            if row[o] is None:
                if level[o]:
                    break
                row[o], top = (free.pop(), top) if free else (top, top + 1)
                body.append((row[o], units[o - d][0], ()))  # a bias-only unit
            j += 1
        if j > i:
            terms = outs[i:j]
            for o, _ in terms:  # one read per term; rows freed once all are taken
                reads[o] -= 1
            free.extend(row[o] for o in dict.fromkeys([o for o, _ in terms])
                        if o >= d and not reads[o])
            program.append((tuple(body), tuple([(row[o], x) for o, x in terms])))
            body.clear()
    return _Program(d, top, out_bias, None, tuple(program))


def _blocks(net: StandardNet) -> tuple:
    """(layer numbers, stacked weights, stacked biases) per block of a
    standard net, as its constructor stacked them."""
    return vars(net)["_blocks"]


def _numbered(d: int, blocks, alias: bool = False) -> tuple:
    """The distinct units of a layered net, each as (bias, operand ids,
    weights), and the value ids of x, then of each layer's units. A block is
    a pair: whether its layers read x, and a (layers, width, 1 + slots) array
    of rows, each a bias, then the weights of x if the layer reads it, then
    those of the layer before. Given ``alias``, an identity unit is its operand.
    A layer of the same kinds over the same values as an earlier one has its
    ids, so a repeated layer is numbered once."""
    units, ids, layers = [], {}, [tuple(range(d))]
    kinds, kind_ids, seen = [], {}, {}
    for reads_x, rows in blocks:
        flat = rows.reshape(-1, rows.shape[2])
        # a kind is the bits of a row; one sort per block finds the block's
        # kinds, and each is numbered once over all blocks
        row_bits = flat.view(np.dtype((np.void, flat.strides[0]))).ravel()
        _, first, kind = np.unique(row_bits, return_index=True, return_inverse=True)
        names = []
        for k in flat[first]:
            bits = k.tobytes()
            name = kind_ids.get((reads_x, bits))
            if name is None:
                name = kind_ids[reads_x, bits] = len(kinds)
                slots = np.flatnonzero(k[1:])
                xs = tuple(k[1:][slots].tolist())
                identity = alias and xs == (1.0,) and not any(bits[:8])  # bias +0.0
                kinds.append((bits, float(k[0]), slots.tolist(), xs, identity))
            names.append(name)
        for layer in np.array(names)[kind].reshape(rows.shape[:2]).tolist():
            key = tuple(layer), layers[-1]
            new = seen.get(key)
            if new is None:
                vals = layers[0] + layers[-1] if reads_x else layers[-1]
                new = []
                for k in layer:
                    bits, c, slots, xs, identity = kinds[k]
                    ops = tuple([vals[s] for s in slots])
                    if identity and ops[0] >= d:
                        new.append(ops[0])
                        continue
                    v = ids.get((bits, ops))
                    if v is None:
                        v = ids[bits, ops] = d + len(units)
                        units.append((c, ops, xs))
                    new.append(v)
                new = seen[key] = tuple(new)
            layers.append(new)
    return units, layers


def _compile_skip(net: SkipNet) -> _Program:
    d, w = net.input_dim, net.width
    # w zero columns for a layer before the first: see the slot rule under Evaluation
    first = np.concatenate([net.first_b[:, None], net.first_w, np.zeros((w, w))], axis=1)
    hidden = np.concatenate([net.hidden_b[..., None], net.hidden_wx, net.hidden_wy], axis=2)
    units, layers = _numbered(d, [(True, first[None]), (True, hidden)])
    ids = [v for layer in layers for v in layer]  # x_i is id i, then the hidden units
    weights = np.concatenate([net.out_a, net.out_beta.ravel()])
    nz = np.flatnonzero(weights)
    outs = list(zip([ids[i] for i in nz.tolist()], weights[nz].tolist()))
    return _schedule(d, units, outs, net.out_a0)


def _compile_standard(net: StandardNet) -> _Program:
    d = net.input_dim
    blocks = ((False, np.concatenate([b[..., None], W], axis=2)) for _, W, b in _blocks(net))
    units, layers = _numbered(d, blocks, alias=True)
    nz = np.flatnonzero(net.out_w)
    outs = list(zip([layers[-1][i] for i in nz.tolist()], net.out_w[nz].tolist()))
    return _schedule(d, units, outs, net.out_b)


def _compile_shallow(net: ShallowNet) -> _Program:
    d = net.input_dim
    rows = np.concatenate([net.b[:, None], net.a], axis=1)
    units, (_, vals) = _numbered(d, [(False, rows[None])])
    outs = list(zip(vals, net.c.tolist()))  # zero weights too
    prog = _schedule(d, units, outs, net.c0)
    return prog._replace(ceiling=1.0) if net.activation == SIGMOIDAL_ACTIVATION else prog


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
    # the fewest passes of at most p points, split evenly; p points fill a
    # register file of _REGISTER_FLOATS floats, product row included
    n = len(X)
    p = max(1, _REGISTER_FLOATS // (prog.registers + 1))
    passes = -(-n // p)
    step = -(-n // passes) if passes else 1
    out, regs = np.empty(n), np.empty((prog.registers + 1, min(n, step)))
    zeros = np.zeros(min(n, step))  # the ReLU's 0: see "a row of zeros" under Evaluation
    for a in range(0, n, step):
        acc = out[a : a + step]
        regs[: prog.input_dim, : len(acc)] = X[a : a + step].T
        *rows, tmp = regs[:, : len(acc)]  # the extra last row holds products
        zero = zeros[: len(acc)]
        acc.fill(prog.out_bias)
        for units, out_terms in prog.stages:
            for row, bias, terms in units:
                z = rows[row]
                _add_terms(z, terms, rows, tmp, start=bias)
                np.maximum(z, zero, out=z)
                if prog.ceiling is not None:
                    np.minimum(z, prog.ceiling, out=z)
            _add_terms(acc, out_terms, rows, tmp)
    return out


_compiling = threading.Lock()


def _program(net) -> _Program:
    """The net's program, compiled on first use and kept in the instance
    ``__dict__``, as ``functools.cached_property`` does on a frozen
    dataclass; it is derived from the fields and changes no value of the net.
    A net that fails ``validate`` raises ``StructuralError`` with its problems
    and is not compiled."""
    if not isinstance(net, (SkipNet, StandardNet, ShallowNet)):
        raise StructuralError(f"cannot evaluate object of type {type(net).__name__}")
    with _compiling:  # threads that evaluate one net wait for its one compile
        prog = vars(net).get("_program")
        if prog is None:
            problems = validate(net)
            if problems:
                raise StructuralError("cannot evaluate an invalid net: " + "; ".join(problems))
            compile_kind = (
                _compile_skip if isinstance(net, SkipNet)
                else _compile_standard if isinstance(net, StandardNet)
                else _compile_shallow
            )
            prog = vars(net)["_program"] = compile_kind(net)
    return prog


def evaluate_batch(net, X) -> np.ndarray:
    """Evaluate any supported network type on an (n, d) array of points."""
    return _run(_program(net), X)


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
    if depth:
        if net.first_w.shape != (width, d):
            p.append(f"first layer weight shape {net.first_w.shape} != ({width}, {d})")
        if net.first_b.shape != (width,):
            p.append(f"first layer bias shape {net.first_b.shape} != ({width},)")
        _finite("first layer", net.first_w, p)
        _finite("first layer bias", net.first_b, p)
        for name, arr, shape in (
            ("input-weight", net.hidden_wx, (depth - 1, width, d)),
            ("recurrent-weight", net.hidden_wy, (depth - 1, width, width)),
            ("bias", net.hidden_b, (depth - 1, width)),
        ):
            if arr.shape != shape:
                p.append(f"hidden {name} shape {arr.shape} != {shape}")
            finite = np.isfinite(arr).all(axis=tuple(range(1, arr.ndim)))
            p += [f"non-finite {name} in layer {i + 2}" for i in np.flatnonzero(~finite)]
    if net.out_a.shape != (d,):
        p.append(f"output input-coefficient shape {net.out_a.shape} != ({d},)")
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
    # A block's layers share one shape, so its chain is checked once: the first
    # layer chains from the width before it, and each later one from the
    # first's rows. Only a block with a problem is walked layer by layer, so
    # the messages keep layer order.
    for layers, Ws, bs in _blocks(net):
        ok = Ws.ndim == 3 and Ws.shape[1:] == (bs.shape[1], prev)
        ok = ok and (len(layers) == 1 or Ws.shape[1] == prev)  # later layers chain from rows
        if ok and np.isfinite(Ws).all() and np.isfinite(bs).all():
            prev = Ws.shape[1]
            continue
        w_ok, b_ok = (
            np.isfinite(a).reshape(len(layers), -1).all(axis=1).tolist() for a in (Ws, bs)
        )
        for layer, W, b, w_fin, b_fin in zip(layers, Ws, bs, w_ok, b_ok):
            if W.ndim != 2 or W.shape != (b.shape[0], prev):
                p.append(f"layer {layer} weight shape {W.shape} does not chain from width {prev}")
                prev = W.shape[0] if W.ndim == 2 else prev
                continue
            if not w_fin:
                p.append(f"non-finite weight in layer {layer}")
            if not b_fin:
                p.append(f"non-finite weight in layer {layer} bias")
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
    of the analyzed box; ``post_*`` are the ranges after ReLU. For a skip
    net, ``term_lo[l]`` is the lower bound of layer l's output term
    ``out_beta[l] . y_l``; ``out_lo`` is the bound of the affine head plus
    these terms, summed left to right. Standard nets leave it empty.
    """

    pre_lo: tuple
    pre_hi: tuple
    post_lo: tuple
    post_hi: tuple
    out_lo: float
    out_hi: float
    term_lo: tuple = ()


def _affine_range(W, b, lo, hi):
    pos = np.clip(W, 0.0, None)
    neg = np.clip(W, None, 0.0)
    return b + pos @ lo + neg @ hi, b + pos @ hi + neg @ lo


def interval_bounds(net, box: Box) -> IntervalReport:
    """Propagate the box through the net, layer by layer.

    The returned intervals are supersets of the true ranges (standard
    interval arithmetic, no correlation tracking). A layer's ranges depend
    only on the bits of its row (bias, input and previous-layer weights), of
    the ranges it reads and of the box, so the analysis of a skip net
    propagates each distinct (row, incoming ranges) pair once, bit for bit:
    a summed polynomial net repeats each monomial's chain prefix, and a
    repeat shares the arrays of the layer it repeats. A skip net's range
    arrays are read-only.
    """
    if box.dim != net.input_dim:
        raise InputError(f"box dimension {box.dim} != input_dim {net.input_dim}")
    layers, term_lo, term_hi = [], [], []  # (pre_lo, pre_hi, post_lo, post_hi) per layer
    if isinstance(net, SkipNet):
        if net.depth > 0:
            # the input part of every hidden layer at once, and the sign split
            # of hidden_wy in blocks of layers of at most _BLOCK floats; bias
            # 0.0 and adding the y part keep the bits
            xlo, xhi = _affine_range(net.hidden_wx, 0.0, box.lo, box.hi)
            step = max(1, _BLOCK // net.width**2)
            # each layer's ranges, memoized by the bits of its row and of the
            # ranges it reads
            rows = np.concatenate([net.hidden_b[..., None], net.hidden_wx, net.hidden_wy], axis=2)
            k = rows.shape[1] * rows.shape[2]
            keys = rows.reshape(-1, k).view(np.dtype((np.void, 8 * k))).ravel().tolist()
            memo = {}
            for l in range(net.depth):
                if l == 0:
                    lo, hi = _affine_range(net.first_w, net.first_b, box.lo, box.hi)
                else:
                    i = (l - 1) % step
                    if i == 0:
                        wy = net.hidden_wy[l - 1 : l - 1 + step]
                        pos, neg = np.clip(wy, 0.0, None), np.clip(wy, None, 0.0)
                    key = keys[l - 1], seen
                    hit = memo.get(key)
                    if hit is not None:
                        ranges, seen = hit
                        layers.append(ranges)
                        ylo, yhi = ranges[2:]
                        continue
                    p, n, b = pos[i], neg[i], net.hidden_b[l - 1]
                    lo = xlo[l - 1] + (b + p @ ylo + n @ yhi)
                    hi = xhi[l - 1] + (b + p @ yhi + n @ ylo)
                ylo, yhi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
                layers.append((lo, hi, ylo, yhi))
                for a in layers[-1]:
                    a.setflags(write=False)
                seen = ylo.tobytes() + yhi.tobytes()
                if l:
                    memo[key] = layers[-1], seen
            ys = (np.array([r[j] for r in layers])[..., None] for j in (2, 3))
            tlo, thi = _affine_range(net.out_beta[:, None], 0.0, *ys)
            term_lo, term_hi = tlo.ravel().tolist(), thi.ravel().tolist()
        olo, ohi = _affine_range(net.out_a.reshape(1, -1), np.array([net.out_a0]), box.lo, box.hi)
        # summed left to right, head first
        olo = float(np.cumsum([olo[0], *term_lo])[-1])
        ohi = float(np.cumsum([ohi[0], *term_hi])[-1])
    elif isinstance(net, StandardNet):
        ylo, yhi = box.lo, box.hi
        for W, b in zip(net.layer_w, net.layer_b):
            lo, hi = _affine_range(W, b, ylo, yhi)
            ylo, yhi = np.maximum(lo, 0.0), np.maximum(hi, 0.0)
            layers.append((lo, hi, ylo, yhi))
        olo, ohi = _affine_range(net.out_w.reshape(1, -1), np.array([net.out_b]), ylo, yhi)
        olo, ohi = float(olo[0]), float(ohi[0])
    else:
        raise StructuralError(f"interval analysis unsupported for {type(net).__name__}")
    pre_lo, pre_hi, post_lo, post_hi = zip(*layers) if layers else ((),) * 4
    return IntervalReport(pre_lo, pre_hi, post_lo, post_hi, olo, ohi, tuple(term_lo))
