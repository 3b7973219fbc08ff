"""Core type behavior: evaluation, validation, interval analysis."""

import functools
import json
import math
import operator
import pickle
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from relu_forge import (
    Box,
    DocumentInvariantError,
    InputError,
    PolySpec,
    SeriesSpec,
    ShallowNet,
    SkipNet,
    StandardNet,
    StructuralError,
    add,
    affine_net,
    build_analytic,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    deserialize_net,
    eval_skip,
    eval_skip_batch,
    eval_standard,
    evaluate,
    evaluate_batch,
    interval_bounds,
    nets,
    pad_width,
    preset_series,
    serialize_net,
    skip_to_standard,
    validate,
    wide_to_deep,
)
from relu_forge.serialize import from_document, to_document

from conftest import make_random_shallow, make_random_skip


def reference_forward(net, X):
    """Per-unit loop: (output, pre-activations of every hidden layer).

    Each unit starts at its bias, then adds its nonzero input terms and its
    nonzero previous-layer terms by ascending index; a skip net adds its
    output terms after each layer. A shallow net adds every output term,
    zero coefficients included.
    """
    n = X.shape[0]

    def accumulate(z, weights, columns):
        for i, w in enumerate(weights):
            if w != 0.0:
                z += w * columns[:, i]
        return z

    def layer(b, *parts):
        pre = np.empty((n, b.shape[0]))
        for m in range(b.shape[0]):
            z = np.full(n, b[m])
            for weights, columns in parts:
                accumulate(z, weights[m], columns)
            pre[:, m] = z
        return pre

    if isinstance(net, ShallowNet):
        pre = layer(net.b, (net.a, X))
        post = np.maximum(pre, 0.0)
        if net.activation == nets.SIGMOIDAL_ACTIVATION:
            post = np.minimum(post, 1.0)
        out = np.full(n, net.c0)
        for j in range(net.units):
            out += net.c[j] * post[:, j]
        return out, [pre]
    pres = []
    if isinstance(net, StandardNet):
        post = X
        for W, b in zip(net.layer_w, net.layer_b):
            pres.append(layer(b, (W, post)))
            post = np.maximum(pres[-1], 0.0)
        return accumulate(np.full(n, net.out_b), net.out_w, post), pres
    out = accumulate(np.full(n, net.out_a0), net.out_a, X)
    if net.depth:
        pres.append(layer(net.first_b, (net.first_w, X)))
        for wx, wy, b in zip(net.hidden_wx, net.hidden_wy, net.hidden_b):
            post = np.maximum(pres[-1], 0.0)
            accumulate(out, net.out_beta[len(pres) - 1], post)
            pres.append(layer(b, (wx, X), (wy, post)))
        accumulate(out, net.out_beta[-1], np.maximum(pres[-1], 0.0))
    return out, pres


def reference_interval_bounds(net: SkipNet, box: Box) -> nets.IntervalReport:
    """Per-layer interval propagation through a skip net, one layer at a time."""
    affine_range = nets._affine_range
    pre_lo, pre_hi, post_lo, post_hi, term_lo = [], [], [], [], []
    if net.depth > 0:
        lo, hi = affine_range(net.first_w, net.first_b, box.lo, box.hi)
        pre_lo.append(lo)
        pre_hi.append(hi)
        post_lo.append(np.maximum(lo, 0.0))
        post_hi.append(np.maximum(hi, 0.0))
        for wx, wy, b in zip(net.hidden_wx, net.hidden_wy, net.hidden_b):
            xlo, xhi = affine_range(wx, np.zeros_like(b), box.lo, box.hi)
            ylo, yhi = affine_range(wy, b, post_lo[-1], post_hi[-1])
            lo, hi = xlo + ylo, xhi + yhi
            pre_lo.append(lo)
            pre_hi.append(hi)
            post_lo.append(np.maximum(lo, 0.0))
            post_hi.append(np.maximum(hi, 0.0))
    olo, ohi = affine_range(net.out_a.reshape(1, -1), np.array([net.out_a0]), box.lo, box.hi)
    olo, ohi = float(olo[0]), float(ohi[0])
    for l in range(net.depth):
        blo, bhi = affine_range(net.out_beta[l].reshape(1, -1), np.zeros(1), post_lo[l], post_hi[l])
        term_lo.append(float(blo[0]))
        olo += term_lo[-1]
        ohi += float(bhi[0])
    return nets.IntervalReport(
        tuple(pre_lo), tuple(pre_hi), tuple(post_lo), tuple(post_hi), olo, ohi, tuple(term_lo)
    )


def reference_schedule(d: int, units: list, outs: list, out_bias: float):
    """Per-unit reference scheduler, with a closure per placement and
    dict-keyed levels: ``nets._schedule`` must make the same program."""
    # one read per distinct live unit that reads a value and per output term;
    # a value with no read is dead
    reads = [0] * (d + len(units))
    for v, _ in outs:
        reads[v] += 1
    for v in range(len(reads) - 1, d - 1, -1):
        for o in set(units[v - d][1]) if reads[v] else ():
            reads[o] += 1
    # A chain starts at a unit that reads no computed unit and takes in the
    # units that read it; chains run one after the other, each level by level.
    # A bias-only unit goes just before its first reader.
    level, chain = {}, {}
    for v in range(d, len(reads)):
        ops = units[v - d][1]
        if reads[v] and ops:
            deps = [o for o in ops if o in level]
            level[v] = 1 + max((level[o] for o in deps), default=0)
            chain[v] = max((chain[o] for o in deps), default=v)
    row, free, body, program, top, j = list(range(d)) + [None] * len(units), [], [], [], d, 0

    def release(values):  # one read each; a value read for the last time frees its row
        for o in values:
            reads[o] -= 1
        free.extend(row[o] for o in dict.fromkeys(values) if o >= d and not reads[o])

    def place(*values):  # not recursive, so no reference cycle keeps the locals
        nonlocal top
        for u in values:
            if row[u] is None:  # a unit takes its row before its operands free theirs
                c, ops, xs = units[u - d]
                row[u], top = (free.pop(), top) if free else (top, top + 1)
                release(dict.fromkeys(ops))
                body.append((row[u], c, tuple(zip([row[o] for o in ops], xs))))

    for v in [None, *sorted(level, key=lambda v: (chain[v], level[v], v))]:
        if v is not None:
            place(*units[v - d][1], v)
        i = j  # each output term goes in once it and every earlier one can
        while j < len(outs) and (row[outs[j][0]] is not None or outs[j][0] not in level):
            place(outs[j][0])
            j += 1
        if j > i:
            release([o for o, _ in outs[i:j]])
            program.append((tuple(body), tuple((row[o], x) for o, x in outs[i:j])))
            body.clear()
    return nets._Program(d, top, out_bias, None, tuple(program))


def square_interpolant(x: float, L: int) -> float:
    """Independent oracle: piecewise-linear interpolant of t**2 at spacing 2**(1-L)."""
    t = abs(x)
    if L == 1:
        return t
    h = 2.0 ** (1 - L)
    i = min(int(t / h), int(round(1.0 / h)) - 1)
    a, b = i * h, (i + 1) * h
    return a * a + (t - a) * (a + b)


class TestBox:
    @pytest.mark.parametrize(
        "lo, hi, message",
        [
            (np.zeros((1, 2)), np.ones((1, 2)), "box endpoints must be 1-d arrays of equal length"),
            (np.zeros(2), np.ones(3), "box endpoints must be 1-d arrays of equal length"),
            (np.array([0.0, -np.inf]), np.ones(2), "box endpoints must be finite"),
            (np.array([0.0, 1.0]), np.ones(2), "box requires lo < hi on every axis"),
        ],
    )
    def test_bad_endpoints_rejected(self, lo, hi, message):
        with pytest.raises(StructuralError, match=message):
            Box(lo, hi)


class TestEvalSkip:
    def test_square_at_zero(self):
        net, _ = build_square(2)
        assert eval_skip(net, np.array([0.0])) == 0.0

    def test_square_at_quarter(self):
        net, _ = build_square(2)
        assert eval_skip(net, np.array([0.25])) == 0.125
        assert square_interpolant(0.25, 2) == 0.125

    def test_square_at_half(self):
        net, _ = build_square(2)
        assert eval_skip(net, np.array([0.5])) == 0.25

    @pytest.mark.parametrize("L", [1, 2, 3, 5, 8])
    def test_matches_interpolant_oracle_everywhere(self, L):
        net, _ = build_square(L)
        xs = np.linspace(-1, 1, 641)
        got = eval_skip_batch(net, xs.reshape(-1, 1))
        want = np.array([square_interpolant(x, L) for x in xs])
        np.testing.assert_allclose(got, want, atol=1e-14)

    def test_dimension_mismatch_rejected(self):
        net, _ = build_square(2)
        with pytest.raises(InputError):
            eval_skip(net, np.array([0.1, 0.2]))

    def test_nonfinite_rejected(self):
        net, _ = build_square(2)
        with pytest.raises(InputError):
            eval_skip(net, np.array([np.nan]))

    def test_two_dimensional_point_rejected(self):
        net, _ = build_square(2)
        with pytest.raises(InputError, match=r"expected a single point, got shape \(1, 1\)"):
            evaluate(net, np.array([[0.5]]))

    def test_determinism_bit_identical(self, rng):
        net = make_random_skip(2, 3, 4, rng)
        x = np.array([0.3, -0.7])
        values = {eval_skip(net, x) for _ in range(5)}
        assert len(values) == 1
        reference = values.pop()
        batch = eval_skip_batch(net, np.tile(x, (4, 1)))
        assert (batch == reference).all()

    def test_single_point_equals_batch(self, rng):
        net = make_random_skip(3, 2, 3, rng)
        X = net.domain.sample(50, rng)
        batch = eval_skip_batch(net, X)
        singles = np.array([eval_skip(net, x) for x in X])
        assert (batch == singles).all()

    def test_affine_zero_everywhere(self, rng):
        zero = SkipNet(
            input_dim=2,
            first_w=np.zeros((3, 2)),
            first_b=np.zeros(3),
            hidden_wx=(np.zeros((3, 2)),),
            hidden_wy=(np.zeros((3, 3)),),
            hidden_b=(np.zeros(3),),
            out_a0=0.0,
            out_a=np.zeros(2),
            out_beta=np.zeros((2, 3)),
            domain=Box.symmetric(2),
        )
        X = zero.domain.sample(200, rng)
        assert (eval_skip_batch(zero, X) == 0.0).all()

    def test_depth_zero_is_affine(self, rng):
        net = affine_net(0.5, [2.0, -1.0], Box.symmetric(2))
        X = net.domain.sample(100, rng)
        np.testing.assert_array_equal(
            eval_skip_batch(net, X), 0.5 + 2.0 * X[:, 0] - 1.0 * X[:, 1]
        )


class TestEvalStandard:
    def test_matches_skip_source(self):
        net, _ = build_square(2)
        std = skip_to_standard(net)
        assert abs(eval_standard(std, np.array([0.25])) - 0.125) < 1e-12

    def test_zero_weight_net_returns_bias(self):
        std = StandardNet(
            input_dim=2,
            layer_w=(np.zeros((3, 2)),),
            layer_b=(np.zeros(3),),
            out_w=np.zeros(3),
            out_b=0.75,
            domain=Box.symmetric(2),
        )
        assert eval_standard(std, np.array([0.3, -0.9])) == 0.75

    def test_converted_square_exact_at_node(self):
        net, _ = build_square(3)
        std = skip_to_standard(net)
        assert abs(eval_standard(std, np.array([1.0])) - 1.0) < 1e-12


class TestValidate:
    def test_builder_output_is_clean(self):
        net, _ = build_square(3)
        assert validate(net) == []

    def test_nan_weight_flagged(self):
        net, _ = build_square(2)
        bad = SkipNet(
            input_dim=1,
            first_w=np.array([[np.nan], [-1.0]]),
            first_b=net.first_b,
            hidden_wx=net.hidden_wx,
            hidden_wy=net.hidden_wy,
            hidden_b=net.hidden_b,
            out_a0=net.out_a0,
            out_a=net.out_a,
            out_beta=net.out_beta,
            domain=net.domain,
        )
        problems = validate(bad)
        assert len(problems) == 1 and "non-finite" in problems[0]

    def test_layer_count_mismatch_flagged(self):
        net, _ = build_square(3)
        bad = SkipNet(
            input_dim=1,
            first_w=net.first_w,
            first_b=net.first_b,
            hidden_wx=net.hidden_wx[:1],
            hidden_wy=net.hidden_wy,
            hidden_b=net.hidden_b,
            out_a0=0.0,
            out_a=net.out_a,
            out_beta=net.out_beta,
            domain=net.domain,
        )
        assert any("inconsistent" in p or "shape" in p for p in validate(bad))

    def test_nan_in_hidden_layer_named(self):
        net, _ = build_square(4)
        wy = np.array(net.hidden_wy)
        wy[1, 0, 1] = np.nan
        bad = SkipNet(
            input_dim=1,
            first_w=net.first_w,
            first_b=net.first_b,
            hidden_wx=net.hidden_wx,
            hidden_wy=wy,
            hidden_b=net.hidden_b,
            out_a0=net.out_a0,
            out_a=net.out_a,
            out_beta=net.out_beta,
            domain=net.domain,
        )
        problems = validate(bad)
        assert len(problems) == 1
        assert "non-finite" in problems[0] and "layer 3" in problems[0]

    def test_standard_shape_chain_flagged(self):
        bad = StandardNet(
            input_dim=2,
            layer_w=(np.zeros((3, 2)), np.zeros((2, 4))),
            layer_b=(np.zeros(3), np.zeros(2)),
            out_w=np.zeros(2),
            out_b=0.0,
            domain=Box.symmetric(2),
        )
        assert any("chain" in p for p in validate(bad))

    def test_standard_messages_keep_layer_order(self):
        layer_w = [np.ones((2, 1))] + [np.ones((2, 2)) for _ in range(6)]
        layer_b = [np.zeros(2) for _ in range(7)]
        layer_w[1][0, 1] = np.nan
        layer_w[3] = np.ones((2, 3))
        layer_b[5][1] = np.nan
        layer_w[6][1, 0] = np.inf
        layer_b[6][0] = -np.inf
        out_w = np.array([1.0, np.nan])
        bad = StandardNet(1, tuple(layer_w), tuple(layer_b), out_w, 0.0, Box.symmetric(1))
        assert validate(bad) == [
            "non-finite weight in layer 2",
            "layer 4 weight shape (2, 3) does not chain from width 2",
            "non-finite weight in layer 6 bias",
            "non-finite weight in layer 7",
            "non-finite weight in layer 7 bias",
            "non-finite weight in output",
        ]

    @staticmethod
    def long_blocks():
        """Layers 2-30 of shape (3, 3) and 31-36 of shape (2, 3), as two blocks."""
        layer_w = [np.ones((3, 1))] + [np.ones((3, 3))] * 29 + [np.ones((2, 3))] * 6
        layer_b = [np.zeros(3)] * 30 + [np.zeros(2)] * 6
        return [w.copy() for w in layer_w], [b.copy() for b in layer_b]

    def test_standard_problems_inside_long_blocks(self):
        layer_w, layer_b = self.long_blocks()
        layer_w[9][1, 2] = np.nan
        layer_b[14][0] = np.inf
        layer_w[19] = np.ones((3, 2))  # a shape that breaks the chain, then one that resumes it
        layer_w[20][0, 0] = -np.inf
        layer_b[24] = np.zeros(4)
        layer_w[26] = np.ones(3)
        layer_w[32][0, 0] = np.nan  # hidden by its shape, which chains only at layer 31
        bad = StandardNet(1, tuple(layer_w), tuple(layer_b), np.ones(2), 0.0, Box.symmetric(1))
        # the messages, in order, that a walk over every layer gives
        assert validate(bad) == [
            "non-finite weight in layer 10",
            "non-finite weight in layer 15 bias",
            "layer 20 weight shape (3, 2) does not chain from width 3",
            "non-finite weight in layer 21",
            "layer 25 weight shape (3, 3) does not chain from width 3",
            "layer 27 weight shape (3,) does not chain from width 3",
            "layer 32 weight shape (2, 3) does not chain from width 2",
            "layer 33 weight shape (2, 3) does not chain from width 2",
            "layer 34 weight shape (2, 3) does not chain from width 2",
            "layer 35 weight shape (2, 3) does not chain from width 2",
            "layer 36 weight shape (2, 3) does not chain from width 2",
        ]

    def test_standard_problems_match_a_per_layer_walk(self, rng):
        def walk(net):  # every layer checked on its own
            p, prev = [], net.input_dim
            for layer, (W, b) in enumerate(zip(net.layer_w, net.layer_b), 1):
                if W.ndim != 2 or W.shape != (b.shape[0], prev):
                    p.append(f"layer {layer} weight shape {W.shape} does not chain from width {prev}")
                    prev = W.shape[0] if W.ndim == 2 else prev
                    continue
                if not np.isfinite(W).all():
                    p.append(f"non-finite weight in layer {layer}")
                if not np.isfinite(b).all():
                    p.append(f"non-finite weight in layer {layer} bias")
                prev = W.shape[0]
            return p

        shapes = [(3, 3), (2, 3), (3, 2), (3,), (3, 1)]
        for _ in range(50):
            layer_w, layer_b = self.long_blocks()
            for layer in rng.choice(36, 3, replace=False).tolist():
                trouble = rng.integers(3)
                if trouble == 0:
                    layer_w[layer] = np.ones(shapes[rng.integers(len(shapes))])
                elif trouble == 1:
                    layer_w[layer].flat[0] = np.nan
                else:
                    layer_b[layer][-1] = np.inf
            net = StandardNet(1, tuple(layer_w), tuple(layer_b), np.ones(2), 0.0, Box.symmetric(1))
            problems = walk(net)
            assert validate(net)[: len(problems)] == problems


def valid_skip(**fields) -> SkipNet:
    """A valid depth-2, width-2 skip net on [-1, 1] with ``fields`` replaced."""
    net = dict(input_dim=1, first_w=np.ones((2, 1)), first_b=np.zeros(2),
               hidden_wx=np.zeros((1, 2, 1)), hidden_wy=np.ones((1, 2, 2)),
               hidden_b=np.zeros((1, 2)), out_a0=0.0, out_a=np.zeros(1),
               out_beta=np.ones((2, 2)), domain=Box.symmetric(1))
    return SkipNet(**{**net, **fields})


def valid_standard(**fields) -> StandardNet:
    """A valid standard net of widths 2, 1 on [-1, 1] with ``fields`` replaced."""
    net = dict(input_dim=1, layer_w=(np.ones((2, 1)), np.ones((1, 2))),
               layer_b=(np.zeros(2), np.zeros(1)), out_w=np.ones(1), out_b=0.0,
               domain=Box.symmetric(1))
    return StandardNet(**{**net, **fields})


def valid_shallow(**fields) -> ShallowNet:
    """A valid two-unit shallow net on [-1, 1] with ``fields`` replaced."""
    net = dict(input_dim=1, a=np.ones((2, 1)), b=np.zeros(2), c=np.ones(2), c0=0.0,
               activation=nets.RELU_ACTIVATION, domain=Box.symmetric(1))
    return ShallowNet(**{**net, **fields})


NAN = np.nan
POINT = Box(np.zeros(0), np.zeros(0))  # the domain of a net with no inputs


class TestValidateProblems:
    def test_the_helpers_make_valid_nets(self):
        assert validate(valid_skip()) == validate(valid_standard()) == validate(valid_shallow()) == []

    @pytest.mark.parametrize(
        "make",
        [
            # a depth-0 net with a hidden output coefficient
            lambda: SkipNet(1, np.zeros((0, 1)), np.zeros(0), (), (), (), 0.0, np.zeros(1),
                            np.ones(1), Box.symmetric(1)),
            lambda: valid_skip(out_beta=np.ones(3)),  # depth 2, width 2 takes 4
            lambda: valid_shallow(input_dim=2, a=np.ones(3), domain=Box.symmetric(2)),
        ],
        ids=["skip depth 0", "skip out_beta", "shallow a"],
    )
    def test_constructors_reject_what_they_cannot_reshape(self, make):
        # so validate need not check the shapes of out_beta and ShallowNet.a
        with pytest.raises(ValueError, match="reshape"):
            make()

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda: valid_skip(input_dim=0, first_w=np.ones((2, 0)), hidden_wx=np.zeros((1, 2, 0)),
                                out_a=np.zeros(0), domain=POINT),
             "input_dim must be positive"),
            (lambda: valid_skip(first_w=np.ones((2, 2))), "first layer weight shape (2, 2) != (2, 1)"),
            (lambda: valid_skip(first_b=np.zeros(3)), "first layer bias shape (3,) != (2,)"),
            (lambda: valid_skip(first_b=[0.0, NAN]), "non-finite weight in first layer bias"),
            (lambda: valid_skip(hidden_wy=np.ones((1, 2, 3))),
             "hidden recurrent-weight shape (1, 2, 3) != (1, 2, 2)"),
            (lambda: valid_skip(hidden_b=np.zeros((1, 3))), "hidden bias shape (1, 3) != (1, 2)"),
            (lambda: valid_skip(hidden_wx=[[[0.0], [NAN]]]), "non-finite input-weight in layer 2"),
            (lambda: valid_skip(hidden_b=[[NAN, 0.0]]), "non-finite bias in layer 2"),
            (lambda: valid_skip(out_a=np.zeros(2)), "output input-coefficient shape (2,) != (1,)"),
            (lambda: valid_skip(out_a=[NAN]), "non-finite weight in output"),
            (lambda: valid_skip(out_beta=[[1.0, 1.0], [NAN, 1.0]]), "non-finite weight in output"),
            (lambda: valid_skip(out_a0=NAN), "non-finite output bias"),
            (lambda: valid_skip(domain=Box.symmetric(2)), "domain dimension 2 != input_dim 1"),
            (lambda: valid_standard(input_dim=0, layer_w=(np.ones((2, 0)), np.ones((1, 2))),
                                    domain=POINT),
             "input_dim must be positive"),
            (lambda: valid_standard(layer_w=(), layer_b=()),
             "standard net requires at least one hidden layer"),
            (lambda: valid_standard(out_w=np.ones(2)), "output weight shape (2,) != (1,)"),
            (lambda: valid_standard(out_b=NAN), "non-finite output bias"),
            (lambda: valid_standard(domain=Box.symmetric(2)), "domain dimension 2 != input_dim 1"),
            (lambda: valid_shallow(a=np.zeros((0, 1)), b=np.zeros(0), c=np.zeros(0)),
             "shallow net requires at least one unit"),
            (lambda: valid_shallow(b=np.zeros(3)),
             "offset/coefficient vectors must have one entry per unit"),
            (lambda: valid_shallow(c=np.zeros(1)),
             "offset/coefficient vectors must have one entry per unit"),
            (lambda: valid_shallow(a=[[NAN], [1.0]]), "non-finite weight in directions"),
            (lambda: valid_shallow(b=[0.0, NAN]), "non-finite weight in offsets"),
            (lambda: valid_shallow(c=[NAN, 1.0]), "non-finite weight in coefficients"),
            (lambda: valid_shallow(c0=NAN), "non-finite output bias"),
            (lambda: valid_shallow(activation="tanh"), "unknown activation tag 'tanh'"),
            (lambda: valid_shallow(domain=Box.symmetric(2)), "domain dimension 2 != input_dim 1"),
            (lambda: object(), "unsupported network type object"),
        ],
    )
    def test_each_problem_is_reported_alone(self, make, problem):
        assert validate(make()) == [problem]

    @pytest.mark.parametrize(
        "make, problem",
        [
            (lambda: valid_standard(layer_w=(), layer_b=(), out_w=np.ones(1)),
             "standard net requires at least one hidden layer"),
            (lambda: valid_shallow(b=np.zeros(3)),
             "offset/coefficient vectors must have one entry per unit"),
        ],
        ids=["standard depth 0", "shallow b"],
    )
    def test_evaluation_refuses_an_invalid_net_before_compiling(self, make, problem):
        net = make()
        with pytest.raises(StructuralError, match=re.escape(problem)):
            evaluate_batch(net, np.zeros((3, 1)))
        assert "_program" not in vars(net)


class TestIntervalBounds:
    def test_single_relu_unit(self):
        net = SkipNet(
            input_dim=1,
            first_w=np.array([[1.0]]),
            first_b=np.zeros(1),
            hidden_wx=(),
            hidden_wy=(),
            hidden_b=(),
            out_a0=0.0,
            out_a=np.zeros(1),
            out_beta=np.ones((1, 1)),
            domain=Box.symmetric(1),
        )
        rep = interval_bounds(net, net.domain)
        assert rep.pre_lo[0][0] == -1.0 and rep.pre_hi[0][0] == 1.0

    def test_affine_image(self):
        net = SkipNet(
            input_dim=1,
            first_w=np.array([[2.0]]),
            first_b=np.array([1.0]),
            hidden_wx=(),
            hidden_wy=(),
            hidden_b=(),
            out_a0=0.0,
            out_a=np.zeros(1),
            out_beta=np.ones((1, 1)),
            domain=Box.symmetric(1),
        )
        rep = interval_bounds(net, net.domain)
        assert rep.pre_lo[0][0] == -1.0 and rep.pre_hi[0][0] == 3.0

    def test_square_second_layer_offset_unit(self):
        # layer-2 offset unit pre-activation is |x| - 1/2, range [-1/2, 1/2]
        net, _ = build_square(2)
        rep = interval_bounds(net, net.domain)
        xs = np.linspace(-1, 1, 4001)
        true_lo, true_hi = (np.abs(xs) - 0.5).min(), (np.abs(xs) - 0.5).max()
        assert rep.pre_lo[1][1] <= true_lo and rep.pre_hi[1][1] >= true_hi

    def test_soundness_on_random_nets(self, rng):
        for _ in range(10):
            net = make_random_skip(
                int(rng.integers(1, 4)), int(rng.integers(1, 4)), int(rng.integers(1, 5)), rng
            )
            rep = interval_bounds(net, net.domain)
            X = net.domain.sample(10_000, rng)
            _, pres = reference_forward(net, X)
            for l in range(net.depth):
                assert (pres[l] >= rep.pre_lo[l] - 1e-9).all()
                assert (pres[l] <= rep.pre_hi[l] + 1e-9).all()

    def test_term_lo_bounds_each_output_term(self, rng):
        cases = [build_square(4)[0], build_multiply(3)[0]] + [
            make_random_skip(
                int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng
            )
            for _ in range(10)
        ]
        for net in cases:
            rep = interval_bounds(net, net.domain)
            assert len(rep.term_lo) == net.depth
            head = interval_bounds(affine_net(net.out_a0, net.out_a, net.domain), net.domain)
            assert functools.reduce(operator.add, rep.term_lo, head.out_lo) == rep.out_lo
            X = net.domain.sample(5000, rng)
            _, pres = reference_forward(net, X)
            for l in range(net.depth):
                terms = np.maximum(pres[l], 0.0) @ net.out_beta[l]
                assert rep.term_lo[l] <= terms.min() + 1e-9
        assert interval_bounds(skip_to_standard(cases[0]), cases[0].domain).term_lo == ()

    def test_dimension_mismatch(self):
        net, _ = build_square(2)
        with pytest.raises(InputError):
            interval_bounds(net, Box.symmetric(2))

    def test_matches_per_layer_reference_exactly(self, rng):
        cases = [
            build_square(4)[0],
            build_multiply(3)[0],
            build_monomial([1, 2, 3], 2, 3)[0],
            build_analytic(preset_series("runge")[0], 1e-3, 0.25).net,
        ] + [
            make_random_skip(
                int(rng.integers(1, 4)), int(rng.integers(1, 6)), int(rng.integers(1, 5)), rng
            )
            for _ in range(10)
        ]
        for net in cases:
            got, want = interval_bounds(net, net.domain), reference_interval_bounds(net, net.domain)
            for name in ("pre_lo", "pre_hi", "post_lo", "post_hi"):
                assert [a.tobytes() for a in getattr(got, name)] == [
                    a.tobytes() for a in getattr(want, name)
                ], name
            assert [v.hex() for v in got.term_lo] == [v.hex() for v in want.term_lo]
            assert (got.out_lo.hex(), got.out_hi.hex()) == (want.out_lo.hex(), want.out_hi.hex())

    def test_standard_net_soundness(self, rng):
        from relu_forge.nets import eval_standard_batch

        net, _ = build_square(3)
        std = skip_to_standard(net)
        rep = interval_bounds(std, std.domain)
        X = std.domain.sample(5000, rng)
        # recompute layer pre-activations directly
        layer = X
        for l, (W, b) in enumerate(zip(std.layer_w, std.layer_b)):
            pre = layer @ W.T + b
            assert (pre >= rep.pre_lo[l] - 1e-12).all()
            assert (pre <= rep.pre_hi[l] + 1e-12).all()
            layer = np.maximum(pre, 0.0)
        out = layer @ std.out_w + std.out_b
        assert (out >= rep.out_lo - 1e-12).all() and (out <= rep.out_hi + 1e-12).all()


class TestSkipNetStorage:
    """A skip net keeps its hidden layers as three stacked read-only arrays."""

    def test_tuples_of_layers_are_stacked(self, rng):
        for depth in range(1, 5):
            d, w = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            net = make_random_skip(d, depth, w, rng)
            for arr, shape in (
                (net.hidden_wx, (depth - 1, w, d)),
                (net.hidden_wy, (depth - 1, w, w)),
                (net.hidden_b, (depth - 1, w)),
            ):
                assert isinstance(arr, np.ndarray) and arr.dtype == float
                assert arr.shape == shape and not arr.flags.writeable

    def test_affine_net_has_empty_stacks(self):
        net = affine_net(0.5, [1.0, 2.0, 3.0], Box.symmetric(3))
        assert net.width == 0
        assert net.hidden_wx.shape == (0, 0, 3)
        assert net.hidden_wy.shape == (0, 0, 0)
        assert net.hidden_b.shape == (0, 0)

    def test_ragged_layers_rejected(self):
        with pytest.raises(StructuralError, match="hidden_wx"):
            SkipNet(
                input_dim=2,
                first_w=np.zeros((3, 2)),
                first_b=np.zeros(3),
                hidden_wx=(np.zeros((3, 2)), np.zeros((3, 1))),
                hidden_wy=(np.zeros((3, 3)), np.zeros((3, 3))),
                hidden_b=(np.zeros(3), np.zeros(3)),
                out_a0=0.0,
                out_a=np.zeros(2),
                out_beta=np.zeros((3, 3)),
                domain=Box.symmetric(2),
            )
        # a standard net pairs each weight with a bias
        weights = (np.ones((2, 1)), np.ones((1, 2)), np.ones((1, 1)))
        for w, b in ((1, 2), (3, 2)):
            with pytest.raises(StructuralError, match=f"layer_w holds {w} layers but layer_b holds {b}"):
                valid_standard(layer_w=weights[:w], layer_b=(np.zeros(2), np.zeros(1))[:b])

    def test_document_with_short_unit_rejected(self):
        doc = to_document(build_multiply(2)[0])
        doc["hidden_layers"][2][1]["wx"] = [0.5]
        with pytest.raises(DocumentInvariantError):
            from_document(doc)

    def test_reshaped_fields_freeze_the_callers_array(self):
        # out_beta and ShallowNet.a are reshaped; a shared array must not stay writeable
        beta = np.array([[1.0, 2.0]])
        skip = SkipNet(1, np.ones((2, 1)), np.zeros(2), (), (), (), 0.0, np.zeros(1),
                       beta, Box.symmetric(1))
        a = np.array([[1.0]])
        shallow = ShallowNet(1, a, np.zeros(1), np.ones(1), 0.0, "relu", Box.symmetric(1))
        assert evaluate(skip, [0.5]) == 1.5 and evaluate(shallow, [0.5]) == 0.5
        for arr in (beta, a):
            with pytest.raises(ValueError):
                arr[0, 0] = 100.0
        assert evaluate(skip, [0.5]) == 1.5 and evaluate(shallow, [0.5]) == 0.5


def sparse_skip(d, depth, width, rng) -> SkipNet:
    """Skip net whose weights and biases mix +-1, signed zeros and others."""
    values = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -2.0, 3.25])
    pick = lambda *shape: rng.choice(values, shape)
    return SkipNet(
        input_dim=d,
        first_w=pick(width, d),
        first_b=pick(width),
        hidden_wx=tuple(pick(width, d) for _ in range(depth - 1)),
        hidden_wy=tuple(pick(width, width) for _ in range(depth - 1)),
        hidden_b=tuple(pick(width) for _ in range(depth - 1)),
        out_a0=float(pick(1)[0]),
        out_a=pick(d),
        out_beta=pick(depth, width),
        domain=Box.symmetric(d),
    )


class TestKernelMatchesReference:
    """The compiled kernel reproduces the per-unit loop byte for byte."""

    @pytest.fixture(autouse=True)
    def small_chunks(self, monkeypatch):
        monkeypatch.setattr(nets, "_REGISTER_FLOATS", 64)

    @staticmethod
    def assert_same_bytes(net, X):
        assert evaluate_batch(net, X).tobytes() == reference_forward(net, X)[0].tobytes()

    @pytest.mark.parametrize("shape", [(1, 1, 1), (2, 3, 4), (3, 5, 2), (1, 8, 3)])
    def test_random_skip_and_standard_forms(self, rng, shape):
        for net in (make_random_skip(*shape, rng), sparse_skip(*shape, rng)):
            X = net.domain.sample(50, rng)
            self.assert_same_bytes(net, X)
            self.assert_same_bytes(skip_to_standard(net), X)

    @pytest.mark.parametrize("net", [build_square(4)[0], build_multiply(3)[0]])
    def test_builder_nets_and_their_standard_forms(self, rng, net):
        X = net.domain.sample(50, rng)
        self.assert_same_bytes(net, X)
        self.assert_same_bytes(skip_to_standard(net), X)

    def test_padded_nets(self, rng):
        for net in (make_random_skip(2, 3, 2, rng), build_multiply(2)[0]):
            padded = pad_width(net, net.width + 3)
            X = net.domain.sample(50, rng)
            self.assert_same_bytes(padded, X)
            assert evaluate_batch(padded, X).tobytes() == evaluate_batch(net, X).tobytes()

    def test_depth_zero_affine(self, rng):
        net = affine_net(0.5, [2.0, 0.0, -1.0], Box.symmetric(3))
        self.assert_same_bytes(net, net.domain.sample(50, rng))

    @pytest.mark.parametrize("activation", [nets.RELU_ACTIVATION, nets.SIGMOIDAL_ACTIVATION])
    def test_shallow(self, rng, activation):
        net = make_random_shallow(2, 6, rng, activation)
        self.assert_same_bytes(net, net.domain.sample(50, rng))

    def test_shallow_zero_coefficient_turns_negative_zero_bias_positive(self, rng):
        net = ShallowNet(
            input_dim=1,
            a=np.array([[1.0]]),
            b=np.zeros(1),
            c=np.zeros(1),
            c0=-0.0,
            activation=nets.RELU_ACTIVATION,
            domain=Box.symmetric(1),
        )
        X = net.domain.sample(50, rng)
        self.assert_same_bytes(net, X)
        assert not np.signbit(evaluate_batch(net, X)).any()

    @pytest.mark.parametrize("activation", [nets.RELU_ACTIVATION, nets.SIGMOIDAL_ACTIVATION])
    def test_shallow_with_zero_directions_and_zero_coefficients(self, rng, activation):
        # a unit with an all-zero direction reads nothing, so it joins the
        # previous unit's stage; the first one opens the program
        s = make_random_shallow(2, 7, rng, activation)
        a, c = s.a.copy(), s.c.copy()
        a[[0, 3, 4]] = 0.0
        c[[1, 4, 6]] = 0.0
        net = ShallowNet(2, a, s.b, c, -0.0, activation, s.domain)
        self.assert_same_bytes(net, np.vstack([[[-0.0, 0.0]], net.domain.sample(50, rng)]))

    @pytest.mark.parametrize("activation", [nets.RELU_ACTIVATION, nets.SIGMOIDAL_ACTIVATION])
    def test_shallow_units_that_repeat_are_computed_once(self, rng, activation):
        s = make_random_shallow(2, 4, rng, activation)
        pick = [0, 1, 0, 2, 3, 3]  # unit 0 twice, and two bias-only units alike
        a, b = s.a[pick], s.b[pick]
        a[4:] = 0.0
        net = ShallowNet(2, a, b, rng.normal(size=6), s.c0, activation, s.domain)
        assert program_units(net) == 4
        self.assert_same_bytes(net, net.domain.sample(50, rng))

    def test_nets_whose_units_repeat(self, rng):
        even_head = PolySpec(1, {(2,): 0.5, (4,): -0.25, (6,): 0.125, (8,): -1.0})
        f = make_random_skip(2, 4, 3, rng)
        for net in (build_polynomial(even_head, 3)[0], add(f, f, 1.0, -0.5)):
            assert computed_units(net) < net.depth * net.width
            self.assert_same_bytes(net, net.domain.sample(50, rng))

    def test_unread_channels_are_left_out(self, rng):
        f = make_random_skip(2, 3, 2, rng)
        # two channels in front, so a unit kept by mistake would run first
        widen = lambda a, axes: np.pad(a, [(2 * (i in axes), 0) for i in range(a.ndim)])
        first_w, first_b = widen(f.first_w, {0}), widen(f.first_b, {0})
        hidden_wx, hidden_b = widen(f.hidden_wx, {1}), widen(f.hidden_b, {1})
        first_b[0] = hidden_b[:, 0] = 0.75  # a bias-only free channel
        first_w[1] = hidden_wx[:, 1] = 0.5  # a channel that reads x
        net = SkipNet(
            input_dim=2,
            first_w=first_w,
            first_b=first_b,
            hidden_wx=hidden_wx,
            hidden_wy=widen(f.hidden_wy, {1, 2}),
            hidden_b=hidden_b,
            out_a0=f.out_a0,
            out_a=f.out_a,
            out_beta=widen(f.out_beta, {1}),
            domain=f.domain,
        )
        assert computed_units(net) == f.depth * f.width
        X = net.domain.sample(50, rng)
        self.assert_same_bytes(net, X)
        assert evaluate_batch(net, X).tobytes() == evaluate_batch(f, X).tobytes()

    def test_unit_that_reads_a_bias_only_unit(self, rng):
        net = SkipNet(
            input_dim=1,
            first_w=np.array([[0.0], [1.0]]),
            first_b=np.array([0.75, -0.25]),
            hidden_wx=np.array([[[0.5], [0.0]]]),
            hidden_wy=np.array([[[2.0, -1.0], [0.0, 0.0]]]),
            hidden_b=np.zeros((1, 2)),
            out_a0=0.0,
            out_a=np.zeros(1),
            out_beta=np.array([[0.0, 1.0], [1.0, 0.0]]),
            domain=Box.symmetric(1),
        )
        self.assert_same_bytes(net, net.domain.sample(50, rng))

    def test_units_differing_only_in_the_sign_of_a_zero_bias_stay_apart(self):
        net = SkipNet(
            input_dim=1,
            first_w=np.ones((2, 1)),
            first_b=np.array([0.0, -0.0]),
            hidden_wx=(),
            hidden_wy=(),
            hidden_b=(),
            out_a0=0.0,
            out_a=np.zeros(1),
            out_beta=np.array([[1.0, -1.0]]),
            domain=Box.symmetric(1),
        )
        assert computed_units(net) == 2
        self.assert_same_bytes(net, np.array([[-0.0], [0.0], [-0.5], [0.5]]))

    def test_relu_turns_negative_zero_positive(self):
        # the fact that lets a +0.0-bias identity unit alias a computed unit
        for n in (1, 7, 33):
            z = np.full(n, -0.0)
            np.maximum(z, 0.0, out=z)
            assert not np.signbit(z).any()

    def test_carry_that_reads_an_input_is_computed(self):
        net = chain_net([np.ones((1, 1)), np.ones((1, 1))], [np.zeros(1), np.zeros(1)])
        assert program_units(net) == 1  # the carry of x; the carry of the carry aliases it
        X = np.array([[-0.0], [0.0], [-0.5], [0.5]])
        self.assert_same_bytes(net, X)
        assert not np.signbit(evaluate_batch(net, X)).any()  # 0.0 + -0.0, not x

    def test_identity_with_negative_zero_bias_is_computed(self, rng):
        net = chain_net([np.ones((1, 1)), np.ones((1, 1))], [np.full(1, -0.5), np.full(1, -0.0)])
        assert program_units(net) == 2
        self.assert_same_bytes(net, np.vstack([[[-0.0], [0.0]], net.domain.sample(50, rng)]))

    def test_chain_of_identity_units(self, rng):
        first_w, first_b = rng.uniform(-1, 1, (3, 2)), rng.uniform(-1, 1, 3)
        layer_w, layer_b = [first_w, *[np.eye(3)] * 5], [first_b, *[np.zeros(3)] * 5]
        net = chain_net(layer_w, layer_b, rng.uniform(-1, 1, 3))
        assert program_units(net) == 3
        self.assert_same_bytes(net, net.domain.sample(50, rng))

    def test_first_layer_shares_a_block_with_a_layer_of_its_shape(self, rng):
        # with width d, layers 1 and 2 have rows of one shape, [bias | W], so
        # they form one block, and their bias-only units have equal rows
        layer_w = [np.array([[0.0, 0.0], [1.0, 0.0]]), np.array([[0.0, 0.0], [1.0, 1.0]])]
        layer_b = [np.array([0.5, 0.0]), np.array([0.5, 0.0])]
        net = chain_net(layer_w, layer_b, [1.0, -1.0])
        assert [layers for layers, _, _ in nets._blocks(net)] == [(1, 2)]
        assert program_units(net) == 3  # the bias-only unit, the carry of x1, their sum
        X = np.vstack([[[-0.0, 0.0]], net.domain.sample(50, rng)])
        self.assert_same_bytes(net, X)
        assert serialize_net(net) == json.dumps(to_document(net)) + "\n"
        layer_w[1] = np.array([[0.0, 0.0], [1.0, np.nan]])
        bad = chain_net(layer_w, layer_b, [1.0, -1.0])
        assert validate(bad) == ["non-finite weight in layer 2"]
        with pytest.raises(StructuralError, match="non-finite weight in layer 2$"):
            evaluate_batch(bad, X)

    def test_wide_to_deep_on_uneven_partitions(self, rng):
        # every layer has its own shape, so its kinds come from a block of their own
        for partition in ([2, 4, 3], [1, 5, 1, 2], [3, 1, 3, 1, 3]):
            s = make_random_shallow(2, sum(partition), rng)
            deep = wide_to_deep(s, partition)
            X = s.domain.sample(50, rng)
            self.assert_same_bytes(deep, X)
            assert np.abs(evaluate_batch(deep, X) - evaluate_batch(s, X)).max() <= 1e-12

    def test_standard_runge_shares_its_chain_within_the_register_budget(self, rng, monkeypatch):
        std = skip_to_standard(build_analytic(preset_series("runge")[0], 1e-6, 0.25).net)
        assert program_units(std) <= 1300  # of 8424 in the net
        for cap in (1 << 10, 1 << 19):
            monkeypatch.setattr(nets, "_REGISTER_FLOATS", cap)
            assert_passes_within_the_cap(std, rng, monkeypatch)
        monkeypatch.setattr(nets, "_REGISTER_FLOATS", 64)
        self.assert_same_bytes(std, std.domain.sample(20, rng))

    def test_program_kept_on_the_net_runs_passes_of_the_current_chunk(self, rng, monkeypatch):
        net = skip_to_standard(build_square(4)[0])
        monkeypatch.setattr(nets, "_REGISTER_FLOATS", 1 << 19)
        prog = nets._program(net)
        monkeypatch.setattr(nets, "_REGISTER_FLOATS", 64)
        X = net.domain.sample(50, rng)
        _, steps = TestPasses.run_passes(net, X, monkeypatch)
        assert nets._program(net) is prog and (prog.registers + 1) * max(steps) <= 64
        self.assert_same_bytes(net, X)


def assert_passes_within_the_cap(net, rng, monkeypatch):
    """Over two passes and a point, each pass's register file, product row
    included, holds at most _REGISTER_FLOATS floats."""
    prog = nets._program(net)
    p = nets._REGISTER_FLOATS // (prog.registers + 1)
    _, steps = TestPasses.run_passes(net, net.domain.sample(2 * p + 1, rng), monkeypatch)
    assert len(steps) == 3 and (prog.registers + 1) * max(steps) <= nets._REGISTER_FLOATS


def computed_units(net) -> int:
    return sum(len(units) for units, _ in nets._compile_skip(net).stages)


def program_units(net) -> int:
    return sum(len(units) for units, _ in nets._program(net).stages)


def chain_net(layer_w, layer_b, out_w=(1.0,)) -> StandardNet:
    """Standard net over the unit box; its output bias -0.0 shows the sign of a zero sum."""
    return StandardNet(
        input_dim=layer_w[0].shape[1],
        layer_w=tuple(layer_w),
        layer_b=tuple(layer_b),
        out_w=np.array(out_w),
        out_b=-0.0,
        domain=Box.symmetric(layer_w[0].shape[1]),
    )


def test_threads_evaluating_one_net_compile_it_once(monkeypatch, rng):
    compiled, compile_skip = [], nets._compile_skip

    def counting(net):
        compiled.append(net)
        return compile_skip(net)

    monkeypatch.setattr(nets, "_compile_skip", counting)
    net = build_multiply(6)[0]
    X = net.domain.sample(20, rng)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            outs = list(pool.map(lambda _: evaluate_batch(net, X).tobytes(), range(16), timeout=60))
    finally:
        sys.setswitchinterval(switch)
    assert compiled == [net] and len(set(outs)) == 1


def test_numbering_shares_the_runge_chain_within_the_register_budget(rng, monkeypatch):
    runge = build_analytic(preset_series("runge")[0], 1e-6, 0.25).net
    assert computed_units(runge) <= 1100  # of 5616 in the net
    monkeypatch.setattr(nets, "_REGISTER_FLOATS", 1 << 10)
    for net in (runge, build_multiply(8)[0]):
        assert_passes_within_the_cap(net, rng, monkeypatch)


@pytest.mark.parametrize(
    "make, units, rows",
    [
        (lambda: build_analytic(preset_series("runge")[0], 1e-10, 0.25).net, 3220, 48),
        (lambda: skip_to_standard(build_analytic(preset_series("runge")[0], 1e-8, 0.25).net),
         2432, 75),
        (lambda: build_multiply(8)[0], 48, 6),
        (lambda: build_polynomial(PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5}), 6)[0],
         36, 18),
    ],
    ids=["runge 1e-10", "runge 1e-8 standard", "multiply 8", "acceptance poly 6"],
)
def test_benchmark_programs_keep_their_units_within_their_rows(make, units, rows):
    # a better unit order may lower the rows, never raise them
    net = make()
    assert program_units(net) == units and nets._program(net).registers <= rows


@pytest.mark.xfail(strict=True, reason="ROADMAP item 4")
def test_branching_2d_head_fits_in_few_rows():
    # exp((x1 + x2) / 2); its degree-n coefficients sum to 1/n!, so the 1-d
    # exp tail bounds its tail
    coeffs = {
        (i, j): 1.0 / (2 ** (i + j) * math.factorial(i) * math.factorial(j))
        for i in range(41)
        for j in range(41 - i)
    }
    exp2 = SeriesSpec(PolySpec(2, coeffs), tail_l1_bound=preset_series("exp")[0].tail_l1_bound)
    net = build_analytic(exp2, 1e-6, 0.25).net
    assert nets._compile_skip(net).registers <= 200


class TestPasses:
    """_run takes the fewest passes of at most p = _REGISTER_FLOATS //
    (registers + 1) points, at least one, and splits the points evenly."""

    NETS = {
        "skip": lambda rng: make_random_skip(1, 5, 4, rng),
        "standard": lambda rng: skip_to_standard(make_random_skip(1, 5, 4, rng)),
        "shallow relu": lambda rng: make_random_shallow(2, 6, rng),
        "shallow sigmoidal": lambda rng: make_random_shallow(2, 6, rng, nets.SIGMOIDAL_ACTIVATION),
    }

    @staticmethod
    def run_passes(net, X, monkeypatch) -> tuple:
        """The net's output on X and the length of each kernel pass, seen
        through the output terms each pass adds to its slice of the output."""
        slices, add_terms = {}, nets._add_terms

        def spy(z, terms, rows, tmp, start=None):
            if start is None:  # the output terms; z is the pass's output slice
                slices[z.ctypes.data] = len(z)
            add_terms(z, terms, rows, tmp, start)

        monkeypatch.setattr(nets, "_add_terms", spy)
        out = evaluate_batch(net, X)
        monkeypatch.setattr(nets, "_add_terms", add_terms)
        return out, list(slices.values())

    # the default cap, a small one above every test net's rows, and one below
    @pytest.mark.parametrize("cap", [1 << 19, 40, 3])
    @pytest.mark.parametrize("kind", NETS)
    def test_passes_at_the_edges_of_a_pass(self, kind, cap, rng, monkeypatch):
        monkeypatch.setattr(nets, "_REGISTER_FLOATS", cap)
        net = self.NETS[kind](rng)
        floats = nets._program(net).registers + 1  # per point, with the product row
        p = max(1, cap // floats)
        for n in (0, 1, p - 1, p, p + 1, 2 * p + 1):
            X = net.domain.sample(n, rng)
            out, steps = self.run_passes(net, X, monkeypatch)
            passes = -(-n // p)
            step = -(-n // passes) if passes else 0  # split evenly; the last pass takes the rest
            assert steps == [step] * (passes - 1) + [n - step * (passes - 1)] * (passes > 0)
            if floats <= cap:
                assert floats * max(steps, default=0) <= cap
            assert out.tobytes() == reference_forward(net, X)[0].tobytes()

    @pytest.mark.parametrize("kind", NETS)
    def test_no_points(self, kind, rng, monkeypatch):
        net = self.NETS[kind](rng)
        out, steps = self.run_passes(net, np.zeros((0, net.input_dim)), monkeypatch)
        assert out.shape == (0,) and steps == []


def sparse_shallow(d, units, rng, activation) -> ShallowNet:
    """Shallow net whose weights mix +-1, signed zeros and others, so that
    some units repeat and some read nothing."""
    values = np.array([1.0, -1.0, 0.0, -0.0, 0.5, -2.0])
    pick = lambda *shape: rng.choice(values, shape)
    return ShallowNet(
        d, pick(units, d), pick(units), pick(units), float(pick(1)[0]), activation,
        Box.symmetric(d),
    )


@st.composite
def numbered_units(draw):
    """(d, units, output terms) as numbering makes them: each unit reads
    smaller ids, an operand may repeat, and a unit may read nothing or go
    unread."""
    d = draw(st.integers(1, 3))
    units = []
    for v in range(d, d + draw(st.integers(0, 12))):
        ops = tuple(draw(st.lists(st.integers(0, v - 1), max_size=3)))
        units.append((draw(st.sampled_from([0.0, -0.0, 0.5])), ops, (1.0, -2.0, 0.5)[: len(ops)]))
    weight = st.sampled_from([1.0, -1.0, 0.0, 0.25])
    outs = draw(st.lists(st.tuples(st.integers(0, d + len(units) - 1), weight), max_size=8))
    return d, units, outs


@settings(max_examples=300, deadline=None)
@given(numbered_units())
# a stage's output terms free their rows in first-read order once all are
# taken: here rows 1, 2, 3, so unit 4 takes row 3
@example((1, [(0.5, (0,), (1.0,)), (0.5, (), ()), (0.0, (), ()), (0.5, (0,), (1.0,))],
          [(1, 1.0), (2, 1.0), (3, 1.0), (2, 1.0), (4, 1.0)]))
def test_schedule_places_any_numbered_units_as_the_reference_does(program):
    d, units, outs = program
    got = nets._schedule(d, units, outs, -0.0)
    assert pickle.dumps(got) == pickle.dumps(reference_schedule(d, units, outs, -0.0))


@settings(max_examples=60, deadline=None)
@given(
    d=st.integers(1, 3),
    depth=st.integers(1, 6),
    width=st.integers(1, 5),
    activation=st.sampled_from([nets.RELU_ACTIVATION, nets.SIGMOIDAL_ACTIVATION]),
    seed=st.integers(0, 2**32 - 1),
)
def test_schedule_makes_the_reference_program(d, depth, width, activation, seed):
    rng = np.random.default_rng(seed)
    skip = sparse_skip(d, depth, width, rng)
    for net in (
        skip,
        skip_to_standard(skip),
        sparse_shallow(d, depth * width, rng, activation),
        make_random_shallow(d, width, rng, activation),
    ):
        got = pickle.dumps(nets._program(net))
        with mock.patch.object(nets, "_schedule", reference_schedule):
            want = pickle.dumps(nets._program(replace(net)))
        assert got == want


def test_analysis_from_layer_zero_shares_repeated_layers_bit_for_bit():
    # the summed chains repeat (row, incoming ranges) pairs
    built = build_analytic(preset_series("runge")[0], 1e-6, 0.25).net
    net, _ = deserialize_net(serialize_net(built))
    got, want = interval_bounds(net, net.domain), reference_interval_bounds(net, net.domain)
    for name in ("pre_lo", "pre_hi", "post_lo", "post_hi"):
        arrays = getattr(got, name)
        assert [a.tobytes() for a in arrays] == [a.tobytes() for a in getattr(want, name)], name
        assert not any(a.flags.writeable for a in arrays), name
    assert [v.hex() for v in got.term_lo] == [v.hex() for v in want.term_lo]
    assert (got.out_lo.hex(), got.out_hi.hex()) == (want.out_lo.hex(), want.out_hi.hex())
    assert len({id(a) for a in got.pre_lo}) < net.depth // 2  # repeats share their arrays


def test_standard_blocks_are_stacked_once_and_read_only():
    net = skip_to_standard(build_monomial([1, 2, 3], 3, 3)[0])
    assert validate(net) == []
    blocks = vars(net)["_blocks"]
    serialize_net(net)
    nets._program(net)
    assert nets._blocks(net) is blocks  # the writer and compile reuse validate's stacking
    assert [layer for layers, _, _ in blocks for layer in layers] == list(range(1, net.depth + 1))
    for layers, W, b in blocks:
        assert not W.flags.writeable and not b.flags.writeable
        assert W.tobytes() == np.array([net.layer_w[l - 1] for l in layers]).tobytes()
        assert b.tobytes() == np.array([net.layer_b[l - 1] for l in layers]).tobytes()
        assert W.shape == (len(layers), *net.layer_w[layers[0] - 1].shape)
    # the layers are views of the blocks; a net made anew stacks blocks of its
    # own from copies, and the caller's arrays stay writable
    passed_w, passed_b = [W.copy() for W in net.layer_w], [b.copy() for b in net.layer_b]
    for made in (net, replace(net), replace(net, layer_w=tuple(passed_w), layer_b=tuple(passed_b))):
        made_blocks = vars(made)["_blocks"]
        assert made is net or not any(
            np.shares_memory(W, W2) for (_, W, _), (_, W2, _) in zip(made_blocks, blocks)
        )
        assert [(layers, W.tobytes(), b.tobytes()) for layers, W, b in made_blocks] == [
            (layers, W.tobytes(), b.tobytes()) for layers, W, b in blocks
        ]
        for layers, W, b in made_blocks:
            for l in layers:
                for a, block in ((made.layer_w[l - 1], W), (made.layer_b[l - 1], b)):
                    assert np.shares_memory(a, block) and not a.flags.writeable
    assert all(a.flags.writeable for a in passed_w + passed_b)
