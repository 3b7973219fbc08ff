"""Structural algebra: addition, composition, padding, conversions, counts."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from relu_forge import (
    Box,
    ConversionError,
    NoFreeChannelError,
    PolySpec,
    ShallowNet,
    SkipNet,
    StructuralError,
    add,
    affine_net,
    build_analytic,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    compose,
    count_params,
    count_params_standard,
    deserialize_net,
    equivalence_check,
    eval_shallow_batch,
    eval_skip,
    eval_skip_batch,
    eval_standard_batch,
    evaluate_batch,
    interval_bounds,
    pad_width,
    preset_series,
    serialize_net,
    sigmoidal_to_relu,
    skip_to_standard,
    substitute_inputs,
    validate,
    wide_to_deep,
)

from relu_forge import builders, calculus
from relu_forge.serialize import to_document

from conftest import make_random_shallow, make_random_skip
from test_nets import reference_interval_bounds


class TestAdd:
    def test_cancellation(self, rng):
        f = make_random_skip(2, 3, 3, rng)
        z = add(f, f, 1.0, -1.0)
        X = f.domain.sample(2000, rng)
        assert np.abs(eval_skip_batch(z, X)).max() <= 1e-12

    def test_doubling_square(self):
        f, _ = build_square(2)
        s = add(f, f, 1.0, 1.0)
        assert eval_skip(s, np.array([0.5])) == 0.5

    def test_depths_add(self):
        f2, _ = build_square(2)
        f3, _ = build_square(3)
        assert add(f2, f3, 1.0, 1.0).depth == 5

    def test_linearity(self, rng):
        for _ in range(20):
            d, w = int(rng.integers(1, 4)), int(rng.integers(1, 5))
            f1 = make_random_skip(d, int(rng.integers(1, 4)), w, rng)
            f2 = make_random_skip(d, int(rng.integers(1, 4)), w, rng)
            a1, a2 = rng.uniform(-2, 2, 2)
            s = add(f1, f2, a1, a2)
            assert s.width == w and s.depth == f1.depth + f2.depth
            X = s.domain.sample(500, rng)
            resid = eval_skip_batch(s, X) - a1 * eval_skip_batch(f1, X) - a2 * eval_skip_batch(f2, X)
            assert np.abs(resid).max() <= 1e-12
            assert validate(s) == []

    def test_width_mismatch_rejected(self, rng):
        f1 = make_random_skip(2, 2, 2, rng)
        f2 = make_random_skip(2, 2, 3, rng)
        with pytest.raises(StructuralError):
            add(f1, f2, 1.0, 1.0)

    def test_affine_operand_folds_without_layers(self, rng):
        f = make_random_skip(2, 2, 3, rng)
        aff = affine_net(0.25, [1.0, -2.0], f.domain)
        s = add(f, aff, 2.0, 3.0)
        assert s.depth == f.depth
        X = f.domain.sample(300, rng)
        resid = eval_skip_batch(s, X) - 2.0 * eval_skip_batch(f, X) - 3.0 * eval_skip_batch(aff, X)
        assert np.abs(resid).max() <= 1e-12


def assert_same_bits(a, b, rng):
    """``a`` and ``b`` have equal documents and equal evaluation bytes."""
    doc = lambda net: json.dumps(to_document(net), sort_keys=True)
    assert doc(a) == doc(b)
    X = a.domain.sample(257, rng)
    assert evaluate_batch(a, X).tobytes() == evaluate_batch(b, X).tobytes()


def pairwise_fold(terms):
    """Scaled sum of ``(alpha, net)`` terms by ``add``, two operands at a time."""
    (a1, f1), *rest = terms
    if not rest:
        return replace(f1, out_a0=a1 * f1.out_a0, out_a=a1 * f1.out_a, out_beta=a1 * f1.out_beta)
    net = add(f1, rest[0][1], a1, rest[0][0])
    for alpha, f in rest[1:]:
        net = add(net, f, 1.0, alpha)
    return net


def polynomial_fold(spec, L):
    """A polynomial's net as the sum of separately built monomials, added pairwise."""
    d = spec.input_dim
    box = Box.symmetric(d)
    avec = np.zeros(d)
    for i in range(d):
        avec[i] = spec.coeffs.get(tuple(int(j == i) for j in range(d)), 0.0)
    net = affine_net(spec.coeffs.get((0,) * d, 0.0), avec, box)
    high = sorted(k for k in spec.coeffs if sum(k) >= 2)
    monos = [build_monomial(builders.expand_multi_index(k), L, d)[0] for k in high]
    width = max([3] + [m.width for m in monos])
    for k, mono in zip(high, monos):
        net = add(net, pad_width(mono, width), 1.0, spec.coeffs[k])
    return net


class TestSum:
    """``_sum`` stacks any number of scaled operands in one step."""

    def operand(self, deep, d, w, rng):
        if not deep:
            return affine_net(rng.normal(), rng.normal(size=d), Box.symmetric(d))
        f = make_random_skip(d, int(rng.integers(1, 4)), w, rng)
        return replace(f, shifts=tuple(rng.uniform(0.0, 4.0, int(rng.integers(0, 3)))))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_equals_the_pairwise_fold(self, n, rng):
        d, w = 2, 3
        for flat in [None, *range(n)]:
            for _ in range(3):
                nets = [self.operand(i != flat and rng.random() < 0.7, d, w, rng) for i in range(n)]
                alphas = [float(rng.choice([rng.uniform(-2, 2), 1.0, -0.0])) for _ in nets]
                terms = list(zip(alphas, nets))
                s = calculus._sum(terms)
                assert s.depth == sum(f.depth for f in nets)
                assert_same_bits(s, pairwise_fold(terms), rng)

    def test_layout_and_output_map(self, rng):
        nets = [self.operand(deep, 2, 3, rng) for deep in (False, True, False, True, True)]
        nets[0] = affine_net(-0.0, [-0.0, -0.0], Box.symmetric(2))
        for n in range(1, 6):
            terms = list(zip([1.0, -0.5, 2.0, 0.75, -3.0], nets[:n]))
            s = calculus._sum(terms)
            deep = [(alpha, f) for alpha, f in terms if f.depth]
            # each later deep operand's first layer is an interior layer reading only x
            for (_, f), i in zip(deep[1:], np.cumsum([f.depth for _, f in deep])[:-1] - 1):
                assert (s.hidden_wy[i] == 0.0).all()
                assert np.array_equal(s.hidden_wx[i], f.first_w)
                assert np.array_equal(s.hidden_b[i], f.first_b)
            if deep:
                assert np.array_equal(s.out_beta, np.vstack([a * f.out_beta for a, f in deep]))
            assert s.shifts == tuple(x for f in nets[:n] for x in f.shifts)
            # summed left to right from the first term: 1.0 * -0.0 stays -0.0
            out_a0, out_a = -0.0, np.full(2, -0.0)
            for alpha, f in terms[1:]:
                out_a0, out_a = out_a0 + alpha * f.out_a0, out_a + alpha * f.out_a
            assert float(s.out_a0).hex() == out_a0.hex() and s.out_a.tobytes() == out_a.tobytes()

    @pytest.mark.parametrize(
        "broken, message",
        [
            (lambda rng: make_random_skip(3, 2, 3, rng), "input dimensions differ"),
            (lambda rng: affine_net(0.5, [1.0, 2.0], Box.symmetric(2, 2.0)), "share a domain box"),
            (lambda rng: make_random_skip(2, 2, 4, rng), "widths differ"),
        ],
    )
    def test_contract_errors_whichever_operand_breaks_them(self, broken, message, rng):
        for k in range(4):
            nets = [make_random_skip(2, 2, 3, rng) for _ in range(4)]
            nets[k] = broken(rng)
            with pytest.raises(StructuralError, match=message):
                calculus._sum([(1.0, f) for f in nets])

    def test_polynomial_with_shared_prefixes_equals_the_pairwise_fold(self, rng):
        spec = PolySpec(2, {(0, 0): 0.25, (0, 1): -1.5, (3, 0): 0.5, (2, 1): -0.25, (2, 0): 1,
                            (1, 2): 0.125, (0, 3): 0.5, (2, 2): 0.25})
        for L in (1, 3):
            net, _ = build_polynomial(spec, L)
            assert_same_bits(net, polynomial_fold(spec, L), rng)

    def test_runge_head_equals_the_pairwise_fold(self, rng):
        series, _ = preset_series("runge")
        built = build_analytic(series, 1e-6, 0.25)
        head = series.head.truncated(built.truncation_degree)
        net, _ = build_polynomial(head, built.stage_depth)
        assert_same_bits(net, polynomial_fold(head, built.stage_depth), rng)
        assert_same_bits(built.net, net, rng)


def affine_reference(a0, a, X):
    """``a0 + a . x`` summed left to right, one rounding per multiply and add."""
    acc = np.full(len(X), a0)
    for i, ai in enumerate(a):
        acc = acc + ai * X[:, i]
    return acc


class TestDepthZero:
    """The depth-0 (affine) net and every rewrite that keeps a net affine."""

    def check_affine(self, net, a0, a, rng):
        assert net.depth == 0 and validate(net) == []
        assert np.float64(net.out_a0).tobytes() == np.float64(a0).tobytes()
        assert net.out_a.tobytes() == np.asarray(a, dtype=float).tobytes()
        X = net.domain.sample(200, rng)
        np.testing.assert_array_equal(evaluate_batch(net, X), affine_reference(a0, a, X))

    def random_affine(self, d, rng):
        return affine_net(rng.normal(), rng.normal(size=d), Box.symmetric(d))

    def test_affine_net_stores_empty_first_layer(self):
        net = affine_net(0.5, [1.0, -2.0, 0.25], Box.symmetric(3))
        assert net.width == 0 and net.depth == 0
        assert net.first_w.shape == (0, 3) and net.first_b.shape == (0,)
        assert not net.first_w.flags.writeable and not net.first_b.flags.writeable

    def test_none_first_layer_rejected(self):
        with pytest.raises(StructuralError, match="affine_net"):
            SkipNet(
                input_dim=2,
                first_w=None,
                first_b=None,
                hidden_wx=(),
                hidden_wy=(),
                hidden_b=(),
                out_a0=0.0,
                out_a=np.zeros(2),
                out_beta=np.zeros((0, 0)),
                domain=Box.symmetric(2),
            )

    def test_add_of_two_affine_nets(self, rng):
        f1, f2 = self.random_affine(3, rng), self.random_affine(3, rng)
        s = add(f1, f2, 1.5, -0.75)
        self.check_affine(
            s, 1.5 * f1.out_a0 + -0.75 * f2.out_a0, 1.5 * f1.out_a + -0.75 * f2.out_a, rng
        )

    def test_substitute_inputs(self, rng):
        f = self.random_affine(3, rng)
        T, offset = rng.normal(size=(3, 2)), rng.normal(size=3)
        s = substitute_inputs(f, T, offset, Box.symmetric(2))
        assert s.input_dim == 2
        self.check_affine(s, f.out_a0 + float(f.out_a @ offset), f.out_a @ T, rng)

    def test_compose_two_affine_nets(self, rng):
        f2, f1 = self.random_affine(3, rng), self.random_affine(2, rng)
        c = compose(f2, f1)
        ay = float(f2.out_a[0])
        self.check_affine(c, f2.out_a0 + ay * f1.out_a0, f2.out_a[1:] + ay * f1.out_a, rng)

    def test_serialize_round_trip(self, rng):
        f = self.random_affine(2, rng)
        back, _ = deserialize_net(serialize_net(f))
        self.check_affine(back, f.out_a0, f.out_a, rng)


class TestCompose:
    def test_identity_monomial_gives_product(self):
        # outer: product net over (y, x2) lifted to (y, x1, x2); inner: x1
        mult, _ = build_multiply(3)
        outer = substitute_inputs(
            mult, [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]], [0.0, 0.0], Box.symmetric(3)
        )
        inner = affine_net(0.0, [1.0, 0.0], Box.symmetric(2))
        prod = compose(outer, inner)
        assert prod.input_dim == 2
        assert abs(eval_skip(prod, np.array([1.0, 1.0])) - 1.0) <= 1e-10

    def test_depths_add(self, rng):
        f1 = pad_width(make_random_skip(2, 3, 2, rng), 3)
        f2 = make_random_skip(3, 6, 2, rng)
        assert compose(f2, f1).depth == 9

    def test_affine_inner_folds_exactly(self, rng):
        f2 = make_random_skip(3, 2, 3, rng)
        inner = affine_net(0.125, [0.5, -0.25], Box.symmetric(2))
        c = compose(f2, inner)
        assert c.depth == f2.depth and c.input_dim == 2
        X = Box.symmetric(2).sample(500, rng)
        v = eval_skip_batch(inner, X)
        want = eval_skip_batch(f2, np.column_stack([v, X]))
        assert np.abs(eval_skip_batch(c, X) - want).max() <= 1e-12

    def test_affine_outer_folds_exactly(self, rng):
        f1 = make_random_skip(2, 2, 3, rng)
        outer = affine_net(0.5, [2.0, 0.25, -1.0], Box.symmetric(3))
        c = compose(outer, f1)
        assert c.depth == f1.depth
        X = f1.domain.sample(500, rng)
        v = eval_skip_batch(f1, X)
        want = 0.5 + 2.0 * v + 0.25 * X[:, 0] - 1.0 * X[:, 1]
        assert np.abs(eval_skip_batch(c, X) - want).max() <= 1e-12

    def test_function_contract_on_random_pairs(self, rng):
        for _ in range(25):
            d, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            f1 = pad_width(make_random_skip(d, int(rng.integers(1, 4)), m, rng), m + 1)
            f2 = make_random_skip(d + 1, int(rng.integers(1, 4)), m, rng)
            c = compose(f2, f1)
            assert c.depth == f1.depth + f2.depth
            assert c.width == f1.width
            assert validate(c) == []
            X = Box.symmetric(d).sample(400, rng)
            v = eval_skip_batch(f1, X)
            want = eval_skip_batch(f2, np.column_stack([v, X]))
            assert np.abs(eval_skip_batch(c, X) - want).max() <= 1e-10

    def test_contract_violations_rejected(self, rng):
        f1 = make_random_skip(2, 2, 3, rng)
        with pytest.raises(StructuralError):
            compose(make_random_skip(2, 2, 2, rng), f1)  # wrong input count
        with pytest.raises(StructuralError):
            compose(make_random_skip(3, 2, 3, rng), f1)  # wrong width

    def test_dense_inner_needs_free_channel(self, rng):
        # a fully dense inner net leaves nowhere to thread the accumulator
        f1 = make_random_skip(2, 3, 3, rng)
        f2 = make_random_skip(3, 2, 2, rng)
        with pytest.raises(NoFreeChannelError):
            compose(f2, f1)
        padded = pad_width(f1, 4)
        c = compose(pad_width(f2, 3), padded)
        assert c.width == 4 and c.depth == f1.depth + f2.depth


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_monomial([1, 1, 1, 1], 4, 1),
        lambda: build_analytic(preset_series("runge")[0], 1e-6, 0.25),
        lambda: build_monomial([1, 1, 1, 1], 4, 1, clamp=True),
    ],
    ids=["monomial", "runge 1e-6", "clamped monomial"],
)
def test_inner_terms_before_the_first_output_layer_are_positive_zero(monkeypatch, build):
    # compose starts the inner net's shifted output partial at its first layer
    # with output coefficients; the layers before it must add exactly +0.0
    firsts, real = [], builders.compose

    def spy(f2, f1):
        if f1.depth and f2.depth:
            support = np.flatnonzero((f1.out_beta != 0.0).any(axis=1))
            first = int(support[0]) if support.size else f1.depth - 1
            terms = interval_bounds(f1, f1.domain).term_lo[:first]
            assert [math.copysign(1.0, t) if t == 0.0 else t for t in terms] == [1.0] * first
            firsts.append(first)
        return real(f2, f1)

    monkeypatch.setattr(builders, "compose", spy)
    build()
    assert max(firsts) > 0


def assert_same_ranges(net, box):
    got, want = interval_bounds(net, box), reference_interval_bounds(net, box)
    for name in ("pre_lo", "pre_hi", "post_lo", "post_hi"):
        assert [a.tobytes() for a in getattr(got, name)] == [
            a.tobytes() for a in getattr(want, name)
        ], name
    assert [v.hex() for v in got.term_lo] == [v.hex() for v in want.term_lo]
    assert (got.out_lo.hex(), got.out_hi.hex()) == (want.out_lo.hex(), want.out_hi.hex())


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_monomial([1] * 7, 2, 1),
        lambda: build_monomial([1] * 7, 2, 1, clamp=True),
        lambda: build_analytic(preset_series("runge")[0], 1e-6, 0.25),
    ],
    ids=["monomial", "clamped monomial", "runge 1e-6"],
)
def test_compose_results_range_analysis_bit_for_bit(monkeypatch, build):
    # the analysis of every compose result, over its own domain, padded, over
    # another box and after a rewrite, equals the per-layer analysis, and its
    # arrays are read-only
    results, real = [], builders.compose

    def spy(f2, f1):
        results.append(real(f2, f1))
        return results[-1]

    monkeypatch.setattr(builders, "compose", spy)
    build()
    for c in results:
        assert_same_ranges(c, c.domain)
        with pytest.raises(ValueError, match="read-only"):
            interval_bounds(c, c.domain).post_lo[0][0] = 2.0
        assert_same_ranges(pad_width(c, c.width + 1), c.domain)
        assert_same_ranges(c, Box(c.domain.lo * 0.5, c.domain.hi * 0.75))
    c = results[-1]
    assert pad_width(c, c.width) is c
    for rewrite in (
        replace(c),
        add(c, c, 1.0, -0.5),
        substitute_inputs(c, np.eye(c.input_dim), np.zeros(c.input_dim), c.domain),
    ):
        assert_same_ranges(rewrite, rewrite.domain)


class TestPadWidth:
    def test_identity_when_width_unchanged(self):
        f, _ = build_square(2)
        assert pad_width(f, f.width) is f

    def test_function_bit_identical(self, rng):
        f, _ = build_square(2)
        p = pad_width(f, 3)
        assert eval_skip(p, np.array([0.25])) == 0.125
        g = make_random_skip(2, 3, 2, rng)
        X = g.domain.sample(1000, rng)
        assert (eval_skip_batch(pad_width(g, 5), X) == eval_skip_batch(g, X)).all()

    def test_validates_cleanly(self, rng):
        f = make_random_skip(2, 2, 3, rng)
        assert validate(pad_width(f, 5)) == []

    def test_narrowing_rejected(self, rng):
        f = make_random_skip(2, 2, 3, rng)
        with pytest.raises(StructuralError):
            pad_width(f, 2)

    def test_depth_zero_returned_as_is(self):
        f = affine_net(0.5, [1.0, -2.0], Box.symmetric(2))
        assert pad_width(f, 4) is f


class TestSkipToStandard:
    def test_square_structure(self):
        net, _ = build_square(3)
        std = skip_to_standard(net)
        assert std.depth == 3
        assert std.widths == (4, 4, 4)

    def test_output_parity_at_zero(self):
        net, _ = build_square(3)
        std = skip_to_standard(net)
        x = np.zeros((1, 1))
        assert abs(eval_standard_batch(std, x)[0] - eval_skip_batch(net, x)[0]) <= 1e-12

    def test_analytic_standard_width_is_dim_plus_four(self):
        # finite degree-3 series in two variables keeps the chain at width 3
        from relu_forge import PolySpec, SeriesSpec

        head = PolySpec(2, {(0, 0): 0.5, (1, 1): 0.25, (2, 1): 0.125, (2, 0): -0.25})
        series = SeriesSpec(head, tail_l1_bound=lambda p, delta: 0.0 if p >= 3 else 1.0)
        result = build_analytic(series, 1e-2, 0.25)
        std = skip_to_standard(result.net)
        assert set(std.widths) == {2 + 4}

    def test_random_nets_agree(self, rng):
        for _ in range(10):
            net = make_random_skip(
                int(rng.integers(1, 4)), int(rng.integers(1, 5)), int(rng.integers(1, 5)), rng
            )
            std = skip_to_standard(net)
            assert validate(std) == []
            assert set(std.widths) == {net.width + net.input_dim + 1}
            rep = equivalence_check(net, std, net.domain, 10_000, 5, 1e-9)
            assert rep.passed

    def test_depth_zero_rejected(self):
        with pytest.raises(ConversionError):
            skip_to_standard(affine_net(0.5, [1.0, -2.0], Box.symmetric(2)))


class TestWideToDeep:
    def test_single_layer_reproduced(self, rng):
        s = make_random_shallow(2, 1, rng)
        deep = wide_to_deep(s, [1])
        X = s.domain.sample(1000, rng)
        dev = np.abs(eval_shallow_batch(s, X) - eval_standard_batch(deep, X))
        assert dev.max() <= 1e-12

    def test_layer_widths(self, rng):
        s = make_random_shallow(2, 6, rng)
        deep = wide_to_deep(s, [2, 2, 2])
        assert deep.widths == (5, 5, 5)

    def test_uneven_partitions_keep_no_padding(self, rng):
        for partition in ([3, 5], [1, 4, 2]):
            deep = wide_to_deep(make_random_shallow(2, sum(partition), rng), partition)
            assert deep.widths == tuple(m + 3 for m in partition)
            assert len(deep.shifts) == 2 + len(partition)
        s = make_random_shallow(2, 8, rng)
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        s = ShallowNet(2, s.a, s.b, s.c, s.c0, "relu", box)
        X = box.sample(2000, rng)
        for partition in ([1, 4, 2, 1], [2, 1, 1, 3, 1]):
            dev = np.abs(evaluate_batch(wide_to_deep(s, partition), X) - evaluate_batch(s, X))
            assert dev.max() <= 1e-12

    def test_partition_split_preserves_function(self, rng):
        s = make_random_shallow(2, 8, rng)
        deep = wide_to_deep(s, [3, 5])
        rep = equivalence_check(s, deep, s.domain, 10_000, 17, 1e-9)
        assert rep.passed

    def test_partition_sum_checked(self, rng):
        s = make_random_shallow(2, 8, rng)
        with pytest.raises(StructuralError):
            wide_to_deep(s, [3, 4])

    def test_sigmoidal_units_rejected(self, rng):
        s = make_random_shallow(2, 4, rng, activation="sigmoidal-step")
        with pytest.raises(ConversionError, match="sigmoidal_to_relu"):
            wide_to_deep(s, [2, 2])

    def test_zero_partition_entry_rejected(self, rng):
        s = make_random_shallow(2, 4, rng)
        with pytest.raises(StructuralError, match="positive"):
            wide_to_deep(s, [4, 0])


class TestShifts:
    """Every positivity shift is a nonnegative float with a positive sign bit."""

    @staticmethod
    def assert_positive(shifts):
        assert all(s >= 0.0 and math.copysign(1.0, s) == 1.0 for s in shifts), shifts

    def test_rewrites_record_positive_shifts(self, rng):
        spec = PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5})
        skip_nets = [
            build_square(3)[0],
            build_multiply(3)[0],
            build_monomial([1, 1, 2], 2, 2)[0],
            build_monomial([1, 2, 3], 1, 3, clamp=True)[0],
            build_polynomial(spec, 2)[0],
            build_analytic(preset_series("runge")[0], 1e-3, 0.25).net,
        ]
        for _ in range(10):
            d, w = int(rng.integers(1, 4)), int(rng.integers(1, 4))
            f1 = make_random_skip(d, int(rng.integers(1, 4)), w, rng)
            f2 = make_random_skip(d + 1, int(rng.integers(1, 4)), w, rng)
            skip_nets += [f1, compose(f2, pad_width(f1, w + 1))]
        for net in skip_nets:
            self.assert_positive(net.shifts)
            self.assert_positive(skip_to_standard(net).shifts)
        for i in range(10):
            s = make_random_shallow(2, 6, rng, "sigmoidal-step" if i % 2 else "relu")
            s = sigmoidal_to_relu(s) if i % 2 else s
            cuts = np.sort(rng.choice(np.arange(1, s.units), 2, replace=False))
            partition = np.diff([0, *cuts, s.units])
            self.assert_positive(wide_to_deep(s, partition).shifts)

    def test_pinned_values(self):
        assert build_monomial([1, 1, 2], 1, 2)[0].shifts == (0.0, 1.0, 2.0)
        assert skip_to_standard(build_square(3)[0]).shifts == (1.0, 0.0, 0.0, 1.0)

    def test_input_carry_on_axis_with_zero_lower_end(self, rng):
        box = Box(np.array([0.0, -1.0]), np.array([1.0, 1.0]))
        skip = substitute_inputs(build_multiply(2)[0], np.eye(2), np.zeros(2), box)
        shallow = ShallowNet(2, rng.normal(size=(5, 2)), rng.normal(size=5),
                             rng.normal(size=5), float(rng.normal()), "relu", box)
        X = box.sample(2000, rng)
        pairs = ((skip, skip_to_standard(skip)), (shallow, wide_to_deep(shallow, [2, 3])))
        for source, rewritten in pairs:
            self.assert_positive(rewritten.shifts)
            dev = np.abs(evaluate_batch(rewritten, X) - evaluate_batch(source, X))
            assert dev.max() <= 1e-12


class TestSigmoidalToRelu:
    def test_linear_region(self, rng):
        s = make_random_shallow(1, 1, rng, activation="sigmoidal-step")
        s = s.__class__(1, np.array([[1.0]]), np.array([0.0]), np.array([1.0]), 0.0,
                        "sigmoidal-step", s.domain)
        r = sigmoidal_to_relu(s)
        assert eval_shallow_batch(r, np.array([[0.5]]))[0] == 0.5

    def test_saturation(self, rng):
        s = make_random_shallow(1, 1, rng, activation="sigmoidal-step")
        s = s.__class__(1, np.array([[2.0]]), np.array([1.0]), np.array([1.0]), 0.0,
                        "sigmoidal-step", Box.symmetric(1))
        r = sigmoidal_to_relu(s)
        # pre-activation 2 saturates the ramp at 1
        assert eval_shallow_batch(r, np.array([[0.5]]))[0] == 1.0

    def test_random_nets_equal(self, rng):
        s = make_random_shallow(2, 4, rng, activation="sigmoidal-step")
        r = sigmoidal_to_relu(s)
        assert r.units == 8 and r.activation == "relu"
        X = s.domain.sample(10_000, rng)
        dev = np.abs(eval_shallow_batch(s, X) - eval_shallow_batch(r, X))
        assert dev.max() <= 1e-12

    def test_wrong_activation_rejected(self, rng):
        s = make_random_shallow(2, 4, rng, activation="relu")
        with pytest.raises(StructuralError):
            sigmoidal_to_relu(s)


class TestCountParams:
    def test_reference_value(self):
        assert count_params(1, 2, 1) == 26

    def test_depth_one_closed_form(self):
        for M in range(1, 6):
            for d in range(1, 4):
                assert count_params(M, 1, d) == (d + 1) * (M + d + 1) + (M + d + 2)

    def test_quadratic_growth_ratio(self):
        # N / ((M+d)^2 L) settles between 0.5 and 2 once d >= 3 and L >= 4
        for d in range(3, 9):
            for L in range(4, 12):
                ratio = count_params(d, L, d) / ((2 * d) ** 2 * L)
                assert 0.5 <= ratio <= 2.0

    def test_offset_against_materialized_arrays(self, rng):
        for _ in range(25):
            M, L, d = (int(rng.integers(1, 7)), int(rng.integers(1, 7)), int(rng.integers(1, 4)))
            net = make_random_skip(d, L, M, rng)
            std = skip_to_standard(net)
            actual = count_params_standard(std)
            assert count_params(M, L, d) == actual + (M + d + 2) * (L - 1)
