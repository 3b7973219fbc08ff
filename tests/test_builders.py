"""Constructive builders: error profiles, certificates, structure budgets."""

import json
import math

import numpy as np
import pytest

from relu_forge import (
    Box,
    DyadicMidpoints,
    ParameterError,
    PolySpec,
    SeriesSpec,
    SeriesTruncationError,
    Uniform,
    add,
    affine_net,
    build_analytic,
    build_monomial,
    build_multiply,
    build_polynomial,
    build_square,
    eval_skip,
    eval_skip_batch,
    expand_multi_index,
    monomial_count,
    multi_index_degree,
    pad_width,
    preset_series,
    sup_error,
    theorem_depth,
    validate,
)
from relu_forge import builders, calculus
from relu_forge.serialize import to_document

from conftest import net_bits


def grid_sup_error(net, target, points_per_dim: int) -> float:
    """Brute-force oracle: max |target - net| on a uniform tensor grid."""
    axes = [np.linspace(lo, hi, points_per_dim) for lo, hi in zip(net.domain.lo, net.domain.hi)]
    mesh = np.meshgrid(*axes, indexing="ij")
    X = np.stack([m.reshape(-1) for m in mesh], axis=1)
    return float(np.abs(target(X) - eval_skip_batch(net, X)).max())


class TestBuildSquare:
    def test_l2_error_attained_at_odd_quarters(self):
        net, _ = build_square(2)
        xs = np.array([0.25, 0.75, -0.25, -0.75]).reshape(-1, 1)
        err = np.abs(xs[:, 0] ** 2 - eval_skip_batch(net, xs))
        assert (err == 0.0625).all()
        # nothing on a fine grid exceeds it
        assert grid_sup_error(net, lambda X: X[:, 0] ** 2, 8193) <= 0.0625

    def test_certificate_formula(self):
        _, cert = build_square(3)
        assert cert.bound == 2**-6
        assert cert.lemma == "square" and cert.params["L"] == 3

    def test_l1_is_absolute_value(self):
        net, cert = build_square(1)
        assert eval_skip(net, np.array([0.5])) == 0.5
        assert abs(0.25 - eval_skip(net, np.array([0.5]))) == cert.bound

    def test_structure_budget(self):
        for L in (1, 2, 5, 9):
            net, _ = build_square(L)
            assert net.depth == L and net.width == 2
            assert validate(net) == []

    def test_even_symmetry_exact(self, rng):
        net, _ = build_square(4)
        xs = rng.uniform(0, 1, 500)
        left = eval_skip_batch(net, -xs.reshape(-1, 1))
        right = eval_skip_batch(net, xs.reshape(-1, 1))
        assert (left == right).all()

    def test_quartering_rate(self):
        errors = []
        for L in range(1, 8):
            net, _ = build_square(L)
            rep = sup_error(net, lambda X: X[:, 0] ** 2, net.domain, DyadicMidpoints(L))
            errors.append(rep.measured)
        ratios = [b / a for a, b in zip(errors, errors[1:])]
        assert all(r == 0.25 for r in ratios)

    def test_rejects_bad_depth(self):
        with pytest.raises(ParameterError):
            build_square(0)


class TestBuildMultiply:
    def test_exact_at_corner(self):
        net, _ = build_multiply(3)
        assert eval_skip(net, np.array([1.0, 1.0])) == 1.0

    def test_certificate_value(self):
        _, cert = build_multiply(4)
        assert cert.bound == 3 * 2**-8

    def test_structure_budget(self):
        for L in (1, 2, 4):
            net, _ = build_multiply(L)
            assert net.depth == 3 * L and net.width == 2

    def test_error_profile_on_axis(self):
        # on the x = 0 axis the product is zero and the residual is a
        # combination of squaring errors, all below the certified bound
        net, cert = build_multiply(3)
        ts = np.linspace(-1, 1, 1001)
        X = np.column_stack([np.zeros_like(ts), ts])
        err = np.abs(eval_skip_batch(net, X))
        assert err.max() <= cert.bound

    def test_grid_error_within_band(self):
        for L in (2, 3):
            net, cert = build_multiply(L)
            measured = grid_sup_error(net, lambda X: X[:, 0] * X[:, 1], 513)
            assert 2.0 ** (-2 * L) <= measured <= cert.bound + 1e-15

    def test_symmetry_under_swap(self, rng):
        net, _ = build_multiply(3)
        X = net.domain.sample(2000, rng)
        swapped = X[:, ::-1].copy()
        dev = np.abs(eval_skip_batch(net, X) - eval_skip_batch(net, swapped))
        assert dev.max() <= 1e-12


class TestBuildMonomial:
    def test_single_factor_exact(self, rng):
        net, cert = build_monomial([2], 3, 3)
        assert net.depth == 0 and cert.bound == 0.0
        X = Box.symmetric(3).sample(500, rng)
        assert (eval_skip_batch(net, X) == X[:, 1]).all()

    def test_certificate_p3(self):
        _, cert = build_monomial([1, 2, 3], 4, 3)
        assert cert.bound == 3 * 2 * 2**-8

    def test_pair_on_half_grid(self):
        net, cert = build_monomial([1, 2], 3, 2)
        got = eval_skip(net, np.array([0.5, 0.5]))
        assert abs(got - 0.25) <= cert.bound
        measured = grid_sup_error(net, lambda X: X[:, 0] * X[:, 1], 257)
        assert measured <= cert.bound

    def test_square_profile_through_product_machinery(self):
        net, _ = build_monomial([1, 1], 3, 1)
        rep = sup_error(net, lambda X: X[:, 0] ** 2, net.domain, DyadicMidpoints(3))
        assert rep.measured == 2**-6

    def test_structure_budget_small_p(self):
        for p, idx in ((2, [1, 2]), (3, [1, 2, 3])):
            for L in (2, 3):
                net, _ = build_monomial(idx, L, 3)
                assert net.depth == 3 * (p - 1) * L
                assert net.width == 3

    def test_deep_chain_width_grows_once(self):
        for p, idx in ((4, [1, 1, 2, 2]), (5, [1, 2, 1, 2, 1]), (6, [1] * 6)):
            net, cert = build_monomial(idx, 2, 2)
            assert net.depth == 3 * (p - 1) * 2
            assert net.width == 4
            measured = grid_sup_error(
                net, lambda X: np.prod(X[:, np.array(idx) - 1], axis=1), 129
            )
            assert measured <= cert.bound

    def test_clamped_chain_adds_one_layer_per_stage(self):
        plain, _ = build_monomial([1, 1, 1, 1], 3, 1)
        clamped, cert = build_monomial([1, 1, 1, 1], 3, 1, clamp=True)
        assert clamped.depth == plain.depth + 2
        measured = grid_sup_error(clamped, lambda X: X[:, 0] ** 4, 4097)
        assert measured <= cert.bound

    def test_convergence_ratio(self):
        errors = []
        for L in (3, 4, 5):
            net, _ = build_monomial([1, 2, 3], L, 3)
            errors.append(
                grid_sup_error(net, lambda X: X[:, 0] * X[:, 1] * X[:, 2], 33)
            )
        assert all(b / a <= 0.3 for a, b in zip(errors, errors[1:]))

    def test_index_out_of_range(self):
        with pytest.raises(ParameterError):
            build_monomial([1, 4], 2, 3)

    def test_chains_past_the_proven_error_keep_range_analysis(self, monkeypatch):
        # the first unclamped chain that _proven_chain_error cannot bound
        # below 1 takes its shifts from interval analysis; shorter ones declare
        calls = analysis_calls(monkeypatch)
        for n, L, analyzed in ((3, 1, True), (4, 2, False), (5, 2, True), (9, 3, False), (10, 3, True)):
            calls.clear()
            build_monomial([1] * n, L, 1)
            assert (len(calls) > 0) == analyzed, (n, L)
            assert (builders._proven_chain_error(n, L) >= 1) == analyzed, (n, L)


def analysis_calls(monkeypatch) -> list:
    """The nets that ``calculus.interval_bounds`` analyzes from now on."""
    calls, analyze = [], calculus.interval_bounds

    def spy(net, box):
        calls.append(net)
        return analyze(net, box)

    monkeypatch.setattr(calculus, "interval_bounds", spy)
    return calls


EVEN_HEAD = PolySpec(1, {(q,): 1.0 for q in range(2, 13, 2)})
# (1, 1) prefixes (1, 1, 1) and (1, 1, 2), which prefixes (1, 1, 2, 2)
BRANCHING_2D = PolySpec(
    2, {(3, 0): 0.5, (2, 1): -0.25, (2, 0): 1, (1, 2): 0.125, (0, 3): 0.5, (2, 2): 0.25}
)


def summed_polynomial(spec, L, clamp=False):
    """Reference: every monomial built on its own, summed in exponent order."""
    d = spec.input_dim
    box = Box.symmetric(d)
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    avec = np.array([spec.coeffs.get(u, 0.0) for u in units])
    net = affine_net(spec.coeffs.get((0,) * d, 0.0), avec, box)
    high = sorted(k for k in spec.coeffs if multi_index_degree(k) >= 2)
    monos = [build_monomial(expand_multi_index(k), L, d, clamp=clamp)[0] for k in high]
    width = max([3] + [m.width for m in monos])
    for k, mono in zip(high, monos):
        net = add(net, pad_width(mono, width), 1.0, spec.coeffs[k])
    return net


class TestBuildPolynomial:
    def test_constant_spec_is_exact_affine(self, rng):
        net, cert = build_polynomial(PolySpec(2, {(0, 0): 1.5}), 3)
        assert net.depth == 0 and cert.bound == 0.0
        X = Box.symmetric(2).sample(200, rng)
        assert (eval_skip_batch(net, X) == 1.5).all()

    def test_monomial_count_helper(self):
        assert monomial_count(3, 2) == 10
        assert monomial_count(2, 2) == 6

    def test_pure_square_matches_square_profile(self):
        spec = PolySpec(1, {(2,): 1.0})
        net, _ = build_polynomial(spec, 3)
        rep = sup_error(net, spec, net.domain, DyadicMidpoints(3))
        assert rep.measured == 2**-6

    def test_acceptance_polynomial_certificate(self):
        spec = PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5})
        net, cert = build_polynomial(spec, 3)
        assert cert.params["coeff_l1"] == 2.5
        assert cert.bound == 3 * 1 * 2**-6 * 2.5
        assert net.width == 3
        measured = grid_sup_error(net, spec, 257)
        assert measured <= cert.bound

    def test_depth_is_sum_of_monomial_depths(self):
        spec = PolySpec(2, {(2, 0): 1.0, (1, 1): -0.5, (0, 1): 2.0})
        net, _ = build_polynomial(spec, 4)
        assert net.depth == 3 * 4 + 3 * 4  # two degree-2 terms, linear term free

    def test_empty_spec_rejected(self):
        with pytest.raises(ParameterError):
            build_polynomial(PolySpec(2, {}), 3)

    @pytest.mark.parametrize(
        "spec, clamp, stages", [(EVEN_HEAD, False, 10), (BRANCHING_2D, True, 5)]
    )
    def test_monomials_share_factor_prefixes(self, monkeypatch, spec, clamp, stages):
        calls = []
        lifted = builders._lifted_multiply

        def counting(*args):
            calls.append(args)
            return lifted(*args)

        monkeypatch.setattr(builders, "_lifted_multiply", counting)
        build_polynomial(spec, 3, clamp=clamp)
        # one lifted product per factor beyond the longest prefix already built
        assert len(calls) == stages

    @pytest.mark.parametrize(
        "spec, clamp", [(EVEN_HEAD, False), (BRANCHING_2D, False), (BRANCHING_2D, True)]
    )
    def test_sharing_keeps_every_bit(self, spec, clamp):
        net, _ = build_polynomial(spec, 2, clamp=clamp)
        assert net_bits(net) == net_bits(summed_polynomial(spec, 2, clamp))

    def test_sharing_keeps_every_bit_of_runge_head(self):
        series, _ = preset_series("runge")
        build = build_analytic(series, 1e-6, 0.25)
        head = series.head.truncated(build.truncation_degree)
        assert net_bits(build.net) == net_bits(summed_polynomial(head, build.stage_depth))


class TestBuildAnalytic:
    def test_exponential_head_and_depth_choice(self):
        series, _ = preset_series("exp")
        res = build_analytic(series, 1e-3, 0.25)
        # tail bound reaches eps * l1 at degree 4, far below the generic rule
        assert res.truncation_degree == 4
        head_l1 = series.head.truncated(4).coeff_l1
        L = res.stage_depth
        assert 3 * 3 * 2.0 ** (-2 * L) * head_l1 <= 1e-3 * series.coeff_l1
        assert 3 * 3 * 2.0 ** (-2 * (L - 1)) * head_l1 > 1e-3 * series.coeff_l1
        assert res.certificate.bound == 2 * 1e-3 * series.coeff_l1

    def test_exponential_measured_error(self):
        series, ref = preset_series("exp")
        res = build_analytic(series, 1e-3, 0.25)
        rep = sup_error(
            res.net,
            lambda X: np.exp(X[:, 0]),
            res.certificate.box,
            Uniform(4097),
            certificate=res.certificate,
        )
        tail = series.tail_l1_bound(res.truncation_degree, 0.25)
        head_l1 = series.head.truncated(res.truncation_degree).coeff_l1
        assert rep.measured <= 2 * 1e-3 * head_l1 + tail

    def test_linear_truncation_is_exact_affine(self, rng):
        # f = 1 + 0.5 x: tail is 0.25 at degree 0 on the half-shrunk box,
        # zero from degree 1 on; eps = 0.1 forces truncation exactly at 1
        head = PolySpec(1, {(0,): 1.0, (1,): 0.5})
        tail = lambda p, delta: 0.5 * (1.0 - delta) if p < 1 else 0.0
        series = SeriesSpec(head, tail_l1_bound=tail)
        res = build_analytic(series, 0.1, 0.5)
        assert res.truncation_degree == 1
        assert res.net.depth == 0
        X = res.certificate.box.sample(300, rng)
        from relu_forge import eval_skip_batch

        assert (eval_skip_batch(res.net, X) == 1.0 + 0.5 * X[:, 0]).all()

    def test_finite_series_independent_of_delta(self):
        head = PolySpec(1, {(2,): 1.0})
        series = SeriesSpec(head, tail_l1_bound=lambda p, delta: 0.0 if p >= 2 else 1.0)
        for delta in (0.1, 0.5, 0.9):
            res = build_analytic(series, 1e-2, delta)
            assert res.truncation_degree == 2
            rep = sup_error(
                res.net,
                lambda X: X[:, 0] ** 2,
                res.certificate.box,
                Uniform(2049),
            )
            assert rep.measured <= 1e-2 * series.coeff_l1

    def test_loose_budget_on_tiny_box_gives_zero_net(self, rng):
        # sin has no constant term; on [-0.1, 0.1] the whole series fits a
        # half-unit budget, so truncation at degree 0 yields the zero net
        series, ref = preset_series("sin")
        res = build_analytic(series, 0.5, 0.9)
        assert res.truncation_degree == 0 and res.net.depth == 0
        X = res.certificate.box.sample(500, rng)
        from relu_forge import eval_skip_batch

        assert np.abs(ref(X[:, 0]) - eval_skip_batch(res.net, X)).max() <= res.certificate.bound

    def test_missing_head_coefficients_named(self):
        head = PolySpec(1, {(k,): 1.0 / math.factorial(k) for k in range(3)})
        series = SeriesSpec(head)  # no tail bound: generic truncation rule
        with pytest.raises(SeriesTruncationError, match="degree-3"):
            build_analytic(series, 1e-6, 0.1)

    def test_parameter_ranges(self):
        series, _ = preset_series("exp")
        with pytest.raises(ParameterError):
            build_analytic(series, 0.0, 0.5)
        with pytest.raises(ParameterError):
            build_analytic(series, 0.5, 1.0)

    def test_preset_tails_non_increasing(self):
        for name in ("exp", "sin", "runge"):
            series, _ = preset_series(name)
            vals = [series.tail_l1_bound(p, 0.25) for p in range(12)]
            assert all(b <= a for a, b in zip(vals, vals[1:]))

    def test_sin_and_runge_measured_errors(self):
        for name in ("sin", "runge"):
            series, ref = preset_series(name)
            res = build_analytic(series, 1e-2, 0.25)
            rep = sup_error(
                res.net,
                lambda X: ref(X[:, 0]),
                res.certificate.box,
                Uniform(2049),
                certificate=res.certificate,
            )
            assert rep.measured <= res.certificate.bound

    def test_preset_builds_run_no_range_analysis(self, monkeypatch):
        calls = analysis_calls(monkeypatch)
        for name in ("exp", "sin", "runge"):
            series, _ = preset_series(name)
            for eps in (1e-3, 1e-6, 1e-10):
                for clamp in (False, True):
                    build_analytic(series, eps, 0.25, clamp=clamp)
                    assert calls == [], (name, eps, clamp)


class TestTheoremDepth:
    def test_reference_value(self):
        assert theorem_depth(1, 0.5, 0.1) == 233

    def test_sympy_cross_check(self):
        import sympy

        d, delta, eps = 1, sympy.Rational(1, 2), sympy.Rational(1, 10)
        expr = (sympy.E * (sympy.log(1 / eps) / (d * delta) + 1)) ** (2 * d)
        assert theorem_depth(1, 0.5, 0.1) == int(sympy.ceiling(expr))

    def test_limit_as_eps_approaches_one(self):
        for d in (1, 2):
            assert theorem_depth(d, 0.5, 0.999999999) == math.ceil(math.e ** (2 * d))

    def test_monotone_in_accuracy(self):
        assert theorem_depth(1, 0.5, 0.01) > theorem_depth(1, 0.5, 0.1)
        assert theorem_depth(2, 0.25, 1e-3) > theorem_depth(2, 0.25, 1e-2)

    def test_rejects_bad_ranges(self):
        with pytest.raises(ParameterError):
            theorem_depth(0, 0.5, 0.1)
        with pytest.raises(ParameterError):
            theorem_depth(1, 1.5, 0.1)


class TestCertificates:
    def test_bound_recomputable(self):
        from relu_forge import theoretical_bound

        _, c1 = build_square(5)
        _, c2 = build_multiply(3)
        _, c3 = build_monomial([1, 2, 3], 4, 3)
        _, c4 = build_polynomial(PolySpec(2, {(2, 0): 1.0, (1, 1): 1.0}), 3)
        series, _ = preset_series("exp")
        c5 = build_analytic(series, 1e-3, 0.25).certificate
        for cert in (c1, c2, c3, c4, c5):
            assert theoretical_bound(cert) == cert.bound

    @pytest.mark.parametrize(
        "build, text",
        [
            (
                lambda: build_square(3),
                '{"lemma": "square", "params": {"L": 3}, "bound": 0.015625, '
                '"box": [[-1.0, 1.0]]}',
            ),
            (
                lambda: build_multiply(3),
                '{"lemma": "multiply", "params": {"L": 3}, "bound": 0.046875, '
                '"box": [[-1.0, 1.0], [-1.0, 1.0]]}',
            ),
            (
                lambda: build_monomial([1, 1, 2], 4, 2),
                '{"lemma": "monomial", "params": {"p": 3, "L": 4, "d": 2}, '
                '"bound": 0.0234375, "box": [[-1.0, 1.0], [-1.0, 1.0]]}',
            ),
            (
                lambda: build_polynomial(
                    PolySpec(2, {(0, 0): 1.0, (2, 0): -1.0, (1, 1): 0.5}), 3
                ),
                '{"lemma": "polynomial", "params": {"p": 2, "L": 3, "d": 2, '
                '"coeff_l1": 2.5}, "bound": 0.1171875, '
                '"box": [[-1.0, 1.0], [-1.0, 1.0]]}',
            ),
            (
                lambda: build_analytic(preset_series("exp")[0], 1e-3, 0.25)[:2],
                '{"lemma": "analytic", "params": {"d": 1, "delta": 0.25, '
                '"eps": 0.001, "coeff_l1": 2.7182818284590455, "p": 4, '
                '"stage_depth": 7}, "bound": 0.005436563656918091, '
                '"box": [[-0.75, 0.75]]}',
            ),
        ],
        ids=["square", "multiply", "monomial", "polynomial", "analytic"],
    )
    def test_certificate_bytes(self, build, text):
        # params in the builders' key order, each bound to the last bit
        net, cert = build()
        assert json.dumps(to_document(net, cert)["certificate"]) == text
