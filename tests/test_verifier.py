"""Measurement machinery: strategies, reports, sweeps, equivalence."""

import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from relu_forge import (
    Box,
    DyadicMidpoints,
    ParameterError,
    RandomPoints,
    StructuralError,
    Uniform,
    affine_net,
    build_multiply,
    build_square,
    convergence_sweep,
    equivalence_check,
    nets,
    skip_to_standard,
    strategy_points,
    sup_error,
    sweep_csv,
    theoretical_bound,
    verify,
    wide_to_deep,
)
from relu_forge.builders import BoundCertificate

from conftest import make_random_shallow


class TestStrategies:
    def test_dyadic_points_are_odd_multiples(self):
        X = strategy_points(Box.symmetric(1), DyadicMidpoints(3))
        want = np.array([(2 * k + 1) / 8 for k in range(-4, 4)])
        np.testing.assert_array_equal(np.sort(X[:, 0]), want)

    def test_uniform_grid_size(self):
        X = strategy_points(Box.symmetric(2), Uniform(9))
        assert X.shape == (81, 2)

    def test_random_reproducible(self):
        a = strategy_points(Box.symmetric(2), RandomPoints(100, 42))
        b = strategy_points(Box.symmetric(2), RandomPoints(100, 42))
        assert (a == b).all()

    def test_zero_resolution_rejected(self):
        with pytest.raises(ParameterError):
            strategy_points(Box.symmetric(1), Uniform(0))
        with pytest.raises(ParameterError):
            strategy_points(Box.symmetric(1), RandomPoints(0, 1))

    def test_negative_seed_rejected(self):
        with pytest.raises(ParameterError, match="seed"):
            strategy_points(Box.symmetric(1), RandomPoints(10, -1))


    @pytest.mark.parametrize(
        "strategy",
        [DyadicMidpoints(64), Uniform(2**62), RandomPoints(2**62, 1)],
        ids=lambda s: s.describe(),
    )
    def test_point_set_too_large_for_an_array_is_rejected_unallocated(self, strategy):
        tracemalloc.start()
        try:
            with pytest.raises(ParameterError, match=f"^{strategy.describe()} gives [0-9]+ points"):
                strategy_points(Box.symmetric(1), strategy)
            assert tracemalloc.get_traced_memory()[1] < 1 << 20
        finally:
            tracemalloc.stop()

    @pytest.mark.parametrize("level", [1030, 1100])
    def test_dyadic_level_past_float64_is_rejected(self, level):
        # the midpoint indices overflow float64, or 2**-level is zero
        with pytest.raises(ParameterError, match=f"^dyadic:{level}: too many points"):
            strategy_points(Box.symmetric(1), DyadicMidpoints(level))

    def test_dyadic_midpoints_past_float64_precision_are_rejected(self):
        # the 513 midpoints at level 60 have numerators near 2**59, past
        # float64's 53 bits; computed in floats they all round to 0.5
        box = Box(np.array([0.5]), np.array([0.5 + 2.0**-50]))
        with pytest.raises(ParameterError, match="^dyadic:60: .* not float64 numbers"):
            strategy_points(box, DyadicMidpoints(60))
        # at level 53 the numerators 2**52 + 1 .. 2**52 + 7 are below 2**53
        X = strategy_points(box, DyadicMidpoints(53))
        numerators = [Fraction(x) * 2**53 for x in X[:, 0].tolist()]
        assert numerators == [2**52 + i for i in (1, 3, 5, 7)]
        with pytest.raises(ParameterError, match="not float64 numbers"):
            strategy_points(box, DyadicMidpoints(54))
        # likewise below zero
        X = strategy_points(Box(-box.hi, -box.lo), DyadicMidpoints(53))
        assert [Fraction(x) * 2**53 for x in X[:, 0].tolist()] == [-n for n in numerators[::-1]]


class TestSupError:
    def test_square_dyadic_argmax(self):
        net, cert = build_square(2)
        rep = sup_error(net, lambda X: X[:, 0] ** 2, net.domain, DyadicMidpoints(2), certificate=cert)
        assert rep.measured == 0.0625
        assert abs(rep.argmax[0]) in (0.25, 0.75)
        assert rep.ratio == 1.0 and rep.within_bound

    def test_net_against_itself_is_zero(self, rng):
        net = affine_net(0.25, [1.0, -1.0], Box.symmetric(2))
        rep = sup_error(
            net,
            lambda X: 0.25 + X[:, 0] - X[:, 1],
            net.domain,
            RandomPoints(2000, 3),
        )
        assert rep.measured == 0.0

    def test_multiply_uniform_band(self):
        net, cert = build_multiply(3)
        rep = sup_error(net, lambda X: X[:, 0] * X[:, 1], net.domain, Uniform(513), certificate=cert)
        assert 2**-6 <= rep.measured <= 3 * 2**-6

    def test_threads_do_not_change_result(self):
        net, _ = build_square(6)
        target = lambda X: X[:, 0] ** 2
        reports = [
            sup_error(net, target, net.domain, Uniform(70_000), threads=t)
            for t in (1, 2, 4)
        ]
        assert len({r.measured for r in reports}) == 1
        assert len({r.argmax for r in reports}) == 1

    def test_net_compiles_once_across_chunks(self, monkeypatch):
        compiled = []

        def counting(net):
            compiled.append(net)
            return compile_skip(net)

        compile_skip = nets._compile_skip
        monkeypatch.setattr(nets, "_compile_skip", counting)
        net, _ = build_square(6)
        points = 2 * verify._CHUNK + 5  # three chunks for the thread pool
        rep = sup_error(net, lambda X: X[:, 0] ** 2, net.domain, Uniform(points), threads=2)
        assert rep.points == points and compiled == [net]
        sup_error(net, lambda X: X[:, 0] ** 2, net.domain, Uniform(points), threads=2)
        assert compiled == [net]

    def test_out_of_domain_flagged(self):
        net, _ = build_square(2)
        rep = sup_error(net, lambda X: X[:, 0] ** 2, Box.symmetric(1, 2.0), Uniform(64))
        assert rep.out_of_domain

    def test_grid_refinement_monotone(self):
        net, _ = build_multiply(2)
        target = lambda X: X[:, 0] * X[:, 1]
        coarse = sup_error(net, target, net.domain, Uniform(65)).measured
        fine = sup_error(net, target, net.domain, Uniform(129)).measured
        assert fine >= coarse


class TestTheoreticalBound:
    def test_square_l5(self):
        _, cert = build_square(5)
        assert theoretical_bound(cert) == 2**-10

    def test_polynomial_formula(self):
        cert = BoundCertificate(
            lemma="polynomial",
            params={"p": 2, "L": 3, "d": 2, "coeff_l1": 2.0},
            bound=3.0 * 1 * 2.0**-6 * 2.0,
            box=Box.symmetric(2),
        )
        assert theoretical_bound(cert) == 0.09375

    def test_analytic_depth_form_consistent(self):
        from relu_forge import analytic_rate_bound, theorem_depth

        for eps in (0.1, 0.01):
            L = theorem_depth(2, 0.5, eps)
            assert analytic_rate_bound(2, 0.5, L, 1.0) <= 2 * eps * 1.0 + 1e-12

    def test_unknown_tag_rejected(self):
        cert = BoundCertificate(lemma="mystery", params={}, bound=1.0, box=Box.symmetric(1))
        with pytest.raises(StructuralError):
            theoretical_bound(cert)

    @pytest.mark.parametrize(
        "lemma, params, name",
        [
            ("square", {}, "L"),
            ("square", {"L": "x"}, "L"),
            ("multiply", {"L": None}, "L"),
            ("monomial", {"p": 3, "d": 1}, "L"),
            ("polynomial", {"p": 2, "L": 3, "d": 1}, "coeff_l1"),
            ("polynomial", {"p": [2], "L": 3, "d": 1, "coeff_l1": 1.0}, "p"),
            ("analytic", {"d": 1, "eps": "0.1", "coeff_l1": 1.0}, "eps"),
        ],
    )
    def test_unusable_params_rejected(self, lemma, params, name):
        cert = BoundCertificate(lemma=lemma, params=params, bound=1.0, box=Box.symmetric(1))
        with pytest.raises(StructuralError, match=f"{lemma} certificate.*'{name}'"):
            theoretical_bound(cert)


class TestConvergenceSweep:
    def test_square_sweep_exact_column(self):
        rows = convergence_sweep(
            build_square,
            lambda X: X[:, 0] ** 2,
            range(2, 7),
            Box.symmetric(1),
            lambda L: DyadicMidpoints(L),
        )
        measured = [r.measured for r in rows]
        want = [2.0 ** (-2 * L) for L in range(2, 7)]
        np.testing.assert_allclose(measured, want, atol=1e-10)
        assert all(r.ratio <= 1.0 for r in rows)

    def test_multiply_sweep_rate(self):
        rows = convergence_sweep(
            build_multiply,
            lambda X: X[:, 0] * X[:, 1],
            range(2, 6),
            Box.symmetric(2),
            lambda L: Uniform(513),
        )
        for a, b in zip(rows, rows[1:]):
            assert b.measured / a.measured <= 0.3

    def test_csv_shape_and_stability(self):
        rows = convergence_sweep(
            build_square,
            lambda X: X[:, 0] ** 2,
            [2, 3],
            Box.symmetric(1),
            lambda L: DyadicMidpoints(L),
        )
        text = sweep_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0] == "L,depth,std_width,params,bound,measured,ratio"
        assert len(lines) == 3
        assert text == sweep_csv(rows)

    def test_builder_error_annotated_with_depth(self):
        with pytest.raises(ParameterError, match="L=0"):
            convergence_sweep(
                build_square,
                lambda X: X[:, 0] ** 2,
                [0, 1],
                Box.symmetric(1),
                lambda L: DyadicMidpoints(max(L, 1)),
            )

    def test_non_increasing_depths_rejected(self):
        with pytest.raises(ParameterError):
            convergence_sweep(
                build_square,
                lambda X: X[:, 0] ** 2,
                [3, 3],
                Box.symmetric(1),
                lambda L: DyadicMidpoints(L),
            )


class TestEquivalenceCheck:
    def test_net_vs_itself(self, rng):
        net, _ = build_square(4)
        rep = equivalence_check(net, net, net.domain, 1000, 9, 1e-12)
        assert rep.passed and rep.max_deviation == 0.0

    def test_square_vs_standard_form(self):
        net, _ = build_square(4)
        rep = equivalence_check(net, skip_to_standard(net), net.domain, 10_000, 1, 1e-9)
        assert rep.passed

    def test_shallow_vs_relayered(self, rng):
        s = make_random_shallow(2, 8, rng)
        rep = equivalence_check(s, wide_to_deep(s, [4, 4]), s.domain, 10_000, 2, 1e-9)
        assert rep.passed

    def test_seeded_bit_identical(self):
        net, _ = build_square(3)
        std = skip_to_standard(net)
        a = equivalence_check(net, std, net.domain, 5000, 77, 1e-9)
        b = equivalence_check(net, std, net.domain, 5000, 77, 1e-9)
        assert a == b

    def test_argmax_is_the_sample_that_decides_passed(self):
        box = Box.symmetric(1)
        a = affine_net(0.0, [100.0], box)
        b = affine_net(1.0, [101.0], box)
        rep = equivalence_check(a, b, box, 1000, 3, 1e-9)
        # |a - b| = |1 + x| peaks at x = 1; divided by 1 + |a| = 1 + 100|x| it peaks at x = 0
        (x,) = rep.argmax
        assert abs(x) < 0.01 and rep.max_deviation < 1.5
        assert rep.normalized == pytest.approx(rep.max_deviation / (1.0 + 100.0 * abs(x)), rel=1e-12)
        assert not rep.passed

    def test_dimension_mismatch(self):
        n1, _ = build_square(2)
        n2, _ = build_multiply(2)
        with pytest.raises(StructuralError):
            equivalence_check(n1, n2, n1.domain, 100, 0, 1e-9)

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, -1e-300])
    def test_nan_or_negative_tolerance_rejected(self, tol):
        # no deviation passes such a tolerance, so a net would fail against itself
        net, _ = build_square(2)
        with pytest.raises(ParameterError, match=r"tol must be a number >= 0, got"):
            equivalence_check(net, net, net.domain, 100, 0, tol)

    @pytest.mark.parametrize("tol", [0.0, -0.0])
    def test_zero_tolerance_passes_a_net_against_itself(self, tol):
        net, _ = build_square(2)
        assert equivalence_check(net, net, net.domain, 100, 0, tol).passed
