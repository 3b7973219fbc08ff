"""Core type behavior: evaluation, validation, interval analysis."""

import numpy as np
import pytest

from relu_forge import (
    Box,
    InputError,
    ShallowNet,
    SkipNet,
    StandardNet,
    affine_net,
    build_multiply,
    build_square,
    eval_skip,
    eval_skip_batch,
    eval_standard,
    evaluate_batch,
    interval_bounds,
    nets,
    pad_width,
    skip_to_standard,
    validate,
)

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


def square_interpolant(x: float, L: int) -> float:
    """Independent oracle: piecewise-linear interpolant of t**2 at spacing 2**(1-L)."""
    t = abs(x)
    if L == 1:
        return t
    h = 2.0 ** (1 - L)
    i = min(int(t / h), int(round(1.0 / h)) - 1)
    a, b = i * h, (i + 1) * h
    return a * a + (t - a) * (a + b)


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

    def test_dimension_mismatch(self):
        net, _ = build_square(2)
        with pytest.raises(InputError):
            interval_bounds(net, Box.symmetric(2))

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
        monkeypatch.setattr(nets, "_CHUNK", 7)

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
