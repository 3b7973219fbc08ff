from dataclasses import fields, is_dataclass
from types import MappingProxyType

import numpy as np
import pytest

from relu_forge import Box, ShallowNet, SkipNet


def make_random_skip(d, depth, width, rng, scale=1.0) -> SkipNet:
    """Random dense skip net with weights in [-scale, scale]."""
    first_w = rng.uniform(-scale, scale, (width, d))
    first_b = rng.uniform(-scale, scale, width)
    hw, hy, hb = [], [], []
    for _ in range(depth - 1):
        hw.append(rng.uniform(-scale, scale, (width, d)))
        hy.append(rng.uniform(-scale, scale, (width, width)))
        hb.append(rng.uniform(-scale, scale, width))
    return SkipNet(
        input_dim=d,
        first_w=first_w,
        first_b=first_b,
        hidden_wx=tuple(hw),
        hidden_wy=tuple(hy),
        hidden_b=tuple(hb),
        out_a0=float(rng.uniform(-scale, scale)),
        out_a=rng.uniform(-scale, scale, d),
        out_beta=rng.uniform(-scale, scale, (depth, width)),
        domain=Box.symmetric(d),
    )


def net_bits(obj):
    """Comparable form of a net or certificate that differs when any stored bit does."""
    if isinstance(obj, np.ndarray):
        return (obj.dtype.str, obj.shape, obj.tobytes())
    if is_dataclass(obj):
        return tuple((f.name, net_bits(getattr(obj, f.name))) for f in fields(obj))
    if isinstance(obj, (tuple, list)):
        return tuple(net_bits(v) for v in obj)
    if isinstance(obj, (dict, MappingProxyType)):
        return tuple((k, net_bits(v)) for k, v in obj.items())
    if isinstance(obj, float):
        return obj.hex()
    return obj


def make_random_shallow(d, units, rng, activation="relu") -> ShallowNet:
    return ShallowNet(
        input_dim=d,
        a=rng.normal(size=(units, d)),
        b=rng.normal(size=units),
        c=rng.normal(size=units),
        c0=float(rng.normal()),
        activation=activation,
        domain=Box.symmetric(d),
    )


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
