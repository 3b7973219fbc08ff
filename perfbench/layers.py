"""relu_forge's layers as the traced run sees them.

``WRAPPERS`` names every function the traced run wraps, at the module
attribute its callers look it up by, with the layer span it records and
the counts computed from its arguments. ``layer_metrics`` turns the spans
of one pass into the per-layer metrics. Counts read from the nets' arrays
(``madds``, ``layer_points``, interval ``layers``) and serialized sizes are
computed, not timed, so they repeat exactly for the same code.
"""

from __future__ import annotations

from collections import Counter, defaultdict

import numpy as np

from relu_forge.nets import ShallowNet, SkipNet, StandardNet
from tracing import self_times


def madds_per_point(net) -> int:
    """Multiply-adds the evaluator performs per point.

    The evaluator skips exactly-zero weights, so this counts nonzero
    weights: input, recurrent and output terms. Biases are initial values,
    not multiply-adds. A shallow net's output adds every unit.
    """
    nz = np.count_nonzero
    if isinstance(net, SkipNet):
        total = nz(net.out_a)
        if net.depth:
            total += nz(net.first_w) + nz(net.out_beta)
            total += sum(nz(wx) + nz(wy) for wx, wy in zip(net.hidden_wx, net.hidden_wy))
        return int(total)
    if isinstance(net, StandardNet):
        return int(sum(nz(W) for W in net.layer_w) + nz(net.out_w))
    if isinstance(net, ShallowNet):
        return int(nz(net.a) + net.units)
    raise TypeError(f"no evaluator for {type(net).__name__}")


def hidden_layers(net) -> int:
    return 1 if isinstance(net, ShallowNet) else net.depth


def _eval_counts(result, net, X, *rest) -> dict:
    n = int(np.shape(X)[0])
    return {"layer_points": hidden_layers(net) * n, "madds": madds_per_point(net) * n}


def _interval_counts(result, net, *rest) -> dict:
    return {"layers": net.depth}


def _dump_counts(text, *rest) -> dict:
    return {"bytes": len(text)}


def _load_counts(result, text, *rest) -> dict:
    return {"bytes": len(text)}


WRAPPERS = (
    ("relu_forge.builders", "compose", "calculus.compose", None),
    ("relu_forge.builders", "add", "calculus.add", None),
    ("relu_forge.builders", "pad_width", "calculus.pad_width", None),
    ("relu_forge.calculus", "interval_bounds", "nets.interval_bounds", _interval_counts),
    ("relu_forge.calculus", "skip_to_standard", "calculus.skip_to_standard", None),
    ("relu_forge.verify", "evaluate_batch", "nets.eval", _eval_counts),
    ("relu_forge.verify", "strategy_points", "verify.strategy_points", None),
    ("relu_forge.verify", "sup_error", "verify.sup_error", None),
    ("relu_forge.verify", "equivalence_check", "verify.equivalence", None),
    ("relu_forge.serialize", "validate", "nets.validate", None),
    ("relu_forge.serialize", "serialize_net", "serialize.dump", _dump_counts),
    ("relu_forge.serialize", "deserialize_net", "serialize.load", _load_counts),
    ("relu_forge.cli", "main", "cli", None),
    ("relu_forge.cli", "build_analytic", "builders", None),
    ("relu_forge.cli", "sup_error", "verify.sup_error", None),
    ("relu_forge.cli", "skip_to_standard", "calculus.skip_to_standard", None),
    ("relu_forge.cli", "serialize_net", "serialize.dump", _dump_counts),
    ("relu_forge.cli", "deserialize_net", "serialize.load", _load_counts),
)

# Per-layer metrics and their units, in report order. The traced run adds
# trace.overhead_ratio, which compares whole passes.
PER_LAYER = (
    ("nets.eval.s", "s"),
    ("nets.eval.calls", "count"),
    ("nets.eval.layer_points", "count"),
    ("nets.eval.madds", "count"),
    ("nets.eval.ns_per_layer_point", "ns"),
    ("nets.eval.ns_per_madd", "ns"),
    ("nets.interval_bounds.s", "s"),
    ("nets.interval_bounds.calls", "count"),
    ("nets.interval_bounds.layers", "count"),
    ("nets.interval_bounds.ns_per_layer", "ns"),
    ("calculus.compose.calls", "count"),
    ("calculus.compose.self_s", "s"),
    ("calculus.compose.useful_ratio", "ratio"),
    ("calculus.add.self_s", "s"),
    ("calculus.pad_width.self_s", "s"),
    ("calculus.skip_to_standard.self_s", "s"),
    ("builders.build_s", "s"),
    ("builders.self_s", "s"),
    ("serialize.dump.s", "s"),
    ("serialize.dump.mb", "MB"),
    ("serialize.load.self_s", "s"),
    ("serialize.load.mb", "MB"),
    ("nets.validate.s", "s"),
    ("verify.sup_error.self_s", "s"),
    ("verify.strategy_points.s", "s"),
    ("verify.equivalence.self_s", "s"),
    ("verify.pool.busy_ratio", "ratio"),
    ("cli.self_s", "s"),
)

COMPUTED = frozenset({
    "nets.eval.layer_points",
    "nets.eval.madds",
    "nets.interval_bounds.layers",
    "serialize.dump.mb",
    "serialize.load.mb",
})


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return num * scale / den if den else 0.0


def layer_metrics(spans, threads: int, owner: int) -> dict:
    """Per-layer metrics of one pass; a layer the pass never entered reads 0.

    ``owner`` is the thread that ran the pass; evaluations on other threads
    are pool chunks, and ``verify.pool.busy_ratio`` is their summed time
    over ``threads`` times the wall time of ``sup_error``.
    """
    own = self_times(spans)
    total, self_s, counts = defaultdict(float), defaultdict(float), defaultdict(int)
    calls, errors = Counter(), Counter()
    pool_eval = 0.0
    for s in spans:
        total[s.name] += s.duration
        self_s[s.name] += own[s.id]
        calls[s.name] += 1
        errors[s.name] += s.error is not None
        for key, value in (s.counts or {}).items():
            counts[s.name, key] += value
        if s.name == "nets.eval" and s.thread != owner:
            pool_eval += s.duration
    eval_s = total["nets.eval"]
    interval_s = total["nets.interval_bounds"]
    compose_calls = calls["calculus.compose"]
    return {
        "nets.eval.s": eval_s,
        "nets.eval.calls": calls["nets.eval"],
        "nets.eval.layer_points": counts["nets.eval", "layer_points"],
        "nets.eval.madds": counts["nets.eval", "madds"],
        "nets.eval.ns_per_layer_point": _ratio(eval_s, counts["nets.eval", "layer_points"], 1e9),
        "nets.eval.ns_per_madd": _ratio(eval_s, counts["nets.eval", "madds"], 1e9),
        "nets.interval_bounds.s": interval_s,
        "nets.interval_bounds.calls": calls["nets.interval_bounds"],
        "nets.interval_bounds.layers": counts["nets.interval_bounds", "layers"],
        "nets.interval_bounds.ns_per_layer": _ratio(
            interval_s, counts["nets.interval_bounds", "layers"], 1e9
        ),
        "calculus.compose.calls": compose_calls,
        "calculus.compose.self_s": self_s["calculus.compose"],
        "calculus.compose.useful_ratio": _ratio(
            compose_calls - errors["calculus.compose"], compose_calls
        ),
        "calculus.add.self_s": self_s["calculus.add"],
        "calculus.pad_width.self_s": self_s["calculus.pad_width"],
        "calculus.skip_to_standard.self_s": self_s["calculus.skip_to_standard"],
        "builders.build_s": total["builders"],
        "builders.self_s": self_s["builders"],
        "serialize.dump.s": total["serialize.dump"],
        "serialize.dump.mb": counts["serialize.dump", "bytes"] / 1e6,
        "serialize.load.self_s": self_s["serialize.load"],
        "serialize.load.mb": counts["serialize.load", "bytes"] / 1e6,
        "nets.validate.s": total["nets.validate"],
        "verify.sup_error.self_s": self_s["verify.sup_error"],
        "verify.strategy_points.s": total["verify.strategy_points"],
        "verify.equivalence.self_s": self_s["verify.equivalence"],
        "verify.pool.busy_ratio": _ratio(pool_eval, threads * total["verify.sup_error"]),
        "cli.self_s": self_s["cli"],
    }
