"""Tests of the benchmark's own arithmetic. Run: python3 -m pytest perfbench -q"""

import json
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers
import tracing
import workloads
from relu_forge import build_square
from tracing import Span


def test_self_time_subtracts_union_of_children_across_threads():
    main, pool_a, pool_b = 1, 2, 3
    spans = [
        Span(1, None, "outer", main, 0.0, 10.0, None, None),
        Span(2, 1, "child", main, 1.0, 3.0, None, None),
        Span(3, 2, "grandchild", main, 1.5, 2.5, None, None),
        # pool chunks caused by "outer": they overlap "child" and each other
        Span(4, 1, "chunk", pool_a, 2.0, 6.0, None, None),
        Span(5, 1, "chunk", pool_b, 5.0, 8.0, None, None),
    ]
    own = tracing.self_times(spans)
    # outer loses [1, 8], the union of its children, once
    assert own == pytest.approx({1: 3.0, 2: 1.0, 3: 1.0, 4: 4.0, 5: 3.0})


def test_pool_thread_span_is_child_of_submitting_span():
    tracer = tracing.Tracer()
    inner = tracer.wrap("inner", lambda x: x + 1)

    def outer_body():
        with ThreadPoolExecutor(max_workers=1) as pool:
            return pool.submit(inner, 1).result()

    outer = tracer.wrap("outer", outer_body)
    assert outer() == 2
    by_name = {s.name: s for s in tracer.drain()}
    assert by_name["inner"].thread != by_name["outer"].thread
    assert by_name["inner"].parent == by_name["outer"].id
    assert by_name["outer"].parent is None


def test_failed_call_records_error_and_reraises():
    tracer = tracing.Tracer()

    def boom():
        raise ValueError("no")

    with pytest.raises(ValueError):
        tracer.wrap("boom", boom)()
    (span,) = tracer.drain()
    assert span.error == "ValueError"


def test_madds_for_square_net_match_hand_count():
    net, _ = build_square(2)
    # first layer: x and -x (2); layer 2: the full 2x2 recurrent block (4);
    # output: beta rows (1, 1) and (-1/2, 1) (4); input skips are all zero.
    assert layers.madds_per_point(net) == 10
    counts = layers._eval_counts(None, net, np.zeros((7, 1)))
    assert counts == {"layer_points": 14, "madds": 70}


def test_wrappers_removed_after_traced_run():
    before = tracing.current(layers.WRAPPERS)
    tracer = tracing.Tracer()
    argv = ["--threads", "2", "sweep", "multiply", "--depths", "1:2"]
    untraced = workloads.run_cli(argv)
    with tracing.patched(tracer, layers.WRAPPERS):
        assert all(a is not b for a, b in zip(tracing.current(layers.WRAPPERS), before))
        traced = workloads.run_cli(argv)
    assert all(a is b for a, b in zip(tracing.current(layers.WRAPPERS), before))
    assert traced == untraced
    names = {s.name for s in tracer.drain()}
    assert {"cli", "calculus.add", "verify.sup_error", "nets.eval"} <= names


def test_wrappers_removed_when_traced_run_raises():
    before = tracing.current(layers.WRAPPERS)
    with pytest.raises(RuntimeError):
        with tracing.patched(tracing.Tracer(), layers.WRAPPERS):
            raise RuntimeError
    assert all(a is b for a, b in zip(tracing.current(layers.WRAPPERS), before))


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = [m["name"] for m in spec["per_layer"]]
    assert per_layer == [name for name, _ in layers.PER_LAYER] + ["trace.overhead_ratio"]
    units = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert all(units[name] == unit for name, unit in layers.PER_LAYER)
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(workloads.WORKLOADS)
