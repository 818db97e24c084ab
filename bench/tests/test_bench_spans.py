import json
from pathlib import Path

import pytest

import layers
import run
import spans
from spans import SETUP_OP, Span, Tracer, per_operation, self_times, union_length


def test_union_length_merges_and_clips():
    assert union_length([], 0.0, 10.0) == 0.0
    assert union_length([(1.0, 3.0), (2.0, 5.0), (7.0, 8.0)], 0.0, 10.0) == 5.0
    assert union_length([(2.0, 3.0), (1.0, 4.0)], 0.0, 10.0) == 3.0  # nested
    assert union_length([(-5.0, 2.0), (9.0, 20.0)], 0.0, 10.0) == 3.0  # clipped
    assert union_length([(11.0, 12.0)], 0.0, 10.0) == 0.0


def test_self_time_subtracts_children_but_not_grandchildren():
    tree = [
        Span(0, "op", 0.0, 10.0, -1, 1),
        Span(1, "pair", 1.0, 4.0, 0, 1),
        Span(2, "eval", 2.0, 3.5, 1, 1),
        Span(3, "pair", 5.0, 6.0, 0, 1),
    ]
    st = self_times(tree)
    assert st[0] == pytest.approx(10.0 - 3.0 - 1.0)
    assert st[1] == pytest.approx(3.0 - 1.5)
    assert st[2] == pytest.approx(1.5)
    assert st[3] == pytest.approx(1.0)
    assert sum(st.values()) == pytest.approx(10.0)  # self times partition the root


def test_tracer_nests_spans_and_totals_self_time(monkeypatch):
    clock = iter(float(t) for t in range(100))
    monkeypatch.setattr(spans.time, "perf_counter", lambda: next(clock))
    tr = Tracer()
    inner = tr.wrap("inner", lambda: None)

    def body():
        inner()
        inner()

    outer = tr.wrap("outer", body)
    tr.op = 3
    outer()
    by_name = {sp.name: sp for sp in tr.spans}
    assert by_name["outer"].parent == -1
    assert all(sp.parent == by_name["outer"].sid for sp in tr.spans if sp.name == "inner")
    assert all(sp.op == 3 for sp in tr.spans)
    totals = tr.totals()[3]
    # clock ticks: outer 0..5, inners 1..2 and 3..4
    assert totals["inner.calls"] == 2
    assert totals["inner.self_s"] == 2.0
    assert totals["outer.self_s"] == 3.0


def test_span_closes_when_the_call_raises():
    tr = Tracer()

    def boom():
        raise RuntimeError("x")

    with pytest.raises(RuntimeError):
        tr.wrap("boom", boom)()
    assert [sp.name for sp in tr.spans] == ["boom"]
    tr.wrap("after", lambda: None)()
    assert tr.spans[-1].parent == -1


def test_per_operation_adds_setup_once_to_the_operation_mean():
    totals = {SETUP_OP: {"a": 1.0}, 1: {"a": 2.0, "b": 4.0}, 2: {"a": 4.0}, 3: {"a": 100.0}}
    out = per_operation(totals, [1, 2])
    assert out == {"a": 1.0 + 3.0, "b": 2.0}


def test_patched_restores_module_attributes_after_normal_exit_and_error():
    originals = [(m, a, getattr(m, a)) for m, a, _ in layers.TARGETS]
    tr = Tracer()
    with tr.patched(layers.TARGETS):
        assert all(getattr(m, a) is not orig for m, a, orig in originals)
    assert all(getattr(m, a) is orig for m, a, orig in originals)
    with pytest.raises(KeyError):
        with tr.patched(layers.TARGETS):
            raise KeyError("inside")
    assert all(getattr(m, a) is orig for m, a, orig in originals)


def test_patched_restores_what_it_replaced_when_a_factory_fails():
    import types

    mod = types.SimpleNamespace(f=len, g=abs)

    def bad_factory(tracer, fn):
        raise TypeError("no wrapper")

    with pytest.raises(TypeError):
        with Tracer().patched([(mod, "f", lambda t, fn: "wrapped"), (mod, "g", bad_factory)]):
            pass
    assert mod.f is len and mod.g is abs


def test_traced_kernel_pairs_are_counted():
    from lockern import experiments
    from lockern.kernels import KernelSpec

    tr = Tracer()
    tr.op = 1
    with tr.patched(layers.TARGETS):
        k = experiments.kernel_fn(KernelSpec("euclidean_rbf", {"gamma": 1.0}))
        k([0.0], [1.0])
        k([0.0], [2.0])
    t = tr.totals()[1]
    assert t["kernels.pair.calls"] == 2
    assert "nonfinite" not in t


@pytest.mark.parametrize("value", [float("nan"), float("inf")])
def test_nonfinite_kernel_values_are_counted(value):
    tr = Tracer()
    tr.op = 2
    tr.wrap("kernels.pair", lambda: value, layers._scalar_result)()
    assert tr.totals()[2]["nonfinite"] == 1


def test_benchmark_json_lists_exactly_the_reported_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert e2e == run.E2E_UNITS
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    expected = {name: run.layer_unit(name) for name in [*layers.layer_metrics({}), "trace.overhead"]}
    assert per_layer == expected
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)


def test_layer_metrics_default_to_zero_and_ratio_is_safe():
    values = layers.layer_metrics({})
    assert all(v == 0.0 for v in values.values())
    v = layers.layer_metrics({"hermite.eval.calls": 4, "hermite.eval_points": 10})
    assert v["hermite.points_per_call"] == 2.5
