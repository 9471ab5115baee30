"""Self-time arithmetic, per-layer metrics on synthetic span trees, and
agreement between the harness and BENCHMARK.json."""

import json
from pathlib import Path

import pytest

import run
import spans


def span(name, start, end, parent=-1, attrs=None):
    return [name, start, end, parent, 0, attrs]


def test_self_time_subtracts_children():
    tree = [
        span("cli.main", 0.0, 10.0),                      # 0
        span("rewriting.semigroup_from_presentation", 1.0, 7.0, 0),  # 1
        span("rewriting.is_complete", 1.5, 2.5, 1),       # 2
        span("core.FiniteSemigroup", 5.0, 6.5, 1),        # 3
        span("_accel.assoc_witness", 5.5, 6.0, 3),        # 4
        span("green.class_poset", 8.0, 9.0, 0),           # 5
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 3.5, 1.0, 1.0, 0.5, 1.0])


def test_self_time_counts_overlapping_children_once():
    tree = [span("a.f", 0.0, 10.0), span("b.g", 1.0, 5.0, 0), span("b.h", 4.0, 12.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(1.0)


def test_layer_metrics_on_synthetic_tree():
    tree = [
        span("cli.main", 0.0, 10.0),                                       # 0
        span("rewriting.semigroup_from_presentation", 1.0, 7.0, 0),        # 1
        span("rewriting.is_complete", 1.5, 2.5, 1),                        # 2
        span("rewriting.critical_pairs", 1.5, 2.0, 2, {"pairs": 4}),       # 3
        span("core.FiniteSemigroup", 5.0, 6.5, 1),                         # 4
        span("_accel.assoc_witness", 5.5, 6.0, 4, {"m": 3}),               # 5
        span("green.kernel", 7.0, 9.5, 0),                                 # 6
        span("green.class_poset", 7.0, 8.0, 6, {"relation": "J", "classes": 2}),  # 7
        span("green.class_poset", 8.0, 8.5, 6, {"relation": "R", "classes": 5}),  # 8
        span("ideals.is_kind", 9.5, 9.6, 0, {"accepted": True}),           # 9
        span("ideals.is_kind", 9.6, 9.7, 0, {"accepted": False}),          # 10
    ]
    m = spans.layer_metrics(tree, {"rewriting.reduce_word": 12})
    assert m["rewriting.table_build_s"] == pytest.approx(6.0 - 1.0 - 1.5)
    assert m["rewriting.complete_s"] == pytest.approx(1.0)
    assert m["rewriting.critical_pairs"] == 4
    assert m["rewriting.reduce_calls"] == 12
    assert m["core.init_s"] == pytest.approx(1.0)
    assert m["core.semigroups"] == 1
    assert m["accel.assoc_s"] == pytest.approx(0.5)
    assert m["accel.assoc_triples"] == 27
    assert m["green.poset_J_s"] == pytest.approx(1.0)
    assert m["green.poset_R_s"] == pytest.approx(0.5)
    assert m["green.poset_calls"] == 2 and m["green.classes"] == 7
    assert m["green.kernel_s"] == pytest.approx(2.5)
    assert m["ideals.is_kind_calls"] == 2
    assert m["ideals.kind_accept_ratio"] == pytest.approx(0.5)
    assert m["accel.sample_s"] == 0
    # cli.main covers 10 s; its children cover 6 + 2.5 + 0.2
    assert m["cli.self_s"] == pytest.approx(1.3)


def test_outermost_calls_are_not_counted_twice():
    tree = [span("constructions.right_ideal_tower", 0.0, 4.0),
            span("constructions.brandt_extension", 1.0, 3.0, 0),
            span("ideals.generate", 3.0, 3.5, 0)]
    assert spans.layer_metrics(tree, {})["constructions.build_s"] == pytest.approx(4.0)


def test_instrument_records_and_restores():
    from greenheight import core, green

    tracer = spans.Tracer()
    original = green.height
    restore = spans.instrument(tracer)
    try:
        s = core.from_table(["a", "b"], [[0, 0], [0, 0]])
        assert green.height(s, "R") == 2
    finally:
        restore()
    assert green.height is original
    names = [sp[spans.NAME] for sp in tracer.spans]
    assert names[:2] == ["core.from_table", "core.FiniteSemigroup"]
    assert "green.height" in names and "green.class_poset" in names
    poset = next(sp for sp in tracer.spans if sp[spans.NAME] == "green.class_poset")
    assert tracer.spans[poset[spans.PARENT]][spans.NAME] == "green.height"


def test_tail_has_ten_samples_beyond_it():
    value, pct, count = run.tail([float(i) for i in range(100)])
    assert (value, count) == (89.0, 100)
    assert sum(1 for i in range(100) if i > value) == 10
    assert pct == pytest.approx(90.0)
    with pytest.raises(ValueError):
        run.tail([1.0] * 10)


def test_benchmark_json_names_match_the_harness():
    bench = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m["unit"] for m in bench["end_to_end"]}
    assert e2e == run.END_TO_END_UNITS
    layer = {m["name"]: m["unit"] for m in bench["per_layer"]}
    names = set(spans.layer_metrics([], {})) | {"trace.overhead_ratio"}
    assert set(layer) == names
    assert all(unit == run.unit_of(name) for name, unit in layer.items())
    assert [w["name"] for w in bench["workloads"]] == list(run.workloads.BUILDERS)
