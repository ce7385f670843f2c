"""Tests of the benchmark's own rules (no program is run).

    python3 -m pytest -q perfbench
"""

import json
import math
from pathlib import Path

import pytest

import attribution
import benchstats
import catalog
from spantree import Tracer, layer_totals, nearest_tag, roots, self_times

ROOT = Path(__file__).resolve().parent.parent


# -- names ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "name", [*catalog.END_TO_END, *catalog.PER_LAYER, *catalog.UNGATED]
)
def test_every_metric_name_is_legal(name):
    assert benchstats.check_metric_name(name) == name


@pytest.mark.parametrize(
    "bad", ["", ".lead", "_lead", "has space", "a/b", "p90%", "x" * 65, "é"]
)
def test_illegal_metric_names_are_refused(bad):
    with pytest.raises(ValueError):
        benchstats.check_metric_name(bad)


def test_catalog_matches_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == catalog.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == catalog.PER_LAYER
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


# -- the percentile rule --------------------------------------------------------------


def test_samples_beyond_counts_nearest_rank_tail():
    assert benchstats.samples_beyond(100, 0.9) == 10
    assert benchstats.samples_beyond(99, 0.9) == 9
    assert benchstats.samples_beyond(110, 0.9) == 11  # 0.9 * 110 is inexact
    assert benchstats.samples_beyond(1000, 0.99) == 10


def test_tail_percentile_needs_ten_samples_beyond_it():
    with pytest.raises(ValueError):
        benchstats.tail_percentile(range(99), 0.9)
    assert benchstats.tail_percentile(range(100), 0.9) == pytest.approx(89.1)
    with pytest.raises(ValueError):
        benchstats.tail_percentile(range(999), 0.99)
    assert benchstats.min_samples_for(0.9) == 100
    assert benchstats.min_samples_for(0.99) == 1000


def test_median_interpolates_and_ignores_order():
    assert benchstats.median([3, 1, 2]) == 2
    assert benchstats.median([4, 1, 3, 2]) == 2.5
    with pytest.raises(ValueError):
        benchstats.median([])


# -- geometric mean ---------------------------------------------------------------


def test_geomean():
    assert benchstats.geomean([1.0, 100.0]) == pytest.approx(10.0)
    assert benchstats.geomean([2.0, 8.0, 4.0]) == pytest.approx(4.0)
    assert benchstats.geomean(iter([5.0])) == pytest.approx(5.0)
    for bad in ([], [1.0, 0.0], [1.0, -2.0], [math.nan]):
        with pytest.raises(ValueError):
            benchstats.geomean(bad)


def test_op_rates_use_medians_and_the_matching_hand_flavour():
    import run

    samples = {}
    for op, scale in (("cc_7pt", 1.0), ("vc_gsrb", 4.0)):
        samples[(op, "hand-serial")] = [scale * 1e-3] * 3
        samples[(op, "hand-openmp")] = [scale * 0.5e-3] * 3
        samples[(op, "c")] = [scale * 2e-3, scale * 2e-3, 9.0]  # one stall
        samples[(op, "openmp")] = [scale * 2e-3] * 3
        samples[(op, "numpy")] = [scale * 10e-3] * 3
    rates = run.op_rates(samples, {"cc_7pt": 4000, "vc_gsrb": 16000})
    assert rates["mpts_s.c"] == pytest.approx(2.0)
    assert rates["ops_hand_ratio.c"] == pytest.approx(0.5)
    assert rates["ops_hand_ratio.openmp"] == pytest.approx(0.25)
    assert rates["ops_hand_ratio.numpy"] == pytest.approx(0.1)
    assert set(rates) == {
        k for k in (*catalog.END_TO_END, *catalog.UNGATED)
        if k.startswith(("mpts_s.", "ops_hand_ratio."))
    }


# -- spans and self time ------------------------------------------------------------


def span(name, start, end, parent, tag=None):
    return [name, tag, float(start), float(end), parent]


def test_self_time_subtracts_direct_children_only():
    spans = [
        span("cycle", 0, 10, -1),
        span("driver", 1, 4, 0),
        span("driver", 5, 9, 0),
        span("dispatch", 6, 8, 2),
        span("kernel", 6.5, 7.5, 3),
        span("cycle", 20, 22, -1),
    ]
    assert self_times(spans) == [3.0, 3.0, 2.0, 1.0, 1.0, 2.0]
    assert roots(spans) == [0, 0, 0, 0, 0, 5]
    totals = layer_totals(spans, attribution.layer_of)
    assert totals == {
        "unattributed": 5.0, "driver": 5.0, "dispatch": 1.0, "kernel": 1.0,
    }
    assert sum(totals.values()) == 12.0  # the two roots' wall time


def test_nearest_tag_inherits_from_closest_accepted_ancestor():
    spans = [
        span("cycle", 0, 10, -1),
        span("driver", 1, 9, 0, ("v_cycle", 0)),
        span("driver", 2, 8, 1, ("smooth", 0)),
        span("kernel", 3, 4, 2),
    ]
    tags = nearest_tag(spans, lambda n: n == "driver")
    assert tags == [None, ("v_cycle", 0), ("smooth", 0), ("smooth", 0)]


def test_tracer_records_parents_and_refuses_misnested_ends():
    t = Tracer()
    with t.span("cycle"):
        with t.span("driver", ("smooth", 1)):
            pass
    assert [(s[0], s[1], s[4]) for s in t.spans] == [
        ("cycle", None, -1), ("driver", ("smooth", 1), 0),
    ]
    outer = t.begin("a")
    t.begin("b")
    with pytest.raises(RuntimeError):
        t.end(outer)


def _cycle(t0, kernel_id, level):
    """cycle -> driver(smooth, level) -> dispatch -> kernel, 10 s long."""
    return [
        span("cycle", t0, t0 + 10, -1),
        span("driver", t0 + 1, t0 + 9, None, ("smooth", level)),
        span("dispatch", t0 + 2, t0 + 8, None, kernel_id),
        span("kernel", t0 + 3, t0 + 7, None),
    ]


def _link(*cycles):
    spans = []
    for c in cycles:
        base = len(spans)
        for i, s in enumerate(c):
            s[4] = -1 if i == 0 else base + i - 1
        spans += c
    return spans


def test_solve_metrics_attribute_cycle_time_to_layers():
    spans = _link(_cycle(0, 7, 0), _cycle(100, 8, 2))
    metrics, table, per_cycle = attribution.solve_metrics(
        spans, level_sizes=[32, 16, 8], kernel_bytes={7: 4e9, 8: 1e9},
        stream_bps=2e9,
    )
    assert per_cycle == [1, 1]
    assert table == {
        "driver": 2.0, "level": 0.0, "dispatch": 2.0, "kernel": 4.0,
        "unattributed": 2.0,
    }
    assert sum(table.values()) == 10.0
    assert metrics["dispatch.share"] == pytest.approx(0.2)
    assert metrics["dispatch.us_per_call"] == pytest.approx(2e6)
    assert metrics["kernel.smooth.L0.ms_per_cycle"] == pytest.approx(2e3)
    assert metrics["kernel.smooth.L2.ms_per_cycle"] == pytest.approx(2e3)
    assert metrics["kernel.residual.L1.ms_per_cycle"] == 0.0
    # only level 0 counts as fine: 4e9 bytes in 4 s of kernel time
    assert metrics["kernel.fine.gbs_computed"] == pytest.approx(1.0)
    assert metrics["kernel.fine.roofline_frac"] == pytest.approx(0.5)
    # only level 2 (8^3) is coarse
    assert metrics["omp.coarse_us_per_call"] == pytest.approx(4e6)
    assert set(metrics) <= set(catalog.PER_LAYER)


def test_ops_metrics_use_kernel_self_time():
    spans = _link(
        [span("op", 0, 10, -1, ("cc_7pt", "c")),
         span("dispatch", 1, 9, None, 1), span("kernel", 2, 6, None)],
        [span("op", 20, 30, -1, ("cc_7pt", "c")),
         span("dispatch", 21, 29, None, 1), span("kernel", 22, 24, None)],
    )
    spans.append(span("kernel", 40, 50, -1))  # a check's call: no op root
    m = attribution.ops_metrics(spans, {"cc_7pt": 3e6}, {"cc_7pt": 24.0}, 24e6)
    assert m["kernel.cc_7pt.c.ms.p50"] == pytest.approx(3e3)
    assert m["kernel.cc_7pt.c.mpts_s"] == pytest.approx(1.0)
    assert m["kernel.cc_7pt.c.roofline_frac"] == pytest.approx(1.0)
    assert m["ops.dispatch.share"] == pytest.approx(0.5)


def test_setup_metrics_split_compile_time():
    spans = _link(
        [span("setup", 0, 10, -1), span("compile", 1, 9, None),
         span("jit", 2, 8, None, 1000), span("cc", 3, 7, None)],
    )
    spans.append(span("jit", 11, 12, 0, 500))  # an in-process cache hit
    spans[0][3] = 20.0
    metrics, table = attribution.setup_metrics(spans)
    assert metrics["jit.cc_count"] == 1
    assert metrics["jit.cache_hits"] == 1
    assert metrics["codegen.source_bytes"] == 1500
    assert metrics["jit.cc_s"] == 4.0
    assert metrics["jit.load_s"] == 3.0
    assert metrics["compile.pipeline_s"] == 2.0
    assert sum(table.values()) == 20.0
