"""Per-layer metrics from a traced run's spans.

Inputs are plain span lists (see :mod:`spantree`) plus numbers the run
computed from the program's public cost model, so every function here
can be checked on a synthetic span tree.
"""

from __future__ import annotations

from collections import defaultdict

from benchstats import median
from spantree import (
    END, NAME, PARENT, START, TAG, layer_totals, nearest_tag, roots, self_times,
)

#: multigrid operations reported per level, on levels 0..MAX_LEVEL: the
#: levels above the bottom that every workload has (32^3 has 32, 16, 8, 4
#: and the 2^3 bottom), so no metric is 0 merely for lack of a level.
#: Coarser levels count in ``kernel.ms_per_cycle`` and
#: ``omp.coarse_us_per_call``.
LEVEL_OPS = ("smooth", "residual", "restrict", "interp")
MAX_LEVEL = 3
#: OpenMP fork/join dominates a call on levels this small or smaller
COARSE_N = 8

LAYERS = ("driver", "level", "dispatch", "kernel", "unattributed")
SETUP_LAYERS = ("level", "pipeline", "jit", "cc", "unattributed")

SPAN_LAYER = {
    "level": "level",
    "compile": "pipeline",
    "jit": "jit",
    "cc": "cc",
    "driver": "driver",
    "dispatch": "dispatch",
    "kernel": "kernel",
}


def layer_of(name: str) -> str:
    """Layer of a span; the benchmark's own root spans are ``unattributed``."""
    return SPAN_LAYER.get(name, "unattributed")


def setup_metrics(spans) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer set-up metrics and the set-up attribution (seconds per
    layer, summing to the set-up wall time)."""
    totals = layer_totals(spans, layer_of)
    table = {layer: totals.get(layer, 0.0) for layer in SETUP_LAYERS}
    cc = sum(1 for s in spans if s[NAME] == "cc")
    jit = [s for s in spans if s[NAME] == "jit"]
    metrics = {
        "level.build_s": table["level"],
        "compile.pipeline_s": table["pipeline"],
        "jit.load_s": table["jit"],
        "jit.cc_s": table["cc"],
        "jit.cc_count": cc,
        "jit.cache_hits": len(jit) - cc,
        "codegen.source_bytes": sum(s[TAG] for s in jit),
        "setup.unattributed_s": table["unattributed"],
    }
    return metrics, table


def solve_metrics(
    spans,
    level_sizes: list[int],
    kernel_bytes: dict[int, float],
    stream_bps: float,
) -> tuple[dict[str, float], dict[str, float], list[int]]:
    """Per-layer metrics of the traced V-cycles (``cycle`` root spans).

    Returns the metrics, the attribution (seconds per layer per cycle)
    and the dispatch count of every cycle, which must all be equal.
    ``kernel_bytes`` maps a compiled kernel's id — the tag of its
    ``dispatch`` span — to the bytes one call moves by the cost model.
    """
    st = self_times(spans)
    root = roots(spans)
    op_level = nearest_tag(spans, lambda name: name == "driver")
    cycles = [i for i, s in enumerate(spans) if s[NAME] == "cycle"]
    in_cycle = set(cycles)
    wall = sum(spans[i][END] - spans[i][START] for i in cycles)
    layer = dict.fromkeys(LAYERS, 0.0)
    calls: dict[int, int] = defaultdict(int)
    by_op_level: dict[tuple, float] = defaultdict(float)
    fine_bytes = fine_time = coarse_time = 0.0
    coarse_calls = 0
    bottom = len(level_sizes) - 1
    for i, s in enumerate(spans):
        if root[i] not in in_cycle:
            continue
        layer[layer_of(s[NAME])] += st[i]
        if s[NAME] == "dispatch":
            calls[root[i]] += 1
        elif s[NAME] == "kernel":
            op, k = op_level[i]
            by_op_level[(op, k)] += st[i]
            if k == 0:
                fine_bytes += kernel_bytes[spans[s[PARENT]][TAG]]
                fine_time += st[i]
            if level_sizes[k] <= COARSE_N:
                coarse_time += st[i]
                coarse_calls += 1
    n = len(cycles)
    per_cycle = [calls[i] for i in cycles]
    total_calls = sum(per_cycle)
    metrics = {
        "driver.ms_per_cycle": layer["driver"] / n * 1e3,
        "level.ms_per_cycle": layer["level"] / n * 1e3,
        "dispatch.us_per_call": layer["dispatch"] / total_calls * 1e6,
        "dispatch.calls_per_cycle": per_cycle[0],
        "dispatch.share": layer["dispatch"] / wall,
        "kernel.ms_per_cycle": layer["kernel"] / n * 1e3,
        "unattributed.ms_per_cycle": layer["unattributed"] / n * 1e3,
    }
    for op in LEVEL_OPS:
        for k in range(MAX_LEVEL + 1):
            metrics[f"kernel.{op}.L{k}.ms_per_cycle"] = (
                by_op_level.get((op, k), 0.0) / n * 1e3
            )
    metrics["kernel.bottom.ms_per_cycle"] = (
        by_op_level.get(("bottom", bottom), 0.0) / n * 1e3
    )
    metrics["kernel.fine.gbs_computed"] = fine_bytes / fine_time / 1e9
    metrics["kernel.fine.roofline_frac"] = fine_bytes / fine_time / stream_bps
    metrics["omp.coarse_us_per_call"] = coarse_time / coarse_calls * 1e6
    attribution = {k: v / n for k, v in layer.items()}
    return metrics, attribution, per_cycle


def ops_metrics(
    spans, points: dict[str, int], bytes_per_point: dict[str, float],
    stream_bps: float,
) -> dict[str, float]:
    """Loop-nest rate of each (operator, backend) — points over the
    median time inside the specialised callable — and the dispatch share
    of all operator calls (``op`` root spans tagged ``(op, backend)``)."""
    st = self_times(spans)
    root = roots(spans)
    kernel_times: dict[tuple, list[float]] = defaultdict(list)
    dispatch = wall = 0.0
    for i, s in enumerate(spans):
        r = spans[root[i]]
        if r[NAME] != "op":
            continue
        if s[NAME] == "op":
            wall += s[END] - s[START]
        elif s[NAME] == "dispatch":
            dispatch += st[i]
        elif s[NAME] == "kernel":
            kernel_times[tuple(r[TAG])].append(st[i])
    metrics: dict[str, float] = {}
    for (op, backend), times in sorted(kernel_times.items()):
        t = median(times)
        key = f"kernel.{op}.{backend}"
        metrics[f"{key}.ms.p50"] = t * 1e3
        metrics[f"{key}.mpts_s"] = points[op] / t / 1e6
        metrics[f"{key}.roofline_frac"] = (
            points[op] * bytes_per_point[op] / t / stream_bps
        )
    metrics["ops.dispatch.share"] = dispatch / wall
    return metrics
