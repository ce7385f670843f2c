"""Every metric perfbench reports, with its unit.

``BENCHMARK.json`` lists the same names; ``test_perfbench`` keeps the
two in step.
"""

from __future__ import annotations

from attribution import LEVEL_OPS, MAX_LEVEL

OPERATORS = ("cc_7pt", "cc_jacobi", "vc_gsrb")
OP_BACKENDS = ("c", "openmp", "numpy")
#: operator backend -> the ``BaselineKernels3D`` flavour it is compared with
HAND_FLAVOUR = {"c": "serial", "openmp": "openmp", "numpy": "serial"}

#: reported by an untraced run (``--trace 0``) and gated by the bounds in
#: BENCHMARK.json
END_TO_END = {
    "setup_s": "s",
    "vcycle_ms.p90": "ms",
    "mdof_s": "MDOF/s",
    "hand_ratio": "1",
    **{f"ops_hand_ratio.{b}": "1" for b in OP_BACKENDS},
    "peak_rss_mb": "MB",
}

#: printed and written with the end-to-end metrics but not gated.  The
#: median cycle flips between the two speeds a shared host alternates
#: between (up to 1.8x apart for tens of seconds) whenever a run spends
#: about half its time in each.  The absolute operator rates follow the
#: host's speed too: at 32^3 their ten-run spread reached 0.29, which
#: ``ops_hand_ratio`` cancels by timing the hand-written kernel beside
#: each call.  ``failed_frac`` is 0 on a healthy run and the result line
#: already carries ``attempted`` and ``failed``.
UNGATED = {
    "vcycle_ms.p50": "ms",
    **{f"mpts_s.{b}": "Mpts/s" for b in OP_BACKENDS},
    "failed_frac": "1",
}


def _per_layer() -> dict[str, str]:
    m = {
        "level.build_s": "s",
        "compile.pipeline_s": "s",
        "jit.load_s": "s",
        "jit.cc_s": "s",
        "jit.cc_count": "count",
        "jit.cache_hits": "count",
        "codegen.source_bytes": "B",
        "setup.unattributed_s": "s",
        "driver.ms_per_cycle": "ms",
        "level.ms_per_cycle": "ms",
        "dispatch.us_per_call": "us",
        "dispatch.calls_per_cycle": "count",
        "dispatch.share": "1",
        "kernel.ms_per_cycle": "ms",
        "unattributed.ms_per_cycle": "ms",
    }
    for op in LEVEL_OPS:
        for k in range(MAX_LEVEL + 1):
            m[f"kernel.{op}.L{k}.ms_per_cycle"] = "ms"
    m.update({
        "kernel.bottom.ms_per_cycle": "ms",
        "kernel.fine.gbs_computed": "GB/s",
        "kernel.fine.roofline_frac": "1",
        "omp.coarse_us_per_call": "us",
        "hand.vcycle_ms.p50": "ms",
        "trace.overhead_frac": "1",
    })
    for op in OPERATORS:
        for b in OP_BACKENDS:
            m[f"kernel.{op}.{b}.mpts_s"] = "Mpts/s"
            m[f"kernel.{op}.{b}.ms.p50"] = "ms"
            m[f"kernel.{op}.{b}.roofline_frac"] = "1"
    m["ops.dispatch.share"] = "1"
    m["stream.gbs"] = "GB/s"
    return m


#: reported by a traced run (``--trace 1``)
PER_LAYER = _per_layer()
