"""Dispatch budget: what one bound kernel call may reach.

After ``kernel.bind(**grids)``, ``kernel(**params)`` does only per-call
work.  These tests record every call made during one dispatch with
``sys.setprofile`` and assert that a bound call reaches none of the
bind-time work: ``repro.core.validate``, ``StencilGroup.grids`` /
``params``, the FFI marshal step and ``np.shares_memory``.  They count
calls instead of timing them, so they cannot flap.
"""

from __future__ import annotations

import sys

import numpy as np
import pytest

from repro.backends.c_backend import FfiLayout
from repro.core import validate
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import Param
from repro.core.stencil import Stencil, StencilGroup
from repro.core.weights import WeightArray
from repro.hpgmg.problem import setup_problem
from repro.hpgmg.solver import MultigridSolver

FORBIDDEN_CODE = {
    StencilGroup.grids.__code__: "StencilGroup.grids",
    StencilGroup.params.__code__: "StencilGroup.params",
    Stencil.grids.__code__: "Stencil.grids",
    Stencil.params.__code__: "Stencil.params",
    FfiLayout.marshal.__code__: "FfiLayout.marshal",
}


def _forbidden_reached(fn) -> list[str]:
    """Run ``fn`` under a profiler; the bind-time calls it made."""
    hits: list[str] = []

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            if code in FORBIDDEN_CODE:
                hits.append(FORBIDDEN_CODE[code])
            elif code.co_filename == validate.__file__:
                hits.append(f"validate.{code.co_name}")
            elif code.co_name == "shares_memory":
                hits.append("np.shares_memory")
        elif event == "c_call" and getattr(arg, "__name__", "") == (
            "shares_memory"
        ):
            hits.append("np.shares_memory")

    sys.setprofile(profile)
    try:
        fn()
    finally:
        sys.setprofile(None)
    return hits


@pytest.fixture(scope="module")
def solver():
    level, _ = setup_problem(8, ndim=3, coefficients="variable")
    return MultigridSolver(level, backend="c")


@pytest.mark.parametrize("op", ["_smooth", "_residual", "_restrict", "_interp"])
def test_bound_solver_dispatch_reaches_no_bind_time_work(solver, op):
    kernel = getattr(solver, op)[0]
    kernel()  # warm
    assert _forbidden_reached(kernel) == []


@pytest.mark.parametrize("backend", ["c", "openmp", "numpy"])
def test_bound_call_budget(backend):
    lap = Component("u", WeightArray([[0, 1, 0], [1, -4, 1], [0, 1, 0]]))
    group = StencilGroup(
        [Stencil(Param("a") * lap, "out", RectDomain((1, 1), (-1, -1)))]
    )
    kernel = group.compile(backend=backend, shapes={"u": (8, 8), "out": (8, 8)})
    grids = {"u": np.ones((8, 8)), "out": np.zeros((8, 8))}
    kernel.bind(**grids)

    assert _forbidden_reached(lambda: kernel(a=2.0)) == []
    # the recorder is not blind: the unbound call does all of it
    unbound = set(_forbidden_reached(lambda: kernel(**grids, a=2.0)))
    assert "validate.check_grids" in unbound
    if backend != "numpy":
        assert {"FfiLayout.marshal", "np.shares_memory"} <= unbound
