"""Bind once, call many: ``CompiledKernel.bind`` and the bound call path.

A bound call must compute exactly what an unbound call on the same
arrays computes, a bind must refuse exactly what an unbound call
refuses, and the per-call work a bound call keeps (metadata compare,
fault point, guards, telemetry) must still happen on every call.
"""

from __future__ import annotations

import warnings
from functools import partial

import numpy as np
import pytest
from _helpers import ALL_BACKENDS

from repro import telemetry
from repro.backends.base import CompiledKernel
from repro.core.components import Component
from repro.core.domains import RectDomain
from repro.core.expr import Param
from repro.core.stencil import Stencil, StencilGroup
from repro.core.validate import ValidationError
from repro.core.weights import SparseArray
from repro.hpgmg.problem import setup_problem
from repro.hpgmg.solver import MultigridSolver
from repro.resilience import faults
from repro.resilience.guards import GuardViolation, Guards
from repro.resilience.policy import DegradedExecution

N = 8
SHAPE = (N, N, N)
INTERIOR = RectDomain((1, 1, 1), (-1, -1, -1))
COMPILED = ("c", "openmp")


def _lap(grid: str) -> Component:
    taps = {(0, 0, 0): -6.0}
    for d in range(3):
        for s in (-1, 1):
            off = [0, 0, 0]
            off[d] = s
            taps[tuple(off)] = 1.0
    return Component(grid, SparseArray(taps))


def _center(grid: str) -> Component:
    return Component(grid, SparseArray({(0, 0, 0): 1.0}))


def _group() -> StencilGroup:
    """Two stencils, two params, an in-place update: y = alpha*lap(x) + b,
    then x += w*y."""
    return StencilGroup(
        [
            Stencil(Param("alpha") * _lap("x") + _center("b"), "y", INTERIOR,
                    name="apply"),
            Stencil(_center("x") + Param("w") * _center("y"), "x", INTERIOR,
                    name="update"),
        ],
        name="bind_case",
    )


def _arrays(seed: int = 0) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    return {g: rng.standard_normal(SHAPE) for g in ("x", "y", "b")}


PARAMS = {"alpha": 0.25, "w": -0.125}


def _kernel(backend: str, **kw):
    return _group().compile(
        backend=backend, shapes={g: SHAPE for g in "xyb"}, dtype=np.float64,
        **kw,
    )


@pytest.fixture(autouse=True)
def _clean(monkeypatch):
    monkeypatch.delenv("SNOWFLAKE_FAULTS", raising=False)
    monkeypatch.delenv("SNOWFLAKE_GUARDS", raising=False)
    monkeypatch.delenv("SNOWFLAKE_TELEMETRY", raising=False)
    telemetry.set_mode(None)
    faults.reset()
    yield
    faults.reset()


def _raised(fn) -> type[BaseException] | None:
    try:
        fn()
    except Exception as e:  # noqa: BLE001 - the type is the result
        return type(e)
    return None


# -- bound == unbound, bitwise --------------------------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_group_call_bound_equals_unbound(backend):
    bound, unbound = _arrays(), _arrays()
    kernel = _kernel(backend).bind(**bound)
    for _ in range(2):
        kernel(**PARAMS)
        kernel(**unbound, **PARAMS)
    for g in bound:
        assert np.array_equal(bound[g], unbound[g]), g
    assert not np.array_equal(bound["x"], _arrays()["x"])  # it did run


class _UnboundSolver(MultigridSolver):
    """The solver as it was before binding: every cycle passes the grids."""

    def _bind(self, group, grids):
        kernel = group.compile(
            backend=self.backend,
            shapes={g: a.shape for g, a in grids.items()},
            dtype=self.levels[0].dtype, **self.backend_options,
        )
        return partial(kernel, **grids)


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_solver_history_bound_equals_unbound(backend):
    runs = []
    for cls in (MultigridSolver, _UnboundSolver):
        level, _ = setup_problem(16, ndim=3, coefficients="variable")
        history = cls(level, backend=backend).solve(cycles=2)
        runs.append((history, level.grids["x"].copy()))
    (h_bound, x_bound), (h_unbound, x_unbound) = runs
    assert h_bound == h_unbound
    assert np.array_equal(x_bound, x_unbound)
    assert h_bound[-1] < h_bound[0]


def test_solver_keeps_the_compiled_kernels():
    solver = MultigridSolver(setup_problem(8, ndim=3)[0], backend="c")
    assert all(isinstance(k, CompiledKernel) for k in solver._smooth)
    assert all(isinstance(k, CompiledKernel) for k in solver._restrict)


# -- bind refuses what the unbound call refuses ---------------------------------


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_bind_refuses_missing_grid(backend):
    kernel = _kernel(backend)
    grids = _arrays()
    del grids["b"]
    assert _raised(lambda: kernel(**grids, **PARAMS)) is ValidationError
    assert _raised(lambda: kernel.bind(**grids)) is ValidationError


@pytest.mark.parametrize("backend", ALL_BACKENDS)
def test_bind_refuses_wrong_dtype(backend):
    kernel = _kernel(backend)
    grids = {g: a.astype(np.float32) for g, a in _arrays().items()}
    assert _raised(lambda: kernel(**grids, **PARAMS)) is TypeError
    assert _raised(lambda: kernel.bind(**grids)) is TypeError


@pytest.mark.parametrize("backend", COMPILED)
def test_bind_refuses_aliased_output(backend):
    kernel = _kernel(backend)
    grids = _arrays()
    grids["y"] = grids["x"]
    assert _raised(lambda: kernel(**grids, **PARAMS)) is ValueError
    assert _raised(lambda: kernel.bind(**grids)) is ValueError


@pytest.mark.parametrize("backend", COMPILED)
def test_bind_refuses_non_contiguous(backend):
    kernel = _kernel(backend)
    grids = _arrays()
    grids["b"] = np.asfortranarray(grids["b"])
    assert _raised(lambda: kernel(**grids, **PARAMS)) is ValueError
    assert _raised(lambda: kernel.bind(**grids)) is ValueError


def test_bind_takes_grids_only():
    with pytest.raises(TypeError, match="grids only"):
        _kernel("numpy").bind(**_arrays(), alpha=1.0)


def test_failed_bind_keeps_previous_binding():
    grids = _arrays()
    kernel = _kernel("c").bind(**grids)
    aliased = _arrays()
    aliased["y"] = aliased["x"]
    with pytest.raises(ValueError, match="alias"):
        kernel.bind(**aliased)
    ref = _arrays()
    _kernel("c")(**ref, **PARAMS)
    kernel(**PARAMS)
    assert np.array_equal(grids["x"], ref["x"])


def test_bound_call_checks_params():
    kernel = _kernel("numpy").bind(**_arrays())
    with pytest.raises(ValidationError, match="missing params"):
        kernel(alpha=1.0)
    with pytest.raises(TypeError, match="unexpected argument 'omega'"):
        kernel(**PARAMS, omega=1.0)


def test_unbound_call_leaves_binding_alone():
    bound, other = _arrays(0), _arrays(1)
    kernel = _kernel("c").bind(**bound)
    kernel(**other, **PARAMS)
    assert np.array_equal(bound["x"], _arrays(0)["x"])
    kernel(**PARAMS)
    assert not np.array_equal(bound["x"], _arrays(0)["x"])


# -- per-call work a bound call keeps -------------------------------------------


@pytest.mark.parametrize("backend", ["numpy", *COMPILED])
def test_in_place_reshape_after_bind_raises(backend):
    grids = _arrays()
    kernel = _kernel(backend).bind(**grids)
    before = grids["y"].copy()
    grids["b"].shape = (N * N, N)
    with pytest.raises(ValueError, match="changed in place"):
        kernel(**PARAMS)
    assert np.array_equal(grids["y"], before)


def test_invoke_fault_fires_once_per_bound_call():
    kernel = _kernel("c").bind(**_arrays())
    with faults.inject("backend.invoke", times=None):
        for i in range(3):
            with pytest.raises(faults.InjectedFault):
                kernel(**PARAMS)
            assert faults.fired("backend.invoke") == i + 1
    reached = faults.reached("backend.invoke")
    kernel(**PARAMS)
    assert faults.reached("backend.invoke") == reached + 1


def test_nonfinite_guard_fires_once_per_bound_call():
    telemetry.reset()
    grids = _arrays()
    grids["b"][2, 2, 2] = np.nan
    kernel = _kernel("c", guards=Guards(nonfinite="raise")).bind(**grids)
    for i in range(3):
        with pytest.raises(GuardViolation, match="non-finite"):
            kernel(**PARAMS)
        trips = telemetry.snapshot()["counters"]["guards.trip.nonfinite"]
        assert trips == i + 1


def test_kernel_call_telemetry_once_per_bound_call():
    telemetry.reset()
    kernel = _kernel("c").bind(**_arrays())
    for _ in range(5):
        kernel(**PARAMS)
    assert telemetry.snapshot()["kernels"]["c"]["calls"] == 5


# -- the unbound path rebuilds no name sets --------------------------------------


@pytest.mark.parametrize("backend", ["numpy", "c"])
def test_unbound_calls_rebuild_no_name_sets(backend, monkeypatch):
    kernel = _kernel(backend)
    grids = _arrays()
    kernel(**grids, **PARAMS)  # specialization already cached
    calls = []
    params = Stencil.params

    def counting(self):
        calls.append(self.name)
        return params(self)

    monkeypatch.setattr(Stencil, "params", counting)
    for _ in range(100):
        kernel(**grids, **PARAMS)
    assert calls == []


# -- ResilientKernel.bind ---------------------------------------------------------


def test_resilient_bind_survives_invoke_fault():
    level, _ = setup_problem(16, ndim=3, coefficients="variable")
    reference = MultigridSolver(level, backend="numpy").solve(cycles=3)

    level, _ = setup_problem(16, ndim=3, coefficients="variable")
    solver = MultigridSolver(
        level, backend="c", backend_options={"fallback": ["numpy"]}
    )
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with faults.inject("backend.invoke", times=1):
            history = solver.solve(cycles=3)
    assert faults.fired("backend.invoke") == 1
    assert history == reference
    assert any(issubclass(w.category, DegradedExecution) for w in caught)
    degraded = [k for k in solver._residual + solver._smooth if k.degraded]
    assert [k.serving_backend for k in degraded] == ["numpy"]


def test_resilient_bind_refuses_user_errors():
    kernel = _group().compile(
        backend="c", shapes={g: SHAPE for g in "xyb"}, dtype=np.float64,
        fallback=("numpy",),
    )
    grids = _arrays()
    grids["y"] = grids["x"]
    with pytest.raises(ValueError, match="alias"):
        kernel.bind(**grids)
    assert kernel.attempts == []
