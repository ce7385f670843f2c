"""The two perfbench workloads: set-up, inputs, solves, operators, checks.

Each workload is one fine-grid size ``n`` and one solve backend, and runs
the same program:

* **set-up** — build the variable-coefficient HPGMG level hierarchy and
  compile every kernel: the V(1,1) solver on the solve backend plus the
  three SectionV-B operators (``repro.bench.paper_operators(n)``) on c,
  openmp and numpy;
* **solves** — each takes a fresh seeded rhs and x=0, then runs 10
  V-cycles with a residual norm after each (paper SectionV-A); the
  hand-written ``BaselineMultigrid3D`` (OpenMP iff the solve backend is)
  repeats some of them on the same fine level and the residual histories
  are compared;
* **operator rounds** — every operator once on every backend, on seeded
  inputs, after checking the backends agree bitwise and agree with the
  hand-written kernels; in an untraced run the hand-written kernels
  (serial and OpenMP) follow each operator, timed as its reference.

The program only ever receives arrays; every input is drawn from
``numpy.random.default_rng([seed, purpose, index])`` so the same seed
gives the same inputs however long the measurement runs.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from catalog import OP_BACKENDS

from repro.baselines.kernels_c import BaselineKernels3D
from repro.baselines.mg_c import BaselineMultigrid3D
from repro.bench import paper_operators
from repro.core.stencil import Stencil
from repro.core.validate import iteration_shape
from repro.hpgmg.level import Level
from repro.hpgmg.solver import MultigridSolver
from repro.kernel import kernel_cost

#: V-cycles per solve and smooths per level, as in paper SectionV-A
CYCLES = 10
N_PRE = N_POST = 1

#: SectionV-B operator -> the BaselineKernels3D method that implements it
OP_INDEX = {"cc_7pt": "cc7pt", "cc_jacobi": "jacobi_cc", "vc_gsrb": "gsrb_vc"}

#: agreement required between a Snowflake residual history and the
#: hand-written solver's on the same rhs
HISTORY_RTOL = 1e-9
#: agreement required between an operator and its hand-written kernel,
#: relative to the largest output magnitude (the two sum in different
#: orders, so they differ in the last bits)
HAND_OP_RTOL = 1e-12
#: a V(1,1) solve must cut the residual by at least this factor in 10
#: cycles (measured: 1e-5 at 32^3, 1e-3 at 128^3)
MIN_REDUCTION = 1e-2

_RHS, _OPS, _CHECK = 1, 2, 3  # rng stream purposes


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    backend: str
    #: V-cycles run on numpy and on the solve backend for the bitwise check
    numpy_check_cycles: int
    #: the hand-written solver repeats every ``hand_every``-th rhs
    hand_every: int


WORKLOADS = {
    w.name: w
    for w in (
        # dispatch-bound: most of a 32^3 cycle is spent outside kernels
        Workload("hpgmg-32-c", 32, "c", CYCLES, 2),
        # kernel-bound: grids and operator working sets far exceed L2.  A
        # run makes only about 13 solves, and the hand-written OpenMP
        # solver slows 1.1-2x beside Snowflake's as the host's speed
        # changes, so it repeats every rhs to pair more solves.
        Workload("hpgmg-128-omp", 128, "openmp", 1, 1),
    )
}


# -- set-up ---------------------------------------------------------------------


@dataclass
class Operator:
    stencil: Stencil
    kernels: dict  # backend -> compiled kernel
    points: int


@dataclass
class Setup:
    fine: Level
    solver: MultigridSolver
    ops: dict[str, Operator] = field(default_factory=dict)


def stencil_points(stencil: Stencil, shapes) -> int:
    """Points one application of ``stencil`` updates."""
    return sum(
        r.npoints
        for r in stencil.domain.resolve(iteration_shape(stencil, shapes))
        if not r.is_empty()
    )


def group_bytes(group, shapes) -> float:
    """Bytes one call of a compiled group moves by the analytic cost
    model (compulsory traffic, so *computed*, not measured)."""
    return sum(
        kernel_cost(st).bytes_per_point * stencil_points(st, shapes)
        for st in group
    )


def build(w: Workload) -> Setup:
    """Everything a user pays for before the first solve: the level
    hierarchy and every compiled kernel.  Timed as ``setup_s``."""
    fine = Level(w.n, 3, coefficients="variable")
    solver = MultigridSolver(fine, backend=w.backend, n_pre=N_PRE, n_post=N_POST)
    setup = Setup(fine, solver)
    shape = fine.shape
    for name, stencil in paper_operators(w.n).items():
        shapes = {g: shape for g in stencil.grids()}
        kernels = {
            b: stencil.compile(backend=b, shapes=shapes, dtype=np.float64)
            for b in OP_BACKENDS
        }
        setup.ops[name] = Operator(
            stencil, kernels, stencil_points(stencil, shapes)
        )
    return setup


# -- solves ---------------------------------------------------------------------


def seeded_rhs(n: int, seed: int, index: int) -> np.ndarray:
    return np.random.default_rng([seed, _RHS, index]).standard_normal((n,) * 3)


def load_rhs(level: Level, rhs: np.ndarray) -> None:
    level.grids["rhs"][level.interior] = rhs
    level.zero("x")


def timed_solve(solver, tracer=None) -> tuple[list[float], list[float]]:
    """One paper solve from the loaded rhs and x=0: the residual history
    and the wall time of each cycle (a V-cycle plus its residual norm).
    With a tracer each cycle is a ``cycle`` root span."""
    history = [solver.residual_norm()]
    times = []
    for _ in range(CYCLES):
        idx = tracer.begin("cycle") if tracer is not None else None
        t0 = time.perf_counter()
        solver.v_cycle(0)
        history.append(solver.residual_norm())
        times.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.end(idx)
    return history, times


def history_problem(history: list[float]) -> str | None:
    if not all(np.isfinite(history)):
        return f"non-finite residual history {history}"
    if not history[-1] <= MIN_REDUCTION * history[0]:
        return (
            f"residual fell only {history[-1] / history[0]:.3g}x in "
            f"{CYCLES} cycles"
        )
    return None


def compare_histories(ours: list[float], hand: list[float]) -> str | None:
    worst = max(abs(a - b) / abs(b) for a, b in zip(ours, hand))
    if len(ours) != len(hand) or not worst <= HISTORY_RTOL:
        return (
            f"residual history differs from BaselineMultigrid3D by "
            f"{worst:.3g} relative (limit {HISTORY_RTOL:g})"
        )
    return None


def numpy_check(w: Workload, setup: Setup, seed: int) -> str | None:
    """Bitwise agreement of the solve backend and numpy: same rhs, same
    number of V-cycles, identical residual histories and solutions."""
    fine = setup.fine
    rhs = np.random.default_rng([seed, _CHECK, 0]).standard_normal((w.n,) * 3)

    def run(solver):
        load_rhs(fine, rhs)
        history = [solver.residual_norm()]
        for _ in range(w.numpy_check_cycles):
            solver.v_cycle(0)
            history.append(solver.residual_norm())
        return history, fine.grids["x"].copy()

    ours, x_ours = run(setup.solver)
    reference = MultigridSolver(
        fine, backend="numpy", n_pre=N_PRE, n_post=N_POST
    )
    theirs, x_theirs = run(reference)
    if ours != theirs or not bitwise_equal(x_ours, x_theirs):
        return (
            f"{w.backend} and numpy solutions differ after "
            f"{w.numpy_check_cycles} V-cycles"
        )
    return None


def bitwise_equal(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(
        a.view(np.uint64), b.view(np.uint64)
    )


def hand_solver(w: Workload, fine: Level) -> BaselineMultigrid3D:
    """The hand-written solver on the same fine level (solves never
    overlap, and each starts from a freshly loaded rhs and x = 0)."""
    return BaselineMultigrid3D(
        fine, n_pre=N_PRE, n_post=N_POST, openmp=w.backend == "openmp"
    )


# -- operators ---------------------------------------------------------------------


def _inverse_diagonal(level_shape, h: float, alpha, betas) -> np.ndarray:
    """``1/diag`` of ``alpha*x - div(beta grad x)`` on the interior."""
    inner = tuple(slice(1, -1) for _ in level_shape)
    diag = np.array(alpha[inner], copy=True)
    for d, beta in enumerate(betas):
        hi = tuple(slice(2, None) if k == d else slice(1, -1) for k in range(3))
        diag += (beta[inner] + beta[hi]) / (h * h)
    lam = np.ones(level_shape)
    lam[inner] = 1.0 / diag
    return lam


def op_inputs(name: str, op: Operator, betas: list, seed: int) -> dict:
    """Seeded, physically consistent inputs: the constant-coefficient
    Jacobi reads the true ``1/diag`` and the GSRB sweep reads ``1/diag``
    of its own operator, so repeated application stays bounded.
    ``betas`` are the fine level's face coefficients, shared read-only."""
    rng = np.random.default_rng([seed, _OPS, list(OP_INDEX).index(name)])
    shape = betas[0].shape
    h = 1.0 / (shape[0] - 2)
    arrays = {g: np.zeros(shape) for g in op.stencil.grids()}
    arrays["x"] = rng.standard_normal(shape)
    if "rhs" in arrays:
        arrays["rhs"] = rng.standard_normal(shape)
    if name == "cc_jacobi":
        arrays["lam"] = np.full(shape, h * h / 6.0)
    if name == "vc_gsrb":
        arrays["alpha"] = rng.uniform(0.5, 1.5, shape)
        for d, beta in enumerate(betas):
            arrays[f"beta_{d}"] = beta
        arrays["lam"] = _inverse_diagonal(shape, h, arrays["alpha"], betas)
    return arrays


def hand_out(name: str, arrays: dict) -> np.ndarray:
    """The array the hand-written kernel for ``name`` writes: a fresh
    output, or for the in-place GSRB sweep a copy of ``x``."""
    if name == "vc_gsrb":
        return arrays["x"].copy()
    return np.zeros_like(arrays["x"])


def hand_apply(
    name: str, hand: BaselineKernels3D, arrays: dict, out: np.ndarray, n: int
) -> None:
    """Apply the hand-written kernel for ``name`` to ``arrays``, writing
    ``out`` (see :func:`hand_out`)."""
    h = 1.0 / n
    invh2 = 1.0 / (h * h)
    if name == "cc_7pt":
        hand.cc7pt(out, arrays["x"], n, invh2)
    elif name == "cc_jacobi":
        wlam = (2.0 / 3.0) * float(arrays["lam"][1, 1, 1])
        hand.jacobi_cc(out, arrays["x"], arrays["rhs"], n, invh2, wlam)
    else:
        hand.gsrb_vc(
            out, arrays["rhs"], arrays["beta_0"], arrays["beta_1"],
            arrays["beta_2"], arrays["lam"], n, invh2, 0,
        )


def _hand_output(name: str, arrays: dict, n: int, hand: BaselineKernels3D):
    out = hand_out(name, arrays)
    hand_apply(name, hand, arrays, out, n)
    return out


def op_checks(
    name: str, op: Operator, arrays: dict, n: int, hand: BaselineKernels3D
) -> list[str]:
    """Backends bitwise-equal on ``arrays``; Snowflake equal to the
    hand-written kernel within ``HAND_OP_RTOL``.  The hand GSRB has no
    ``alpha`` term, so that comparison runs with ``alpha = 0`` and the
    matching ``1/diag``."""
    problems = []
    out = op.stencil.output
    results = {}
    for b, kernel in op.kernels.items():
        mine = dict(arrays)
        mine[out] = arrays[out].copy()
        kernel(**mine)
        results[b] = mine[out]
    ref = results[OP_BACKENDS[0]]
    for b, got in results.items():
        if not bitwise_equal(got, ref):
            problems.append(f"{name}: {b} differs bitwise from {OP_BACKENDS[0]}")
    hand_in = dict(arrays)
    if name == "vc_gsrb":
        hand_in["alpha"] = np.zeros_like(arrays["alpha"])
        hand_in["lam"] = _inverse_diagonal(
            arrays["x"].shape, 1.0 / n, hand_in["alpha"],
            [arrays[f"beta_{d}"] for d in range(3)],
        )
        hand_in[out] = arrays[out].copy()
        op.kernels[OP_BACKENDS[0]](**hand_in)
        ours = hand_in[out]
        hand_in[out] = arrays[out]
    else:
        ours = ref
    theirs = _hand_output(name, hand_in, n, hand)
    inner = (slice(1, -1),) * 3
    scale = float(np.max(np.abs(theirs[inner])))
    worst = float(np.max(np.abs(ours[inner] - theirs[inner])))
    if not worst <= HAND_OP_RTOL * scale:
        problems.append(
            f"{name}: differs from BaselineKernels3D.{OP_INDEX[name]} by "
            f"{worst / scale:.3g} relative (limit {HAND_OP_RTOL:g})"
        )
    return problems


@dataclass
class HandReference:
    """The hand-written kernels timed next to the operators: one
    ``BaselineKernels3D`` per flavour and the arrays they write."""

    n: int
    kernels: dict  # flavour -> BaselineKernels3D
    outs: dict  # operator -> array written by hand_apply


def op_round(
    ops: dict[str, Operator], inputs: dict[str, dict], samples: dict,
    tracer=None, hand: HandReference | None = None,
) -> None:
    """Call every (operator, backend) once, appending each call's wall time
    to ``samples[(operator, backend)]``; with a tracer each call is an
    ``op`` root span tagged ``(operator, backend)``.  With ``hand`` each
    operator's hand-written kernel of every flavour follows its backends,
    timed into ``samples[(operator, "hand-" + flavour)]``."""
    for name, op in ops.items():
        arrays = inputs[name]
        for b in OP_BACKENDS:
            kernel = op.kernels[b]
            idx = tracer.begin("op", (name, b)) if tracer else None
            t0 = time.perf_counter()
            kernel(**arrays)
            samples.setdefault((name, b), []).append(time.perf_counter() - t0)
            if tracer:
                tracer.end(idx)
        if hand is None:
            continue
        for flavour, kernels in hand.kernels.items():
            t0 = time.perf_counter()
            hand_apply(name, kernels, arrays, hand.outs[name], hand.n)
            samples.setdefault((name, f"hand-{flavour}"), []).append(
                time.perf_counter() - t0
            )
