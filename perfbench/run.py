#!/usr/bin/env python3
"""Snowflake benchmark: HPGMG V(1,1) solves and the SectionV-B operators.

    python3 perfbench/run.py --workload hpgmg-32-c --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1

``--trace 0`` measures the end-to-end metrics with nothing instrumented;
``--trace 1`` wraps the public entry point of every layer in spans and
reports per-layer metrics (see ``instrument.py``).  Each metric is
printed by name with its unit; the last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``.  The full
result — every sample, the checks, the environment block — and the
spans of a traced run are written under ``.perfbench/results/`` at the
repository root.

Exit status: 0 when every correctness check passed, 1 when one failed,
2 when there is no program (``src/repro``) to measure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import benchstats
import catalog
import environment

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"

#: set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
#: untimed solves before each measuring segment: a 128^3 OpenMP cycle runs
#: about 1.5x slower for its first 1.5 s of sustained work on this 2-vCPU
#: VM, then settles
WARMUP_S = 1.5
#: seconds of one block of solves and of one block of operator rounds
SOLVE_BLOCK_S, OPS_BLOCK_S = 1.2, 0.8
#: solves an untraced run makes at least: vcycle_ms.p90 needs 100 cycles
MIN_SOLVES = math.ceil(benchstats.min_samples_for(0.9) / 10)
#: pairs of (untraced, traced) solves a traced run makes at least
MIN_TRACED_SOLVES = 4
#: operator rounds at least.  Numpy at 128^3 takes 0.35 s a round, and one
#: of its calls ranges 0.5-1.3x its median against the hand-written kernel
#: beside it: ten runs of 9-16 rounds spread ``ops_hand_ratio.numpy`` 0.10
MIN_OP_ROUNDS = 20
#: a child set-up compiles about 40 kernels
CHILD_TIMEOUT_S = 150
#: elements per STREAM-dot array (2 x 128 MiB)
STREAM_N = 2**24


class Ledger:
    """Operations attempted and the checks that failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []

    def record(self, what: str, problem: str | None = None) -> None:
        self.attempted += 1
        if problem:
            self.failures.append(f"{what}: {problem}")

    def count(self, n: int) -> None:
        self.attempted += n

    def attempt(self, what: str, fn, *args):
        """Call ``fn`` and return its result; if it raises, record a failed
        operation and return None (the caller records success)."""
        try:
            return fn(*args)
        except Exception as e:  # noqa: BLE001 - every failure is counted
            self.record(what, f"raised {type(e).__name__}: {e}")
            traceback.print_exc(file=sys.stderr)
            return None

    def check(self, what: str, fn, *args) -> None:
        """Record one check: ``fn`` returns a problem or None, or raises."""
        try:
            problem = fn(*args)
        except Exception as e:  # noqa: BLE001 - every failure is counted
            problem = f"raised {type(e).__name__}: {e}"
            traceback.print_exc(file=sys.stderr)
        self.record(what, problem)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def log(msg: str) -> None:
    print(f"[perfbench] {msg}", file=sys.stderr, flush=True)


# -- set-up -------------------------------------------------------------------------


def child_setup(w, workdir: Path) -> dict:
    """One set-up in a fresh interpreter with its own empty JIT cache: the
    in-process JIT keeps loaded libraries, so only a new process pays the
    full first-run cost again."""
    env = dict(os.environ)
    env["SNOWFLAKE_CACHE_DIR"] = tempfile.mkdtemp(prefix="jit-", dir=workdir)
    proc = subprocess.run(
        [sys.executable, str(HERE / "setup_child.py"), w.name],
        env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child set-up failed:\n{proc.stderr}")
    return json.loads(proc.stdout.splitlines()[-1])


def check_setup_counts(counts: list[dict], ledger: Ledger) -> None:
    """The compile count and generated source size are deterministic: if
    two set-ups disagree the benchmark is not measuring one program."""
    for i, c in enumerate(counts[1:], 1):
        ledger.record(
            f"set-up {i} counts",
            None if c == counts[0] else f"{c} != set-up 0's {counts[0]}",
        )
    ledger.record(
        "no persisted tuning winner",
        None if counts[0]["tune_winners"] == 0 else
        f"{counts[0]['tune_winners']} sf_tune_* files in a fresh cache",
    )


# -- phases ---------------------------------------------------------------------------


class Solves:
    """Closed-loop solves, one caller.  The hand-written solver repeats
    every ``w.hand_every``-th rhs.  With ``traced = (solver,
    instrumentation, tracer)`` each untraced solve is paired with a traced
    one on the same rhs, the order alternating."""

    def __init__(self, wl, w, setup, seed, ledger, traced=None) -> None:
        self.wl, self.w, self.setup, self.seed = wl, w, setup, seed
        self.ledger, self.traced = ledger, traced
        self.hand = wl.hand_solver(w, setup.fine)
        self.cycles: list[float] = []
        self.hand_cycles: list[float] = []
        self.traced_cycles: list[float] = []
        self.done = 0

    def warm_up(self) -> None:
        """One untimed solve on every solver, then untimed solves on the
        measured one for ``WARMUP_S``."""
        wl, fine = self.wl, self.setup.fine
        warm = wl.seeded_rhs(self.w.n, self.seed, 0)
        others = [self.hand] + ([self.traced[0]] if self.traced else [])
        for solver in others:
            wl.load_rhs(fine, warm)
            wl.timed_solve(solver)
        until = time.perf_counter() + WARMUP_S
        while time.perf_counter() < until:
            wl.load_rhs(fine, warm)
            wl.timed_solve(self.setup.solver)

    def step(self) -> None:
        """Solve the next rhs (and its hand-written and traced repeats)."""
        i = self.done
        rhs = self.wl.seeded_rhs(self.w.n, self.seed, i)
        order = [self._untraced]
        if self.traced:
            order.insert(i % 2, self._traced)
        histories = [solve(rhs, i) for solve in order]
        if self.traced and None not in histories:
            self.ledger.record(
                f"traced solve {i}",
                None if histories[0] == histories[1] else
                "traced and untraced residual histories differ",
            )
        self.done += 1

    def _run(self, what, solver, rhs, tracer=None):
        self.wl.load_rhs(self.setup.fine, rhs)
        return self.ledger.attempt(what, self.wl.timed_solve, solver, tracer)

    def _untraced(self, rhs, i):
        wl = self.wl
        solved = self._run(f"solve {i}", self.setup.solver, rhs)
        if solved is None:
            return None
        history, times = solved
        self.cycles.extend(times)
        problem = wl.history_problem(history)
        if i % self.w.hand_every == 0:
            hand = self._run(f"hand solve {i}", self.hand, rhs)
            if hand is not None:
                self.hand_cycles.extend(hand[1])
                problem = problem or wl.compare_histories(history, hand[0])
        self.ledger.record(f"solve {i}", problem)
        return history

    def _traced(self, rhs, i):
        solver, instr, tracer = self.traced
        instr.install_calls()
        try:
            solved = self._run(f"traced solve {i}", solver, rhs, tracer)
        finally:
            instr.uninstall()
        if solved is None:
            return None
        self.traced_cycles.extend(solved[1])
        return solved[0]


class Operators:
    """Round-robin calls of every (operator, backend) on seeded inputs,
    after checking every operator's output once.  Untraced, the
    hand-written kernels are timed beside them (``ops_hand_ratio``)."""

    def __init__(self, wl, w, setup, seed, ledger, tracer=None, instr=None):
        from repro.baselines.kernels_c import BaselineKernels3D

        self.wl, self.setup, self.ledger = wl, setup, ledger
        self.tracer, self.instr = tracer, instr
        betas = [setup.fine.grids[f"beta_{d}"] for d in range(3)]
        self.inputs = {
            name: wl.op_inputs(name, op, betas, seed)
            for name, op in setup.ops.items()
        }
        hand = BaselineKernels3D(openmp=False)
        for name, op in setup.ops.items():
            ledger.check(
                f"{name} outputs",
                lambda: "; ".join(
                    wl.op_checks(name, op, self.inputs[name], w.n, hand)
                ) or None,
            )
        self.hand = None if tracer is not None else wl.HandReference(
            w.n,
            {"serial": hand, "openmp": BaselineKernels3D(openmp=True)},
            {name: wl.hand_out(name, a) for name, a in self.inputs.items()},
        )
        self.samples: dict[tuple[str, str], list[float]] = {}
        self.rounds = 0

    def step(self) -> None:
        if self.instr is not None:
            self.instr.install_calls()
        try:
            self.ledger.attempt(
                f"operator round {self.rounds}", self.wl.op_round,
                self.setup.ops, self.inputs, self.samples, self.tracer,
                self.hand,
            )
        finally:
            if self.instr is not None:
                self.instr.uninstall()
        self.ledger.count(len(self.setup.ops) * len(catalog.OP_BACKENDS))
        self.rounds += 1


def measure(solves: Solves, ops: Operators, seconds: float,
            min_solves: int, min_rounds: int) -> None:
    """After the warm-up, alternate blocks of solves and of operator rounds
    for ``seconds``; past that, run blocks only of the kind still short of
    its minimum count.  Blocks keep the operators cache-warm within a
    block while both kinds of sample span the whole measuring window."""
    solves.warm_up()
    deadline = time.perf_counter() + seconds
    solves_at, rounds_at = solves.done, ops.rounds
    kinds = (
        (solves.step, SOLVE_BLOCK_S, lambda: solves.done - solves_at < min_solves),
        (ops.step, OPS_BLOCK_S, lambda: ops.rounds - rounds_at < min_rounds),
    )
    while time.perf_counter() < deadline or any(short() for _, _, short in kinds):
        for step, block_s, short in kinds:
            if time.perf_counter() >= deadline and not short():
                continue
            until = time.perf_counter() + block_s
            step()
            while time.perf_counter() < until:
                step()


# -- the two kinds of run -------------------------------------------------------------


def op_rates(
    samples: dict[tuple[str, str], list[float]], points: dict[str, int]
) -> dict[str, float]:
    """Per backend, the geometric mean over the operators of points ÷
    median call (``mpts_s``) and of the median, over rounds, of the
    hand-written kernel's call ÷ Snowflake's call in the same round
    (``ops_hand_ratio``): the pair runs back to back, so the host's speed
    cancels."""
    rates = {}
    for b in catalog.OP_BACKENDS:
        hand = f"hand-{catalog.HAND_FLAVOUR[b]}"
        rates[f"mpts_s.{b}"] = benchstats.geomean(
            p / benchstats.median(samples[(op, b)]) / 1e6
            for op, p in points.items()
        )
        rates[f"ops_hand_ratio.{b}"] = benchstats.geomean(
            benchstats.median(
                h / t for t, h in zip(samples[(op, b)], samples[(op, hand)])
            )
            for op in points
        )
    return rates


def split(total: int, k: int) -> int:
    """Segment ``k``'s share of ``total`` over ``SETUPS`` segments."""
    return total // SETUPS + (k < total % SETUPS)


def untraced_run(wl, w, seed, seconds, workdir, ledger) -> tuple[dict, dict]:
    """``SETUPS`` set-ups with one measuring segment after each, so the
    samples are spread over the whole run: on a shared host the machine's
    speed changes by up to 1.8x for tens of seconds at a time."""
    cache = environment.fresh_cache(workdir)
    log(f"{w.name}: set-up 1/{SETUPS}")
    t0 = time.perf_counter()
    setup = wl.build(w)
    setup_s = [time.perf_counter() - t0]
    counts = [environment.cache_contents(cache)]
    rss = {"setup": peak_rss_mb()}
    ledger.check("numpy bitwise solve", wl.numpy_check, w, setup, seed)
    rss["numpy check"] = peak_rss_mb()
    solves = Solves(wl, w, setup, seed, ledger)
    ops = Operators(wl, w, setup, seed, ledger)
    for k in range(SETUPS):
        if k:
            log(f"{w.name}: set-up {k + 1}/{SETUPS} (child process)")
            child = child_setup(w, workdir)
            setup_s.append(child.pop("seconds"))
            counts.append(child)
        log(f"{w.name}: measuring, segment {k + 1}/{SETUPS}")
        measure(
            solves, ops, seconds / SETUPS,
            split(MIN_SOLVES, k), split(MIN_OP_ROUNDS, k),
        )
    check_setup_counts(counts, ledger)
    rss["measurement"] = peak_rss_mb()
    cycles, hand_cycles, samples = solves.cycles, solves.hand_cycles, ops.samples

    dofs = w.n**3
    mdof = dofs * len(cycles) / sum(cycles) / 1e6
    hand_mdof = dofs * len(hand_cycles) / sum(hand_cycles) / 1e6
    vc_ms = [t * 1e3 for t in cycles]
    metrics = {
        "setup_s": benchstats.median(setup_s),
        "vcycle_ms.p50": benchstats.median(vc_ms),
        "vcycle_ms.p90": benchstats.tail_percentile(vc_ms, 0.9),
        "mdof_s": mdof,
        "hand_ratio": mdof / hand_mdof,
    }
    metrics.update(op_rates(
        samples, {name: op.points for name, op in setup.ops.items()}
    ))
    metrics["peak_rss_mb"] = peak_rss_mb()
    detail = {
        "peak_rss_mb_after": rss,
        "setup_s": setup_s,
        "setup_counts": counts,
        "cycle_s": cycles,
        "hand_cycle_s": hand_cycles,
        "operator_call_s": {f"{o}.{b}": v for (o, b), v in samples.items()},
    }
    return metrics, detail


def traced_run(wl, w, seed, seconds, workdir, ledger, spans_path):
    import attribution
    from instrument import Instrumentation
    from spantree import Tracer

    from repro.hpgmg.solver import MultigridSolver
    from repro.kernel import kernel_cost
    from repro.machine.stream import stream_dot_bandwidth

    tracer = Tracer()
    instr = Instrumentation(
        tracer, tuple(dict.fromkeys((w.backend, *catalog.OP_BACKENDS)))
    )
    cache = environment.fresh_cache(workdir)
    log(f"{w.name}: traced set-up")
    instr.install_setup()
    try:
        with tracer.span("setup"):
            setup = wl.build(w)
    finally:
        instr.uninstall()
    setup_metrics, setup_table = attribution.setup_metrics(tracer.spans)
    contents = environment.cache_contents(cache)
    ledger.record(
        "traced compile count",
        None if contents["cc_count"] == setup_metrics["jit.cc_count"] else
        f"{setup_metrics['jit.cc_count']} compiler spans but "
        f"{contents['cc_count']} artifacts in the cache",
    )
    check_setup_counts([contents], ledger)
    kernel_bytes = {
        kid: wl.group_bytes(group, shapes)
        for kid, (group, shapes) in instr.compiled.items()
    }
    # The traced solver keeps its wrapped kernels; the untraced one is
    # rebuilt from the in-process JIT cache, sharing the fine level.
    traced_solver = setup.solver
    setup.solver = MultigridSolver(
        setup.fine, backend=w.backend, n_pre=wl.N_PRE, n_post=wl.N_POST
    )
    ledger.check("numpy bitwise solve", wl.numpy_check, w, setup, seed)
    log(f"{w.name}: measuring, untraced and traced")
    solves = Solves(
        wl, w, setup, seed, ledger, traced=(traced_solver, instr, tracer)
    )
    measure(
        solves, Operators(wl, w, setup, seed, ledger, tracer, instr),
        seconds, MIN_TRACED_SOLVES, MIN_OP_ROUNDS,
    )
    cycles, hand_cycles = solves.cycles, solves.hand_cycles
    traced_cycles = solves.traced_cycles
    level_sizes = [lvl.n for lvl in traced_solver.levels]
    solves = traced_solver = setup.solver = setup.fine = None
    log(f"{w.name}: STREAM dot bandwidth")
    stream_bps = stream_dot_bandwidth(n=STREAM_N, flavor="openmp")

    solve, solve_table, per_cycle = attribution.solve_metrics(
        tracer.spans, level_sizes, kernel_bytes, stream_bps
    )
    ledger.record(
        "dispatch calls per cycle repeat",
        None if len(set(per_cycle)) == 1 else
        f"cycles made {sorted(set(per_cycle))} dispatches",
    )
    ops = attribution.ops_metrics(
        tracer.spans,
        {name: op.points for name, op in setup.ops.items()},
        {
            name: kernel_cost(op.stencil).bytes_per_point
            for name, op in setup.ops.items()
        },
        stream_bps,
    )
    metrics = {
        **setup_metrics,
        **solve,
        "hand.vcycle_ms.p50": benchstats.median(hand_cycles) * 1e3,
        "trace.overhead_frac": (
            benchstats.median(traced_cycles) / benchstats.median(cycles) - 1
        ),
        **ops,
        "stream.gbs": stream_bps / 1e9,
    }
    tracer.write(spans_path)
    detail = {
        "setup_attribution_s": setup_table,
        "cycle_attribution_ms": {k: v * 1e3 for k, v in solve_table.items()},
        "dispatch_calls_per_cycle": sorted(set(per_cycle)),
        "cycle_s": cycles,
        "traced_cycle_s": traced_cycles,
        "hand_cycle_s": hand_cycles,
        "stream_n": STREAM_N,
        "spans": str(spans_path.relative_to(ROOT)),
    }
    return metrics, detail


# -- reporting ---------------------------------------------------------------------


def print_table(title: str, rows: dict[str, tuple[float, str]]) -> None:
    print(title)
    for name, (value, unit) in rows.items():
        print(f"  {name:<40} {value:>16.6g}  {unit}")


def print_attribution(detail: dict) -> None:
    if "setup_attribution_s" in detail:
        total = sum(detail["setup_attribution_s"].values())
        print(f"set-up attribution (s, of {total:.3f} s)")
        for layer, v in detail["setup_attribution_s"].items():
            print(f"  {layer:<14} {v:>10.4f}  {v / total:6.1%}")
        total = sum(detail["cycle_attribution_ms"].values())
        print(f"traced V-cycle attribution (ms/cycle, of {total:.3f} ms)")
        for layer, v in detail["cycle_attribution_ms"].items():
            print(f"  {layer:<14} {v:>10.4f}  {v / total:6.1%}")


def run_workload(wl, w, seed, seconds, trace, workdir, dropped) -> dict:
    ledger = Ledger()
    pressure_before = environment.cpu_pressure()
    env = environment.describe(ROOT, dropped)
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{w.name}-seed{seed}-trace{trace}"
    units = catalog.PER_LAYER if trace else catalog.END_TO_END
    try:
        if trace:
            metrics, detail = traced_run(
                wl, w, seed, seconds, workdir, ledger,
                results / f"{stem}.spans.json.gz",
            )
        else:
            metrics, detail = untraced_run(wl, w, seed, seconds, workdir, ledger)
    except Exception as e:  # noqa: BLE001 - a run that cannot finish fails
        ledger.record("run", f"raised {type(e).__name__}: {e}")
        traceback.print_exc(file=sys.stderr)
        metrics, detail = {}, {}
    ungated = {} if trace else {
        name: metrics.pop(name, math.nan) for name in catalog.UNGATED
    }
    if not trace:
        ungated["failed_frac"] = len(ledger.failures) / ledger.attempted
    if not ledger.failures and set(metrics) != set(units):
        raise RuntimeError(
            f"metrics {sorted(set(metrics) ^ set(units))} not in the catalog"
        )
    env.update(
        seed=seed, workload=w.name, trace=trace, seconds=seconds,
        cpu_pressure_before=pressure_before,
        cpu_pressure_after=environment.cpu_pressure(),
    )
    rows = {name: (metrics[name], units[name]) for name in units if name in metrics}
    print(f"== {w.name}  seed={seed}  trace={trace}")
    print("env " + json.dumps(env, sort_keys=True))
    print_attribution(detail)
    print_table("metrics", rows)
    if ungated:
        print_table("not gated", {
            k: (v, catalog.UNGATED[k]) for k, v in ungated.items()
        })
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    doc = {
        "env": env,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in rows.items()},
        "ungated": ungated,
        "attempted": ledger.attempted,
        "failures": ledger.failures,
        "detail": detail,
    }
    (results / f"{stem}.json").write_text(json.dumps(doc, indent=1))
    return doc


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=12.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure at {SRC}", file=sys.stderr)
        return 2
    dropped = environment.pin()
    sys.path.insert(0, str(SRC))
    import workloads as wl

    import repro

    if not Path(repro.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: imported repro from {repro.__file__}, not {SRC}",
              file=sys.stderr)
        return 2
    if args.workload == "all":
        chosen = list(wl.WORKLOADS.values())
    elif args.workload in wl.WORKLOADS:
        chosen = [wl.WORKLOADS[args.workload]]
    else:
        p.error(f"unknown workload {args.workload!r}; "
                f"choose from {sorted(wl.WORKLOADS)} or all")

    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    os.environ["TMPDIR"] = str(workdir)  # the compiler's scratch files too
    try:
        docs = [
            run_workload(wl, w, args.seed, args.seconds, args.trace,
                         workdir, dropped)
            for w in chosen
        ]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if len(docs) == 1:
        metrics = docs[0]["metrics"]
    else:  # every metric of every workload, prefixed with its name
        metrics = {
            f"{w.name}.{k}": v for w, d in zip(chosen, docs)
            for k, v in d["metrics"].items()
        }
    failed = sum(len(d["failures"]) for d in docs)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": sum(d["attempted"] for d in docs),
        "failed": failed,
        "metrics": metrics,
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
