"""The narrow frontend/backend interface (paper SectionIV, Fig.5).

A micro-compiler is anything implementing :class:`Backend`: it receives a
:class:`~repro.core.stencil.StencilGroup` (whose bodies are already
lowered to canonical flat form) plus concrete shapes, and returns a
Python callable.  Everything platform-specific lives behind this
interface, so *"the compiler expert is only needed when additional
optimizations are requested or unsupported backends are needed"* — users
register their own backends with :func:`register_backend`.
"""

from __future__ import annotations

import abc
import time
from collections.abc import Mapping
from typing import Callable, Sequence

import numpy as np

from .. import telemetry
from ..core.stencil import StencilGroup
from ..core.validate import (
    ValidationError,
    check_grids,
    check_group,
    iteration_shape,
)
from ..resilience.faults import InjectedFault, fault_point
from ..resilience.guards import Guards

__all__ = [
    "Backend",
    "BoundGrids",
    "CompiledKernel",
    "register_backend",
    "get_backend",
    "available_backends",
]


class BoundGrids(Mapping):
    """The grids one binding of a :class:`CompiledKernel` runs on.

    An immutable name -> ndarray mapping, handed to the backend as the
    ``arrays`` of ``impl(arrays, params)``.  ``args`` is what the
    backend's marshaller built from these arrays at bind time (for C
    and OpenMP the ctypes pointer and param blocks), or ``None`` when
    the backend takes the arrays as they are.  ``args`` stays valid
    because the mapping holds a reference to every array it points
    into.
    """

    __slots__ = ("_arrays", "_values", "_meta", "_args")

    def __init__(self, arrays: Mapping[str, np.ndarray], args=None) -> None:
        self._arrays = dict(arrays)
        self._values = tuple(self._arrays.values())
        self._meta = self._metadata()
        self._args = args

    @property
    def args(self):
        return self._args

    def _metadata(self) -> list[tuple]:
        return [(a.shape, a.strides, a.dtype) for a in self._values]

    def check_metadata(self) -> None:
        """Raise ``ValueError`` if a bound array's shape, strides or dtype
        changed in place since the binding was made."""
        if self._metadata() == self._meta:
            return
        for g, a, (shape, strides, dtype) in zip(
            self._arrays, self._values, self._meta
        ):
            if (a.shape, a.strides, a.dtype) != (shape, strides, dtype):
                raise ValueError(
                    f"bound grid {g!r} changed in place from shape {shape} "
                    f"strides {strides} dtype {dtype} to shape {a.shape} "
                    f"strides {a.strides} dtype {a.dtype}; bind the kernel "
                    "again"
                )

    def __getitem__(self, name: str) -> np.ndarray:
        return self._arrays[name]

    def __iter__(self):
        return iter(self._arrays)

    def __len__(self) -> int:
        return len(self._arrays)


class CompiledKernel:
    """A compiled stencil group wrapped as a Python callable.

    Calling convention: keyword arguments name the grids (numpy arrays,
    mutated in place for outputs) and the scalar params.  Lazy shape
    specialization: when built without ``shapes``, the first call binds
    them and the specialized kernel is cached per shape tuple.

    Bind once, call many: :meth:`bind` runs every argument check once
    and attaches the grids to the kernel, after which ``kernel(**params)``
    does only per-call work.  An unbound call is bind-then-call on the
    grids it is given, and leaves any attached binding alone.

    Runtime guards (:class:`~repro.resilience.guards.Guards`) attach at
    compile time (``compile(..., guards=...)``) or globally via the
    ``SNOWFLAKE_GUARDS`` environment variable; the specialize and invoke
    paths carry the ``backend.specialize`` / ``backend.invoke``
    fault-injection sites.
    """

    def __init__(
        self,
        group: StencilGroup,
        specialize: Callable[[Mapping[str, tuple[int, ...]], np.dtype], Callable],
        shapes: Mapping[str, Sequence[int]] | None,
        dtype,
        guards: Guards | None = None,
        backend_name: str | None = None,
        marshaller: Callable | None = None,
    ) -> None:
        self.group = group
        self.backend_name = backend_name
        self.guards = guards if guards is not None else Guards.from_env()
        self._label = backend_name or "backend"
        self._outputs = {s.output for s in group}
        self._grid_names = frozenset(group.grids())
        self._param_names = frozenset(group.params())
        self._specialize = specialize
        self._marshaller = marshaller
        self._cache: dict[tuple, tuple] = {}
        self._binding: tuple | None = None
        self._pinned_dtype = np.dtype(dtype) if dtype is not None else None
        if shapes is not None:
            norm = {g: tuple(int(x) for x in s) for g, s in shapes.items()}
            dt = self._pinned_dtype or np.dtype(np.float64)
            self._get_impl(norm, dt)

    def _key(self, shapes: Mapping[str, tuple[int, ...]], dtype) -> tuple:
        return (tuple(sorted(shapes.items())), np.dtype(dtype).str)

    def _points(self, shapes: Mapping[str, tuple[int, ...]]) -> int:
        """Stencil applications of one call — the numerator of points/s."""
        total = 0
        for stencil in self.group:
            it_shape = iteration_shape(stencil, shapes)
            total += sum(
                r.npoints
                for r in stencil.domain.resolve(it_shape)
                if not r.is_empty()
            )
        return total

    def _get_impl(self, shapes, dtype) -> tuple[Callable, int, Callable | None]:
        """``(impl, points, marshal)`` of one shape/dtype specialization."""
        key = self._key(shapes, dtype)
        entry = self._cache.get(key)
        if entry is None:
            check_group(self.group, shapes)
            if fault_point("backend.specialize"):
                raise InjectedFault(
                    f"injected fault: specialize {self._label} for "
                    f"{sorted(shapes)}"
                )
            name = self._label
            t0 = time.perf_counter()
            with telemetry.tracing.span(
                f"specialize:{self.group.name}", cat="kernel",
                backend=name, shapes=len(shapes),
            ):
                impl = self._specialize(shapes, np.dtype(dtype))
            telemetry.record_time(
                f"backend.{name}.specialize", time.perf_counter() - t0
            )
            telemetry.event(
                "backend.specialize", backend=name, group=self.group.name
            )
            marshal = (
                self._marshaller(self.group, shapes, np.dtype(dtype))
                if self._marshaller is not None else None
            )
            entry = (impl, self._points(shapes), marshal)
            self._cache[key] = entry
        return entry

    def _make_binding(self, grids: Mapping[str, object]) -> tuple:
        """Every check on ``grids``, then ``(BoundGrids, impl, points)``."""
        arrays = {g: np.asarray(a) for g, a in grids.items()}
        dt = check_grids(self._grid_names, arrays)
        if self._pinned_dtype is not None and dt != self._pinned_dtype:
            raise TypeError(
                f"kernel compiled for dtype {self._pinned_dtype}, got {dt}"
            )
        shapes = {g: a.shape for g, a in arrays.items()}
        impl, points, marshal = self._get_impl(shapes, dt)
        args = marshal(arrays) if marshal is not None else None
        return BoundGrids(arrays, args), impl, points

    def bind(self, **grids) -> "CompiledKernel":
        """Check ``grids`` once and attach them; returns the kernel.

        Runs every check an unbound call runs (names, dtypes, shapes
        against the stencils, the backend's layout checks), resolves
        the shape specialization and lets the backend build its
        foreign-call arguments.  Afterwards ``kernel(**params)`` runs on
        these arrays.  The binding holds references to the arrays: bind
        again after replacing one.  A failed bind keeps the previous
        binding.
        """
        unknown = grids.keys() - self._grid_names
        if unknown:
            raise TypeError(
                f"bind takes grids only; unexpected {sorted(unknown)}, "
                f"grids are {sorted(self._grid_names)}"
            )
        self._binding = self._make_binding(grids)
        return self

    def _params(self, kwargs: dict) -> dict[str, float]:
        if kwargs.keys() != self._param_names:
            for k in kwargs:
                if k not in self._param_names:
                    raise TypeError(
                        f"unexpected argument {k!r}; grids are "
                        f"{sorted(self._grid_names)}, params are "
                        f"{sorted(self._param_names)}"
                    )
            missing = sorted(self._param_names - kwargs.keys())
            raise ValidationError(f"missing params at call time: {missing}")
        return {k: float(v) for k, v in kwargs.items()}

    def __call__(self, **kwargs) -> None:
        """``kernel(**params)`` runs on the bound grids;
        ``kernel(**grids, **params)`` is bind-then-call on ``grids`` for
        this call only."""
        binding = self._binding
        if binding is not None and self._param_names.issuperset(kwargs):
            params = self._params(kwargs)
            binding[0].check_metadata()
        else:
            grids = {
                g: kwargs.pop(g) for g in self._grid_names.intersection(kwargs)
            }
            params = self._params(kwargs)
            binding = self._make_binding(grids)
        arrays, impl, points = binding
        if fault_point("backend.invoke"):
            raise InjectedFault(
                f"injected fault: invoke {self._label} kernel for "
                f"{self.group.name!r}"
            )
        before = self.guards.snapshot_invariants(arrays)
        with telemetry.tracing.span(
            f"kernel:{self.group.name}", cat="kernel",
            backend=self._label, points=points,
        ):
            if telemetry.enabled():
                t0 = time.perf_counter()
                impl(arrays, params)
                telemetry.kernel_call(
                    self._label, time.perf_counter() - t0, points
                )
            else:
                impl(arrays, params)
        self.guards.check_invariants(before, arrays)
        self.guards.scan_nonfinite(arrays, self._outputs)

    @property
    def specializations(self) -> int:
        """Number of shape/dtype specializations compiled so far."""
        return len(self._cache)


class Backend(abc.ABC):
    """A Snowflake micro-compiler."""

    #: registry name, e.g. ``"openmp"``
    name: str = "abstract"

    #: does this micro-compiler need a working system toolchain?  The
    #: fallback policy and ``python -m repro doctor`` use this to pick
    #: degradation targets and to thread compile timeouts.
    requires_toolchain: bool = False

    #: declared scheduling knobs (name -> default) drawn from the single
    #: :class:`repro.schedule.ScheduleOptions` vocabulary.  ``None``
    #: means the backend manages its own options (user-registered
    #: backends); the built-in six all declare a subset, validated in
    #: one place by :func:`repro.schedule.pop_schedule_spec`.
    _KNOBS: Mapping[str, object] | None = None

    @abc.abstractmethod
    def specializer(
        self, group: StencilGroup, **options
    ) -> Callable[[Mapping[str, tuple[int, ...]], np.dtype], Callable]:
        """Return a function that shape-specializes the group.

        The returned function is invoked once per distinct (shapes,
        dtype) combination and must return
        ``impl(arrays: Mapping[str, ndarray], params: dict[str, float])``.
        Called through :class:`CompiledKernel`, ``arrays`` is a
        :class:`BoundGrids` carrying what :meth:`marshaller` built.
        """

    def marshaller(
        self, group: StencilGroup, shapes: Mapping[str, tuple[int, ...]], dtype
    ) -> Callable[[Mapping[str, np.ndarray]], object] | None:
        """The bind step of one shape/dtype specialization, or ``None``.

        A backend whose ``impl`` crosses a foreign-call boundary returns
        ``marshal(arrays) -> args``: it checks the arrays against the
        compiled layout and prebuilds the call's arguments.
        :meth:`CompiledKernel.bind` runs it once per binding and hands
        ``impl`` a :class:`BoundGrids` whose ``args`` is the result.
        The default (``None``) passes the arrays through unmarshalled.
        """
        return None

    def artifact_info(
        self,
        group: StencilGroup,
        shapes: Mapping[str, Sequence[int]],
        dtype=None,
        **options,
    ) -> dict | None:
        """Provenance of the artifact :meth:`compile` would produce.

        JIT backends return ``{"backend", "cache_key", "source_path",
        "artifact_path", "cached", "source_bytes"}`` (in-process program
        generators add ``"in_process": True`` and omit paths); pure
        interpreter backends return ``None``.  Must not compile anything
        — provenance queries (:mod:`repro.explain`) stay cheap.
        """
        return None

    def compile(
        self,
        group: StencilGroup,
        shapes: Mapping[str, Sequence[int]] | None = None,
        dtype=None,
        guards: Guards | None = None,
        **options,
    ) -> CompiledKernel:
        return CompiledKernel(
            group,
            self.specializer(group, **options),
            shapes,
            dtype,
            guards=guards,
            backend_name=self.name,
            marshaller=self.marshaller,
        )


_REGISTRY: dict[str, Backend] = {}


def register_backend(backend: Backend, *aliases: str) -> None:
    """Add a micro-compiler to the registry (user-extensible, Fig.5)."""
    for key in (backend.name, *aliases):
        if not key:
            raise ValueError("backend name must be non-empty")
        _REGISTRY[key] = backend


def get_backend(name: str) -> Backend:
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown backend {name!r}; available: {sorted(_REGISTRY)}"
        ) from None


def available_backends() -> list[str]:
    return sorted(_REGISTRY)
