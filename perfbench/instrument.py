"""Span wrappers around the public entry points of each layer.

The traced run installs these from outside the program: nothing under
``src/`` knows it is being traced.  Layers and the calls that bound them:

- ``level``: ``hpgmg.level.Level.__init__``, ``.norm`` and ``.zero``;
- ``compile``: ``core.stencil.StencilGroup.compile`` (layer *pipeline*);
- ``jit``: ``backends.c_backend.compile_and_load``;
- ``cc``: ``subprocess.run`` during set-up, i.e. the C compiler;
- ``driver``: the ``hpgmg.solver.MultigridSolver`` cycle methods;
- ``dispatch``: ``backends.base.CompiledKernel.__call__``;
- ``kernel``: the backend's specialised callable.

The specialised callable is reached through ``Backend.specializer``
(patched on the registered backend instances), so only kernels compiled
while :meth:`Instrumentation.install_setup` is active carry kernel
spans.  The C and OpenMP backends import ``compile_and_load`` by name,
which is why that binding is the one wrapped.
"""

from __future__ import annotations

import functools
import subprocess

from spantree import Tracer

from repro.backends import c_backend, get_backend
from repro.backends.base import CompiledKernel
from repro.core.stencil import StencilGroup
from repro.hpgmg.level import Level
from repro.hpgmg.solver import MultigridSolver

_MISSING = object()

#: MultigridSolver method -> the (operation, level) tag of its span
SOLVER_TAGS = {
    "v_cycle": lambda self, k=0, *a, **kw: ("v_cycle", k),
    "smooth": lambda self, k, *a, **kw: ("smooth", k),
    "residual": lambda self, k, *a, **kw: ("residual", k),
    "restrict_residual": lambda self, k, *a, **kw: ("restrict", k),
    "interpolate_correction": lambda self, k, *a, **kw: ("interp", k),
    "bottom_solve": lambda self, *a, **kw: ("bottom", len(self.levels) - 1),
    "residual_norm": lambda self, *a, **kw: ("norm", 0),
}


class Instrumentation:
    """Installs and removes span wrappers; every patch is undone by
    :meth:`uninstall`."""

    def __init__(self, tracer: Tracer, backends: tuple[str, ...]) -> None:
        self.tracer = tracer
        self.backends = backends
        #: id(CompiledKernel) -> (group, shapes) for kernels compiled traced
        self.compiled: dict[int, tuple] = {}
        self._undo: list[tuple] = []

    # -- patching -----------------------------------------------------------

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, vars(owner).get(attr, _MISSING)))
        setattr(owner, attr, value)

    def _span(self, name: str, fn, tag=None):
        tracer = self.tracer

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer.begin(name, tag(*args, **kwargs) if tag else None)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.end(idx)

        return wrapper

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, old = self._undo.pop()
            if old is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, old)

    # -- set-up layers --------------------------------------------------------

    def install_setup(self) -> None:
        self._patch(Level, "__init__", self._span("level", Level.__init__))
        compiled = self.compiled
        group_compile = StencilGroup.compile

        def compile_(group, backend="numpy", shapes=None, *args, **kwargs):
            kernel = group_compile(group, backend, shapes, *args, **kwargs)
            compiled[id(kernel)] = (group, shapes)
            return kernel

        self._patch(
            StencilGroup, "compile",
            self._span("compile", functools.wraps(group_compile)(compile_)),
        )
        self._patch(
            c_backend, "compile_and_load",
            self._span(
                "jit", c_backend.compile_and_load,
                tag=lambda source, *a, **kw: len(source),
            ),
        )
        self._patch(subprocess, "run", self._span("cc", subprocess.run))
        for name in self.backends:
            backend = get_backend(name)
            self._patch(
                backend, "specializer", self._traced_specializer(backend)
            )

    def _traced_specializer(self, backend):
        tracer = self.tracer
        specializer = backend.specializer

        def traced_specializer(group, **options):
            specialize = specializer(group, **options)

            def traced_specialize(shapes, dtype):
                impl = specialize(shapes, dtype)

                def traced_impl(arrays, params):
                    idx = tracer.begin("kernel")
                    try:
                        return impl(arrays, params)
                    finally:
                        tracer.end(idx)

                return traced_impl

            return traced_specialize

        return traced_specializer

    # -- call-time layers -----------------------------------------------------

    def install_calls(self) -> None:
        self._patch(
            CompiledKernel, "__call__",
            self._span(
                "dispatch", CompiledKernel.__call__,
                tag=lambda self, **kw: id(self),
            ),
        )
        for attr, tag in SOLVER_TAGS.items():
            self._patch(
                MultigridSolver, attr,
                self._span("driver", getattr(MultigridSolver, attr), tag),
            )
        for attr in ("norm", "zero"):
            self._patch(Level, attr, self._span("level", getattr(Level, attr)))
