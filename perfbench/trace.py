"""Span recorders wrapped around the simulator's public layer calls.

A traced run installs one wrapper per entry of :data:`LAYERS` for the
duration of the traced phase and restores the original objects
afterwards; an untraced run installs nothing.  Each wrapper charges its
wall time to a named layer and counts its calls.  A layer's time is
*inclusive*: it contains the layers it calls.  Re-entrant calls of the
same layer (a subclass ``run`` delegating to its base, a
``line_graph_spec`` building a ``VirtualSpec``) are timed and counted
once, at the outermost call.

The recorder also keeps the time during which *any* span was open, so
the benchmark can report request time that no span covered
(``unattributed_s``): a wrapper that a ``from x import y`` binding
bypasses shows up there as a gap, not as a saving.
"""

from __future__ import annotations

import functools
import importlib
from collections import defaultdict
from time import perf_counter


class Tracer:
    """In-memory per-layer time and call counts."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.extra = defaultdict(int)
        self._depth = defaultdict(int)
        self._open = 0
        self._open_since = 0.0
        self._covered = 0.0

    def covered(self):
        """Seconds during which at least one span was open, so far."""
        if self._open:
            return self._covered + (perf_counter() - self._open_since)
        return self._covered

    def wrap(self, func, layer, on_result=None):
        """``func`` wrapped in a span charged to ``layer``.

        ``on_result(tracer, result)`` runs after the outermost call of
        the layer returns, for counters derived from the result.
        """

        @functools.wraps(func)
        def spanned(*args, **kwargs):
            outer = self._depth[layer] == 0
            if outer:
                self.calls[layer] += 1
            self._depth[layer] += 1
            if self._open == 0:
                self._open_since = perf_counter()
            self._open += 1
            start = perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                end = perf_counter()
                self._depth[layer] -= 1
                self._open -= 1
                if self._open == 0:
                    self._covered += end - self._open_since
                if outer:
                    self.seconds[layer] += end - start
            if outer and on_result is not None:
                on_result(self, result)
            return result

        spanned.perfbench_layer = layer  # tells a wrapper from the original
        return spanned


def _count_uniform_steps(tracer, result):
    tracer.extra["core.steps"] += len(result.steps)


def _count_fused(tracer, result):
    if result is not None:
        tracer.extra["local.roundfuse.fused"] += 1


#: ``(module, owner, attribute, layer, on_result)``.  ``owner`` is ``None``
#: for a module-level name, else the class whose attribute is wrapped.
#: A module name is the one the *caller* looks the function up in, so
#: ``from x import y`` bindings are wrapped where they are used.
LAYERS = (
    ("repro.bench.harness", None, "actual_parameters", "params.oracle", None),
    ("repro.problems.base", "Problem", "is_solution", "problems.verify", None),
    ("repro.core.transformer", "UniformAlgorithm", "run", "core.uniform",
     _count_uniform_steps),
    ("repro.core.randomized", "UniformLasVegas", "run", "core.uniform",
     _count_uniform_steps),
    ("repro.local.engine", None, "run_compiled", "local.engine.run", None),
    ("repro.local.engine", None, "run_batch", "local.engine.round_loop", None),
    ("repro.local.engine", "CompiledGraph", "restrict",
     "local.engine.restrict", None),
    ("repro.local.engine", "CompiledGraph", "apply_delta",
     "local.engine.apply_delta", None),
    ("repro.local.engine", None, "make_engine_kernel",
     "local.batch.kernel_setup", None),
    ("repro.local.batch", None, "stream_keys", "local.batch.stream_keys", None),
    ("repro.local.roundfuse", None, "try_drive", "local.roundfuse.try_drive",
     _count_fused),
    ("repro.local.roundfuse", None, "drive_kernel", "local.roundfuse.drive",
     None),
    ("repro.local.roundfuse", None, "settle", "local.roundfuse.settle", None),
    ("repro.algorithms.matching", None, "line_graph_spec",
     "local.virtual.spec", None),
    ("repro.local.virtual", "VirtualSpec", "__init__", "local.virtual.spec",
     None),
    ("repro.local.virtual", "VirtualSpec", "restricted", "local.virtual.spec",
     None),
    ("repro.core.domain", None, "run_virtual_batch", "local.virtual.run", None),
    ("repro.core.domain", None, "run_virtual_batch_full", "local.virtual.run",
     None),
    ("repro.local.service", "SimulationSession", "mutate",
     "local.service.mutate", None),
    ("repro.local.service", "SimulationSession", "rerun",
     "local.service.rerun", None),
)


def _target(module_name, owner_name):
    module = importlib.import_module(module_name)
    return module if owner_name is None else getattr(module, owner_name)


def install(tracer, layers=LAYERS):
    """Wrap every listed attribute; returns the undo list for :func:`restore`.

    Class attributes are read from the class ``__dict__`` so that the
    exact descriptor (function, classmethod, ...) is put back.
    """
    undo = []
    try:
        for module_name, owner_name, attr, layer, on_result in layers:
            target = _target(module_name, owner_name)
            if owner_name is None:
                original = getattr(target, attr)
            else:
                original = target.__dict__[attr]
            setattr(target, attr, tracer.wrap(original, layer, on_result))
            undo.append((target, attr, original))
    except BaseException:
        restore(undo)
        raise
    return undo


def restore(undo):
    """Put back every original object recorded by :func:`install`."""
    while undo:
        target, attr, original = undo.pop()
        setattr(target, attr, original)

