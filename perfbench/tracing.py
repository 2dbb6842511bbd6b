"""In-memory spans around the public calls of each rtetomo layer.

A :class:`Tracer` records one span per wrapped call: name, start, end,
parent span and job id, plus a few counters taken from the call's
arguments or result.  Nothing inside the package is edited: the
benchmark calls the library through a namespace of (optionally wrapped)
functions, and for jobs that go through ``rtetomo.cli.main`` it swaps
the same wrappers into the ``rtetomo.cli`` module for the duration of
the job.  Span names are ``<layer>.<call>``; the layer is the part
before the dot.
"""

import contextlib
import functools
import os
import time
import types
from pathlib import Path

import rtetomo.boundary
import rtetomo.carleman
import rtetomo.cli
import rtetomo.forward
import rtetomo.geometry
import rtetomo.inverse
import rtetomo.phantom
import rtetomo.recovery
import rtetomo.serialize

LAYERS = ("bench", "cmd", "setup", "forward", "boundary", "inverse", "carleman", "recovery", "serialize")


class Tracer:
    """Spans kept as ``[name, start, end, parent, job, attrs]`` lists."""

    def __init__(self):
        self.spans = []
        self._stack = []
        self.job = None

    @contextlib.contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else -1
        rec = [name, time.perf_counter(), None, parent, self.job, {}]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec[5]
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()

    def wrap(self, name, fn, record=None):
        """``fn`` inside a span; ``record(attrs, args, result)`` may add counters."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as attrs:
                out = fn(*args, **kwargs)
                if record is not None:
                    record(attrs, args, out)
                return out

        return traced

    def self_times(self):
        """Per-span duration minus the time its direct children cover."""
        own = [end - start for _, start, end, _, _, _ in self.spans]
        for _, start, end, parent, _, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def ancestors(self, idx):
        """Names of the spans enclosing span ``idx``, innermost first."""
        names = []
        parent = self.spans[idx][3]
        while parent >= 0:
            names.append(self.spans[parent][0])
            parent = self.spans[parent][3]
        return names

    def rows(self):
        """Spans as JSON-ready dicts, for writing out when the run ends."""
        return [
            {"id": i, "name": n, "start": s, "end": e, "parent": p, "job": j, **a}
            for i, (n, s, e, p, j, a) in enumerate(self.spans)
        ]


def _first_path(args):
    for arg in args:
        if isinstance(arg, (str, os.PathLike)):
            return Path(arg)
    return None


def _bytes_written(attrs, args, _out):
    path = _first_path(args)
    attrs["bytes"] = path.stat().st_size if path is not None and path.exists() else 0


def _steps(attrs, _args, state):
    attrs["steps"] = int(state.iterations)
    attrs["converged"] = bool(state.converged)


# (module, attribute, span name, recorder) for every public call traced.
_CALLS = (
    (rtetomo.phantom, "make_phantom", "setup.phantom", None),
    (rtetomo.forward, "u0_field", "forward.ballistic", None),
    (rtetomo.boundary, "extract_boundary", "boundary.extract", None),
    (rtetomo.boundary, "derive_boundary_data", "boundary.derive", None),
    (rtetomo.boundary, "downsample_boundary", "boundary.downsample", None),
    (rtetomo.inverse, "minimize", "inverse.minimize", _steps),
    (rtetomo.recovery, "recover_attenuation", "recovery.recover", None),
    (rtetomo.recovery, "score", "recovery.score", None),
    (rtetomo.carleman, "gradient_check", "carleman.gradient_check", None),
    (rtetomo.carleman, "convexity_sweep", "carleman.convexity", None),
    (rtetomo.carleman, "empirical_carleman_constant", "carleman.estimate", None),
    (rtetomo.serialize, "read_boundary", "serialize.read", None),
    (rtetomo.serialize, "read_manifest", "serialize.read", None),
    (rtetomo.serialize, "read_reconstruction", "serialize.read", None),
    (rtetomo.serialize, "write_boundary", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_manifest", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_iterations", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_pair", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_reconstruction", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_keyvalues", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_carleman_table", "serialize.write", _bytes_written),
    (rtetomo.serialize, "write_convexity_table", "serialize.write", _bytes_written),
)


def library(tracer=None):
    """Namespace of the public calls the benchmark makes, wrapped in spans
    when a tracer is given.  ``GridSet`` and ``SourceModel`` are stand-ins
    exposing only the constructors the callers use."""
    lib = {attr: getattr(module, attr) for module, attr, _, _ in _CALLS}
    lib["solve_forward"] = rtetomo.forward.solve_forward
    lib["CarlemanObjective"] = rtetomo.inverse.CarlemanObjective
    lib["GridSet"] = rtetomo.geometry.GridSet
    lib["SourceModel"] = rtetomo.forward.SourceModel
    lib["KernelModel"] = rtetomo.forward.KernelModel
    if tracer is not None:
        for _, attr, name, record in _CALLS:
            lib[attr] = tracer.wrap(name, lib[attr], record)
        lib["solve_forward"] = _traced_solve(tracer)
        lib["CarlemanObjective"] = _traced_objective(tracer)
        lib["GridSet"] = types.SimpleNamespace(
            uniform=tracer.wrap("setup.grid", rtetomo.geometry.GridSet.uniform)
        )
        lib["SourceModel"] = types.SimpleNamespace(
            build=tracer.wrap("setup.source", rtetomo.forward.SourceModel.build)
        )
    return types.SimpleNamespace(**lib)


def _traced_solve(tracer):
    solve = rtetomo.forward.solve_forward

    def traced(*args, return_info=False, **kwargs):
        with tracer.span("forward.solve") as attrs:
            field, info = solve(*args, return_info=True, **kwargs)
            attrs["sweeps"] = int(info["sweeps"])
        return (field, info) if return_info else field

    return traced


def _traced_objective(tracer):
    cls = rtetomo.inverse.CarlemanObjective

    def build(*args, **kwargs):
        with tracer.span("inverse.build") as attrs:
            obj = cls(*args, **kwargs)
            attrs["unknowns"] = int(obj.n_free)
        obj.value = tracer.wrap("inverse.value", obj.value)
        obj.value_and_grad = tracer.wrap("inverse.grad", obj.value_and_grad)
        return obj

    return build


@contextlib.contextmanager
def patched_cli(lib):
    """Route the calls ``rtetomo.cli`` makes through ``lib`` for the block.

    Names the CLI module does not import are left alone, so a refactor
    that drops one shows up as a missing span, not as a crash.
    """
    saved = {}
    for name, fn in vars(lib).items():
        if hasattr(rtetomo.cli, name):
            saved[name] = getattr(rtetomo.cli, name)
            setattr(rtetomo.cli, name, fn)
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(rtetomo.cli, name, fn)
