"""In-memory span tracer for the traced benchmark run.

The benchmark wraps public entnoise functions at their module boundary: every
attribute of a loaded ``entnoise`` module that is bound to a listed function is
replaced, so names that other modules imported (``entnoise.entanglement.propagate``,
``entnoise.cli.run_noise_test`` and so on) are wrapped too and nested calls land
under the right parent span. Nothing is wrapped outside a traced run: the
untraced runs that give the end-to-end metrics never call :meth:`Tracer.install`.

A span is (name, start, end, parent, item); counters are summed per item.
Spans and counters are recorded only while ``Tracer.item`` is set, so the
output checks, which also call into entnoise, stay out of the trace.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from collections import defaultdict

import numpy as np

# Functions that get one span per call, by module.
SPANNED = {
    "phasespace": ["min_eig_hermitian"],
    "screens": ["is_classical", "moments_from_displacement"],
    "sampling": ["random_classical_screen", "random_nonclassical_screen", "random_separable_cov"],
    "dynamics": ["build_dynamics", "accumulated_noise", "propagate", "propagate_grid"],
    "entanglement": ["ppt_margins", "ppt_margin", "entanglement_onset"],
    "noise": ["run_noise_test"],
    "cli": ["cli_main", "build_parser"],
    "fock": ["covariance_of", "moments_numeric", "trotter_evolve"],
}
SEGMENTS = "dynamics.iter_grid_segments"
PACKAGE = "entnoise"


class Span:
    __slots__ = ("index", "name", "start", "end", "parent", "item", "points")

    def __init__(self, index, name, parent, item):
        self.index = index
        self.name = name
        self.parent = parent
        self.item = item
        self.points = 0
        self.start = self.end = time.perf_counter()


class Tracer:
    def __init__(self):
        self.item = None
        self.spans = []
        self.counts = defaultdict(lambda: defaultdict(float))
        self._stack = []
        self._restore = []

    # --- recording ---

    def add(self, name, amount=1):
        if self.item is not None:
            self.counts[self.item][name] += amount

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), name, parent, self.item)
        self.spans.append(span)
        self._stack.append(span.index)
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    def _spanned(self, fn, name, after=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.item is None:
                return fn(*args, **kwargs)
            span = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if after is not None:
                after(span, args, kwargs, result)
            return result

        return wrapper

    def _counted(self, fn, name, amount=lambda result: 1):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            self.add(name, amount(result))
            return result

        return wrapper

    def _segments(self, fn):
        """Generator wrapper: one span per next(), none while the consumer runs."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            inner = fn(*args, **kwargs)
            while True:
                span = self._open(SEGMENTS) if self.item is not None else None
                try:
                    segment = next(inner)
                except StopIteration:
                    return
                finally:
                    if span is not None:
                        self._close(span)
                if span is not None:
                    # segment = (start, stop, gammas (points, *batch, 4, 4))
                    span.points = segment[2].size // 16
                    self.add("dynamics.grid_points", span.points)
                yield segment

        return wrapper

    # --- installation ---

    def _modules(self):
        return [m for name, m in list(sys.modules.items())
                if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, original, wrapper):
        """Rebind every entnoise module attribute that is ``original``."""
        for module in self._modules():
            for attr, value in list(vars(module).items()):
                if value is original:
                    self._set(module, attr, wrapper)

    def install(self):
        mod = {name: importlib.import_module(f"{PACKAGE}.{name}") for name in SPANNED}
        onset_signature = inspect.signature(mod["entanglement"].entanglement_onset)
        after = {
            "entanglement.ppt_margins": lambda span, args, kwargs, result:
                self.add("entanglement.ppt_matrices", np.size(result)),
            "entanglement.ppt_margin": lambda span, args, kwargs, result:
                self.add("entanglement.ppt_matrices"),
            "entanglement.entanglement_onset": lambda span, args, kwargs, result:
                self._onset_waste(span, onset_signature.bind(*args, **kwargs), result),
        }
        for module_name, functions in SPANNED.items():
            for fn_name in functions:
                name = f"{module_name}.{fn_name}"
                original = getattr(mod[module_name], fn_name)
                self._replace(original, self._spanned(original, name, after.get(name)))

        dyn, fock = mod["dynamics"], mod["fock"]
        self._replace(dyn.iter_grid_segments, self._segments(dyn.iter_grid_segments))
        # expm is scipy's: count it separately in each module that calls it
        self._set(dyn, "expm", self._counted(dyn.expm, "dynamics.expm.calls"))
        self._set(fock, "expm", self._counted(fock.expm, "fock.expm.calls"))
        self._replace(fock.carrier_kraus_ops,
                      self._counted(fock.carrier_kraus_ops, "fock.kraus_ops", len))
        stepper = fock.TrotterStepper
        self._set(stepper, "__init__",
                  self._spanned(stepper.__init__, "fock.TrotterStepper.build"))
        self._set(stepper, "apply",
                  self._spanned(stepper.apply, "fock.TrotterStepper.apply", self._apply_flops))

    def uninstall(self):
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _apply_flops(self, span, args, kwargs, result):
        # computed, not measured: four dense N x N complex matmuls of 8 N^3 flops
        n = int(np.prod(args[0].dims))
        self.add("fock.apply_flops", 4 * 8 * n**3)

    def _onset_waste(self, span, bound, result):
        """Count grid points the onset scan computed, and those past its first hit."""
        bound.apply_defaults()
        computed = sum(s.points for s in self.spans[span.index + 1:]
                       if s.parent == span.index and s.name == SEGMENTS)
        if result is None:
            useful = computed
        else:
            times = np.linspace(0.0, bound.arguments["t_max"], bound.arguments["grid"])
            useful = int(np.searchsorted(times, result, side="left")) + 1
        self.add("entanglement.onset_points", computed)
        self.add("entanglement.onset_wasted_points", computed - useful)

    # --- results ---

    def self_ms(self, items):
        """Summed self time (span minus child spans) and call count per name, over ``items``."""
        child = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                child[span.parent] += span.end - span.start
        self_ms = defaultdict(float)
        calls = defaultdict(int)
        for span, covered in zip(self.spans, child):
            if span.item in items:
                self_ms[span.name] += 1e3 * (span.end - span.start - covered)
                calls[span.name] += 1
        return self_ms, calls

    def totals(self, items):
        out = defaultdict(float)
        for item in items:
            for name, value in self.counts.get(item, {}).items():
                out[name] += value
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps({"id": span.index, "name": span.name, "start": span.start,
                                     "end": span.end, "parent": span.parent,
                                     "item": span.item}) + "\n")
            for item, counts in self.counts.items():
                fh.write(json.dumps({"item": item, "counts": dict(counts)}) + "\n")
