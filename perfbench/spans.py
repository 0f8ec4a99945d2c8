"""Span tracing around the public functions of each trapnets module.

Tracing lives entirely in the benchmark: :meth:`Tracer.install` replaces the
functions, methods and cached properties listed in ``TARGETS`` with
wrappers that record one span per call (name, start, end, parent span) in
memory, and puts the originals back on :meth:`Tracer.uninstall`.  Nothing
under ``src/`` changes, and an untraced run never imports this module.

A layer's self time is its span time minus the time covered by its
wrapped children; calls nest on one thread, so the children of a span never
overlap and the subtraction is a plain sum.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

# (module, attribute or "Class.attribute", span name).  Every module-level
# binding of a wrapped function inside the trapnets package is replaced, so
# calls through names imported with ``from .x import y`` are traced too.
TARGETS = (
    ("dynamics", "Generator._spectral", "dynamics.spectral_build"),
    ("dynamics", "Generator.kernel_row", "dynamics.kernel_row"),
    ("dynamics", "Generator.kernel_diagonal", "dynamics.kernel_diagonal"),
    ("dynamics", "aging_phi", "dynamics.aging_phi"),
    ("dynamics", "subaging_psi", "dynamics.subaging_psi"),
    ("dynamics", "simulate_path", "dynamics.simulate_path"),
    ("dynamics", "simulate_marginal", "dynamics.simulate_marginal"),
    ("dynamics", "exit_time_bound_check", "dynamics.exit_time_bound_check"),
    ("dynamics", "return_probability_bounds_check", "dynamics.return_probability_bounds_check"),
    ("measures", "prohorov", "measures.prohorov"),
    ("measures", "vague_distance", "measures.vague_distance"),
    ("measures", "dis_measure_distance", "measures.dis_measure_distance"),
    ("measures", "local_hausdorff", "measures.local_hausdorff"),
    ("ensembles", "er_largest_component", "ensembles.er_largest_component"),
    ("ensembles", "sierpinski", "ensembles.sierpinski"),
    ("networks", "build_network", "networks.build_network"),
    ("networks", "ElectricalNetwork.resistance_matrix", "networks.resistance_matrix"),
    ("networks", "boundary_resistance", "networks.boundary_resistance"),
    ("traps", "truncated_prm", "traps.truncated_prm"),
    ("traps", "TrapLaw.quantile", "traps.quantile"),
    ("rng", "RngStream.generator", "rng.generator"),
    ("experiments", "run_two_point_experiment", "experiments.runner"),
    ("experiments", "run_trap_convergence", "experiments.runner"),
    ("experiments", "run_metric_convergence", "experiments.runner"),
    ("experiments", "bootstrap_ci", "experiments.bootstrap_ci"),
    ("experiments", "ResultTable.to_csv", "experiments.to_csv"),
)

# The jump-chain entry points; their random generator is counted per jump.
JUMP_CHAIN = ("dynamics.simulate_path", "dynamics.simulate_marginal",
              "dynamics.exit_time_bound_check", "dynamics.return_probability_bounds_check")
ROUND = "bench.round"


class _CountingRng:
    """Delegates to a numpy generator and counts scalar ``random()`` draws.

    In every Gillespie loop of trapnets a jump draws exactly one scalar
    uniform (the jump target) after its exponential holding time, so the
    count is the number of jumps.
    """

    def __init__(self, rng, counts):
        self._rng = rng
        self._counts = counts

    def random(self, *args, **kwargs):
        if not args and not kwargs:
            self._counts["dynamics.jumps"] += 1
        return self._rng.random(*args, **kwargs)

    def exponential(self, *args, **kwargs):
        return self._rng.exponential(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index]
        self.counts = defaultdict(int)
        self.round_counts = []   # one counts dict per round
        self._stack = []
        self._undo = []

    def begin(self, name: str) -> int:
        sid = len(self.spans)
        if name == ROUND:
            self.counts = defaultdict(int)
            self.round_counts.append(self.counts)
        self.spans.append([name, time.perf_counter(), None, self._stack[-1] if self._stack else -1])
        self._stack.append(sid)
        return sid

    def end(self, sid: int) -> None:
        self.spans[sid][2] = time.perf_counter()
        self._stack.pop()

    # -- installation ------------------------------------------------------

    def _wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name in JUMP_CHAIN:
                args, kwargs = tracer._counting_rng(fn, args, kwargs)
            sid = tracer.begin(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(sid)
            if counter is not None:
                counter(tracer.counts, args, result)
            return result

        return wrapper

    def _counting_rng(self, fn, args, kwargs):
        from trapnets.rng import RngStream

        names = fn.__code__.co_varnames[:fn.__code__.co_argcount]
        pos = names.index("rng_or_stream")
        args = list(args)
        if pos < len(args):
            value = args[pos]
        else:
            value = kwargs.get("rng_or_stream")
        if isinstance(value, RngStream):
            value = _CountingRng(value.generator(), self.counts)
        if value is not None:
            if pos < len(args):
                args[pos] = value
            else:
                kwargs = dict(kwargs, rng_or_stream=value)
        return tuple(args), kwargs

    def install(self) -> None:
        modules = [m for k, m in sys.modules.items()
                   if k == "trapnets" or k.startswith("trapnets.")]
        for mod_name, attr, span in TARGETS:
            module = sys.modules["trapnets." + mod_name]
            counter = _COUNTERS.get(span)
            if "." in attr:
                cls_name, member = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[member]
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(
                        self._wrap(span, original.func, counter))
                    replacement.__set_name__(cls, member)
                else:
                    replacement = self._wrap(span, original, counter)
                setattr(cls, member, replacement)
                self._undo.append((cls, member, original))
                continue
            original = getattr(module, attr)
            replacement = self._wrap(span, original, counter)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, replacement)
                        self._undo.append((mod, key, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- reporting ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"spans": self.spans, "round_counts": self.round_counts}, fh)

    def per_round(self) -> list:
        """Per round: (round seconds, {span: calls}, {span: self seconds})."""
        children = defaultdict(float)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                children[parent] += end - start
        rounds = []
        current = None
        for sid, (name, start, end, parent) in enumerate(self.spans):
            if name == ROUND:
                current = (end - start, defaultdict(int), defaultdict(float))
                rounds.append(current)
                continue
            if current is None:
                continue
            current[1][name] += 1
            current[2][name] += (end - start) - children[sid]
        return rounds


def _count_spectral(counts, args, result):
    counts["dynamics.spectral_vertices"] += args[0].net.n_vertices


def _count_prohorov(counts, args, result):
    counts["measures.prohorov.atoms"] += len(args[0].atoms) + len(args[1].atoms)


def _count_er(counts, args, result):
    counts["ensembles.er_vertices"] += result.n_vertices


def _count_prm(counts, args, result):
    counts["traps.prm_atoms"] += len(result.atoms)


_COUNTERS = {
    "dynamics.spectral_build": _count_spectral,
    "measures.prohorov": _count_prohorov,
    "ensembles.er_largest_component": _count_er,
    "traps.truncated_prm": _count_prm,
}
