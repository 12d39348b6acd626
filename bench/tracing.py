"""Spans around the package's public functions, taken from outside it.

``Tracer`` keeps spans in memory as [name, start, end, parent, job]. The
hooks below replace a function on every ``epspectra`` module namespace that
binds it (and a method on its class, and the criterion functions held in
``acceptance.CRITERIA``), so calls made through any import path are seen.
``installed`` puts the wrappers in and always restores the originals.

A layer's self time is its spans' duration minus the time their direct
child spans cover; children of one span never overlap because the
workload runs on one thread.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import time

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.counters = {}
        self.job = None
        self._stack = []

    def add(self, name, amount):
        self.counters[name] = self.counters.get(name, 0) + amount

    def wrap(self, fn, name, on_result=None):
        """Wrap ``fn`` in a span called ``name``.

        ``name`` may be a function of the call's result, for spans whose
        layer depends on what was built. ``on_result(result, args, kwargs)``
        runs after the span closes, for its side effects only.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            span = [name, self.clock(), None, parent, self.job]
            self._stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if callable(name):
                    span[NAME] = name(None)
                raise
            finally:
                span[END] = self.clock()
                self._stack.pop()
            if callable(name):
                span[NAME] = name(result)
            if on_result is not None:
                on_result(result, args, kwargs)
            return result

        return mark(traced)

    def self_times(self):
        """Per-name (calls, self seconds, total seconds)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span[PARENT] >= 0:
                child_time[span[PARENT]] += span[END] - span[START]
        out = {}
        for i, span in enumerate(self.spans):
            calls, self_s, total_s = out.get(span[NAME], (0, 0.0, 0.0))
            duration = span[END] - span[START]
            out[span[NAME]] = (calls + 1, self_s + duration - child_time[i], total_s + duration)
        return out

    def write_jsonl(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def mark(fn):
    """Tag a wrapper so that ``leftover_wrappers`` can find it."""
    fn.__bench_traced__ = True
    return fn


def _build_name(result):
    kind = getattr(result, "entry_kind", None)
    return "operators.build_exact" if kind == "exact" else "operators.build_float"


def _hooks(tracer):
    """(module, attribute, replacement factory) for every traced entry point.

    A hook whose target no longer exists is skipped and reported, so the
    traced run keeps working when the package is refactored.
    """

    def span(name, on_result=None):
        return lambda fn: tracer.wrap(fn, name, on_result)

    def refine(result, args, kwargs):
        trajectories, unresolved = result
        grid = kwargs["grid"] if "grid" in kwargs else args[2]
        tracer.add("spectra.refine.inserted",
                   len(trajectories[0].parameters) - len({float(g) for g in grid}))
        tracer.add("spectra.refine.unresolved", len(unresolved))

    def eps_found(result, args, kwargs):
        tracer.add("ep_locator.eps_found", len(result))

    def pair_counter(factory):
        # the factory returns the counting closure; trace the closure's calls
        @functools.wraps(factory)
        def traced_factory(*args, **kwargs):
            return tracer.wrap(factory(*args, **kwargs), "ep_locator.pair_count")

        return mark(traced_factory)

    return [
        ("epspectra.cli", "main", span("cli.main")),
        ("epspectra.operators", "build_generalized_hamiltonian", span(_build_name)),
        ("epspectra.operators", "build_rotated_hamiltonian", span("operators.build_rotated")),
        ("epspectra.operators", "OperatorMatrix.matmul", span("operators.matmul")),
        ("epspectra.exact_poly", "faddeev_leverrier", span("exact_poly.faddeev")),
        ("epspectra.exact_poly", "charpoly_of_tridiagonal", span("exact_poly.continuant")),
        ("epspectra._roots", "polynomial_roots", span("roots.polynomial_roots")),
        ("epspectra.spectra", "eigenvalues", span("spectra.eigenvalues")),
        ("epspectra.spectra", "exact_spectrum", span("spectra.exact_spectrum")),
        ("epspectra.spectra", "classify", span("spectra.classify")),
        ("epspectra.spectra", "match_branches", span("spectra.match_branches")),
        ("epspectra.spectra", "sweep", span("spectra.sweep")),
        ("epspectra.spectra", "matched_sweep", span("spectra.matched_sweep", refine)),
        ("epspectra.ep_locator", "ep_map", span("ep_locator.ep_map")),
        ("epspectra.ep_locator", "locate_eps", span("ep_locator.locate_eps", eps_found)),
        ("epspectra.ep_locator", "_pair_count_fn", pair_counter),
        ("epspectra.ep_locator", "_exact_count", span("ep_locator.exact_count")),
        ("epspectra.newton_polygon", "analyze_unfolding", span("newton_polygon.analyze")),
    ]


def _package_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "epspectra" or name.startswith("epspectra."))]


@contextlib.contextmanager
def installed(tracer):
    """Install every hook for the duration of the block; yields missing hooks."""
    restore = []
    missing = []
    try:
        modules = _package_modules()
        for module_name, attr, make in _hooks(tracer):
            home = sys.modules.get(module_name)
            owner_name, _, method = attr.rpartition(".")
            owner = getattr(home, owner_name, None) if owner_name else home
            original = getattr(owner, method, None) if owner is not None else None
            if original is None:
                missing.append(f"{module_name}.{attr}")
                continue
            wrapper = make(original)
            if owner_name:
                restore.append((owner, method, original))
                setattr(owner, method, wrapper)
                continue
            for module in modules:
                if getattr(module, method, None) is original:
                    restore.append((module, method, original))
                    setattr(module, method, wrapper)
        criteria = getattr(sys.modules.get("epspectra.acceptance"), "CRITERIA", None)
        if criteria is None:
            missing.append("epspectra.acceptance.CRITERIA")
        else:
            saved = list(criteria)
            restore.append((criteria, slice(None), saved))
            criteria[:] = [(key, desc, tracer.wrap(fn, f"acceptance.{key}"))
                           for key, desc, fn in saved]
        yield missing
    finally:
        for owner, attr, original in reversed(restore):
            if isinstance(attr, slice):
                owner[attr] = original
            else:
                setattr(owner, attr, original)


def leftover_wrappers():
    """Names of package attributes that are still traced wrappers."""
    found = []
    for module in _package_modules():
        for attr, value in vars(module).items():
            if getattr(value, "__bench_traced__", False):
                found.append(f"{module.__name__}.{attr}")
            if isinstance(value, type):
                for name, member in vars(value).items():
                    if getattr(member, "__bench_traced__", False):
                        found.append(f"{module.__name__}.{attr}.{name}")
        for entry in getattr(module, "CRITERIA", []) or []:
            if getattr(entry[2], "__bench_traced__", False):
                found.append(f"{module.__name__}.CRITERIA[{entry[0]}]")
    return found
