"""Span tracer that times calls into ``casimir_bvl`` from outside the package.

Tracing replaces public functions on their modules with wrappers for the
duration of a ``with patched(tracer, pkg):`` block and puts the originals
back afterwards.  Inside the package every cross-layer call goes through a
module attribute, so no source change is needed.

Each thread keeps its own span stack.  A span's self time is its duration
minus the durations of its direct child spans on the same thread, which
stays non-negative when the CLI sweep computes pressures on a thread pool;
time a span spends waiting for other threads counts as its own.
Pressure spans also record thread CPU time, which, unlike wall time,
excludes waiting for the interpreter lock.
Integrand and Matsubara-term callables that ``lifshitz`` (or ``bvl``) hands
to ``quadrature`` are wrapped at that boundary and counted under the caller,
so quadrature self time is only the rule's own bookkeeping.
"""

from __future__ import annotations

import contextlib
import functools
import threading
import time
from dataclasses import dataclass

import numpy as np


@dataclass
class Stat:
    calls: int = 0
    points: int = 0
    evals: int = 0
    fails: int = 0
    nonzero_exits: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    cpu_s: float = 0.0    # thread CPU time, for spans traced with cpu=True

    def add(self, other):
        for key in vars(self):
            setattr(self, key, getattr(self, key) + getattr(other, key))


def _result_evals(result):
    return result.evaluations


# (module, attribute, options) of every traced function.  ``points`` is the
# index of the positional argument whose size counts as points; ``evals``
# extracts an evaluation count from the result; ``callable_as`` names the
# span of a callable argument that lifshitz or bvl passes in.
TARGETS = [
    ("materials", "eval_epsilon", {}),
    ("materials", "eval_epsilon_tabulated", {}),
    ("fresnel", "imag_axis_coefficients", {"points": 2}),
    ("fresnel", "branch_sqrt", {"points": 0}),
    ("fresnel", "reflection", {}),
    ("fresnel", "static_rte", {}),
    ("quadrature", "adaptive_gk",
     {"evals": lambda r: r[2], "callable_as": "integrand"}),
    ("quadrature", "composite_gk",
     {"evals": _result_evals, "callable_as": "integrand"}),
    ("quadrature", "integrate_semi_infinite",
     {"evals": _result_evals, "callable_as": "integrand"}),
    ("quadrature", "integrate_real_frequency",
     {"evals": _result_evals, "callable_as": "integrand"}),
    ("quadrature", "matsubara_sum", {"callable_as": "term"}),
    ("lifshitz", "n0_term", {}),
    ("lifshitz", "pressure_matsubara", {"cpu": True}),
    ("lifshitz", "pressure_real_frequency", {"cpu": True}),
    ("bvl", "bvl_verdict", {}),
    ("cli", "main", {"exit_code": True}),
    ("cli", "parse_material", {}),
]

#: Modules whose callables are counted under their own name when passed in.
CALLER_MODULES = ("lifshitz", "bvl")


class Tracer:
    """Aggregates spans per name; every thread records into its own table."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._tables = []

    def _thread_state(self):
        state = getattr(self._local, "state", None)
        if state is None:
            state = self._local.state = ([], {})
            with self._lock:
                self._tables.append(state[1])
        return state

    def wrap(self, name, fn, points=None, evals=None, callable_as=None,
             exit_code=False, cpu=False):
        """Return fn wrapped in a span called ``name``."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if callable_as is not None and args:
                args = (self._wrap_callable(args[0], callable_as),) + args[1:]
            stack, table = self._thread_state()
            frame = [0.0]  # time covered by direct children
            stack.append(frame)
            ok = False
            c0 = time.thread_time() if cpu else 0.0
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                dur = time.perf_counter() - t0
                busy = time.thread_time() - c0 if cpu else 0.0
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                stat = table.get(name)
                if stat is None:
                    stat = table[name] = Stat()
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                stat.cpu_s += busy
                if points is not None:
                    stat.points += int(np.size(args[points]))
                if not ok:
                    stat.fails += 1
                elif evals is not None:
                    stat.evals += int(evals(result))
                if ok and exit_code and result != 0:
                    stat.nonzero_exits += 1

        return wrapper

    def _wrap_callable(self, fn, kind):
        module = getattr(fn, "__module__", "") or ""
        owner = module.rpartition(".")[2]
        if owner not in CALLER_MODULES:
            return fn
        return self.wrap(f"{owner}.{kind}", fn, points=0)

    def stats(self):
        """Merged per-name statistics over all threads."""
        merged = {}
        with self._lock:
            tables = list(self._tables)
        for table in tables:
            for name, stat in list(table.items()):
                merged.setdefault(name, Stat()).add(stat)
        return merged

    def cpu_s(self, names):
        """Summed thread CPU time of the named spans over all threads."""
        stats = self.stats()
        return sum(stats[n].cpu_s for n in names if n in stats)


@contextlib.contextmanager
def patched(tracer, pkg):
    """Install tracing wrappers on pkg's modules; restore them on exit."""
    saved = []
    try:
        for module_name, attr, options in TARGETS:
            module = getattr(pkg, module_name)
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr,
                    tracer.wrap(f"{module_name}.{attr}", original, **options))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)


def originals(pkg):
    """Identity snapshot of every traced attribute, to check restoration."""
    return [getattr(getattr(pkg, m), a) for m, a, _ in TARGETS]
