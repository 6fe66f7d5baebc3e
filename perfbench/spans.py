"""In-memory spans recorded around the public functions of vortexpair.

The tracer wraps functions from outside the package: every public
function of each layer module is replaced, at every module attribute
that binds it, by a wrapper that opens a span on entry and closes it on
return.  `PoissonSolver.__init__` and `PoissonSolver.solve` are patched
once, on the class.  Spans stay in memory as plain records (name, start,
end, parent, thread, info) and are written out by the caller when the
run ends.

Parents follow the call stack of each thread.  A span opened on a
worker thread with an empty stack takes as parent the innermost open
span of the main thread, which is the call that handed the work to the
pool (`run_sweep` for sweeps with several jobs).
"""

from __future__ import annotations

import functools
import importlib
import inspect
import threading
import time
import types
import weakref

LAYERS = ("grid", "fields", "poisson", "kirchhoff", "maximizer", "euler",
          "asymptotics", "cli")

SOLVE = "poisson.PoissonSolver.solve"
SOLVER_INIT = "poisson.PoissonSolver.__init__"
PV_EVOLVE = "kirchhoff.pv_evolve"


class Tracer:
    """Span recorder; one per traced process."""

    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident

    def open(self, name: str) -> int:
        tid = threading.get_ident()
        stack = self._stacks.setdefault(tid, [])
        if stack:
            parent = stack[-1]
        else:
            main = self._stacks.get(self._main)
            parent = main[-1] if tid != self._main and main else None
        rec = {"name": name, "start": self.clock(), "end": None,
               "parent": parent, "thread": tid, "info": {}}
        with self._lock:
            sid = len(self.spans)
            self.spans.append(rec)
        stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid]["end"] = self.clock()
        self._stacks[threading.get_ident()].pop()

    def wrap(self, name: str, fn, info=None):
        """Wrapper of `fn` recording one span per call.

        `info(bound_arguments, result)` may return a dict stored on the
        span; it runs after the span has closed, so it costs no span time.
        """
        sig = inspect.signature(fn) if info else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = self.open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                self.close(sid)
            if info is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                self.spans[sid]["info"] = info(bound.arguments, out)
            return out

        return traced


# Fields read off return values; they become span info.
_INFO = {
    "kirchhoff.kr_minimize": lambda a, r: {"scan_sites": int(r.scan_sites),
                                           "iterations": int(r.iterations)},
    "maximizer.maximize": lambda a, r: {"iterations": int(r.iterations)},
    PV_EVOLVE: lambda a, r: {"steps": int(round(float(r.times[-1]) / a["dt"]))},
}


def _rebind(modules, replace: dict) -> None:
    """Point every module attribute bound to a key of `replace` at its value."""
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if isinstance(val, types.FunctionType) and val in replace:
                setattr(mod, attr, replace[val])


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer and the solver methods.

    The first `pv_evolve` call on each solver is preceded by a one-step
    call on the same solver, so the spline-table build shows as its own
    span before the full horizon.
    """
    package = importlib.import_module("vortexpair")
    modules = [package]
    replace = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"vortexpair.{layer}")
        modules.append(mod)
        for attr in getattr(mod, "__all__", ()):
            obj = getattr(mod, attr, None)
            if (isinstance(obj, types.FunctionType)
                    and obj.__module__ == mod.__name__):
                name = f"{layer}.{attr}"
                replace[obj] = tracer.wrap(name, obj, _INFO.get(name))
    pv = package.kirchhoff.pv_evolve
    replace[pv] = _split_pv(replace[pv])
    _rebind(modules, replace)

    cls = package.PoissonSolver
    seen = weakref.WeakSet()
    solve, init = cls.solve, cls.__init__

    @functools.wraps(solve)
    def traced_solve(self, rhs):
        first = self not in seen
        sid = tracer.open(SOLVE)
        try:
            return solve(self, rhs)
        finally:
            tracer.close(sid)
            if first:
                seen.add(self)
                tracer.spans[sid]["info"] = {"first": True}

    cls.solve = traced_solve
    cls.__init__ = tracer.wrap(SOLVER_INIT, init)


def _split_pv(traced_pv):
    """`pv_evolve` that runs one step first on each new solver."""
    seen = weakref.WeakSet()
    sig = inspect.signature(traced_pv)

    @functools.wraps(traced_pv)
    def pv_evolve(*args, **kwargs):
        a = sig.bind(*args, **kwargs)
        a.apply_defaults()
        solver = a.arguments["solver"]
        if solver not in seen:
            seen.add(solver)
            one = dict(a.arguments, T=a.arguments["dt"], save_stride=1)
            traced_pv(**one)
        return traced_pv(*args, **kwargs)

    return pv_evolve


# -- span arithmetic --------------------------------------------------------

def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals` clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def children_index(spans) -> dict[int, list[int]]:
    kids: dict[int, list[int]] = {}
    for sid, s in enumerate(spans):
        if s["parent"] is not None:
            kids.setdefault(s["parent"], []).append(sid)
    return kids


def self_time(spans, sid: int, kids=None, exclude=None) -> float:
    """Span duration minus the part of it that child spans cover.

    With `exclude`, only children whose name is in it are subtracted.
    """
    kids = children_index(spans) if kids is None else kids
    s = spans[sid]
    sub = [(spans[c]["start"], spans[c]["end"]) for c in kids.get(sid, ())
           if exclude is None or spans[c]["name"] in exclude]
    return (s["end"] - s["start"]) - covered(sub, s["start"], s["end"])
