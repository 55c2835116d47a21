"""Spans around calls into the package, installed from outside it.

The tracer rebinds every public function of the layer modules in each
``curved_nbody.*`` namespace that holds it, and wraps the validating
``__post_init__`` of ``Configuration`` and ``PhaseState``.  Nothing in the
package changes; ``uninstall`` puts every original binding back.

Each span records its name, the op it belongs to, the span that caused it,
its start and end (``perf_counter``), the thread it ran on and the
exception class that ended it, if any.  The harness reduces an op's spans
to per-name sums when the op closes, outside its timed region, keeps those
in memory and writes them out once the run is over.  Threads started by the
package (the ``enumerate_geodesic_h`` pool) have an empty stack of their
own, so their outermost spans hang off the innermost open span of the
caller thread, which is blocked inside the call that started the pool.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
import time

LAYERS = ("manifold", "dynamics", "inertia", "centralconfig", "relequil",
          "moulton", "cli")
VALIDATED = ("Configuration", "PhaseState")   # dynamics dataclasses

# A finished span is a tuple of plain values, which the garbage collector
# stops tracking; a traced cc_search op can leave half a million of them.
ID, NAME, PARENT, T0, T1, THREAD, ERROR, EXTRA = range(8)
ROOT = "op"          # the name of the span around a whole op


def _integrate_size(call):
    return {"steps": int(call["steps"]), "n": int(call["state"].config.n)}


def _certify_size(call):
    return {"steps": max(1, round(call["horizon"] / call["dt"]))}


def _find_cc_space(call):
    return {"space": call["space"].value}


def _csv_bytes(call):
    paths = (call["csv_path"], call["sidecar_path"])
    return {"bytes": sum(os.path.getsize(p) for p in paths
                         if p is not None and os.path.exists(p))}


# Spans kept one by one (a few per op), each with the extra fields its
# function computes from the bound arguments once the call has ended,
# whether it returned or raised; every other span is only summed by name.
SAMPLED = {
    "dynamics.integrate": _integrate_size,
    "dynamics.trajectory_to_csv": _csv_bytes,
    "centralconfig.find_cc": _find_cc_space,
    "relequil.certify_rigidity": _certify_size,
    "moulton.solve_geodesic_h": None,
    "moulton.enumerate_geodesic_h": None,
}


class Tracer:
    """Records spans while an op is open; inert between ops."""

    def __init__(self):
        self.op = None                 # id of the open op, None between ops
        self._finished: list = []      # spans of the open op
        self._ids = itertools.count()
        self._local = threading.local()
        self._caller_stack: list = []  # the stack of the thread running ops
        self._restore: list = []       # (owner, attribute, original)

    # -- span recording ---------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open_op(self, op_id):
        """Start op ``op_id`` with a root span that every layer span nests in."""
        self.op = op_id
        self._finished = []
        self._local.stack = self._caller_stack = []
        self._begin(ROOT)

    def close_op(self) -> list:
        """End the open op; returns its finished spans."""
        self._end(None, None)
        self.op = None
        return self._finished

    def _begin(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            caller = self._caller_stack
            parent = caller[-1][0] if caller else None
        stack.append((next(self._ids), name, parent, time.perf_counter()))

    def _end(self, error, extra):
        t1 = time.perf_counter()
        sid, name, parent, t0 = self._stack().pop()
        self._finished.append((sid, name, parent, t0, t1,
                               threading.get_ident(), error, extra))

    def wrap(self, name, fn):
        extra = SAMPLED.get(name)
        signature = inspect.signature(fn) if extra else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op is None:
                return fn(*args, **kwargs)
            self._begin(name)
            error = None
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                info = None
                if extra:
                    call = signature.bind(*args, **kwargs)
                    call.apply_defaults()
                    info = extra(call.arguments)
                self._end(error, info)

        return traced

    # -- installation -----------------------------------------------------

    def install(self):
        """Rebind public functions and validators of every layer module."""
        modules = {layer: importlib.import_module(f"curved_nbody.{layer}")
                   for layer in LAYERS}
        package = [m for k, m in sorted(sys.modules.items())
                   if k == "curved_nbody" or k.startswith("curved_nbody.")]
        for layer, module in modules.items():
            for attr, fn in sorted(vars(module).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != module.__name__):
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn)
                for holder in package:
                    if vars(holder).get(attr) is fn:
                        self._restore.append((holder, attr, fn))
                        setattr(holder, attr, traced)
        for cls_name in VALIDATED:
            cls = getattr(modules["dynamics"], cls_name)
            original = cls.__dict__["__post_init__"]
            self._restore.append((cls, "__post_init__", original))
            cls.__post_init__ = self.wrap(f"dynamics.{cls_name}", original)

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()


# ---------------------------------------------------------------------------
# arithmetic on recorded spans
# ---------------------------------------------------------------------------

def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, None
    for start, end in sorted(intervals):
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def _children(spans) -> dict:
    """Parent id -> child intervals clipped to the parent (empty ones dropped)."""
    by_id = {s[ID]: s for s in spans}
    out: dict = {}
    for s in spans:
        parent = by_id.get(s[PARENT])
        if parent is not None:
            iv = (max(parent[T0], s[T0]), min(parent[T1], s[T1]))
            if iv[1] > iv[0]:
                out.setdefault(parent[ID], []).append(iv)
    return out


def self_times(spans) -> dict:
    """Span id -> self time: the span's duration minus the part of it that
    its child spans cover (overlapping children counted once)."""
    kids = _children(spans)
    return {s[ID]: (s[T1] - s[T0]) - covered(kids.get(s[ID], ()))
            for s in spans}


def overlap_excess(spans) -> float:
    """Time counted twice by the self-time sum: for each parent, the summed
    durations of its clipped children minus the length of their union.
    Zero when every child of a span ran on one thread, one after another."""
    return sum(sum(e - s for s, e in ivs) - covered(ivs)
               for ivs in _children(spans).values())


def escaped(spans, tol: float = 1e-6) -> int:
    """Number of spans that start before or end after their parent."""
    by_id = {s[ID]: s for s in spans}
    return sum(1 for s in spans if s[PARENT] in by_id and (
        s[T0] < by_id[s[PARENT]][T0] - tol or s[T1] > by_id[s[PARENT]][T1] + tol))
