"""Span tracer that wraps package functions from outside the package.

``Tracer.install`` rebinds each traced function in its home module and in
every ``cascade_secrecy`` module that imported it, so both intra-module and
cross-module calls pass through one wrapper.  The package itself is never
edited.  Spans are kept in memory as ``(id, parent, task, name, start, end,
extra)`` tuples and summarised, or written out, when the run ends.

A traced name that no longer exists (a later change may delete a function
or stop binding a solver) is skipped; its metrics then read zero.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import json
import math
import numbers
import pkgutil
import threading
import time

PACKAGE = "cascade_secrecy"

#: Solver entry points bound by name inside package modules, as (module, name).
SOLVER_BINDINGS = (("search", "minimize"), ("search", "linprog"), ("search", "nnls"))


def package_modules(package: str = PACKAGE) -> dict[str, object]:
    """Short name -> module for every importable submodule, plus the package.

    ``__main__`` is skipped: importing it runs the command line.
    """
    root = importlib.import_module(package)
    mods = {package: root}
    for info in pkgutil.iter_modules(root.__path__):
        if info.name == "__main__":
            continue
        mods[info.name] = importlib.import_module(f"{package}.{info.name}")
    return mods


def exported_functions(mods: dict[str, object], package: str = PACKAGE) -> set[tuple[str, str]]:
    """(home module, name) of every public function one package module imports from another."""
    home_of = {m.__name__: short for short, m in mods.items()}
    out = set()
    for mod in mods.values():
        for name, obj in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(obj):
                continue
            home = home_of.get(obj.__module__)
            if home is not None and home != package and obj.__module__ != mod.__name__:
                out.add((home, obj.__name__))
    return out


def _optimize_extra(result) -> dict:
    """Solver counters read from a returned ``OptimizeResult``."""
    extra = {}
    for key in ("nfev", "nit"):
        value = getattr(result, key, None)
        if isinstance(value, numbers.Integral):
            extra[key] = int(value)
    success = getattr(result, "success", None)
    if success is not None:
        extra["fail"] = 0 if bool(success) else 1
    return extra


def _table_extra(result) -> dict:
    table = getattr(result, "table", None)
    nbytes = getattr(table, "nbytes", None)
    return {"table_mb": nbytes / 1e6} if nbytes is not None else {}


_EXTRA = {
    "search.minimize": _optimize_extra,
    "search.linprog": _optimize_extra,
    "simulation.run_system_exact": _table_extra,
}


class Tracer:
    """Wraps functions, records nested spans, and restores everything on ``uninstall``."""

    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self.task = ""
        self._local = threading.local()
        self._restore: list[tuple[object, str, object]] = []
        self.missing: list[str] = []

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, key: str, fn):
        extra_of = _EXTRA.get(key)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(key) as span:
                result = fn(*args, **kwargs)
                if extra_of is not None:
                    span["extra"] = extra_of(result)
            return result

        return traced

    @contextlib.contextmanager
    def span(self, key: str):
        """Record one span around a block; the yielded dict takes solver counters."""
        stack = self._stack()
        parent = stack[-1] if stack else -1
        sid = len(self.spans)
        self.spans.append(None)  # reserve the id so children can link to it
        stack.append(sid)
        info = {"extra": None}
        start = time.perf_counter()
        try:
            yield info
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans[sid] = (sid, parent, self.task, key, start, end, info["extra"])

    # -- installation --------------------------------------------------------

    def install(self, names, mods: dict[str, object] | None = None) -> None:
        """Rebind ``names`` (``"module.function"``) wherever the package binds them.

        A function is replaced in its home module and in every package module
        whose namespace holds the same object; a solver is replaced in the
        module that binds it.  Absent names are recorded in ``missing``.
        """
        mods = mods if mods is not None else package_modules()
        for key in sorted(set(names)):
            home, _, attr = key.partition(".")
            mod = mods.get(home)
            orig = getattr(mod, attr, None) if mod is not None else None
            if orig is None or not callable(orig):
                self.missing.append(key)
                continue
            wrapped = self.wrap(key, orig)
            for other in mods.values():
                for name, obj in list(vars(other).items()):
                    if obj is orig:
                        self._restore.append((other, name, orig))
                        setattr(other, name, wrapped)

    def uninstall(self) -> None:
        for mod, name, orig in reversed(self._restore):
            setattr(mod, name, orig)
        self._restore.clear()

    # -- results -----------------------------------------------------------

    def finished(self) -> list[tuple]:
        return [s for s in self.spans if s is not None]

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for sid, parent, task, key, start, end, extra in self.finished():
                row = {"id": sid, "parent": parent, "task": task, "name": key,
                       "start": start, "end": end}
                if extra:
                    row.update(extra)
                fh.write(json.dumps(row) + "\n")


def _union_length(intervals) -> float:
    """Total length covered by possibly overlapping (start, end) intervals."""
    total, reach = 0.0, -math.inf
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def summarize(spans: list[tuple]) -> dict[str, dict[str, float]]:
    """Per-name ``calls``, ``busy_s`` (union of its spans), ``self_s`` and solver counters.

    Self time of a span is its duration minus the part of it that its
    direct children cover.  Module-level entries (``rng``) aggregate every
    span whose name starts with that module.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for sid, parent, _, _, start, end, _ in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out: dict[str, dict[str, float]] = {}
    intervals: dict[str, list[tuple[float, float]]] = {}
    for sid, parent, _, key, start, end, extra in spans:
        entry = out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        entry["calls"] += 1
        covered = _union_length(children.get(sid, ()))
        entry["self_s"] += (end - start) - covered
        intervals.setdefault(key, []).append((start, end))
        module = key.split(".", 1)[0]
        intervals.setdefault(module, []).append((start, end))
        for stat, value in (extra or {}).items():
            entry[stat] = entry.get(stat, 0) + value
    for key, ivs in intervals.items():
        out.setdefault(key, {"calls": 0, "busy_s": 0.0, "self_s": 0.0})
        out[key]["busy_s"] = _union_length(ivs)
    return out


def metric_value(name: str, summary: dict) -> float:
    """``summary`` entry for a ``<key>.<stat>`` metric name; zero when the key never ran."""
    key, _, stat = name.rpartition(".")
    return summary.get(key, {}).get(stat, 0)
