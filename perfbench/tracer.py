"""In-memory span recorder for the traced benchmark pass.

`install` replaces every public function and public method of the `ebmvar`
modules, at every module binding through which the program calls it, by a
wrapper that records one span per call: name, start, end, parent span,
thread and run id.  Nothing in the package changes; the wrapping lives only
in the process that installs it.  `dump` writes the spans out once, when
the traced command ends.

Each thread keeps its own stack of open spans, so nesting is exact within a
thread.  A span opened by a worker thread whose stack is empty takes as its
parent the innermost open span of the main thread: in the CLI, worker
threads are only started by a command running on the main thread, which
blocks in that span until the workers finish.
"""

from __future__ import annotations

import functools
import inspect
import json
import sys
import threading
import time


def _normals(args, kwargs, result):
    return {"normals": int(result.size)}


def _k_size(args, kwargs, result):
    return {"n": int(result.K.shape[0]), "nnz": int(result.K.nnz)}


def _route(args, kwargs, result):
    return {"route_" + result[1]: 1}


def _bytes(args, kwargs, result):
    return {"bytes": len(result)}


# Work counts computed from the values a call returns (array sizes, the
# reported eigensolve route), not measured inside the program.
COUNTERS = {
    "sde_engine.gaussian_increments": _normals,
    "covariance_engine.assemble_vectorised": _k_size,
    "covariance_engine.k_spectral_abscissa": _route,
    "sde_engine.PathBundle.to_binary": _bytes,
}


class Recorder:
    """Collects spans of one process; thread-safe."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._lock = threading.Lock()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.main_thread().ident
        self._next_id = 0

    def _open(self) -> tuple[int, int | None, int]:
        tid = threading.get_ident()
        with self._lock:
            stack = self._stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            else:
                main = self._stacks.get(self._main)
                parent = main[-1] if main and tid != self._main else None
            sid = self._next_id
            self._next_id += 1
            stack.append(sid)
        return sid, parent, tid

    def wrap(self, name: str, fn):
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid, parent, tid = self._open()
            ok = False
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                end = time.perf_counter()
                counts = counter(args, kwargs, result) if ok and counter else {}
                with self._lock:
                    self._stacks[tid].pop()
                    self.spans.append({
                        "id": sid, "parent": parent, "name": name,
                        "start": start, "end": end, "thread": tid,
                        "run": self.run_id, "counts": counts,
                    })

        traced.__wrapped_by_tracer__ = True
        return traced

    def dump(self, path) -> None:
        with self._lock:
            spans = sorted(self.spans, key=lambda s: s["id"])
        with open(path, "w") as fh:
            json.dump(spans, fh)


def _is_public(name: str) -> bool:
    return not name.startswith("_")


def _home(obj) -> str | None:
    module = getattr(obj, "__module__", "") or ""
    if module.startswith("ebmvar."):
        return module.split(".", 1)[1]
    return None


def install(recorder: Recorder) -> None:
    """Wrap every public function of the imported `ebmvar` modules at every
    binding."""
    modules = [m for name, m in sorted(sys.modules.items())
               if name.startswith("ebmvar.") and m is not None]
    wrapped: dict[object, object] = {}

    def wrapper_for(fn, qualname):
        if fn not in wrapped:
            wrapped[fn] = recorder.wrap(f"{_home(fn)}.{qualname}", fn)
        return wrapped[fn]

    for module in modules:
        for name, obj in list(vars(module).items()):
            if not _is_public(name) or _home(obj) is None:
                continue
            if inspect.isfunction(obj):
                if not getattr(obj, "__wrapped_by_tracer__", False):
                    setattr(module, name, wrapper_for(obj, obj.__qualname__))
            elif inspect.isclass(obj) and not issubclass(obj, BaseException):
                _wrap_methods(obj, wrapper_for)

    # Dispatch tables hold further bindings, e.g. the CLI's command table of
    # (function, needs_config) tuples.
    for module in modules:
        for obj in vars(module).values():
            if isinstance(obj, dict):
                for key, value in list(obj.items()):
                    if isinstance(value, tuple) and any(
                            inspect.isfunction(v) and v in wrapped for v in value):
                        obj[key] = tuple(wrapped.get(v, v) if inspect.isfunction(v)
                                         else v for v in value)


def _wrap_methods(cls, wrapper_for) -> None:
    for name, attr in list(vars(cls).items()):
        if not _is_public(name):
            continue
        if isinstance(attr, classmethod):
            fn = attr.__func__
            if not getattr(fn, "__wrapped_by_tracer__", False):
                setattr(cls, name, classmethod(wrapper_for(fn, fn.__qualname__)))
        elif (inspect.isfunction(attr)
              and not getattr(attr, "__wrapped_by_tracer__", False)):
            setattr(cls, name, wrapper_for(attr, attr.__qualname__))


# ---------------------------------------------------------------- analysis

def _covered(span: dict, children: list) -> float:
    """Length of the part of `span` that the union of `children` covers."""
    intervals = sorted((max(c["start"], span["start"]), min(c["end"], span["end"]))
                       for c in children)
    total, lo, hi = 0.0, None, None
    for a, b in intervals:
        if b <= a:
            continue
        if hi is None or a > hi:
            if hi is not None:
                total += hi - lo
            lo, hi = a, b
        else:
            hi = max(hi, b)
    if hi is not None:
        total += hi - lo
    return total


def self_times(spans: list) -> dict:
    """{span id: duration minus the time its children cover}.  Children on
    other threads count once where they overlap each other."""
    children: dict = {}
    for span in spans:
        if span["parent"] is not None:
            children.setdefault(span["parent"], []).append(span)
    return {span["id"]: (span["end"] - span["start"])
            - _covered(span, children.get(span["id"], [])) for span in spans}


def tree_problems(spans: list) -> list:
    """Ways in which `spans` of one command fail to form one well-nested
    tree; empty when the tree is sound."""
    problems = []
    by_id = {span["id"]: span for span in spans}
    roots = [span for span in spans if span["parent"] is None]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans")
    siblings: dict = {}
    for span in spans:
        if span["end"] < span["start"]:
            problems.append(f"{span['name']} ends before it starts")
        siblings.setdefault((span["parent"], span["thread"]), []).append(span)
        if span["parent"] is None:
            continue
        parent = by_id.get(span["parent"])
        if parent is None:
            problems.append(f"{span['name']} has no recorded parent")
        elif span["start"] < parent["start"] or span["end"] > parent["end"]:
            problems.append(f"{span['name']} escapes {parent['name']}")
    for group in siblings.values():
        group.sort(key=lambda s: s["start"])
        for a, b in zip(group, group[1:]):
            if b["start"] < a["end"]:
                problems.append(f"{a['name']} and {b['name']} overlap on one thread")
    covered = sum(self_times(spans).values())
    rooted = sum(r["end"] - r["start"] for r in roots)
    if covered < rooted * (1.0 - 1e-9):
        problems.append(f"self times cover {covered:.6g} s of {rooted:.6g} s")
    return problems
