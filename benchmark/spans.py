"""Span tracer for the benchmark's traced run (stdlib only).

``Tracer.install`` wraps every public function of gaplab's five library
modules, wherever any ``gaplab`` module holds a reference to it: the
defining module (so intra-module calls such as ``rtm.step`` are seen),
every module that imported it by name (``protocols.expm_taylor``,
``spectral.row``) and the package namespace.  Classes and methods are
left alone.  ``Tracer.restore`` puts every original back.

Each wrapped call is one span: name, start, end, parent.  Per-function
call counts, self time (duration minus time covered by child spans) and
raised exceptions are kept for every call; the span log itself keeps
the first ``span_log_cap`` spans, because the reduction layers make
millions of tiny calls per pass and a full log would outgrow the
process being measured.
"""

from __future__ import annotations

import contextvars
import functools
import inspect
import sys
from array import array
from time import perf_counter_ns
from typing import Callable

LAYERS = ("rtm", "sparse_oracle", "spectral", "simulator", "protocols")

Observer = Callable[[tuple, object], None]


class Tracer:
    """Wraps gaplab's public functions and aggregates their spans in memory."""

    def __init__(self, observers: dict[str, Observer] | None = None,
                 span_log_cap: int = 50_000) -> None:
        self.names: list[str] = []
        self.calls: list[int] = []
        self.self_ns: list[int] = []
        self.errors: list[int] = []
        self.top_ns = 0
        self.spans = array("q")  # flat records: id, parent id, name id, start, end
        self.span_count = 0
        self.span_log_cap = span_log_cap
        self._observers = observers or {}
        self._current: contextvars.ContextVar = contextvars.ContextVar(
            "benchmark_span", default=None
        )
        self._patches: list[tuple[object, str, object]] = []

    # -- wrapping ----------------------------------------------------------

    @staticmethod
    def public_functions() -> dict[int, tuple[Callable, str]]:
        """id -> (function, "<layer>.<name>") for each layer module's own functions."""
        found: dict[int, tuple[Callable, str]] = {}
        for layer in LAYERS:
            module = sys.modules.get(f"gaplab.{layer}")
            if module is None:
                continue
            for name, obj in vars(module).items():
                if (
                    not name.startswith("_")
                    and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__
                ):
                    found[id(obj)] = (obj, f"{layer}.{name}")
        return found

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        targets = self.public_functions()
        wrappers = {key: self._wrap(fn, qual) for key, (fn, qual) in targets.items()}
        for module_name, holder in list(sys.modules.items()):
            if module_name != "gaplab" and not module_name.startswith("gaplab."):
                continue
            for attr, value in list(vars(holder).items()):
                target = targets.get(id(value))
                if target is not None and target[0] is value:
                    self._patches.append((holder, attr, value))
                    setattr(holder, attr, wrappers[id(value)])

    def restore(self) -> None:
        for holder, attr, value in reversed(self._patches):
            setattr(holder, attr, value)
        self._patches.clear()

    def _wrap(self, fn: Callable, qual: str) -> Callable:
        nid = len(self.names)
        self.names.append(qual)
        self.calls.append(0)
        self.self_ns.append(0)
        self.errors.append(0)
        calls, self_ns, errors = self.calls, self.self_ns, self.errors
        current = self._current
        observe = self._observers.get(qual)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = current.get()
            sid = tracer.span_count
            tracer.span_count = sid + 1
            frame = [0, sid]  # [time covered by child spans, span id]
            token = current.set(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[nid] += 1
                raise
            finally:
                end = perf_counter_ns()
                current.reset(token)
                duration = end - start
                calls[nid] += 1
                self_ns[nid] += duration - frame[0]
                if parent is None:
                    tracer.top_ns += duration
                    parent_id = -1
                else:
                    parent[0] += duration
                    parent_id = parent[1]
                if sid < tracer.span_log_cap:
                    tracer.spans.extend((sid, parent_id, nid, start, end))
            if observe is not None:
                observe(args, result)
            return result

        return traced

    # -- results -----------------------------------------------------------

    def stats(self) -> dict[str, dict[str, float]]:
        """Per-function calls, self time in seconds and errors, by qualified name."""
        return {
            name: {
                "calls": self.calls[i],
                "self_s": self.self_ns[i] / 1e9,
                "errors": self.errors[i],
            }
            for i, name in enumerate(self.names)
        }

    def consistent(self) -> bool:
        """Self times of all spans sum exactly to the top-level spans' durations."""
        return sum(self.self_ns) == self.top_ns

    def write_spans(self, path: str) -> None:
        """Write the span log as CSV: id, parent, name, start_ns, end_ns."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_ns,end_ns\n")
            s = self.spans
            for k in range(0, len(s), 5):
                fh.write(f"{s[k]},{s[k + 1]},{self.names[s[k + 2]]},{s[k + 3]},{s[k + 4]}\n")
