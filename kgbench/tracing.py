"""In-memory span tracer for the traced runs.

The program is not edited: the tracer wraps module attributes from the
outside and hooks the Ray Data execution boundary.

- ``Tracer.wrap(module, name)`` replaces the function object
  ``module.name`` in every loaded ``kgw_ray`` module that binds it (so
  ``from x import f`` call sites are covered too). Each call records a span
  ``(name, start, end, parent)``. A wrapper pickles as the original
  function, so code shipped to Ray workers never carries it.
- ``StreamingExecutor.execute`` / ``shutdown`` bound every Ray Data
  execution; ``Dataset.materialize`` and ``Dataset.count`` are counted.

``uninstall()`` restores every patched attribute, so untraced passes run
the program exactly as shipped. ``dump(path)`` writes the spans as JSON.
"""

from __future__ import annotations

import copy
import functools
import inspect
import json
import sys
import threading
import time


class _Traced:
    """Callable stand-in for a function that records a span per call."""

    def __init__(self, tracer: "Tracer", fn, span: str) -> None:
        functools.update_wrapper(self, fn)
        self._fn, self._tracer, self._span = fn, tracer, span

    def __call__(self, *args, **kwargs):
        with self._tracer.span(self._span):
            return self._fn(*args, **kwargs)

    def __reduce__(self):
        # shipped to a worker: unpickles as the original function
        return copy.copy, (self._fn,)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[dict] = []  # name, start, end, parent (index or -1)
        self.executions: list[list[float]] = []  # [start, end]
        self.counts = {"materialize": 0, "count": 0}
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._in_call = threading.local()

    # -- spans ---------------------------------------------------------------
    def span(self, name: str):
        tracer = self

        class _Span:
            def __enter__(self):
                parent = tracer._stack[-1] if tracer._stack else -1
                tracer.spans.append(
                    {"name": name, "start": time.perf_counter(), "end": None,
                     "parent": parent}
                )
                self.i = len(tracer.spans) - 1
                tracer._stack.append(self.i)

            def __exit__(self, *exc):
                tracer.spans[self.i]["end"] = time.perf_counter()
                tracer._stack.pop()
                return False

        return _Span()

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def wrap(self, module: str, name: str, span: str | None = None) -> None:
        """Wrap ``kgw_ray.<module>.<name>`` everywhere it is bound."""
        fn = getattr(sys.modules[f"kgw_ray.{module}"], name)
        w = _Traced(self, fn, span or f"{module}.{name}")
        for mname, mod in list(sys.modules.items()):
            if mod is None or not (mname == "kgw_ray" or mname.startswith("kgw_ray.")):
                continue
            for attr, val in list(vars(mod).items()):
                if val is fn:
                    self._patch(mod, attr, w)

    def wrap_public(self, module: str) -> None:
        """Span every public driver-side function defined in the module,
        named by the module (``<module>.calls`` / ``<module>.self_s``)."""
        mod = sys.modules[f"kgw_ray.{module}"]
        for name, fn in list(vars(mod).items()):
            if (
                inspect.isfunction(fn)
                and fn.__module__ == mod.__name__
                and not name.startswith("_")
                and not name.endswith("_batch")
            ):
                self.wrap(module, name, span=f"mod:{module}")

    # -- Ray Data boundary ---------------------------------------------------
    def install(self) -> None:
        import ray.data as rd
        from ray.data._internal.execution.operators.input_data_buffer import (
            InputDataBuffer,
        )
        from ray.data._internal.execution.streaming_executor import (
            StreamingExecutor,
        )

        tracer = self
        execute, shutdown = StreamingExecutor.execute, StreamingExecutor.shutdown

        def traced_execute(ex, dag, *a, **k):
            if not isinstance(dag, InputDataBuffer):
                with tracer._lock:
                    ex._kgb_exec = len(tracer.executions)
                    tracer.executions.append([time.perf_counter(), None])
            return execute(ex, dag, *a, **k)

        def traced_shutdown(ex, *a, **k):
            try:
                return shutdown(ex, *a, **k)
            finally:
                i = getattr(ex, "_kgb_exec", None)
                with tracer._lock:
                    if i is not None and tracer.executions[i][1] is None:
                        tracer.executions[i][1] = time.perf_counter()

        self._patch(StreamingExecutor, "execute", traced_execute)
        self._patch(StreamingExecutor, "shutdown", traced_shutdown)
        for meth in ("materialize", "count"):
            self._patch(rd.Dataset, meth, self._counted(getattr(rd.Dataset, meth), meth))

    def _counted(self, fn, key: str):
        tracer = self

        @functools.wraps(fn)
        def counted(*a, **k):
            # count user-level calls only (count() may materialize inside)
            if getattr(tracer._in_call, "on", False):
                return fn(*a, **k)
            tracer.counts[key] += 1
            tracer._in_call.on = True
            try:
                return fn(*a, **k)
            finally:
                tracer._in_call.on = False

        return counted

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._patches):
            setattr(owner, attr, old)
        self._patches.clear()

    # -- summaries -----------------------------------------------------------
    def exec_union_s(self, t0: float, t1: float, since: int = 0) -> float:
        """Seconds within [t0, t1] covered by at least one execution."""
        iv = sorted(
            (max(s, t0), min(e if e is not None else t1, t1))
            for s, e in self.executions[since:]
        )
        total, cur_s, cur_e = 0.0, None, None
        for s, e in iv:
            if e <= s:
                continue
            if cur_e is None or s > cur_e:
                if cur_e is not None:
                    total += cur_e - cur_s
                cur_s, cur_e = s, e
            else:
                cur_e = max(cur_e, e)
        if cur_e is not None:
            total += cur_e - cur_s
        return total

    def executions_within(self, t0: float, t1: float) -> int:
        return sum(1 for s, _ in self.executions if t0 <= s <= t1)

    def span_totals(self, since: int = 0) -> dict[str, dict]:
        """Per span name: calls, total seconds and self seconds (duration
        minus the time covered by direct child spans)."""
        child_s = [0.0] * len(self.spans)
        for sp in self.spans[since:]:
            if sp["parent"] >= since and sp["end"] is not None:
                child_s[sp["parent"]] += sp["end"] - sp["start"]
        out: dict[str, dict] = {}
        for i, sp in enumerate(self.spans[since:], start=since):
            if sp["end"] is None:
                continue
            d = sp["end"] - sp["start"]
            o = out.setdefault(sp["name"], {"calls": 0, "s": 0.0, "self_s": 0.0})
            o["calls"] += 1
            o["s"] += d
            o["self_s"] += d - child_s[i]
        return out

    def dump(self, path: str) -> None:
        with open(path, "w") as f:
            json.dump(
                {"spans": self.spans, "executions": self.executions,
                 "counts": self.counts},
                f,
            )
