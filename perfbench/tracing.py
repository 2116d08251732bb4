"""Span recording around snvse's public functions, installed from outside.

The tracer wraps each function in ``TARGETS`` and puts the wrapper into
every loaded ``snvse`` module that holds the original under any name. The
modules import with ``from .x import y``, so a caller finds a function in
its own globals, not in the module that defines it: patching only the
defining module would miss every call.

A span is ``[id, parent, name, item, start, end, attrs]``. ``item`` is the
pair or input id the span works for. It comes from the element a
``run_pool`` worker is processing, and is inherited by every span below it,
across the pool's threads. Spans stay in memory until ``dump``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import sys
import threading
import time
from pathlib import Path


def _frames(info) -> int:
    return max(1, round(info.duration * info.frame_rate))


# (span name, defining module, function, attrs taken from (bound arguments, result))
TARGETS = (
    ("runner.run_tool", "snvse.runner", "run_tool",
     lambda a, r: {"rc": r.returncode}),
    ("probe.probe_media", "snvse.probe", "probe_media", None),
    ("probe.scan_video_stream_bytes", "snvse.probe", "scan_video_stream_bytes", None),
    ("encoder.encode", "snvse.encoder", "encode",
     lambda a, r: {"crf": a["spec"].crf, "bytes": r.file_size,
                   "mpx": r.width * r.height * _frames(r) / 1e6}),
    ("bitrate.measure_bitrate", "snvse.bitrate", "measure_bitrate",
     lambda a, r: {"method": r.method.value}),
    ("estimator.estimate_batch", "snvse.estimator", "estimate_batch", None),
    ("estimator.estimate_crf", "snvse.estimator", "estimate_crf",
     lambda a, r: {"crf_hat": r.crf_hat, "saturated": r.saturated,
                   "c_min": a["c_min"], "c_max": a["c_max"]}),
    ("planner.emulate_batch", "snvse.planner", "emulate_batch", None),
    ("planner.plan_emulation", "snvse.planner", "plan_emulation", None),
    ("planner.select_resolution", "snvse.planner", "select_resolution",
     lambda a, r: {"exact": r[1]}),
    ("planner.select_crf", "snvse.planner", "select_crf", None),
    ("profile_db.load_profile", "snvse.profile_db", "load_profile",
     lambda a, r: {"entries": len(r.entries)}),
    ("profile_db.save_profile", "snvse.profile_db", "save_profile",
     lambda a, r: {"entries": len(a["profile"].entries)}),
    ("analysis.bootstrap_stability", "snvse.analysis", "bootstrap_stability",
     lambda a, r: {"draws": r.iterations * len(r.rows)}),
    ("analysis.write_stability_csv", "snvse.analysis", "write_stability_csv", None),
)


def item_id(item) -> str:
    """The id of one ``run_pool`` element: a pair id, or an input's stem."""
    pair_id = getattr(item, "pair_id", None)
    return pair_id if pair_id is not None else Path(item).stem


class _Span:
    __slots__ = ("id", "parent", "name", "item", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, item):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.item = item
        self.attrs = {}


class Tracer:
    def __init__(self):
        self.spans: list[_Span] = []
        self.missing: list[str] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def current(self):
        return getattr(self._local, "span", None)

    def record(self, name, start, end):
        """Add a finished top-level span measured by the caller."""
        span = _Span(next(self._ids), None, name, None)
        span.start, span.end = start, end
        self.spans.append(span)

    def call(self, name, fn, args, kwargs=None, *, parent=None, item=None, note=None):
        """Run ``fn(*args, **kwargs)`` inside a new span."""
        kwargs = kwargs or {}
        previous = self.current()
        if parent is None:
            parent = previous
        if item is None and parent is not None:
            item = parent.item
        span = _Span(next(self._ids), parent.id if parent else None, name, item)
        self._local.span = span
        span.start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException as exc:
            span.attrs["error"] = type(exc).__name__
            raise
        finally:
            span.end = time.perf_counter()
            self._local.span = previous
            self.spans.append(span)  # list.append is atomic under the GIL
        if note is not None:
            span.attrs.update(note(args, kwargs, result))
        return result

    def _wrap(self, name, fn, note):
        signature = inspect.signature(fn)

        def bound_note(args, kwargs, result):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return note(bound.arguments, result)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return self.call(name, fn, args, kwargs, note=bound_note if note else None)

        return wrapper

    def _wrap_pool(self, fn):
        @functools.wraps(fn)
        def run_pool(work, items, workers):
            def body(work, items, workers):
                pool_span = self.current()

                def traced_work(item):
                    return self.call("runner.pool_item", work, (item,),
                                     parent=pool_span, item=item_id(item))

                return fn(traced_work, items, workers)

            return self.call("runner.run_pool", body, (work, items, workers))

        return run_pool

    def install(self) -> None:
        """Patch every reference to each target in the loaded snvse modules."""
        wrappers = []
        for name, module, attr, note in TARGETS:
            fn = getattr(importlib.import_module(module), attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            wrappers.append((fn, self._wrap(name, fn, note)))
        runner = importlib.import_module("snvse.runner")
        wrappers.append((runner.run_pool, self._wrap_pool(runner.run_pool)))

        modules = [m for key, m in list(sys.modules.items())
                   if key == "snvse" or key.startswith("snvse.")]
        for fn, wrapper in wrappers:
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is fn:
                        setattr(module, key, wrapper)

    def dump(self) -> dict:
        return {
            "spans": [[s.id, s.parent, s.name, s.item, s.start, s.end, s.attrs]
                      for s in self.spans],
            "missing": self.missing,
        }
