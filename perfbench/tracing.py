"""In-memory spans recorded around the benchmark's calls into the package.

A span has a name ``<layer>.<function>``, start and end times from
``time.perf_counter_ns``, the span that was open when it began (its parent)
and the item it belongs to.  Spans stay in memory until the run ends; the
per-layer metrics and the layer self times are derived from them afterwards.

``NullTracer`` has the same call surface and records nothing, so the
untraced run executes the same item code with a plain call in place of each
span.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager

now = time.perf_counter_ns


class Span:
    __slots__ = ("id", "parent", "item", "name", "start", "end", "attrs")

    def __init__(self, sid, parent, item, name, start, attrs):
        self.id = sid
        self.parent = parent
        self.item = item
        self.name = name
        self.start = start
        self.end = start
        self.attrs = attrs

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def ns(self) -> int:
        return self.end - self.start


class NullTracer:
    """Untraced calls: every method forwards to the wrapped function."""

    def call(self, name, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    def build_graph(self, fn, formula, cfg):
        return fn(formula, cfg)

    @contextmanager
    def span(self, name, **attrs):
        yield attrs


class Tracer:
    """Records one span per wrapped call.

    ``extractors`` maps a span name to a function that turns the call's
    return value into a small attribute dict (counts, sizes); the return
    value itself is not kept, so spans do not hold on to graphs or formulas.
    """

    def __init__(self, extractors=None):
        self.spans: list[Span] = []
        self.item = None
        self._stack: list[int] = []
        self._extractors = extractors or {}

    def _begin(self, name, attrs) -> Span:
        parent = self._stack[-1] if self._stack else None
        span = Span(len(self.spans), parent, self.item, name, now(), attrs)
        self.spans.append(span)
        self._stack.append(span.id)
        return span

    def _end(self, span: Span):
        span.end = now()
        self._stack.pop()

    @contextmanager
    def span(self, name, **attrs):
        span = self._begin(name, attrs)
        try:
            yield span.attrs
        finally:
            self._end(span)

    def call(self, name, fn, *args, **kwargs):
        span = self._begin(name, {})
        try:
            result = fn(*args, **kwargs)
        finally:
            self._end(span)
        extract = self._extractors.get(name)
        if extract is not None:
            span.attrs.update(extract(result))
        return result

    def build_graph(self, fn, formula, cfg):
        """``build_graph`` with one timestamp per growth step, taken by the
        public ``iteration_hook`` argument."""
        stamps: list[int] = []
        span = self._begin(
            "builder.build_graph", {"stamps": stamps, "dup": bool(formula.duplicate_vars)}
        )
        try:
            return fn(formula, cfg, iteration_hook=lambda state, pi: stamps.append(now()))
        finally:
            self._end(span)

    @contextmanager
    def patched(self, module, wrappers):
        """Replace ``module.<attr>`` by ``make(original)`` for each entry of
        ``wrappers`` while the block runs.  An attribute the module no
        longer has is skipped; the spans it would have produced are then
        missing and the metrics built on them are reported absent."""
        saved = {}
        for attr, make in wrappers.items():
            if hasattr(module, attr):
                saved[attr] = getattr(module, attr)
                setattr(module, attr, make(saved[attr]))
        try:
            yield
        finally:
            for attr, fn in saved.items():
                setattr(module, attr, fn)


def self_times(spans) -> dict[int, int]:
    """Span id -> its duration minus the time covered by its children.
    Children of one span run one after another, so their durations add."""
    covered: dict[int, int] = defaultdict(int)
    for span in spans:
        if span.parent is not None:
            covered[span.parent] += span.ns
    return {span.id: span.ns - covered[span.id] for span in spans}


def write_spans(path, spans):
    """One JSON object per line; the per-step stamps are summarized by
    their count to keep the file small."""
    with open(path, "w", encoding="utf-8") as fh:
        for span in spans:
            attrs = dict(span.attrs)
            if "stamps" in attrs:
                attrs["steps"] = len(attrs.pop("stamps"))
            record = {
                "id": span.id,
                "parent": span.parent,
                "item": span.item,
                "name": span.name,
                "start_ns": span.start,
                "end_ns": span.end,
                "attrs": attrs,
            }
            fh.write(json.dumps(record, sort_keys=True) + "\n")
