"""In-memory spans around the benchmark's calls into xchan, and what they yield.

A span is ``(name, start, end, parent, item, n, k)``: ``name`` is
``<layer>.<function>`` or ``bench.item``, times come from
``time.perf_counter`` (this process's monotonic clock), ``parent`` is the
index of the enclosing span or -1, ``item`` the item id, and ``n``/``k`` the
dimension and Kraus count the call worked at.  Spans wrap calls made from the
benchmark's own files only; nothing inside the package is instrumented.

Every per-layer metric and every per-N row is derived from the same span
list, so the two cannot disagree.
"""

from __future__ import annotations

import json
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from stats import percentile

ITEM = "bench.item"


class Tracer:
    """Records spans in memory; ``dump`` writes them out at the end."""

    def __init__(self):
        self.spans: list[list] = []
        self.bytes: dict[str, int] = {}
        self._item_span = -1
        self._item = -1
        self._n = 0
        self._k = 0

    def begin_item(self, item: int, n: int, k: int) -> None:
        self._item, self._n, self._k = item, n, k
        self._item_span = len(self.spans)
        self.spans.append([ITEM, perf_counter(), 0.0, -1, item, n, k])

    def end_item(self) -> None:
        self.spans[self._item_span][2] = perf_counter()
        self._item_span = -1

    def wrap(self, name: str, fn, shape: tuple[int, int] | None = None):
        """``fn`` with a span around each call; ``shape`` pins its (n, k)."""
        spans = self.spans

        def traced(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                n, k = shape or (self._n, self._k)
                spans.append(
                    [name, start, perf_counter(), self._item_span, self._item, n, k]
                )

        return traced

    @contextmanager
    def span(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.spans.append(
                [name, start, perf_counter(), self._item_span, self._item,
                 self._n, self._k]
            )

    def note_bytes(self, name: str, count: int) -> None:
        """Document size of the first call to a serialize function."""
        self.bytes.setdefault(name, count)

    def dump(self, fh, phase: str) -> None:
        """Write the spans to an open file, one JSON array per line."""
        for s in self.spans:
            fh.write(json.dumps([phase, *s]) + "\n")


class NullTracer:
    """Stand-in for untimed and untraced phases: records nothing."""

    def begin_item(self, item: int, n: int, k: int) -> None:
        pass

    def end_item(self) -> None:
        pass

    @contextmanager
    def span(self, name: str):
        yield

    def note_bytes(self, name: str, count: int) -> None:
        pass


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append((s[1], s[2]))
    out = []
    for idx, s in enumerate(spans):
        covered = 0.0
        reach = s[1]
        for start, end in sorted(children.get(idx, ())):
            start, end = max(start, reach, s[1]), min(end, s[2])
            if end > start:
                covered += end - start
                reach = end
        out.append((s[2] - s[1]) - covered)
    return out


def by_function(spans) -> dict[tuple[str, int], list]:
    """Spans grouped by (name, n), item spans excluded."""
    groups = defaultdict(list)
    for s in spans:
        if s[0] != ITEM:
            groups[(s[0], s[5])].append(s)
    return groups


def layer_metrics(spans, wall: float, residuals: dict[str, float]) -> dict[str, float]:
    """Per-layer metrics of one traced phase lasting ``wall`` seconds."""
    out: dict[str, float] = {}
    calls: dict[str, int] = defaultdict(int)
    for (name, n), group in by_function(spans).items():
        durations = [s[2] - s[1] for s in group]
        calls[name] += len(group)
        if name.startswith("cli."):
            out[f"{name}.proc_ms_p50"] = 1e3 * percentile(durations, 50)
        else:
            out[f"{name}.us_p50.n{n}"] = 1e6 * percentile(durations, 50)
    for name, count in calls.items():
        if not name.startswith("cli."):
            out[f"{name}.calls"] = count
    busy: dict[str, float] = defaultdict(float)
    item_total = item_self = 0.0
    for s, own in zip(spans, self_times(spans)):
        if s[0] == ITEM:
            item_total += s[2] - s[1]
            item_self += own
        else:
            busy[s[0].split(".", 1)[0]] += own
    for layer, seconds in busy.items():
        out[f"{layer}.busy_share"] = seconds / wall
    if item_total > 0:
        out["bench.self_share"] = item_self / item_total
    for layer, value in residuals.items():
        out[f"{layer}.max_residual"] = value
    return out


def rows(spans, residuals: dict[tuple[str, int], float]) -> list[dict]:
    """Per-(function, N) rows ``{layer, function, N, k, us_per_call, ...}``.

    ``us_per_call`` is the same median the ``us_p50`` metric reports, and
    ``max_residual`` the layer's largest gated residual at that N.
    """
    out = []
    for (name, n), group in sorted(by_function(spans).items()):
        layer, function = name.split(".", 1)
        out.append({
            "layer": layer,
            "function": function,
            "N": n,
            "k": max(s[6] for s in group),
            "us_per_call": 1e6 * percentile([s[2] - s[1] for s in group], 50),
            "calls": len(group),
            "max_residual": residuals.get((layer, n)),
        })
    return out
