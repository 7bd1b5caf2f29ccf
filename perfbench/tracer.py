"""Spans and counters recorded around the benchmark's calls into the package.

Spans are opened only in the benchmark's own code: around each public call
it makes, and around the family oracle's ``batch`` and ``exact_prob``
callables, which the benchmark swaps in with ``dataclasses.replace`` before
handing the function to the program.  A layer's self time is its span time
minus the time of its child spans.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import time
from collections import defaultdict


@dataclasses.dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    job: int | None
    tag: str | None
    child_s: float = 0.0
    points: int = 0  # rows handed to a ``families.batch`` call

    @property
    def s(self) -> float:
        return self.end - self.start

    @property
    def self_s(self) -> float:
        return self.s - self.child_s


class NullTracer:
    """Untraced runs: the program is called directly."""

    enabled = False

    def call(self, name, fn, *args, _tag=None, **kwargs):
        return fn(*args, **kwargs)

    def count(self, name, value=1):
        pass

    def oracle(self, f):
        return f

    def begin_job(self, job_id):
        pass


class Tracer(NullTracer):
    """Keeps every span in memory; :meth:`dump` writes them out at the end."""

    enabled = True

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._job: int | None = None

    def begin_job(self, job_id):
        self._job = job_id

    @contextlib.contextmanager
    def span(self, name, tag=None):
        parent = self._stack[-1] if self._stack else None
        rec = Span(name, time.perf_counter(), 0.0, parent, self._job, tag)
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            rec.end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                self.spans[parent].child_s += rec.s

    def call(self, name, fn, *args, _tag=None, **kwargs):
        with self.span(name, _tag):
            return fn(*args, **kwargs)

    def count(self, name, value=1):
        self.counts[name] += value

    def oracle(self, f):
        """The same function with its oracle callables wrapped in spans."""
        if f.oracle is None:
            return f
        oracle = f.oracle
        batch = oracle.batch

        def traced_batch(X):
            with self.span("families.batch") as rec:
                rec.points = len(X)
                return batch(X)

        changes = {"batch": traced_batch}
        if oracle.exact_prob is not None:
            exact = oracle.exact_prob

            def traced_exact(measure, a):
                with self.span("families.exact_prob"):
                    return exact(measure, a)

            changes["exact_prob"] = traced_exact
        return dataclasses.replace(f, oracle=dataclasses.replace(oracle, **changes))

    def totals(self, name, tag=None) -> tuple[int, float, float, int]:
        """Calls, span seconds, self seconds and points of the spans named ``name``."""
        calls, total, own, points = 0, 0.0, 0.0, 0
        for sp in self.spans:
            if sp.name == name and (tag is None or sp.tag == tag):
                calls += 1
                total += sp.s
                own += sp.self_s
                points += sp.points
        return calls, total, own, points

    def descendants(self, name, is_ancestor) -> tuple[int, float, int]:
        """Calls, seconds and points of ``name`` spans opened inside a span ``is_ancestor`` accepts."""
        calls, total, points = 0, 0.0, 0
        for sp in self.spans:
            if sp.name != name:
                continue
            parent = sp.parent
            while parent is not None and not is_ancestor(self.spans[parent]):
                parent = self.spans[parent].parent
            if parent is not None:
                calls += 1
                total += sp.s
                points += sp.points
        return calls, total, points

    def dump(self, path) -> None:
        with open(path, "w") as handle:
            for i, sp in enumerate(self.spans):
                handle.write(
                    json.dumps(
                        {
                            "id": i,
                            "name": sp.name,
                            "start": sp.start,
                            "end": sp.end,
                            "parent": sp.parent,
                            "job": sp.job,
                            "tag": sp.tag,
                        }
                    )
                    + "\n"
                )
