"""Span tracer that wraps the simulator's layer entry points from outside.

While a `Tracer` is installed, each wrapped function records one span per
call, (name, start, end, parent), in memory; the benchmark writes the spans
out when it ends.  `kinematics.safe_interval` runs tens of thousands of
times per run, so it is counted rather than timed.  Everything is restored
on exit, so untraced executions run the unmodified code.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from rangeskyline import harness, metrics, netsim, protocols, skyline

ROOT = "harness.run_scenario"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._instants: set[float] = set()
        self._predict_inputs: set = set()

    # -- recording -------------------------------------------------------------

    def span(self, name: str, fn, on_call=None):
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else -1
            idx = len(self.spans)
            self.spans.append((name, 0.0, 0.0, parent))
            self._stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self.spans[idx] = (name, start, end, parent)
            if on_call is not None:
                on_call(args, result, parent)
            return result

        return wrapper

    def counter(self, name: str, fn):
        def wrapper(*args, **kwargs):
            self.counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def run(self, fn, *args):
        """One simulated run as a root span; per-run sets start empty."""
        self._instants.clear()
        self._predict_inputs.clear()
        return self.span(ROOT, fn)(*args)

    # -- per-call counters -------------------------------------------------------

    def _on_neighbors(self, args, result, parent) -> None:
        t = args[2]
        self.counts["netsim.neighbors_of.calls"] += 1
        if t not in self._instants:
            self._instants.add(t)
            self.counts["netsim.neighbors_of.distinct_instants"] += 1

    def _on_predict(self, args, result, parent) -> None:
        center, range_R, objects, window, _now = args
        c = self.counts
        c["protocols.predict_timeline.calls"] += 1
        c["protocols.predict_timeline.objects"] += len(objects)
        c["protocols.predict_timeline.segments"] += len(result)
        if parent >= 0 and self.spans[parent][0] == "metrics.oracle_timeline":
            c["metrics.predict_timeline.calls"] += 1
        key = (
            center,
            range_R,
            window,
            frozenset((o.id, o.position, o.velocity, o.observed_at) for o in objects),
        )
        if key in self._predict_inputs:
            c["protocols.predict_timeline.same_input_calls"] += 1
        else:
            self._predict_inputs.add(key)

    def _on_point_skyline(self, args, result, parent) -> None:
        self.counts["skyline.point_skyline.calls"] += 1
        self.counts["skyline.point_skyline.objects"] += len(args[1])

    def _on_merge_prune(self, args, result, parent) -> None:
        self.counts["skyline.merge_prune.calls"] += 1

    # -- installation ---------------------------------------------------------------

    def _targets(self):
        """(owner, attribute, wrapper factory) for every patched entry point."""
        predict = lambda fn: self.span("protocols.predict_timeline", fn, self._on_predict)
        point = lambda fn: self.span("skyline.point_skyline", fn, self._on_point_skyline)
        return [
            (harness, "build_world", lambda fn: self.span("harness.build_world", fn)),
            (harness, "oracle_timeline", lambda fn: self.span("metrics.oracle_timeline", fn)),
            (harness, "precision_recall", lambda fn: self.span("metrics.precision_recall", fn)),
            (netsim.Simulator, "run", lambda fn: self.span("netsim.run", fn)),
            (
                netsim.Simulator,
                "neighbors_of",
                lambda fn: self.span("netsim.neighbors_of", fn, self._on_neighbors),
            ),
            (protocols, "predict_timeline", predict),
            (metrics, "predict_timeline", predict),
            (
                protocols.QueryProtocol,
                "schedule_contacts",
                lambda fn: self.span("protocols.schedule_contacts", fn),
            ),
            (protocols, "safe_interval", lambda fn: self.counter("kinematics.safe_interval.calls", fn)),
            (protocols, "point_skyline", point),
            (skyline, "point_skyline", point),
            (
                protocols,
                "merge_prune",
                lambda fn: self.span("skyline.merge_prune", fn, self._on_merge_prune),
            ),
        ]

    @contextmanager
    def installed(self):
        saved = []
        try:
            for owner, attr, make in self._targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    # -- aggregation --------------------------------------------------------------------

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Total and self time per span name; self excludes direct children."""
        total: dict[str, float] = defaultdict(float)
        child: list[float] = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        for i, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[i]
        return dict(total), dict(own)

    def total_under(self, name: str, parent_name: str) -> float:
        """Time of `name` spans whose direct parent is a `parent_name` span."""
        return sum(
            end - start
            for n, start, end, parent in self.spans
            if n == name and parent >= 0 and self.spans[parent][0] == parent_name
        )

    def write_tsv(self, path) -> None:
        with open(path, "w") as fh:
            fh.write("index\tparent\tname\tstart_s\tend_s\n")
            for i, (name, start, end, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{parent}\t{name}\t{start:.9f}\t{end:.9f}\n")
