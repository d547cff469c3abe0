"""In-memory tracing, applied from outside the package.

Spans mark the coarse steps of a run (workload pass, cell, setup, kernel,
record step). Hot operations (runtime ops, the profile hook, word
transforms) are never one span per call: each wrapped callable keeps an
aggregate of its call count and self time instead.

Self time of a span or a wrapped call is its duration minus the
durations of the spans and wrapped calls that ran directly inside it.
One counter of finished-child time serves both, so nesting in any mix
works without a per-call stack."""

import time
from contextlib import contextmanager

_now = time.perf_counter_ns


class Tracer:
    def __init__(self):
        self.spans = []  # [name, parent, start_ns, end_ns, self_ns, attrs]
        self.ops = {}  # key -> [calls, self_ns]
        self._open = []  # (span index, finished-child ns at begin)
        self._inner = [0]  # ns of finished children at the current depth

    def wrap(self, key, fn):
        """fn with its calls and self time added to the aggregate for key."""
        agg = self.ops.setdefault(key, [0, 0])
        inner = self._inner
        now = _now

        def traced(*args):
            n0 = inner[0]
            t0 = now()
            try:
                return fn(*args)
            finally:
                dt = now() - t0
                agg[0] += 1
                agg[1] += dt - (inner[0] - n0)
                inner[0] = n0 + dt

        return traced

    def begin(self, name, **attrs):
        parent = self._open[-1][0] if self._open else None
        idx = len(self.spans)
        self.spans.append([name, parent, _now(), None, None, attrs])
        self._open.append((idx, self._inner[0]))
        return idx

    def end(self, idx):
        """Close span idx, first closing any span still open inside it."""
        while self._open:
            top, n0 = self._open.pop()
            span = self.spans[top]
            span[3] = _now()
            dt = span[3] - span[2]
            span[4] = dt - (self._inner[0] - n0)
            self._inner[0] = n0 + dt
            if top == idx:
                return
        raise ValueError("span %d is not open" % idx)

    def end_open(self, name):
        """Close the innermost open span if it is called name."""
        if self._open and self.spans[self._open[-1][0]][0] == name:
            self.end(self._open[-1][0])

    @contextmanager
    def span(self, name, **attrs):
        idx = self.begin(name, **attrs)
        try:
            yield idx
        finally:
            self.end(idx)

    def op_totals(self, match):
        """(calls, self_ns) summed over the aggregates whose key match()
        accepts."""
        calls = ns = 0
        for key, (c, t) in self.ops.items():
            if match(key):
                calls += c
                ns += t
        return calls, ns

    def span_totals(self, name, **attrs):
        """(count, total ns, self ns) over closed spans called name whose
        attrs include the given ones."""
        n = total = own = 0
        for sname, _, t0, t1, self_ns, sattrs in self.spans:
            if sname != name or t1 is None:
                continue
            if any(sattrs.get(k) != v for k, v in attrs.items()):
                continue
            n += 1
            total += t1 - t0
            own += self_ns
        return n, total, own

    def dump(self):
        return {
            "spans": [
                {
                    "id": i,
                    "name": name,
                    "parent": parent,
                    "start_ns": t0,
                    "end_ns": t1,
                    "self_ns": self_ns,
                    "attrs": attrs,
                }
                for i, (name, parent, t0, t1, self_ns, attrs) in enumerate(self.spans)
            ],
            "ops": [
                {"key": list(key) if isinstance(key, tuple) else key, "calls": c, "self_ns": t}
                for key, (c, t) in sorted(self.ops.items(), key=lambda kv: str(kv[0]))
            ],
        }


@contextmanager
def patched(*triples):
    """Set (object, attribute, value) for the duration of the block."""
    saved = [(obj, name, getattr(obj, name)) for obj, name, _ in triples]
    try:
        for obj, name, value in triples:
            setattr(obj, name, value)
        yield
    finally:
        for obj, name, value in reversed(saved):
            setattr(obj, name, value)
