"""In-memory span recorder and the wrappers that feed it.

Spans are recorded only from this directory's code: each wrapper replaces
a public qcap name (or a numpy name qcap looks up at call time) and is
removed again by `Tracer.uninstall`. Nothing inside `src/` is edited.

Two record kinds share one JSONL file:

* ``span``: one call at a layer boundary with name, start, end, parent
  span, op id and counts taken at that boundary.
* ``agg``: calls too frequent to keep one by one (eigensolves, stream
  constructions, per-member sampling). They are summed per anchor span
  and per path of nested hot names, so self time stays computable:
  the self time of ``(anchor, path)`` is its time minus the time of
  ``(anchor, path + (child,))``.
"""

from __future__ import annotations

import json
import time

_clock = time.perf_counter


class _Frame:
    __slots__ = ("sid", "name", "start", "counts", "outer_hot")

    def __init__(self, sid, name, start, outer_hot):
        self.sid = sid
        self.name = name
        self.start = start
        self.counts = {}
        self.outer_hot = outer_hot


class Tracer:
    """Span stack plus aggregated hot-call records for one run."""

    def __init__(self):
        self.spans = []      # finished spans, dicts
        self.agg = {}        # (anchor sid, path tuple) -> [calls, seconds, units]
        self.stack = []      # open real spans
        self.hot = []        # open hot-call names under the innermost real span
        self.op = -1
        self._next = 0
        self._undo = []

    # -- recording --------------------------------------------------------

    def open(self, name: str) -> _Frame:
        frame = _Frame(self._next, name, _clock(), self.hot)
        self._next += 1
        self.stack.append(frame)
        self.hot = []
        return frame

    def close(self, frame: _Frame, error: str | None = None) -> None:
        end = _clock()
        top = self.stack.pop()
        assert top is frame, "span stack out of order"
        self.hot = frame.outer_hot
        parent = self.stack[-1].sid if self.stack else None
        rec = {"kind": "span", "id": frame.sid, "parent": parent, "op": self.op,
               "name": frame.name, "start": frame.start, "end": end}
        if frame.counts:
            rec["counts"] = frame.counts
        if error is not None:
            rec["error"] = error
        self.spans.append(rec)

    def hot_call(self, name: str, fn, args, kwargs, units: int = 0):
        """Run fn as an aggregated hot call under the innermost real span."""
        anchor = self.stack[-1].sid
        self.hot.append(name)
        path = tuple(self.hot)
        t0 = _clock()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = _clock() - t0
            self.hot.pop()
            cell = self.agg.get((anchor, path))
            if cell is None:
                self.agg[(anchor, path)] = [1, dt, units]
            else:
                cell[0] += 1
                cell[1] += dt
                cell[2] += units

    # -- wrapping ---------------------------------------------------------

    def patch(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]
                           if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap_span(self, owner, attr: str, name: str, counter=None) -> None:
        """Record every call of owner.attr made inside an op as a span.

        counter(frame.counts, args, kwargs, result, exc) adds counts at the
        same boundary; it runs after the clock stops.
        """
        orig = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return orig(*args, **kwargs)
            frame = tracer.open(name)
            try:
                result = orig(*args, **kwargs)
            except BaseException as exc:
                tracer.close(frame, type(exc).__name__)
                if counter is not None:
                    counter(tracer.spans[-1].setdefault("counts", {}),
                            args, kwargs, None, exc)
                raise
            tracer.close(frame)
            if counter is not None:
                counter(tracer.spans[-1].setdefault("counts", {}),
                        args, kwargs, result, None)
            return result

        wrapper.__wrapped__ = orig
        self.patch(owner, attr, wrapper)

    def wrap_hot(self, owner, attr: str, name: str, units=None) -> None:
        """Aggregate calls of owner.attr made inside an op; units(args) counts work."""
        orig = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.stack:
                return orig(*args, **kwargs)
            u = units(args, kwargs) if units is not None else 0
            return tracer.hot_call(name, orig, args, kwargs, u)

        wrapper.__wrapped__ = orig
        self.patch(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, orig = self._undo.pop()
            setattr(owner, attr, orig)

    # -- output -----------------------------------------------------------

    def records(self):
        yield from self.spans
        for (anchor, path), (calls, secs, units) in self.agg.items():
            yield {"kind": "agg", "anchor": anchor, "path": list(path),
                   "calls": calls, "seconds": secs, "units": units}

    def write_jsonl(self, path, header: dict) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"kind": "header", **header}) + "\n")
            for rec in self.records():
                fh.write(json.dumps(rec) + "\n")
