"""Outside-in span recorder for the benchmark's traced runs.

Nothing here edits the program: the recorder replaces public methods on the
component *instances* of a :class:`repro.sim.simulator.Simulation` (and, in
the server launcher, on the service classes) with timing wrappers, and puts
the originals back when :meth:`Recorder.restore` runs.

Two kinds of record are kept in memory until the run ends:

* **spans** for coarse calls (one engine step, one protocol flush, one
  submission): name, start, end, parent span and operation id.  A span's
  self time is its duration minus the time its child spans cover.
* **tallies** for calls too frequent to keep one span each (one wireless
  exchange, one ``note_traffic``): call count and summed time, per phase
  (``setup`` or ``step``).  Their time stays inside the caller's self time.
"""

from __future__ import annotations

import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List, Tuple

Span = Tuple[str, float, float, int, object]


class Recorder:
    """Spans and tallies recorded around wrapped calls (thread-safe)."""

    def __init__(self) -> None:
        #: Span id -> span; ids come from one counter, so threads never collide.
        self.spans: Dict[int, Span] = {}
        self._ids = itertools.count()
        self.phase = "setup"
        self._local = threading.local()
        self._tallies: List[Dict[Tuple[str, str], List[float]]] = []
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------ state
    def _stack(self) -> List[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _tally(self) -> Dict[Tuple[str, str], List[float]]:
        tally = getattr(self._local, "tally", None)
        if tally is None:
            # Per-thread tables: a shared one would lose read-modify-write
            # updates between the server's worker threads.
            tally = self._local.tally = defaultdict(lambda: [0, 0.0])
            self._tallies.append(tally)
        return tally

    def set_op(self, op: object) -> None:
        """Tag the spans this thread records from now on with ``op``."""
        self._local.op = op

    # --------------------------------------------------------- recording
    def span(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call records one span."""
        spans = self.spans
        ids = self._ids
        clock = time.perf_counter
        local = self._local
        stack_of = self._stack

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            stack = stack_of()
            span_id = next(ids)
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (name, start, end, parent, getattr(local, "op", None))

        return wrapper

    def tally(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` wrapped so that every call adds to a count and a time."""
        clock = time.perf_counter
        tally_of = self._tally

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                cell = tally_of()[(name, self.phase)]
                cell[0] += 1
                cell[1] += clock() - start

        return wrapper

    def timed_context(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """``fn`` returns a context manager; tally its enter and exit time."""
        recorder = self

        class _Timed:
            __slots__ = ("_inner", "_spent")

            def __init__(self, inner: Any) -> None:
                self._inner = inner

            def __enter__(self) -> Any:
                start = time.perf_counter()
                value = self._inner.__enter__()
                self._spent = time.perf_counter() - start
                return value

            def __exit__(self, *exc: Any) -> Any:
                start = time.perf_counter()
                try:
                    return self._inner.__exit__(*exc)
                finally:
                    cell = recorder._tally()[(name, recorder.phase)]
                    cell[0] += 1
                    cell[1] += self._spent + time.perf_counter() - start

        def wrapper(*args: Any, **kwargs: Any) -> Any:
            return _Timed(fn(*args, **kwargs))

        return wrapper

    def patch(self, owner: object, attr: str, name: str, kind: str = "span") -> None:
        """Replace ``owner.attr`` by its wrapped form until :meth:`restore`."""
        original = getattr(owner, attr)
        wrap = {"span": self.span, "tally": self.tally, "context": self.timed_context}[kind]
        own = attr in vars(owner)
        setattr(owner, attr, wrap(name, original))
        if own:
            self._undo.append(lambda: setattr(owner, attr, original))
        else:
            # A method reached through the class: drop the shadowing attribute.
            self._undo.append(lambda: delattr(owner, attr))

    def restore(self) -> None:
        """Put back every patched attribute, newest first."""
        while self._undo:
            self._undo.pop()()

    # ----------------------------------------------------------- reading
    def span_totals(self) -> Dict[str, Dict[str, float]]:
        """Per span name: ``calls``, total ``seconds`` and ``self_seconds``."""
        child_time: Dict[int, float] = defaultdict(float)
        for _name, start, end, parent, _op in self.spans.values():
            if parent >= 0:
                child_time[parent] += end - start
        out: Dict[str, Dict[str, float]] = defaultdict(
            lambda: {"calls": 0, "seconds": 0.0, "self_seconds": 0.0}
        )
        for span_id, (name, start, end, _parent, _op) in self.spans.items():
            row = out[name]
            row["calls"] += 1
            row["seconds"] += end - start
            row["self_seconds"] += end - start - child_time.get(span_id, 0.0)
        return out

    def tallies(self) -> Dict[Tuple[str, str], Tuple[int, float]]:
        """Per ``(name, phase)``: call count and summed seconds, all threads."""
        out: Dict[Tuple[str, str], List[float]] = defaultdict(lambda: [0, 0.0])
        for table in self._tallies:
            for key, (calls, seconds) in list(table.items()):
                out[key][0] += calls
                out[key][1] += seconds
        return {key: (int(c), s) for key, (c, s) in out.items()}

    def dump(self, path: str, meta: Dict[str, Any]) -> None:
        """Write the spans to ``path``, one ``[id, name, start, end, parent,
        op]`` array per line, between a meta line and a tallies line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"meta": meta}) + "\n")
            for span_id in sorted(self.spans):
                fh.write(json.dumps([span_id, *self.spans[span_id]], default=str) + "\n")
            tallies = [[n, p, c, s] for (n, p), (c, s) in sorted(self.tallies().items())]
            fh.write(json.dumps({"tallies": tallies}) + "\n")


def instrument_simulation(rec: Recorder, sim: Any) -> None:
    """Wrap the layer entry points on one simulation's component instances.

    Span parents follow the call nesting: ``sim.step`` is the parent of the
    engine, demand, protocol and monitor spans it reaches, so its self time
    is the walk over the batch items plus the ``note_traffic`` calls.
    """
    rec.patch(sim, "step", "sim.step")
    rec.patch(sim.engine, "step_batch", "mobility.step_batch")
    rec.patch(sim.engine, "spawn", "mobility.spawn")
    rec.patch(sim.engine, "spawn_initial", "mobility.spawn_initial")
    rec.patch(sim.demand, "initial_fleet", "demand.initial_fleet")
    rec.patch(sim.demand, "border_arrivals", "demand.border_arrivals")
    rec.patch(sim.protocol, "process_batch", "protocol.process_batch")
    rec.patch(sim.protocol, "all_stable", "protocol.all_stable")
    rec.patch(sim.monitor, "observe", "convergence.observe")
    rec.patch(sim.monitor, "note_traffic", "convergence.note_traffic", "tally")
    rec.patch(sim.exchange, "exchange", "wireless.exchange", "tally")
    rec.patch(sim.exchange, "single_attempt", "wireless.single_attempt", "tally")
    rec.patch(sim.exchange, "batched_draws", "wireless.batched_draws", "context")


def instrument_routing(rec: Recorder) -> None:
    """Tally every ``repro.roadnet.routing.shortest_path`` call by phase."""
    from repro.roadnet import routing

    rec.patch(routing, "shortest_path", "roadnet.shortest_path", "tally")
