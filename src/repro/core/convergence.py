"""Convergence monitoring and deadlock (orphan / waiting-chain) diagnostics.

Section IV-B warns about the "odd traffic pattern" deadlock: if vehicles
deliberately avoid a road segment while its counting is active, the counting
on that segment never ends ("orphan"), and the stall propagates up the
spanning tree as a *waiting chain*.  Theorem 3 resolves it with patrol cars.

:class:`ConvergenceMonitor` watches a :class:`CountingProtocol` instance and
answers three operational questions:

* has the constitution (Alg. 1/3/5) converged, and when did each checkpoint
  stabilize?
* which directed segments look like orphans (no traffic observed for longer
  than a threshold while their counting is still active)?
* which checkpoints are stalled only because of orphan successors
  (the waiting chains)?
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Sequence, Tuple

from .protocol import CountingProtocol

__all__ = ["OrphanReport", "ConvergenceMonitor"]


@dataclass(frozen=True)
class OrphanReport:
    """A directed segment whose counting has been waiting suspiciously long."""

    segment: Tuple[object, object]
    waiting_since_s: float
    last_traffic_s: Optional[float]

    def waited_for(self, now_s: float) -> float:
        return now_s - self.waiting_since_s


class ConvergenceMonitor:
    """Tracks convergence progress of a running protocol instance."""

    def __init__(self, protocol: CountingProtocol, *, orphan_timeout_s: float = 300.0) -> None:
        self.protocol = protocol
        self.orphan_timeout_s = float(orphan_timeout_s)
        #: directed segment -> last time a vehicle crossed into its head
        self._last_traffic: Dict[Tuple[object, object], float] = {}
        #: directed segment -> time its counting started
        self._counting_since: Dict[Tuple[object, object], float] = {}
        self._all_active_at: Optional[float] = None
        self._all_stable_at: Optional[float] = None
        #: protocol activation revision at our last counting scan; -1 forces
        #: the first observe() to scan.
        self._seen_activation_rev = -1

    # ------------------------------------------------------------------ feed
    def note_traffic(self, from_node: Optional[object], node: object, time_s: float) -> None:
        """Record that a vehicle just arrived at ``node`` from ``from_node``."""
        if from_node is not None:
            self._last_traffic[(from_node, node)] = time_s

    def note_crossings(
        self,
        from_nodes: Sequence[Optional[object]],
        nodes: Sequence[object],
        time_s: float,
    ) -> None:
        """Bulk :meth:`note_traffic` for one step's crossings, in order.

        ``from_nodes[i]`` -> ``nodes[i]`` is the i-th crossing; all share
        ``time_s``.  Same dict contents and insertion order as one
        :meth:`note_traffic` call per crossing.
        """
        last = self._last_traffic
        for from_node, node in zip(from_nodes, nodes):
            if from_node is not None:
                last[(from_node, node)] = time_s

    def observe(self, time_s: float) -> None:
        """Refresh convergence bookkeeping (call once per simulation step)."""
        if self._all_active_at is None and self.protocol.all_active():
            self._all_active_at = time_s
        if self._all_stable_at is None and self.protocol.all_stable():
            self._all_stable_at = time_s
        if self._all_stable_at is not None:
            # Stability is monotone: once every checkpoint stabilized there
            # are no counting segments left to record, so skip the scan.
            return
        # Counting directions only appear when a checkpoint activates
        # (afterwards they can only stop), so the O(checkpoints) scan runs
        # once per activation instead of once per step — at most
        # len(checkpoints) scans per run, however long convergence takes.
        rev = self.protocol.activation_rev
        if rev == self._seen_activation_rev:
            return
        self._seen_activation_rev = rev
        for origin, node in self.protocol.counting_in_progress():
            self._counting_since.setdefault((origin, node), time_s)

    # --------------------------------------------------------------- queries
    @property
    def all_active_at(self) -> Optional[float]:
        """Time at which the frontier wave had reached every checkpoint."""
        return self._all_active_at

    @property
    def all_stable_at(self) -> Optional[float]:
        """Time at which every checkpoint's counting had stabilized."""
        return self._all_stable_at

    def orphans(self, now_s: float) -> List[OrphanReport]:
        """Directed segments whose counting has outlived the orphan timeout."""
        reports: List[OrphanReport] = []
        in_progress = set(self.protocol.counting_in_progress())
        for segment, since in self._counting_since.items():
            if segment not in in_progress:
                continue
            last = self._last_traffic.get(segment)
            idle_for = now_s - (last if last is not None else since)
            if idle_for >= self.orphan_timeout_s:
                reports.append(
                    OrphanReport(segment=segment, waiting_since_s=since, last_traffic_s=last)
                )
        return reports

    def waiting_chains(self, now_s: float) -> Dict[object, List[object]]:
        """For each stalled checkpoint, the chain of successors it waits on.

        A checkpoint ``u`` is *stalled* when it is active but not stable.  The
        chain follows, from ``u``, the tails of its still-counting inbound
        directions that are themselves stalled — the structure the paper calls
        a waiting chain.
        """
        stalled = {
            node
            for node, cp in self.protocol.checkpoints.items()
            if cp.active and not cp.stable
        }
        chains: Dict[object, List[object]] = {}
        for node in stalled:
            chain: List[object] = []
            visited = {node}
            current = node
            while True:
                cp = self.protocol.checkpoints[current]
                nxt = None
                for origin in cp.counting_directions():
                    if origin in stalled and origin not in visited:
                        nxt = origin
                        break
                if nxt is None:
                    break
                chain.append(nxt)
                visited.add(nxt)
                current = nxt
            chains[node] = chain
        return chains

    def summary(self, now_s: float) -> Dict[str, Any]:
        """A compact dictionary for logging / reports."""
        return {
            "all_active_at": self._all_active_at,
            "all_stable_at": self._all_stable_at,
            "segments_still_counting": len(self.protocol.counting_in_progress()),
            "orphans": len(self.orphans(now_s)),
        }
