"""Benchmark records and the perf comparison against a base revision.

Two jobs live here; neither runs a benchmark, so the unit suite covers both:

* :func:`record` merges one benchmark section into ``BENCH_engine.json``
  (the repository root when run from a checkout), stamps it with a
  :func:`provenance` block, and appends the run to the file's ``history``
  list, so the perf trajectory across commits is kept even though every
  section holds only its latest numbers.
* :func:`compare_pairs` and :func:`gate` turn the last lines of paired
  ``perfbench/run.py`` runs — one at a base revision, one at the head — into
  per-pair ratios and a pass/fail decision.  ``benchmarks/perf_vs_base.py``
  runs the pairs and calls them.

Only stdlib and NumPy; deliberately no dependency on pytest-benchmark so the
smoke job can run anywhere.
"""

from __future__ import annotations

import json
import os
import platform
import subprocess
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ._version import __version__

__all__ = [
    "DEFAULT_BENCH_PATH",
    "HISTORY_LIMIT",
    "GATED_METRIC",
    "Comparison",
    "last_line",
    "pair_ratio",
    "compare_pairs",
    "gate",
    "provenance",
    "record",
]

#: Cap on the ``history`` list so the record file cannot grow without bound
#: (oldest entries are dropped first).
HISTORY_LIMIT = 200

#: Default output file, resolved relative to the current working directory
#: (the repository root when running pytest from a checkout).  Override with
#: the ``REPRO_BENCH_PATH`` environment variable.
DEFAULT_BENCH_PATH = "BENCH_engine.json"

#: The end-to-end metric the base comparison gates on.
GATED_METRIC = "steps_per_s"


# ------------------------------------------------------------ comparison
def last_line(stdout: str) -> Dict[str, Any]:
    """The JSON object on the last non-empty line of a perfbench run.

    Raises ``ValueError`` when there is no such line or it is not an object
    (a run that crashed before printing its result).
    """
    lines = [line for line in stdout.splitlines() if line.strip()]
    if not lines:
        raise ValueError("perfbench printed nothing")
    parsed = json.loads(lines[-1])
    if not isinstance(parsed, dict):
        raise ValueError(f"perfbench's last line is not an object: {lines[-1]!r}")
    return parsed


def pair_ratio(base: float, head: float, better: str) -> float:
    """Head over base, inverted for lower-is-better metrics.

    A ratio above 1 always means the head did better.
    """
    if better == "higher":
        return head / base
    if better == "lower":
        return base / head
    raise ValueError(f"better must be 'higher' or 'lower', got {better!r}")


@dataclass
class Comparison:
    """Per-metric ratios of paired runs and the correctness of every run."""

    #: metric -> per-pair ratios, in pair order (above 1: the head did better).
    ratios: Dict[str, List[float]] = field(default_factory=dict)
    #: Why a run counts as failed: ``"<side> run <i>: ..."``.
    failures: List[str] = field(default_factory=list)

    def median(self, metric: str) -> float:
        return float(np.median(self.ratios[metric]))

    def iqr(self, metric: str) -> float:
        q1, q3 = np.percentile(self.ratios[metric], [25, 75])
        return float(q3 - q1)

    def summary(self) -> Dict[str, Dict[str, float]]:
        """Median and interquartile range of each measured metric's per-pair ratios."""
        return {
            name: {"ratio_median": round(self.median(name), 4), "ratio_iqr": round(self.iqr(name), 4)}
            for name in sorted(self.ratios)
            if self.ratios[name]
        }


def compare_pairs(
    pairs: Sequence[Tuple[Mapping[str, Any], Mapping[str, Any]]],
    better: Mapping[str, str],
) -> Comparison:
    """Per-pair ratios of every metric in ``better`` over (base, head) results.

    Each result is a perfbench last line (see :func:`last_line`).  A run
    with ``correct`` false or any failed operation is recorded in
    ``failures``; its metrics still enter the ratios.  A metric missing on
    either side (a run that crashed before measuring) gives that pair no
    ratio for it.
    """
    comparison = Comparison(ratios={name: [] for name in better})
    for i, (base, head) in enumerate(pairs):
        for side, result in (("base", base), ("head", head)):
            if result.get("correct") is not True or result.get("failed", 0):
                comparison.failures.append(
                    f"{side} run {i}: correct={result.get('correct')!r} "
                    f"failed={result.get('failed')!r}"
                )
        for name, direction in better.items():
            if name in base["metrics"] and name in head["metrics"]:
                comparison.ratios[name].append(
                    pair_ratio(
                        float(base["metrics"][name]["value"]),
                        float(head["metrics"][name]["value"]),
                        direction,
                    )
                )
    return comparison


def gate(comparison: Comparison, threshold: float) -> List[str]:
    """Reasons the head fails against the base; empty when it passes.

    The head fails when any run failed, or when the median per-pair ratio
    of :data:`GATED_METRIC` is below ``threshold``.
    """
    reasons = list(comparison.failures)
    if not comparison.ratios.get(GATED_METRIC):
        reasons.append(f"no {GATED_METRIC} ratio was measured")
        return reasons
    median = comparison.median(GATED_METRIC)
    if median < threshold:
        reasons.append(
            f"median {GATED_METRIC} ratio {median:.3f} is below the threshold {threshold}"
        )
    return reasons


# --------------------------------------------------------------- records
def _bench_path(path: Optional[str]) -> str:
    return path or os.environ.get("REPRO_BENCH_PATH", DEFAULT_BENCH_PATH)


def _git_describe(anchor: str) -> Optional[str]:
    """``git describe --always --dirty`` of the repo containing ``anchor``.

    Best effort: returns None outside a git checkout or when git is absent,
    so recording never fails because of version lookup.
    """
    try:
        out = subprocess.run(
            ["git", "describe", "--always", "--dirty"],
            cwd=os.path.dirname(os.path.abspath(anchor)) or ".",
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.SubprocessError):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.strip() or None


def provenance(anchor: str) -> Dict[str, Any]:
    """Where and from what a record was measured.

    ``anchor`` is a path inside the checkout whose ``git describe`` is
    recorded.  The kernel backends say whether the vectorized engine ran
    the native kernel.
    """
    from .mobility.kernels import available_backends

    return {
        "git_describe": _git_describe(anchor),
        "nproc": os.cpu_count(),
        "kernel_backends": available_backends(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "version": __version__,
        "recorded_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


def record(section: str, payload: Dict[str, Any], *, path: Optional[str] = None) -> str:
    """Merge ``payload`` under ``section`` into the benchmark record file.

    The section is written as ``payload`` plus a ``provenance`` block (see
    :func:`provenance`).  Existing sections are preserved (corrupt files are
    replaced) and the file is written atomically.  The section is also
    *appended* to the file's ``history`` list, so overwriting a section never
    loses the perf trajectory across commits.  Returns the path written.
    """
    target = _bench_path(path)
    data: Dict[str, Any] = {}
    if os.path.exists(target):
        try:
            with open(target) as fh:
                loaded = json.load(fh)
            if isinstance(loaded, dict):
                data = loaded
        except (OSError, ValueError):
            data = {}
    stamped = dict(payload, provenance=provenance(target))
    data[section] = stamped
    history = data.get("history")
    if not isinstance(history, list):
        history = []
    history.append({"section": section, "payload": stamped})
    data["history"] = history[-HISTORY_LIMIT:]
    tmp = f"{target}.tmp"
    with open(tmp, "w") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, target)
    return target
