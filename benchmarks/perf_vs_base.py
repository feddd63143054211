"""Gate this checkout's speed on a base git revision, through perfbench.

Usage, from the root of a checkout::

    python3 benchmarks/perf_vs_base.py BASE

``BASE`` is any git revision (``HEAD^``, a merge base, a tag).  The script
extracts it with ``git archive`` into a temporary directory, then runs each
tree's own ``perfbench/run.py --seed 1`` on ``midtown-open`` and
``city-25k``: ``PAIRS`` untraced pairs per workload, alternating which tree
runs first so drift of the host hits both sides alike, then one traced pair
for the per-layer numbers.  Each side measures with its own benchmark code,
so a base whose ``perfbench/`` differs is measured as that commit would
measure itself.

It fails (exit 1) when any run reports ``correct: false`` or a failed
operation, or when on either workload the median per-pair ratio of
``steps_per_s`` (head over base; perfbench already scales step timings to a
reference host speed) is below ``THRESHOLD``.  Either way it records the
comparison as the ``layers`` section of ``BENCH_engine.json`` at the root of
this checkout: both revisions, the host, the median and interquartile range
of the per-pair ratio of every end-to-end metric in ``BENCHMARK.json``, and
the traced per-layer numbers of both sides.

The workloads are the two whose step is the engine's: ``midtown-open``
(small fleet, border arrivals, irregular protocol events) and ``city-25k``
(25k vehicles, crossings at scale).  ``service-small`` measures the service
loop, whose steps/s follows the client threads more than the program, so it
is left to the digest check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from typing import Any, Dict, List, Tuple

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

from repro.bench import GATED_METRIC, compare_pairs, gate, last_line, record  # noqa: E402

WORKLOADS = ("midtown-open", "city-25k")
#: Untraced pairs per workload.
PAIRS = 5
#: Lowest median per-pair steps/s ratio (head over base) that passes.  On
#: a 2-vCPU host, a revision against itself gave per-pair ratios of
#: 0.94-1.05 (midtown-open) and 0.93-1.13 (city-25k) over 10 pairs each, and
#: 5-pair medians of 0.96-1.00; a busy loop adding 17% to midtown-open's
#: step read 0.86.
THRESHOLD = 0.9


def git(*args: str) -> str:
    done = subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    )
    return done.stdout.strip()


def extract(rev: str, dest: str) -> None:
    """Write the tree of ``rev`` into ``dest``."""
    archive = subprocess.run(
        ["git", "archive", "--format=tar", rev], cwd=ROOT, capture_output=True, check=True
    ).stdout
    subprocess.run(["tar", "-x", "-C", dest], input=archive, check=True)


def run(tree: str, workload: str, trace: int) -> Tuple[Dict[str, Any], Dict[str, Any]]:
    """One perfbench run in ``tree``: its last line and its provenance line."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, os.path.join(tree, "perfbench", "run.py"),
         "--workload", workload, "--seed", "1", "--trace", str(trace)],
        cwd=tree, env=env, capture_output=True, text=True,
    )
    prov: Dict[str, Any] = {}
    for line in done.stdout.splitlines():
        if line.startswith("provenance "):
            prov = json.loads(line[len("provenance "):])
    try:
        result = last_line(done.stdout)
    except ValueError as exc:
        sys.stderr.write(done.stdout[-2000:] + done.stderr[-2000:])
        print(f"    no result line: {exc}")
        result = {"correct": False, "failed": 1, "metrics": {}}
    for line in done.stdout.splitlines():
        if line.startswith("FAILED: "):
            print(f"    {line}")
    return result, prov


def main(argv: List[str]) -> int:
    if len(argv) != 1 or argv[0].startswith("-"):
        print("usage: python3 benchmarks/perf_vs_base.py BASE", file=sys.stderr)
        return 2
    base_rev = argv[0]
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        better = {m["name"]: m["better"] for m in json.load(fh)["end_to_end"]}
    try:
        described = {
            "base": git("describe", "--always", base_rev),
            "head": git("describe", "--always", "--dirty"),
        }
    except subprocess.CalledProcessError as exc:
        print(f"perf: cannot describe {base_rev!r}: {exc.stderr.strip()}", file=sys.stderr)
        return 2
    print(f"perf: head {described['head']} vs base {described['base']} ({base_rev})", flush=True)

    backends: Dict[str, Any] = {}
    workloads: Dict[str, Any] = {}
    reasons: List[str] = []
    with tempfile.TemporaryDirectory(prefix="perf-vs-base-") as work:
        extract(base_rev, work)
        trees = {"base": work, "head": ROOT}
        for workload in WORKLOADS:
            pairs = []
            for i in range(PAIRS):
                order = ("base", "head") if i % 2 == 0 else ("head", "base")
                got: Dict[str, Dict[str, Any]] = {}
                for side in order:
                    got[side], prov = run(trees[side], workload, 0)
                    backends[side] = prov.get("kernel_backends")
                pairs.append((got["base"], got["head"]))
                rates = [
                    got[s]["metrics"].get(GATED_METRIC, {}).get("value", float("nan"))
                    for s in ("base", "head")
                ]
                print(f"  {workload} pair {i + 1}/{PAIRS}: {GATED_METRIC} base {rates[0]:.5g} "
                      f"head {rates[1]:.5g} ({rates[1] / rates[0]:.3f})", flush=True)
            traced = {side: run(trees[side], workload, 1)[0] for side in ("base", "head")}
            comparison = compare_pairs(pairs, better)
            traced_check = compare_pairs([(traced["base"], traced["head"])], {})
            comparison.failures.extend(f"traced {f}" for f in traced_check.failures)
            failed = gate(comparison, THRESHOLD)
            reasons.extend(f"{workload}: {r}" for r in failed)
            summary = comparison.summary()
            for name, s in summary.items():
                print(f"  {workload} {name}: median ratio {s['ratio_median']:.3f} "
                      f"(IQR {s['ratio_iqr']:.3f})", flush=True)
            workloads[workload] = {
                "end_to_end": summary,
                "traced": {
                    side: {n: m["value"] for n, m in traced[side].get("metrics", {}).items()}
                    for side in ("base", "head")
                },
            }

    path = record(
        "layers",
        {
            "base": {"rev": base_rev, "git_describe": described["base"],
                     "kernel_backends": backends.get("base")},
            "head": {"git_describe": described["head"],
                     "kernel_backends": backends.get("head")},
            "pairs": PAIRS,
            "gated_metric": GATED_METRIC,
            "threshold": THRESHOLD,
            "passed": not reasons,
            "failures": reasons,
            "workloads": workloads,
        },
        path=os.path.join(ROOT, "BENCH_engine.json"),
    )
    for r in reasons:
        print(f"FAILED: {r}")
    print(f"perf: {'FAIL' if reasons else 'pass'} (threshold {THRESHOLD}); recorded to {path}")
    return 1 if reasons else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
