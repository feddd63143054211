"""The perf comparison and the benchmark record of :mod:`repro.bench`.

The comparison is fed canned ``perfbench/run.py`` output, so no benchmark
runs here.
"""

import json

import pytest

from repro.bench import (
    GATED_METRIC,
    compare_pairs,
    gate,
    last_line,
    pair_ratio,
    record,
)

BETTER = {"steps_per_s": "higher", "step_ms_p50": "lower"}


def _line(steps_per_s, step_ms_p50, correct=True, failed=0):
    """One perfbench run's stdout: human lines, then the JSON last line."""
    result = {
        "correct": correct,
        "attempted": 5,
        "failed": failed,
        "metrics": {
            "steps_per_s": {"value": steps_per_s, "unit": "1/s"},
            "step_ms_p50": {"value": step_ms_p50, "unit": "ms"},
        },
    }
    return f"provenance {{}}\n  steps_per_s = {steps_per_s}\n{json.dumps(result)}\n\n"


def _pairs(*runs):
    return [(last_line(base), last_line(head)) for base, head in runs]


class TestLastLine:
    def test_parses_the_json_after_the_human_lines(self):
        assert last_line(_line(100.0, 2.0))["metrics"]["steps_per_s"]["value"] == 100.0

    @pytest.mark.parametrize("stdout", ["", "\n\n", "Traceback ...\nKeyError: 'x'\n"])
    def test_run_without_a_result_line_raises(self, stdout):
        with pytest.raises(ValueError):
            last_line(stdout)


class TestRatios:
    def test_higher_is_better_is_head_over_base(self):
        assert pair_ratio(100.0, 110.0, "higher") == pytest.approx(1.1)

    def test_lower_is_better_is_inverted(self):
        # The head's step takes half as long: that is better, so above 1.
        assert pair_ratio(2.0, 1.0, "lower") == pytest.approx(2.0)
        comparison = compare_pairs(_pairs((_line(100.0, 2.0), _line(100.0, 4.0))), BETTER)
        assert comparison.ratios["step_ms_p50"] == [pytest.approx(0.5)]
        assert comparison.ratios["steps_per_s"] == [pytest.approx(1.0)]

    def test_unknown_direction_raises(self):
        with pytest.raises(ValueError, match="better"):
            pair_ratio(1.0, 1.0, "sideways")

    def test_median_is_over_per_pair_ratios(self):
        # Per-pair ratios 1.2, 1.2, 0.1 have median 1.2, while the ratio of
        # the sides' medians (100 / 100) would read 1.0.
        runs = [(_line(b, 1.0), _line(h, 1.0)) for b, h in ((100, 120), (50, 60), (1000, 100))]
        comparison = compare_pairs(_pairs(*runs), BETTER)
        assert comparison.ratios["steps_per_s"] == [1.2, 1.2, 0.1]
        assert comparison.median("steps_per_s") == pytest.approx(1.2)

    def test_summary_has_median_and_iqr_per_metric(self):
        runs = [(_line(100.0, 1.0), _line(h, 1.0)) for h in (90.0, 100.0, 110.0, 120.0, 130.0)]
        summary = compare_pairs(_pairs(*runs), BETTER).summary()
        assert summary["steps_per_s"] == {"ratio_median": 1.1, "ratio_iqr": 0.2}
        assert summary["step_ms_p50"] == {"ratio_median": 1.0, "ratio_iqr": 0.0}


class TestGate:
    def test_passes_at_or_above_threshold(self):
        comparison = compare_pairs(_pairs((_line(100.0, 1.0), _line(90.0, 1.0))), BETTER)
        assert gate(comparison, 0.9) == []

    def test_fails_below_threshold(self):
        comparison = compare_pairs(_pairs((_line(100.0, 1.0), _line(89.0, 1.0))), BETTER)
        (reason,) = gate(comparison, 0.9)
        assert GATED_METRIC in reason and "0.890" in reason

    @pytest.mark.parametrize("side", ["base", "head"])
    def test_incorrect_run_on_either_side_fails(self, side):
        good, bad = _line(100.0, 1.0), _line(100.0, 1.0, correct=False)
        run = (bad, good) if side == "base" else (good, bad)
        comparison = compare_pairs(_pairs((good, good), run), BETTER)
        reasons = gate(comparison, 0.9)
        assert reasons == [f"{side} run 1: correct=False failed=0"]

    def test_failed_operation_fails(self):
        comparison = compare_pairs(
            _pairs((_line(100.0, 1.0), _line(100.0, 1.0, failed=1))), BETTER
        )
        assert gate(comparison, 0.9) == ["head run 0: correct=True failed=1"]

    def test_crashed_run_fails_without_ratio(self):
        crashed = {"correct": False, "failed": 1, "metrics": {}}
        comparison = compare_pairs([(last_line(_line(100.0, 1.0)), crashed)], BETTER)
        assert comparison.ratios["steps_per_s"] == []
        assert comparison.summary() == {}
        assert gate(comparison, 0.9) == [
            "head run 0: correct=False failed=1",
            "no steps_per_s ratio was measured",
        ]

    def test_no_pairs_fails(self):
        assert gate(compare_pairs([], BETTER), 0.9) == ["no steps_per_s ratio was measured"]


class TestRecord:
    def test_every_section_is_stamped_with_provenance(self, tmp_path):
        path = str(tmp_path / "BENCH_engine.json")
        record("scale", {"top": {"edges": 1}}, path=path)
        record("layers", {"pairs": 5}, path=path)
        with open(path) as fh:
            data = json.load(fh)
        for section in ("scale", "layers"):
            prov = data[section]["provenance"]
            assert set(prov) == {
                "git_describe", "nproc", "kernel_backends", "python",
                "platform", "version", "recorded_at",
            }
            assert prov["nproc"] >= 1
            assert isinstance(prov["kernel_backends"], list)
        assert data["scale"]["top"] == {"edges": 1}
        assert [h["section"] for h in data["history"]] == ["scale", "layers"]
        assert data["history"][1]["payload"] == data["layers"]

    def test_rewriting_a_section_keeps_the_others(self, tmp_path):
        path = str(tmp_path / "BENCH_engine.json")
        record("scale", {"n": 1}, path=path)
        record("scenarios", {"n": 2}, path=path)
        record("scale", {"n": 3}, path=path)
        with open(path) as fh:
            data = json.load(fh)
        assert data["scale"]["n"] == 3 and data["scenarios"]["n"] == 2
        assert len(data["history"]) == 3
