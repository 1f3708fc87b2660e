"""The summary arithmetic of ``tools/bench_pairs.py`` on canned runs: each
side's median, the parent's inclusive interquartile range, the pairs the
change won and the run order, with no benchmark run."""

import importlib.util
import pathlib

_spec = importlib.util.spec_from_file_location(
    "bench_pairs",
    pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_pairs)

METRICS = [{"name": "run_s", "better": "lower"},
           {"name": "rate", "better": "higher"}]
PARENT = [0.10, 0.12, 0.11, 0.13, 0.09]
CHANGE = [0.08, 0.09, 0.12, 0.07, 0.08]


def _runs():
    """Five complete pairs of one workload, then one lone parent run."""
    runs = []
    for pair, (p, c) in enumerate(zip(PARENT, CHANGE)):
        for side, x in (("parent", p), ("change", c)):
            runs.append({"workload": "w", "seed": 3, "side": side,
                         "pair": pair, "run_s": x, "rate": 1 / x})
    runs.append({"workload": "w", "seed": 3, "side": "parent", "pair": 5,
                 "run_s": 9.0, "rate": 1 / 9.0})
    return runs


def test_summary_of_canned_pairs():
    s = bench_pairs.summarize(_runs(), METRICS)["w"]
    # the lone parent run is no pair and counts nowhere
    assert s["run_s"] == {"parent_median": 0.11, "change_median": 0.08,
                          "parent_iqr": 0.02, "change_lower_in_pairs": 4,
                          "pairs": 5, "relative": -0.2727}
    # 0.11 and 0.12 tie their pair's 1/x at the median; better is higher
    assert s["rate"]["change_higher_in_pairs"] == 4
    assert s["rate"]["parent_median"] == round(1 / 0.11, 6)


def test_quartiles_are_inclusive():
    # numpy's linear percentiles: 25 % of the way from 1 to 2, and so on
    assert bench_pairs.quartiles([1.0, 2.0, 3.0, 4.0]) == (1.75, 2.5, 3.25)
    assert bench_pairs.quartiles([5.0]) == (5.0, 5.0, 5.0)


def test_report_prints_one_line_per_metric():
    lines = bench_pairs.report(_runs(), METRICS)
    assert len(lines) == 2
    assert "better in 4 of 5" in lines[0] and "-27.3%" in lines[0]


def test_pairs_alternate_and_split_over_the_seeds():
    runs = list(bench_pairs.schedule(["a", "b"], 4, [3, 71]))
    assert len(runs) == 16
    assert [r[3] for r in runs[:8]] == ["parent", "change", "change",
                                        "parent"] * 2
    assert [r[2] for r in runs[:8]] == [3] * 4 + [71] * 4
    assert [r[0] for r in runs] == ["a"] * 8 + ["b"] * 8
