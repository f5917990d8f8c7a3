"""``scripts/bench_json.py``'s summary of alternated benchmark pairs."""
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("bench_json", ROOT / "scripts" / "bench_json.py")
bench_json = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench_json)

METRICS = [{"name": "wall_s", "better": "lower"}, {"name": "throughput", "better": "higher"}]


def _run(seed, side, wall):
    return {"workload": "verify-oracle", "seed": seed, "side": side,
            "result": {"correct": True, "metrics": {"wall_s": {"value": wall},
                                                    "throughput": {"value": 1.0 / wall}}}}


def test_summary_counts_the_pairs_the_change_wins():
    runs = [run for seed, (p, c) in enumerate([(4.0, 3.0), (5.0, 3.5), (4.5, 4.6), (6.0, 2.0)])
            for run in (_run(seed, "parent", p), _run(seed, "change", c))]
    # a seed with only one side is no pair
    runs.append(_run(9, "parent", 1.0))
    table = bench_json.summarize(runs, METRICS)["verify-oracle"]
    assert table["seeds"] == [0, 1, 2, 3] and table["correct"]
    wall = table["wall_s"]
    assert wall["parent"] == [4.0, 5.0, 4.5, 6.0] and wall["change"] == [3.0, 3.5, 4.6, 2.0]
    assert wall["change_wins"] == 3 and table["throughput"]["change_wins"] == 3
    assert wall["parent_median"] == 4.75 and wall["change_median"] == 3.25
    # inclusive quartiles of 4.0, 4.5, 5.0, 6.0: 4.375 and 5.25
    assert abs(wall["parent_iqr"] - 0.875) < 1e-12


def test_long_sample_lists_are_summarized():
    detail = {"workload": "w", "samples": {"wall_s": [float(v) for v in range(1, 101)],
                                           "setup_s": [0.2, 0.1], "calls": 100}}
    samples = bench_json.shorten(detail)["samples"]
    assert samples["setup_s"] == [0.2, 0.1] and samples["calls"] == 100
    assert samples["wall_s"] == {"count": 100, "min": 1.0, "q1": 25.75, "median": 50.5,
                                 "q3": 75.25, "max": 100.0}
