"""``tools/ab.py``: the pair order, the summary and the file it writes, on
synthetic run records (no benchmark is run)."""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("ab", ROOT / "tools" / "ab.py")
ab = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(ab)

METRICS = ab.end_to_end_metrics()


def _run(ops_per_s, p50_ms, setup_s=0.3, rss=33.0, failed=0, attempted=40, correct=True):
    values = {"setup_s": setup_s, "ops_per_s": ops_per_s, "op_ms_p50": p50_ms,
              "peak_rss_mb": rss}
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": METRICS[k]["unit"]} for k, v in values.items()}}


def _pairs(parent_ops, change_ops):
    return [{"first": ab.SIDES[i % 2], "parent": _run(p, 1e3 / p), "change": _run(c, 1e3 / c)}
            for i, (p, c) in enumerate(zip(parent_ops, change_ops))]


def test_the_metrics_come_from_the_benchmark_spec():
    assert set(METRICS) == {"setup_s", "ops_per_s", "op_ms_p50", "peak_rss_mb"}
    assert METRICS["ops_per_s"]["better"] == "higher"
    assert METRICS["op_ms_p50"]["better"] == "lower"


def test_quartiles_are_inclusive():
    assert ab.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)


def test_a_clear_gain_wins_nine_pairs_beyond_the_parent_spread():
    parent = [3.40, 3.42, 3.44, 3.46, 3.41, 3.43, 3.45, 3.39, 3.47, 3.44]
    change = [3.75, 3.70, 3.80, 3.76, 3.72, 3.78, 3.74, 3.30, 3.77, 3.73]
    out = ab.summarize(_pairs(parent, change), METRICS)
    row = out["metrics"]["ops_per_s"]
    assert out["pairs"] == 10
    assert row["change_won"] == 9
    assert row["parent"]["median"] == pytest.approx(3.435)
    assert row["change"]["median"] == pytest.approx(3.745)
    assert row["clear_gain"]
    assert row["relative_change"] == pytest.approx(3.745 / 3.435 - 1)
    # lower is better for the p50: the same pairs win there
    assert out["metrics"]["op_ms_p50"]["change_won"] == 9
    assert out["metrics"]["op_ms_p50"]["clear_gain"]
    # equal values win no pair and show no gain
    assert out["metrics"]["setup_s"]["change_won"] == 0
    assert not out["metrics"]["peak_rss_mb"]["clear_gain"]


def test_eight_wins_or_a_gap_inside_the_spread_is_no_clear_gain():
    parent = [3.0, 3.5, 3.0, 3.5, 3.0, 3.5, 3.0, 3.5, 3.0, 3.5]
    inside = [p + 0.01 for p in parent]
    assert not ab.summarize(_pairs(parent, inside), METRICS)["metrics"]["ops_per_s"]["clear_gain"]
    eight = [p + 1.0 for p in parent[:8]] + [p - 1.0 for p in parent[8:]]
    row = ab.summarize(_pairs(parent, eight), METRICS)["metrics"]["ops_per_s"]
    assert row["change_won"] == 8
    assert not row["clear_gain"]


def test_fewer_than_ten_pairs_is_no_clear_gain():
    # won every pair, far outside the parent's spread, but only 9 pairs
    out = ab.summarize(_pairs([3.4] * 9, [3.8] * 9), METRICS)
    row = out["metrics"]["ops_per_s"]
    assert row["change_won"] == 9
    assert row["parent"]["q3"] - row["parent"]["q1"] == 0.0
    assert not row["clear_gain"]
    assert ab.summarize(_pairs([3.4] * 10, [3.8] * 10), METRICS)["metrics"]["ops_per_s"][
        "clear_gain"]


def test_failing_more_ops_than_the_parent_is_no_clear_gain():
    pairs = _pairs([3.4] * 10, [3.8] * 10)
    pairs[3]["parent"].update(failed=1)
    assert ab.summarize(pairs, METRICS)["metrics"]["ops_per_s"]["clear_gain"]
    pairs[7]["change"].update(failed=2)
    row = ab.summarize(pairs, METRICS)["metrics"]["ops_per_s"]
    assert row["change_won"] == 10
    assert not row["clear_gain"]


def test_failed_shares_and_correct_are_kept_per_side():
    pairs = _pairs([1.0, 1.0], [1.1, 1.1])
    pairs[1]["change"].update(failed=4, correct=False)
    out = ab.summarize(pairs, METRICS)
    assert out["parent"] == {"correct": True, "failed": 0, "attempted": 80,
                             "failed_share": 0.0}
    assert out["change"] == {"correct": False, "failed": 4, "attempted": 80,
                             "failed_share": 0.05}


def test_main_alternates_the_order_and_writes_the_file(tmp_path, monkeypatch):
    calls = []

    def fake_run(root, workload, seed):
        calls.append((root.name, workload, seed))
        return _run(4.0 if root.name == "change" else 3.5, 250.0)

    monkeypatch.setattr(ab, "PAIRS", 3)
    monkeypatch.setattr(ab, "run_once", fake_run)
    monkeypatch.setattr(ab, "unpack", lambda ref, dest: None)
    monkeypatch.setattr(ab, "_git", lambda *args: "0" * 40)
    out = tmp_path / "BENCH_0.json"
    assert ab.main(["--parent", "HEAD~1", "--workload", "cli-cold",
                    "--seed", "5", "--seed", "11", "--out", str(out)]) == 0
    assert [side for side, _, _ in calls] == ["parent", "change", "change", "parent",
                                              "parent", "change"] * 2
    assert [seed for _, _, seed in calls] == [5] * 6 + [11] * 6
    report = json.loads(out.read_text())
    assert set(report) == {"parent", "parent_commit", "change_commit", "settings", "machine",
                           "results"}
    assert set(report["machine"]) >= {"cores", "python", "numpy", "PYTHONDONTWRITEBYTECODE"}
    assert [(r["workload"], r["seed"]) for r in report["results"]] == [("cli-cold", 5),
                                                                       ("cli-cold", 11)]
    assert report["settings"]["pairs"] == 3
    block = report["results"][0]
    assert [run["first"] for run in block["runs"]] == ["parent", "change", "parent"]
    assert block["metrics"]["ops_per_s"]["change_won"] == 3
    assert block["parent"]["correct"] and block["change"]["correct"]
