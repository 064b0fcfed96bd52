import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", Path(__file__).resolve().parents[1] / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)


def _run(items_per_s: float, setup_s: float, correct: bool = True) -> dict:
    return {"correct": correct, "metrics": {"items_per_s": {"value": items_per_s, "unit": "1/s"},
                                            "setup_s": {"value": setup_s, "unit": "s"}}}


def test_summary_applies_the_acceptance_rule():
    # parent items/s 100..109 (quartiles 101.75 and 107.25); the change adds
    # 10 on nine pairs and loses 1 on one, so it wins 9/10 by a median gain of
    # 10 > 5.5; its set-up is 0.1 s faster on every pair, inside the parent's
    # 0.55 s quartile distance
    pairs = [{"parent": _run(100 + i, 1.0 + i / 10), "change": _run(100 + i + (10 if i else -1), 0.9 + i / 10)}
             for i in range(10)]
    out = bench_pairs.summary(pairs)
    items, setup = out["items_per_s"], out["setup_s"]
    assert items["change_wins"] == "9/10" and items["parent_iqr"] == pytest.approx(5.5)
    assert items["beyond_parent_iqr"] is True
    assert setup["change_wins"] == "10/10" and setup["parent_iqr"] == pytest.approx(0.55)
    assert setup["beyond_parent_iqr"] is False
    assert out["all_correct"] is True
    # 8/10 wins fall short however large the gain; a failed check shows
    pairs[1]["change"] = _run(0.0, 0.0, correct=False)
    out = bench_pairs.summary(pairs)
    assert out["items_per_s"]["change_wins"] == "8/10" and out["items_per_s"]["beyond_parent_iqr"] is False
    assert out["all_correct"] is False
