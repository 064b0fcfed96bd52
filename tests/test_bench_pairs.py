import importlib.util
import json
import subprocess
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


def test_regressed_reads_each_metric_bound():
    # the declared bounds are read, not edited: items/s and set-up both 0.25
    declared = bench_pairs.end_to_end_metrics()
    assert declared["items_per_s"]["better"] == "higher" and declared["setup_s"]["better"] == "lower"
    assert declared["items_per_s"]["bound"] == declared["setup_s"]["bound"] == 0.25
    # medians 100 -> 76 items/s (24% worse) and 1.0 -> 1.26 s (26% worse)
    pairs = [{"parent": _run(100.0, 1.0), "change": _run(76.0, 1.26)} for _ in range(3)]
    out = bench_pairs.summary(pairs)
    assert out["items_per_s"]["regressed"] is False
    assert out["setup_s"]["regressed"] is True
    # 74 items/s is beyond the bound; a gain never regresses
    pairs = [{"parent": _run(100.0, 1.0), "change": _run(74.0, 0.5)} for _ in range(3)]
    out = bench_pairs.summary(pairs)
    assert out["items_per_s"]["regressed"] is True and out["setup_s"]["regressed"] is False
    # a tighter bound passed in place of the declared ones
    tight = {name: dict(m, bound=0.1) for name, m in declared.items()}
    pairs = [{"parent": _run(100.0, 1.0), "change": _run(88.0, 1.05)} for _ in range(3)]
    out = bench_pairs.summary(pairs, tight)
    assert out["items_per_s"]["regressed"] is True and out["setup_s"]["regressed"] is False


def test_unresolved_when_the_parent_spreads_past_the_bound():
    # parent items/s 100..190 in steps of 10: quartiles 117.5 and 172.5, a
    # distance of 55 > 0.25 x the median 145, so a change 5 faster on every
    # pair is unresolved; set-up 1.0..1.09 s spreads 0.055 < 0.25 x 1.045
    pairs = [{"parent": _run(100 + 10 * i, 1.0 + i / 100), "change": _run(105 + 10 * i, 1.0 + i / 100)}
             for i in range(10)]
    out = bench_pairs.summary(pairs)
    assert out["items_per_s"]["parent_iqr"] == pytest.approx(55.0)
    assert out["items_per_s"]["unresolved"] is True and out["items_per_s"]["regressed"] is False
    assert out["setup_s"]["unresolved"] is False
    # as wide a spread is resolved once every change run beats every parent run
    for i, pair in enumerate(pairs):
        pair["change"] = _run(200 + i, 1.0 + i / 100)
    out = bench_pairs.summary(pairs)
    assert out["items_per_s"]["unresolved"] is False and out["items_per_s"]["beyond_parent_iqr"] is True


def test_out_is_written_after_every_pair(tmp_path, monkeypatch):
    # the third run fails: the record keeps the first pair and its summary
    calls = []

    def fake_run(checkout, workload, seed, seconds):
        calls.append((checkout.name, seed))
        if len(calls) == 3:
            raise subprocess.CalledProcessError(1, "bench/run.py")
        return _run(100.0 + seed, 1.0)

    monkeypatch.setattr(bench_pairs, "run", fake_run)
    out = tmp_path / "pairs.json"
    argv = [str(tmp_path / "parent"), str(tmp_path / "change"), "--workload", "scan-wehrl",
            "--seeds", "1-3", "--seconds", "1", "--out", str(out)]
    with pytest.raises(subprocess.CalledProcessError):
        bench_pairs.main(argv)
    entry = json.loads(out.read_text())["workloads"]["scan-wehrl"]
    assert [p["seed"] for p in entry["pairs"]] == [1]
    assert entry["summary"]["items_per_s"]["change_wins"] == "0/1"
    # a rerun on the next seeds adds to the kept pair
    calls.clear()
    bench_pairs.main(argv[:5] + ["2-2"] + argv[6:])
    assert [p["seed"] for p in json.loads(out.read_text())["workloads"]["scan-wehrl"]["pairs"]] == [1, 2]
