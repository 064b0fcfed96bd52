"""Run the benchmark on two checkouts in alternating pairs and write one JSON record.

    python3 tools/bench_pairs.py PARENT_DIR CHANGE_DIR --workload projection-figure \\
        --seeds 201-210 --out bench-pairs.json

Each pair runs ``bench/run.py`` of each checkout on the same seed, the parent
first on even pairs and the change first on odd ones. Every run's last output
line (the runner's JSON result) is kept. ``--out`` is read first if it exists,
so one record can hold several workloads, and new pairs of a workload are added
to its earlier ones. The summary gives each side's median and quartiles per
end-to-end metric over all pairs, the pairs the change wins, the parent's
quartile distance (`parent_iqr`) and whether a gain may be claimed
(`beyond_parent_iqr`): the change wins at least nine tenths of the pairs and its
median is better than the parent's by more than that distance.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HIGHER_IS_BETTER = {"items_per_s"}


def seed_list(text: str) -> list[int]:
    first, _, last = text.partition("-")
    return list(range(int(first), int(last or first) + 1))


def run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    out = subprocess.run([sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
                          "--seconds", str(seconds), "--trace", "0"],
                         cwd=checkout, check=True, capture_output=True, text=True)
    return json.loads(out.stdout.splitlines()[-1])


def summary(pairs: list[dict]) -> dict:
    result = {}
    for name in pairs[0]["parent"]["metrics"]:
        sides = {side: [p[side]["metrics"][name]["value"] for p in pairs] for side in ("parent", "change")}
        sign = 1 if name in HIGHER_IS_BETTER else -1
        wins = sum(sign * (c - p) > 0 for p, c in zip(sides["parent"], sides["change"]))
        result[name] = {side: {"median": statistics.median(v),
                               "quartiles": statistics.quantiles(v, n=4)[::2] if len(v) > 1 else v * 2}
                        for side, v in sides.items()}
        low, high = result[name]["parent"]["quartiles"]
        gain = sign * (result[name]["change"]["median"] - result[name]["parent"]["median"])
        result[name]["change_wins"] = f"{wins}/{len(pairs)}"
        result[name]["parent_iqr"] = high - low
        result[name]["beyond_parent_iqr"] = 10 * wins >= 9 * len(pairs) and gain > high - low
    result["all_correct"] = all(p[s]["correct"] for p in pairs for s in ("parent", "change"))
    return result


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", type=seed_list, required=True, help="one seed or a range FIRST-LAST")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    record = json.loads(args.out.read_text()) if args.out.exists() else {"workloads": {}}
    entry = record["workloads"].setdefault(args.workload, {"seconds": args.seconds, "pairs": []})
    if entry["seconds"] != args.seconds:
        raise SystemExit(f"error: {args.out} holds {args.workload} runs of {entry['seconds']} s")
    pairs = entry["pairs"]
    for seed in args.seeds:
        order = ("parent", "change") if len(pairs) % 2 == 0 else ("change", "parent")
        pair = {"seed": seed, "first": order[0]}
        for side in order:
            pair[side] = run(getattr(args, side), args.workload, seed, args.seconds)
        pairs.append(pair)
        print(f"{args.workload} seed {seed}: " + ", ".join(
            f"{side} {pair[side]['metrics']['items_per_s']['value']:.4g}/s" for side in order), flush=True)
    entry["summary"] = summary(pairs)
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
