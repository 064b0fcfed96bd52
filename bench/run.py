"""spinwehrl benchmark: one workload per invocation, run from the repository root.

    python3 bench/run.py --workload wehrl-haar --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the working directory. Set-up is the
import plus one round of input generation and warm-up tasks, which fill the
grid cache and the ``lru_cache``s. ``setup_s`` is the median import time (this
process and fresh interpreters) plus the median of several rounds, each started
with those caches cleared. The timed phase then runs whole periods (see
``workloads.py``) with fresh inputs until ``--seconds`` have passed, so every
run measures the same mix of work.

``--trace 0`` reports the end-to-end metrics. ``--trace 1`` runs a fixed
number of periods twice, first untraced and then with every public function of
the package wrapped in spans, and reports the per-layer metrics; its counts
repeat exactly for a fixed seed. Spans and the environment are written to
``.bench_out/``. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path

BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = 1
SETUP_ROUNDS = 5
OUT_DIR = Path(".bench_out")

END_TO_END_UNITS = {"items_per_s": "1/s", "task_s.p50": "s", "setup_s": "s", "peak_rss_mb": "MB"}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=_non_negative, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be non-negative")
    return value


def pin_environment():
    """Pin BLAS to one thread before numpy loads, and drop the tolerance
    override so the library defaults apply.

    One thread, not nproc: on a shared 2-CPU machine, identical wehrl-haar runs
    spread by up to 20% with two BLAS threads and by 3% with one."""
    for var in BLAS_THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)
    os.environ.pop("SPINWEHRL_TOL", None)


PACKAGE_MODULES = ("spinwehrl", "spinwehrl.cli")  # the CLI is not re-exported by the package


def import_package(root: Path):
    """Import spinwehrl from ``root/src`` only; returns (module, seconds)."""
    src = (root / "src").resolve()
    if not (src / "spinwehrl" / "__init__.py").is_file():
        raise SystemExit(f"error: no spinwehrl package under {src}")
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    spinwehrl = [importlib.import_module(name) for name in PACKAGE_MODULES][0]
    elapsed = time.perf_counter() - t0
    if Path(spinwehrl.__file__).resolve().parent != src / "spinwehrl":
        raise SystemExit(f"error: spinwehrl imported from {spinwehrl.__file__}, not {src}")
    return spinwehrl, elapsed


def import_seconds(root: Path, first: float, rounds: int) -> float:
    """Median import time: `first` from this process plus rounds - 1 fresh
    interpreters, since a module imports only once per process."""
    code = ("import time; t = time.perf_counter(); import " + ", ".join(PACKAGE_MODULES)
            + "; print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str((root / "src").resolve()))
    times = [first]
    for _ in range(rounds - 1):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=root, check=True,
                             capture_output=True, text=True, timeout=120)
        times.append(float(out.stdout))
    return statistics.median(times)


def clear_caches(sw):
    """Empty the package's grid cache and lru_caches so set-up starts cold."""
    for name, mod in list(sys.modules.items()):
        if name.startswith("spinwehrl."):
            for attr, obj in vars(mod).items():
                if hasattr(obj, "cache_clear"):
                    obj.cache_clear()
                elif attr.endswith("_CACHE") and isinstance(obj, dict):
                    obj.clear()


def environment(root: Path) -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(root),
    }


def git_commit(root: Path) -> str:
    """HEAD read from .git without running git; 'unknown' outside a clone."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


class Tally:
    """Counts checks; a task or check that raises counts as one failed check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes: list[str] = []

    def record(self, kind: str, results: list):
        self.attempted += len(results)
        bad = sum(1 for ok in results if not ok)
        self.failed += bad
        if bad and len(self.notes) < 20:
            self.notes.append(f"{kind}: {bad} of {len(results)} checks failed")

    def error(self, kind: str, exc: BaseException):
        self.attempted += 1
        self.failed += 1
        if len(self.notes) < 20:
            self.notes.append(f"{kind}: {type(exc).__name__}: {exc}")


def run_period(tasks, tally: Tally | None, durations: list | None, tracer=None) -> int:
    """Run one period; returns the items completed. Checks run only when a
    tally is given."""
    items = 0
    for task in tasks:
        t0 = time.perf_counter()
        try:
            with tracer.span(f"bench.task.{task.kind}") if tracer else nullcontext():
                out = task.call()
        except Exception as exc:  # a failed task is counted, not fatal
            if tally:
                tally.error(task.kind, exc)
            continue
        dt = time.perf_counter() - t0
        items += task.items
        if durations is not None:
            durations.append((task.kind, dt))
        if tally:
            try:
                with tracer.span("bench.check") if tracer else nullcontext():
                    tally.record(task.kind, task.check(out))
            except Exception as exc:
                tally.error(task.kind, exc)
    return items


def period_rng(seed: int, index: int, warmup: bool = False):
    import numpy as np
    return np.random.default_rng(np.random.SeedSequence([seed, int(warmup), index]))


def setup(sw, build, seed: int, rounds: int) -> float:
    """Median over rounds of: clear caches, generate inputs, run the warm-up
    tasks."""
    times = []
    for r in range(rounds):
        clear_caches(sw)
        t0 = time.perf_counter()
        run_period(build(sw, period_rng(seed, r, warmup=True), True), None, None)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def timed_phase(sw, build, seed: int, seconds: float, tally: Tally):
    """Run whole periods until `seconds` have passed; returns the per-period
    (items, wall seconds) and every task's (kind, seconds)."""
    durations: list[tuple[str, float]] = []
    periods: list[tuple[int, float]] = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        items = run_period(build(sw, period_rng(seed, len(periods)), False), tally, durations)
        t1 = time.perf_counter()
        periods.append((items, t1 - t0))
        if t1 - start >= seconds:
            return periods, durations


def traced_phase(sw, build, seed: int, periods: int, tally: Tally, tracer):
    """Run each period untraced and traced on the same inputs, alternating
    which goes first so cache warming falls on both sides equally."""
    from spans import layer_metrics

    walls = {False: 0.0, True: 0.0}
    for p in range(periods):
        for traced in (False, True) if p % 2 == 0 else (True, False):
            tasks = build(sw, period_rng(seed, p), False)
            if traced:
                tracer.install()
            t0 = time.perf_counter()
            try:
                run_period(tasks, tally, None, tracer if traced else None)
            finally:
                walls[traced] += time.perf_counter() - t0
                if traced:
                    tracer.uninstall()
    metrics = layer_metrics(tracer, walls[True])
    metrics["trace.overhead_ratio"] = walls[True] / walls[False]
    return metrics, walls[False], walls[True]


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    pin_environment()
    sw, import_s = import_package(root)
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from spans import Tracer, layer_unit
    from workloads import TRACE_PERIODS, WORKLOADS
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    build = WORKLOADS[args.workload]
    env = environment(root)
    tally = Tally()
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.watch_grids()
    rounds = 1 if args.trace else SETUP_ROUNDS
    setup_s = import_seconds(root, import_s, rounds) + setup(sw, build, args.seed, rounds)

    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}",
             "environment " + " ".join(f"{k}={v}" for k, v in env.items())]
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace, "env": env}
    if args.trace:
        periods = TRACE_PERIODS[args.workload]
        metrics, untraced, traced = traced_phase(sw, build, args.seed, periods, tally, tracer)
        tracer.unwatch()
        units = {name: layer_unit(name) for name in metrics}
        lines.append(f"traced run: {periods} periods, untraced {untraced:.3f} s, "
                     f"traced {traced:.3f} s, {len(tracer.spans)} spans")
    else:
        periods, durations = timed_phase(sw, build, args.seed, args.seconds, tally)
        times = [dt for _, dt in durations]
        metrics = {
            # every period holds the same items, so this is items per second of
            # the median period: a slow stretch of a shared machine or one
            # slow input moves it less than a total would
            "items_per_s": statistics.median(n / dt for n, dt in periods),
            "task_s.p50": statistics.median(times) if times else 0.0,  # 0: every task raised
            "setup_s": setup_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        units = END_TO_END_UNITS
        lines.append(f"timed phase: {len(periods)} periods, {len(times)} tasks, "
                     f"{sum(n for n, _ in periods)} items, {sum(dt for _, dt in periods):.3f} s")
        if len(times) >= 100:
            lines.append(f"task_s.p90 = {statistics.quantiles(times, n=10)[-1]:.6g} s "
                         f"({len(times)} tasks)")
        by_kind: dict = {}
        for kind, dt in durations:
            by_kind.setdefault(kind, []).append(dt)
        lines += [f"  task {kind}: {len(v)} tasks, median {statistics.median(v):.4g} s, "
                  f"total {sum(v):.3f} s" for kind, v in by_kind.items()]
    fail_ratio = tally.failed / tally.attempted if tally.attempted else 1.0
    lines.append(f"checks: {tally.attempted} attempted, {tally.failed} failed, "
                 f"fail_ratio = {fail_ratio:.6g}")
    lines += [f"  {note}" for note in tally.notes]
    lines += [f"{name} = {value:.6g} {units[name]}" for name, value in metrics.items()]
    print("\n".join(lines))

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record.update(attempted=tally.attempted, failed=tally.failed, notes=tally.notes, metrics=metrics)
    if args.trace:
        tracer.write(stem.with_suffix(".spans.json.gz"), record)
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")

    result = {
        "correct": tally.failed == 0 and tally.attempted > 0,
        "attempted": max(tally.attempted, 1),
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
