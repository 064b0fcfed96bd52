"""Per-state times quoted as the ROADMAP baseline, measured with library defaults:

    python3 bench/baseline.py [--states 8] [--seed 0]

* adaptive Wehrl quadrature of single Haar states (``wehrl_pure``) and of the
  same states in one ``wehrl_pure_batch`` call, at twice_l = 1, 6 and 8;
* ``projection_dual_gram`` at (twice_l, j) = (6, 100).

Each figure is the median over the states, after one warm-up call that fills
the grid cache and the coupling cache.
"""

import argparse
import statistics
import sys
import time
from pathlib import Path

from run import BLAS_THREADS, import_package, pin_environment


def per_state(fn, states) -> float:
    fn(states[0])
    times = []
    for s in states:
        t0 = time.perf_counter()
        fn(s)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--states", type=int, default=8)
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args(argv)
    pin_environment()
    sw, _ = import_package(Path.cwd())
    import numpy as np
    from workloads import haar_amplitudes

    rng = np.random.default_rng(args.seed)
    print(f"blas_threads={BLAS_THREADS}, {args.states} Haar states per row, median per state")
    for tl in (1, 6, 8):
        spin = sw.su2.SpinLabel(tl)
        amps = haar_amplitudes(rng, tl, args.states)
        states = [sw.su2.PureState(spin, a) for a in amps]
        single = per_state(sw.entropy.wehrl_pure, states)
        t0 = time.perf_counter()
        sw.entropy.wehrl_pure_batch(spin, amps)
        batch = (time.perf_counter() - t0) / len(amps)
        print(f"wehrl twice_l={tl}: wehrl_pure {single * 1e3:.1f} ms/state, "
              f"wehrl_pure_batch {batch * 1e3:.1f} ms/state")
    spin, j = sw.su2.SpinLabel(6), sw.su2.SpinLabel(200)
    states = [sw.su2.PureState(spin, a) for a in haar_amplitudes(rng, 6, args.states)]
    dual = per_state(lambda s: sw.channels.projection_dual_gram(s, j), states)
    eig = per_state(lambda s: sw.entropy.clamped_spectrum(sw.channels.projection_dual_gram(s, j)),
                    states) - dual
    print(f"projection_dual_gram (6, 100): {dual * 1e3:.1f} ms/state; eigensolve {eig * 1e3:.1f} ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
