"""Command-line interface.

Subcommands:

* ``entropy``            entropy of a state file (wehrl, vonneumann,
                         projection:J, angular, renyi:N)
* ``figure-projection``  Wehrl vs shift-corrected projection entropies for a
                         batch of random states, as scatter-ready CSV
* ``scan-conjecture``    sampled + optimized minimum of an entropy objective
                         against the coherent benchmark
* ``sun``                symmetric SU(N) channels (clone / prepare /
                         decompose / majorize)

Exit codes, each failure with a one-line message on stderr:

* 0 success;
* 1 usage, parse or input error (a malformed state file, a negative spin or
  count, ``--modes`` or ``--samples`` below 1, a Renyi order below 1, the
  angular channel at l = 0);
* 2 conjecture-scan counterexample;
* 3 a guard or numerical limit was hit: a resource guard (figure-projection
  twice_l <= 8 and j <= 100, the optimizer's twice_l <= 16 and projection
  j <= 100, entropy's projection j <= 100, the output dimension
  dim H(N, M+k) <= 10000 that every ``sun`` mode holds, and the byte guards
  of the exact Wehrl grid, a projection band, a Renyi quadrature level, and
  the cloning gather table and ln i! table of ``sun`` prepare, decompose and
  majorize), a Wehrl quadrature that did not converge within
  its grid limit, or a measure-and-prepare decomposition above its residual
  threshold.

State files are either JSON ``{"twice_l": int, "amplitudes": [[re, im], ...]}``
(m descending) or CSV ``l,m,re,im`` with header, single fixed l. Numbers are
emitted with 17 significant digits so files round-trip losslessly.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import sys
import time
from functools import lru_cache
from math import log

import numpy as np

from . import channels, entropy, fock, majorize
from .errors import ConvergenceError, DecompositionError, ResourceGuardError
from .quadrature import QuadratureSpec
from .su2 import STATE_CHUNK, PureState, SpinLabel, random_pure


class CliError(Exception):
    """Usage or parse failure (exit code 1)."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _int_at_least(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def integer(text: str) -> int:  # argparse names it in "invalid integer value"
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return integer


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def parse_half_integer(text: str) -> SpinLabel:
    text = text.strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            value = float(num) / float(den)
        else:
            value = float(text)
        return SpinLabel.from_l(value)
    except (ValueError, ZeroDivisionError):
        raise CliError(f"cannot parse half-integer spin from {text!r}")


def load_state_file(path: str, normalize: bool = False) -> PureState:
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        amps, twice_l = _parse_json_state(text)
    else:
        amps, twice_l = _parse_csv_state(text)
    spin = SpinLabel(twice_l)
    if len(amps) != spin.dim:
        raise CliError(f"expected {spin.dim} amplitudes for twice_l={twice_l}, got {len(amps)}")
    norm = np.linalg.norm(amps)
    if not normalize and abs(norm - 1.0) > 1e-8:
        raise CliError(f"state norm {norm} deviates from 1 beyond 1e-8 (use --normalize)")
    return PureState(spin, amps, normalize=True)


def _parse_json_state(text: str):
    try:
        obj = json.loads(text)
        twice_l = int(obj["twice_l"])
        amps = np.array([complex(re, im) for re, im in obj["amplitudes"]])
    except (KeyError, TypeError, ValueError, json.JSONDecodeError) as exc:
        raise CliError(f"bad JSON state file: {exc}")
    return amps, twice_l


def _parse_csv_state(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or [c.strip() for c in rows[0]] != ["l", "m", "re", "im"]:
        raise CliError("CSV state file must start with header 'l,m,re,im'")
    entries = {}
    twice_l = None
    for lineno, row in enumerate(rows[1:], start=2):
        if not row or all(not c.strip() for c in row):
            continue
        try:
            l_val, m_val, re, im = (float(c) for c in row)
        except ValueError:
            raise CliError(f"line {lineno}: cannot parse row {row!r}")
        tl = 2 * l_val
        if abs(tl - round(tl)) > 1e-9:
            raise CliError(f"line {lineno}: l={l_val} is not a half-integer")
        tl = int(round(tl))
        if twice_l is None:
            twice_l = tl
        elif tl != twice_l:
            raise CliError(f"line {lineno}: mixed l values ({tl / 2} vs {twice_l / 2})")
        tm = 2 * m_val
        if abs(tm - round(tm)) > 1e-9 or abs(round(tm)) > tl:
            raise CliError(f"line {lineno}: invalid m={m_val} for l={l_val}")
        entries[int(round(tm))] = complex(re, im)
    if twice_l is None:
        raise CliError("CSV state file contains no amplitude rows")
    amps = np.array([entries.get(tm, 0.0) for tm in range(twice_l, -twice_l - 1, -2)])
    return amps, twice_l


def _open_out(args):
    """The --out file, opened for writing, or else stdout, as a context manager."""
    return open(args.out, "w") if getattr(args, "out", None) else contextlib.nullcontext(sys.stdout)


def _emit(args, text: str):
    with _open_out(args) as fh:
        fh.write(text)


def _report(args, command: str, seed, tolerances: dict, results: dict, t0: float) -> int:
    report = {
        "command": command,
        "seed": seed,
        "tolerances": tolerances,
        "results": results,
        "timing_s": round(time.perf_counter() - t0, 6),
    }
    _emit(args, json.dumps(report, indent=2) + "\n")
    return 0


def cmd_entropy(args) -> int:
    t0 = time.perf_counter()
    psi = load_state_file(args.state, normalize=args.normalize)
    l = psi.spin
    which = args.which
    results: dict = {"twice_l": l.twice_l, "which": which}
    if which == "wehrl":
        results["value"] = entropy.wehrl_pure(psi)
    elif which == "vonneumann":
        results["value"] = entropy.von_neumann(psi.density())
    elif which == "angular":
        _require_angular_spin(l)
        results["value"] = _angular_entropy(psi)
    elif which.startswith("projection:"):
        j = parse_half_integer(which.split(":", 1)[1])
        _require_projection_j("entropy", j)
        value = channels.projection_entropy_pure(psi, j)
        results["value"] = value
        results["shift"] = channels.projection_shift(l, j)
        results["shifted_value"] = value + channels.projection_shift(l, j)
    elif which.startswith("renyi:"):
        try:
            n = int(which.split(":", 1)[1])
        except ValueError:
            n = 0
        if n < 1:
            raise CliError(f"renyi order must be a positive integer in {which!r}")
        moment = entropy.renyi_wehrl_moment(psi.density(), n)
        results["moment"] = moment
        if n > 1:
            results["value"] = log(moment) / (1 - n)
    else:
        raise CliError(f"unknown entropy selector {which!r}")
    if args.format == "csv":
        lines = ["key,value"] + [f"{k},{_fmt(v) if isinstance(v, float) else v}"
                                 for k, v in results.items()]
        _emit(args, "\n".join(lines) + "\n")
        return 0
    return _report(args, "entropy", None, {"tol": QuadratureSpec.tol}, results, t0)


def cmd_figure_projection(args) -> int:
    l = SpinLabel(args.twice_l)
    if l.twice_l > 8:
        raise ResourceGuardError("figure-projection guard: twice_l <= 8")
    j_labels = [parse_half_integer(tok) for tok in args.j_list.split(",") if tok.strip()]
    for j in j_labels:
        _require_projection_j("figure-projection", j)
    header = ["index", "S_W"]
    for j in j_labels:
        tag = _spin_tag(j)
        header += [f"S_pro_shifted_j{tag}", f"gap_j{tag}"]
    with _open_out(args) as fh:
        fh.write(",".join(header) + "\n")
        for start, amp in _sample_chunks(l, args.samples, args.seed):
            s_w = entropy.wehrl_pure_batch(l, amp)
            columns = [s_w]
            for j in j_labels:
                shifted = channels.projection_entropy_pure_batch(l, j, amp) + channels.projection_shift(l, j)
                columns += [shifted, s_w - shifted]
            for i, row in enumerate(np.column_stack(columns), start):
                fh.write(",".join([str(i)] + [_fmt(float(x)) for x in row]) + "\n")
    return 0


def _sample_chunks(l: SpinLabel, samples: int, seed: int):
    """Random pure states of spin l drawn in order from `seed`, as (index of
    the first, amplitude rows) in chunks of STATE_CHUNK."""
    rng = np.random.default_rng(seed)
    for start in range(0, samples, STATE_CHUNK):
        yield start, np.array([random_pure(l, rng).amplitudes for _ in range(min(STATE_CHUNK, samples - start))])


def _require_projection_j(command: str, j: SpinLabel):
    if j.twice_l > channels.MAX_PROJECTION_TWICE_J:
        raise ResourceGuardError(f"{command} guard: j <= {channels.MAX_PROJECTION_TWICE_J / 2:g}")


def _spin_tag(j: SpinLabel) -> str:
    return str(j.twice_l // 2) if j.twice_l % 2 == 0 else f"{j.twice_l}over2"


def _parse_objective(text: str):
    if text == "wehrl" or text == "angular":
        return text
    if text.startswith("projection:"):
        return ("projection", parse_half_integer(text.split(":", 1)[1]))
    raise CliError(f"unknown objective {text!r}")


def _require_angular_spin(l: SpinLabel):
    if l.twice_l < 1:
        raise CliError("the angular channel needs l >= 1/2")


def _angular_entropy(psi: PureState) -> float:
    """Entropy of the angular channel's output, from its 3x3 Gram spectrum."""
    return entropy.entropy_of_spectrum(entropy.clamped_spectrum(channels.angular_gram(psi)))


def _sample_values(l: SpinLabel, objective, amp: np.ndarray) -> np.ndarray:
    """Objective values of the pure states in the rows of `amp`, from the
    library's value routes: the exact Wehrl batch, the pure-state projection
    batch or the angular Gram spectrum."""
    if objective == "wehrl":
        return entropy.wehrl_pure_batch(l, amp)
    if objective == "angular":
        return np.array([_angular_entropy(PureState(l, a)) for a in amp])
    return channels.projection_entropy_pure_batch(l, objective[1], amp)


def _coherent_benchmark(l: SpinLabel, objective) -> float:
    if objective == "wehrl":
        return l.twice_l / (l.twice_l + 1)
    if objective == "angular":
        lv = l.l
        spec = np.array([lv * lv, lv, 0.0]) / (lv * (lv + 1))
        return entropy.entropy_of_spectrum(spec)
    j = objective[1]
    north = np.zeros(l.dim, dtype=complex)
    north[0] = 1.0
    return channels.projection_entropy_pure(PureState(l, north), j)


def cmd_scan_conjecture(args) -> int:
    t0 = time.perf_counter()
    objective = _parse_objective(args.objective)
    l = SpinLabel(args.twice_l)
    if l.twice_l > majorize.OPTIMIZER_MAX_TWICE_L:
        raise ResourceGuardError(f"optimizer guard: twice_l <= {majorize.OPTIMIZER_MAX_TWICE_L}")
    if objective == "angular":
        _require_angular_spin(l)
    elif isinstance(objective, tuple):
        _require_projection_j("optimizer", objective[1])
    sample_min = np.inf
    for _, amp in _sample_chunks(l, args.samples, args.seed):
        sample_min = min(sample_min, float(np.min(_sample_values(l, objective, amp))))
    opt = majorize.minimize_entropy(l, objective, restarts=args.restarts, seed=args.seed)
    benchmark = _coherent_benchmark(l, objective)
    tol = 1e-6
    found_min = min(sample_min, opt.best_value)
    results = {
        "objective": args.objective,
        "twice_l": l.twice_l,
        "sample_minimum": sample_min,
        "optimizer_minimum": opt.best_value,
        "coherent_benchmark": benchmark,
        "gap": found_min - benchmark,
        "coherent_fidelity": opt.coherent_fidelity,
        "counterexample": bool(found_min < benchmark - tol),
        "note": "angular minimization is an open conjecture; exit code 2 is informational"
                if objective == "angular" else "",
    }
    code = _report(args, "scan-conjecture", args.seed, {"tol": tol}, results, t0)
    return 2 if results["counterexample"] else code


def cmd_sun(args) -> int:
    t0 = time.perf_counter()
    results: dict = {"N": args.modes, "M": args.bosons, "k": args.copies, "mode": args.mode}
    code = 0
    if args.mode == "clone":
        results["spectrum"] = fock.coherent_cloning_spectrum(args.modes, args.bosons, args.copies).tolist()
    elif args.mode == "prepare":
        space = fock.SymmetricSpace(args.modes, args.bosons)
        coh = fock.coherent_condensate(space, np.eye(args.modes)[0])
        T = fock.measure_prepare_channel(space, coh, args.copies)
        results["spectrum"] = [float(x) for x in entropy.clamped_spectrum(T)]
    elif args.mode == "decompose":
        res = fock.decompose_measure_prepare(args.modes, args.bosons, args.copies, seed=args.seed)
        results["coefficients"] = [float(c) for c in res.coefficients]
        results["residual"] = res.residual
    elif args.mode == "majorize":
        rep = fock.sun_coherent_majorization_test(args.modes, args.bosons, args.copies,
                                                  args.samples, seed=args.seed)
        results["samples"] = rep.samples
        results["violations"] = rep.violations
        results["worst_violation"] = rep.worst_violation
        results["coherent_spectrum"] = [float(x) for x in rep.coherent_spectrum]
        if rep.violations:
            code = 2
    else:
        raise CliError(f"unknown sun mode {args.mode!r}")
    _report(args, "sun", args.seed, {"eps": fock.MAJORIZATION_EPS}, results, t0)
    return code


@lru_cache(maxsize=None)
def build_parser() -> _Parser:
    """The CLI parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="spinwehrl", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("entropy", help="entropy of a state file")
    p.add_argument("--state", required=True, help="JSON or CSV state file")
    p.add_argument("--which", required=True,
                   help="wehrl | vonneumann | projection:J | angular | renyi:N")
    p.add_argument("--normalize", action="store_true", help="normalize the input state")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_entropy)

    p = sub.add_parser("figure-projection",
                       help="Wehrl vs shifted projection entropies, CSV output")
    p.add_argument("--twice-l", type=_int_at_least(0), required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--j-list", default="1,10,100")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_figure_projection)

    p = sub.add_parser("scan-conjecture", help="minimum-entropy scan vs coherent benchmark")
    p.add_argument("--objective", required=True, help="wehrl | angular | projection:J")
    p.add_argument("--twice-l", type=_int_at_least(0), required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=200)
    p.add_argument("--restarts", type=_int_at_least(1), default=16)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_scan_conjecture)

    p = sub.add_parser("sun", help="symmetric SU(N) channel runs")
    p.add_argument("--modes", type=_int_at_least(1), required=True)
    p.add_argument("--bosons", type=_int_at_least(0), required=True)
    p.add_argument("--copies", type=_int_at_least(0), required=True)
    p.add_argument("--mode", choices=["clone", "prepare", "decompose", "majorize"], required=True)
    p.add_argument("--samples", type=_int_at_least(1), default=500)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_sun)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.fn(args)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ResourceGuardError as exc:
        print(f"resource guard: {exc}", file=sys.stderr)
        return 3
    except (ConvergenceError, DecompositionError) as exc:
        print(f"numerical limit: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
