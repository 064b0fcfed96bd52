import tracemalloc

import numpy as np
import pytest
from scipy.optimize import minimize

from spinwehrl import entropy, majorize
from spinwehrl.channels import angular_gram, projection_entropy_pure
from spinwehrl.entropy import clamped_spectrum, entropy_of_spectrum, wehrl_pure
from spinwehrl.majorize import (
    majorizes,
    minimize_entropy,
    objective_fn,
    schur_concave_check,
    worst_majorization_violation,
)
from spinwehrl.su2 import PureState, SpinLabel

OBJECTIVES = ["wehrl", "angular"] + [("projection", SpinLabel(tj)) for tj in (1, 4, 20)]


def library_entropy(l, objective, psi):
    """The objective by the library's own routes, with no gradient code."""
    if objective == "wehrl":
        return wehrl_pure(psi)
    if objective == "angular":
        return entropy_of_spectrum(clamped_spectrum(angular_gram(psi)))
    return projection_entropy_pure(psi, objective[1])


def test_majorizes_basic():
    assert majorizes([0.5, 0.5], [0.5, 0.5])
    assert majorizes([1.0, 0.0], [0.5, 0.5])
    assert not majorizes([0.5, 0.5], [1.0, 0.0])
    # unsorted input is sorted internally
    assert majorizes([0.0, 1.0], [0.5, 0.5])


def test_majorizes_handles_unequal_lengths():
    assert majorizes([1.0], [0.5, 0.3, 0.2])
    assert not majorizes([0.4, 0.3, 0.3], [0.6, 0.4])


def test_majorizes_trace_mismatch():
    with pytest.raises(ValueError):
        majorizes([0.7, 0.2], [0.5, 0.5])


def test_majorizes_clamps_spectra():
    assert majorizes([1.0, -5e-13], [0.5, 0.5])
    with pytest.raises(ValueError, match="clamp window"):
        majorizes([1.0, -2e-12], [0.5, 0.5])


def test_worst_violation_sign():
    assert worst_majorization_violation([1.0, 0.0], [0.5, 0.5]) <= 0
    assert worst_majorization_violation([0.5, 0.5], [0.8, 0.2]) == pytest.approx(0.3)


def test_schur_concavity_of_entropy():
    rng = np.random.default_rng(0)
    for _ in range(20):
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(4))
        if majorizes(a, b):
            assert schur_concave_check(entropy_of_spectrum, a, b)


def test_minimize_wehrl_spin_half():
    # smallest case: every pure state is coherent, minimum 2l/(2l+1) = 1/2
    res = minimize_entropy(SpinLabel(1), "wehrl", restarts=4, seed=0)
    assert res.best_value == pytest.approx(0.5, abs=1e-6)
    assert res.coherent_fidelity == pytest.approx(1.0, abs=1e-9)
    assert res.converged


def test_minimize_wehrl_spin_one():
    res = minimize_entropy(SpinLabel(2), "wehrl", restarts=8, seed=1)
    assert res.best_value == pytest.approx(2.0 / 3.0, abs=1e-6)
    assert res.coherent_fidelity >= 1 - 1e-6


def test_minimize_projection_objective():
    res = minimize_entropy(SpinLabel(2), ("projection", SpinLabel(2)), restarts=6, seed=2)
    assert res.converged
    # minimum should be attained on (numerically) coherent states
    assert res.coherent_fidelity >= 1 - 1e-5


def test_minimize_guard():
    with pytest.raises(ValueError):
        minimize_entropy(SpinLabel(17), "wehrl")
    with pytest.raises(ValueError, match="twice_j <= 200"):
        minimize_entropy(SpinLabel(2), ("projection", SpinLabel(201)))
    with pytest.raises(ValueError, match="restarts must be at least 1"):
        minimize_entropy(SpinLabel(2), "wehrl", restarts=0)


@pytest.mark.parametrize("objective", OBJECTIVES, ids=str)
@pytest.mark.parametrize("twice_l", [1, 2, 3, 4])
def test_search_gradient_matches_central_differences(twice_l, objective):
    l = SpinLabel(twice_l)
    search = objective_fn(l, objective)
    rng = np.random.default_rng(twice_l)
    h = 1e-6
    for _ in range(3):
        x = 1.7 * rng.standard_normal(2 * l.dim)  # unnormalized on purpose
        _, grad = search(x)
        steps = h * np.eye(len(x))
        numeric = np.array([(search(x + e)[0] - search(x - e)[0]) / (2 * h) for e in steps])
        assert np.max(np.abs(grad - numeric)) < 1e-8


@pytest.mark.parametrize("objective", ["angular", ("projection", SpinLabel(4))], ids=str)
def test_gram_search_rejects_non_psd_spectrum(objective, monkeypatch):
    # the one clamp rule: a Gram eigenvalue below -1e-12 raises instead of
    # being clamped away
    search = objective_fn(SpinLabel(2), objective)
    eigh = np.linalg.eigh

    def shifted(matrices):
        lam, U = eigh(matrices)
        return np.concatenate([np.full(lam.shape[:-1] + (1,), -1e-9), lam[..., 1:]], axis=-1), U

    monkeypatch.setattr(np.linalg, "eigh", shifted)
    with pytest.raises(ValueError, match="clamp window"):
        search(np.arange(6.0))


@pytest.mark.parametrize("objective", OBJECTIVES, ids=str)
@pytest.mark.parametrize("twice_l", [1, 2, 3, 4])
def test_search_value_matches_library_route(twice_l, objective):
    l = SpinLabel(twice_l)
    search = objective_fn(l, objective)
    rng = np.random.default_rng(10 + twice_l)
    for _ in range(3):
        x = 0.3 * rng.standard_normal(2 * l.dim)
        psi = PureState(l, x[:l.dim] + 1j * x[l.dim:], normalize=True)
        assert abs(search(x)[0] - library_entropy(l, objective, psi)) < 1e-12


def test_single_starts_meet_the_ac11_gates():
    worst_val, worst_fid = 0.0, 1.0
    for seed in range(100):
        res = minimize_entropy(SpinLabel(3), "wehrl", restarts=1, seed=seed)
        worst_val = max(worst_val, abs(res.best_value - 0.75))
        worst_fid = min(worst_fid, res.coherent_fidelity)
    assert worst_val < 1e-6 and worst_fid >= 1 - 1e-6, (worst_val, worst_fid)


@pytest.mark.parametrize("twice_l", [12, 16])
def test_large_spins_meet_the_ac11_gates(twice_l):
    res = minimize_entropy(SpinLabel(twice_l), "wehrl", restarts=2, seed=0)
    assert abs(res.best_value - twice_l / (twice_l + 1)) < 1e-6
    assert res.coherent_fidelity >= 1 - 1e-6


def test_residual_fallback_meets_the_ac11_gates(monkeypatch):
    # every search point takes the quadrature value with the root gradient
    monkeypatch.setattr(entropy, "EXACT_RESIDUAL_TOL", 0.0)
    res = minimize_entropy(SpinLabel(2), "wehrl", restarts=1, seed=0)
    assert abs(res.best_value - 2 / 3) < 1e-6
    assert res.coherent_fidelity >= 1 - 1e-6


@pytest.mark.parametrize("twice_l", [2, 5])
def test_best_value_is_the_reported_entropy(twice_l):
    res = minimize_entropy(SpinLabel(twice_l), "wehrl", restarts=3, seed=4)
    assert abs(res.best_value - wehrl_pure(res.best_state)) < 1e-12


def test_minimize_is_deterministic():
    l = SpinLabel(3)
    a = minimize_entropy(l, "wehrl", restarts=3, seed=7)
    b = minimize_entropy(l, "wehrl", restarts=3, seed=7)
    assert np.array_equal(a.best_state.amplitudes, b.best_state.amplitudes)
    assert (a.best_value, a.iterations, a.closest_direction, a.coherent_fidelity) == \
        (b.best_value, b.iterations, b.closest_direction, b.coherent_fidelity)


def counted_objectives(monkeypatch) -> list:
    """Patch `majorize.objective_fn` so that each search function it builds
    counts its evaluations, the rows of the stacks it values; returns the
    counts, one per function built."""
    counts, build = [], majorize.objective_fn

    def counting(l, objective):
        search, i = build(l, objective), len(counts)
        counts.append(0)

        def counted(x):
            counts[i] += len(np.atleast_2d(x))
            return search(x)

        return counted

    monkeypatch.setattr(majorize, "objective_fn", counting)
    return counts


@pytest.mark.parametrize("twice_l, objective, restarts", [
    (2, "wehrl", 16), (3, "wehrl", 16), (8, "wehrl", 4), (16, "wehrl", 2), (4, "angular", 8),
    (2, ("projection", SpinLabel(20)), 8), (4, ("projection", SpinLabel(20)), 8),
], ids=str)
def test_search_matches_scipy_lbfgsb_from_the_same_starts(twice_l, objective, restarts, monkeypatch):
    # the oracle: scipy's L-BFGS-B with the same stops, from the starts that
    # minimize_entropy spawns; the numpy search must reach its minimum and
    # spend no more than 1.2 times its evaluations per restart
    l = SpinLabel(twice_l)
    search = objective_fn(l, objective)
    oracle = [minimize(search, np.random.default_rng(start).standard_normal(2 * l.dim), jac=True,
                       method="L-BFGS-B", options=majorize._LBFGS_OPTIONS)
              for start in np.random.SeedSequence(0).spawn(restarts)]
    counts = counted_objectives(monkeypatch)
    res = minimize_entropy(l, objective, restarts=restarts, seed=0)
    assert res.converged and all(r.success for r in oracle)
    assert abs(res.best_value - min(r.fun for r in oracle)) < 1e-12
    assert counts[0] <= 1.2 * sum(r.nfev for r in oracle)


def test_failed_line_search_returns_unconverged(monkeypatch):
    # a gradient that the constant value never follows: no step meets
    # sufficient decrease, so each start spends one evaluation and a full line
    # search, keeps its start point and reports no convergence
    monkeypatch.setattr(majorize, "objective_fn",
                        lambda l, objective: lambda x: (np.ones(len(x)), np.ones_like(x)))
    counts = counted_objectives(monkeypatch)
    res = minimize_entropy(SpinLabel(2), "wehrl", restarts=3, seed=0)
    assert res.converged is False and res.iterations == 0 and res.best_value == 1.0
    assert counts == [3 * (1 + majorize._LINE_SEARCH_MAX_EVALS)]
    x0 = np.random.default_rng(np.random.SeedSequence(0).spawn(3)[0]).standard_normal(6)
    assert np.allclose(res.best_state.amplitudes, (x0[:3] + 1j * x0[3:]) / np.linalg.norm(x0))


@pytest.mark.parametrize("twice_l, objective", [
    (2, "wehrl"), (3, "wehrl"), (8, "wehrl"), (4, "angular"), (2, ("projection", SpinLabel(20))),
], ids=str)
def test_lockstep_starts_match_their_solo_runs(twice_l, objective):
    # each search keeps its own arithmetic: only the objective calls are shared
    l = SpinLabel(twice_l)
    search = objective_fn(l, objective)
    starts = [np.random.default_rng(s).standard_normal(2 * l.dim) for s in np.random.SeedSequence(0).spawn(6)]
    group = majorize._lockstep(search, [majorize._lbfgs(x0) for x0 in starts])
    assert len({iterations for _, _, iterations, _ in group}) > 1  # the searches leave at different rounds
    for x0, (_, value, iterations, converged) in zip(starts, group):
        [(_, solo_value, solo_iterations, solo_converged)] = majorize._lockstep(search, [majorize._lbfgs(x0)])
        assert abs(value - solo_value) <= 1e-12
        assert (iterations, converged) == (solo_iterations, solo_converged)


def test_group_boundary_keeps_the_best_value_and_iterations(monkeypatch):
    l = SpinLabel(3)
    whole = minimize_entropy(l, "wehrl", restarts=7, seed=5)
    rows, build = [], majorize.objective_fn

    def recording(l, objective):
        search = build(l, objective)

        def recorded(x):
            rows.append(len(x))
            return search(x)

        return recorded

    monkeypatch.setattr(majorize, "objective_fn", recording)
    monkeypatch.setattr(majorize, "STATE_CHUNK", 3)
    grouped = minimize_entropy(l, "wehrl", restarts=7, seed=5)
    assert max(rows) == 3 and rows.count(1) >= 1  # groups of 3, 3 and 1
    assert abs(grouped.best_value - whole.best_value) <= 1e-12
    assert grouped.iterations == whole.iterations


def test_memory_does_not_grow_with_restarts(monkeypatch):
    # starts run in groups, and their seeds are made one group at a time
    monkeypatch.setattr(majorize, "STATE_CHUNK", 32)
    l = SpinLabel(2)
    minimize_entropy(l, "wehrl", restarts=2, seed=0)  # caches built outside the measurement
    peaks = []
    for restarts in (32, 4 * 32):
        tracemalloc.start()
        try:
            minimize_entropy(l, "wehrl", restarts=restarts, seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0], peaks
