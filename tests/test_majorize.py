import numpy as np
import pytest

from spinwehrl import entropy
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

    def shifted(matrix):
        lam, U = eigh(matrix)
        return np.concatenate([[-1e-9], lam[1:]]), U

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
