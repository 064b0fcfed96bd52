import math
import tracemalloc
from fractions import Fraction
from functools import lru_cache
from math import factorial, prod, sqrt

import numpy as np
import pytest
from scipy.special import xlogy

from spinwehrl import fock
from spinwehrl.channels import projection_channel
from spinwehrl.errors import DecompositionError, ResourceGuardError
from spinwehrl.fock import (
    SymmetricSpace,
    apply_cloning,
    cloning_channel,
    coherent_cloning_spectrum,
    coherent_condensate,
    decompose_measure_prepare,
    measure_prepare_channel,
    reduced_density,
    sun_coherent_majorization_test,
)
from spinwehrl.entropy import clamped_spectrum
from spinwehrl.su2 import SpinLabel, log_factorials, random_pure


def random_state(space, rng):
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return v / np.linalg.norm(v)


# Independent oracles: second-quantized constructions the library does not use.


@lru_cache(maxsize=None)
def annihilation_operator(n_modes: int, n_bosons: int, mode: int) -> np.ndarray:
    """a_mode as a matrix H(N, M) -> H(N, M-1); entries sqrt(n_mode)."""
    src = SymmetricSpace(n_modes, n_bosons)
    dst = SymmetricSpace(n_modes, n_bosons - 1)
    A = np.zeros((dst.dim, src.dim))
    for col, occ in enumerate(src.basis):
        if occ[mode] > 0:
            lowered = occ[:mode] + (occ[mode] - 1,) + occ[mode + 1:]
            A[dst.index(lowered), col] = sqrt(occ[mode])
    return A


@lru_cache(maxsize=None)
def monomial_annihilation(n_modes: int, n_bosons: int, mu: tuple) -> np.ndarray:
    """Product prod_i a_i^(mu_i) as a matrix H(N, M) -> H(N, M - sum mu)."""
    op = np.eye(SymmetricSpace(n_modes, n_bosons).dim)
    m = n_bosons
    for mode, count in enumerate(mu):
        for _ in range(count):
            op = annihilation_operator(n_modes, m, mode) @ op
            m -= 1
    return op


def cloning_kraus(n_modes: int, n_bosons: int, k: int) -> list[np.ndarray]:
    """Dense Kraus family of the k-copy cloning channel H(N, M) -> H(N, M+k),
    one operator sqrt(k!/mu!) (a*)^mu per occupation mu of the k new bosons,
    before the overall 1/sqrt(s) normalization."""
    ops = []
    for mu in SymmetricSpace(n_modes, k).basis:
        weight = sqrt(factorial(k) / prod(factorial(n) for n in mu))
        ops.append(weight * monomial_annihilation(n_modes, n_bosons + k, mu).T)
    return ops


def cloning_scale(n_modes: int, n_bosons: int, k: int) -> int:
    """s with sum K^dag K = s * identity for the Kraus family of `cloning_kraus`:
    k! C(M+N-1+k, k), as an exact integer."""
    return factorial(k) * math.comb(n_bosons + n_modes - 1 + k, k)


def apply_cloning_dense(space: SymmetricSpace, mat: np.ndarray, k: int) -> np.ndarray:
    s = cloning_scale(space.n_modes, space.n_bosons, k)
    return sum(K @ mat @ K.conj().T for K in cloning_kraus(space.n_modes, space.n_bosons, k)) / s


def reduced_density_loop(space: SymmetricSpace, rho: np.ndarray, ell: int) -> np.ndarray:
    """gamma^ell entry by entry: ell!/sqrt(mu! nu!) tr(rho (a*)^nu a^mu)."""
    small = SymmetricSpace(space.n_modes, ell)
    basis = small.basis
    gamma = np.zeros((small.dim, small.dim), dtype=complex)
    mono = {mu: monomial_annihilation(space.n_modes, space.n_bosons, mu) for mu in basis}
    fac = {mu: prod(factorial(n) for n in mu) for mu in basis}
    for i, mu in enumerate(basis):
        for jdx, nu in enumerate(basis):
            op = mono[nu].conj().T @ mono[mu]  # (a*)^nu a^mu on H(N, M)
            gamma[i, jdx] = factorial(ell) / sqrt(fac[mu] * fac[nu]) * np.trace(rho @ op)
    return gamma


def majorization_svd_loop(n_modes, m_bosons, k, samples, seed=0, eps=1e-9):
    """The coherent-majorization test one state at a time: the dense cloning
    output of the condensate against the SVD of each sample's Kraus images."""
    space = SymmetricSpace(n_modes, m_bosons)
    rng = np.random.default_rng(seed)
    e0 = np.zeros(n_modes)
    e0[0] = 1.0
    coh = coherent_condensate(space, e0)
    coh_prefix = np.cumsum(cloning_channel(space, np.outer(coh, coh.conj()), k).spectrum)
    s = cloning_scale(n_modes, m_bosons, k)
    kraus = np.stack(cloning_kraus(n_modes, m_bosons, k))
    violations = 0
    worst = 0.0
    for _ in range(samples):
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        spec = np.sort(np.linalg.svd(kraus @ psi, compute_uv=False) ** 2)[::-1] / s
        spec = np.pad(spec, (0, len(coh_prefix) - len(spec)))
        gap = float(np.max(np.cumsum(spec) - coh_prefix))
        worst = max(worst, gap)
        violations += gap > eps
    return violations, worst


# N <= 4, M <= 4, k <= 4 with the edges N = 1, M = 0 and k = 0
SHAPES = [(n, m, k) for n in range(1, 5) for m in range(5) for k in range(5)]


def creation_operator(n_modes: int, n_bosons: int, mode: int) -> np.ndarray:
    """a*_mode as a matrix H(N, M) -> H(N, M+1); adjoint of annihilation."""
    return annihilation_operator(n_modes, n_bosons + 1, mode).T


def measure_prepare_second_quantized(space: SymmetricSpace, psi: np.ndarray, k: int) -> np.ndarray:
    """Same channel from the anti-normal-ordered double sum over creation and
    annihilation strings; used as an independent route."""
    psi = np.asarray(psi, dtype=complex)
    right = SymmetricSpace(space.n_modes, k)
    basis = right.basis
    big_m = space.n_bosons + k
    mono = {mu: monomial_annihilation(space.n_modes, big_m, mu) for mu in basis}
    fac = {mu: prod(factorial(n) for n in mu) for mu in basis}
    T = np.zeros((right.dim, right.dim), dtype=complex)
    for i, mu in enumerate(basis):
        for jdx, nu in enumerate(basis):
            # <psi| a^mu (a*)^nu |psi> with (a*)^nu : H(M) -> H(M+k)
            vec = mono[nu].conj().T @ psi
            val = np.vdot(psi, mono[mu] @ vec)
            T[i, jdx] = factorial(k) / sqrt(fac[mu] * fac[nu]) * val
    T = (T + T.conj().T) / 2
    return T / np.trace(T).real


@lru_cache(maxsize=None)
def symmetric_embedding_isometry(n_modes: int, m_bosons: int, k_bosons: int) -> np.ndarray:
    """Isometry H(N, M+k) -> H(N, M) (x) H(N, k); the adjoint implements the
    symmetric projector restricted to its image.

    Coefficient of |mu> (x) |nu> in |n> is sqrt(prod_i C(n_i, mu_i) / C(M+k, k)).
    """
    big = SymmetricSpace(n_modes, m_bosons + k_bosons)
    left = SymmetricSpace(n_modes, m_bosons)
    right = SymmetricSpace(n_modes, k_bosons)
    W = np.zeros((left.dim * right.dim, big.dim))
    scale = 1.0 / sqrt(math.comb(m_bosons + k_bosons, k_bosons))
    for col, occ in enumerate(big.basis):
        for a, mu in enumerate(left.basis):
            nu = tuple(n - m for n, m in zip(occ, mu))
            if min(nu) < 0:
                continue
            coeff = prod(math.comb(n, m) for n, m in zip(occ, mu))
            W[a * right.dim + right.index(nu), col] = sqrt(coeff) * scale
    return W


def measure_prepare_dense(space: SymmetricSpace, psi: np.ndarray, k: int) -> np.ndarray:
    """<psi (x) id| P_sym |psi (x) id> on H(N, k), unit trace, through the
    dense symmetric isometry."""
    psi = np.asarray(psi, dtype=complex)
    W = symmetric_embedding_isometry(space.n_modes, space.n_bosons, k)
    W3 = W.reshape(space.dim, SymmetricSpace(space.n_modes, k).dim, -1)
    X = np.einsum("m,man->an", psi, W3.conj())
    T = X.conj() @ X.T
    T = (T + T.conj().T) / 2
    return T / np.trace(T).real


def decomposition_loop(n_modes: int, m_bosons: int, k: int, batch: int = 20, seed: int = 0) -> np.ndarray:
    """Coefficients of the measure-and-prepare decomposition one state and one
    ell at a time, from psi psi^dag, the general reduced density, the dense
    isometry, and the same draws and least-squares fit as the library."""
    space = SymmetricSpace(n_modes, m_bosons)
    rng = np.random.default_rng(seed)
    valid = [ell for ell in range(k + 1) if k - ell <= m_bosons]
    rows = []
    targets = []
    for _ in range(batch):
        psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
        psi /= np.linalg.norm(psi)
        proj = np.outer(psi, psi.conj())
        feats = [apply_cloning(SymmetricSpace(n_modes, k - ell), reduced_density(space, proj, k - ell), ell).ravel()
                 for ell in valid]
        rows.append(np.column_stack(feats))
        targets.append(measure_prepare_dense(space, psi, k).ravel())
    A = np.vstack(rows)
    b = np.concatenate(targets)
    coefs = np.linalg.lstsq(np.vstack([A.real, A.imag]), np.concatenate([b.real, b.imag]), rcond=None)[0]
    full = np.zeros(k + 1)
    full[valid] = coefs
    return full


def random_special_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-ish special unitary via QR of a complex Ginibre matrix."""
    g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(g)
    q = q @ np.diag(np.diag(r) / np.abs(np.diag(r)))
    det = np.linalg.det(q)
    return q * det ** (-1.0 / n)


def symmetric_power_unitary(space: SymmetricSpace, u: np.ndarray) -> np.ndarray:
    """Action of U in SU(N) on H(N, M) by expanding products of transformed
    creation operators."""
    u = np.asarray(u, dtype=complex)
    dim = space.dim
    out = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(space.basis):
        # polynomial in a*_j: prod_i (sum_j u[j,i] x_j)^(occ_i)
        terms = {tuple([0] * space.n_modes): 1.0 + 0j}
        for mode, count in enumerate(occ):
            for _ in range(count):
                new = {}
                for key, coef in terms.items():
                    for jmode in range(space.n_modes):
                        nk = list(key)
                        nk[jmode] += 1
                        nk = tuple(nk)
                        new[nk] = new.get(nk, 0.0) + coef * u[jmode, mode]
                terms = new
        f_occ = prod(factorial(n) for n in occ)
        for key, coef in terms.items():
            row = space.index(key)
            out[row, col] = coef * sqrt(prod(factorial(n) for n in key) / f_occ)
    return out


def test_space_dimension_and_basis_order():
    s = SymmetricSpace(3, 2)
    assert s.dim == 6
    assert s.basis[0] == (2, 0, 0)
    assert s.basis[-1] == (0, 0, 2)
    assert all(sum(b) == 2 for b in s.basis)
    # lexicographic descending
    assert list(s.basis) == sorted(s.basis, reverse=True)


def test_ladder_operators_and_number():
    rng = np.random.default_rng(0)
    for n_modes, n_bosons in [(2, 2), (3, 2), (3, 3)]:
        total = 0
        for mode in range(n_modes):
            a = annihilation_operator(n_modes, n_bosons, mode)
            # a maps (n_bosons) -> (n_bosons - 1); its adjoint creates from n_bosons - 1
            adag = creation_operator(n_modes, n_bosons - 1, mode)
            assert np.max(np.abs(a.conj().T - adag)) < 1e-13
            total = total + a.conj().T @ a
        assert np.max(np.abs(total - n_bosons * np.eye(SymmetricSpace(n_modes, n_bosons).dim))) < 1e-12


def test_monomial_annihilation_matches_chain():
    a0 = annihilation_operator(3, 3, 0)
    a1 = annihilation_operator(3, 2, 1)
    chained = a1 @ a0
    assert np.max(np.abs(monomial_annihilation(3, 3, (1, 1, 0)) - chained)) < 1e-13


def test_coherent_condensate_amplitudes():
    s = SymmetricSpace(2, 2)
    v = coherent_condensate(s, np.array([1.0, 1.0]) / np.sqrt(2))
    # multinomial: (1/2, 1/sqrt(2), 1/2) over basis (2,0),(1,1),(0,2)
    assert np.allclose(np.abs(v), [0.5, 1 / np.sqrt(2), 0.5], atol=1e-12)
    assert np.linalg.norm(v) == pytest.approx(1.0, abs=1e-12)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("omega", [[0.6, 0.48j, 0.64], [0.6, 0.0, -0.8j], [0.0, 1.0, 0.0]], ids=str)
def test_coherent_condensate_matches_the_xlogy_form(omega):
    # the scipy form 0 ln 0 = 0 as the oracle, also with zero components,
    # whose masked logarithms must raise no RuntimeWarning
    space = SymmetricSpace(3, 5)
    omega = np.array(omega) / np.linalg.norm(omega)
    occ = np.array(space.basis).reshape(space.dim, space.n_modes)
    log_amps = xlogy(occ, np.abs(omega)).sum(axis=1) - 0.5 * log_factorials(space.n_bosons)[occ].sum(axis=1)
    amps = np.exp(log_amps - log_amps.max()) * np.exp(1j * (occ @ np.angle(omega)))
    assert np.max(np.abs(coherent_condensate(space, omega) - amps / np.linalg.norm(amps))) <= 1e-15


@pytest.mark.parametrize("n_modes,m,k", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                                         (4, 3, 3), (3, 4, 4)])
def test_cloning_kraus_completeness(n_modes, m, k):
    kraus = cloning_kraus(n_modes, m, k)
    s = cloning_scale(n_modes, m, k)
    total = sum(K.conj().T @ K for K in kraus)
    assert np.max(np.abs(total - s * np.eye(SymmetricSpace(n_modes, m).dim))) < 1e-10 * max(s, 1.0)


def test_cloning_channel_is_trace_preserving_and_covariant():
    rng = np.random.default_rng(1)
    space = SymmetricSpace(3, 2)
    psi = random_state(space, rng)
    rho = np.outer(psi, psi.conj())
    out = cloning_channel(space, rho, 2)
    assert np.trace(out.matrix) == pytest.approx(1.0, abs=1e-12)
    # covariance under the symmetric power of a random special unitary
    u = random_special_unitary(3, rng)
    U_in = symmetric_power_unitary(space, u)
    U_out = symmetric_power_unitary(out.space_out, u)
    lhs = cloning_channel(space, U_in @ rho @ U_in.conj().T, 2).matrix
    rhs = U_out @ out.matrix @ U_out.conj().T
    assert np.max(np.abs(lhs - rhs)) < 1e-11


def test_cloning_channel_rejects_non_psd_output():
    # the one clamp rule: rounding noise is set to 0, a real negative
    # eigenvalue raises instead of being clamped away
    space = SymmetricSpace(2, 1)
    with pytest.raises(ValueError, match="clamp window"):
        cloning_channel(space, np.diag([1.5, -0.5]), 1)


def test_cloning_matches_spin_projection_for_two_modes():
    # [DERIVED] cross-oracle: for N = 2 the boson picture is the spin picture
    # with l = M/2, j = k/2
    rng = np.random.default_rng(2)
    for m, k in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        spin = SpinLabel(m)
        psi = random_pure(spin, rng)
        space = SymmetricSpace(2, m)
        out_boson = cloning_channel(space, np.outer(psi.amplitudes, psi.amplitudes.conj()), k)
        out_spin = projection_channel(psi.density(), SpinLabel(k))
        assert np.max(np.abs(out_boson.spectrum - out_spin.spectrum)) < 1e-12


def test_reduced_density_basics():
    rng = np.random.default_rng(3)
    space = SymmetricSpace(3, 3)
    psi = random_state(space, rng)
    rho = np.outer(psi, psi.conj())
    # documented convention: trace is M!/(M-ell)! times tr(rho)
    for ell in (1, 2, 3):
        g = reduced_density(space, rho, ell)
        assert np.trace(g).real == pytest.approx(math.factorial(3) / math.factorial(3 - ell), abs=1e-10)
        assert np.min(np.linalg.eigvalsh((g + g.conj().T) / 2)) > -1e-11
    assert np.max(np.abs(reduced_density(space, rho, 3) / math.factorial(3) - rho)) < 1e-11
    with pytest.raises(ValueError):
        reduced_density(space, rho, 4)


def test_reduced_density_of_condensate_is_condensate():
    space = SymmetricSpace(3, 3)
    omega = np.array([0.6, 0.48j, 0.64])
    v = coherent_condensate(space, omega)
    g = reduced_density(space, np.outer(v, v.conj()), 2)
    small = coherent_condensate(SymmetricSpace(3, 2), omega)
    scale = math.factorial(3) / math.factorial(1)
    assert np.max(np.abs(g - scale * np.outer(small, small.conj()))) < 1e-11


def test_symmetric_embedding_isometry_is_isometry():
    for n_modes, m, k in [(2, 2, 1), (3, 2, 2), (3, 1, 2)]:
        w = symmetric_embedding_isometry(n_modes, m, k)
        assert np.max(np.abs(w.conj().T @ w - np.eye(SymmetricSpace(n_modes, m + k).dim))) < 1e-12


def test_measure_prepare_routes_agree():
    rng = np.random.default_rng(4)
    for n_modes, m, k in SHAPES:
        space = SymmetricSpace(n_modes, m)
        psi = np.array([random_state(space, rng) for _ in range(3)])
        stacked = measure_prepare_channel(space, psi, k)
        assert stacked.shape == (3,) + (SymmetricSpace(n_modes, k).dim,) * 2
        for p, t in zip(psi, stacked):
            a = measure_prepare_channel(space, p, k)
            for oracle in (measure_prepare_second_quantized, measure_prepare_dense):
                b = oracle(space, p, k)
                assert np.max(np.abs(a - b)) < 1e-12, (n_modes, m, k)
                assert np.max(np.abs(t - b)) < 1e-12, (n_modes, m, k)
            assert np.trace(a) == pytest.approx(1.0, abs=1e-11)


@pytest.mark.parametrize("n_modes,m,k,expected", [
    (2, 1, 1, [1 / 3, 2 / 3]),
    (4, 4, 4, [1 / 7920, 7 / 1980, 7 / 220, 7 / 66, 7 / 66]),
    # at N = 1 every channel is the 1 x 1 identity, so a fit is not unique
    # (the minimum-norm least squares gives (0.4, 0.2)); the formula still
    # rebuilds the channel
    (1, 2, 1, [1 / 3, 1 / 3]),
])
def test_decomposition_closed_form_values(n_modes, m, k, expected):
    res = decompose_measure_prepare(n_modes, m, k)
    assert np.max(np.abs(res.coefficients - expected)) < 1e-15
    assert res.residual <= 1e-9


@pytest.mark.parametrize("n_modes,m,k", [(2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2),
                                         (1, 2, 1), (1, 4, 4), (1, 0, 3), (2, 0, 2), (3, 2, 0)])
def test_decomposition_properties(n_modes, m, k):
    res = decompose_measure_prepare(n_modes, m, k)
    assert res.residual < 1e-9
    # each term Phi^ell(gamma^(k-ell)) carries trace M!/(M-(k-ell))!, so the
    # trace-weighted coefficients form a probability distribution
    weights = np.array([
        math.factorial(m) / math.factorial(m - (k - ell)) if k - ell <= m else 0.0
        for ell in range(k + 1)
    ])
    assert np.sum(weights * res.coefficients) == pytest.approx(1.0, abs=1e-9)
    assert np.min(res.coefficients) > -1e-9
    # coefficients are stable across disjoint sampling batches
    res2 = decompose_measure_prepare(n_modes, m, k, seed=123)
    assert np.max(np.abs(res.coefficients - res2.coefficients)) < 1e-9


@pytest.mark.parametrize("n_modes,m,k", [(2, 200, 200), (2, 1, 1), (4, 4, 4), (3, 1, 4)])
def test_decomposition_coefficients_match_exact_fractions(n_modes, m, k, monkeypatch):
    # the closed form alone: no state is drawn, so the residual loop, 230 s at
    # (2, 200, 200), does not run. The oracle normalizes C(k+N-1, l)/(k-l)!
    # by its trace-weighted sum in exact rationals, where 200! and
    # C(401, 200) ~ 1e119 are no floats.
    monkeypatch.setattr(fock, "_state_chunks", lambda *args: iter(()))
    coefs = decompose_measure_prepare(n_modes, m, k).coefficients
    raw = [Fraction(math.comb(k + n_modes - 1, ell), factorial(k - ell)) if k - ell <= m else Fraction(0)
           for ell in range(k + 1)]
    total = sum(c * math.perm(m, k - ell) for ell, c in enumerate(raw))
    expected = np.array([float(c / total) for c in raw])
    assert np.all(np.abs(coefs - expected) <= 1e-13 * expected)
    assert np.count_nonzero(expected) > 0


def test_decomposition_zero_terms_when_removal_exceeds_bosons():
    res = decompose_measure_prepare(2, 1, 2)
    assert res.coefficients[0] == 0.0  # would need to strip 2 bosons from 1


def test_decomposition_guard_comes_before_the_big_integers(monkeypatch):
    # the 5000 x 10000 gather table is refused before the exact falling
    # factorials of the closed form, which took 12 s at this shape
    def reached(*args):
        raise AssertionError("perm reached before the guard")

    monkeypatch.setattr(fock, "perm", reached)
    with pytest.raises(ResourceGuardError):
        decompose_measure_prepare(2, 5000, 4999)


def test_majorization_report_no_violations():
    rep = sun_coherent_majorization_test(3, 2, 2, samples=50, seed=0)
    assert rep.samples == 50
    assert rep.violations == 0
    assert rep.worst_violation <= 1e-9
    assert np.trace(np.diag(rep.coherent_spectrum)) == pytest.approx(1.0, abs=1e-11)


def test_cloning_resource_guard():
    # output space H(6, 14) has dimension C(19,5) = 11628 > 10000; the guard
    # fires before any gather table is built
    space = SymmetricSpace(6, 6)
    rho = np.eye(space.dim) / space.dim
    with pytest.raises(ResourceGuardError):
        apply_cloning(space, rho, 8)


def test_symmetric_power_unitary_is_unitary():
    rng = np.random.default_rng(5)
    space = SymmetricSpace(3, 2)
    u = random_special_unitary(3, rng)
    U = symmetric_power_unitary(space, u)
    assert np.max(np.abs(U @ U.conj().T - np.eye(space.dim))) < 1e-11


def test_occupation_rank_inverts_the_basis():
    for n_modes, n_bosons in [(1, 0), (1, 3), (2, 0), (2, 5), (3, 4), (4, 4), (5, 3)]:
        basis = np.array(SymmetricSpace(n_modes, n_bosons).basis).reshape(-1, n_modes)
        assert fock._occupation_rank(basis, n_bosons).tolist() == list(range(len(basis)))


def test_gather_table_is_cached_and_read_only():
    src, w = fock._cloning_gather(3, 1, 2)
    assert fock._cloning_gather(3, 1, 2)[0] is src
    # one row per Kraus operator (occupation of the 2 new bosons), one column per output state
    assert src.shape == w.shape == (SymmetricSpace(3, 2).dim, SymmetricSpace(3, 3).dim)
    with pytest.raises(ValueError):
        w[0, 0] = 1.0
    with pytest.raises(ValueError):
        fock._annihilation_gather(3, 2, 1)[1][0, 0] = 1.0


def gather_weights_exact(n_modes: int, m: int, k: int) -> np.ndarray:
    """w[mu, r] = sqrt(prod_i C(m_i, mu_i) / C(M+N-1+k, k)), from the exact
    integer ratio, entry by entry."""
    out = SymmetricSpace(n_modes, m + k)
    total = math.comb(m + n_modes - 1 + k, k)
    mus = SymmetricSpace(n_modes, k).basis
    w = np.zeros((len(mus), out.dim))
    for i, mu in enumerate(mus):
        for r, occ in enumerate(out.basis):
            if min(o - u for o, u in zip(occ, mu)) >= 0:
                w[i, r] = sqrt(prod(math.comb(o, u) for o, u in zip(occ, mu)) / total)
    return w


def test_gather_weights_match_exact_ratios():
    # log-factorial differences, within 1e-15 where the binomials are small
    for n_modes, m, k in SHAPES:
        gap = np.max(np.abs(fock._cloning_gather(n_modes, m, k)[1] - gather_weights_exact(n_modes, m, k)))
        assert gap <= 1e-15, (n_modes, m, k)
    # at (2, 0, 1100) they reach C(1100, 550) ~ 1e330, and each output column
    # still sums to C(M+k, k) / C(M+N-1+k, k) = 1/1101 (Vandermonde)
    w = fock._cloning_gather(2, 0, 1100)[1]
    assert np.max(np.abs(np.sum(w ** 2, axis=0) * 1101 - 1)) < 1e-12


def test_gather_cloning_matches_dense_kraus_sum():
    rng = np.random.default_rng(6)
    for n_modes, m, k in SHAPES:
        space = SymmetricSpace(n_modes, m)
        # the linear extension: a general complex matrix, not a state
        mat = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
        gap = np.max(np.abs(apply_cloning(space, mat, k) - apply_cloning_dense(space, mat, k)))
        assert gap < 1e-13, (n_modes, m, k)


def test_coherent_spectrum_closed_form_matches_dense_channel():
    for n_modes, m, k in SHAPES:
        space = SymmetricSpace(n_modes, m)
        e0 = np.zeros(n_modes)
        e0[0] = 1.0
        coh = coherent_condensate(space, e0)
        dense = cloning_channel(space, np.outer(coh, coh.conj()), k).spectrum
        closed = coherent_cloning_spectrum(n_modes, m, k)
        assert closed.shape == dense.shape
        assert np.max(np.abs(closed - dense)) < 1e-13, (n_modes, m, k)
        # by covariance every condensate has the same spectrum
        omega = np.exp(1j * np.arange(n_modes)) * np.arange(1, n_modes + 1)
        other = coherent_condensate(space, omega)
        gap = np.max(np.abs(cloning_channel(space, np.outer(other, other.conj()), k).spectrum - closed))
        assert gap < 1e-12, (n_modes, m, k)


def test_batched_majorization_matches_svd_loop(monkeypatch):
    rng = np.random.default_rng(7)
    for n_modes, m, k in SHAPES:
        src, w = fock._cloning_gather(n_modes, m, k)
        # chunks of 3 states, so 6 samples cross a chunk boundary
        monkeypatch.setattr(fock, "_CHUNK_BYTES", 3 * 16 * src.size)
        seed = 100 * n_modes + 10 * m + k
        rep = sun_coherent_majorization_test(n_modes, m, k, samples=6, seed=seed)
        violations, worst = majorization_svd_loop(n_modes, m, k, samples=6, seed=seed)
        assert rep.violations == violations, (n_modes, m, k)
        assert abs(rep.worst_violation - worst) < 1e-12, (n_modes, m, k)
        # the stacked Gram spectra against each state's SVD
        space = SymmetricSpace(n_modes, m)
        psi = np.array([random_state(space, rng) for _ in range(5)])
        kraus = np.stack(cloning_kraus(n_modes, m, k))
        s = cloning_scale(n_modes, m, k)
        svd = np.array([np.linalg.svd(kraus @ p, compute_uv=False) ** 2 / s for p in psi])
        assert np.max(np.abs(clamped_spectrum(fock._image_gram(psi, src, w)) - svd)) < 1e-13, (n_modes, m, k)


def test_batched_majorization_at_the_default_chunk_size(monkeypatch):
    n_modes, m, k = 4, 4, 4  # the largest benchmark shape, so the smallest chunk
    src, _ = fock._cloning_gather(n_modes, m, k)
    chunk = fock._CHUNK_BYTES // (16 * src.size)
    assert 1 < chunk < 100
    drawn = []
    gram = fock._image_gram

    def recording(psi, src, w):
        drawn.append(psi)
        return gram(psi, src, w)

    monkeypatch.setattr(fock, "_image_gram", recording)
    rep = sun_coherent_majorization_test(n_modes, m, k, samples=chunk + 3, seed=9)
    violations, worst = majorization_svd_loop(n_modes, m, k, samples=chunk + 3, seed=9)
    assert (rep.samples, rep.violations) == (chunk + 3, violations)
    assert abs(rep.worst_violation - worst) < 1e-12
    # two chunks holding the states one draw at a time gives, in the same order
    assert [len(psi) for psi in drawn] == [chunk, 3]
    rng = np.random.default_rng(9)
    dim = SymmetricSpace(n_modes, m).dim
    one_by_one = [rng.standard_normal(dim) + 1j * rng.standard_normal(dim) for _ in range(chunk + 3)]
    expected = np.array([v / np.linalg.norm(v) for v in one_by_one])
    assert np.max(np.abs(np.concatenate(drawn) - expected)) < 1e-15


def test_reduced_density_matches_entrywise_loop():
    rng = np.random.default_rng(8)
    for n_modes, m, ell in SHAPES:
        if ell > m:
            continue
        space = SymmetricSpace(n_modes, m)
        mat = rng.standard_normal((space.dim, space.dim)) + 1j * rng.standard_normal((space.dim, space.dim))
        gap = np.max(np.abs(reduced_density(space, mat, ell) - reduced_density_loop(space, mat, ell)))
        assert gap < 1e-12, (n_modes, m, ell)
        # on a pure state: the Gram matrix of its annihilation strings, whose
        # weights leave out the scale ell! C(M+N-1, ell)
        psi = random_state(space, rng)
        pure = math.perm(m + n_modes - 1, ell) * fock._image_gram(psi, *fock._annihilation_gather(n_modes, m, ell))
        gap = np.max(np.abs(pure - reduced_density(space, np.outer(psi, psi.conj()), ell)))
        assert gap < 1e-12, (n_modes, m, ell)


def test_reduced_density_memory_stays_with_the_gather():
    # dim H(6, 9) = 2002 and 56 strings of 3 annihilations: a dense stack of
    # them would hold 56 x 462 x 2002 floats (414 MB)
    space = SymmetricSpace(6, 9)
    rho = np.eye(space.dim) / space.dim
    fock._annihilation_gather(6, 9, 3)
    tracemalloc.start()
    gamma = reduced_density(space, rho, 3)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert np.trace(gamma).real == pytest.approx(math.factorial(9) / math.factorial(6), rel=1e-12)
    assert np.max(np.abs(gamma - gamma.conj().T)) < 1e-12


def test_decomposition_memory_stays_with_the_gather():
    # dim H(6, 9) = 2002: a stack of the 20 states' psi psi^dag would hold
    # 20 x 2002^2 complex entries (1.28 GB), the dense isometry 5.5 GB
    decompose_measure_prepare(6, 9, 3)
    tracemalloc.start()
    res = decompose_measure_prepare(6, 9, 3, seed=1)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert peak < 32 * 2 ** 20
    assert res.residual < 1e-9


# the decompose shapes of the sun-majorize benchmark, and (4, 4, 4)
DECOMPOSE_SHAPES = [(n, m, k) for n in (2, 3) for m in (1, 2) for k in (1, 2)] + [(4, 4, 4)]


def test_stacked_decomposition_matches_per_state_loop(monkeypatch):
    default = fock._CHUNK_BYTES
    for n_modes, m, k in DECOMPOSE_SHAPES:
        src, _ = fock._cloning_gather(n_modes, m, k)
        # one chunk at the default size; chunks of 3 states cross boundaries
        for seed, chunk_bytes in ((0, default), (5, 3 * 16 * src.size)):
            monkeypatch.setattr(fock, "_CHUNK_BYTES", chunk_bytes)
            res = decompose_measure_prepare(n_modes, m, k, seed=seed)
            gap = np.max(np.abs(res.coefficients - decomposition_loop(n_modes, m, k, seed=seed)))
            assert gap < 1e-12, (n_modes, m, k, seed)
            assert res.residual <= 1e-9
