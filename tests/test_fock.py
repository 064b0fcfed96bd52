import math
from math import factorial, prod, sqrt

import numpy as np
import pytest

from spinwehrl.channels import projection_channel
from spinwehrl.errors import DecompositionError, ResourceGuardError
from spinwehrl.fock import (
    SymmetricSpace,
    annihilation_operator,
    apply_cloning,
    cloning_channel,
    cloning_kraus,
    cloning_normalization,
    coherent_condensate,
    decompose_measure_prepare,
    measure_prepare_channel,
    monomial_annihilation,
    reduced_density,
    sun_coherent_majorization_test,
    symmetric_embedding_isometry,
)
from spinwehrl.su2 import SpinLabel, random_pure


def random_state(space, rng):
    v = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return v / np.linalg.norm(v)


# Independent oracles: second-quantized constructions the library does not use.


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


@pytest.mark.parametrize("n_modes,m,k", [(2, 1, 1), (2, 2, 1), (2, 2, 2), (3, 2, 1), (3, 2, 2),
                                         (4, 3, 3), (3, 4, 4)])
def test_cloning_kraus_completeness(n_modes, m, k):
    kraus = cloning_kraus(n_modes, m, k)
    s = cloning_normalization(n_modes, m, k)
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
    for n_modes, m, k in [(2, 1, 1), (2, 2, 1), (3, 2, 2)]:
        space = SymmetricSpace(n_modes, m)
        for _ in range(3):
            psi = random_state(space, rng)
            a = measure_prepare_channel(space, psi, k)
            b = measure_prepare_second_quantized(space, psi, k)
            assert np.max(np.abs(a - b)) < 1e-11
            assert np.trace(a) == pytest.approx(1.0, abs=1e-11)


def test_decomposition_two_mode_single_boson():
    # [DERIVED] N=2, M=1, k=1: coefficients (1/3, 2/3)
    res = decompose_measure_prepare(2, 1, 1)
    assert np.allclose(res.coefficients, [1 / 3, 2 / 3], atol=1e-10)
    assert res.residual < 1e-9


@pytest.mark.parametrize("n_modes,m,k", [(2, 2, 1), (2, 2, 2), (3, 1, 1), (3, 2, 2)])
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


def test_decomposition_zero_terms_when_removal_exceeds_bosons():
    res = decompose_measure_prepare(2, 1, 2)
    assert res.coefficients[0] == 0.0  # would need to strip 2 bosons from 1


def test_majorization_report_no_violations():
    rep = sun_coherent_majorization_test(3, 2, 2, samples=50, seed=0)
    assert rep.samples == 50
    assert rep.violations == 0
    assert rep.worst_violation <= 1e-9
    assert np.trace(np.diag(rep.coherent_spectrum)) == pytest.approx(1.0, abs=1e-11)


def test_cloning_resource_guard():
    # output space H(6, 14) has dimension C(19,5) = 11628 > 10000; the guard
    # fires before any Kraus operator is built
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
