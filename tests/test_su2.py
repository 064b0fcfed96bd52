from math import comb, factorial, lgamma, log

import numpy as np
import pytest

from spinwehrl.su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    generators,
    log_binom_sqrt,
    log_factorials,
    random_density,
    random_pure,
    rotate,
    rotation_matrix,
    stretched_cg_table,
)

ALL_SPINS = [SpinLabel(t) for t in range(0, 13)]


# Reference Clebsch-Gordan coefficients: the general Racah sum, which the
# package does not use (its only couplings are the closed-form stretched ones).


def _lgf(twice_n: int) -> float:
    """log((twice_n/2)!) for an even, non-negative twice-value."""
    if twice_n < 0 or twice_n % 2:
        raise ValueError(f"invalid factorial argument twice-value {twice_n}")
    return lgamma(twice_n // 2 + 1)


def cg_twice(tl1: int, tm1: int, tl2: int, tm2: int, tL: int, tM: int) -> float:
    """Clebsch-Gordan coefficient with all arguments as twice-values.

    The general route, and the oracle of the stretched table: Racah's
    single-sum formula in log space, accurate up to twice_l of a few hundred.
    """
    if tm1 + tm2 != tM:
        return 0.0
    if abs(tm1) > tl1 or abs(tm2) > tl2 or abs(tM) > tL:
        return 0.0
    if not (abs(tl1 - tl2) <= tL <= tl1 + tl2) or (tl1 + tl2 + tL) % 2:
        return 0.0
    pref = 0.5 * (
        log(tL + 1.0)
        + _lgf(tl1 + tl2 - tL) + _lgf(tl1 - tl2 + tL) + _lgf(-tl1 + tl2 + tL)
        - _lgf(tl1 + tl2 + tL + 2)
        + _lgf(tL + tM) + _lgf(tL - tM)
        + _lgf(tl1 - tm1) + _lgf(tl1 + tm1)
        + _lgf(tl2 - tm2) + _lgf(tl2 + tm2)
    )
    kmin = max(0, -(tL - tl2 + tm1) // 2, -(tL - tl1 - tm2) // 2)
    kmax = min((tl1 + tl2 - tL) // 2, (tl1 - tm1) // 2, (tl2 + tm2) // 2)
    total = 0.0
    for k in range(kmin, kmax + 1):
        ln_den = (
            _lgf(2 * k)
            + _lgf(tl1 + tl2 - tL - 2 * k)
            + _lgf(tl1 - tm1 - 2 * k)
            + _lgf(tl2 + tm2 - 2 * k)
            + _lgf(tL - tl2 + tm1 + 2 * k)
            + _lgf(tL - tl1 - tm2 + 2 * k)
        )
        total += (-1.0) ** k * np.exp(pref - ln_den)
    return float(total)


def _as_twice_m(m, name: str) -> int:
    twice = 2 * m
    if abs(twice - round(twice)) > 1e-9:
        raise ValueError(f"{name}={m} is not a half-integer")
    return int(round(twice))


def clebsch_gordan(l1: SpinLabel, l2: SpinLabel, L: SpinLabel, m1, m2, M) -> float:
    """<l1 m1; l2 m2 | L M> in the Condon-Shortley convention.

    Raises ValueError when the triangle condition or the magnetic ranges are
    violated; returns 0 when m1 + m2 != M.
    """
    tm1, tm2, tM = _as_twice_m(m1, "m1"), _as_twice_m(m2, "m2"), _as_twice_m(M, "M")
    if not (abs(l1.twice_l - l2.twice_l) <= L.twice_l <= l1.twice_l + l2.twice_l):
        raise ValueError(f"triangle condition violated for (l1,l2,L)=({l1.l},{l2.l},{L.l})")
    if (l1.twice_l + l2.twice_l + L.twice_l) % 2:
        raise ValueError("l1 + l2 + L must be an integer")
    if abs(tm1) > l1.twice_l or abs(tm2) > l2.twice_l or abs(tM) > L.twice_l:
        raise ValueError("magnetic quantum number out of range")
    if (l1.twice_l + tm1) % 2 or (l2.twice_l + tm2) % 2 or (L.twice_l + tM) % 2:
        raise ValueError("m must differ from l by an integer")
    return cg_twice(l1.twice_l, tm1, l2.twice_l, tm2, L.twice_l, tM)


def comm(a, b):
    return a @ b - b @ a


def test_spin_label_basics():
    l = SpinLabel(3)
    assert l.l == 1.5
    assert l.dim == 4
    assert np.allclose(l.m_values(), [1.5, 0.5, -0.5, -1.5])
    with pytest.raises(ValueError):
        SpinLabel(-1)
    assert SpinLabel.from_l(0.5).twice_l == 1


def test_lz_spin_half():
    Lz, *_ = generators(SpinLabel(1))
    assert np.allclose(Lz, np.diag([0.5, -0.5]))


@pytest.mark.parametrize("spin", ALL_SPINS)
def test_algebra_relations(spin):
    Lz, Lp, Lm, L1, L2, L3 = generators(spin)
    assert np.max(np.abs(comm(Lp, Lm) - 2 * Lz)) < 1e-13
    assert np.max(np.abs(comm(Lz, Lp) - Lp)) < 1e-13
    assert np.max(np.abs(comm(L1, L2) - 1j * L3)) < 1e-13
    casimir = L1 @ L1 + L2 @ L2 + L3 @ L3
    l = spin.l
    assert np.max(np.abs(casimir - l * (l + 1) * np.eye(spin.dim))) < 1e-12


def test_cg_stretch_is_one():
    half = SpinLabel(1)
    one = SpinLabel(2)
    assert clebsch_gordan(half, half, one, 0.5, 0.5, 1.0) == pytest.approx(1.0)


def test_cg_singlet_against_brute_force():
    # independent oracle: diagonalize total L^2 and Lz on the 2 (x) 2 product
    half = SpinLabel(1)
    Lz, _, _, L1, L2, L3 = generators(half)
    eye = np.eye(2)
    tot = [np.kron(g, eye) + np.kron(eye, g) for g in (L1, L2, L3)]
    casimir = sum(t @ t for t in tot)
    vals, vecs = np.linalg.eigh(casimir)
    singlet = vecs[:, np.argmin(vals)]  # L(L+1) = 0
    # basis order (m1, m2) descending: (++, +-, -+, --)
    coeff = abs(singlet[1])  # |<1/2,-1/2| component|
    got = clebsch_gordan(half, half, SpinLabel(0), 0.5, -0.5, 0.0)
    assert abs(abs(got) - coeff) < 1e-12
    assert got == pytest.approx(1 / np.sqrt(2))


def test_cg_selection_rule_and_errors():
    half = SpinLabel(1)
    one = SpinLabel(2)
    assert clebsch_gordan(half, half, one, 0.5, -0.5, 1.0) == 0.0
    with pytest.raises(ValueError):
        clebsch_gordan(half, half, SpinLabel(4), 0.5, 0.5, 1.0)
    with pytest.raises(ValueError):
        clebsch_gordan(half, half, one, 1.5, -0.5, 1.0)


@pytest.mark.parametrize("tl1,tl2", [(1, 1), (2, 1), (2, 2), (3, 2), (4, 3)])
def test_cg_coupling_unitarity(tl1, tl2):
    # columns over all (L, M) form an orthonormal basis of the product space
    d1, d2 = tl1 + 1, tl2 + 1
    cols = []
    for tL in range(abs(tl1 - tl2), tl1 + tl2 + 1, 2):
        for tM in range(tL, -tL - 1, -2):
            v = np.zeros(d1 * d2)
            for i1, tm1 in enumerate(range(tl1, -tl1 - 1, -2)):
                tm2 = tM - tm1
                if abs(tm2) <= tl2:
                    v[i1 * d2 + (tl2 - tm2) // 2] = cg_twice(tl1, tm1, tl2, tm2, tL, tM)
            cols.append(v)
    u = np.column_stack(cols)
    assert np.max(np.abs(u.T @ u - np.eye(d1 * d2))) < 1e-12


def test_cg_against_sympy():
    sympy = pytest.importorskip("sympy")
    from sympy import Rational
    from sympy.physics.wigner import clebsch_gordan as sym_cg

    rng = np.random.default_rng(0)
    for _ in range(50):
        tl1, tl2 = rng.integers(0, 7, size=2)
        choices = range(abs(tl1 - tl2), tl1 + tl2 + 1, 2)
        tL = int(rng.choice(list(choices)))
        tm1 = int(rng.choice(list(range(-tl1, tl1 + 1, 2)))) if tl1 else 0
        tm2 = int(rng.choice(list(range(-tl2, tl2 + 1, 2)))) if tl2 else 0
        if abs(tm1 + tm2) > tL:
            continue
        expected = float(sym_cg(Rational(tl1, 2), Rational(tl2, 2), Rational(tL, 2),
                                Rational(tm1, 2), Rational(tm2, 2), Rational(tm1 + tm2, 2)))
        assert cg_twice(int(tl1), tm1, int(tl2), tm2, tL, tm1 + tm2) == pytest.approx(expected, abs=1e-13)


def racah_coupling_isometry(tl, tj):
    """Reference coupling isometry [l+j] -> [l] (x) [j], entry by entry from
    the general Racah sum."""
    tL = tl + tj
    V = np.zeros(((tl + 1) * (tj + 1), tL + 1))
    for col, tM in enumerate(range(tL, -tL - 1, -2)):
        for i1, tm1 in enumerate(range(tl, -tl - 1, -2)):
            tm2 = tM - tm1
            if abs(tm2) <= tj:
                V[i1 * (tj + 1) + (tj - tm2) // 2, col] = cg_twice(tl, tm1, tj, tm2, tL, tM)
    return V


def coupling_isometry(l, j):
    """Isometry [l+j] -> [l] (x) [j] whose columns are the |l+j, M> states,
    shape (d_l * d_j, 2(l+j)+1): product row i_l * d_j + i_j, both factors
    m-descending, holds the stretched table entry T[i_l, i_j] in column
    i_l + i_j. The dense oracle of the projection channel in the tests."""
    T = stretched_cg_table(l, j)
    a, b = np.indices(T.shape)
    V = np.zeros((T.size, l.twice_l + j.twice_l + 1))
    V[np.arange(T.size), (a + b).ravel()] = T.ravel()
    return V


def symmetric_projector(l, j):
    """Orthogonal projector onto the highest-spin component [l+j] of [l] (x) [j]."""
    V = coupling_isometry(l, j)
    return V @ V.T


@pytest.mark.parametrize("tj", [*range(17), 40, 100, 200])
def test_stretched_table_and_isometry_match_racah(tj):
    j = SpinLabel(tj)
    for tl in range(17):
        l = SpinLabel(tl)
        ref = racah_coupling_isometry(tl, tj)
        assert np.max(np.abs(coupling_isometry(l, j) - ref)) < 1e-12
        a, b = np.indices((l.dim, j.dim))
        table = ref[a * j.dim + b, a + b]  # <l m_a; j M_b | l+j, m_a+M_b>
        assert np.max(np.abs(stretched_cg_table(l, j) - table)) < 1e-12


@pytest.mark.parametrize("tl,tj", [(1, 1), (2, 1), (3, 2), (4, 4)])
def test_symmetric_projector_properties(tl, tj):
    P = symmetric_projector(SpinLabel(tl), SpinLabel(tj))
    assert np.max(np.abs(P @ P - P)) < 1e-12
    assert np.max(np.abs(P - P.conj().T)) < 1e-12
    assert np.trace(P) == pytest.approx(tl + tj + 1, abs=1e-10)


def test_projector_triplet_partial_trace():
    # independent oracle: P_1 = identity - singlet projector on 2 (x) 2
    half = SpinLabel(1)
    singlet = np.zeros((4, 4))
    v = np.array([0, 1, -1, 0]) / np.sqrt(2)
    singlet = np.outer(v, v)
    expected = np.eye(4) - singlet
    P = symmetric_projector(half, half)
    assert np.max(np.abs(P - expected)) < 1e-12
    partial = P.reshape(2, 2, 2, 2).trace(axis1=1, axis2=3)
    assert np.max(np.abs(partial - 1.5 * np.eye(2))) < 1e-12


def test_projector_rotation_covariance():
    rng = np.random.default_rng(1)
    l, j = SpinLabel(2), SpinLabel(1)
    P = symmetric_projector(l, j)
    for _ in range(5):
        d = SphereDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        U = np.kron(rotation_matrix(l, d), rotation_matrix(j, d))
        assert np.max(np.abs(U @ P @ U.conj().T - P)) < 1e-11


def test_rotate_identity_at_north_pole():
    psi = random_pure(SpinLabel(3), np.random.default_rng(2))
    out = rotate(psi, SphereDirection(0.0, 0.0))
    assert np.allclose(out.amplitudes, psi.amplitudes, atol=1e-12)


def test_rotate_preserves_density_spectrum():
    rng = np.random.default_rng(3)
    rho = random_density(SpinLabel(4), rng)
    out = rotate(rho, SphereDirection(1.1, 2.2))
    a = np.sort(np.linalg.eigvalsh(rho.matrix))
    b = np.sort(np.linalg.eigvalsh(out.matrix))
    assert np.max(np.abs(a - b)) < 1e-12


def test_state_validation():
    with pytest.raises(ValueError):
        PureState(SpinLabel(1), [1.0, 1.0])
    with pytest.raises(ValueError):
        DensityMatrix(SpinLabel(1), np.array([[0.5, 0.1j], [0.2j, 0.5]]))
    with pytest.raises(ValueError):
        DensityMatrix(SpinLabel(1), np.eye(2))


def test_state_validation_rejects_non_finite_input():
    # NaN passed both branches: the norm check compares abs(nan - 1) > 1e-12
    for normalize in (True, False):
        with pytest.raises(ValueError, match="not finite"):
            PureState(SpinLabel(1), [np.nan, 1.0], normalize=normalize)
    with pytest.raises(ValueError, match="not finite"):
        PureState(SpinLabel(1), [np.inf, 1.0], normalize=True)
    with pytest.raises(ValueError, match="non-finite"):
        DensityMatrix(SpinLabel(1), np.array([[np.nan, 0.0], [0.0, 1.0]]))


def test_log_factorials_table():
    small = log_factorials(10)
    table = log_factorials(3000)
    assert len(table) > 3000 and np.array_equal(table[:len(small)], small)
    exact = np.array([log(factorial(i)) for i in range(171)])  # 170! is the last float
    assert np.all(np.abs(table[:171] - exact) <= 3 * np.spacing(exact))
    with pytest.raises(ValueError):
        table[5] = 0.0


@pytest.mark.parametrize("twice_l", [0, 1, 2, 4, 17, 100, 1001, 4000])
def test_log_binom_sqrt_matches_exact_binomials(twice_l):
    # differences of the ln i! table, within 2 ulps of ln (2l)! of the
    # logarithm of exact integer binomials
    exact = np.array([0.5 * log(comb(twice_l, k)) for k in range(twice_l, -1, -1)])
    assert np.all(np.abs(log_binom_sqrt(twice_l) - exact) <= 2 * np.spacing(log(factorial(twice_l))))


def test_sphere_direction_normalization():
    d = SphereDirection(0.3, 7.0)
    assert 0 <= d.phi < 2 * np.pi
    with pytest.raises(ValueError):
        SphereDirection(4.0, 0.0)
    assert SphereDirection(np.pi / 3, 0.0).antipode().theta == pytest.approx(2 * np.pi / 3)
