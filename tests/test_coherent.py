from math import pi

import numpy as np
import pytest
from scipy.optimize import minimize

from spinwehrl import coherent
from spinwehrl.coherent import (
    _amplitudes,
    closest_coherent,
    coherent_state,
    completeness_defect,
    husimi,
    husimi_zeros,
    overlap_sq,
    state_from_roots,
    stellar_roots,
)
from spinwehrl.errors import QuadratureOrderError
from spinwehrl.majorize import minimize_entropy
from spinwehrl.quadrature import QuadratureSpec, sphere_nodes
from spinwehrl.su2 import DensityMatrix, PureState, SphereDirection, SpinLabel, geodesic_angle, random_pure, rotate


def test_north_pole_is_highest_weight():
    for tl in range(1, 9):
        psi = coherent_state(SpinLabel(tl), SphereDirection(0.0, 0.0))
        expected = np.zeros(tl + 1)
        expected[0] = 1.0
        assert np.allclose(psi.amplitudes, expected, atol=1e-14)


def test_south_pole_is_lowest_weight():
    psi = coherent_state(SpinLabel(4), SphereDirection(np.pi, 0.0))
    expected = np.zeros(5)
    expected[-1] = 1.0
    assert np.allclose(np.abs(psi.amplitudes), expected, atol=1e-14)


def test_spin_half_explicit_amplitudes():
    # [TRIVIAL] for l = 1/2: (cos(theta/2) e^{-i phi/2}, sin(theta/2) e^{+i phi/2})
    th, ph = 0.7, 1.9
    psi = coherent_state(SpinLabel(1), SphereDirection(th, ph))
    assert psi.amplitudes[0] == pytest.approx(np.cos(th / 2) * np.exp(-1j * ph / 2))
    assert psi.amplitudes[1] == pytest.approx(np.sin(th / 2) * np.exp(1j * ph / 2))


def test_coherent_matches_rotated_highest_weight():
    # dual route: rotate |l,l> by R(Omega) and compare up to overall phase
    rng = np.random.default_rng(0)
    for tl in (1, 2, 5):
        spin = SpinLabel(tl)
        top = np.zeros(spin.dim)
        top[0] = 1.0
        for _ in range(4):
            d = SphereDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            a = coherent_state(spin, d).amplitudes
            b = rotate(PureState(spin, top), d).amplitudes
            assert abs(abs(np.vdot(a, b)) - 1.0) < 1e-12


def test_overlap_sq_formula():
    rng = np.random.default_rng(1)
    for tl in (1, 3, 6):
        spin = SpinLabel(tl)
        for _ in range(5):
            d1 = SphereDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            d2 = SphereDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
            direct = abs(np.vdot(coherent_state(spin, d1).amplitudes,
                                 coherent_state(spin, d2).amplitudes)) ** 2
            assert overlap_sq(spin, d1, d2) == pytest.approx(direct, abs=1e-12)


@pytest.mark.parametrize("tl", [1, 2, 4, 8])
def test_completeness_defect(tl):
    spec = QuadratureSpec(2 * tl + 4, 4 * tl + 4)
    assert completeness_defect(SpinLabel(tl), spec) < 1e-12


def test_completeness_quadrature_guard():
    with pytest.raises(QuadratureOrderError):
        completeness_defect(SpinLabel(8), QuadratureSpec(4, 4))


def test_husimi_normalization_and_range():
    rng = np.random.default_rng(2)
    spin = SpinLabel(5)
    psi = random_pure(spin, rng)
    rho = DensityMatrix(spin, np.outer(psi.amplitudes, psi.amplitudes.conj()))
    thetas, phis, wt, wp = sphere_nodes(QuadratureSpec(16, 24))
    total = 0.0
    for t, w1 in zip(thetas, wt):
        for p in phis:
            q = husimi(rho, SphereDirection(t, p))
            assert 0.0 <= q <= 1.0
            total += spin.dim * q * w1 * wp
    assert total == pytest.approx(1.0, abs=1e-10)


def test_stellar_roots_roundtrip():
    rng = np.random.default_rng(3)
    for tl in (2, 3, 6):
        spin = SpinLabel(tl)
        for _ in range(5):
            psi = random_pure(spin, rng)
            roots = stellar_roots(psi)
            assert len(roots.roots) == tl
            back = state_from_roots(roots)
            assert abs(abs(np.vdot(psi.amplitudes, back.amplitudes)) - 1.0) < 1e-9


def test_stellar_roots_of_coherent_state_coincide():
    # all zeros of a coherent state coincide at its own direction; a root of
    # multiplicity 2l is only resolvable to about eps^(1/2l)
    d = SphereDirection(1.0, 0.5)
    psi = coherent_state(SpinLabel(4), d)
    for r in stellar_roots(psi).roots:
        assert geodesic_angle(r, d) < 1e-3


def test_stellar_roots_lowest_weight_all_south():
    spin = SpinLabel(3)
    v = np.zeros(4)
    v[-1] = 1.0
    for r in stellar_roots(PureState(spin, v)).roots:
        assert r.theta == pytest.approx(np.pi)


def test_husimi_vanishes_at_its_zeros():
    # degree-deficient rows (pole roots) share the batch with full-degree ones
    rng = np.random.default_rng(12)
    spin = SpinLabel(5)
    states = [random_pure(spin, rng) for _ in range(3)] + [PureState(spin, row) for row in np.eye(6)]
    zeros = husimi_zeros(spin, np.array([s.amplitudes for s in states]))
    assert zeros.shape == (len(states), 5, 3)
    assert np.allclose(np.linalg.norm(zeros, axis=-1), 1.0, atol=1e-14)
    for psi, vecs in zip(states, zeros):
        for x, y, z in vecs:
            d = SphereDirection(np.arccos(np.clip(z, -1, 1)), np.arctan2(y, x))
            assert husimi(psi.density(), d) < 1e-12


def test_closest_coherent_recovers_direction():
    d = SphereDirection(2.0, 4.0)
    psi = coherent_state(SpinLabel(6), d)
    found, fid = closest_coherent(psi)
    assert fid == pytest.approx(1.0, abs=1e-10)
    assert geodesic_angle(found, d) < 1e-4


def nelder_mead_closest_coherent(psi):
    """Reference maximizer: the 32x64 grid maximum refined by a 2-D simplex on
    the overlap, in (theta, phi) of the original frame."""
    l = psi.spin
    thetas = np.arccos(np.linspace(1, -1, 32))
    phis = 2 * pi * np.arange(64) / 64
    V = _amplitudes(l, thetas, phis).reshape(-1, l.dim)
    i = int(np.argmax(np.abs(V.conj() @ psi.amplitudes) ** 2))

    def neg(x):
        a = _amplitudes(l, np.array([x[0]]), np.array([x[1]]))[0, 0]
        return -abs(np.vdot(a, psi.amplitudes)) ** 2

    res = minimize(neg, [thetas[i // 64], phis[i % 64]], method="Nelder-Mead",
                   options={"xatol": 1e-10, "fatol": 1e-14, "maxiter": 400})
    return -res.fun


@pytest.mark.parametrize("tl", [0, 1, 2, 3, 8, 16])
def test_closest_coherent_matches_simplex_oracle(tl):
    # Haar states, coherent states at both poles and in between, and
    # single-start Wehrl minimizers, whose Husimi zeros cluster
    rng = np.random.default_rng(40 + tl)
    spin = SpinLabel(tl)
    directions = [SphereDirection(0.0, 0.0), SphereDirection(np.pi, 0.3),
                  SphereDirection(1.0, 2.0), SphereDirection(2.9, 5.0)]
    winners = [minimize_entropy(spin, "wehrl", restarts=1, seed=s).best_state
               for s in range({8: 5, 16: 2}.get(tl, 0))]
    states = [random_pure(spin, rng) for _ in range(10)] + [coherent_state(spin, d) for d in directions] + winners
    for psi in states:
        found, fid = closest_coherent(psi)
        assert fid >= nelder_mead_closest_coherent(psi) - 1e-14
        assert fid == pytest.approx(abs(np.vdot(coherent_state(spin, found).amplitudes,
                                                psi.amplitudes)) ** 2, abs=1e-14)
    for d, psi in zip(directions, states[10:]):
        found, fid = closest_coherent(psi)
        assert fid == pytest.approx(1.0, abs=1e-12)
        # at spin 0 every direction is the one coherent state
        assert tl == 0 or geodesic_angle(found, d) < 1e-6


@pytest.mark.parametrize("tl, gate", [(90, 1e-14), (120, 1e-14), (400, 1e-12)], ids=["90", "120", "400"])
def test_closest_coherent_is_polished_on_the_amplitudes(tl, gate):
    # from twice_l ~ 90 the Husimi zeros' eigensolve error moves the maximum
    # of sum ln(1 - n.z_i): Newton steps on it alone left these Haar states
    # 5.6e-7 (twice_l = 90) and a coherent state 1.3e-13 (twice_l = 120)
    # below the simplex polish; started from its grid maximum, the Newton
    # steps on the overlap ended 2.7e-3 to 1.9e-2 below it on 7 of these 8
    # Haar states at twice_l = 400, where the overlap's rounding is larger
    rng = np.random.default_rng(50 + tl)
    spin = SpinLabel(tl)
    directions = [SphereDirection(0.0, 0.0), SphereDirection(np.pi, 0.3), SphereDirection(1.0, 2.0)]
    states = [random_pure(spin, rng) for _ in range(8)] + [coherent_state(spin, d) for d in directions]
    for psi in states:
        found, fid = closest_coherent(psi)
        assert fid >= nelder_mead_closest_coherent(psi) - gate
    for d, psi in zip(directions, states[8:]):
        found, fid = closest_coherent(psi)
        assert fid == pytest.approx(1.0, abs=1e-12)
        assert geodesic_angle(found, d) < 1e-6


def test_closest_coherent_starts_on_the_highest_peak_at_large_spin():
    # the overlap's peaks narrow as 1/sqrt(2l): from the 32 x 64 grid, 5 of
    # these 16 Haar states at twice_l = 400 ended on a lower peak, 1.9e-4 to
    # 4.9e-3 below the maximum of |<n|psi>|^2 on a 128 x 256 grid; the start
    # grid now narrows with the peaks
    spin = SpinLabel(400)
    radial = _amplitudes(spin, np.arccos(np.linspace(1, -1, 128)), np.zeros(1))[:, 0]  # (128, d)
    phase = np.exp(-1j * np.outer(2 * pi * np.arange(256) / 256, np.arange(200, -201, -1)))  # (256, d)
    for seed in (440, 450):
        rng = np.random.default_rng(seed)
        for psi in [random_pure(spin, rng) for _ in range(8)]:
            fine = np.max(np.abs((radial * psi.amplitudes.conj()) @ phase.T) ** 2)
            _, fid = closest_coherent(psi)
            assert fid >= fine - 1e-12, (seed, fine - fid)


def test_coherent_state_past_the_float_range_is_refused():
    # sqrt C(2100, 1050) overflows in the radial amplitudes; the state used to
    # come back with every amplitude NaN
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError, match="not finite"):
        coherent_state(SpinLabel(2100), SphereDirection(1.0, 0.5))


def chart_oracle(z):
    """The Majorana roots z to the antipodal unit vectors, through u = 1/z
    outside the unit disc (so z = inf is u = 0), one np.where per branch."""
    outside = np.abs(z) > 1
    u = np.where(outside, 1 / np.where(outside, z, 1), z)
    s = np.abs(u) ** 2
    xy = 2 * np.where(outside, u.conj(), u) / (1 + s)
    height = np.where(outside, s - 1, 1 - s) / (1 + s)
    return -np.stack([xy.real, xy.imag, height], axis=-1)


def amplitudes_of_polynomial(tl, asc):
    """Amplitudes, m descending, whose Majorana polynomial has the ascending
    coefficients `asc`."""
    return (np.asarray(asc, dtype=complex) / coherent._majorana_weights(tl))[::-1]


@pytest.mark.parametrize("tl", [1, 2, 3, 6])
def test_husimi_zeros_match_the_chart_oracle(tl):
    # Dicke states put their roots at z = 0 and z = inf; z^2l = e^(i a) puts
    # them on |z| = 1; Haar states have roots inside and outside the disc
    l = SpinLabel(tl)
    rng = np.random.default_rng(60 + tl)
    on_circle = [amplitudes_of_polynomial(tl, [-np.exp(1j * a)] + [0] * (tl - 1) + [1]) for a in (0.0, 0.3)]
    haar = [random_pure(l, rng).amplitudes for _ in range(6)]
    amps = np.array([*np.eye(l.dim, dtype=complex), *on_circle, *haar])
    z = coherent._majorana_roots(*coherent._majorana_coefficients(l, amps))
    assert np.isinf(z).any() and (z == 0).any() and (np.abs(np.abs(z) - 1) < 1e-12).any()
    assert ((np.abs(z) > 1) & np.isfinite(z)).any()
    assert np.max(np.abs(husimi_zeros(l, amps) - chart_oracle(z))) <= 1e-15
