import tracemalloc
from math import comb, log

import numpy as np
import pytest
from scipy.special import xlogy

from spinwehrl import entropy
from spinwehrl.coherent import StellarRoots, amplitude_grid, coherent_state, radial_table, state_from_roots
from spinwehrl.entropy import (
    chordal_data,
    clamp_eigenvalues,
    povm_entropy,
    renyi_wehrl_moment,
    renyi_wehrl_projector,
    von_neumann,
    wehrl,
    wehrl_closed,
    wehrl_pure,
    wehrl_pure_batch,
)
from spinwehrl.errors import ConvergenceError, QuadratureOrderError, ResourceGuardError
from spinwehrl.quadrature import QuadratureSpec
from spinwehrl.su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    random_density,
    random_pure,
)

from test_su2 import coupling_isometry


def random_direction(rng):
    return SphereDirection(np.arccos(rng.uniform(-1, 1)), rng.uniform(0, 2 * np.pi))


def pure_density(psi):
    return DensityMatrix(psi.spin, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def test_von_neumann_basics():
    spin = SpinLabel(2)
    assert von_neumann(DensityMatrix.maximally_mixed(spin)) == pytest.approx(np.log(3))
    psi = random_pure(spin, np.random.default_rng(0))
    assert von_neumann(pure_density(psi)) == pytest.approx(0.0, abs=1e-12)


def test_clamp_eigenvalues_window():
    # the one PSD clamp rule: descending, noise in [-1e-12, 0) set to 0
    assert clamp_eigenvalues([0.25, -5e-13, 0.75, 0.0]).tolist() == [0.75, 0.25, 0.0, 0.0]
    assert clamp_eigenvalues([]).size == 0
    with pytest.raises(ValueError, match="clamp window"):
        clamp_eigenvalues([1.0, -2e-12])


def test_povm_entropy_matches_direct_sum():
    spin = SpinLabel(3)
    rho = DensityMatrix(spin, np.diag([0.5, 0.25, 0.25, 0.0]))
    effects = [np.diag(row) for row in np.eye(4)]
    assert povm_entropy(rho, effects) == pytest.approx(1.5 * np.log(2))
    with pytest.raises(ValueError):
        povm_entropy(rho, effects[:-1])


@pytest.mark.parametrize("tl", range(1, 13))
def test_coherent_wehrl_value(tl):
    # [DERIVED] closed value 2l/(2l+1) for the phase-space entropy of a
    # coherent state, whose 2l Husimi zeros all coincide at the antipode
    rng = np.random.default_rng(tl)
    directions = [SphereDirection(0.9, 2.1)] + [random_direction(rng) for _ in range(3)]
    for d in directions:
        value = wehrl_pure(coherent_state(SpinLabel(tl), d))
        assert value == pytest.approx(tl / (tl + 1.0), abs=1e-12)


# a spin-1/2 state is always coherent, so its Wehrl entropy is exactly 1/2
EARLY_STOP_STATE = PureState(SpinLabel(1), [0.51100739 - 0.59894687j, 0.40017202 + 0.46903779j],
                             normalize=True)


@pytest.mark.xfail(strict=True, reason="adaptive quadrature stops on two coarse levels "
                   "(32x64, 64x128) that agree by chance, 1.22e-8 above the exact value")
def test_coherent_wehrl_early_stop_spin_half():
    assert wehrl(EARLY_STOP_STATE.density()) == pytest.approx(0.5, abs=1e-8)


def test_coherent_wehrl_exact_spin_half():
    # the exact pure-state route has no stopping rule to fool
    assert wehrl_pure(EARLY_STOP_STATE) == pytest.approx(0.5, abs=1e-12)


# 1e-9 is as tight as the quadrature gets at twice_l = 8 within MAX_GRID_BYTES;
# it converges like N^-4, so its last level is well inside 1e-9 of the limit
ORACLE_SPEC = QuadratureSpec(32, 64, 1e-9)


def quadrature_oracle(psi):
    return wehrl(psi.density(), ORACLE_SPEC)


@pytest.mark.parametrize("tl", range(1, 9))
def test_exact_wehrl_haar_against_quadrature(tl):
    rng = np.random.default_rng(100 + tl)
    spin = SpinLabel(tl)
    states = [random_pure(spin, rng) for _ in range(2)]
    exact = wehrl_pure_batch(spin, np.array([s.amplitudes for s in states]))
    for psi, value in zip(states, exact):
        assert value == pytest.approx(quadrature_oracle(psi), abs=1e-9)


@pytest.mark.parametrize("gap", [1e-2, 1e-4, 1e-6, 1e-8])
@pytest.mark.parametrize("cluster", [2, 3])
def test_exact_wehrl_close_roots_against_quadrature(gap, cluster):
    rng = np.random.default_rng(int(-np.log10(gap)) + 10 * cluster)
    spin = SpinLabel(4)
    centre = SphereDirection(rng.uniform(0.5, 2.5), rng.uniform(0, 2 * np.pi))
    roots = [SphereDirection(centre.theta + gap * k, centre.phi) for k in range(cluster)]
    roots += [random_direction(rng) for _ in range(spin.twice_l - cluster)]
    psi = state_from_roots(StellarRoots(spin, tuple(roots)))
    assert wehrl_pure(psi) == pytest.approx(quadrature_oracle(psi), abs=1e-9)


def basis_state_wehrl(tl, k):
    """[DERIVED] |l, m> with l+m = k: f = C(2l, k) u^k (1-u)^(2l-k) in
    u = cos^2(theta/2), uniform on [0, 1], so S_W = -ln C(2l, k)
    + k (H_(2l+1) - H_k) + (2l-k) (H_(2l+1) - H_(2l-k))."""
    def h(n):
        return sum(1.0 / i for i in range(1, n + 1))

    return -log(comb(tl, k)) + k * (h(tl + 1) - h(k)) + (tl - k) * (h(tl + 1) - h(tl - k))


def test_exact_wehrl_basis_states():
    # pole roots and vanishing leading coefficients, all degrees in one batch
    for tl in range(1, 9):
        spin = SpinLabel(tl)
        values = wehrl_pure_batch(spin, np.eye(spin.dim, dtype=complex))
        expected = [basis_state_wehrl(tl, k) for k in range(tl, -1, -1)]  # m descending
        assert np.max(np.abs(values - expected)) < 1e-12


def test_exact_wehrl_spin_zero():
    assert wehrl_pure(PureState(SpinLabel(0), [1.0])) == 0.0


def test_exact_wehrl_fallback_is_the_quadrature(monkeypatch):
    rng = np.random.default_rng(22)
    spin = SpinLabel(3)
    states = [random_pure(spin, rng) for _ in range(3)]
    monkeypatch.setattr(entropy, "EXACT_RESIDUAL_TOL", 0.0)
    values = wehrl_pure_batch(spin, np.array([s.amplitudes for s in states]), ORACLE_SPEC)
    assert list(values) == [quadrature_oracle(s) for s in states]


def test_gradient_fallback_keeps_the_root_gradient(monkeypatch):
    rng = np.random.default_rng(23)
    spin = SpinLabel(3)
    v = 2.0 * random_pure(spin, rng).amplitudes  # the gradient takes any norm
    value, grad = entropy.wehrl_pure_gradient(spin, v)
    monkeypatch.setattr(entropy, "EXACT_RESIDUAL_TOL", 0.0)
    fallback, same = entropy.wehrl_pure_gradient(spin, v)
    assert np.array_equal(same, grad)
    assert fallback == wehrl(PureState(spin, v, normalize=True).density())
    assert fallback == pytest.approx(value, abs=1e-9)


def test_wehrl_byte_guard_fires_before_allocation(monkeypatch):
    # rank 1: a full-rank Ginibre state has a Husimi function bounded away
    # from 0, whose levels agree exactly once rounding dominates. A 16 MiB
    # guard stops the doubling before 1024 x 2048 here, far below MAX_N_THETA
    rng = np.random.default_rng(23)
    spin = SpinLabel(8)
    rho = random_density(spin, rng, rank=1)
    requested = []
    rings = entropy._husimi_rings

    def recording_rings(rho, spec):
        requested.append(spec)
        return rings(rho, spec)

    monkeypatch.setattr(entropy, "MAX_GRID_BYTES", 2 ** 24)
    monkeypatch.setattr(entropy, "_husimi_rings", recording_rings)
    with pytest.raises(ConvergenceError) as err:
        wehrl(rho, QuadratureSpec(32, 64, 1e-300))
    largest = max(entropy._level_bytes(spin, s) for s in requested)
    assert largest <= entropy.MAX_GRID_BYTES < 4 * largest
    assert requested[-1].doubled().n_theta <= entropy.MAX_N_THETA
    assert err.value.last_spec == requested[-1]
    assert np.isfinite(err.value.last_difference)


def test_wehrl_batch_chunks_within_the_byte_guard(monkeypatch):
    rng = np.random.default_rng(24)
    spin = SpinLabel(8)
    amps = np.array([random_pure(spin, rng).amplitudes for _ in range(16)])
    rows = []
    exact = entropy._exact_wehrl

    def recording_exact(l, amplitudes):
        rows.append(len(amplitudes))
        return exact(l, amplitudes)

    monkeypatch.setattr(entropy, "_exact_wehrl", recording_exact)
    whole = wehrl_pure_batch(spin, amps)
    assert rows == [16]  # the benchmark's largest batch stays one chunk
    grid, row = entropy._exact_bytes(spin)
    monkeypatch.setattr(entropy, "MAX_GRID_BYTES", grid + 5 * row)
    rows.clear()
    assert np.max(np.abs(wehrl_pure_batch(spin, amps) - whole)) < 1e-14
    assert rows == [5, 5, 5, 1]
    monkeypatch.setattr(entropy, "MAX_GRID_BYTES", grid + row - 1)
    with pytest.raises(ResourceGuardError):
        wehrl_pure_batch(spin, amps)


@pytest.mark.parametrize("tl,rows", [(4, 1), (8, 16), (16, 64), (32, 16)])
def test_exact_wehrl_peak_within_guard_estimate(tl, rows):
    # the bytes the guard checks bound the traced peak of a cold call: the
    # exact grid's build and every row's temporaries
    rng = np.random.default_rng(25)
    spin = SpinLabel(tl)
    amps = np.array([random_pure(spin, rng).amplitudes for _ in range(rows)])
    wehrl_pure_batch(SpinLabel(3), amps[:1, :4])  # first-call set-up outside the measurement
    entropy._exact_grid.cache_clear()
    tracemalloc.start()
    try:
        wehrl_pure_batch(spin, amps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    grid, row = entropy._exact_bytes(spin)
    assert peak <= grid + rows * row, peak / (grid + rows * row)


def test_exact_wehrl_fallback_runs_after_the_chunk_is_released(monkeypatch):
    # every row takes the quadrature, whose levels each have their own
    # budget: the chunk's per-row arrays are gone before the first level runs
    rng = np.random.default_rng(27)
    spin = SpinLabel(40)
    amps = np.array([random_pure(spin, rng).amplitudes for _ in range(8)])
    levels = []
    fixed = entropy.wehrl_fixed

    def recording_fixed(rho, spec):
        levels.append(entropy._level_bytes(rho.spin, spec))
        return fixed(rho, spec)

    wehrl_pure_batch(SpinLabel(3), amps[:1, :4])  # first-call set-up outside the measurement
    monkeypatch.setattr(entropy, "EXACT_RESIDUAL_TOL", 0.0)
    monkeypatch.setattr(entropy, "wehrl_fixed", recording_fixed)
    entropy._exact_grid.cache_clear()
    radial_table.cache_clear()
    tracemalloc.start()
    try:
        wehrl_pure_batch(spin, amps)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(levels) >= 2 * len(amps)
    grid, row = entropy._exact_bytes(spin)
    bound = grid + max(len(amps) * row, max(levels))
    assert peak <= bound, peak / bound


def test_mixed_state_wehrl_value():
    # [DERIVED] maximally mixed state: Q = 1/(2l+1) everywhere, entropy ln(2l+1)
    for tl in (1, 2, 4):
        rho = DensityMatrix.maximally_mixed(SpinLabel(tl))
        assert wehrl(rho) == pytest.approx(np.log(tl + 1.0), abs=1e-10)


def dense_husimi(rho, spec):
    """Oracle: the Husimi function on the flattened grid through the complex
    amplitude grid (the mixed-state route before the Husimi rings), and the
    grid's weights."""
    V, w = amplitude_grid(rho.spin, spec)
    return np.clip(np.vecdot(V @ rho.matrix.conj(), V).real, 0.0, 1.0), w


def dense_wehrl(rho):
    """Oracle: the adaptive quadrature of `wehrl` with dense_husimi levels."""
    spec, prev = entropy.starting_spec(rho.spin.twice_l), np.inf
    while spec.n_theta <= entropy.MAX_N_THETA:
        f, w = dense_husimi(rho, spec)
        cur = float(-rho.spin.dim * np.sum(w * xlogy(f, f)))
        if abs(cur - prev) < spec.tol:
            return cur
        prev, spec = cur, spec.doubled()
    raise AssertionError("dense quadrature did not converge")


# even and odd n_phi; below 4l+1 nodes per ring (n_phi = 7, 4, 1 here) the
# harmonics fold modulo n_phi
RING_SPECS = [QuadratureSpec(32, 64), QuadratureSpec(17, 33), QuadratureSpec(9, 7),
              QuadratureSpec(6, 4), QuadratureSpec(5, 1)]


@pytest.mark.parametrize("tl", range(9))
def test_husimi_rings_match_dense_oracle(tl):
    # Ginibre states: on rank-1 states the oracle's own rounding reaches
    # 1.2e-15 against a 40-digit evaluation, where the rings stay within 3e-16
    spin = SpinLabel(tl)
    rho = random_density(spin, np.random.default_rng(30 + tl))
    for spec in RING_SPECS:
        f, w_theta = entropy._husimi_rings(rho, spec)
        oracle, w = dense_husimi(rho, spec)
        assert f.shape == (spec.n_theta, spec.n_phi)
        assert np.max(np.abs(f.ravel() - oracle)) < 1e-15
        assert np.max(np.abs(np.outer(w_theta, np.full(spec.n_phi, 1 / spec.n_phi)).ravel() - w)) < 1e-16


@pytest.mark.parametrize("tl", range(1, 9))
def test_mixed_wehrl_and_renyi_match_dense_quadrature(tl):
    spin = SpinLabel(tl)
    rng = np.random.default_rng(40 + tl)
    for rho in (random_density(spin, rng), random_density(spin, rng, rank=1),
                DensityMatrix.maximally_mixed(spin)):
        assert abs(wehrl(rho) - dense_wehrl(rho)) < 1e-14
        for spec in RING_SPECS[:3]:
            f, w = dense_husimi(rho, spec)
            assert abs(entropy.wehrl_fixed(rho, spec) + spin.dim * np.sum(w * xlogy(f, f))) < 1e-14
        for n in (2, 3):
            spec = QuadratureSpec(tl * n + 1, 2 * tl * n + 1)
            f, w = dense_husimi(rho, spec)
            expected = spin.dim * np.sum(w * f ** n)
            assert abs(renyi_wehrl_moment(rho, n, spec) - expected) < 1e-14 * expected


def test_mixed_route_builds_no_amplitude_grid(monkeypatch):
    def no_grid(l, spec):
        raise AssertionError("complex amplitude grid built")

    monkeypatch.setattr(entropy, "amplitude_grid", no_grid)
    rho = random_density(SpinLabel(4), np.random.default_rng(9))
    assert wehrl(rho) == pytest.approx(dense_wehrl(rho), abs=1e-14)
    assert renyi_wehrl_moment(rho, 2, exact_spec(4, 2)) > 0


@pytest.mark.parametrize("tl,spec", [(2, QuadratureSpec(256, 512)), (8, QuadratureSpec(64, 128)),
                                     (16, QuadratureSpec(128, 3)), (40, QuadratureSpec(64, 5))])
def test_wehrl_level_peak_within_guard_estimate(tl, spec):
    # the bytes the guard checks bound one level's traced peak, the uncached
    # radial table, the coefficients and the in-place f ln f included
    spin = SpinLabel(tl)
    rho = random_density(spin, np.random.default_rng(3))
    entropy.wehrl_fixed(rho, QuadratureSpec(3, 5))  # first-call set-up outside the measurement
    radial_table.cache_clear()
    tracemalloc.start()
    try:
        entropy.wehrl_fixed(rho, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= entropy._level_bytes(spin, spec), peak / entropy._level_bytes(spin, spec)


def test_quadrature_level_guard_fires_before_allocation(monkeypatch):
    def no_table(l, n_theta):
        raise AssertionError("radial table built before the guard was checked")

    monkeypatch.setattr(entropy, "radial_table", no_table)
    rho = coherent_state(SpinLabel(4), SphereDirection(0.4, 0.4)).density()
    with pytest.raises(ResourceGuardError):
        renyi_wehrl_moment(rho, 5000, QuadratureSpec(4 * 5000 + 1, 8 * 5000 + 1))


def test_wehrl_rotation_invariance():
    rng = np.random.default_rng(1)
    from spinwehrl.su2 import rotate

    psi = random_pure(SpinLabel(3), rng)
    a = wehrl_pure(psi)
    b = wehrl_pure(rotate(psi, SphereDirection(1.2, 0.4)))
    assert a == pytest.approx(b, abs=1e-9)


def test_wehrl_pure_batch_agrees_with_scalar():
    rng = np.random.default_rng(2)
    spin = SpinLabel(4)
    states = [random_pure(spin, rng) for _ in range(6)]
    batch = wehrl_pure_batch(spin, np.array([s.amplitudes for s in states]))
    for s, v in zip(states, batch):
        assert v == pytest.approx(wehrl_pure(s), abs=1e-9)


def test_wehrl_pure_batch_chunks_match_one_call(monkeypatch):
    rng = np.random.default_rng(12)
    spin = SpinLabel(3)
    amps = np.array([random_pure(spin, rng).amplitudes for _ in range(entropy._WEHRL_CHUNK + 44)])
    chunked = wehrl_pure_batch(spin, amps)
    monkeypatch.setattr(entropy, "_WEHRL_CHUNK", len(amps))
    assert np.max(np.abs(chunked - wehrl_pure_batch(spin, amps))) < 1e-14


def test_wehrl_pure_batch_memory_does_not_grow_with_rows():
    rng = np.random.default_rng(13)
    spin = SpinLabel(8)
    amps = np.array([random_pure(spin, rng).amplitudes for _ in range(2000)])
    wehrl_pure_batch(spin, amps[:2])  # builds the cached grid outside the measurement
    peaks = []
    for rows in (300, 2000):
        tracemalloc.start()
        wehrl_pure_batch(spin, amps[:rows])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]


def test_clamp_eigenvalues_acts_on_each_row_of_a_stack():
    stack = [[0.25, -5e-13, 0.75], [0.1, 0.6, 0.3]]
    assert clamp_eigenvalues(stack).tolist() == [[0.75, 0.25, 0.0], [0.6, 0.3, 0.1]]
    with pytest.raises(ValueError, match="clamp window"):
        clamp_eigenvalues([[1.0, 0.0], [1.0, -2e-12]])


def test_wehrl_exceeds_von_neumann():
    rng = np.random.default_rng(3)
    for _ in range(10):
        rho = random_density(SpinLabel(3), rng)
        assert wehrl(rho) > von_neumann(rho)


def test_spin_one_closed_form_against_quadrature():
    rng = np.random.default_rng(4)
    spin = SpinLabel(2)
    for _ in range(25):
        psi = random_pure(spin, rng)
        closed = wehrl_closed(spin, chordal_data(psi))
        assert closed == pytest.approx(wehrl_pure(psi), abs=1e-8)


def test_spin_three_half_closed_form_against_quadrature():
    rng = np.random.default_rng(5)
    spin = SpinLabel(3)
    for _ in range(25):
        psi = random_pure(spin, rng)
        assert wehrl_closed(spin, chordal_data(psi)) == pytest.approx(wehrl_pure(psi), abs=1e-8)


def test_closed_form_coherent_endpoints():
    # [DERIVED] coincident roots (distance 0): 2/3 at l=1, 3/4 at l=3/2
    from spinwehrl.entropy import ChordalData

    assert wehrl_closed(SpinLabel(2), ChordalData((0.0,))) == pytest.approx(2.0 / 3.0, abs=1e-14)
    assert wehrl_closed(SpinLabel(3), ChordalData((0.0, 0.0, 0.0))) == pytest.approx(3.0 / 4.0, abs=1e-14)


def test_closed_form_rejects_other_spins():
    from spinwehrl.entropy import ChordalData

    with pytest.raises(ValueError):
        wehrl_closed(SpinLabel(4), ChordalData((0.0,)))


def test_chordal_data_antipodal_pair():
    # two antipodal roots (spin 1): squared chordal distance 1
    v = np.array([0.0, 1.0, 0.0])
    data = chordal_data(PureState(SpinLabel(2), v))
    assert data.values[0] == pytest.approx(1.0, abs=1e-10)


def exact_spec(tl, n):
    return QuadratureSpec(2 * tl * n + 2, 4 * tl * n + 4)


def kron_chain_moment(rho, n):
    """M_n = (2l+1)/(2nl+1) tr(W^dag rho^(x)n W) through the stretched chain
    isometry W: [nl] -> [l]^(x)n, built by repeated Clebsch-Gordan coupling,
    with rho applied along each tensor factor of W's columns."""
    l, d = rho.spin, rho.spin.dim
    W = np.eye(d)
    for k in range(1, n):
        W = np.kron(W, np.eye(d)) @ coupling_isometry(SpinLabel(k * l.twice_l), l)
    t = W.reshape((d,) * n + (-1,))
    for axis in range(n):
        t = np.moveaxis(np.tensordot(rho.matrix, t, axes=([1], [axis])), 0, axis)
    return (l.twice_l + 1) / (l.twice_l * n + 1) * np.vdot(W, t.reshape(W.shape)).real


@pytest.mark.parametrize("tl,n", [(1, 2), (2, 2), (2, 3), (3, 2), (4, 2), (8, 4), (6, 6), (12, 5)])
def test_renyi_moment_routes_agree(tl, n):
    # M_n falls below 1e-3 at the larger shapes, so the routes are compared
    # relatively; the Kronecker chain holds (2l+1)^n rows and runs where that
    # stays below 10^5
    rng = np.random.default_rng(7)
    spin = SpinLabel(tl)
    for _ in range(5):
        rho = random_pure(spin, rng).density()
        a = renyi_wehrl_moment(rho, n, exact_spec(tl, n))
        b = renyi_wehrl_projector(rho, n)
        assert a == pytest.approx(b, rel=1e-12, abs=0)
        if spin.dim ** n <= 100_000:
            assert kron_chain_moment(rho, n) == pytest.approx(b, rel=1e-12, abs=0)


def test_renyi_moment_coherent_value():
    # [DERIVED] coherent state: M_n = (2l+1)/(2ln+1)
    for tl, n in [(1, 2), (2, 2), (3, 3), (5, 2)]:
        rho = coherent_state(SpinLabel(tl), SphereDirection(1.3, 0.2)).density()
        expected = (tl + 1.0) / (tl * n + 1.0)
        assert renyi_wehrl_moment(rho, n, exact_spec(tl, n)) == pytest.approx(expected, abs=1e-12)
        assert renyi_wehrl_projector(rho, n) == pytest.approx(expected, abs=1e-12)


def test_renyi_moment_defaults_to_the_exact_grid():
    rho = random_density(SpinLabel(5), np.random.default_rng(26))
    for n in (1, 2, 4):
        assert renyi_wehrl_moment(rho, n) == renyi_wehrl_moment(rho, n, QuadratureSpec(5 * n + 1, 10 * n + 1))


def test_renyi_moment_quadrature_guard():
    rho = coherent_state(SpinLabel(4), SphereDirection(0.4, 0.4)).density()
    with pytest.raises(QuadratureOrderError):
        renyi_wehrl_moment(rho, 3, QuadratureSpec(4, 4))


def _not_before_guard(*args, **kwargs):
    raise AssertionError("called before the guard was checked")


def test_renyi_projector_resource_guard(monkeypatch):
    # 3.9e8 multiply-adds at twice_l = 40, n = 8: refused before the
    # polynomial's coefficients are formed
    rho = coherent_state(SpinLabel(40), SphereDirection(0.0, 0.0)).density()
    monkeypatch.setattr(entropy, "comb", _not_before_guard)
    with pytest.raises(ResourceGuardError):
        renyi_wehrl_projector(rho, 8)
