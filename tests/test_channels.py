import tracemalloc

import numpy as np
import pytest
from scipy.linalg import eigvals_banded

from spinwehrl import channels
from spinwehrl.channels import (
    angular_channel,
    angular_gram,
    channel_covariance_defect,
    projection_channel,
    projection_dual_gram,
    projection_entropy,
    projection_entropy_batch,
    projection_entropy_pure,
    projection_entropy_pure_batch,
    projection_kraus,
    projection_output_band,
    projection_shift,
)
from spinwehrl.coherent import coherent_state
from spinwehrl.entropy import (
    clamp_eigenvalues,
    chordal_data,
    clamped_spectrum,
    entropy_of_spectrum,
    von_neumann,
    wehrl,
)
from spinwehrl.errors import ConvergenceError, ResourceGuardError
from spinwehrl.su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    generators,
    random_density,
    random_pure,
    rotation_matrix,
)

from test_su2 import coupling_isometry

HALF = SpinLabel(1)
ONE = SpinLabel(2)
BAND_TWICE_J = (0, 1, 2, 5, 20, 57, 200)


def apply_kraus(kraus, rho_matrix: np.ndarray) -> np.ndarray:
    """sum_M A_M rho A_M^dag, the Kraus form the dense output is checked against."""
    return sum(A @ rho_matrix @ A.conj().T for A in kraus)


def isometry_output(rho: DensityMatrix, j: SpinLabel) -> np.ndarray:
    """(2l+1)/(2(l+j)+1) V^T (rho (x) 1) V on the coupling isometry V, before
    normalization: the dense oracle of the band and of the output scattered
    from it."""
    l = rho.spin
    V = coupling_isometry(l, j)
    return V.T @ (rho.matrix @ V.reshape(l.dim, -1)).reshape(V.shape) * (l.dim / V.shape[1])


def test_projection_spin_half_pair_spectrum():
    # [DERIVED] l = j = 1/2 on |up><up|: output spectrum (2/3, 1/3, 0)
    rho = coherent_state(HALF, SphereDirection(0.0, 0.0)).density()
    out = projection_channel(rho, HALF)
    assert out.spin_out.twice_l == 2
    assert np.allclose(out.spectrum, [2 / 3, 1 / 3, 0.0], atol=1e-12)


def test_projection_dual_gram_matches_primal_spectrum():
    rng = np.random.default_rng(0)
    for tl, tj in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        spin, j = SpinLabel(tl), SpinLabel(tj)
        for _ in range(4):
            psi = random_pure(spin, rng)
            primal = projection_channel(psi.density(), j).spectrum
            dual = clamped_spectrum(projection_dual_gram(psi, j))
            # nonzero parts agree; primal has extra structural zeros
            assert np.max(np.abs(primal[: j.dim] - dual)) < 1e-12
            assert np.max(np.abs(primal[j.dim:])) < 1e-12


def test_projection_kraus_completeness_and_agreement():
    # the Kraus operators and the dense output both read the stretched table,
    # so each is checked against the isometry route as well as the other
    rng = np.random.default_rng(1)
    for tl, tj in [(1, 1), (2, 2), (3, 1)] + [(tl, tj) for tl in range(9) for tj in BAND_TWICE_J]:
        spin, j = SpinLabel(tl), SpinLabel(tj)
        kraus = projection_kraus(spin, j)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(total - np.eye(spin.dim))) < 1e-12
        rho = random_density(spin, rng)
        direct = projection_channel(rho, j).matrix.matrix
        via_kraus = apply_kraus(kraus, rho.matrix)
        oracle = isometry_output(rho, j)
        assert np.max(np.abs(direct - via_kraus)) < 1e-12
        assert np.max(np.abs(direct - oracle)) < 1e-12
        assert np.max(np.abs(via_kraus - oracle)) < 1e-12


def test_projection_trace_preserving_and_unital_image():
    rng = np.random.default_rng(2)
    rho = random_density(SpinLabel(3), rng)
    out = projection_channel(rho, ONE)
    assert np.trace(out.matrix.matrix) == pytest.approx(1.0, abs=1e-12)


def test_projection_covariance():
    rng = np.random.default_rng(3)
    rho = random_density(ONE, rng)
    for _ in range(4):
        d = SphereDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        assert channel_covariance_defect("projection", rho, d, j=HALF) < 1e-11


def test_projection_shift_inequality():
    # phase-space entropy dominates the projected von Neumann entropy plus
    # the logarithmic dimension shift
    rng = np.random.default_rng(4)
    for tl, tj in [(1, 1), (2, 2), (3, 4)]:
        spin, j = SpinLabel(tl), SpinLabel(tj)
        shift = projection_shift(spin, j)
        assert shift == pytest.approx(np.log(spin.dim / (tl + tj + 1.0)))
        for _ in range(10):
            psi = random_pure(spin, rng)
            lhs = wehrl(psi.density())
            rhs = projection_entropy_pure(psi, j) + shift
            assert lhs >= rhs - 1e-9


def test_projection_entropy_routes_agree():
    rng = np.random.default_rng(5)
    psi = random_pure(SpinLabel(3), rng)
    a = projection_entropy(psi.density(), ONE)
    b = projection_entropy_pure(psi, ONE)
    assert a == pytest.approx(b, abs=1e-11)


def test_projection_large_j_dual_route():
    psi = random_pure(ONE, np.random.default_rng(6))
    val = projection_entropy_pure(psi, SpinLabel(200))
    assert np.isfinite(val)
    # for a coherent state the Gram spectrum mirrors the pair case
    coh = coherent_state(ONE, SphereDirection(0.7, 0.7))
    g = projection_dual_gram(coh, SpinLabel(200))
    assert np.trace(g).real == pytest.approx(1.0, abs=1e-10)


def banded_spectrum(spin, j, rho_matrix):
    """The spectrum behind the library's projection entropies."""
    return clamp_eigenvalues(eigvals_banded(projection_output_band(spin, j, rho_matrix), lower=True))


def test_banded_route_matches_dense_routes():
    # Haar pure and random mixed states against the dense primal output, and
    # pure ones against the dual Gram matrix, at AC05's 1e-10 for spectra
    rng = np.random.default_rng(12)
    for tl in range(9):
        spin = SpinLabel(tl)
        for tj in BAND_TWICE_J:
            j = SpinLabel(tj)
            psi = random_pure(spin, rng)
            for rho in (psi.density(), random_density(spin, rng)):
                primal = projection_channel(rho, j).spectrum
                assert np.max(np.abs(banded_spectrum(spin, j, rho.matrix) - primal)) < 1e-10
                assert abs(projection_entropy(rho, j) - entropy_of_spectrum(primal)) < 1e-11
            dual = clamped_spectrum(projection_dual_gram(psi, j))
            banded = banded_spectrum(spin, j, psi.density().matrix)
            assert np.max(np.abs(banded[: j.dim] - dual)) < 1e-10
            assert np.max(np.abs(banded[j.dim:]), initial=0.0) < 1e-10
            assert abs(projection_entropy_pure(psi, j) - entropy_of_spectrum(dual)) < 1e-11


def test_dense_output_is_banded():
    # on the isometry route, out[c+k, c] = 0 for k > 2l and the band holds the
    # other diagonals; the dense output, scattered from the band, matches it
    rng = np.random.default_rng(13)
    shapes = [(0, 3), (1, 1), (2, 5), (4, 20), (8, 0), (8, 57)]
    shapes += [(tl, tj) for tl in range(9) for tj in BAND_TWICE_J]
    for tl, tj in shapes:
        spin, j = SpinLabel(tl), SpinLabel(tj)
        for rho in (random_pure(spin, rng).density(), random_density(spin, rng)):
            out = isometry_output(rho, j)
            rows, cols = np.indices(out.shape)
            assert np.all(out[np.abs(rows - cols) > tl] == 0)
            band = projection_output_band(spin, j, rho.matrix)
            assert band.shape == (spin.dim, len(out))
            for k in range(spin.dim):
                n = len(out) - k
                assert np.max(np.abs(np.diagonal(out, -k) - band[k, :n])) < 1e-15
                assert np.all(band[k, n:] == 0)
            dense = projection_channel(rho, j)
            oracle = channels._as_output(dense.spin_out, out).matrix.matrix
            assert np.max(np.abs(dense.matrix.matrix - oracle)) < 1e-15


@pytest.mark.parametrize("channel", [lambda rho: projection_channel(rho, SpinLabel(5)), angular_channel],
                         ids=["projection", "angular"])
def test_channel_output_takes_one_eigensolve(channel, monkeypatch):
    # the output's spectrum, and its von Neumann entropy, are the positivity
    # check's eigvalsh, clamped
    rho = random_density(SpinLabel(4), np.random.default_rng(17))
    calls = []
    eigvalsh = np.linalg.eigvalsh

    def counted(a, *args, **kwargs):
        calls.append(a.shape)
        return eigvalsh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigvalsh", counted)
    out = channel(rho)
    entropy = von_neumann(out.matrix)
    assert len(calls) == 1
    assert np.array_equal(out.spectrum, clamped_spectrum(out.matrix.matrix))
    assert entropy == entropy_of_spectrum(out.spectrum)


@pytest.mark.parametrize("tl,tj", [(0, 39998), (8, 4442)])
def test_projection_channel_guard_fires_before_the_band(tl, tj, monkeypatch):
    # the dense outputs alone would take about 115 GB and 1.4 GB
    def not_reached(*args):
        raise AssertionError("band built before the guard was checked")

    monkeypatch.setattr(channels, "_band_weights", not_reached)
    monkeypatch.setattr(channels, "projection_output_band", not_reached)
    with pytest.raises(ResourceGuardError, match="projection output"):
        projection_channel(DensityMatrix.maximally_mixed(SpinLabel(tl)), SpinLabel(tj))


@pytest.mark.parametrize("tl,tj", [(0, 600), (8, 592), (2, 798)])
def test_projection_channel_peak_within_guard_estimate(tl, tj):
    # the traced peak, cold band weights included, stays within the bytes the
    # guard counts: the weights, one state's band and the dense output
    spin, j = SpinLabel(tl), SpinLabel(tj)
    rho = random_density(spin, np.random.default_rng(16))
    table, state = channels._band_bytes(spin, j)
    counted = table + state + channels._OUTPUT_ENTRY_BYTES * (tl + tj + 1) ** 2
    channels._band_weights.cache_clear()
    tracemalloc.start()
    try:
        projection_channel(rho, j)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= counted, peak / counted


def test_projection_entropy_batch_matches_single_calls():
    # 600 states span several band assemblies of one batch call
    rng = np.random.default_rng(14)
    for tl, tj, n in [(1, 1, 600), (4, 20, 7)]:
        spin, j = SpinLabel(tl), SpinLabel(tj)
        rhos = [random_density(spin, rng) for _ in range(n)]
        batch = projection_entropy_batch(spin, j, np.array([r.matrix for r in rhos]))
        assert np.array_equal(batch, [projection_entropy(r, j) for r in rhos])
        states = [random_pure(spin, rng) for _ in range(3)]
        pure = projection_entropy_batch(spin, j, np.array([s.density().matrix for s in states]))
        assert np.array_equal(pure, [projection_entropy_pure(s, j) for s in states])


def spin1_states(rng):
    """Spin-1 test states, each rotated to a random orientation: Haar states,
    a coherent state (s = 0), the m = 0 state (s = 1) and states with
    s = 1e-9 and 1 - s = 1e-9, where s = |2 psi_+ psi_- - psi_0^2|."""
    # cos(x)|1,1> + sin(x)|1,-1> has s = sin 2x; sin(pi/2 - 2y) = 1 - 2y^2 + ...
    x = [np.arcsin(1e-9) / 2, np.pi / 4 - np.sqrt(1e-9 / 2)]
    canonical = [np.array([1, 0, 0]), np.array([0, 1, 0])] + [np.array([np.cos(t), 0, np.sin(t)]) for t in x]
    states = [random_pure(ONE, rng) for _ in range(20)]
    for a in canonical:
        d = SphereDirection(rng.uniform(0, np.pi), rng.uniform(0, 2 * np.pi))
        states.append(PureState(ONE, rotation_matrix(ONE, d) @ a.astype(complex), normalize=True))
    return states


def test_spin1_orbit_label_is_the_chordal_distance():
    # s = |<Theta psi|psi>| = mu / (2 - mu) for the squared chordal distance
    # mu between the two stars
    states = spin1_states(np.random.default_rng(31))
    s = np.array([abs(2 * p.amplitudes[0] * p.amplitudes[2] - p.amplitudes[1] ** 2) for p in states])
    mu = np.array([chordal_data(p).values[0] for p in states])
    assert np.max(np.abs(s - mu / (2 - mu))) < 1e-12
    assert s[20] < 1e-15 and abs(s[21] - 1) < 1e-15
    assert s[22] == pytest.approx(1e-9, rel=1e-6) and 1 - s[23] == pytest.approx(1e-9, rel=1e-6)


@pytest.mark.parametrize("tj", [0, 1, 2, 20, 200])
def test_spin1_tridiagonal_route_matches_band_and_dual(tj):
    # the two parity tridiagonals of the canonical state against the band of
    # psi psi^dag and the dual Gram matrix, at AC05's 1e-10 for spectra and
    # 1e-12 for entropies
    j = SpinLabel(tj)
    states = spin1_states(np.random.default_rng(32 + tj))
    amps = np.array([p.amplitudes for p in states])
    fast = projection_entropy_pure_batch(ONE, j, amps)
    band_route = projection_entropy_batch(ONE, j, amps[:, :, None] * amps[:, None, :].conj())
    assert np.max(np.abs(fast - band_route)) < 1e-12
    bands = projection_output_band(ONE, j, channels._spin1_canonical(amps))
    for psi, band, value in zip(states, bands, fast):
        spectrum = clamp_eigenvalues(channels._parity_eigenvalues(band))
        dual = clamped_spectrum(projection_dual_gram(psi, j))
        assert np.max(np.abs(spectrum[: j.dim] - dual)) < 1e-10
        assert np.max(np.abs(spectrum[j.dim:])) < 1e-10
        assert abs(value - entropy_of_spectrum(dual)) < 1e-12
        assert value == projection_entropy_pure(psi, j)


def test_spin1_route_raises_when_dsterf_fails(monkeypatch):
    import scipy.linalg.lapack

    def failing(d, e):
        return np.sort(d), 3

    monkeypatch.setattr(scipy.linalg.lapack, "dsterf", failing)
    psi = random_pure(ONE, np.random.default_rng(33))
    with pytest.raises(ConvergenceError, match="dsterf left 3"):
        projection_entropy_pure(psi, SpinLabel(20))
    # the other spins keep the banded solve
    projection_entropy_pure(random_pure(SpinLabel(3), np.random.default_rng(34)), SpinLabel(20))


def test_band_chunks_stay_within_the_byte_guard(monkeypatch):
    # with the guard lowered to the weights and four states' bands, 40 states
    # go in chunks of four, and the traced peak, cold weights included, stays
    # within it; a stack of five is refused
    rng = np.random.default_rng(15)
    spin, j = SpinLabel(8), SpinLabel(100)
    rhos = np.array([random_density(spin, rng).matrix for _ in range(40)])
    whole = projection_entropy_batch(spin, j, rhos)
    table, state = channels._band_bytes(spin, j)
    monkeypatch.setattr(channels, "MAX_GRID_BYTES", table + 4 * state)
    sizes = []
    band = channels.projection_output_band

    def recording_band(l, j, rhos):
        sizes.append(len(rhos))
        return band(l, j, rhos)

    monkeypatch.setattr(channels, "projection_output_band", recording_band)
    channels._band_weights.cache_clear()
    tracemalloc.start()
    try:
        chunked = projection_entropy_batch(spin, j, rhos)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert sizes == [4] * 10
    assert np.array_equal(chunked, whole)
    assert peak <= table + 4 * state, peak / (table + 4 * state)
    with pytest.raises(ResourceGuardError):
        band(spin, j, rhos[:5])


def test_angular_channel_up_state():
    # [DERIVED] l = 1/2 spin-up: output diag(1/3, 2/3)
    rho = coherent_state(HALF, SphereDirection(0.0, 0.0)).density()
    out = angular_channel(rho)
    assert np.allclose(out.matrix.matrix, np.diag([1 / 3, 2 / 3]), atol=1e-12)


def test_angular_channel_trace_and_covariance():
    rng = np.random.default_rng(7)
    rho = random_density(SpinLabel(4), rng)
    out = angular_channel(rho)
    assert np.trace(out.matrix.matrix) == pytest.approx(1.0, abs=1e-12)
    d = SphereDirection(1.0, 2.0)
    assert channel_covariance_defect("angular", rho, d) < 1e-11


def test_angular_gram_matches_channel_spectrum():
    rng = np.random.default_rng(8)
    for tl in (1, 2, 4):
        psi = random_pure(SpinLabel(tl), rng)
        via_channel = np.sort(angular_channel(psi.density()).spectrum)[::-1]
        via_gram = np.sort(clamped_spectrum(angular_gram(psi)))[::-1]
        k = min(len(via_channel), len(via_gram))
        assert np.max(np.abs(via_channel[:k] - via_gram[:k])) < 1e-11
        assert np.all(np.abs(via_channel[k:]) < 1e-11)
        assert np.all(np.abs(via_gram[k:]) < 1e-11)


def test_angular_gram_coherent_spectrum():
    # [DERIVED] coherent input: normalized spectrum (l^2, l, 0)/(l(l+1))
    for tl in (2, 4, 6):
        l = tl / 2.0
        psi = coherent_state(SpinLabel(tl), SphereDirection(0.8, 1.1))
        spec = clamped_spectrum(angular_gram(psi))
        expected = np.array([l * l, l, 0.0]) / (l * (l + 1.0))
        assert np.max(np.abs(spec - expected)) < 1e-12


def test_angular_gram_rejects_spin_zero():
    # l(l+1) = 0 at spin 0: the Gram matrix would be all NaN
    with pytest.raises(ValueError):
        angular_gram(PureState(SpinLabel(0), [1.0]))


def test_angular_channel_entropy_from_gram():
    rng = np.random.default_rng(9)
    psi = random_pure(SpinLabel(3), rng)
    a = von_neumann(angular_channel(psi.density()).matrix)
    b = entropy_of_spectrum(clamped_spectrum(angular_gram(psi)))
    assert a == pytest.approx(b, abs=1e-10)


def test_angular_channel_kraus_identity():
    # sum_i L_i rho L_i / (l(l+1)) reproduced by hand from the generators
    spin = SpinLabel(2)
    rng = np.random.default_rng(10)
    rho = random_density(spin, rng)
    _, _, _, L1, L2, L3 = generators(spin)
    l = spin.l
    manual = (L1 @ rho.matrix @ L1 + L2 @ rho.matrix @ L2 + L3 @ rho.matrix @ L3) / (l * (l + 1))
    assert np.max(np.abs(angular_channel(rho).matrix.matrix - manual)) < 1e-12
