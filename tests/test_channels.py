import numpy as np
import pytest

from spinwehrl.channels import (
    angular_channel,
    angular_gram,
    apply_kraus,
    channel_covariance_defect,
    projection_channel,
    projection_dual_gram,
    projection_entropy,
    projection_entropy_pure,
    projection_kraus,
    projection_shift,
)
from spinwehrl.coherent import coherent_state
from spinwehrl.entropy import clamped_spectrum, entropy_of_spectrum, von_neumann, wehrl
from spinwehrl.su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    generators,
    random_density,
    random_pure,
)

HALF = SpinLabel(1)
ONE = SpinLabel(2)


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
    rng = np.random.default_rng(1)
    for tl, tj in [(1, 1), (2, 2), (3, 1)]:
        spin, j = SpinLabel(tl), SpinLabel(tj)
        kraus = projection_kraus(spin, j)
        total = sum(k.conj().T @ k for k in kraus)
        assert np.max(np.abs(total - np.eye(spin.dim))) < 1e-12
        rho = random_density(spin, rng)
        direct = projection_channel(rho, j).matrix.matrix
        via_kraus = apply_kraus(kraus, rho.matrix)
        assert np.max(np.abs(direct - via_kraus)) < 1e-12


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
    # j = 100 is only reachable through the small Gram matrix
    psi = random_pure(ONE, np.random.default_rng(6))
    val = projection_entropy_pure(psi, SpinLabel(200))
    assert np.isfinite(val)
    # for a coherent state the Gram spectrum mirrors the pair case
    coh = coherent_state(ONE, SphereDirection(0.7, 0.7))
    g = projection_dual_gram(coh, SpinLabel(200))
    assert np.trace(g).real == pytest.approx(1.0, abs=1e-10)


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
