"""Covariant SU(2) channels: projection channel (primal / Kraus / dual Gram)
and the angular channel with its 3x3 Gram dual.

The projection channel maps a state on [l] to
(2l+1)/(2(l+j)+1) * P_(l+j) (rho (x) 1_j) P_(l+j), stored directly in the
|l+j, m> eigenbasis of the image so the output is a (2(l+j)+1)-dimensional
density matrix. It couples |l+j, a+b> only to |l+j, a'+b>, so the output is
banded with half-bandwidth 2l. Every route reads the one closed-form stretched
Clebsch-Gordan table in `su2`: the entropies solve the band with one banded
eigensolve per state, the dense output (`projection_channel`) is the band
scattered into a Hermitian matrix, and the Kraus operators hold the table's
entries. For pure inputs the (2j+1)-dimensional dual Gram matrix has the same
nonzero spectrum and is the oracle of the band; the optimizer differentiates
the dual Gram factor.

Pure spin-1 entropies take a smaller matrix. The channel is SU(2)-covariant,
so a pure input's output spectrum depends only on its rotation orbit, and
every spin-1 orbit holds a real state a|1,1> + b|1,-1>, labelled by
s = |<Theta psi|psi>| = |2 psi_+ psi_- - psi_0^2|. That state's band has only
the diagonal and the second subdiagonal, which split by the parity of the
column into two real tridiagonal matrices of half the size: exact, not an
approximation, and solved by LAPACK dsterf (`projection_entropy_pure_batch`).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log

import numpy as np

from .entropy import MAX_GRID_BYTES, clamp_eigenvalues, entropy_of_spectrum
from .errors import ConvergenceError, ResourceGuardError
from .su2 import (
    DensityMatrix,
    PureState,
    SphereDirection,
    SpinLabel,
    generators,
    rotation_matrix,
    stretched_cg_table,
)

#: Largest twice_j (j <= 100) that figure-projection and the optimizer accept;
#: the CLI checks it before sampling.
MAX_PROJECTION_TWICE_J = 200
#: Most states per band assembly in `projection_entropy_batch`, fewer where
#: MAX_GRID_BYTES allows fewer (`_band_bytes`), which bounds its memory at
#: any number of states.
_BAND_CHUNK = 256
#: Peak bytes of `projection_channel` per entry of its dense output, beyond
#: the band's weights and state (`_band_bytes`); tracemalloc measured 57-64 B
#: on cold tables at 2(l+j)+1 = 601 to 2001.
_OUTPUT_ENTRY_BYTES = 72


@dataclass(frozen=True)
class ChannelOutput:
    spin_out: SpinLabel
    matrix: DensityMatrix
    spectrum: np.ndarray


def _as_output(spin_out: SpinLabel, mat: np.ndarray) -> ChannelOutput:
    mat = (mat + mat.conj().T) / 2
    mat = mat / np.trace(mat).real
    rho = DensityMatrix(spin_out, mat)
    return ChannelOutput(spin_out, rho, clamp_eigenvalues(rho.eigenvalues))


def projection_channel(rho: DensityMatrix, j: SpinLabel) -> ChannelOutput:
    """Dense (2(l+j)+1)-dimensional output, scattered from the lower band of
    `projection_output_band` and its conjugate. ResourceGuardError, before
    the band is built, when the band's weights, one state and the dense
    output need more than MAX_GRID_BYTES."""
    l = rho.spin
    out_spin = SpinLabel(l.twice_l + j.twice_l)
    D = out_spin.dim
    table, state = _band_bytes(l, j)
    if (need := table + state + _OUTPUT_ENTRY_BYTES * D * D) > MAX_GRID_BYTES:
        raise ResourceGuardError(f"projection output at twice_l={l.twice_l}, twice_j={j.twice_l} needs "
                                 f"{need} bytes, over the {MAX_GRID_BYTES}-byte guard")
    band = projection_output_band(l, j, rho.matrix)
    k, c = np.nonzero(np.add.outer(np.arange(l.dim), np.arange(D)) < D)  # band[k, c] = out[c+k, c]
    out = np.zeros((D, D), dtype=band.dtype)
    out[c, c + k] = band[k, c].conj()
    out[c + k, c] = band[k, c]
    return _as_output(out_spin, out)


def projection_kraus(l: SpinLabel, j: SpinLabel) -> list[np.ndarray]:
    """Kraus operators A_M (shape 2(l+j)+1 x 2l+1) for M = j, ..., -j, read
    from the stretched table T: A_(M_b)[a+b, a] = sqrt((2l+1)/(2(l+j)+1)) T[a, b]."""
    T = stretched_cg_table(l, j)
    a, b = np.indices(T.shape)
    A = np.zeros((j.dim, l.dim + j.twice_l, l.dim))
    A[b, a + b, a] = np.sqrt(l.dim / (l.dim + j.twice_l)) * T
    return list(A)


def projection_dual_factor(psi: PureState, j: SpinLabel) -> np.ndarray:
    """(2(l+j)+1) x (2j+1) factor W of the dual Gram matrix, W^dag W; linear in
    the amplitudes. It reads only the stretched table, so it stays cheap at large j."""
    T = stretched_cg_table(psi.spin, j)
    a, b = np.indices(T.shape)
    W = np.zeros((psi.spin.dim + j.twice_l, j.dim), dtype=complex)
    W[a + b, b] = psi.amplitudes[:, None] * T
    return W * np.sqrt(psi.spin.dim / len(W))


def projection_dual_gram(psi: PureState, j: SpinLabel) -> np.ndarray:
    """(2j+1)-dimensional dual Gram matrix with the same nonzero spectrum as the
    primal output."""
    W = projection_dual_factor(psi, j)
    return W.conj().T @ W


@lru_cache(maxsize=64)
def _band_weights(l: SpinLabel, j: SpinLabel) -> np.ndarray:
    """C[k, a, c] = (2l+1)/(2(l+j)+1) T[a+k, c-a] T[a, c-a] for the stretched
    table T, and 0 where an index leaves the table; shape (2l+1, 2l+1, 2(l+j)+1)."""
    T = stretched_cg_table(l, j)
    d, D = l.dim, l.dim + j.twice_l
    k, a, c = np.indices((d, d, D))
    b = np.clip(c - a, 0, j.twice_l)
    inside = (a + k < d) & (c - a == b)
    C = np.where(inside, T[np.minimum(a + k, d - 1), b] * T[a, b], 0.0) * (d / D)
    C.flags.writeable = False
    return C


def _band_bytes(l: SpinLabel, j: SpinLabel) -> tuple[int, int]:
    """Bytes `projection_output_band` allocates at most, for the weights and
    per state: `_band_weights` holds up to seven (d, d, D) 8-byte arrays at
    its peak (index grids, gathered indices, weights), a state's band about
    eight (d, D)."""
    d, D = l.dim, l.dim + j.twice_l
    return 8 * 7 * d * d * D, 8 * 8 * d * D


def projection_output_band(l: SpinLabel, j: SpinLabel, rhos: np.ndarray) -> np.ndarray:
    """Lower band of the projection-channel output for a stack of (2l+1)^2
    density matrices, shape (..., 2l+1, 2(l+j)+1): entry k of column c is
    out[c+k, c] = (2l+1)/(2(l+j)+1) sum_a rho[a+k, a] T[a+k, c-a] T[a, c-a]
    for the stretched table T, and out is zero beyond k = 2l. O(l^2 j) per
    state, with no dense output or dual factor. ResourceGuardError, before
    the weights are built, when the weights and the stack's states need more
    than MAX_GRID_BYTES (`_band_bytes`)."""
    rhos, d = np.asarray(rhos), l.dim
    table, state = _band_bytes(l, j)
    if (need := table + rhos.size // (d * d) * state) > MAX_GRID_BYTES:
        raise ResourceGuardError(f"projection band at twice_l={l.twice_l}, twice_j={j.twice_l} needs "
                                 f"{need} bytes, over the {MAX_GRID_BYTES}-byte guard")
    k, a = np.indices((d, d))
    diagonals = rhos[..., np.minimum(a + k, d - 1), a]  # rho[a+k, a]; C is 0 past the edge
    return np.einsum("...ka,kac->...kc", diagonals, _band_weights(l, j))


def _bands(l: SpinLabel, j: SpinLabel, rhos: np.ndarray):
    """(index of the first state, output bands) of a stack of density
    matrices, in chunks of at most _BAND_CHUNK states whose bands, with the
    weights, stay within MAX_GRID_BYTES."""
    table, state = _band_bytes(l, j)
    chunk = min(_BAND_CHUNK, max(1, (MAX_GRID_BYTES - table) // state))
    for start in range(0, len(rhos), chunk):
        yield start, projection_output_band(l, j, rhos[start:start + chunk])


def projection_entropy_batch(l: SpinLabel, j: SpinLabel, rhos: np.ndarray) -> np.ndarray:
    """Projection entropies of a stack of (2l+1)^2 density matrices, shape
    (states, 2l+1, 2l+1): one banded eigensolve of each output band, in the
    chunks of `_bands`. This is the general route and the oracle of
    `projection_entropy_pure_batch`, which solves pure spin-1 inputs on two
    real half-size tridiagonals instead."""
    from scipy.linalg import eigvals_banded  # imported here so the package loads without scipy

    rhos = np.asarray(rhos)
    values = np.empty(len(rhos))
    for start, bands in _bands(l, j, rhos):
        for i, band in enumerate(bands, start):
            values[i] = entropy_of_spectrum(clamp_eigenvalues(eigvals_banded(band, lower=True)))
    return values


def _spin1_canonical(amplitudes: np.ndarray) -> np.ndarray:
    """Real density matrices (N(1 + r)/2, 0, Ns/2; 0, 0, 0; Ns/2, 0, N(1 - r)/2)
    of the states a|1,1> + b|1,-1> in the rotation orbits of the spin-1 rows
    of `amplitudes`, of any norm N: s = |2 psi_+ psi_- - psi_0^2| / N =
    |<Theta psi|psi>| is the orbit's one label and r = sqrt((1 - s)(1 + s))."""
    up, zero, down = amplitudes.T
    norm = np.einsum("si,si->s", amplitudes.conj(), amplitudes).real
    ns = np.minimum(np.abs(2 * up * down - zero * zero), norm)
    nr = np.sqrt((norm - ns) * (norm + ns))
    rhos = np.zeros((len(amplitudes), 3, 3))
    rhos[:, 0, 0] = (norm + nr) / 2
    rhos[:, 2, 2] = (norm - nr) / 2
    rhos[:, 0, 2] = rhos[:, 2, 0] = ns / 2
    return rhos


def _parity_eigenvalues(band: np.ndarray) -> np.ndarray:
    """Eigenvalues of an output whose band has only its k = 0 and k = 2 rows:
    out[c+2, c] couples column c to c + 2 alone, so the even and the odd
    columns form two real symmetric tridiagonal matrices, each solved by
    LAPACK dsterf. ConvergenceError when dsterf fails."""
    from scipy.linalg.lapack import dsterf

    halves = []
    for parity in (0, 1):
        d = band[0, parity::2]
        # band[2, c] is 0 from c = D-2 on; dsterf takes max(n-1, 1) off-diagonal entries
        values, info = dsterf(d, band[2, parity::2][:max(len(d) - 1, 1)])
        if info:
            raise ConvergenceError(f"dsterf left {info} off-diagonal entries of a size-{len(d)} "
                                   "tridiagonal unconverged")
        halves.append(values)
    return np.concatenate(halves)


def projection_entropy_pure_batch(l: SpinLabel, j: SpinLabel, amplitudes: np.ndarray) -> np.ndarray:
    """Projection entropies of pure states, the rows of `amplitudes`.

    The channel is SU(2)-covariant, so a pure input's output spectrum depends
    only on its rotation orbit. At spin 1 every orbit holds a real state
    a|1,1> + b|1,-1> (`_spin1_canonical`, no roots and no eigensolve), whose
    output band has only its k = 0 and k = 2 rows, so it splits by the
    parity of the column into two real symmetric tridiagonal matrices of
    sizes ceil(D/2) and floor(D/2), D = 2(l+j)+1 (`_parity_eigenvalues`).
    The entropy is even in r (swapping a and b is a rotation), so the digits
    r loses where s -> 1 do not reach it. Every other spin takes
    `projection_entropy_batch` on the outer products."""
    amplitudes = np.asarray(amplitudes, dtype=complex)
    if l.twice_l != 2:
        return projection_entropy_batch(l, j, amplitudes[:, :, None] * amplitudes[:, None, :].conj())
    values = np.empty(len(amplitudes))
    for start, bands in _bands(l, j, _spin1_canonical(amplitudes)):
        for i, band in enumerate(bands, start):
            values[i] = entropy_of_spectrum(clamp_eigenvalues(_parity_eigenvalues(band)))
    return values


def projection_entropy(rho: DensityMatrix, j: SpinLabel) -> float:
    """von Neumann entropy of the projection-channel output; <= ln(2j+1)."""
    return float(projection_entropy_batch(rho.spin, j, rho.matrix[None])[0])


def projection_entropy_pure(psi: PureState, j: SpinLabel) -> float:
    """Projection entropy of a pure state by `projection_entropy_pure_batch`:
    two real tridiagonal solves at spin 1, the band of psi psi^dag otherwise."""
    return float(projection_entropy_pure_batch(psi.spin, j, psi.amplitudes[None])[0])


def projection_shift(l: SpinLabel, j: SpinLabel) -> float:
    """Entropy shift ln[(2l+1)/(2(l+j)+1)] relating projection and Wehrl."""
    return log(l.dim / (l.twice_l + j.twice_l + 1))


def angular_channel(rho: DensityMatrix) -> ChannelOutput:
    l = rho.spin
    if l.twice_l < 1:
        raise ValueError("angular channel needs l >= 1/2")
    _, _, _, L1, L2, L3 = generators(l)
    c = 1.0 / (l.l * (l.l + 1))
    out = c * sum(Li @ rho.matrix @ Li for Li in (L1, L2, L3))
    return _as_output(l, out)


def angular_factor(psi: PureState) -> np.ndarray:
    """(2l+1) x 3 factor of the angular Gram matrix, columns L_i psi / sqrt(l(l+1));
    linear in the amplitudes."""
    l = psi.spin
    if l.twice_l < 1:
        raise ValueError("angular channel needs l >= 1/2")
    _, _, _, L1, L2, L3 = generators(l)
    return np.column_stack([Li @ psi.amplitudes for Li in (L1, L2, L3)]) / np.sqrt(l.l * (l.l + 1))


def angular_gram(psi: PureState) -> np.ndarray:
    """3x3 Gram matrix G_ij = <psi|L_i L_j|psi> / (l(l+1)); PSD with the same
    nonzero spectrum as the angular-channel output."""
    A = angular_factor(psi)
    return A.conj().T @ A


def channel_covariance_defect(channel: str, rho: DensityMatrix, direction: SphereDirection,
                              j: SpinLabel | None = None) -> float:
    """Max-norm of Phi(U rho U^dag) - U' Phi(rho) U'^dag for matching input
    and output rotations; `channel` is "projection" (needs j) or "angular"."""
    R_in = rotation_matrix(rho.spin, direction)
    rotated = DensityMatrix(rho.spin, R_in @ rho.matrix @ R_in.conj().T)
    if channel == "projection":
        if j is None:
            raise ValueError("projection channel needs the ancilla spin j")
        out_a = projection_channel(rotated, j)
        out_b = projection_channel(rho, j)
    elif channel == "angular":
        out_a = angular_channel(rotated)
        out_b = angular_channel(rho)
    else:
        raise ValueError(f"unknown channel {channel!r}")
    R_out = rotation_matrix(out_a.spin_out, direction)
    diff = out_a.matrix.matrix - R_out @ out_b.matrix.matrix @ R_out.conj().T
    return float(np.max(np.abs(diff)))
