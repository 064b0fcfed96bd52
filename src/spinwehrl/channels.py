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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import log

import numpy as np
from scipy.linalg import eigvals_banded

from .entropy import MAX_GRID_BYTES, clamp_eigenvalues, entropy_of_spectrum
from .errors import ResourceGuardError
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


def projection_entropy_batch(l: SpinLabel, j: SpinLabel, rhos: np.ndarray) -> np.ndarray:
    """Projection entropies of a stack of (2l+1)^2 density matrices, shape
    (states, 2l+1, 2l+1): one banded eigensolve of each output band. States
    go in chunks of at most _BAND_CHUNK whose bands, with the weights, stay
    within MAX_GRID_BYTES."""
    rhos = np.asarray(rhos)
    values = np.empty(len(rhos))
    table, state = _band_bytes(l, j)
    chunk = min(_BAND_CHUNK, max(1, (MAX_GRID_BYTES - table) // state))
    for start in range(0, len(rhos), chunk):
        bands = projection_output_band(l, j, rhos[start:start + chunk])
        for i, band in enumerate(bands, start):
            values[i] = entropy_of_spectrum(clamp_eigenvalues(eigvals_banded(band, lower=True)))
    return values


def projection_entropy(rho: DensityMatrix, j: SpinLabel) -> float:
    """von Neumann entropy of the projection-channel output; <= ln(2j+1)."""
    return float(projection_entropy_batch(rho.spin, j, rho.matrix[None])[0])


def projection_entropy_pure(psi: PureState, j: SpinLabel) -> float:
    """Projection entropy of a pure state, from the band of psi psi^dag."""
    a = psi.amplitudes
    return float(projection_entropy_batch(psi.spin, j, np.outer(a, a.conj())[None])[0])


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
