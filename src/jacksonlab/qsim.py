"""Independent statevector oracle for the closed-form distributions.

Simulates phase estimation and Grover-iterate counting from first
principles with dense matrices, providing a second, independently coded
path against which the closed-form pmfs and the eigenphase mixture model
are validated.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .numerics import PreconditionError, finite_phases, positive_int


class ResourceError(RuntimeError):
    """Requested simulation exceeds the supported desk-scale dimensions."""


@lru_cache(maxsize=64)
def _inverse_dft(M):
    """Read-only dense inverse DFT matrix over Z_M, entries e^{-2 pi i z y/M}/sqrt(M)."""
    zy = np.outer(np.arange(M), np.arange(M))
    out = np.exp(-2j * np.pi * zy / M) / np.sqrt(M)
    out.flags.writeable = False
    return out


def pe_statevector_pmf(M, x):
    """Phase-estimation outcome pmf computed by explicit state evolution.

    Builds the uniform superposition, applies the phase kicks
    e^{2 pi i x y}, applies the inverse DFT matrix over Z_M, and returns
    the squared magnitudes of the result.  x is a finite phase, giving
    shape (M,), or a 1-D array of them, giving one row per phase.
    """
    M = positive_int(M, "M")
    # e^{2 pi i x y} depends only on x mod 1 for integer y; reducing first keeps x*y finite
    xs = finite_phases(x) % 1.0
    states = np.exp(2j * np.pi * np.multiply.outer(xs, np.arange(M))) / np.sqrt(M)
    return np.abs(states @ _inverse_dft(M).T) ** 2


def _check_bitstring(w):
    w = np.asarray(w)
    N = len(w) if w.ndim == 1 else 0
    if N < 2 or (N & (N - 1)) != 0:
        raise PreconditionError("bitstring must be 1-D, its length a power of two >= 2")
    if not np.all((w == 0) | (w == 1)):  # before the int cast, which would truncate 0.5 to 0
        raise PreconditionError("bitstring entries must be 0 or 1")
    return w.astype(int), N


@lru_cache(maxsize=16)  # N is a power of two, at most 2^10 (grover_unitary)
def _hadamard(N):
    """Read-only dense Hadamard transform on N = 2^q amplitudes."""
    H = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2.0)
    out = np.array([[1.0]])
    dim = 1
    while dim < N:
        out = np.kron(out, H)
        dim *= 2
    out.flags.writeable = False
    return out


def grover_unitary(w):
    """Dense Grover iterate -H O_0 H O_w for the marked bits of w."""
    w, N = _check_bitstring(w)
    if N > 1024:
        raise ResourceError("bitstring length capped at 2^10")
    H = _hadamard(N)
    o_w = np.where(w == 1, -1.0, 1.0)
    o_0 = np.ones(N)
    o_0[0] = -1.0
    return -(H * o_0) @ (H * o_w[None, :])


class EigenCheck(NamedTuple):
    residual: float        # max ||U psi - lambda psi|| over the two eigenvectors
    orthogonality: float   # |<psi_+|psi_->|
    decomposition: float   # || u - sqrt(k/N) psi_1 - sqrt(1-k/N) psi_0 ||


def eigencheck(w):
    """Verify the two Grover eigenpairs and the uniform-state decomposition."""
    w, N = _check_bitstring(w)
    k = int(w.sum())
    if k == 0 or k == N:
        raise PreconditionError("eigencheck needs 0 < |w| < N")
    U = grover_unitary(w)
    psi1 = (w == 1).astype(float) / np.sqrt(k)
    psi0 = (w == 0).astype(float) / np.sqrt(N - k)
    psi_plus = (psi1 + 1j * psi0) / np.sqrt(2.0)
    psi_minus = (psi1 - 1j * psi0) / np.sqrt(2.0)
    theta = np.arcsin(np.sqrt(k / N))
    res_plus = np.linalg.norm(U @ psi_plus - np.exp(2j * theta) * psi_plus)
    res_minus = np.linalg.norm(U @ psi_minus - np.exp(-2j * theta) * psi_minus)
    u = np.ones(N) / np.sqrt(N)
    decomp = np.linalg.norm(u - np.sqrt(k / N) * psi1 - np.sqrt(1 - k / N) * psi0)
    return EigenCheck(
        residual=float(max(res_plus, res_minus)),
        orthogonality=float(abs(np.vdot(psi_plus, psi_minus))),
        decomposition=float(decomp),
    )


def counting_statevector_pmf(w, M):
    """First-register pmf of the full two-register counting protocol.

    Starts from the uniform state u, applies the Grover iterate y times
    in the branch tagged y, applies the inverse DFT to the first
    register, and traces out the second register.
    """
    w, N = _check_bitstring(w)
    M = positive_int(M, "M")
    if N > 256:
        raise ResourceError("bitstring length capped at 2^8 for counting")
    if M > 32:
        raise ResourceError("precision M capped at 32")
    U = grover_unitary(w)
    u = np.ones(N, dtype=complex) / np.sqrt(N)
    amps = np.empty((M, N), dtype=complex)
    v = u.copy()
    for y in range(M):
        amps[y] = v / np.sqrt(M)
        v = U @ v  # controlled-U^y as y repeated applications
    out = _inverse_dft(M) @ amps
    return np.sum(np.abs(out) ** 2, axis=1)
