"""Single-atom spin matrices, alignment operators and collective Stokes operators.

Everything here is dense complex linear algebra on tiny Hilbert spaces
(dimension at most a few tens), built once and treated as immutable
afterwards.  Basis convention: magnetic quantum number decreasing,
``m = f, f-1, ..., -f`` for atoms and ``n_plus = n, n-1, ..., 0`` for the
two-mode photon sector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

# 2f+1 <= DIM_CAP keeps the exact tensor-product spaces downstream tractable.
DEFAULT_DIM_CAP = 21


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


def _is_half_integer(f: float) -> bool:
    return float(2 * f) == int(round(2 * f))


def angular_momentum_matrices(j: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Return (jx, jy, jz) for total angular momentum ``j``.

    Standard ladder-operator construction in the ``|j, m>`` basis with m
    decreasing; entries are square roots of integers, so double precision
    holds all downstream identities to ~1e-15.
    """
    if j < 0 or not _is_half_integer(j):
        raise ValueError(f"angular momentum must be a non-negative half-integer, got {j}")
    dim = int(round(2 * j)) + 1
    m = j - np.arange(dim)
    # raising operator: <m+1| j+ |m> = sqrt(j(j+1) - m(m+1)) on the superdiagonal
    c = np.sqrt(j * (j + 1) - m[1:] * (m[1:] + 1))
    jp = np.zeros((dim, dim), dtype=complex)
    jp[np.arange(dim - 1), np.arange(1, dim)] = c
    jm = jp.conj().T
    jx = (jp + jm) / 2
    jy = (jp - jm) / 2j
    jz = np.diag(m.astype(complex))
    return jx, jy, jz


@dataclass(frozen=True)
class SpinOperatorSet:
    """Spin-f matrices fx, fy, fz plus the alignment operators jx, jy, jz, jxy."""

    f: float
    dim: int
    fx: np.ndarray
    fy: np.ndarray
    fz: np.ndarray
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    jxy: np.ndarray


@dataclass(frozen=True)
class StokesOperatorSet:
    """Collective polarization operators on the fixed-photon-number sector."""

    n: int
    dim: int
    sx: np.ndarray
    sy: np.ndarray
    sz: np.ndarray


@lru_cache(maxsize=None)  # at most one immutable set per spin below DEFAULT_DIM_CAP
def build_spin_operators(f: float) -> SpinOperatorSet:
    """Build the spin-f operator set.

    The alignment operators are quadratic combinations of the spin matrices:
    jx = (fx^2 - fy^2)/2, jy = (fx fy + fy fx)/2, jz = fz/2 and
    jxy = -i[jx, jy], which equals fz(f(f+1) - fz^2 - 1/2) as a matrix
    identity.  For f=1/2 the quadratic operators vanish identically; for
    f=1, jxy coincides with jz.
    """
    if not _is_half_integer(f) or f < 0.5:
        raise ValueError(f"spin must be a positive half-integer, got {f}")
    dim = int(round(2 * f)) + 1
    if dim > DEFAULT_DIM_CAP:
        raise ValueError(f"spin f={f} needs dimension {dim} > cap {DEFAULT_DIM_CAP}")
    fx, fy, fz = angular_momentum_matrices(f)
    # jx = (fx^2 - fy^2)/2 = (f+^2 + f-^2)/4 and jy = (fx fy + fy fx)/2
    # = (f+^2 - f-^2)/(4i).  Building the squared ladder entries as a single
    # square root of an exact integer product keeps the f=1/2 and f=1
    # degeneracies (zero matrices, jxy = jz) bit-exact instead of 1e-16 off.
    fp2 = np.zeros((dim, dim), dtype=complex)
    for col in range(2, dim):
        m = f - col
        # f(f+1) - m(m+1) is an exact integer for every half-integer f, m
        a = round(f * (f + 1) - m * (m + 1))
        b = round(f * (f + 1) - (m + 1) * (m + 2))
        fp2[col - 2, col] = math.sqrt(a * b)
    fm2 = fp2.conj().T
    jx = (fp2 + fm2) / 4
    jy = (fp2 - fm2) / 4j
    jz = fz / 2
    jxy = -1j * (jx @ jy - jy @ jx)
    return SpinOperatorSet(
        f=float(f), dim=dim,
        fx=_freeze(fx), fy=_freeze(fy), fz=_freeze(fz),
        jx=_freeze(jx), jy=_freeze(jy), jz=_freeze(jz), jxy=_freeze(jxy),
    )


def build_stokes_operators(n: int) -> StokesOperatorSet:
    """Build Stokes operators restricted to the n-photon two-mode sector.

    In the |n_plus, n_minus> basis the sector carries a spin-(n/2)
    representation (Schwinger bosons): sz = (n_plus - n_minus)/2 is diagonal
    and sx, sy are the corresponding ladder combinations, so sx has extreme
    eigenvalues +-n/2 reached by the +-45 degree linearly polarized states.
    """
    if int(n) != n or n < 1:
        raise ValueError(f"photon number must be a positive integer, got {n}")
    n = int(n)
    sx, sy, sz = angular_momentum_matrices(n / 2)
    return StokesOperatorSet(n=n, dim=n + 1, sx=_freeze(sx), sy=_freeze(sy), sz=_freeze(sz))


def commutator(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Return the matrix commutator ab - ba, or that of each pair of two (..., d, d) stacks."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ValueError(f"expected square matrices, got shape {a.shape}")
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape} vs {b.shape}")
    return a @ b - b @ a
