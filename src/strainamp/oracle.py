"""Slow reference implementations used to cross-check the production operators.

Nothing here shares arithmetic with the fast paths: transforms are direct
mode sums, the eigensolver is cyclic Jacobi, derivatives are finite
differences, and the determinant value comes from 2-D quadrature of a
closed-form integrand.
"""

from __future__ import annotations

import numpy as np

from .fields import ScalarField
from .grid import GridSpec
from .operators import EigenTriple

__all__ = [
    "naive_dft",
    "naive_idft",
    "naive_convolution",
    "jacobi_eig",
    "fd_derivative",
    "det_integrand_quadrature",
]

_NAIVE_MAX_N = 8


def _phase_matrix(grid: GridSpec, sign: float) -> np.ndarray:
    """exp(sign * i * k_m * x_j) built from the physical sample coordinates."""
    k = (2.0 * np.pi / grid.box_length) * np.fft.fftfreq(grid.n, 1.0 / grid.n)
    return np.exp(sign * 1j * np.outer(k, grid.x1))


def naive_dft(f: ScalarField) -> np.ndarray:
    """Direct-sum DFT of a real-space scalar field, mean-normalized, using the
    physical expansion exp(i k . x) with x measured from the box center.

    Returns the full (n, n, n) coefficient cube in FFT mode ordering
    (the production transform stores the half-spectrum slice [..., :n//2+1]).
    """
    if f.spectral:
        raise ValueError("naive_dft expects a real-space field")
    n = f.grid.n
    if n > _NAIVE_MAX_N:
        raise ValueError(f"naive_dft is O(n^6); refusing n={n} > {_NAIVE_MAX_N}")
    w = _phase_matrix(f.grid, -1.0)
    out = np.einsum("ai,bj,ck,ijk->abc", w, w, w, f.data.astype(complex))
    return out / n**3


def naive_idft(grid: GridSpec, coeffs: np.ndarray) -> np.ndarray:
    """Direct-sum inverse of naive_dft (full coefficient cube in, samples out)."""
    n = grid.n
    if n > _NAIVE_MAX_N:
        raise ValueError(f"naive_idft is O(n^6); refusing n={n} > {_NAIVE_MAX_N}")
    if coeffs.shape != (n, n, n):
        raise ValueError("expected a full cubic coefficient array")
    w = _phase_matrix(grid, +1.0)
    return np.einsum("ia,jb,kc,ijk->abc", w, w, w, coeffs)


def naive_convolution(fhat: np.ndarray, ghat: np.ndarray) -> np.ndarray:
    """Exact circular convolution of two full coefficient cubes.

    Under the mean normalization this is the spectrum of the pointwise
    product: (f*g)hat[m] = sum_p fhat[p] ghat[m - p mod n].
    """
    n = fhat.shape[0]
    if n > _NAIVE_MAX_N:
        raise ValueError(f"naive_convolution is O(n^6); refusing n={n} > {_NAIVE_MAX_N}")
    if fhat.shape != (n, n, n) or ghat.shape != (n, n, n):
        raise ValueError("expected full cubic coefficient arrays")
    out = np.zeros((n, n, n), dtype=complex)
    idx = np.arange(n)
    for p1 in range(n):
        for p2 in range(n):
            for p3 in range(n):
                c = fhat[p1, p2, p3]
                if c == 0.0:
                    continue
                out += c * ghat[
                    np.ix_((idx - p1) % n, (idx - p2) % n, (idx - p3) % n)
                ]
    return out


def jacobi_eig(m: np.ndarray) -> EigenTriple:
    """Eigenvalues of a symmetric 3x3 matrix by cyclic Jacobi rotations (at
    most 50 sweeps, until the off-diagonal norm is 1e-14 of the norm)."""
    a = np.array(m, dtype=np.float64)
    if a.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise ValueError("matrix entries must be finite")
    a = 0.5 * (a + a.T)
    norm = np.sqrt(np.sum(a * a))
    if norm == 0.0:
        return EigenTriple(0.0, 0.0, 0.0)
    for _ in range(50):
        off = np.sqrt(a[0, 1] ** 2 + a[0, 2] ** 2 + a[1, 2] ** 2)
        if off <= 1e-14 * norm:
            break
        for p, q in ((0, 1), (0, 2), (1, 2)):
            if a[p, q] == 0.0:
                continue
            theta = 0.5 * np.arctan2(2.0 * a[p, q], a[q, q] - a[p, p])
            c, s = np.cos(theta), np.sin(theta)
            rot = np.eye(3)
            rot[p, p] = c
            rot[q, q] = c
            rot[p, q] = s
            rot[q, p] = -s
            a = rot.T @ a @ rot
    lam = np.sort(np.diag(a))
    return EigenTriple(float(lam[0]), float(lam[1]), float(lam[2]))


_FD6_STENCIL = np.array([-1.0, 9.0, -45.0, 0.0, 45.0, -9.0, 1.0]) / 60.0


def fd_derivative(f: ScalarField, axis: int) -> np.ndarray:
    """6th-order centered finite-difference d/dx_axis on the periodic grid."""
    if f.spectral:
        raise ValueError("fd_derivative expects a real-space field")
    if axis not in (1, 2, 3):
        raise ValueError(f"axis must be 1, 2, or 3, got {axis}")
    ax = axis - 1
    out = np.zeros_like(f.data)
    for offset, coeff in zip(range(-3, 4), _FD6_STENCIL):
        if coeff != 0.0:
            out += coeff * np.roll(f.data, -offset, axis=ax)
    return out / f.grid.dx


def det_integrand_quadrature(points: int = 200, cut: float = 40.0) -> float:
    """2-D quadrature of pi * w * sqrt(v) * (1-2v) * (-7+2v+2w)^2 * e^(-3w-3v)
    over (0, inf)^2, truncated to [0, cut]^2 (tail below 1e-12 of the value).

    The substitution v = s^2 removes the sqrt(v) kink so Gauss-Legendre
    converges spectrally. Returns the unit-amplitude value of -int det(S)
    for the colliding-jets strain.
    """
    xs, wxs = np.polynomial.legendre.leggauss(points)
    s = 0.5 * np.sqrt(cut) * (xs + 1.0)
    ws = 0.5 * np.sqrt(cut) * wxs
    w = 0.5 * cut * (xs + 1.0)
    ww = 0.5 * cut * wxs
    S, W = np.meshgrid(s, w, indexing="ij")
    v = S * S
    integrand = (
        2.0 * S * np.pi * W * S * (1.0 - 2.0 * v) * (-7.0 + 2.0 * v + 2.0 * W) ** 2
        * np.exp(-3.0 * W - 3.0 * v)
    )
    return float(np.einsum("i,j,ij->", ws, ww, integrand))
