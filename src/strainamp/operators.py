"""Strain/velocity/vorticity calculus, projections, and pointwise eigenvalues.

Vector-calculus multipliers share the Nyquist-zeroed wavenumbers kappa from
GridSpec.kd, which makes leray_project and strain_project exactly idempotent
and mutually consistent mode by mode.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fields import SYM_PAIRS, ScalarField, SymTensorField, VectorField, _mode_sum
from .grid import (
    GridSpec,
    irfft_raw as _irfft_raw,
    rfft_retained_raw as _rfft_retained_raw,
)
from .spectral import forward_transform

__all__ = [
    "EigenTriple",
    "ConstraintError",
    "strain_of",
    "velocity_of",
    "vorticity_of",
    "leray_project",
    "strain_project",
    "s_squared",
    "omega_outer",
    "advection_term",
    "eig_symtensor",
    "lambda_fields",
    "divergence_residual",
    "strain_space_residual",
]


class ConstraintError(ValueError):
    """Input violates a declared constraint (solenoidality, strain space)."""


@dataclass(frozen=True)
class EigenTriple:
    """Sorted eigenvalues of a symmetric 3x3 matrix, lambda1 <= lambda2 <= lambda3."""

    lambda1: float
    lambda2: float
    lambda3: float

    @property
    def lambda2_plus(self) -> float:
        return max(0.0, self.lambda2)


# -- raw-array helpers (hot path) -----------------------------------------
#
# The mode-by-mode helpers take `grid`, either a GridSpec with its full r2c
# layout or its RetainedModes box (grid.retained); both carry the same
# multiplier attributes, so each operator is written once for both layouts.


def _as_spectral(f):
    return f if f.spectral else forward_transform(f)


def _as_real(f):
    return f if not f.spectral else type(f)(f.grid, f.real_samples())


def _div_sym_raw(grid: GridSpec, mh: np.ndarray) -> np.ndarray:
    """Row divergence (div M)_i = i kappa_j M_ij of a spectral 6-component tensor."""
    kx, ky, kz = grid.kd
    return np.stack(
        [
            1j * (kx * mh[0] + ky * mh[1] + kz * mh[2]),
            1j * (kx * mh[1] + ky * mh[3] + kz * mh[4]),
            1j * (kx * mh[2] + ky * mh[4] + kz * mh[5]),
        ]
    )


def _sym_grad_raw(grid: GridSpec, vh: np.ndarray) -> np.ndarray:
    """Symmetric gradient (components xx, xy, xz, yy, yz, zz) of a spectral vector."""
    kx, ky, kz = grid.kd
    return np.stack(
        [
            1j * kx * vh[0],
            0.5j * (kx * vh[1] + ky * vh[0]),
            0.5j * (kx * vh[2] + kz * vh[0]),
            1j * ky * vh[1],
            0.5j * (ky * vh[2] + kz * vh[1]),
            1j * kz * vh[2],
        ]
    )


def _leray_raw(grid: GridSpec, vh: np.ndarray) -> np.ndarray:
    kx, ky, kz = grid.kd
    kv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) * grid.inv_kd2
    return np.stack([vh[0] - kx * kv, vh[1] - ky * kv, vh[2] - kz * kv])


def _strain_project_raw(grid: GridSpec, mh: np.ndarray) -> np.ndarray:
    """P_st M = sym_grad(-2 (-lap)^{-1} P_df div M), all with kappa wavenumbers."""
    wh = -2.0 * grid.inv_kd2 * _div_sym_raw(grid, mh)
    return _sym_grad_raw(grid, _leray_raw(grid, wh))


def _velocity_raw(grid: GridSpec, sh: np.ndarray) -> np.ndarray:
    """u = -2 div (-lap)^{-1} S for a spectral strain tensor."""
    return -2.0 * grid.inv_kd2 * _div_sym_raw(grid, sh)


def _curl_raw(grid: GridSpec, vh: np.ndarray) -> np.ndarray:
    kx, ky, kz = grid.kd
    vx, vy, vz = vh
    return np.stack(
        [
            1j * (ky * vz - kz * vy),
            1j * (kz * vx - kx * vz),
            1j * (kx * vy - ky * vx),
        ]
    )


def _strain_residual_raw(grid: GridSpec, sh: np.ndarray) -> float:
    """||P_st S - S|| / ||S|| of a spectral strain tensor (0 for S = 0)."""
    denom = _mode_sum(grid, sh, sh)
    if denom == 0.0:
        return 0.0
    d = _strain_project_raw(grid, sh) - sh
    return float(np.sqrt(_mode_sum(grid, d, d) / denom))


def _velocity_checked_raw(grid: GridSpec, sh: np.ndarray, residual_tol: float = 1e-6):
    """(_velocity_raw, strain-space residual); ConstraintError above
    residual_tol or when the residual is NaN."""
    res = _strain_residual_raw(grid, sh)
    if not res <= residual_tol:
        raise ConstraintError(
            f"strain-space residual {res:.3e} exceeds {residual_tol:.1e}"
        )
    return _velocity_raw(grid, sh), res


# -- interconversion -------------------------------------------------------


def divergence_residual(u: VectorField) -> float:
    """||div u|| / ||grad u|| in the discrete L^2 sense (0 for the zero field)."""
    uf = _as_spectral(u)
    g = uf.grid
    kx, ky, kz = g.kd
    hw = g.hermitian_weight
    div_sq = np.sum(hw * np.abs(kx * uf.data[0] + ky * uf.data[1] + kz * uf.data[2]) ** 2)
    grad_sq = np.sum(hw * g.kd2 * np.abs(uf.data) ** 2)
    if grad_sq == 0.0:
        return 0.0
    return float(np.sqrt(div_sq / grad_sq))


def strain_space_residual(S: SymTensorField) -> float:
    """||P_st S - S|| / ||S|| (0 for the zero field)."""
    sf = _as_spectral(S)
    return _strain_residual_raw(sf.grid, sf.data)


def strain_of(u: VectorField, div_tol: float = 1e-8) -> SymTensorField:
    """Symmetric gradient S_ij = (d_i u_j + d_j u_i)/2 of a solenoidal velocity."""
    uf = _as_spectral(u)
    res = divergence_residual(uf)
    if res > div_tol:
        raise ConstraintError(
            f"velocity divergence residual {res:.3e} exceeds {div_tol:.1e}"
        )
    return SymTensorField(uf.grid, _sym_grad_raw(uf.grid, uf.data))


def velocity_of(S: SymTensorField, residual_tol: float = 1e-6) -> VectorField:
    """Invert the strain: u = -2 div (-lap)^{-1} S, requiring S in the strain space."""
    sf = _as_spectral(S)
    return VectorField(sf.grid, _velocity_checked_raw(sf.grid, sf.data, residual_tol)[0])


def vorticity_of(u: VectorField) -> VectorField:
    """Spectral curl omega = curl u."""
    uf = _as_spectral(u)
    return VectorField(uf.grid, _curl_raw(uf.grid, uf.data))


def leray_project(v: VectorField) -> VectorField:
    """Helmholtz projection onto divergence-free fields (mean mode unchanged)."""
    vf = _as_spectral(v)
    return VectorField(vf.grid, _leray_raw(vf.grid, vf.data))


def strain_project(M: SymTensorField) -> SymTensorField:
    """Orthogonal projection onto the strain space (symmetric gradients of
    divergence-free fields); annihilates Hessians and multiples of the identity."""
    mf = _as_spectral(M)
    return SymTensorField(mf.grid, _strain_project_raw(mf.grid, mf.data))


# -- pointwise nonlinear products ------------------------------------------


# component c of S^2 is s[a]*s[b] + s[p]*s[q] + s[x]*s[y], summed in that order
_SYM_SQUARE_TERMS = (
    ((0, 0), (1, 1), (2, 2)),
    ((0, 1), (1, 3), (2, 4)),
    ((0, 2), (1, 4), (2, 5)),
    ((1, 1), (3, 3), (4, 4)),
    ((1, 2), (3, 4), (4, 5)),
    ((2, 2), (4, 4), (5, 5)),
)


def _s_squared_box(grid: GridSpec, s_re: np.ndarray) -> np.ndarray:
    """Dealiased S^2 on the retained box, from real samples of S."""
    sq = np.empty_like(s_re)
    tmp = np.empty_like(s_re[0])
    for o, ((a, b), (p, q), (x, y)) in zip(sq, _SYM_SQUARE_TERMS):
        np.multiply(s_re[a], s_re[b], out=o)
        o += np.multiply(s_re[p], s_re[q], out=tmp)
        o += np.multiply(s_re[x], s_re[y], out=tmp)
    return _rfft_retained_raw(grid, sq)


def _sym_outer_box(grid: GridSpec, v_re: np.ndarray) -> np.ndarray:
    """Dealiased v_i v_j on the retained box, from real samples of v."""
    return _rfft_retained_raw(grid, np.stack([v_re[i] * v_re[j] for i, j in SYM_PAIRS]))


def _lamb_box(grid: GridSpec, u_re: np.ndarray, w_re: np.ndarray) -> np.ndarray:
    """P_df(omega x u) on the retained box, from real samples of u and
    omega = curl u.

    For S = sym grad u, (u.grad)S + S^2 + omega x omega/4 = sym grad(omega x u)
    + Hess(|u|^2/2) + |omega|^2 I/4, and P_st annihilates Hessians and
    multiples of I, so sym grad of this is that sum's P_st part, at 3 products
    and one 3-component forward transform. Exact to roundoff while
    3 cutoff <= n + 2 (the 2/3 rule); beyond, both forms alias differently."""
    pairs = ((1, 2), (2, 0), (0, 1))
    lamb = np.stack([w_re[i] * u_re[j] - w_re[j] * u_re[i] for i, j in pairs])
    return _leray_raw(grid.retained, _rfft_retained_raw(grid, lamb))


def s_squared(S: SymTensorField) -> SymTensorField:
    """Pointwise S^2 computed in real space, dealiased in spectral space."""
    g = S.grid
    return SymTensorField(g, g.retained.unpack(_s_squared_box(g, S.real_samples())))


def omega_outer(omega: VectorField) -> SymTensorField:
    """Pointwise outer product omega_i omega_j, dealiased."""
    g = omega.grid
    return SymTensorField(g, g.retained.unpack(_sym_outer_box(g, omega.real_samples())))


def advection_term(u: VectorField, S: SymTensorField) -> SymTensorField:
    """(u . grad) S: spectral derivatives of S, products in real space, dealiased."""
    g = S.grid
    sh, u_re = _as_spectral(S).data, u.real_samples()
    acc = sum(u_re[a] * _irfft_raw(g, 1j * g.kd[a] * sh) for a in range(3))
    return SymTensorField(g, g.retained.unpack(_rfft_retained_raw(g, acc)))


# -- eigenvalues ------------------------------------------------------------


def _eig3_raw(s: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Sorted eigenvalues of symmetric 3x3 matrices given as stacked components.

    Closed-form trigonometric solution with one Newton polish pass applied
    where the characteristic-polynomial residual exceeds 1e-12 * ||m||^3.
    """
    xx, xy, xz, yy, yz, zz = (np.asarray(c, dtype=np.float64) for c in s)
    q = (xx + yy + zz) / 3.0
    p1 = xy * xy + xz * xz + yz * yz
    a, b, c = xx - q, yy - q, zz - q
    p2 = a * a + b * b + c * c + 2.0 * p1
    p = np.sqrt(p2 / 6.0)
    psafe = np.where(p > 0, p, 1.0)
    det_b = (
        a * (b * c - yz * yz) - xy * (xy * c - yz * xz) + xz * (xy * yz - b * xz)
    ) / psafe**3
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    l3 = q + 2.0 * p * np.cos(phi)
    l1 = q + 2.0 * p * np.cos(phi + 2.0 * np.pi / 3.0)
    l2 = 3.0 * q - l1 - l3

    # invariants of the characteristic polynomial l^3 - i1 l^2 + i2 l - i3
    i1 = xx + yy + zz
    tr2 = xx * xx + yy * yy + zz * zz + 2.0 * p1
    i2 = 0.5 * (i1 * i1 - tr2)
    i3 = (
        xx * (yy * zz - yz * yz)
        - xy * (xy * zz - yz * xz)
        + xz * (xy * yz - yy * xz)
    )
    scale = np.maximum(tr2**1.5, np.finfo(np.float64).tiny)

    def polish(lam: np.ndarray) -> np.ndarray:
        f = ((lam - i1) * lam + i2) * lam - i3
        need = np.abs(f) > 1e-12 * scale
        if not np.any(need):
            return lam
        fp = (3.0 * lam - 2.0 * i1) * lam + i2
        ok = need & (np.abs(fp) > 1e-30)
        return np.where(ok, lam - f / np.where(ok, fp, 1.0), lam)

    # near a repeated root, l2 = 3q - l1 - l3 or the polish can stray out of order
    l1, l2, l3 = polish(l1), polish(l2), polish(l3)
    lo, hi = np.minimum(l1, l2), np.maximum(l1, l2)
    return np.minimum(lo, l3), np.maximum(lo, np.minimum(hi, l3)), np.maximum(hi, l3)


def eig_symtensor(m: np.ndarray) -> EigenTriple:
    """Eigenvalues of one symmetric 3x3 matrix (upper triangle is read)."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    comps = [m[0, 0], m[0, 1], m[0, 2], m[1, 1], m[1, 2], m[2, 2]]
    l1, l2, l3 = _eig3_raw([np.asarray(v) for v in comps])
    return EigenTriple(float(l1), float(l2), float(l3))


def lambda_fields(S: SymTensorField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Pointwise eigenvalue fields (lambda1, lambda2, lambda2+ = max(0, lambda2))."""
    g = S.grid
    s_re = S.real_samples()
    l1, l2, _ = _eig3_raw(s_re)
    return (
        ScalarField(g, l1),
        ScalarField(g, l2),
        ScalarField(g, np.maximum(0.0, l2)),
    )
