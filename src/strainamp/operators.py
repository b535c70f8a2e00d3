"""Strain/velocity/vorticity calculus, projections, and pointwise eigenvalues.

Vector-calculus multipliers share the Nyquist-zeroed wavenumbers kappa of
the mode set's kd, which makes leray_project and strain_project exactly
idempotent and mutually consistent mode by mode.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .fields import SYM_PAIRS, ScalarField, SymTensorField, VectorField, _mode_sum
from .grid import GridSpec, _ModeSet, _rfft_box_by_slab, _slabs
from .grid import irfft_raw as _irfft_raw
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
# The mode-by-mode helpers take `grid`, any mode set: a GridSpec with its
# full r2c layout or its RetainedModes box (grid.retained). Both take every
# multiplier from grid._ModeSet, so each operator is written once for both.


def _as_spectral(f):
    return f if f.spectral else forward_transform(f)


def _as_real(f):
    return f if not f.spectral else type(f)(f.grid, f.real_samples())


def _div_sym_raw(grid: _ModeSet, mh: np.ndarray) -> np.ndarray:
    """Row divergence (div M)_i = i kappa_j M_ij of a spectral 6-component tensor."""
    kx, ky, kz = grid.kd
    return np.stack(
        [
            1j * (kx * mh[0] + ky * mh[1] + kz * mh[2]),
            1j * (kx * mh[1] + ky * mh[3] + kz * mh[4]),
            1j * (kx * mh[2] + ky * mh[4] + kz * mh[5]),
        ]
    )


def _sym_grad_raw(grid: _ModeSet, vh: np.ndarray) -> np.ndarray:
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


def _leray_raw(grid: _ModeSet, vh: np.ndarray) -> np.ndarray:
    kx, ky, kz = grid.kd
    kv = (kx * vh[0] + ky * vh[1] + kz * vh[2]) * grid.inv_kd2
    return np.stack([vh[0] - kx * kv, vh[1] - ky * kv, vh[2] - kz * kv])


def _velocity_raw(grid: _ModeSet, sh: np.ndarray) -> np.ndarray:
    """u = -2 div (-lap)^{-1} S for a spectral strain tensor."""
    return -2.0 * grid.inv_kd2 * _div_sym_raw(grid, sh)


def _strain_velocity_raw(grid: _ModeSet, mh: np.ndarray) -> np.ndarray:
    """The divergence-free u with sym grad u = P_st M: P_df(-2 div (-lap)^{-1} M)."""
    return _leray_raw(grid, _velocity_raw(grid, mh))


def _strain_project_raw(grid: _ModeSet, mh: np.ndarray) -> np.ndarray:
    """P_st M = sym_grad(-2 (-lap)^{-1} P_df div M), all with kappa wavenumbers."""
    return _sym_grad_raw(grid, _strain_velocity_raw(grid, mh))


def _curl_raw(grid: _ModeSet, vh: np.ndarray) -> np.ndarray:
    kx, ky, kz = grid.kd
    vx, vy, vz = vh
    return np.stack(
        [
            1j * (ky * vz - kz * vy),
            1j * (kz * vx - kx * vz),
            1j * (kx * vy - ky * vx),
        ]
    )


def _strain_residual_raw(grid: _ModeSet, sh: np.ndarray, uh: np.ndarray) -> float:
    """||P_st S - S|| / ||S|| of a spectral strain tensor (0 for S = 0), from
    S and its velocity uh = _velocity_raw(grid, sh): P_st S = sym grad P_df u."""
    denom = _mode_sum(grid, sh, sh)
    if denom == 0.0:
        return 0.0
    d = _sym_grad_raw(grid, _leray_raw(grid, uh)) - sh
    return float(np.sqrt(_mode_sum(grid, d, d) / denom))


def _strain_checked_raw(grid: _ModeSet, sh: np.ndarray, uh: np.ndarray) -> float:
    """The strain-space check: _strain_residual_raw of S from its velocity
    uh, already formed; ConstraintError above 1e-6 or when it is NaN."""
    res = _strain_residual_raw(grid, sh, uh)
    if not res <= 1e-6:
        raise ConstraintError(f"strain-space residual {res:.3e} exceeds 1.0e-06")
    return res


# -- interconversion -------------------------------------------------------


def _divergence_residual_raw(grid: _ModeSet, uh: np.ndarray) -> float:
    kx, ky, kz = grid.kd
    hw = grid.hermitian_weight
    div_sq = np.sum(hw * np.abs(kx * uh[0] + ky * uh[1] + kz * uh[2]) ** 2)
    grad_sq = np.sum(hw * grid.kd2 * np.abs(uh) ** 2)
    if grad_sq == 0.0:
        return 0.0
    return float(np.sqrt(div_sq / grad_sq))


def _strain_of_raw(grid: _ModeSet, uh: np.ndarray) -> np.ndarray:
    """Symmetric gradient of a spectral velocity; ConstraintError when its
    divergence residual exceeds 1e-8 or is NaN."""
    res = _divergence_residual_raw(grid, uh)
    if not res <= 1e-8:
        raise ConstraintError(f"velocity divergence residual {res:.3e} exceeds 1.0e-08")
    return _sym_grad_raw(grid, uh)


def divergence_residual(u: VectorField) -> float:
    """||div u|| / ||grad u|| in the discrete L^2 sense (0 for the zero field)."""
    uf = _as_spectral(u)
    return _divergence_residual_raw(uf.grid, uf.data)


def strain_space_residual(S: SymTensorField) -> float:
    """||P_st S - S|| / ||S|| (0 for the zero field)."""
    sf = _as_spectral(S)
    return _strain_residual_raw(sf.grid, sf.data, _velocity_raw(sf.grid, sf.data))


def strain_of(u: VectorField) -> SymTensorField:
    """Symmetric gradient S_ij = (d_i u_j + d_j u_i)/2 of a solenoidal velocity;
    ConstraintError when the divergence residual exceeds 1e-8 or is NaN."""
    uf = _as_spectral(u)
    return SymTensorField(uf.grid, _strain_of_raw(uf.grid, uf.data))


def velocity_of(S: SymTensorField) -> VectorField:
    """Invert the strain: u = -2 div (-lap)^{-1} S, requiring S in the strain space."""
    sf = _as_spectral(S)
    uh = _velocity_raw(sf.grid, sf.data)
    _strain_checked_raw(sf.grid, sf.data, uh)
    return VectorField(sf.grid, uh)


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


# -- pointwise real-space passes -------------------------------------------
#
# Every pointwise pass runs over the x-slabs of grid._slabs (see the comment
# there): the products that are transformed forward share the forward box
# transform's slab loop (grid._rfft_box_by_slab), and the others fill a
# full-size result slab by slab (_by_slab).


def _by_slab(kernel: Callable[..., None], nout: int, *arrays: np.ndarray) -> np.ndarray:
    """A full-size (nout, n, n, n) array filled slab by slab:
    kernel(out, *ins) writes out, a slab of the result, from ins, the same
    slab of each (component, n, n, n) input."""
    out = np.empty((nout,) + arrays[0].shape[1:])
    for sl in _slabs(out.shape[1]):
        kernel(out[:, sl], *(a[:, sl] for a in arrays))
    return out


# component c of S^2 is s[a]*s[b] + s[p]*s[q] + s[x]*s[y], summed in that order
_SYM_SQUARE_TERMS = (
    ((0, 0), (1, 1), (2, 2)),
    ((0, 1), (1, 3), (2, 4)),
    ((0, 2), (1, 4), (2, 5)),
    ((1, 1), (3, 3), (4, 4)),
    ((1, 2), (3, 4), (4, 5)),
    ((2, 2), (4, 4), (5, 5)),
)


def _s_squared_slab(out: np.ndarray, s: np.ndarray) -> None:
    tmp = np.empty_like(s[0])
    for o, ((a, b), (p, q), (x, y)) in zip(out, _SYM_SQUARE_TERMS):
        np.multiply(s[a], s[b], out=o)
        o += np.multiply(s[p], s[q], out=tmp)
        o += np.multiply(s[x], s[y], out=tmp)


def _s_squared_box(grid: GridSpec, s_re: np.ndarray) -> np.ndarray:
    """Dealiased S^2 on the retained box, from real samples of S."""
    return _rfft_box_by_slab(grid, _s_squared_slab, 6, s_re)


def _sym_outer_slab(out: np.ndarray, v: np.ndarray) -> None:
    for o, (i, j) in zip(out, SYM_PAIRS):
        np.multiply(v[i], v[j], out=o)


def _sym_outer_box(grid: GridSpec, v_re: np.ndarray) -> np.ndarray:
    """Dealiased v_i v_j on the retained box, from real samples of v."""
    return _rfft_box_by_slab(grid, _sym_outer_slab, 6, v_re)


def _cross_slab(out: np.ndarray, w: np.ndarray, u: np.ndarray) -> None:
    tmp = np.empty_like(u[0])
    for o, (i, j) in zip(out, ((1, 2), (2, 0), (0, 1))):
        np.multiply(w[i], u[j], out=o)
        o -= np.multiply(w[j], u[i], out=tmp)


def _lamb_box(grid: GridSpec, u_re: np.ndarray, w_re: np.ndarray) -> np.ndarray:
    """P_df(omega x u) on the retained box, from real samples of u and
    omega = curl u.

    For S = sym grad u, (u.grad)S + S^2 + omega x omega/4 = sym grad(omega x u)
    + Hess(|u|^2/2) + |omega|^2 I/4, and P_st annihilates Hessians and
    multiples of I, so sym grad of this is that sum's P_st part, at 3 products
    and one 3-component forward transform. Exact to roundoff while
    3 cutoff <= n + 2 (the 2/3 rule); beyond, both forms alias differently."""
    lamb = _rfft_box_by_slab(grid, _cross_slab, 3, w_re, u_re)
    return _leray_raw(grid.retained, lamb)


def _advect_slab(out: np.ndarray, u: np.ndarray, *grads: np.ndarray) -> None:
    """sum_a u_a d_a S, from u and the three derivatives d_a S."""
    tmp = np.empty_like(out)
    np.multiply(u[0], grads[0], out=out)
    for ua, da in zip(u[1:], grads[1:]):
        out += np.multiply(ua, da, out=tmp)


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
    sh = _as_spectral(S).data
    grads = [_irfft_raw(g, 1j * g.kd[a] * sh) for a in range(3)]
    acc = _rfft_box_by_slab(g, _advect_slab, 6, u.real_samples(), *grads)
    return SymTensorField(g, g.retained.unpack(acc))


# -- eigenvalues ------------------------------------------------------------


def _det_raw(s) -> np.ndarray:
    """Pointwise determinant of symmetric 3x3 matrices given as stacked
    components."""
    xx, xy, xz, yy, yz, zz = s
    return (
        xx * (yy * zz - yz * yz)
        - xy * (xy * zz - yz * xz)
        + xz * (xy * yz - yy * xz)
    )


def _eig3_shift(s):
    """(q, M - qI, p) of symmetric 3x3 matrices M given as stacked components:
    q = tr M / 3, M - qI as stacked components, and p = ||M - qI||_F / sqrt 6."""
    xx, xy, xz, yy, yz, zz = s
    q = (xx + yy + zz) / 3.0
    a, b, c = xx - q, yy - q, zz - q
    p = np.sqrt((a * a + b * b + c * c + 2.0 * (xy * xy + xz * xz + yz * yz)) / 6.0)
    return q, (a, xy, xz, b, yz, c), p


def _eig3_trig(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(q, 2p, phi) of the trigonometric closed form for the eigenvalues of
    symmetric 3x3 matrices given as stacked components, with phi in
    [0, pi/3]: the roots q - 2p sin(phi + pi/6) <= q + 2p sin(phi - pi/6) <=
    q + 2p cos(phi) are ordered by construction, as each factor of 2p keeps
    to its own band and q + 2p x rounds monotonically in x. phi =
    arccos(r)/3 is sqrt(eps)-conditioned where r is near +-1, that is at a
    repeated root."""
    q, shifted, p = _eig3_shift(s)
    psafe = np.where(p > 0, p, 1.0)
    r = np.clip(_det_raw(shifted) / psafe**3 / 2.0, -1.0, 1.0)
    return q, 2.0 * p, np.arccos(r) / 3.0


def _eig3_low(q, two_p, phi) -> np.ndarray:
    """The smallest eigenvalue from _eig3_trig's (q, 2p, phi)."""
    return q - two_p * np.sin(phi + np.pi / 6.0)


def _eig3_middle(q, two_p, phi) -> np.ndarray:
    """The middle eigenvalue from _eig3_trig's (q, 2p, phi): the one lambda2
    of fields, records and eig_symtensor. sin(phi - pi/6) is
    cos(phi + 4 pi/3) at an angle in [-pi/6, pi/6], where the sine costs
    less and the angle carries a smaller rounding error."""
    return q + two_p * np.sin(phi - np.pi / 6.0)


def _eig3_raw(s) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Eigenvalues l1 <= l2 <= l3 of symmetric 3x3 matrices given as stacked
    components."""
    q, two_p, phi = _eig3_trig(s)
    return _eig3_low(q, two_p, phi), _eig3_middle(q, two_p, phi), q + two_p * np.cos(phi)


# below this p, p^3 is subnormal or 0, and so is det(M - qI)
_P_CUBE_UNDERFLOW = np.finfo(np.float64).tiny ** (1.0 / 3.0)


def eig_symtensor(m: np.ndarray) -> EigenTriple:
    """Eigenvalues of one symmetric 3x3 matrix (upper triangle is read), taken
    at a power-of-two scale where its size alone cannot overflow p^3 or
    underflow it. Near a multiple of the identity p^3 can still underflow
    (0/0 in the closed form): there the roots are q plus those of
    (M - qI) / 2^f, a power of two near p."""
    m = np.asarray(m, dtype=np.float64)
    if m.shape != (3, 3):
        raise ValueError(f"expected a 3x3 matrix, got shape {m.shape}")
    if not np.all(np.isfinite(m)):
        raise ValueError("matrix entries must be finite")
    e = math.frexp(float(np.max(np.abs(m))))[1]
    s = [np.ldexp(m[i, j], -e) for i, j in SYM_PAIRS]
    q, shifted, p = _eig3_shift(s)
    if 0.0 < p < _P_CUBE_UNDERFLOW:
        f = math.frexp(float(p))[1]
        roots = [q + np.ldexp(v, f) for v in _eig3_raw([np.ldexp(v, -f) for v in shifted])]
    else:
        roots = _eig3_raw(s)
    return EigenTriple(*(math.ldexp(float(v), e) for v in roots))


def _lambda_slab(out: np.ndarray, s: np.ndarray) -> None:
    q, two_p, phi = _eig3_trig(s)
    out[0], out[1] = _eig3_low(q, two_p, phi), _eig3_middle(q, two_p, phi)
    np.maximum(0.0, out[1], out=out[2])


def lambda_fields(S: SymTensorField) -> tuple[ScalarField, ScalarField, ScalarField]:
    """Pointwise eigenvalue fields (lambda1, lambda2, lambda2+ = max(0, lambda2))."""
    return tuple(ScalarField(S.grid, f) for f in _by_slab(_lambda_slab, 3, S.real_samples()))
