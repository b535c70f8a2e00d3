"""Fused elementwise kernels for the time-stepping hot path.

Numerically identical to the plain numpy formulations (no fastmath); they
exist to cut temporary-array traffic in the per-stage loop. Everything here
is an implementation detail of operators/dynamics.
"""

from __future__ import annotations

import os

import numpy as np

os.environ.setdefault("NUMBA_THREADING_LAYER", "omp")

try:
    import numba
    from numba import njit, prange

    _cap = os.environ.get("STRAINAMP_THREADS")
    if _cap is not None:
        numba.set_num_threads(max(1, min(int(_cap), numba.config.NUMBA_NUM_THREADS)))
    HAVE_NUMBA = True
except ImportError:  # pragma: no cover - numba is a hard speedup, soft dependency
    HAVE_NUMBA = False

    def njit(*args, **kwargs):
        def deco(fn):
            return fn

        return deco

    prange = range


@njit(parallel=True, cache=True)
def _sym_square_flat(s: np.ndarray, out: np.ndarray) -> None:
    npts = s.shape[1]
    for i in prange(npts):
        xx = s[0, i]
        xy = s[1, i]
        xz = s[2, i]
        yy = s[3, i]
        yz = s[4, i]
        zz = s[5, i]
        out[0, i] = xx * xx + xy * xy + xz * xz
        out[1, i] = xx * xy + xy * yy + xz * yz
        out[2, i] = xx * xz + xy * yz + xz * zz
        out[3, i] = xy * xy + yy * yy + yz * yz
        out[4, i] = xy * xz + yy * yz + yz * zz
        out[5, i] = xz * xz + yz * yz + zz * zz


# component c of S^2 is s[a]*s[b] + s[p]*s[q] + s[x]*s[y], summed in that order
_SYM_SQUARE_TERMS = (
    ((0, 0), (1, 1), (2, 2)),
    ((0, 1), (1, 3), (2, 4)),
    ((0, 2), (1, 4), (2, 5)),
    ((1, 1), (3, 3), (4, 4)),
    ((1, 2), (3, 4), (4, 5)),
    ((2, 2), (4, 4), (5, 5)),
)


def sym_square(s: np.ndarray) -> np.ndarray:
    """Pointwise matrix square of stacked symmetric components."""
    out = np.empty_like(s)
    if HAVE_NUMBA:
        _sym_square_flat(s.reshape(6, -1), out.reshape(6, -1))
        return out
    tmp = np.empty_like(s[0])
    for o, ((a, b), (p, q), (x, y)) in zip(out, _SYM_SQUARE_TERMS):
        np.multiply(s[a], s[b], out=o)
        o += np.multiply(s[p], s[q], out=tmp)
        o += np.multiply(s[x], s[y], out=tmp)
    return out


@njit(parallel=True, cache=True)
def _strain_project_kernel(m, kdx, kdy, kdz, out) -> None:
    nx, ny, nz = m.shape[1], m.shape[2], m.shape[3]
    for ix in prange(nx):
        kx = kdx[ix]
        for iy in range(ny):
            ky = kdy[iy]
            for iz in range(nz):
                kz = kdz[iz]
                k2 = kx * kx + ky * ky + kz * kz
                if k2 == 0.0:
                    for c in range(6):
                        out[c, ix, iy, iz] = 0.0
                    continue
                inv = 1.0 / k2
                a0 = kx * m[0, ix, iy, iz] + ky * m[1, ix, iy, iz] + kz * m[2, ix, iy, iz]
                a1 = kx * m[1, ix, iy, iz] + ky * m[3, ix, iy, iz] + kz * m[4, ix, iy, iz]
                a2 = kx * m[2, ix, iy, iz] + ky * m[4, ix, iy, iz] + kz * m[5, ix, iy, iz]
                ka = (kx * a0 + ky * a1 + kz * a2) * inv
                b0 = a0 - kx * ka
                b1 = a1 - ky * ka
                b2 = a2 - kz * ka
                out[0, ix, iy, iz] = inv * (2.0 * kx * b0)
                out[1, ix, iy, iz] = inv * (kx * b1 + ky * b0)
                out[2, ix, iy, iz] = inv * (kx * b2 + kz * b0)
                out[3, ix, iy, iz] = inv * (2.0 * ky * b1)
                out[4, ix, iy, iz] = inv * (ky * b2 + kz * b1)
                out[5, ix, iy, iz] = inv * (2.0 * kz * b2)


def strain_project_apply(grid, mh: np.ndarray) -> np.ndarray:
    """P_st in one pass: sym_grad(-2 (-lap)^{-1} P_df div M), kappa wavenumbers."""
    out = np.empty_like(mh)
    _strain_project_kernel(mh, grid.kd1, grid.kd1, grid.kd1_half, out)
    return out


@njit(parallel=True, cache=True)
def _max_frobenius_sq(s) -> float:
    # max over points of sum_c w_c s_c^2 for 6-component symmetric storage
    npts = s.shape[1]
    best = np.zeros(npts // 4096 + 1)
    for blk in prange(npts // 4096 + 1):
        lo = blk * 4096
        hi = min(lo + 4096, npts)
        m = 0.0
        for i in range(lo, hi):
            v = (
                s[0, i] * s[0, i]
                + 2.0 * s[1, i] * s[1, i]
                + 2.0 * s[2, i] * s[2, i]
                + s[3, i] * s[3, i]
                + 2.0 * s[4, i] * s[4, i]
                + s[5, i] * s[5, i]
            )
            if v > m:
                m = v
        best[blk] = m
    return best.max()


@njit(parallel=True, cache=True)
def _max_vector_sq(u) -> float:
    npts = u.shape[1]
    best = np.zeros(npts // 4096 + 1)
    for blk in prange(npts // 4096 + 1):
        lo = blk * 4096
        hi = min(lo + 4096, npts)
        m = 0.0
        for i in range(lo, hi):
            v = u[0, i] * u[0, i] + u[1, i] * u[1, i] + u[2, i] * u[2, i]
            if v > m:
                m = v
        best[blk] = m
    return best.max()


@njit(parallel=True, cache=True)
def _rk_stage2(x, n1, e_half, half_dt, out) -> None:
    ncomp, npts = x.shape
    for i in prange(npts):
        e = e_half[i]
        for c in range(ncomp):
            out[c, i] = e * (x[c, i] + half_dt * n1[c, i])


@njit(parallel=True, cache=True)
def _rk_stage3(x, n2, e_half, half_dt, out) -> None:
    ncomp, npts = x.shape
    for i in prange(npts):
        e = e_half[i]
        for c in range(ncomp):
            out[c, i] = e * x[c, i] + half_dt * n2[c, i]


@njit(parallel=True, cache=True)
def _rk_stage4(x, n3, e_half, dt, out) -> None:
    ncomp, npts = x.shape
    for i in prange(npts):
        e = e_half[i]
        e2 = e * e
        for c in range(ncomp):
            out[c, i] = e2 * x[c, i] + dt * e * n3[c, i]


@njit(parallel=True, cache=True)
def _rk_final(x, n1, n2, n3, n4, e_half, dt6, out) -> None:
    ncomp, npts = x.shape
    for i in prange(npts):
        e = e_half[i]
        e2 = e * e
        for c in range(ncomp):
            out[c, i] = e2 * x[c, i] + dt6 * (
                e2 * n1[c, i] + 2.0 * e * (n2[c, i] + n3[c, i]) + n4[c, i]
            )
