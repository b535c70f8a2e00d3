"""Periodic-box grid, FFT transforms and the spectral multipliers of a mode set."""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from functools import cached_property
from typing import Callable

import numpy as np
import scipy.fft as _fft

__all__ = [
    "GridSpec",
    "RetainedModes",
    "fft_workers",
    "rfft_raw",
    "rfft_retained_raw",
    "irfft_raw",
    "irfft_retained_raw",
]

_AXES = (-3, -2, -1)


def fft_workers() -> int:
    """Worker count for FFT calls, capped by STRAINAMP_THREADS (an integer >= 1)."""
    cap = os.environ.get("STRAINAMP_THREADS")
    avail = os.cpu_count() or 1
    if cap is None:
        return avail
    if not (cap.strip().isdecimal() and int(cap) >= 1):
        raise ValueError(f"STRAINAMP_THREADS must be an integer >= 1, got {cap!r}")
    return min(int(cap), avail)


def rfft_raw(grid: "GridSpec", a: np.ndarray) -> np.ndarray:
    """Mean-normalized r2c transform; sample j sits at x = modes1[j] * dx, so
    the coefficients are directly those of the exp(i k . x) expansion."""
    return _fft.rfftn(a, axes=_AXES, workers=fft_workers(), norm="forward")


# -- x-slabs ------------------------------------------------------------------
#
# Every pointwise real-space pass and every forward box transform runs over
# x-slabs of about _SLAB_POINTS points, 128 KB per float64 temporary, so its
# temporaries stay in cache instead of each op streaming full n^3 arrays.
# Slabs are views (x is the slowest axis), each point's arithmetic and each
# z-line's transform are the same whatever the slab size, and every
# reduction runs once over a full-size result, so no bit depends on it.

_SLAB_POINTS = 16384


def _slabs(n: int) -> list[slice]:
    """Slices cutting axis x of an n^3 grid into slabs of about _SLAB_POINTS
    points (at least one plane each)."""
    k = max(1, _SLAB_POINTS // (n * n))
    return [slice(i, min(i + k, n)) for i in range(0, n, k)]


# The box transforms run pocketfft's multi-axis passes one axis at a time, in
# its order (the forward: r2c along z, then c2c along x, then y; the inverse:
# c2c along x, then y, then c2r along z), each in place and only on the lines
# that hold box data or feed box modes. Every line sees the same arithmetic
# as inside rfftn/irfftn, so the outputs keep their bits. The forward's 1/n^3
# is one rounded factor, applied where pocketfft applies it, to the r2c
# output; 1/n on each pass would round differently unless n is a power of 2.
#
# The forward shares one slab loop with the pseudo-spectral products that
# feed it: each x-slab of the product is built into one reused slab buffer,
# r2c-transformed along z, and only its first `cutoff` z-modes are kept, in a
# compact (..., n, n, cutoff) buffer. No full-size product or full-height
# half-spectrum is formed; the x and y passes then run on the compact buffer.


def _pass(fn, a: np.ndarray, axis: int, workers: int, norm: str) -> None:
    """1-D transform `fn` of view `a` along `axis`, written back into `a`
    (overwrite_x permits scipy to work in place but does not promise it)."""
    out = fn(a, axis=axis, norm=norm, overwrite_x=True, workers=workers)
    if not np.shares_memory(out, a):
        a[...] = out


def _r2c_kept(grid, kernel, nout, arrays, workers) -> np.ndarray:
    """The forward's first pass, slab by slab: the r2c along z of the product
    (or of arrays[0] when kernel is None), cut to its first cutoff z-modes.
    Its slab temporaries are freed on return, before the x and y passes."""
    n, c = grid.n, grid.cutoff
    slabs = _slabs(n)
    if kernel is None:
        (a,) = arrays
        lead = a.shape[:-3]
    else:
        lead = (nout,)
        buf = np.empty((nout, slabs[0].stop, n, n))  # the first slab is the widest
    out = np.empty(lead + (n, n, c), dtype=np.complex128)
    for sl in slabs:
        if kernel is None:
            src = a[..., sl, :, :]
        else:
            src = buf[:, : sl.stop - sl.start]
            kernel(src, *(x[:, sl] for x in arrays))
        z = _fft.rfftn(src, axes=(-1,), workers=workers, norm="backward")
        out[..., sl, :, :] = z[..., :c]
    return out


def _rfft_box_by_slab(
    grid: "GridSpec", kernel: Callable[..., None] | None, nout: int, *arrays: np.ndarray
) -> np.ndarray:
    """rfft_retained_raw of the (nout, n, n, n) product that kernel(out, *ins)
    writes slab by slab (out a slab of the product, ins the same slab of each
    (component, n, n, n) input), without forming it. With kernel None,
    rfft_retained_raw of arrays[0] itself (any leading axes)."""
    r, w = grid.retained, fft_workers()
    kept = _r2c_kept(grid, kernel, nout, arrays, w)
    parts = kept.view(np.float64)  # real and imaginary parts, scaled alike
    parts *= np.float64(1 / np.longdouble(grid.n) ** 3)
    _pass(_fft.fft, kept, -3, w, "backward")
    for rows in r.rows:
        _pass(_fft.fft, kept[..., rows, :, :], -2, w, "backward")
    return r.pack(kept)


def rfft_retained_raw(grid: "GridSpec", a: np.ndarray) -> np.ndarray:
    """Forward transform gathered onto the retained box: the dealiased
    coefficients, without the zeros outside it. Equal bit for bit to
    grid.retained.pack(rfft_raw(grid, a))."""
    return _rfft_box_by_slab(grid, None, 0, a)


def _irfft_full(grid: "GridSpec", ah: np.ndarray) -> np.ndarray:
    """Real samples of full-layout coefficients `ah`, by the unpruned inverse."""
    n = grid.n
    return _fft.irfftn(
        ah, s=(n, n, n), axes=_AXES, workers=fft_workers(), norm="forward"
    )


def irfft_raw(grid: "GridSpec", ah: np.ndarray) -> np.ndarray:
    """Real samples of full-layout coefficients `ah`, through the pruned box
    passes when `ah` is zero outside the retained box (the same bits)."""
    r = grid.retained
    if r.holds(ah):
        return irfft_retained_raw(grid, r.pack(ah))
    return _irfft_full(grid, ah)


def irfft_retained_raw(grid: "GridSpec", bh: np.ndarray) -> np.ndarray:
    """Real samples of coefficients held on the retained box. Equal bit for
    bit to irfftn of grid.retained.unpack(bh) over the three grid axes."""
    r, w = grid.retained, fft_workers()
    buf = r.unpack(bh)
    kept = buf[..., : grid.cutoff]
    for rows in r.rows:
        _pass(_fft.ifft, kept[..., rows, :], -3, w, "forward")
    _pass(_fft.ifft, kept, -2, w, "forward")
    return _fft.irfftn(buf, s=(grid.n,), axes=(-1,), workers=w, norm="forward")


# -- mode sets -------------------------------------------------------------------


def _grid3(x: np.ndarray, y: np.ndarray, z: np.ndarray):
    """1-D axis arrays made broadcastable along axes x, y and z."""
    return x[:, None, None], y[None, :, None], z[None, None, :]


def _reciprocal(a: np.ndarray) -> np.ndarray:
    """1/a, zero where a vanishes."""
    out = np.zeros_like(a)
    np.divide(1.0, a, out=out, where=a > 0)
    return out


class _ModeSet:
    """A set of stored spectral modes and the multipliers defined on it.

    A subclass supplies n, box_length, cutoff and the signed integer mode
    indices along the two full axes (modes1) and along the halved one
    (modes1_half). Every multiplier is an elementwise expression of those, so
    on a subset of the modes it equals, bit for bit, the multiplier on the
    full layout gathered to that subset, and each operator written against a
    mode set runs unchanged on either layout.
    """

    @cached_property
    def k1(self) -> np.ndarray:
        return (2.0 * np.pi / self.box_length) * self.modes1

    @cached_property
    def k1_half(self) -> np.ndarray:
        return (2.0 * np.pi / self.box_length) * self.modes1_half

    @cached_property
    def k2(self) -> np.ndarray:
        """|k|^2 per stored mode, true wavenumbers (Nyquist included)."""
        kx, ky, kz = _grid3(self.k1, self.k1, self.k1_half)
        return kx**2 + ky**2 + kz**2

    @cached_property
    def inv_k2(self) -> np.ndarray:
        """1/|k|^2 with the zero mode set to 0 (zero-mean convention)."""
        return _reciprocal(self.k2)

    # Derivative wavenumbers zero the Nyquist mode (|m| = n/2) on every axis
    # so that d/dx_i maps real fields to real fields and stays antisymmetric.
    # All vector-calculus operators (curl, div, Leray, strain projection) are
    # built from these, which keeps projections exactly idempotent per mode.

    @cached_property
    def kd1(self) -> np.ndarray:
        return np.where(np.abs(self.modes1) == self.n // 2, 0.0, self.k1)

    @cached_property
    def kd1_half(self) -> np.ndarray:
        return np.where(self.modes1_half == self.n // 2, 0.0, self.k1_half)

    @cached_property
    def kd(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable derivative wavenumber arrays (kappa_x, kappa_y, kappa_z)."""
        return _grid3(self.kd1, self.kd1, self.kd1_half)

    @cached_property
    def kd2(self) -> np.ndarray:
        kx, ky, kz = self.kd
        return kx**2 + ky**2 + kz**2

    @cached_property
    def inv_kd2(self) -> np.ndarray:
        """1/|kappa|^2, zero where kappa vanishes (zero mode and pure-Nyquist modes)."""
        return _reciprocal(self.kd2)

    # -- masks and quadrature weights ------------------------------------

    @cached_property
    def dealias_mask(self) -> np.ndarray:
        """Boolean retain-mask: True where all |m_i| <= cutoff - 1."""
        full, half = np.abs(self.modes1) < self.cutoff, self.modes1_half < self.cutoff
        mx, my, mz = _grid3(full, full, half)
        return mx & my & mz

    @cached_property
    def hermitian_weight(self) -> np.ndarray:
        """Multiplicity of each stored mode along the halved axis (2 for interior)."""
        m = self.modes1_half
        return np.where((m == 0) | (m == self.n // 2), 1.0, 2.0)

    @cached_property
    def shell_index(self) -> np.ndarray:
        """Integer radial shell round(|m|) per stored mode."""
        full, half = self.modes1.astype(np.float64), self.modes1_half.astype(np.float64)
        mx, my, mz = _grid3(full, full, half)
        return np.rint(np.sqrt(mx**2 + my**2 + mz**2)).astype(np.int64)

    @cached_property
    def tail_mask(self) -> np.ndarray:
        """Retained modes in the top 1/8 of radial shells (resolution monitor)."""
        return self.dealias_mask & (self.shell_index > 0.875 * (self.cutoff - 1))


@dataclass(frozen=True)
class GridSpec(_ModeSet):
    """Uniform grid on the periodic cube [-L/2, L/2)^3, with the full
    real-to-complex layout of its spectral modes as its mode set.

    Wavenumbers are k = 2*pi*m/L for integer mode indices m in [-n/2, n/2).
    Spectral coefficients follow the mean normalization: the forward
    transform divides by n^3, so the m=0 coefficient is the field mean and
    multiplier operators carry their continuum symbols unchanged.

    Parameters
    ----------
    n : int
        Points per axis; even, with 8 <= n <= 4096.
    box_length : float
        Side length L of the cube.
    dealias_fraction : float
        Fraction of retained modes per axis, in (0, 1]. The cutoff is
        floor(dealias_fraction * n/2); modes with any |m_i| >= cutoff are
        zeroed by dealiasing.
    """

    n: int
    box_length: float
    dealias_fraction: float = 2.0 / 3.0

    def __post_init__(self) -> None:
        if self.n % 2 != 0 or not 8 <= self.n <= 4096:
            raise ValueError(f"n must be even with 8 <= n <= 4096, got {self.n}")
        if not (np.isfinite(self.box_length) and self.box_length > 0):
            raise ValueError(
                f"box_length must be positive and finite, got {self.box_length}"
            )
        if not 0.0 < self.dealias_fraction <= 1.0:
            raise ValueError(
                f"dealias_fraction must lie in (0, 1], got {self.dealias_fraction}"
            )
        if self.cutoff < 1:
            raise ValueError("dealias cutoff must be >= 1")

    # -- geometry -------------------------------------------------------

    @property
    def dx(self) -> float:
        return self.box_length / self.n

    @property
    def cell_volume(self) -> float:
        return self.dx**3

    @property
    def cutoff(self) -> int:
        return int(np.floor(self.dealias_fraction * self.n / 2))

    @property
    def spectral_shape(self) -> tuple[int, int, int]:
        """Shape of one spectral component (real-to-complex layout, last axis halved)."""
        return (self.n, self.n, self.n // 2 + 1)

    @property
    def real_shape(self) -> tuple[int, int, int]:
        return (self.n, self.n, self.n)

    @cached_property
    def x1(self) -> np.ndarray:
        """Sample coordinates along one axis in FFT storage order: index j holds
        x = modes1[j] * dx, covering [-L/2, L/2) with the origin at index 0.
        This ordering makes exp(i k x_j) = exp(2 pi i m j / n) exactly, so
        transforms carry no origin phase; use to_monotone() for I/O."""
        return self.dx * self.modes1.astype(np.float64)

    def coords(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Broadcastable coordinate arrays (X, Y, Z) centered on the box."""
        return _grid3(self.x1, self.x1, self.x1)

    def to_monotone(self, a: np.ndarray) -> np.ndarray:
        """Reorder trailing grid axes from FFT storage order to increasing x:
        a roll by n/2 on each, which swaps its two halves (n is even),
        gathered in one copy into a new C-ordered array."""
        h = self.n // 2
        out = np.empty(a.shape, dtype=a.dtype)
        halves = ((slice(0, h), slice(h, None)), (slice(h, None), slice(0, h)))
        for (ox, ix), (oy, iy), (oz, iz) in itertools.product(halves, repeat=3):
            out[..., ox, oy, oz] = a[..., ix, iy, iz]
        return out

    def from_monotone(self, a: np.ndarray) -> np.ndarray:
        """The inverse of to_monotone, which is the same swap of halves."""
        return self.to_monotone(a)

    # -- the full layout's mode indices -----------------------------------

    @cached_property
    def modes1(self) -> np.ndarray:
        """Signed integer mode indices along a full axis, FFT ordering."""
        return np.fft.fftfreq(self.n, 1.0 / self.n).astype(np.int64)

    @cached_property
    def modes1_half(self) -> np.ndarray:
        """Mode indices along the real-to-complex axis, 0..n/2."""
        return np.arange(self.n // 2 + 1, dtype=np.int64)

    @cached_property
    def retained(self) -> "RetainedModes":
        """The modes kept by dealiasing, stored densely (see RetainedModes)."""
        return RetainedModes(self)


class RetainedModes(_ModeSet):
    """The 2/3-rule box of modes with every |m_i| <= cutoff - 1, stored as a
    dense (2c-1, 2c-1, c) array in FFT order, c = cutoff.

    Along the two full axes the box holds m = 0..c-1 then -(c-1)..-1; along
    the halved axis m = 0..c-1. A dealiased field is exactly zero outside the
    box, so mode-by-mode operators give the same values on the packed array
    as on the full layout. As a mode set it carries n, cutoff, box_length
    and its own modes1 and modes1_half, from which each multiplier (k2,
    inv_k2, kd, kd2, inv_kd2, hermitian_weight, dealias_mask, shell_index,
    tail_mask) is formed on first use, equal to the packed GridSpec array, so
    the `_raw` helpers accept the box in place of a grid.
    """

    def __init__(self, grid: GridSpec) -> None:
        n, c = grid.n, grid.cutoff
        self.n, self.cutoff, self.box_length = n, c, grid.box_length
        self.full_shape = grid.spectral_shape
        self.shape = (2 * c - 1, 2 * c - 1, c)
        # the box is four blocks of the full layout: (lo | hi) x (lo | hi) x [:c]
        lo, hi = slice(0, c), slice(n - c + 1, n)
        self.rows = (lo, hi)  # the box indices along a full axis
        self.modes1 = np.concatenate([grid.modes1[lo], grid.modes1[hi]])
        self.modes1_half = grid.modes1_half[:c]
        self._blocks = [
            ((bx, by, slice(None)), (fx, fy, slice(0, c)))
            for bx, fx in ((slice(0, c), lo), (slice(c, None), hi))
            for by, fy in ((slice(0, c), lo), (slice(c, None), hi))
        ]
        self._outside = (
            (slice(c, n - c + 1), slice(None), slice(None)),
            (slice(None), slice(c, n - c + 1), slice(None)),
            (slice(None), slice(None), slice(c, None)),
        )

    def pack(self, a: np.ndarray) -> np.ndarray:
        """Gather the box out of a full-layout array (leading axes kept; the
        halved axis may be cut to its first cutoff modes)."""
        out = np.empty(a.shape[:-3] + self.shape, dtype=a.dtype)
        for box, full in self._blocks:
            out[(..., *box)] = a[(..., *full)]
        return out

    def unpack(self, b: np.ndarray) -> np.ndarray:
        """Scatter a box array into the full layout, zero outside the box."""
        out = np.zeros(b.shape[:-3] + self.full_shape, dtype=b.dtype)
        for box, full in self._blocks:
            out[(..., *full)] = b[(..., *box)]
        return out

    def holds(self, a: np.ndarray) -> bool:
        """True when every mode of full-layout `a` outside the box is zero."""
        return not any(np.any(a[(..., *sl)]) for sl in self._outside)
