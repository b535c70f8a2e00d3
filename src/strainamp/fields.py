"""Scalar, vector, and symmetric-tensor fields with dual real/spectral storage."""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .grid import GridSpec, irfft_raw

__all__ = [
    "ScalarField",
    "VectorField",
    "SymTensorField",
    "SYM_PAIRS",
    "SYM_WEIGHTS",
    "l2_inner",
    "l2_norm_sq",
]

# Symmetric 3x3 storage order and bookkeeping. Off-diagonals are stored once;
# SYM_WEIGHTS carries their Frobenius multiplicity.
SYM_PAIRS = ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))
SYM_WEIGHTS = np.array([1.0, 2.0, 2.0, 1.0, 2.0, 1.0])


@dataclass(frozen=True)
class _Field:
    """Shared storage: `data` is float64 samples or complex128 coefficients.

    Real-space data has trailing shape (n, n, n) with x varying on the first
    axis; spectral data has trailing shape (n, n, n//2 + 1) in the
    real-to-complex layout (Hermitian symmetry implicit in the halved axis).
    A field holds its grid and data and nothing derived from them, so
    holding a state keeps only its coefficients alive.
    """

    grid: GridSpec
    data: np.ndarray

    ncomp: ClassVar[int] = 1

    def __post_init__(self) -> None:
        lead = (self.ncomp,) if self.ncomp > 1 else ()
        if self.data.dtype == np.float64:
            expect = lead + self.grid.real_shape
        elif self.data.dtype == np.complex128:
            expect = lead + self.grid.spectral_shape
        else:
            raise ValueError(f"unsupported field dtype {self.data.dtype}")
        if self.data.shape != expect:
            raise ValueError(
                f"{type(self).__name__} data shape {self.data.shape}, expected {expect}"
            )

    @property
    def spectral(self) -> bool:
        return self.data.dtype == np.complex128

    def component(self, i: int) -> "ScalarField":
        if self.ncomp == 1:
            raise ValueError("scalar fields have no components")
        return ScalarField(self.grid, self.data[i])

    def real_samples(self) -> np.ndarray:
        """Real-space sample array: `data` itself for a real field, else a
        new inverse transform on each call."""
        if not self.spectral:
            return self.data
        return irfft_raw(self.grid, self.data)


class ScalarField(_Field):
    ncomp: ClassVar[int] = 1


class VectorField(_Field):
    ncomp: ClassVar[int] = 3


class SymTensorField(_Field):
    ncomp: ClassVar[int] = 6


def _component_weights(a: np.ndarray) -> np.ndarray | float:
    """Frobenius multiplicities of the leading axis: SYM_WEIGHTS for a
    6-component tensor array, 1 otherwise."""
    if a.shape[:-3] == (6,):
        return SYM_WEIGHTS.reshape(6, 1, 1, 1)
    return 1.0


def _mode_sum(lay, a: np.ndarray, b: np.ndarray, mult=None) -> float:
    """L^3 sum over stored modes of w Re(conj(a) b), optionally times the
    multiplier `mult`, on a layout `lay` (a GridSpec or its retained box):
    w is the Hermitian multiplicity times the Frobenius component weights."""
    w = _component_weights(a) * lay.hermitian_weight
    if mult is not None:
        w = w * mult
    s = np.sum(w * (a.real * b.real + a.imag * b.imag))
    return float(lay.box_length**3 * s)


def l2_inner(a: _Field, b: _Field) -> float:
    """Discrete L^2 inner product over the box.

    Symmetric tensors use the Frobenius pairing (off-diagonals counted
    twice). Spectral fields sum L^3 * sum_m conj(a)b with Hermitian
    multiplicities; real fields use the midpoint rule.
    """
    if type(a) is not type(b) or a.grid != b.grid or a.spectral != b.spectral:
        raise ValueError("inner product requires matching field types and grids")
    if a.spectral:
        return _mode_sum(a.grid, a.data, b.data)
    w = _component_weights(a.data)
    return float(a.grid.cell_volume * np.sum(w * a.data * b.data))


def l2_norm_sq(a: _Field) -> float:
    return l2_inner(a, a)
