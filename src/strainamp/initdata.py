"""Constructors for initial data: colliding jets, random solenoidal fields,
projection probes, and the dilated perturbation family."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .fields import ScalarField, SymTensorField, VectorField, _mode_sum, l2_norm_sq
from .grid import GridSpec, rfft_retained_raw
from .operators import (
    _as_spectral,
    _leray_raw,
    _strain_of_raw,
    leray_project,
    strain_of,
    strain_project,
)
from .spectral import dealias, forward_transform

__all__ = [
    "InitSpec",
    "INIT_KINDS",
    "colliding_jets",
    "random_solenoidal",
    "hessian_probe",
    "perturbed_family",
    "initial_strain",
]

INIT_KINDS = (
    "colliding_jets",
    "random_solenoidal",
    "hessian_probe",
    "perturbed_family",
    "from_checkpoint",
)


@dataclass(frozen=True)
class InitSpec:
    """Flat description of an initial condition (mirrors the run config keys)."""

    kind: str
    amplitude: float = 1.0
    seed: int = 0
    lam: float = 1.0
    center: tuple[float, float, float] = (0.0, 0.0, 0.0)
    path: str | None = None
    slope: float = -4.0

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown initial-data kind {self.kind!r}")
        if not np.isfinite(self.amplitude):
            raise ValueError("amplitude must be finite")
        if self.kind == "perturbed_family" and self.lam < 1:
            raise ValueError("lambda must be >= 1 for perturbed_family")
        if self.kind == "from_checkpoint" and not self.path:
            raise ValueError("from_checkpoint requires a path")


def _centered_coords(grid: GridSpec, center):
    x, y, z = grid.coords()
    cx, cy, cz = center
    return x - cx, y - cy, z - cz


def colliding_jets(
    grid: GridSpec, m: float, center=(0.0, 0.0, 0.0)
) -> VectorField:
    """Axisymmetric, swirl-free colliding-jets velocity with Gaussian decay.

    u = m * ((1 - 2 z^2) (x, y, 0) + (-2z + 2(x^2 + y^2) z) (0, 0, 1)) e^{-|x|^2},
    coordinates relative to `center`. Divergence-free by construction; its
    strain has -int det(S) = 8 pi^{3/2} / (81 sqrt(3)) at m = 1. Full r2c
    layout, not dealiased.
    """
    # the sampled field is divergence-free only up to aliasing of the Gaussian
    # tail; project so the discrete constraint holds exactly at any resolution
    return leray_project(forward_transform(VectorField(grid, _jets_samples(grid, m, center))))


def _jets_samples(grid: GridSpec, m: float, center) -> np.ndarray:
    """Real samples of the colliding-jets velocity, unprojected."""
    if grid.box_length < 16:
        warnings.warn(
            f"box_length {grid.box_length} < 16: Gaussian truncation at the "
            "boundary is no longer negligible",
            stacklevel=3,
        )
    x, y, z = _centered_coords(grid, center)
    envelope = m * np.exp(-(x * x + y * y + z * z))
    planar = 1.0 - 2.0 * z * z
    axial = -2.0 * z + 2.0 * (x * x + y * y) * z
    return np.stack([planar * x * envelope, planar * y * envelope, axial * envelope])


def _jets_box(grid: GridSpec, m: float, center) -> np.ndarray:
    """colliding_jets on the retained box: its dealiased coefficients."""
    return _leray_raw(grid.retained, rfft_retained_raw(grid, _jets_samples(grid, m, center)))


def random_solenoidal(
    grid: GridSpec, seed: int, slope: float = -4.0, amplitude: float = 1.0
) -> VectorField:
    """Leray-projected Gaussian field with shell energy spectrum ~ |k|^slope.

    Deterministic in `seed`; spectral support strictly below the dealias
    cutoff; normalized so the L^2 norm equals `amplitude`.
    """
    return VectorField(grid, grid.retained.unpack(_random_box(grid, seed, slope, amplitude)))


def _random_box(grid: GridSpec, seed: int, slope: float, amplitude: float) -> np.ndarray:
    """random_solenoidal on the retained box, where all its modes lie."""
    if slope >= -1:
        raise ValueError(f"slope must be < -1 for a summable spectrum, got {slope}")
    r = grid.retained
    rng = np.random.default_rng(seed)
    vh = rfft_retained_raw(grid, rng.standard_normal((3,) + grid.real_shape))
    # per-mode amplitude |k|^{(slope-2)/2} makes the shell-summed spectrum ~ |k|^slope
    shaping = np.zeros_like(r.k2)
    np.power(r.k2, (slope - 2.0) / 4.0, out=shaping, where=r.k2 > 0)
    proj = _leray_raw(r, vh * shaping)
    if amplitude == 0.0:
        return np.zeros_like(proj)
    norm = np.sqrt(_mode_sum(r, proj, proj))
    if norm == 0.0:
        return proj
    return proj * (amplitude / norm)


def hessian_probe(grid: GridSpec, f_kind: str = "hessian", center=(0.0, 0.0, 0.0)) -> SymTensorField:
    """Probe tensors in the orthogonal complement of the strain space.

    f_kind "hessian" builds the spectral Hessian of f = exp(-|x - c|^2);
    f_kind "identity" builds f * I3. Both are annihilated by strain_project.
    """
    x, y, z = _centered_coords(grid, center)
    f = np.exp(-(x * x + y * y + z * z))
    fh = forward_transform(ScalarField(grid, f)).data
    if f_kind == "hessian":
        kx, ky, kz = grid.kd
        comps = np.stack(
            [
                -kx * kx * fh,
                -kx * ky * fh,
                -kx * kz * fh,
                -ky * ky * fh,
                -ky * kz * fh,
                -kz * kz * fh,
            ]
        )
    elif f_kind == "identity":
        zero = np.zeros_like(fh)
        comps = np.stack([fh, zero, zero, fh, zero, fh])
    else:
        raise ValueError(f"unknown probe kind {f_kind!r}")
    return SymTensorField(grid, comps)


def _dilate_modes(grid: GridSpec, data: np.ndarray, lam: int) -> np.ndarray:
    """Map mode m -> lam*m with amplitude factor lam^{-3/2}.

    Reproduces the continuum dilation Q(lam x) volume-normalized so that
    ||Q^lam||_{H^s}^2 = lam^{2s-3} ||Q||_{H^s}^2 exactly on the grid.
    """
    n = grid.n
    out = np.zeros_like(data)
    m_full = grid.modes1
    m_half = grid.modes1_half
    # source modes whose image stays representable
    keep_full = np.abs(m_full) * lam < n // 2
    keep_half = m_half * lam <= n // 2
    src_f = np.nonzero(keep_full)[0]
    src_h = np.nonzero(keep_half)[0]
    dst_f = (m_full[src_f] * lam) % n
    dst_h = m_half[src_h] * lam
    block = data[..., src_f[:, None, None], src_f[None, :, None], src_h[None, None, :]]
    out[..., dst_f[:, None, None], dst_f[None, :, None], dst_h[None, None, :]] = block
    return out * lam**-1.5


def perturbed_family(
    M: SymTensorField, Q: SymTensorField, lam: int
) -> SymTensorField:
    """S^lam = M + Q^lam where Q^lam dilates Q's modes by the factor lam.

    lam must be one of {1, 2, 4, 8} and small enough that Q's spectral
    support stays below the dealias cutoff after dilation.
    """
    if lam not in (1, 2, 4, 8):
        raise ValueError(f"lambda must be one of 1, 2, 4, 8, got {lam}")
    mf = _as_spectral(M)
    qf = _as_spectral(Q)
    if mf.grid != qf.grid:
        raise ValueError("M and Q must share a grid")
    g = mf.grid
    if lam > 1:
        mags = np.abs(qf.data).max(axis=0)
        tol = 1e-13 * mags.max() if mags.size else 0.0
        occupied = mags > tol
        support = int(g.shell_index[occupied].max()) if occupied.any() else 0
        # shell_index is the rounded |m|; bound per-axis support by it
        if support * lam > g.cutoff - 1:
            raise ValueError(
                f"dilation by {lam} pushes Q's support (|m| ~ {support}) past "
                f"the dealias cutoff {g.cutoff}"
            )
        qdat = _dilate_modes(g, qf.data, lam)
    else:
        qdat = qf.data
    return strain_project(SymTensorField(g, mf.data + qdat))


def _box_strain(grid: GridSpec, uh: np.ndarray) -> SymTensorField:
    """strain_of a velocity held on the retained box, unpacked."""
    r = grid.retained
    return SymTensorField(grid, r.unpack(_strain_of_raw(r, uh)))


def initial_strain(grid: GridSpec, spec: InitSpec) -> SymTensorField:
    """Build the initial strain tensor for a run from an InitSpec, dealiased
    but not projected: dynamics.make_state projects it (a hessian_probe to 0).

    Colliding jets and random data are built on the retained box, where the
    strain_of divergence gate (ConstraintError above 1e-8) and sym grad run,
    and unpacked once, with no full-layout transform: the jets give
    dealias(strain_of(colliding_jets(...))) bit for bit, random data the
    values of strain_of(random_solenoidal(...)). A checkpoint gives the S of
    the state read_checkpoint reads, which is already zero outside the box.

    perturbed_family uses colliding jets as the base M and, as Q, the strain
    of a seeded random solenoidal field restricted to the highest shell band
    that still dilates by 8 inside the cutoff, normalized to ||Q|| = ||M||.
    The high band makes ||lap Q^lam|| a real share of the denominator, so the
    ratio visibly decreases along lam in {1, 2, 4, 8}.
    """
    if spec.kind == "colliding_jets":
        return _box_strain(grid, _jets_box(grid, spec.amplitude, spec.center))
    if spec.kind == "random_solenoidal":
        return _box_strain(grid, _random_box(grid, spec.seed, spec.slope, spec.amplitude))
    if spec.kind == "from_checkpoint":
        from .dynamics import read_checkpoint

        S = read_checkpoint(spec.path, dealias_fraction=grid.dealias_fraction).S
        if S.grid.n != grid.n or S.grid.box_length != grid.box_length:
            raise ValueError(
                "checkpoint grid does not match the configured grid: "
                f"{S.grid.n}/{S.grid.box_length} vs {grid.n}/{grid.box_length}"
            )
        return S
    if spec.kind == "hessian_probe":
        S = hessian_probe(grid, "hessian", spec.center)
        if spec.amplitude != 1.0:
            S = SymTensorField(grid, S.data * spec.amplitude)
    elif spec.kind == "perturbed_family":
        M = strain_of(colliding_jets(grid, spec.amplitude, spec.center))
        qh = strain_of(random_solenoidal(grid, spec.seed, spec.slope)).data.copy()
        hi = max(1, (grid.cutoff - 1) // 8)
        band = (grid.shell_index >= min(2, hi)) & (grid.shell_index <= hi)
        qh[:, ~band] = 0.0
        Q = SymTensorField(grid, qh)
        qn = l2_norm_sq(Q)
        if qn > 0:
            Q = SymTensorField(grid, qh * np.sqrt(l2_norm_sq(M) / qn))
        S = perturbed_family(M, Q, int(spec.lam))
    else:  # pragma: no cover - InitSpec validates kinds
        raise ValueError(f"unknown initial-data kind {spec.kind!r}")
    return dealias(S)
