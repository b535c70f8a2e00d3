"""Identity and oracle check suites behind the `verify` command.

Each check measures a residual against its tolerance; quick level runs at
n=16, full at n=32 plus the n=128 determinant reproduction.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import diagnostics as diag
from . import operators as ops
from . import oracle
from .dynamics import SimParams, make_state, run
from .fields import ScalarField, SymTensorField, VectorField, l2_inner, l2_norm_sq
from .grid import GridSpec
from .initdata import colliding_jets, hessian_probe, random_solenoidal
from .spectral import derivative, forward_transform, inverse_transform

__all__ = ["CheckResult", "run_checks", "format_table"]

_DET_CLOSED_FORM = 8.0 * np.pi**1.5 / (81.0 * np.sqrt(3.0))


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(a), abs(b), 1e-30)


def _random_strain(grid: GridSpec, seed: int) -> SymTensorField:
    return ops.strain_of(random_solenoidal(grid, seed))


def _check_detid(rng: np.random.Generator, count: int) -> float:
    comps = rng.standard_normal((6, count))
    comps[5] = -comps[0] - comps[3]  # trace-free
    tr3 = diag._tr3_raw(comps)
    det = ops._det_raw(comps)
    # relative to ||M||^3, the magnitude of the terms before cancellation
    norm3 = (
        comps[0] ** 2 + comps[3] ** 2 + comps[5] ** 2
        + 2.0 * (comps[1] ** 2 + comps[2] ** 2 + comps[4] ** 2)
    ) ** 1.5
    return float(np.max(np.abs(tr3 - 3.0 * det) / norm3))


def _check_oracle_dft(grid: GridSpec, rng) -> float:
    f = ScalarField(grid, rng.standard_normal(grid.real_shape))
    fh = forward_transform(f)
    cube = oracle.naive_dft(f)
    half = cube[..., : grid.n // 2 + 1]
    scale = np.max(np.abs(half))
    return float(np.max(np.abs(fh.data - half)) / scale)


def _check_oracle_idft(grid: GridSpec, rng) -> float:
    f = ScalarField(grid, rng.standard_normal(grid.real_shape))
    cube = oracle.naive_dft(f)
    back = oracle.naive_idft(grid, cube)
    scale = np.max(np.abs(f.data))
    return float(np.max(np.abs(back.real - f.data)) / scale)


def _check_oracle_convolution(grid: GridSpec, rng) -> float:
    a = ScalarField(grid, rng.standard_normal(grid.real_shape))
    b = ScalarField(grid, rng.standard_normal(grid.real_shape))
    prod = ScalarField(grid, a.data * b.data)
    exact = oracle.naive_convolution(oracle.naive_dft(a), oracle.naive_dft(b))
    got = forward_transform(prod).data
    half = exact[..., : grid.n // 2 + 1]
    scale = np.max(np.abs(half))
    return float(np.max(np.abs(got - half)) / scale)


def _check_oracle_eig(rng, count: int = 100) -> float:
    worst = 0.0
    for _ in range(count):
        m = rng.standard_normal((3, 3))
        m = 0.5 * (m + m.T)
        fast = ops.eig_symtensor(m)
        slow = oracle.jacobi_eig(m)
        scale = max(np.sqrt(np.sum(m * m)), 1e-30)
        worst = max(
            worst,
            abs(fast.lambda1 - slow.lambda1) / scale,
            abs(fast.lambda2 - slow.lambda2) / scale,
            abs(fast.lambda3 - slow.lambda3) / scale,
        )
    return worst


def _check_roundtrip(grid: GridSpec, rng) -> float:
    f = ScalarField(grid, rng.standard_normal(grid.real_shape))
    back = inverse_transform(forward_transform(f))
    return float(
        np.sqrt(np.sum((back.data - f.data) ** 2) / np.sum(f.data**2))
    )


def _check_parseval(grid: GridSpec, rng) -> float:
    f = ScalarField(grid, rng.standard_normal(grid.real_shape))
    fh = forward_transform(f)
    spec = l2_norm_sq(fh)
    real = l2_norm_sq(f)
    return _rel(spec, real)


def _check_projection_idempotent(grid: GridSpec, rng) -> float:
    m = SymTensorField(
        grid, forward_transform(SymTensorField(grid, rng.standard_normal((6,) + grid.real_shape))).data
    )
    p1 = ops.strain_project(m)
    p2 = ops.strain_project(p1)
    return float(np.sqrt(l2_norm_sq(SymTensorField(grid, p2.data - p1.data)) / l2_norm_sq(p1)))


def _check_projection_selfadjoint(grid: GridSpec, rng) -> float:
    mk = lambda s: forward_transform(
        SymTensorField(grid, np.random.default_rng(s).standard_normal((6,) + grid.real_shape))
    )
    m, q = mk(rng.integers(1 << 31)), mk(rng.integers(1 << 31))
    a = l2_inner(ops.strain_project(m), q)
    b = l2_inner(m, ops.strain_project(q))
    return _rel(a, b)


def _check_annihilate(grid: GridSpec, kind: str) -> float:
    h = hessian_probe(grid, kind)
    return float(np.sqrt(l2_norm_sq(ops.strain_project(h)) / l2_norm_sq(h)))


def _check_fixes_strains(grid: GridSpec, seed: int) -> float:
    s = _random_strain(grid, seed)
    ps = ops.strain_project(s)
    return float(np.sqrt(l2_norm_sq(SymTensorField(grid, ps.data - s.data)) / l2_norm_sq(s)))


def _check_inversion(grid: GridSpec, seed: int) -> float:
    u = random_solenoidal(grid, seed)
    s = ops.strain_of(u)
    u2 = ops.velocity_of(s)
    back = ops.strain_of(u2)
    r1 = np.sqrt(l2_norm_sq(SymTensorField(grid, back.data - s.data)) / l2_norm_sq(s))
    r2 = np.sqrt(l2_norm_sq(VectorField(grid, u2.data - u.data)) / l2_norm_sq(u))
    return float(max(r1, r2))


def _check_trace_cubed_zero(grid: GridSpec, seed: int) -> float:
    u = random_solenoidal(grid, seed)
    # grad u in real space via spectral derivatives
    gu = {(a, j): ops._irfft_raw(grid, 1j * grid.kd[a] * u.data[j])
          for j in range(3) for a in range(3)}
    tr3 = np.zeros(grid.real_shape)
    for i in range(3):
        for j in range(3):
            for k in range(3):
                tr3 += gu[(i, j)] * gu[(j, k)] * gu[(k, i)]
    val = float(grid.cell_volume * np.sum(tr3))
    mag = sum(arr**2 for arr in gu.values())
    l3 = float((grid.cell_volume * np.sum(mag**1.5)))
    return abs(val) / max(l3, 1e-30)


def _check_enstrophy_identity(grid: GridSpec, equation: str) -> float:
    params = SimParams(
        nu=1.0, equation=equation, t_end=12 * 1e-3, cfl=1.0, dt_max=1e-3,
        dt_min=1e-12, output_every=1,
    )
    # steep spectrum: the run must start well clear of the resolution monitor
    S0 = ops.strain_of(random_solenoidal(grid, 7, slope=-6.0))
    scale = 1.0 / np.sqrt(diag.enstrophy(S0))
    state = make_state(SymTensorField(grid, S0.data * scale), 0.0, params)
    records: list[diag.DiagnosticsRecord] = []
    run(state, records.append)
    resid = [
        r.residuals["res_enstrophy"] for r in records if "res_enstrophy" in r.residuals
    ]
    return max(resid) if resid else np.inf


def _check_jets_determinant(n: int) -> float:
    grid = GridSpec(n, 16.0)
    s = ops.strain_of(colliding_jets(grid, 1.0))
    return _rel(-diag.det_integral(s), _DET_CLOSED_FORM)


def _check_quadrature() -> float:
    return _rel(oracle.det_integrand_quadrature(), _DET_CLOSED_FORM)


def _check_fd_derivative(n: int = 64) -> float:
    grid = GridSpec(n, 2.0 * np.pi)
    x = grid.x1[:, None, None]
    f = ScalarField(grid, np.cos(3.0 * x) * np.ones(grid.real_shape))
    df = inverse_transform(derivative(forward_transform(f), 1))
    fd = oracle.fd_derivative(f, 1)
    scale = np.max(np.abs(fd))
    return float(np.max(np.abs(df.data - fd)) / scale)


def run_checks(level: str = "quick") -> list[CheckResult]:
    if level not in ("quick", "full"):
        raise ValueError(f"level must be 'quick' or 'full', got {level!r}")
    n_small = 16 if level == "quick" else 32
    seeds = range(3) if level == "quick" else range(20)
    grid = GridSpec(n_small, 16.0)
    g8 = GridSpec(8, 2.0 * np.pi)
    rng = np.random.default_rng(2024)

    out: list[CheckResult] = [
        CheckResult("detid_random_matrices", _check_detid(rng, 10_000), 1e-12),
        CheckResult("oracle_dft_forward", _check_oracle_dft(g8, rng), 1e-12),
        CheckResult("oracle_idft_roundtrip", _check_oracle_idft(g8, rng), 1e-12),
        CheckResult("oracle_convolution_product", _check_oracle_convolution(g8, rng), 1e-12),
        CheckResult("oracle_eig_jacobi", _check_oracle_eig(rng), 1e-10),
        CheckResult("transform_roundtrip", _check_roundtrip(grid, rng), 1e-12),
        CheckResult("parseval", _check_parseval(grid, rng), 1e-12),
        CheckResult("projection_idempotent", _check_projection_idempotent(grid, rng), 1e-10),
        CheckResult("projection_selfadjoint", _check_projection_selfadjoint(grid, rng), 1e-10),
        CheckResult("projection_annihilates_hessian", _check_annihilate(grid, "hessian"), 1e-10),
        CheckResult("projection_annihilates_identity", _check_annihilate(grid, "identity"), 1e-10),
        CheckResult(
            "projection_fixes_strains",
            max(_check_fixes_strains(grid, s) for s in seeds),
            1e-10,
        ),
        CheckResult(
            "strain_velocity_inversion",
            max(_check_inversion(grid, s) for s in seeds),
            1e-10,
        ),
        CheckResult(
            "isometry_alpha_m1_0_1",
            max(diag.isometry_residual(_random_strain(grid, s)) for s in seeds),
            1e-10,
        ),
        CheckResult(
            "orthogonality_dropped_term",
            max(diag.orthogonality_residual(_random_strain(grid, s)) for s in seeds),
            1e-8,
        ),
        CheckResult(
            "vortex_det_identity",
            max(diag.vortex_det_residual(_random_strain(grid, s)) for s in seeds),
            1e-8,
        ),
        CheckResult(
            "trace_cubed_integral_zero",
            max(_check_trace_cubed_zero(grid, s) for s in seeds),
            1e-8,
        ),
        CheckResult(
            "enstrophy_identity_model", _check_enstrophy_identity(grid, "model"), 1e-4
        ),
        CheckResult("det_quadrature_closed_form", _check_quadrature(), 1e-9),
        CheckResult("fd_derivative_mode3", _check_fd_derivative(), 1e-5),
    ]
    if level == "full":
        out.append(
            CheckResult(
                "enstrophy_identity_full_strain",
                _check_enstrophy_identity(grid, "full_strain"),
                1e-4,
            )
        )
        out.append(
            CheckResult("colliding_jets_determinant", _check_jets_determinant(128), 1e-6)
        )
    return out


def format_table(results: list[CheckResult]) -> str:
    width = max(len(r.name) for r in results)
    lines = [f"{'check':<{width}}  {'residual':>12}  {'tolerance':>10}  status"]
    for r in results:
        status = "pass" if r.passed else "FAIL"
        lines.append(
            f"{r.name:<{width}}  {r.residual:>12.3e}  {r.tolerance:>10.1e}  {status}"
        )
    npass = sum(r.passed for r in results)
    lines.append(f"{npass}/{len(results)} checks passed")
    return "\n".join(lines)
