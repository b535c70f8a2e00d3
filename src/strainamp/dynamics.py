"""Time integration of the model, full-strain, and velocity equations.

The linear diffusion is applied exactly through the heat multiplier; the
nonlinearity is advanced with classical four-stage Runge-Kutta on the
integrating-factor variable, giving O(dt^5) local error. The state is
re-projected onto the strain space after every step.

A state is dealiased (make_state and read_checkpoint ensure it), and every
right-hand side is dealiased, so a step never leaves the 2/3-rule box of
retained modes. `step` therefore packs the state once into that dense box
(GridSpec.retained, about a quarter of the r2c layout), runs the stages,
their projections and checks there, and scatters to the full layout only
for inverse transforms and for the result.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import _kernels
from . import diagnostics as diag
from .fields import SYM_WEIGHTS, SymTensorField, VectorField
from .grid import GridSpec, irfft_retained_raw as _irfft_box
from .operators import (
    _as_spectral,
    _curl_raw,
    _div_sym_raw,
    _lamb_strain_box,
    _lamb_strain_raw,
    _leray_raw,
    _s_squared_box,
    _strain_project_raw,
    _sym_grad_raw,
    _sym_outer_box,
    _velocity_checked_raw,
    _velocity_raw,
    strain_project,
    velocity_of,
    vorticity_of,
)
from .spectral import dealias, forward_transform, laplacian

__all__ = [
    "EQUATIONS",
    "SimParams",
    "StrainState",
    "BlowupReport",
    "NonFiniteStateError",
    "CheckpointError",
    "LOCAL_EXISTENCE_COEFF",
    "model_rhs",
    "full_rhs",
    "velocity_rhs",
    "step",
    "cfl_dt",
    "run",
    "make_state",
    "write_checkpoint",
    "read_checkpoint",
]

EQUATIONS = ("model", "full_strain", "velocity_ns")

# Fixed-point local-existence constant (3 / (32 ||g||_{L^2}))^4 with
# ||g||_{L^2} = (2 pi)^{-3/4}: the first accepted step must not exceed
# LOCAL_EXISTENCE_COEFF / ||S0||_{L^2}^4. Numerically about 1.92e-2.
LOCAL_EXISTENCE_COEFF = (3.0 * (2.0 * np.pi) ** 0.75 / 32.0) ** 4

_CHECKPOINT_MAGIC = b"STRN1\x00"
_EQUATION_CODE = {"model": 0, "full_strain": 1, "velocity_ns": 2}
_EQUATION_FROM_CODE = {v: k for k, v in _EQUATION_CODE.items()}


class NonFiniteStateError(RuntimeError):
    """The advanced state contains non-finite values (candidate blowup signal)."""


class CheckpointError(ValueError):
    """Malformed or incompatible checkpoint file."""


@dataclass(frozen=True)
class SimParams:
    nu: float
    equation: str
    t_end: float = 1.0
    cfl: float = 0.4
    dt_max: float = 1e-2
    dt_min: float = 1e-9
    output_every: int = 10

    def __post_init__(self) -> None:
        if self.nu <= 0:
            raise ValueError(f"nu must be positive, got {self.nu}")
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
        if self.t_end < 0:
            raise ValueError("t_end must be >= 0")
        if not 0 < self.cfl <= 1:
            raise ValueError(f"cfl must lie in (0, 1], got {self.cfl}")
        if not 0 < self.dt_min < self.dt_max:
            raise ValueError("need 0 < dt_min < dt_max")
        if self.output_every < 1:
            raise ValueError("output_every must be >= 1")


@dataclass(frozen=True)
class StrainState:
    """Spectral strain tensor plus simulation time and run parameters."""

    S: SymTensorField
    t: float
    params: SimParams


@dataclass(frozen=True)
class BlowupReport:
    g0: float
    r0: float
    f0: float
    outcome: str
    t_outcome: float
    t_star_envelope: float | None = None
    t_star_perturbative: float | None = None
    notes: str = ""

    def to_json_dict(self) -> dict:
        out = {
            "report": True,
            "g0": self.g0,
            "r0": self.r0,
            "f0": self.f0,
            "outcome": self.outcome,
            "t_outcome": self.t_outcome,
        }
        if self.t_star_envelope is not None:
            out["t_star_envelope"] = self.t_star_envelope
        if self.t_star_perturbative is not None:
            out["t_star_perturbative"] = self.t_star_perturbative
        if self.notes:
            out["notes"] = self.notes
        return out


def make_state(S: SymTensorField, t: float, params: SimParams) -> StrainState:
    """Project and dealias S onto the constraint space and wrap it as a state."""
    sf = dealias(strain_project(_as_spectral(S)))
    return StrainState(S=sf, t=t, params=params)


# -- right-hand sides ---------------------------------------------------------
#
# Each nonlinearity is written once, on the retained box: it takes real
# samples and returns the dealiased spectral result packed into
# grid.retained. The full-layout forms below unpack it.


def _model_stage(g: GridSpec, s_re: np.ndarray) -> np.ndarray:
    """-2/3 P_st(S^2) on the retained box, from real samples of S."""
    r = g.retained
    return -(2.0 / 3.0) * _strain_project_raw(r, _s_squared_box(g, s_re))


def _full_stage(g: GridSpec, sh: np.ndarray) -> np.ndarray:
    """-sym grad P_df(omega x u) for S packed on the retained box; u and
    omega are recovered from S after the strain-space residual check."""
    r = g.retained
    uh = _velocity_checked_raw(r, sh)
    return -_lamb_strain_box(g, _irfft_box(g, uh), _irfft_box(g, _curl_raw(r, uh)))


def _velocity_stage(g: GridSpec, u_re: np.ndarray) -> np.ndarray:
    """-P_df div(u x u) on the retained box, from real samples of u."""
    r = g.retained
    return -_leray_raw(r, _div_sym_raw(r, _sym_outer_box(g, u_re)))


def _nonlin_full(S: SymTensorField) -> SymTensorField:
    """-P_st((u.grad)S + S^2 + omega x omega / 4), evaluated as -sym grad
    P_df(omega x u) with u, omega recovered from S (velocity_of checks the
    strain-space residual). The two forms agree to roundoff while
    3 cutoff <= n + 2; on more aliased grids the rotational form is used."""
    g = S.grid
    u = velocity_of(S)
    return SymTensorField(g, -_lamb_strain_raw(g, u, vorticity_of(u)))


def model_rhs(S: SymTensorField, nu: float) -> SymTensorField:
    """nu lap S - 2/3 P_st(S^2)."""
    g = S.grid
    nonlin = g.retained.unpack(_model_stage(g, S.real_samples()))
    return SymTensorField(g, nu * laplacian(S).data + nonlin)


def full_rhs(S: SymTensorField, nu: float) -> SymTensorField:
    """nu lap S - P_st((u.grad)S + S^2 + omega x omega / 4)."""
    return SymTensorField(S.grid, nu * laplacian(S).data + _nonlin_full(S).data)


def velocity_rhs(u: VectorField, nu: float) -> VectorField:
    """nu lap u - P_df div(u x u)."""
    g = u.grid
    nonlin = g.retained.unpack(_velocity_stage(g, u.real_samples()))
    return VectorField(g, nu * laplacian(u).data + nonlin)


# -- integrating-factor RK4 ----------------------------------------------------


def _ifrk4(
    xh: np.ndarray,
    nonlin: Callable[[np.ndarray], np.ndarray],
    e_half: np.ndarray,
    dt: float,
    n1: np.ndarray | None = None,
) -> np.ndarray:
    """One classical RK4 step on the heat-transformed variable.

    `xh` is a spectral array, `nonlin` maps a stage array to its spectral
    nonlinearity and `e_half` is the heat multiplier over dt/2, all on one
    layout; `n1` is the first stage's nonlinearity when already known.
    """
    if n1 is None:
        n1 = nonlin(xh)
    if _kernels.HAVE_NUMBA:
        flat = lambda a: a.reshape(a.shape[0], -1)
        eh = e_half.ravel()
        u2 = np.empty_like(xh)
        _kernels._rk_stage2(flat(xh), flat(n1), eh, dt / 2.0, flat(u2))
        n2 = nonlin(u2)
        u3 = np.empty_like(xh)
        _kernels._rk_stage3(flat(xh), flat(n2), eh, dt / 2.0, flat(u3))
        n3 = nonlin(u3)
        u4 = np.empty_like(xh)
        _kernels._rk_stage4(flat(xh), flat(n3), eh, dt, flat(u4))
        n4 = nonlin(u4)
        out = np.empty_like(xh)
        _kernels._rk_final(
            flat(xh), flat(n1), flat(n2), flat(n3), flat(n4), eh, dt / 6.0, flat(out)
        )
        return out
    e_full = e_half * e_half
    n2 = nonlin(e_half * (xh + (dt / 2.0) * n1))
    n3 = nonlin(e_half * xh + (dt / 2.0) * n2)
    n4 = nonlin(e_full * xh + dt * (e_half * n3))
    return e_full * xh + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def step(state: StrainState, dt: float) -> StrainState:
    """Advance one step of size dt; the result is re-projected onto the
    strain space. Raises NonFiniteStateError on overflow.

    The state must be dealiased (as make_state, step and read_checkpoint
    leave it): the stages run on the retained box only, so a state with
    content outside it is refused with ValueError rather than truncated.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if dt > state.params.dt_max:
        raise ValueError(f"dt {dt} exceeds dt_max {state.params.dt_max}")
    g = state.S.grid
    r = g.retained
    if not r.holds(state.S.data):
        raise ValueError(
            "state has modes outside the dealiased box; build the state with make_state"
        )
    sh = r.pack(state.S.data)
    e_half = np.exp(-(state.params.nu * dt / 2.0) * r.k2)
    eq = state.params.equation

    if eq == "model":
        # the first stage reuses S's real samples (cfl_dt has memoized them)
        n1 = _model_stage(g, state.S.real_samples())
        new = _ifrk4(sh, lambda x: _model_stage(g, _irfft_box(g, x)), e_half, dt, n1)
    elif eq == "full_strain":
        new = _ifrk4(sh, lambda x: _full_stage(g, x), e_half, dt)
    else:  # velocity_ns: advance u, map back to the strain
        stage = lambda x: _velocity_stage(g, _irfft_box(g, x))
        new = _sym_grad_raw(r, _ifrk4(_velocity_raw(r, sh), stage, e_half, dt))

    new = _strain_project_raw(r, new)
    if not np.all(np.isfinite(new)):
        raise NonFiniteStateError(f"non-finite state after step at t={state.t + dt}")
    return StrainState(
        S=SymTensorField(g, r.unpack(new)), t=state.t + dt, params=state.params
    )


def cfl_dt(state: StrainState) -> float:
    """dt = min(dt_max, cfl dx / max(1, |u|_inf), cfl / max(1, |S|_inf)).

    u is recovered on the retained box, so the state must be dealiased."""
    p = state.params
    g = state.S.grid
    s_re = state.S.real_samples()
    r = g.retained
    u_re = _irfft_box(g, _velocity_raw(r, r.pack(state.S.data)))
    if _kernels.HAVE_NUMBA:
        s_inf = float(np.sqrt(_kernels._max_frobenius_sq(s_re.reshape(6, -1))))
        u_inf = float(np.sqrt(_kernels._max_vector_sq(u_re.reshape(3, -1))))
    else:
        w6 = SYM_WEIGHTS.reshape(6, 1, 1, 1)
        s_inf = float(np.sqrt(np.max(np.einsum("c...,c...->...", s_re * w6, s_re))))
        u_inf = float(np.sqrt(np.max(np.sum(u_re * u_re, axis=0))))
    return min(
        p.dt_max,
        p.cfl * g.dx / max(1.0, u_inf),
        p.cfl / max(1.0, s_inf),
    )


def _enstrophy_and_tail(S: SymTensorField) -> tuple[float, float]:
    """Total enstrophy and the fraction held in the top 1/8 of retained shells,
    summed on the retained box (the state is dealiased)."""
    r = S.grid.retained
    sh = r.pack(S.data)
    w6 = SYM_WEIGHTS.reshape(6, 1, 1, 1)
    power = np.sum(w6 * (sh.real**2 + sh.imag**2), axis=0) * r.hermitian_weight
    total = float(np.sum(power))
    if total == 0.0:
        return 0.0, 0.0
    tail = float(np.sum(power, where=r.tail_mask))
    return r.box_length**3 * total, tail / total


# -- the run loop ----------------------------------------------------------------


_BOUND_NOTE = (
    "envelope bound computed with r0 = f0/(2 E0) built from the H^1 seminorm; "
    "the printed L^2-based denominator variant is not used"
)


def run(
    state0: StrainState,
    sink: Callable[[diag.DiagnosticsRecord], None] | None = None,
    checkpoint_every: int = 0,
    checkpoint_path: str | None = None,
) -> BlowupReport:
    """Step until t_end, blowup detection, or resolution loss.

    Emits a DiagnosticsRecord at t=0, every `output_every` steps, and at the
    final state. Blowup is declared on dt underflow, non-finite values, or
    E > 1e6 E0; resolution loss when the spectral tail (top 1/8 of retained
    shells) exceeds 1% of the enstrophy. A checkpoint is rewritten every
    `checkpoint_every` steps when a path is given.
    """
    p = state0.params
    with_ratio = p.equation == "full_strain"
    state = state0

    E0 = diag.enstrophy(state.S)
    f0 = diag.f_of(state.S, p.nu)
    g0 = f0 / E0**1.5 if E0 > 0 else 0.0
    r0 = f0 / (2.0 * E0) if E0 > 0 else 0.0
    K0 = diag.energy(state.S)

    accums = {q: 0.0 for q in diag.Q_VALUES}
    samples: list[tuple[float, float, float, float]] = []  # (t, E, H1, detS)
    last_norms: dict[float, float] | None = None
    last_t = state.t

    def emit(st: StrainState) -> None:
        nonlocal last_norms, last_t
        vals = diag.sample_functionals(st.S, p.nu, with_ratio)
        norms = vals["lam2_norms"]
        if last_norms is not None:
            dt_s = st.t - last_t
            for q in diag.Q_VALUES:
                pexp = diag.p_exponent(q)
                if math.isinf(pexp):
                    accums[q] = max(accums[q], norms[q])
                else:
                    accums[q] += 0.5 * dt_s * (norms[q] ** pexp + last_norms[q] ** pexp)
        else:
            for q in diag.Q_VALUES:
                if math.isinf(diag.p_exponent(q)):
                    accums[q] = norms[q]
        residuals = {k: vals[k] for k in ("res_orth", "res_vortdet", "res_isometry")}
        samples.append((st.t, vals["E"], vals["H1"], vals["detS"]))
        if len(samples) >= 3:
            # lagged one sample: three-point dE/dt centered on the previous record
            t2, e2, _, _ = samples[-1]
            t1, e1, h1, d1 = samples[-2]
            t0_, e0_, _, _ = samples[-3]
            dedt = _nonuniform_dedt(t0_, e0_, t1, e1, t2, e2)
            rhs = -2.0 * p.nu * h1 - 4.0 * d1
            residuals["res_enstrophy"] = abs(dedt - rhs) / max(abs(rhs), 1e-30)
        rec = diag.DiagnosticsRecord(
            t=st.t,
            E=vals["E"],
            K=vals["K"],
            H1=vals["H1"],
            detS=vals["detS"],
            trS3=vals["trS3"],
            g=vals["g"],
            f=vals["f"],
            lam2_norms=norms,
            regcrit_accum=dict(accums),
            ratio=vals["ratio"],
            residuals=residuals,
        )
        last_norms = norms
        last_t = st.t
        if sink is not None:
            sink(rec)

    emit(state)

    outcome = "resolved_to_t_end"
    steps = 0
    first = True
    emitted_final = True
    while state.t < p.t_end - 1e-15:
        dt = cfl_dt(state)
        if first:
            # fixed-point existence horizon as a first-step sanity clamp; the
            # bound is hugely conservative for large data, so it only binds
            # where it stays satisfiable
            if E0 > 0:
                bound = LOCAL_EXISTENCE_COEFF / E0**2
                if bound >= p.dt_min:
                    dt = min(dt, bound)
            first = False
        if dt < p.dt_min:
            outcome = "blowup_detected"
            break
        dt = min(dt, p.t_end - state.t)
        try:
            state = step(state, dt)
        except NonFiniteStateError:
            outcome = "blowup_detected"
            break
        steps += 1
        emitted_final = False
        e_now, tail = _enstrophy_and_tail(state.S)
        if not math.isfinite(e_now) or (E0 > 0 and e_now > 1e6 * E0):
            outcome = "blowup_detected"
            emit(state)
            emitted_final = True
            break
        if tail > 0.01:
            outcome = "resolution_lost"
            emit(state)
            emitted_final = True
            break
        if steps % p.output_every == 0:
            emit(state)
            emitted_final = True
        if checkpoint_every > 0 and checkpoint_path and steps % checkpoint_every == 0:
            write_checkpoint(checkpoint_path, state)

    if not emitted_final:
        emit(state)

    return BlowupReport(
        g0=g0,
        r0=r0,
        f0=f0,
        outcome=outcome,
        t_outcome=state.t,
        t_star_envelope=(1.0 / r0) if g0 > 0 else None,
        t_star_perturbative=(
            (-E0 + math.sqrt(E0**2 + f0 * K0)) / f0 if f0 > 0 else None
        ),
        notes=_BOUND_NOTE if g0 > 0 else "",
    )


def _nonuniform_dedt(t0, e0, t1, e1, t2, e2) -> float:
    """Three-point derivative at t1 for unequal spacing (exact on parabolas)."""
    h1 = t1 - t0
    h2 = t2 - t1
    return (
        -h2 / (h1 * (h1 + h2)) * e0
        + (h2 - h1) / (h1 * h2) * e1
        + h1 / (h2 * (h1 + h2)) * e2
    )


# -- checkpointing -----------------------------------------------------------------


def write_checkpoint(path: str, state: StrainState) -> None:
    """Binary checkpoint: magic, u64 n, f64 L, f64 t, f64 nu, u8 equation code,
    then 6 n^3 float64 real-space tensor components (x fastest, samples in
    increasing coordinate order from -L/2), little-endian."""
    g = state.S.grid
    s_re = g.to_monotone(state.S.real_samples())
    with open(path, "wb") as fh:
        fh.write(_CHECKPOINT_MAGIC)
        fh.write(struct.pack("<Q", g.n))
        fh.write(struct.pack("<ddd", g.box_length, state.t, state.params.nu))
        fh.write(struct.pack("<B", _EQUATION_CODE[state.params.equation]))
        for c in range(6):
            fh.write(s_re[c].astype("<f8").ravel(order="F").tobytes())


def read_checkpoint(
    path: str,
    params: SimParams | None = None,
    dealias_fraction: float = 2.0 / 3.0,
) -> StrainState:
    """Read a checkpoint; `params` overrides the stored nu/equation when given."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        (n,) = struct.unpack("<Q", fh.read(8))
        box_length, t, nu = struct.unpack("<ddd", fh.read(24))
        (code,) = struct.unpack("<B", fh.read(1))
        if code not in _EQUATION_FROM_CODE:
            raise CheckpointError(f"unknown equation code {code}")
        if n % 2 != 0 or n < 8 or n > 4096:
            raise CheckpointError(f"implausible grid size n={n}")
        count = 6 * n**3
        raw = np.fromfile(fh, dtype="<f8", count=count)
        if raw.size != count:
            raise CheckpointError("truncated checkpoint payload")
    grid = GridSpec(int(n), box_length, dealias_fraction)
    comps = raw.reshape(6, n**3)
    data = np.stack(
        [comps[c].reshape((n, n, n), order="F") for c in range(6)]
    )
    if params is None:
        params = SimParams(nu=nu, equation=_EQUATION_FROM_CODE[code])
    S = SymTensorField(grid, np.ascontiguousarray(grid.from_monotone(data)))
    # dealiased like make_state, so the roundoff the transform leaves outside
    # the retained box is dropped and step accepts the restart
    return StrainState(S=dealias(forward_transform(S)), t=t, params=params)
