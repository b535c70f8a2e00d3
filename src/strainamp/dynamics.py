"""Time integration of the model, full-strain, and velocity equations.

The linear diffusion is applied exactly through the heat multiplier; the
nonlinearity is advanced with classical four-stage Runge-Kutta on the
integrating-factor variable, giving O(dt^5) local error. The strain space
is {sym grad u : div u = 0} and the scheme commutes with sym grad, so every
equation is stepped in velocity variables: `step` advances u (3 components,
not 6) and returns S = sym grad u, in the strain space by construction, not
by re-projection (the records monitor it as res_constraint).

A state is dealiased (make_state and read_checkpoint ensure it), and every
right-hand side is dealiased, so a step never leaves the 2/3-rule box of
retained modes. `step` therefore packs the state once into that dense box
(GridSpec.retained, about a quarter of the r2c layout), runs the stages
there, and scatters to the full layout only for inverse transforms and for
the result.
"""

from __future__ import annotations

import math
import os
import struct
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import diagnostics as diag
from .fields import SYM_WEIGHTS, SymTensorField, VectorField
from .grid import GridSpec, irfft_retained_raw as _irfft_box
from .operators import (
    _as_spectral,
    _curl_raw,
    _div_sym_raw,
    _lamb_box,
    _leray_raw,
    _s_squared_box,
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
        if not (math.isfinite(self.nu) and self.nu > 0):
            raise ValueError(f"nu must be positive and finite, got {self.nu}")
        if self.equation not in EQUATIONS:
            raise ValueError(f"equation must be one of {EQUATIONS}, got {self.equation!r}")
        if not (math.isfinite(self.t_end) and self.t_end >= 0):
            raise ValueError(f"t_end must be finite and >= 0, got {self.t_end}")
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
# Each nonlinearity is written once, in u form on the retained box: it
# returns the dealiased spectral du/dt packed into grid.retained. The strain
# right-hand sides take sym grad of it and unpack.


def _model_stage(g: GridSpec, s_re: np.ndarray) -> np.ndarray:
    """(4/3) P_df (-lap)^{-1} div(S^2) on the retained box, from real samples
    of S: -2/3 P_st(S^2) without its outer sym grad."""
    r = g.retained
    return -(2.0 / 3.0) * _leray_raw(r, _velocity_raw(r, _s_squared_box(g, s_re)))


def _full_stage(g: GridSpec, uh: np.ndarray) -> np.ndarray:
    """-P_df(omega x u) on the retained box, for u packed on it."""
    r = g.retained
    return -_lamb_box(g, _irfft_box(g, uh), _irfft_box(g, _curl_raw(r, uh)))


def _velocity_stage(g: GridSpec, u_re: np.ndarray) -> np.ndarray:
    """-P_df div(u x u) on the retained box, from real samples of u."""
    r = g.retained
    return -_leray_raw(r, _div_sym_raw(r, _sym_outer_box(g, u_re)))


def _strain_rhs(S: SymTensorField, nu: float, du: np.ndarray) -> SymTensorField:
    """nu lap S + sym grad du, for a u-form nonlinearity du on the retained box."""
    g, r = S.grid, S.grid.retained
    return SymTensorField(g, nu * laplacian(S).data + r.unpack(_sym_grad_raw(r, du)))


def model_rhs(S: SymTensorField, nu: float) -> SymTensorField:
    """nu lap S - 2/3 P_st(S^2)."""
    return _strain_rhs(S, nu, _model_stage(S.grid, S.real_samples()))


def full_rhs(S: SymTensorField, nu: float) -> SymTensorField:
    """nu lap S - P_st((u.grad)S + S^2 + omega x omega / 4), evaluated as
    nu lap S - sym grad P_df(omega x u) with u, omega recovered from S
    (velocity_of checks the strain-space residual). The two forms agree to
    roundoff while 3 cutoff <= n + 2; on more aliased grids the rotational
    form is used."""
    u = velocity_of(S)
    lamb = _lamb_box(S.grid, u.real_samples(), vorticity_of(u).real_samples())
    return _strain_rhs(S, nu, -lamb)


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
    e_full = e_half * e_half
    n2 = nonlin(e_half * (xh + (dt / 2.0) * n1))
    n3 = nonlin(e_half * xh + (dt / 2.0) * n2)
    n4 = nonlin(e_full * xh + dt * (e_half * n3))
    return e_full * xh + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def step(state: StrainState, dt: float) -> StrainState:
    """Advance one step of size dt in velocity variables; for full_strain, u
    is recovered through the strain-space residual check (ConstraintError)
    once per step. Raises NonFiniteStateError on overflow.

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

    n1 = None
    if eq == "full_strain":
        uh = _velocity_checked_raw(r, sh)[0]
        stage = lambda x: _full_stage(g, x)
    elif eq == "model":
        uh = _velocity_raw(r, sh)
        # the first stage reuses S's real samples (cfl_dt has memoized them)
        n1 = _model_stage(g, state.S.real_samples())
        stage = lambda x: _model_stage(g, _irfft_box(g, _sym_grad_raw(r, x)))
    else:
        uh = _velocity_raw(r, sh)
        stage = lambda x: _velocity_stage(g, _irfft_box(g, x))
    # -2 div (-lap)^{-1} sym grad u = u + grad (-lap)^{-1}(-div u): unprojected,
    # the roundoff gradient part of u would double every step
    uh = _leray_raw(r, uh)
    new = _sym_grad_raw(r, _ifrk4(uh, stage, e_half, dt, n1))
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

    accums = {q: 0.0 for q in diag.Q_VALUES}
    samples: list[tuple[float, float, float, float]] = []  # (t, E, H1, detS)
    last_norms: dict[float, float] | None = None
    last_t = state.t

    def emit(st: StrainState) -> dict:
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
        residuals = {k: v for k, v in vals.items() if k.startswith("res_")}
        samples.append((st.t, vals["E"], vals["H1"], vals["detS"]))
        if len(samples) >= 3:
            # lagged one sample: three-point dE/dt centered on the previous record
            residuals["res_enstrophy"] = diag._identity_residual(*samples[-3:], p.nu)
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
        return vals

    v0 = emit(state)  # the t = 0 sample gives E0, f0 and K0
    E0, f0, K0 = v0["E"], v0["f"], v0["K"]
    g0 = f0 / E0**1.5 if E0 > 0 else 0.0
    r0 = f0 / (2.0 * E0) if E0 > 0 else 0.0

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


# -- checkpointing -----------------------------------------------------------------


def write_checkpoint(path: str, state: StrainState) -> None:
    """Binary checkpoint: magic, u64 n, f64 L, f64 t, f64 nu, u8 equation code,
    then 6 n^3 float64 real-space tensor components (x fastest, samples in
    increasing coordinate order from -L/2), little-endian.

    The file is written beside `path` and renamed onto it, so a write that
    fails midway leaves the previous checkpoint intact."""
    g = state.S.grid
    s_re = g.to_monotone(state.S.real_samples())
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CHECKPOINT_MAGIC)
            fh.write(struct.pack("<Q", g.n))
            fh.write(struct.pack("<ddd", g.box_length, state.t, state.params.nu))
            fh.write(struct.pack("<B", _EQUATION_CODE[state.params.equation]))
            for c in range(6):
                fh.write(s_re[c].astype("<f8").ravel(order="F").tobytes())
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


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
        for name, val in (("L", box_length), ("t", t), ("nu", nu)):
            if not math.isfinite(val):
                raise CheckpointError(f"non-finite header value {name}={val}")
        count = 6 * n**3
        raw = np.fromfile(fh, dtype="<f8", count=count)
        if raw.size != count:
            raise CheckpointError("truncated checkpoint payload")
    # min and max are NaN or infinite exactly when some sample is, and
    # allocate no mask the size of the payload
    if not (math.isfinite(raw.min()) and math.isfinite(raw.max())):
        c = int(np.flatnonzero(~np.isfinite(raw))[0]) // n**3
        raise CheckpointError(f"non-finite payload sample in component {c}")
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
