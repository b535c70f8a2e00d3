"""Time integration of the model, full-strain, and velocity equations.

The linear diffusion is applied exactly through the heat multiplier; the
nonlinearity is advanced with classical four-stage Runge-Kutta on the
integrating-factor variable, giving O(dt^5) local error. The strain space
is {sym grad u : div u = 0} and the scheme commutes with sym grad, so every
equation is stepped in velocity variables: `step` advances u (3 components,
not 6) and returns S = sym grad u, in the strain space by construction, not
by re-projection (the records monitor it as res_constraint). Stage 1 runs
on the state's own u = -2 div (-lap)^{-1} S, as cfl_dt and the diagnostics
sample do, so run shares them through the state's diagnostics._Sample: its
one set of u's real samples gives |u|_inf and the Lamb term, and is held
until `step` takes it, whatever the equation (velocity_ns runs stage 1 on
it); the RK variable is the Leray projection of u.

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
from .fields import SymTensorField, VectorField, _mode_sum
from .grid import GridSpec, irfft_retained_raw as _irfft_box, rfft_retained_raw
from .operators import (
    _as_spectral,
    _curl_raw,
    _div_sym_raw,
    _lamb_box,
    _leray_raw,
    _s_squared_box,
    _strain_project_raw,
    _sym_grad_raw,
    _sym_outer_box,
    _velocity_raw,
)
from .spectral import laplacian

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
_HEADER = struct.Struct("<QdddB")  # n, L, t, nu, equation code
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
    """S as a state on the strain space: a run's one projection, P_st on the
    retained box (so dealiased), bit for bit dealias(strain_project(S))."""
    r = S.grid.retained
    sh = r.unpack(_strain_project_raw(r, r.pack(_as_spectral(S).data)))
    return StrainState(S=SymTensorField(S.grid, sh), t=t, params=params)


# -- right-hand sides ---------------------------------------------------------
#
# Each nonlinearity is written once, in u form on the retained box: it
# returns the dealiased spectral du/dt packed into grid.retained. The strain
# right-hand sides take sym grad of it and unpack.


def _model_stage(g: GridSpec, s2: np.ndarray) -> np.ndarray:
    """(4/3) P_df (-lap)^{-1} div(S^2) on the retained box, from S^2 on it:
    -2/3 P_st(S^2) without its outer sym grad."""
    r = g.retained
    return -(2.0 / 3.0) * _leray_raw(r, _velocity_raw(r, s2))


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
    s2 = _s_squared_box(S.grid, S.real_samples())
    return _strain_rhs(S, nu, _model_stage(S.grid, s2))


def full_rhs(S: SymTensorField, nu: float) -> SymTensorField:
    """nu lap S - P_st((u.grad)S + S^2 + omega x omega / 4), evaluated as
    nu lap S - sym grad P_df(omega x u) with u, omega recovered from S
    through the strain-space residual check. The two forms agree to roundoff
    while 3 cutoff <= n + 2; on more aliased grids the rotational form is
    used."""
    return _strain_rhs(S, nu, -diag._Sample(S).lamb)


def velocity_rhs(u: VectorField, nu: float) -> VectorField:
    """nu lap u - P_df div(u x u)."""
    g = u.grid
    nonlin = g.retained.unpack(_velocity_stage(g, u.real_samples()))
    return VectorField(g, nu * laplacian(u).data + nonlin)


# -- integrating-factor RK4 ----------------------------------------------------


def _ifrk4(
    xh: np.ndarray,
    n1: np.ndarray,
    nonlin: Callable[[np.ndarray], np.ndarray],
    e_half: np.ndarray,
    dt: float,
) -> np.ndarray:
    """One classical RK4 step on the heat-transformed variable.

    `xh` is a spectral array, `n1` the first stage's nonlinearity, `nonlin`
    maps a stage array to its spectral nonlinearity and `e_half` is the heat
    multiplier over dt/2, all on one layout.
    """
    e_full = e_half * e_half
    n2 = nonlin(e_half * (xh + (dt / 2.0) * n1))
    n3 = nonlin(e_half * xh + (dt / 2.0) * n2)
    n4 = nonlin(e_full * xh + dt * (e_half * n3))
    return e_full * xh + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def step(
    state: StrainState, dt: float, *, derived: diag._Sample | None = None
) -> StrainState:
    """Advance one step of size dt in velocity variables; for full_strain, u
    passes the strain-space residual check (ConstraintError) once per step.
    Raises NonFiniteStateError on overflow. The first stage runs on the
    state's own u from `derived`, the state's diagnostics._Sample, built here
    when not given: the model's on its S^2, full_strain's on its Lamb term
    and velocity_ns's on u's real samples. Whatever the equation, the step
    takes those samples from the bundle, so they are held no longer.

    The state must be dealiased (as make_state, step and read_checkpoint
    leave it): the stages run on the retained box only, so a state with
    content outside it is refused with ValueError rather than truncated.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if dt > state.params.dt_max:
        raise ValueError(f"dt {dt} exceeds dt_max {state.params.dt_max}")
    g = state.S.grid
    r = g.retained
    b = diag._Sample(state.S) if derived is None else derived
    if b.lay is not r:
        raise ValueError(
            "state has modes outside the dealiased box; build the state with make_state"
        )
    e_half = np.exp(-(state.params.nu * dt / 2.0) * r.k2)
    eq = state.params.equation

    if eq == "full_strain":
        b.res_constraint  # the step's one strain-space check
        n1 = -b.lamb
        stage = lambda x: _full_stage(g, x)
    elif eq == "model":
        n1 = _model_stage(g, b.s2)
        s2_of = lambda x: _s_squared_box(g, _irfft_box(g, _sym_grad_raw(r, x)))
        stage = lambda x: _model_stage(g, s2_of(x))
    else:
        stage = lambda x: _velocity_stage(g, _irfft_box(g, x))
        n1 = _velocity_stage(g, b.u_re)
    b.take_real_u()
    # -2 div (-lap)^{-1} sym grad u = u + grad (-lap)^{-1}(-div u): unprojected,
    # the roundoff gradient part of u would double every step
    new = _sym_grad_raw(r, _ifrk4(_leray_raw(r, b.uh), n1, stage, e_half, dt))
    if not np.all(np.isfinite(new)):
        raise NonFiniteStateError(f"non-finite state after step at t={state.t + dt}")
    return StrainState(
        S=SymTensorField(g, r.unpack(new)), t=state.t + dt, params=state.params
    )


def cfl_dt(state: StrainState, *, derived: diag._Sample | None = None) -> float:
    """dt = min(dt_max, cfl dx / max(1, |u|_inf), cfl / max(1, |S|_inf)).

    `derived` is the state's diagnostics._Sample, as for step."""
    p = state.params
    b = diag._Sample(state.S) if derived is None else derived
    return min(
        p.dt_max,
        p.cfl * b.g.dx / max(1.0, b.u_inf),
        p.cfl / max(1.0, b.s_inf),
    )


def _enstrophy_and_tail(
    S: SymTensorField, *, derived: diag._Sample | None = None
) -> tuple[float, float]:
    """Total enstrophy and the fraction held in the top 1/8 of retained shells."""
    b = diag._Sample(S) if derived is None else derived
    total = b.hs(0.0)
    if total == 0.0:
        return 0.0, 0.0
    return total, _mode_sum(b.lay, b.sh, b.sh, mult=b.lay.tail_mask) / total


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

    With a sink, emits a DiagnosticsRecord at t=0, every `output_every`
    steps, and at the final state; without one, only the t = 0 sample (which
    the report needs) is taken. Each state's diagnostics._Sample serves its
    sample, cfl_dt, step and checkpoint. Blowup is declared on dt underflow,
    non-finite values, or E > 1e6 E0; resolution loss when the spectral tail
    (top 1/8 of retained shells) exceeds 1% of the enstrophy. A checkpoint
    is rewritten every `checkpoint_every` steps when a path is given.
    """
    p = state0.params
    state = state0
    b = diag._Sample(state.S)
    stream = diag._RecordStream(p.nu, with_ratio=p.equation == "full_strain")

    def emit(st: StrainState, derived: diag._Sample) -> diag.DiagnosticsRecord:
        rec = stream.record(st.S, st.t, derived=derived)
        if sink is not None:
            sink(rec)
        return rec

    rec0 = emit(state, b)  # the t = 0 sample gives E0, f0 and K0
    E0, f0, K0 = rec0.E, rec0.f, rec0.K
    g0 = f0 / E0**1.5 if E0 > 0 else 0.0
    r0 = f0 / (2.0 * E0) if E0 > 0 else 0.0
    # fixed-point existence horizon as a first-step sanity clamp; the bound
    # is hugely conservative for large data, so it only binds where it stays
    # satisfiable
    first_dt = LOCAL_EXISTENCE_COEFF / E0**2 if E0 > 0 else math.inf

    outcome = "resolved_to_t_end"
    steps = emitted = 0  # emitted: the step count of the last record
    while state.t < p.t_end - 1e-15:
        dt = cfl_dt(state, derived=b)
        if steps == 0 and first_dt >= p.dt_min:
            dt = min(dt, first_dt)
        if dt < p.dt_min:
            outcome = "blowup_detected"
            break
        dt = min(dt, p.t_end - state.t)
        try:
            state = step(state, dt, derived=b)
        except NonFiniteStateError:
            outcome = "blowup_detected"
            break
        steps += 1
        b = diag._Sample(state.S)
        e_now, tail = _enstrophy_and_tail(state.S, derived=b)
        if not math.isfinite(e_now) or (E0 > 0 and e_now > 1e6 * E0):
            outcome = "blowup_detected"
            break
        if tail > 0.01:
            outcome = "resolution_lost"
            break
        if sink is not None and steps % p.output_every == 0:
            emit(state, b)
            emitted = steps
        if checkpoint_every > 0 and checkpoint_path and steps % checkpoint_every == 0:
            write_checkpoint(checkpoint_path, state, derived=b)
    if sink is not None and emitted != steps:
        emit(state, b)

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


def write_checkpoint(
    path: str, state: StrainState, *, derived: diag._Sample | None = None
) -> None:
    """Binary checkpoint: magic, u64 n, f64 L, f64 t, f64 nu, u8 equation code,
    then 6 n^3 float64 real-space tensor components (x fastest, samples in
    increasing coordinate order from -L/2), little-endian.

    The file is written beside `path` and renamed onto it, so a write that
    fails midway leaves the previous checkpoint intact. `derived` is the
    state's diagnostics._Sample, as for step; the bytes are the same without
    it."""
    g = state.S.grid
    s_re = state.S.real_samples() if derived is None else derived.s_re
    # (component, z, y, x) in C order, x fastest: one copy (astype copies
    # only on a big-endian host)
    payload = g.to_monotone(s_re.transpose(0, 3, 2, 1))
    payload = payload.astype("<f8", copy=False)
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(_CHECKPOINT_MAGIC)
            fh.write(_HEADER.pack(g.n, g.box_length, state.t, state.params.nu,
                                  _EQUATION_CODE[state.params.equation]))
            fh.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.remove(tmp)
        raise


def read_checkpoint(path: str, dealias_fraction: float = 2.0 / 3.0) -> StrainState:
    """Read a checkpoint, with the nu and equation it stores, straight onto the
    retained box: dealiased (step accepts the restart), not projected."""
    with open(path, "rb") as fh:
        magic = fh.read(6)
        if magic != _CHECKPOINT_MAGIC:
            raise CheckpointError(f"bad checkpoint magic {magic!r}")
        header = fh.read(_HEADER.size)
        if len(header) != _HEADER.size:
            raise CheckpointError("truncated checkpoint header")
        n, box_length, t, nu, code = _HEADER.unpack(header)
        if code not in _EQUATION_FROM_CODE:
            raise CheckpointError(f"unknown equation code {code}")
        for name, val in (("L", box_length), ("t", t), ("nu", nu)):
            if not math.isfinite(val):
                raise CheckpointError(f"non-finite header value {name}={val}")
        try:  # the grid validates n and L; building it allocates nothing
            grid = GridSpec(n, box_length, dealias_fraction)
        except ValueError as exc:
            raise CheckpointError(f"implausible checkpoint header: {exc}") from None
        count = 6 * n**3
        # checked before reading, so a header claiming a huge n in front of a
        # short payload allocates nothing
        if os.fstat(fh.fileno()).st_size - fh.tell() < 8 * count:
            raise CheckpointError("truncated checkpoint payload")
        raw = np.fromfile(fh, dtype="<f8", count=count)
    # min and max are NaN or infinite exactly when some sample is, and
    # allocate no mask the size of the payload
    if not (math.isfinite(raw.min()) and math.isfinite(raw.max())):
        c = int(np.flatnonzero(~np.isfinite(raw))[0]) // n**3
        raise CheckpointError(f"non-finite payload sample in component {c}")
    # each component is stored x fastest: (z, y, x) in C order; the gather
    # makes z fastest, so the forward transform's z-lines are contiguous
    data = grid.from_monotone(raw.reshape(6, n, n, n).transpose(0, 3, 2, 1))
    S = SymTensorField(grid, grid.retained.unpack(rfft_retained_raw(grid, data)))
    return StrainState(S, t, SimParams(nu=nu, equation=_EQUATION_FROM_CODE[code]))
