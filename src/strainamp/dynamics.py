"""Time integration of the model, full-strain, and velocity equations.

The linear diffusion is applied exactly through the heat multiplier; the
nonlinearity is advanced with classical four-stage Runge-Kutta on the
integrating-factor variable, giving O(dt^5) local error. The strain space
is {sym grad u : div u = 0}, isometric to the divergence-free u, and the
scheme commutes with sym grad, so a state is its velocity: StrainState
holds u on the 2/3-rule box of retained modes (GridSpec.retained, about a
quarter of the r2c layout), and S = sym grad u is derived on demand.
make_state is the one way in from a strain S; `step` advances u for every
equation and returns the RK result as the next state's u. The equations
differ only in their nonlinearity, written once in _NONLIN, and every RK
stage reads it from a diagnostics._Sample: stage 1 from the state's, which
cfl_dt and the diagnostics sample share and which `step` consumes, stages
2-4 from their stage u's.
Every stage nonlinearity is dealiased and Leray-projected, so u stays on
the box and divergence free to roundoff with no projection per step (the
records monitor it as res_constraint).
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
from .grid import GridSpec, rfft_retained_raw
from .operators import (
    _as_spectral,
    _div_sym_raw,
    _leray_raw,
    _s_squared_box,
    _strain_velocity_raw,
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


@dataclass(frozen=True, eq=False)
class StrainState:
    """A strain state as its velocity: u's coefficients `uh` on the grid's
    retained box, divergence free, plus simulation time and run parameters.
    S = sym grad u is derived on each access, not held."""

    grid: GridSpec
    uh: np.ndarray
    t: float
    params: SimParams

    def __post_init__(self) -> None:
        want = (3,) + self.grid.retained.shape
        if self.uh.shape != want or self.uh.dtype != np.complex128:
            raise ValueError(
                f"a state holds u on the dealiased box, complex {want}, not "
                f"{self.uh.dtype} {self.uh.shape}: build the state with make_state"
            )

    @property
    def S(self) -> SymTensorField:
        """sym grad u on the full layout, zero outside the box."""
        r = self.grid.retained
        return SymTensorField(self.grid, r.unpack(_sym_grad_raw(r, self.uh)))


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
    """S as a state on the strain space: a run's one projection, u =
    P_df(-2 div (-lap)^{-1} S) on the retained box (so dealiased), whose
    state.S is bit for bit dealias(strain_project(S))."""
    r = S.grid.retained
    uh = _strain_velocity_raw(r, r.pack(_as_spectral(S).data))
    return StrainState(S.grid, uh, t, params)


# -- right-hand sides ---------------------------------------------------------
#
# Each nonlinearity is written once, in u form on the retained box: it
# returns the dealiased spectral du/dt packed into grid.retained. The strain
# right-hand sides take sym grad of it and unpack.


def _model_stage(g: GridSpec, s2: np.ndarray) -> np.ndarray:
    """(4/3) P_df (-lap)^{-1} div(S^2) on the retained box, from S^2 on it:
    -2/3 P_st(S^2) without its outer sym grad."""
    r = g.retained
    return -(2.0 / 3.0) * _strain_velocity_raw(r, s2)


def _velocity_stage(g: GridSpec, u_re: np.ndarray) -> np.ndarray:
    """-P_df div(u x u) on the retained box, from real samples of u."""
    r = g.retained
    return -_leray_raw(r, _div_sym_raw(r, _sym_outer_box(g, u_re)))


# each equation's nonlinearity, read from a diagnostics._Sample
_NONLIN: dict[str, Callable[[diag._Sample], np.ndarray]] = {
    "model": lambda b: _model_stage(b.g, b.s2),
    "full_strain": lambda b: -b.lamb,
    "velocity_ns": lambda b: _velocity_stage(b.g, b.u_re),
}


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
    return _strain_rhs(S, nu, _NONLIN["full_strain"](diag._Sample(S)))


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
    """Advance the state's u one step of size dt on the retained box and
    return the RK result as the next state's u; for full_strain, u passes
    the strain-space residual check (ConstraintError) once per step. Raises
    NonFiniteStateError on overflow. Stage 1 reads the equation's _NONLIN
    from `derived`, the state's diagnostics._Sample (of_velocity's, built
    here when not given), and stages 2-4 from their stage u's unchecked
    of_velocity bundle. The step consumes `derived`: once stage 1 has read
    it, the bundle is emptied, so no array it derived is held through
    stages 2-4 and it must not be read again.
    """
    if not (math.isfinite(dt) and dt > 0):
        raise ValueError(f"dt must be positive and finite, got {dt}")
    if dt > state.params.dt_max:
        raise ValueError(f"dt {dt} exceeds dt_max {state.params.dt_max}")
    g = state.grid
    b = diag._Sample.of_velocity(g, state.uh) if derived is None else derived
    e_half = np.exp(-(state.params.nu * dt / 2.0) * g.retained.k2)
    eq = state.params.equation
    nonlin = _NONLIN[eq]
    if eq == "full_strain":
        b.res_constraint  # the step's one strain-space check
    n1 = nonlin(b)
    vars(b).clear()  # the bundle is consumed: nothing it derived outlives stage 1
    stage = lambda x: nonlin(diag._Sample.of_velocity(g, x))
    new = _ifrk4(state.uh, n1, stage, e_half, dt)
    if not np.all(np.isfinite(new)):
        raise NonFiniteStateError(f"non-finite state after step at t={state.t + dt}")
    return StrainState(g, new, state.t + dt, state.params)


def cfl_dt(state: StrainState, *, derived: diag._Sample | None = None) -> float:
    """dt = min(dt_max, cfl dx / max(1, |u|_inf), cfl / max(1, |S|_inf)).

    `derived` is the state's diagnostics._Sample, as for step."""
    p = state.params
    b = diag._Sample.of_velocity(state.grid, state.uh) if derived is None else derived
    return min(
        p.dt_max,
        p.cfl * b.g.dx / max(1.0, b.u_inf),
        p.cfl / max(1.0, b.s_inf),
    )


def _enstrophy_and_tail(b: diag._Sample) -> tuple[float, float]:
    """Total enstrophy of the bundle's S and the fraction held in the top 1/8
    of retained shells."""
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
    b = diag._Sample.of_velocity(state.grid, state.uh)
    stream = diag._RecordStream(p.nu, with_ratio=p.equation == "full_strain")

    def emit(st: StrainState, derived: diag._Sample) -> diag.DiagnosticsRecord:
        rec = stream.record(derived, st.t)
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
            b = diag._Sample.of_velocity(state.grid, state.uh)  # step consumed b
            break
        steps += 1
        b = diag._Sample.of_velocity(state.grid, state.uh)
        e_now, tail = _enstrophy_and_tail(b)
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
    g = state.grid
    s_re = (diag._Sample.of_velocity(g, state.uh) if derived is None else derived).s_re
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
    retained box: the state's u is -2 div (-lap)^{-1} S of the stored S,
    dealiased, not projected. A stored state's S is sym grad of a divergence
    free u, so the u read back is divergence free to roundoff; a restart
    passes its S through make_state, the set-up's one projection, which
    also takes any other S onto the strain space."""
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
        found = os.fstat(fh.fileno()).st_size - fh.tell()
        if found < 8 * count:
            raise CheckpointError("truncated checkpoint payload")
        if found > 8 * count:
            raise CheckpointError(
                f"checkpoint payload of {found} bytes, expected {8 * count} for n = {n}"
            )
        raw = np.fromfile(fh, dtype="<f8", count=count)
    # min and max are NaN or infinite exactly when some sample is, and
    # allocate no mask the size of the payload
    if not (math.isfinite(raw.min()) and math.isfinite(raw.max())):
        c = int(np.flatnonzero(~np.isfinite(raw))[0]) // n**3
        raise CheckpointError(f"non-finite payload sample in component {c}")
    # each component is stored x fastest: (z, y, x) in C order; the gather
    # makes z fastest, so the forward transform's z-lines are contiguous
    data = grid.from_monotone(raw.reshape(6, n, n, n).transpose(0, 3, 2, 1))
    uh = _velocity_raw(grid.retained, rfft_retained_raw(grid, data))
    return StrainState(grid, uh, t, SimParams(nu=nu, equation=_EQUATION_FROM_CODE[code]))
