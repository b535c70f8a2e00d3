"""Scalar functionals, blowup functionals, and identity residual monitors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import SYM_PAIRS, SYM_WEIGHTS, SymTensorField, _mode_sum
from .grid import _ModeSet, _irfft_full, _slabs, irfft_retained_raw
from .operators import (
    _as_real,
    _as_spectral,
    _by_slab,
    _curl_raw,
    _det_raw,
    _eig3_middle,
    _eig3_trig,
    _lamb_box,
    _s_squared_box,
    _strain_checked_raw,
    _strain_project_raw,
    _sym_grad_raw,
    _velocity_raw,
)

__all__ = [
    "Q_VALUES",
    "p_exponent",
    "LAMBDA2_L32_THRESHOLD",
    "hs_norm_sq",
    "enstrophy",
    "energy",
    "det_integral",
    "trace_cubed_integral",
    "g_of",
    "f_of",
    "r0_of",
    "lambda_lq_norms",
    "isometry_residual",
    "orthogonality_residual",
    "vortex_det_residual",
    "perturbative_ratio",
    "enstrophy_identity_residual",
    "envelope_check",
    "EnvelopeResult",
    "gamma_membership",
    "GammaMembership",
    "DiagnosticsRecord",
    "RECORD_KEYS",
    "sample_functionals",
]

_EPS = 1e-30

# Lebesgue exponents for the middle-eigenvalue norms. The time exponent
# follows 3/q + 2/p = 2 where finite; the q = 3/2 endpoint (p infinite) is
# accumulated as a running supremum, and q = infinity uses p = 2.
Q_VALUES = (1.5, 2.0, 3.0, math.inf)

# (9/2) * (pi/2)^(4/3): the unit-viscosity floor on ||lambda2+||_{L^{3/2}}
# for blowup-admissible data; scales linearly with viscosity.
LAMBDA2_L32_THRESHOLD = 4.5 * (np.pi / 2.0) ** (4.0 / 3.0)


def p_exponent(q: float) -> float:
    if math.isinf(q):
        return 2.0
    if q == 1.5:
        return math.inf
    return 2.0 * q / (2.0 * q - 3.0)


# -- Sobolev norms -----------------------------------------------------------
#
# Spectral sums run on the retained box when the field is dealiased (every
# state make_state, step and read_checkpoint produce), since it is exactly
# zero outside it, and on the full r2c layout otherwise.


def _layout(f):
    """(lay, coefficients of f on lay): the retained box when f has no mode
    outside it, else the full layout."""
    sf = _as_spectral(f)
    r = sf.grid.retained
    if r.holds(sf.data):
        return r, r.pack(sf.data)
    return sf.grid, sf.data


def _hs_weight(lay: _ModeSet, alpha: float) -> np.ndarray:
    if alpha == 0:
        return np.ones_like(lay.k2)
    w = np.zeros_like(lay.k2)
    np.power(lay.k2, alpha, out=w, where=lay.k2 > 0)
    return w


def _hs(lay: _ModeSet, a: np.ndarray, alpha: float) -> float:
    return _mode_sum(lay, a, a, _hs_weight(lay, alpha))


def _grad_hs(lay: _ModeSet, uh: np.ndarray, alpha: float) -> float:
    return _mode_sum(lay, uh, uh, _hs_weight(lay, alpha) * lay.kd2)


def hs_norm_sq(f, alpha: float) -> float:
    """Squared homogeneous Sobolev norm via the |k|^(2*alpha) multiplier.

    Valid for -3/2 < alpha < 3/2; the mean mode is excluded for alpha != 0.
    """
    if not -1.5 < alpha < 1.5:
        raise ValueError(f"alpha must lie in (-3/2, 3/2), got {alpha}")
    return _hs(*_layout(f), alpha)


def enstrophy(S: SymTensorField) -> float:
    """E = ||S||^2_{L^2}."""
    return hs_norm_sq(S, 0.0)


def energy(S: SymTensorField) -> float:
    """K = ||S||^2_{H^-1} (equals half the squared L^2 norm of the velocity)."""
    return hs_norm_sq(S, -1.0)


# -- determinant functionals -------------------------------------------------


def _tr3_raw(s: np.ndarray) -> np.ndarray:
    xx, xy, xz, yy, yz, zz = s
    return (
        xx * xx * xx + yy * yy * yy + zz * zz * zz
        + 3.0 * (xy * xy * (xx + yy) + xz * xz * (xx + zz) + yz * yz * (yy + zz))
        + 6.0 * xy * xz * yz
    )


def det_integral(S: SymTensorField) -> float:
    """int det(S) by the midpoint rule."""
    sr = _as_real(S)
    return float(sr.grid.cell_volume * np.sum(_det_raw(sr.data)))


def trace_cubed_integral(S: SymTensorField) -> float:
    """int tr(S^3) by the midpoint rule (equals 3 int det(S) for trace-free S)."""
    sr = _as_real(S)
    return float(sr.grid.cell_volume * np.sum(_tr3_raw(sr.data)))


# -- blowup functionals -------------------------------------------------------


def f_of(S: SymTensorField, nu: float) -> float:
    """f = -3 nu ||S||^2_{H^1} - 4 int det(S); positivity marks blowup data."""
    return -3.0 * nu * hs_norm_sq(S, 1.0) - 4.0 * det_integral(S)


def g_of(S: SymTensorField, nu: float) -> float:
    """g = f / ||S||^3_{L^2}; the enstrophy growth rate obeys dE/dt >= g E^{3/2}."""
    e = enstrophy(S)
    if e == 0.0:
        raise ValueError("g is undefined for the zero field")
    return f_of(S, nu) / e**1.5


def r0_of(S: SymTensorField, nu: float) -> float:
    """r0 = f / (2 E); the envelope E0/(1 - r0 t)^2 blows up at 1/r0."""
    e = enstrophy(S)
    if e == 0.0:
        raise ValueError("r0 is undefined for the zero field")
    return f_of(S, nu) / (2.0 * e)


# -- middle-eigenvalue norms ---------------------------------------------------


_FINITE_Q = tuple(q for q in Q_VALUES if math.isfinite(q))


def _eigen_slab(out: np.ndarray, s: np.ndarray) -> None:
    """lambda2+, det S, tr S^3 and lambda2+ ** q for each finite q in Q_VALUES.

    lambda2 is the closed form's middle root alone (operators._eig3_middle),
    the same bits as lambda_fields' lambda2."""
    l2p = np.maximum(0.0, _eig3_middle(*_eig3_trig(s)), out=out[0])
    out[1], out[2] = _det_raw(s), _tr3_raw(s)
    for o, qe in zip(out[3:], _FINITE_Q):
        np.power(l2p, qe, out=o)


def _eigen_pass(s_re: np.ndarray, vol: float) -> tuple[dict[float, float], float, float]:
    """lambda_lq_norms, det_integral and trace_cubed_integral of the strain
    with real samples s_re and cell volume vol, from one eigenvalue pass."""
    l2p, det, tr3, *powers = _by_slab(_eigen_slab, 3 + len(_FINITE_Q), s_re)
    l2p_q = dict(zip(_FINITE_Q, powers))
    norms: dict[float, float] = {}
    for q in Q_VALUES:
        if math.isinf(q):
            norms[q] = float(np.max(l2p))
        else:
            norms[q] = float((vol * np.sum(l2p_q[q])) ** (1.0 / q))
    return norms, float(vol * np.sum(det)), float(vol * np.sum(tr3))


def lambda_lq_norms(S: SymTensorField) -> dict[float, float]:
    """L^q norms of lambda2+ = max(0, lambda2) for q in Q_VALUES."""
    return _eigen_pass(S.real_samples(), S.grid.cell_volume)[0]


# -- identity residuals ---------------------------------------------------------


class _Sample:
    """Fields derived from one strain state, built once for dynamics.cfl_dt,
    dynamics.step, dynamics.write_checkpoint and sample_functionals. On
    `lay`, the retained box when S is dealiased and the full layout
    otherwise (see _layout, the one scan of S for modes outside the box): S
    (`sh`), then on first use S's real samples (`s_re`), u (`uh`), its
    strain-space check (`res_constraint`: omega and the isometry wait for
    it, |u|_inf does not), u's real samples (`u_re`), |u|_inf, |S|_inf, the
    norms of S (hs), and on the box the Lamb term P_df(omega x u) and S^2.
    The bundle holds no reference to S itself, so what it derives is freed
    with it. One rule holds for u whatever the equation: its real samples
    are made once, by the first reader (|u|_inf or the Lamb term), and held
    until dynamics.step takes them with take_real_u. Those of omega are
    dropped by the call that makes them."""

    def __init__(self, S: SymTensorField) -> None:
        self.g = S.grid
        self.lay, self.sh = _layout(S)
        if not S.spectral:  # its samples are its data, as S.real_samples() gives
            self.s_re = S.data
        self._hs: dict[float, float] = {}

    @cached_property
    def uh(self) -> np.ndarray:
        return _velocity_raw(self.lay, self.sh)

    @cached_property
    def res_constraint(self) -> float:
        return _strain_checked_raw(self.lay, self.sh, self.uh)

    @cached_property
    def u_re(self) -> np.ndarray:
        return self.real(self.uh)

    @cached_property
    def u_inf(self) -> float:
        return _max_norm(self.u_re)

    def take_real_u(self) -> np.ndarray | None:
        """u's real samples, which the bundle holds no longer (None if no
        reader made them)."""
        return self.__dict__.pop("u_re", None)

    def real_vorticity(self) -> np.ndarray:
        """Real samples of omega, not held, made once u has passed the
        strain-space check (ConstraintError); sets lamb from them and u_re."""
        self.res_constraint
        w_re = self.real(_curl_raw(self.lay, self.uh))
        self.lamb = _lamb_box(self.g, self.u_re, w_re)
        return w_re

    @cached_property
    def lamb(self) -> np.ndarray:  # real_vorticity sets it
        self.real_vorticity()
        return self.lamb

    @cached_property
    def s_re(self) -> np.ndarray:
        """Real samples of S (the bits of S.real_samples())."""
        return self.real(self.sh)

    @cached_property
    def s_inf(self) -> float:
        s_sq = _by_slab(_frobenius_sq_slab, 1, self.s_re)
        return float(np.sqrt(np.max(s_sq)))

    @cached_property
    def s2(self) -> np.ndarray:
        return _s_squared_box(self.g, self.s_re)

    def on_lay(self, box: np.ndarray) -> np.ndarray:
        """A retained-box array moved onto lay."""
        return box if self.lay is not self.g else self.g.retained.unpack(box)

    def real(self, a: np.ndarray) -> np.ndarray:
        """Real samples of coefficients held on lay. On the full layout that
        is the unpruned inverse, with no new scan for modes outside the box:
        the pruned one gives the same bits wherever it applies."""
        if self.lay is self.g:
            return _irfft_full(self.g, a)
        return irfft_retained_raw(self.g, a)

    def hs(self, alpha: float) -> float:
        """hs_norm_sq(S, alpha), computed once per alpha (E, K and H1 are
        alpha = 0, -1 and 1)."""
        if alpha not in self._hs:
            self._hs[alpha] = _hs(self.lay, self.sh, alpha)
        return self._hs[alpha]


def _frobenius_sq_slab(out: np.ndarray, s: np.ndarray) -> None:
    out[0] = np.einsum("c...,c...->...", s * SYM_WEIGHTS.reshape(6, 1, 1, 1), s)


def _norm_sq_slab(out: np.ndarray, v: np.ndarray) -> None:
    np.sum(v * v, axis=0, out=out[0])


def _max_norm(v_re: np.ndarray) -> float:
    return float(np.sqrt(np.max(_by_slab(_norm_sq_slab, 1, v_re))))


def _isometry(b: _Sample) -> float:
    b.res_constraint  # the identities read u only after its strain-space check
    uh = b.uh
    wh = _curl_raw(b.lay, uh)
    worst = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        vals = (
            b.hs(alpha),
            0.5 * _hs(b.lay, wh, alpha),
            0.5 * _grad_hs(b.lay, uh, alpha),
        )
        top = max(vals)
        if top > 0:
            worst = max(worst, (top - min(vals)) / top)
    return worst


def isometry_residual(S: SymTensorField) -> float:
    """Max relative spread of ||S||^2, ||omega||^2/2, ||grad u||^2/2 over
    H^alpha, alpha in {-1, 0, 1}."""
    return _isometry(_Sample(S))


def _orth_and_ratio(b: _Sample, nu: float | None = None) -> tuple[float, float | None]:
    """res_orth of the dropped term D = P_st((u.grad)S + S^2/3 + omega x omega/4)
    and, if nu is given, the ratio ||D|| / ||retained||; (0.0, None) for the
    zero field. By the Lamb-vector identity A = sym grad P_df(omega x u) equals
    P_st((u.grad)S + S^2 + omega x omega/4) (exact while 3 cutoff <= n + 2), so
    with B = P_st(S^2), D = A - 2B/3 and the retained P_st part is A/2 + B/3."""
    lay, g = b.lay, b.g
    ns = math.sqrt(b.hs(0.0))
    if ns == 0.0:
        return 0.0, None
    A = b.on_lay(_sym_grad_raw(g.retained, b.lamb))
    B = _strain_project_raw(lay, b.on_lay(b.s2))
    term = A - (2.0 / 3.0) * B
    nt = math.sqrt(_mode_sum(lay, term, term))
    orth = abs(_mode_sum(lay, term, b.sh)) / (nt * ns + _EPS)
    if nu is None:
        return orth, None
    kept = nu * (lay.k2 * b.sh) + (0.5 * A + B / 3.0)  # -nu lap S + P_st part
    den = math.sqrt(_mode_sum(lay, kept, kept))
    return orth, (nt / den if den != 0.0 else math.inf)


def orthogonality_residual(S: SymTensorField) -> float:
    """|<dropped term, S>| / (||dropped term|| ||S||); zero for the zero field."""
    return _orth_and_ratio(_Sample(S))[0]


def _vortex_det(b: _Sample, wdat: np.ndarray, det: float) -> float:
    s_re, vol, slabs = b.s_re, b.g.cell_volume, _slabs(b.g.n)
    term = np.empty_like(wdat[0])  # one integrand at a time, filled by slab
    pair = 0.0
    for c, (i, j) in enumerate(SYM_PAIRS):
        for sl in slabs:
            np.multiply(s_re[c, sl], wdat[i, sl], out=term[sl])
            term[sl] *= wdat[j, sl]
        pair += SYM_WEIGHTS[c] * np.sum(term)
    pair = float(pair * vol)
    lhs = pair + 4.0 * det
    for sl in slabs:
        term[sl] = (wdat[0, sl] ** 2 + wdat[1, sl] ** 2 + wdat[2, sl] ** 2) ** 2
    wl4_sq = float(np.sqrt(vol * np.sum(term)))
    return abs(lhs) / (math.sqrt(b.hs(0.0)) * wl4_sq + _EPS)


def vortex_det_residual(S: SymTensorField) -> float:
    """|<S, omega x omega> + 4 int det(S)| scaled by ||S|| ||omega||^2_{L^4}."""
    b = _Sample(S)
    det = det_integral(SymTensorField(b.g, b.s_re))
    return _vortex_det(b, b.real_vorticity(), det)


def perturbative_ratio(S: SymTensorField, nu: float) -> float:
    """Dropped-term norm over retained-dynamics norm; blowup is forced while <= 2.

    ratio = ||P_st((u.grad)S + S^2/3 + omega x omega/4)||
          / ||-nu lap S + P_st((u.grad)S/2 + 5 S^2/6 + omega x omega/8)||

    The numerator is the dropped term of res_orth; both norms are evaluated
    from the Lamb vector omega x u and S^2 (exact while 3 cutoff <= n + 2)."""
    b = _Sample(S)
    if b.hs(0.0) == 0.0:
        raise ValueError("ratio is undefined for the zero field")
    return _orth_and_ratio(b, nu)[1]


def _identity_residual(row0, row1, row2, nu: float) -> float:
    """Relative residual of dE/dt = -2 nu ||S||^2_{H^1} - 4 int det(S) at the
    middle of three (t, E, H1, detS) rows. dE/dt is the three-point
    derivative for unequal spacing, exact on parabolas."""
    (t0, e0, _, _), (t1, e1, h1, d1), (t2, e2, _, _) = row0, row1, row2
    a, b = t1 - t0, t2 - t1
    dedt = -b / (a * (a + b)) * e0 + (b - a) / (a * b) * e1 + a / (b * (a + b)) * e2
    rhs = -2.0 * nu * h1 - 4.0 * d1
    return abs(dedt - rhs) / max(abs(rhs), _EPS)


def enstrophy_identity_residual(samples, nu: float) -> float:
    """Three-point dE/dt against -2 nu ||S||^2_{H^1} - 4 int det(S).

    `samples` is a sequence of at least three records (or (t, E, H1, detS)
    tuples) at increasing, equally spaced times; the residual is evaluated
    at the middle sample.
    """
    rows = [
        (r.t, r.E, r.H1, r.detS) if isinstance(r, DiagnosticsRecord) else tuple(r)
        for r in samples
    ]
    if len(rows) < 3:
        raise ValueError("need at least 3 consecutive samples")
    dts = np.diff([r[0] for r in rows])
    if not np.all(dts > 0):
        raise ValueError("sample times must increase")
    if np.any(np.abs(dts - dts[0]) > 1e-9 * max(abs(dts[0]), 1e-300)):
        raise ValueError("samples must be equally spaced in time")
    i = len(rows) // 2
    return _identity_residual(*rows[i - 1 : i + 2], nu)


# -- envelope and membership ------------------------------------------------------


@dataclass(frozen=True)
class EnvelopeResult:
    applicable: bool
    checks: list[tuple[float, bool]] = field(default_factory=list)

    @property
    def pass_fraction(self) -> float:
        if not self.checks:
            return 0.0
        return sum(ok for _, ok in self.checks) / len(self.checks)


def envelope_check(records, E0: float, r0: float, slack: float = 1e-3) -> EnvelopeResult:
    """Per-sample check E(t) >= E0/(1 - r0 t)^2 * (1 - slack) for t < 1/r0.

    Reports hypothesis unmet (not applicable) when r0 <= 0.
    """
    if r0 <= 0.0:
        return EnvelopeResult(applicable=False)
    checks = []
    for r in records:
        t, e = (r.t, r.E) if isinstance(r, DiagnosticsRecord) else (r[0], r[1])
        if t * r0 < 1.0:
            bound = E0 / (1.0 - r0 * t) ** 2 * (1.0 - slack)
            checks.append((t, e >= bound))
    return EnvelopeResult(applicable=True, checks=checks)


@dataclass(frozen=True)
class GammaMembership:
    member: bool
    margin: float
    lambda2_plus_l32: float
    threshold: float

    @property
    def consistent(self) -> bool:
        """Members must clear the planar-stretching floor on ||lambda2+||_{L^{3/2}}."""
        return (not self.member) or self.lambda2_plus_l32 > self.threshold


def gamma_membership(S: SymTensorField, nu: float) -> GammaMembership:
    """Blowup-set membership: f = -3 nu ||S||^2_{H^1} - 4 int det(S) > 0."""
    margin = f_of(S, nu)
    norms = lambda_lq_norms(S)
    return GammaMembership(
        member=margin > 0.0,
        margin=margin,
        lambda2_plus_l32=norms[1.5],
        threshold=nu * LAMBDA2_L32_THRESHOLD,
    )


# -- per-sample record ----------------------------------------------------------


_Q_KEY = {1.5: "q1.5", 2.0: "q2", 3.0: "q3", math.inf: "qinf"}

# JSON key order of a record; g, ratio and res_enstrophy are omitted when
# undefined (zero field, non-full-strain runs, fewer than three records)
RECORD_KEYS = (
    ("t", "E", "K", "H1", "detS", "trS3", "g", "f")
    + tuple(f"lam2_{_Q_KEY[q]}" for q in Q_VALUES)
    + tuple(f"acc_{_Q_KEY[q]}" for q in Q_VALUES)
    + ("ratio", "res_enstrophy", "res_orth", "res_vortdet", "res_isometry")
    + ("res_constraint",)
)


@dataclass(frozen=True)
class DiagnosticsRecord:
    """One row of scalar functionals at a time instant."""

    t: float
    E: float
    K: float
    H1: float
    detS: float
    trS3: float
    g: float | None
    f: float
    lam2_norms: dict[float, float]
    regcrit_accum: dict[float, float]
    ratio: float | None = None
    residuals: dict[str, float] = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        ratio = self.ratio
        vals = {
            "t": self.t,
            "E": self.E,
            "K": self.K,
            "H1": self.H1,
            "detS": self.detS,
            "trS3": self.trS3,
            "g": self.g,
            "f": self.f,
            **{f"lam2_{_Q_KEY[q]}": v for q, v in self.lam2_norms.items()},
            **{f"acc_{_Q_KEY[q]}": v for q, v in self.regcrit_accum.items()},
            "ratio": ratio if ratio is not None and math.isfinite(ratio) else None,
            **self.residuals,
        }
        return {k: vals[k] for k in RECORD_KEYS if vals.get(k) is not None}


def sample_functionals(
    S: SymTensorField, nu: float, with_ratio: bool, *, derived: _Sample | None = None
) -> dict:
    """Instantaneous functionals used by the run loop to assemble records.

    `derived` is S's _Sample when the caller shares it (dynamics.run does);
    the results are the same bits without it. One eigenvalue pass gives the
    lambda2+ norms, int det(S) and int tr(S^3). u is formed once and passes
    one strain-space check, whose value ||P_st S - S|| / ||S|| is
    res_constraint. E, K and H1 also serve the isometry check, and res_orth
    and the ratio share the Lamb term and S^2."""
    b = _Sample(S) if derived is None else derived
    # the eigenvalue pass first, while no real u or omega is held (run
    # samples a state before its cfl_dt)
    lam2_norms, det, tr3 = _eigen_pass(b.s_re, b.g.cell_volume)
    w_re = b.real_vorticity()
    e = b.hs(0.0)
    h1 = b.hs(1.0)
    f = -3.0 * nu * h1 - 4.0 * det
    vals = {
        "E": e,
        "K": b.hs(-1.0),
        "H1": h1,
        "detS": det,
        "trS3": tr3,
        "f": f,
        "lam2_norms": lam2_norms,
        "g": f / e**1.5 if e > 0.0 else None,
    }
    vals["res_orth"], vals["ratio"] = _orth_and_ratio(
        b, nu if with_ratio and e > 0.0 else None
    )
    vals["res_vortdet"] = _vortex_det(b, w_re, det)
    vals["res_isometry"] = _isometry(b)
    vals["res_constraint"] = b.res_constraint
    return vals


class _RecordStream:
    """Builds the records of one run, in time order.

    It owns what a record depends on besides its own sample: the running
    integrals of ||lambda2+||_{L^q}^p in time (trapezoid rule, with p from
    p_exponent; a running supremum where p is infinite), the previous
    sample's time and norms, and the last three (t, E, H1, detS) rows, whose
    middle one res_enstrophy is evaluated at (so it lags one record)."""

    def __init__(self, nu: float, with_ratio: bool) -> None:
        self.nu = nu
        self.with_ratio = with_ratio
        self.accum = {q: 0.0 for q in Q_VALUES}
        self.prev: tuple[float, dict[float, float]] | None = None
        self.rows: list[tuple[float, float, float, float]] = []

    def record(
        self, S: SymTensorField, t: float, *, derived: _Sample | None = None
    ) -> DiagnosticsRecord:
        vals = sample_functionals(S, self.nu, self.with_ratio, derived=derived)
        norms = vals["lam2_norms"]
        for q in Q_VALUES:
            pexp = p_exponent(q)
            if math.isinf(pexp):  # a norm is >= 0, so the first sample sets it
                self.accum[q] = max(self.accum[q], norms[q])
            elif self.prev is not None:
                t0, n0 = self.prev
                self.accum[q] += 0.5 * (t - t0) * (norms[q] ** pexp + n0[q] ** pexp)
        self.prev = (t, norms)
        self.rows = self.rows[-2:] + [(t, vals["E"], vals["H1"], vals["detS"])]
        residuals = {k: vals.pop(k) for k in list(vals) if k.startswith("res_")}
        if len(self.rows) == 3:
            residuals["res_enstrophy"] = _identity_residual(*self.rows, self.nu)
        return DiagnosticsRecord(
            t=t, regcrit_accum=dict(self.accum), residuals=residuals, **vals
        )
