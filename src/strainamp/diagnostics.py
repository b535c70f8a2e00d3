"""Scalar functionals, blowup functionals, and identity residual monitors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .fields import SYM_PAIRS, SYM_WEIGHTS, SymTensorField, VectorField, _mode_sum
from .grid import irfft_raw
from .operators import (
    _as_real,
    _as_spectral,
    _curl_raw,
    _lamb_box,
    _s_squared_box,
    _strain_project_raw,
    _sym_grad_raw,
    _velocity_checked_raw,
    lambda_fields,
)

__all__ = [
    "Q_VALUES",
    "p_exponent",
    "LAMBDA2_L32_THRESHOLD",
    "hs_norm_sq",
    "grad_hs_norm_sq",
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


def _hs_weight(lay, alpha: float) -> np.ndarray:
    if alpha == 0:
        return np.ones_like(lay.k2)
    w = np.zeros_like(lay.k2)
    np.power(lay.k2, alpha, out=w, where=lay.k2 > 0)
    return w


def _check_alpha(alpha: float) -> None:
    if not -1.5 < alpha < 1.5:
        raise ValueError(f"alpha must lie in (-3/2, 3/2), got {alpha}")


def _hs(lay, a: np.ndarray, alpha: float) -> float:
    return _mode_sum(lay, a, a, _hs_weight(lay, alpha))


def _grad_hs(lay, uh: np.ndarray, alpha: float) -> float:
    return _mode_sum(lay, uh, uh, _hs_weight(lay, alpha) * lay.kd2)


def hs_norm_sq(f, alpha: float) -> float:
    """Squared homogeneous Sobolev norm via the |k|^(2*alpha) multiplier.

    Valid for -3/2 < alpha < 3/2; the mean mode is excluded for alpha != 0.
    """
    _check_alpha(alpha)
    return _hs(*_layout(f), alpha)


def grad_hs_norm_sq(u: VectorField, alpha: float) -> float:
    """Squared H^alpha norm of the full velocity-gradient tensor."""
    _check_alpha(alpha)
    return _grad_hs(*_layout(u), alpha)


def enstrophy(S: SymTensorField) -> float:
    """E = ||S||^2_{L^2}."""
    return hs_norm_sq(S, 0.0)


def energy(S: SymTensorField) -> float:
    """K = ||S||^2_{H^-1} (equals half the squared L^2 norm of the velocity)."""
    return hs_norm_sq(S, -1.0)


# -- determinant functionals -------------------------------------------------


def _det_raw(s: np.ndarray) -> np.ndarray:
    xx, xy, xz, yy, yz, zz = s
    return (
        xx * (yy * zz - yz * yz)
        - xy * (xy * zz - yz * xz)
        + xz * (xy * yz - yy * xz)
    )


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


def lambda_lq_norms(S: SymTensorField) -> dict[float, float]:
    """L^q norms of lambda2+ = max(0, lambda2) for q in Q_VALUES."""
    _, _, l2p = lambda_fields(S)
    vol = S.grid.cell_volume
    out: dict[float, float] = {}
    for q in Q_VALUES:
        if math.isinf(q):
            out[q] = float(np.max(l2p.data))
        else:
            out[q] = float((vol * np.sum(l2p.data**q)) ** (1.0 / q))
    return out


# -- identity residuals ---------------------------------------------------------


class _Sample:
    """Fields derived from one strain sample, built once.

    The spectral work runs on `lay`, the retained box when S is dealiased
    and the full layout otherwise (see _layout): S on lay (`sh`) and its
    real samples, int det(S), u (one strain-space residual check, whose
    value is kept as `res_constraint`) and omega on lay, with their real
    samples on first use; hs() memoizes the norms of S."""

    def __init__(self, S: SymTensorField) -> None:
        self.g = S.grid
        self.lay, self.sh = _layout(S)
        self.s_re = _as_real(S).data
        self.det = det_integral(S)
        self.uh, self.res_constraint = _velocity_checked_raw(self.lay, self.sh)
        self.wh = _curl_raw(self.lay, self.uh)
        self._hs: dict[float, float] = {}

    def on_lay(self, box: np.ndarray) -> np.ndarray:
        """A retained-box array moved onto lay."""
        return box if self.lay is not self.g else self.g.retained.unpack(box)

    def real(self, a: np.ndarray) -> np.ndarray:
        """Real samples of coefficients held on lay."""
        return irfft_raw(self.g, a if self.lay is self.g else self.lay.unpack(a))

    @cached_property
    def u_re(self) -> np.ndarray:
        return self.real(self.uh)

    @cached_property
    def w_re(self) -> np.ndarray:
        return self.real(self.wh)

    def hs(self, alpha: float) -> float:
        """hs_norm_sq(S, alpha), computed once per alpha (E, K and H1 are
        alpha = 0, -1 and 1)."""
        if alpha not in self._hs:
            self._hs[alpha] = _hs(self.lay, self.sh, alpha)
        return self._hs[alpha]


def _isometry(b: _Sample) -> float:
    worst = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        vals = (
            b.hs(alpha),
            0.5 * _hs(b.lay, b.wh, alpha),
            0.5 * _grad_hs(b.lay, b.uh, alpha),
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
    A = b.on_lay(_sym_grad_raw(g.retained, _lamb_box(g, b.u_re, b.w_re)))
    B = _strain_project_raw(lay, b.on_lay(_s_squared_box(g, b.s_re)))
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


def _vortex_det(b: _Sample) -> float:
    s_re, wdat = b.s_re, b.w_re
    pair = 0.0
    for c, (i, j) in enumerate(SYM_PAIRS):
        pair += SYM_WEIGHTS[c] * np.sum(s_re[c] * wdat[i] * wdat[j])
    pair = float(pair * b.g.cell_volume)
    lhs = pair + 4.0 * b.det
    wmag2 = wdat[0] ** 2 + wdat[1] ** 2 + wdat[2] ** 2
    wl4_sq = float(np.sqrt(b.g.cell_volume * np.sum(wmag2**2)))
    return abs(lhs) / (math.sqrt(b.hs(0.0)) * wl4_sq + _EPS)


def vortex_det_residual(S: SymTensorField) -> float:
    """|<S, omega x omega> + 4 int det(S)| scaled by ||S|| ||omega||^2_{L^4}."""
    return _vortex_det(_Sample(S))


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

    `samples` is a sequence of at least three equally spaced records (or
    (t, E, H1, detS) tuples); the residual is evaluated at the middle sample.
    """
    rows = [
        (r.t, r.E, r.H1, r.detS) if isinstance(r, DiagnosticsRecord) else tuple(r)
        for r in samples
    ]
    if len(rows) < 3:
        raise ValueError("need at least 3 consecutive samples")
    dts = np.diff([r[0] for r in rows])
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
        out: dict = {
            "t": self.t,
            "E": self.E,
            "K": self.K,
            "H1": self.H1,
            "detS": self.detS,
            "trS3": self.trS3,
        }
        if self.g is not None:
            out["g"] = self.g
        out["f"] = self.f
        for q in Q_VALUES:
            out[f"lam2_{_Q_KEY[q]}"] = self.lam2_norms[q]
        for q in Q_VALUES:
            out[f"acc_{_Q_KEY[q]}"] = self.regcrit_accum[q]
        if self.ratio is not None and math.isfinite(self.ratio):
            out["ratio"] = self.ratio
        for name in (
            "res_enstrophy", "res_orth", "res_vortdet", "res_isometry", "res_constraint"
        ):
            if name in self.residuals:
                out[name] = self.residuals[name]
        return out


def sample_functionals(S: SymTensorField, nu: float, with_ratio: bool) -> dict:
    """Instantaneous functionals used by the run loop to assemble records.

    One derived-field bundle per call, dropped on return: S's real samples,
    u (so one strain-space residual check), omega, and int det(S) for detS,
    f and res_vortdet. Its spectral work runs on the retained box, as every
    state the run loop samples is dealiased. The norms of S are taken once:
    E, K and H1 also serve the isometry check, and E gives ||S|| to res_orth
    and res_vortdet. res_orth and the ratio share one Lamb-vector term and
    one P_st(S^2). res_constraint is the strain-space residual
    ||P_st S - S|| / ||S|| from the sample's residual check."""
    lam2_norms = lambda_lq_norms(S)  # before the bundle, to keep the peak low
    b = _Sample(S)
    e = b.hs(0.0)
    h1 = b.hs(1.0)
    f = -3.0 * nu * h1 - 4.0 * b.det
    vals = {
        "E": e,
        "K": b.hs(-1.0),
        "H1": h1,
        "detS": b.det,
        "trS3": trace_cubed_integral(S),
        "f": f,
        "lam2_norms": lam2_norms,
        "g": f / e**1.5 if e > 0.0 else None,
    }
    vals["res_orth"], vals["ratio"] = _orth_and_ratio(
        b, nu if with_ratio and e > 0.0 else None
    )
    vals["res_vortdet"] = _vortex_det(b)
    vals["res_isometry"] = _isometry(b)
    vals["res_constraint"] = b.res_constraint
    return vals
