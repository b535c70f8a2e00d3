"""Scalar functionals, blowup functionals, and identity residual monitors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import (
    SYM_PAIRS,
    SYM_WEIGHTS,
    SymTensorField,
    VectorField,
    _component_weights,
    l2_inner,
    l2_norm_sq,
)
from .operators import (
    _as_real,
    _as_spectral,
    _lamb_strain_raw,
    _strain_project_raw,
    lambda_fields,
    s_squared,
    velocity_of,
    vorticity_of,
)
from .spectral import laplacian

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


def _hs_weight(grid, alpha: float) -> np.ndarray:
    if alpha == 0:
        return np.ones_like(grid.k2)
    w = np.zeros_like(grid.k2)
    np.power(grid.k2, alpha, out=w, where=grid.k2 > 0)
    return w


def hs_norm_sq(f, alpha: float) -> float:
    """Squared homogeneous Sobolev norm via the |k|^(2*alpha) multiplier.

    Valid for -3/2 < alpha < 3/2; the mean mode is excluded for alpha != 0.
    """
    if not -1.5 < alpha < 1.5:
        raise ValueError(f"alpha must lie in (-3/2, 3/2), got {alpha}")
    sf = _as_spectral(f)
    g = sf.grid
    s = np.sum(
        _component_weights(sf) * g.hermitian_weight * _hs_weight(g, alpha)
        * (sf.data.real**2 + sf.data.imag**2)
    )
    return float(g.box_length**3 * s)


def grad_hs_norm_sq(u: VectorField, alpha: float) -> float:
    """Squared H^alpha norm of the full velocity-gradient tensor."""
    if not -1.5 < alpha < 1.5:
        raise ValueError(f"alpha must lie in (-3/2, 3/2), got {alpha}")
    uf = _as_spectral(u)
    g = uf.grid
    s = np.sum(
        g.hermitian_weight * _hs_weight(g, alpha) * g.kd2
        * (uf.data.real**2 + uf.data.imag**2)
    )
    return float(g.box_length**3 * s)


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
    """Fields derived from one strain sample, built once: S spectral and real,
    int det(S), u = velocity_of(S) (one strain-space residual check) and
    omega; u and omega memoize their real samples, and hs() the norms of S."""

    def __init__(self, S: SymTensorField) -> None:
        self.S = _as_spectral(S)
        self.s_re = _as_real(S).data
        self.det = det_integral(S)
        self.u = velocity_of(self.S)
        self.w = vorticity_of(self.u)
        self._hs: dict[float, float] = {}

    def hs(self, alpha: float) -> float:
        """hs_norm_sq(S, alpha), computed once per alpha (E, K and H1 are
        alpha = 0, -1 and 1)."""
        if alpha not in self._hs:
            self._hs[alpha] = hs_norm_sq(self.S, alpha)
        return self._hs[alpha]


def _isometry(b: _Sample) -> float:
    worst = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        vals = (
            b.hs(alpha),
            0.5 * hs_norm_sq(b.w, alpha),
            0.5 * grad_hs_norm_sq(b.u, alpha),
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
    sf, g = b.S, b.S.grid
    ns = math.sqrt(b.hs(0.0))
    if ns == 0.0:
        return 0.0, None
    A = _lamb_strain_raw(g, b.u, b.w)
    B = _strain_project_raw(g, s_squared(SymTensorField(g, b.s_re)).data)
    term = SymTensorField(g, A - (2.0 / 3.0) * B)
    nt = math.sqrt(l2_norm_sq(term))
    orth = abs(l2_inner(term, sf)) / (nt * ns + _EPS)
    if nu is None:
        return orth, None
    kept = 0.5 * A + B / 3.0
    den = math.sqrt(l2_norm_sq(SymTensorField(g, -nu * laplacian(sf).data + kept)))
    return orth, (nt / den if den != 0.0 else math.inf)


def orthogonality_residual(S: SymTensorField) -> float:
    """|<dropped term, S>| / (||dropped term|| ||S||); zero for the zero field."""
    return _orth_and_ratio(_Sample(S))[0]


def _vortex_det(b: _Sample) -> float:
    g, s_re = b.S.grid, b.s_re
    wdat = b.w.real_samples()
    pair = 0.0
    for c, (i, j) in enumerate(SYM_PAIRS):
        pair += SYM_WEIGHTS[c] * np.sum(s_re[c] * wdat[i] * wdat[j])
    pair = float(pair * g.cell_volume)
    lhs = pair + 4.0 * b.det
    wmag2 = wdat[0] ** 2 + wdat[1] ** 2 + wdat[2] ** 2
    wl4_sq = float(np.sqrt(g.cell_volume * np.sum(wmag2**2)))
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
    sf = _as_spectral(S)
    if l2_norm_sq(sf) == 0.0:
        raise ValueError("ratio is undefined for the zero field")
    return _orth_and_ratio(_Sample(sf), nu)[1]


def enstrophy_identity_residual(samples, nu: float) -> float:
    """Centered-difference dE/dt against -2 nu ||S||^2_{H^1} - 4 int det(S).

    `samples` is a sequence of at least three equally spaced records (or
    (t, E, H1, detS) tuples); the residual is evaluated at the middle sample.
    """
    rows = [
        (r.t, r.E, r.H1, r.detS) if isinstance(r, DiagnosticsRecord) else tuple(r)
        for r in samples
    ]
    if len(rows) < 3:
        raise ValueError("need at least 3 consecutive samples")
    ts = np.array([r[0] for r in rows])
    dts = np.diff(ts)
    if np.any(np.abs(dts - dts[0]) > 1e-9 * max(abs(dts[0]), 1e-300)):
        raise ValueError("samples must be equally spaced in time")
    i = len(rows) // 2
    dedt = (rows[i + 1][1] - rows[i - 1][1]) / (ts[i + 1] - ts[i - 1])
    rhs = -2.0 * nu * rows[i][2] - 4.0 * rows[i][3]
    return abs(dedt - rhs) / max(abs(rhs), _EPS)


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
        for name in ("res_enstrophy", "res_orth", "res_vortdet", "res_isometry"):
            if name in self.residuals:
                out[name] = self.residuals[name]
        return out


def sample_functionals(S: SymTensorField, nu: float, with_ratio: bool) -> dict:
    """Instantaneous functionals used by the run loop to assemble records.

    One derived-field bundle per call, dropped on return: S's real samples,
    one velocity_of (so one strain-space residual check), omega, and int
    det(S) for detS, f and res_vortdet. The norms of S are taken once: E, K
    and H1 also serve the isometry check, and E gives ||S|| to res_orth and
    res_vortdet. res_orth and the ratio share one Lamb-vector term and one
    P_st(S^2)."""
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
    return vals
