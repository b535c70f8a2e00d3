"""Scalar functionals, blowup functionals, and residual monitors."""

import math

import numpy as np
import pytest

from strainamp import diagnostics as diag
from strainamp.fields import ScalarField, SymTensorField, l2_norm_sq
from strainamp.grid import GridSpec
from strainamp.initdata import colliding_jets, random_solenoidal
from strainamp.operators import strain_of, vorticity_of
from strainamp.oracle import det_integrand_quadrature

CLOSED_FORM = 8.0 * np.pi**1.5 / (81.0 * np.sqrt(3.0))


def random_strain(grid, seed, amplitude=1.0):
    return strain_of(random_solenoidal(grid, seed, amplitude=amplitude))


class TestSobolevNorms:
    def test_zero_field(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        assert diag.enstrophy(S) == 0.0
        assert diag.energy(S) == 0.0
        assert diag.hs_norm_sq(S, 1.0) == 0.0

    def test_alpha_zero_is_enstrophy(self):
        g = GridSpec(16, 16.0)
        S = random_strain(g, 0)
        assert diag.hs_norm_sq(S, 0.0) == pytest.approx(l2_norm_sq(S), rel=1e-14)

    def test_unit_wavenumber_alpha_independent(self):
        # single mode with |k| = 1: the H^alpha weight is 1 for every alpha
        g = GridSpec(16, 2 * np.pi)
        fh = np.zeros(g.spectral_shape, dtype=complex)
        fh[1, 0, 0] = 0.5
        fh[-1, 0, 0] = 0.5
        f = ScalarField(g, fh)
        base = diag.hs_norm_sq(f, 0.0)
        for alpha in (-1.0, -0.5, 0.5, 1.0):
            assert diag.hs_norm_sq(f, alpha) == pytest.approx(base, rel=1e-13)

    def test_rejects_alpha_out_of_range(self):
        g = GridSpec(16, 1.0)
        S = random_strain(g, 1)
        with pytest.raises(ValueError):
            diag.hs_norm_sq(S, 1.5)
        with pytest.raises(ValueError):
            diag.hs_norm_sq(S, -2.0)

    def test_enstrophy_is_half_vorticity_norm(self):
        g = GridSpec(24, 16.0)
        u = random_solenoidal(g, 2)
        S = strain_of(u)
        w = vorticity_of(u)
        assert diag.enstrophy(S) == pytest.approx(0.5 * l2_norm_sq(w), rel=1e-10)

    @pytest.mark.parametrize("seed", range(20))
    def test_isometry_triple(self, seed):
        g = GridSpec(16, 16.0)
        S = random_strain(g, seed)
        assert diag.isometry_residual(S) < 1e-10


class TestDeterminantFunctionals:
    def test_zero(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.real_shape))
        assert diag.det_integral(S) == 0.0
        assert diag.trace_cubed_integral(S) == 0.0

    def test_constant_diagonal(self):
        g = GridSpec(16, 2.0)
        ones = np.ones(g.real_shape)
        zeros = np.zeros(g.real_shape)
        S = SymTensorField(g, np.stack([ones, zeros, zeros, ones, zeros, -2 * ones]))
        vol = g.box_length**3
        assert diag.det_integral(S) == pytest.approx(-2.0 * vol, rel=1e-13)
        assert diag.trace_cubed_integral(S) == pytest.approx(-6.0 * vol, rel=1e-13)

    def test_colliding_jets_value(self):
        # cross-checked against 2-D quadrature of the closed-form integrand
        g = GridSpec(64, 16.0)
        S = strain_of(colliding_jets(g, 1.0))
        got = -diag.det_integral(S)
        assert got == pytest.approx(det_integrand_quadrature(), rel=1e-6)
        assert got == pytest.approx(CLOSED_FORM, rel=1e-6)

    @pytest.mark.parametrize("seed", range(10))
    def test_trace_cubed_equals_three_det(self, seed):
        g = GridSpec(16, 16.0)
        S = random_strain(g, seed + 50)
        a = diag.trace_cubed_integral(S)
        b = 3.0 * diag.det_integral(S)
        assert abs(a - b) <= 1e-10 * max(abs(a), abs(b))

    def test_amplitude_homogeneity(self):
        g = GridSpec(32, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        S2 = strain_of(colliding_jets(g, 2.0))
        assert diag.det_integral(S2) == pytest.approx(
            8.0 * diag.det_integral(S1), rel=1e-10
        )
        assert diag.hs_norm_sq(S2, 1.0) == pytest.approx(
            4.0 * diag.hs_norm_sq(S1, 1.0), rel=1e-10
        )


class TestBlowupFunctionals:
    def test_g_negative_when_det_vanishes(self):
        # a planar shear u = (0, sin(k x), 0): its strain has rank 2
        # pointwise, so det(S) = 0 everywhere and g = -3 nu H / E^{3/2} < 0
        g = GridSpec(16, 2 * np.pi)
        x, _, _ = g.coords()
        from strainamp.fields import VectorField

        u = VectorField(
            g,
            np.stack(
                [
                    np.zeros(g.real_shape),
                    np.sin(x) * np.ones(g.real_shape),
                    np.zeros(g.real_shape),
                ]
            ),
        )
        S = strain_of(u)
        assert abs(diag.det_integral(S)) < 1e-12
        assert diag.g_of(S, 1.0) < 0.0

    def test_zero_field_guard(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        with pytest.raises(ValueError):
            diag.g_of(S, 1.0)
        with pytest.raises(ValueError):
            diag.r0_of(S, 1.0)

    def test_r0_consistency(self):
        g = GridSpec(24, 16.0)
        S = random_strain(g, 3)
        e = diag.enstrophy(S)
        assert diag.r0_of(S, 1.0) == pytest.approx(
            diag.g_of(S, 1.0) * math.sqrt(e) / 2.0, rel=1e-12
        )

    def test_critical_amplitude_sign_change(self):
        g = GridSpec(48, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        H = diag.hs_norm_sq(S1, 1.0)
        D = -diag.det_integral(S1)
        nu = 1.0
        m_crit = 3.0 * nu * H / (4.0 * D)
        below = strain_of(colliding_jets(g, 0.95 * m_crit))
        above = strain_of(colliding_jets(g, 1.05 * m_crit))
        assert diag.f_of(below, nu) < 0.0
        assert diag.f_of(above, nu) > 0.0

    def test_discrete_rescaling_law(self):
        # S -> lam^2 S(lam x), realized as the same mode content on a box of
        # length L/lam with coefficients scaled by lam^2: f scales by lam^3,
        # E by lam, r0 by lam^2, and g by lam^(3/2)
        lam = 2.0
        g1 = GridSpec(32, 16.0)
        g2 = GridSpec(32, 16.0 / lam)
        S1 = random_strain(g1, 4)
        S2 = SymTensorField(g2, lam**2 * S1.data)
        f1, f2 = diag.f_of(S1, 1.0), diag.f_of(S2, 1.0)
        # the dissipative part of f is not homogeneous in lam unless nu
        # rescales; check the two pieces separately instead
        assert diag.enstrophy(S2) == pytest.approx(lam * diag.enstrophy(S1), rel=1e-10)
        assert diag.hs_norm_sq(S2, 1.0) == pytest.approx(
            lam**3 * diag.hs_norm_sq(S1, 1.0), rel=1e-10
        )
        assert diag.det_integral(S2) == pytest.approx(
            lam**3 * diag.det_integral(S1), rel=1e-10
        )
        assert f2 == pytest.approx(lam**3 * f1, rel=1e-8)
        assert diag.g_of(S2, 1.0) == pytest.approx(
            lam**1.5 * diag.g_of(S1, 1.0), rel=1e-8
        )
        assert diag.r0_of(S2, 1.0) == pytest.approx(
            lam**2 * diag.r0_of(S1, 1.0), rel=1e-8
        )


class TestLambdaNorms:
    def test_zero_field(self):
        g = GridSpec(8, 1.0)
        S = SymTensorField(g, np.zeros((6,) + g.real_shape))
        norms = diag.lambda_lq_norms(S)
        assert all(v == 0.0 for v in norms.values())

    def test_constant_field(self):
        g = GridSpec(8, 2.0)
        ones = np.ones(g.real_shape)
        zeros = np.zeros(g.real_shape)
        S = SymTensorField(g, np.stack([ones, zeros, zeros, ones, zeros, -2 * ones]))
        norms = diag.lambda_lq_norms(S)
        vol = g.box_length**3
        assert norms[math.inf] == pytest.approx(1.0)
        assert norms[2.0] == pytest.approx(vol**0.5, rel=1e-12)
        assert norms[1.5] == pytest.approx(vol ** (2 / 3), rel=1e-12)

    def test_p_exponents(self):
        assert diag.p_exponent(2.0) == pytest.approx(4.0)
        assert diag.p_exponent(3.0) == pytest.approx(2.0)
        assert math.isinf(diag.p_exponent(1.5))
        assert diag.p_exponent(math.inf) == 2.0


class TestResiduals:
    @pytest.mark.parametrize("seed", range(20))
    def test_orthogonality(self, seed):
        g = GridSpec(32, 16.0)
        S = random_strain(g, seed)
        assert diag.orthogonality_residual(S) < 1e-8

    def test_orthogonality_zero_field(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        assert diag.orthogonality_residual(S) == 0.0

    @pytest.mark.parametrize("seed", range(20))
    def test_vortex_det(self, seed):
        g = GridSpec(32, 16.0)
        S = random_strain(g, seed + 300)
        assert diag.vortex_det_residual(S) < 1e-8

    def test_vortex_det_colliding_jets(self):
        # (1/4) <S, w x w> = -int det(S) = closed form
        g = GridSpec(64, 16.0)
        u = colliding_jets(g, 1.0)
        S = strain_of(u)
        w = vorticity_of(u)
        s_re = S.real_samples()
        w_re = w.real_samples()
        from strainamp.fields import SYM_PAIRS, SYM_WEIGHTS

        pair = sum(
            SYM_WEIGHTS[c] * np.sum(s_re[c] * w_re[i] * w_re[j])
            for c, (i, j) in enumerate(SYM_PAIRS)
        ) * g.cell_volume
        assert 0.25 * pair == pytest.approx(CLOSED_FORM, rel=1e-6)
        assert -diag.det_integral(S) == pytest.approx(0.25 * pair, rel=1e-8)


class TestPerturbativeRatio:
    def test_single_mode_pure_diffusion(self):
        # nonlinearity of a cutoff-adjacent single mode dealiases to zero on a
        # minimal grid, leaving ratio = 0 with denominator nu ||lap S||
        g = GridSpec(8, 2 * np.pi)
        fh = np.zeros((6,) + g.spectral_shape, dtype=complex)
        fh[1, 1, 0, 0] = 0.25
        fh[1, -1, 0, 0] = 0.25
        from strainamp.operators import strain_project

        S = strain_project(SymTensorField(g, fh))
        r = diag.perturbative_ratio(S, 1.0)
        assert r == pytest.approx(0.0, abs=1e-12)

    def test_zero_field_rejected(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        with pytest.raises(ValueError):
            diag.perturbative_ratio(S, 1.0)

    def test_deterministic(self):
        g = GridSpec(24, 16.0)
        S = random_strain(g, 7)
        a = diag.perturbative_ratio(S, 1.0)
        b = diag.perturbative_ratio(S, 1.0)
        assert a == b and np.isfinite(a)


class TestSampleFunctionals:
    @pytest.mark.parametrize("seed", [0, 5, 11])
    def test_bundle_matches_public_path(self, seed):
        self.check_public_path(random_strain(GridSpec(24, 16.0), seed, amplitude=3.0))

    def test_bundle_matches_public_path_on_samples(self):
        # a real-space S: the pointwise values come from its samples themselves
        S = random_strain(GridSpec(24, 16.0), 5, amplitude=3.0)
        self.check_public_path(SymTensorField(S.grid, S.real_samples()))

    @staticmethod
    def check_public_path(S):
        nu = 0.7
        vals = diag.sample_functionals(S, nu, True)
        assert vals["res_orth"] == diag.orthogonality_residual(S)
        assert vals["res_vortdet"] == diag.vortex_det_residual(S)
        assert vals["res_isometry"] == diag.isometry_residual(S)
        assert vals["ratio"] == diag.perturbative_ratio(S, nu)
        assert vals["H1"] == diag.hs_norm_sq(S, 1.0)
        assert vals["detS"] == diag.det_integral(S)
        assert vals["trS3"] == diag.trace_cubed_integral(S)
        assert vals["f"] == diag.f_of(S, nu)
        assert vals["g"] == diag.g_of(S, nu)
        assert vals["lam2_norms"] == diag.lambda_lq_norms(S)

    def test_one_residual_check_per_sample(self, monkeypatch):
        g = GridSpec(16, 16.0)
        S = random_strain(g, 2)
        calls = []
        orig = diag._strain_checked_raw
        monkeypatch.setattr(
            diag,
            "_strain_checked_raw",
            lambda *a, **k: calls.append(1) or orig(*a, **k),
        )
        diag.sample_functionals(S, 1.0, True)
        assert len(calls) == 1

    @pytest.mark.parametrize("with_ratio", [False, True])
    def test_transform_count(self, fft_counts, with_ratio):
        # forward: omega x u and S^2; inverse: S, u, omega
        g = GridSpec(16, 16.0)
        S = random_strain(g, 4)
        fft_counts.update(fwd=0, inv=0)
        diag.sample_functionals(S, 1.0, with_ratio)
        assert fft_counts == {"fwd": 3 + 6, "inv": 6 + 3 + 3}

    @pytest.mark.parametrize("seed", [3, 8])
    def test_lamb_form_matches_triple_form(self, monkeypatch, seed):
        from strainamp.operators import (
            advection_term,
            omega_outer,
            s_squared,
            strain_project,
            velocity_of,
        )
        from strainamp.spectral import laplacian

        g = GridSpec(32, 16.0)
        S = random_strain(g, seed, amplitude=3.0)
        nu = 0.3
        u = velocity_of(S)
        adv, s2 = advection_term(u, S).data, s_squared(S).data
        oo = omega_outer(vorticity_of(u)).data

        def p_st(a, b, c):
            return strain_project(SymTensorField(g, a * adv + b * s2 + c * oo)).data

        dropped = p_st(1.0, 1.0 / 3.0, 0.25)
        kept = -nu * laplacian(S).data + p_st(0.5, 5.0 / 6.0, 0.125)
        ratio = math.sqrt(
            l2_norm_sq(SymTensorField(g, dropped))
            / l2_norm_sq(SymTensorField(g, kept))
        )
        # res_orth's <dropped term, S> is the one mode sum of two different
        # arrays; the dropped term is its first argument, held on the box
        seen = []
        orig = diag._mode_sum
        monkeypatch.setattr(
            diag,
            "_mode_sum",
            lambda lay, a, b, *r: (a is not b and seen.append(lay.unpack(a)))
            or orig(lay, a, b, *r),
        )
        vals = diag.sample_functionals(S, nu, True)
        assert len(seen) == 1
        assert np.max(np.abs(seen[0] - dropped)) <= 1e-12 * np.max(np.abs(dropped))
        assert vals["ratio"] == pytest.approx(ratio, rel=1e-12, abs=0.0)

    def test_zero_field(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        vals = diag.sample_functionals(S, 1.0, True)
        assert vals["res_orth"] == 0.0
        assert vals["ratio"] is None and vals["g"] is None
        assert vals["E"] == 0.0 and vals["f"] == 0.0


class TestRecordStream:
    def test_rows_residual_and_accumulators(self):
        g = GridSpec(16, 16.0)
        times = [0.0, 0.1, 0.25, 0.3, 0.5]
        stream = diag._RecordStream(nu=0.7, with_ratio=False)
        recs = [stream.record(random_strain(g, s, 1.0 + s), t) for s, t in enumerate(times)]
        assert len(stream.rows) == 3
        assert "res_enstrophy" not in recs[1].residuals
        for i in range(2, len(recs)):
            rows = [(r.t, r.E, r.H1, r.detS) for r in recs[i - 2 : i + 1]]
            assert recs[i].residuals["res_enstrophy"] == diag._identity_residual(*rows, 0.7)
        for q in diag.Q_VALUES:
            p = diag.p_exponent(q)
            norms = [r.lam2_norms[q] for r in recs]
            if math.isinf(p):  # running supremum
                want = max(norms)
            else:  # trapezoid rule in time
                want = sum(
                    0.5 * (t1 - t0) * (b**p + a**p)
                    for t0, t1, a, b in zip(times, times[1:], norms, norms[1:])
                )
            assert recs[-1].regcrit_accum[q] == pytest.approx(want, rel=1e-14)
            assert recs[0].regcrit_accum[q] == (norms[0] if math.isinf(p) else 0.0)


class TestEnstrophyIdentityResidual:
    def test_requires_three_samples(self):
        with pytest.raises(ValueError):
            diag.enstrophy_identity_residual([(0.0, 1.0, 1.0, 0.0)], nu=1.0)

    def test_requires_equal_spacing(self):
        rows = [(0.0, 1.0, 1.0, 0.0), (0.1, 1.0, 1.0, 0.0), (0.35, 1.0, 1.0, 0.0)]
        with pytest.raises(ValueError):
            diag.enstrophy_identity_residual(rows, nu=1.0)
        # equal spacing of zero: the times do not increase
        rows = [(0.1, 1.0, 1.0, 0.0)] * 3
        with pytest.raises(ValueError, match="sample times must increase"):
            diag.enstrophy_identity_residual(rows, nu=1.0)

    def test_steady_zero(self):
        rows = [(0.0, 0.0, 0.0, 0.0), (0.1, 0.0, 0.0, 0.0), (0.2, 0.0, 0.0, 0.0)]
        assert diag.enstrophy_identity_residual(rows, nu=1.0) == 0.0

    def test_exact_on_manufactured_exponential(self):
        # E(t) = e^{-2 nu t}, H1 = E, det = 0 satisfies the identity exactly
        nu = 0.7
        ts = [0.0, 0.01, 0.02]
        rows = [(t, math.exp(-2 * nu * t), math.exp(-2 * nu * t), 0.0) for t in ts]
        res = diag.enstrophy_identity_residual(rows, nu=nu)
        assert res < 1e-4  # centered-difference error only


class TestEnvelopeCheck:
    def test_t_zero_equality(self):
        res = diag.envelope_check([(0.0, 5.0)], E0=5.0, r0=2.0)
        assert res.applicable
        assert res.checks == [(0.0, True)]

    def test_hypothesis_unmet(self):
        res = diag.envelope_check([(0.0, 5.0)], E0=5.0, r0=-1.0)
        assert not res.applicable
        assert res.checks == []

    def test_respects_horizon_and_slack(self):
        E0, r0 = 1.0, 1.0
        recs = [(0.4, E0 / 0.36 * 0.9995), (0.8, 0.5), (1.5, 99.0)]
        res = diag.envelope_check(recs, E0, r0)
        # first sample passes inside slack, second fails, third is past 1/r0
        assert res.checks == [(0.4, True), (0.8, False)]
        assert res.pass_fraction == 0.5


class TestGammaMembership:
    def test_zero_field_not_member(self):
        g = GridSpec(16, 16.0)
        S = SymTensorField(g, np.zeros((6,) + g.real_shape))
        out = diag.gamma_membership(S, 1.0)
        assert not out.member
        assert out.margin == 0.0
        assert out.consistent

    def test_member_clears_lambda2_floor(self):
        g = GridSpec(48, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        H = diag.hs_norm_sq(S1, 1.0)
        D = -diag.det_integral(S1)
        m = 1.5 * 3.0 * H / (4.0 * D)
        S = strain_of(colliding_jets(g, m))
        out = diag.gamma_membership(S, 1.0)
        assert out.member and out.margin > 0
        assert out.threshold == pytest.approx(4.5 * (np.pi / 2) ** (4 / 3))
        assert out.lambda2_plus_l32 > out.threshold
        assert out.consistent

    def test_threshold_value(self):
        assert diag.LAMBDA2_L32_THRESHOLD == pytest.approx(8.217, abs=5e-4)
