"""Strain calculus, projections, nonlinear products, eigenvalues."""

import numpy as np
import pytest

from strainamp.fields import (
    SYM_PAIRS,
    ScalarField,
    SymTensorField,
    VectorField,
    l2_inner,
    l2_norm_sq,
)
from strainamp.grid import GridSpec
from strainamp.initdata import colliding_jets, hessian_probe, random_solenoidal
from strainamp.operators import (
    ConstraintError,
    advection_term,
    divergence_residual,
    eig_symtensor,
    lambda_fields,
    leray_project,
    omega_outer,
    s_squared,
    strain_of,
    strain_project,
    strain_space_residual,
    velocity_of,
    vorticity_of,
)
from strainamp.oracle import jacobi_eig
from strainamp.spectral import derivative, forward_transform, inverse_transform


def rel_l2(a, b):
    return np.sqrt(l2_norm_sq(type(a)(a.grid, a.data - b.data)) / l2_norm_sq(b))


def random_strain(grid, seed, amplitude=1.0):
    return strain_of(random_solenoidal(grid, seed, amplitude=amplitude))


class TestStrainOf:
    def test_zero(self):
        g = GridSpec(16, 2 * np.pi)
        u = VectorField(g, np.zeros((3,) + g.real_shape))
        S = strain_of(u)
        assert np.all(S.data == 0)

    def test_analytic_trig_field(self):
        # u = (sin x cos y cos z, -cos x sin y cos z, 0) is divergence-free
        g = GridSpec(32, 2 * np.pi)
        x, y, z = g.coords()
        u = VectorField(
            g,
            np.stack(
                [
                    np.sin(x) * np.cos(y) * np.cos(z),
                    -np.cos(x) * np.sin(y) * np.cos(z),
                    np.zeros(g.real_shape),
                ]
            ),
        )
        S = inverse_transform(strain_of(u))
        cx, sx = np.cos(x), np.sin(x)
        cy, sy = np.cos(y), np.sin(y)
        cz, sz = np.cos(z), np.sin(z)
        exact = np.stack(
            [
                cx * cy * cz,
                np.zeros(g.real_shape),
                -0.5 * sx * cy * sz,
                -cx * cy * cz,
                0.5 * cx * sy * sz,
                np.zeros(g.real_shape),
            ]
        )
        assert np.max(np.abs(S.data - exact)) < 1e-12

    def test_trace_free(self):
        g = GridSpec(32, 16.0)
        S = inverse_transform(strain_of(colliding_jets(g, 1.0)))
        trace = S.data[0] + S.data[3] + S.data[5]
        rms = np.sqrt(np.mean(S.data**2))
        assert np.max(np.abs(trace)) < 1e-10 * rms

    def test_rejects_nonsolenoidal(self):
        g = GridSpec(16, 2 * np.pi)
        x, _, _ = g.coords()
        u = VectorField(
            g, np.stack([np.sin(x) * np.ones(g.real_shape)] + [np.zeros(g.real_shape)] * 2)
        )
        with pytest.raises(ConstraintError):
            strain_of(u)

    def test_rejects_nan_coefficient(self):
        # a NaN divergence residual compares False against the tolerance
        g = GridSpec(16, 16.0)
        u = random_solenoidal(g, 0)
        u.data[0, 1, 2, 3] = np.nan
        with pytest.raises(ConstraintError, match="nan"):
            strain_of(u)


class TestVelocityOf:
    def test_zero(self):
        g = GridSpec(16, 1.0)
        S = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        u = velocity_of(S)
        assert np.all(u.data == 0)

    def test_roundtrip_trig_field(self):
        g = GridSpec(32, 2 * np.pi)
        x, y, z = g.coords()
        u = VectorField(
            g,
            np.stack(
                [
                    np.sin(x) * np.cos(y) * np.cos(z),
                    -np.cos(x) * np.sin(y) * np.cos(z),
                    np.zeros(g.real_shape),
                ]
            ),
        )
        uf = forward_transform(u)
        back = velocity_of(strain_of(uf))
        assert rel_l2(back, uf) < 1e-10

    @pytest.mark.parametrize("seed", range(20))
    def test_roundtrip_random(self, seed):
        g = GridSpec(16, 16.0)
        u = random_solenoidal(g, seed)
        S = strain_of(u)
        assert rel_l2(strain_of(velocity_of(S)), S) < 1e-10
        assert rel_l2(velocity_of(S), u) < 1e-10

    def test_rejects_non_strain_input(self):
        g = GridSpec(16, 16.0)
        h = hessian_probe(g, "hessian")
        with pytest.raises(ConstraintError):
            velocity_of(h)

    def test_rejects_nan_coefficient(self):
        # a NaN residual compares False against the tolerance
        g = GridSpec(16, 16.0)
        S = strain_of(random_solenoidal(g, 0))
        S.data[0, 1, 2, 3] = np.nan
        with pytest.raises(ConstraintError, match="nan"):
            velocity_of(S)


class TestVorticityOf:
    def test_constant_velocity(self):
        g = GridSpec(16, 1.0)
        u = VectorField(g, np.ones((3,) + g.real_shape))
        w = vorticity_of(forward_transform(u))
        assert np.max(np.abs(w.data)) < 1e-15

    def test_analytic_curl(self):
        g = GridSpec(32, 2 * np.pi)
        x, _, _ = g.coords()
        u = VectorField(
            g,
            np.stack(
                [np.zeros(g.real_shape)] * 2 + [np.sin(x) * np.ones(g.real_shape)]
            ),
        )
        w = inverse_transform(vorticity_of(forward_transform(u)))
        exact = np.stack(
            [
                np.zeros(g.real_shape),
                -np.cos(x) * np.ones(g.real_shape),
                np.zeros(g.real_shape),
            ]
        )
        assert np.max(np.abs(w.data - exact)) < 1e-12

    def test_output_divergence_free(self):
        g = GridSpec(24, 8.0)
        rng = np.random.default_rng(3)
        u = forward_transform(VectorField(g, rng.standard_normal((3,) + g.real_shape)))
        w = vorticity_of(u)
        assert divergence_residual(w) < 1e-10

    def test_colliding_jets_closed_form(self):
        # azimuthal vorticity (-14 r z + 4 r z^3 + 4 r^3 z) e^{-r^2 - z^2}
        g = GridSpec(64, 16.0)
        u = colliding_jets(g, 1.0)
        w = inverse_transform(vorticity_of(u))
        x, y, z = g.coords()
        r = np.sqrt(x**2 + y**2) + np.zeros(g.real_shape)
        zz = z + np.zeros(g.real_shape)
        closed = (-14 * r * zz + 4 * r * zz**3 + 4 * r**3 * zz) * np.exp(
            -(r**2) - zz**2
        )
        theta_x = np.where(r > 0, -(y + np.zeros(g.real_shape)) / np.where(r > 0, r, 1), 0.0)
        theta_y = np.where(r > 0, (x + np.zeros(g.real_shape)) / np.where(r > 0, r, 1), 0.0)
        w_theta = w.data[0] * theta_x + w.data[1] * theta_y
        scale = np.max(np.abs(closed))
        sel = r > 0
        assert np.max(np.abs(w_theta[sel] - closed[sel])) < 1e-6 * scale


class TestLerayProject:
    def test_gradient_killed(self):
        g = GridSpec(16, 4.0)
        rng = np.random.default_rng(5)
        f = forward_transform(ScalarField(g, rng.standard_normal(g.real_shape)))
        grad = VectorField(
            g, np.stack([derivative(f, ax).data for ax in (1, 2, 3)])
        )
        out = leray_project(grad)
        assert np.sqrt(l2_norm_sq(out)) < 1e-12 * np.sqrt(l2_norm_sq(grad))

    def test_solenoidal_unchanged(self):
        g = GridSpec(16, 4.0)
        u = random_solenoidal(g, 6)
        assert rel_l2(leray_project(u), u) < 1e-12

    def test_idempotent(self):
        g = GridSpec(16, 4.0)
        rng = np.random.default_rng(7)
        v = forward_transform(VectorField(g, rng.standard_normal((3,) + g.real_shape)))
        p1 = leray_project(v)
        p2 = leray_project(p1)
        assert rel_l2(p2, p1) < 1e-12


class TestStrainProject:
    def test_annihilates_hessian(self):
        g = GridSpec(32, 16.0)
        h = hessian_probe(g, "hessian")
        out = strain_project(h)
        assert np.sqrt(l2_norm_sq(out) / l2_norm_sq(h)) < 1e-10

    def test_annihilates_identity_multiple(self):
        g = GridSpec(32, 16.0)
        rng = np.random.default_rng(8)
        f = forward_transform(ScalarField(g, rng.standard_normal(g.real_shape)))
        zeros = np.zeros_like(f.data)
        gi = SymTensorField(g, np.stack([f.data, zeros, zeros, f.data, zeros, f.data]))
        out = strain_project(gi)
        assert np.sqrt(l2_norm_sq(out) / l2_norm_sq(gi)) < 1e-10

    def test_fixes_strains(self):
        g = GridSpec(32, 16.0)
        S = random_strain(g, 9)
        assert rel_l2(strain_project(S), S) < 1e-10

    def test_idempotent_and_selfadjoint(self):
        g = GridSpec(16, 8.0)
        rng = np.random.default_rng(10)
        M = forward_transform(SymTensorField(g, rng.standard_normal((6,) + g.real_shape)))
        Q = forward_transform(SymTensorField(g, rng.standard_normal((6,) + g.real_shape)))
        p1 = strain_project(M)
        assert rel_l2(strain_project(p1), p1) < 1e-10
        a = l2_inner(p1, Q)
        b = l2_inner(M, strain_project(Q))
        assert a == pytest.approx(b, rel=1e-10)

    def test_output_trace_free(self):
        g = GridSpec(16, 8.0)
        rng = np.random.default_rng(11)
        M = forward_transform(SymTensorField(g, rng.standard_normal((6,) + g.real_shape)))
        out = inverse_transform(strain_project(M))
        trace = out.data[0] + out.data[3] + out.data[5]
        assert np.max(np.abs(trace)) < 1e-12 * np.sqrt(np.mean(out.data**2))


class TestProducts:
    def test_s_squared_zero(self):
        g = GridSpec(16, 1.0)
        S = SymTensorField(g, np.zeros((6,) + g.real_shape))
        assert np.all(s_squared(S).data == 0)

    def test_s_squared_constant_diagonal(self):
        g = GridSpec(16, 1.0)
        ones = np.ones(g.real_shape)
        zeros = np.zeros(g.real_shape)
        S = SymTensorField(g, np.stack([ones, zeros, zeros, ones, zeros, -2 * ones]))
        out = inverse_transform(s_squared(S))
        want = np.stack([ones, zeros, zeros, ones, zeros, 4 * ones])
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_s_squared_single_mode_exact(self):
        # single low mode on n=16 (cutoff 5): the mode-2 harmonics of the
        # product survive dealiasing, so the result is the exact square
        g = GridSpec(16, 2 * np.pi)
        fh = np.zeros((6,) + g.spectral_shape, dtype=complex)
        fh[0, 1, 0, 0] = 0.5
        fh[0, -1, 0, 0] = 0.5
        fh[3, 1, 0, 0] = -0.25
        fh[3, -1, 0, 0] = -0.25
        fh[5, 1, 0, 0] = -0.25
        fh[5, -1, 0, 0] = -0.25
        S = SymTensorField(g, fh)
        out = inverse_transform(s_squared(S))
        s_re = inverse_transform(S)
        want = np.stack(
            [
                s_re.data[0] ** 2,
                np.zeros(g.real_shape),
                np.zeros(g.real_shape),
                s_re.data[3] ** 2,
                np.zeros(g.real_shape),
                s_re.data[5] ** 2,
            ]
        )
        assert np.max(np.abs(out.data - want)) < 1e-12

    def test_omega_outer_constant(self):
        g = GridSpec(16, 1.0)
        w = VectorField(
            g, np.stack([np.zeros(g.real_shape)] * 2 + [np.ones(g.real_shape)])
        )
        out = inverse_transform(omega_outer(w))
        assert np.max(np.abs(out.data[5] - 1.0)) < 1e-12
        assert np.max(np.abs(out.data[:5])) < 1e-12

    def test_omega_outer_trace_is_magnitude(self):
        g = GridSpec(16, 2.0)
        rng = np.random.default_rng(12)
        w = VectorField(g, rng.standard_normal((3,) + g.real_shape))
        prod = np.stack([w.data[i] * w.data[j] for (i, j) in
                         ((0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2))])
        trace = prod[0] + prod[3] + prod[5]
        mag = np.sum(w.data**2, axis=0)
        assert np.max(np.abs(trace - mag)) < 1e-12 * np.max(mag)

    def test_advection_zero_velocity(self):
        g = GridSpec(16, 8.0)
        S = random_strain(g, 13)
        u = VectorField(g, np.zeros((3,) + g.real_shape))
        out = advection_term(u, S)
        assert np.max(np.abs(out.data)) == 0.0

    def test_advection_constant_strain(self):
        g = GridSpec(16, 8.0)
        u = random_solenoidal(g, 14)
        const = np.stack([np.full(g.real_shape, c) for c in (1.0, 0.5, -0.25, 2.0, 0.0, -3.0)])
        S = forward_transform(SymTensorField(g, const))
        out = advection_term(u, S)
        assert np.max(np.abs(out.data)) < 1e-14

    @pytest.mark.parametrize("seed", range(5))
    def test_advection_orthogonal_to_strain(self, seed):
        g = GridSpec(32, 16.0)
        u = random_solenoidal(g, seed + 100)
        S = random_strain(g, seed + 200)
        adv = advection_term(u, S)
        num = abs(l2_inner(adv, S))
        den = np.sqrt(l2_norm_sq(adv) * l2_norm_sq(S))
        assert num / den < 1e-8


class TestEigenvalues:
    def test_diagonal(self):
        t = eig_symtensor(np.diag([1.0, 1.0, -2.0]))
        assert (t.lambda1, t.lambda2, t.lambda3) == pytest.approx((-2.0, 1.0, 1.0))

    def test_zero(self):
        t = eig_symtensor(np.zeros((3, 3)))
        assert (t.lambda1, t.lambda2, t.lambda3) == (0.0, 0.0, 0.0)

    def test_lambda2_plus(self):
        t = eig_symtensor(np.diag([-3.0, -1.0, 4.0]))
        assert t.lambda2_plus == 0.0
        t2 = eig_symtensor(np.diag([-3.0, 1.0, 2.0]))
        assert t2.lambda2_plus == pytest.approx(1.0, abs=1e-12)

    def test_against_jacobi_oracle(self):
        rng = np.random.default_rng(15)
        worst = 0.0
        for _ in range(100):
            m = rng.standard_normal((3, 3))
            m = 0.5 * (m + m.T)
            fast = eig_symtensor(m)
            slow = jacobi_eig(m)
            scale = np.sqrt(np.sum(m * m))
            worst = max(
                worst,
                abs(fast.lambda1 - slow.lambda1) / scale,
                abs(fast.lambda2 - slow.lambda2) / scale,
                abs(fast.lambda3 - slow.lambda3) / scale,
            )
        assert worst < 1e-10

    def test_near_degenerate(self):
        m = np.diag([1.0, 1.0 + 1e-13, 1.0 - 1e-13])
        t = eig_symtensor(m)
        assert t.lambda1 <= t.lambda2 <= t.lambda3
        assert t.lambda2 == pytest.approx(1.0, abs=1e-12)


    def test_stacked_against_eigvalsh(self):
        # ordered roots at every point of stacked random, zero, multiple-of-I,
        # repeated and near-repeated eigenvalue matrices. A double root is
        # conditioned like sqrt(eps): the arccos near +-1 gives it ~1e-8 ||m||.
        from strainamp.operators import _eig3_raw

        rng = np.random.default_rng(21)
        k = 512

        def rotated(d):
            q, _ = np.linalg.qr(rng.standard_normal((k, 3, 3)))
            return q @ (d[:, :, None] * np.eye(3)) @ q.transpose(0, 2, 1)

        a, b = rng.standard_normal(k), rng.standard_normal(k)
        m = rng.standard_normal((k, 3, 3))
        exact = np.concatenate(
            [
                0.5 * (m + m.transpose(0, 2, 1)),
                np.zeros((k, 3, 3)),
                a[:, None, None] * np.eye(3),
            ]
        )
        repeated = np.concatenate(
            [
                rotated(np.stack([a, a, b], axis=1)),
                rotated(np.stack([a, a, -2.0 * a], axis=1)),
                rotated(np.stack([a, a * (1 + 1e-13), a * (1 - 1e-13)], axis=1)),
                rotated(np.stack([a, a * (1 + 1e-9), b], axis=1)),
            ]
        )
        for mats, tol in ((exact, 1e-12), (repeated, 1e-7)):
            l1, l2, l3 = _eig3_raw([mats[:, i, j] for i, j in SYM_PAIRS])
            assert np.all(l1 <= l2) and np.all(l2 <= l3)
            err = np.abs(np.stack([l1, l2, l3], axis=1) - np.linalg.eigvalsh(mats))
            norm = np.sqrt(np.sum(mats * mats, axis=(1, 2)))
            assert np.all(err <= tol * norm[:, None])


class TestLambdaFields:
    def test_zero_field(self):
        g = GridSpec(8, 1.0)
        S = SymTensorField(g, np.zeros((6,) + g.real_shape))
        l1, l2, l2p = lambda_fields(S)
        assert np.all(l1.data == 0) and np.all(l2.data == 0) and np.all(l2p.data == 0)

    def test_constant_diagonal_field(self):
        g = GridSpec(8, 1.0)
        ones = np.ones(g.real_shape)
        zeros = np.zeros(g.real_shape)
        S = SymTensorField(g, np.stack([ones, zeros, zeros, ones, zeros, -2 * ones]))
        _, l2, l2p = lambda_fields(S)
        assert np.max(np.abs(l2.data - 1.0)) < 1e-12
        assert np.max(np.abs(l2p.data - 1.0)) < 1e-12

    def test_trace_free_ordering_and_middle_bound(self):
        # lambda1 <= 0 <= lambda3, and |lambda2| <= |S e_3| pointwise
        g = GridSpec(32, 16.0)
        S = strain_of(colliding_jets(g, 1.0))
        s_re = inverse_transform(S)
        l1, l2, l2p = lambda_fields(S)
        assert np.all(l2p.data >= 0)
        assert np.all(l1.data <= 1e-12)
        se3 = np.sqrt(
            s_re.data[2] ** 2 + s_re.data[4] ** 2 + s_re.data[5] ** 2
        )
        assert np.all(np.abs(l2.data) <= se3 + 1e-10)

    def test_sum_zero_for_trace_free(self):
        g = GridSpec(16, 16.0)
        S = random_strain(g, 16)
        s_re = inverse_transform(S)
        l1, l2, _ = lambda_fields(S)
        l3 = -(l1.data + l2.data)
        tr3 = (
            s_re.data[0] ** 3 + s_re.data[3] ** 3 + s_re.data[5] ** 3
        )
        # eigenvalues reproduce tr(S^3) = l1^3 + l2^3 + l3^3
        want = np.sum(s_re.data[0] + s_re.data[3] + s_re.data[5])
        assert abs(want) < 1e-8  # trace-free input
        lam_sum = l1.data + l2.data + l3
        assert np.max(np.abs(lam_sum)) < 1e-10 * (1 + np.max(np.abs(l3)))


class TestResidualHelpers:
    def test_divergence_residual_zero_on_solenoidal(self):
        g = GridSpec(16, 4.0)
        assert divergence_residual(random_solenoidal(g, 17)) < 1e-12

    def test_strain_space_residual(self):
        g = GridSpec(16, 16.0)
        assert strain_space_residual(random_strain(g, 18)) < 1e-12
        assert strain_space_residual(hessian_probe(g, "hessian")) > 0.9

    @pytest.mark.parametrize("box", [False, True], ids=["full", "box"])
    def test_velocity_checked_forms_u_once(self, box):
        # u serves both the return value and P_st S inside the residual: the
        # same bytes as the residual through P_st followed by a second u
        from strainamp.fields import _mode_sum
        from strainamp.operators import (
            _div_sym_raw,
            _leray_raw,
            _sym_grad_raw,
            _velocity_checked_raw,
            _velocity_raw,
        )

        g = GridSpec(16, 16.0)
        # a dealiased strain plus a small Hessian part, so P_st S - S != 0
        S, h = random_strain(g, 19), hessian_probe(g, "hessian")
        sh = (S.data + 1e-8 * h.data) * g.dealias_mask
        lay = g.retained if box else g
        sh = g.retained.pack(sh) if box else sh
        wh = -2.0 * lay.inv_kd2 * _div_sym_raw(lay, sh)
        d = _sym_grad_raw(lay, _leray_raw(lay, wh)) - sh
        res = float(np.sqrt(_mode_sum(lay, d, d) / _mode_sum(lay, sh, sh)))
        uh, got = _velocity_checked_raw(lay, sh)
        assert uh.tobytes() == _velocity_raw(lay, sh).tobytes()
        assert got == res

    @pytest.mark.parametrize("scale, raises", [(0.5, False), (2.0, True)])
    def test_velocity_checked_tolerance(self, scale, raises):
        # a Hessian part of relative size scale * 1e-6 leaves a residual of
        # about that size, against the 1e-6 tolerance
        from strainamp.operators import _velocity_checked_raw

        g = GridSpec(16, 16.0)
        S, h = random_strain(g, 20), hessian_probe(g, "hessian")
        eps = scale * 1e-6 * np.sqrt(l2_norm_sq(S) / l2_norm_sq(h))
        sh = S.data + eps * h.data
        if raises:
            with pytest.raises(ConstraintError, match="exceeds 1.0e-06"):
                _velocity_checked_raw(g, sh)
        else:
            assert _velocity_checked_raw(g, sh)[1] < 1e-6
