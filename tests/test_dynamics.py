"""Time stepping, right-hand sides, run control, and checkpointing."""

import math

import numpy as np
import pytest

from strainamp import diagnostics as diag
from strainamp import dynamics
from strainamp.dynamics import (
    LOCAL_EXISTENCE_COEFF,
    CheckpointError,
    SimParams,
    StrainState,
    cfl_dt,
    full_rhs,
    make_state,
    model_rhs,
    read_checkpoint,
    run,
    step,
    velocity_rhs,
    write_checkpoint,
)
from strainamp.fields import SymTensorField, VectorField, l2_inner, l2_norm_sq
from strainamp.grid import GridSpec
from strainamp.initdata import colliding_jets, random_solenoidal
from strainamp.operators import _velocity_raw, strain_of, velocity_of, vorticity_of
from strainamp.spectral import heat_semigroup, laplacian


def params(equation="model", **kw):
    base = dict(nu=1.0, equation=equation, t_end=1.0, cfl=0.4, dt_max=1e-2, dt_min=1e-9)
    base.update(kw)
    return SimParams(**base)


def random_state(grid, seed, amplitude=1.0, slope=-4.0, **kw):
    S = strain_of(random_solenoidal(grid, seed, slope=slope, amplitude=amplitude))
    return make_state(S, 0.0, params(**kw))


def rel_l2(a, b):
    return math.sqrt(
        l2_norm_sq(SymTensorField(a.grid, a.data - b.data)) / l2_norm_sq(b)
    )


class TestTransformCounts:
    # one step from a fresh state: every stage transforms its own samples
    @pytest.mark.parametrize(
        "equation, fwd, inv",
        [("model", 24, 24), ("full_strain", 12, 24), ("velocity_ns", 24, 12)],
    )
    def test_step(self, fft_counts, equation, fwd, inv):
        st = random_state(GridSpec(16, 16.0), 3, slope=-8.0, equation=equation)
        fft_counts.update(fwd=0, inv=0)
        step(st, 1e-3)
        assert fft_counts == {"fwd": fwd, "inv": inv}


class TestResidualChecks:
    # a state's u passes the strain-space residual check once per full-strain
    # step, not once per stage: every stage reads an unchecked of_velocity
    # bundle
    @pytest.mark.parametrize(
        "equation, calls", [("full_strain", 1), ("model", 0), ("velocity_ns", 0)]
    )
    def test_one_check_per_step(self, monkeypatch, equation, calls):
        from strainamp import operators

        st = random_state(GridSpec(16, 16.0), 3, equation=equation)
        seen, bundles = [], []
        orig = operators._strain_residual_raw
        monkeypatch.setattr(
            operators,
            "_strain_residual_raw",
            lambda *a: seen.append(1) or orig(*a),
        )
        orig_bundle = diag._Sample.of_velocity
        monkeypatch.setattr(
            diag._Sample,
            "of_velocity",
            staticmethod(lambda g, uh: bundles.append(uh) or orig_bundle(g, uh)),
        )
        b = orig_bundle(st.grid, st.uh)
        step(st, 1e-3, derived=b)
        assert len(seen) == calls
        assert len(bundles) == 3  # one per stage after the first

    def test_cfl_dt_leaves_the_check_to_step(self, monkeypatch):
        # on a run's bundle, cfl_dt's |u|_inf reads u unchecked and the
        # full-strain step runs the one check on that same u
        from strainamp import operators

        st = random_state(GridSpec(16, 16.0), 3, equation="full_strain")
        seen = []
        orig = operators._strain_residual_raw
        monkeypatch.setattr(
            operators, "_strain_residual_raw", lambda *a: seen.append(1) or orig(*a)
        )
        b = diag._Sample.of_velocity(st.grid, st.uh)
        cfl_dt(st, derived=b)
        assert seen == []
        step(st, 1e-3, derived=b)
        assert len(seen) == 1

    # S off the strain space: a Hessian is annihilated by P_st
    @pytest.mark.parametrize(
        "reader",
        [
            diag._Sample,
            diag.isometry_residual,
            diag.orthogonality_residual,
            diag.vortex_det_residual,
            lambda S: diag.perturbative_ratio(S, 1.0),
            lambda S: diag.sample_functionals(S, 1.0, True),
            lambda S: full_rhs(S, 1.0),
        ],
        ids=[
            "_Sample", "isometry_residual", "orthogonality_residual",
            "vortex_det_residual", "perturbative_ratio", "sample_functionals",
            "full_rhs",
        ],
    )
    def test_outside_strain_is_refused(self, reader):
        from strainamp.initdata import hessian_probe
        from strainamp.operators import ConstraintError

        with pytest.raises(ConstraintError):
            reader(hessian_probe(GridSpec(16, 16.0)))

    def test_model_rhs_takes_any_strain(self):
        from strainamp.initdata import hessian_probe

        S = hessian_probe(GridSpec(16, 16.0))
        assert np.all(np.isfinite(model_rhs(S, 1.0).data))


class TestLambForm:
    # full_rhs's nonlinearity -sym grad P_df(omega x u) against the triple
    # form built from the public operators; exact to roundoff while
    # 3 * cutoff <= n + 2
    @pytest.mark.parametrize(
        "n, seed, fraction",
        [(16, 1, 2 / 3), (16, 2, 2 / 3), (32, 1, 2 / 3), (32, 2, 2 / 3), (32, 3, 0.7)],
    )
    def test_matches_triple_form(self, n, seed, fraction):
        from strainamp.operators import (
            advection_term,
            omega_outer,
            s_squared,
            strain_project,
        )

        g = GridSpec(n, 16.0, fraction)
        S = make_state(
            strain_of(random_solenoidal(g, seed, amplitude=3.0)), 0.0, params()
        ).S
        u = velocity_of(S)
        triple = SymTensorField(
            g,
            advection_term(u, S).data
            + s_squared(S).data
            + 0.25 * omega_outer(vorticity_of(u)).data,
        )
        ref = -strain_project(triple).data
        nu = params().nu
        got = full_rhs(S, nu).data - nu * laplacian(S).data
        assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))


class TestSimParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimParams(nu=-1.0, equation="model")
        with pytest.raises(ValueError):
            SimParams(nu=1.0, equation="navier")
        with pytest.raises(ValueError):
            SimParams(nu=1.0, equation="model", cfl=1.5)
        with pytest.raises(ValueError):
            SimParams(nu=1.0, equation="model", dt_min=1.0, dt_max=0.5)
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match="nu"):
                SimParams(nu=bad, equation="model")
            with pytest.raises(ValueError, match="t_end"):
                SimParams(nu=1.0, equation="model", t_end=bad)

    def test_local_existence_constant(self):
        # (3 (2 pi)^{3/4} / 32)^4, about 1.92e-2
        assert LOCAL_EXISTENCE_COEFF == pytest.approx(1.92e-2, rel=1e-2)


class TestRhs:
    def test_zero_states(self):
        g = GridSpec(16, 16.0)
        Z6 = SymTensorField(g, np.zeros((6,) + g.spectral_shape, dtype=complex))
        Z3 = VectorField(g, np.zeros((3,) + g.spectral_shape, dtype=complex))
        assert np.all(model_rhs(Z6, 1.0).data == 0)
        assert np.all(full_rhs(Z6, 1.0).data == 0)
        assert np.all(velocity_rhs(Z3, 1.0).data == 0)

    def test_model_enstrophy_pairing(self):
        # <model_rhs, S> = -nu ||S||^2_{H^1} - (2/3) int tr(S^3)
        g = GridSpec(32, 16.0)
        S = strain_of(random_solenoidal(g, 0, amplitude=2.0))
        nu = 0.7
        lhs = l2_inner(model_rhs(S, nu), S)
        want = -nu * diag.hs_norm_sq(S, 1.0) - (2.0 / 3.0) * diag.trace_cubed_integral(S)
        assert lhs == pytest.approx(want, rel=1e-8)

    def test_full_minus_model_is_dropped_term(self):
        from strainamp.operators import (
            advection_term,
            omega_outer,
            s_squared,
            strain_project,
        )

        g = GridSpec(32, 16.0)
        S = strain_of(random_solenoidal(g, 1, amplitude=2.0))
        u = velocity_of(S)
        w = vorticity_of(u)
        dropped = strain_project(
            SymTensorField(
                g,
                advection_term(u, S).data
                + s_squared(S).data / 3.0
                + 0.25 * omega_outer(w).data,
            )
        )
        diff = full_rhs(S, 1.0).data - model_rhs(S, 1.0).data
        scale = np.max(np.abs(dropped.data))
        assert np.max(np.abs(diff + dropped.data)) < 1e-10 * scale

    def test_full_and_model_pair_equally_with_state(self):
        g = GridSpec(32, 16.0)
        S = strain_of(random_solenoidal(g, 2, amplitude=2.0))
        a = l2_inner(full_rhs(S, 1.0), S)
        b = l2_inner(model_rhs(S, 1.0), S)
        assert a == pytest.approx(b, rel=1e-6)

    def test_velocity_energy_pairing(self):
        # <velocity_rhs, u> = -nu ||u||^2_{H^1} (nonlinearity does no work)
        g = GridSpec(32, 16.0)
        u = random_solenoidal(g, 3, amplitude=2.0)
        nu = 1.3
        lhs = l2_inner(velocity_rhs(u, nu), u)
        want = -nu * diag.hs_norm_sq(u, 1.0)
        assert lhs == pytest.approx(want, rel=1e-8)


class TestStep:
    def test_zero_state_fixed(self):
        g = GridSpec(16, 16.0)
        st = StrainState(g, np.zeros((3,) + g.retained.shape, dtype=complex), 0.0, params())
        out = step(st, 1e-3)
        assert np.all(out.S.data == 0)
        assert out.t == pytest.approx(1e-3)

    def test_rejects_oversized_dt(self):
        g = GridSpec(16, 16.0)
        st = random_state(g, 4)
        for dt in (1.0, math.nan):
            with pytest.raises(ValueError):
                step(st, dt)

    def test_linear_only_matches_heat_semigroup(self, monkeypatch):
        # disable the nonlinearity: the integrating factor is then exact
        g = GridSpec(16, 16.0)
        st = random_state(g, 5)
        zero = lambda grid, s_re: np.zeros((3,) + grid.retained.shape, dtype=complex)
        monkeypatch.setattr(dynamics, "_model_stage", zero)
        out = step(st, 5e-3)
        exact = heat_semigroup(st.S, 1.0 * 5e-3)
        assert rel_l2(out.S, exact) < 1e-12

    def test_one_step_convergence_order(self):
        g = GridSpec(16, 16.0)
        st = random_state(g, 6, amplitude=3.0, dt_max=0.1)

        def advance(state, dt, n):
            for _ in range(n):
                state = step(state, dt)
            return state

        h = 0.02
        ref_h = advance(st, h / 16, 16)
        ref_h2 = advance(st, h / 16, 8)
        e_h = rel_l2(advance(st, h, 1).S, ref_h.S)
        e_h2 = rel_l2(advance(st, h / 2, 1).S, ref_h2.S)
        order = math.log2(e_h / e_h2)
        assert order >= 3.8

    def test_state_stays_in_strain_space(self):
        from strainamp.operators import strain_space_residual

        g = GridSpec(16, 16.0)
        st = random_state(g, 7, amplitude=2.0)
        for _ in range(10):
            st = step(st, 2e-3)
        assert strain_space_residual(st.S) < 1e-6

    def test_nonfinite_reported(self):
        g = GridSpec(16, 16.0)
        bad = np.zeros((3,) + g.retained.shape, dtype=complex)
        bad[0, 1, 0, 0] = np.inf
        st = StrainState(g, bad, 0.0, params())
        with pytest.raises(dynamics.NonFiniteStateError):
            step(st, 1e-3)


class TestEquivalenceOfFormulations:
    def test_velocity_vs_strain_50_steps(self):
        g = GridSpec(32, 16.0)
        S0 = strain_of(random_solenoidal(g, 8, amplitude=2.0))
        dt = 2e-3
        sf = make_state(S0, 0.0, params("full_strain"))
        sv = make_state(S0, 0.0, params("velocity_ns"))
        for _ in range(50):
            sf = step(sf, dt)
            sv = step(sv, dt)
        assert rel_l2(sv.S, sf.S) < 1e-6

    def test_strain_of_velocity_step_matches_strain_step(self):
        g = GridSpec(32, 16.0)
        S0 = strain_of(random_solenoidal(g, 9, amplitude=2.0))
        dt = 1e-3
        sf = step(make_state(S0, 0.0, params("full_strain")), dt)
        sv = step(make_state(S0, 0.0, params("velocity_ns")), dt)
        # the two time discretizations commute with the strain map, so the
        # agreement is far below the O(dt^5) local-error envelope
        assert rel_l2(sv.S, sf.S) < (dt * 10) ** 5


class TestCflDt:
    def test_zero_state_gives_dt_max(self):
        g = GridSpec(16, 16.0)
        st = StrainState(g, np.zeros((3,) + g.retained.shape, dtype=complex), 0.0, params())
        assert cfl_dt(st) == pytest.approx(1e-2)

    def test_amplitude_scaling(self):
        g = GridSpec(32, 16.0)
        s1 = make_state(strain_of(colliding_jets(g, 200.0)), 0.0, params())
        s2 = make_state(strain_of(colliding_jets(g, 400.0)), 0.0, params())
        d1, d2 = cfl_dt(s1), cfl_dt(s2)
        assert d2 == pytest.approx(d1 / 2.0, rel=1e-6)

    def test_formula(self):
        g = GridSpec(32, 16.0)
        st = make_state(strain_of(colliding_jets(g, 100.0)), 0.0, params())
        s_re = st.S.real_samples()
        from strainamp.fields import SYM_WEIGHTS

        s_inf = np.sqrt(
            np.max(np.einsum("c...,c...->...", s_re * SYM_WEIGHTS.reshape(6, 1, 1, 1), s_re))
        )
        u_re = velocity_of(st.S).real_samples()
        u_inf = np.sqrt(np.max(np.sum(u_re**2, axis=0)))
        want = min(1e-2, 0.4 * g.dx / max(1, u_inf), 0.4 / max(1, s_inf))
        assert cfl_dt(st) == pytest.approx(want, rel=1e-12)


class TestRun:
    def test_t_end_zero(self):
        g = GridSpec(16, 16.0)
        st = random_state(g, 10, t_end=0.0)
        records = []
        report = run(st, records.append)
        assert report.outcome == "resolved_to_t_end"
        assert len(records) == 1
        assert report.t_outcome == 0.0

    def test_small_data_decays(self):
        g = GridSpec(48, 16.0)
        thr = 3.0 * math.sqrt(3.0) * math.pi / (4.0 * math.sqrt(2.0))
        S1 = strain_of(colliding_jets(g, 1.0))
        hminus = math.sqrt(diag.hs_norm_sq(S1, -0.5))
        m = 0.5 * thr / hminus
        st = make_state(
            strain_of(colliding_jets(g, m)), 0.0, params(t_end=0.25, output_every=5)
        )
        records = []
        report = run(st, records.append)
        assert report.outcome == "resolved_to_t_end"
        es = [r.E for r in records]
        assert all(es[i + 1] <= es[i] * (1 + 1e-12) for i in range(len(es) - 1))

    def test_blowup_run_envelope(self):
        g = GridSpec(48, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        H = diag.hs_norm_sq(S1, 1.0)
        D = -diag.det_integral(S1)
        m = 1.5 * 3.0 * H / (4.0 * D)
        st = make_state(
            strain_of(colliding_jets(g, m)), 0.0, params(output_every=5)
        )
        records = []
        report = run(st, records.append)
        assert report.outcome in ("resolution_lost", "blowup_detected")
        assert report.g0 > 0 and report.r0 > 0 and report.f0 > 0
        assert report.t_star_envelope == pytest.approx(1.0 / report.r0)
        assert report.t_star_perturbative is not None
        env = diag.envelope_check(records, records[0].E, report.r0)
        assert env.applicable and env.pass_fraction == 1.0
        gs = [r.g for r in records]
        assert all(gs[i + 1] >= gs[i] - 1e-6 for i in range(len(gs) - 1))

    def test_dt_underflow_is_blowup(self):
        g = GridSpec(48, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        H = diag.hs_norm_sq(S1, 1.0)
        D = -diag.det_integral(S1)
        m = 3.0 * 3.0 * H / (4.0 * D)
        st = make_state(
            strain_of(colliding_jets(g, m)), 0.0, params(dt_min=5e-4, dt_max=1e-2)
        )
        report = run(st)
        assert report.outcome == "blowup_detected"

    @pytest.mark.parametrize("equation", ["velocity_ns", "full_strain"])
    def test_energy_balance_conservative_forms(self, equation):
        # K(t) + 2 nu int E dt = K0 for the conservative formulations
        g = GridSpec(32, 16.0)
        S0 = strain_of(random_solenoidal(g, 12, slope=-6.0, amplitude=1.5))
        records = []
        st = make_state(
            S0, 0.0, params(equation, t_end=0.05, dt_max=1e-3, output_every=1)
        )
        run(st, records.append)
        K0 = records[0].K
        acc = 0.0
        for i in range(1, len(records)):
            dt = records[i].t - records[i - 1].t
            acc += 0.5 * dt * (records[i].E + records[i - 1].E)
            bal = records[i].K + 2.0 * 1.0 * acc
            assert bal == pytest.approx(K0, rel=1e-4)

    def test_enstrophy_identity_residual_on_records(self):
        g = GridSpec(32, 16.0)
        S0 = strain_of(random_solenoidal(g, 13, slope=-6.0, amplitude=2.0))
        records = []
        st = make_state(
            S0, 0.0, params("model", t_end=0.02, dt_max=5e-4, output_every=1)
        )
        run(st, records.append)
        res = diag.enstrophy_identity_residual(records[3:6], nu=1.0)
        assert res < 1e-4
        for r in records[2:]:
            assert r.residuals["res_enstrophy"] < 1e-4

    def test_f_monotone_under_ratio_condition(self):
        g = GridSpec(48, 16.0)
        S1 = strain_of(colliding_jets(g, 1.0))
        H = diag.hs_norm_sq(S1, 1.0)
        D = -diag.det_integral(S1)
        m = 1.3 * 3.0 * H / (4.0 * D)
        st = make_state(
            strain_of(colliding_jets(g, m)),
            0.0,
            params("full_strain", t_end=2e-3, dt_max=5e-5, output_every=2),
        )
        records = []
        run(st, records.append)
        assert len(records) >= 3
        for a, b in zip(records, records[1:]):
            if a.ratio is not None and b.ratio is not None:
                if a.ratio <= 2.0 and b.ratio <= 2.0:
                    assert b.f >= a.f - 1e-6 * max(1.0, abs(a.f))

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    @pytest.mark.parametrize("jets", [False, True])
    def test_report_from_first_record(self, monkeypatch, equation, jets):
        # E0, f0 and K0 come from the t = 0 sample, not from a second pass
        g = GridSpec(16, 16.0)
        p = params(equation, t_end=5e-4, dt_max=1e-3)
        if jets:  # twice the amplitude at which f0 turns positive
            S1 = make_state(strain_of(colliding_jets(g, 1.0)), 0.0, p).S
            m = 2.0 * 3.0 * diag.hs_norm_sq(S1, 1.0) / (-4.0 * diag.det_integral(S1))
            S0 = strain_of(colliding_jets(g, m))
        else:
            S0 = strain_of(random_solenoidal(g, 19, amplitude=2.0))
        st = make_state(S0, 0.0, p)

        def boom(*a, **k):
            raise AssertionError("recomputed a t = 0 functional")

        for name in ("enstrophy", "f_of", "energy"):
            monkeypatch.setattr(diag, name, boom)
        records = []
        report = run(st, records.append)
        E0, f0, K0 = records[0].E, records[0].f, records[0].K
        assert report.f0 == f0
        assert report.g0 == f0 / E0**1.5
        assert report.r0 == f0 / (2.0 * E0)
        assert (f0 > 0) == jets
        if jets:
            assert report.t_star_perturbative == (-E0 + math.sqrt(E0**2 + f0 * K0)) / f0
        else:
            assert report.t_star_perturbative is None


class TestConstraintMonitor:
    # the stepper does not re-project: the strain-space residual it leaves
    # is monitored on every record and must stay at roundoff
    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_res_constraint_stays_at_roundoff(self, equation):
        from strainamp.operators import strain_space_residual

        g = GridSpec(16, 16.0)
        S0 = strain_of(random_solenoidal(g, 20, slope=-8.0, amplitude=3.0))
        p = params(equation, t_end=0.06, dt_max=1e-3, output_every=1)
        records = []
        run(make_state(S0, 0.0, p), records.append)
        assert len(records) >= 61
        for r in records:
            assert r.to_json_dict()["res_constraint"] <= 1e-12, r.t
        st = make_state(S0, 0.0, p)
        for _ in range(60):
            st = step(st, 1e-3)
        assert strain_space_residual(st.S) <= 1e-12

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_carried_velocity_stays_divergence_free(self, equation):
        # a state's u is the last step's RK result, never re-projected: its
        # gradient part stays at roundoff over 60 steps of cfl_dt and step,
        # and so does each state's record's res_constraint
        from strainamp.fields import _mode_sum
        from strainamp.operators import _leray_raw

        g = GridSpec(32, 16.0)
        r = g.retained
        st = random_state(g, 22, amplitude=3.0, equation=equation, t_end=10.0)
        stream = diag._RecordStream(st.params.nu, with_ratio=False)
        for _ in range(60):
            b = diag._Sample.of_velocity(g, st.uh)
            rec = stream.record(b, st.t)
            assert rec.residuals["res_constraint"] <= 1e-12, st.t
            st = step(st, cfl_dt(st, derived=b), derived=b)
            grad = st.uh - _leray_raw(r, st.uh)
            assert _mode_sum(r, grad, grad) <= 1e-28 * _mode_sum(r, st.uh, st.uh), st.t


def _hand_run(state, every):
    """run's loop through the public cfl_dt, step and _RecordStream.record
    alone, so every state's derived fields are rebuilt by each call. Also
    returns the public sample_functionals of each recorded state's S."""
    p = state.params
    with_ratio = p.equation == "full_strain"
    stream = diag._RecordStream(p.nu, with_ratio)
    public = []

    def record(st):
        public.append(diag.sample_functionals(st.S, p.nu, with_ratio))
        return stream.record(diag._Sample.of_velocity(st.grid, st.uh), st.t)

    records = [record(state)]
    first_dt = LOCAL_EXISTENCE_COEFF / records[0].E ** 2
    steps = 0
    while state.t < p.t_end - 1e-15:
        dt = cfl_dt(state)
        if steps == 0:
            dt = min(dt, first_dt)
        state = step(state, min(dt, p.t_end - state.t))
        steps += 1
        if steps % every == 0:
            records.append(record(state))
    if steps % every != 0:
        records.append(record(state))
    return records, state, public


class TestSharedDerivedFields:
    # run builds each state's derived fields once and shares them between
    # the diagnostics sample, cfl_dt and step's first stage; the results are
    # the bits the three calls give on their own
    @pytest.mark.parametrize("every", [1, 3])
    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_run_matches_hand_loop(self, equation, every):
        # |u|_inf > 1, so the CFL limit binds through u after the first step
        st = random_state(
            GridSpec(16, 16.0), 21, amplitude=50.0, slope=-8.0, equation=equation,
            t_end=2.5e-3, cfl=5e-4, dt_max=1e-3, output_every=every,
        )
        records = []
        report = run(st, records.append)
        want, end, public = _hand_run(st, every)
        assert len(records) == len(want) == {1: 10, 3: 4}[every]
        assert records == want
        assert [r.to_json_dict() for r in records] == [r.to_json_dict() for r in want]
        # a record samples the state's own u; the public sample recovers u
        # from S: the same bits for what S alone gives, roundoff for the rest
        for rec, vals in zip(records, public):
            for key in ("E", "K", "H1", "detS", "trS3", "f", "g", "lam2_norms"):
                assert getattr(rec, key) == vals[key], (rec.t, key)
            if vals["ratio"] is not None:
                assert rec.ratio == pytest.approx(vals["ratio"], rel=1e-13, abs=0.0)
            for key in ("res_orth", "res_vortdet", "res_isometry", "res_constraint"):
                assert abs(rec.residuals[key] - vals[key]) <= 1e-13, (rec.t, key)
        E0, f0 = want[0].E, want[0].f
        assert report.outcome == "resolved_to_t_end"
        assert report.t_outcome == end.t
        assert (report.f0, report.g0, report.r0) == (f0, f0 / E0**1.5, f0 / (2.0 * E0))

    @staticmethod
    def _kept_samples_step(fft_counts, equation, via):
        # whatever the equation, the real u that cfl_dt or the sample made is
        # held until the step takes it, then dropped; returns the step's
        # (fwd, inv) component transforms
        st = random_state(GridSpec(16, 16.0), 3, slope=-8.0, equation=equation)
        alone = step(st, 1e-3)
        b = diag._Sample.of_velocity(st.grid, st.uh)
        if via == "cfl_dt":
            cfl_dt(st, derived=b)
        else:
            diag.sample_functionals(b, 1.0, False)
        assert "u_re" in vars(b)
        fft_counts.update(fwd=0, inv=0)
        shared = step(st, 1e-3, derived=b)
        assert "u_re" not in vars(b)
        assert shared.uh.tobytes() == alone.uh.tobytes()
        return fft_counts["fwd"], fft_counts["inv"]

    @pytest.mark.parametrize("via", ["cfl_dt", "sample"])
    def test_velocity_stage_one_takes_kept_samples(self, fft_counts, via):
        # stage 1 of velocity_ns runs on the held u, 3 inverse transforms
        # fewer than a step alone
        assert self._kept_samples_step(fft_counts, "velocity_ns", via) == (24, 9)

    @pytest.mark.parametrize(
        "equation, via, fwd, inv",
        [
            ("model", "cfl_dt", 24, 18),
            ("model", "sample", 18, 18),
            ("full_strain", "cfl_dt", 12, 21),
            ("full_strain", "sample", 9, 18),
        ],
    )
    def test_strain_stage_one_takes_kept_samples(
        self, fft_counts, equation, via, fwd, inv
    ):
        # the sample has made stage 1's S^2 and its Lamb term (from omega's
        # samples), which the step makes after cfl_dt
        assert self._kept_samples_step(fft_counts, equation, via) == (fwd, inv)

    # a run of 5 steps with a record after each (6 samples), counted in
    # component transforms and strain-space residual checks; a velocity_ns
    # step's first stage takes the real u that the sample or cfl_dt made
    @pytest.mark.parametrize(
        "equation, fwd, inv",
        [("full_strain", 99, 162), ("model", 144, 162), ("velocity_ns", 174, 117)],
    )
    def test_run_counts(self, fft_counts, monkeypatch, equation, fwd, inv):
        from strainamp import operators

        st = random_state(
            GridSpec(16, 16.0), 3, slope=-8.0, equation=equation,
            t_end=5e-3, dt_max=1e-3, output_every=1,
        )
        checks = []
        orig = operators._strain_residual_raw
        monkeypatch.setattr(
            operators, "_strain_residual_raw", lambda *a: checks.append(1) or orig(*a)
        )
        records = []
        fft_counts.update(fwd=0, inv=0)
        run(st, records.append)
        assert len(records) == 6
        assert fft_counts == {"fwd": fwd, "inv": inv}
        assert len(checks) == 6

    def test_unsampled_full_strain_state_makes_u_once(self, fft_counts, monkeypatch):
        # a run of 3 steps with only the t = 0 sample. On a state without a
        # sample, cfl_dt's |u|_inf and stage 1's Lamb term share one u and one
        # set of its real samples: per step 6 inverse components (u, omega),
        # 6 (S, for |S|_inf) and 18 (stages 2-4), 30 in all
        from strainamp import operators

        st = random_state(
            GridSpec(16, 16.0), 3, slope=-8.0, equation="full_strain",
            t_end=3e-3, dt_max=1e-3, output_every=100,
        )
        calls = []
        for mod in (operators, diag):
            orig = mod._velocity_raw
            monkeypatch.setattr(
                mod, "_velocity_raw", lambda *a, f=orig: calls.append(1) or f(*a)
            )
        fft_counts.update(fwd=0, inv=0)
        report = run(st)
        assert report.t_outcome == pytest.approx(3e-3)
        # the t = 0 sample (12), the step from the sampled state (18), then two
        # steps from states without a sample (30 each)
        assert fft_counts["inv"] == 12 + 18 + 30 + 30
        # u is each state's own, never recovered from S: the one call is the
        # sample's P_st(S^2)
        assert len(calls) == 1

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_run_without_sink_takes_one_sample(self, monkeypatch, equation):
        st = random_state(
            GridSpec(16, 16.0), 4, slope=-8.0, equation=equation,
            t_end=5e-3, dt_max=1e-3, output_every=2,
        )
        want = run(st, [].append)
        calls = []
        orig = diag.sample_functionals
        monkeypatch.setattr(
            diag, "sample_functionals", lambda *a, **k: calls.append(1) or orig(*a, **k)
        )
        assert run(st) == want
        assert len(calls) == 1

    def test_entry_points_reached_through_modules(self, monkeypatch, tmp_path):
        # perfbench's tracer wraps these module attributes to time each layer
        seen = set()
        for module, name in (
            (dynamics, "cfl_dt"),
            (dynamics, "step"),
            (dynamics, "write_checkpoint"),
            (diag, "sample_functionals"),
        ):
            orig = getattr(module, name)
            wrapped = lambda *a, _f=orig, _n=name, **k: seen.add(_n) or _f(*a, **k)
            monkeypatch.setattr(module, name, wrapped)
        st = random_state(
            GridSpec(16, 16.0), 5, slope=-8.0, t_end=2e-3, dt_max=1e-3, output_every=1
        )
        run(st, [].append, checkpoint_every=1, checkpoint_path=str(tmp_path / "c.bin"))
        assert seen == {"cfl_dt", "step", "write_checkpoint", "sample_functionals"}


class TestRunLifetime:
    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_nothing_derived_outlives_the_run(self, monkeypatch, equation):
        # with the cycle collector off, anything a reference cycle holds stays
        # alive: every stepped state's u and every bundle must be freed by
        # reference counting alone once run returns
        import gc
        import weakref

        refs = []
        orig_step, orig_sample = dynamics.step, diag._Sample.of_velocity

        def stepped(*a, **k):
            st = orig_step(*a, **k)
            refs.append(weakref.ref(st.uh))
            return st

        def bundle(*a, **k):
            b = orig_sample(*a, **k)
            refs.append(weakref.ref(b))
            return b

        monkeypatch.setattr(dynamics, "step", stepped)
        monkeypatch.setattr(diag._Sample, "of_velocity", staticmethod(bundle))
        st = random_state(
            GridSpec(16, 16.0), 8, slope=-8.0, equation=equation,
            t_end=5e-3, dt_max=1e-3, output_every=2,
        )
        gc.disable()
        try:
            run(st, [].append)
            # 5 stepped states, 6 state bundles and 3 stage bundles per step
            assert len(refs) == 26
            assert [r() for r in refs if r() is not None] == []
        finally:
            gc.enable()

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_held_state_keeps_only_its_coefficients(self, equation):
        # the caller holds its initial state through run, as the cli does:
        # once run returns, nothing derived from that state (such as its real
        # samples) may stay allocated
        import gc
        import tracemalloc

        g = GridSpec(16, 16.0)
        S = strain_of(random_solenoidal(g, 8, slope=-8.0))
        p = params(equation=equation, t_end=5e-3, dt_max=1e-3, output_every=2)
        run(make_state(S, 0.0, p), [].append)  # fills the grid's own caches
        st = make_state(S, 0.0, p)
        gc.disable()
        tracemalloc.start()
        try:
            run(st, [].append)
            left = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
            gc.enable()
        assert left < st.uh.nbytes

    # a run's traced peak in n^3 float64 at n = 32, with a record and a
    # checkpoint after every step, pinned 10% above the measured 32.0
    # (model), 29.1 (full_strain) and 29.1 (velocity_ns). States that held
    # S on the full layout, with the next one unpacked beside it, read 39.0,
    # 35.5 and 36.0.
    @pytest.mark.parametrize(
        "equation, pin", [("model", 35.2), ("full_strain", 32.0), ("velocity_ns", 32.0)]
    )
    def test_run_peak_memory(self, tmp_path, equation, pin):
        import tracemalloc

        g = GridSpec(32, 16.0)
        p = params(equation=equation, t_end=3e-3, dt_max=1e-3, output_every=1)
        S = strain_of(random_solenoidal(g, 8, slope=-8.0))
        kw = dict(checkpoint_every=1, checkpoint_path=str(tmp_path / "c.bin"))
        run(make_state(S, 0.0, p), [].append, **kw)  # fills the grid's own caches
        st = make_state(S, 0.0, p)
        tracemalloc.start()
        try:
            report = run(st, [].append, **kw)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.outcome == "resolved_to_t_end"
        assert peak < pin * g.n**3 * 8


class TestOneProjection:
    # make_state is the one projection onto the strain space a run's initial
    # data gets; it runs on the retained box and gives the bits of the
    # full-layout expression
    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 0.9, 1.0])
    @pytest.mark.parametrize("n", [16, 18, 30, 32, 48, 64])
    def test_make_state_bits(self, n, fraction):
        from strainamp.initdata import InitSpec, initial_strain
        from strainamp.operators import _as_spectral, strain_project
        from strainamp.spectral import dealias

        g = GridSpec(n, 16.0, fraction)
        noise = np.random.default_rng(n).standard_normal((6,) + g.real_shape)
        inputs = [
            initial_strain(g, InitSpec(kind=kind, seed=3))
            for kind in ("colliding_jets", "random_solenoidal", "hessian_probe")
        ] + [SymTensorField(g, noise), strain_of(random_solenoidal(g, 5))]
        for S in inputs:
            want = dealias(strain_project(_as_spectral(S))).data
            assert make_state(S, 0.0, params()).S.data.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0])
    @pytest.mark.parametrize("n", [16, 18, 32])
    def test_read_checkpoint_bits(self, tmp_path, n, fraction):
        from strainamp.spectral import dealias, forward_transform

        g = GridSpec(n, 16.0, fraction)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, step(random_state(g, 19, amplitude=2.0), 1e-3))
        # the decode of the previous reader: one component at a time, then
        # the full-layout transform, dealiased; the state's u is its velocity
        raw = np.fromfile(path, dtype="<f8", offset=39).reshape(6, n**3)
        data = np.stack([raw[c].reshape((n, n, n), order="F") for c in range(6)])
        want = dealias(forward_transform(SymTensorField(g, g.from_monotone(data))))
        got = read_checkpoint(path, dealias_fraction=fraction)
        r = g.retained
        assert got.uh.tobytes() == _velocity_raw(r, r.pack(want.data)).tobytes()

    @pytest.mark.parametrize(
        "kind", ["colliding_jets", "random_solenoidal", "hessian_probe",
                 "perturbed_family", "from_checkpoint"],
    )
    def test_one_projection_per_setup(self, tmp_path, monkeypatch, kind):
        from strainamp import cli, operators
        from strainamp.config import RunConfig
        from strainamp.grid import RetainedModes

        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, random_state(GridSpec(16, 16.0), 20))
        calls = []
        for module in (operators, dynamics):
            orig = module._strain_velocity_raw
            monkeypatch.setattr(
                module, "_strain_velocity_raw",
                lambda lay, mh, _f=orig: calls.append(
                    "box" if isinstance(lay, RetainedModes) else "full"
                ) or _f(lay, mh),
            )
        cfg = RunConfig(kind=kind, equation="model", n=16, box_length=16.0,
                        path=path, lam=2.0)
        cli._build_state(cfg)
        assert calls == (["full", "box"] if kind == "perturbed_family" else ["box"])

    def test_hessian_probe_annihilated(self):
        from strainamp.initdata import InitSpec, initial_strain

        S = initial_strain(GridSpec(32, 16.0), InitSpec(kind="hessian_probe"))
        assert l2_norm_sq(S) > 0
        out = make_state(S, 0.0, params()).S
        assert math.sqrt(l2_norm_sq(out) / l2_norm_sq(S)) < 1e-14


class TestCheckpoint:
    def test_roundtrip(self, tmp_path):
        g = GridSpec(16, 16.0)
        st = random_state(g, 14, amplitude=2.0)
        st = step(st, 1e-3)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, st)
        back = read_checkpoint(path)
        assert back.t == pytest.approx(st.t)
        assert back.params.nu == st.params.nu
        assert back.params.equation == st.params.equation
        assert back.S.grid.n == g.n
        assert rel_l2(back.S, st.S) < 1e-12

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "junk.ckpt"
        path.write_bytes(b"NOPE!!" + b"\0" * 64)
        with pytest.raises(CheckpointError):
            read_checkpoint(str(path))

    def test_truncated_payload(self, tmp_path):
        g = GridSpec(16, 16.0)
        st = random_state(g, 15)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, st)
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[: len(blob) // 2])
        with pytest.raises(CheckpointError):
            read_checkpoint(path)

    def test_longer_payload_refused(self, tmp_path):
        path = tmp_path / "state.ckpt"
        write_checkpoint(str(path), random_state(GridSpec(16, 16.0), 15))
        path.write_bytes(path.read_bytes() + b"\0")
        want = f"payload of {48 * 16**3 + 1} bytes, expected {48 * 16**3} for n = 16"
        with pytest.raises(CheckpointError, match=want):
            read_checkpoint(str(path))

    def test_header_n_below_payload_refused(self, tmp_path):
        # a 16^3 payload under a header claiming n = 8 is not read as the
        # first 8^3 samples of each component
        import struct

        path = tmp_path / "state.ckpt"
        write_checkpoint(str(path), random_state(GridSpec(16, 16.0), 15))
        blob = bytearray(path.read_bytes())
        blob[6:14] = struct.pack("<Q", 8)
        path.write_bytes(bytes(blob))
        want = f"payload of {48 * 16**3} bytes, expected {48 * 8**3} for n = 8"
        with pytest.raises(CheckpointError, match=want):
            read_checkpoint(str(path))

    @pytest.mark.parametrize("length", [6, 20])
    def test_truncated_header(self, tmp_path, length):
        # 6 bytes keep only the magic, 20 end inside the f64 header values
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, random_state(GridSpec(16, 16.0), 16))
        blob = open(path, "rb").read()
        open(path, "wb").write(blob[:length])
        with pytest.raises(CheckpointError, match="truncated checkpoint header"):
            read_checkpoint(path)

    def test_absurd_n_is_truncated_not_allocated(self, tmp_path):
        # n = 4096 claims 3 TiB of payload; only 64 bytes follow the header
        import struct

        path = tmp_path / "huge.ckpt"
        header = struct.pack("<QdddB", 4096, 16.0, 0.0, 1.0, 0)
        path.write_bytes(b"STRN1\x00" + header + bytes(64))
        with pytest.raises(CheckpointError, match="truncated checkpoint payload"):
            read_checkpoint(str(path))

    @pytest.mark.parametrize("n", [4098, 15])
    def test_implausible_n_names_n(self, tmp_path, n):
        import struct

        path = tmp_path / "bad_n.ckpt"
        header = struct.pack("<QdddB", n, 16.0, 0.0, 1.0, 0)
        path.write_bytes(b"STRN1\x00" + header + bytes(64))
        with pytest.raises(CheckpointError, match=f"n must be even .* got {n}"):
            read_checkpoint(str(path))

    def test_layout_header(self, tmp_path):
        g = GridSpec(16, 4.0)
        st = StrainState(
            g, np.zeros((3,) + g.retained.shape, dtype=complex), 0.25, params("full_strain")
        )
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, st)
        blob = open(path, "rb").read()
        assert blob[:6] == b"STRN1\x00"
        import struct

        n = struct.unpack("<Q", blob[6:14])[0]
        L, t, nu = struct.unpack("<ddd", blob[14:38])
        code = blob[38]
        assert (n, L, t, nu, code) == (16, 4.0, 0.25, 1.0, 1)
        assert len(blob) == 39 + 6 * 16**3 * 8

    @pytest.mark.parametrize("n", [16, 18])
    def test_payload_layout(self, tmp_path, n):
        # per component x fastest, each axis from -L/2 up: the bytes of the
        # rolled, Fortran-ordered components written one by one
        g = GridSpec(n, 16.0)
        st = random_state(g, 21)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, st)
        s_re = st.S.real_samples()
        mono = np.roll(s_re, (n // 2,) * 3, axis=(1, 2, 3))
        want = b"".join(mono[c].astype("<f8").ravel(order="F").tobytes() for c in range(6))
        blob = open(path, "rb").read()
        assert blob[39:] == want
        h = n // 2  # sample index of x = -L/2, in FFT storage order
        first, last = np.frombuffer(blob[39:], "<f8")[[0, n**3 - 1]]
        assert (first, last) == (s_re[0, h, h, h], s_re[0, h - 1, h - 1, h - 1])

    @pytest.mark.parametrize(
        "offset, named",
        [(39 + 8 * 1000, "payload sample in component 0"), (30, "nu=nan")],
    )
    def test_non_finite_value_named(self, tmp_path, offset, named):
        # offset 30 is nu in the 39-byte header, beyond it the payload
        g = GridSpec(16, 16.0)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, random_state(g, 18))
        with open(path, "r+b") as fh:
            fh.seek(offset)
            fh.write(np.array([np.nan], dtype="<f8").tobytes())
        with pytest.raises(CheckpointError, match=named):
            read_checkpoint(path)

    def test_failed_write_keeps_previous_checkpoint(self, tmp_path, monkeypatch):
        g = GridSpec(16, 16.0)
        st = random_state(g, 17)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, st)
        before = read_checkpoint(path)

        class DiskFull:
            """A file whose writes fail once the 39-byte header is out."""

            def __init__(self, fh):
                self.fh, self.written = fh, 0

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                if self.written >= 39:
                    raise OSError(28, "No space left on device")
                self.written += len(data)
                return self.fh.write(data)

        monkeypatch.setattr(
            dynamics, "open", lambda *a, **k: DiskFull(open(*a, **k)), raising=False
        )
        with pytest.raises(OSError):
            write_checkpoint(path, step(st, 1e-3))
        monkeypatch.undo()
        after = read_checkpoint(path)
        assert after.t == before.t
        assert np.array_equal(after.S.data, before.S.data)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["state.ckpt"]

    def test_from_checkpoint_initializer(self, tmp_path):
        from strainamp.initdata import InitSpec, initial_strain

        g = GridSpec(16, 16.0)
        st = random_state(g, 16, amplitude=1.5)
        path = str(tmp_path / "restart.ckpt")
        write_checkpoint(path, st)
        S = initial_strain(g, InitSpec(kind="from_checkpoint", path=path))
        assert rel_l2(S, st.S) < 1e-12


class TestRecordContract:
    def test_json_keys_and_omissions(self):
        g = GridSpec(32, 16.0)
        S0 = strain_of(random_solenoidal(g, 17, slope=-6.0, amplitude=1.5))
        records = []
        st = make_state(
            S0, 0.0, params("full_strain", t_end=3e-3, dt_max=1e-3, output_every=1)
        )
        run(st, records.append)
        assert len(records) >= 4
        first = records[0].to_json_dict()
        later = records[3].to_json_dict()
        base = [
            "t", "E", "K", "H1", "detS", "trS3", "g", "f",
            "lam2_q1.5", "lam2_q2", "lam2_q3", "lam2_qinf",
            "acc_q1.5", "acc_q2", "acc_q3", "acc_qinf",
            "ratio", "res_orth", "res_vortdet", "res_isometry", "res_constraint",
        ]
        # first record: no res_enstrophy yet (needs three samples)
        assert list(first.keys()) == base
        assert list(later.keys()) == base[:17] + ["res_enstrophy"] + base[17:]

        # model runs omit the ratio key entirely
        records_m = []
        stm = make_state(
            S0, 0.0, params("model", t_end=1e-3, dt_max=1e-3, output_every=1)
        )
        run(stm, records_m.append)
        assert "ratio" not in records_m[0].to_json_dict()

    def test_per_record_invariants(self):
        g = GridSpec(32, 16.0)
        S0 = strain_of(random_solenoidal(g, 18, slope=-6.0, amplitude=2.0))
        records = []
        st = make_state(
            S0, 0.0, params("model", t_end=5e-3, dt_max=5e-4, output_every=2)
        )
        run(st, records.append)
        for r in records:
            assert abs(r.trS3 - 3.0 * r.detS) <= 1e-10 * max(
                abs(r.trS3), abs(r.detS), 1e-300
            )
            assert r.residuals["res_isometry"] < 1e-10
            assert r.E >= 0 and r.K >= 0 and r.H1 >= 0


class TestPureDiffusionRhs:
    def test_single_mode_at_cutoff(self):
        # the square of a cutoff-adjacent mode is fully dealiased on n=8, so
        # the model right-hand side reduces to the diffusion term
        g = GridSpec(8, 2 * np.pi)
        fh = np.zeros((6,) + g.spectral_shape, dtype=complex)
        fh[1, 1, 0, 0] = 0.25
        fh[1, -1, 0, 0] = 0.25
        from strainamp.operators import strain_project

        S = strain_project(SymTensorField(g, fh))
        nu = 0.8
        rhs = model_rhs(S, nu)
        want = -nu * g.k2 * S.data
        assert np.max(np.abs(rhs.data - want)) < 1e-14
