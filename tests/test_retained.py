"""The retained-mode box, and the stepper and diagnostics sample that run on it.

The stepper oracle below is the full-layout IF-RK4 step in velocity
variables written out with the full-grid `_raw` helpers, mask-multiplied
forward transforms and velocity_of; the box stepper must reproduce it bit
for bit. A second reference advances S itself, with the stage and post-step
strain projections the velocity form does without; the two schemes are the
same up to roundoff. The sample oracle is the diagnostics sample written
out on the full layout; the box sample must reproduce it to roundoff.
"""

import math

import numpy as np
import pytest

from strainamp import diagnostics as diag
from strainamp.dynamics import (
    SimParams,
    StrainState,
    _enstrophy_and_tail,
    make_state,
    read_checkpoint,
    step,
    write_checkpoint,
)
from strainamp.fields import (
    SYM_PAIRS,
    SYM_WEIGHTS,
    SymTensorField,
    VectorField,
    l2_inner,
)
from strainamp.grid import GridSpec, irfft_raw, rfft_raw
from strainamp.initdata import colliding_jets, random_solenoidal
from strainamp.operators import (
    _curl_raw,
    _div_sym_raw,
    _leray_raw,
    _strain_project_raw,
    _sym_grad_raw,
    _velocity_raw,
    s_squared,
    strain_of,
    strain_project,
    strain_space_residual,
    velocity_of,
    vorticity_of,
)
from strainamp.spectral import laplacian

GRIDS = [(16, 2 / 3), (16, 0.7), (16, 1.0), (32, 2 / 3), (32, 0.7), (32, 1.0)]


# -- the full-layout oracle ------------------------------------------------------


def _masked_rfft(g, a):
    out = rfft_raw(g, a)
    out *= g.dealias_mask
    return out


def _square(s_re):
    xx, xy, xz, yy, yz, zz = s_re
    return np.stack(
        [
            xx * xx + xy * xy + xz * xz,
            xx * xy + xy * yy + xz * yz,
            xx * xz + xy * yz + xz * zz,
            xy * xy + yy * yy + yz * yz,
            xy * xz + yy * yz + yz * zz,
            xz * xz + yz * yz + zz * zz,
        ]
    )


def _lamb(ur, wr):
    return np.stack(
        [
            wr[1] * ur[2] - wr[2] * ur[1],
            wr[2] * ur[0] - wr[0] * ur[2],
            wr[0] * ur[1] - wr[1] * ur[0],
        ]
    )


def _ifrk4(xh, nonlin, n1, e_half, dt):
    e_full = e_half * e_half
    n2 = nonlin(e_half * (xh + (dt / 2.0) * n1))
    n3 = nonlin(e_half * xh + (dt / 2.0) * n2)
    n4 = nonlin(e_full * xh + dt * (e_half * n3))
    return e_full * xh + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)


def _oracle_step(state, dt):
    """One step in velocity variables: u = P_df(-2 div (-lap)^{-1} S), four
    stages on u, S = sym grad u. The first stage runs on the state's own,
    unprojected velocity (the model's on S's samples)."""
    g, p = state.S.grid, state.params

    def model_of_samples(s_re):
        return -(2.0 / 3.0) * _leray_raw(g, _velocity_raw(g, _masked_rfft(g, _square(s_re))))

    def model(uh):
        return model_of_samples(irfft_raw(g, _sym_grad_raw(g, uh)))

    def full(uh):
        ur, wr = irfft_raw(g, uh), irfft_raw(g, _curl_raw(g, uh))
        return -_leray_raw(g, _masked_rfft(g, _lamb(ur, wr)))

    def velocity(uh):
        ur = irfft_raw(g, uh)
        th = _masked_rfft(g, np.stack([ur[i] * ur[j] for i, j in SYM_PAIRS]))
        return -_leray_raw(g, _div_sym_raw(g, th))

    if p.equation == "full_strain":
        uh = velocity_of(state.S).data
    else:
        uh = _velocity_raw(g, state.S.data)
    nonlin = {"model": model, "full_strain": full, "velocity_ns": velocity}[p.equation]
    n1 = model_of_samples(state.S.real_samples()) if p.equation == "model" else nonlin(uh)
    e_half = np.exp(-(p.nu * dt / 2.0) * g.k2)
    new = _ifrk4(_leray_raw(g, uh), nonlin, n1, e_half, dt)
    return SymTensorField(g, _sym_grad_raw(g, new))


def _strain_form_step(state, dt):
    """One step advancing S (u for velocity_ns), with the strain projection
    in every stage and after the step."""
    g, p = state.S.grid, state.params

    def model(S):
        return -(2.0 / 3.0) * _strain_project_raw(g, _masked_rfft(g, _square(S.real_samples())))

    def full(S):
        u = velocity_of(S)
        ur, wr = u.real_samples(), vorticity_of(u).real_samples()
        return -_sym_grad_raw(g, _leray_raw(g, _masked_rfft(g, _lamb(ur, wr))))

    def velocity(u):
        ur = u.real_samples()
        th = _masked_rfft(g, np.stack([ur[i] * ur[j] for i, j in SYM_PAIRS]))
        return -_leray_raw(g, _div_sym_raw(g, th))

    nonlin = {"model": model, "full_strain": full, "velocity_ns": velocity}[p.equation]
    if p.equation == "velocity_ns":
        x0 = VectorField(g, _velocity_raw(g, state.S.data))
    else:
        x0 = state.S
    make = type(x0)
    e_half = np.exp(-(p.nu * dt / 2.0) * g.k2)
    new = _ifrk4(x0.data, lambda x: nonlin(make(g, x)), nonlin(x0), e_half, dt)
    if p.equation == "velocity_ns":
        new = _sym_grad_raw(g, new)
    return SymTensorField(g, _strain_project_raw(g, new))


class TestBoxStepperOracle:
    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    @pytest.mark.parametrize("n, fraction", GRIDS)
    def test_matches_full_layout_step(self, n, fraction, equation):
        g = GridSpec(n, 16.0, fraction)
        S0 = strain_of(random_solenoidal(g, 7, amplitude=3.0))
        st = make_state(S0, 0.0, SimParams(nu=0.5, equation=equation))
        ref = st.S
        for _ in range(3):
            st = step(st, 2e-3)
            ref = _oracle_step(StrainState(ref, 0.0, st.params), 2e-3)
            assert np.array_equal(st.S.data, ref.data)

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    @pytest.mark.parametrize("n, fraction", GRIDS)
    def test_matches_strain_form_step(self, n, fraction, equation):
        g = GridSpec(n, 16.0, fraction)
        S0 = strain_of(random_solenoidal(g, 7, amplitude=3.0))
        st = make_state(S0, 0.0, SimParams(nu=0.5, equation=equation))
        ref = st.S
        for _ in range(3):
            st = step(st, 2e-3)
            ref = _strain_form_step(StrainState(ref, 0.0, st.params), 2e-3)
            tol = 1e-13 * np.abs(ref.data).max()
            np.testing.assert_allclose(st.S.data, ref.data, rtol=0, atol=tol)


# -- the diagnostics sample on the box ------------------------------------------------


def _full_hs(g, a, alpha, kd2=False):
    """L^3 sum of w |k|^(2 alpha) |a|^2 over the full r2c layout."""
    hsw = np.ones_like(g.k2)
    if alpha != 0:
        np.power(g.k2, alpha, out=hsw, where=g.k2 > 0)
    if kd2:
        hsw = hsw * g.kd2
    w = SYM_WEIGHTS.reshape(6, 1, 1, 1) if a.shape[0] == 6 else 1.0
    s = np.sum(w * g.hermitian_weight * hsw * (a.real**2 + a.imag**2))
    return float(g.box_length**3 * s)


def _oracle_sample(S, nu, with_ratio):
    g = S.grid
    hs = {alpha: _full_hs(g, S.data, alpha) for alpha in (-1.0, 0.0, 1.0)}
    e, h1 = hs[0.0], hs[1.0]
    det = diag.det_integral(S)
    f = -3.0 * nu * h1 - 4.0 * det
    u = velocity_of(S)
    w = vorticity_of(u)
    lamb = _lamb(u.real_samples(), w.real_samples())
    A = _sym_grad_raw(g, _leray_raw(g, _masked_rfft(g, lamb)))
    B = strain_project(s_squared(S)).data
    term = SymTensorField(g, A - (2.0 / 3.0) * B)
    nt, ns = math.sqrt(l2_inner(term, term)), math.sqrt(e)
    kept = SymTensorField(g, -nu * laplacian(S).data + 0.5 * A + B / 3.0)
    iso = 0.0
    for alpha in (-1.0, 0.0, 1.0):
        vals = (
            hs[alpha],
            0.5 * _full_hs(g, w.data, alpha),
            0.5 * _full_hs(g, u.data, alpha, kd2=True),
        )
        iso = max(iso, (max(vals) - min(vals)) / max(vals))
    s_re, w_re = S.real_samples(), w.real_samples()
    pair = sum(
        SYM_WEIGHTS[c] * np.sum(s_re[c] * w_re[i] * w_re[j])
        for c, (i, j) in enumerate(SYM_PAIRS)
    )
    wl4_sq = math.sqrt(g.cell_volume * np.sum(np.sum(w_re**2, axis=0) ** 2))
    return {
        "E": e,
        "K": hs[-1.0],
        "H1": h1,
        "detS": det,
        "trS3": diag.trace_cubed_integral(S),
        "f": f,
        "g": f / e**1.5,
        "lam2_norms": diag.lambda_lq_norms(S),
        "res_orth": abs(l2_inner(term, S)) / (nt * ns + 1e-30),
        "ratio": nt / math.sqrt(l2_inner(kept, kept)) if with_ratio else None,
        "res_vortdet": abs(pair * g.cell_volume + 4.0 * det) / (ns * wl4_sq + 1e-30),
        "res_isometry": iso,
        "res_constraint": strain_space_residual(S),
    }


def _assert_sample_matches(vals, ref):
    assert vals.keys() == ref.keys()
    for key in ("E", "K", "H1", "f", "g"):
        assert abs(vals[key] - ref[key]) <= 1e-14 * abs(ref[key]), key
    if ref["ratio"] is None:
        assert vals["ratio"] is None
    else:
        assert abs(vals["ratio"] - ref["ratio"]) <= 1e-14 * ref["ratio"]
    for key in ("detS", "trS3", "lam2_norms"):
        assert vals[key] == ref[key], key
    for key in ("res_orth", "res_vortdet", "res_isometry", "res_constraint"):
        assert abs(vals[key] - ref[key]) <= 1e-15, key


class TestBoxSampleOracle:
    @pytest.mark.parametrize("with_ratio", [False, True])
    @pytest.mark.parametrize("seed", [5, 9])
    @pytest.mark.parametrize("n, fraction", GRIDS)
    def test_matches_full_layout_sample(self, n, fraction, seed, with_ratio):
        g = GridSpec(n, 16.0, fraction)
        S = make_state(
            strain_of(random_solenoidal(g, seed, amplitude=3.0)),
            0.0,
            SimParams(0.5, "full_strain"),
        ).S
        assert g.retained.holds(S.data)
        vals = diag.sample_functionals(S, 0.5, with_ratio)
        _assert_sample_matches(vals, _oracle_sample(S, 0.5, with_ratio))

    def test_mode_outside_box_takes_full_layout(self, monkeypatch):
        g = GridSpec(16, 16.0)
        c = g.cutoff
        data = make_state(
            strain_of(random_solenoidal(g, 6, amplitude=3.0)),
            0.0,
            SimParams(0.5, "full_strain"),
        ).S.data.copy()
        data[1, c, 0, 1] = 0.2  # |m_x| = cutoff: outside the box
        S = strain_project(SymTensorField(g, data))
        assert not g.retained.holds(S.data)
        for alpha in (-1.0, 0.0, 1.0):
            assert diag.hs_norm_sq(S, alpha) == _full_hs(g, S.data, alpha)
        layouts = []
        orig = diag._mode_sum
        monkeypatch.setattr(
            diag, "_mode_sum", lambda lay, *a: layouts.append(lay) or orig(lay, *a)
        )
        vals = diag.sample_functionals(S, 0.5, True)
        assert layouts and all(lay is g for lay in layouts)
        _assert_sample_matches(vals, _oracle_sample(S, 0.5, True))


# -- GridSpec.retained -----------------------------------------------------------


class TestRetainedModes:
    @pytest.mark.parametrize("n, fraction", GRIDS + [(64, 2 / 3), (8, 0.25)])
    def test_box_shape(self, n, fraction):
        g = GridSpec(n, 16.0, fraction)
        c = g.cutoff
        assert g.retained.shape == (2 * c - 1, 2 * c - 1, c)
        assert np.count_nonzero(g.dealias_mask) == np.prod(g.retained.shape)

    @pytest.mark.parametrize("n, fraction", GRIDS)
    def test_unpack_pack_is_dealias(self, n, fraction):
        g = GridSpec(n, 16.0, fraction)
        rng = np.random.default_rng(n)
        shape = (3,) + g.spectral_shape
        a = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        r = g.retained
        assert np.array_equal(r.unpack(r.pack(a)), a * g.dealias_mask)
        assert not r.holds(a) and r.holds(a * g.dealias_mask)

    @pytest.mark.parametrize("n, fraction", GRIDS)
    def test_multipliers_are_packed_full_arrays(self, n, fraction):
        g = GridSpec(n, 16.0, fraction)
        r = g.retained
        for name in ("kd2", "inv_kd2", "k2", "tail_mask"):
            assert np.array_equal(getattr(r, name), r.pack(getattr(g, name))), name
        for a, b in zip(r.kd, g.kd):
            full = np.broadcast_to(b, g.spectral_shape)
            assert np.array_equal(np.broadcast_to(a, r.shape), r.pack(full))
        hw = np.broadcast_to(g.hermitian_weight, g.spectral_shape)
        assert np.array_equal(np.broadcast_to(r.hermitian_weight, r.shape), r.pack(hw))

    @pytest.mark.parametrize("n, fraction", GRIDS)
    def test_enstrophy_on_box(self, n, fraction):
        g = GridSpec(n, 16.0, fraction)
        S = make_state(
            strain_of(random_solenoidal(g, 3, amplitude=2.0)), 0.0, SimParams(1.0, "model")
        ).S
        w6 = SYM_WEIGHTS.reshape(6, 1, 1, 1)

        def total(grid, a):
            return np.sum(w6 * grid.hermitian_weight * (a.real**2 + a.imag**2))

        full, box = total(g, S.data), total(g.retained, g.retained.pack(S.data))
        assert abs(box - full) <= 1e-15 * full
        e, _ = _enstrophy_and_tail(S)
        assert abs(e - g.box_length**3 * full) <= 1e-15 * e


# -- states that do not fit the box ------------------------------------------------


class TestOutsideBox:
    @pytest.mark.parametrize("index", [(6, 0, 0), (10, 0, 0), (0, 6, 0), (0, 0, 6), (8, 3, 8)])
    def test_step_refuses_mode_outside(self, index):
        g = GridSpec(16, 16.0)  # cutoff 5: the box keeps |m_i| <= 4
        S = make_state(
            strain_of(random_solenoidal(g, 2)), 0.0, SimParams(1.0, "full_strain")
        ).S
        data = S.data.copy()
        data[(1,) + index] = 1e-3
        st = StrainState(SymTensorField(g, data), 0.0, SimParams(1.0, "full_strain"))
        with pytest.raises(ValueError, match="outside the dealiased box"):
            step(st, 1e-3)

    def test_mode_at_cutoff_refused(self):
        g = GridSpec(16, 16.0)
        c = g.cutoff
        data = np.zeros((6,) + g.spectral_shape, dtype=complex)
        data[0, c, 0, 0] = data[0, g.n - c, 0, 0] = 1.0
        st = StrainState(SymTensorField(g, data), 0.0, SimParams(1.0, "model"))
        with pytest.raises(ValueError, match="build the state with make_state"):
            step(st, 1e-3)

    @pytest.mark.parametrize("fraction", [2 / 3, 1.0])
    def test_read_checkpoint_is_dealiased(self, tmp_path, fraction):
        g = GridSpec(16, 16.0, fraction)
        p = SimParams(1.0, "velocity_ns")
        st = step(make_state(strain_of(random_solenoidal(g, 4)), 0.0, p), 1e-3)
        path = str(tmp_path / "state.ckpt")
        write_checkpoint(path, st)
        back = read_checkpoint(path, dealias_fraction=fraction)
        assert np.all(back.S.data[:, ~g.dealias_mask] == 0)
        assert g.retained.holds(back.S.data)
        # make_state strips the same roundoff, so a restart is unchanged
        undealiased = SymTensorField(g, rfft_raw(g, st.S.real_samples()))
        assert np.array_equal(
            make_state(back.S, back.t, p).S.data, make_state(undealiased, back.t, p).S.data
        )
        step(back, 1e-3)


# -- one scan for modes outside the box per state -----------------------------------


class TestOneHoldsScan:
    @staticmethod
    def count_holds(monkeypatch):
        from strainamp.grid import RetainedModes

        calls = []
        orig = RetainedModes.holds
        monkeypatch.setattr(
            RetainedModes, "holds", lambda self, a: calls.append(1) or orig(self, a)
        )
        return calls

    def test_per_sample(self, monkeypatch, tmp_path):
        # S's real samples come from the box array the bundle packed
        g = GridSpec(16, 16.0)
        p = SimParams(1.0, "full_strain")
        st = make_state(strain_of(random_solenoidal(g, 6)), 0.0, p)
        calls = self.count_holds(monkeypatch)
        b = diag._Sample(st.S)
        b.s_inf, b.s2
        diag.sample_functionals(st.S, 1.0, True, derived=b)
        write_checkpoint(str(tmp_path / "c.bin"), st, derived=b)
        assert len(calls) == 1
        assert b.s_re.tobytes() == irfft_raw(g, st.S.data).tobytes()

    def test_full_layout_sample(self, monkeypatch):
        # undealiased data: the bundle's one scan picks the full layout, and
        # S, u and omega are inverted there without asking again
        g = GridSpec(32, 16.0)
        S = strain_of(colliding_jets(g, 1.0))
        assert not g.retained.holds(S.data)
        calls = self.count_holds(monkeypatch)
        b = diag._Sample(S)
        diag.sample_functionals(S, 1.0, True, derived=b)
        assert len(calls) == 1
        assert b.lay is g
        assert b.s_re.tobytes() == irfft_raw(g, S.data).tobytes()

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_per_state_of_a_run(self, monkeypatch, tmp_path, equation):
        from strainamp.dynamics import run

        g = GridSpec(16, 16.0)
        p = SimParams(1.0, equation, t_end=4e-3, dt_max=1e-3, output_every=2)
        st = make_state(strain_of(random_solenoidal(g, 6, slope=-8.0)), 0.0, p)
        calls, records = self.count_holds(monkeypatch), []
        run(st, records.append, checkpoint_every=1, checkpoint_path=str(tmp_path / "c.bin"))
        assert records[-1].t == pytest.approx(4e-3)
        assert len(calls) == 5  # the initial state and one per step
