"""The retained-mode box and the stepper that runs on it.

The oracle below is the full-layout IF-RK4 step written out with the
full-grid `_raw` helpers, mask-multiplied forward transforms and
velocity_of; the box stepper must reproduce it bit for bit.
"""

import numpy as np
import pytest

from strainamp import _kernels
from strainamp.dynamics import (
    SimParams,
    StrainState,
    _enstrophy_and_tail,
    make_state,
    read_checkpoint,
    step,
    write_checkpoint,
)
from strainamp.fields import SYM_PAIRS, SYM_WEIGHTS, SymTensorField, VectorField
from strainamp.grid import GridSpec, rfft_raw
from strainamp.initdata import random_solenoidal
from strainamp.operators import (
    _div_sym_raw,
    _leray_raw,
    _strain_project_raw,
    _sym_grad_raw,
    _velocity_raw,
    strain_of,
    velocity_of,
    vorticity_of,
)

GRIDS = [(16, 2 / 3), (16, 0.7), (16, 1.0), (32, 2 / 3), (32, 0.7), (32, 1.0)]


# -- the full-layout oracle ------------------------------------------------------


def _masked_rfft(g, a):
    out = rfft_raw(g, a)
    out *= g.dealias_mask
    return out


def _oracle_nonlin(g, equation):
    def model(S):
        xx, xy, xz, yy, yz, zz = S.real_samples()
        sq = np.stack(
            [
                xx * xx + xy * xy + xz * xz,
                xx * xy + xy * yy + xz * yz,
                xx * xz + xy * yz + xz * zz,
                xy * xy + yy * yy + yz * yz,
                xy * xz + yy * yz + yz * zz,
                xz * xz + yz * yz + zz * zz,
            ]
        )
        return -(2.0 / 3.0) * _strain_project_raw(g, _masked_rfft(g, sq))

    def full(S):
        u = velocity_of(S)
        ur, wr = u.real_samples(), vorticity_of(u).real_samples()
        lamb = np.stack(
            [
                wr[1] * ur[2] - wr[2] * ur[1],
                wr[2] * ur[0] - wr[0] * ur[2],
                wr[0] * ur[1] - wr[1] * ur[0],
            ]
        )
        return -_sym_grad_raw(g, _leray_raw(g, _masked_rfft(g, lamb)))

    def velocity(u):
        ur = u.real_samples()
        th = _masked_rfft(g, np.stack([ur[i] * ur[j] for i, j in SYM_PAIRS]))
        return -_leray_raw(g, _div_sym_raw(g, th))

    return {"model": model, "full_strain": full, "velocity_ns": velocity}[equation]


def _oracle_step(state, dt):
    g, p = state.S.grid, state.params
    nonlin = _oracle_nonlin(g, p.equation)
    if p.equation == "velocity_ns":
        x0 = VectorField(g, _velocity_raw(g, state.S.data))
    else:
        x0 = state.S
    make, xh = type(x0), x0.data
    e_half = np.exp(-(p.nu * dt / 2.0) * g.k2)
    e_full = e_half * e_half
    n1 = nonlin(x0)
    n2 = nonlin(make(g, e_half * (xh + (dt / 2.0) * n1)))
    n3 = nonlin(make(g, e_half * xh + (dt / 2.0) * n2))
    n4 = nonlin(make(g, e_full * xh + dt * (e_half * n3)))
    new = e_full * xh + (dt / 6.0) * (e_full * n1 + 2.0 * e_half * (n2 + n3) + n4)
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
            if _kernels.HAVE_NUMBA:  # fused kernels round differently
                tol = 1e-13 * np.abs(ref.data).max()
                np.testing.assert_allclose(st.S.data, ref.data, rtol=0, atol=tol)
            else:
                assert np.array_equal(st.S.data, ref.data)


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
