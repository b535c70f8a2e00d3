"""Pointwise real-space passes run over x-slabs (grid._slabs).

The slab size is a cache budget, not a numerical parameter: every point's
arithmetic and every z-line's transform is the same in any slab, and every
reduction runs over a full-size array, so the results must be the same bits
for one-plane slabs and for one slab holding the whole grid. The products
that are transformed forward share the box transform's slab loop
(grid._rfft_box_by_slab); they must carry the same bits as the full-size
product put through the multi-axis transform.
"""

import json
import tracemalloc

import numpy as np
import pytest
import scipy.fft

from strainamp import diagnostics as diag
from strainamp import grid as gridmod
from strainamp import operators
from strainamp.dynamics import SimParams, make_state, run
from strainamp.fields import SymTensorField
from strainamp.grid import GridSpec
from strainamp.initdata import random_solenoidal
from strainamp.operators import strain_of

ONE_PLANE = 1
WHOLE_GRID = 10**9


def random_strain(n, seed=3):
    g = GridSpec(n, 16.0)
    return strain_of(random_solenoidal(g, seed, slope=-8.0, amplitude=4.0))


def under_budgets(monkeypatch, compute):
    """compute() with one-plane slabs and with one slab for the whole grid."""
    out = []
    for points in (ONE_PLANE, WHOLE_GRID):
        monkeypatch.setattr(gridmod, "_SLAB_POINTS", points)
        out.append(compute())
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSlices:
    @pytest.mark.parametrize("n", [8, 16, 48, 64, 128])
    def test_cover_axis_x_in_order(self, n):
        slabs = gridmod._slabs(n)
        assert slabs[0].start == 0 and slabs[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
        k = max(1, gridmod._SLAB_POINTS // (n * n))
        assert all(s.stop - s.start == k for s in slabs[:-1])
        assert 0 < slabs[-1].stop - slabs[-1].start <= k

    def test_budget_bounds(self, monkeypatch):
        monkeypatch.setattr(gridmod, "_SLAB_POINTS", ONE_PLANE)
        assert len(gridmod._slabs(48)) == 48
        monkeypatch.setattr(gridmod, "_SLAB_POINTS", WHOLE_GRID)
        assert gridmod._slabs(48) == [slice(0, 48)]


@pytest.mark.parametrize("n", [16, 48])
class TestSameBitsForAnySlabSize:
    def test_products(self, monkeypatch, n):
        g = GridSpec(n, 16.0)
        a = np.random.default_rng(n).standard_normal((9,) + g.real_shape)
        for f, args in (
            (operators._s_squared_box, (a[:6],)),
            (operators._sym_outer_box, (a[:3],)),
            (operators._lamb_box, (a[:3], a[3:6])),
            (gridmod.rfft_retained_raw, (a[:6],)),
            (gridmod.rfft_retained_raw, (a[0],)),
        ):
            one, whole = under_budgets(monkeypatch, lambda: f(g, *args))
            assert same_bits(one, whole), f.__name__

    def test_lambda_fields_and_norms(self, monkeypatch, n):
        S = random_strain(n)
        one, whole = under_budgets(monkeypatch, lambda: operators.lambda_fields(S))
        for x, y in zip(one, whole):
            assert same_bits(x.data, y.data)
        one, whole = under_budgets(monkeypatch, lambda: diag.lambda_lq_norms(S))
        assert repr(one) == repr(whole)

    def test_sample_functionals(self, monkeypatch, n):
        S = make_state(random_strain(n), 0.0, SimParams(1.0, "full_strain")).S

        def sample():
            b = diag._Sample(S)
            vals = diag.sample_functionals(b, 1.0, True)
            return repr(sorted(vals.items())), repr((b.u_inf, b.s_inf))

        one, whole = under_budgets(monkeypatch, sample)
        assert one == whole

    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_three_step_run(self, monkeypatch, n, equation):
        p = SimParams(nu=1.0, equation=equation, t_end=3e-3, dt_max=1e-3, output_every=1)
        state = make_state(random_strain(n), 0.0, p)

        def trajectory():
            records = []
            rep = run(state, lambda r: records.append(r.to_json_dict()))
            return json.dumps(records), json.dumps(rep.to_json_dict()), len(records)

        one, whole = under_budgets(monkeypatch, trajectory)
        assert one == whole
        assert one[2] == 4


# (kernel, output components, input components per input array)
FUSED_KERNELS = {
    "s_squared": (operators._s_squared_slab, 6, (6,)),
    "sym_outer": (operators._sym_outer_slab, 6, (3,)),
    "lamb": (operators._cross_slab, 3, (3, 3)),
    "advection": (operators._advect_slab, 6, (3, 6, 6, 6)),
}


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fraction", [2.0 / 3.0, 0.5, 1.0], ids=str)
@pytest.mark.parametrize("n", [16, 48, 64])
class TestFusedForward:
    """Slab-wise products transformed as they are built, against the
    full-size product through rfft_retained_raw and through the multi-axis
    rfftn; n = 48 ends in a partial slab."""

    def _want(self, g, a):
        full = scipy.fft.rfftn(a, axes=(-3, -2, -1), norm="forward")
        return g.retained.pack(full)

    @pytest.mark.parametrize("name", sorted(FUSED_KERNELS))
    def test_kernels(self, monkeypatch, n, fraction, threads, name):
        monkeypatch.setenv("STRAINAMP_THREADS", threads)
        g = GridSpec(n, 16.0, fraction)
        kernel, nout, ncomps = FUSED_KERNELS[name]
        rng = np.random.default_rng(n + len(name))
        ins = [rng.standard_normal((c,) + g.real_shape) for c in ncomps]
        copies = [x.copy() for x in ins]
        got = gridmod._rfft_box_by_slab(g, kernel, nout, *ins)
        product = operators._by_slab(kernel, nout, *ins)
        assert same_bits(got, gridmod.rfft_retained_raw(g, product))
        assert same_bits(got, self._want(g, product))
        assert all(same_bits(x, y) for x, y in zip(ins, copies))

    @pytest.mark.parametrize("lead", [(), (1,), (3,), (6,)], ids=str)
    def test_no_kernel(self, monkeypatch, n, fraction, threads, lead):
        monkeypatch.setenv("STRAINAMP_THREADS", threads)
        g = GridSpec(n, 16.0, fraction)
        a = np.random.default_rng(n).standard_normal(lead + g.real_shape)
        a0 = a.copy()
        got = gridmod._rfft_box_by_slab(g, None, 0, a)
        assert same_bits(got, self._want(g, a))
        assert same_bits(a, a0)


def traced_peak(fn, *args):
    """Bytes of the traced peak while fn(*args) runs."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "name, ncomps, bound",
    [("_s_squared_box", (6,), 6.5), ("_sym_outer_box", (3,), 6.5), ("_lamb_box", (3, 3), 3.5)],
)
def test_fused_products_peak_memory(name, ncomps, bound):
    # with the full-size product and a full-height r2c in between, S^2 and
    # v_i v_j peaked at 13.8 n^3 float64 and the Lamb term at 6.9
    n = 64
    g = GridSpec(n, 16.0)
    rng = np.random.default_rng(1)
    args = [rng.standard_normal((c,) + g.real_shape) for c in ncomps]
    f = getattr(operators, name)
    f(g, *args)  # builds the grid's cached box arrays outside the trace
    assert traced_peak(f, g, *args) <= bound * 8 * n**3


def test_lambda_norms_peak_memory():
    # the unblocked pass held 23 n^3 float64 arrays at its peak
    n = 64
    g = GridSpec(n, 16.0)
    S = SymTensorField(g, random_strain(n).real_samples())
    assert traced_peak(diag.lambda_lq_norms, S) <= 8 * 8 * n**3
