"""Pointwise real-space passes run over x-slabs (operators._slabs).

The slab size is a cache budget, not a numerical parameter: every point's
arithmetic is the same in any slab and every reduction runs over a full-size
array, so the results must be the same bits for one-plane slabs and for one
slab holding the whole grid.
"""

import json
import tracemalloc

import numpy as np
import pytest

from strainamp import diagnostics as diag
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
        monkeypatch.setattr(operators, "_SLAB_POINTS", points)
        out.append(compute())
    return out


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestSlices:
    @pytest.mark.parametrize("n", [8, 16, 48, 64, 128])
    def test_cover_axis_x_in_order(self, n):
        slabs = operators._slabs(n)
        assert slabs[0].start == 0 and slabs[-1].stop == n
        assert all(a.stop == b.start for a, b in zip(slabs, slabs[1:]))
        k = max(1, operators._SLAB_POINTS // (n * n))
        assert all(s.stop - s.start == k for s in slabs[:-1])
        assert 0 < slabs[-1].stop - slabs[-1].start <= k

    def test_budget_bounds(self, monkeypatch):
        monkeypatch.setattr(operators, "_SLAB_POINTS", ONE_PLANE)
        assert len(operators._slabs(48)) == 48
        monkeypatch.setattr(operators, "_SLAB_POINTS", WHOLE_GRID)
        assert operators._slabs(48) == [slice(0, 48)]


@pytest.mark.parametrize("n", [16, 48])
class TestSameBitsForAnySlabSize:
    def test_products(self, monkeypatch, n):
        g = GridSpec(n, 16.0)
        a = np.random.default_rng(n).standard_normal((9,) + g.real_shape)
        for f, args in (
            (operators._s_squared_box, (a[:6],)),
            (operators._sym_outer_box, (a[:3],)),
            (operators._lamb_box, (a[:3], a[3:6])),
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
            vals = diag.sample_functionals(S, 1.0, True, derived=b)
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


def test_lambda_norms_peak_memory():
    # the unblocked pass held 23 n^3 float64 arrays at its peak
    n = 64
    g = GridSpec(n, 16.0)
    S = SymTensorField(g, random_strain(n).real_samples())
    tracemalloc.start()
    try:
        diag.lambda_lq_norms(S)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 8 * 8 * n**3
