"""Initial-data constructors and the dilated perturbation family."""

import warnings

import numpy as np
import pytest
import scipy.fft

from strainamp import diagnostics as diag
from strainamp.dynamics import SimParams, make_state, read_checkpoint, write_checkpoint
from strainamp.fields import SymTensorField, VectorField, _mode_sum, l2_norm_sq
from strainamp.grid import GridSpec
from strainamp.initdata import (
    InitSpec,
    _box_strain,
    _random_box,
    colliding_jets,
    hessian_probe,
    initial_strain,
    perturbed_family,
    random_solenoidal,
)
from strainamp.operators import (
    ConstraintError,
    _divergence_residual_raw,
    divergence_residual,
    leray_project,
    strain_of,
    strain_project,
    strain_space_residual,
    velocity_of,
)
from strainamp.oracle import det_integrand_quadrature
from strainamp.spectral import dealias, forward_transform, inverse_transform, laplacian

CLOSED_FORM = 8.0 * np.pi**1.5 / (81.0 * np.sqrt(3.0))


class TestInitSpec:
    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            InitSpec(kind="vortex_ring")

    def test_perturbed_family_lambda(self):
        # initial_strain dilates by int(lam), so a lam it would round is refused
        for lam in (0.5, 2.5, 3, 16):
            with pytest.raises(ValueError, match=f"lambda must be one of 1, 2, 4, 8, got {lam}"):
                InitSpec(kind="perturbed_family", lam=lam)
        for lam in (1, 2.0, 4, 8.0):
            assert InitSpec(kind="perturbed_family", lam=lam).lam == lam

    def test_checkpoint_needs_path(self):
        with pytest.raises(ValueError):
            InitSpec(kind="from_checkpoint")


class TestCollidingJets:
    def test_zero_amplitude(self):
        g = GridSpec(16, 16.0)
        u = colliding_jets(g, 0.0)
        assert np.max(np.abs(u.data)) == 0.0

    def test_divergence_free(self):
        g = GridSpec(48, 16.0)
        assert divergence_residual(colliding_jets(g, 1.0)) < 1e-10

    def test_warns_small_box(self):
        with pytest.warns(UserWarning):
            colliding_jets(GridSpec(16, 8.0), 1.0)

    def test_determinant_matches_quadrature_oracle(self):
        g = GridSpec(64, 16.0)
        S = strain_of(colliding_jets(g, 1.0))
        got = -diag.det_integral(S)
        assert got == pytest.approx(det_integrand_quadrature(), rel=1e-6)

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

    def test_azimuthal_strain_profile(self):
        # tr(S e_th x e_th) = u_r / r = (1 - 2 z^2) e^{-r^2 - z^2}
        g = GridSpec(64, 16.0)
        S = inverse_transform(strain_of(colliding_jets(g, 1.0)))
        x, y, z = g.coords()
        xx = x + np.zeros(g.real_shape)
        yy = y + np.zeros(g.real_shape)
        zz = z + np.zeros(g.real_shape)
        r2 = xx**2 + yy**2
        sel = r2 > 1e-12
        tx, ty = -yy[sel], xx[sel]
        nrm = np.sqrt(r2[sel])
        tx, ty = tx / nrm, ty / nrm
        s_tt = (
            S.data[0][sel] * tx * tx
            + 2 * S.data[1][sel] * tx * ty
            + S.data[3][sel] * ty * ty
        )
        want = (1.0 - 2.0 * zz[sel] ** 2) * np.exp(-r2[sel] - zz[sel] ** 2)
        assert np.max(np.abs(s_tt - want)) < 1e-6 * np.max(np.abs(want))


class TestRandomSolenoidal:
    def test_zero_amplitude(self):
        g = GridSpec(16, 16.0)
        u = random_solenoidal(g, 0, amplitude=0.0)
        assert np.max(np.abs(u.data)) == 0.0

    def test_deterministic_in_seed(self):
        g = GridSpec(16, 16.0)
        a = random_solenoidal(g, 42)
        b = random_solenoidal(g, 42)
        assert np.array_equal(a.data, b.data)
        c = random_solenoidal(g, 43)
        assert not np.array_equal(a.data, c.data)

    @pytest.mark.parametrize("seed", range(20))
    def test_divergence_free(self, seed):
        g = GridSpec(16, 16.0)
        assert divergence_residual(random_solenoidal(g, seed)) < 1e-12

    def test_amplitude_normalization(self):
        g = GridSpec(16, 16.0)
        u = random_solenoidal(g, 1, amplitude=2.5)
        assert np.sqrt(l2_norm_sq(u)) == pytest.approx(2.5, rel=1e-12)

    def test_band_limited(self):
        g = GridSpec(16, 16.0)
        u = random_solenoidal(g, 2)
        assert np.max(np.abs(np.where(g.dealias_mask, 0.0, u.data))) == 0.0

    def test_rejects_shallow_slope(self):
        g = GridSpec(16, 16.0)
        with pytest.raises(ValueError):
            random_solenoidal(g, 0, slope=-0.5)


class TestHessianProbe:
    def test_trace_is_laplacian(self):
        # needs a resolved Gaussian: the probe uses the Nyquist-zeroed
        # derivative wavenumbers while laplacian carries the true |k|^2
        g = GridSpec(64, 16.0)
        h = hessian_probe(g, "hessian")
        x, y, z = g.coords()
        f = np.exp(-(x * x + y * y + z * z))
        from strainamp.fields import ScalarField
        from strainamp.spectral import forward_transform

        lap = laplacian(forward_transform(ScalarField(g, f)))
        trace = h.data[0] + h.data[3] + h.data[5]
        assert np.max(np.abs(trace - lap.data)) < 1e-12 * np.max(np.abs(lap.data))

    def test_annihilated_by_projection(self):
        g = GridSpec(32, 16.0)
        for kind in ("hessian", "identity"):
            h = hessian_probe(g, kind)
            out = strain_project(h)
            assert np.sqrt(l2_norm_sq(out) / l2_norm_sq(h)) < 1e-10

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            hessian_probe(GridSpec(16, 16.0), "wavelet")


class TestPerturbedFamily:
    @staticmethod
    def _mq(n=64):
        g = GridSpec(n, 16.0)
        M = strain_of(colliding_jets(g, 5.0))
        qh = strain_of(random_solenoidal(g, 9)).data.copy()
        hi = max(1, (g.cutoff - 1) // 8)
        band = (g.shell_index >= min(2, hi)) & (g.shell_index <= hi)
        qh[:, ~band] = 0.0
        Q = SymTensorField(g, qh)
        qh *= np.sqrt(l2_norm_sq(M) / l2_norm_sq(Q))
        return g, M, SymTensorField(g, qh)

    def test_lambda_one_is_plain_sum(self):
        g, M, Q = self._mq()
        out = perturbed_family(M, Q, 1)
        want = strain_project(SymTensorField(g, M.data + Q.data))
        assert np.max(np.abs(out.data - want.data)) < 1e-14

    def test_h1_scaling_law(self):
        g, M, Q = self._mq()
        for lam in (2, 4, 8):
            out = perturbed_family(M, Q, lam)
            qlam = SymTensorField(g, out.data - strain_project(M).data)
            got = diag.hs_norm_sq(qlam, 1.0)
            want = diag.hs_norm_sq(Q, 1.0) / lam
            assert got == pytest.approx(want, rel=1e-10)

    def test_all_homogeneous_norms_scale(self):
        # the volume-preserving dilation gives ||Q^lam||^2_{H^s} = lam^{2s-3} ||Q||^2
        g, M, Q = self._mq()
        lam = 4
        out = perturbed_family(M, Q, lam)
        qlam = SymTensorField(g, out.data - strain_project(M).data)
        for s in (-1.0, 0.0, 1.0):
            got = diag.hs_norm_sq(qlam, s)
            want = float(lam) ** (2 * s - 3) * diag.hs_norm_sq(Q, s)
            assert got == pytest.approx(want, rel=1e-10)

    def test_velocity_route_consistency(self):
        # velocity_of(Q^lam) equals the same dilation applied to velocity_of(Q)
        # with the matching lam^{-5/2} amplitude factor
        g, M, Q = self._mq()
        lam = 2
        out = perturbed_family(M, Q, lam)
        qlam = SymTensorField(g, out.data - strain_project(M).data)
        w_direct = velocity_of(qlam)
        w = velocity_of(strain_project(Q))
        from strainamp.initdata import _dilate_modes

        w_dilated = _dilate_modes(g, w.data, lam) / lam
        assert np.max(np.abs(w_direct.data - w_dilated)) < 1e-12 * max(
            np.max(np.abs(w_dilated)), 1e-300
        )

    def test_rejects_unsupported_lambda(self):
        g, M, Q = self._mq()
        with pytest.raises(ValueError):
            perturbed_family(M, Q, 3)

    def test_rejects_support_overflow(self):
        g = GridSpec(32, 16.0)
        M = strain_of(colliding_jets(g, 1.0))
        Q = strain_of(random_solenoidal(g, 5))  # support up to the cutoff
        with pytest.raises(ValueError):
            perturbed_family(M, Q, 8)

    def test_ratio_decreases_along_family(self):
        g, M, Q = self._mq(64)
        ratios = {}
        for lam in (1, 2, 8):
            S = perturbed_family(M, Q, lam)
            ratios[lam] = diag.perturbative_ratio(S, 1.0)
        assert ratios[2] < ratios[1]
        assert ratios[8] < ratios[2]
        assert ratios[8] < 2.0


class TestInitialStrain:
    def test_all_kinds_in_strain_space(self):
        g = GridSpec(32, 16.0)
        for spec in (
            InitSpec(kind="colliding_jets", amplitude=2.0),
            InitSpec(kind="random_solenoidal", seed=3),
            InitSpec(kind="perturbed_family", amplitude=1.0, seed=4, lam=2),
        ):
            S = initial_strain(g, spec)
            assert strain_space_residual(S) < 1e-10
            trace = inverse_transform(S)
            tr = trace.data[0] + trace.data[3] + trace.data[5]
            assert np.max(np.abs(tr)) < 1e-10 * (1 + np.max(np.abs(trace.data)))

    def test_solenoidal_everything(self):
        g = GridSpec(32, 16.0)
        for kind, kwargs in (
            ("colliding_jets", {"amplitude": 1.0}),
            ("random_solenoidal", {"seed": 1}),
        ):
            S = initial_strain(g, InitSpec(kind=kind, **kwargs))
            u = velocity_of(S)
            assert divergence_residual(u) < 1e-10


def _full_layout_random(grid, seed, slope, amplitude):
    """random_solenoidal built on the full r2c layout, as before it moved onto
    the retained box: the reference for its values."""
    noise = np.random.default_rng(seed).standard_normal((3,) + grid.real_shape)
    vh = forward_transform(VectorField(grid, noise))
    shaping = np.zeros_like(grid.k2)
    np.power(grid.k2, (slope - 2.0) / 4.0, out=shaping, where=grid.k2 > 0)
    proj = leray_project(dealias(VectorField(grid, vh.data * shaping)))
    return proj.data * (amplitude / np.sqrt(l2_norm_sq(proj)))


@pytest.fixture
def full_layout_transforms(monkeypatch):
    """The scipy.fft rfftn/irfftn calls over all three grid axes made while
    the test runs (the box transforms' own calls run along z alone)."""
    calls = []

    def recording(fn):
        def wrapper(a, *args, **kwargs):
            if len(kwargs.get("axes", ())) == 3:
                calls.append(fn.__name__)
            return fn(a, *args, **kwargs)

        return wrapper

    for name in ("rfftn", "irfftn"):
        monkeypatch.setattr(scipy.fft, name, recording(getattr(scipy.fft, name)))
    return calls


# GridSpec's full-layout arrays, cached on the instance when first formed
_FULL_LAYOUT_ARRAYS = ("k2", "inv_k2", "kd2", "inv_kd2", "dealias_mask",
                       "shell_index", "tail_mask")


class TestSetUpOnTheBox:
    @pytest.mark.parametrize("n", [16, 32, 48])
    @pytest.mark.parametrize("box_length", [16.0, 12.0])
    def test_jets_bits(self, n, box_length):
        g = GridSpec(n, box_length)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # the box_length < 16 warning
            for m, center in ((1.0, (0.0, 0.0, 0.0)), (-2.5, (0.3, -0.1, 0.7))):
                S = initial_strain(g, InitSpec(kind="colliding_jets", amplitude=m,
                                               center=center))
                u = colliding_jets(g, m, center)
                assert not g.retained.holds(u.data)  # full layout, not dealiased
                assert S.data.tobytes() == dealias(strain_of(u)).data.tobytes()

    def test_jets_warn_on_small_box(self):
        with pytest.warns(UserWarning):
            initial_strain(GridSpec(16, 8.0), InitSpec(kind="colliding_jets"))

    @pytest.mark.parametrize("n, seed, slope", [(16, 2, -4.0), (32, 3, -6.0), (48, 7, -4.0)])
    def test_random_values(self, n, seed, slope):
        # the normalizing norm is summed over the box, so the values move by
        # the rounding of that sum alone
        g = GridSpec(n, 16.0)
        want = _full_layout_random(g, seed, slope, 1.7)
        u = random_solenoidal(g, seed, slope, 1.7)
        assert np.max(np.abs(u.data - want)) <= 1e-15 * np.max(np.abs(want))
        S = initial_strain(g, InitSpec(kind="random_solenoidal", seed=seed, slope=slope,
                                       amplitude=1.7))
        assert np.array_equal(S.data, strain_of(u).data)

    def test_no_full_layout_transform_or_multiplier(self, full_layout_transforms, tmp_path):
        path = str(tmp_path / "ckpt")
        write_checkpoint(path, make_state(
            strain_of(random_solenoidal(GridSpec(16, 16.0), 5)), 0.0,
            SimParams(1.0, "velocity_ns"),
        ))
        assert full_layout_transforms == []  # the writer made none either
        for spec in (InitSpec(kind="colliding_jets", amplitude=2.0),
                     InitSpec(kind="random_solenoidal", seed=5),
                     InitSpec(kind="from_checkpoint", path=path)):
            g = GridSpec(16, 16.0)
            st = make_state(initial_strain(g, spec), 0.0, SimParams(1.0, "model"))
            assert full_layout_transforms == [], spec.kind
            for grid in (g, st.S.grid):
                assert not set(_FULL_LAYOUT_ARRAYS) & set(vars(grid)), spec.kind

    def test_checkpoint_returned_as_read(self, tmp_path):
        g = GridSpec(16, 16.0)
        path = str(tmp_path / "ckpt")
        write_checkpoint(path, make_state(initial_strain(g, InitSpec(kind="colliding_jets")),
                                          0.0, SimParams(1.0, "model")))
        S = initial_strain(g, InitSpec(kind="from_checkpoint", path=path))
        assert S.data.tobytes() == read_checkpoint(path).S.data.tobytes()
        assert S.data.tobytes() == dealias(S).data.tobytes()

    @pytest.mark.parametrize("eps, raises", [(1e-7, True), (1e-9, False)])
    def test_box_divergence_gate(self, eps, raises):
        # a gradient part of relative size eps: the gate on the box refuses
        # a divergence residual above 1e-8, as strain_of does
        g = GridSpec(16, 16.0)
        r = g.retained
        uh = _random_box(g, 3, -4.0, 1.0)
        grad = 1j * np.stack(np.broadcast_arrays(*r.kd)) * _random_box(g, 4, -4.0, 1.0)[0]
        uh = uh + eps * grad * np.sqrt(_mode_sum(r, uh, uh) / _mode_sum(r, grad, grad))
        assert (_divergence_residual_raw(r, uh) > 1e-8) == raises
        full = VectorField(g, r.unpack(uh))
        if raises:
            with pytest.raises(ConstraintError):
                _box_strain(g, uh)
            with pytest.raises(ConstraintError):
                strain_of(full)
        else:
            assert np.array_equal(_box_strain(g, uh).data, strain_of(full).data)
