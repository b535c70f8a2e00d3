"""Transforms, multipliers, and dealiasing."""

import numpy as np
import pytest

from strainamp.fields import ScalarField, VectorField, l2_norm_sq
from strainamp.grid import GridSpec
from strainamp.oracle import fd_derivative, naive_convolution, naive_dft
from strainamp.spectral import (
    HermitianSymmetryError,
    dealias,
    derivative,
    forward_transform,
    heat_semigroup,
    inverse_laplacian,
    inverse_transform,
    laplacian,
)


def random_real(grid, seed, ncomp=None):
    rng = np.random.default_rng(seed)
    if ncomp is None:
        return ScalarField(grid, rng.standard_normal(grid.real_shape))
    return VectorField(grid, rng.standard_normal((ncomp,) + grid.real_shape))


class TestGridSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            GridSpec(7, 2 * np.pi)
        with pytest.raises(ValueError):
            GridSpec(6, 2 * np.pi)
        with pytest.raises(ValueError, match="n must be even"):
            GridSpec(4098, 16.0)
        for bad in (-1.0, np.inf):
            with pytest.raises(ValueError, match="box_length"):
                GridSpec(16, bad)
        with pytest.raises(ValueError):
            GridSpec(16, 2 * np.pi, 1.5)

    def test_cutoff(self):
        assert GridSpec(48, 16.0).cutoff == 16
        assert GridSpec(8, 16.0, 2 / 3).cutoff == 2

    def test_wavenumbers(self):
        g = GridSpec(8, 2 * np.pi)
        assert g.k1[0] == 0.0
        assert g.k1[1] == pytest.approx(1.0)
        assert g.k1[4] == pytest.approx(-4.0)  # Nyquist, FFT ordering
        assert g.kd1[4] == 0.0  # derivative leaves Nyquist out


class TestForwardTransform:
    def test_zero_field(self):
        g = GridSpec(16, 2 * np.pi)
        fh = forward_transform(ScalarField(g, np.zeros(g.real_shape)))
        assert np.all(fh.data == 0)

    def test_single_cosine_mode(self):
        g = GridSpec(16, 4.0)
        x = g.x1[:, None, None]
        f = ScalarField(g, np.cos(2 * np.pi * x / g.box_length) * np.ones(g.real_shape))
        fh = forward_transform(f)
        # two modes at m = (+-1, 0, 0), value 1/2 each
        assert fh.data[1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        assert fh.data[-1, 0, 0] == pytest.approx(0.5, abs=1e-14)
        rest = fh.data.copy()
        rest[1, 0, 0] = rest[-1, 0, 0] = 0.0
        assert np.max(np.abs(rest)) < 1e-14

    def test_mean_is_zero_mode(self):
        g = GridSpec(8, 1.0)
        f = random_real(g, 0)
        fh = forward_transform(f)
        assert fh.data[0, 0, 0].real == pytest.approx(np.mean(f.data), rel=1e-13)

    def test_matches_naive_dft(self):
        g = GridSpec(8, 2 * np.pi)
        f = random_real(g, 1)
        cube = naive_dft(f)
        got = forward_transform(f).data
        assert np.max(np.abs(got - cube[..., : g.n // 2 + 1])) < 1e-12 * np.max(
            np.abs(cube)
        )


class TestInverseTransform:
    def test_roundtrip(self):
        for n in (8, 16, 32):
            g = GridSpec(n, 5.0)
            f = random_real(g, n)
            back = inverse_transform(forward_transform(f))
            rel = np.sqrt(np.sum((back.data - f.data) ** 2) / np.sum(f.data**2))
            assert rel < 1e-12

    def test_cosine_samples(self):
        g = GridSpec(16, 4.0)
        fh = np.zeros(g.spectral_shape, dtype=complex)
        fh[1, 0, 0] = 0.5
        fh[-1, 0, 0] = 0.5
        f = inverse_transform(ScalarField(g, fh))
        x = g.x1[:, None, None]
        exact = np.cos(2 * np.pi * x / g.box_length) * np.ones(g.real_shape)
        assert np.max(np.abs(f.data - exact)) < 1e-12

    def test_rejects_broken_symmetry(self):
        g = GridSpec(8, 1.0)
        fh = forward_transform(random_real(g, 2)).data
        fh[1, 0, 0] += 1.0  # symmetric partner (-1, 0, 0) left untouched
        with pytest.raises(HermitianSymmetryError):
            inverse_transform(ScalarField(g, fh))

    def test_reality_of_output(self):
        g = GridSpec(16, 1.0)
        f = random_real(g, 3)
        out = inverse_transform(forward_transform(f))
        assert out.data.dtype == np.float64


class TestDerivative:
    def test_constant_field(self):
        g = GridSpec(8, 1.0)
        fh = forward_transform(ScalarField(g, np.ones(g.real_shape)))
        for ax in (1, 2, 3):
            assert np.max(np.abs(derivative(fh, ax).data)) == 0.0

    def test_analytic_cosine(self):
        g = GridSpec(32, 4.0)
        k = 2 * np.pi / g.box_length
        x = g.x1[:, None, None]
        f = ScalarField(g, np.cos(k * x) * np.ones(g.real_shape))
        df = inverse_transform(derivative(forward_transform(f), 1))
        exact = -k * np.sin(k * x) * np.ones(g.real_shape)
        assert np.max(np.abs(df.data - exact)) < 1e-12

    def test_matches_fd6_oracle(self):
        # smooth band-limited field: FD6 error is O((k dx)^6) per mode
        g = GridSpec(64, 2 * np.pi)
        rng = np.random.default_rng(4)
        fh = np.zeros(g.spectral_shape, dtype=complex)
        for m in range(1, 5):
            fh[m, 0, 0] = rng.standard_normal() + 1j * rng.standard_normal()
            fh[-m, 0, 0] = np.conj(fh[m, 0, 0])
        f = inverse_transform(ScalarField(g, fh))
        exact = inverse_transform(derivative(ScalarField(g, fh), 1)).data
        approx = fd_derivative(f, 1)
        scale = np.max(np.abs(exact))
        bound = 2.0 * (4 * g.dx) ** 6 / 140.0  # worst retained mode k=4
        assert np.max(np.abs(approx - exact)) / scale < max(bound, 1e-12)

    def test_antisymmetry(self):
        g = GridSpec(16, 3.0)
        f = forward_transform(random_real(g, 5))
        h = forward_transform(random_real(g, 6))
        from strainamp.fields import l2_inner

        for ax in (1, 2, 3):
            a = l2_inner(derivative(f, ax), h)
            b = -l2_inner(f, derivative(h, ax))
            assert a == pytest.approx(b, rel=1e-10)


class TestInverseLaplacian:
    def test_zero_field(self):
        g = GridSpec(8, 1.0)
        fh = ScalarField(g, np.zeros(g.spectral_shape, dtype=complex))
        assert np.all(inverse_laplacian(fh).data == 0)

    def test_cosine_eigenfunction(self):
        g = GridSpec(16, 4.0)
        x = g.x1[:, None, None]
        k = 2 * np.pi / g.box_length
        f = ScalarField(g, np.cos(k * x) * np.ones(g.real_shape))
        out = inverse_transform(inverse_laplacian(forward_transform(f)))
        assert np.max(np.abs(out.data - f.data / k**2)) < 1e-12

    def test_composition_identity_on_zero_mean(self):
        g = GridSpec(16, 2.0)
        f = random_real(g, 7)
        fh = forward_transform(ScalarField(g, f.data - np.mean(f.data)))
        back = laplacian(inverse_laplacian(fh))  # (-lap) o (-lap)^{-1} = -back
        assert np.max(np.abs(-back.data - fh.data)) < 1e-12 * np.max(np.abs(fh.data))


class TestHeatSemigroup:
    def test_identity_at_zero(self):
        g = GridSpec(16, 1.0)
        fh = forward_transform(random_real(g, 8))
        out = heat_semigroup(fh, 0.0)
        assert np.array_equal(out.data, fh.data)

    def test_single_mode_decay(self):
        g = GridSpec(16, 4.0)
        k = 2 * np.pi / g.box_length
        x = g.x1[:, None, None]
        f = forward_transform(
            ScalarField(g, np.cos(k * x) * np.ones(g.real_shape))
        )
        out = heat_semigroup(f, 1.0 / k**2)
        assert out.data[1, 0, 0] == pytest.approx(0.5 * np.exp(-1.0), rel=1e-12)

    def test_semigroup_property(self):
        g = GridSpec(16, 3.0)
        fh = forward_transform(random_real(g, 9))
        ab = heat_semigroup(heat_semigroup(fh, 0.3), 0.45)
        once = heat_semigroup(fh, 0.75)
        assert np.max(np.abs(ab.data - once.data)) < 1e-12 * np.max(np.abs(fh.data))

    def test_rejects_negative(self):
        g = GridSpec(8, 1.0)
        fh = forward_transform(random_real(g, 10))
        with pytest.raises(ValueError):
            heat_semigroup(fh, -0.1)


class TestDealias:
    def test_idempotent(self):
        g = GridSpec(16, 1.0)
        fh = forward_transform(random_real(g, 11))
        once = dealias(fh)
        twice = dealias(once)
        assert np.array_equal(once.data, twice.data)

    def test_low_modes_unchanged(self):
        g = GridSpec(16, 1.0)
        fh = dealias(forward_transform(random_real(g, 12)))
        assert np.array_equal(dealias(fh).data, fh.data)

    def test_product_against_exact_convolution(self):
        # pseudo-spectral product + dealias must equal exact convolution on
        # the retained modes (aliased images land in the discarded zone)
        g = GridSpec(8, 2 * np.pi)
        rng = np.random.default_rng(13)

        def full_cube(half_data):
            full = np.zeros((8, 8, 8), dtype=complex)
            full[..., : g.n // 2 + 1] = half_data
            for z in range(1, 4):
                mirror = np.conj(np.roll(half_data[::-1, ::-1, z], (1, 1), axis=(0, 1)))
                full[..., 8 - z] = mirror
            return full

        a = ScalarField(g, rng.standard_normal(g.real_shape))
        b = ScalarField(g, rng.standard_normal(g.real_shape))
        ah = dealias(forward_transform(a))
        bh = dealias(forward_transform(b))
        ar = inverse_transform(ah)
        br = inverse_transform(bh)
        prod_h = dealias(forward_transform(ScalarField(g, ar.data * br.data)))

        exact = naive_convolution(full_cube(ah.data), full_cube(bh.data))
        want = np.where(g.dealias_mask, exact[..., : g.n // 2 + 1], 0.0)
        assert np.max(np.abs(prod_h.data - want)) < 1e-12 * max(
            np.max(np.abs(want)), 1.0
        )


class TestParsevalLinearity:
    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_parseval(self, n):
        g = GridSpec(n, 2.5)
        f = random_real(g, n + 1)
        fh = forward_transform(f)
        assert l2_norm_sq(fh) == pytest.approx(l2_norm_sq(f), rel=1e-12)

    def test_linearity(self):
        g = GridSpec(16, 1.0)
        f = random_real(g, 20)
        h = random_real(g, 21)
        a, b = 1.7, -0.3
        combo = ScalarField(g, a * f.data + b * h.data)
        lhs = forward_transform(combo).data
        rhs = a * forward_transform(f).data + b * forward_transform(h).data
        assert np.max(np.abs(lhs - rhs)) < 1e-12 * np.max(np.abs(rhs))

    def test_reality_residual(self):
        g = GridSpec(16, 1.0)
        f = random_real(g, 22)
        out = inverse_transform(forward_transform(f))
        # irfftn output is real by construction; round trip must preserve RMS
        assert np.sqrt(np.mean((out.data - f.data) ** 2)) < 1e-12 * np.sqrt(
            np.mean(f.data**2)
        )
