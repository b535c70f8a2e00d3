"""Field containers and discrete inner products."""

import numpy as np
import pytest

from strainamp.fields import (
    ScalarField,
    SymTensorField,
    VectorField,
    l2_inner,
    l2_norm_sq,
)
from strainamp.grid import GridSpec


class TestValidation:
    def test_scalar_shapes(self):
        g = GridSpec(8, 1.0)
        ScalarField(g, np.zeros(g.real_shape))
        ScalarField(g, np.zeros(g.spectral_shape, dtype=complex))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros((4, 4, 4)))
        with pytest.raises(ValueError):
            ScalarField(g, np.zeros(g.real_shape, dtype=np.float32))

    def test_component_counts(self):
        g = GridSpec(8, 1.0)
        VectorField(g, np.zeros((3,) + g.real_shape))
        SymTensorField(g, np.zeros((6,) + g.real_shape))
        with pytest.raises(ValueError):
            VectorField(g, np.zeros((2,) + g.real_shape))
        with pytest.raises(ValueError):
            SymTensorField(g, np.zeros(g.real_shape))

    def test_component_accessor(self):
        g = GridSpec(8, 1.0)
        v = VectorField(g, np.arange(3 * 8**3, dtype=float).reshape((3,) + g.real_shape))
        c = v.component(1)
        assert isinstance(c, ScalarField)
        assert np.array_equal(c.data, v.data[1])
        s = ScalarField(g, np.zeros(g.real_shape))
        with pytest.raises(ValueError):
            s.component(0)


class TestInnerProducts:
    def test_representation_mismatch_rejected(self):
        g = GridSpec(8, 1.0)
        a = ScalarField(g, np.zeros(g.real_shape))
        b = ScalarField(g, np.zeros(g.spectral_shape, dtype=complex))
        with pytest.raises(ValueError):
            l2_inner(a, b)

    def test_frobenius_weights(self):
        # off-diagonal components count twice in the tensor pairing
        g = GridSpec(8, 2.0)
        ones = np.ones(g.real_shape)
        zeros = np.zeros(g.real_shape)
        diag_only = SymTensorField(g, np.stack([ones, zeros, zeros, zeros, zeros, zeros]))
        off_only = SymTensorField(g, np.stack([zeros, ones, zeros, zeros, zeros, zeros]))
        vol = g.box_length**3
        assert l2_norm_sq(diag_only) == pytest.approx(vol)
        assert l2_norm_sq(off_only) == pytest.approx(2.0 * vol)

    def test_spectral_matches_real(self):
        from strainamp.spectral import forward_transform

        g = GridSpec(16, 3.0)
        rng = np.random.default_rng(0)
        a = SymTensorField(g, rng.standard_normal((6,) + g.real_shape))
        b = SymTensorField(g, rng.standard_normal((6,) + g.real_shape))
        real = l2_inner(a, b)
        spec = l2_inner(forward_transform(a), forward_transform(b))
        assert spec == pytest.approx(real, rel=1e-12)

    def test_real_samples_cache(self):
        # a field derives its samples anew on each call and keeps none of them
        from strainamp.spectral import forward_transform

        g = GridSpec(16, 3.0)
        rng = np.random.default_rng(1)
        f = forward_transform(ScalarField(g, rng.standard_normal(g.real_shape)))
        first = f.real_samples()
        second = f.real_samples()
        assert first.tobytes() == second.tobytes()
        assert set(vars(f)) == {"grid", "data"}
