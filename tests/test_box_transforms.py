"""Byte oracle for the retained-box transforms.

rfft_retained_raw and irfft_retained_raw run pocketfft's multi-axis passes
one axis at a time, only on the lines that reach the 2/3-rule box. Their
outputs must carry the same bytes as the full multi-axis calls they replace:
pack(rfftn(a)) and irfftn(unpack(b)). irfft_raw takes the same pruned path
when its input is zero outside the box, and the full call otherwise.
"""

import numpy as np
import pytest
import scipy.fft

from strainamp.grid import (
    GridSpec,
    _slabs,
    irfft_raw,
    irfft_retained_raw,
    rfft_raw,
    rfft_retained_raw,
)

NS = (8, 16, 18, 30, 32, 48, 64)
# None: the smallest grid the spec allows, cutoff 1
FRACTIONS = (2.0 / 3.0, 0.5, 0.9, 1.0, None)


def grid_of(n, fraction):
    g = GridSpec(n, 2.0 * np.pi, 3.0 / n if fraction is None else fraction)
    assert fraction is not None or g.cutoff == 1
    return g


def full_rfft(a):
    return scipy.fft.rfftn(a, axes=(-3, -2, -1), norm="forward")


def full_irfft(g, ah):
    return scipy.fft.irfftn(ah, s=g.real_shape, axes=(-3, -2, -1), norm="forward")


def samples(g, ncomp, seed):
    """Real samples and box coefficients, one leading axis per component
    (none for a scalar); the second of several components is exactly zero."""
    rng = np.random.default_rng(seed)
    lead = (ncomp,) if ncomp > 1 else ()
    a = rng.standard_normal(lead + g.real_shape)
    bh = rng.standard_normal(lead + g.retained.shape) + 1j * rng.standard_normal(
        lead + g.retained.shape
    )
    if ncomp > 1:
        a[1] = 0.0
        bh[1] = 0.0
    return a, bh


def assert_same_bytes(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_all(g):
    for ncomp in (1, 3, 6):
        a, bh = samples(g, ncomp, seed=g.n + ncomp)
        a0, bh0 = a.copy(), bh.copy()
        assert_same_bytes(rfft_retained_raw(g, a), g.retained.pack(full_rfft(a)))
        want = full_irfft(g, g.retained.unpack(bh))
        assert_same_bytes(irfft_retained_raw(g, bh), want)
        ah = g.retained.unpack(bh)
        assert_same_bytes(irfft_raw(g, ah), want)
        # inputs are read, never overwritten
        assert_same_bytes(a, a0)
        assert_same_bytes(bh, bh0)
        assert_same_bytes(ah, g.retained.unpack(bh0))


@pytest.mark.parametrize("threads", ["1", "2"])
@pytest.mark.parametrize("fraction", FRACTIONS, ids=str)
@pytest.mark.parametrize("n", NS)
def test_same_bytes_as_multi_axis(monkeypatch, n, fraction, threads):
    monkeypatch.setenv("STRAINAMP_THREADS", threads)
    check_all(grid_of(n, fraction))


@pytest.mark.parametrize("n, fraction", [(18, 2.0 / 3.0), (32, 1.0), (16, None)])
def test_passes_that_return_copies(monkeypatch, n, fraction):
    """A scipy whose fft/ifft ignore overwrite_x and return fresh arrays:
    each pass's result is copied back, and the bytes hold."""
    calls = []

    def copying(fn):
        def wrapper(x, *args, overwrite_x=False, **kwargs):
            calls.append(fn.__name__)
            return fn(x.copy(), *args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.fft, "fft", copying(scipy.fft.fft))
    monkeypatch.setattr(scipy.fft, "ifft", copying(scipy.fft.ifft))
    check_all(grid_of(n, fraction))
    assert {"fft", "ifft"} <= set(calls)


@pytest.mark.parametrize("n", [16, 18, 30])
def test_mode_outside_box_takes_full_transform(n):
    g = GridSpec(n, 2.0 * np.pi)
    _, bh = samples(g, 6, seed=n)
    ah = g.retained.unpack(bh)
    # one mode just past the box along y, on an x-line the pruned x pass skips
    ah[3, 1, g.cutoff, 1] = 0.25 - 0.5j
    assert not g.retained.holds(ah)
    ah0 = ah.copy()
    got = irfft_raw(g, ah)
    assert_same_bytes(got, full_irfft(g, ah0))
    assert_same_bytes(ah, ah0)
    # the pruned passes would have dropped that mode
    assert not np.array_equal(got, irfft_retained_raw(g, bh))


def test_full_layout_forward_unchanged():
    g = GridSpec(18, 2.0 * np.pi)
    a, _ = samples(g, 3, seed=5)
    assert_same_bytes(rfft_raw(g, a), full_rfft(a))


def test_fft_counts_components_not_slabs(fft_counts):
    # at n = 64 the forward runs its z pass once per x-slab; the fixture
    # counts each of the 6 components once all the same
    g = GridSpec(64, 2.0 * np.pi)
    assert len(_slabs(g.n)) > 1
    a, _ = samples(g, 6, seed=64)
    bh = rfft_retained_raw(g, a)
    assert fft_counts == {"fwd": 6, "inv": 0}
    irfft_retained_raw(g, bh)
    assert fft_counts == {"fwd": 6, "inv": 6}
