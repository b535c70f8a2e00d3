"""Shared fixtures."""

from fractions import Fraction

import pytest
import scipy.fft


@pytest.fixture
def fft_counts(monkeypatch):
    """Component counts of the r2c ("fwd") and c2r ("inv") transforms made
    through scipy.fft while the test runs: the real points each call reads
    (r2c) or writes (c2r), over n^3, so a transform run one x-slab at a time
    counts its components once, not once per slab."""
    counts = {"fwd": 0, "inv": 0}

    def counting(key, fn, real_input):
        def wrapper(a, *args, **kwargs):
            out = fn(a, *args, **kwargs)
            r = a if real_input else out
            counts[key] += Fraction(r.size, r.shape[-1] ** 3)
            return out

        return wrapper

    monkeypatch.setattr(scipy.fft, "rfftn", counting("fwd", scipy.fft.rfftn, True))
    monkeypatch.setattr(scipy.fft, "irfftn", counting("inv", scipy.fft.irfftn, False))
    return counts
