"""Shared fixtures."""

import math

import pytest
import scipy.fft


@pytest.fixture
def fft_counts(monkeypatch):
    """Component counts of the r2c ("fwd") and c2r ("inv") transforms made
    through scipy.fft while the test runs."""
    counts = {"fwd": 0, "inv": 0}

    def counting(key, fn):
        def wrapper(a, *args, **kwargs):
            counts[key] += math.prod(a.shape[:-3])
            return fn(a, *args, **kwargs)

        return wrapper

    monkeypatch.setattr(scipy.fft, "rfftn", counting("fwd", scipy.fft.rfftn))
    monkeypatch.setattr(scipy.fft, "irfftn", counting("inv", scipy.fft.irfftn))
    return counts
