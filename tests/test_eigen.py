"""The closed-form eigenvalue core and its two callers.

operators._eig3_trig gives (q, 2p, phi) of the trigonometric closed form.
operators._eig3_raw (behind eig_symtensor and lambda_fields) takes all three
roots, polishes and orders them, and must keep the bytes of the code it
replaced, copied here as _reference_eig3. The diagnostics sample takes only
the middle root (operators._eig3_middle), so its lambda2 norms move by
roundoff while every other record value keeps its bytes.
"""

import math

import numpy as np
import pytest

from strainamp import diagnostics as diag
from strainamp.dynamics import SimParams, make_state, run
from strainamp.fields import SYM_PAIRS
from strainamp.grid import GridSpec
from strainamp.initdata import random_solenoidal
from strainamp.operators import (
    _by_slab,
    _eig3_middle,
    _eig3_raw,
    eig_symtensor,
    lambda_fields,
    strain_of,
)


def _reference_eig3(s):
    """The closed form as it stood before the shared core: the byte reference
    for _eig3_raw (sorted roots, then the determinant i3)."""
    xx, xy, xz, yy, yz, zz = (np.asarray(c, dtype=np.float64) for c in s)
    yz2, yzxz, xyyz = yz * yz, yz * xz, xy * yz
    i1 = xx + yy + zz
    q = i1 / 3.0
    two_p1 = 2.0 * (xy * xy + xz * xz + yz2)
    a, b, c = xx - q, yy - q, zz - q
    p2 = a * a + b * b + c * c + two_p1
    p = np.sqrt(p2 / 6.0)
    psafe = np.where(p > 0, p, 1.0)
    det_b = (
        a * (b * c - yz2) - xy * (xy * c - yzxz) + xz * (xyyz - b * xz)
    ) / psafe**3
    r = np.clip(det_b / 2.0, -1.0, 1.0)
    phi = np.arccos(r) / 3.0
    two_p = 2.0 * p
    l3 = q + two_p * np.cos(phi)
    l1 = q + two_p * np.cos(phi + 2.0 * np.pi / 3.0)
    l2 = 3.0 * q - l1 - l3

    tr2 = xx * xx + yy * yy + zz * zz + two_p1
    i2 = 0.5 * (i1 * i1 - tr2)
    i3 = xx * (yy * zz - yz2) - xy * (xy * zz - yzxz) + xz * (xyyz - yy * xz)
    tol = 1e-12 * np.maximum(tr2**1.5, np.finfo(np.float64).tiny)

    def polish(lam):
        f = ((lam - i1) * lam + i2) * lam - i3
        need = np.abs(f) > tol
        if not np.any(need):
            return lam
        fp = (3.0 * lam - 2.0 * i1) * lam + i2
        ok = need & (np.abs(fp) > 1e-30)
        return np.where(ok, lam - f / np.where(ok, fp, 1.0), lam)

    l1, l2, l3 = polish(l1), polish(l2), polish(l3)
    lo, hi = np.minimum(l1, l2), np.maximum(l1, l2)
    l2 = np.maximum(lo, np.minimum(hi, l3))
    return np.minimum(lo, l3), l2, np.maximum(hi, l3), i3


def _reference_eigen_slab(out, s):
    """The sample's eigenvalue slab with lambda2 from _reference_eig3."""
    _, l2, _, det = _reference_eig3(s)
    l2p = np.maximum(0.0, l2, out=out[0])
    out[1], out[2] = det, diag._tr3_raw(s)
    for o, q in zip(out[3:], diag._FINITE_Q):
        o[...] = l2p**q


def _components(mats):
    return [mats[:, i, j] for i, j in SYM_PAIRS]


def _matrix_sets(k=512, seed=21):
    """(exact, repeated): random, zero and multiple-of-I matrices, whose
    roots the closed form resolves to roundoff; and repeated and
    near-repeated roots, which a double root conditions like sqrt(eps)."""
    rng = np.random.default_rng(seed)

    def rotated(d):
        q, _ = np.linalg.qr(rng.standard_normal((k, 3, 3)))
        return q @ (d[:, :, None] * np.eye(3)) @ q.transpose(0, 2, 1)

    a, b = rng.standard_normal(k), rng.standard_normal(k)
    m = rng.standard_normal((k, 3, 3))
    exact = np.concatenate(
        [
            0.5 * (m + m.transpose(0, 2, 1)),
            np.zeros((k, 3, 3)),
            a[:, None, None] * np.eye(3),
        ]
    )
    repeated = np.concatenate(
        [
            rotated(np.stack([a, a, b], axis=1)),
            rotated(np.stack([a, a, -2.0 * a], axis=1)),
            rotated(np.stack([a, a * (1 + 1e-13), a * (1 - 1e-13)], axis=1)),
            rotated(np.stack([a, a * (1 + 1e-9), b], axis=1)),
        ]
    )
    return exact, repeated


def _sample_lambda2_plus(mats):
    out = np.empty((3 + len(diag._FINITE_Q), len(mats)))
    diag._eigen_slab(out, np.stack(_components(mats)))
    return out[0]


class TestMiddleRoot:
    @pytest.mark.parametrize("which, tol", [(0, 1e-12), (1, 1e-7)], ids=["exact", "repeated"])
    def test_against_eigvalsh(self, which, tol):
        mats = _matrix_sets()[which]
        want = np.linalg.eigvalsh(mats)[:, 1]
        norm = np.sqrt(np.sum(mats * mats, axis=(1, 2)))
        got = _eig3_middle(_components(mats))
        assert np.all(np.abs(got - want) <= tol * norm)
        # the sample's lambda2+ is that root's positive part, for m and -m
        for sign in (1.0, -1.0):
            l2p = _sample_lambda2_plus(sign * mats)
            assert np.all(np.abs(l2p - np.maximum(0.0, sign * want)) <= tol * norm)

    def test_zero_matrix(self):
        z = np.zeros((1, 3, 3))
        assert _eig3_middle(_components(z))[0] == 0.0
        assert _sample_lambda2_plus(z)[0] == 0.0

    # values whose 3a is exact in binary, so that q = (a + a + a)/3 is a; for
    # others q, and with it lambda2, can miss a by an ulp
    @pytest.mark.parametrize("a", [1.0, -2.5, 0.75, 3.0, 2.0**-20, 1024.0])
    def test_multiple_of_identity(self, a):
        m = a * np.eye(3)[None]
        assert _eig3_middle(_components(m))[0] == a
        assert _sample_lambda2_plus(m)[0] == max(0.0, a)


class TestUnchangedEigenvalues:
    def test_eig3_raw_bytes(self):
        exact, repeated = _matrix_sets()
        slab = np.random.default_rng(3).standard_normal((6, 4, 16, 16))
        for s in (_components(exact), _components(repeated), slab):
            got, want = _eig3_raw(s), _reference_eig3(s)[:3]
            for g, w in zip(got, want):
                assert g.tobytes() == w.tobytes()

    def test_eig_symtensor(self):
        exact, repeated = _matrix_sets(k=32)
        for m in np.concatenate([exact, repeated]):
            t = eig_symtensor(m)
            comps = [np.asarray(m[i, j]) for i, j in SYM_PAIRS]
            want = _reference_eig3(comps)[:3]
            assert (t.lambda1, t.lambda2, t.lambda3) == tuple(float(w) for w in want)

    @pytest.mark.parametrize("n", [16, 48])
    def test_lambda_fields_bytes(self, n):
        def reference_slab(out, s):
            l1, l2, _, _ = _reference_eig3(s)
            out[0], out[1] = l1, l2
            np.maximum(0.0, l2, out=out[2])

        S = strain_of(random_solenoidal(GridSpec(n, 16.0), n, amplitude=3.0))
        want = _by_slab(reference_slab, 3, S.real_samples())
        for g, w in zip(lambda_fields(S), want):
            assert g.data.tobytes() == w.tobytes()


class TestUnchangedRecords:
    # every record value but the lambda2 norms and their accumulators keeps
    # its bytes; those move by roundoff only
    @pytest.mark.parametrize("n", [16, 32])
    @pytest.mark.parametrize("equation", ["model", "full_strain", "velocity_ns"])
    def test_records(self, monkeypatch, equation, n):
        g = GridSpec(n, 16.0)
        S = strain_of(random_solenoidal(g, 21, slope=-8.0, amplitude=4.0))
        params = SimParams(
            nu=1.0, equation=equation, t_end=5e-3, cfl=0.4, dt_max=1e-3, dt_min=1e-9,
            output_every=1,
        )
        st = make_state(S, 0.0, params)
        got, want = [], []
        report = run(st, lambda r: got.append(r.to_json_dict()))
        monkeypatch.setattr(diag, "_eigen_slab", _reference_eigen_slab)
        assert run(st, lambda r: want.append(r.to_json_dict())) == report
        assert len(got) == len(want) == 6
        for rg, rw in zip(got, want):
            assert rg.keys() == rw.keys()
            for key, w in rw.items():
                if key.startswith(("lam2_", "acc_")):
                    assert math.isclose(rg[key], w, rel_tol=1e-13, abs_tol=0.0), key
                else:
                    assert rg[key] == w, key
