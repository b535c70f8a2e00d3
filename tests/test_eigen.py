"""The closed-form eigenvalue core and its callers.

operators._eig3_trig gives (q, 2p, phi) of the trigonometric closed form, and
each root is q + 2p x with x a function of phi alone in its own band, so the
roots come out ordered with no re-ordering pass. operators._eig3_middle is the
one lambda2 expression: lambda_fields, eig_symtensor and the diagnostics
sample all take it, so the fields' lambda2 and lambda2+ are the records' bits.
The roots agree to roundoff with the code they replaced, copied here as
_reference_eig3 (l2 = 3q - l1 - l3, a re-ordering pass, and a Newton step
where the cubic's residual exceeded 1e-12 ||m||^3, which the closed form's
O(eps) residual never reaches), and the sample's lambda2 keeps its bytes.
"""

import math

import numpy as np
import pytest

from strainamp import diagnostics as diag
from strainamp.dynamics import SimParams, make_state, run
from strainamp.fields import SYM_PAIRS
from strainamp.grid import GridSpec
from strainamp.initdata import colliding_jets, random_solenoidal
from strainamp.operators import (
    _by_slab,
    _eig3_middle,
    _eig3_raw,
    _eig3_trig,
    eig_symtensor,
    lambda_fields,
    strain_of,
)


def _reference_eig3(s):
    """The closed form as it stood before the shared core, with l2 = 3q - l1 -
    l3 and a re-ordering pass (sorted roots, then the determinant i3)."""
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


def _middle(s):
    return _eig3_middle(*_eig3_trig(s))


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
        got = _middle(_components(mats))
        assert np.all(np.abs(got - want) <= tol * norm)
        # the sample's lambda2+ is that root's positive part, for m and -m
        for sign in (1.0, -1.0):
            l2p = _sample_lambda2_plus(sign * mats)
            assert np.all(np.abs(l2p - np.maximum(0.0, sign * want)) <= tol * norm)

    def test_zero_matrix(self):
        z = np.zeros((1, 3, 3))
        assert _middle(_components(z))[0] == 0.0
        assert _sample_lambda2_plus(z)[0] == 0.0

    # values whose 3a is exact in binary, so that q = (a + a + a)/3 is a; for
    # others q, and with it lambda2, can miss a by an ulp
    @pytest.mark.parametrize("a", [1.0, -2.5, 0.75, 3.0, 2.0**-20, 1024.0])
    def test_multiple_of_identity(self, a):
        m = a * np.eye(3)[None]
        assert _middle(_components(m))[0] == a
        assert _sample_lambda2_plus(m)[0] == max(0.0, a)


def _integer_diagonal(k=512, seed=22):
    """Symmetric integer matrices, half of them diagonal: roots the closed
    form may hit exactly, so a residual-triggered correction would show."""
    rng = np.random.default_rng(seed)
    m = rng.integers(-4, 5, size=(k, 3, 3)).astype(np.float64)
    m = m + m.transpose(0, 2, 1)
    m[: k // 2] *= np.eye(3)
    return m


def _scaled_sets():
    """The matrix sets scaled towards and past where ||m||^3 underflows or
    overflows: past it p^3 does too, and many field-level roots are NaN."""
    mats = np.concatenate(_matrix_sets())
    return [_components(scale * mats) for scale in (1e-160, 1e-100, 1e100, 1e150)]


def _all_sets():
    exact, repeated = _matrix_sets()
    slab = np.random.default_rng(3).standard_normal((6, 4, 16, 16))
    return [_components(exact), _components(repeated), slab,
            _components(_integer_diagonal()), *_scaled_sets()]


def _largest_entry(s):
    # within a factor 3 of ||m||, and free of the underflow of its squares
    return np.max(np.abs(np.stack(np.broadcast_arrays(*s))), axis=0)


def _assert_roundoff(got, want, scale, tol=1e-14):
    """Equal to tol max|m_ij| (scale), with NaN at the same points."""
    for g, w in zip(got, want):
        assert np.array_equal(np.isnan(g), np.isnan(w))
        fin = np.isfinite(w)
        assert np.all(np.abs(g - w)[fin] <= tol * scale[fin])


class TestNearIdentity:
    # c (I + d A) with d from 1e-60 to 1e-150: once d is below about 1e-103,
    # p^3 and det(M - qI) underflow together, and the plain closed form gives
    # 0/0 for all three roots; eig_symtensor takes them from (M - qI)/2^f
    def test_underflowing_p_cubed(self):
        m = np.eye(3)
        m[0, 1] = m[1, 0] = 1e-120
        with np.errstate(divide="raise", invalid="raise"):
            t = eig_symtensor(m)
        assert (t.lambda1, t.lambda2, t.lambda3) == (1.0, 1.0, 1.0)

    @pytest.mark.parametrize("diagonal", [False, True])
    def test_against_eigvalsh(self, diagonal):
        rng = np.random.default_rng(41 + diagonal)
        for d in 10.0 ** -np.arange(60, 151, 5):
            for _ in range(8):
                a = rng.standard_normal((3, 3))
                a = (a + a.T) * (1.0 - np.eye(3))
                if diagonal:  # the diagonal's own perturbation as well
                    a += np.diag(rng.standard_normal(3))
                m = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-100, 100)
                m = m * (np.eye(3) + d * a)
                with np.errstate(divide="raise", invalid="raise"):
                    t = eig_symtensor(m)
                got = np.array([t.lambda1, t.lambda2, t.lambda3])
                err = np.max(np.abs(got - np.linalg.eigvalsh(m)))
                assert err <= 1e-14 * np.max(np.abs(m)), (d, m)


class TestOrderedRoots:
    def test_unit_circle_factors(self):
        # the factors of 2p: -sin(phi + pi/6) <= sin(phi - pi/6) <= cos(phi)
        # over [0, pi/3], the ends included as arccos gives them
        rng = np.random.default_rng(5)
        top = np.arccos(-1.0) / 3.0
        phi = np.concatenate([rng.uniform(0.0, top, 10**6), [0.0, np.pi / 3.0, top]])
        low = -np.sin(phi + np.pi / 6.0)
        mid = np.sin(phi - np.pi / 6.0)
        assert np.all(low <= mid) and np.all(mid <= np.cos(phi))

    def test_roots_ordered(self):
        for s in _all_sets():
            with np.errstate(all="ignore"):
                l1, l2, l3 = _eig3_raw(s)
            fin = np.isfinite(l1) & np.isfinite(l2) & np.isfinite(l3)
            assert np.any(fin)
            assert np.all(l1[fin] <= l2[fin]) and np.all(l2[fin] <= l3[fin])


class TestUnchangedEigenvalues:
    def test_eig3_raw_to_roundoff(self):
        for s in _all_sets():
            with np.errstate(all="ignore"):
                got, want = _eig3_raw(s), _reference_eig3(s)[:3]
                _assert_roundoff(got, want, _largest_entry(s))

    def test_eig_symtensor(self):
        exact, repeated = _matrix_sets(k=32)
        for m in np.concatenate([exact, repeated]):
            t = eig_symtensor(m)
            comps = [np.asarray(m[i, j]) for i, j in SYM_PAIRS]
            want = _reference_eig3(comps)[:3]
            _assert_roundoff([t.lambda1, t.lambda2, t.lambda3], want, _largest_entry(comps))

    @pytest.mark.parametrize("n", [16, 48])
    def test_lambda_fields_to_roundoff(self, n):
        def reference_slab(out, s):
            l1, l2, _, _ = _reference_eig3(s)
            out[0], out[1] = l1, l2
            np.maximum(0.0, l2, out=out[2])

        S = strain_of(random_solenoidal(GridSpec(n, 16.0), n, amplitude=3.0))
        s_re = S.real_samples()
        want = _by_slab(reference_slab, 3, s_re)
        got = [f.data for f in lambda_fields(S)]
        _assert_roundoff(got, want, _largest_entry(s_re))


class TestOneLambda2:
    # lambda_fields' lambda2 and lambda2+ are the diagnostics sample's bits
    @pytest.mark.parametrize("n", [16, 48])
    @pytest.mark.parametrize("data", ["jets", "random"])
    def test_lambda_fields_match_sample(self, data, n):
        g = GridSpec(n, 16.0)
        u = colliding_jets(g, 1.0) if data == "jets" else random_solenoidal(g, n, amplitude=3.0)
        S = strain_of(u)
        s_re = S.real_samples()
        l2 = _by_slab(lambda out, s: out.__setitem__(0, _middle(s)), 1, s_re)[0]
        l2p = _by_slab(diag._eigen_slab, 3 + len(diag._FINITE_Q), s_re)[0]
        _, got_l2, got_l2p = lambda_fields(S)
        assert got_l2.data.tobytes() == l2.tobytes()
        assert got_l2p.data.tobytes() == l2p.tobytes()


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
