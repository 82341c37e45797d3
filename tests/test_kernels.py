"""Direct unit tests of the single-tile numeric kernels."""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.tiled import kernels

DTYPES = [np.float32, np.float64, np.complex64, np.complex128]


def rand(rng, m, n, cplx=False):
    a = rng.standard_normal((m, n))
    if cplx:
        a = a + 1j * rng.standard_normal((m, n))
    return a


def rand_dtype(rng, m, n, dtype):
    return rand(rng, m, n, np.dtype(dtype).kind == "c").astype(dtype)


def close(x, y, dtype, scale=1.0):
    """``x == y`` to a residual of a few ulps of ``dtype`` per entry."""
    tol = 64 * np.finfo(dtype).eps * max(scale, 1.0)
    return np.abs(np.asarray(x) - np.asarray(y)).max(initial=0) <= tol


class TestBuildT:
    @given(st.integers(1, 12), st.integers(1, 12), st.booleans())
    def test_block_reflector_reproduces_q(self, m, k, cplx):
        """Q = I - V T V^H must equal the product of the elementary
        reflectors scipy's raw QR returns."""
        if m < k:
            m, k = k, m
        rng = np.random.default_rng(m * 13 + k)
        a = rand(rng, m, k, cplx)
        import scipy.linalg as sla
        (qr_raw, tau), _ = sla.qr(a, mode="raw")
        v = np.tril(qr_raw, -1)
        v[np.diag_indices(min(m, k))] = 1.0
        v = v[:, :k]
        t = kernels.build_t(v, tau)
        q_blocked = np.eye(m) - v @ t @ v.conj().T
        # Elementary product: H1 H2 ... Hk.
        q_elem = np.eye(m, dtype=a.dtype)
        for i in range(k):
            h = np.eye(m, dtype=a.dtype) - tau[i] * np.outer(
                v[:, i], v[:, i].conj())
            q_elem = q_elem @ h
        assert np.allclose(q_blocked, q_elem, atol=1e-12)

    def test_t_upper_triangular(self, rng):
        a = rand(rng, 10, 6)
        tile, t = kernels.geqrt_kernel(a)
        assert np.allclose(t, np.triu(t))

    @given(st.integers(1, 40), st.integers(1, kernels.IB),
           st.sampled_from(DTYPES))
    def test_geqrt_t_matches_build_t(self, m, k, dtype):
        """With ``ib = k`` (k <= IB) LAPACK's geqrt T is the whole larft
        T, so the reference ``build_t`` must rebuild it from V and the
        reflector scalars on T's diagonal."""
        m = max(m, k)
        rng = np.random.default_rng(m * 7 + k)
        tile, t = kernels.geqrt_kernel(rand_dtype(rng, m, k, dtype))
        assert t.shape == (k, k)
        v = np.tril(tile, -1)
        v[np.diag_indices(k)] = 1
        assert close(kernels.build_t(v, np.diag(t)), t, dtype)


class TestGeqrtApply:
    @given(st.integers(1, 48), st.integers(1, 48), st.sampled_from(DTYPES))
    def test_factor_apply_roundtrip(self, m, n, dtype):
        """Q [R; 0] = A, for k both below and above the inner block."""
        rng = np.random.default_rng(m + 31 * n)
        a = rand_dtype(rng, m, n, dtype)
        tile, t = kernels.geqrt_kernel(a.copy())
        k = min(m, n)
        assert t.shape == (min(kernels.IB, k), k)
        c = np.zeros((m, n), dtype=dtype)
        c[:k] = np.triu(tile)[:k]
        back = kernels.apply_q_kernel(tile, t, c, conj_trans=False)
        assert close(back, a, dtype, np.abs(a).max() * m)

    @given(st.integers(1, 48), st.integers(1, 48), st.integers(1, 6),
           st.sampled_from(DTYPES))
    def test_qh_q_is_identity(self, m, n, nc, dtype):
        rng = np.random.default_rng(m * 5 + n)
        tile, t = kernels.geqrt_kernel(rand_dtype(rng, m, n, dtype))
        c = rand_dtype(rng, m, nc, dtype)
        fwd = kernels.apply_q_kernel(tile, t, c, conj_trans=False)
        back = kernels.apply_q_kernel(tile, t, fwd, conj_trans=True)
        assert close(back, c, dtype, np.abs(c).max() * m)


def couple_case(rng, kdim, mb, mode, dtype):
    """(R, B, l) for a TS couple, a TT combine or a ragged TT combine.

    R and a TT ``B`` carry junk below the diagonal, as the tiles of the
    tiled QR do (the geqrt reflectors): the kernels must not read it.
    """
    r_top = rand_dtype(rng, kdim, kdim, dtype)
    if mode == "ts":
        return r_top, rand_dtype(rng, mb, kdim, dtype), 0
    rows = kdim if mode == "tt" else min(mb, kdim)
    return r_top, rand_dtype(rng, rows, kdim, dtype), rows


class TestTpqrt:
    @given(st.integers(1, 40), st.integers(1, 40),
           st.sampled_from(["ts", "tt", "ragged"]), st.sampled_from(DTYPES))
    def test_couple_reconstructs(self, kdim, mb, mode, dtype):
        rng = np.random.default_rng(kdim * 7 + mb)
        r_top, b, l = couple_case(rng, kdim, mb, mode, dtype)
        top, v_bot, t = kernels.tpqrt_kernel(r_top.copy(), b.copy(), l)
        assert t.shape == (min(kernels.IB, kdim), kdim)
        assert v_bot.shape == b.shape
        # R_new replaces R's upper triangle; the junk below is kept.
        assert np.array_equal(np.tril(top, -1), np.tril(r_top, -1))
        # Q^H [triu(R); B_pentagon] = [R_new; 0].
        b_used = b if l == 0 else np.triu(b)
        qr_top, qr_bot = kernels.tpmqrt_kernel(
            v_bot, t, np.triu(r_top), b_used, l, conj_trans=True)
        scale = np.abs(np.vstack([r_top, b])).max() * (kdim + mb)
        assert close(qr_top, np.triu(top), dtype, scale)
        assert close(qr_bot, 0, dtype, scale)

    @given(st.integers(1, 40), st.integers(1, 40), st.integers(1, 6),
           st.sampled_from(["ts", "tt", "ragged"]), st.sampled_from(DTYPES))
    def test_apply_is_unitary(self, kdim, mb, nc, mode, dtype):
        rng = np.random.default_rng(kdim * 11 + mb)
        r_top, b, l = couple_case(rng, kdim, mb, mode, dtype)
        _, v_bot, t = kernels.tpqrt_kernel(r_top, b, l)
        c_top = rand_dtype(rng, kdim, nc, dtype)
        c_bot = rand_dtype(rng, b.shape[0], nc, dtype)
        t1, b1 = kernels.tpmqrt_kernel(v_bot, t, c_top, c_bot, l,
                                       conj_trans=False)
        t2, b2 = kernels.tpmqrt_kernel(v_bot, t, t1, b1, l,
                                       conj_trans=True)
        scale = (kdim + mb) * max(np.abs(c_top).max(), np.abs(c_bot).max())
        assert close(t2, c_top, dtype, scale)
        assert close(b2, c_bot, dtype, scale)


class TestLapackErrors:
    def test_rejected_l_raises(self, rng):
        """l beyond min(rows, cols) of B breaks ?tpqrt's contract."""
        r_top, b = np.triu(rand(rng, 4, 4)), rand(rng, 3, 4)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"tpqrt_kernel: l=4 outside \[0, 3\]"):
            kernels.tpqrt_kernel(r_top, b, 4)

    def test_tpmqrt_l_beyond_v_rows_refused(self, rng):
        """Neither scipy's wrapper nor ?tpmqrt checks l <= rows(V): the
        kernel must refuse it instead of corrupting memory."""
        _, v_bot, t = kernels.tpqrt_kernel(np.triu(rand(rng, 4, 4)),
                                           rand(rng, 3, 4), 0)
        with pytest.raises(np.linalg.LinAlgError,
                           match=r"tpmqrt_kernel: l=4 outside \[0, 3\]"):
            kernels.tpmqrt_kernel(v_bot, t, rand(rng, 4, 2), rand(rng, 3, 2),
                                  4, conj_trans=True)

    @pytest.mark.parametrize("kernel, name, args", [
        ("geqrt_kernel", "dgeqrt", lambda a: (a,)),
        ("apply_q_kernel", "dgemqrt", lambda a: (a, np.eye(4), a, True)),
        ("tpqrt_kernel", "dtpqrt", lambda a: (np.eye(4), a, 0)),
        ("tpmqrt_kernel", "dtpmqrt",
         lambda a: (a, np.eye(4), np.eye(4), a, 0, True)),
    ])
    def test_nonzero_info_raises(self, rng, monkeypatch, kernel, name, args):
        """LAPACK reports a bad argument as info = -i; scipy's wrappers
        check the same constraints first, so a stand-in routine
        returns it here."""
        def rejecting(routine, dtype):
            def call(*_args, **_kwargs):
                return None, -7
            call.typecode = "d"
            return call

        monkeypatch.setattr(kernels, "_routine", rejecting)
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"{kernel}: {name} returned info=-7"):
            getattr(kernels, kernel)(*args(rand(rng, 6, 4)))


class TestTrsmKernel:
    @given(st.integers(1, 12), st.integers(1, 10),
           st.booleans(), st.booleans(), st.booleans())
    def test_all_variants(self, n, nrhs, lower, conj, left):
        rng = np.random.default_rng(n * 3 + nrhs)
        tri = rand(rng, n, n, conj) + (n + 2) * np.eye(n)
        tri = np.tril(tri) if lower else np.triu(tri)
        b = rand(rng, n if left else nrhs, nrhs if left else n, conj)
        x = kernels.trsm_kernel(tri, b, lower=lower, conj_trans=conj,
                                side_left=left)
        op = tri.conj().T if conj else tri
        if left:
            assert np.allclose(op @ x, b, atol=1e-10)
        else:
            assert np.allclose(x @ op, b, atol=1e-10)


class TestPotrfKernel:
    def test_cholesky(self, rng):
        b = rand(rng, 8, 8)
        s = b @ b.T + 8 * np.eye(8)
        ell = kernels.potrf_kernel(s)
        assert np.allclose(ell @ ell.T, s)
