"""Tiled QR factorization tests (tree and flat panels)."""

from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.dist import DistMatrix
from repro.runtime.task import TaskKind
from repro.tiled import geqrf, qr_explicit, qr_stacked_identity

from .conftest import make_runtime


def check_qr(A, nb, panel, grid=(2, 2)):
    rt = make_runtime(*grid)
    dW = DistMatrix.from_array(rt, A.copy(), nb)
    fac, dQ = qr_explicit(rt, dW, panel=panel)
    Q = dQ.to_array()
    n = A.shape[1]
    R = np.triu(dW.to_array()[:n, :n])
    recon = np.abs(Q @ R - A).max()
    orth = np.abs(Q.conj().T @ Q - np.eye(n)).max()
    return recon, orth, R


class TestQRCorrectness:
    @given(st.integers(4, 40), st.integers(2, 20), st.integers(2, 11),
           st.sampled_from(["tree", "flat"]))
    def test_reconstruction_and_orthogonality(self, m, n, nb, panel):
        if m < n:
            m, n = n, m
        rng = np.random.default_rng(m * 41 + n * 3 + nb)
        A = rng.standard_normal((m, n))
        recon, orth, _ = check_qr(A, nb, panel)
        assert recon < 1e-12 * max(m, n)
        assert orth < 1e-13 * max(m, n)

    @pytest.mark.parametrize("panel", ["tree", "flat"])
    @pytest.mark.parametrize("dtype", [np.float32, np.complex64,
                                       np.complex128])
    def test_dtypes(self, panel, dtype, rng):
        A = rng.standard_normal((24, 16)).astype(dtype)
        if np.issubdtype(dtype, np.complexfloating):
            A = A + 1j * rng.standard_normal((24, 16)).astype(A.real.dtype)
            A = A.astype(dtype)
        single = dtype in (np.float32, np.complex64)
        tol = 1e-4 if single else 1e-12
        recon, orth, _ = check_qr(A, 8, panel)
        assert recon < tol
        assert orth < tol

    def test_r_diag_real_sign_consistent_with_lapack(self, rng):
        """R from the tiled QR matches |R| from LAPACK (signs are a
        convention; magnitudes must agree)."""
        A = rng.standard_normal((20, 12))
        _, _, R = check_qr(A, 4, "tree")
        r_ref = np.linalg.qr(A, mode="r")
        assert np.allclose(np.abs(np.diag(R)), np.abs(np.diag(r_ref)),
                           atol=1e-10)

    def test_single_tile(self, rng):
        A = rng.standard_normal((6, 4))
        recon, orth, _ = check_qr(A, 8, "tree", grid=(1, 1))
        assert recon < 1e-13 and orth < 1e-13

    def test_stacked_identity_structure(self, rng):
        """QR of [A; I] through the generic dense-panel path (QDWH's own
        stack goes through qr_stacked_identity, TestStackedIdentityQR)."""
        rt = make_runtime()
        A = rng.standard_normal((12, 12))
        W = np.vstack([A, np.eye(12)])
        dW = DistMatrix.from_array(rt, W, 4)
        fac, dQ = qr_explicit(rt, dW)
        Q = dQ.to_array()
        R = np.triu(dW.to_array()[:12, :12])
        assert np.abs(Q @ R - W).max() < 1e-12

    def test_rejects_wide(self, rng):
        rt = make_runtime()
        d = DistMatrix.from_array(rt, rng.standard_normal((4, 8)), 2)
        with pytest.raises(ValueError):
            geqrf(rt, d)

    def test_rejects_unknown_panel(self, rng):
        rt = make_runtime()
        d = DistMatrix.from_array(rt, rng.standard_normal((8, 4)), 2)
        with pytest.raises(ValueError):
            geqrf(rt, d, panel="butterfly")


class TestQRGraphShape:
    def test_tree_panel_has_log_depth_combines(self):
        """8 block rows combine in 3 rounds (pairs 4+2+1 = 7 TTQRTs)."""
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 64, 8, 8)
        geqrf(rt, d, panel="tree")
        counts = rt.graph.counts_by_kind()
        assert counts["geqrt"] == 8
        assert counts["tpqrt"] == 7  # tree combines

    def test_flat_panel_chain(self):
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 64, 8, 8)
        geqrf(rt, d, panel="flat")
        counts = rt.graph.counts_by_kind()
        assert counts["geqrt"] == 1
        assert counts["tpqrt"] == 7

    def test_tree_critical_path_shorter(self):
        """The communication-avoiding panel's whole point."""
        def crit(panel):
            rt = make_runtime(1, 1, numeric=False)
            d = DistMatrix(rt, 32 * 16, 32, 32)
            geqrf(rt, d, panel=panel)
            return rt.graph.critical_path_seconds(lambda t: 1.0)

        assert crit("tree") < crit("flat")

    def test_phases_advance_per_panel(self):
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 32, 16, 8)
        p0 = rt.phase
        geqrf(rt, d)
        assert rt.phase - p0 >= 2  # one per panel step

    @pytest.mark.parametrize("panel", ["tree", "flat"])
    def test_one_op_per_geqrf(self, panel):
        """Both panel variants record exactly one library op."""
        rt = make_runtime(1, 1, numeric=False)
        d = DistMatrix(rt, 32, 16, 8)
        before = rt.begin_op()
        geqrf(rt, d, panel=panel)
        assert {t.op for t in rt.graph.tasks} == {before + 1}


#: (m, n, nb) of A: square, tall, and ragged (nb does not divide n).
STACK_SHAPES = [(24, 24, 8), (40, 16, 8), (22, 22, 8), (31, 17, 5)]
DTYPES = [np.float32, np.float64, np.complex64, np.complex128]
QR_KINDS = {TaskKind.GEQRT, TaskKind.UNMQR, TaskKind.TPQRT,
            TaskKind.TPMQRT}


class TestStackedIdentityQR:
    """The QDWH stack [alpha A; I], factored with its structure."""

    @pytest.mark.parametrize("shape", STACK_SHAPES)
    @pytest.mark.parametrize("dtype", DTYPES)
    def test_matches_dense_qr(self, shape, dtype):
        m, n, nb = shape
        rng = np.random.default_rng(m * 7 + n + nb)
        A = rng.standard_normal((m, n))
        if np.issubdtype(dtype, np.complexfloating):
            A = A + 1j * rng.standard_normal((m, n))
        A = A.astype(dtype)
        alpha = 0.7
        rt = make_runtime(2, 2)
        dA = DistMatrix.from_array(rt, A.copy(), nb)
        Q = qr_stacked_identity(rt, dA, alpha).to_array()
        W = np.vstack([alpha * A.astype(np.complex128), np.eye(n)])
        Q64 = Q.astype(np.complex128)
        tol = 32 * np.finfo(dtype).eps * np.sqrt(m + n)
        assert Q.dtype == dtype and Q.shape == (m + n, n)
        # Q R = W with R = Q^H W upper triangular.
        R = Q64.conj().T @ W
        assert np.abs(np.tril(R, -1)).max() < tol
        assert np.abs(Q64 @ np.triu(R) - W).max() < tol
        assert np.abs(Q64.conj().T @ Q64 - np.eye(n)).max() < tol
        # Q1 Q2^H does not depend on the sign convention of R's rows.
        Qd, _ = np.linalg.qr(W)
        ref = Qd[:m] @ Qd[m:].conj().T
        assert np.abs(Q64[:m] @ Q64[m:].conj().T - ref).max() < tol

    @pytest.mark.parametrize("shape", STACK_SHAPES)
    def test_panels_reach_only_filled_bottom_rows(self, shape):
        """Panel k factors tile rows k .. mt_A + k: mt_A + 1 geqrts, and
        no task of panels before i touches bottom tile row mt_A + i."""
        m, n, nb = shape
        rt = make_runtime(1, 1, numeric=False)
        a = DistMatrix(rt, m, n, nb)
        qr_stacked_identity(rt, a, 1.0)
        tasks = [t for t in rt.graph.tasks if t.kind in QR_KINDS]
        geqrt_per_panel = Counter(t.phase for t in tasks
                                  if t.kind is TaskKind.GEQRT)
        assert sorted(geqrt_per_panel.values()) == [a.mt + 1] * a.nt
        # Every QR task names its panel k through a T-factor ref (GEQRT
        # and TPQRT write one; the applies read it).
        side = {t.writes[1][0] for t in tasks
                if t.kind in (TaskKind.GEQRT, TaskKind.TPQRT)}
        first_touch = {}
        for t in tasks:
            refs = t.reads + t.writes
            (k,) = {r[2] for r in refs if r[0] in side}
            for mat, i, _j in refs:
                if mat not in side and i >= a.mt:
                    assert i - a.mt <= k, (t.label, k)
                    first_touch[i] = min(first_touch.get(i, k), k)
        assert first_touch == {a.mt + b: b for b in range(a.nt)}

    def test_rejects_wide(self):
        rt = make_runtime(1, 1, numeric=False)
        with pytest.raises(ValueError):
            qr_stacked_identity(rt, DistMatrix(rt, 12, 20, 4), 1.0)

    def test_task_counts_at_paper_tiling(self):
        """One QR iteration at n=1024, nb=128 (8x8 A, 16x8 stack)."""
        rt = make_runtime(1, 1, numeric=False)
        qr_stacked_identity(rt, DistMatrix(rt, 1024, 1024, 128), 1.0)
        counts = rt.graph.counts_by_kind()
        assert (counts["geqrt"], counts["tpqrt"], counts["unmqr"],
                counts["tpmqrt"]) == (72, 64, 828, 736)

        rt = make_runtime(1, 1, numeric=False)
        qr_explicit(rt, DistMatrix(rt, 2048, 1024, 128))
        counts = rt.graph.counts_by_kind()
        assert (counts["geqrt"], counts["tpqrt"], counts["unmqr"],
                counts["tpmqrt"]) == (100, 92, 1192, 1100)
