"""E12, E13, E14 — iteration counts, the flop model, norm2est quality.

Paper Section 4: ill-conditioned matrices need 3 QR + 3 Cholesky
iterations (6 = theoretical max in double precision); well-conditioned
need ~2 Cholesky and no QR.  Total flops follow
4/3 n^3 + (8+2/3) n^3 #it_QR + (4+1/3) n^3 #it_Chol + 2 n^3.
Section 6.2: norm2est (tol 0.1) is accurate far beyond the factor-5
requirement.
"""

from __future__ import annotations

import numpy as np

import repro.flops as F
from repro import norm2est, qdwh
from repro.bench import format_table, write_result
from repro.core.params import predict_iterations
from repro.matrices import generate_matrix


def test_iteration_counts_vs_condition(once):
    conds = (1.0, 10.0, 1e2, 1e4, 1e8, 1e12, 1e16)

    def body():
        rows = []
        for cond in conds:
            a = generate_matrix(192, cond=cond, seed=int(np.log10(cond)))
            r = qdwh(a)
            pred = predict_iterations(cond, n=192)
            rows.append([f"{cond:.0e}", r.it_qr, r.it_chol,
                         r.iterations, f"{pred[0]}+{pred[1]}"])
        return rows

    rows = once(body)
    text = format_table(
        "E12: QDWH iteration counts vs condition number (n=192, "
        "measured vs scalar-recurrence prediction)",
        ["kappa", "#it_QR", "#it_Chol", "total", "predicted"], rows)
    write_result("iteration_counts", text)

    by_cond = {r[0]: r for r in rows}
    assert by_cond["1e+16"][1] == 3 and by_cond["1e+16"][2] == 3
    assert all(int(r[3]) <= 7 for r in rows)       # theory: <= 6 (+1 est fuzz)
    assert by_cond["1e+01"][1] <= 1                # well-cond: ~no QR


def test_flop_model(once):
    """Summed task flops (the per-tile model) vs the paper's formula."""
    from repro.dist import DistMatrix, ProcessGrid
    from repro.runtime import Runtime
    from repro.core.tiled_qdwh import tiled_qdwh

    sizes = (256, 512, 1024)

    def body():
        rows = []
        for n in sizes:
            rt = Runtime(ProcessGrid(2, 2), numeric=False)
            da = DistMatrix(rt, n, n, 64)
            res = tiled_qdwh(rt, da, cond_est=1e16)
            model = F.qdwh_total(n, res.it_qr, res.it_chol)
            executed = rt.graph.total_flops()
            rows.append([n, f"{model:.3e}", f"{executed:.3e}",
                         executed / model])
        return rows

    rows = once(body)
    text = format_table(
        "E13: paper flop formula vs summed Task.flops (kappa=1e16; "
        "the ~1.4x gap = tile-model T builds and couples + explicit Q)",
        ["n", "paper flops", "task flops", "ratio"], rows)
    write_result("flop_model", text)
    for r in rows:
        assert 1.0 < r[3] < 2.0
    # The ratio stabilizes as n grows (both are Theta(n^3)).
    assert abs(rows[-1][3] - rows[-2][3]) < 0.2


def test_norm2est_accuracy(once):
    """E14: power-iteration 2-norm estimate vs truth across spectra."""
    from repro.matrices import SingularValueMode

    def body():
        rows = []
        for mode in SingularValueMode:
            errs = []
            for seed in range(5):
                a = generate_matrix(256, cond=1e8, mode=mode, seed=seed)
                est = norm2est(a)
                true = float(np.linalg.norm(a, 2))
                errs.append(abs(est - true) / true)
            rows.append([mode.value, max(errs)])
        return rows

    rows = once(body)
    text = format_table(
        "E14: norm2est relative error by spectrum shape (tol=0.1; "
        "paper: factor-5 accuracy is sufficient)",
        ["spectrum", "max rel err"], rows)
    write_result("norm2est_accuracy", text)
    assert all(r[1] < 0.8 for r in rows)  # far inside factor 5
