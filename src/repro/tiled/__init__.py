"""Tiled (PLASMA/SLATE-style) dense linear algebra on DistMatrix.

Every public function takes the :class:`repro.runtime.Runtime` first,
submits tile-granular tasks (recording the DAG), and computes real
numbers when the runtime is numeric.

Contents:

* :mod:`.kernels` — numeric single-tile kernels (geqrt, tpqrt, blocked
  reflector application, potrf, ...).
* :mod:`.blas3` — tiled gemm / herk / trsm / add / scale / copy / set.
* :mod:`.qr` — tiled Householder QR (flat or TS-tree panels), explicit
  Q formation, Q application.
* :mod:`.cholesky` — tiled potrf and posv.
* :mod:`.norms` — one/inf/fro/max norms and column sums.
* :mod:`.estimators` — norm2est (Algorithm 2), tiled Hager trcondest.
* :mod:`.gemm_a` — the paper's gemmA matrix-vector variant.
"""

from .blas3 import (
    add,
    copy,
    gemm,
    herk,
    scale,
    set_diag_add,
    set_identity,
    set_zero,
    transpose_conj,
)
from .qr import (QRFactors, geqrf, unmqr_identity, qr_explicit,
                 qr_stacked_identity)
from .cholesky import posv, potrf, trsm_lower
from .norms import norm_fro, norm_inf, norm_max, norm_one, column_abs_sums
from .estimators import norm2est_tiled, trcondest_tiled
from .gemm_a import gemm_a, gemv_owner_c
from .lu import LUFactors, gecondest_tiled, getrf, getrs_vec

__all__ = [
    "add", "copy", "gemm", "herk", "scale", "set_diag_add",
    "set_identity", "set_zero", "transpose_conj",
    "QRFactors", "geqrf", "unmqr_identity", "qr_explicit",
    "qr_stacked_identity",
    "posv", "potrf", "trsm_lower",
    "norm_fro", "norm_inf", "norm_max", "norm_one", "column_abs_sums",
    "norm2est_tiled", "trcondest_tiled",
    "gemm_a", "gemv_owner_c",
    "LUFactors", "getrf", "getrs_vec", "gecondest_tiled",
]
