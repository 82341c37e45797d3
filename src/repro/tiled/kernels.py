"""Numeric single-tile kernels.

These are the payloads of the runtime's tasks: plain numpy/LAPACK math
on one or two tiles.  The QR kernels are LAPACK's structured tile-QR
routines (PLASMA/SLATE's), in compact WY form ``Q = I - V T V^H`` with
T kept in an ``ib x k`` side buffer:

* ``geqrt`` leaves R in a tile's upper triangle and V below it;
* ``gemqrt`` applies that Q or Q^H to another tile;
* ``tpqrt`` factors ``[R; B]`` for a triangular R and a B whose last
  ``l`` rows are upper trapezoidal (``l = 0``: TS couple; ``l =
  rows(B)``: TT combine).  The top reflector block is the identity, so
  it returns only V_bot (B's shape) and T; R_new replaces R's upper
  triangle, the entries below it are untouched;
* ``tpmqrt`` applies such a coupled reflector to ``[C_top; C_bot]``.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np
import scipy.linalg as sla

#: Inner block size of the QR kernels (``ib = min(IB, k)``).  Of 16, 32,
#: 64 and 128 it makes the applies (``?gemqrt``/``?tpmqrt``), which
#: outnumber the factorizations, fastest on 128 x 128 float64 tiles.
IB = 32


def build_t(v: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """Accumulate the T factor of a blocked reflector (LAPACK larft).

    ``v`` is m x k unit-lower-trapezoidal (implicit unit diagonal is
    expected to already be in place), ``tau`` the k reflector scalars.
    Returns upper-triangular T with ``Q = I - V T V^H``.  The reference
    the tests check LAPACK's T against; no kernel calls it.
    """
    m, k = v.shape
    t = np.zeros((k, k), dtype=v.dtype)
    for j in range(k):
        t[j, j] = tau[j]
        if j > 0 and tau[j] != 0:
            # t[:j, j] = -tau[j] * T[:j, :j] @ (V[:, :j]^H v_j)
            w = v[:, :j].conj().T @ v[:, j]
            t[:j, j] = -tau[j] * (t[:j, :j] @ w)
    return t


@lru_cache(maxsize=None)
def _routine(name: str, dtype: np.dtype):
    return sla.get_lapack_funcs(name, dtype=dtype)


def _lapack(kernel: str, name: str, dtype: np.dtype, *args, **kwargs):
    """Outputs of LAPACK ``?name`` for ``dtype``; a nonzero info raises
    ``LinAlgError`` naming ``kernel``, so no bad factor is stored."""
    fn = _routine(name, dtype)
    *out, info = fn(*args, **kwargs)
    if info != 0:
        raise np.linalg.LinAlgError(
            f"{kernel}: {fn.typecode}{name} returned info={info}")
    return tuple(out)


def _check_l(kernel: str, l: int, rows: int, k: int) -> None:
    """``0 <= l <= min(rows, k)``: ``?tpmqrt`` leaves ``l <= rows``
    unchecked (scipy's wrapper too) and corrupts memory."""
    if not 0 <= l <= min(rows, k):
        raise np.linalg.LinAlgError(
            f"{kernel}: l={l} outside [0, {min(rows, k)}]")


def _trans(dtype: np.dtype, conj_trans: bool) -> str:
    return ("C" if dtype.kind == "c" else "T") if conj_trans else "N"


def geqrt_kernel(tile: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """QR-factor one tile; returns (factored tile, ``ib x min(m, n)`` T)."""
    return _lapack("geqrt_kernel", "geqrt", tile.dtype,
                   min(IB, *tile.shape), tile)


def apply_q_kernel(v_tile: np.ndarray, t: np.ndarray, c: np.ndarray,
                   conj_trans: bool) -> np.ndarray:
    """Apply Q or Q^H of a geqrt-factored tile to C, returning new C."""
    return _lapack("apply_q_kernel", "gemqrt", c.dtype,
                   v_tile[:, :t.shape[1]], t, c,
                   trans=_trans(c.dtype, conj_trans))[0]


def tpqrt_kernel(r_top: np.ndarray, b: np.ndarray, l: int
                 ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor ``[triu(R); B]`` (k x k R); returns (top, V_bot, T).

    ``top`` is ``r_top`` with R_new in its upper triangle; B's last
    ``l`` rows are upper trapezoidal; T is ``ib x k``.
    """
    k = r_top.shape[1]
    _check_l("tpqrt_kernel", l, b.shape[0], k)
    return _lapack("tpqrt_kernel", "tpqrt", b.dtype, l, min(IB, k), r_top, b)


def tpmqrt_kernel(v_bot: np.ndarray, t: np.ndarray, c_top: np.ndarray,
                  c_bot: np.ndarray, l: int,
                  conj_trans: bool) -> Tuple[np.ndarray, np.ndarray]:
    """Apply a ``tpqrt_kernel`` reflector (Q or Q^H) to [C_top; C_bot].

    ``c_top`` is the k x nc slice the reflectors act on (the first k
    rows of the top tile row); ``c_bot`` has ``v_bot``'s rows.
    """
    _check_l("tpmqrt_kernel", l, *v_bot.shape)
    return _lapack("tpmqrt_kernel", "tpmqrt", c_bot.dtype, l, v_bot, t,
                   c_top, c_bot, trans=_trans(c_bot.dtype, conj_trans))


def potrf_kernel(tile: np.ndarray) -> np.ndarray:
    """Cholesky of one SPD tile (lower)."""
    return np.linalg.cholesky(tile)


def trsm_kernel(tri: np.ndarray, b: np.ndarray, *, lower: bool,
                conj_trans: bool, side_left: bool = True) -> np.ndarray:
    """Triangular solve against one tile."""
    if side_left:
        return sla.solve_triangular(tri, b, lower=lower,
                                    trans="C" if conj_trans else "N",
                                    check_finite=False)
    if conj_trans:
        # X tri^H = b  <=>  X^H = tri^{-1} b^H.
        xh = sla.solve_triangular(tri, b.conj().T, lower=lower, trans="N",
                                  check_finite=False)
        return xh.conj().T
    # X tri = b  <=>  tri^T X^T = b^T.
    xt = sla.solve_triangular(tri, b.T, lower=lower, trans="T",
                              check_finite=False)
    return xt.T
