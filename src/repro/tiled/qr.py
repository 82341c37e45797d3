"""Tiled Householder QR factorization and Q application.

The PLASMA/SLATE tile-QR algorithm: at panel step k,

* ``geqrt`` factors the diagonal tile,
* ``unmqr`` applies its reflectors across tile-row k,
* ``tpqrt`` couples each below-panel tile with the R block,
* ``tpmqrt`` applies each coupling across the trailing tile rows.

With LAPACK's structured kernels (:mod:`.kernels`) the factored matrix
keeps R in its upper tiles and the panel reflectors below; only the
``ib x kb`` T factors (and the tree combines' V_bot blocks) live in a
side buffer with their own dependency refs.

``qr_explicit`` forms the economy Q = Q_full[:, :n] by applying the
reflectors to an [I; 0] workspace in reverse order — exactly how
Algorithm 1 materializes [Q1; Q2] (its ``unmqr`` call, line 32).

``qr_stacked_identity`` is the QDWH iteration's entry point: it builds
the stack [alpha A; I] itself, so the identity block's structure holds
by construction, and factors only the tile rows each panel can reach
(:attr:`QRFactors.rows`).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Tuple

import numpy as np

from .. import flops as F
from ..dist.matrix import DistMatrix
from ..runtime.executor import Runtime
from ..runtime.task import TaskKind, TileRef
from . import kernels


@dataclass
class QRFactors:
    """A tiled QR factorization in compact form.

    ``panel`` records which reduction built it:

    * flat — ``aux[(k,k)]`` is the geqrt T; ``aux[(i,k)]`` (i > k) is
      the TS couple's T (``l = 0``), with V_bot stored in tile (i,k).
    * tree — ``aux[(i,k)]`` is the geqrt T of *every* block row i;
      ``aux[("tt", i2, k)]`` is the triangle-combine ``(V_bot, T,
      rows_eff)`` whose bottom operand was row i2's top ``l = rows_eff``
      rows.  Every T is ``ib x k`` for k reflectors (:func:`_t_nbytes`).

    ``rows[k]`` lists the tile rows panel k reduces, diagonal row k
    first; rows outside it are exact zeros in the panel's column, so
    its reflectors have no support there.  The factorization and the Q
    formation both iterate it.
    """

    a: DistMatrix                 # R upper + panel reflectors lower
    kt: int                       # number of panel steps
    aux_mat: int                  # pseudo-matrix id for geqrt T refs
    tt_mat: int = -1              # pseudo-matrix id for tree-combine refs
    panel: str = "tree"
    aux: Dict[object, object] = field(default_factory=dict)
    rows: List[range] = field(default_factory=list)

    def t_ref(self, i: int, k: int) -> TileRef:
        return (self.aux_mat, i, k)

    def tt_ref(self, i2: int, k: int) -> TileRef:
        return (self.tt_mat, i2, k)


def _t_nbytes(k: int, itemsize: int) -> int:
    """Bytes of the ``ib x k`` T factor of k reflectors."""
    return min(kernels.IB, k) * k * itemsize


def _tree_rounds(heights, kb: int):
    """TSQR binary-combine rounds over a panel's block rows.

    ``heights[rel]`` is the tile height of relative row ``rel``; the R
    trapezoid a row can hold has ``min(height, kb)`` rows.  Rounds pair
    the tallest surviving row with the shortest (so a short ragged tile
    is always absorbed by one that can hold the combined triangle), and
    relative row 0 — the diagonal tile, whose height is >= kb by the
    m >= n invariant — is pinned first so the final R lands there.

    Returns a list of rounds; each round is a list of ``(top_rel,
    bot_rel, bot_cap)`` with disjoint operands (concurrent tasks), where
    ``bot_cap`` is the number of R rows the bottom operand contributes.
    """
    caps = {rel: min(h, kb) for rel, h in enumerate(heights)}
    survivors = sorted(caps)
    rounds = []
    while len(survivors) > 1:
        pairs = []
        nxt = []
        progress = False
        i = 0
        while i + 1 < len(survivors):
            lo, hi = survivors[i], survivors[i + 1]
            need = min(caps[lo] + caps[hi], kb)
            if min(heights[lo], kb) >= need:
                top, bot = lo, hi          # neighbor pairing, low on top
            elif min(heights[hi], kb) >= need:
                top, bot = hi, lo          # ragged low tile: swap roles
            else:
                nxt.append(lo)             # both short: defer lo, retry
                i += 1
                continue
            pairs.append((top, bot, caps[bot]))
            caps[top] = need
            nxt.append(top)
            progress = True
            i += 2
        if i < len(survivors):
            nxt.append(survivors[i])
        if not progress:
            raise ValueError(
                "panel tiling too ragged for the tree reduction: no "
                "surviving row can hold a combined triangle")
        rounds.append(pairs)
        survivors = sorted(nxt)
    if survivors != [0]:  # pragma: no cover - structural invariant
        raise AssertionError("tree reduction did not terminate at row 0")
    return rounds


def geqrf(rt: Runtime, a: DistMatrix, *, panel: str = "tree") -> QRFactors:
    """Factor A = QR in place; returns the factors.

    ``panel`` selects the panel reduction:

    * ``"tree"`` (default) — communication-avoiding TSQR: every block
      row is geqrt-factored independently, then triangles combine in a
      binary tree (depth log2 of the panel height).  This is SLATE's
      CAQR-style internal geqrf.
    * ``"flat"`` — PLASMA-style sequential TS chain (depth = panel
      height); kept as the ablation baseline.

    Every panel reduces all tile rows on and below its diagonal.
    """
    if panel not in ("tree", "flat"):
        raise ValueError(f"panel must be 'tree' or 'flat', got {panel!r}")
    if a.m < a.n:
        raise ValueError(f"tiled geqrf requires m >= n, got {a.m}x{a.n}")
    rows = [range(k, a.mt) for k in range(min(a.mt, a.nt))]
    rt.begin_op()
    if panel == "tree":
        return _geqrf_tree(rt, a, rows)
    return _geqrf_flat(rt, a, rows)


def qr_stacked_identity(rt: Runtime, a: DistMatrix,
                        alpha: float) -> DistMatrix:
    """Explicit economy Q of the stack W = [alpha A; I] (tree panels).

    W is built here, so its identity block is known to be upper
    triangular, and it stays so: panel k's reflectors reach only bottom
    tile rows ``a.mt .. a.mt + k``, and every row below them is zero in
    column k.  Panel k therefore reduces the ``a.mt + 1`` contiguous
    tile rows ``k .. a.mt + k``; the skipped tasks would apply
    reflectors with zero support.  Returns Q ((m + n) x n, W's tiling).
    """
    if a.m < a.n:
        raise ValueError(f"stacked QR requires m >= n, got {a.m}x{a.n}")
    w = DistMatrix(rt, a.m + a.n, a.n, a.nb, a.dtype, layout=a.layout,
                   name="W", row_heights=a.row_heights + a.col_widths,
                   col_widths=a.col_widths)
    rt.advance_phase()
    _copy_scaled(rt, alpha, a, w)
    _set_identity_rows(rt, w, a.mt, "wident")
    rt.begin_op()
    fac = _geqrf_tree(rt, w, [range(k, a.mt + k + 1) for k in range(a.nt)])
    return unmqr_identity(rt, fac)


def _copy_scaled(rt: Runtime, alpha: float, src: DistMatrix,
                 dst: DistMatrix) -> None:
    """dst's leading tile rows <- alpha * src (the top block of W)."""
    for i in range(src.mt):
        for j in range(src.nt):

            def body(i=i, j=j):
                dst.tile(i, j)[...] = dst.dtype.type(alpha) * src.tile(i, j)

            rt.submit(TaskKind.COPY, reads=(src.ref(i, j),),
                      writes=(dst.ref(i, j),), rank=dst.owner(i, j),
                      flops=float(src.tile_rows(i) * src.tile_cols(j)),
                      tile_dim=dst.nb, fn=body,
                      bytes_out=dst.tile_nbytes(i, j),
                      label=f"cpysc({i},{j})")


def _geqrf_flat(rt: Runtime, a: DistMatrix, rows: List[range]) -> QRFactors:
    kt = len(rows)
    fac = QRFactors(a=a, kt=kt, aux_mat=rt.new_matrix_id(), rows=rows)
    fac.panel = "flat"
    aux = fac.aux
    # Processes backend: aux entries (T factors) are driver dict state
    # written inside payloads; declaring the store lets the scheduler
    # ship them between workers by their pseudo-tile refs.
    rt.register_side_store(fac.aux_mat, aux, lambda ref: (ref[1], ref[2]))
    itemsize = a.dtype.itemsize
    for k in range(kt):
        rt.advance_phase()
        kb = a.tile_cols(k)
        mb = a.tile_rows(k)
        tkk = fac.t_ref(k, k)
        tkk_bytes = _t_nbytes(min(mb, kb), itemsize)
        rt.register_tiles([tkk], tkk_bytes)

        def panel(k=k):
            tile, t = kernels.geqrt_kernel(a.tile(k, k))
            a.set_tile(k, k, tile)
            aux[(k, k)] = t

        rt.submit(TaskKind.GEQRT, reads=(a.ref(k, k),),
                  writes=(a.ref(k, k), tkk), rank=a.owner(k, k),
                  flops=F.tile_geqrt(mb, kb), tile_dim=a.nb, fn=panel,
                  bytes_out=a.tile_nbytes(k, k) + tkk_bytes,
                  label=f"geqrt({k})")

        for j in range(k + 1, a.nt):

            def row_apply(k=k, j=j):
                c = kernels.apply_q_kernel(a.tile(k, k), aux[(k, k)],
                                           a.tile(k, j), conj_trans=True)
                a.tile(k, j)[...] = c

            rt.submit(TaskKind.UNMQR, reads=(a.ref(k, k), tkk),
                      writes=(a.ref(k, j),), rank=a.owner(k, j),
                      flops=F.tile_unmqr(mb, a.tile_cols(j), kb),
                      tile_dim=a.nb, fn=row_apply,
                      bytes_out=a.tile_nbytes(k, j),
                      label=f"unmqr({k},{j})")

        for i in rows[k][1:]:
            tik = fac.t_ref(i, k)
            mbi = a.tile_rows(i)
            rt.register_tiles([tik], _t_nbytes(kb, itemsize))

            def couple(k=k, i=i, kb=kb):
                dkk = a.tile(k, k)
                dkk[:kb, :kb], v_bot, aux[(i, k)] = kernels.tpqrt_kernel(
                    dkk[:kb, :kb], a.tile(i, k), 0)
                a.tile(i, k)[...] = v_bot

            rt.submit(TaskKind.TPQRT,
                      reads=(a.ref(k, k), a.ref(i, k)),
                      writes=(a.ref(k, k), a.ref(i, k), tik),
                      rank=a.owner(i, k),
                      flops=F.tile_tpqrt(mbi, kb), tile_dim=a.nb,
                      fn=couple,
                      bytes_out=(a.tile_nbytes(k, k) + a.tile_nbytes(i, k)
                                 + _t_nbytes(kb, itemsize)),
                      label=f"tpqrt({i},{k})")

            for j in range(k + 1, a.nt):

                def pair_apply(k=k, i=i, j=j, kb=kb):
                    top = a.tile(k, j)
                    top[:kb], a.tile(i, j)[...] = kernels.tpmqrt_kernel(
                        a.tile(i, k), aux[(i, k)], top[:kb], a.tile(i, j),
                        0, conj_trans=True)

                rt.submit(TaskKind.TPMQRT,
                          reads=(a.ref(i, k), tik),
                          writes=(a.ref(k, j), a.ref(i, j)),
                          rank=a.owner(i, j),
                          flops=F.tile_tpmqrt(mbi, a.tile_cols(j), kb),
                          tile_dim=a.nb, fn=pair_apply,
                          bytes_out=(a.tile_nbytes(k, j)
                                     + a.tile_nbytes(i, j)),
                          label=f"tpmqrt({i},{j},{k})")
    return fac


def _geqrf_tree(rt: Runtime, a: DistMatrix, rows: List[range]) -> QRFactors:
    """Communication-avoiding TSQR panels (binary triangle combines)
    over the tile rows ``rows[k]`` of each panel k."""
    kt = len(rows)
    fac = QRFactors(a=a, kt=kt, aux_mat=rt.new_matrix_id(),
                    tt_mat=rt.new_matrix_id(), panel="tree", rows=rows)
    aux = fac.aux
    # Both pseudo-matrix ids resolve into the same aux dict; the tree
    # combine entries are keyed ("tt", i2, k) (see QRFactors docstring).
    rt.register_side_store(fac.aux_mat, aux, lambda ref: (ref[1], ref[2]))
    rt.register_side_store(fac.tt_mat, aux,
                           lambda ref: ("tt", ref[1], ref[2]))
    itemsize = a.dtype.itemsize
    for k in range(kt):
        rt.advance_phase()
        kb = a.tile_cols(k)

        # 1. Independent geqrt of every block row of the panel, plus the
        #    row-local trailing update (all rows run concurrently).
        for i in rows[k]:
            mbi = a.tile_rows(i)
            tik = fac.t_ref(i, k)
            t_bytes = _t_nbytes(min(mbi, kb), itemsize)
            rt.register_tiles([tik], t_bytes)

            def rowfac(i=i, k=k):
                tile, t = kernels.geqrt_kernel(a.tile(i, k))
                a.set_tile(i, k, tile)
                aux[(i, k)] = t

            rt.submit(TaskKind.GEQRT, reads=(a.ref(i, k),),
                      writes=(a.ref(i, k), tik), rank=a.owner(i, k),
                      flops=F.tile_geqrt(mbi, kb), tile_dim=a.nb,
                      fn=rowfac,
                      bytes_out=a.tile_nbytes(i, k) + t_bytes,
                      label=f"ts.geqrt({i},{k})")

            for j in range(k + 1, a.nt):

                def rowupd(i=i, j=j, k=k):
                    c = kernels.apply_q_kernel(
                        a.tile(i, k), aux[(i, k)], a.tile(i, j),
                        conj_trans=True)
                    a.tile(i, j)[...] = c

                rt.submit(TaskKind.UNMQR, reads=(a.ref(i, k), tik),
                          writes=(a.ref(i, j),), rank=a.owner(i, j),
                          flops=F.tile_unmqr(mbi, a.tile_cols(j), kb),
                          tile_dim=a.nb, fn=rowupd,
                          bytes_out=a.tile_nbytes(i, j),
                          label=f"ts.unmqr({i},{j})")

        # 2. Binary combine rounds (log2 depth).
        heights = [a.tile_rows(i) for i in rows[k]]
        for round_pairs in _tree_rounds(heights, kb):
            for p1, p2, rows_eff in round_pairs:
                i1, i2 = rows[k][p1], rows[k][p2]
                ttref = fac.tt_ref(i2, k)
                tt_bytes = (_t_nbytes(kb, itemsize)
                            + rows_eff * kb * itemsize)
                rt.register_tiles([ttref], tt_bytes)

                def combine(i1=i1, i2=i2, k=k, kb=kb, rows_eff=rows_eff):
                    top = a.tile(i1, k)
                    top[:kb, :kb], v_bot, t = kernels.tpqrt_kernel(
                        top[:kb, :kb], a.tile(i2, k)[:rows_eff], rows_eff)
                    aux[("tt", i2, k)] = (v_bot, t, rows_eff)

                rt.submit(TaskKind.TPQRT,
                          reads=(a.ref(i1, k), a.ref(i2, k)),
                          writes=(a.ref(i1, k), ttref),
                          rank=a.owner(i1, k),
                          flops=F.tile_ttqrt(kb), tile_dim=a.nb,
                          fn=combine,
                          bytes_out=a.tile_nbytes(i1, k) + tt_bytes,
                          label=f"ttqrt({i1},{i2},{k})")

                for j in range(k + 1, a.nt):

                    def pairupd(i1=i1, i2=i2, j=j, k=k, kb=kb):
                        v_bot, t, rows_eff = aux[("tt", i2, k)]
                        ct = a.tile(i1, j)
                        cb = a.tile(i2, j)
                        ct[:kb], cb[:rows_eff] = kernels.tpmqrt_kernel(
                            v_bot, t, ct[:kb], cb[:rows_eff], rows_eff,
                            conj_trans=True)

                    rt.submit(TaskKind.TPMQRT,
                              reads=(ttref,),
                              writes=(a.ref(i1, j), a.ref(i2, j)),
                              rank=a.owner(i1, j),
                              flops=F.tile_ttmqrt(kb, a.tile_cols(j)),
                              tile_dim=a.nb, fn=pairupd,
                              bytes_out=(a.tile_nbytes(i1, j)
                                         + a.tile_nbytes(i2, j)),
                              label=f"ttmqrt({i1},{i2},{j})")
    return fac


def _set_identity_rows(rt: Runtime, q: DistMatrix, row0: int,
                       label: str) -> None:
    """Tile rows ``row0..`` of q <- [I_n; 0] (tile-aligned:
    ``heights[row0 + k] == widths[k]``)."""
    for i in range(row0, q.mt):
        for j in range(q.nt):

            def body(i=i, j=j):
                t = q.tile(i, j)
                t[...] = 0
                if i - row0 == j:
                    d = min(t.shape)
                    t[np.arange(d), np.arange(d)] = 1

            rt.submit(TaskKind.SET, reads=(), writes=(q.ref(i, j),),
                      rank=q.owner(i, j),
                      flops=float(q.tile_rows(i) * q.tile_cols(j)),
                      tile_dim=q.nb, fn=body,
                      bytes_out=q.tile_nbytes(i, j),
                      label=f"{label}({i},{j})")


def unmqr_identity(rt: Runtime, fac: QRFactors) -> DistMatrix:
    """Materialize the economy Q (m x n) of a factorization.

    Applies the panel reflectors to [I; 0], rightmost factor first
    (reverse of the factorization order).
    """
    rt.begin_op()
    a = fac.a
    q = DistMatrix(rt, a.m, a.n, a.nb, a.dtype, layout=a.layout,
                   name="Q", row_heights=a.row_heights,
                   col_widths=a.col_widths)
    _set_identity_rows(rt, q, 0, "qeye")
    if fac.panel == "tree":
        _apply_q_tree(rt, fac, q)
        return q
    for k in reversed(range(fac.kt)):
        rt.advance_phase()
        kb = a.tile_cols(k)
        mb = a.tile_rows(k)
        tkk = fac.t_ref(k, k)
        for i in reversed(fac.rows[k][1:]):
            tik = fac.t_ref(i, k)
            mbi = a.tile_rows(i)
            for j in range(q.nt):

                def pair_apply(k=k, i=i, j=j, kb=kb):
                    top = q.tile(k, j)
                    top[:kb], q.tile(i, j)[...] = kernels.tpmqrt_kernel(
                        a.tile(i, k), fac.aux[(i, k)], top[:kb],
                        q.tile(i, j), 0, conj_trans=False)

                rt.submit(TaskKind.TPMQRT,
                          reads=(a.ref(i, k), tik),
                          writes=(q.ref(k, j), q.ref(i, j)),
                          rank=q.owner(i, j),
                          flops=F.tile_tpmqrt(mbi, q.tile_cols(j), kb),
                          tile_dim=q.nb, fn=pair_apply,
                          bytes_out=(q.tile_nbytes(k, j)
                                     + q.tile_nbytes(i, j)),
                          label=f"q.tpmqrt({i},{j},{k})")
        for j in range(q.nt):

            def head_apply(k=k, j=j):
                c = kernels.apply_q_kernel(a.tile(k, k), fac.aux[(k, k)],
                                           q.tile(k, j), conj_trans=False)
                q.tile(k, j)[...] = c

            rt.submit(TaskKind.UNMQR, reads=(a.ref(k, k), tkk),
                      writes=(q.ref(k, j),), rank=q.owner(k, j),
                      flops=F.tile_unmqr(mb, q.tile_cols(j), kb),
                      tile_dim=q.nb, fn=head_apply,
                      bytes_out=q.tile_nbytes(k, j),
                      label=f"q.unmqr({k},{j})")
    return q


def _apply_q_tree(rt: Runtime, fac: QRFactors, q: DistMatrix) -> None:
    """Apply a tree-panel Q to the [I; 0] workspace (reverse order)."""
    a = fac.a
    for k in reversed(range(fac.kt)):
        rt.advance_phase()
        kb = a.tile_cols(k)
        rows = fac.rows[k]
        rounds = _tree_rounds([a.tile_rows(i) for i in rows], kb)
        for round_pairs in reversed(rounds):
            for p1, p2, _cap in round_pairs:
                i1, i2 = rows[p1], rows[p2]
                ttref = fac.tt_ref(i2, k)
                for j in range(q.nt):

                    def pairupd(i1=i1, i2=i2, j=j, k=k, kb=kb):
                        v_bot, t, rows_eff = fac.aux[("tt", i2, k)]
                        ct = q.tile(i1, j)
                        cb = q.tile(i2, j)
                        ct[:kb], cb[:rows_eff] = kernels.tpmqrt_kernel(
                            v_bot, t, ct[:kb], cb[:rows_eff], rows_eff,
                            conj_trans=False)

                    rt.submit(TaskKind.TPMQRT, reads=(ttref,),
                              writes=(q.ref(i1, j), q.ref(i2, j)),
                              rank=q.owner(i1, j),
                              flops=F.tile_ttmqrt(kb, q.tile_cols(j)),
                              tile_dim=q.nb, fn=pairupd,
                              bytes_out=(q.tile_nbytes(i1, j)
                                         + q.tile_nbytes(i2, j)),
                              label=f"q.ttmqrt({i1},{i2},{j})")
        for i in rows:
            tik = fac.t_ref(i, k)
            mbi = a.tile_rows(i)
            for j in range(q.nt):

                def rowapply(i=i, j=j, k=k):
                    c = kernels.apply_q_kernel(
                        a.tile(i, k), fac.aux[(i, k)], q.tile(i, j),
                        conj_trans=False)
                    q.tile(i, j)[...] = c

                rt.submit(TaskKind.UNMQR, reads=(a.ref(i, k), tik),
                          writes=(q.ref(i, j),), rank=q.owner(i, j),
                          flops=F.tile_unmqr(mbi, q.tile_cols(j), kb),
                          tile_dim=q.nb, fn=rowapply,
                          bytes_out=q.tile_nbytes(i, j),
                          label=f"q.ts.unmqr({i},{j})")


def qr_explicit(rt: Runtime, a: DistMatrix, *,
                panel: str = "tree") -> Tuple[QRFactors, DistMatrix]:
    """Factor A (in place) and return (factors, explicit economy Q)."""
    fac = geqrf(rt, a, panel=panel)
    q = unmqr_identity(rt, fac)
    return fac, q
