"""Float arithmetic of the closure engine, which ``engines._closure_verdict``
picks for float letters: ``_MappedSpan`` spans both sides' algebras by
Gram-Schmidt, real when the letters are, else complex.  It is built only
when one eigenbasis alignment of the letters (``_aligned_intertwiner``)
finds no unitary intertwiner, which answers Equivalent with no span.
"""

from __future__ import annotations

import math

import numpy as np

from .numerics import DEP_TOL, _far, _grown, within

_ZERO_PAIR_EPS = 1e-14


def _norm(v) -> float:
    return math.sqrt(float(np.vdot(v, v).real))


def _norms(v):
    """Euclidean norms along the last axis of a real or complex array whose
    last axis is contiguous."""
    f = v.view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", f, f))


def _accepted(s, letters, tol: float):
    """S, of largest singular value 1, if it is unitary by
    ``verify_witness``'s rule, |S S* - I| <= tol (1 + sqrt N), and maps
    every letter, |S L_k - L'_k S| <= tol (1 + |L_k|); else None.  Every
    word is a product of letters, so an accepted S maps every word by
    X -> S X S^-1: every dependency transfers and every trace agrees."""
    size = len(s)
    if not within(np.linalg.norm(s @ np.conj(s).T - np.eye(size)), math.sqrt(size), tol):
        return None
    left, right = letters
    a = len(left)
    defect = _norms((s @ left - right @ s).reshape(a, -1))
    return s if within(defect, _norms(left.reshape(a, -1)), tol).all() else None


def _aligned_intertwiner(letters, tol: float):
    """An intertwiner of two stacked float letter lists that ``_accepted``
    accepts, found from one eigenbasis per side without any span; None if
    this finds none, which proves nothing.

    If some letter's Frobenius norm differs from its partner's by more than
    the acceptance bounds allow, no S passes, and none is sought.  Else H =
    C + C* with C = sum_k c_k L_k is complex Hermitian, on real letters
    too, for the fixed c_k = sqrt(k + 2) + i (-1)^k.  The closure's letter
    lists are closed under adjoint, in pairs (L, L*) and, on the real
    letters, one antisymmetric E; the positive real parts keep a pair from
    cancelling in H.  Each side's ``eigh`` gives H = V diag V*, and M_k =
    V* L_k V.  A unitary S with S L_k S* = L'_k maps H to H', so if H has
    distinct eigenvalues, S = V' D V* for a diagonal unitary D with N_k =
    D M_k D*.  Entry (i, j) then fixes d_j = d_i phase(M_k[ij]
    conj(N_k[ij])): the phases are propagated from phase 1 at each root
    along a maximum-weight spanning forest of max_k |M_k[ij]| (Prim's),
    through the letter k of that maximum, and a zero M_k[ij] conj(N_k[ij])
    refuses.  An edge of weight at most tol (1 + top) is noise and carries
    no phase: an eigenvector reached only through such edges, such as a
    null vector of low-rank letters, roots a new tree with phase 1.  S is
    complex even on real letters; ``_accepted`` holds it to the same rule.

    Where H repeats an eigenvalue, ``eigh``'s basis of that eigenspace is
    arbitrary, so S would pass only if the letters were scalar there: two
    neighbouring eigenvalues within tol whose eigenvectors some letter
    couples beyond tol refuse before any phase is fixed.  Real letters
    whose algebra is of complex type (it commutes with a J of square -I)
    would repeat every eigenvalue of a real symmetric H this way; the
    imaginary parts of c_k keep them apart.
    """
    a, size = letters.shape[1], letters.shape[-1]
    f = letters.reshape(2, a, -1).view(np.float64)
    sq = np.einsum("ski,ski->ks", f, f).tolist()  # squared norms, letter-wise
    top = math.sqrt(max(map(max, sq)))
    # an accepted S has |S| = 1 and smallest singular value at least 1 -
    # tol (1 + sqrt N), so no S passes once ||L| - |L'|| exceeds tol (2 +
    # sqrt N) (1 + top), one bound for all letters; |L|^2 - |L'|^2 is at
    # most 2 top times ||L| - |L'||
    gap = max(abs(x - y) for x, y in sq)
    if not within(gap, top, 2 * top * tol * (2.0 + math.sqrt(size))):
        return None
    c = np.sqrt(np.arange(2.0, a + 2)) + 1j * (-1.0) ** np.arange(a)
    mix = (c @ letters.reshape(2, a, -1)).reshape(2, size, size)
    h, v = np.linalg.eigh(mix + np.conj(mix.transpose(0, 2, 1)))
    vh = np.conj(v.transpose(0, 2, 1))
    m = vh[:, None] @ letters @ v[:, None]  # M_k and N_k
    mag = np.abs(m[0])
    weight, which = mag.max(axis=0).tolist(), mag.argmax(axis=0).tolist()
    h = h[0].tolist()
    spread = max(-h[0], h[-1])
    for i in range(size - 1):
        if within(h[i + 1] - h[i], spread, tol) and not within(weight[i][i + 1], top, tol):
            return None  # a repeated eigenvalue on which the letters are not scalar
    d, best, parent = [1.0] * size, [0.0] * size, [0] * size
    todo = list(range(size))
    while todo:  # Prim's, on lists: a numpy call per step costs more
        j = max(todo, key=best.__getitem__)
        todo.remove(j)
        if not within(best[j], top, tol):  # else j roots a new tree, phase 1
            i = parent[j]
            k = which[i][j]
            z = m.item(0, k, i, j) * m.item(1, k, i, j).conjugate()
            if z == 0:
                return None
            d[j] = d[i] * z / abs(z)
        row = weight[j]
        for i in todo:
            if row[i] > best[i]:
                best[i], parent[i] = row[i], j
    # V' D V* has singular values 1 up to rounding, as _accepted requires
    return _accepted((v[1] * np.array(d)) @ vh[0], letters, tol)


class _MappedSpan:
    """Float arithmetic of the closure: both sides' spans, stacked on axis 0
    (0 left, 1 right).  The letters, the empty word's product I and every
    stored vector share one dtype.  Each child pair is divided by its joint
    norm, carried in nu (a pair of norm 0 is dropped), and traces are
    compared within ``tol``, all basis words in one call.

    Each side keeps orthonormal vectors, and beside each one its mirror: the
    other side's combination under the same elimination recipe.  A dependent
    vector has coordinates y in its side's orthonormal vectors; the other
    side's vector is compared with the combination of mirrors with the very
    same coefficients, so the transfer check never solves a triangular
    system and stays at Gram-Schmidt accuracy.  An orthonormal vector is
    stored joined to its mirror, and a block row joined to its transfer
    defect, so one product updates both.

    Words arrive in blocks of up to ``_BLOCK``, whose products are one
    stacked matmul.  ``project`` runs classical Gram-Schmidt for the whole
    block against the basis as it stood when the block started, one GEMM
    per pass, with a second pass on the rows whose first pass cancelled
    (CGS2).  ``reduce`` then takes the rows in word order and projects from
    each only the vectors added earlier in the same block, once more
    against the whole basis if that cancels it, so every word meets exactly
    the basis it would meet if words arrived one at a time.

    Certificate coefficients solve the triangular factor Q* P of the side's
    orthonormal vectors Q and basis products P against Q* v, built only
    then.
    """

    def __init__(self, letters, tol: float):
        n = letters.shape[-1]
        self.dim, self.tol, self.d = n * n, tol, 0
        self.letters = letters
        self.eye = np.broadcast_to(np.eye(n, dtype=letters.dtype), (2, 1, n, n))
        self.prods = letters[:, :0]  # each basis word's product
        self.qm = np.empty((2, 0, 2 * self.dim), dtype=letters.dtype)
        # each basis word's (parent, letter), and the factor its product dropped
        self.sources, self.nus = [], []

    def project(self, origin):
        """Start a block: the products of the entries ``origin``, each
        ``(parent, letter)``, or [None] for the empty word, each pair divided
        by its joint norm.  Returns the entries kept."""
        if origin == [None]:
            block, nus = self.eye, [1]
        else:
            parents, ks = (list(x) for x in zip(*origin))
            block = np.matmul(self.prods[:, parents], self.letters[:, ks])
            nus = [self.nus[k] for k in parents]
        b = block.shape[1]
        f = block.reshape(2, b, -1).view(np.float64)
        nraw = np.sqrt(np.einsum("sbi,sbi->b", f, f))
        keep = np.flatnonzero(nraw > _ZERO_PAIR_EPS)  # else the word vanishes
        if len(keep) < b:  # on both sides at once
            origin = [origin[k] for k in keep]
            nus = [nus[k] for k in keep]
            block, nraw = block[:, keep], nraw[keep]
        self._scales = [nu * s for nu, s in zip(nus, nraw.tolist())]
        block = block / nraw[:, None, None]
        d, b, n = self.d, block.shape[1], self.dim
        self.qm = _grown(self.qm, d + b, n)
        self.prods = _grown(self.prods, d + b, n)
        v = block.reshape(2, b, n)
        qm = self.qm[:, :d]
        q, qt = qm[:, :, :n], qm[:, :, :n].transpose(0, 2, 1)
        rd = np.empty((2, b, 2 * n), dtype=self.qm.dtype)  # residual, defect
        r = rd[:, :, :n]
        vn = _norms(v)
        y = np.matmul(np.conj(v), qt)
        np.conj(y, out=y)  # coordinates in the orthonormal vectors
        np.subtract(v, y @ q, out=r)
        rn = _norms(r)
        again = rn < 0.5 * vn  # cancellation: reorthogonalize once
        if again.any():
            y2 = np.conj(np.conj(r) @ qt) * again[:, :, None]
            y += y2
            # a second pass only shrinks a residual, so a row dependent after
            # the first keeps its residual; its coordinates still get it
            rows = np.flatnonzero((again & ~within(rn, vn, DEP_TOL)).any(axis=0))
            if len(rows):
                r[:, rows] -= y2[:, rows] @ q
                rn[:, rows] = _norms(r[:, rows])
        np.subtract(v[::-1], y @ qm[:, :, n:], out=rd[:, :, n:])
        self._origin, self._children = origin, block
        self._block = (d, vn.T.tolist(), rd, rn.T.tolist())
        return origin

    def reduce(self, j: int):
        """Both sides' dependency flags for row j, within DEP_TOL."""
        d0, vn, rd, rn = self._block
        d, n = self.d, self.dim
        rn = rn[j]
        if d > d0:  # project out the vectors added earlier in this block
            rj, qm = rd[:, j], self.qm[:, d0:d]
            yb = np.conj(qm[:, :, :n] @ np.conj(rj[:, :n])[:, :, None])
            rj -= (yb.transpose(0, 2, 1) @ qm)[:, 0]
            rn_block, rn = rn, [_norm(rj[0, :n]), _norm(rj[1, :n])]
            for s in (0, 1):
                if rn[s] < 0.5 * rn_block[s]:  # cancelled: once more
                    qm = self.qm[s, :d]  # against the whole basis
                    rj[s] -= np.conj(qm[:, :n] @ np.conj(rj[s, :n])) @ qm
                    rn[s] = _norm(rj[s, :n])
        self._rn = rn
        return within(rn[0], vn[j][0], DEP_TOL), within(rn[1], vn[j][1], DEP_TOL)

    def mismatch(self, j: int, side: int):
        """None if row j's transfer defect on the other side, times the
        words' nu as a recheck measures it, is within tol of the word there;
        else the certificate's coefficients and residual, both times nu."""
        nu = self._scales[j]
        resid = nu * _norm(self._block[2][side, j, self.dim :])
        if within(resid, nu * self._block[1][j][1 - side], self.tol):
            return None
        q = np.conj(self.qm[side, : self.d, : self.dim])
        p = self.prods[side, : self.d].reshape(self.d, self.dim)
        coeffs = np.linalg.solve(q @ p.T, q @ self._children[side, j].ravel())
        return tuple(nu * c / b for c, b in zip(coeffs, self.nus)), resid

    def add(self, j: int):
        """Add row j on both sides."""
        d = self.d
        np.divide(self._block[2][:, j], np.array(self._rn)[:, None], out=self.qm[:, d])
        self.prods[:, d] = self._children[:, j]
        self.sources.append(self._origin[j])
        self.nus.append(self._scales[j])
        self.d = d + 1

    def trace_mismatch(self):
        """The first basis index whose traces, times its nu, differ beyond
        tol, with both traces; None if every basis word's agree."""
        tl, tr = np.trace(self.prods[:, : self.d], axis1=-2, axis2=-1) * np.array(self.nus)
        bad = np.flatnonzero(_far(tl, tr, self.tol))
        if not len(bad):
            return None
        i = int(bad[0])
        return i, (tl[i], tr[i])
