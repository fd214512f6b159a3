"""Decision procedures for unitary similarity, congruence, and the general
four-family problem.

Two interchangeable engines decide unitary similarity of a pair:

* ``specht_brute`` compares traces of every word in the two letters (a matrix
  and its adjoint) up to a length bound, streaming words shortest-first so a
  failure certificate is always the least failing word.
* ``algebra_closure`` spans the algebra generated by the letters on both
  sides in lockstep; linear dependencies found on one side must hold on the
  other, and at the end all basis-word traces must agree.  It terminates
  after at most size-squared basis extensions, so it stays polynomial where
  brute enumeration explodes.  One lockstep loop (``_closure_decide``)
  drives two span arithmetics, float Gram-Schmidt (``_MappedSpan``) and
  exact row reduction over Gaussian rationals (``_ExactSpan``), and makes
  one dependency decision per word: a word dependent on either side is
  dependent on both, so the two spans always have the same dimension.  The
  float span takes the breadth-first frontier in blocks of up to ``_BLOCK``
  words: one stacked product per block, one GEMM per Gram-Schmidt pass
  against the basis the block started from, then each word in order
  against the words its block added before it.  Verdicts, certificate
  words and dimensions are those of taking words one at a time.

Everything else reduces to these: simultaneous similarity via block gadgets
or the multi-letter closure, congruence via the derived triple or the K
gadget, and the general problem via parity-placed gadgets plus congruence.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .numerics import (
    DEP_TOL,
    EXACT,
    FLOAT,
    GaussianRational,
    Matrix,
    common_scale,
    identity,
)
from .words import (
    DEDUP_CYCLIC_STAR,
    Word,
    empty_word,
    eval_word,
    iter_word_traces,
    pappacena_bound,
    word_count,
)
from .gadgets import (
    ProblemInstance,
    build_congruence_K,
    build_general_gadget,
    build_similarity_gadget,
    congruence_triple,
)

DEFAULT_TOL = 1e-8
DEFAULT_BUDGET = 10_000_000

ENGINE_AUTO = "auto"
ENGINE_BRUTE = "brute"
ENGINE_CLOSURE = "closure"
_ENGINES = (ENGINE_AUTO, ENGINE_BRUTE, ENGINE_CLOSURE)

_ZERO_PAIR_EPS = 1e-14
_BLOCK = 16  # most child words the float closure extends and projects at once


class BudgetExceededError(RuntimeError):
    """Raised when a brute enumeration would exceed the word budget."""


# --------------------------------------------------------------------------
# verdicts and certificates
# --------------------------------------------------------------------------

def _scalar_json(x):
    if isinstance(x, GaussianRational):
        return {"re": str(x.re), "im": str(x.im)}
    z = complex(x)
    return [z.real, z.imag]


def _close(a, b, tol):
    if isinstance(a, GaussianRational) or isinstance(b, GaussianRational):
        return a == b
    return abs(a - b) <= tol * (1.0 + abs(a))


@dataclass(frozen=True)
class TraceCertificate:
    """A word whose traces differ between the two sides."""

    word: Word
    trace_left: object
    trace_right: object

    def recheck(self, letters_left, letters_right, tol: float) -> bool:
        """Re-evaluate the word from scratch and confirm the mismatch."""
        tl = eval_word(self.word, letters_left).trace()
        tr = eval_word(self.word, letters_right).trace()
        return (
            _close(tl, self.trace_left, 1e-6)
            and _close(tr, self.trace_right, 1e-6)
            and not _close(tl, tr, tol)
        )

    def to_json(self):
        return {
            "kind": "trace",
            "word": str(self.word),
            "trace_left": _scalar_json(self.trace_left),
            "trace_right": _scalar_json(self.trace_right),
        }


@dataclass(frozen=True)
class DependencyCertificate:
    """A linear relation valid on one side that fails on the other.

    ``word`` extends the spanned basis; the stored coefficients express its
    value on the dependent side in terms of the basis words, and ``residual``
    is the Frobenius defect of the same combination on the other side.
    """

    word: Word
    basis_words: tuple
    coefficients: tuple
    residual: float
    side: str  # "left" or "right": the side on which the dependency holds

    def recheck(self, letters_left, letters_right, tol: float) -> bool:
        if self.side == "left":
            dep, other = letters_left, letters_right
        else:
            dep, other = letters_right, letters_left
        target_dep = eval_word(self.word, dep)
        target_other = eval_word(self.word, other)
        combo_dep = None
        combo_other = None
        for w, c in zip(self.basis_words, self.coefficients):
            td = eval_word(w, dep).scale(c)
            to = eval_word(w, other).scale(c)
            combo_dep = td if combo_dep is None else combo_dep + td
            combo_other = to if combo_other is None else combo_other + to
        dep_resid = (target_dep - combo_dep).norm_fro()
        other_resid = (target_other - combo_other).norm_fro()
        dep_ok = dep_resid <= max(10 * tol, 1e-6) * (1.0 + target_dep.norm_fro())
        return dep_ok and other_resid > tol * (1.0 + target_other.norm_fro())

    def to_json(self):
        return {
            "kind": "dependency",
            "word": str(self.word),
            "basis_words": [str(w) for w in self.basis_words],
            "coefficients": [_scalar_json(c) for c in self.coefficients],
            "residual": self.residual,
            "side": self.side,
        }


@dataclass
class Verdict:
    """Outcome of a decision, with an audit trail.

    NotEquivalent always carries a certificate; Equivalent never does.
    ``scale`` is the common pre-scaling factor applied to the inputs before
    any comparison, and ``route`` records the reduction chain taken.
    """

    equivalent: bool
    engine: str
    certificate: object = None
    tolerance: float | None = DEFAULT_TOL
    scale: float = 1.0
    elapsed_s: float = 0.0
    route: str = ""
    dimension: int | None = None

    def __post_init__(self):
        if self.equivalent and self.certificate is not None:
            raise ValueError("Equivalent verdicts carry no certificate")
        if not self.equivalent and self.certificate is None:
            raise ValueError("NotEquivalent verdicts need a certificate")

    @property
    def result(self) -> str:
        return "Equivalent" if self.equivalent else "NotEquivalent"

    def to_json(self):
        doc = {
            "result": self.result,
            "engine": self.engine,
            "route": self.route,
            "certificate": None
            if self.certificate is None
            else self.certificate.to_json(),
            "scale": self.scale,
            "elapsed_s": self.elapsed_s,
        }
        if self.tolerance is not None:
            doc["tolerance"] = self.tolerance
        if self.dimension is not None:
            doc["dimension"] = self.dimension
        return doc


def _finish(verdict: Verdict, t0: float, scale, route: str) -> Verdict:
    verdict.elapsed_s = time.perf_counter() - t0
    verdict.scale = float(verdict.scale) * float(scale)
    verdict.route = route if not verdict.route else f"{route}>{verdict.route}"
    return verdict


# --------------------------------------------------------------------------
# brute engine
# --------------------------------------------------------------------------

def _check_pair(X: Matrix, Y: Matrix):
    X._check_mode(Y)
    if not (X.is_square and Y.is_square) or X.shape != Y.shape:
        raise ValueError("engines compare two square matrices of equal size")


def floor_length_bound(m: int) -> int:
    """Integer word-length cutoff for m-by-m matrices."""
    return math.floor(pappacena_bound(m))


def specht_brute(
    X: Matrix,
    Y: Matrix,
    max_length: int,
    max_exponent: int | None = None,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    prescale: bool = True,
) -> Verdict:
    """Compare traces of every word in (X, X*) against (Y, Y*).

    Complete for unitary similarity when ``max_length`` reaches
    ``floor_length_bound(size)``; with a smaller cutoff it is a screener that
    can still certify NotEquivalent.  Refuses to start when the word count
    would exceed ``budget``.
    """
    t0 = time.perf_counter()
    _check_pair(X, Y)
    scale = 1.0
    if prescale:
        scale, (X, Y) = common_scale([X, Y])
    exact = X.mode == EXACT
    count = word_count(2, max_length, max_exponent)
    if count > budget:
        raise BudgetExceededError(
            f"brute enumeration needs {count} words, budget is {budget}"
        )
    letters = [[X, X.adjoint()], [Y, Y.adjoint()]]

    failure = None
    for word, (tl, tr) in iter_word_traces(
        letters, max_length, max_exponent, dedup=DEDUP_CYCLIC_STAR
    ):
        if not _close(tl, tr, tol):
            failure = TraceCertificate(word, tl, tr)
            break
    verdict = Verdict(
        failure is None,
        ENGINE_BRUTE,
        certificate=failure,
        tolerance=None if exact else tol,
    )
    return _finish(verdict, t0, scale, "brute")


# --------------------------------------------------------------------------
# closure engine
# --------------------------------------------------------------------------

def _norm(v) -> float:
    return math.sqrt(float(np.vdot(v, v).real))


def _norms(v):
    """Euclidean norms along the last axis of a complex array whose last
    axis is contiguous."""
    f = v.view(np.float64)
    return np.sqrt(np.einsum("...i,...i->...", f, f))


def _grown(a, rows: int, limit: int):
    """``a``, or a copy with room for ``rows`` entries along axis 1: first
    for four blocks, then for ``limit`` entries at once.  Storage is copied
    at most once, and a small span never allocates the large array."""
    have = a.shape[1]
    if rows <= have or have >= limit:
        return a
    cap = min(limit, max(rows, 4 * _BLOCK)) if have == 0 else limit
    new = np.empty((a.shape[0], cap) + a.shape[2:], dtype=a.dtype)
    new[:, :have] = a
    return new


class _MappedSpan:
    """Float spans of both sides, stacked on axis 0 (0 left, 1 right).

    Each side keeps orthonormal vectors, and beside each one its mirror: the
    other side's combination under the same elimination recipe.  A dependent
    vector has coordinates y in its side's orthonormal vectors; the other
    side's vector is compared with the combination of mirrors with the very
    same coefficients, so the transfer check never solves a triangular
    system and stays at Gram-Schmidt accuracy.  An orthonormal vector is
    stored joined to its mirror, and a block row joined to its transfer
    defect, so one product updates both.

    Words arrive in blocks.  ``project`` runs classical Gram-Schmidt for the
    whole block against the basis as it stood when the block started, one
    GEMM per pass, with a second pass on the rows whose first pass
    cancelled (CGS2).  ``reduce`` then takes the rows in word order and
    projects from each only the vectors added earlier in the same block,
    once more against the whole basis if that cancels it, so every word
    meets exactly the basis it would meet if words arrived one at a time.
    The Gram-Schmidt factor is kept only to express certificate
    coefficients over the original basis, and is solved only when a
    certificate is issued.
    """

    def __init__(self, dim: int, tol: float):
        self.dim = dim
        self.tol = tol
        self.qm = np.empty((2, 0, 2 * dim), dtype=np.complex128)
        # the Gram-Schmidt factor's columns, packed: column i is the i + 1
        # entries from i * (i + 1) // 2 on
        self.factor = np.empty((2, dim * (dim + 1) // 2), dtype=np.complex128)
        self.d = 0

    def project(self, v):
        """Start a block of child vectors ``v``, shaped (2, words, ...)."""
        d, b, n = self.d, v.shape[1], self.dim
        self.qm = _grown(self.qm, d + b, n)
        v = v.reshape(2, b, n)
        qm = self.qm[:, :d]
        q, qt = qm[:, :, :n], qm[:, :, :n].transpose(0, 2, 1)
        coords = np.zeros((2, b, d + b), dtype=np.complex128)
        y = coords[:, :, :d]
        rd = np.empty((2, b, 2 * n), dtype=np.complex128)  # residual, defect
        r = rd[:, :, :n]
        vn = _norms(v)
        np.conj(np.matmul(np.conj(v), qt, out=y), out=y)
        np.subtract(v, y @ q, out=r)
        rn = _norms(r)
        dep_tol = DEP_TOL * (1.0 + vn)
        again = rn < 0.5 * vn  # cancellation: reorthogonalize once
        if again.any():
            y2 = np.conj(np.conj(r) @ qt) * again[:, :, None]
            y += y2
            # a second pass only shrinks a residual, so a row dependent after
            # the first keeps its residual; its coordinates still get it
            rows = np.flatnonzero((again & (rn > dep_tol)).any(axis=0))
            if len(rows):
                r[:, rows] -= y2[:, rows] @ q
                rn[:, rows] = _norms(r[:, rows])
        np.subtract(v[::-1], y @ qm[:, :, n:], out=rd[:, :, n:])
        self._block = (d, vn, dep_tol.T.tolist(), coords, rd, rn.T.tolist())

    def reduce(self, j: int):
        """Both sides' dependency flags for row j, within DEP_TOL."""
        d0, _, dep_tol, y, rd, rn = self._block
        d, n = self.d, self.dim
        rn = rn[j]
        if d > d0:  # project out the vectors added earlier in this block
            rj, qm = rd[:, j], self.qm[:, d0:d]
            yb = np.conj(qm[:, :, :n] @ np.conj(rj[:, :n])[:, :, None])
            rj -= (yb.transpose(0, 2, 1) @ qm)[:, 0]
            y[:, j, d0:d] = yb[:, :, 0]
            rn_block, rn = rn, [_norm(rj[0, :n]), _norm(rj[1, :n])]
            for s in (0, 1):
                if rn[s] < 0.5 * rn_block[s]:  # cancelled: once more
                    qm = self.qm[s, :d]  # against the whole basis
                    y2 = np.conj(qm[:, :n] @ np.conj(rj[s, :n]))
                    y[s, j, :d] += y2
                    rj[s] -= y2 @ qm
                    rn[s] = _norm(rj[s, :n])
        self._rn = rn
        tx, ty = dep_tol[j]
        return rn[0] <= tx, rn[1] <= ty

    def mismatch(self, j: int, side: int):
        """Norm of row j's transfer defect on the other side, None within
        tol."""
        resid = _norm(self._block[4][side, j, self.dim :])
        if resid <= self.tol * (1.0 + self._block[1][1 - side, j]):
            return None
        return resid

    def coeffs(self, j: int, side: int):
        d = self.d
        factor = np.zeros((d, d), dtype=np.complex128)
        factor[np.tril_indices(d)] = self.factor[side, : d * (d + 1) // 2]
        return np.linalg.solve(factor.T, self._block[3][side, j, :d])

    def add(self, j: int):
        """Add row j on both sides."""
        y, rd = self._block[3], self._block[4]
        d = self.d
        if d >= self.dim:
            raise RuntimeError("span exceeded ambient dimension")
        rn = np.array(self._rn)
        np.divide(rd[:, j], rn[:, None], out=self.qm[:, d])
        y[:, j, d] = rn
        start = d * (d + 1) // 2
        self.factor[:, start : start + d + 1] = y[:, j, : d + 1]
        self.d = d + 1


class _ExactSpan:
    """Exact spans of both sides: row-reduced vectors over Gaussian rationals
    with coefficient recovery, beside the raw vectors of the other side.
    Blocks hold one word, so no product is built for a word after a
    failure."""

    def __init__(self):
        self.rows = ([], [])  # (pivot index, pivot-normalized vector, expansion)
        self.mirror = ([], [])  # raw other-side vector of each basis word

    def project(self, v):
        """Start a block of child vectors ``v``, shaped (2, words, ...)."""
        self._block = v.reshape(2, v.shape[1], -1)

    def reduce(self, j: int):
        """Both sides' dependency flags for row j: an exactly zero
        residual."""
        self._state = []
        for rows, v in zip(self.rows, self._block):
            r = list(v[j])
            alphas = []
            for pivot, vec, _ in rows:
                f = r[pivot]
                alphas.append(f)
                if f:
                    r = [ri - f * vi for ri, vi in zip(r, vec)]
            self._state.append((alphas, r))
        return [all(not e for e in r) for _, r in self._state]

    def mismatch(self, j: int, side: int):
        """Norm of row j's transfer defect on the other side, None if it is
        0."""
        defect = list(self._block[1 - side][j])
        for c, raw in zip(self.coeffs(j, side), self.mirror[side]):
            if c:
                defect = [o - c * e for o, e in zip(defect, raw)]
        if not any(defect):
            return None
        return math.sqrt(float(sum(e.abs_sq() for e in defect)))

    def coeffs(self, j: int, side: int):
        alphas = self._state[side][0]
        d = len(alphas)
        out = [GaussianRational(0)] * d
        for i, (_, _, expansion) in enumerate(self.rows[side]):
            f = alphas[i]
            if f:
                for k, t in enumerate(expansion):
                    out[k] = out[k] + f * t
        return out

    def add(self, j: int):
        for side, (alphas, reduced) in enumerate(self._state):
            rows = self.rows[side]
            pivot = next(k for k, e in enumerate(reduced) if e)
            p = reduced[pivot]
            vec = [e / p for e in reduced]
            d = len(rows)
            expansion = [GaussianRational(0)] * (d + 1)
            expansion[d] = GaussianRational(1)
            for i, (_, _, older) in enumerate(rows):
                f = alphas[i]
                if f:
                    for k, t in enumerate(older):
                        expansion[k] = expansion[k] - f * t
            expansion = [t / p for t in expansion]
            rows.append((pivot, vec, expansion))
            self.mirror[side].append(list(self._block[1 - side][j]))


def _unit_rows(origin, prods, nus):
    """Float step: divide each child pair by its joint norm, carried in nu."""
    b = prods.shape[1]
    f = prods.reshape(2, b, -1).view(np.float64)
    nraw = np.sqrt(np.einsum("sbi,sbi->b", f, f))
    keep = np.flatnonzero(nraw > _ZERO_PAIR_EPS)  # else the word vanishes
    if len(keep) < b:  # on both sides at once
        origin = [origin[k] for k in keep]
        nus = [nus[k] for k in keep]
        prods, nraw = prods[:, keep], nraw[keep]
    nus = [nu * s for nu, s in zip(nus, nraw.tolist())]
    return origin, prods / nraw[:, None, None], nus


def _products(prods, letters, origin):
    """Both sides' products of the entries ``(parent, letter)``: one stacked
    matmul in float mode, one product at a time in exact mode, where a
    stacked object-array matmul costs more than it saves."""
    if prods.dtype != object:
        parents = [parent for parent, _ in origin]
        return np.matmul(prods[:, parents], letters[:, [k for _, k in origin]])
    block = np.empty((2, len(origin)) + prods.shape[2:], dtype=object)
    for j, (parent, k) in enumerate(origin):
        for s in (0, 1):
            np.matmul(prods[s, parent], letters[s, k], out=block[s, j])
    return block


def _raw_rows(origin, prods, nus):
    """Exact step: keep the raw products."""
    keep = [
        k for k in range(prods.shape[1])
        if any(prods[0, k].flat) or any(prods[1, k].flat)
    ]
    if len(keep) < prods.shape[1]:
        origin = [origin[k] for k in keep]
        nus = [nus[k] for k in keep]
        prods = prods[:, keep]
    return origin, prods, nus


def _closure_decide(letters_x, letters_y, tol):
    """Span the algebras generated by two letter lists in lockstep.

    One breadth-first loop serves both arithmetic modes: float spans
    (``_MappedSpan``, pairs scaled to unit joint norm, ``nu`` carrying the
    dropped factor) and exact spans (``_ExactSpan``, raw products).  Child
    entry g is basis word g // a times letter g % a.  Entries are taken in
    blocks of consecutive entries whose parents are already in the basis:
    in float mode from ``a`` entries up, doubling to ``_BLOCK``, in exact
    mode one at a time.  Within a block the words are decided one at a time
    in entry order.  Each word gets one dependency decision shared by both
    sides: if it depends on the basis on either side, the same combination
    must hold on the other side (else a DependencyCertificate, and the rest
    of its block is dropped), and the word is not added.  When no word
    extends the basis, every basis word's traces must agree (else a
    TraceCertificate).  Both letter lists hold matrices of one size.
    Returns ``(equivalent, certificate, dimension)``.
    """
    mode = letters_x[0].mode
    a, n = len(letters_x), letters_x[0].rows
    letters = np.array([[m.data for m in letters_x], [m.data for m in letters_y]])
    if mode == EXACT:
        spans, step, cap = _ExactSpan(), _raw_rows, 1
    else:
        spans, step, cap = _MappedSpan(n * n, tol), _unit_rows, _BLOCK
    words, nus = [], []  # the basis, and the factor each product dropped
    prods = letters[:, :0]  # each basis word's product on both sides

    def word_of(source):
        if source is None:
            return empty_word(a)
        parent, letter = source
        return words[parent].append_letter(letter)

    def extend(origin, block, scales):
        """Decide a block of child pairs in entry order; a certificate if a
        transfer fails."""
        nonlocal prods
        if not origin:
            return None
        prods = _grown(prods, len(words) + len(origin), n * n)
        spans.project(block)
        for j, source in enumerate(origin):
            deps = spans.reduce(j)
            for side, dep in enumerate(deps):
                if dep:
                    resid = spans.mismatch(j, side)
                    if resid is not None:
                        nu = scales[j]
                        coeffs = tuple(
                            nu * c / b for c, b in zip(spans.coeffs(j, side), nus)
                        )
                        return DependencyCertificate(
                            word_of(source),
                            tuple(words),
                            coeffs,
                            float(nu * resid),
                            ("left", "right")[side],
                        )
            if not (deps[0] or deps[1]):
                spans.add(j)
                prods[:, len(words)] = block[:, j]
                words.append(word_of(source))
                nus.append(scales[j])
        return None

    eye = np.broadcast_to(identity(n, mode).data, (2, 1, n, n))
    extend(*step([None], eye, [1]))
    g, size = 0, a
    while g < len(words) * a:
        stop = min(g + min(size, cap), len(words) * a)
        origin = [divmod(e, a) for e in range(g, stop)]
        block = _products(prods, letters, origin)
        failure = extend(*step(origin, block, [nus[k] for k, _ in origin]))
        if failure is not None:
            return False, failure, len(words)
        g, size = stop, 2 * size

    for i, word in enumerate(words):
        tl, tr = nus[i] * np.trace(prods[0, i]), nus[i] * np.trace(prods[1, i])
        if not _close(tl, tr, tol):
            return False, TraceCertificate(word, tl, tr), len(words)
    return True, None, len(words)


def algebra_closure(
    X: Matrix,
    Y: Matrix,
    tol: float = DEFAULT_TOL,
    prescale: bool = True,
) -> Verdict:
    """Polynomial-time unitary-similarity decision by lockstep algebra spanning.

    Verdicts coincide with the brute trace-word criterion; the agreement is
    enforced by cross-engine tests, not assumed.
    """
    t0 = time.perf_counter()
    _check_pair(X, Y)
    scale = 1.0
    if prescale:
        scale, (X, Y) = common_scale([X, Y])
    exact = X.mode == EXACT
    ok, certificate, dim = _closure_decide(
        [X, X.adjoint()], [Y, Y.adjoint()], tol
    )
    verdict = Verdict(
        ok,
        ENGINE_CLOSURE,
        certificate=certificate,
        tolerance=None if exact else tol,
        dimension=dim,
    )
    return _finish(verdict, t0, scale, "closure")


# --------------------------------------------------------------------------
# unitary similarity
# --------------------------------------------------------------------------

_N2_WORDS = (
    Word(((0, 1),), 2),
    Word(((0, 2),), 2),
    Word(((0, 1), (1, 1)), 2),
)

# the classical seven-invariant list for 3-by-3 unitary similarity
_N3_WORDS = (
    Word(((0, 1),), 2),
    Word(((0, 2),), 2),
    Word(((0, 1), (1, 1)), 2),
    Word(((0, 3),), 2),
    Word(((0, 2), (1, 1)), 2),
    Word(((0, 2), (1, 2)), 2),
    Word(((0, 2), (1, 2), (0, 1), (1, 1)), 2),
)


def _fastpath(X: Matrix, Y: Matrix, words, tag: str, tol: float) -> Verdict:
    exact = X.mode == EXACT
    lx = [X, X.adjoint()]
    ly = [Y, Y.adjoint()]
    for word in words:
        tl = eval_word(word, lx).trace()
        tr = eval_word(word, ly).trace()
        if not _close(tl, tr, tol):
            return Verdict(
                False,
                tag,
                certificate=TraceCertificate(word, tl, tr),
                tolerance=None if exact else tol,
            )
    return Verdict(True, tag, tolerance=None if exact else tol)


def unitarily_similar(
    A: Matrix,
    B: Matrix,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
    max_exponent: int | None = None,
    prescale: bool = True,
) -> Verdict:
    """Decide whether A = U B U* for some unitary U.

    ``auto`` takes the short fixed word lists for sizes 2 and 3 and the
    closure engine otherwise; ``brute`` runs the certified enumeration up to
    the full length bound (subject to the word budget).
    """
    t0 = time.perf_counter()
    _check_pair(A, B)
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    scale = 1.0
    if prescale:
        scale, (A, B) = common_scale([A, B])
    m = A.rows
    if engine == ENGINE_BRUTE:
        length = max_length if max_length is not None else floor_length_bound(m)
        inner = specht_brute(
            A,
            B,
            length,
            max_exponent=max_exponent,
            tol=tol,
            budget=budget,
            prescale=False,
        )
        return _finish(inner, t0, scale, "similar")
    if engine == ENGINE_AUTO and m == 2:
        return _finish(
            _fastpath(A, B, _N2_WORDS, "fastpath_n2", tol), t0, scale, "similar"
        )
    if engine == ENGINE_AUTO and m == 3:
        return _finish(
            _fastpath(A, B, _N3_WORDS, "fastpath_n3", tol), t0, scale, "similar"
        )
    inner = algebra_closure(A, B, tol=tol, prescale=False)
    return _finish(inner, t0, scale, "similar")


# --------------------------------------------------------------------------
# simultaneous unitary similarity
# --------------------------------------------------------------------------

def _pairs_letters(pairs):
    lx, ly = [], []
    for a, b in pairs:
        lx.extend((a, a.adjoint()))
        ly.extend((b, b.adjoint()))
    return lx, ly


def simultaneously_unitarily_similar(
    pairs,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
    prescale: bool = True,
) -> Verdict:
    """Decide whether one unitary U realizes A_i = U B_i U* for every pair.

    The closure engine spans the multi-letter algebra directly; the brute
    engine encodes the pairs into one gadget pair and runs the certified
    single-pair enumeration on it (word exponents above the gadget's
    nilpotency index are pruned).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")
    t0 = time.perf_counter()
    n = pairs[0][0].rows
    for a, b in pairs:
        _check_pair(a, b)
        if a.rows != n:
            raise ValueError("all pairs must share one size")
    scale = 1.0
    if prescale:
        mats = [m for p in pairs for m in p]
        scale, scaled = common_scale(mats)
        pairs = list(zip(scaled[0::2], scaled[1::2]))
    exact = pairs[0][0].mode == EXACT

    if len(pairs) == 1 and engine != ENGINE_BRUTE:
        inner = unitarily_similar(
            pairs[0][0],
            pairs[0][1],
            engine=engine,
            tol=tol,
            budget=budget,
            max_length=max_length,
            prescale=False,
        )
        return _finish(inner, t0, scale, "pairs")

    if engine == ENGINE_BRUTE:
        ga, gb = build_similarity_gadget(pairs, n)
        size = ga.M.rows
        length = (
            max_length if max_length is not None else floor_length_bound(size)
        )
        inner = specht_brute(
            ga.M,
            gb.M,
            length,
            max_exponent=ga.layout.k - 1,  # the gadgets are nilpotent of index k
            tol=tol,
            budget=budget,
            prescale=False,
        )
        return _finish(inner, t0, scale, "pairs:gadget")

    lx, ly = _pairs_letters(pairs)
    ok, certificate, dim = _closure_decide(lx, ly, tol)
    verdict = Verdict(
        ok,
        ENGINE_CLOSURE,
        certificate=certificate,
        tolerance=None if exact else tol,
        dimension=dim,
    )
    return _finish(verdict, t0, scale, "pairs:closure")


# --------------------------------------------------------------------------
# unitary congruence
# --------------------------------------------------------------------------

def unitarily_congruent(
    A: Matrix,
    B: Matrix,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
    use_k_gadget: bool = False,
    allow_shortcut: bool = True,
    prescale: bool = True,
) -> Verdict:
    """Decide whether A = U B U^T for some unitary U.

    The default route tests simultaneous unitary similarity of the derived
    triple; ``use_k_gadget`` instead builds the 4n-by-4n nilpotent gadgets
    and tests their unitary similarity with word exponents capped at 3.
    """
    t0 = time.perf_counter()
    _check_pair(A, B)
    scale = 1.0
    if prescale:
        scale, (A, B) = common_scale([A, B])
    if use_k_gadget:
        ka, kb = build_congruence_K(A), build_congruence_K(B)
        inner = unitarily_similar(
            ka,
            kb,
            engine=engine,
            tol=tol,
            budget=budget,
            max_length=max_length,
            max_exponent=3,
            prescale=False,
        )
        return _finish(inner, t0, scale, "congruence:K")
    triple = congruence_triple(A, B, allow_shortcut=allow_shortcut)
    inner = simultaneously_unitarily_similar(
        triple,
        engine=engine,
        tol=tol,
        budget=budget,
        max_length=max_length,
        prescale=False,
    )
    return _finish(inner, t0, scale, "congruence:triple")


# --------------------------------------------------------------------------
# the general problem
# --------------------------------------------------------------------------

def solve_general(
    inst: ProblemInstance,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
    use_k_gadget: bool = False,
) -> Verdict:
    """Decide the four-family problem: one unitary U giving similarity for
    S1, congruence for S2, and the conjugated relations for S3 and S4.

    A pure-S1 instance is routed through simultaneous similarity directly;
    anything else goes through the parity-placed gadget pair, whose unitary
    congruence is equivalent to the whole instance.
    """
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    t0 = time.perf_counter()
    scale, sinst = inst.scaled_common()
    m1, m2, m3, m4 = sinst.counts
    if m2 == m3 == m4 == 0:
        inner = simultaneously_unitarily_similar(
            sinst.S1,
            engine=engine,
            tol=tol,
            budget=budget,
            max_length=max_length,
            prescale=False,
        )
        return _finish(inner, t0, scale, "general:s1")
    ga, gb = build_general_gadget(sinst)
    inner = unitarily_congruent(
        ga.M,
        gb.M,
        engine=engine,
        tol=tol,
        budget=budget,
        max_length=max_length,
        use_k_gadget=use_k_gadget,
        prescale=False,
    )
    return _finish(inner, t0, scale, "general:gadget")


def decision_letters(inst: ProblemInstance, use_k_gadget: bool = False):
    """Rebuild the two letter lists the default general decision compares.

    Deterministic, so certificates can be re-verified from the instance
    alone.  Returns ``(scale, letters_left, letters_right)``.
    """
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    scale, sinst = inst.scaled_common()
    m1, m2, m3, m4 = sinst.counts
    if m2 == m3 == m4 == 0:
        lx, ly = _pairs_letters(sinst.S1)
        return scale, lx, ly
    ga, gb = build_general_gadget(sinst)
    if use_k_gadget:
        ka, kb = build_congruence_K(ga.M), build_congruence_K(gb.M)
        return scale, [ka, ka.adjoint()], [kb, kb.adjoint()]
    triple = congruence_triple(ga.M, gb.M, allow_shortcut=True)
    lx, ly = _pairs_letters(triple)
    return scale, lx, ly


def verify_witness(inst: ProblemInstance, U: Matrix, tol: float = DEFAULT_TOL) -> bool:
    """Check that one concrete unitary U realizes all four relation families."""
    if U.shape != (inst.n, inst.n):
        raise ValueError(f"witness must be {inst.n}x{inst.n}")
    n = inst.n
    eye = identity(n, U.mode)
    if (U @ U.adjoint() - eye).norm_fro() > tol * (1.0 + math.sqrt(n)):
        return False
    ubar = U.conj()
    transforms = {
        1: lambda b: U @ b @ U.adjoint(),
        2: lambda b: U @ b @ U.transpose(),
        3: lambda b: ubar @ b @ U.adjoint(),
        4: lambda b: ubar @ b @ U.transpose(),
    }
    for set_id, _, a, b in inst.pairs():
        expect = transforms[set_id](b)
        if (a - expect).norm_fro() > tol * (1.0 + a.norm_fro()):
            return False
    return True
