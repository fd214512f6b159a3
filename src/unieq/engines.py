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
  brute enumeration explodes.  One lockstep loop (``_closure_verdict``)
  picks the arithmetic once from the letters' mode and makes one
  dependency decision per word: a word dependent on either side is
  dependent on both, so the two spans always have the same dimension.
  Each arithmetic is one class that owns its letters, products, scaling,
  span, trace check and certificate solve, and both take the breadth-first
  frontier in blocks of up to ``_BLOCK`` words: float Gram-Schmidt
  (``_MappedSpan``), real when the letters are, and, in exact mode, row
  reduction over the integers mod a prime after one denominator clearing
  (``_ModularSpan``), with exact Gaussian-integer arithmetic only for the
  verdict, which is checked exactly and run again mod the next prime if
  the check contradicts it.  Verdicts, certificate words and dimensions
  are those of taking words one at a time, and in exact mode those of
  exact elimination.  Before a float span is built, one eigenbasis
  alignment of the letters looks for a unitary intertwiner
  (``_aligned_intertwiner``): the eigenvectors of one complex Hermitian
  combination of each side's letters, real letters included, matched up
  to one unit phase each, with no phase carried along an edge within the
  tolerance.  When it finds one, the answer is Equivalent with no span.
  Before an exact span is built, the letters cleared of denominators are
  searched for an invertible integer intertwiner
  (``_integer_intertwiner``): arithmetic mod a prime only rules one out,
  by the spectra of the letters, which an invertible intertwiner keeps,
  and then by the rank of the stacked linear system over the integers.
  Else the rows that rank step reduced mod the prime give, for up to
  three fixed values of the free unknowns, the others mod the prime, and
  rational reconstruction lifts them to R; only when that lift fails or
  its R misses a letter is R solved by fraction-free elimination.  An R
  that maps every letter exactly and has a nonzero determinant answers
  Equivalent with no span.

Everything else reduces to these: simultaneous similarity via block gadgets
or the multi-letter closure, and congruence and the general four-family
problem via the multi-letter closure on real 2n-by-2n letters
(``real_letter_stack``).  The paper's own reduction, parity-placed gadgets
plus congruence through the derived triple or the K gadget, stays the route
of the brute engine and of ``use_k_gadget``.

A decision's letters are built once, right after its one scaling, as one
array (2, a, N, N), side on axis 0, that the closure, its eigenbasis check
and its span read as it is; ``decision_letters`` gives rechecks views of it.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .numerics import (
    DEP_TOL,
    EXACT,
    PRIME,
    SQRT_MINUS_ONE,
    GaussianRational,
    Matrix,
    as_matrices,
    bareiss_solve,
    clear_denominators,
    common_scale,
    gaussian_matmul,
    gaussian_residues,
    identity,
    independent_rows_mod_p,
    integer_det,
    integer_nullspace,
    intertwiner_operator,
    power_traces_differ_mod_p,
    rational_reconstruction,
    span_primes,
)
# iter_word_traces is not called here; bench/tracing.py wraps it by this name
from .words import (
    DEDUP_CYCLIC_STAR,
    Word,
    _trace_levels,
    empty_word,
    eval_word,
    iter_word_traces,
    pappacena_bound,
    word_count,
)
from .gadgets import (
    _RELATIONS,
    ProblemInstance,
    build_congruence_K,
    build_general_gadget,
    build_similarity_gadget,
    congruence_triple,
    real_letter_stack,
    stack_pairs,
)

DEFAULT_TOL = 1e-8
DEFAULT_BUDGET = 10_000_000

ENGINE_AUTO = "auto"
ENGINE_BRUTE = "brute"
ENGINE_CLOSURE = "closure"
_ENGINES = (ENGINE_AUTO, ENGINE_BRUTE, ENGINE_CLOSURE)

_ZERO_PAIR_EPS = 1e-14
_SINGULAR_TOL = 1e-10  # |det| above which a pre-scaled float matrix is nonsingular
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


def _far(a, b, tol):
    """``not _close(a, b, tol)``, entry by entry, over two arrays of
    traces: inequality for Gaussian-rational (object) entries, and a NaN
    is far from everything."""
    if a.dtype == object:
        return a != b
    return ~(np.abs(a - b) <= tol * (1.0 + np.abs(a)))


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
        """Re-evaluate every word from scratch and confirm that the
        combination gives the word on the dependent side and fails on the
        other: within tol over float letters, exactly over Gaussian-rational
        ones, as for traces (``_close``)."""
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
        if target_dep.mode == EXACT:
            return combo_dep == target_dep and combo_other != target_other
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
    ``scale`` is the common pre-scaling factor that the public call applied
    once to all its inputs before any comparison, and ``route`` records the
    reduction chain taken.
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


def _finish(verdict: Verdict, t0: float, route: str) -> Verdict:
    """Time a route from t0 and put its name before the inner route's."""
    verdict.elapsed_s = time.perf_counter() - t0
    verdict.route = route if not verdict.route else f"{route}>{verdict.route}"
    return verdict


def _scaled(verdict: Verdict, t0: float, scale) -> Verdict:
    """Time a public call from t0 and record its one common scale factor.

    Every relation is homogeneous: U realizes it for (A, B) exactly when it
    does for (cA, cB).  So each public decision checks its arguments, scales
    all its matrices once by ``common_scale`` or
    ``ProblemInstance.scaled_common``, and hands them to scale-free private
    routes, which never call a public decision."""
    verdict.elapsed_s = time.perf_counter() - t0
    verdict.scale = float(scale)
    return verdict


# --------------------------------------------------------------------------
# brute engine
# --------------------------------------------------------------------------

def _trace_verdict(stream, engine: str, exact: bool, tol: float) -> Verdict:
    """Compare the two traces of each ``(word, (tl, tr))`` of ``stream`` in
    order: NotEquivalent at the first word whose traces differ, with that
    word as its certificate, Equivalent if none does."""
    failure = None
    for word, (tl, tr) in stream:
        if not _close(tl, tr, tol):
            failure = TraceCertificate(word, tl, tr)
            break
    return Verdict(
        failure is None,
        engine,
        certificate=failure,
        tolerance=None if exact else tol,
    )


def _check_pair(X: Matrix, Y: Matrix):
    X._check_mode(Y)
    if not (X.is_square and Y.is_square) or X.shape != Y.shape:
        raise ValueError("engines compare two square matrices of equal size")


def _check_engine(engine: str):
    if engine not in _ENGINES:
        raise ValueError(f"unknown engine {engine!r}")


def _check_tol(tol: float):
    if not 0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")


def _check_budget(max_length, max_exponent, budget, dedup):
    """Refuse a walk over the words in two letters up to ``max_length``
    when their count under ``dedup`` (``word_count``) exceeds ``budget``."""
    count = word_count(2, max_length, max_exponent, dedup)
    if count > budget:
        raise BudgetExceededError(
            f"brute enumeration needs {count} words, budget is {budget}"
        )


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
) -> Verdict:
    """Compare traces of every word in (X, X*) against (Y, Y*), after one
    common scaling of X and Y.

    Complete for unitary similarity when ``max_length`` reaches
    ``floor_length_bound(size)``; with a smaller cutoff it is a screener that
    can still certify NotEquivalent.  Only canonical words are walked, one
    per class under rotation and star-reversal, and the call refuses to
    start when their count (``word_count``, necklaces per length) would
    exceed ``budget``.
    """
    t0 = time.perf_counter()
    _check_pair(X, Y)
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(X.rows, [(X, Y)]))
    return _scaled(_brute(letters, max_length, max_exponent, tol, budget), t0, scale)


def _brute(letters, max_length, max_exponent, tol, budget) -> Verdict:
    """Walk the canonical words level by level, compare each level's traces
    at once and certify the first word whose traces differ."""
    t0 = time.perf_counter()
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    _check_budget(max_length, max_exponent, budget, DEDUP_CYCLIC_STAR)
    levels = _trace_levels(letters, max_length, max_exponent, DEDUP_CYCLIC_STAR)
    mismatches = (
        (Word.from_letters(seqs[i], letters.shape[1]), traces[i].tolist())
        for seqs, traces in levels
        for i in np.flatnonzero(_far(traces[:, 0], traces[:, 1], tol))
    )
    verdict = _trace_verdict(mismatches, ENGINE_BRUTE, letters.dtype == object, tol)
    return _finish(verdict, t0, "brute")


# --------------------------------------------------------------------------
# closure engine
# --------------------------------------------------------------------------

def _norm(v) -> float:
    return math.sqrt(float(np.vdot(v, v).real))


def _norms(v):
    """Euclidean norms along the last axis of a real or complex array whose
    last axis is contiguous."""
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


def _accepted(s, letters, tol: float):
    """S, of largest singular value 1, if it is unitary by
    ``verify_witness``'s rule, |S S* - I| <= tol (1 + sqrt N), and maps
    every letter, |S L_k - L'_k S| <= tol (1 + |L_k|); else None.  Every
    word is a product of letters, so an accepted S maps every word by
    X -> S X S^-1: every dependency transfers and every trace agrees."""
    size = len(s)
    unitary_defect = np.linalg.norm(s @ np.conj(s).T - np.eye(size))
    if unitary_defect > tol * (1.0 + math.sqrt(size)):
        return None
    left, right = letters
    a = len(left)
    defect = _norms((s @ left - right @ s).reshape(a, -1))
    return s if (defect <= tol * (1.0 + _norms(left.reshape(a, -1)))).all() else None


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
    # an accepted S has |S| = 1 and smallest singular value at least
    # 1 - slack, so |S L - L' S| >= ||L| - |L'|| - slack max(|L|, |L'|),
    # and no S passes past this bound, one for all letters; |L|^2 - |L'|^2
    # is at most 2 top times ||L| - |L'||
    slack = tol * (1.0 + math.sqrt(size))
    if max(abs(x - y) for x, y in sq) > 2 * top * (tol + slack) * (1.0 + top):
        return None
    c = np.sqrt(np.arange(2.0, a + 2)) + 1j * (-1.0) ** np.arange(a)
    mix = (c @ letters.reshape(2, a, -1)).reshape(2, size, size)
    h, v = np.linalg.eigh(mix + np.conj(mix.transpose(0, 2, 1)))
    vh = np.conj(v.transpose(0, 2, 1))
    m = vh[:, None] @ letters @ v[:, None]  # M_k and N_k
    mag = np.abs(m[0])
    weight, which = mag.max(axis=0).tolist(), mag.argmax(axis=0).tolist()
    h = h[0].tolist()
    near = tol * (1.0 + max(-h[0], h[-1]))
    for i in range(size - 1):
        if h[i + 1] - h[i] <= near and weight[i][i + 1] > tol * (1.0 + top):
            return None  # a repeated eigenvalue on which the letters are not scalar
    d, best, parent = [1.0] * size, [0.0] * size, [0] * size
    todo = list(range(size))
    while todo:  # Prim's, on lists: a numpy call per step costs more
        j = max(todo, key=best.__getitem__)
        todo.remove(j)
        if best[j] > tol * (1.0 + top):  # else j roots a new tree, phase 1
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


# draw t sets the j-th free unknown of R to t^((j + 1)^2) mod 1009: small,
# and with no pattern such as t^j, which over the standard basis of a full
# matrix space gives a rank-one R
_DRAWS = (2, 3, 5)


def _real_system(ints):
    """The equations L'_k R - R L_k = 0 of two stacked Gaussian-integer
    letter lists (2, a, parts, N, N), in the layout of
    ``clear_denominators``, as the rows of one matrix, parts N^2 of them
    per letter: on vec R for real letters, and on [vec X; vec Y], each
    equation's real part then its imaginary part, for R = X + iY over
    complex ones."""
    a, parts, size = ints.shape[1:4]
    flat = ints.reshape(2, a * parts, size, size)
    ops = intertwiner_operator(flat[1], flat[0]).reshape((a, parts) + (size * size,) * 2)
    if parts == 2:
        re, im = ops[:, 0], ops[:, 1]
        ops = np.stack([np.concatenate(h, axis=-1) for h in ((re, -im), (im, re))], axis=2)
    return ops.reshape(-1, parts * size * size)


def _lifted(reduced, pivots, free, values):
    """The integer vector, as Python ints, on which the rows ``reduced``
    (reduced mod ``PRIME``, 1 at their ``pivots``) vanish mod p and whose
    entries at the columns ``free`` are proportional to ``values``: each
    pivot entry is read mod p off its row and lifted to a fraction by
    ``rational_reconstruction``, and the vector is cleared of their
    denominators.  None if an entry has no lift."""
    at_pivots = -(reduced[:, free] @ np.asarray(values, dtype=np.int64)) % PRIME
    fractions = [rational_reconstruction(int(u), PRIME) for u in at_pivots]
    if None in fractions:
        return None
    lead = math.lcm(*(b for _, b in fractions))
    vec = np.zeros(reduced.shape[1], dtype=object)
    vec[free] = [lead * c for c in values]
    vec[pivots] = [num * (lead // b) for num, b in fractions]
    return vec


def _mapping(vec, ints):
    """The matrix R of an integer vector on vec R, or on [vec X; vec Y] for
    R = X + iY, as parts (parts, N, N), if R L_k = L'_k R holds exactly on
    every letter of ``ints`` (one stacked product per side); else None."""
    parts, size = ints.shape[2:4]
    r = vec.reshape(parts, size, size).swapaxes(1, 2)  # vec is column-major
    # entry (k, p, q): the product of part p of one factor by part q of the other
    d = r[None, :, None] @ ints[0][:, None] - ints[1][:, :, None] @ r[None, None]
    if parts == 2:  # (X + iY)(A + iB) = XA - YB + i(XB + YA)
        d = np.stack([d[:, 0, 0] - d[:, 1, 1], d[:, 0, 1] + d[:, 1, 0]])
    return None if d.any() else r


def _integer_intertwiner(ints, image):
    """An invertible R with R L_k = L'_k R on every letter of two stacked
    Gaussian-integer letter lists (2, a, parts, N, N), in the layout of
    ``clear_denominators``, as R's parts; None if this finds none, which
    proves nothing.  ``image`` holds the letters' residues mod ``PRIME``
    (``gaussian_residues``).

    The closure's letter lists are closed under adjoint, so R*R commutes
    with the letters and the unitary polar factor of R intertwines them:
    over the rationals, with no tolerance, such an R proves Equivalent.  On
    real letters a real R is sought; ``solve_general`` shows that one
    exists when a unitary intertwiner does.

    1. Mod ``PRIME``, with i -> ``SQRT_MINUS_ONE``: an invertible R makes
       each letter similar to its partner, so if some letter's spectrum
       differs from its partner's (``power_traces_differ_mod_p``), the
       answer is None.  This covers the letters whose spectra are
       disjoint, where only R = 0 maps one to the other (Sylvester).
    2. Else the equations over the integers (``_real_system``): on vec R
       for real letters, and on [vec X; vec Y], the real and imaginary
       parts of each equation, for R = X + iY over complex ones.  If they
       have full column rank mod p (``independent_rows_mod_p``), None too.
       A minor that is nonzero mod p is nonzero over the integers, so p
       only ever rules an R out.
    3. Else the rows independent mod p, which are independent over Q, are
       kept in reduced form mod p with their pivot columns.  For each t in
       ``_DRAWS`` (one draw if one column is free), the free unknowns,
       taken in column order, are fixed to small integers, and the pivot
       unknowns are read mod p off the reduced rows and lifted by rational
       reconstruction (``_lifted``).  When the lift fails or its R does not
       map every letter, which happens when R's entries are large, the same
       R comes from an integer nullspace basis of the kept rows
       (``integer_nullspace``), by fraction-free elimination.  The first R
       that maps every letter exactly and whose determinant, of [[X, -Y],
       [Y, X]] over complex letters, is nonzero (``integer_det``) is
       returned.
    """
    if power_traces_differ_mod_p(image):
        return None
    kept = independent_rows_mod_p(_real_system(np.asarray(ints % PRIME, dtype=np.int64)))
    if kept is None:
        return None
    taken, reduced, pivots = kept
    free = sorted(set(range(reduced.shape[1])) - set(pivots))
    null = None
    for t in _DRAWS if len(free) > 1 else _DRAWS[:1]:
        values = [pow(t, (j + 1) ** 2, 1009) for j in range(len(free))]
        vec = _lifted(reduced, pivots, free, values)
        r = None if vec is None else _mapping(vec, ints)
        if r is None:  # no small lift: the fraction-free solve
            if null is None:
                null = integer_nullspace(_real_system(ints)[taken])
            r = _mapping(sum(c * v for c, v in zip(values, null)), ints)
        if r is not None:
            square = r[0]
            if len(r) == 2:  # R = X + iY as the real [[X, -Y], [Y, X]]
                square = np.vstack([np.hstack([r[0], -r[1]]), np.hstack([r[1], r[0]])])
            if integer_det(square):
                return r
    return None


class _MappedSpan:
    """Float arithmetic of the closure: both sides' spans, stacked on axis 0
    (0 left, 1 right).  The letters, the empty word's product I and every
    stored vector share one dtype.  Each child pair is divided by its joint
    norm, carried in nu (a pair of norm 0 is dropped), and traces are
    compared within ``tol``, all basis words in one call.  The closure
    builds a span only when ``_aligned_intertwiner`` finds no intertwiner
    of the letters first.

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
        self._origin, self._children = origin, block
        self._block = (d, vn, dep_tol.T.tolist(), rd, rn.T.tolist())
        return origin

    def reduce(self, j: int):
        """Both sides' dependency flags for row j, within DEP_TOL."""
        d0, _, dep_tol, rd, rn = self._block
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
        tx, ty = dep_tol[j]
        return rn[0] <= tx, rn[1] <= ty

    def mismatch(self, j: int, side: int):
        """None if row j's transfer defect on the other side is within tol;
        else the certificate's coefficients over the basis words and its
        residual, the defect's norm, both times the words' nu."""
        resid = _norm(self._block[3][side, j, self.dim :])
        if resid <= self.tol * (1.0 + self._block[1][1 - side, j]):
            return None
        q = np.conj(self.qm[side, : self.d, : self.dim])
        p = self.prods[side, : self.d].reshape(self.d, self.dim)
        coeffs = np.linalg.solve(q @ p.T, q @ self._children[side, j].ravel())
        nu = self._scales[j]
        return tuple(nu * c / b for c, b in zip(coeffs, self.nus)), float(nu * resid)

    def add(self, j: int):
        """Add row j on both sides."""
        d = self.d
        np.divide(self._block[3][:, j], np.array(self._rn)[:, None], out=self.qm[:, d])
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


_SIDES = np.arange(2)[:, None]  # indexes axis 0 beside per-side indices


class _Unconfirmed(Exception):
    """An exact check contradicted the span mod p: the prime is bad for
    this instance."""


def _solved(basis, targets, cols):
    """Exact coordinates of the Gaussian-integer vectors ``targets`` over
    the ``basis`` vectors, both stacked (vectors, parts, entries) in the
    parts layout of ``clear_denominators``, read off the entries ``cols``
    alone, on which the basis has a nonsingular minor M: ``(nums, det)``,
    coordinate k of target t being (nums[k, 0, t] + i nums[k, 1, t]) / det.
    Over complex parts the unknowns are each coordinate's real and
    imaginary part, and the equations each column's, a real minor of
    determinant |det M|^2 (``bareiss_solve``)."""
    d, parts = basis.shape[:2]
    m = basis[:, :, cols]
    if parts == 1:
        a = m[:, 0].T
    else:
        re, im = m[:, 0].T, m[:, 1].T
        a = np.empty((2 * d, 2 * d), dtype=object)
        a[0::2, 0::2], a[0::2, 1::2] = re, -im
        a[1::2, 0::2], a[1::2, 1::2] = im, re
    b = targets[:, :, cols].transpose(2, 1, 0).reshape(parts * d, len(targets))
    nums, det = bareiss_solve(a.tolist(), b.tolist())
    return np.array(nums, dtype=object).reshape(d, parts, len(targets)), det


def _combined(nums, basis):
    """sum_k nums_k basis_k over the Gaussian integers, one combination per
    column of ``nums`` (vectors, parts, t) of the ``basis`` (vectors, parts,
    entries): (t, parts, entries)."""
    xr, yr = nums[:, 0].T, basis[:, 0]
    if basis.shape[1] == 1:
        return (xr @ yr)[:, None]
    xi, yi = nums[:, 1].T, basis[:, 1]
    return np.stack([xr @ yr - xi @ yi, xr @ yi + xi @ yr], axis=1)


class _ModularSpan:
    """Exact arithmetic of the closure: both sides' spans over the integers
    mod a prime p, in lockstep, with exact Gaussian-integer arithmetic only
    where a verdict is issued.

    The letters come cleared of denominators, as Gaussian integers in the
    layout of ``clear_denominators`` with one D for both sides (a word of
    length L is scaled by D^L on both sides, which changes no dependency and
    no trace equality), and reduced mod p with i -> a square root of -1 mod
    p.  That is a ring map, so a word's residues are the products of its
    letters', one stacked int64 matmul per block of up to ``_BLOCK`` words.
    Each side keeps its [self | other] rows, a word's vector joined to its
    mirror, the other side's, in reduced echelon form mod p: 1 at its own
    pivot column and 0 at every other row's.  A block is then reduced by
    one product, x - x[pivots] B, against the rows as the block started,
    and ``reduce`` clears from each word, in order, the rows added earlier
    in its block.  A word depends on a side's rows when its self half is
    zero, and its dependency transfers when its mirror half is zero too.
    Complex letters need no i x rows: the residues span the image of the
    words' complex span, so the dimension is the number of basis words.

    A residue or a minor that is nonzero mod p is nonzero over the
    Gaussian integers, so rows independent mod p are independent over
    Q(i).  The converse fails for finitely many p: mod such a bad prime a
    word independent over Q(i) can look dependent, and a nonzero defect can
    vanish.  So each verdict is checked exactly, on the exact products of
    the words involved, built along their prefix tree from the cleared
    letters and each divided by its joint content g, with nu = nu_parent g
    / D, so nu times a product is the word's value (no basis word has
    content 0, for its residues are not all 0):

    * ``mismatch``: the coefficients of the first word dependent on a side
      whose mirror half is not zero solve the pivot columns that the span
      chose (``_solved``), and the combination must give the word exactly
      on the dependent side and miss it on the other.
    * ``trace_mismatch``: the basis words' traces are compared exactly;
      when all agree, every child of the basis must have the same
      coordinates on both sides, from one exact solve against the left
      pivot block, which proves both spans closed under the letters and
      every dependency transferred.

    An exact check that contradicts the span raises ``_Unconfirmed``, and
    the closure runs the span again mod the next prime.  With a good prime
    the span takes the words that exact elimination would take, so every
    certificate is the one of deciding each word exactly.  The closure
    builds a span only when ``_integer_intertwiner`` finds no intertwiner of
    the cleared letters first.
    """

    tol = None  # exact: verdicts carry no tolerance

    def __init__(self, ints, denom, residues, p: int):
        n = ints.shape[-1]
        self.ints, self.denom, self.p = ints, denom, p
        self.dim, self.d = n * n, 0
        self.letters = residues
        self.eye = np.broadcast_to(np.eye(n, dtype=np.int64), (2, 1, n, n))
        self.prods = residues[:, :0]  # each basis word's residues
        self.rows = np.empty((2, 0, 2 * self.dim), dtype=np.int64)
        self.pivots = np.empty((2, 0), dtype=np.int64)
        self.sources = []  # each basis word's (parent, letter)

    def project(self, origin):
        """Start a block: the residues of the entries ``origin``, each
        ``(parent, letter)``, or [None] for the empty word, reduced against
        the rows.  Returns the entries, all kept."""
        p, d, dim = self.p, self.d, self.dim
        if origin == [None]:
            block = self.eye
        else:
            parents, ks = (list(x) for x in zip(*origin))
            block = np.matmul(self.prods[:, parents], self.letters[:, ks]) % p
        b = block.shape[1]
        self.prods = _grown(self.prods, d + b, dim)
        self.rows = _grown(self.rows, d + b, dim)
        self.pivots = _grown(self.pivots, d + b, dim)
        v = block.reshape(2, b, dim)
        x = np.concatenate((v, v[::-1]), axis=2)  # [self | other]
        if d:  # x[pivots] B, the gather (2, d, words) transposed
            at = x[_SIDES, :, self.pivots[:, :d]].transpose(0, 2, 1)
            x = (x - at @ self.rows[:, :d]) % p
        self._origin, self._children, self._x, self._d0 = origin, block, x, d
        self._zero = (~x[:, :, :dim].any(axis=2)).T.tolist()
        return origin

    def reduce(self, j: int):
        """Both sides' dependency flags for row j: a zero self half."""
        d0, d = self._d0, self.d
        if d == d0:
            return self._zero[j]
        x = self._x[:, j]  # clear the rows added earlier in this block
        at = x[_SIDES, self.pivots[:, d0:d]]
        x -= (at[:, None] @ self.rows[:, d0:d])[:, 0]
        x %= self.p
        return [not x[0, : self.dim].any(), not x[1, : self.dim].any()]

    def add(self, j: int):
        """Add row j on both sides: scaled to 1 at its first nonzero entry,
        its pivot, which is cleared from the other rows."""
        p, d = self.p, self.d
        x = self._x[:, j]
        c = (x[:, : self.dim] != 0).argmax(axis=1)
        inv = [pow(int(x[s, c[s]]), -1, p) for s in (0, 1)]
        row = x * np.array(inv)[:, None] % p
        if d:
            rows = self.rows[:, :d]
            rows -= rows[_SIDES, :, c[:, None]].transpose(0, 2, 1) * row[:, None]
            rows %= p
        self.rows[:, d], self.pivots[:, d] = row, c
        self.prods[:, d] = self._children[:, j]
        self.sources.append(self._origin[j])
        self.d = d + 1

    def _exact(self, sources):
        """The exact products of the words ``sources``, each ``(parent,
        letter)`` with the parent an earlier index, or None for the empty
        word, stacked (2, words, parts, n * n) and each divided by its joint
        content g, with their nu = nu_parent g / D."""
        ints, parts, n = self.ints, self.ints.shape[2], self.ints.shape[-1]
        prods = np.empty((2, len(sources), parts, n, n), dtype=object)
        nus = []
        for w, source in enumerate(sources):
            if source is None:
                prods[:, w] = 0
                prods[:, w, 0] = np.eye(n, dtype=object)
                nus.append(Fraction(1))
                continue
            parent, k = source
            gaussian_matmul(prods[:, parent], ints[:, k], prods[:, w])
            g = math.gcd(*prods[:, w].flat)
            if g > 1:  # g = 0 only for a child of the basis that vanishes
                prods[:, w] //= g
            nus.append(Fraction(nus[parent] * g, self.denom))
        return prods.reshape(2, len(sources), parts, self.dim), nus

    def _transferred(self, prods, side: int):
        """The exact coordinates ``(nums, det)`` (``_solved``) of the words
        after the basis in ``prods`` over the basis words on ``side``, from
        that side's pivot columns, and det times each word minus the same
        combination on the other side; ``_Unconfirmed`` unless the
        combination gives each word exactly on ``side``."""
        d, own, other = self.d, prods[side], prods[1 - side]
        nums, det = _solved(own[:d], own[d:], self.pivots[side, :d].tolist())
        if (_combined(nums, own[:d]) != det * own[d:]).any():
            raise _Unconfirmed("a word independent of the basis looked dependent")
        return nums, det, det * other[d:] - _combined(nums, other[:d])

    def mismatch(self, j: int, side: int):
        """None if row j's mirror half is zero; else the exact certificate:
        its coefficients over the basis words and its residual, the
        Frobenius norm of the defect on the other side, both times the
        words' nu."""
        if not self._x[side, j, self.dim :].any():
            return None
        prods, nus = self._exact(self.sources + [self._origin[j]])
        nums, det, missed = self._transferred(prods, side)
        if not missed.any():
            raise _Unconfirmed("a dependency that transfers looked as if it failed")
        resid = math.sqrt(Fraction(sum(e * e for e in missed.flat), det * det))
        nu, numerators = nus[-1], nums[:, :, 0].tolist()  # (re, im) per word
        coeffs = [GaussianRational(*(Fraction(c, det) for c in x)) for x in numerators]
        return tuple(nu * c / b for c, b in zip(coeffs, nus)), float(nu * resid)

    def trace_mismatch(self):
        """The first basis index whose exact traces differ, with both traces
        times its nu as Gaussian rationals.  None if every basis word's are
        equal and every child of the basis has the same coordinates on both
        sides."""
        d, n = self.d, self.ints.shape[-1]
        prods, nus = self._exact(self.sources)
        diagonal = range(0, self.dim, n + 1)
        tl, tr = prods[:, :, :, diagonal].sum(axis=-1).tolist()
        i = next((i for i in range(d) if tl[i] != tr[i]), None)
        if i is not None:
            nu = nus[i]
            return i, tuple(GaussianRational(*(nu * part for part in t[i])) for t in (tl, tr))
        a = self.ints.shape[1]
        prods, _ = self._exact(self.sources + [(k, x) for k in range(d) for x in range(a)])
        if self._transferred(prods, 0)[2].any():
            raise _Unconfirmed("a child of the basis failed to transfer")
        return None


def _span_verdict(spans) -> Verdict:
    """The lockstep closure verdict of one span, ``_MappedSpan`` or
    ``_ModularSpan``, which ``_closure_verdict`` describes."""
    a = spans.letters.shape[1]
    sources = spans.sources

    def word_of(source, words):
        if source is None:
            return empty_word(a)
        parent, letter = source
        return words[parent].append_letter(letter)

    def basis_words():
        """The basis as words, built only for a certificate."""
        words = []
        for source in sources:
            words.append(word_of(source, words))
        return words

    def extend(origin):
        """Decide a block of entries in entry order; a certificate if a
        transfer fails."""
        origin = spans.project(origin)
        for j, source in enumerate(origin):
            deps = spans.reduce(j)
            for side in (0, 1):
                failed = spans.mismatch(j, side) if deps[side] else None
                if failed is not None:
                    words, name = basis_words(), ("left", "right")[side]
                    return DependencyCertificate(
                        word_of(source, words), tuple(words), *failed, name
                    )
            if not (deps[0] or deps[1]):
                spans.add(j)
        return None

    failure = extend([None])
    g, size = 0, a
    while failure is None and g < len(sources) * a:
        stop = min(g + min(size, _BLOCK), len(sources) * a)
        failure = extend([divmod(e, a) for e in range(g, stop)])
        g, size = stop, 2 * size
    if failure is None:
        mismatch = spans.trace_mismatch()
        if mismatch is not None:
            i, traces = mismatch
            failure = TraceCertificate(basis_words()[i], *traces)
    return Verdict(
        failure is None,
        ENGINE_CLOSURE,
        certificate=failure,
        tolerance=spans.tol,
        dimension=len(sources),
    )


def _closure_verdict(letters, tol) -> Verdict:
    """Span the algebras generated by the two sides' letters, stacked (2,
    a, N, N), in lockstep: exact over Gaussian rationals (``_ModularSpan``),
    else in floats (``_MappedSpan``), real when no letter has an imaginary
    part, else complex.

    A span divides each word's product by a factor carried in ``nu`` (the
    exact span only the products it builds for its verdict), so nu times a
    stored product is the word's value: certificate coefficients are nu c /
    nu_basis and traces nu tr.  Child entry g is
    basis word g // a times letter g % a.  Entries are taken in blocks of
    consecutive entries whose parents are already in the basis, from ``a``
    entries up, doubling to ``_BLOCK``, and decided one at a time in entry
    order.  A word that depends on the basis on either side is not added,
    and the same combination must hold on the other side (else a
    DependencyCertificate, and the rest of its block is dropped).  When no
    word extends the basis, every basis word's traces must agree (else a
    TraceCertificate).

    Float letters are first handed to ``_aligned_intertwiner``, and exact
    letters, once cleared of denominators, to ``_integer_intertwiner``: if
    either finds an intertwiner, the verdict is Equivalent with no span
    built, so its ``dimension`` is None.  Both can only answer Equivalent,
    and otherwise the span decides as above.  The exact span runs mod a
    prime and checks its verdict exactly; when that check contradicts it,
    it runs again mod the next prime of ``span_primes``, whose first is the
    ``PRIME`` of the intertwiner search, so the letters' residues mod it
    are built once for both.
    """
    if letters.dtype != object:
        if np.iscomplexobj(letters) and not letters.imag.any():
            letters = np.ascontiguousarray(letters.real)  # a real algebra
        if _aligned_intertwiner(letters, tol) is not None:
            return Verdict(True, ENGINE_CLOSURE, tolerance=tol)
        return _span_verdict(_MappedSpan(letters, tol))
    a, n = letters.shape[1], letters.shape[-1]
    denom, ints = clear_denominators(as_matrices(letters.reshape(2 * a, n, n)))
    ints = ints.reshape((2, a) + ints.shape[1:])
    image = gaussian_residues(ints, PRIME, SQRT_MINUS_ONE)
    if _integer_intertwiner(ints, image) is not None:
        return Verdict(True, ENGINE_CLOSURE, tolerance=None)
    for p, root in span_primes():
        residues = image if p == PRIME else gaussian_residues(ints, p, root)
        try:
            return _span_verdict(_ModularSpan(ints, denom, residues, p))
        except _Unconfirmed:
            pass  # p is bad for these letters: the next prime


def algebra_closure(X: Matrix, Y: Matrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Polynomial-time unitary-similarity decision by lockstep algebra
    spanning, after one common scaling of X and Y.

    Verdicts coincide with the brute trace-word criterion; the agreement is
    enforced by cross-engine tests, not assumed.  An intertwiner found
    from one eigenbasis alignment of the letters in float mode
    (``_aligned_intertwiner``), or an invertible integer one in exact mode
    (``_integer_intertwiner``), answers Equivalent before any span is
    built, and the verdict then has no ``dimension``.
    """
    t0 = time.perf_counter()
    _check_pair(X, Y)
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(X.rows, [(X, Y)]))
    return _scaled(_closure(letters, tol), t0, scale)


def _closure(letters, tol) -> Verdict:
    t0 = time.perf_counter()
    return _finish(_closure_verdict(letters, tol), t0, "closure")


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


def _fastpath(letters, words, tag: str, tol: float) -> Verdict:
    lx, ly = (as_matrices(side) for side in letters)
    stream = (
        (w, (eval_word(w, lx).trace(), eval_word(w, ly).trace())) for w in words
    )
    return _trace_verdict(stream, tag, letters.dtype == object, tol)


def unitarily_similar(
    A: Matrix,
    B: Matrix,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
) -> Verdict:
    """Decide whether A = U B U* for some unitary U, after one common
    scaling of A and B.

    ``auto`` takes the short fixed word lists for sizes 2 and 3 and the
    closure engine otherwise; ``brute`` runs the certified enumeration up to
    the full length bound (subject to the word budget, counted in canonical
    words).  Under the default budget that reaches n = 6: length 23 has
    766,671 necklaces, of which the walk yields 384,359 star classes, and
    a YES walks them all in about 2 s on a 2-core machine.  n = 7 (length
    30, 74,253,543 necklaces) is refused.
    """
    t0 = time.perf_counter()
    _check_pair(A, B)
    _check_engine(engine)
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(A.rows, [(A, B)]))
    return _scaled(_similar(letters, engine, tol, budget, max_length), t0, scale)


def _similar(letters, engine, tol, budget, max_length, max_exponent=None) -> Verdict:
    """The similarity routes on the letters [A, A*] of one pair."""
    t0 = time.perf_counter()
    m = letters.shape[-1]
    if engine == ENGINE_BRUTE:
        length = max_length if max_length is not None else floor_length_bound(m)
        inner = _brute(letters, length, max_exponent, tol, budget)
    elif engine == ENGINE_AUTO and m in (2, 3):
        words = _N2_WORDS if m == 2 else _N3_WORDS
        inner = _fastpath(letters, words, f"fastpath_n{m}", tol)
    else:
        inner = _closure(letters, tol)
    return _finish(inner, t0, "similar")


# --------------------------------------------------------------------------
# simultaneous unitary similarity
# --------------------------------------------------------------------------

def _pairs_letters(stack):
    """The letters [A, A*] of each pair, interleaved and stacked (2, 2 m,
    n, n), from the m pairs' entries stacked as ``stack_pairs`` does."""
    letters = np.empty((2, 2 * stack.shape[1]) + stack.shape[2:], dtype=stack.dtype)
    letters[:, 0::2] = stack
    letters[:, 1::2] = np.conj(stack).swapaxes(-1, -2)
    return letters


def simultaneously_unitarily_similar(
    pairs,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
) -> Verdict:
    """Decide whether one unitary U realizes A_i = U B_i U* for every pair,
    after one common scaling of all the matrices.

    The closure engine spans the multi-letter algebra directly; the brute
    engine encodes the pairs into one gadget pair and runs the certified
    single-pair enumeration on it (word exponents above the gadget's
    nilpotency index are pruned).
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    _check_engine(engine)
    t0 = time.perf_counter()
    n = pairs[0][0].rows
    for a, b in pairs:
        _check_pair(a, b)
        if a.rows != n:
            raise ValueError("all pairs must share one size")
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(n, pairs))
    return _scaled(_pairs(letters, engine, tol, budget, max_length), t0, scale)


def _pairs(letters, engine, tol, budget, max_length) -> Verdict:
    """The simultaneous similarity routes on the letters of m pairs."""
    t0 = time.perf_counter()
    if letters.shape[1] == 2 and engine != ENGINE_BRUTE:
        inner = _similar(letters, engine, tol, budget, max_length)
        return _finish(inner, t0, "pairs")
    if engine == ENGINE_BRUTE:
        pairs = zip(*(as_matrices(side[0::2]) for side in letters))
        ga, gb = build_similarity_gadget(pairs, letters.shape[-1])
        length = floor_length_bound(ga.M.rows) if max_length is None else max_length
        # exponent cap k - 1: the gadgets are nilpotent of index k
        gadget_letters = _pairs_letters(stack_pairs([(ga.M, gb.M)]))
        inner = _brute(gadget_letters, length, ga.layout.k - 1, tol, budget)
        return _finish(inner, t0, "pairs:gadget")
    return _finish(_closure_verdict(letters, tol), t0, "pairs:closure")


# --------------------------------------------------------------------------
# unitary congruence
# --------------------------------------------------------------------------

def _nonsingular(M: Matrix) -> bool:
    """Whether M is nonsingular: an exact determinant in exact mode, one above
    ``_SINGULAR_TOL`` in float mode."""
    det = M.det()
    if M.mode == EXACT:
        return bool(det)
    # callers pass pre-scaled matrices, so an absolute floor is meaningful
    return abs(det) > _SINGULAR_TOL


def unitarily_congruent(
    A: Matrix,
    B: Matrix,
    engine: str = ENGINE_AUTO,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    max_length: int | None = None,
    use_k_gadget: bool = False,
) -> Verdict:
    """Decide whether A = U B U^T for some unitary U, after one common
    scaling of A and B.

    The default route is the S2-only case of ``solve_general``'s real 2n
    letters.  The brute engine tests simultaneous unitary similarity of the
    derived triple (``congruence_triple``), of its first two pairs alone
    when A or B is nonsingular (``_nonsingular``); ``use_k_gadget`` instead
    builds the 4n-by-4n nilpotent gadgets and tests their unitary
    similarity with word exponents capped at 3.  In exact mode that
    route's YES is quick, since the exact intertwiner search settles it
    with no span (0.09 s for a 2-by-2 Gaussian-rational pair (X, X^T)), but
    a NO still fills a 64-dimensional span on the 8-by-8 gadgets: about 2
    s, nearly all of it the exact solve of its certificate, against at most
    0.02 s on the default route (single calls on a 2-core machine).
    """
    t0 = time.perf_counter()
    _check_pair(A, B)
    _check_engine(engine)
    _check_tol(tol)
    if engine != ENGINE_BRUTE and not use_k_gadget:
        scale, letters = _decision(ProblemInstance(A.rows, S2=[(A, B)]))
        inner = _finish(_closure_verdict(letters, tol), t0, "congruence:real2n")
        return _scaled(inner, t0, scale)
    scale, (A, B) = common_scale([A, B])
    inner = _congruent(A, B, engine, tol, budget, max_length, use_k_gadget)
    return _scaled(inner, t0, scale)


def _congruent(A, B, engine, tol, budget, max_length, use_k_gadget) -> Verdict:
    t0 = time.perf_counter()
    if use_k_gadget:
        ka, kb = build_congruence_K(A), build_congruence_K(B)
        letters = _pairs_letters(stack_pairs([(ka, kb)]))
        inner = _similar(letters, engine, tol, budget, max_length, max_exponent=3)
        return _finish(inner, t0, "congruence:K")
    triple = congruence_triple(A, B)
    if _nonsingular(A) or _nonsingular(B):
        triple = triple[:2]  # A or B nonsingular: the first two pairs suffice
    letters = _pairs_letters(stack_pairs(triple))
    inner = _pairs(letters, engine, tol, budget, max_length)
    return _finish(inner, t0, "congruence:triple")


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
    S1, congruence for S2, and the conjugated relations for S3 and S4,
    after one common scaling of every matrix (``scaled_common``).

    A pure-S1 instance is routed through simultaneous similarity directly.
    Anything else goes to the closure on the real 2n-by-2n letters of
    ``real_letter_stack`` (route ``general:real2n``), unless the brute
    engine or ``use_k_gadget`` asks for the paper's reduction: the
    parity-placed gadget pair, whose unitary congruence is equivalent to the
    whole instance (route ``general:gadget``).

    Why the real letters decide the instance.  W = U (+) conj(U) maps a
    matrix L placed at block (1,1), (1,2), (2,1) or (2,2) by L -> W L W*
    to U B U*, U B U^T, conj(U) B U* or conj(U) B U^T, and the letters are
    the parts of T* L T and T* E T (``real_letter_stack``).

    * If U realizes every relation, O = T* W T = [[Re U, -Im U], [Im U,
      Re U]] is real orthogonal and maps every letter.
    * Conversely, take a unitary V that maps the real letter tuples, which
      are closed under transpose.  R(t) = Re V + t Im V intertwines them
      for every real t, and det R(i) = det V != 0, so some real R is
      invertible; R^T R commutes with the letters, so the polar factor of R
      is an orthogonal intertwiner O (real matrices that are unitarily
      similar are orthogonally similar; Horn and Johnson, Matrix Analysis,
      ch. 2).  W = T O T* commutes with J(x, y) = (conj(y), conj(x)), so
      W = [[P, Q], [conj(Q), conj(P)]].  W fixes E, since O fixes
      Re(T* E T) = I / 2 and the letter Im(T* E T); that forces Q = 0, so
      W = P (+) conj(P) with P unitary, and U = P realizes every relation.
    """
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    _check_engine(engine)
    _check_tol(tol)
    t0 = time.perf_counter()
    s1 = inst.counts[1:] == (0, 0, 0)
    if not s1 and (engine == ENGINE_BRUTE or use_k_gadget):
        scale, sinst = inst.scaled_common()
        ga, gb = build_general_gadget(sinst)
        inner = _congruent(ga.M, gb.M, engine, tol, budget, max_length, use_k_gadget)
        route = "general:gadget"
    else:
        scale, letters = _decision(inst)
        if s1:
            inner, route = _pairs(letters, engine, tol, budget, max_length), "general:s1"
        else:
            inner, route = _closure_verdict(letters, tol), "general:real2n"
    return _scaled(_finish(inner, t0, route), t0, scale)


def _decision(inst: ProblemInstance):
    """The common scale and the letters of an instance's default decision,
    in one stacked pass, which ``decision_letters`` views: [A, A*] of each
    pair of a pure-S1 instance, else the real 2n letters."""
    scale, stack = common_scale(stack_pairs(p[2:] for p in inst.pairs()))
    if inst.counts[1:] == (0, 0, 0):
        return scale, _pairs_letters(stack)
    return scale, real_letter_stack(stack, inst.counts)


def decision_letters(inst: ProblemInstance):
    """The two letter lists the default general decision compares, as
    Matrix views of the array its closure reads (``_decision``).

    Deterministic, so certificates can be re-verified from the instance
    alone.  Returns ``(scale, letters_left, letters_right)``.
    """
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    scale, letters = _decision(inst)
    return (scale, *(as_matrices(side) for side in letters))


def verify_witness(inst: ProblemInstance, U: Matrix, tol: float = DEFAULT_TOL) -> bool:
    """Check that one concrete unitary U realizes all four relation families.

    The instance is scaled once, as every decision scales it
    (``scaled_common``), so that its norms and the bounds tol (1 + |A|)
    stay in range; U is not scaled.
    """
    if U.shape != (inst.n, inst.n):
        raise ValueError(f"witness must be {inst.n}x{inst.n}")
    _check_tol(tol)
    _, inst = inst.scaled_common()
    n = inst.n
    eye = identity(n, U.mode)
    # "not <=" so that a NaN defect fails
    if not (U @ U.adjoint() - eye).norm_fro() <= tol * (1.0 + math.sqrt(n)):
        return False
    for set_id, _, a, b in inst.pairs():
        expect = _RELATIONS[set_id](U, b)
        if not (a - expect).norm_fro() <= tol * (1.0 + a.norm_fro()):
            return False
    return True
