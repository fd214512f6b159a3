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
  brute enumeration explodes.  One lockstep loop (``_span_verdict``) makes
  one dependency decision per word: a word dependent on either side is
  dependent on both, so the two spans always have the same dimension.
  ``_closure_verdict`` picks the arithmetic once from the letters' mode:
  float Gram-Schmidt (``float_closure``) or row reduction mod a prime with
  exact checks (``exact_closure``).  Each is one class that owns its
  letters, products, scaling, span, trace check and certificate solve, and
  both take the breadth-first frontier in blocks of up to ``_BLOCK`` words,
  with the verdicts of taking words one at a time.  Each arithmetic first
  searches for an intertwiner of the letters, which answers Equivalent
  with no span.

Everything else reduces to these: simultaneous similarity via block gadgets
or the multi-letter closure, and congruence and the general four-family
problem via the multi-letter closure on real 2n-by-2n letters
(``real_letter_stack``).  The paper's own reduction, parity-placed gadgets
plus congruence through the derived triple or the K gadget, stays the route
of the brute engine and of ``use_k_gadget``.

A decision's letters are built once, right after its one scaling, as one
array (2, a, N, N), side on axis 0, that the closure, its eigenbasis check
and its span read as it is; ``decision_letters`` gives rechecks views of it.
Exact letters are Gaussian integers over one denominator D from the input
on (``_Cleared``): the input's denominators are cleared once, and the
scaling and the letter build work on its integers, so no Gaussian
rational is made on the way; the brute walk and ``decision_letters``
divide by D once (``_values``).  The gadget routes build Gaussian-rational
letters, which the closure clears if it gets them.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .exact_closure import _integer_intertwiner, _ModularSpan, _Unconfirmed
from .float_closure import _aligned_intertwiner, _MappedSpan
from .numerics import (
    EXACT,
    PRIME,
    SQRT_MINUS_ONE,
    GaussianRational,
    Matrix,
    _BLOCK,
    _as_exact,
    _far,
    as_matrices,
    clear_denominators,
    common_scale,
    gaussian_rationals,
    gaussian_residues,
    identity,
    scale_exponent,
    span_primes,
    within,
)
# eval_word and iter_word_traces are not called here; bench/tracing.py wraps
# them by these names
from .words import (
    DEDUP_CYCLIC_STAR,
    Word,
    _check_letters,
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

_SINGULAR_TOL = 1e-10  # |det| above which a pre-scaled float matrix is nonsingular
# a stored trace or residual against its recomputation, which rounding alone
# moves; a recheck's dependent side, with solved coefficients, gets max(10 tol, it)
STORED_TOL = 1e-6


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


def _products(words, letters):
    """The product of each word at the letters, ``eval_word``'s value, as
    an array of the letters' entries (floats, or Gaussian rationals).

    Each distinct prefix is made once, as its longest prefix already made
    times one letter, and a letter is its own product.  The words may come
    in any order, repeat and include the empty word; each alphabet size
    among them is checked first, as ``eval_word`` checks it."""
    for size in dict.fromkeys(w.alphabet_size for w in words):
        _check_letters(letters, size)
    made = {(): identity(letters[0].rows, letters[0].mode).data}
    out = []
    for w in words:
        seq = w.letters()
        k = len(seq)
        while seq[:k] not in made:
            k -= 1
        for j in range(k, len(seq)):
            letter = letters[seq[j]].data
            made[seq[: j + 1]] = made[seq[:j]] @ letter if j else letter
        out.append(made[seq])
    return out


@dataclass(frozen=True)
class TraceCertificate:
    """A word whose traces differ between the two sides."""

    word: Word
    trace_left: object
    trace_right: object

    def recheck(self, letters_left, letters_right, tol: float) -> bool:
        """Re-evaluate the word (``_products``) and confirm the mismatch."""
        tl, tr = (_products([self.word], x)[0].trace() for x in (letters_left, letters_right))
        return bool(
            not _far(tl, self.trace_left, STORED_TOL)
            and not _far(tr, self.trace_right, STORED_TOL)
            and _far(tl, tr, tol)
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
        """Re-evaluate every word (``_products``) and confirm that the
        combination gives the word on the dependent side and fails on the
        other by the stored residual: by ``within`` over float letters,
        exactly over Gaussian-rational ones, as for traces (``_far``)."""
        # as zip pairs them: words past the coefficients take no part
        basis = self.basis_words[: len(self.coefficients)]

        def measured(letters):
            """The word's product and the combination's on one side."""
            target, *products = _products((self.word, *basis), letters)
            coerce = _as_exact if target.dtype == object else complex
            terms = [p * coerce(c) for p, c in zip(products, self.coefficients)]
            return target, sum(terms[1:], terms[0]) if terms else target * coerce(0)

        sides = (letters_left, letters_right)[:: 1 if self.side == "left" else -1]
        (target_dep, combo_dep), (target_other, combo_other) = map(measured, sides)
        if target_dep.dtype == object:  # the residual from the defect's exact square
            denom, (t, c) = clear_denominators(np.stack([target_other, combo_other]))
            squares = sum(x * x for x in (t - c).flat)
            resid = math.sqrt(squares / denom**2)
            held = bool((combo_dep == target_dep).all())
            return held and squares > 0 and resid == self.residual
        norm = np.linalg.norm
        dep_resid, resid = norm(target_dep - combo_dep), norm(target_other - combo_other)
        return bool(
            within(dep_resid, norm(target_dep), max(10 * tol, STORED_TOL))
            and not within(resid, norm(target_other), tol)
            and not _far(resid, self.residual, STORED_TOL)
        )

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


def _finish(verdict: Verdict, route: str) -> Verdict:
    """Put a route's name before the inner route's."""
    verdict.route = route if not verdict.route else f"{route}>{verdict.route}"
    return verdict


def _scaled(verdict: Verdict, t0: float, scale) -> Verdict:
    """Time a public call from t0 and record its one common scale factor.

    Every relation is homogeneous: U realizes it for (A, B) exactly when it
    does for (cA, cB).  So each public decision checks its arguments, scales
    all its matrices once by ``common_scale`` or
    ``ProblemInstance.scaled_common`` (exact letters by the same factor, on
    their integers: ``_decision``), and hands them to scale-free private
    routes, which never call a public decision."""
    verdict.elapsed_s = time.perf_counter() - t0
    verdict.scale = float(scale)
    return verdict


class _Cleared(NamedTuple):
    """Exact letters (2, a, N, N) cleared of denominators: the Gaussian
    integers ``ints`` (2, a, parts, N, N), in the layout of
    ``clear_denominators``, over one D, the lcm of the letters'
    denominators.  ``shape`` is the letters'."""

    denom: int
    ints: np.ndarray

    @property
    def shape(self):
        return self.ints.shape[:2] + self.ints.shape[3:]


def _values(letters):
    """The letters as one array (2, a, N, N): float and Gaussian-rational
    letters as they are, cleared ones as Gaussian rationals, divided by
    their D once."""
    return gaussian_rationals(*letters) if isinstance(letters, _Cleared) else letters


# --------------------------------------------------------------------------
# brute engine
# --------------------------------------------------------------------------

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
    """Integer word-length cutoff for m-by-m matrices: 1 for scalars, which
    are unitarily similar iff they are equal, as the word ``s`` compares
    them."""
    if m < 1:
        raise ValueError(f"bound requires matrix size at least 1, got {m}")
    return 1 if m == 1 else math.floor(pappacena_bound(m))


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
    at once and certify the first word whose traces differ: NotEquivalent
    with that word as its certificate, Equivalent if none does."""
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    _check_budget(max_length, max_exponent, budget, DEDUP_CYCLIC_STAR)
    letters = _values(letters)
    levels = _trace_levels(letters, max_length, max_exponent, DEDUP_CYCLIC_STAR)
    mismatches = (
        TraceCertificate(Word.from_letters(seqs[i], letters.shape[1]), *traces[i].tolist())
        for seqs, traces in levels
        for i in np.flatnonzero(_far(traces[:, 0], traces[:, 1], tol))
    )
    failure = next(mismatches, None)
    tolerance = None if letters.dtype == object else tol
    verdict = Verdict(failure is None, ENGINE_BRUTE, certificate=failure, tolerance=tolerance)
    return _finish(verdict, "brute")


# --------------------------------------------------------------------------
# closure engine
# --------------------------------------------------------------------------

def _span_verdict(spans) -> Verdict:
    """The lockstep closure verdict of one span, ``_MappedSpan`` or
    ``_ModularSpan``, over letters stacked (2, a, N, N).

    Child entry g is basis word g // a times letter g % a.  Entries are
    taken in blocks of consecutive entries whose parents are already in the
    basis, from ``a`` entries up, doubling to ``_BLOCK``, and decided one at
    a time in entry order.  A word that depends on the basis on either side
    is not added, and the same combination must hold on the other side
    (else a DependencyCertificate, and the rest of its block is dropped).
    When no word extends the basis, every basis word's traces must agree
    (else a TraceCertificate).
    """
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
    """The closure verdict on letters stacked (2, a, N, N): exact
    (``exact_closure``) on ``_Cleared`` letters or on Gaussian-rational
    ones, as the gadget routes build them, cleared here; else float
    (``float_closure``), real when no letter has an imaginary part.  The
    arithmetic's intertwiner search runs first, and an intertwiner it finds
    answers Equivalent with no span, so with no ``dimension``.  Else
    ``_span_verdict`` decides, in exact mode mod each prime of
    ``span_primes`` in turn until one raises no ``_Unconfirmed``.  The
    first is the ``PRIME`` of the intertwiner search, so the letters'
    residues mod it are built once for both.
    """
    if isinstance(letters, np.ndarray) and letters.dtype == object:
        letters = _Cleared(*clear_denominators(letters))  # a gadget's letters
    if not isinstance(letters, _Cleared):
        if np.iscomplexobj(letters) and not letters.imag.any():
            letters = np.ascontiguousarray(letters.real)  # a real algebra
        if _aligned_intertwiner(letters, tol) is not None:
            return Verdict(True, ENGINE_CLOSURE, tolerance=tol)
        return _span_verdict(_MappedSpan(letters, tol))
    denom, ints = letters
    image = gaussian_residues(ints, PRIME, SQRT_MINUS_ONE)
    if _integer_intertwiner(ints, image) is not None:
        return Verdict(True, ENGINE_CLOSURE, tolerance=None)
    for p, root in span_primes():
        residues = image if p == PRIME else gaussian_residues(ints, p, root)
        try:
            return _span_verdict(_ModularSpan(ints, denom, residues, p, root))
        except _Unconfirmed:
            pass  # p is bad for these letters: the next prime


def algebra_closure(X: Matrix, Y: Matrix, tol: float = DEFAULT_TOL) -> Verdict:
    """Polynomial-time unitary-similarity decision by lockstep algebra
    spanning, after one common scaling of X and Y.

    Verdicts coincide with the brute trace-word criterion; the agreement is
    enforced by cross-engine tests, not assumed.  An intertwiner found
    before any span is built answers Equivalent (``_closure_verdict``), and
    the verdict then has no ``dimension``.
    """
    t0 = time.perf_counter()
    _check_pair(X, Y)
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(X.rows, [(X, Y)]))
    return _scaled(_finish(_closure_verdict(letters, tol), "closure"), t0, scale)


# --------------------------------------------------------------------------
# unitary similarity
# --------------------------------------------------------------------------

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

    ``auto``, the default, and ``closure`` run the closure engine;
    ``brute`` runs the certified enumeration up to the full length bound
    (subject to the word budget, counted in canonical words).  Under the
    default budget that reaches n = 6: length 23 has 766,671 necklaces, of
    which the walk yields 384,359 star classes, and a YES walks them all
    in about 2 s on a 2-core machine.  n = 7 (length 30, 74,253,543
    necklaces) is refused.
    """
    t0 = time.perf_counter()
    _check_pair(A, B)
    _check_engine(engine)
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(A.rows, [(A, B)]))
    return _scaled(_similar(letters, engine, tol, budget, max_length), t0, scale)


def _similar(letters, engine, tol, budget, max_length, max_exponent=None) -> Verdict:
    """The similarity routes on the letters [A, A*] of one pair."""
    if engine == ENGINE_BRUTE:
        m = letters.shape[-1]
        length = max_length if max_length is not None else floor_length_bound(m)
        inner = _brute(letters, length, max_exponent, tol, budget)
    else:
        inner = _finish(_closure_verdict(letters, tol), "closure")
    return _finish(inner, "similar")


# --------------------------------------------------------------------------
# simultaneous unitary similarity
# --------------------------------------------------------------------------

def _pairs_letters(stack):
    """The letters [A, A*] of each pair, interleaved and stacked (2, 2 m,
    n, n), from the m pairs' entries stacked as ``stack_pairs`` does; or,
    from Gaussian integers stacked (2, m, parts, n, n) in the layout of
    ``clear_denominators``, the letters' Gaussian integers (2, 2 m, parts,
    n, n)."""
    letters = np.empty((2, 2 * stack.shape[1]) + stack.shape[2:], dtype=stack.dtype)
    letters[:, 0::2] = stack
    if stack.ndim == 5:  # Gaussian integers, one axis for the parts
        letters[:, 1::2] = stack.swapaxes(-1, -2)
        letters[:, 1::2, 1:] *= -1  # the imaginary parts, if any
    else:
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

    One pair takes the routes of ``unitarily_similar``.  For more, the
    closure engine spans the multi-letter algebra directly; the brute
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
    if letters.shape[1] == 2:
        return _finish(_similar(letters, engine, tol, budget, max_length), "pairs")
    if engine == ENGINE_BRUTE:
        pairs = zip(*(as_matrices(side[0::2]) for side in _values(letters)))
        ga, gb = build_similarity_gadget(pairs, letters.shape[-1])
        length = floor_length_bound(ga.M.rows) if max_length is None else max_length
        # exponent cap k - 1: the gadgets are nilpotent of index k
        gadget_letters = _pairs_letters(stack_pairs([(ga.M, gb.M)]))
        inner = _brute(gadget_letters, length, ga.layout.k - 1, tol, budget)
        return _finish(inner, "pairs:gadget")
    return _finish(_closure_verdict(letters, tol), "pairs:closure")


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
    with no span, lifted mod two primes (about 8 ms for a 2-by-2
    Gaussian-rational pair (X, X^T)), but a NO still fills a 64-dimensional
    span on the 8-by-8 gadgets: about 0.1 s, three quarters of it the
    p-adic lift of its certificate, against at most 0.02 s on the default
    route (single calls on a 2-core machine).
    """
    t0 = time.perf_counter()
    _check_pair(A, B)
    _check_engine(engine)
    _check_tol(tol)
    if engine != ENGINE_BRUTE and not use_k_gadget:
        scale, letters = _decision(ProblemInstance(A.rows, S2=[(A, B)]))
        inner = _finish(_closure_verdict(letters, tol), "congruence:real2n")
        return _scaled(inner, t0, scale)
    scale, (A, B) = common_scale([A, B])
    inner = _congruent(A, B, engine, tol, budget, max_length, use_k_gadget)
    return _scaled(inner, t0, scale)


def _congruent(A, B, engine, tol, budget, max_length, use_k_gadget) -> Verdict:
    if use_k_gadget:
        ka, kb = build_congruence_K(A), build_congruence_K(B)
        letters = _pairs_letters(stack_pairs([(ka, kb)]))
        inner = _similar(letters, engine, tol, budget, max_length, max_exponent=3)
        return _finish(inner, "congruence:K")
    triple = congruence_triple(A, B)
    if _nonsingular(A) or _nonsingular(B):
        triple = triple[:2]  # A or B nonsingular: the first two pairs suffice
    letters = _pairs_letters(stack_pairs(triple))
    inner = _pairs(letters, engine, tol, budget, max_length)
    return _finish(inner, "congruence:triple")


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
    return _scaled(_finish(inner, route), t0, scale)


def _decision(inst: ProblemInstance):
    """The common scale and the letters of an instance's default decision,
    in one stacked pass, which ``decision_letters`` views: [A, A*] of each
    pair of a pure-S1 instance, else the real 2n letters.

    Exact letters come as Gaussian integers over one D (``_Cleared``),
    built from the instance's own: its denominators are cleared once, the
    scaling by 2^-e (``common_scale``'s factor, from ``scale_exponent``)
    multiplies D by 2^e, the halves of the real letters a factor 2 more,
    and D and the letters are divided by the gcd of D and every entry, so
    that D is the lcm of the letters' denominators, as clearing the
    Gaussian-rational letters would give it."""
    stack = stack_pairs(p[2:] for p in inst.pairs())
    s1 = inst.counts[1:] == (0, 0, 0)
    if stack.dtype != object:
        scale, stack = common_scale(stack)
        return scale, _pairs_letters(stack) if s1 else real_letter_stack(stack, inst.counts)
    denom, ints = clear_denominators(stack)
    e = scale_exponent(denom, ints)
    denom <<= e
    if s1:
        letters = _pairs_letters(ints)
    else:
        letters, denom = real_letter_stack(ints, inst.counts, denom), 2 * denom
    g = math.gcd(denom, *letters.flat)
    return Fraction(1, 1 << e), _Cleared(denom // g, letters // g if g > 1 else letters)


def decision_letters(inst: ProblemInstance):
    """The two letter lists the default general decision compares, as
    Matrix views of the array its closure reads (``_decision``).

    Deterministic, so certificates can be re-verified from the instance
    alone.  Returns ``(scale, letters_left, letters_right)``.
    """
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    scale, letters = _decision(inst)
    return (scale, *(as_matrices(side) for side in _values(letters)))


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
    if not within((U @ U.adjoint() - identity(n, U.mode)).norm_fro(), math.sqrt(n), tol):
        return False
    return all(
        within((a - _RELATIONS[set_id](U, b)).norm_fro(), a.norm_fro(), tol)
        for set_id, _, a, b in inst.pairs()
    )
