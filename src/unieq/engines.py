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
  dependent on both, so the two spans always have the same dimension.

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

class _MappedSpan:
    """Float span: orthonormal primary-side vectors whose elimination recipe
    is replayed on mirror vectors from the other side.

    A dependent primary vector has coordinates y in the orthonormal rows;
    ``predict(y)`` is the combination of mirror rows with the very same
    coefficients, so the transfer check never solves a triangular system and
    stays at Gram-Schmidt accuracy.  The R-inverse is kept only to express
    certificate coefficients over the original basis.
    """

    def __init__(self, dim: int, mirror_dim: int, tol: float):
        self.dim = dim
        self.tol = tol
        self.q = np.zeros((dim, dim), dtype=np.complex128)
        self.qc = np.zeros((dim, dim), dtype=np.complex128)  # conj(q) rows
        self.mirror = np.zeros((dim, mirror_dim), dtype=np.complex128)
        self.rinv = np.zeros((dim, dim), dtype=np.complex128)
        self.d = 0

    @staticmethod
    def _norm(v) -> float:
        return math.sqrt(float(np.vdot(v, v).real))

    def reduce(self, v):
        """``(dependent, coordinates, residual)``; dependent within DEP_TOL."""
        d = self.d
        vn = self._norm(v)
        q, qc = self.q[:d], self.qc[:d]
        y = qc @ v
        r = v - y @ q
        rn = self._norm(r)
        if rn < 0.5 * vn:  # cancellation: reorthogonalize once
            y2 = qc @ r
            y = y + y2
            r = r - y2 @ q
            rn = self._norm(r)
        return rn <= DEP_TOL * (1.0 + vn), y, r

    def predict(self, y):
        """Mirror-side combination with the same coordinates."""
        return y @ self.mirror[: self.d]

    def mismatch(self, vmirror, y):
        """Norm of the transfer defect on the mirror side, None within tol."""
        resid = self._norm(vmirror - self.predict(y))
        if resid <= self.tol * (1.0 + self._norm(vmirror)):
            return None
        return resid

    def coeffs(self, y):
        d = self.d
        return self.rinv[:d, :d] @ y

    def add(self, vmirror, y, rvec):
        d = self.d
        if d >= self.dim:
            raise RuntimeError("span exceeded ambient dimension")
        rnorm = self._norm(rvec)
        self.q[d] = rvec / rnorm
        self.qc[d] = np.conj(self.q[d])
        self.mirror[d] = (vmirror - self.predict(y)) / rnorm
        self.rinv[:d, d] = -(self.rinv[:d, :d] @ y) / rnorm
        self.rinv[d, d] = 1.0 / rnorm
        self.d += 1


class _ExactSpan:
    """Exact span: row-reduced vectors over Gaussian rationals with
    coefficient recovery, beside the raw mirror vectors of the other side."""

    def __init__(self):
        self.rows = []  # (pivot index, pivot-normalized vector, expansion)
        self.mirror = []  # raw mirror vector of each basis word

    def reduce(self, v):
        """``(dependent, elimination factors, residual)``; dependent means an
        exactly zero residual."""
        r = list(v)
        alphas = []
        for pivot, vec, _ in self.rows:
            f = r[pivot]
            alphas.append(f)
            if f:
                r = [ri - f * vi for ri, vi in zip(r, vec)]
        return all(not e for e in r), alphas, r

    def mismatch(self, vmirror, alphas):
        """Norm of the transfer defect on the mirror side, None if it is 0."""
        defect = list(vmirror)
        for c, raw in zip(self.coeffs(alphas), self.mirror):
            if c:
                defect = [o - c * e for o, e in zip(defect, raw)]
        if not any(defect):
            return None
        return math.sqrt(float(sum(e.abs_sq() for e in defect)))

    def coeffs(self, alphas):
        d = len(self.rows)
        out = [GaussianRational(0)] * d
        for i, (_, _, expansion) in enumerate(self.rows):
            f = alphas[i]
            if f:
                for j, t in enumerate(expansion):
                    out[j] = out[j] + f * t
        return out

    def add(self, vmirror, alphas, reduced):
        pivot = next(k for k, e in enumerate(reduced) if e)
        p = reduced[pivot]
        vec = [e / p for e in reduced]
        d = len(self.rows)
        expansion = [GaussianRational(0)] * (d + 1)
        expansion[d] = GaussianRational(1)
        for i, (_, _, older) in enumerate(self.rows):
            f = alphas[i]
            if f:
                for j, t in enumerate(older):
                    expansion[j] = expansion[j] - f * t
        expansion = [t / p for t in expansion]
        self.rows.append((pivot, vec, expansion))
        self.mirror.append(list(vmirror))


def _unit_pair(p, q, nu):
    """Float step: divide a child pair by its joint norm, carried in nu."""
    nraw = math.sqrt(float(np.vdot(p, p).real + np.vdot(q, q).real))
    if nraw <= _ZERO_PAIR_EPS:
        return None  # the word vanishes on both sides at once
    return p / nraw, q / nraw, nu * nraw


def _raw_pair(p, q, nu):
    """Exact step: keep the raw product."""
    if not any(p.flat) and not any(q.flat):
        return None
    return p, q, nu


def _closure_decide(letters_x, letters_y, tol):
    """Span the algebras generated by two letter lists in lockstep.

    One breadth-first loop serves both arithmetic modes: float spans
    (``_MappedSpan``, pairs scaled to unit joint norm, ``nu`` carrying the
    dropped factor) and exact spans (``_ExactSpan``, raw products).  Each
    word gets one dependency decision shared by both sides: if it depends on
    the basis on either side, the same combination must hold on the other
    side (else a DependencyCertificate), and the word is not added.  When no
    word extends the basis, every basis word's traces must agree (else a
    TraceCertificate).  Returns ``(equivalent, certificate, dimension)``.
    """
    mode = letters_x[0].mode
    a = len(letters_x)
    lx = [m.data for m in letters_x]
    ly = [m.data for m in letters_y]
    nx, ny = letters_x[0].rows, letters_y[0].rows
    if mode == EXACT:
        tx, ty, step = _ExactSpan(), _ExactSpan(), _raw_pair
    else:
        tx = _MappedSpan(nx * nx, ny * ny, tol)
        ty = _MappedSpan(ny * ny, nx * nx, tol)
        step = _unit_pair
    basis = []  # (word, left product, right product, nu)

    def extend(word, p, q, nu):
        """Reduce one word on both sides; a certificate if a transfer fails."""
        vx, vy = p.ravel(), q.ravel()
        depx, yx, rx = tx.reduce(vx)
        depy, yy, ry = ty.reduce(vy)
        for dep, span, y, vmirror, side in (
            (depx, tx, yx, vy, "left"),
            (depy, ty, yy, vx, "right"),
        ):
            if dep:
                resid = span.mismatch(vmirror, y)
                if resid is not None:
                    coeffs = tuple(
                        nu * c / b[3] for c, b in zip(span.coeffs(y), basis)
                    )
                    words = tuple(b[0] for b in basis)
                    return DependencyCertificate(
                        word, words, coeffs, float(nu * resid), side
                    )
        if not (depx or depy):
            tx.add(vy, yx, rx)
            ty.add(vx, yy, ry)
            basis.append((word, p, q, nu))
        return None

    seed = step(identity(nx, mode).data, identity(ny, mode).data, 1)
    extend(empty_word(a), *seed)
    i = 0
    while i < len(basis):
        word, p, q, nu = basis[i]
        for letter in range(a):
            child = step(p @ lx[letter], q @ ly[letter], nu)
            if child is None:
                continue
            failure = extend(word.append_letter(letter), *child)
            if failure is not None:
                return False, failure, len(basis)
        i += 1

    for word, p, q, nu in basis:
        tl, tr = nu * np.trace(p), nu * np.trace(q)
        if not _close(tl, tr, tol):
            return False, TraceCertificate(word, tl, tr), len(basis)
    return True, None, len(basis)


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


def multi_word_screener(
    pairs,
    max_length: int,
    max_exponent: int | None = None,
    tol: float = DEFAULT_TOL,
    budget: int = DEFAULT_BUDGET,
    prescale: bool = True,
) -> Verdict | None:
    """Necessary-condition scan over words in 2m letters (one letter per
    matrix and per adjoint).  Returns a NotEquivalent verdict on the first
    trace mismatch and None otherwise; it can never certify equivalence.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    t0 = time.perf_counter()
    scale = 1.0
    if prescale:
        mats = [m for p in pairs for m in p]
        scale, scaled = common_scale(mats)
        pairs = list(zip(scaled[0::2], scaled[1::2]))
    exact = pairs[0][0].mode == EXACT
    count = word_count(2 * len(pairs), max_length, max_exponent)
    if count > budget:
        raise BudgetExceededError(
            f"screener needs {count} words, budget is {budget}"
        )
    lx, ly = _pairs_letters(pairs)
    for word, (tl, tr) in iter_word_traces(
        [lx, ly], max_length, max_exponent, dedup=DEDUP_CYCLIC_STAR
    ):
        if not _close(tl, tr, tol):
            verdict = Verdict(
                False,
                ENGINE_BRUTE,
                certificate=TraceCertificate(word, tl, tr),
                tolerance=None if exact else tol,
            )
            return _finish(verdict, t0, scale, "screener")
    return None


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
