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
  span, trace check and certificate solve: float Gram-Schmidt
  (``_MappedSpan``), real when the letters are, which takes the
  breadth-first frontier in blocks of up to ``_BLOCK`` words, and exact
  fraction-free row reduction over the Gaussian integers after one
  denominator clearing (``_IntegerSpan``), one word at a time.  Verdicts,
  certificate words and dimensions are those of taking words one at a
  time.  Before a float span is built, one eigenbasis alignment of the
  letters looks for a unitary intertwiner (``_aligned_intertwiner``): the
  eigenvectors of one complex Hermitian combination of each side's
  letters, real letters included, matched up to one unit phase each, with
  no phase carried along an edge within the tolerance.  When it finds
  one, the answer is Equivalent with no span.  Before an exact span is
  built, the letters cleared of denominators are searched for an
  invertible integer intertwiner (``_integer_intertwiner``): arithmetic
  mod a prime only rules one out, by the spectra of the letters, which an
  invertible intertwiner keeps, and then by the rank of the stacked
  linear system; else up to three fixed combinations of an integer
  nullspace basis are tried, and one that maps every letter exactly and
  has a nonzero determinant answers Equivalent with no span.

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
    identity,
    independent_rows_mod_p,
    integer_det,
    integer_nullspace,
    intertwiner_operator,
    power_traces_differ_mod_p,
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


def _check_budget(max_length, max_exponent, budget):
    """Refuse a walk over the words in two letters up to ``max_length``
    when their count exceeds ``budget``."""
    count = word_count(2, max_length, max_exponent)
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
    can still certify NotEquivalent.  Refuses to start when the word count
    would exceed ``budget``.
    """
    t0 = time.perf_counter()
    _check_pair(X, Y)
    _check_tol(tol)
    scale, letters = _decision(ProblemInstance(X.rows, [(X, Y)]))
    return _scaled(_brute(letters, max_length, max_exponent, tol, budget), t0, scale)


def _brute(letters, max_length, max_exponent, tol, budget) -> Verdict:
    t0 = time.perf_counter()
    if max_length < 1:
        raise ValueError(f"max_length must be at least 1, got {max_length}")
    _check_budget(max_length, max_exponent, budget)
    stream = iter_word_traces(letters, max_length, max_exponent, DEDUP_CYCLIC_STAR)
    verdict = _trace_verdict(stream, ENGINE_BRUTE, letters.dtype == object, tol)
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


# draw t combines a nullspace basis v as sum_j c_j v_j, c_j = t^((j + 1)^2)
# mod 1009: small, and with no pattern such as t^j, which over the standard
# basis of a full matrix space gives a rank-one R
_DRAWS = (2, 3, 5)


def _maps(r, x, y) -> bool:
    """Whether R x = y R for Gaussian-integer matrices in the layout of
    ``clear_denominators``."""
    left, right = np.empty_like(r), np.empty_like(r)
    gaussian_matmul(r, x, left)
    gaussian_matmul(y, r, right)
    return bool((left == right).all())


def _integer_intertwiner(ints):
    """An invertible R with R L_k = L'_k R on every letter of two stacked
    Gaussian-integer letter lists (2, a, parts, N, N), in the layout of
    ``clear_denominators``, as R's parts; None if this finds none, which
    proves nothing.

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
    2. Else if the stacked maps R -> L'_k R - R L_k
       (``intertwiner_operator``) have full column rank mod p
       (``independent_rows_mod_p``), None too.  A trace or minor that is
       nonzero mod p is nonzero over the Gaussian integers, so p only ever
       rules an R out.
    3. Else the rows independent mod p, which are independent over Q(i),
       give an integer basis v of the nullspace (``integer_nullspace``) of
       their equations over the integers: on vec R for real letters, and
       on [vec X; vec Y], the real and imaginary parts of each equation,
       for R = X + iY over complex ones.  R is a fixed combination of v
       for each t in ``_DRAWS`` (one draw if v has one vector), returned at
       the first draw that maps every letter exactly and whose
       determinant, of [[X, -Y], [Y, X]] over complex letters, is nonzero
       (``integer_det``).
    """
    a, parts, size = ints.shape[1:4]
    image = ints[:, :, 0] if parts == 1 else ints[:, :, 0] + SQRT_MINUS_ONE * ints[:, :, 1]
    image = (image % PRIME).astype(np.int64)
    if power_traces_differ_mod_p(image):
        return None
    taken = independent_rows_mod_p(intertwiner_operator(image[1], image[0]))
    if taken is None:
        return None
    flat = ints.reshape(2, a * parts, size, size)
    ops = intertwiner_operator(flat[1], flat[0]).reshape((a, parts) + (size * size,) * 2)
    if parts == 2:  # each equation's real and imaginary part on [vec X; vec Y]
        re, im = ops[:, 0], ops[:, 1]
        ops = np.stack([np.concatenate(h, axis=-1) for h in ((re, -im), (im, re))], axis=1)
    rows = ops[[k for k, _ in taken], :, [i for _, i in taken]]
    null = integer_nullspace(rows.reshape(-1, ops.shape[-1]))
    left, right = ints
    for t in _DRAWS if len(null) > 1 else _DRAWS[:1]:
        r = sum(pow(t, (j + 1) ** 2, 1009) * v for j, v in enumerate(null))
        r = r.reshape(parts, size, size).swapaxes(1, 2)  # vec is column-major
        square = r[0] if parts == 1 else np.block([[r[0], -r[1]], [r[1], r[0]]])
        if all(_maps(r, x, y) for x, y in zip(left, right)) and integer_det(square):
            return r
    return None


class _MappedSpan:
    """Float arithmetic of the closure: both sides' spans, stacked on axis 0
    (0 left, 1 right).  The letters, the empty word's product I and every
    stored vector share one dtype.  Each child pair is divided by its joint
    norm (a pair of norm 0 is dropped), and traces are
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
        self.dim, self.tol, self.cap, self.d = n * n, tol, _BLOCK, 0
        self.letters = letters
        self.eye = np.broadcast_to(np.eye(n, dtype=letters.dtype), (2, 1, n, n))
        self.prods = letters[:, :0]  # each basis word's product
        self.qm = np.empty((2, 0, 2 * self.dim), dtype=letters.dtype)

    @staticmethod
    def scaled(origin, prods, nus):
        """Divide each child pair by its joint norm, carried in nu."""
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

    def products(self, origin):
        """Both sides' products of the entries ``(parent, letter)``."""
        parents, ks = zip(*origin)
        return np.matmul(self.prods[:, list(parents)], self.letters[:, list(ks)])

    def project(self, block):
        """Start a block of child products, shaped (2, words, n, n)."""
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
        self._children = block
        self._block = (d, vn, dep_tol.T.tolist(), rd, rn.T.tolist())

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
        """Norm of row j's transfer defect on the other side, None within
        tol."""
        resid = _norm(self._block[3][side, j, self.dim :])
        if resid <= self.tol * (1.0 + self._block[1][1 - side, j]):
            return None
        return resid

    def coeffs(self, j: int, side: int):
        """Row j's coefficients over the basis products on ``side``."""
        q = np.conj(self.qm[side, : self.d, : self.dim])
        p = self.prods[side, : self.d].reshape(self.d, self.dim)
        return np.linalg.solve(q @ p.T, q @ self._children[side, j].ravel())

    def add(self, j: int):
        """Add row j on both sides."""
        d = self.d
        np.divide(self._block[3][:, j], np.array(self._rn)[:, None], out=self.qm[:, d])
        self.prods[:, d] = self._children[:, j]
        self.d = d + 1

    def trace_mismatch(self, nus):
        """The first basis index whose traces, times its nu, differ beyond
        tol, with both traces; None if every basis word's agree."""
        tl, tr = np.trace(self.prods[:, : self.d], axis1=-2, axis2=-1) * np.array(nus)
        # not _close(tl, tr, tol), entry by entry
        bad = np.flatnonzero(~(np.abs(tl - tr) <= self.tol * (1.0 + np.abs(tl))))
        if not len(bad):
            return None
        i = int(bad[0])
        return i, (tl[i], tr[i])


class _IntegerSpan:
    """Exact arithmetic of the closure: both sides' spans over the Gaussian
    integers, one word per block.

    The letters and the empty word's I are cleared of denominators once: D
    is the lcm of every entry's denominator over both sides, so a word of
    length L is scaled by D^L on both sides alike, which changes no
    dependency and no trace equality.  Products are Gaussian integer
    matrices in the layout of ``clear_denominators``, taken one at a time
    (a stacked object-array matmul costs more than it saves); each child
    pair is divided by its joint content g, with g / D carried in nu (a
    pair of content 0 is dropped), and traces are compared as integers.

    A word's vector is its integer product, the real part followed by the
    imaginary part if the letters have one.  Each side stores its basis
    vectors joined to their mirrors, the other side's vectors, as
    [self | other] rows of Python ints.  A new row is reduced fraction-free,
    x <- p x - f row against each earlier row with pivot entry p, and then
    divided by its content, so one elimination updates both halves and no
    scalar is a fraction.  A word depends on a side's basis iff its self
    half reduces to zero, and the same combination holds on the other side
    iff its mirror half is zero too.  Over complex letters each basis word
    also brings i times its vector, so the integer span of the rows is the
    complex span of the words.  Coefficients are solved only for a
    certificate, by Bareiss elimination on the basis rows' pivot columns.
    The closure spans only when ``_integer_intertwiner`` finds no
    intertwiner of the cleared letters first.
    """

    cap = 1  # exact mode decides every word on its own

    def __init__(self, letters):
        a, n = letters.shape[1], letters.shape[-1]
        # the identity, cleared with the letters, is D I: the empty word's
        # nu comes out as D / D = 1
        eye = identity(n, EXACT)
        mats = as_matrices(letters.reshape(2 * a, n, n)) + [eye]
        self.denom, ints = clear_denominators(mats)
        self.letters = ints[:-1].reshape((2, a) + ints.shape[1:])
        self.eye = np.broadcast_to(ints[-1], (2, 1) + ints.shape[1:])
        self.prods = self.letters[:, :0]  # each basis word's product
        self.parts = ints.shape[1]  # 2 if the vectors carry an imaginary part
        self.dim, self.half, self.d = n * n, self.parts * n * n, 0
        self.rows = ([], [])  # (pivot, reduced [self | other]) per side
        self.raw = ([], [])  # each row's [self | other] before reduction

    def scaled(self, origin, prods, nus):
        """Divide each child pair by its joint content g, carried in nu with
        the cleared denominator: nu_child = nu_parent g / D."""
        g = [math.gcd(*prods[:, k].flat) for k in range(prods.shape[1])]
        keep = [k for k, gk in enumerate(g) if gk]  # else the word vanishes
        if len(keep) < len(g):  # on both sides at once
            origin = [origin[k] for k in keep]
            nus, g = [nus[k] for k in keep], [g[k] for k in keep]
            prods = prods[:, keep]
        nus = [Fraction(nu * gk, self.denom) for nu, gk in zip(nus, g)]
        return origin, prods // np.array(g, dtype=object).reshape(1, -1, 1, 1, 1), nus

    def products(self, origin):
        """Both sides' products of the entries ``(parent, letter)``."""
        block = np.empty((2, len(origin)) + self.prods.shape[2:], dtype=object)
        for j, (parent, k) in enumerate(origin):
            for s in (0, 1):
                gaussian_matmul(self.prods[s, parent], self.letters[s, k], block[s, j])
        return block

    def project(self, block):
        """Start a block of child products, shaped (2, words, parts, n, n)."""
        self.prods = _grown(self.prods, self.d + block.shape[1], self.dim)
        self._children = block
        v = block.reshape(2, block.shape[1], self.half)
        self._block = np.concatenate((v, v[::-1]), axis=2)

    def _reduced(self, side: int, x):
        for pivot, row in self.rows[side]:
            f = x[pivot]
            if f:
                x = row[pivot] * x - f * row
        g = math.gcd(*x)
        return x // g if g > 1 else x

    def reduce(self, j: int):
        """Both sides' dependency flags for row j: a zero self half."""
        self._x = [self._reduced(s, self._block[s, j]) for s in (0, 1)]
        return [not any(x[: self.half]) for x in self._x]

    def mismatch(self, j: int, side: int):
        """Norm of row j's transfer defect on the other side, None if its
        mirror half is zero."""
        h = self.half
        if not any(self._x[side][h:]):
            return None
        raw, x = self.raw[side], self._block[side, j]
        pivots = [pivot for pivot, _ in self.rows[side]]
        nums, det = bareiss_solve([[r[p] for r in raw] for p in pivots], x[pivots])
        defect = det * x[h:] - sum(c * r[h:] for c, r in zip(nums, raw))
        self._coeffs = [Fraction(c, det) for c in nums]
        return math.sqrt(Fraction(sum(e * e for e in defect), det * det))

    def coeffs(self, j: int, side: int):
        """The coefficients ``mismatch`` solved for, one per basis word."""
        c, k = self._coeffs, self.parts  # over complex letters (re, im)
        return [GaussianRational(*c[i : i + k]) for i in range(0, len(c), k)]

    def add(self, j: int):
        """Add row j on both sides, and i times it over complex letters."""
        self.prods[:, self.d] = self._children[:, j]
        self.d += 1
        for side in (0, 1):
            x = self._block[side, j]
            self._push(side, self._x[side], x)
            if self.parts == 2:  # [re | im] -> [-im | re] in both halves
                y = x.reshape(2, 2, -1)
                ix = np.concatenate((-y[:, 1:], y[:, :1]), axis=1).reshape(-1)
                self._push(side, self._reduced(side, ix), ix)

    def _push(self, side: int, reduced, raw):
        pivot = next(k for k in range(self.half) if reduced[k])
        self.rows[side].append((pivot, reduced))
        self.raw[side].append(raw)

    def trace_mismatch(self, nus):
        """The first basis index whose traces differ, with both traces times
        its nu as Gaussian rationals; None if every basis word's are equal."""
        tl, tr = np.trace(self.prods[:, : self.d], axis1=-2, axis2=-1).tolist()
        i = next((i for i in range(self.d) if tl[i] != tr[i]), None)
        if i is None:
            return None
        nu = nus[i]
        return i, tuple(GaussianRational(*(nu * part for part in t[i])) for t in (tl, tr))


def _closure_verdict(letters, tol) -> Verdict:
    """Span the algebras generated by the two sides' letters, stacked (2,
    a, N, N), in lockstep: exact over Gaussian rationals, else real when no
    letter has an imaginary part, else complex.

    A span stores each word's product divided by a factor carried in
    ``nu``, so nu times a stored product is the word's value: certificate
    coefficients are nu c / nu_basis and traces nu tr.  Child entry g is
    basis word g // a times letter g % a.  Entries are taken in blocks of
    consecutive entries whose parents are already in the basis, from ``a``
    entries up, doubling to the span's cap, and decided one at a time in
    entry order.  A word that depends on the basis on either side is not
    added, and the same combination must hold on the other side (else a
    DependencyCertificate, and the rest of its block is dropped).  When no
    word extends the basis, every basis word's traces must agree (else a
    TraceCertificate).

    Float letters are first handed to ``_aligned_intertwiner``, and exact
    letters, once ``_IntegerSpan`` has cleared their denominators, to
    ``_integer_intertwiner``: if either finds an intertwiner, the verdict
    is Equivalent with no span built, so its ``dimension`` is None.  Both
    can only answer Equivalent, and otherwise the span decides as above.
    """
    exact = letters.dtype == object
    if exact:
        spans = _IntegerSpan(letters)
        if _integer_intertwiner(spans.letters) is not None:
            return Verdict(True, ENGINE_CLOSURE, tolerance=None)
    else:
        if np.iscomplexobj(letters) and not letters.imag.any():
            letters = np.ascontiguousarray(letters.real)  # a real algebra
        if _aligned_intertwiner(letters, tol) is not None:
            return Verdict(True, ENGINE_CLOSURE, tolerance=tol)
        spans = _MappedSpan(letters, tol)
    a = letters.shape[1]
    # each basis word's (parent, letter), and the factor its product dropped
    sources, nus = [], []

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

    def certify(source, nu, j, side, resid):
        """The certificate of row j's transfer failing on ``side``."""
        coeffs = spans.coeffs(j, side)
        words = basis_words()
        return DependencyCertificate(
            word_of(source, words),
            tuple(words),
            tuple(nu * c / b for c, b in zip(coeffs, nus)),
            float(nu * resid),
            ("left", "right")[side],
        )

    def extend(origin, block, scales):
        """Decide a block of child pairs in entry order; a certificate if a
        transfer fails."""
        spans.project(block)
        for j, source in enumerate(origin):
            deps = spans.reduce(j)
            for side in (0, 1):
                resid = spans.mismatch(j, side) if deps[side] else None
                if resid is not None:
                    return certify(source, scales[j], j, side, resid)
            if not (deps[0] or deps[1]):
                spans.add(j)
                sources.append(source)
                nus.append(scales[j])
        return None

    failure = extend(*spans.scaled([None], spans.eye, [1]))
    g, size = 0, a
    while failure is None and g < len(sources) * a:
        stop = min(g + min(size, spans.cap), len(sources) * a)
        origin = [divmod(e, a) for e in range(g, stop)]
        block = spans.products(origin)
        failure = extend(*spans.scaled(origin, block, [nus[k] for k, _ in origin]))
        g, size = stop, 2 * size
    if failure is None:
        mismatch = spans.trace_mismatch(nus)
        if mismatch is not None:
            i, traces = mismatch
            failure = TraceCertificate(basis_words()[i], *traces)
    return Verdict(
        failure is None,
        ENGINE_CLOSURE,
        certificate=failure,
        tolerance=None if exact else tol,
        dimension=len(sources),
    )


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
    the full length bound (subject to the word budget).
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
    a NO still fills a 64-dimensional integer span on the 8-by-8 gadgets
    and took 56 s, against at most 0.02 s on the default route (single
    calls on a 2-core machine).
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
