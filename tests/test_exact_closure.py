"""The exact closure: verdicts pinned against a golden file, and the cases
that denominator clearing and content division must get right.

``tests/data/exact_verdicts.json`` holds the verdict JSON (without
``elapsed_s``) of a fixed set of Gaussian-rational instances: one pair of
S1, S2, S3 or S4 at n = 1 and 2 with an exact unitary witness (YES), the
same with 1/2 added to one entry of A (NO), two S1 pairs at n = 3, one
S2 pair at n = 3 whose intertwiner is too large to lift from its
residues (``givens_pair``), with its NO twin, and two hard NOs whose
certificates need many p-adic digits or a large span: the twin at n = 4
and ``hard_no(3, 5)``.
Regenerate it with ``PYTHONPATH=src python tests/test_exact_closure.py``
only when a verdict is meant to change.
"""

import itertools
import json
import math
from dataclasses import replace
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from unieq import (
    DependencyCertificate,
    GaussianRational,
    Matrix,
    ProblemInstance,
    TraceCertificate,
    algebra_closure,
    build_congruence_K,
    common_scale,
    decision_letters,
    engines,
    eval_word,
    make_yes_instance,
    perturb_to_no,
    simultaneously_unitarily_similar,
    solve_general,
    unitarily_congruent,
)
from unieq.numerics import PRIME, gaussian_rationals, span_primes

import test_engines
from conftest import rat_matrix
from test_engines import ROADMAP_SHAPES, _exact_instance, _spanned, spy_solves

GR = GaussianRational
GOLDEN = Path(__file__).parent / "data" / "exact_verdicts.json"


def _unitaries(n):
    """Gaussian-rational unitaries, taken cyclically by the k-th case."""
    if n == 1:
        return [
            Matrix.from_rational([[GR(Fraction(3, 5), Fraction(4, 5))]]),
            Matrix.from_rational([[GR(0, 1)]]),
        ]
    if n == 2:
        return [
            Matrix.from_rational([[GR(0), GR(0, 1)], [GR(1), GR(0)]]),
            Matrix.from_rational(
                [[GR(Fraction(5, 13)), GR(0, Fraction(12, 13))],
                 [GR(0, Fraction(12, 13)), GR(Fraction(5, 13))]]
            ),
        ]
    one, zero = GR(1), GR(0)
    r01 = Matrix.from_rational(
        [[GR(Fraction(3, 5)), GR(0, Fraction(4, 5)), zero],
         [GR(0, Fraction(4, 5)), GR(Fraction(3, 5)), zero],
         [zero, zero, one]]
    )
    r12 = Matrix.from_rational(
        [[one, zero, zero],
         [zero, GR(Fraction(5, 13)), GR(Fraction(-12, 13))],
         [zero, GR(Fraction(12, 13)), GR(Fraction(5, 13))]]
    )
    return [r01 @ r12]


def _gaussian_integer_matrix(rng, n):
    """Entries a + b i with a, b in {+-2, +-3} (n = 1) or {+-2, ..., +-5}
    (n = 2), no two of equal modulus, so the span is generic."""
    top = 4 if n == 1 else 6

    def part():
        return int(rng.integers(2, top)) * (1 if rng.integers(2) else -1)

    while True:
        entries = [GR(part(), part()) for _ in range(n * n)]
        if len({e.abs_sq() for e in entries}) == n * n:
            rows = [entries[i * n : (i + 1) * n] for i in range(n)]
            return Matrix.from_rational(rows)


def _relation(set_id, u):
    ubar = u.conj()
    return {
        1: lambda m: u @ m @ u.adjoint(),
        2: lambda m: u @ m @ u.transpose(),
        3: lambda m: ubar @ m @ u.adjoint(),
        4: lambda m: ubar @ m @ u.transpose(),
    }[set_id]


def _bumped(a):
    data = a.data.copy()
    data[0, 0] = data[0, 0] + GR(Fraction(1, 2))
    return Matrix(data, a.mode)


def _family(n, set_id, pairs):
    families = [[], [], [], []]
    families[set_id - 1] = pairs
    return ProblemInstance(n, *families)


# (c, s) of the rotations [[c, -conj(s)], [s, conj(c)]] of givens_unitary
_ROTATIONS = (
    (GR(Fraction(3, 5)), GR(Fraction(4, 5))),
    (GR(Fraction(5, 13)), GR(0, Fraction(12, 13))),
    (GR(Fraction(8, 17)), GR(Fraction(15, 17))),
)


def givens_unitary(n, extra=0):
    """diag(1, i, -1, -i, ...) times 2n + ``extra`` Givens rotations, the
    k-th on the coordinates j = k mod (n - 1) and j + 1, with (c, s) taken
    cyclically from ``_ROTATIONS``: a Gaussian-rational unitary whose
    denominators, and so the cleared letters' entries, grow with n and
    with the rotations."""
    phases = (GR(1), GR(0, 1), GR(-1), GR(0, -1))
    u = Matrix.from_rational(
        [[phases[i % 4] if i == j else GR(0) for j in range(n)] for i in range(n)]
    )
    for k in range(2 * n + extra):
        (c, s), j = _ROTATIONS[k % 3], k % (n - 1)
        g = np.array([[GR(int(a == b)) for b in range(n)] for a in range(n)], dtype=object)
        g[j : j + 2, j : j + 2] = [[c, -s.conjugate()], [s, c.conjugate()]]
        u = u @ Matrix(g, "exact")
    return u


def givens_pair(n, bump=False, extra=0):
    """An S2 pair (U B U^T, B) for U = ``givens_unitary(n, extra)`` and B
    with Gaussian-integer entries of parts in [-5, 5]; ``bump`` adds 1/2 to
    A[0, 0], its NO twin.  The integer intertwiner of its letters has
    entries too large to lift from their residues mod one prime, so the
    search lifts it mod two primes of ``span_primes``."""
    rng = np.random.default_rng(0)
    b = Matrix.from_rational(
        [[GR(int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) for _ in range(n)]
         for _ in range(n)]
    )
    a = _relation(2, givens_unitary(n, extra))(b)
    return _family(n, 2, [(_bumped(a) if bump else a, b)])


def golden_cases():
    """``(name, instance)`` for every pinned verdict, from fixed seeds."""
    cases = []
    for set_id in (1, 2, 3, 4):
        for n in (1, 2):
            rng = np.random.default_rng(1000 * set_id + n)
            for k, u in enumerate(_unitaries(n)):
                b = _gaussian_integer_matrix(rng, n)
                a = _relation(set_id, u)(b)
                name = f"S{set_id}n{n}"
                cases.append((f"{name}yes{k}", _family(n, set_id, [(a, b)])))
                cases.append((f"{name}no{k}", _family(n, set_id, [(_bumped(a), b)])))
    u = _unitaries(3)[0]
    for k in range(2):
        rng = np.random.default_rng(7000 + k)
        bs = (rat_matrix(rng, 3), rat_matrix(rng, 3))
        pairs = [(u @ b @ u.adjoint(), b) for b in bs]
        cases.append((f"S1n3pairs-yes{k}", _family(3, 1, list(pairs))))
        pairs[0] = (_bumped(pairs[0][0]), pairs[0][1])
        cases.append((f"S1n3pairs-no{k}", _family(3, 1, pairs)))
    cases.append(("S2n3givens-yes", givens_pair(3)))
    cases.append(("S2n3givens-no", givens_pair(3, bump=True)))
    cases.append(("S2n4givens-no", givens_pair(4, bump=True)))
    cases.append(("S3n5hard-no", hard_no(3, 5)))
    return cases


def _verdict_doc(inst):
    doc = solve_general(inst).to_json()
    del doc["elapsed_s"]
    return doc


def _residual_free(doc):
    """The verdict without the certificate's float residual."""
    doc = json.loads(json.dumps(doc))
    cert = doc["certificate"]
    if cert is not None and "residual" in cert:
        del cert["residual"]
    return doc


class TestGoldenVerdicts:
    def test_verdicts_match_golden_file(self):
        golden = json.loads(GOLDEN.read_text())
        cases = golden_cases()
        assert [name for name, _ in cases] == list(golden)
        for name, inst in cases:
            doc, want = _verdict_doc(inst), golden[name]
            assert _residual_free(doc) == _residual_free(want), name
            if want["certificate"] is not None and "residual" in want["certificate"]:
                got = doc["certificate"]["residual"]
                assert got == pytest.approx(want["certificate"]["residual"], rel=1e-14)

    def test_golden_set_covers_both_answers_and_certificates(self):
        golden = json.loads(GOLDEN.read_text())
        results = {doc["result"] for doc in golden.values()}
        certs = [doc["certificate"] for doc in golden.values() if doc["certificate"]]
        kinds = {cert["kind"] for cert in certs}
        assert results == {"Equivalent", "NotEquivalent"}
        # every golden NO fails a dependency; trace_no() covers the other kind
        assert kinds == {"dependency"}
        for name, doc in golden.items():
            assert doc["result"] == ("Equivalent" if "yes" in name else "NotEquivalent")


def _exact(rows):
    return Matrix.from_rational([[GR(e) for e in row] for row in rows])


class TestDenominators:
    def test_sides_with_different_denominators(self):
        """A = U B U* with U over 13 has entries over 169, B has integer
        entries: a denominator taken per side would scale a word of length
        L by a different power on each side and break every transfer."""
        u = _unitaries(2)[1]
        for seed in range(4):
            b = _gaussian_integer_matrix(np.random.default_rng(seed), 2)
            a = u @ b @ u.adjoint()
            assert 169 in {x.denominator for e in a.data.flat for x in (e.re, e.im)}
            assert {x.denominator for e in b.data.flat for x in (e.re, e.im)} == {1}
            v = simultaneously_unitarily_similar([(a, b), (a @ a, b @ b)])
            assert v.equivalent and v.route == "pairs:closure"
            for set_id in (1, 2, 3, 4):
                a = _relation(set_id, u)(b)
                assert solve_general(_family(2, set_id, [(a, b)])).equivalent

    def test_different_denominators_no_instance(self):
        u = _unitaries(2)[1]
        b = _gaussian_integer_matrix(np.random.default_rng(5), 2)
        a = _bumped(u @ b @ u.adjoint())
        inst = _family(2, 1, [(a, b), (b, b)])
        v = solve_general(inst)
        assert not v.equivalent
        _, left, right = decision_letters(inst)
        assert v.certificate.recheck(left, right, 1e-8)


class TestVanishingChildren:
    def test_nilpotent_children_vanish_on_both_sides(self, monkeypatch):
        """J^2 = 0 on both sides: the child is dropped, not added."""
        j = _exact([[0, 1, 0], [0, 0, 1], [0, 0, 0]])
        v = _spanned(monkeypatch, lambda: algebra_closure(j, j))
        assert v.equivalent and v.dimension == 9
        k = _exact([[0, 1], [0, 0]])
        pairs = [(k, k), (k.scale(2), k.scale(2))]
        v = _spanned(monkeypatch, lambda: simultaneously_unitarily_similar(pairs))
        assert v.equivalent and v.dimension == 4

    def test_child_vanishing_on_one_side_only(self):
        """X^2 = 0 but Y^2 = 2 I: the zero word depends on the left basis
        with all-zero coefficients, and the same combination fails on the
        right."""
        x = _exact([[0, 1], [0, 0]])
        y = _exact([[0, 2], [1, 0]])
        _, (xs, ys) = common_scale([x, y])
        v = algebra_closure(x, y)
        assert not v.equivalent
        cert = v.certificate
        assert isinstance(cert, DependencyCertificate)
        assert str(cert.word) == "s^2"
        assert cert.side == "left" and not any(cert.coefficients)
        assert cert.recheck([xs, xs.adjoint()], [ys, ys.adjoint()], 1e-8)


class TestExactRecheck:
    @pytest.mark.parametrize("eps", [Fraction(1, 2), Fraction(1, 10**6), Fraction(1, 10**12)])
    def test_dependency_certificate_rechecks_exactly(self, eps):
        """A congruent S2 pair with eps added to one entry of A: the
        combination misses on the other side by a defect of the order of
        eps, which a float tolerance would not see."""
        b = Matrix.from_rational(
            [[GR(Fraction(2, 3)), GR(Fraction(-3, 2))], [GR(5, -2), GR(Fraction(-4, 5))]]
        )
        u = Matrix.from_rational([[GR(0), GR(0, 1)], [GR(1), GR(0)]])
        a = u @ b @ u.transpose()
        a.data[0, 0] = a.data[0, 0] + GR(eps)
        inst = ProblemInstance(2, S2=[(a, b)])
        v = solve_general(inst)
        cert = v.certificate
        assert isinstance(cert, DependencyCertificate) and str(cert.word) == "x0 x0* x0"
        _, left, right = decision_letters(inst)
        assert cert.recheck(left, right, 1e-8)
        # the same combination does not hold on both sides
        flipped = DependencyCertificate(
            cert.word, cert.basis_words, cert.coefficients, cert.residual,
            "right" if cert.side == "left" else "left",
        )
        assert not flipped.recheck(left, right, 1e-8)


class TestExactTraces:
    @staticmethod
    def _pair(seed):
        """A (+) A (+) c against A (+) c (+) c (+) c: the algebras match word
        for word, so every dependency transfers, but traces differ."""
        rng = np.random.default_rng(seed)
        a = rat_matrix(rng, 2)
        c = GR(Fraction(1, 3), Fraction(-2, 7))
        zero = GR(0)

        def diag(blocks):
            size = sum(m.rows for m in blocks)
            rows = [[zero] * size for _ in range(size)]
            at = 0
            for m in blocks:
                for i in range(m.rows):
                    for k in range(m.rows):
                        rows[at + i][at + k] = m.data[i, k]
                at += m.rows
            return Matrix.from_rational(rows)

        cm = Matrix.from_rational([[c]])
        return diag([a, a, cm]), diag([a, cm, cm, cm])

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_trace_certificate_is_exact(self, seed):
        x, y = self._pair(seed)
        v = algebra_closure(x, y)
        assert not v.equivalent
        cert = v.certificate
        assert isinstance(cert, TraceCertificate)
        _, (xs, ys) = common_scale([x, y])
        tl = eval_word(cert.word, [xs, xs.adjoint()]).trace()
        tr = eval_word(cert.word, [ys, ys.adjoint()]).trace()
        assert isinstance(cert.trace_left, GR) and isinstance(cert.trace_right, GR)
        assert cert.trace_left == tl and cert.trace_right == tr and tl != tr


def _shift(n):
    """The cyclic shift with i in place of its first 1: a Gaussian-integer
    unitary."""
    rows = [[GR(0)] * n for _ in range(n)]
    for k in range(n):
        rows[k][(k + 1) % n] = GR(1)
    rows[0][1] = GR(0, 1)
    return Matrix.from_rational(rows)


def hard_no(set_id, n):
    """A pair of family ``set_id``: B with Gaussian-integer entries of parts
    in [-5, 5], and A its image under the family's relation for U =
    ``_shift(n)``, with 1/2 added to A[0, 0].  The span on the real letters
    fills most of its (2n)^2 dimensions before a dependency fails."""
    rng = np.random.default_rng(0)
    b = Matrix.from_rational(
        [[GR(int(rng.integers(-5, 6)), int(rng.integers(-5, 6))) for _ in range(n)]
         for _ in range(n)]
    )
    return _family(n, set_id, [(_bumped(_relation(set_id, _shift(n))(b)), b)])


def trace_no(exact=True):
    """The S1 pair (diag(1, 0, 0), diag(1, 1, 0)): its span stops at the
    basis {1, s}, of dimension 2, with no failed dependency, and the
    traces of s differ, so it is a NO with a trace certificate."""
    a = _exact([[1, 0, 0], [0, 0, 0], [0, 0, 0]])
    b = _exact([[1, 0, 0], [0, 1, 0], [0, 0, 0]])
    return _family(3, 1, [(a, b) if exact else (a.to_float(), b.to_float())])


class TestHardNotEquivalent:
    """Exact NOs decided late in a large span, with the certificate word and
    dimension that exact elimination over the Gaussian integers gives."""

    @pytest.mark.parametrize(
        "set_id, n, dimension, word",
        [
            (2, 4, 52, "x0* x0 x0* x1"),
            (3, 4, 52, "x0* x0 x0* x1"),
            (2, 5, 92, "x0 x0*^3 x1"),
            (3, 5, 92, "x0 x0*^3 x1"),
        ],
    )
    def test_real_letters(self, set_id, n, dimension, word):
        inst = hard_no(set_id, n)
        v = solve_general(inst)
        assert not v.equivalent and v.dimension == dimension
        assert isinstance(v.certificate, DependencyCertificate)
        assert str(v.certificate.word) == word
        _, left, right = decision_letters(inst)
        assert v.certificate.recheck(left, right, 1e-8)

    def test_k_gadget(self):
        v, (left, right) = k_gadget_no()
        assert not v.equivalent and v.dimension == 64
        assert str(v.certificate.word) == "s^2 t^2 s t"
        assert v.certificate.recheck(left, right, 1e-8)

    @pytest.mark.parametrize("n, extra", [(2, 60), (3, 48)])
    def test_residual_of_large_entries(self, n, extra):
        """Letters with entries of hundreds of bits: the defect over the
        words' common denominator passes the float range although its
        value, the residual, does not, so the residual is rounded once from
        its exact square."""
        inst = givens_pair(n, bump=True, extra=extra)
        v = solve_general(inst)
        assert not v.equivalent
        cert = v.certificate
        _, left, right = decision_letters(inst)
        assert cert.recheck(left, right, 1e-8)
        other = right if cert.side == "left" else left
        defect = eval_word(cert.word, other)
        for w, c in zip(cert.basis_words, cert.coefficients):
            defect = defect - eval_word(w, other).scale(c)
        assert cert.residual == math.sqrt(defect.norm_fro_sq()) > 0


def k_gadget_no():
    """The 2-by-2 K-gadget congruence NO of ``_k_gadget_x()`` and a pair
    with Gaussian-rational entries, decided, and its recheck letters [K,
    K*] of each scaled side."""
    x = _k_gadget_x()
    y = Matrix.from_rational([[GR(1, 1), GR(Fraction(1, 2))], [GR(3), GR(0, 2)]])
    v = unitarily_congruent(x, y, use_k_gadget=True)
    _, (xs, ys) = common_scale([x, y])
    ka, kb = build_congruence_K(xs), build_congruence_K(ys)
    return v, ([ka, ka.adjoint()], [kb, kb.adjoint()])


def _mutations(cert, letters):
    """Tampered copies of a NotEquivalent certificate, by name, each of
    which its ``recheck`` must refuse.  A dependency loses or doubles its
    largest term on the dependent side, or has its side swapped; a trace
    certificate has 1 added to a trace."""
    if isinstance(cert, TraceCertificate):
        return {
            "trace_left": replace(cert, trace_left=cert.trace_left + 1),
            "trace_right": replace(cert, trace_right=cert.trace_right + 1),
        }
    dep = letters[0 if cert.side == "left" else 1]
    terms = [
        eval_word(w, dep).scale(c).norm_fro()
        for w, c in zip(cert.basis_words, cert.coefficients)
    ]
    k = max(range(len(terms)), key=terms.__getitem__)
    assert terms[k] > 0

    def without(xs):
        return xs[:k] + xs[k + 1 :]

    doubled = list(cert.coefficients)
    doubled[k] = 2 * doubled[k]
    return {
        "coefficient": replace(cert, coefficients=tuple(doubled)),
        "side": replace(cert, side="right" if cert.side == "left" else "left"),
        "dropped": replace(
            cert, basis_words=without(cert.basis_words), coefficients=without(cert.coefficients)
        ),
    }


def _float_nos():
    """Float NOs: a dependency certificate over a basis of many words
    (four families at n = 3), one over a short basis (S2 at n = 2), and a
    trace certificate (``trace_no``)."""
    cases = ((3, (1, 1, 1, 1), 3), (2, (0, 1, 0, 0), 0))
    nos = {
        f"float-{shape}": perturb_to_no(make_yes_instance(n, *shape, seed=seed), 0.1, seed + 1).inst
        for n, shape, seed in cases
    }
    nos["float-trace"] = trace_no(exact=False)
    return nos


class TestRecheckMutations:
    """Every NO of the golden file in exact mode, the hard exact NOs (the
    other ``hard_no`` ones and the K-gadget NO), the exact trace NO
    (``trace_no``), and float NOs of both certificate kinds: the
    certificate passes its ``recheck``, and every tampered copy of it
    (``_mutations``) fails it."""

    @staticmethod
    def _decided(inst):
        _, left, right = decision_letters(inst)
        return solve_general(inst), (left, right)

    @pytest.mark.parametrize("exact", [True, False])
    def test_span_gives_a_trace_certificate(self, exact):
        v, (left, right) = self._decided(trace_no(exact))
        assert not v.equivalent and v.dimension == 2
        assert isinstance(v.certificate, TraceCertificate)
        assert str(v.certificate.word) == "s"
        assert v.certificate.recheck(left, right, 1e-8)

    def test_tampered_certificates_fail(self):
        golden = json.loads(GOLDEN.read_text())
        cases = [(name, inst) for name, inst in golden_cases() if golden[name]["certificate"]]
        cases += [(f"S{s}n{n}hard", hard_no(s, n)) for s, n in ((2, 4), (3, 4), (2, 5))]
        cases.append(("S1n3trace", trace_no()))
        cases += list(_float_nos().items())
        decided = [(name, *self._decided(inst)) for name, inst in cases]
        decided.append(("k-gadget", *k_gadget_no()))
        kinds = set()
        for name, v, (left, right) in decided:
            cert = v.certificate
            assert cert.recheck(left, right, 1e-8), name
            for what, tampered in _mutations(cert, (left, right)).items():
                assert not tampered.recheck(left, right, 1e-8), (name, what)
            kinds.add((left[0].mode, type(cert).__name__))
        # the golden NOs, the hard ones, the trace NO and the float ones
        assert len(decided) == 21 + 4 + 1 + 3
        assert kinds == {
            (mode, kind)
            for mode in ("exact", "float")
            for kind in ("DependencyCertificate", "TraceCertificate")
        }


def _reference_letters(inst):
    """The letters of an exact instance's default decision by plain Matrix
    arithmetic: its scale 2^-e, e the least with every squared norm at most
    4^e, and [A, A*] of each scaled pair of a pure-S1 instance, else the
    parts of T* L T (``TestRealLetters._product_form``)."""
    mats = [m for _, _, a, b in inst.pairs() for m in (a, b)]
    top, e = max(m.norm_fro_sq() for m in mats), 0
    while top > 4**e:
        e += 1
    scale = Fraction(1, 2**e)
    families = [[(a.scale(scale), b.scale(scale)) for a, b in inst.family(s)] for s in (1, 2, 3, 4)]
    scaled = ProblemInstance(inst.n, *families)
    if inst.counts[1:] == (0, 0, 0):
        return scale, tuple(
            [m for pair in scaled.S1 for m in (pair[side], pair[side].adjoint())] for side in (0, 1)
        )
    return scale, test_engines.TestRealLetters._product_form(scaled)


class TestIntegerLetters:
    """An exact decision carries its letters as Gaussian integers over one
    D from its input on (``engines._decision``): divided by D they are the
    scaled instance's letters formed by Matrix products, and D is the lcm
    of those letters' denominators, as clearing them would give it."""

    @staticmethod
    def _cases():
        cases = golden_cases()
        rng = np.random.default_rng(4242)
        for n in (1, 2, 3):
            for shape in ROADMAP_SHAPES + [(2, 0, 0, 0)]:
                perturb = bool(rng.integers(2))
                inst = _exact_instance(rng, n, shape, int(rng.integers(2)), perturb)
                cases.append((f"{shape}n{n}", inst))
        return cases

    def test_integer_letters_are_the_product_letters(self):
        for name, inst in self._cases():
            scale, (denom, ints) = engines._decision(inst)
            want_scale, reference = _reference_letters(inst)
            assert scale == want_scale, name
            entries = [e for side in reference for m in side for e in m.data.flat]
            assert ints.shape[2] == (2 if any(e.im for e in entries) else 1), name
            assert denom == math.lcm(*(x.denominator for e in entries for x in (e.re, e.im)))
            got = gaussian_rationals(denom, ints)
            for side, want in zip(got, reference):
                assert [Matrix(x, "exact") for x in side] == list(want), name

    def test_exact_yes_builds_no_gaussian_rational(self, monkeypatch):
        """An exact S3 YES at n = 1 through ``solve_general``, from the
        cleared input to the integer intertwiner, constructs no
        ``GaussianRational``; ``decision_letters``, which divides by D,
        does."""
        inst = dict(golden_cases())["S3n1yes0"]
        made = []
        init, raw = GR.__init__, GR._raw.__func__

        def counted_init(self, *args):
            made.append(args)
            init(self, *args)

        def counted_raw(cls, *args):
            made.append(args)
            return raw(cls, *args)

        monkeypatch.setattr(GR, "__init__", counted_init)
        monkeypatch.setattr(GR, "_raw", classmethod(counted_raw))
        v = solve_general(inst)
        assert v.equivalent and v.dimension is None
        assert not made
        decision_letters(inst)
        assert made


def _k_gadget_x():
    return Matrix.from_rational(
        [[GR(Fraction(2, 3)), GR(Fraction(-3, 2))], [GR(5, -2), GR(Fraction(-4, 5))]]
    )


class TestLiftFallback:
    """The integer intertwiner is lifted from its residues mod one prime
    when its entries are small.  The S2 YES of ``givens_pair(n)`` and the
    K-gadget YES of a 2-by-2 pair (X, X^T) have larger ones, so their lifts
    join the residues mod several primes of ``span_primes``; each answers
    Equivalent with no span, and no fraction-free solve is left."""

    CASES = {
        "givens3": lambda: solve_general(givens_pair(3)),
        "givens4": lambda: solve_general(givens_pair(4)),
        "givens5": lambda: solve_general(givens_pair(5)),
        "k-gadget": lambda: unitarily_congruent(
            _k_gadget_x(), _k_gadget_x().transpose(), use_k_gadget=True
        ),
    }

    @pytest.mark.parametrize("case", list(CASES))
    def test_large_entries_lift_over_several_primes(self, monkeypatch, case):
        seen = spy_solves(monkeypatch)
        monkeypatch.setattr(engines, "_span_verdict", _no_span)
        v = self.CASES[case]()
        assert v.equivalent and v.dimension is None
        assert "dimension" not in v.to_json()
        primes = [k for name, k in seen if name == "_lifted"]
        assert primes[0] == 1 and max(primes) > 1, seen
        assert seen[-1][0] == "integer_det" and seen[-1][1] != 0
        assert not hasattr(engines, "integer_nullspace")


def _no_span(spans):
    raise AssertionError("a span was built")


class TestBlockInvariance:
    """The exact span decides each word against the rows it would meet if
    words arrived one at a time, as the float span does
    (``test_engines.TestBlockInvariance``), so the block size changes no
    verdict JSON."""

    @staticmethod
    def _docs(monkeypatch):
        cases = golden_cases() + [
            ("S2n3hard", hard_no(2, 3)),
            ("S3n4hard", hard_no(3, 4)),
            ("S1n3trace", trace_no()),
        ]
        docs = {}
        for name, inst in cases:
            doc = _spanned(monkeypatch, lambda: solve_general(inst)).to_json()
            del doc["elapsed_s"]
            docs[name] = doc
        return docs

    def test_block_size_one_agrees(self, monkeypatch):
        blocked = self._docs(monkeypatch)
        monkeypatch.setattr(engines, "_BLOCK", 1)
        assert self._docs(monkeypatch) == blocked
        kinds = {doc["certificate"]["kind"] for doc in blocked.values() if doc["certificate"]}
        assert kinds == {"dependency", "trace"}
        assert sum(doc.get("dimension", 0) >= 16 for doc in blocked.values()) >= 10


def _digits(q, p=PRIME):
    """k for q = p^k."""
    k = 0
    while q > 1:
        q, k = q // p, k + 1
    return k


def spy_lifts(monkeypatch):
    """Spy on the exact span's coordinate lifts: the modulus p^k of every
    reconstruction (``engines._reconstructed``), and the number of rows
    each digit is taken for (``_ModularSpan._digit``), recorded by name."""
    seen = {"moduli": [], "rows": []}
    reconstructed, digit = engines._reconstructed, engines._ModularSpan._digit

    def spy_reconstructed(residues, q):
        seen["moduli"].append(q)
        return reconstructed(residues, q)

    def spy_digit(self, residual, inverse):
        seen["rows"].append(len(residual))
        return digit(self, residual, inverse)

    monkeypatch.setattr(engines, "_reconstructed", spy_reconstructed)
    monkeypatch.setattr(engines._ModularSpan, "_digit", spy_digit)
    return seen


class TestLift:
    """The exact span's coordinates are lifted p-adically over the whole
    basis from its inverse mod p (``_ModularSpan._coordinates``), each row
    until it gives its target exactly; the golden file pins the results."""

    def test_golden_coefficients_take_one_or_two_digits(self, monkeypatch):
        """S2n2no0's coefficients reconstruct from one digit; S2n2no1's,
        with 20-bit numerators over the content-divided products, from
        two."""
        cases = dict(golden_cases())
        seen = spy_lifts(monkeypatch)
        solve_general(cases["S2n2no0"])
        assert seen["moduli"] == [PRIME]
        seen["moduli"].clear()
        solve_general(cases["S2n2no1"])
        assert seen["moduli"] == [PRIME, PRIME**2]

    @pytest.mark.parametrize(
        "name, rows",
        [("S2n3givens-yes", [145] + [115] * 3 + [88] * 12), ("S1n3pairs-yes0", [28] * 16)],
    )
    def test_rows_stop_lifting_once_they_give_their_child(self, monkeypatch, name, rows):
        """An Equivalent that reaches the span lifts every child of the
        basis that is not a basis word, and a row that reconstructs to its
        child's exact coordinates is lifted no further.  The rows are
        reconstructed in order up to the first with no lift: of the Givens
        n = 3 YES's 145 children, 30 leave after one digit and 27 more after
        four, so its last twelve digits are taken for 88 rows, not 145.
        S1n3pairs-yes0's first child needs sixteen digits, as all but one
        of its 28 do, so every row stays to the end."""
        seen = spy_lifts(monkeypatch)
        v = _spanned(monkeypatch, lambda: solve_general(dict(golden_cases())[name]))
        assert v.equivalent and seen["rows"] == rows

    @pytest.mark.parametrize("parts", [1, 2])
    def test_limb_products_are_exact(self, parts):
        """Each digit's product with the pivot minor is taken over int64
        limbs of the minor's entries (``_limbs``); it equals the product
        over Python integers for negative entries of up to 240 bits."""
        rng = np.random.default_rng(parts)
        bits = rng.integers(0, 200, 3 * parts * 5).tolist()
        heads = rng.integers(-(2**40), 2**40, 3 * parts * 5).tolist()
        minor = np.array([h << b for h, b in zip(heads, bits)], dtype=object).reshape(3, parts, 5)
        digits = rng.integers(0, PRIME, (4, parts, 3))
        shift = 62 - PRIME.bit_length() - (2 * 3).bit_length()
        limbs = engines._limbs(minor, shift)
        got = engines._limb_combined(digits, limbs, shift)
        assert len(limbs) > 5
        assert (got == engines._combined(digits.astype(object), minor)).all()

    @pytest.mark.parametrize(
        "name, bits, digits", [("S2n3givens-no", 251, 32), ("S2n4givens-no", 1862, 256)]
    )
    def test_large_coefficients_take_many_digits(self, monkeypatch, name, bits, digits):
        seen = spy_lifts(monkeypatch)
        v = solve_general(dict(golden_cases())[name])
        coeffs = v.certificate.coefficients
        top = max(x.bit_length() for c in coeffs for x in (c.re.numerator, c.re.denominator))
        assert top == bits and _digits(max(seen["moduli"])) == digits

    def test_unchecked_lift_moves_on_to_the_next_prime(self, monkeypatch):
        """Products patched mod the first prime, so that no lift there
        gives the word: the lift goes on past the Hadamard bound, raises
        ``_Unconfirmed``, and the next prime gives the golden verdict."""
        products, drawn = engines._ModularSpan._products, []

        def patched(self, sources):
            drawn.append(self.p)
            prods, nus, contents = products(self, sources)
            if self.p == PRIME:
                prods[0, :, 0, 0, 0] += 1
            return prods, nus, contents

        monkeypatch.setattr(engines._ModularSpan, "_products", patched)
        seen = spy_lifts(monkeypatch)
        golden = json.loads(GOLDEN.read_text())
        for name in ("S2n2no1", "S4n2no0", "S1n3pairs-no0"):
            drawn.clear()
            doc = _verdict_doc(dict(golden_cases())[name])
            assert doc == golden[name], name
            assert drawn[0] == PRIME and drawn[-1] != PRIME, name
        assert _digits(max(seen["moduli"])) > 2

    def test_minor_singular_at_minus_i_moves_on(self, monkeypatch):
        """Over complex letters the lift also needs the pivot minor's
        inverse with i -> -root.  A prime that makes it singular (faked
        mod the first prime) raises ``_Unconfirmed``, and the next prime
        gives the golden verdict."""
        inverse, primes = engines.inverse_mod_p, []

        def singular(m, p):
            primes.append(p)
            return None if p == PRIME else inverse(m, p)

        monkeypatch.setattr(engines, "inverse_mod_p", singular)
        golden = json.loads(GOLDEN.read_text())
        assert _verdict_doc(dict(golden_cases())["S1n3pairs-no0"]) == golden["S1n3pairs-no0"]
        assert primes[0] == PRIME and primes[-1] != PRIME


class TestBadPrimes:
    """Mod a small prime many words independent over Q(i) look dependent and
    many nonzero defects vanish.  The exact checks of the verdict catch every
    such step and send the span on to the next prime, so the verdicts stay
    the golden ones and every certificate holds."""

    @pytest.mark.parametrize("search", [True, False], ids=["search", "spanned"])
    @pytest.mark.parametrize("start", [(5, 2), (13, 5)], ids=["p5", "p13"])
    def test_golden_results_from_a_small_first_prime(self, monkeypatch, start, search):
        drawn = []  # the primes each exact span ran mod

        def primes():
            drawn.append([])
            for p, root in itertools.chain([start], span_primes()):
                drawn[-1].append(p)
                yield p, root

        monkeypatch.setattr(engines, "span_primes", primes)
        if not search:  # every YES reaches the span and its exact check
            monkeypatch.setattr(engines, "_integer_intertwiner", lambda ints, image: None)
        golden = json.loads(GOLDEN.read_text())
        for name, inst in golden_cases():
            v = solve_general(inst)
            assert v.result == golden[name]["result"], name
            if v.certificate is not None:
                _, left, right = decision_letters(inst)
                assert v.certificate.recheck(left, right, 1e-8), name
        assert drawn and all(d[0] == start[0] for d in drawn)
        assert any(len(d) > 1 for d in drawn)  # some check sent the span on

    def test_small_primes_lift_many_digits_and_zero_residues(self, monkeypatch):
        """Mod 5 and 13 the lifts take many digits, and some coefficient
        they find is 0 mod p but not 0."""
        coordinates, lifts = engines._ModularSpan._coordinates, []

        def spy(self, side, targets):
            for found in coordinates(self, side, targets):
                lifts.append((self.p, found[0].ravel().tolist()))
                yield found

        monkeypatch.setattr(engines._ModularSpan, "_coordinates", spy)
        seen = spy_lifts(monkeypatch)
        for p, root in ((5, 2), (13, 5)):
            monkeypatch.setattr(
                engines, "span_primes", lambda s=(p, root): itertools.chain([s], span_primes())
            )
            seen["moduli"].clear()
            lifts.clear()
            for name, inst in golden_cases():
                solve_general(inst)
            assert max(_digits(q, p) for q in seen["moduli"] if q % p == 0) > 1
            assert any(any(x and x % q == 0 for x in nums) for q, nums in lifts if q == p), p


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    docs = {name: _verdict_doc(inst) for name, inst in golden_cases()}
    GOLDEN.write_text(json.dumps(docs, indent=1) + "\n")
    print(f"wrote {len(docs)} verdicts to {GOLDEN}")
