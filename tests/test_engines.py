import gc
import math
from fractions import Fraction
from itertools import product

import numpy as np
import pytest

from unieq import engines, words
from unieq import (
    DEDUP_CYCLIC_STAR,
    BudgetExceededError,
    DependencyCertificate,
    GaussianRational,
    Matrix,
    ProblemInstance,
    TraceCertificate,
    Verdict,
    algebra_closure,
    block,
    build_congruence_K,
    build_general_gadget,
    build_real_letters,
    common_scale,
    congruence_triple,
    decision_letters,
    eval_word,
    floor_length_bound,
    identity,
    iter_word_traces,
    make_yes_instance,
    perturb_to_no,
    random_unitary,
    simultaneously_unitarily_similar,
    solve_general,
    specht_brute,
    unitarily_congruent,
    unitarily_similar,
    verify_witness,
    zeros,
)

from test_structured import instance as structured_instance
from conftest import (
    complex_gaussian,
    congruent_pair,
    exact_unitary,
    rand_matrix,
    rat_matrix,
    similar_pair,
)

GR = GaussianRational
J = Matrix.from_complex([[0, 1], [0, 0]])
J2 = Matrix.from_complex([[0, 2], [0, 0]])


def _signature(verdict):
    cert = verdict.certificate
    return verdict.result, None if cert is None else str(cert.word)


def _spanned(monkeypatch, decide, band=False):
    """``decide()`` with the eigenbasis check and the exact intertwiner
    search switched off, so that the closure builds its span in either
    arithmetic; the verdict with them must have the same result and
    certificate word.  For inputs within the tolerance band (``band``), the
    check may also answer Equivalent where the span does not: the check's S
    then maps every letter within tol."""
    checked = decide()
    with monkeypatch.context() as m:
        m.setattr(engines, "_aligned_intertwiner", lambda letters, tol: None)
        m.setattr(engines, "_integer_intertwiner", lambda ints, image: None)
        spanned = decide()
    if not (band and checked.equivalent):
        assert _signature(checked) == _signature(spanned)
    return spanned


class TestSpechtBrute:
    def test_reflexive(self, rng):
        x = rand_matrix(rng, 3)
        v = specht_brute(x, x, 6)
        assert v.equivalent and v.certificate is None

    def test_jordan_mismatch_certificate(self):
        v = specht_brute(J, J2, 6)
        assert not v.equivalent
        cert = v.certificate
        assert str(cert.word) == "s t"
        # traces of the scaled letters: a word of length 2 scales by scale^2
        assert cert.trace_left == pytest.approx(1.0 * v.scale**2)
        assert cert.trace_right == pytest.approx(4.0 * v.scale**2)
        assert v.scale == pytest.approx(0.5)

    def test_prescaled_certificate_still_least_word(self):
        # the public call scales once, so the least word does not depend on
        # the magnitude of the entries
        v = specht_brute(J, J2, 6)
        assert str(v.certificate.word) == "s t"
        assert v.scale == pytest.approx(0.5)
        big = specht_brute(J.scale(1e150), J2.scale(1e150), 6)
        assert not big.equivalent
        assert str(big.certificate.word) == "s t"
        assert big.scale == pytest.approx(0.5e-150)

    def test_generated_witness_instance(self):
        a, b = similar_pair(3, seed=41)
        v = specht_brute(a, b, 8, tol=1e-8)
        assert v.equivalent

    def test_budget_refusal(self, rng):
        with pytest.raises(BudgetExceededError):
            specht_brute(rand_matrix(rng, 8), rand_matrix(rng, 8), 36, budget=10**6)

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            specht_brute(rand_matrix(rng, 2), rand_matrix(rng, 3), 4)

    @pytest.mark.parametrize("max_length", [0, -1])
    def test_rejects_length_below_one(self, max_length):
        # no word to walk is no evidence: refuse rather than answer Equivalent
        with pytest.raises(ValueError, match="max_length"):
            specht_brute(J, J2, max_length)

    def test_rejects_exponent_zero(self):
        # a cap of 0 counts no word, so it would pass any budget
        with pytest.raises(ValueError, match="max_exponent"):
            specht_brute(J, J2, 6, max_exponent=0, budget=0)

    def test_exact_mode_equality(self, rng):
        a = rat_matrix(rng, 2)
        v = specht_brute(a, a, 5)
        assert v.equivalent and v.tolerance is None
        b = rat_matrix(rng, 2)
        w = specht_brute(a, b, 5)
        if not w.equivalent:
            assert isinstance(w.certificate, TraceCertificate)


def _stream_failure(letters, max_length, tol):
    """The first word of the per-word stream whose traces are not close,
    with its traces, or None."""
    for word, (tl, tr) in iter_word_traces(letters, max_length, None, DEDUP_CYCLIC_STAR):
        if not engines._close(tl, tr, tol):
            return str(word), tl, tr
    return None


def _failing_chunk(letters, max_length, tol):
    """(length, index among that length's chunks) of the level chunk that
    holds the first failing word."""
    chunks = {}
    levels = words._trace_levels(letters, max_length, None, DEDUP_CYCLIC_STAR)
    for seqs, traces in levels:
        length = len(seqs[0])
        chunks[length] = chunks.get(length, -1) + 1
        if engines._far(traces[:, 0], traces[:, 1], tol).any():
            return length, chunks[length]
    return None


class TestBruteLevels:
    """``_brute`` reads the walk a level at a time and compares each
    level's traces at once; its verdict must be the per-word stream's,
    certificate word and traces included."""

    def check(self, a, b, max_length, tol=engines.DEFAULT_TOL):
        _, letters = engines._decision(ProblemInstance(a.rows, [(a, b)]))
        verdict = engines._brute(letters, max_length, None, tol, engines.DEFAULT_BUDGET)
        failure = _stream_failure(letters, max_length, tol)
        assert failure is not None and not verdict.equivalent
        cert = verdict.certificate
        assert (str(cert.word), cert.trace_left, cert.trace_right) == failure
        return letters, verdict

    def test_float_mismatch_past_a_chunk_boundary(self, monkeypatch):
        # (B, B^T) agree on every word up to length 5; with one stored
        # prefix per chunk, the length-6 words come in many chunks, and
        # the first failing one is not in the first
        monkeypatch.setattr(words, "_WIDTH", 1)
        b = rand_matrix(np.random.default_rng(4), 4)
        letters, verdict = self.check(b, b.transpose(), 8)
        assert len(verdict.certificate.word.letters()) == 6
        length, chunk = _failing_chunk(letters, 8, engines.DEFAULT_TOL)
        assert length == 6 and chunk > 0

    @pytest.mark.parametrize("chunked", [False, True])
    def test_exact_pair(self, monkeypatch, chunked):
        if chunked:
            monkeypatch.setattr(words, "_WIDTH", 1)
        b = rat_matrix(np.random.default_rng(5), 3)
        _, verdict = self.check(b, b.transpose(), 8)
        assert verdict.tolerance is None
        assert isinstance(verdict.certificate.trace_left, GaussianRational)

    def test_far_is_not_close(self):
        nan, inf = float("nan"), float("inf")
        values = [0.0, 1.0, 1.0 + 1e-9, 1.0 + 1e-7, 1j, nan, complex(0, nan), inf, -inf]
        a, b = (np.array(v, dtype=complex) for v in zip(*product(values, repeat=2)))
        want = [not engines._close(x, y, 1e-8) for x, y in zip(a.tolist(), b.tolist())]
        with np.errstate(invalid="ignore"):  # inf - inf is NaN, as in Python
            assert engines._far(a, b, 1e-8).tolist() == want
        exact = [GR(0), GR(1), GR(Fraction(1, 3), 2)]
        a, b = (np.array(v, dtype=object) for v in zip(*product(exact, repeat=2)))
        want = [not engines._close(x, y, 1e-8) for x, y in zip(a.tolist(), b.tolist())]
        assert engines._far(a, b, 1e-8).tolist() == want


class TestAlgebraClosure:
    def test_identity_pair(self, monkeypatch):
        v = _spanned(monkeypatch, lambda: algebra_closure(identity(3), identity(3)))
        assert v.equivalent and v.dimension == 1

    def test_jordan_mismatch(self):
        v = algebra_closure(J, J2)
        assert not v.equivalent
        assert isinstance(
            v.certificate, (TraceCertificate, DependencyCertificate)
        )

    def test_agreement_with_brute_on_random_2x2(self, rng):
        disagreements = 0
        for i in range(100):
            if i < 50:
                x, y = similar_pair(2, seed=9_000 + i)
            else:
                x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
            vb = specht_brute(x, y, 12)
            vc = algebra_closure(x, y)
            if vb.equivalent != vc.equivalent:
                disagreements += 1
        assert disagreements == 0

    def test_dimension_bounded(self, rng):
        x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
        v = algebra_closure(x, y)
        assert v.dimension <= 9 + 1

    def test_exact_closure(self, rng):
        a = rat_matrix(rng, 2)
        u = exact_unitary(2, 1)
        b = u.adjoint() @ a @ u  # a = u b u*
        v = algebra_closure(a, b)
        assert v.equivalent and v.tolerance is None


def _near_normal_pair(n, eps, seed):
    """X = Q D Q* with D diagonal and Y = D + eps G, complex Gaussian draws."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    d, g = np.diag(gauss(n)), gauss(n, n)
    q, _ = np.linalg.qr(gauss(n, n))
    return Matrix.from_complex(q @ d @ q.conj().T), Matrix.from_complex(d + eps * g)


def _rat_kind(rng, n, kind):
    """A rational matrix of one structural kind, built from rat_matrix."""
    m = rat_matrix(rng, n)
    half = (n + 1) // 2
    keep = {
        "generic": lambda i, j: True,
        "nilpotent": lambda i, j: j > i,
        "reducible": lambda i, j: (i < half) == (j < half),
        "diagonal": lambda i, j: i == j,
    }[kind]
    rows = [
        [m.entry(i, j) if keep(i, j) else GR(0) for j in range(n)]
        for i in range(n)
    ]
    if kind == "diagonal":
        rows[n - 1][n - 1] = rows[0][0]  # a repeated eigenvalue
    return Matrix.from_rational(rows)


def _cyclic_permutation(n):
    return Matrix.from_rational(
        [[GR(1) if j == (i + 1) % n else GR(0) for j in range(n)] for i in range(n)]
    )


def _shift_pair(n, seed):
    """A conjugated weighted nilpotent shift, and the same shift with one row
    scaled by 1.3 under another unitary: never unitarily similar."""
    rng = np.random.default_rng(seed)
    core = np.diag(rng.uniform(0.5, 1.5, n - 1), k=1).astype(np.complex128)
    other = core.copy()
    other[int(rng.integers(n - 1))] *= 1.3
    v, w = random_unitary(n, rng), random_unitary(n, rng)
    return (
        v @ Matrix.from_complex(core) @ v.adjoint(),
        w @ Matrix.from_complex(other) @ w.adjoint(),
    )


def _hermitian_pair(n, seed, stretch):
    """Conjugates of one real diagonal, the second scaled by ``stretch``."""
    rng = np.random.default_rng(seed)
    d = np.diag(rng.uniform(-1.0, 1.0, n)).astype(np.complex128)
    v, w = random_unitary(n, rng), random_unitary(n, rng)
    return (
        v @ Matrix.from_complex(d) @ v.adjoint(),
        w @ Matrix.from_complex(stretch * d) @ w.adjoint(),
    )


def _generic_and_reducible(exact):
    """A generic 3x3 X and a reducible Y, a 2x2 block plus a scalar."""
    if exact:
        rng = np.random.default_rng(7)
        x, y = rat_matrix(rng, 3), rat_matrix(rng, 3)
        rows = [
            [y.entry(i, j) if (i < 2) == (j < 2) else GR(0) for j in range(3)]
            for i in range(3)
        ]
        return x, Matrix.from_rational(rows)
    rng = np.random.default_rng(7)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    x, y = gauss(3, 3), np.zeros((3, 3), dtype=complex)
    y[:2, :2], y[2, 2] = gauss(2, 2), gauss(1)[0]
    return Matrix.from_complex(x), Matrix.from_complex(y)


class TestClosureModes:
    @pytest.mark.parametrize("exact", [False, True], ids=["float", "exact"])
    def test_certificate_on_either_side(self, exact):
        # Y's algebra is 5-dimensional, X's is all 3x3 matrices: "t s" is
        # the first word dependent on Y's side, whichever side Y sits on
        x, y = _generic_and_reducible(exact)
        for (p, q), side in (((x, y), "right"), ((y, x), "left")):
            v = algebra_closure(p, q)
            cert = v.certificate
            assert isinstance(cert, DependencyCertificate)
            assert (cert.side, str(cert.word), v.dimension) == (side, "t s", 5)
            _, (ps, qs) = common_scale([p, q])
            assert cert.recheck([ps, ps.adjoint()], [qs, qs.adjoint()], 1e-8)

    def test_near_normal_family_never_crashes(self, monkeypatch):
        # one dependency decision per word: a word dependent within tolerance
        # on one side is never added as a noise basis vector on the other
        for n in (4, 6, 8):
            for eps in (3e-10, 1e-9, 3e-9, 1e-8):
                for seed in range(4000, 4005):
                    x, y = _near_normal_pair(n, eps, seed)
                    v = _spanned(monkeypatch, lambda: algebra_closure(x, y), band=True)
                    assert v.dimension <= n * n

    def test_near_normal_family_outside_the_band(self, monkeypatch):
        for n in (4, 6, 8):
            for seed in range(4000, 4005):
                for eps in (1e-11, 1e-10):
                    x, y = _near_normal_pair(n, eps, seed)
                    assert _spanned(monkeypatch, lambda: algebra_closure(x, y)).equivalent
                for eps in (1e-7, 1e-6):
                    x, y = _near_normal_pair(n, eps, seed)
                    v = _spanned(monkeypatch, lambda: algebra_closure(x, y))
                    assert not v.equivalent
                    _, (xs, ys) = common_scale([x, y])
                    assert v.certificate.recheck(
                        [xs, xs.adjoint()], [ys, ys.adjoint()], 1e-8
                    )

    @pytest.mark.parametrize("n, word", [(3, "s t^2"), (4, "s^2 t s")])
    def test_transpose_pair_fails_after_the_span_fills(self, n, word):
        # (B, B^T) spans all n x n matrices on both sides, and its first
        # failing transfer comes after that, against the full span
        b = rat_matrix(np.random.default_rng(n), n)
        for x in (b, b.to_float()):
            v = algebra_closure(x, x.transpose())
            cert = v.certificate
            assert isinstance(cert, DependencyCertificate)
            assert (cert.side, str(cert.word), v.dimension) == ("left", word, n * n)
            assert len(cert.basis_words) == n * n
            _, (xs, ys) = common_scale([x, x.transpose()])
            assert cert.recheck([xs, xs.adjoint()], [ys, ys.adjoint()], 1e-8)

    def test_similar_generic_pair_fills_the_span(self, monkeypatch):
        x = rat_matrix(np.random.default_rng(4), 4)
        u = _cyclic_permutation(4)
        for p, q in ((x, u.adjoint() @ x @ u), similar_pair(4, 4)):
            v = _spanned(monkeypatch, lambda: algebra_closure(p, q))
            assert v.equivalent and v.dimension == 16

    def test_leaves_no_reference_cycle(self):
        # a cycle through the loop's closures would keep every span's arrays
        # alive until the cyclic collector runs
        b = rat_matrix(np.random.default_rng(3), 3)
        inst = make_yes_instance(3, 1, 1, 1, 1, seed=1).inst
        calls = (
            lambda: algebra_closure(b, b.transpose()),
            lambda: algebra_closure(b.to_float(), b.transpose().to_float()),
            lambda: solve_general(inst),
        )
        gc.collect()
        gc.disable()
        try:
            for call in calls:
                call()
                assert gc.collect() == 0
        finally:
            gc.enable()

    def test_exact_and_float_closure_agree(self, rng, monkeypatch):
        pairs = []  # (x, y, made similar by an exact unitary)
        for n in (2, 3, 4):
            for kind in ("generic", "nilpotent", "reducible", "diagonal"):
                for variant in ("other", "similar", "transpose") * 2:
                    x = _rat_kind(rng, n, kind)
                    if variant == "other":
                        y = _rat_kind(rng, n, kind)
                    elif variant == "similar":
                        u = exact_unitary(2, len(pairs)) if n == 2 else _cyclic_permutation(n)
                        y = u.adjoint() @ x @ u
                    else:
                        y = x.transpose()
                    pairs.append((x, y, variant == "similar"))
            # projections of rank 1 and 2: one dependency structure, and only
            # the final trace check tells them apart
            p1, p2 = (
                Matrix.from_rational([[GR(int(i == j < r)) for j in range(n)] for i in range(n)])
                for r in (1, 2)
            )
            pairs.append((p1, p2, False))
        kinds = set()
        for x, y, similar in pairs:
            ve = _spanned(monkeypatch, lambda: algebra_closure(x, y))
            vf = _spanned(monkeypatch, lambda: algebra_closure(x.to_float(), y.to_float()))
            assert ve.tolerance is None and vf.tolerance is not None
            assert ve.equivalent == vf.equivalent
            assert ve.dimension == vf.dimension
            assert type(ve.certificate) is type(vf.certificate)
            if not ve.equivalent:
                assert str(ve.certificate.word) == str(vf.certificate.word)
            if similar:
                assert ve.equivalent
            if x.rows <= 3:
                bound = floor_length_bound(x.rows)
                assert specht_brute(x, y, bound).equivalent == ve.equivalent
                vb = specht_brute(x.to_float(), y.to_float(), bound)
                assert vb.equivalent == ve.equivalent
            kinds.add(type(ve.certificate))
        assert len(pairs) == 75
        assert kinds == {type(None), TraceCertificate, DependencyCertificate}


class TestBlockInvariance:
    """The float closure decides every word against the basis it would meet
    if words arrived one at a time, so the block size changes no result."""

    @staticmethod
    def _decisions(monkeypatch):
        out = []  # (verdict, left letters, right letters)
        for seed in (1, 2):
            g = make_yes_instance(2, 1, 1, 1, 1, seed=seed)
            for inst in (g.inst, perturb_to_no(g, 0.1, seed=seed).inst):
                _, left, right = decision_letters(inst)
                verdict = _spanned(monkeypatch, lambda: solve_general(inst))
                out.append((verdict, left, right))
        b = rat_matrix(np.random.default_rng(3), 3).to_float()
        pairs = [
            _shift_pair(8, 5),  # fails inside its block: the rest is dropped
            (b, b.transpose()),  # fails after the span fills
            # X* = X joins the first block right after X and depends on it
            _hermitian_pair(3, 6, 1.0),
            _hermitian_pair(3, 6, 1.2),
        ]
        for x, y in pairs:
            _, (xs, ys) = common_scale([x, y])
            verdict = _spanned(monkeypatch, lambda: algebra_closure(x, y))
            out.append((verdict, [xs, xs.adjoint()], [ys, ys.adjoint()]))
        return out

    def test_block_size_one_agrees(self, monkeypatch):
        blocked = self._decisions(monkeypatch)
        monkeypatch.setattr(engines, "_BLOCK", 1)
        single = self._decisions(monkeypatch)
        assert [v.equivalent for v, _, _ in blocked] == [
            True, False, True, False, False, False, True, False
        ]
        for (vb, left, right), (vs, _, _) in zip(blocked, single):
            assert vb.equivalent == vs.equivalent
            assert vb.dimension == vs.dimension
            assert type(vb.certificate) is type(vs.certificate)
            if not vb.equivalent:
                assert str(vb.certificate.word) == str(vs.certificate.word)
                assert vb.certificate.recheck(left, right, 1e-8)
                assert vs.certificate.recheck(left, right, 1e-8)


@pytest.fixture
def float_spans(monkeypatch):
    """Every float span the closure builds, in order."""
    made = []

    class Recorded(engines._MappedSpan):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    monkeypatch.setattr(engines, "_MappedSpan", Recorded)
    return made


class TestIntertwinerStop:
    """A float span takes its letters' dtype, and an intertwiner stops the
    decision only when ``_accepted`` finds it unitary and mapping every
    letter, which the eigenbasis check tests before any span is built."""

    def test_real_letters_give_a_real_span(self):
        _, letters = engines._decision(make_yes_instance(2, 1, 1, 1, 1, seed=1).inst)
        real = engines._MappedSpan(letters, 1e-8)
        a, b = similar_pair(3, 5)
        cplx = engines._MappedSpan(
            engines._pairs_letters(engines.stack_pairs([(a, b)])), 1e-8
        )
        for spans, dtype in ((real, np.float64), (cplx, np.complex128)):
            assert spans.letters.dtype == spans.eye.dtype == spans.qm.dtype == dtype

    @pytest.mark.parametrize("case", ["maps", "misses", "not_unitary"])
    def test_letter_check(self, case):
        # S of largest singular value 1 is accepted only if it is unitary
        # and S L = L' S; the non-unitary S maps its letter exactly
        rng = np.random.default_rng(12)
        x = complex_gaussian(rng, 3)
        s = random_unitary(3, rng).data
        if case == "not_unitary":
            s = s @ np.diag([1.0, 0.5, 0.25])
        y = complex_gaussian(rng, 3) if case == "misses" else s @ x @ np.linalg.inv(s)
        letters = np.array([[x], [y]])
        assert (engines._accepted(s, letters, 1e-8) is not None) == (case == "maps")

    @pytest.mark.parametrize("seed", [312, 675, 1093])
    def test_conjugated_nilpotent_shift(self, seed, float_spans):
        # a 12x12 nilpotent weighted shift, conjugated twice: these draws
        # were once answered NotEquivalent at dimension 144, with
        # certificates that failed their own recheck; the eigenbasis check
        # settles them with no span
        rng = np.random.default_rng([99, seed])
        core = Matrix(np.diag(rng.uniform(0.5, 1.5, 11), k=1).astype(complex), "float")
        v = random_unitary(12, int(rng.integers(2**31)))
        u = random_unitary(12, int(rng.integers(2**31)))
        b = v @ core @ v.adjoint()
        inst = ProblemInstance(12, S1=[(u @ b @ u.adjoint(), b)])
        verdict = solve_general(inst)
        assert verdict.equivalent and verdict.dimension is None
        assert not float_spans
        assert verify_witness(inst, u)


class TestUnitarilySimilar:
    def test_1x1(self):
        a = Matrix.from_complex([[2 + 1j]])
        assert unitarily_similar(a, a).equivalent
        b = Matrix.from_complex([[2 - 1j]])
        assert not unitarily_similar(a, b).equivalent

    def test_jordan_vs_transpose_with_witness(self):
        b = J.transpose()
        v = unitarily_similar(J, b)
        assert v.equivalent
        w = Matrix.from_complex([[0, 1], [1, 0]])
        assert (J - w @ b @ w.adjoint()).norm_fro() <= 1e-14
        assert (w @ w.adjoint() - identity(2)).norm_fro() <= 1e-14

    def test_unipotent_mismatch(self):
        a = Matrix.from_complex([[1, 1], [0, 1]])
        b = Matrix.from_complex([[1, 2], [0, 1]])
        v = unitarily_similar(a, b)
        assert not v.equivalent
        assert str(v.certificate.word) == "s t"
        assert v.certificate.trace_left == pytest.approx(3.0 * v.scale**2)
        assert v.certificate.trace_right == pytest.approx(6.0 * v.scale**2)

    def test_engine_tags(self, rng):
        assert unitarily_similar(rand_matrix(rng, 2), rand_matrix(rng, 2)).engine == "fastpath_n2"
        assert unitarily_similar(rand_matrix(rng, 3), rand_matrix(rng, 3)).engine == "fastpath_n3"
        assert unitarily_similar(rand_matrix(rng, 4), rand_matrix(rng, 4)).engine == "closure"
        assert (
            unitarily_similar(rand_matrix(rng, 2), rand_matrix(rng, 2), engine="brute").engine
            == "brute"
        )

    def test_brute_uses_full_bound(self):
        a, b = similar_pair(2, seed=77)
        v = unitarily_similar(a, b, engine="brute")
        assert v.equivalent
        assert floor_length_bound(2) == 4

    def test_brute_decides_n6_at_full_bound(self):
        # length 23: 766,671 necklaces fit the default budget (16,777,214
        # raw words would not); the walk takes about 2 s
        a, b = similar_pair(6, seed=6)
        assert floor_length_bound(6) == 23
        assert unitarily_similar(a, b, engine="brute").equivalent

    def test_brute_refuses_n7_before_walking(self, monkeypatch):
        def walk(*args):
            raise AssertionError("the walk started")

        monkeypatch.setattr(engines, "_trace_levels", walk)
        a, b = similar_pair(7, seed=7)
        with pytest.raises(BudgetExceededError, match="needs 74253543 words"):
            unitarily_similar(a, b, engine="brute")

    def test_fastpath_agrees_with_closure(self, rng):
        for n in (2, 3):
            for i in range(40):
                if i % 2:
                    x, y = similar_pair(n, seed=i * 13 + n)
                else:
                    x, y = rand_matrix(rng, n), rand_matrix(rng, n)
                fast = unitarily_similar(x, y)
                slow = unitarily_similar(x, y, engine="closure")
                assert fast.equivalent == slow.equivalent

    def test_invariance_under_unitary_rotation(self, rng):
        for i in range(10):
            x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
            expected = unitarily_similar(x, y).equivalent
            v = random_unitary(3, 500 + i)
            w = random_unitary(3, 900 + i)
            x2 = v @ x @ v.adjoint()
            y2 = w @ y @ w.adjoint()
            assert unitarily_similar(x2, y2).equivalent == expected


class TestSimultaneous:
    def test_single_pair_agrees(self, rng):
        for i in range(50):
            if i % 2:
                x, y = similar_pair(2, seed=3_000 + i)
            else:
                x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
            single = unitarily_similar(x, y)
            multi = simultaneously_unitarily_similar([(x, y)])
            assert single.equivalent == multi.equivalent

    def test_pair_with_adjoint_pair(self):
        a, b = similar_pair(3, seed=123)
        v = simultaneously_unitarily_similar([(a, b), (a.adjoint(), b.adjoint())])
        assert v.equivalent

    def test_gadget_brute_route_agrees(self, rng):
        for i in range(6):
            if i % 2:
                pairs = [similar_pair(1, seed=60 + i), similar_pair(1, seed=80 + i)]
                a1, b1 = pairs[0]
                a2, b2 = pairs[1]
                # same witness only when seeds match, so rebuild honestly
                u = random_unitary(1, 999 + i)
                b1, b2 = rand_matrix(rng, 1), rand_matrix(rng, 1)
                a1 = u @ b1 @ u.adjoint()
                a2 = u @ b2 @ u.adjoint()
            else:
                a1, b1 = rand_matrix(rng, 1), rand_matrix(rng, 1)
                a2, b2 = rand_matrix(rng, 1), rand_matrix(rng, 1)
            pairs = [(a1, b1), (a2, b2)]
            vc = simultaneously_unitarily_similar(pairs)
            vb = simultaneously_unitarily_similar(pairs, engine="brute")
            assert vc.equivalent == vb.equivalent

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simultaneously_unitarily_similar([])


class TestUnitarilyCongruent:
    def test_1x1_phase(self):
        a = Matrix.from_complex([[2.0]])
        b = Matrix.from_complex([[2.0j]])
        assert unitarily_congruent(a, b).equivalent
        c = Matrix.from_complex([[3.0]])
        assert not unitarily_congruent(a, c).equivalent

    def test_rank_mismatch(self):
        a = Matrix.from_complex([[1, 0], [0, 0]])
        b = Matrix.from_complex([[2, 0], [0, 0]])
        v = unitarily_congruent(a, b)
        assert not v.equivalent

    def test_symmetric_unitary_congruent_to_identity(self):
        flip = Matrix.from_complex([[0, 1], [1, 0]])
        # hand Takagi witness: flip = Q diag(1,-1) Q^T = (Q diag(1,i)) (Q diag(1,i))^T
        q = Matrix.from_complex(
            [[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]]
        )
        u = q @ Matrix.from_complex([[1, 0], [0, 1j]])
        assert (flip - u @ u.transpose()).norm_fro() <= 1e-14
        assert (u @ u.adjoint() - identity(2)).norm_fro() <= 1e-14
        assert unitarily_congruent(flip, identity(2)).equivalent

    def test_congruent_random_pairs(self):
        for i in range(5):
            a, b, _ = congruent_pair(3, seed=700 + i)
            assert unitarily_congruent(a, b).equivalent

    def test_k_gadget_route_agrees(self, rng):
        for i in range(8):
            if i % 2:
                a, b, _ = congruent_pair(2, seed=40 + i)
            else:
                a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
            vt = unitarily_congruent(a, b)
            vk = unitarily_congruent(a, b, use_k_gadget=True)
            assert vt.equivalent == vk.equivalent
            assert vk.route.startswith("congruence:K")

    def test_exponent_cap_complete_on_k_gadgets(self, rng):
        for i in range(6):
            if i % 2:
                a, b, _ = congruent_pair(2, seed=50 + i)
            else:
                a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
            ka, kb = build_congruence_K(a), build_congruence_K(b)
            capped = specht_brute(ka, kb, 8, max_exponent=3)
            uncapped = specht_brute(ka, kb, 8)
            assert capped.equivalent == uncapped.equivalent


class TestSolveGeneral:
    def test_yes_instance(self):
        g = make_yes_instance(2, 1, 1, 0, 0, seed=7)
        assert verify_witness(g.inst, g.witness)
        v = solve_general(g.inst)
        assert v.equivalent

    def test_perturbed_instance(self):
        g = make_yes_instance(2, 1, 1, 0, 0, seed=7)
        p = perturb_to_no(g, 0.1, seed=71)
        v = solve_general(p.inst)
        assert not v.equivalent
        scale, lx, ly = decision_letters(p.inst)
        assert v.certificate.recheck(lx, ly, 1e-8)

    @pytest.mark.parametrize("seed", [54, 109])
    def test_ill_conditioned_yes_instance(self, seed):
        # the kn-by-kn gadget triple answered NotEquivalent on both
        g = make_yes_instance(3, 0, 0, 0, 1, seed=seed)
        assert verify_witness(g.inst, g.witness)
        assert solve_general(g.inst).equivalent

    @pytest.mark.parametrize("seed", range(6))
    def test_pure_congruence_n8(self, seed):
        # the gadget triple answered NotEquivalent on all six seeds
        g = make_yes_instance(8, 0, 1, 0, 0, seed=seed)
        assert verify_witness(g.inst, g.witness)
        assert solve_general(g.inst).equivalent

    def test_scalar_congruence_family(self):
        a = Matrix.from_complex([[1.0]])
        b = Matrix.from_complex([[2.0]])
        inst = ProblemInstance(1, S2=[(a, b)])
        assert not solve_general(inst).equivalent
        b2 = Matrix.from_complex([[1.0j]])
        inst2 = ProblemInstance(1, S2=[(a, b2)])
        assert solve_general(inst2).equivalent

    def test_pure_s1_route(self):
        g = make_yes_instance(3, 2, 0, 0, 0, seed=17)
        v = solve_general(g.inst)
        assert v.equivalent and v.route.startswith("general:s1")

    def test_gadget_route_label(self):
        g = make_yes_instance(2, 0, 1, 0, 0, seed=18)
        v = solve_general(g.inst)
        assert v.route == "general:real2n"
        a, b = g.inst.S2[0]
        assert unitarily_congruent(a, b).route == "congruence:real2n"

    def test_paper_reduction_routes_kept(self):
        g = make_yes_instance(1, 0, 1, 0, 1, seed=19)
        # a short brute screener: the full bound on the gadgets is far too long
        v = solve_general(g.inst, engine="brute", max_length=4)
        assert v.equivalent and v.route.startswith("general:gadget>congruence:triple")
        v = solve_general(g.inst, use_k_gadget=True)
        assert v.equivalent and v.route.startswith("general:gadget>congruence:K")
        a, b = g.inst.S2[0]
        v = unitarily_congruent(a, b, engine="brute", max_length=4)
        assert v.equivalent and v.route.startswith("congruence:triple")

    def test_k_route_flag(self):
        g = make_yes_instance(1, 0, 1, 0, 1, seed=19)
        v = solve_general(g.inst, use_k_gadget=True)
        assert v.equivalent and "congruence:K" in v.route

    def test_empty_instance(self):
        with pytest.raises(ValueError):
            solve_general(ProblemInstance(2))

    def test_unknown_engine_rejected(self):
        g = make_yes_instance(1, 0, 1, 0, 0, seed=20)
        with pytest.raises(ValueError, match="unknown engine"):
            solve_general(g.inst, engine="fast")
        with pytest.raises(ValueError, match="unknown engine"):
            unitarily_congruent(*g.inst.S2[0], engine="fast")

    def test_exact_mode(self, rng):
        u = exact_unitary(2, 1)
        b = rat_matrix(rng, 2)
        a = u @ b @ u.transpose()
        inst = ProblemInstance(2, S2=[(a, b)])
        v = solve_general(inst)
        assert v.equivalent and v.tolerance is None
        bad = ProblemInstance(2, S2=[(rat_matrix(rng, 2), b)])
        w = solve_general(bad)
        assert not w.equivalent and w.tolerance is None


# the shapes (m1, m2, m3, m4) the real-letter route was sized on
ROADMAP_SHAPES = [
    (1, 1, 1, 1), (0, 0, 0, 1), (0, 0, 1, 0), (0, 1, 0, 0),
    (1, 1, 0, 0), (2, 1, 0, 1), (0, 2, 0, 0), (1, 0, 1, 0),
]


def _exact_instance(rng, n, shape, which, perturb):
    """A Gaussian-rational instance with the exact unitary witness
    ``exact_unitary(n, which)``; ``perturb`` adds 1/2 to one A entry."""
    u = exact_unitary(n, which)
    ubar = u.conj()
    maps = (
        lambda b: u @ b @ u.adjoint(),
        lambda b: u @ b @ u.transpose(),
        lambda b: ubar @ b @ u.adjoint(),
        lambda b: ubar @ b @ u.transpose(),
    )
    families = [[], [], [], []]
    for family, relation, count in zip(families, maps, shape):
        for _ in range(count):
            b = rat_matrix(rng, n)
            family.append((relation(b), b))
    inst = ProblemInstance(n, *families)
    if perturb:
        a, b = next(f for f in families if f)[0]
        a.data[0, 0] = a.data[0, 0] + GR(1, 2)
    return inst


def _to_float(inst):
    families = [
        [(a.to_float(), b.to_float()) for a, b in inst.family(s)] for s in range(1, 5)
    ]
    return ProblemInstance(inst.n, *families)


class TestRealLetters:
    """The real 2n-by-2n route against the paper's reduction and across
    arithmetic modes; every NotEquivalent certificate must recheck against
    the rebuilt decision letters."""

    @staticmethod
    def _rechecks(inst, verdict):
        _, left, right = decision_letters(inst)
        return verdict.certificate.recheck(left, right, 1e-8)

    @pytest.mark.parametrize("shape", ROADMAP_SHAPES, ids=lambda s: "%d%d%d%d" % s)
    def test_agrees_with_gadget_triple(self, shape):
        for n in (1, 2, 3):
            g = make_yes_instance(n, *shape, seed=0)
            p = perturb_to_no(g, 0.1, seed=1)
            for inst, yes in ((g.inst, True), (p.inst, False)):
                v = solve_general(inst)
                assert v.route == "general:real2n"
                _, sinst = inst.scaled_common()
                ga, gb = build_general_gadget(sinst)
                ref = simultaneously_unitarily_similar(congruence_triple(ga.M, gb.M))
                assert v.equivalent == ref.equivalent == yes, (shape, n, yes)
                if not yes:
                    assert self._rechecks(inst, v)

    @staticmethod
    def _product_form(inst):
        """Reference letters: the parts of S* L S / 2, formed by products."""
        n, mode = inst.n, inst.mode
        eye, zero = identity(n, mode), zeros(n, n, mode)
        i_eye = eye.scale(GR(0, 1))
        s = block([[eye, i_eye], [eye, -i_eye]])
        at = {1: (0, 0), 2: (0, 1), 3: (1, 0), 4: (1, 1)}

        def parts(m, where):
            grid = [[zero, zero], [zero, zero]]
            grid[where[0]][where[1]] = m
            return (s.adjoint() @ block(grid) @ s).scale(Fraction(1, 2)).re_im()

        left, right = [], []
        for set_id, _, a, b in inst.pairs():
            for letters, m in ((left, a), (right, b)):
                for part in parts(m, at[set_id]):
                    letters.extend((part, part.transpose()))
        e = parts(eye, (0, 0))[1]
        return left + [e], right + [e]

    @pytest.mark.parametrize("shape", ROADMAP_SHAPES, ids=lambda s: "%d%d%d%d" % s)
    def test_blockwise_letters_equal_product_form(self, shape):
        rng = np.random.default_rng(sum(shape))
        insts = [make_yes_instance(n, *shape, seed=3).inst for n in (1, 2, 3)]
        insts += [_exact_instance(rng, n, shape, n, False) for n in (1, 2)]
        for inst in insts:
            built, reference = build_real_letters(inst), self._product_form(inst)
            for got, want in zip(built, reference):
                assert len(got) == len(want)
                assert all(g == w for g, w in zip(got, want)), (shape, inst.n, inst.mode)

    def test_exact_and_float_agree(self, monkeypatch):
        rng = np.random.default_rng(6060)
        results = []
        for i, shape in enumerate(ROADMAP_SHAPES):
            for n in (1, 2):
                for perturb in (False, True):
                    inst = _exact_instance(rng, n, shape, i + n, perturb)
                    ve = _spanned(monkeypatch, lambda: solve_general(inst))
                    vf = _spanned(monkeypatch, lambda: solve_general(_to_float(inst)))
                    assert ve.tolerance is None and vf.tolerance is not None
                    assert ve.equivalent == vf.equivalent, (shape, n, perturb)
                    assert ve.dimension == vf.dimension
                    if perturb:
                        assert self._rechecks(inst, ve)
                        assert self._rechecks(_to_float(inst), vf)
                    else:
                        assert ve.equivalent
                    results.append(ve.equivalent)
        assert results.count(False) == len(ROADMAP_SHAPES) * 2


def _step_off(monkeypatch, decide):
    """``decide()`` with the exact intertwiner search switched off."""
    with monkeypatch.context() as m:
        m.setattr(engines, "_integer_intertwiner", lambda ints, image: None)
        return decide()


def _refuse(*args):
    raise AssertionError("the intertwiner search went past its exit")


def spy_solves(monkeypatch):
    """Spy on both solves of the intertwiner search, the lift of the reduced
    rows (``_lifted``) and the fraction-free nullspace
    (``integer_nullspace``), recorded in one list by name, and on
    ``integer_det``, recorded as ("integer_det", determinant)."""
    seen = []
    for name in ("_lifted", "integer_nullspace", "integer_det"):

        def spy(*args, _name=name, _inner=getattr(engines, name)):
            out = _inner(*args)
            seen.append((_name, out) if _name == "integer_det" else _name)
            return out

        monkeypatch.setattr(engines, name, spy)
    return seen


class TestIntegerIntertwiner:
    """An exact closure first looks for an invertible integer intertwiner
    of its letters (``engines._integer_intertwiner``) and answers
    Equivalent with no span when it finds one; otherwise the span decides
    as before."""

    @staticmethod
    def _doc(verdict):
        cert = verdict.certificate
        return verdict.result, None if cert is None else cert.to_json()

    @pytest.mark.parametrize("shape", ROADMAP_SHAPES, ids=lambda s: "%d%d%d%d" % s)
    def test_step_settles_every_yes_and_changes_no_verdict(self, monkeypatch, shape):
        rng = np.random.default_rng(7070 + ROADMAP_SHAPES.index(shape))
        for n in (1, 2, 3):
            for perturb in (False, True):
                inst = _exact_instance(rng, n, shape, n, perturb)
                on = solve_general(inst)
                off = _step_off(monkeypatch, lambda: solve_general(inst))
                assert self._doc(on) == self._doc(off), (shape, n, perturb)
                assert on.equivalent != perturb
                if not perturb:  # settled by the step, with no span
                    assert on.dimension is None and off.dimension is not None

    def test_singular_intertwiners_reach_the_closure(self, monkeypatch):
        """Every R with R X = Y R is singular on these pairs, so the span
        answers.  (diag(1, 0), I) already differ in spectrum, so neither
        solve runs.  The idempotents X = [[1, 1], [0, 0]] (+) 0 and Y =
        diag(1, 0, 0) are similar, and so are X* and Y*, but X is not
        normal: R = E_33 maps both letters, and no invertible R does.  Each
        draw's lift maps the letters exactly, so the nullspace is not
        solved, and its determinant is 0."""
        seen = spy_solves(monkeypatch)
        x = Matrix.from_rational([[GR(1), GR(0)], [GR(0), GR(0)]])
        v = algebra_closure(x, identity(2, "exact"))
        assert not v.equivalent and v.dimension is not None
        assert not seen
        x, y = (
            Matrix.from_rational([[GR(e) for e in row] for row in rows])
            for rows in ([[1, 1, 0], [0, 0, 0], [0, 0, 0]], [[1, 0, 0], [0, 0, 0], [0, 0, 0]])
        )
        v = algebra_closure(x, y)
        assert not v.equivalent and v.dimension is not None
        assert seen == ["_lifted", ("integer_det", 0)] * len(engines._DRAWS)

    def test_singular_draws_fall_back_to_the_closure(self, monkeypatch):
        inst = _exact_instance(np.random.default_rng(5), 2, (0, 1, 0, 0), 1, False)
        monkeypatch.setattr(engines, "integer_det", lambda square: 0)
        v = solve_general(inst)
        assert v.equivalent and v.dimension == 16

    def test_scalar_letters_are_settled(self):
        """Every R maps I to I: a draw over the whole matrix space must
        still be invertible."""
        for n in (2, 3):
            v = algebra_closure(identity(n, "exact"), identity(n, "exact"))
            assert v.equivalent and v.dimension is None

    def test_draws_are_checked_exactly(self, monkeypatch):
        """Rows that miss some equation, as a rank drop mod p would leave,
        give a nullspace of non-intertwiners; the exact check refuses
        them, both lifted and from the fraction-free nullspace."""
        inst = _exact_instance(np.random.default_rng(5), 2, (0, 1, 0, 0), 1, True)
        inner = engines.independent_rows_mod_p

        def first_row(rows):
            kept = inner(rows[:1])
            assert kept[0] == [0]
            return kept

        monkeypatch.setattr(engines, "power_traces_differ_mod_p", lambda image: False)
        monkeypatch.setattr(engines, "independent_rows_mod_p", first_row)
        seen = spy_solves(monkeypatch)
        v = solve_general(inst)
        assert not v.equivalent and v.dimension is not None
        assert "_lifted" in seen and "integer_nullspace" in seen
        assert not any(isinstance(e, tuple) for e in seen)  # no draw mapped

    def test_wrong_lift_is_refused_and_the_nullspace_answers(self, monkeypatch):
        """A lift that returns a vector off the nullspace: the exact check
        refuses it, and the fraction-free solve gives the R of that draw."""
        inst = _exact_instance(np.random.default_rng(5), 2, (0, 1, 0, 0), 1, False)
        right = solve_general(inst)
        inner = engines._lifted
        monkeypatch.setattr(engines, "_lifted", lambda *args: inner(*args) + 1)
        seen = spy_solves(monkeypatch)
        v = solve_general(inst)
        assert v.equivalent and v.dimension is None
        assert v.to_json() | {"elapsed_s": 0} == right.to_json() | {"elapsed_s": 0}
        assert seen[:2] == ["_lifted", "integer_nullspace"]
        assert seen[-1][0] == "integer_det" and seen[-1][1] != 0

    def test_lift_gives_the_nullspace_draw(self, monkeypatch):
        """On every YES of a small grid the lift succeeds, and its R is the
        fraction-free R of the same draw times a positive factor."""
        search, lifts = engines._integer_intertwiner, []

        def both(ints, image):
            del seen[:]
            r = search(ints, image)
            assert "integer_nullspace" not in seen
            with monkeypatch.context() as m:
                m.setattr(engines, "_lifted", lambda *args: None)
                lifts.append((r, search(ints, image)))
            return r

        seen = spy_solves(monkeypatch)
        monkeypatch.setattr(engines, "_integer_intertwiner", both)
        rng = np.random.default_rng(808)
        for shape in ROADMAP_SHAPES:
            for n in (1, 2):
                assert solve_general(_exact_instance(rng, n, shape, n, False)).equivalent
        assert len(lifts) == 2 * len(ROADMAP_SHAPES)
        for lifted, solved in lifts:
            k = next(i for i, e in enumerate(solved.flat) if e)
            factor = Fraction(int(solved.flat[k]), int(lifted.flat[k]))
            assert factor > 0 and (lifted * factor == solved).all()

    def test_spectrum_exit_skips_the_nullspace(self, monkeypatch):
        """A perturbed instance, and diag(1, 2) against diag(3, 4), whose
        spectra are disjoint (Sylvester's case: only R = 0 maps them)."""
        inst = _exact_instance(np.random.default_rng(5), 2, (0, 1, 0, 0), 1, True)
        for name in ("independent_rows_mod_p", "_lifted", "integer_nullspace"):
            monkeypatch.setattr(engines, name, _refuse)
        assert not solve_general(inst).equivalent
        x, y = (Matrix.from_rational([[GR(d), GR(0)], [GR(0), GR(d + 1)]]) for d in (1, 3))
        assert not algebra_closure(x, y).equivalent

    def test_rank_exit_skips_the_nullspace(self, monkeypatch):
        """J and 2 J have one spectrum, and so have J* and 2 J*, but only R
        = 0 maps [J, J*] to [2 J, 2 J*]."""
        k = Matrix.from_rational([[GR(0), GR(1)], [GR(0), GR(0)]])
        for name in ("_lifted", "integer_nullspace"):
            monkeypatch.setattr(engines, name, _refuse)
        assert not algebra_closure(k, k.scale(2)).equivalent


class TestDecisionLetters:
    """Each decision scales its matrices and builds its letters once, as one
    stacked array (``engines._decision``): the closure of ``solve_general``
    reads that array, and ``decision_letters`` gives Matrix views of it."""

    @staticmethod
    def _closure_input(monkeypatch, inst):
        seen = []
        inner = engines._closure_verdict

        def spy(letters, tol):
            seen.append(letters)
            return inner(letters, tol)

        monkeypatch.setattr(engines, "_closure_verdict", spy)
        solve_general(inst)
        (letters,) = seen
        return letters

    @staticmethod
    def _cases():
        """Instances whose default decision runs the closure, with the dtype
        of their letters."""
        rng = np.random.default_rng(77)
        return {
            "real2n": (make_yes_instance(2, 1, 1, 1, 1, seed=2).inst, np.float64),
            "real2n-no": (
                perturb_to_no(make_yes_instance(2, 0, 1, 1, 0, seed=2), 0.1, seed=3).inst,
                np.float64,
            ),
            "s1-pairs": (make_yes_instance(2, 2, 0, 0, 0, seed=2).inst, np.complex128),
            "s1-n5": (make_yes_instance(5, 1, 0, 0, 0, seed=2).inst, np.complex128),
            "exact-real2n": (_exact_instance(rng, 2, (0, 1, 0, 1), 1, True), object),
            "exact-s1": (_exact_instance(rng, 2, (2, 0, 0, 0), 1, False), object),
        }

    @pytest.mark.parametrize(
        "case", ["real2n", "real2n-no", "s1-pairs", "s1-n5", "exact-real2n", "exact-s1"]
    )
    def test_recheck_letters_are_the_closure_letters(self, monkeypatch, case):
        inst, dtype = self._cases()[case]
        letters = self._closure_input(monkeypatch, inst)
        assert letters.dtype == dtype
        scale, left, right = decision_letters(inst)
        assert scale == solve_general(inst).scale
        for side, views in zip(letters, (left, right)):
            assert len(views) == len(side)
            for view, row in zip(views, side):
                assert view.mode == ("exact" if dtype is object else "float")
                if dtype is object:
                    assert all(x == y for x, y in zip(view.data.flat, row.flat))
                else:
                    assert view.data.tobytes() == row.tobytes()

    @pytest.mark.parametrize("exact", [False, True])
    def test_s1_letters_interleave_each_matrix_with_its_adjoint(self, exact):
        if exact:
            inst = _exact_instance(np.random.default_rng(5), 2, (2, 0, 0, 0), 0, False)
        else:
            inst = make_yes_instance(3, 2, 0, 0, 0, seed=4).inst
        scale, letters = engines._decision(inst)
        n = inst.n
        assert letters.shape == (2, 4, n, n)
        assert letters.dtype == (object if exact else np.complex128)
        for side in (0, 1):
            for i, pair in enumerate(inst.S1):
                m = pair[side].scale(scale)
                assert Matrix(letters[side, 2 * i], m.mode) == m
                assert Matrix(letters[side, 2 * i + 1], m.mode) == m.adjoint()

    @pytest.mark.parametrize("exact", [False, True])
    def test_real_letters_are_the_scaled_instance_letters(self, exact):
        rng = np.random.default_rng(8)
        if exact:
            inst = _exact_instance(rng, 2, (1, 1, 1, 1), 0, False)
        else:
            inst = make_yes_instance(2, 1, 1, 1, 1, seed=8).inst
        scale, letters = engines._decision(inst)
        assert letters.shape == (2, 4 * 4 + 1, 4, 4)
        assert letters.dtype == (object if exact else np.float64)
        _, sinst = inst.scaled_common()
        for side, reference in zip(letters, TestRealLetters._product_form(sinst)):
            assert [Matrix(x, sinst.mode) for x in side] == reference


class TestStackedScaling:
    """The stacked scaling before the letters keeps each matrix's own norm,
    the overflow and underflow fallback, the refusal of non-finite entries
    and the unscaled all-zero instance, on the real 2n route."""

    @staticmethod
    def _diag(x, y):
        return Matrix(np.diag([x, y]).astype(complex), "float")

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_out_of_range_pair_decides_as_at_scale_one(self, size):
        g = make_yes_instance(2, 0, 1, 0, 0, seed=4)
        for inst in (g.inst, perturb_to_no(g, 0.1, seed=3).inst):
            ((a, b),) = inst.S2
            v = solve_general(inst)
            far = solve_general(ProblemInstance(2, S2=[(a.scale(size), b.scale(size))]))
            assert far.route == v.route == "general:real2n"
            assert _signature(far) == _signature(v)
            assert far.scale == pytest.approx(v.scale / size, rel=1e-12)
        assert not v.equivalent

    def test_equal_huge_pair_is_equivalent(self):
        a = self._diag(1e200, 0)
        v = solve_general(ProblemInstance(2, S2=[(a, a)]))
        assert v.equivalent and v.route == "general:real2n" and v.scale == 1e-200

    def test_unequal_huge_pair_is_not_equivalent(self):
        inst = ProblemInstance(2, S2=[(self._diag(1e200, 0), self._diag(2e200, 0))])
        v = solve_general(inst)
        assert not v.equivalent and v.route == "general:real2n"
        assert str(v.certificate.word) == "x0^3" and v.dimension == 6

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_entry_is_refused(self, value):
        inst = ProblemInstance(2, S2=[(self._diag(1.0, value), self._diag(1.0, 0))])
        with pytest.raises(ValueError, match="finite"):
            solve_general(inst)

    def test_all_zero_instances_are_equivalent_unscaled(self):
        z = zeros(2, 2)
        for inst in (
            ProblemInstance(2, S2=[(z, z)]),
            ProblemInstance(2, S1=[(z, z)], S4=[(z, z)]),
        ):
            v = solve_general(inst)
            assert v.equivalent and v.route == "general:real2n" and v.scale == 1.0


def _aligned(inst):
    """The eigenbasis check's S on an instance's decision letters, or None."""
    return engines._aligned_intertwiner(engines._decision(inst)[1], 1e-8)


def _witness_of(inst, s):
    """The U of an accepted S, which maps the left letters to the right
    ones: S* on the S1 route.  On the real letters S may be complex, so take
    the polar step of the ``solve_general`` proof: R = Re S + t Im S
    intertwines the real letters for every real t, so for the
    best-conditioned of a few t its orthogonal polar factor O does too, and
    U = (W_11)* with W = T O T*, T = [[I, iI], [I, -iI]] / sqrt 2."""
    n = inst.n
    if inst.counts[1:] == (0, 0, 0):
        return Matrix(np.conj(s).T, "float")
    r = min((s.real + t * s.imag for t in (0.0, 1.0, -1.0, 0.5, 2.0)), key=np.linalg.cond)
    left, _, right = np.linalg.svd(r)
    eye = np.eye(n)
    t = np.block([[eye, 1j * eye], [eye, -1j * eye]]) / math.sqrt(2)
    w = t @ (left @ right) @ np.conj(t).T
    return Matrix(np.conj(w[:n, :n]).T, "float")


class TestAlignedIntertwiner:
    """The float closure first looks for an intertwiner through one
    eigenbasis alignment of the letters, and answers Equivalent with no
    span when ``_accepted`` accepts it."""

    # (1,0,0,1) and (0,0,0,1) are of complex type, and the S1 route
    SHAPES = ROADMAP_SHAPES + [(1, 0, 0, 1), (1, 0, 0, 0), (2, 0, 0, 0)]

    def test_every_accepted_s_gives_a_witness(self):
        for shape in self.SHAPES:
            for n in (1, 2, 3, 4):
                for seed in range(6):
                    g = make_yes_instance(n, *shape, seed=seed)
                    s = _aligned(g.inst)
                    assert s is not None, (shape, n, seed)
                    u = _witness_of(g.inst, s)
                    assert verify_witness(g.inst, u), (shape, n, seed)

    def test_never_accepts_a_perturbed_instance(self):
        for shape in self.SHAPES:
            for n in (1, 2, 3, 4):
                for seed in range(6):
                    g = make_yes_instance(n, *shape, seed=seed)
                    for eps in (0.1, 1e-3):
                        p = perturb_to_no(g, eps, seed=seed + 100)
                        assert _aligned(p.inst) is None, (shape, n, seed, eps)

    def test_accepted_verdict_has_no_dimension(self, float_spans):
        v = solve_general(make_yes_instance(3, 1, 1, 1, 1, seed=1).inst)
        assert v.equivalent and v.dimension is None and v.tolerance == 1e-8
        assert "dimension" not in v.to_json()
        assert not float_spans

    def test_complex_type_is_settled_without_a_span(self, float_spans):
        # the real letters of (1,0,0,1) generate M_3(C), an algebra of
        # complex type: a real symmetric H would repeat every eigenvalue,
        # the complex Hermitian H does not
        g = make_yes_instance(3, 1, 0, 0, 1, seed=1)
        v = solve_general(g.inst)
        assert v.equivalent and v.dimension is None
        assert "dimension" not in v.to_json()
        assert not float_spans
        assert verify_witness(g.inst, _witness_of(g.inst, _aligned(g.inst)))

    def test_repeated_eigenvalue_leaves_the_span_to_decide(self, float_spans):
        # a normal 2x2 B with a repeated eigenvalue is scalar; in S2 its
        # real letters give H every eigenvalue twice, each side's eigh
        # picks its own basis of each eigenspace, and _accepted refuses S
        rng = np.random.default_rng([2, 0, 0])
        inst, u = structured_instance("normal", 2, (2,), rng)
        assert _aligned(inst) is None
        v = solve_general(inst)
        assert v.equivalent and v.dimension is not None
        assert float_spans and verify_witness(inst, u)

    @pytest.mark.parametrize("n, seed", [(8, 31), (16, 14)])
    def test_rank_deficient_letters_are_settled_without_a_span(self, n, seed, float_spans):
        # B of rank 2 gives H a null space of dimension n - 4, whose
        # eigenvectors the letters couple to the rest by rounding only; on
        # these seeds one such edge has an exactly zero product, so they
        # must root trees of their own with phase 1
        rng = np.random.default_rng(seed)
        x, y = (complex_gaussian(rng, n)[:, :2] for _ in range(2))
        b = Matrix(x @ y.conj().T, "float")
        u = random_unitary(n, rng)
        inst = ProblemInstance(n, [(u @ b @ u.adjoint(), b)])
        v = solve_general(inst)
        assert v.equivalent and v.dimension is None
        assert not float_spans
        assert verify_witness(inst, _witness_of(inst, _aligned(inst)))


class TestVerifyWitness:
    def test_constructed_witness(self):
        g = make_yes_instance(2, 1, 1, 1, 1, seed=3)
        assert verify_witness(g.inst, g.witness)

    def test_wrong_witness_rejected(self):
        hits = 0
        for seed in range(50):
            g = make_yes_instance(2, 1, 0, 1, 0, seed=seed)
            other = random_unitary(2, 10_000 + seed)
            if verify_witness(g.inst, other):
                hits += 1
        assert hits == 0

    def test_non_unitary_rejected(self):
        g = make_yes_instance(2, 1, 0, 0, 0, seed=4)
        assert not verify_witness(g.inst, identity(2).scale(2.0))

    def test_size_mismatch(self):
        g = make_yes_instance(2, 1, 0, 0, 0, seed=4)
        with pytest.raises(ValueError):
            verify_witness(g.inst, identity(3))

    def test_nan_witness_rejected(self):
        # every comparison with a NaN defect is False, so none may pass it
        nan = Matrix(np.full((2, 2), np.nan, dtype=complex), "float")
        g = make_yes_instance(2, 1, 1, 1, 1, seed=4)
        for inst in (g.inst, perturb_to_no(g, 0.1, seed=5).inst):
            assert not verify_witness(inst, nan)


class TestNonFiniteEntries:
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_every_decision_refuses(self, value):
        a, b = similar_pair(3, 2)
        a.data[0, 1] = value
        calls = [
            lambda: solve_general(ProblemInstance(3, S1=[(a, b)])),
            lambda: solve_general(ProblemInstance(3, S2=[(b, b)], S3=[(a, b)])),
            lambda: unitarily_similar(a, b),
            lambda: unitarily_similar(b, a, engine="closure"),
            lambda: unitarily_congruent(a, b),
            lambda: verify_witness(ProblemInstance(3, S1=[(a, b)]), identity(3)),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite"):
                call()


def _scaled_once_calls():
    """One call of each public decision per route, keyed by a test id."""
    a, b = similar_pair(2, 3)
    c, d = similar_pair(3, 3)
    e, f = similar_pair(4, 3)
    s1 = make_yes_instance(2, 2, 0, 0, 0, seed=5).inst
    mixed = make_yes_instance(1, 1, 1, 0, 0, seed=5)
    return {
        "general-real2n": lambda: solve_general(mixed.inst),
        "general-s1": lambda: solve_general(s1),
        "general-brute": lambda: solve_general(mixed.inst, engine="brute", max_length=2),
        "general-k": lambda: solve_general(mixed.inst, use_k_gadget=True),
        "similar-n2": lambda: unitarily_similar(a, b),
        "similar-n3": lambda: unitarily_similar(c, d),
        "similar-n4": lambda: unitarily_similar(e, f),
        "similar-closure": lambda: unitarily_similar(a, b, engine="closure"),
        "similar-brute": lambda: unitarily_similar(a, b, engine="brute"),
        "pairs-auto": lambda: simultaneously_unitarily_similar([(a, b), (b, a)]),
        "pairs-brute": lambda: simultaneously_unitarily_similar(
            [(a, b), (b, a)], engine="brute", max_length=2
        ),
        "congruent-auto": lambda: unitarily_congruent(a, b),
        "congruent-brute": lambda: unitarily_congruent(a, b, engine="brute", max_length=2),
        "congruent-k": lambda: unitarily_congruent(a, b, use_k_gadget=True),
        "specht": lambda: specht_brute(a, b, 3),
        "closure": lambda: algebra_closure(a, b),
        "verify": lambda: verify_witness(mixed.inst, mixed.witness),
        "letters": lambda: decision_letters(mixed.inst),
    }


class TestScaledOnce:
    @pytest.mark.parametrize("route", list(_scaled_once_calls()))
    def test_one_scaling_per_public_call(self, monkeypatch, route):
        # every relation is homogeneous, so one common factor per call is
        # enough; internal routes get scaled matrices and never rescale
        call = _scaled_once_calls()[route]
        calls = []

        def counted(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                return fn(*args)

            return wrapper

        monkeypatch.setattr(engines, "common_scale", counted(engines.common_scale))
        monkeypatch.setattr(
            ProblemInstance, "scaled_common", counted(ProblemInstance.scaled_common)
        )
        call()
        assert len(calls) == 1, calls


class TestTolerance:
    @pytest.mark.parametrize("tol", [0.0, -1.0, math.nan, math.inf])
    def test_rejects_a_tolerance_that_is_not_finite_positive(self, tol):
        g = make_yes_instance(2, 1, 1, 0, 0, seed=3)
        a, b = similar_pair(4, 1)
        x = rat_matrix(np.random.default_rng(2), 2)
        calls = [
            lambda: specht_brute(J, J2, 6, tol=tol),
            lambda: algebra_closure(a, b, tol=tol),
            lambda: algebra_closure(x, x, tol=tol),  # exact mode too
            lambda: unitarily_similar(J, J2, tol=tol),
            lambda: unitarily_similar(a, b, tol=tol),
            lambda: simultaneously_unitarily_similar([(a, b), (b, a)], tol=tol),
            lambda: unitarily_congruent(a, b, tol=tol),
            lambda: unitarily_congruent(J, J2, engine="brute", tol=tol),
            lambda: solve_general(g.inst, tol=tol),
            lambda: solve_general(g.inst, engine="brute", max_length=2, tol=tol),
            lambda: verify_witness(g.inst, g.witness, tol=tol),
        ]
        for call in calls:
            with pytest.raises(ValueError, match="finite positive"):
                call()


    @pytest.mark.xfail(
        strict=True,
        reason="known defect: the float span's transfer test is relative to "
        "the word, DependencyCertificate.recheck's is absolute",
    )
    @pytest.mark.parametrize("eps", [1e-9, 1e-12])
    def test_deciding_and_rechecking_share_one_threshold(self, eps):
        """S1 = [(diag(eps, 0), 0)] with S2 = [(I, I)] takes the real 2n
        route, which answers NotEquivalent with the dependency certificate
        x0; at tol 1e-8 that certificate fails its own recheck.  The same S1
        pair beside an S1 pair (I, I), which every U maps, answers
        Equivalent.  One rule for deciding and rechecking would give a
        NotEquivalent whose certificate holds, and one answer to both."""
        eye, zero = identity(2), zeros(2, 2)
        tiny = Matrix.from_complex([[eps, 0], [0, 0]])
        inst = ProblemInstance(2, S1=[(tiny, zero)], S2=[(eye, eye)])
        v = solve_general(inst)
        assert v.route == "general:real2n"
        if not v.equivalent:
            _, left, right = decision_letters(inst)
            assert v.certificate.recheck(left, right, engines.DEFAULT_TOL)
        beside = solve_general(ProblemInstance(2, S1=[(tiny, zero), (eye, eye)]))
        assert beside.result == v.result


class TestVerdictContract:
    def test_certificate_invariant(self):
        with pytest.raises(ValueError):
            Verdict(True, "closure", certificate=TraceCertificate(None, 0, 0))
        with pytest.raises(ValueError):
            Verdict(False, "closure")

    def test_trace_certificate_self_check(self):
        v = specht_brute(J, J2, 6)
        lx = [J.scale(0.5), J.scale(0.5).adjoint()]
        ly = [J2.scale(0.5), J2.scale(0.5).adjoint()]
        assert v.certificate.recheck(lx, ly, 1e-8)

    def test_dependency_certificate_self_check(self):
        g = make_yes_instance(2, 0, 1, 1, 0, seed=21)
        p = perturb_to_no(g, 0.1, seed=22)
        v = solve_general(p.inst)
        assert not v.equivalent
        if isinstance(v.certificate, DependencyCertificate):
            scale, lx, ly = decision_letters(p.inst)
            assert v.certificate.recheck(lx, ly, 1e-8)

    def test_json_shape(self):
        v = specht_brute(J, J2, 6)
        doc = v.to_json()
        assert doc["result"] == "NotEquivalent"
        assert doc["engine"] == "brute"
        assert doc["certificate"]["kind"] == "trace"
        assert "tolerance" in doc and "scale" in doc and "elapsed_s" in doc

    def test_exact_json_has_no_tolerance(self, rng):
        a = rat_matrix(rng, 2)
        v = specht_brute(a, a, 4)
        assert "tolerance" not in v.to_json()
