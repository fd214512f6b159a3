import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unieq import (
    DEDUP_CYCLIC,
    DEDUP_CYCLIC_STAR,
    DEDUP_NONE,
    Matrix,
    Word,
    empty_word,
    enumerate_words,
    eval_word,
    identity,
    iter_word_traces,
    pappacena_bound,
    specht_brute,
    word_count,
    word_trace_spectrum,
)

from conftest import rand_matrix, rat_matrix, similar_pair


# -- independent oracles ----------------------------------------------------

def brute_strings(alphabet, length, cap=None):
    """Every letter string of one length with run lengths capped, via
    itertools; deliberately ignorant of the words module internals."""
    out = []
    for seq in product(range(alphabet), repeat=length):
        if cap is not None:
            run = 1
            ok = True
            for a, b in zip(seq, seq[1:]):
                run = run + 1 if a == b else 1
                if run > cap:
                    ok = False
                    break
            if not ok:
                continue
        out.append(seq)
    return out


def string_eval(seq, letters):
    """Evaluate a letter string by plain left-to-right multiplication."""
    out = identity(letters[0].rows, letters[0].mode)
    for s in seq:
        out = out @ letters[s]
    return out


# -- the length bound --------------------------------------------------------

class TestLengthBound:
    @pytest.mark.parametrize(
        "m,value",
        [(8, 36.44), (12, 65.69), (16, 99.82), (2, 4.74)],
    )
    def test_values(self, m, value):
        assert pappacena_bound(m) == pytest.approx(value, abs=0.01)

    def test_small_m_rejected(self):
        with pytest.raises(ValueError):
            pappacena_bound(1)


# -- enumeration -------------------------------------------------------------

class TestEnumeration:
    def test_length_one(self):
        ws = [str(w) for w in enumerate_words(2, 1)]
        assert ws == ["s", "t"]

    def test_length_two_count(self):
        ws = list(enumerate_words(2, 2))
        assert len(ws) == 6
        assert [str(w) for w in ws] == ["s", "t", "s^2", "s t", "t s", "t^2"]

    @pytest.mark.parametrize("L", range(1, 11))
    def test_uncapped_count_formula(self, L):
        assert sum(1 for _ in enumerate_words(2, L)) == 2 ** (L + 1) - 2

    def test_capped_length_four(self):
        ws = [w for w in enumerate_words(2, 4, max_exponent=3) if w.length == 4]
        oracle = brute_strings(2, 4, cap=3)
        assert len(ws) == len(oracle) == 14

    def test_word_count_matches_enumeration(self):
        for cap in (None, 1, 2, 3):
            expect = sum(
                len(brute_strings(3, L, cap)) for L in range(1, 6)
            )
            assert word_count(3, 5, cap) == expect

    def test_canonical_run_form_stable(self):
        for w in enumerate_words(2, 6, max_exponent=4):
            assert Word.from_letters(w.letters(), 2) == w

    @given(st.lists(st.integers(0, 2), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_roundtrip_letters(self, seq):
        w = Word.from_letters(seq, 3)
        assert list(w.letters()) == seq
        assert w.length == len(seq)
        for a, b in zip(w.runs, w.runs[1:]):
            assert a[0] != b[0]

    def test_cyclic_partition_property(self):
        for L in range(1, 7):
            reps = [
                w.letters()
                for w in enumerate_words(2, L, dedup=DEDUP_CYCLIC)
                if w.length == L
            ]
            expanded = set()
            for seq in reps:
                for i in range(L):
                    expanded.add(seq[i:] + seq[:i])
            assert expanded == set(brute_strings(2, L))

    def test_star_reversal_needs_even_alphabet(self):
        with pytest.raises(ValueError):
            list(enumerate_words(3, 2, dedup=DEDUP_CYCLIC_STAR))

    def test_star_dedup_classes_cover(self):
        L = 5
        reps = [
            w.letters()
            for w in enumerate_words(2, L, dedup=DEDUP_CYCLIC_STAR)
            if w.length == L
        ]
        expanded = set()
        for seq in reps:
            rev = tuple(x ^ 1 for x in reversed(seq))
            for base in (seq, rev):
                for i in range(L):
                    expanded.add(base[i:] + base[:i])
        assert expanded == set(brute_strings(2, L))

    def test_stream_is_length_lexicographic(self):
        seen = [w for w in enumerate_words(2, 5)]
        keys = [(w.length, w.letters()) for w in seen]
        assert keys == sorted(keys)


# -- evaluation --------------------------------------------------------------

class TestEvaluation:
    def test_empty_word(self, rng):
        letters = [rand_matrix(rng, 3), rand_matrix(rng, 3)]
        assert eval_word(empty_word(2), letters) == identity(3)

    def test_jordan_st(self):
        a = Matrix.from_complex([[0, 1], [0, 0]])
        w = Word.from_letters([0, 1], 2)
        value = eval_word(w, [a, a.adjoint()])
        assert value.allclose(Matrix.from_complex([[1, 0], [0, 0]]))

    def test_matches_string_oracle(self, rng):
        a = rand_matrix(rng, 3)
        letters = [a, a.adjoint()]
        for seq in brute_strings(2, 4):
            w = Word.from_letters(seq, 2)
            got = eval_word(w, letters)
            want = string_eval(seq, letters)
            assert (got - want).norm_fro() <= 1e-12 * (1 + want.norm_fro())

    def test_rotation_trace_invariance(self, rng):
        for _ in range(50):
            a = rand_matrix(rng, 3)
            letters = [a, a.adjoint()]
            length = int(rng.integers(2, 7))
            seq = tuple(int(x) for x in rng.integers(0, 2, size=length))
            w = Word.from_letters(seq, 2)
            t0 = eval_word(w, letters).trace()
            t1 = eval_word(w.rotate(1), letters).trace()
            assert abs(t0 - t1) <= 1e-12 * (1 + abs(t0))

    def test_star_reversal_conjugates_trace(self, rng):
        for _ in range(50):
            a = rand_matrix(rng, 3)
            letters = [a, a.adjoint()]
            length = int(rng.integers(1, 7))
            seq = tuple(int(x) for x in rng.integers(0, 2, size=length))
            w = Word.from_letters(seq, 2)
            t = eval_word(w, letters).trace()
            tstar = eval_word(w.star_reversal(), letters).trace()
            assert abs(tstar - t.conjugate()) <= 1e-12 * (1 + abs(t))

    def test_letter_count_checked(self, rng):
        w = Word.from_letters([0, 1], 2)
        with pytest.raises(ValueError):
            eval_word(w, [rand_matrix(rng, 2)])


# -- spectra -----------------------------------------------------------------

class TestSpectrum:
    def test_zero_matrices(self):
        z = Matrix.from_complex([[0, 0], [0, 0]])
        spec = word_trace_spectrum(z, z, 3)
        assert len(spec) == 2 + 4 + 8
        assert all(t == 0 for _, t in spec)

    def test_jordan_examples(self):
        a = Matrix.from_complex([[0, 1], [0, 0]])
        spec = dict(
            (str(w), t) for w, t in word_trace_spectrum(a, a.adjoint(), 2)
        )
        assert spec["s t"] == pytest.approx(1)
        assert spec["s"] == pytest.approx(0)

    def test_full_spectrum_against_string_bruteforce(self, rng):
        a = Matrix.from_complex([[0, 1], [0, 0]])
        letters = [a, a.adjoint()]
        spec = word_trace_spectrum(a, a.adjoint(), 4)
        assert len(spec) == 30  # 2 + 4 + 8 + 16 strings
        by_word = {w.letters(): t for w, t in spec}
        count = 0
        for L in range(1, 5):
            for seq in brute_strings(2, L):
                count += 1
                want = string_eval(seq, letters).trace()
                assert by_word[tuple(seq)] == pytest.approx(want, abs=1e-13)
        assert count == 30

    def test_multi_set_stream(self, rng):
        a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        letter_sets = [[a, a.adjoint()], [b, b.adjoint()]]
        rows = list(iter_word_traces(letter_sets, 3))
        assert len(rows) == 14
        # the letters' entries stacked (sets, letters, n, n) give the same stream
        stacked = np.array([[m.data for m in ls] for ls in letter_sets])
        assert list(iter_word_traces(stacked, 3)) == rows
        for w, (ta, tb) in rows:
            assert ta == pytest.approx(
                string_eval(w.letters(), [a, a.adjoint()]).trace(), abs=1e-12
            )
            assert tb == pytest.approx(
                string_eval(w.letters(), [b, b.adjoint()]).trace(), abs=1e-12
            )

    def test_rejects_exponent_zero(self, rng):
        # as enumerate_words does: a cap of 0 admits no run of any letter
        a = rand_matrix(rng, 2)
        with pytest.raises(ValueError, match="max_exponent"):
            next(iter_word_traces([[a, a.adjoint()]], 3, max_exponent=0))
        with pytest.raises(ValueError, match="max_exponent"):
            word_count(2, 3, 0)


class TestStreamMatchesEnumeration:
    """``iter_word_traces`` prunes its walk to necklace prefixes when it
    deduplicates; ``enumerate_words`` filters every string and is the
    reference for the words and their order."""

    @staticmethod
    def check(letter_sets, words, rows):
        assert [w for w, _ in rows] == words
        for w, traces in rows:
            for letters, t in zip(letter_sets, traces):
                want = string_eval(w.letters(), letters).trace()
                assert abs(t - want) <= 1e-12 * (1 + abs(want))

    @pytest.mark.parametrize(
        "alphabet,max_length,dedup",
        [
            (a, max_length, dedup)
            for a, max_length in [(2, 10), (3, 6), (4, 6)]
            for dedup in (DEDUP_NONE, DEDUP_CYCLIC, DEDUP_CYCLIC_STAR)
            if a % 2 == 0 or dedup != DEDUP_CYCLIC_STAR
        ],
    )
    @pytest.mark.parametrize("cap", [None, 1, 2, 3])
    def test_float_stream(self, rng, alphabet, max_length, dedup, cap):
        letter_sets = [
            [rand_matrix(rng, 3) for _ in range(alphabet)] for _ in range(2)
        ]
        rows = list(iter_word_traces(letter_sets, max_length, cap, dedup))
        words = list(enumerate_words(alphabet, max_length, cap, dedup))
        self.check(letter_sets, words, rows)

    def test_exact_traces_are_equal(self, rng):
        a, b = rat_matrix(rng, 2), rat_matrix(rng, 2)
        letter_sets = [[a, a.adjoint()], [b, b.adjoint()]]
        rows = list(iter_word_traces(letter_sets, 7, None, DEDUP_CYCLIC_STAR))
        words = list(enumerate_words(2, 7, None, DEDUP_CYCLIC_STAR))
        assert [w for w, _ in rows] == words
        stacked = np.array([[m.data for m in ls] for ls in letter_sets])
        assert list(iter_word_traces(stacked, 7, None, DEDUP_CYCLIC_STAR)) == rows
        for w, traces in rows:
            for letters, t in zip(letter_sets, traces):
                assert t == string_eval(w.letters(), letters).trace()


class TestStreamInChunks(TestStreamMatchesEnumeration):
    """The same streams with the stored level held to 1 or 3 prefixes, so
    that the walk reaches every longer word chunk by chunk."""

    @pytest.fixture(autouse=True, params=[1, 3])
    def width(self, request, monkeypatch):
        monkeypatch.setattr("unieq.words._WIDTH", request.param)


class TestWalkMemory:
    def test_long_walk_peak_is_bounded(self):
        # n = 4 up to length 18: 2**19 - 2 strings.  The walk peaks near
        # 13 MB; keeping every level whole peaks near 37 MB.
        a, b = similar_pair(4, 3)
        tracemalloc.start()
        try:
            verdict = specht_brute(a, b, 18)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.equivalent
        assert peak < 24 * 2**20


class TestWordType:
    def test_validation(self):
        with pytest.raises(ValueError):
            Word(((0, 0),), 2)  # zero exponent
        with pytest.raises(ValueError):
            Word(((0, 1), (0, 2)), 2)  # adjacent equal letters
        with pytest.raises(ValueError):
            Word(((5, 1),), 2)  # letter outside alphabet

    def test_serialization(self):
        w = Word(((0, 2), (1, 1), (0, 1), (1, 3)), 2)
        assert str(w) == "s^2 t s t^3"
        w4 = Word(((0, 1), (1, 2), (2, 1)), 4)
        assert str(w4) == "x0 x0*^2 x1"
        assert str(empty_word(2)) == "1"

    def test_append_letter(self):
        w = Word(((0, 1),), 2)
        assert w.append_letter(0).runs == ((0, 2),)
        assert w.append_letter(1).runs == ((0, 1), (1, 1))
