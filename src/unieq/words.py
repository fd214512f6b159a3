"""Formal words in noncommuting letters, their enumeration and evaluation.

A word is stored in canonical run-length form: a sequence of (letter,
exponent) runs with adjacent runs on distinct letters.  Enumeration streams
words length by length, lexicographically within each length, optionally
pruning runs above an exponent cap and collapsing cyclic-rotation and
star-reversal duplicates (both are trace-preserving, which is what the
decision engines compare).

``enumerate_words`` filters every capped string and is the reference.  The
traced walk ``iter_word_traces`` yields the same stream one length at a
time: the prefixes of one length (only necklace prefixes when it
deduplicates) carry their products stacked, the next length's products are
one stacked matrix product, and each word's trace is read off its parent's
product in O(n^2) instead of building the word's product.  Past a level of
``_WIDTH`` prefixes it goes on chunk by chunk, so its memory stays bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import groupby

import numpy as np

from .numerics import EXACT, FLOAT, Matrix, identity

DEDUP_NONE = "none"
DEDUP_CYCLIC = "cyclic"
DEDUP_CYCLIC_STAR = "cyclic+star_reversal"
_DEDUP_CHOICES = (DEDUP_NONE, DEDUP_CYCLIC, DEDUP_CYCLIC_STAR)


@dataclass(frozen=True)
class Word:
    """A formal product of letter powers, in canonical run form."""

    runs: tuple
    alphabet_size: int

    def __post_init__(self):
        if self.alphabet_size < 1:
            raise ValueError("alphabet_size must be positive")
        prev = None
        for letter, exp in self.runs:
            if not 0 <= letter < self.alphabet_size:
                raise ValueError(f"letter {letter} outside alphabet")
            if exp < 1:
                raise ValueError("run exponents must be at least 1")
            if letter == prev:
                raise ValueError("adjacent runs must use distinct letters")
            prev = letter
        object.__setattr__(self, "runs", tuple(tuple(r) for r in self.runs))

    @staticmethod
    def from_letters(letters, alphabet_size: int) -> "Word":
        runs = tuple((k, len(list(g))) for k, g in groupby(letters))
        return Word(runs, alphabet_size)

    @property
    def length(self) -> int:
        return sum(e for _, e in self.runs)

    def letters(self) -> tuple:
        out = []
        for letter, exp in self.runs:
            out.extend([letter] * exp)
        return tuple(out)

    def rotate(self, k: int = 1) -> "Word":
        seq = self.letters()
        if not seq:
            return self
        k %= len(seq)
        return Word.from_letters(seq[k:] + seq[:k], self.alphabet_size)

    def star_reversal(self) -> "Word":
        """Reverse the word and swap each letter with its star partner.

        Letters are paired (2j, 2j+1); the alphabet size must be even.
        Evaluating the result equals the adjoint of evaluating the original
        whenever letter 2j+1 is assigned the adjoint of letter 2j.
        """
        if self.alphabet_size % 2:
            raise ValueError("star reversal needs an even alphabet")
        seq = tuple(x ^ 1 for x in reversed(self.letters()))
        return Word.from_letters(seq, self.alphabet_size)

    def append_letter(self, letter: int) -> "Word":
        if not 0 <= letter < self.alphabet_size:
            raise ValueError(f"letter {letter} outside alphabet")
        if self.runs and self.runs[-1][0] == letter:
            head, (_, exp) = self.runs[:-1], self.runs[-1]
            return Word(head + ((letter, exp + 1),), self.alphabet_size)
        return Word(self.runs + ((letter, 1),), self.alphabet_size)

    def letter_name(self, letter: int) -> str:
        if self.alphabet_size == 2:
            return "st"[letter]
        base = f"x{letter // 2}"
        return base + ("*" if letter % 2 else "")

    def __str__(self):
        if not self.runs:
            return "1"
        parts = []
        for letter, exp in self.runs:
            name = self.letter_name(letter)
            parts.append(name if exp == 1 else f"{name}^{exp}")
        return " ".join(parts)


def empty_word(alphabet_size: int) -> Word:
    return Word((), alphabet_size)


# --------------------------------------------------------------------------
# length bound
# --------------------------------------------------------------------------

def pappacena_bound(m: int) -> float:
    """Word-length cutoff making the trace criterion for m-by-m pairs finite.

    Words longer than this bound add no new trace constraints; callers test
    integer lengths up to ``floor(pappacena_bound(m))``.
    """
    if m < 2:
        raise ValueError("bound requires matrix size at least 2")
    return m * math.sqrt(2.0 * m * m / (m - 1) + 0.25) + m / 2.0 - 2.0


# --------------------------------------------------------------------------
# enumeration
# --------------------------------------------------------------------------

def _check_dedup(dedup: str, alphabet_size: int):
    if dedup not in _DEDUP_CHOICES:
        raise ValueError(f"unknown dedup {dedup!r}; choices: {_DEDUP_CHOICES}")
    if dedup == DEDUP_CYCLIC_STAR and alphabet_size % 2:
        raise ValueError("star-reversal dedup needs an even alphabet")


def _is_canonical(seq: tuple, dedup: str) -> bool:
    """True when seq is the lexicographically least member of its dedup class."""
    if dedup == DEDUP_NONE:
        return True
    n = len(seq)
    for i in range(1, n):
        if seq[i:] + seq[:i] < seq:
            return False
    return dedup != DEDUP_CYCLIC_STAR or _star_least(seq)


def _star_least(seq: tuple) -> bool:
    """True when no rotation of seq's star-reversal is less than seq."""
    n = len(seq)
    twice = tuple(x ^ 1 for x in reversed(seq)) * 2
    return all(twice[i:i + n] >= seq for i in range(n))


def _check_exponent(max_exponent):
    if max_exponent is not None and max_exponent < 1:
        raise ValueError("max_exponent must be positive")


def _letter_strings(alphabet_size: int, length: int, max_exponent):
    """All letter tuples of one length, lexicographic, runs capped."""
    cap = max_exponent if max_exponent is not None else length
    path = []

    def go(depth, run_letter, run_len):
        if depth == length:
            yield tuple(path)
            return
        for letter in range(alphabet_size):
            if letter == run_letter and run_len >= cap:
                continue
            path.append(letter)
            new_run = run_len + 1 if letter == run_letter else 1
            yield from go(depth + 1, letter, new_run)
            path.pop()

    yield from go(0, -1, 0)


def enumerate_words(
    alphabet_size: int,
    max_length: int,
    max_exponent: int | None = None,
    dedup: str = DEDUP_NONE,
):
    """Stream all words of length 1..max_length, shortest first.

    Within one length the order is lexicographic on the letter sequence, so
    the stream is deterministic and certificate tie-breaking is reproducible.
    With deduplication only the least representative of each class appears.
    This is the unpruned reference: it tests every capped string with
    ``_is_canonical``, and the pruned walk in ``iter_word_traces`` is
    checked against it.
    """
    if alphabet_size < 1:
        raise ValueError("alphabet_size must be positive")
    _check_exponent(max_exponent)
    _check_dedup(dedup, alphabet_size)
    for length in range(1, max_length + 1):
        for seq in _letter_strings(alphabet_size, length, max_exponent):
            if _is_canonical(seq, dedup):
                yield Word.from_letters(seq, alphabet_size)


def word_count(alphabet_size: int, max_length: int, max_exponent=None) -> int:
    """Number of words of length 1..max_length with runs capped (no dedup)."""
    _check_exponent(max_exponent)
    if max_length < 1:
        return 0
    cap = max_exponent if max_exponent is not None else max_length
    # v[L] counts capped strings of length L whose first letter is fixed
    v = [0] * (max_length + 1)
    for length in range(1, max_length + 1):
        total = 0
        for e in range(1, min(cap, length) + 1):
            if e == length:
                total += 1
            else:
                total += (alphabet_size - 1) * v[length - e]
        v[length] = total
    return alphabet_size * sum(v[1:])


# --------------------------------------------------------------------------
# evaluation
# --------------------------------------------------------------------------

# The traced walk keeps a whole level only while it has at most this many
# prefixes, and walks past the last such level in chunks of this many.
_WIDTH = 2048


def _check_letters(letters, alphabet_size: int):
    if len(letters) != alphabet_size:
        raise ValueError(
            f"expected {alphabet_size} letter matrices, got {len(letters)}"
        )
    first = letters[0]
    if not first.is_square:
        raise ValueError("letter matrices must be square")
    for m in letters:
        first._check_mode(m)
        if m.shape != first.shape:
            raise ValueError("letter matrices must share one size")


def eval_word(w: Word, letters) -> Matrix:
    """Evaluate a word at concrete letter matrices (empty word gives I)."""
    _check_letters(letters, w.alphabet_size)
    n = letters[0].rows
    result = identity(n, letters[0].mode)
    for letter, exp in w.runs:
        result = result @ letters[letter].power(exp)
    return result


def iter_word_traces(
    letter_sets,
    max_length: int,
    max_exponent: int | None = None,
    dedup: str = DEDUP_NONE,
):
    """Stream ``(word, traces)`` over every enumerated word.

    ``letter_sets`` is a list of letter assignments (each one matrix per
    letter), or one array (sets, letters, n, n) of their entries; ``traces``
    holds the trace of the word's product under each assignment, in order.
    The stream is the one ``enumerate_words`` gives.

    The walk goes one level at a time.  A level is the list of prefixes of
    one length, in lexicographic order, with their products stacked as
    (prefixes, sets, n, n); the next level's products are one ``matmul`` of
    the gathered parent products and the gathered letters.  When
    deduplicating, a level holds only prenecklaces (Fredricksen-Kessler-
    Maiorana; every prefix of a necklace is one), a string of the target
    length is kept only when it is a necklace, and the star-reversal test
    runs on those necklaces alone.  The traces of one length's words are
    read off their parents' products in one product-and-sum, ``tr(P M) =
    sum(P * M.T)``, so no leaf product is built.

    The stored level advances only while its next level has at most
    ``_WIDTH`` prefixes.  Longer words are reached from it in chunks of at
    most ``_WIDTH`` prefixes, breadth first inside a chunk and depth first
    across chunks, so words still come out length by length.  Each length
    below the stored level then holds one chunk and its children, so memory
    is O(``_WIDTH`` * length) products and prefixes, however many words the
    walk yields.
    """
    letters = letter_sets
    if not isinstance(letters, np.ndarray):
        if not letter_sets:
            raise ValueError("need at least one letter set")
        for ls in letter_sets:
            if len(ls) != len(letter_sets[0]):
                raise ValueError("letter sets must share one alphabet size")
            _check_letters(ls, len(ls))
        letters = np.array([[m.data for m in ls] for ls in letter_sets])
    nsets, alphabet_size, n = letters.shape[:3]
    _check_exponent(max_exponent)
    _check_dedup(dedup, alphabet_size)

    # letter-major stacks (letters, sets, n, n) and their transposes, flat
    stacks = np.ascontiguousarray(letters.swapaxes(0, 1))
    flips = stacks.transpose(0, 1, 3, 2).reshape(alphabet_size, nsets, n * n)
    mode = EXACT if letters.dtype == object else FLOAT
    necklaces = dedup != DEDUP_NONE
    star = dedup == DEDUP_CYCLIC_STAR
    cap = max_exponent

    # A prefix is (parent, letters, period, run): parent is the index of
    # its own prefix in the level above, period the length of its longest
    # Lyndon prefix (the FKM period p) and run the length of its last run.

    def children(prefixes):
        kids = []
        for parent, (_, seq, period, run) in enumerate(prefixes):
            depth = len(seq)
            last = seq[-1] if seq else -1
            low = seq[depth - period] if necklaces and seq else 0
            for letter in range(low, alphabet_size):
                if letter == last and cap is not None and run >= cap:
                    continue
                kids.append((
                    parent,
                    (*seq, letter),
                    period if letter == low else depth + 1,
                    run + 1 if letter == last else 1,
                ))
        return kids

    def extend(prods, kids):
        """The products of ``kids`` from their parents' ``prods``."""
        parent = [k[0] for k in kids]
        letter = [k[1][-1] for k in kids]
        return np.matmul(prods[parent], stacks[letter])

    def words(prods, kids, length):
        """The words among ``kids``, with their traces."""
        if necklaces:
            kids = [k for k in kids if length % k[2] == 0]
        parent = [k[0] for k in kids]
        letter = [k[1][-1] for k in kids]
        flat = prods.reshape(-1, nsets, n * n)[parent]
        traces = (flat * flips[letter]).sum(axis=2).tolist()
        for (_, seq, _, _), row in zip(kids, traces):
            if star and not _star_least(seq):
                continue
            yield Word.from_letters(seq, alphabet_size), tuple(row)

    def descend(prefixes, prods, depth, length):
        """The words of ``length`` below one level, chunk by chunk."""
        kids = children(prefixes)
        if depth == length - 1:
            yield from words(prods, kids, length)
            return
        for lo in range(0, len(kids), _WIDTH):
            chunk = kids[lo:lo + _WIDTH]
            yield from descend(chunk, extend(prods, chunk), depth + 1, length)

    eye = np.stack([identity(n, mode).data] * nsets)
    prefixes, prods, depth = [(0, (), 1, 0)], eye[None], 0
    for length in range(1, max_length + 1):
        if depth < length - 1:
            yield from descend(prefixes, prods, depth, length)
            continue
        kids = children(prefixes)
        yield from words(prods, kids, length)
        if length < max_length and len(kids) <= _WIDTH:
            prefixes, prods, depth = kids, extend(prods, kids), length


def word_trace_spectrum(
    X: Matrix,
    Y: Matrix,
    max_length: int,
    max_exponent: int | None = None,
    dedup: str = DEDUP_NONE,
):
    """Traces of every word evaluated at the letter pair (X, Y).

    Returns a list of (word, trace) in the deterministic stream order used
    everywhere else; feeding (A, adjoint(A)) gives the similarity invariants
    of A.
    """
    out = []
    for word, traces in iter_word_traces(
        [[X, Y]], max_length, max_exponent, dedup
    ):
        out.append((word, traces[0]))
    return out
