"""Block "gadget" matrices that carry matrix pairs above a chain of identities.

Every gadget builder here emits a strictly block upper triangular matrix
with the identity along the first block superdiagonal and the pair data
placed in blocks with column minus row at least two.  Unitary similarity or
congruence of two such gadgets is equivalent to the simultaneous unitary
equivalences of the pairs they carry.  ``build_real_letters`` instead
encodes the four-family problem in real 2n-by-2n letters.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field

import numpy as np

from .numerics import (
    FLOAT,
    Matrix,
    as_matrices,
    block,
    clear_denominators,
    common_scale,
    gaussian_rationals,
    identity,
    zeros,
)

# (i parity, j parity) demanded for each of the four pair families, 1-based:
# set 1 rides similarity via U, set 2 congruence via U, set 3 the conjugated
# similarity relation, set 4 the conjugated congruence relation.
_PARITY = {
    1: (1, 0),
    2: (1, 1),
    3: (0, 0),
    4: (0, 1),
}

# The relation each pair family asks of the unitary U: the A side it makes
# of the B side.
_RELATIONS = {
    1: lambda u, b: u @ b @ u.adjoint(),
    2: lambda u, b: u @ b @ u.transpose(),
    3: lambda u, b: u.conj() @ b @ u.adjoint(),
    4: lambda u, b: u.conj() @ b @ u.transpose(),
}

# Each pair family's block of the 2n-by-2n real-letter construction is
# (1,1), (1,2), (2,1) or (2,2): W = U (+) conj(U) maps a matrix B placed
# there, by L -> W L W*, to U B U*, U B U^T, conj(U) B U* or conj(U) B U^T.
# With S = [[I, iI], [I, -iI]], S* L S = [[B, s12 iB], [s21 iB, s22 B]];
# these are the signs (s12, s21, s22).
_REAL_SIGNS = {1: (1, -1, 1), 2: (-1, -1, -1), 3: (1, 1, -1), 4: (-1, 1, 1)}
_POSITIVE = np.array([_REAL_SIGNS[s] for s in (1, 2, 3, 4)]) > 0  # row s - 1


@dataclass
class ProblemInstance:
    """Four families of same-size matrix pairs sharing one scalar mode.

    S1 pairs must match via U, S2 via U and its transpose, S3 and S4 via the
    entrywise conjugate of U (similarity and congruence respectively).
    """

    n: int
    S1: list = field(default_factory=list)
    S2: list = field(default_factory=list)
    S3: list = field(default_factory=list)
    S4: list = field(default_factory=list)

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("block size n must be positive")
        mode = None
        for _, _, a, b in self.pairs():
            for m in (a, b):
                if m.shape != (self.n, self.n):
                    raise ValueError(
                        f"all matrices must be {self.n}x{self.n}, got {m.shape}"
                    )
                if mode is None:
                    mode = m.mode
                elif m.mode != mode:
                    raise ValueError("all matrices must share one scalar mode")

    def pairs(self):
        """Yield (set_id, pair_index, A, B) over every stored pair."""
        for set_id, family in enumerate((self.S1, self.S2, self.S3, self.S4), 1):
            for idx, (a, b) in enumerate(family):
                yield set_id, idx, a, b

    @property
    def counts(self):
        return (len(self.S1), len(self.S2), len(self.S3), len(self.S4))

    @property
    def total_pairs(self) -> int:
        return sum(self.counts)

    @property
    def mode(self) -> str:
        for _, _, a, _ in self.pairs():
            return a.mode
        return FLOAT

    def family(self, set_id: int):
        return (self.S1, self.S2, self.S3, self.S4)[set_id - 1]

    def scaled_common(self):
        """Rescale every matrix by one common factor (max norm <= 1), all in
        one stacked pass."""
        if not self.total_pairs:
            return 1.0, ProblemInstance(self.n)
        factor, (a, b) = common_scale(stack_pairs(p[2:] for p in self.pairs()))
        pairs = iter(zip(as_matrices(a), as_matrices(b)))
        families = [[next(pairs) for _ in range(count)] for count in self.counts]
        return factor, ProblemInstance(self.n, *families)


@dataclass(frozen=True)
class Placement:
    set_id: int
    pair_index: int
    i: int
    j: int


@dataclass(frozen=True)
class GadgetLayout:
    """Block positions assigned to each pair inside a k-block gadget."""

    n: int
    k: int
    placements: tuple

    def __post_init__(self):
        seen = set()
        for p in self.placements:
            if not (1 <= p.i < p.j <= self.k):
                raise ValueError(f"placement ({p.i},{p.j}) outside 1..{self.k}")
            if p.j - p.i < 2:
                raise ValueError(
                    f"placement ({p.i},{p.j}) must sit above the identity "
                    "superdiagonal (column - row >= 2)"
                )
            if (p.i, p.j) in seen:
                raise ValueError(f"duplicate placement ({p.i},{p.j})")
            seen.add((p.i, p.j))

    def check_parity(self):
        """Enforce the row/column parity demanded by each pair family."""
        for p in self.placements:
            want = _PARITY[p.set_id]
            if (p.i % 2, p.j % 2) != want:
                raise ValueError(
                    f"set {p.set_id} pair at block ({p.i},{p.j}) violates the "
                    f"required (row, column) parity {want}"
                )

    def slot_of(self, set_id: int, pair_index: int):
        for p in self.placements:
            if p.set_id == set_id and p.pair_index == pair_index:
                return (p.i, p.j)
        raise KeyError((set_id, pair_index))


@dataclass(frozen=True)
class Gadget:
    M: Matrix
    layout: GadgetLayout


def class_slots(k: int, set_id: int):
    """Admissible (i, j) block slots for one pair family, row-major."""
    pi, pj = _PARITY[set_id]
    return [
        (i, j)
        for i in range(1, k + 1)
        if i % 2 == pi
        for j in range(i + 2, k + 1)
        if j % 2 == pj
    ]


def plan_layout(m1: int, m2: int, m3: int, m4: int, n: int) -> GadgetLayout:
    """Smallest block count whose parity classes fit every family, filled
    row-major within each class."""
    counts = (m1, m2, m3, m4)
    if any(m < 0 for m in counts):
        raise ValueError("pair counts must be nonnegative")
    if sum(counts) == 0:
        raise ValueError("at least one pair family must be nonempty")
    if n < 1:
        raise ValueError("block size n must be positive")
    k = 3
    while True:
        if all(len(class_slots(k, s + 1)) >= counts[s] for s in range(4)):
            break
        k += 1
    placements = []
    for set_id in range(1, 5):
        slots = class_slots(k, set_id)
        for idx in range(counts[set_id - 1]):
            i, j = slots[idx]
            placements.append(Placement(set_id, idx, i, j))
    return GadgetLayout(n, k, tuple(placements))


def _assemble(n: int, k: int, placed: dict, mode: str) -> Matrix:
    eye = identity(n, mode)
    zero = zeros(n, n, mode)
    grid = []
    for i in range(1, k + 1):
        row = []
        for j in range(1, k + 1):
            if j == i + 1:
                row.append(eye)
            else:
                row.append(placed.get((i, j), zero))
        grid.append(row)
    return block(grid)


def build_similarity_gadget(pairs, n: int):
    """Gadget pair whose unitary similarity encodes simultaneous unitary
    similarity of the given pairs.

    The layout uses k = m + 2 blocks with pair i at block (i, i+2); any
    layout with enough distinct slots above the identity superdiagonal
    would work, no parity is needed here.
    """
    pairs = list(pairs)
    if not pairs:
        raise ValueError("need at least one pair")
    _check_pairs(pairs, n)
    m = len(pairs)
    placements = tuple(Placement(1, idx, idx + 1, idx + 3) for idx in range(m))
    layout = GadgetLayout(n, m + 2, placements)
    mode = pairs[0][0].mode
    placed_a = {(p.i, p.j): pairs[p.pair_index][0] for p in placements}
    placed_b = {(p.i, p.j): pairs[p.pair_index][1] for p in placements}
    ga = Gadget(_assemble(n, layout.k, placed_a, mode), layout)
    gb = Gadget(_assemble(n, layout.k, placed_b, mode), layout)
    return ga, gb


def build_general_gadget(inst: ProblemInstance, layout: GadgetLayout | None = None):
    """Gadget pair whose unitary *congruence* encodes the full four-family
    problem, using the parity placement rules."""
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    m1, m2, m3, m4 = inst.counts
    if layout is None:
        layout = plan_layout(m1, m2, m3, m4, inst.n)
    layout.check_parity()
    placed_a = {}
    placed_b = {}
    for set_id in range(1, 5):
        family = inst.family(set_id)
        for idx in range(len(family)):
            i, j = layout.slot_of(set_id, idx)
            a, b = family[idx]
            placed_a[(i, j)] = a
            placed_b[(i, j)] = b
    mode = inst.mode
    ga = Gadget(_assemble(inst.n, layout.k, placed_a, mode), layout)
    gb = Gadget(_assemble(inst.n, layout.k, placed_b, mode), layout)
    return ga, gb


def stack_pairs(pairs):
    """The entries of matrix pairs (A, B), stacked (2, pairs, n, n): every
    A, then every B."""
    return np.array([[m.data for m in side] for side in zip(*pairs)])


def real_letter_stack(stack, counts, denom=None):
    """The real 2n-by-2n letters, whose simultaneous unitary similarity is
    equivalent to the whole instance, built once for all m pairs as one
    array (2, 4 m + 1, 2n, 2n) of float64, side on axis 0.  ``stack`` holds
    the pairs as ``stack_pairs`` stacks them, in family order, ``counts[s -
    1]`` of family s; a decision passes them right after its single scaling
    (``engines._decision``).  Given ``denom``, ``stack`` holds instead
    Gaussian integers over denom, in the layout (2, m, parts, n, n) of
    ``clear_denominators``, and the letters come as Gaussian integers (2, 4
    m + 1, 1, 2n, 2n) over 2 denom.

    Each pair matrix sits at its family's block of a 2n-by-2n zero matrix
    L.  With S = [[I, iI], [I, -iI]] = sqrt(2) T, the real and imaginary
    parts of T* L T = S* L S / 2, each followed by its transpose, are
    letters, the parts P, Q of B / 2 placed with signs by the closed form of
    S* L S (``_letter_plan``), with no matrix product and one gather; over
    2 denom, P and Q are the parts of the integers themselves.  The last
    letter is Im(T* E T) = [[0, I], [-I, 0]] / 2 for E = diag(I, 0).
    ``solve_general`` proves the equivalence.
    """
    if denom is None:
        p, q = stack.real * 0.5 + 0.0, stack.imag * 0.5 + 0.0  # zeros all +0.0
        half = [0.5, 0.0]
    else:
        p = stack[:, :, 0]
        q = stack[:, :, 1] if stack.shape[2] == 2 else np.zeros_like(p)
        half = [denom, 0]
    values = np.concatenate([p.ravel(), q.ravel(), half])
    plan = _letter_plan(tuple(counts), stack.shape[-1])
    letters = np.concatenate([[0], values, -values[::-1]])[plan]
    return letters if denom is None else letters[:, :, None]


@functools.lru_cache(maxsize=64)
def _letter_plan(counts, n: int):
    """Where each entry of ``real_letter_stack``'s letters comes from: k for
    the k-th of the entries of P and Q, flattened in turn, then the diagonal
    and the other entries of I / 2 (k from 1), -k for its negative, and 0
    for an entry 0.  The off-diagonal zeros of the block -I / 2 are the
    negatives of those of I / 2, -0.0 in floats."""
    m = sum(counts)
    p = np.arange(1, 2 * m * n * n + 1).reshape(2, m, n, n)
    q = p + p.size
    half = np.where(np.identity(n, dtype=bool), 2 * p.size + 1, 2 * p.size + 2)
    s12, s21, s22 = np.repeat(_POSITIVE, counts, axis=0).T[:, :, None, None]
    out = np.empty((2, 4 * m + 1, 2 * n, 2 * n), dtype=np.intp)
    # (side, pair, real | imaginary part, letter | transpose)
    parts = out[:, :-1].reshape(2, m, 2, 2, 2 * n, 2 * n)
    re, im = parts[:, :, 0, 0], parts[:, :, 1, 0]
    # B / 2 = P + iQ, so Re(s iB / 2) = -s Q and Im(s iB / 2) = s P
    re[..., :n, :n], im[..., :n, :n] = p, q
    re[..., :n, n:], im[..., :n, n:] = np.where(s12, -q, q), np.where(s12, p, -p)
    re[..., n:, :n], im[..., n:, :n] = np.where(s21, -q, q), np.where(s21, p, -p)
    re[..., n:, n:], im[..., n:, n:] = np.where(s22, p, -p), np.where(s22, q, -q)
    parts[:, :, :, 1] = parts[:, :, :, 0].swapaxes(-1, -2)
    out[:, -1] = np.block([[0 * half, half], [-half, 0 * half]])
    out.flags.writeable = False  # one plan for every call
    return out


def build_real_letters(inst: ProblemInstance):
    """The ``real_letter_stack`` of an instance as ``(left, right)``, two
    lists of Matrix views of that one array."""
    if inst.total_pairs == 0:
        raise ValueError("instance has no pairs")
    stack = stack_pairs(p[2:] for p in inst.pairs())
    if stack.dtype == object:
        denom, ints = clear_denominators(stack)
        letters = gaussian_rationals(2 * denom, real_letter_stack(ints, inst.counts, denom))
    else:
        letters = real_letter_stack(stack, inst.counts)
    return as_matrices(letters[0]), as_matrices(letters[1])


def _check_pairs(pairs, n: int):
    for a, b in pairs:
        if a.shape != (n, n) or b.shape != (n, n):
            raise ValueError(f"pair matrices must be {n}x{n}")
        a._check_mode(b)


# --------------------------------------------------------------------------
# congruence reductions
# --------------------------------------------------------------------------

def congruence_triple(A: Matrix, B: Matrix):
    """The three derived pairs whose simultaneous unitary similarity is
    equivalent to unitary congruence of A and B: (A A*, B B*),
    (A conj(A), B conj(B)) and (A^T conj(A), B^T conj(B)).  When A or B is
    nonsingular the first two pairs suffice; the brute route of
    ``unitarily_congruent`` drops the third pair then.
    """
    A._check_mode(B)
    if A.shape != B.shape or not A.is_square:
        raise ValueError("congruence needs two square matrices of equal size")
    return [
        (A @ A.adjoint(), B @ B.adjoint()),
        (A @ A.conj(), B @ B.conj()),
        (A.transpose() @ A.conj(), B.transpose() @ B.conj()),
    ]


def _k_gadget(A: Matrix, with_third: bool) -> Matrix:
    n = A.rows
    mode = A.mode
    eye = identity(n, mode)
    zero = zeros(n, n, mode)
    third = A.transpose() @ A.conj() if with_third else zero
    grid = [
        [zero, eye, A @ A.adjoint(), A @ A.conj()],
        [zero, zero, eye, third],
        [zero, zero, zero, eye],
        [zero, zero, zero, zero],
    ]
    return block(grid)


def build_congruence_K(A: Matrix) -> Matrix:
    """The 4n-by-4n nilpotent gadget reducing unitary congruence of A to
    unitary similarity (index four, so word exponents above 3 vanish)."""
    if not A.is_square:
        raise ValueError("K gadget needs a square matrix")
    return _k_gadget(A, with_third=True)


def build_congruence_K_prime(A: Matrix) -> Matrix:
    """Variant of the K gadget valid when A or B is nonsingular (the block
    carrying transpose(A) conj(A) is zeroed)."""
    if not A.is_square:
        raise ValueError("K gadget needs a square matrix")
    return _k_gadget(A, with_third=False)
