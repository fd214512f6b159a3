"""Seeded instance generation with retained witnesses, plus the nullspace
oracle for intertwining relations.

Generators draw everything from one numpy Generator per seed, so instances,
witnesses, and perturbations are bit-reproducible.  The intertwiner oracle
solves A W = W B (or A conj(W) = W B) by vectorization and reports a
singular-value gap so callers can spot numerically marginal draws.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import (
    EXACT,
    FLOAT,
    GaussianRational,
    Matrix,
    exact_nullspace,
    intertwiner_operator,
    nullspace,
)
from .gadgets import _RELATIONS, ProblemInstance

LABEL_YES = "YES"
LABEL_NO = "NO-perturbed"

# basis vectors whose kept/discarded singular-value ratio falls below this
# are suspect; tests re-draw such instances
MARGINAL_GAP = 1e3


@dataclass
class GeneratedInstance:
    inst: ProblemInstance
    witness: Matrix
    seed: int
    label: str


def _rng(seed):
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


def _gaussian_complex(rng, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / math.sqrt(2.0)


def random_unitary(n: int, seed, mode: str = FLOAT) -> Matrix:
    """Haar-like unitary from a QR factorization of a complex Gaussian draw.

    Only float mode is supported; generic unitaries have no exact rational
    representation.
    """
    if mode == EXACT:
        raise ValueError("random unitaries exist in float mode only")
    if n < 1:
        raise ValueError("size must be positive")
    rng = _rng(seed)
    z = _gaussian_complex(rng, n)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    q = q * (d / np.abs(d))
    return Matrix(q, FLOAT)


def make_yes_instance(
    n: int, m1: int, m2: int, m3: int, m4: int, seed: int
) -> GeneratedInstance:
    """A four-family instance constructed from a known witness.

    The B sides are unit-norm Gaussian draws; every A side is produced by the
    relation its family demands, so the retained witness verifies by
    construction.
    """
    if m1 + m2 + m3 + m4 == 0:
        raise ValueError("at least one pair family must be nonempty")
    rng = _rng(seed)
    witness = random_unitary(n, rng)
    families = [[], [], [], []]
    for set_id, count in enumerate((m1, m2, m3, m4), 1):
        for _ in range(count):
            g = _gaussian_complex(rng, n)
            b = Matrix(g / np.linalg.norm(g), FLOAT)
            families[set_id - 1].append((_RELATIONS[set_id](witness, b), b))
    inst = ProblemInstance(n, *families)
    return GeneratedInstance(inst, witness, seed, LABEL_YES)


def perturb_to_no(g: GeneratedInstance, epsilon: float, seed: int) -> GeneratedInstance:
    """Add a seeded unit-norm Gaussian bump to one A-side matrix.

    The result is generically not equivalent; callers must still ask an
    engine, and the stale witness is kept so the failure is inspectable.
    """
    if epsilon <= 0:
        raise ValueError("perturbation size must be positive")
    rng = _rng(seed)
    slots = [(set_id, idx) for set_id, idx, _, _ in g.inst.pairs()]
    target = slots[int(rng.integers(len(slots)))]
    bump = _gaussian_complex(rng, g.inst.n)
    bump = bump / np.linalg.norm(bump)
    families = [[], [], [], []]
    for set_id, idx, a, b in g.inst.pairs():
        if (set_id, idx) == target:
            a = a + Matrix(epsilon * bump, FLOAT)
        families[set_id - 1].append((a, b))
    inst = ProblemInstance(g.inst.n, *families)
    return GeneratedInstance(inst, g.witness, seed, LABEL_NO)


# --------------------------------------------------------------------------
# intertwiner oracle
# --------------------------------------------------------------------------

def intertwiner_space(
    A: Matrix,
    B: Matrix,
    conjugate_linear: bool = False,
):
    """Basis of all W with A W = W B (or A conj(W) = W B when requested).

    The linear case vectorizes to an ordinary nullspace; the conjugate-linear
    case splits W into real and imaginary parts and solves the doubled real
    system.  Float mode thresholds singular values at ``DEP_TOL`` times scale.
    """
    basis, _ = intertwiner_space_info(A, B, conjugate_linear)
    return basis


def intertwiner_space_info(
    A: Matrix,
    B: Matrix,
    conjugate_linear: bool = False,
):
    """Like :func:`intertwiner_space` but also returns the singular-value
    gap ratio (below :data:`MARGINAL_GAP` means the basis is suspect).

    One system serves both modes.  W is vectorized column-major, so A W - W B
    becomes (I (x) A - B^T (x) I) vec W (``intertwiner_operator``, which
    the exact closure's intertwiner search shares); A conj(W) = W B splits
    into the real equations for the real and imaginary parts of W = P + iQ.
    Float mode takes the SVD nullspace, exact mode the exact nullspace of
    the same operator (its gap is reported as inf).
    """
    A._check_mode(B)
    if A.shape != B.shape or not A.is_square:
        raise ValueError("intertwiner spaces need equal-size square matrices")
    m, exact = A.rows, A.mode == EXACT
    if conjugate_linear:
        (ar, ai), (br, bi) = ([x.data for x in M.re_im()] for M in (A, B))
        # the blocks kron(I, X) - kron(Y^T, I) for (X, Y) = (ar, br), (ai,
        # -bi), (ai, bi) and (-ar, br)
        ops = intertwiner_operator(np.array([ar, ai, ai, -ar]), np.array([br, -bi, bi, br]))
        op = np.block([[ops[0], ops[1]], [ops[2], ops[3]]])
        if not exact:
            op = op.real  # a real system, so real nullspace vectors
    else:
        op = intertwiner_operator(A.data[None], B.data[None])[0]
    if exact:
        vectors, gap = exact_nullspace(op.tolist()), math.inf
    else:
        vectors, gap = nullspace(op)
    unit = GaussianRational(0, 1) if exact else 1j
    basis = []
    for v in vectors:
        v = np.array(v, dtype=op.dtype)
        if conjugate_linear:
            v = v[: m * m] + v[m * m :] * unit
        basis.append(Matrix(v.reshape((m, m), order="F"), A.mode))
    return basis, gap


# --------------------------------------------------------------------------
# structure predicates for gadget intertwiners
# --------------------------------------------------------------------------

def _blocks(W: Matrix, n: int):
    k, rem = divmod(W.rows, n)
    if rem or W.rows != W.cols:
        raise ValueError("matrix size is not a multiple of the block size")
    return k


def is_block_upper_triangular(W: Matrix, n: int, tol: float = 1e-8) -> bool:
    """Every block strictly below the block diagonal is negligible."""
    k = _blocks(W, n)
    wf = W.to_float().data
    for i in range(1, k):
        for j in range(i):
            if np.linalg.norm(wf[i * n : (i + 1) * n, j * n : (j + 1) * n]) > tol:
                return False
    return True


def has_equal_diagonal_blocks(W: Matrix, n: int, tol: float = 1e-8) -> bool:
    """All diagonal blocks agree with the first one."""
    k = _blocks(W, n)
    wf = W.to_float().data
    first = wf[:n, :n]
    for i in range(1, k):
        blockii = wf[i * n : (i + 1) * n, i * n : (i + 1) * n]
        if np.linalg.norm(blockii - first) > tol:
            return False
    return True


def has_alternating_diagonal_blocks(W: Matrix, n: int, tol: float = 1e-8) -> bool:
    """Odd diagonal blocks equal the first, even ones its conjugate
    (1-based block indices)."""
    k = _blocks(W, n)
    wf = W.to_float().data
    first = wf[:n, :n]
    for i in range(1, k):
        blockii = wf[i * n : (i + 1) * n, i * n : (i + 1) * n]
        want = first if (i + 1) % 2 == 1 else np.conj(first)
        if np.linalg.norm(blockii - want) > tol:
            return False
    return True
