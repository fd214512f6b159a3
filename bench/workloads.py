"""Seeded instance lists for the four benchmark workloads.

Every list mixes YES cases, built from a retained witness unitary, with NO
cases that are provably inequivalent (see ``truth.py`` for the proofs).  The
same ``(workload, seed)`` always gives the same list.

Rounds repeat one list, and every timing is a median or a quantile over the
pooled rounds.  Each list puts several cases in the class where the YES
median, the NO median and the 90th percentile land, so that those statistics
rest on many samples of one class of equally costly cases, not on the
boundary between two classes of very different cost; see README.md.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from unieq import engines as E
from unieq import instances as I
from unieq.gadgets import ProblemInstance
from unieq.numerics import FLOAT, GaussianRational, Matrix

from truth import (
    PROOF_FROBENIUS,
    PROOF_SINGULAR,
    PROOF_TRANSPOSE_WORD,
    PROOF_WITNESS,
)

WORKLOADS = ("float-generic", "float-structured", "exact-rational", "brute-words")

# the kernels of each workload's reference probe (see reference.py): the
# kinds of work its hot layer does
PROBE_KERNELS = {
    "float-generic": ("numpy", "lapack"),  # closure over spans of 52-225
    "float-structured": ("numpy",),  # closure over small spans
    "exact-rational": ("numpy", "fractions"),  # object arrays of Fractions
    "brute-words": ("numpy",),  # small products along the word walk
}

ROUTE_GENERAL = "general"  # solve_general(inst)
ROUTE_BRUTE = "brute"  # unitarily_similar(A, B, engine="brute"), A, B = S1[0]
ROUTE_KGADGET = "kgadget"  # unitarily_congruent(..., engine="brute", use_k_gadget=True)

# bump size for perturbed NO cases, far above the float tolerances
NO_EPSILON = 0.1


@dataclass
class Case:
    """One decision of a workload's instance list."""

    name: str  # the cost class; several cases share one
    label: bool  # True: the pair families are equivalent
    inst: ProblemInstance
    route: str
    proof: str
    witness: Matrix | None = None


def decide(case: Case):
    """Run the program's decision for one case (the timed operation)."""
    if case.route == ROUTE_GENERAL:
        return E.solve_general(case.inst)
    if case.route == ROUTE_BRUTE:
        a, b = case.inst.S1[0]
        return E.unitarily_similar(a, b, engine=E.ENGINE_BRUTE)
    a, b = case.inst.S2[0]
    return E.unitarily_congruent(a, b, engine=E.ENGINE_BRUTE, use_k_gadget=True)


def recheck(case: Case, verdict) -> bool:
    """Re-verify a NO certificate from the instance alone."""
    if case.route == ROUTE_KGADGET:
        # no decision_letters route exists for a bare K-gadget congruence,
        # so rebuild its letters from the same public functions
        a, b = case.inst.S2[0]
        _, (a, b) = E.common_scale([a, b])
        ka, kb = E.build_congruence_K(a), E.build_congruence_K(b)
        left, right = [ka, ka.adjoint()], [kb, kb.adjoint()]
    else:
        _, left, right = E.decision_letters(case.inst)
    return verdict.certificate.recheck(left, right, E.DEFAULT_TOL)


def build_cases(workload: str, seed: int, tiny: bool = False) -> list:
    """The workload's instance list for one seed, YES cases first.

    ``tiny`` gives a short list of small cases for the smoke test.
    """
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = np.random.default_rng([WORKLOADS.index(workload), seed])
    builder = {
        "float-generic": _float_generic,
        "float-structured": _float_structured,
        "exact-rational": _exact_rational,
        "brute-words": _brute_words,
    }[workload]
    return builder(rng, tiny)


def _draw_seed(rng) -> int:
    return int(rng.integers(2**31))


def _family_instance(n: int, set_id: int, pairs) -> ProblemInstance:
    families = [[], [], [], []]
    families[set_id - 1].extend(pairs)
    return ProblemInstance(n, *families)


def _gaussian(rng, n: int) -> np.ndarray:
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)


# --------------------------------------------------------------------------
# float-generic: Gaussian four-family instances through the parity gadget
# --------------------------------------------------------------------------

# (shape, n, YES count, NO count) per round.  YES costs run 40-650 ms, NO
# costs 20-140 ms; the medians fall in (1,0,0,1) n=3 and the 90th
# percentile in (1,1,1,1) n=3.  The shapes (0,0,0,1) and (0,0,1,0) at n=3
# are left out: the program answers NotEquivalent on a few percent of
# their YES draws (see CHANGES.md), and a failure that comes and goes with
# the seed cannot be counted the same in every run.
_GENERIC = (
    ((0, 1, 0, 0), 3, 1, 1),
    ((0, 0, 0, 1), 2, 1, 0),
    ((1, 1, 1, 1), 2, 1, 1),
    ((1, 0, 0, 1), 3, 3, 3),
    ((2, 1, 0, 1), 2, 1, 1),
    ((1, 1, 1, 1), 3, 3, 1),
)
_GENERIC_TINY = (((0, 1, 0, 0), 2, 1, 1),)


def _shape_name(shape, n) -> str:
    return "m" + "".join(map(str, shape)) + f"n{n}"


def _float_generic(rng, tiny):
    cases = []
    for label in (True, False):
        for shape, n, yes_count, no_count in _GENERIC_TINY if tiny else _GENERIC:
            for _ in range(yes_count if label else no_count):
                g = I.make_yes_instance(n, *shape, seed=_draw_seed(rng))
                if label:
                    cases.append(Case(_shape_name(shape, n), True, g.inst,
                                      ROUTE_GENERAL, PROOF_WITNESS, g.witness))
                    continue
                h = I.perturb_to_no(g, NO_EPSILON, seed=_draw_seed(rng))
                cases.append(Case(_shape_name(shape, n), False, h.inst,
                                  ROUTE_GENERAL, PROOF_SINGULAR))
    return cases


# --------------------------------------------------------------------------
# float-structured: S1-only instances from structured matrices
# --------------------------------------------------------------------------

def _conjugated(core: np.ndarray, v: Matrix) -> Matrix:
    return v @ Matrix(core.astype(np.complex128), FLOAT) @ v.adjoint()


def _normal_repeated(rng, n, distinct):
    phases = np.exp(2j * np.pi * rng.uniform(0.0, 1.0, distinct))
    vals = phases * rng.uniform(0.5, 1.5, distinct)
    return [np.diag(np.repeat(vals, n // distinct))]


def _nilpotent_shift(rng, n):
    return [np.diag(rng.uniform(0.5, 1.5, n - 1), k=1).astype(np.complex128)]


def _block_diagonal(rng, n, block, count):
    cores = []
    for _ in range(count):
        core = np.zeros((n, n), dtype=np.complex128)
        for start in range(0, n, block):
            core[start : start + block, start : start + block] = _gaussian(rng, block)
        cores.append(core)
    return cores


def _low_rank(rng, n, rank):
    x = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    y = rng.standard_normal((n, rank)) + 1j * rng.standard_normal((n, rank))
    return [(x @ y.conj().T) / n]


def _spoil(rng, core: np.ndarray) -> np.ndarray:
    """Scale one nonzero row of the core, which changes its singular values."""
    rows = [i for i in range(core.shape[0]) if np.any(core[i])]
    out = core.copy()
    out[rows[int(rng.integers(len(rows)))]] *= 1.0 + 3 * NO_EPSILON
    return out


# (class name, core builder, YES count, NO count) per round.  Span dims run
# 3-100, YES costs 2-30 ms, NO costs 1.5-10 ms.  The slowest class holds 3
# of 16 decisions per round, so the 90th percentile falls inside it.  The
# nilpotent shift stops at n=10: at n=12 the program answers NotEquivalent
# on about 1 in 700 YES draws (see CHANGES.md).
_STRUCTURED = (
    ("normal-rep-n12", lambda rng: _normal_repeated(rng, 12, 3), 1, 1),
    ("lowrank2-n16", lambda rng: _low_rank(rng, 16, 2), 1, 1),
    ("blockdiag-4x3-n12", lambda rng: _block_diagonal(rng, 12, 3, 1), 1, 1),
    ("nilpotent-n8", lambda rng: _nilpotent_shift(rng, 8), 1, 1),
    ("blockdiag-2x4-n8", lambda rng: _block_diagonal(rng, 8, 4, 2), 1, 1),
    ("nilpotent-n9", lambda rng: _nilpotent_shift(rng, 9), 1, 1),
    ("nilpotent-n10", lambda rng: _nilpotent_shift(rng, 10), 3, 1),
)
_STRUCTURED_TINY = (("nilpotent-n6", lambda rng: _nilpotent_shift(rng, 6), 1, 1),)


def _float_structured(rng, tiny):
    cases = []
    for label in (True, False):
        for name, make_cores, yes_count, no_count in (
            _STRUCTURED_TINY if tiny else _STRUCTURED
        ):
            for _ in range(yes_count if label else no_count):
                cases.append(_structured_case(rng, name, make_cores, label))
    return cases


def _structured_case(rng, name, make_cores, label):
    cores = make_cores(rng)
    n = cores[0].shape[0]
    v = I.random_unitary(n, _draw_seed(rng))
    u = I.random_unitary(n, _draw_seed(rng))
    bs = [_conjugated(c, v) for c in cores]
    if label:
        pairs = [(u @ b @ u.adjoint(), b) for b in bs]
        return Case(name, True, _family_instance(n, 1, pairs), ROUTE_GENERAL,
                    PROOF_WITNESS, u)
    spoilt = _conjugated(_spoil(rng, cores[0]), v)
    pairs = [(u @ spoilt @ u.adjoint(), bs[0])]
    pairs += [(u @ b @ u.adjoint(), b) for b in bs[1:]]
    return Case(name, False, _family_instance(n, 1, pairs), ROUTE_GENERAL,
                PROOF_SINGULAR)


# --------------------------------------------------------------------------
# exact-rational: Gaussian-rational instances with exact unitary witnesses
# --------------------------------------------------------------------------

def _gr(re, im=0) -> GaussianRational:
    return GaussianRational(Fraction(re), Fraction(im))


def _exact_unitaries(n):
    """Gaussian-rational unitaries; the k-th case of a class uses the k-th
    (cyclically), so a round's cost does not depend on the seed's choice."""
    if n == 1:
        return [
            Matrix.from_rational([[_gr(Fraction(3, 5), Fraction(4, 5))]]),
            Matrix.from_rational([[_gr(0, 1)]]),
        ]
    return [
        Matrix.from_rational([[_gr(0), _gr(0, 1)], [_gr(1), _gr(0)]]),
        Matrix.from_rational(
            [[_gr(Fraction(5, 13)), _gr(0, Fraction(12, 13))],
             [_gr(0, Fraction(12, 13)), _gr(Fraction(5, 13))]]
        ),
    ]


def _gaussian_integer_matrix(rng, n) -> Matrix:
    """Entries a + b i, no two of equal modulus, with a, b in {+-2, +-3}
    at n=1 and in {+-2, ..., +-5} at n=2.

    Both rules keep a class's cost the same from seed to seed.  Entries
    equal up to a unit factor or a conjugation make structure (symmetric,
    skew, rank one) that shrinks the span and cuts the cost up to 5x; parts
    of size 0 or 1 do the same.  At n=1, parts up to 5 make the cost vary
    twofold with the draw.
    """
    top = 4 if n == 1 else 6

    def part():
        return int(rng.integers(2, top)) * (1 if rng.integers(2) else -1)

    while True:
        entries = [_gr(part(), part()) for _ in range(n * n)]
        if len({e.abs_sq() for e in entries}) == n * n:
            return Matrix.from_rational([entries[i * n : (i + 1) * n] for i in range(n)])


def _witness_transform(set_id, u):
    ubar = u.conj()
    return {
        1: lambda m: u @ m @ u.adjoint(),
        2: lambda m: u @ m @ u.transpose(),
        3: lambda m: ubar @ m @ u.adjoint(),
        4: lambda m: ubar @ m @ u.transpose(),
    }[set_id]


def _bumped(a: Matrix) -> Matrix:
    data = a.data.copy()
    data[0, 0] = data[0, 0] + _gr(Fraction(1, 2))
    return Matrix(data, a.mode)


# (set_id, n, YES count, NO count) per round.  YES costs run 0.3 ms (S1,
# n=1) to 1.5 s (S2, n=2), NO costs 0.3-350 ms; the medians fall in S3 n=1
# and the 90th percentile in the S2 n=2 NO cases.  One S2 n=2 YES case
# costs a third of a round, so there is only one.  A NO case is a YES case
# with 1/2 added to one entry of A, which keeps its cost close to the
# class's other NO cases; independent draws are detected at very different
# depths from seed to seed.
_EXACT = ((1, 1, 2, 2), (2, 1, 2, 2), (3, 1, 5, 6), (4, 1, 4, 2), (2, 2, 1, 3))
_EXACT_TINY = ((1, 1, 1, 1), (2, 1, 1, 1))


def _exact_rational(rng, tiny):
    cases = []
    for label in (True, False):
        for set_id, n, yes_count, no_count in _EXACT_TINY if tiny else _EXACT:
            options = _exact_unitaries(n)
            for k in range(yes_count if label else no_count):
                u = options[k % len(options)]
                while True:
                    b = _gaussian_integer_matrix(rng, n)
                    a = _witness_transform(set_id, u)(b)
                    if label:
                        break
                    a = _bumped(a)
                    if a.norm_fro_sq() != b.norm_fro_sq():
                        break
                inst = _family_instance(n, set_id, [(a, b)])
                cases.append(
                    Case(f"S{set_id}n{n}", True, inst, ROUTE_GENERAL, PROOF_WITNESS, u)
                    if label else
                    Case(f"S{set_id}n{n}", False, inst, ROUTE_GENERAL, PROOF_FROBENIUS)
                )
    return cases


# --------------------------------------------------------------------------
# brute-words: certified trace-word walks
# --------------------------------------------------------------------------

# (class, route, n, YES count, NO count) per round.  YES walks every word up
# to the full length bound (n=3: L=8; n=4: L=13; K gadget of n=1, 4x4 with
# exponents capped at 3: L=13); NO cases exit early.
_BRUTE = (
    ("similar-n3", ROUTE_BRUTE, 3, 2, 2),
    ("congruent-K-n1", ROUTE_KGADGET, 1, 2, 2),
    ("similar-n4", ROUTE_BRUTE, 4, 2, 2),
)
_BRUTE_TINY = (("similar-n3", ROUTE_BRUTE, 3, 1, 1),)


def _brute_words(rng, tiny):
    cells = _BRUTE_TINY if tiny else _BRUTE
    cases = []
    for label in (True, False):
        for name, route, n, yes_count, no_count in cells:
            set_id = 1 if route == ROUTE_BRUTE else 2
            for _ in range(yes_count if label else no_count):
                b = Matrix(_gaussian(rng, n), FLOAT)
                if label:
                    u = I.random_unitary(n, _draw_seed(rng))
                    a = _witness_transform(set_id, u)(b)
                    cases.append(
                        Case(name, True, _family_instance(n, set_id, [(a, b)]),
                             route, PROOF_WITNESS, u)
                    )
                elif route == ROUTE_BRUTE:
                    # B and B^T share every trace of words in one letter and
                    # its adjoint up to length 5, so the walk runs a while
                    cases.append(
                        Case(name, False,
                             _family_instance(n, set_id, [(b, b.transpose())]),
                             route, PROOF_TRANSPOSE_WORD)
                    )
                else:
                    a = b.scale(1.0 + NO_EPSILON)
                    cases.append(
                        Case(name, False, _family_instance(n, set_id, [(a, b)]),
                             route, PROOF_SINGULAR)
                    )
    return cases
