"""Structured inputs through every route of ``solve_general``: normal and
Hermitian matrices with a repeated eigenvalue, nilpotent, block-diagonal
reducible and rank-1 matrices, in one or two pair families at once."""

import numpy as np
import pytest

from unieq import (
    Matrix,
    ProblemInstance,
    decision_letters,
    random_unitary,
    solve_general,
    verify_witness,
)

from conftest import complex_gaussian

# the A side each family makes of B under the unitary U
RELATIONS = {
    1: lambda u, b: u @ b @ u.conj().T,
    2: lambda u, b: u @ b @ u.T,
    3: lambda u, b: u.conj() @ b @ u.conj().T,
    4: lambda u, b: u.conj() @ b @ u.T,
}
SHAPES = [(1,), (2,), (3,), (4,), (1, 2), (1, 4), (2, 3)]
KINDS = ["normal", "hermitian", "nilpotent", "reducible", "rank1"]


def structured(kind, n, rng):
    g = complex_gaussian(rng, n)
    v = random_unitary(n, rng).data
    if kind in ("normal", "hermitian"):  # the first eigenvalue twice
        lam = g[0] if kind == "normal" else rng.standard_normal(n)
        lam[1] = lam[0]
        return v @ np.diag(lam) @ v.conj().T
    if kind == "nilpotent":
        return np.triu(g, 1)
    if kind == "reducible":
        k = n // 2
        g[:k, k:] = g[k:, :k] = 0
        return g
    return np.outer(g[:, 0], g[1].conj())  # rank 1


def instance(kind, n, shape, rng, bump=0.0):
    """An instance made equivalent by a random unitary U, and U; a nonzero
    ``bump`` adds that multiple of a unit-norm Gaussian to the first A."""
    u = random_unitary(n, rng).data
    families = [[], [], [], []]
    for f in shape:
        b = structured(kind, n, rng)
        families[f - 1].append([RELATIONS[f](u, b), b])
    g = complex_gaussian(rng, n)
    families[shape[0] - 1][0][0] += bump * g / np.linalg.norm(g)
    pairs = [[(Matrix(a, "float"), Matrix(b, "float")) for a, b in fam] for fam in families]
    return ProblemInstance(n, *pairs), Matrix(u, "float")


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("seed", [0, 1])
def test_structured_inputs(kind, n, seed):
    rng = np.random.default_rng([n, KINDS.index(kind), seed])
    for shape in SHAPES:
        inst, u = instance(kind, n, shape, rng)
        v = solve_general(inst)
        assert v.equivalent, (shape, v.route)
        assert verify_witness(inst, u)
        inst, _ = instance(kind, n, shape, rng, bump=0.1)
        v = solve_general(inst)
        assert not v.equivalent, (shape, v.route)
        _, left, right = decision_letters(inst)
        assert v.certificate.recheck(left, right, v.tolerance), (shape, v.route)
