import numpy as np
import pytest
from fractions import Fraction

from unieq import GaussianRational, Matrix, random_unitary


def complex_gaussian(rng, n):
    return (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2)


def rand_matrix(rng, n):
    return Matrix(complex_gaussian(rng, n), "float")


def similar_pair(n, seed):
    """(A, B) with A = U B U* for a seeded unitary U."""
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    b = rand_matrix(rng, n)
    return u @ b @ u.adjoint(), b


def congruent_pair(n, seed):
    """(A, B) with A = U B U^T for a seeded unitary U, plus the witness."""
    rng = np.random.default_rng(seed)
    u = random_unitary(n, rng)
    b = rand_matrix(rng, n)
    return u @ b @ u.transpose(), b, u


def rat_matrix(rng, n, span=3, den=4):
    def draw():
        return Fraction(int(rng.integers(-span, span + 1)), int(rng.integers(1, den + 1)))

    return Matrix.from_rational(
        [[GaussianRational(draw(), draw()) for _ in range(n)] for _ in range(n)]
    )


def exact_unitary(n, which=0):
    """A unitary with Gaussian-rational entries (phase, flip, or rotation);
    for n > 2, a 2-by-2 one on the first two coordinates times the cyclic
    shift of all n."""
    GR = GaussianRational
    if n > 2:
        u = np.array([[GR(int(i == j)) for j in range(n)] for i in range(n)], dtype=object)
        u[:2, :2] = exact_unitary(2, which).data
        return Matrix(np.roll(u, 1, axis=1), "exact")
    if n == 1:
        options = [
            Matrix.from_rational([[GR(0, 1)]]),
            Matrix.from_rational([[GR(-1)]]),
        ]
    else:
        options = [
            Matrix.from_rational([[GR(0), GR(0, 1)], [GR(1), GR(0)]]),
            Matrix.from_rational(
                [
                    [GR(Fraction(3, 5)), GR(Fraction(4, 5))],
                    [GR(Fraction(-4, 5)), GR(Fraction(3, 5))],
                ]
            ),
        ]
    return options[which % len(options)]


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
