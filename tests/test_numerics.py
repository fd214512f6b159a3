import itertools
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unieq import (
    GaussianRational,
    Matrix,
    ModeMismatchError,
    ProblemInstance,
    build_real_letters,
    common_scale,
    identity,
    zeros,
)
from unieq.numerics import (
    PRIME,
    SQRT_MINUS_ONE,
    clear_denominators,
    exact_nullspace,
    gaussian_matmul,
    gaussian_residues,
    independent_rows_mod_p,
    integer_det,
    inverse_mod_p,
    intertwiner_operator,
    nullspace,
    power_traces_differ_mod_p,
    rational_reconstruction,
    span_primes,
)

from conftest import rand_matrix, rat_matrix

GR = GaussianRational

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=8
)
gaussians = st.builds(GR, rationals, rationals)


class TestGaussianRational:
    @given(gaussians, gaussians, gaussians)
    @settings(max_examples=200, deadline=None)
    def test_ring_axioms(self, x, y, z):
        assert (x + y) + z == x + (y + z)
        assert (x * y) * z == x * (y * z)
        assert x * (y + z) == x * y + x * z
        assert x + y == y + x
        assert x * y == y * x
        assert x + GR(0) == x
        assert x * GR(1) == x

    @given(gaussians, gaussians)
    @settings(max_examples=200, deadline=None)
    def test_components_lowest_terms(self, x, y):
        for value in (x + y, x * y, x - y):
            for comp in (value.re, value.im):
                assert math.gcd(comp.numerator, comp.denominator) == 1
                assert comp.denominator > 0

    @given(gaussians, gaussians)
    @settings(max_examples=100, deadline=None)
    def test_division_inverts_multiplication(self, x, y):
        if not y:
            with pytest.raises(ZeroDivisionError):
                x / y
        else:
            assert (x * y) / y == x

    def test_float_mixing_rejected(self):
        with pytest.raises(ModeMismatchError):
            GR(1) + 0.5
        with pytest.raises(ModeMismatchError):
            GR(1) * (1 + 2j)

    @given(gaussians)
    @settings(max_examples=100, deadline=None)
    def test_hash_agrees_with_equality(self, x):
        assert hash(x) == hash(GR(x.re, x.im))
        if x.im == 0:
            assert x == x.re and hash(x) == hash(x.re)
            assert len({x, x.re}) == 1

    def test_real_values_hash_like_int_and_fraction(self):
        assert len({GR(1), 1}) == 1
        assert len({GR(Fraction(1, 2)), Fraction(1, 2)}) == 1
        assert {GR(0, 1): "i"}.get(GR(0, 1)) == "i"

    def test_conjugate_and_abs(self):
        x = GR(Fraction(3, 4), Fraction(-1, 2))
        assert x.conjugate() == GR(Fraction(3, 4), Fraction(1, 2))
        assert x.abs_sq() == Fraction(9, 16) + Fraction(1, 4)
        assert str(GR(Fraction(3, 4), Fraction(1, 2))) == "3/4+1/2i"


class TestMatMul:
    def test_identity_case(self, rng):
        x = rand_matrix(rng, 2)
        assert (identity(2) @ x).allclose(x)

    def test_nilpotent_square(self):
        j = Matrix.from_complex([[0, 1], [0, 0]])
        assert (j @ j).is_zero()

    def test_float_agrees_with_exact_oracle(self, rng):
        a = rand_matrix(rng, 3)
        b = rand_matrix(rng, 3)
        prod = a @ b
        exact = (a.to_exact() @ b.to_exact()).to_float()
        assert (prod - exact).norm_fro() <= 1e-12 * (1 + exact.norm_fro())

    def test_dimension_mismatch(self, rng):
        with pytest.raises(ValueError):
            rand_matrix(rng, 2) @ rand_matrix(rng, 3)

    def test_mode_mismatch(self, rng):
        with pytest.raises(ModeMismatchError):
            rand_matrix(rng, 2) @ rat_matrix(rng, 2)

    def test_exact_product_bit_exact(self, rng):
        a = rat_matrix(rng, 2)
        b = rat_matrix(rng, 2)
        c = a @ b
        expect = GR(0)
        for k in range(2):
            expect = expect + a.entry(0, k) * b.entry(k, 1)
        assert c.entry(0, 1) == expect


class TestStarOperations:
    def test_adjoint_of_i(self):
        m = Matrix.from_complex([[1j]])
        assert m.adjoint().entry(0, 0) == -1j

    def test_transpose_involution(self, rng):
        x = rand_matrix(rng, 4)
        assert x.transpose().transpose() == x

    def test_adjoint_is_conjugate_transpose(self, rng):
        x = rand_matrix(rng, 4)
        assert x.adjoint() == x.transpose().conj()

    def test_trace_of_adjoint_conjugates(self, rng):
        x = rand_matrix(rng, 4)
        assert abs(x.adjoint().trace() - x.trace().conjugate()) < 1e-14


class TestTrace:
    def test_identity(self):
        assert identity(5).trace() == 5

    def test_jordan_block_product(self):
        j = Matrix.from_complex([[0, 1], [0, 0]])
        assert (j @ j.adjoint()).trace() == 1

    def test_cyclic_property(self, rng):
        x = rand_matrix(rng, 3)
        y = rand_matrix(rng, 3)
        assert abs((x @ y).trace() - (y @ x).trace()) <= 1e-12

    def test_non_square_rejected(self):
        m = Matrix(np.ones((2, 3), dtype=complex), "float")
        with pytest.raises(ValueError):
            m.trace()


class TestInvariantsAndScaling:
    def test_float_submultiplicative(self, rng):
        for _ in range(10):
            a = rand_matrix(rng, 4)
            b = rand_matrix(rng, 4)
            a = a.scale(1.0 / max(1.0, a.norm_fro()))
            b = b.scale(1.0 / max(1.0, b.norm_fro()))
            bound = a.norm_fro() * b.norm_fro()
            assert (a @ b).norm_fro() <= bound * (1 + 1e-12)

    def test_common_scale_float(self, rng):
        mats = [rand_matrix(rng, 3).scale(s) for s in (0.5, 7.0, 2.0)]
        factor, scaled = common_scale(mats)
        assert abs(max(m.norm_fro() for m in scaled) - 1.0) < 1e-12
        assert abs(factor * 7.0 * mats[1].scale(1 / 7.0).norm_fro() - 1.0) < 1e-6

    @pytest.mark.parametrize("size", [1e200, 1e-200])
    def test_common_scale_out_of_range(self, rng, size):
        # the squared entries overflow or underflow; the norm is taken again
        # from the entries divided by the largest one
        mats = [rand_matrix(rng, 3).scale(s) for s in (0.5, 7.0, 2.0)]
        factor, scaled = common_scale([m.scale(size) for m in mats])
        assert abs(max(m.norm_fro() for m in scaled) - 1.0) < 1e-12
        assert factor * size == pytest.approx(common_scale(mats)[0], rel=1e-12)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_common_scale_rejects_non_finite_entries(self, rng, value):
        bad = rand_matrix(rng, 3)
        bad.data[1, 2] = value
        with pytest.raises(ValueError, match="finite"):
            common_scale([rand_matrix(rng, 3), bad])

    @pytest.mark.parametrize("size", [1e308, 1e-310])
    def test_common_scale_rejects_a_norm_out_of_range(self, size):
        # a norm past the float range would scale by 0 or by inf
        with pytest.raises(ValueError, match="float range"):
            common_scale([Matrix(np.full((2, 2), size, dtype=complex), "float")])

    def test_common_scale_exact_power_of_two(self, rng):
        mats = [rat_matrix(rng, 2, span=9) for _ in range(3)]
        factor, scaled = common_scale(mats)
        assert factor.denominator & (factor.denominator - 1) == 0  # power of 2
        assert max(float(m.norm_fro_sq()) for m in scaled) <= 1.0 + 1e-15

    def test_power(self, rng):
        x = rand_matrix(rng, 3)
        expect = x @ x @ x @ x @ x
        assert (x.power(5) - expect).norm_fro() <= 1e-12 * (1 + expect.norm_fro())
        assert x.power(0) == identity(3)

    def test_exact_det(self):
        m = Matrix.from_rational(
            [[GR(1), GR(2)], [GR(3), GR(4)]]
        )
        assert m.det() == GR(-2)
        singular = Matrix.from_rational([[GR(1), GR(2)], [GR(2), GR(4)]])
        assert singular.det() == GR(0)


class TestRealImaginarySplit:
    def test_float_parts(self, rng):
        m = rand_matrix(rng, 3)
        re, im = m.re_im()
        assert re.mode == im.mode == "float"
        assert not np.any(re.data.imag) and not np.any(im.data.imag)
        assert np.array_equal(re.data.real, m.data.real)
        assert np.array_equal(im.data.real, m.data.imag)

    def test_exact_parts(self, rng):
        m = rat_matrix(rng, 3)
        re, im = m.re_im()
        assert re.mode == im.mode == "exact"
        for e, r, i in zip(m.data.flat, re.data.flat, im.data.flat):
            assert type(r) is GR and type(i) is GR
            assert r == GR(e.re) and i == GR(e.im)
        assert re + im.scale(GR(0, 1)) == m

    @pytest.mark.parametrize("exact", [False, True])
    def test_real_letters(self, rng, exact):
        n = 2
        draw = rat_matrix if exact else rand_matrix
        families = [[(draw(rng, n), draw(rng, n))] for _ in range(4)]
        left, right = build_real_letters(ProblemInstance(n, *families))
        # real and imaginary part of each pair's letter, each with its
        # transpose, and Im(T* E T) once
        assert len(left) == len(right) == 4 * 4 + 1
        for letters in (left, right):
            for m in letters:
                assert m.mode == ("exact" if exact else "float")
                assert m.shape == (2 * n, 2 * n)
                assert m.re_im()[1].is_zero()
            for k in range(0, 16, 2):
                assert letters[k + 1] == letters[k].transpose()
        eye, zero = identity(n).scale(0.5), zeros(n, n)
        e = Matrix(np.block([[zero.data, eye.data], [-eye.data, zero.data]]), "float")
        assert left[-1] == right[-1]
        assert left[-1].to_float() == e


class TestIntegerKernels:
    def test_clear_denominators_and_gaussian_matmul(self, rng):
        for real in (True, False):
            x, y = rat_matrix(rng, 3), rat_matrix(rng, 3)
            if real:
                x, y = x.re_im()[0], y.re_im()[0]
            denom, (xi, yi) = clear_denominators([x, y])
            assert len(xi) == (1 if real else 2)
            assert all(e.re.denominator == 1 for e in (x.scale(denom)).data.flat)
            out = np.empty_like(xi)
            gaussian_matmul(xi, yi, out)
            want = (x @ y).scale(denom * denom)
            im = out[1] if len(out) == 2 else np.zeros_like(out[0])
            got = Matrix.from_rational(
                [[GR(r, i) for r, i in zip(rr, ii)] for rr, ii in zip(out[0], im)]
            )
            assert got == want

    def test_inverse_mod_p(self, rng):
        for p in (5, 13, PRIME):
            for d in (1, 2, 4, 7):
                m = rng.integers(0, p, (d, d)).astype(np.int64)
                inverse = inverse_mod_p(m, p)
                det = Matrix.from_rational(m.tolist()).det()
                if det.re.numerator % p == 0:
                    assert inverse is None
                    continue
                assert ((m @ inverse) % p == np.eye(d, dtype=np.int64)).all()
                assert ((inverse @ m) % p == np.eye(d, dtype=np.int64)).all()
        singular = np.array([[1, 2], [2, 4]], dtype=np.int64)
        assert inverse_mod_p(singular, PRIME) is None
        assert inverse_mod_p(np.array([[1, 2], [2, 9]], dtype=np.int64), 5) is None

    def test_span_primes(self):
        primes = [p for p, _ in itertools.islice(span_primes(), 6)]
        assert primes[0] == PRIME and primes == sorted(primes, reverse=True)
        for p, root in itertools.islice(span_primes(), 6):
            assert p % 4 == 1 and all(p % q for q in range(2, math.isqrt(p) + 1))
            assert root * root % p == p - 1
        assert next(span_primes()) == (PRIME, SQRT_MINUS_ONE)

    def test_gaussian_residues_are_a_ring_map(self, rng):
        x, y = rat_matrix(rng, 3), rat_matrix(rng, 3)
        denom, ints = clear_denominators([x, y, x @ y])
        for p, root in itertools.islice(span_primes(), 2):
            rx, ry, rxy = gaussian_residues(ints, p, root)
            assert rx.dtype == np.int64
            # (D x)(D y) = D (D x y)
            assert np.array_equal(rx @ ry % p, rxy * (denom % p) % p)

    def test_integer_det_matches_exact_det(self, rng):
        assert integer_det([[0, 1], [1, 0]]) == -1
        assert integer_det([[1, 2], [2, 4]]) == 0
        for r in (1, 2, 3, 5):
            a = rng.integers(-4, 5, (r, r)).tolist()
            a[0][0] = 0  # the first column needs a row swap
            assert integer_det(a) == Matrix.from_rational(a).det()

    def test_intertwiner_operator_is_the_kron_form(self, rng):
        a, b = rng.integers(-4, 5, (2, 3, 3, 3))
        w = rng.integers(-4, 5, (3, 3))
        ops = intertwiner_operator(a, b)
        for op, x, y in zip(ops, a, b):
            eye = np.eye(3, dtype=int)
            assert np.array_equal(op, np.kron(eye, x) - np.kron(y.T, eye))
            # W is vectorized column-major
            assert np.array_equal(op @ w.ravel(order="F"), (x @ w - w @ y).ravel(order="F"))

    def test_power_traces_keep_similarity_and_rule_out_disjoint_spectra(self, rng):
        assert SQRT_MINUS_ONE**2 % PRIME == PRIME - 1
        for r in (1, 2, 3):
            for _ in range(20):
                a, b = rng.integers(-3, 4, (2, r, r))
                u = np.eye(r, dtype=int) + np.triu(rng.integers(-2, 3, (r, r)), 1)
                similar = u @ a @ np.rint(np.linalg.inv(u)).astype(int)
                pairs = np.array([[a, a], [similar, b]]) % PRIME
                assert not power_traces_differ_mod_p(pairs[:, :1])
                op = intertwiner_operator(a[None].astype(object), b[None].astype(object))[0]
                if integer_det(op.tolist()):  # disjoint spectra (Sylvester)
                    assert power_traces_differ_mod_p(pairs)
                    assert power_traces_differ_mod_p(pairs[:, 1:])

    def test_independent_rows_span_every_row(self, rng):
        second = list(itertools.islice(span_primes(), 2))[1][0]
        for cols in (3, 5, 8):
            for rank in range(cols):
                rows = rng.integers(-3, 4, (rank, cols)) @ rng.integers(-3, 4, (cols, cols))
                rows[:, 0] = 0  # a zero column, so that a pivot is skipped
                stacked = np.concatenate([rows, rows[::-1] * 2])
                r = np.linalg.matrix_rank(rows)
                for p in (PRIME, second):
                    kept = independent_rows_mod_p(stacked.astype(object), p)
                    assert kept is not None and len(kept[0]) == r
                    taken, reduced, pivots = kept
                    if p == PRIME:
                        first = taken, pivots
                    assert (taken, pivots) == first  # no minor of these rows is 0 mod p
                    # reduced row echelon form: 1 at its pivot, 0 before it
                    # and at the other pivots
                    assert np.array_equal(reduced[:, pivots], np.identity(r, dtype=np.int64))
                    for row, c in zip(reduced, pivots):
                        assert not row[:c].any()
                    # one vector per free column, 1 there and 0 at the other
                    # free columns, vanishes on every row mod p: the reduced
                    # rows span the rows mod p
                    for f in (c for c in range(cols) if c not in pivots):
                        v = np.zeros(cols, dtype=object)
                        v[f] = 1
                        v[pivots] = [-x for x in reduced[:, f].tolist()]
                        assert not (stacked.astype(object) @ v % p).any()
            full = rng.integers(-3, 4, (cols + 1, cols))
            if np.linalg.matrix_rank(full) == cols:
                assert independent_rows_mod_p(full) is None


def _reduced_mod_p(rows):
    """Column-order Gauss-Jordan elimination mod PRIME over Python ints, row
    by row: the reference for ``independent_rows_mod_p``."""
    basis, pivots, taken = [], [], []
    for i, row in enumerate(rows.tolist()):
        row = [e % PRIME for e in row]
        for b, c in zip(basis, pivots):
            row = [(e - row[c] * f) % PRIME for e, f in zip(row, b)]
        c = next((c for c, e in enumerate(row) if e), None)
        if c is None:
            continue
        inv = pow(row[c], -1, PRIME)
        row = [e * inv % PRIME for e in row]
        basis = [[(e - b[c] * f) % PRIME for e, f in zip(b, row)] for b in basis]
        basis.append(row)
        pivots.append(c)
        taken.append(i)
    return taken, basis, pivots


class TestReducedRowsReference:
    @pytest.mark.parametrize("rank, cols", [(2, 5), (12, 16), (40, 72), (3, 5)])
    def test_matches_python_elimination(self, rng, rank, cols):
        """Entries of every size up to p, so that the int64 elimination, which
        reduces its rows mod p only when it searches them, meets its largest
        intermediate values; rows 1 and 4 are off the span of the others,
        which gives full column rank in the last case."""
        left = rng.integers(0, PRIME, (3 * rank, rank)).astype(object)
        rows = left @ rng.integers(0, PRIME, (rank, cols)).astype(object) % PRIME
        rows[[1, 4]] = rng.integers(0, PRIME, (2, cols))
        want = _reduced_mod_p(rows)
        got = independent_rows_mod_p(rows)
        if len(want[2]) == cols:
            assert got is None and rank + 2 == cols
        else:
            assert len(want[2]) == rank + 2
            assert got[0] == want[0] and got[2] == want[2]
            assert got[1].tolist() == want[1]


class TestRationalReconstruction:
    BOUND = math.isqrt(PRIME // 2)

    @pytest.mark.parametrize(
        "a, b", [(1, 1), (3, 7), (-5, 12), (0, 1), (-2047, 2046), (2047, 1), (1, 2047)]
    )
    def test_round_trip_within_the_bound(self, a, b):
        assert abs(a) <= self.BOUND and b <= self.BOUND
        u = a * pow(b, -1, PRIME) % PRIME
        assert rational_reconstruction(u, PRIME) == (a, b)

    def test_every_small_fraction_comes_back(self, rng):
        for a, b in rng.integers(-self.BOUND, self.BOUND + 1, (200, 2)):
            b = abs(int(b)) or 1
            g = math.gcd(int(a), b)
            u = int(a) * pow(b, -1, PRIME) % PRIME
            assert rational_reconstruction(u, PRIME) == (int(a) // g, b // g)

    def test_past_the_bound(self):
        assert rational_reconstruction(self.BOUND + 1, PRIME) is None
        assert rational_reconstruction(pow(self.BOUND + 1, -1, PRIME), PRIME) is None
        assert rational_reconstruction(3000 * pow(4001, -1, PRIME) % PRIME, PRIME) is None

    def test_non_coprime_result(self):
        """Mod 100 the Euclidean remainders stop at 4 / -6 for 16, which is
        no fraction in lowest terms: 16 = a / b with b prime to 100 and |a|,
        b <= 7 has no solution."""
        assert rational_reconstruction(16, 100) is None
        assert rational_reconstruction(3 * pow(7, -1, 100) % 100, 100) == (3, 7)


class TestNullspaceKernels:
    def test_float_nullspace_of_projector(self):
        op = np.diag([1.0, 1.0, 0.0, 0.0]).astype(complex)
        basis, gap = nullspace(op)
        assert len(basis) == 2 and gap == math.inf
        for v in basis:
            assert np.linalg.norm(op @ v) < 1e-12

    def test_exact_nullspace(self):
        rows = [
            [GR(1), GR(0), GR(1)],
            [GR(0), GR(1), GR(1)],
        ]
        basis = exact_nullspace(rows)
        assert len(basis) == 1
        v = basis[0]
        assert v[0] + v[2] == GR(0) and v[1] + v[2] == GR(0)

    def test_zeros_identity_builders(self):
        z = zeros(2, 3, "exact")
        assert all(not e for e in z.data.flat)
        eye = identity(3, "exact")
        assert eye.entry(0, 0) == GR(1) and eye.entry(0, 1) == GR(0)
