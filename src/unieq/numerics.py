"""Dense complex matrices in two interchangeable arithmetic modes.

Float mode stores numpy complex128 arrays.  Exact mode stores object arrays
of Gaussian rationals (:class:`GaussianRational`), so equality tests carry no
tolerance at all.  Everything downstream (words, gadgets, engines) works with
either mode; mixing the two in one operation is an error, never a coercion.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction

import numpy as np

FLOAT = "float"
EXACT = "exact"

# residual <= DEP_TOL * (1 + ||target||_F) counts as "in span" in float mode
DEP_TOL = 1e-10


class ModeMismatchError(TypeError):
    """Raised when float-mode and exact-mode values meet in one operation."""


class GaussianRational:
    """A complex number with rational real and imaginary parts.

    Stored as integers (a + b i) / d with d > 0 and gcd(a, b, d) = 1, so the
    exposed real and imaginary Fractions are always in lowest terms with
    positive denominator.  Arithmetic with ints and Fractions is exact and
    allowed; arithmetic with floats or complex raises
    :class:`ModeMismatchError`.
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re=0, im=0):
        re = Fraction(re)
        im = Fraction(im)
        d = re.denominator * im.denominator // math.gcd(
            re.denominator, im.denominator
        )
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @classmethod
    def _raw(cls, a, b, d):
        if d < 0:
            a, b, d = -a, -b, -d
        g = math.gcd(math.gcd(a, b), d)
        if g > 1:
            a, b, d = a // g, b // g, d // g
        obj = object.__new__(cls)
        obj._a, obj._b, obj._d = a, b, d
        return obj

    @staticmethod
    def _coerce(value):
        if isinstance(value, GaussianRational):
            return value
        if isinstance(value, int):
            return GaussianRational._raw(value, 0, 1)
        if isinstance(value, Fraction):
            return GaussianRational._raw(value.numerator, 0, value.denominator)
        if isinstance(value, (float, complex)):
            raise ModeMismatchError(
                "cannot mix float values with exact Gaussian rationals"
            )
        return None

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._raw(
            self._a * other._d + other._a * self._d,
            self._b * other._d + other._b * self._d,
            self._d * other._d,
        )

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._raw(
            self._a * other._d - other._a * self._d,
            self._b * other._d - other._b * self._d,
            self._d * other._d,
        )

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other - self

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self._raw(
            self._a * other._a - self._b * other._b,
            self._a * other._b + self._b * other._a,
            self._d * other._d,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        m = other._a * other._a + other._b * other._b
        if m == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return self._raw(
            (self._a * other._a + self._b * other._b) * other._d,
            (self._b * other._a - self._a * other._b) * other._d,
            self._d * m,
        )

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other / self

    def __neg__(self):
        return self._raw(-self._a, -self._b, self._d)

    def conjugate(self):
        return self._raw(self._a, -self._b, self._d)

    def abs_sq(self) -> Fraction:
        return Fraction(self._a * self._a + self._b * self._b, self._d * self._d)

    def __eq__(self, other):
        if isinstance(other, (int, Fraction)):
            other = self._coerce(other)
        if not isinstance(other, GaussianRational):
            return NotImplemented
        return (
            self._a == other._a and self._b == other._b and self._d == other._d
        )

    def __hash__(self):
        # a real value equals its int or Fraction, so it hashes like one
        return hash(self.re) if self._b == 0 else hash((self.re, self.im))

    def __bool__(self):
        return self._a != 0 or self._b != 0

    def __complex__(self):
        return complex(float(self.re), float(self.im))

    def __str__(self):
        if self._b == 0:
            return str(self.re)
        if self._a == 0:
            return f"{self.im}i"
        sign = "+" if self._b > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"


def clear_denominators(matrices):
    """Exact matrices of one shape as Gaussian integers with one common
    denominator: ``(D, parts)``, where D is the lcm of every entry's
    denominator and ``parts`` holds D times the matrices as Python ints,
    shaped (..., 2, rows, cols) for their real and imaginary parts, or (...,
    1, rows, cols) for the real parts alone when every imaginary part is 0.
    ``matrices`` are Matrix objects, or one object array stacking their
    entries on its leading axes (...)."""
    data = matrices if isinstance(matrices, np.ndarray) else np.array([m.data for m in matrices])
    flat = data.ravel().tolist()
    denom = math.lcm(*(e._d for e in flat))
    re = [e._a * (denom // e._d) for e in flat]
    im = [e._b * (denom // e._d) for e in flat]
    parts = np.array([re, im] if any(im) else [re], dtype=object)
    last = data.ndim  # the parts' axis goes before the rows and columns
    axes = (*range(1, last - 1), 0, last - 1, last)
    return denom, parts.reshape((len(parts),) + data.shape).transpose(axes)


def gaussian_rationals(denom, ints):
    """The Gaussian rationals ints / D of Gaussian integers in the layout of
    ``clear_denominators``, stacked (..., parts, rows, cols), as one object
    array (..., rows, cols)."""
    re = ints[..., 0, :, :]
    im = ints[..., 1, :, :] if ints.shape[-3] == 2 else np.zeros(re.shape, dtype=object)
    return np.frompyfunc(GaussianRational._raw, 3, 1)(re, im, denom)


def gaussian_matmul(x, y, out):
    """Products of Gaussian-integer matrices in the layout of
    ``clear_denominators``, stacked (..., parts, n, n), written to
    ``out``."""
    if x.shape[-3] == 1:
        np.matmul(x, y, out=out)
    else:
        xr, xi, yr, yi = x[..., 0, :, :], x[..., 1, :, :], y[..., 0, :, :], y[..., 1, :, :]
        out[..., 0, :, :] = xr @ yr - xi @ yi
        out[..., 1, :, :] = xr @ yi + xi @ yr


def _as_exact(value) -> GaussianRational:
    """Coerce an entry to a Gaussian rational, rejecting floats."""
    if isinstance(value, GaussianRational):
        return value
    if isinstance(value, (int, Fraction)):
        return GaussianRational(value)
    if isinstance(value, (float, complex)):
        raise ModeMismatchError("exact matrices require rational entries")
    raise TypeError(f"cannot build an exact entry from {type(value).__name__}")


class Matrix:
    """A dense matrix whose entries all live in one scalar mode."""

    __slots__ = ("mode", "data")

    def __init__(self, data: np.ndarray, mode: str):
        if mode not in (FLOAT, EXACT):
            raise ValueError(f"unknown mode {mode!r}")
        self.mode = mode
        self.data = data

    # ---------------------------------------------------------------- build
    @staticmethod
    def from_complex(rows) -> "Matrix":
        arr = np.array(rows, dtype=np.complex128)
        if arr.ndim != 2:
            raise ValueError("matrix rows must form a 2-d array")
        return Matrix(arr, FLOAT)

    @staticmethod
    def from_rational(rows) -> "Matrix":
        converted = [[_as_exact(e) for e in row] for row in rows]
        ncols = {len(r) for r in converted}
        if len(converted) == 0 or ncols != {len(converted[0])}:
            raise ValueError("matrix rows must be nonempty and equal length")
        arr = np.empty((len(converted), len(converted[0])), dtype=object)
        for i, row in enumerate(converted):
            for j, e in enumerate(row):
                arr[i, j] = e
        return Matrix(arr, EXACT)

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self):
        return self.data.shape

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    # ----------------------------------------------------------- arithmetic
    def _check_mode(self, other: "Matrix"):
        if not isinstance(other, Matrix):
            raise TypeError("expected a Matrix")
        if self.mode != other.mode:
            raise ModeMismatchError(
                f"cannot combine {self.mode}-mode and {other.mode}-mode matrices"
            )

    def __add__(self, other: "Matrix") -> "Matrix":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(self.data + other.data, self.mode)

    def __sub__(self, other: "Matrix") -> "Matrix":
        self._check_mode(other)
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch {self.shape} vs {other.shape}")
        return Matrix(self.data - other.data, self.mode)

    def __neg__(self) -> "Matrix":
        return Matrix(-self.data, self.mode)

    def __matmul__(self, other: "Matrix") -> "Matrix":
        self._check_mode(other)
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.shape} by {other.shape} matrices"
            )
        return Matrix(self.data @ other.data, self.mode)

    def scale(self, factor) -> "Matrix":
        """Multiply every entry by a scalar of the matching mode."""
        if self.mode == EXACT:
            f = _as_exact(factor)
            return Matrix(self.data * f, self.mode)
        return Matrix(self.data * complex(factor), self.mode)

    def transpose(self) -> "Matrix":
        return Matrix(self.data.T.copy(), self.mode)

    def conj(self) -> "Matrix":
        return Matrix(np.conj(self.data), self.mode)

    def adjoint(self) -> "Matrix":
        return Matrix(np.conj(self.data).T.copy(), self.mode)

    def re_im(self):
        """The real and the imaginary part, each a matrix of the same mode
        with real entries."""
        if self.mode == EXACT:
            re = np.empty(self.shape, dtype=object)
            im = np.empty(self.shape, dtype=object)
            for idx, e in np.ndenumerate(self.data):
                re[idx], im[idx] = GaussianRational(e.re), GaussianRational(e.im)
            return Matrix(re, EXACT), Matrix(im, EXACT)
        return Matrix(self.data.real + 0j, FLOAT), Matrix(self.data.imag + 0j, FLOAT)

    def trace(self):
        if not self.is_square:
            raise ValueError("trace of a non-square matrix")
        if self.mode == EXACT:
            t = GaussianRational(0)
            for i in range(self.rows):
                t = t + self.data[i, i]
            return t
        return complex(self.data.trace())

    def power(self, k: int) -> "Matrix":
        """Nonnegative matrix power by repeated squaring."""
        if not self.is_square:
            raise ValueError("power of a non-square matrix")
        if k < 0:
            raise ValueError("negative matrix power")
        result = identity(self.rows, self.mode)
        base = self
        while k:
            if k & 1:
                result = result @ base
            base = base @ base if k > 1 else base
            k >>= 1
        return result

    # ------------------------------------------------------------- queries
    def norm_fro_sq(self):
        """Squared Frobenius norm; a Fraction in exact mode, float otherwise."""
        if self.mode == EXACT:
            total = Fraction(0)
            for e in self.data.flat:
                total += e.abs_sq()
            return total
        return float(np.sum(np.abs(self.data) ** 2))

    def norm_fro(self) -> float:
        return math.sqrt(float(self.norm_fro_sq()))

    def is_zero(self) -> bool:
        if self.mode == EXACT:
            return all(not e for e in self.data.flat)
        return not np.any(self.data)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        if self.mode != other.mode or self.shape != other.shape:
            return False
        if self.mode == EXACT:
            return all(a == b for a, b in zip(self.data.flat, other.data.flat))
        return bool(np.array_equal(self.data, other.data))

    def allclose(self, other: "Matrix", tol: float = 1e-12) -> bool:
        self._check_mode(other)
        if self.shape != other.shape:
            return False
        if self.mode == EXACT:
            return self == other
        return (self - other).norm_fro() <= tol * (1.0 + other.norm_fro())

    def entry(self, i: int, j: int):
        return self.data[i, j]

    def vec(self) -> np.ndarray:
        """Row-major flattening of the entries."""
        return self.data.reshape(-1)

    def to_float(self) -> "Matrix":
        if self.mode == FLOAT:
            return self
        arr = np.array(
            [[complex(e) for e in row] for row in self.data], dtype=np.complex128
        )
        return Matrix(arr, FLOAT)

    def to_exact(self) -> "Matrix":
        """Rationalize a float matrix entry-by-entry (binary floats are exact)."""
        if self.mode == EXACT:
            return self
        out = np.empty(self.shape, dtype=object)
        for i in range(self.rows):
            for j in range(self.cols):
                z = self.data[i, j]
                out[i, j] = GaussianRational(Fraction(z.real), Fraction(z.imag))
        return Matrix(out, EXACT)

    def det(self):
        """Determinant; exact in exact mode."""
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        if self.mode == FLOAT:
            return complex(np.linalg.det(self.data))
        work = [list(row) for row in self.data]
        n = self.rows
        sign = 1
        det = GaussianRational(1)
        for col in range(n):
            pivot = next((r for r in range(col, n) if work[r][col]), None)
            if pivot is None:
                return GaussianRational(0)
            if pivot != col:
                work[col], work[pivot] = work[pivot], work[col]
                sign = -sign
            p = work[col][col]
            det = det * p
            for r in range(col + 1, n):
                if work[r][col]:
                    f = work[r][col] / p
                    for c in range(col, n):
                        work[r][c] = work[r][c] - f * work[col][c]
        return det * sign if sign == 1 else -det

    def __repr__(self):
        return f"Matrix({self.rows}x{self.cols}, {self.mode})"


# --------------------------------------------------------------------------
# constructors
# --------------------------------------------------------------------------

def zeros(rows: int, cols: int, mode: str = FLOAT) -> Matrix:
    if rows < 1 or cols < 1:
        raise ValueError("matrix dimensions must be positive")
    if mode == EXACT:
        arr = np.empty((rows, cols), dtype=object)
        z = GaussianRational(0)
        arr[:] = z
        return Matrix(arr, EXACT)
    return Matrix(np.zeros((rows, cols), dtype=np.complex128), FLOAT)


def identity(n: int, mode: str = FLOAT) -> Matrix:
    m = zeros(n, n, mode)
    one = GaussianRational(1) if mode == EXACT else 1.0 + 0.0j
    for i in range(n):
        m.data[i, i] = one
    return m


def block(grid) -> Matrix:
    """Assemble a matrix from a 2-d grid of equal-mode Matrix blocks."""
    modes = {m.mode for row in grid for m in row}
    if len(modes) != 1:
        raise ModeMismatchError("all blocks must share one scalar mode")
    data = np.block([[m.data for m in row] for row in grid])
    return Matrix(data, modes.pop())


# --------------------------------------------------------------------------
# linear-algebra kernels
# --------------------------------------------------------------------------

def nullspace(op: np.ndarray):
    """Orthonormal nullspace basis of a float operator via SVD.

    Returns ``(basis_vectors, gap_ratio)`` where basis vectors are rows and
    ``gap_ratio`` is smallest-kept-singular-value / largest-discarded (inf
    when the split is unambiguous).  A small ratio flags a marginal instance.
    """
    if op.size == 0:
        raise ValueError("empty operator")
    u, s, vh = np.linalg.svd(op)
    smax = s[0] if len(s) else 0.0
    thresh = DEP_TOL * max(1.0, smax)
    null_mask = s <= thresh
    # svd reports min(m, n) singular values; trailing rows of vh beyond that
    # always belong to the nullspace
    kept = s[~null_mask]
    discarded = s[null_mask]
    basis = list(vh[len(s) :]) + [vh[i] for i in range(len(s)) if null_mask[i]]
    if len(discarded) == 0 or float(np.max(discarded)) == 0.0:
        gap = math.inf
    elif len(kept) == 0:
        gap = math.inf
    else:
        gap = float(np.min(kept)) / float(np.max(discarded))
    return [np.conj(v) for v in basis], gap


def exact_nullspace(rows):
    """Exact nullspace basis of a matrix given as rows of Gaussian rationals."""
    if not rows:
        raise ValueError("empty operator")
    work = [list(r) for r in rows]
    ncols = len(work[0])
    pivots = {}
    rank = 0
    for col in range(ncols):
        pivot = next((r for r in range(rank, len(work)) if work[r][col]), None)
        if pivot is None:
            continue
        work[rank], work[pivot] = work[pivot], work[rank]
        p = work[rank][col]
        work[rank] = [e / p for e in work[rank]]
        for r in range(len(work)):
            if r != rank and work[r][col]:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[rank])]
        pivots[col] = rank
        rank += 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for free in free_cols:
        v = [GaussianRational(0)] * ncols
        v[free] = GaussianRational(1)
        for col, r in pivots.items():
            v[col] = -work[r][free]
        basis.append(v)
    return basis


def intertwiner_operator(a, b):
    """The maps W -> A_k W - W B_k of two stacked lists of m-by-m matrices
    (k, m, m), as the matrices kron(I, A_k) - kron(B_k^T, I) on W
    vectorized column-major, stacked (k, m^2, m^2) in the lists' dtype."""
    k, m = a.shape[0], a.shape[-1]
    eye = np.identity(m, dtype=a.dtype)
    # entry (k, j, i, q, p): row W[i, j], column W[p, q]
    op = eye[:, None, :, None] * a[:, None, :, None, :]
    op = op - b.swapaxes(1, 2)[:, :, None, :, None] * eye[:, None, :]
    return op.reshape(k, m * m, m * m)


def _sqrt_minus_one(p: int) -> int:
    """A square root of -1 mod a prime p = 1 mod 4: q^((p - 1) / 4) for the
    least q that is not a square mod p (Euler's criterion)."""
    q = next(q for q in range(2, p) if pow(q, (p - 1) // 2, p) == p - 1)
    return pow(q, (p - 1) // 4, p)


# a prime whose residues' products, and sums of 2^16 of them, fit in int64
PRIME = 8_388_593
# a square root of -1 mod PRIME, which is 1 mod 4 and has 3 as its least
# non-square: i -> SQRT_MINUS_ONE maps the Gaussian integers onto the
# integers mod PRIME
SQRT_MINUS_ONE = _sqrt_minus_one(PRIME)


def span_primes():
    """The fixed sequence of moduli that the exact closure's span tries in
    turn, as ``(p, sqrt(-1) mod p)``: ``PRIME``, then every prime p = 1 mod
    4 below it, largest first.  Each p is 1 mod 4, so i has an image mod p,
    and each is at most ``PRIME``, so int64 holds its products."""
    yield PRIME, SQRT_MINUS_ONE
    for p in range(PRIME - 4, 4, -4):
        if all(p % q for q in range(3, math.isqrt(p) + 1, 2)):
            yield p, _sqrt_minus_one(p)


def gaussian_residues(ints, p: int, root: int):
    """Gaussian-integer matrices in the layout of ``clear_denominators``,
    stacked (..., parts, n, n), mod the prime p with i -> root, a square
    root of -1 mod p: a ring map onto the integers mod p, as int64 (..., n,
    n)."""
    image = ints[..., 0, :, :]
    if ints.shape[-3] == 2:
        image = image + root * ints[..., 1, :, :]
    return (image % p).astype(np.int64)


def power_traces_differ_mod_p(x) -> bool:
    """Whether some pair of square int64 matrices x[0, k], x[1, k] (x
    reduced mod ``PRIME``, shape (2, a, n, n)) has tr x^j differing mod p
    for some j <= n.  Then the traces differ over the integers too, so the
    two are not similar: no invertible R has R x[0, k] = x[1, k] R.  Equal
    traces of the first n powers mean equal characteristic polynomials
    (Newton's identities, as n < p), so this rules out every pair whose
    spectra differ, among them each pair of disjoint spectra, for which
    only R = 0 maps one to the other (Sylvester)."""
    power = x
    for j in range(x.shape[-1]):
        if j:
            power = power @ x % PRIME
        traces = np.trace(power, axis1=-2, axis2=-1) % PRIME
        if (traces[0] != traces[1]).any():
            return True
    return False


def independent_rows_mod_p(rows, p: int = PRIME):
    """Rows of the integer matrix ``rows``, taken in order, that are
    independent mod the prime p (at most ``PRIME``) and span all the rows
    mod it: ``(taken, reduced, pivots)``, the indices of the rows taken,
    and their span mod p in reduced row echelon form with its pivot
    columns, in the order taken.  Each reduced row is 1 at its pivot, 0
    before it and at the other pivots, so the pivots are those of
    column-order elimination.  None as soon as the rows taken reach rank
    cols, for a nonzero minor mod p is nonzero, so the integers have full
    column rank too.  Rows independent mod p are independent over Q."""
    m, cols = rows.shape
    # the rows, then a slot per reduced row.  Rows are reduced mod p only
    # when searched, 8 at a time: between, each of at most cols steps
    # subtracts less than p^2 < 2^46, so int64 holds every entry while cols
    # < 2^17, far more columns than an intertwiner system fits in memory
    w = np.zeros((m + cols, cols), dtype=np.int64)
    w[:m] = rows % p
    pivots, taken, i = [], [], 0
    while i < m:
        x = w[i : min(i + 8, m)] % p
        at, cs = x.nonzero()
        if not len(at):
            i += 8
            continue
        skip, c = int(at[0]), int(cs[0])
        i += skip
        row = x[skip] * pow(int(x[skip, c]), -1, p) % p
        tail = w[i + 1 :]  # the rows before i are 0 mod p
        tail -= tail[:, c, None] % p * row
        w[m + len(pivots)] = row
        pivots.append(c)
        taken.append(i)
        if len(pivots) == cols:
            return None
        i += 1
    return taken, w[m : m + len(pivots)] % p, pivots


def inverse_mod_p(m, p: int):
    """The inverse mod the prime p (at most ``PRIME``) of the square int64
    matrix m, None if m is singular mod p: the reduced rows of [m | I]
    (``independent_rows_mod_p``) are [P | P m^-1] for a permutation P when
    every pivot falls in m."""
    d = len(m)
    _, reduced, pivots = independent_rows_mod_p(np.hstack([m, np.eye(d, dtype=np.int64)]), p)
    if max(pivots) >= d:
        return None
    inverse = np.empty_like(reduced[:, d:])
    inverse[pivots] = reduced[:, d:]
    return inverse


def rational_reconstruction(u: int, m: int):
    """The fraction a / b = u mod m with |a|, b <= sqrt(m / 2), as ``(a, b)``
    with b > 0 and gcd(a, b) = 1; None if there is none.  Such a fraction
    is unique, so a rational whose numerator and denominator are within
    that bound comes back from its residue (Wang 1981; von zur Gathen and
    Gerhard, *Modern Computer Algebra*, 5.10): the extended Euclidean
    algorithm on (m, u), stopped at the first remainder within the bound.
    The gcd test fails only when m is composite."""
    bound = math.isqrt((m - 1) // 2)
    r0, r1, s0, s1 = m, u % m, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1, s0, s1 = r1, r0 - q * r1, s1, s0 - q * s1
    if abs(s1) > bound or math.gcd(r1, s1) != 1:
        return None
    return (r1, s1) if s1 > 0 else (-r1, -s1)


def integer_det(a):
    """The determinant of a square integer matrix, by fraction-free
    elimination (Bareiss 1968)."""
    m, prev, sign = [list(row) for row in a], 1, 1
    for k in range(len(m)):
        swap = next((i for i in range(k, len(m)) if m[i][k]), None)
        if swap is None:
            return 0
        if swap != k:
            m[k], m[swap], sign = m[swap], m[k], -sign
        pk = m[k][k]
        for mi in m[k + 1 :]:
            f = mi[k]
            for c in range(k + 1, len(mi)):
                mi[c] = (mi[c] * pk - f * m[k][c]) // prev
        prev = pk
    return sign * prev


# --------------------------------------------------------------------------
# pre-scaling
# --------------------------------------------------------------------------

def as_matrices(data):
    """Matrix views of stacked entries, one per index of the first axis:
    exact mode when the entries are objects, float mode otherwise."""
    return [Matrix(x, EXACT if data.dtype == object else FLOAT) for x in data]


def _largest_norm(mats) -> float:
    """The largest Frobenius norm of stacked float matrices, taken of the
    moduli divided by the largest one, so that no square overflows or
    underflows; ValueError if an entry is not finite or the norm is outside
    the normal float range, where its inverse would be inf or 0."""
    if not np.isfinite(mats).all():
        raise ValueError("float matrix entries must be finite")
    with np.errstate(all="ignore"):  # the range check below catches all
        moduli = np.abs(mats)
        peak = float(moduli.max(initial=0.0))
        if peak == 0.0:
            return 0.0
        biggest = peak * max(float(np.linalg.norm(x / peak)) for x in moduli)
    if not sys.float_info.min <= biggest < math.inf:
        raise ValueError("a float matrix norm is out of the normal float range")
    return biggest


def scale_exponent(denom, ints) -> int:
    """The least e >= 0 for which 2^e bounds the Frobenius norm of every
    matrix of the Gaussian integers ``ints`` over ``denom``, in the layout
    (..., parts, rows, cols) of ``clear_denominators``: the exponent of
    ``common_scale``'s exact factor 2^-e."""
    top, bound, e = max((ints * ints).sum(axis=(-3, -2, -1)).flat), denom * denom, 0
    while top > bound << 2 * e:
        e += 1
    return e


def common_scale(matrices):
    """One factor making the largest Frobenius norm at most 1.

    ``matrices`` are Matrix objects of one shape and mode, or one array
    stacking their entries on its leading axes (objects in exact mode); all
    are scaled in one pass and come back in the form given, Matrix objects
    as views of one stack.  Each matrix counts with its own norm.  Float
    mode normalizes the maximum norm to exactly 1; a norm that the squares
    of the entries overflow or underflow is taken again from the entries
    divided by the largest one, and a non-finite entry or a norm past the
    float range raises ValueError.  Exact mode uses the largest
    power-of-two denominator needed, so scaling stays rational and
    decisions stay tolerance-free.  Returns ``(factor, scaled)``.
    """
    if not isinstance(matrices, np.ndarray):
        mats = list(matrices)
        if not mats:
            return 1.0, []
        for m in mats:
            mats[0]._check_mode(m)
        factor, data = common_scale(np.array([m.data for m in mats]))
        return factor, as_matrices(data)
    if matrices.dtype == object:
        e = scale_exponent(*clear_denominators(matrices))
        if not e:
            return Fraction(1), matrices
        factor = Fraction(1, 2**e)
        return factor, matrices * _as_exact(factor)
    mats = matrices.reshape((-1,) + matrices.shape[-2:])
    with np.errstate(over="ignore"):  # an overflow is taken again below
        norms = np.sqrt(np.sum(np.abs(mats) ** 2, axis=(1, 2)))
    biggest = float(norms.max())
    # overflow, underflow, 0 or a NaN, which the max passes on
    if not sys.float_info.min <= biggest < math.inf:
        biggest = _largest_norm(mats)
    if biggest == 0.0:
        return 1.0, matrices
    factor = 1.0 / biggest
    return factor, matrices * complex(factor)
