"""Exact arithmetic of the closure engine, which ``engines._closure_verdict``
picks for Gaussian-rational letters, cleared of denominators:
``_ModularSpan`` spans both sides' algebras mod a prime and checks each
verdict exactly.  It is built only when ``_integer_intertwiner`` finds no
invertible integer intertwiner of the letters, which answers Equivalent
with no span.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import numpy as np

from .numerics import (
    PRIME,
    GaussianRational,
    _grown,
    gaussian_matmul,
    independent_rows_mod_p,
    integer_det,
    intertwiner_operator,
    inverse_mod_p,
    power_traces_differ_mod_p,
    rational_reconstruction,
    span_primes,
)


def _real_system(ints):
    """The equations L'_k R - R L_k = 0 of two stacked Gaussian-integer
    letter lists (2, a, parts, N, N), in the layout of
    ``clear_denominators``, as the rows of one matrix, parts N^2 of them
    per letter: on vec R for real letters, and on [vec X; vec Y], each
    equation's real part then its imaginary part, for R = X + iY over
    complex ones."""
    a, parts, size = ints.shape[1:4]
    flat = ints.reshape(2, a * parts, size, size)
    ops = intertwiner_operator(flat[1], flat[0]).reshape((a, parts) + (size * size,) * 2)
    if parts == 2:
        re, im = ops[:, 0], ops[:, 1]
        ops = np.stack([np.concatenate(h, axis=-1) for h in ((re, -im), (im, re))], axis=2)
    return ops.reshape(-1, parts * size * size)


def _lifted(reductions, pivots, free, values):
    """The integer vector, as Python ints, on which the rows of each ``(p,
    reduced)`` of ``reductions``, one set of rows reduced mod the prime p
    (1 at their ``pivots``), vanish mod p, and whose entries at the columns
    ``free`` are proportional to ``values``: each pivot entry is read mod
    each p off its row, the residues are joined by the Chinese remainder
    theorem, the result is lifted to a fraction by
    ``rational_reconstruction`` modulo the product of the primes, and the
    vector is cleared of their denominators.  None if an entry has no
    lift."""
    draw = np.asarray(values, dtype=np.int64)
    u, m = [0] * len(pivots), 1
    for p, reduced in reductions:
        residues = (-(reduced[:, free] @ draw) % p).tolist()
        step = pow(m, -1, p)
        u = [x + m * ((y - x) * step % p) for x, y in zip(u, residues)]
        m *= p
    fractions = [rational_reconstruction(x, m) for x in u]
    if None in fractions:
        return None
    lead = math.lcm(*(b for _, b in fractions))
    vec = np.zeros(reductions[0][1].shape[1], dtype=object)
    vec[free] = [lead * c for c in values]
    vec[pivots] = [num * (lead // b) for num, b in fractions]
    return vec


def _mapping(vec, ints):
    """The matrix R of an integer vector on vec R, or on [vec X; vec Y] for
    R = X + iY, as parts (parts, N, N), if R L_k = L'_k R holds exactly on
    every letter of ``ints`` (one stacked product per side); else None."""
    parts, size = ints.shape[2:4]
    r = vec.reshape(parts, size, size).swapaxes(1, 2)  # vec is column-major
    # entry (k, p, q): the product of part p of one factor by part q of the other
    d = r[None, :, None] @ ints[0][:, None] - ints[1][:, :, None] @ r[None, None]
    if parts == 2:  # (X + iY)(A + iB) = XA - YB + i(XB + YA)
        d = np.stack([d[:, 0, 0] - d[:, 1, 1], d[:, 0, 1] + d[:, 1, 0]])
    return None if d.any() else r


def _same(vec, last) -> bool:
    """Whether two lifts, over one set of primes and over it and one more,
    are one vector.  Then it is, but for a rare coincidence, the rational
    solution of the rows lifted, and if it misses a letter, those rows,
    independent mod ``PRIME``, do not span the equations over Q: ``PRIME``
    divides a minor, and no more primes give a lift that maps every
    letter.  A coincidence only leaves the decision to the span."""
    return vec is not None and last is not None and (vec == last).all()


def _reductions(ints, taken, pivots, free):
    """``(p, reduced)`` for the primes p but ``PRIME`` of ``span_primes``:
    the equations ``taken`` of ``_real_system(ints)`` mod p in reduced row
    echelon form on the columns ``pivots``, row j 1 at pivots[j], as
    ``_lifted`` reads them.  With those columns put first, column-order
    elimination (``independent_rows_mod_p``) pivots on them unless their
    minor vanishes mod p, and such a p is skipped.  The minor is nonzero
    mod ``PRIME``, so over the integers, and only its prime factors are
    skipped, whatever pivots the rows would take mod p."""
    k, order = len(pivots), pivots + free
    for p, _ in span_primes():
        if p == PRIME:
            continue
        rows = _real_system(np.asarray(ints % p, dtype=np.int64))[taken][:, order]
        _, echelon, at = independent_rows_mod_p(rows, p)
        if sorted(at) == list(range(k)):  # each pivot among the first k
            reduced = np.empty_like(echelon)
            reduced[np.ix_(at, order)] = echelon
            yield p, reduced


def _integer_intertwiner(ints, image):
    """An invertible R with R L_k = L'_k R on every letter of two stacked
    Gaussian-integer letter lists (2, a, parts, N, N), in the layout of
    ``clear_denominators``, as R's parts; None if this finds none, which
    proves nothing.  ``image`` holds the letters' residues mod ``PRIME``
    (``gaussian_residues``).

    The closure's letter lists are closed under adjoint, so R*R commutes
    with the letters and the unitary polar factor of R intertwines them:
    over the rationals, with no tolerance, such an R proves Equivalent.  On
    real letters a real R is sought; ``solve_general`` shows that one
    exists when a unitary intertwiner does.

    1. Mod ``PRIME``, with i -> ``SQRT_MINUS_ONE``: an invertible R makes
       each letter similar to its partner, so if some letter's spectrum
       differs from its partner's (``power_traces_differ_mod_p``), the
       answer is None.  This covers the letters whose spectra are
       disjoint, where only R = 0 maps one to the other (Sylvester).
    2. Else the equations over the integers (``_real_system``).  If they
       have full column rank mod p (``independent_rows_mod_p``), None too.
       A minor that is nonzero mod p is nonzero over the integers, so p
       only ever rules an R out.
    3. Else the rows independent mod p, which are independent over Q, are
       kept in reduced form mod p with their pivot columns.  The free
       unknowns, taken in column order, are fixed to small integers, and
       the pivot unknowns are read mod p off the reduced rows and lifted
       by rational reconstruction (``_lifted``).  When the lift fails or
       its R does not map every letter, which happens when R's entries pass
       sqrt(p / 2), the same rows are reduced on the same pivots mod the
       next primes of ``span_primes`` (``_reductions``), one more each
       time, and the lift runs modulo their product.  Past twice the square
       of the solution's numerators and denominators two lifts in a row
       agree, and if they miss a letter the answer is None (``_same``).
       The first R that maps every letter exactly is returned if its
       determinant, of [[X, -Y], [Y, X]] over complex letters, is nonzero
       (``integer_det``); else the answer is None, and the span decides.
    """
    if power_traces_differ_mod_p(image):
        return None
    # over real letters the residues are the image's
    residues = image[:, :, None] if ints.shape[2] == 1 else ints % PRIME
    kept = independent_rows_mod_p(_real_system(np.asarray(residues, dtype=np.int64)))
    if kept is None:
        return None
    taken, reduced, pivots = kept
    free = sorted(set(range(reduced.shape[1])) - set(pivots))
    # the j-th free unknown is 2^((j + 1)^2) mod 1009: small, and with no
    # pattern such as t^j, which over the standard basis of a full matrix
    # space gives a rank-one R
    values = [pow(2, (j + 1) ** 2, 1009) for j in range(len(free))]
    reductions, last = [], None
    for step in itertools.chain([(PRIME, reduced)], _reductions(ints, taken, pivots, free)):
        reductions.append(step)
        vec = _lifted(reductions, pivots, free, values)
        if _same(vec, last):
            return None
        r = None if vec is None else _mapping(vec, ints)
        if r is not None:
            square = r[0]
            if len(r) == 2:  # R = X + iY as the real [[X, -Y], [Y, X]]
                square = np.vstack([np.hstack([r[0], -r[1]]), np.hstack([r[1], r[0]])])
            return r if integer_det(square) else None
        last = vec
    return None


_SIDES = np.arange(2)[:, None]  # indexes axis 0 beside per-side indices


class _Unconfirmed(Exception):
    """An exact check contradicted the span mod p, or p divides a minor the
    check needs: the prime is bad for this instance."""


def _combined(coords, basis):
    """sum_k coords_k basis_k over the Gaussian integers, one combination
    per row of ``coords`` (t, parts, vectors) of the ``basis`` (..., vectors,
    parts, entries): (..., t, parts, entries)."""
    xr, yr = coords[:, 0], basis[..., 0, :]
    if basis.shape[-2] == 1:
        return (xr @ yr)[..., None, :]
    xi, yi = coords[:, 1], basis[..., 1, :]
    return np.stack([xr @ yr - xi @ yi, xr @ yi + xi @ yr], axis=-2)


def _limbs(m, shift: int):
    """The integers of the object array m as int64 arrays, m = sum_j
    limbs[j] 2^(shift j): limb j is shift bits of |m| from bit shift j on,
    with m's sign."""
    mag, sign = np.abs(m), np.where(m < 0, -1, 1)
    top, mask = int(mag.max()).bit_length(), (1 << shift) - 1
    return [sign * (mag >> s & mask).astype(np.int64) for s in range(0, max(top, 1), shift)]


def _limb_combined(coords, limbs, shift: int):
    """``_combined`` of the int64 ``coords`` with the integers whose
    ``_limbs`` are ``limbs``, one int64 product per limb, as Python
    integers; exact when no limb's product passes 2^63."""
    out = 0
    for limb in reversed(limbs):
        out = (out << shift) + _combined(coords, limb).astype(object)
    return out


def _reconstructed(residues, q: int):
    """The rationals whose residues mod q are ``residues`` (t, parts,
    vectors), by ``rational_reconstruction``, each row over one common
    denominator, for the rows before the first in which an entry has no
    lift: ``(nums, dens)``, ``nums`` an object array (rows, parts, vectors)
    and ``dens`` one of Python integers.  Each residue is multiplied by its
    row's denominator so far before it is lifted, so later entries mostly
    lift with denominator 1, as the integer within the bound they are
    congruent to, and every lift is right once q passes twice the product
    of a bound on the row's numerators over their common denominator and a
    bound on that denominator."""
    nums, dens, bound = [], [], math.isqrt((q - 1) // 2)
    for row in residues.reshape(len(residues), -1).tolist():
        den, out = 1, []
        for u in row:
            v = u * den % q
            if min(v, q - v) <= bound:  # rational_reconstruction's (v, 1)
                out.append(v if v <= bound else v - q)
                continue
            lift = rational_reconstruction(v, q)
            if lift is None:
                break
            a, b = lift
            if b > 1:
                out = [x * b for x in out]
                den *= b
            out.append(a)
        if len(out) < len(row):
            break
        nums.append(out)
        dens.append(den)
    shape = (len(nums),) + residues.shape[1:]
    return np.array(nums, dtype=object).reshape(shape), np.array(dens, dtype=object)


def _norm_bits(rows):
    """The bit lengths of the squared Euclidean norms of integer rows."""
    return [sum(e * e for e in row).bit_length() for row in rows.tolist()]


class _ModularSpan:
    """Both sides' spans over the integers mod a prime p, in lockstep, with
    exact Gaussian-integer arithmetic only where a verdict is issued.

    The letters come cleared of denominators, as Gaussian integers in the
    layout of ``clear_denominators`` with one D for both sides (a word of
    length L is scaled by D^L on both sides, which changes no dependency and
    no trace equality), and reduced mod p with i -> a square root of -1 mod
    p.  That is a ring map, so a word's residues are the products of its
    letters', one stacked int64 matmul per block of up to ``_BLOCK`` words.
    Each side keeps its [self | other | T] rows in reduced echelon form mod
    p: a word's vector joined to its mirror, the other side's, and to T,
    its combination of the basis words' residues, 1 at its own pivot column
    and 0 at every other row's.  So T is the inverse mod p of the basis'
    minor on the pivot columns.  A block is then reduced by one product, x -
    x[pivots] B, against the rows as the block started, and ``reduce``
    clears from each word, in order, the rows added earlier in its block.  A
    word depends on a side's rows when its self half is zero, and its
    dependency transfers when its mirror half is zero too.  Complex letters
    need no i x rows: the residues span the image of the words' complex
    span, so the dimension is the number of basis words.

    A residue or a minor that is nonzero mod p is nonzero over the
    Gaussian integers, so rows independent mod p are independent over
    Q(i).  The converse fails for finitely many p: mod such a bad prime a
    word independent over Q(i) can look dependent, and a nonzero defect can
    vanish.  So each verdict is checked exactly, on the exact products of
    the words involved, built along their prefix tree from the cleared
    letters and each divided by its joint content g, with nu = nu_parent g
    / D, so nu times a product is the word's value (no basis word has
    content 0, for its residues are not all 0).  Exact coordinates are
    lifted from the ones mod p (``_coordinates``) and accepted only if they
    give the word exactly on their side:

    * ``mismatch``: the coefficients of the first word dependent on a side
      whose mirror half is not zero must give the word exactly on the
      dependent side and miss it on the other.
    * ``trace_mismatch``: the basis words' traces are compared exactly;
      when all agree, every child of the basis that is not a basis word
      must have the same coordinates on both sides, which proves both spans
      closed under the letters and every dependency transferred.

    An exact check that contradicts the span raises ``_Unconfirmed``, and
    the closure runs the span again mod the next prime.  With a good prime
    the span takes the words that exact elimination would take, so every
    certificate is the one of deciding each word exactly.
    """

    tol = None  # exact: verdicts carry no tolerance

    def __init__(self, ints, denom, residues, p: int, root: int):
        n = ints.shape[-1]
        self.ints, self.denom, self.p, self.root = ints, denom, p, root
        self.dim, self.d = n * n, 0
        self.letters = residues
        self.eye = np.broadcast_to(np.eye(n, dtype=np.int64), (2, 1, n, n))
        self.prods = residues[:, :0]  # each basis word's residues
        self.rows = np.empty((2, 0, 3 * self.dim), dtype=np.int64)
        self.pivots = np.empty((2, 0), dtype=np.int64)
        self.sources = []  # each basis word's (parent, letter)
        self._exacts = None  # the basis words' exact products, once built

    def project(self, origin):
        """Start a block: the residues of the entries ``origin``, each
        ``(parent, letter)``, or [None] for the empty word, reduced against
        the rows.  Returns the entries, all kept."""
        p, d, dim = self.p, self.d, self.dim
        if origin == [None]:
            block = self.eye
        else:
            parents, ks = (list(x) for x in zip(*origin))
            block = np.matmul(self.prods[:, parents], self.letters[:, ks]) % p
        b = block.shape[1]
        self.prods = _grown(self.prods, d + b, dim)
        self.rows = _grown(self.rows, d + b, dim)
        self.pivots = _grown(self.pivots, d + b, dim)
        x = np.zeros((2, b, 3 * dim), dtype=np.int64)  # [self | other | T]
        x[:, :, :dim] = block.reshape(2, b, dim)
        x[:, :, dim : 2 * dim] = x[::-1, :, :dim]
        if d:  # x[pivots] B, the gather (2, d, words) transposed
            at = x[_SIDES, :, self.pivots[:, :d]].transpose(0, 2, 1)
            x = (x - at @ self.rows[:, :d]) % p
        self._origin, self._children, self._x, self._d0 = origin, block, x, d
        self._zero = (~x[:, :, :dim].any(axis=2)).T.tolist()
        return origin

    def reduce(self, j: int):
        """Both sides' dependency flags for row j: a zero self half."""
        d0, d = self._d0, self.d
        if d == d0:
            return self._zero[j]
        x = self._x[:, j]  # clear the rows added earlier in this block
        at = x[_SIDES, self.pivots[:, d0:d]]
        x -= (at[:, None] @ self.rows[:, d0:d])[:, 0]
        x %= self.p
        return [not x[0, : self.dim].any(), not x[1, : self.dim].any()]

    def add(self, j: int):
        """Add row j on both sides as basis word d, 1 in its T part: scaled
        to 1 at its first nonzero entry, its pivot, which is cleared from
        the other rows."""
        p, d = self.p, self.d
        x = self._x[:, j]
        x[:, 2 * self.dim + d] = 1
        c = (x[:, : self.dim] != 0).argmax(axis=1)
        inv = [pow(int(x[s, c[s]]), -1, p) for s in (0, 1)]
        row = x * np.array(inv)[:, None] % p
        if d:
            rows = self.rows[:, :d]
            rows -= rows[_SIDES, :, c[:, None]].transpose(0, 2, 1) * row[:, None]
            rows %= p
        self.rows[:, d], self.pivots[:, d] = row, c
        self.prods[:, d] = self._children[:, j]
        self.sources.append(self._origin[j])
        self.d = d + 1

    def _products(self, sources):
        """The exact products of the words ``sources``, each ``(parent,
        letter)`` with its parent's built, stacked (2, words, parts, n, n),
        one stacked product, and each divided by its joint content g; their
        nu = nu_parent g / D; and their G mod p, the product of the contents
        g along the word, so that G times the product is the word's
        residues."""
        prods, nus, contents = self._exacts
        parents, ks = (list(x) for x in zip(*sources))
        out = np.empty((2, len(sources)) + self.ints.shape[2:], dtype=object)
        gaussian_matmul(prods[:, parents], self.ints[:, ks], out)
        out_nus, out_contents = [], []
        for w, parent in enumerate(parents):
            g = math.gcd(*out[:, w].flat)
            if g > 1:  # g = 0 only for a child of the basis that vanishes
                out[:, w] //= g
            nu = nus[parent]
            out_nus.append(Fraction(nu.numerator * g, nu.denominator * self.denom))
            out_contents.append(contents[parent] * g % self.p)
        return out, out_nus, out_contents

    def _exact(self):
        """Build the exact products (``_products``) of the basis words,
        once, those whose parents are built at a time, after the empty
        word's: the basis is final by then."""
        if self._exacts is not None:
            return
        d, n = self.d, self.ints.shape[-1]
        prods = np.zeros((2, d) + self.ints.shape[2:], dtype=object)
        prods[:, 0, 0] = np.eye(n, dtype=object)
        self._exacts = prods, [Fraction(1)] + [None] * (d - 1), [1] + [0] * (d - 1)
        _, nus, contents = self._exacts
        start, sources = 1, self.sources
        for k in range(2, d + 1):
            if k == d or sources[k][0] >= start:
                level = self._products(sources[start:k])
                prods[:, start:k], nus[start:k], contents[start:k] = level
                start = k

    def _coordinates(self, side, targets):
        """Yield the exact coordinates of the Gaussian-integer vectors
        ``targets`` (2, t, parts, dim) over all basis words on ``side``,
        built here, as they are found: ``(nums, dens, missed)`` for some of
        the rows, each over one denominator, and what they miss on the other
        side times that denominator (``_missed``).  They solve c M = target,
        M the minor of the words' products on that side's pivot columns,
        lifted p-adically (Dixon, *Numer. Math.* 40, 1982): each digit is
        the residual times M^-1 mod p (``_digit``), and the residual goes on
        as (residual - digit M) / p, one int64 product per limb of M's
        entries.  At 1, 2, 4, ... digits the rows still lifted are
        reconstructed in order up to the first with no lift
        (``_reconstructed``), and a row that gives its target exactly on
        ``side`` is yielded and lifted no further.  M^-1 mod p, with i ->
        the root, is that side's T times each word's G.  A real M acts on
        each part alone; a complex M's inverse with i -> -root takes one
        elimination mod p, ``_Unconfirmed`` if -i makes M singular mod p,
        and the two, half summed and half differenced over the root, give
        the real and imaginary parts of c M^-1 from those of c.  Past a
        row's Hadamard bound its reconstruction is M's solution, so if a row
        tried there still misses its target, that target is independent of
        the basis: ``_Unconfirmed``."""
        p, d, parts = self.p, self.d, targets.shape[2]
        self._exact()
        pivots = self.pivots[side, :d]
        minor = self._exacts[0][side].reshape(d, parts, self.dim)[:, :, pivots]
        t = self.rows[side, :d, 2 * self.dim : 2 * self.dim + d]
        inverse = t * np.array(self._exacts[2], dtype=np.int64) % p
        if parts == 2 and minor[:, 1].any():  # the real block form on (re | im)
            conj = (minor[:, 0] - self.root * minor[:, 1]) % p
            minus = inverse_mod_p(conj.astype(np.int64), p)
            if minus is None:
                raise _Unconfirmed("the pivot minor is singular mod p at -i")
            half = (p + 1) // 2
            mean, gap = (inverse + minus) * half % p, (inverse - minus) % p
            over, under = pow(2 * self.root, -1, p), self.root * half % p
            top = np.concatenate((mean, gap * over % p), axis=1)
            inverse = np.concatenate((top, np.concatenate((gap * under % p, mean), axis=1)))
        # a digit is below p, so a limb of this many bits keeps a sum of 2d
        # products below 2^62
        shift, limbs = 62 - p.bit_length() - (2 * d).bit_length(), None
        goal = targets[side][:, :, pivots]
        residual, lifted, q, k, bounds = goal, 0, 1, 0, None
        while True:
            digit = self._digit(residual, inverse)
            lifted, q, k = lifted + q * digit.astype(object), q * p, k + 1
            if k & (k - 1) == 0:
                found, dens = _reconstructed(lifted, q)
                missed = self._missed(found, dens, targets[:, : len(dens)])
                done = ~missed[side].any(axis=(1, 2))
                if done.all() and len(dens) == len(goal):
                    yield found, dens, missed[1 - side]
                    return
                if done.any():
                    yield found[done], dens[done], missed[1 - side, done]
                left = np.ones(len(goal), dtype=bool)
                left[: len(dens)] = ~done
                if bounds is None:
                    # Cramer: numerators over the common denominator
                    # |det M|^parts are at most H^parts |target|, H the
                    # product of M's row norms
                    norms = np.array(_norm_bits(goal.reshape(len(goal), -1)))
                    bounds = parts * sum(_norm_bits(minor.reshape(d, -1))) + norms // 2 + 3
                tried = len(dens) + 1  # the rows lifted, and the first not
                if (q.bit_length() > bounds[:tried][left[:tried]]).any():
                    raise _Unconfirmed("a word independent of the basis looked dependent")
                targets, goal, bounds = targets[:, left], goal[left], bounds[left]
                residual, lifted, digit = residual[left], lifted[left], digit[left]
            if limbs is None:
                limbs = _limbs(minor, shift)
            residual = (residual - _limb_combined(digit, limbs, shift)) // p

    def _digit(self, residual, inverse):
        """The next p-adic digit, int64, of the solution c of c M =
        ``residual`` (t, parts, d), M the pivot minor: the residual times
        M^-1 mod p, ``inverse`` that of a real M, applied to each part, or
        the real block form acting on each row's parts side by side."""
        x = (residual % self.p).astype(np.int64)
        if len(inverse) > x.shape[-1]:
            return (x.reshape(len(x), -1) @ inverse % self.p).reshape(x.shape)
        return x @ inverse % self.p

    def _missed(self, nums, dens, targets):
        """``targets`` (2, t, parts, dim), each times its den in ``dens``,
        minus the combination ``nums`` (t, parts, words) of the basis words'
        products on the same side."""
        prods = self._exacts[0].reshape(2, self.d, -1, self.dim)
        return dens[:, None, None] * targets - _combined(nums, prods)

    def mismatch(self, j: int, side: int):
        """None if row j's mirror half is zero; else the exact certificate:
        its coefficients over the basis words and its residual, the
        Frobenius norm of the defect on the other side, both times the
        words' nu."""
        d, dim, parts = self.d, self.dim, self.ints.shape[2]
        if not self._x[side, j, dim : 2 * dim].any():
            return None
        self._exact()
        target, (nu,), _ = self._products([self._origin[j]])
        nums, dens, missed = next(self._coordinates(side, target.reshape(2, 1, parts, dim)))
        if not missed.any():
            raise _Unconfirmed("a dependency that transfers looked as if it failed")
        # the residual from its exact square nu^2 |e|^2 / den^2, rounded
        # once: |e| / den alone can pass the float range when nu is small
        squares = nu.numerator**2 * sum(e * e for e in missed.flat)
        resid = math.sqrt(squares / (nu.denominator * dens[0]) ** 2)
        coeffs = []
        ims = nums[0, 1].tolist() if parts == 2 else [0] * d
        for w, re, im in zip(self._exacts[1], nums[0, 0].tolist(), ims):
            a, b = nu.numerator * w.denominator, dens[0] * nu.denominator * w.numerator
            coeffs.append(GaussianRational._raw(re * a, im * a, b))
        return tuple(coeffs), resid

    def trace_mismatch(self):
        """The first basis index whose exact traces differ, with both traces
        times its nu as Gaussian rationals.  None if every basis word's are
        equal and every child of the basis has the same coordinates on both
        sides."""
        d, parts, n = self.d, self.ints.shape[2], self.ints.shape[-1]
        self._exact()
        prods, nus, _ = self._exacts
        diagonal = range(0, self.dim, n + 1)
        tl, tr = prods.reshape(2, d, parts, self.dim)[..., diagonal].sum(axis=-1).tolist()
        i = next((i for i in range(d) if tl[i] != tr[i]), None)
        if i is not None:
            nu = nus[i]
            return i, tuple(GaussianRational(*(nu * part for part in t[i])) for t in (tl, tr))
        basis = set(self.sources)
        children = [(k, x) for k in range(d) for x in range(self.ints.shape[1])]
        children = [c for c in children if c not in basis]
        targets = self._products(children)[0].reshape(2, len(children), parts, self.dim)
        if any(missed.any() for *_, missed in self._coordinates(0, targets)):
            raise _Unconfirmed("a child of the basis failed to transfer")
        return None
