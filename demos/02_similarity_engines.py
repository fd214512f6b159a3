# Two engines decide unitary similarity of a pair: brute trace-word
# comparison (complete up to the length bound, exponential) and the
# algebra-closure engine (polynomial, the default).  Both produce checkable
# certificates on failure.

import numpy as np

from unieq import (
    Matrix,
    random_unitary,
    specht_brute,
    unitarily_similar,
)

rng = np.random.default_rng(1)

# A pair that is unitarily similar by construction
U = random_unitary(3, rng)
B = Matrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), "float")
A = U @ B @ U.adjoint()

v = unitarily_similar(A, B)
print("constructed pair:", v.result, "via", v.engine)

# An independent pair: the closure spans the algebra generated by the
# letters on both sides in lockstep (a basis of at most size^2 words) and
# reports a word whose linear relation to the basis holds on one side only
C = Matrix(rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3)), "float")
v = unitarily_similar(A, C)
print("independent pair:", v.result, "after a basis of", v.dimension, "words")
cert = v.certificate
print("  dependent word:", cert.word, "on the", cert.side, "side only")

# Brute enumeration agrees wherever it is feasible, and reports the first
# word whose traces differ
v_brute = specht_brute(A, C, max_length=8)
cert = v_brute.certificate
print("brute says:  ", v_brute.result, "(words up to length 8)")
print("  failing word:", cert.word, "traces", cert.trace_left, "vs", cert.trace_right)

# A 2x2 unipotent pair: the default engine and the brute walk at the full
# length bound both certify the difference
small = Matrix.from_complex([[1, 1], [0, 1]])
other = Matrix.from_complex([[1, 2], [0, 1]])
for engine in ("auto", "brute"):
    v = unitarily_similar(small, other, engine=engine)
    print(f"\n2x2 unipotent, {engine}:", v.result, "engine:", v.engine)
    print("  certificate:", type(v.certificate).__name__, v.certificate.word)
