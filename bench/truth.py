"""Ground truth for the benchmark's instance lists, computed apart from unieq.

Only the generated inputs are read (the raw numpy arrays of float matrices,
the real and imaginary ``Fraction`` parts of exact entries); every proof is
recomputed here with numpy in float mode and with ``fractions`` in exact
mode, never with the program's own arithmetic or engines:

* YES: the retained witness U is unitary and maps every pair's B to its A
  by the pair's family relation (U B U*, U B U^T, conj(U) B U*, conj(U) B U^T).
* NO, float: some pair's singular values differ, which none of the four
  relations allows (each multiplies by unitaries on both sides).
* NO, exact: some pair's Frobenius norms differ exactly.
* NO, (B, B^T): the traces of the word s^2 t s t^2 at (B, B*) and at
  (B^T, conj(B)) differ; word traces are similarity invariants.

Regenerate the table for a seed, instead of trusting a stored copy:

    python3 bench/truth.py --workload float-generic --seed 1
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

import numpy as np

# YES: witness relation residual, relative to the pair's scale
WITNESS_RTOL = 1e-9
# NO: the smallest difference that counts as a proof (the generated NO cases
# differ by about 1e-2 or more)
INVARIANT_RTOL = 1e-6

PROOF_WITNESS = "witness"  # YES: the witness relation holds
PROOF_SINGULAR = "singular-values"  # NO: some pair has different singular values
PROOF_FROBENIUS = "frobenius"  # NO: some pair has different Frobenius norms
PROOF_TRANSPOSE_WORD = "transpose-word"  # NO: tr(s^2 t s t^2) differs on (B, B^T)

# s^2 t s t^2 as letter indices: 0 is the matrix, 1 its adjoint
TRANSPOSE_WORD = (0, 0, 1, 0, 1, 1)


def prove(case) -> tuple:
    """``(proven, margin)``: whether the case's label is proven, and the
    residual (YES) or invariant difference (NO) the proof rests on."""
    if case.label != (case.proof == PROOF_WITNESS):
        return False, None  # a witness proves YES only; the rest prove NO
    pairs = _pairs(case)
    if case.proof == PROOF_WITNESS:
        if case.witness is None:
            return False, None
        if case.witness.data.dtype != object:
            return _witness_float(case.witness.data, pairs)
        return _witness_exact(case.witness, pairs)
    if case.proof == PROOF_SINGULAR:
        gap = max(_singular_gap(a.data, b.data) for _, a, b in pairs)
        return gap > INVARIANT_RTOL, gap
    if case.proof == PROOF_FROBENIUS:
        diffs = [abs(_frob_sq(a) - _frob_sq(b)) for _, a, b in pairs]
        return any(diffs), float(max(diffs))
    if case.proof == PROOF_TRANSPOSE_WORD:
        _, a, b = pairs[0]
        gap = word_trace_gap(TRANSPOSE_WORD, a.data, b.data)
        return gap > INVARIANT_RTOL, gap
    return False, None


def certificate_confirmed(case, verdict) -> bool:
    """For a ``(B, B^T)`` case, the word of the program's NO certificate,
    re-traced with plain numpy, must separate the two sides."""
    if case.proof != PROOF_TRANSPOSE_WORD or verdict.equivalent:
        return True
    _, a, b = _pairs(case)[0]
    letters = verdict.certificate.word.letters()
    return word_trace_gap(letters, a.data, b.data) > INVARIANT_RTOL


def word_trace_gap(letters, a: np.ndarray, b: np.ndarray) -> float:
    """Relative difference of one word's traces at (a, a*) and (b, b*).

    Both sides are scaled by the larger Frobenius norm first, which changes
    both traces by the same positive factor.
    """
    s = max(np.linalg.norm(a), np.linalg.norm(b))
    a, b = a / s, b / s

    def trace(m):
        mats = (m, m.conj().T)
        out = np.eye(m.shape[0], dtype=np.complex128)
        for letter in letters:
            out = out @ mats[letter]
        return complex(np.trace(out))

    ta, tb = trace(a), trace(b)
    return abs(ta - tb) / max(abs(ta), abs(tb), 1e-300)


def _pairs(case):
    families = (case.inst.S1, case.inst.S2, case.inst.S3, case.inst.S4)
    return [(set_id, a, b) for set_id, family in enumerate(families, 1)
            for a, b in family]


def _relation_float(set_id, u, b):
    uc = u.conj()
    left = u if set_id in (1, 2) else uc
    right = u.conj().T if set_id in (1, 3) else u.T
    return left @ b @ right


def _witness_float(u, pairs):
    n = u.shape[0]
    worst = float(np.linalg.norm(u @ u.conj().T - np.eye(n)))
    for set_id, a, b in pairs:
        a, b = a.data, b.data
        resid = np.linalg.norm(a - _relation_float(set_id, u, b))
        worst = max(worst, float(resid / (1.0 + np.linalg.norm(a))))
    return worst <= WITNESS_RTOL, worst


def _singular_gap(a: np.ndarray, b: np.ndarray) -> float:
    sa = np.linalg.svd(a, compute_uv=False)
    sb = np.linalg.svd(b, compute_uv=False)
    return float(np.max(np.abs(sa - sb)) / max(1.0, sa[0], sb[0]))


# exact complex rationals as (re, im) pairs of Fractions


def _entries(m):
    return [[(e.re, e.im) for e in row] for row in m.data]


def _cmul(x, y):
    return (x[0] * y[0] - x[1] * y[1], x[0] * y[1] + x[1] * y[0])


def _matmul(p, q):
    zero = (Fraction(0), Fraction(0))
    out = []
    for row in p:
        out_row = []
        for j in range(len(q[0])):
            acc = zero
            for k, x in enumerate(row):
                prod = _cmul(x, q[k][j])
                acc = (acc[0] + prod[0], acc[1] + prod[1])
            out_row.append(acc)
        out.append(out_row)
    return out


def _conj(p):
    return [[(x[0], -x[1]) for x in row] for row in p]


def _transpose(p):
    return [list(col) for col in zip(*p)]


def _witness_exact(witness, pairs):
    u = _entries(witness)
    n = len(u)
    eye = [[(Fraction(int(i == j)), Fraction(0)) for j in range(n)] for i in range(n)]
    ok = _matmul(u, _conj(_transpose(u))) == eye
    for set_id, a, b in pairs:
        left = u if set_id in (1, 2) else _conj(u)
        right = _conj(_transpose(u)) if set_id in (1, 3) else _transpose(u)
        ok = ok and _matmul(_matmul(left, _entries(b)), right) == _entries(a)
    return ok, 0.0 if ok else None


def _frob_sq(m) -> Fraction:
    return sum((x * x + y * y for row in _entries(m) for x, y in row), Fraction(0))


def main(argv=None) -> int:
    import run

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args(argv)
    run.import_program()
    import workloads as W

    unproven = 0
    for index, case in enumerate(W.build_cases(args.workload, args.seed, args.tiny)):
        proven, margin = prove(case)
        unproven += not proven
        print(json.dumps({
            "index": index,
            "class": case.name,
            "label": "YES" if case.label else "NO",
            "proof": case.proof,
            "proven": proven,
            "margin": margin,
        }))
    return 1 if unproven else 0


if __name__ == "__main__":
    sys.exit(main())
