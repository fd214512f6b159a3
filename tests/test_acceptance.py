"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion even on success.  Tolerances are pinned here and nowhere else.
"""

import math
import time

import numpy as np
import pytest

from unieq import (
    GaussianRational,
    Matrix,
    ProblemInstance,
    Word,
    algebra_closure,
    build_congruence_K,
    build_general_gadget,
    build_similarity_gadget,
    congruence_triple,
    decision_letters,
    eval_word,
    intertwiner_space_info,
    make_yes_instance,
    pappacena_bound,
    perturb_to_no,
    random_unitary,
    solve_general,
    specht_brute,
    unitarily_similar,
)
from unieq.instances import (
    MARGINAL_GAP,
    has_alternating_diagonal_blocks,
    has_equal_diagonal_blocks,
    is_block_upper_triangular,
)

from conftest import exact_unitary, rand_matrix, rat_matrix, similar_pair

SHAPES = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, 1, 1)]
SEEDS_PER_SHAPE = 50


def _report(num, description, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"criterion {num}: {status} - {description}{suffix}")
    assert ok, f"criterion {num} failed: {description}{suffix}"


def _mixed_instances():
    for shape in SHAPES:
        for seed in range(SEEDS_PER_SHAPE):
            n = (1, 2, 3)[seed % 3]
            yield shape, seed, n


def test_criterion_1_bound_values():
    b8 = pappacena_bound(8)
    b12 = pappacena_bound(12)
    b16 = pappacena_bound(16)
    ok = (
        abs(b8 - 36.44) <= 0.01
        and abs(b12 - 65.69) <= 0.01
        and math.ceil(b8) == 37
        and math.ceil(b12) == 66
        # the formula's value at m = 16, asserted as such (see notes in the
        # decisions ledger about the 4n case)
        and abs(b16 - 99.82) <= 0.01
    )
    _report(1, "word-length bound values", ok, f"{b8:.2f}/{b12:.2f}/{b16:.2f}")


def test_criterion_2_yes_instances():
    t0 = time.perf_counter()
    failures = []
    for shape, seed, n in _mixed_instances():
        g = make_yes_instance(n, *shape, seed=seed)
        v = solve_general(g.inst, tol=1e-8)
        if not v.equivalent:
            failures.append((shape, seed, n))
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(
        2,
        "250 generated YES instances all Equivalent",
        ok,
        f"{elapsed:.1f}s, failures={failures[:3]}",
    )


def test_criterion_3_no_instances():
    redraws = 0
    false_equivalent = 0
    bad_certificates = []
    total = 0
    for shape, seed, n in _mixed_instances():
        g = make_yes_instance(n, *shape, seed=seed)
        verdict = None
        for attempt in range(3):
            p = perturb_to_no(g, 0.1, seed=seed + 10_000 + attempt * 777)
            v = solve_general(p.inst, tol=1e-8)
            if not v.equivalent:
                verdict = (p, v)
                break
            redraws += 1
            print(f"criterion 3: re-draw for shape={shape} seed={seed}")
        total += 1
        if verdict is None:
            false_equivalent += 1
            continue
        p, v = verdict
        scale, lx, ly = decision_letters(p.inst)
        if not v.certificate.recheck(lx, ly, 1e-8):
            bad_certificates.append((shape, seed, n))
    detection_rate = (total - redraws - false_equivalent) / total
    ok = (
        false_equivalent == 0
        and detection_rate >= 0.99
        and not bad_certificates
    )
    _report(
        3,
        "perturbed instances detected with self-checking certificates",
        ok,
        f"rate={detection_rate:.3f}, redraws={redraws}, bad_certs={bad_certificates[:3]}",
    )


def test_criterion_4_engine_agreement():
    rng = np.random.default_rng(4242)
    disagreements = []
    for i in range(100):
        if i < 50:
            x, y = similar_pair(2, seed=20_000 + i)
        else:
            x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
        vb = specht_brute(x, y, 12, tol=1e-8)
        vc = algebra_closure(x, y, tol=1e-8)
        if vb.equivalent != vc.equivalent:
            disagreements.append(i)
    _report(
        4,
        "brute (length 12) and closure agree on 100 random 2x2 pairs",
        not disagreements,
        f"disagreements={disagreements}",
    )


def test_criterion_5_congruence_identities():
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 5
        rng = np.random.default_rng(30_000 + trial)
        u = random_unitary(n, rng)
        b = rand_matrix(rng, n)
        b = b.scale(1.0 / b.norm_fro())  # pre-scaled to unit norm
        a = u @ b @ u.transpose()
        for lhs, rhs in congruence_triple(a, b):
            resid = (lhs - u @ rhs @ u.adjoint()).norm_fro()
            worst = max(worst, resid)
    _report(
        5,
        "three congruence intertwining identities hold to 1e-10",
        worst <= 1e-10,
        f"worst={worst:.2e}",
    )


def test_criterion_6_intertwiner_structure():
    rng = np.random.default_rng(606)
    violations = 0
    checked = 0
    for trial in range(20):
        n = 1 + trial % 2
        k = 3 + trial % 2
        if trial % 2 == 0:
            pairs = [(rand_matrix(rng, n), rand_matrix(rng, n)) for _ in range(k - 2)]
            ga, _ = build_similarity_gadget(pairs, n)
            basis, gap = intertwiner_space_info(ga.M, ga.M)
            predicate = has_equal_diagonal_blocks
            other = ga.M
        else:
            g = make_yes_instance(n, 0, 1, 0, 1, seed=40_000 + trial)
            ga, gb = build_general_gadget(g.inst)
            basis, gap = intertwiner_space_info(ga.M, gb.M, conjugate_linear=True)
            predicate = has_alternating_diagonal_blocks
        if gap < MARGINAL_GAP:
            print(f"criterion 6: marginal gap {gap:.1e}, re-drawing trial {trial}")
            continue
        for w in basis:
            checked += 1
            wn = w.scale(1.0 / w.norm_fro())
            if not (
                is_block_upper_triangular(wn, n, tol=1e-8)
                and predicate(wn, n, tol=1e-8)
            ):
                violations += 1
    _report(
        6,
        "gadget intertwiner bases are block triangular with patterned diagonals",
        violations == 0 and checked > 0,
        f"checked={checked}, violations={violations}",
    )


def test_criterion_7_nilpotency_and_cap():
    rng = np.random.default_rng(707)
    worst = 0.0
    for trial in range(20):
        n = 1 + trial % 6
        a = rand_matrix(rng, n)
        k = build_congruence_K(a)
        worst = max(worst, k.power(4).norm_fro())
    exact_ok = True
    for trial in range(5):
        a = rat_matrix(rng, 1 + trial % 3)
        k = build_congruence_K(a)
        exact_ok = exact_ok and k.power(4).is_zero() and not k.power(3).is_zero()
    cap_ok = True
    for trial in range(6):
        if trial % 2:
            u = random_unitary(2, 50_000 + trial)
            b = rand_matrix(rng, 2)
            a = u @ b @ u.transpose()
        else:
            a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
        ka, kb = build_congruence_K(a), build_congruence_K(b)
        capped = specht_brute(ka, kb, 8, max_exponent=3, tol=1e-8)
        uncapped = specht_brute(ka, kb, 8, tol=1e-8)
        cap_ok = cap_ok and (capped.equivalent == uncapped.equivalent)
    ok = worst <= 1e-12 and exact_ok and cap_ok
    _report(
        7,
        "K gadgets nilpotent of index 4; exponent cap preserves verdicts",
        ok,
        f"worst||K^4||={worst:.2e}",
    )


# the classical short invariant lists for unitary similarity, as words in
# the letters (s, t) = (A, A*): three at n = 2, seven at n = 3 (Pearcy,
# Trans. AMS 104, 1962); the reference for criterion 8
N2_WORDS = (
    Word(((0, 1),), 2),
    Word(((0, 2),), 2),
    Word(((0, 1), (1, 1)), 2),
)
N3_WORDS = N2_WORDS + (
    Word(((0, 3),), 2),
    Word(((0, 2), (1, 1)), 2),
    Word(((0, 2), (1, 2)), 2),
    Word(((0, 2), (1, 2), (0, 1), (1, 1)), 2),
)


def _classical_verdict(x, y, tol):
    """Whether the traces of the classical list for x's size agree on the
    letters of x and y, scaled as every decision scales them."""
    _, left, right = decision_letters(ProblemInstance(x.rows, [(x, y)]))
    for w in N2_WORDS if x.rows == 2 else N3_WORDS:
        tl, tr = eval_word(w, left).trace(), eval_word(w, right).trace()
        if not abs(tl - tr) <= tol * (1.0 + abs(tl)):
            return False
    return True


def test_criterion_8_classical_lists_validation():
    rng = np.random.default_rng(808)
    bad2 = bad3 = 0
    for i in range(200):
        if i % 2:
            x, y = similar_pair(2, seed=60_000 + i)
        else:
            x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
        if unitarily_similar(x, y, tol=1e-8).equivalent != _classical_verdict(x, y, 1e-8):
            bad2 += 1
    for i in range(500):
        if i % 2:
            x, y = similar_pair(3, seed=70_000 + i)
        else:
            x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
        if unitarily_similar(x, y, tol=1e-8).equivalent != _classical_verdict(x, y, 1e-8):
            bad3 += 1
    _report(
        8,
        "unitarily_similar matches the three-word (n=2) and seven-word (n=3) classical lists",
        bad2 == 0 and bad3 == 0,
        f"n2_disagreements={bad2}, n3_disagreements={bad3}",
    )


def test_criterion_9_exact_mode_fidelity():
    rng = np.random.default_rng(909)
    mismatches = []
    for trial in range(50):
        n = 1 if trial % 2 == 0 else 2
        shape = SHAPES[trial % 4]  # single-family shapes stay small
        set_id = shape.index(1) + 1
        b = rat_matrix(rng, n)
        if trial % 3 == 0:
            u = exact_unitary(n, trial)
            ubar = u.conj()
            transforms = {
                1: lambda m: u @ m @ u.adjoint(),
                2: lambda m: u @ m @ u.transpose(),
                3: lambda m: ubar @ m @ u.adjoint(),
                4: lambda m: ubar @ m @ u.transpose(),
            }
            a = transforms[set_id](b)
        else:
            a = rat_matrix(rng, n)
        families = [[], [], [], []]
        families[set_id - 1].append((a, b))
        exact_inst = ProblemInstance(n, *families)
        v_exact = solve_general(exact_inst)
        float_families = [
            [(x.to_float(), y.to_float()) for x, y in fam] for fam in families
        ]
        v_float = solve_general(ProblemInstance(n, *float_families), tol=1e-8)
        if v_exact.equivalent != v_float.equivalent:
            mismatches.append(trial)
        assert v_exact.tolerance is None
        assert "tolerance" not in v_exact.to_json()
    _report(
        9,
        "exact and float verdicts agree on 50 rational instances",
        not mismatches,
        f"mismatches={mismatches}",
    )
