import math

import numpy as np
import pytest

from unieq import engines
from unieq import (
    BudgetExceededError,
    DependencyCertificate,
    GaussianRational,
    Matrix,
    ProblemInstance,
    TraceCertificate,
    Verdict,
    algebra_closure,
    build_congruence_K,
    common_scale,
    decision_letters,
    eval_word,
    floor_length_bound,
    identity,
    make_yes_instance,
    perturb_to_no,
    random_unitary,
    simultaneously_unitarily_similar,
    solve_general,
    specht_brute,
    unitarily_congruent,
    unitarily_similar,
    verify_witness,
)

from conftest import congruent_pair, exact_unitary, rand_matrix, rat_matrix, similar_pair

GR = GaussianRational
J = Matrix.from_complex([[0, 1], [0, 0]])
J2 = Matrix.from_complex([[0, 2], [0, 0]])


class TestSpechtBrute:
    def test_reflexive(self, rng):
        x = rand_matrix(rng, 3)
        v = specht_brute(x, x, 6)
        assert v.equivalent and v.certificate is None

    def test_jordan_mismatch_certificate(self):
        v = specht_brute(J, J2, 6, prescale=False)
        assert not v.equivalent
        cert = v.certificate
        assert str(cert.word) == "s t"
        assert cert.trace_left == pytest.approx(1.0)
        assert cert.trace_right == pytest.approx(4.0)

    def test_prescaled_certificate_still_least_word(self):
        v = specht_brute(J, J2, 6)
        assert str(v.certificate.word) == "s t"
        assert v.scale == pytest.approx(0.5)

    def test_generated_witness_instance(self):
        a, b = similar_pair(3, seed=41)
        v = specht_brute(a, b, 8, tol=1e-8)
        assert v.equivalent

    def test_budget_refusal(self, rng):
        with pytest.raises(BudgetExceededError):
            specht_brute(rand_matrix(rng, 8), rand_matrix(rng, 8), 36, budget=10**6)

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            specht_brute(rand_matrix(rng, 2), rand_matrix(rng, 3), 4)

    def test_exact_mode_equality(self, rng):
        a = rat_matrix(rng, 2)
        v = specht_brute(a, a, 5)
        assert v.equivalent and v.tolerance is None
        b = rat_matrix(rng, 2)
        w = specht_brute(a, b, 5)
        if not w.equivalent:
            assert isinstance(w.certificate, TraceCertificate)


class TestAlgebraClosure:
    def test_identity_pair(self):
        v = algebra_closure(identity(3), identity(3))
        assert v.equivalent and v.dimension == 1

    def test_jordan_mismatch(self):
        v = algebra_closure(J, J2)
        assert not v.equivalent
        assert isinstance(
            v.certificate, (TraceCertificate, DependencyCertificate)
        )

    def test_agreement_with_brute_on_random_2x2(self, rng):
        disagreements = 0
        for i in range(100):
            if i < 50:
                x, y = similar_pair(2, seed=9_000 + i)
            else:
                x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
            vb = specht_brute(x, y, 12)
            vc = algebra_closure(x, y)
            if vb.equivalent != vc.equivalent:
                disagreements += 1
        assert disagreements == 0

    def test_dimension_bounded(self, rng):
        x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
        v = algebra_closure(x, y)
        assert v.dimension <= 9 + 1

    def test_exact_closure(self, rng):
        a = rat_matrix(rng, 2)
        u = exact_unitary(2, 1)
        b = u.adjoint() @ a @ u  # a = u b u*
        v = algebra_closure(a, b)
        assert v.equivalent and v.tolerance is None


def _near_normal_pair(n, eps, seed):
    """X = Q D Q* with D diagonal and Y = D + eps G, complex Gaussian draws."""
    rng = np.random.default_rng(seed)

    def gauss(*shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    d, g = np.diag(gauss(n)), gauss(n, n)
    q, _ = np.linalg.qr(gauss(n, n))
    return Matrix.from_complex(q @ d @ q.conj().T), Matrix.from_complex(d + eps * g)


def _rat_kind(rng, n, kind):
    """A rational matrix of one structural kind, built from rat_matrix."""
    m = rat_matrix(rng, n)
    half = (n + 1) // 2
    keep = {
        "generic": lambda i, j: True,
        "nilpotent": lambda i, j: j > i,
        "reducible": lambda i, j: (i < half) == (j < half),
        "diagonal": lambda i, j: i == j,
    }[kind]
    rows = [
        [m.entry(i, j) if keep(i, j) else GR(0) for j in range(n)]
        for i in range(n)
    ]
    if kind == "diagonal":
        rows[n - 1][n - 1] = rows[0][0]  # a repeated eigenvalue
    return Matrix.from_rational(rows)


def _cyclic_permutation(n):
    return Matrix.from_rational(
        [[GR(1) if j == (i + 1) % n else GR(0) for j in range(n)] for i in range(n)]
    )


def _shift_pair(n, seed):
    """A conjugated weighted nilpotent shift, and the same shift with one row
    scaled by 1.3 under another unitary: never unitarily similar."""
    rng = np.random.default_rng(seed)
    core = np.diag(rng.uniform(0.5, 1.5, n - 1), k=1).astype(np.complex128)
    other = core.copy()
    other[int(rng.integers(n - 1))] *= 1.3
    v, w = random_unitary(n, rng), random_unitary(n, rng)
    return (
        v @ Matrix.from_complex(core) @ v.adjoint(),
        w @ Matrix.from_complex(other) @ w.adjoint(),
    )


def _hermitian_pair(n, seed, stretch):
    """Conjugates of one real diagonal, the second scaled by ``stretch``."""
    rng = np.random.default_rng(seed)
    d = np.diag(rng.uniform(-1.0, 1.0, n)).astype(np.complex128)
    v, w = random_unitary(n, rng), random_unitary(n, rng)
    return (
        v @ Matrix.from_complex(d) @ v.adjoint(),
        w @ Matrix.from_complex(stretch * d) @ w.adjoint(),
    )


class TestClosureModes:
    def test_near_normal_family_never_crashes(self):
        # one dependency decision per word: a word dependent within tolerance
        # on one side is never added as a noise basis vector on the other
        for n in (4, 6, 8):
            for eps in (3e-10, 1e-9, 3e-9, 1e-8):
                for seed in range(4000, 4005):
                    x, y = _near_normal_pair(n, eps, seed)
                    v = algebra_closure(x, y)
                    assert v.dimension <= n * n

    def test_near_normal_family_outside_the_band(self):
        for n in (4, 6, 8):
            for seed in range(4000, 4005):
                for eps in (1e-11, 1e-10):
                    x, y = _near_normal_pair(n, eps, seed)
                    assert algebra_closure(x, y).equivalent
                for eps in (1e-7, 1e-6):
                    x, y = _near_normal_pair(n, eps, seed)
                    v = algebra_closure(x, y)
                    assert not v.equivalent
                    _, (xs, ys) = common_scale([x, y])
                    assert v.certificate.recheck(
                        [xs, xs.adjoint()], [ys, ys.adjoint()], 1e-8
                    )

    def test_exact_and_float_closure_agree(self, rng):
        pairs = []  # (x, y, made similar by an exact unitary)
        for n in (2, 3, 4):
            for kind in ("generic", "nilpotent", "reducible", "diagonal"):
                for variant in ("other", "similar", "transpose") * 2:
                    x = _rat_kind(rng, n, kind)
                    if variant == "other":
                        y = _rat_kind(rng, n, kind)
                    elif variant == "similar":
                        u = exact_unitary(2, len(pairs)) if n == 2 else _cyclic_permutation(n)
                        y = u.adjoint() @ x @ u
                    else:
                        y = x.transpose()
                    pairs.append((x, y, variant == "similar"))
            # projections of rank 1 and 2: one dependency structure, and only
            # the final trace check tells them apart
            p1, p2 = (
                Matrix.from_rational([[GR(int(i == j < r)) for j in range(n)] for i in range(n)])
                for r in (1, 2)
            )
            pairs.append((p1, p2, False))
        kinds = set()
        for x, y, similar in pairs:
            ve = algebra_closure(x, y)
            vf = algebra_closure(x.to_float(), y.to_float())
            assert ve.tolerance is None and vf.tolerance is not None
            assert ve.equivalent == vf.equivalent
            assert ve.dimension == vf.dimension
            assert type(ve.certificate) is type(vf.certificate)
            if not ve.equivalent:
                assert str(ve.certificate.word) == str(vf.certificate.word)
            if similar:
                assert ve.equivalent
            if x.rows <= 3:
                bound = floor_length_bound(x.rows)
                assert specht_brute(x, y, bound).equivalent == ve.equivalent
                vb = specht_brute(x.to_float(), y.to_float(), bound)
                assert vb.equivalent == ve.equivalent
            kinds.add(type(ve.certificate))
        assert len(pairs) == 75
        assert kinds == {type(None), TraceCertificate, DependencyCertificate}


class TestBlockInvariance:
    """The float closure decides every word against the basis it would meet
    if words arrived one at a time, so the block size changes no result."""

    @staticmethod
    def _decisions():
        out = []  # (verdict, left letters, right letters)
        for seed in (1, 2):
            g = make_yes_instance(2, 1, 1, 1, 1, seed=seed)
            for inst in (g.inst, perturb_to_no(g, 0.1, seed=seed).inst):
                _, left, right = decision_letters(inst)
                out.append((solve_general(inst), left, right))
        pairs = [
            _shift_pair(8, 5),  # fails inside its block: the rest is dropped
            # X* = X joins the first block right after X and depends on it
            _hermitian_pair(3, 6, 1.0),
            _hermitian_pair(3, 6, 1.2),
        ]
        for x, y in pairs:
            _, (xs, ys) = common_scale([x, y])
            out.append((algebra_closure(x, y), [xs, xs.adjoint()], [ys, ys.adjoint()]))
        return out

    def test_block_size_one_agrees(self, monkeypatch):
        blocked = self._decisions()
        monkeypatch.setattr(engines, "_BLOCK", 1)
        single = self._decisions()
        assert [v.equivalent for v, _, _ in blocked] == [
            True, False, True, False, False, True, False
        ]
        for (vb, left, right), (vs, _, _) in zip(blocked, single):
            assert vb.equivalent == vs.equivalent
            assert vb.dimension == vs.dimension
            assert type(vb.certificate) is type(vs.certificate)
            if not vb.equivalent:
                assert str(vb.certificate.word) == str(vs.certificate.word)
                assert vb.certificate.recheck(left, right, 1e-8)
                assert vs.certificate.recheck(left, right, 1e-8)


class TestUnitarilySimilar:
    def test_1x1(self):
        a = Matrix.from_complex([[2 + 1j]])
        assert unitarily_similar(a, a).equivalent
        b = Matrix.from_complex([[2 - 1j]])
        assert not unitarily_similar(a, b).equivalent

    def test_jordan_vs_transpose_with_witness(self):
        b = J.transpose()
        v = unitarily_similar(J, b)
        assert v.equivalent
        w = Matrix.from_complex([[0, 1], [1, 0]])
        assert (J - w @ b @ w.adjoint()).norm_fro() <= 1e-14
        assert (w @ w.adjoint() - identity(2)).norm_fro() <= 1e-14

    def test_unipotent_mismatch(self):
        a = Matrix.from_complex([[1, 1], [0, 1]])
        b = Matrix.from_complex([[1, 2], [0, 1]])
        v = unitarily_similar(a, b, prescale=False)
        assert not v.equivalent
        assert str(v.certificate.word) == "s t"
        assert v.certificate.trace_left == pytest.approx(3.0)
        assert v.certificate.trace_right == pytest.approx(6.0)

    def test_engine_tags(self, rng):
        assert unitarily_similar(rand_matrix(rng, 2), rand_matrix(rng, 2)).engine == "fastpath_n2"
        assert unitarily_similar(rand_matrix(rng, 3), rand_matrix(rng, 3)).engine == "fastpath_n3"
        assert unitarily_similar(rand_matrix(rng, 4), rand_matrix(rng, 4)).engine == "closure"
        assert (
            unitarily_similar(rand_matrix(rng, 2), rand_matrix(rng, 2), engine="brute").engine
            == "brute"
        )

    def test_brute_uses_full_bound(self):
        a, b = similar_pair(2, seed=77)
        v = unitarily_similar(a, b, engine="brute")
        assert v.equivalent
        assert floor_length_bound(2) == 4

    def test_fastpath_agrees_with_closure(self, rng):
        for n in (2, 3):
            for i in range(40):
                if i % 2:
                    x, y = similar_pair(n, seed=i * 13 + n)
                else:
                    x, y = rand_matrix(rng, n), rand_matrix(rng, n)
                fast = unitarily_similar(x, y)
                slow = unitarily_similar(x, y, engine="closure")
                assert fast.equivalent == slow.equivalent

    def test_invariance_under_unitary_rotation(self, rng):
        for i in range(10):
            x, y = rand_matrix(rng, 3), rand_matrix(rng, 3)
            expected = unitarily_similar(x, y).equivalent
            v = random_unitary(3, 500 + i)
            w = random_unitary(3, 900 + i)
            x2 = v @ x @ v.adjoint()
            y2 = w @ y @ w.adjoint()
            assert unitarily_similar(x2, y2).equivalent == expected


class TestSimultaneous:
    def test_single_pair_agrees(self, rng):
        for i in range(50):
            if i % 2:
                x, y = similar_pair(2, seed=3_000 + i)
            else:
                x, y = rand_matrix(rng, 2), rand_matrix(rng, 2)
            single = unitarily_similar(x, y)
            multi = simultaneously_unitarily_similar([(x, y)])
            assert single.equivalent == multi.equivalent

    def test_pair_with_adjoint_pair(self):
        a, b = similar_pair(3, seed=123)
        v = simultaneously_unitarily_similar([(a, b), (a.adjoint(), b.adjoint())])
        assert v.equivalent

    def test_gadget_brute_route_agrees(self, rng):
        for i in range(6):
            if i % 2:
                pairs = [similar_pair(1, seed=60 + i), similar_pair(1, seed=80 + i)]
                a1, b1 = pairs[0]
                a2, b2 = pairs[1]
                # same witness only when seeds match, so rebuild honestly
                u = random_unitary(1, 999 + i)
                b1, b2 = rand_matrix(rng, 1), rand_matrix(rng, 1)
                a1 = u @ b1 @ u.adjoint()
                a2 = u @ b2 @ u.adjoint()
            else:
                a1, b1 = rand_matrix(rng, 1), rand_matrix(rng, 1)
                a2, b2 = rand_matrix(rng, 1), rand_matrix(rng, 1)
            pairs = [(a1, b1), (a2, b2)]
            vc = simultaneously_unitarily_similar(pairs)
            vb = simultaneously_unitarily_similar(pairs, engine="brute")
            assert vc.equivalent == vb.equivalent

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            simultaneously_unitarily_similar([])


class TestUnitarilyCongruent:
    def test_1x1_phase(self):
        a = Matrix.from_complex([[2.0]])
        b = Matrix.from_complex([[2.0j]])
        assert unitarily_congruent(a, b).equivalent
        c = Matrix.from_complex([[3.0]])
        assert not unitarily_congruent(a, c).equivalent

    def test_rank_mismatch(self):
        a = Matrix.from_complex([[1, 0], [0, 0]])
        b = Matrix.from_complex([[2, 0], [0, 0]])
        v = unitarily_congruent(a, b)
        assert not v.equivalent

    def test_symmetric_unitary_congruent_to_identity(self):
        flip = Matrix.from_complex([[0, 1], [1, 0]])
        # hand Takagi witness: flip = Q diag(1,-1) Q^T = (Q diag(1,i)) (Q diag(1,i))^T
        q = Matrix.from_complex(
            [[1 / math.sqrt(2), 1 / math.sqrt(2)], [1 / math.sqrt(2), -1 / math.sqrt(2)]]
        )
        u = q @ Matrix.from_complex([[1, 0], [0, 1j]])
        assert (flip - u @ u.transpose()).norm_fro() <= 1e-14
        assert (u @ u.adjoint() - identity(2)).norm_fro() <= 1e-14
        assert unitarily_congruent(flip, identity(2)).equivalent

    def test_congruent_random_pairs(self):
        for i in range(5):
            a, b, _ = congruent_pair(3, seed=700 + i)
            assert unitarily_congruent(a, b).equivalent

    def test_k_gadget_route_agrees(self, rng):
        for i in range(8):
            if i % 2:
                a, b, _ = congruent_pair(2, seed=40 + i)
            else:
                a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
            vt = unitarily_congruent(a, b)
            vk = unitarily_congruent(a, b, use_k_gadget=True)
            assert vt.equivalent == vk.equivalent
            assert vk.route.startswith("congruence:K")

    def test_exponent_cap_complete_on_k_gadgets(self, rng):
        for i in range(6):
            if i % 2:
                a, b, _ = congruent_pair(2, seed=50 + i)
            else:
                a, b = rand_matrix(rng, 2), rand_matrix(rng, 2)
            ka, kb = build_congruence_K(a), build_congruence_K(b)
            capped = specht_brute(ka, kb, 8, max_exponent=3)
            uncapped = specht_brute(ka, kb, 8)
            assert capped.equivalent == uncapped.equivalent


class TestSolveGeneral:
    def test_yes_instance(self):
        g = make_yes_instance(2, 1, 1, 0, 0, seed=7)
        assert verify_witness(g.inst, g.witness)
        v = solve_general(g.inst)
        assert v.equivalent

    def test_perturbed_instance(self):
        g = make_yes_instance(2, 1, 1, 0, 0, seed=7)
        p = perturb_to_no(g, 0.1, seed=71)
        v = solve_general(p.inst)
        assert not v.equivalent
        scale, lx, ly = decision_letters(p.inst)
        assert v.certificate.recheck(lx, ly, 1e-8)

    @pytest.mark.xfail(
        strict=True,
        reason="false NotEquivalent on an ill-conditioned float span (CHANGES.md)",
    )
    @pytest.mark.parametrize("seed", [54, 109])
    def test_ill_conditioned_yes_instance(self, seed):
        g = make_yes_instance(3, 0, 0, 0, 1, seed=seed)
        assert verify_witness(g.inst, g.witness)
        assert solve_general(g.inst).equivalent

    def test_scalar_congruence_family(self):
        a = Matrix.from_complex([[1.0]])
        b = Matrix.from_complex([[2.0]])
        inst = ProblemInstance(1, S2=[(a, b)])
        assert not solve_general(inst).equivalent
        b2 = Matrix.from_complex([[1.0j]])
        inst2 = ProblemInstance(1, S2=[(a, b2)])
        assert solve_general(inst2).equivalent

    def test_pure_s1_route(self):
        g = make_yes_instance(3, 2, 0, 0, 0, seed=17)
        v = solve_general(g.inst)
        assert v.equivalent and v.route.startswith("general:s1")

    def test_gadget_route_label(self):
        g = make_yes_instance(2, 0, 1, 0, 0, seed=18)
        v = solve_general(g.inst)
        assert v.route.startswith("general:gadget")

    def test_k_route_flag(self):
        g = make_yes_instance(1, 0, 1, 0, 1, seed=19)
        v = solve_general(g.inst, use_k_gadget=True)
        assert v.equivalent and "congruence:K" in v.route

    def test_empty_instance(self):
        with pytest.raises(ValueError):
            solve_general(ProblemInstance(2))

    def test_exact_mode(self, rng):
        u = exact_unitary(2, 1)
        b = rat_matrix(rng, 2)
        a = u @ b @ u.transpose()
        inst = ProblemInstance(2, S2=[(a, b)])
        v = solve_general(inst)
        assert v.equivalent and v.tolerance is None
        bad = ProblemInstance(2, S2=[(rat_matrix(rng, 2), b)])
        w = solve_general(bad)
        assert not w.equivalent and w.tolerance is None


class TestVerifyWitness:
    def test_constructed_witness(self):
        g = make_yes_instance(2, 1, 1, 1, 1, seed=3)
        assert verify_witness(g.inst, g.witness)

    def test_wrong_witness_rejected(self):
        hits = 0
        for seed in range(50):
            g = make_yes_instance(2, 1, 0, 1, 0, seed=seed)
            other = random_unitary(2, 10_000 + seed)
            if verify_witness(g.inst, other):
                hits += 1
        assert hits == 0

    def test_non_unitary_rejected(self):
        g = make_yes_instance(2, 1, 0, 0, 0, seed=4)
        assert not verify_witness(g.inst, identity(2).scale(2.0))

    def test_size_mismatch(self):
        g = make_yes_instance(2, 1, 0, 0, 0, seed=4)
        with pytest.raises(ValueError):
            verify_witness(g.inst, identity(3))


class TestVerdictContract:
    def test_certificate_invariant(self):
        with pytest.raises(ValueError):
            Verdict(True, "closure", certificate=TraceCertificate(None, 0, 0))
        with pytest.raises(ValueError):
            Verdict(False, "closure")

    def test_trace_certificate_self_check(self):
        v = specht_brute(J, J2, 6)
        lx = [J.scale(0.5), J.scale(0.5).adjoint()]
        ly = [J2.scale(0.5), J2.scale(0.5).adjoint()]
        assert v.certificate.recheck(lx, ly, 1e-8)

    def test_dependency_certificate_self_check(self):
        g = make_yes_instance(2, 0, 1, 1, 0, seed=21)
        p = perturb_to_no(g, 0.1, seed=22)
        v = solve_general(p.inst)
        assert not v.equivalent
        if isinstance(v.certificate, DependencyCertificate):
            scale, lx, ly = decision_letters(p.inst)
            assert v.certificate.recheck(lx, ly, 1e-8)

    def test_json_shape(self):
        v = specht_brute(J, J2, 6)
        doc = v.to_json()
        assert doc["result"] == "NotEquivalent"
        assert doc["engine"] == "brute"
        assert doc["certificate"]["kind"] == "trace"
        assert "tolerance" in doc and "scale" in doc and "elapsed_s" in doc

    def test_exact_json_has_no_tolerance(self, rng):
        a = rat_matrix(rng, 2)
        v = specht_brute(a, a, 4)
        assert "tolerance" not in v.to_json()
