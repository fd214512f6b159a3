from fractions import Fraction

import numpy as np
import pytest

from unieq import engines
from unieq import (
    GaussianRational,
    GadgetLayout,
    Matrix,
    Placement,
    ProblemInstance,
    build_congruence_K,
    build_congruence_K_prime,
    build_general_gadget,
    build_similarity_gadget,
    class_slots,
    congruence_triple,
    identity,
    make_yes_instance,
    plan_layout,
    random_unitary,
    unitarily_congruent,
    verify_witness,
)

from conftest import rand_matrix, rat_matrix

GR = GaussianRational


def oracle_slots(k, set_id):
    """Independent slot enumeration straight from the parity rules."""
    odd_even = {
        1: (1, 0),
        2: (1, 1),
        3: (0, 0),
        4: (0, 1),
    }[set_id]
    return sorted(
        (i, j)
        for i in range(1, k + 1)
        for j in range(1, k + 1)
        if j - i >= 2 and i % 2 == odd_even[0] and j % 2 == odd_even[1]
    )


class TestPlanLayout:
    @pytest.mark.parametrize(
        "counts,k,slot",
        [
            ((0, 1, 0, 0), 3, (1, 3)),
            ((1, 0, 0, 0), 4, (1, 4)),
            ((0, 0, 0, 1), 5, (2, 5)),
            ((0, 0, 1, 0), 4, (2, 4)),
        ],
    )
    def test_minimal_k_examples(self, counts, k, slot):
        layout = plan_layout(*counts, 1)
        assert layout.k == k
        p = layout.placements[0]
        assert (p.i, p.j) == slot
        # the smaller k really has no admissible slot for this family
        set_id = counts.index(1) + 1
        assert len(oracle_slots(k - 1, set_id)) == 0

    def test_slots_match_oracle(self):
        for k in range(3, 9):
            for set_id in range(1, 5):
                assert sorted(class_slots(k, set_id)) == oracle_slots(k, set_id)

    def test_monotonicity(self, rng):
        for _ in range(40):
            counts = [int(rng.integers(0, 4)) for _ in range(4)]
            if sum(counts) == 0:
                counts[int(rng.integers(0, 4))] = 1
            k0 = plan_layout(*counts, 1).k
            bump = int(rng.integers(0, 4))
            counts[bump] += 1
            assert plan_layout(*counts, 1).k >= k0

    def test_parity_of_produced_layouts(self, rng):
        layout = plan_layout(2, 1, 2, 1, 2)
        layout.check_parity()  # must not raise

    def test_all_empty_rejected(self):
        with pytest.raises(ValueError):
            plan_layout(0, 0, 0, 0, 1)

    def test_row_major_fill(self):
        layout = plan_layout(0, 3, 0, 0, 1)
        slots = [(p.i, p.j) for p in layout.placements]
        assert slots == sorted(slots)


class TestLayoutValidation:
    def test_gap_rule(self):
        with pytest.raises(ValueError):
            GadgetLayout(1, 3, (Placement(2, 0, 1, 2),))

    def test_duplicate_slot(self):
        with pytest.raises(ValueError):
            GadgetLayout(
                1, 5, (Placement(2, 0, 1, 3), Placement(2, 1, 1, 3))
            )

    def test_parity_violation_detected(self):
        layout = GadgetLayout(1, 4, (Placement(1, 0, 1, 3),))  # odd-odd slot
        with pytest.raises(ValueError):
            layout.check_parity()


class TestSimilarityGadget:
    def test_scalar_pair_shape(self):
        a = Matrix.from_complex([[2.0]])
        b = Matrix.from_complex([[3.0]])
        ga, gb = build_similarity_gadget([(a, b)], 1)
        expect_a = Matrix.from_complex([[0, 1, 2], [0, 0, 1], [0, 0, 0]])
        expect_b = Matrix.from_complex([[0, 1, 3], [0, 0, 1], [0, 0, 0]])
        assert ga.M == expect_a and gb.M == expect_b

    def test_nilpotent_cube(self):
        a = Matrix.from_complex([[2.0]])
        ga, _ = build_similarity_gadget([(a, a)], 1)
        assert ga.M.power(3).is_zero()
        assert not ga.M.power(2).is_zero()

    def test_two_pairs_third_superdiagonal(self, rng):
        pairs = [(rand_matrix(rng, 2), rand_matrix(rng, 2)) for _ in range(2)]
        ga, gb = build_similarity_gadget(pairs, 2)
        assert ga.M.shape == (8, 8)
        d = ga.M.data
        eye = np.eye(2)
        for i in range(3):
            assert np.array_equal(d[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4], eye)
        assert np.array_equal(d[0:2, 4:6], pairs[0][0].data)
        assert np.array_equal(d[2:4, 6:8], pairs[1][0].data)

    def test_witness_block_diagonal_intertwines(self):
        g = make_yes_instance(2, 3, 0, 0, 0, seed=5)
        ga, gb = build_similarity_gadget(g.inst.S1, 2)
        k = ga.layout.k
        w = np.zeros((2 * k, 2 * k), dtype=complex)
        for i in range(k):
            w[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = g.witness.data
        wm = Matrix(w, "float")
        resid = (ga.M - wm @ gb.M @ wm.adjoint()).norm_fro()
        assert resid <= 1e-10


class TestGeneralGadget:
    def test_single_s2_matches_similarity_shape(self):
        a = Matrix.from_complex([[2.0]])
        b = Matrix.from_complex([[3.0]])
        inst = ProblemInstance(1, S2=[(a, b)])
        ga, gb = build_general_gadget(inst)
        assert ga.layout.k == 3
        expect = Matrix.from_complex([[0, 1, 2], [0, 0, 1], [0, 0, 0]])
        assert ga.M == expect

    def test_empty_instance_rejected(self):
        inst = ProblemInstance(1)
        with pytest.raises(ValueError):
            build_general_gadget(inst)

    def test_s1_s2_layout(self, rng):
        s1 = [(rand_matrix(rng, 2), rand_matrix(rng, 2))]
        s2 = [(rand_matrix(rng, 2), rand_matrix(rng, 2))]
        inst = ProblemInstance(2, S1=s1, S2=s2)
        ga, _ = build_general_gadget(inst)
        assert ga.layout.k == 4 and ga.M.shape == (8, 8)
        assert ga.layout.slot_of(1, 0) == (1, 4)
        assert ga.layout.slot_of(2, 0) == (1, 3)
        d = ga.M.data
        assert np.array_equal(d[0:2, 6:8], s1[0][0].data)
        assert np.array_equal(d[0:2, 4:6], s2[0][0].data)

    def test_supplied_layout_must_respect_parity(self, rng):
        s1 = [(rand_matrix(rng, 1), rand_matrix(rng, 1))]
        bad = GadgetLayout(1, 4, (Placement(1, 0, 1, 3),))
        with pytest.raises(ValueError):
            build_general_gadget(ProblemInstance(1, S1=s1), layout=bad)

    def test_nilpotency_index(self, rng):
        inst = ProblemInstance(
            2,
            S2=[(rand_matrix(rng, 2), rand_matrix(rng, 2))],
            S4=[(rand_matrix(rng, 2), rand_matrix(rng, 2))],
        )
        ga, gb = build_general_gadget(inst)
        k = ga.layout.k
        for g in (ga, gb):
            assert g.M.power(k).norm_fro() <= 1e-12
            assert g.M.power(k - 1).norm_fro() > 1e-12

    def test_witness_alternating_block_diagonal(self):
        g = make_yes_instance(2, 1, 1, 1, 1, seed=6)
        ga, gb = build_general_gadget(g.inst)
        k = ga.layout.k
        u = g.witness.data
        w = np.zeros((2 * k, 2 * k), dtype=complex)
        for i in range(k):
            w[2 * i : 2 * i + 2, 2 * i : 2 * i + 2] = u if i % 2 == 0 else np.conj(u)
        wm = Matrix(w, "float")
        resid = (ga.M - wm @ gb.M @ wm.transpose()).norm_fro()
        assert resid <= 1e-10


class TestCongruenceK:
    def test_zero_matrix_pure_chain(self):
        z = Matrix.from_complex([[0, 0], [0, 0]])
        k = build_congruence_K(z)
        expect = np.zeros((8, 8), dtype=complex)
        for i in range(3):
            expect[2 * i : 2 * i + 2, 2 * i + 2 : 2 * i + 4] = np.eye(2)
        assert np.array_equal(k.data, expect)

    def test_jordan_blocks(self):
        a = Matrix.from_complex([[0, 1], [0, 0]])
        k = build_congruence_K(a)
        d = k.data
        assert np.array_equal(d[0:2, 4:6], np.diag([1.0, 0.0]).astype(complex))
        assert np.array_equal(d[0:2, 6:8], np.zeros((2, 2)))
        assert np.array_equal(d[2:4, 6:8], np.diag([0.0, 1.0]).astype(complex))

    def test_nilpotent_index_four(self, rng):
        for _ in range(5):
            a = rand_matrix(rng, 3)
            k = build_congruence_K(a)
            assert k.power(4).norm_fro() <= 1e-12
            assert k.power(3).norm_fro() > 1e-12

    def test_exact_nilpotency(self, rng):
        a = rat_matrix(rng, 2)
        k = build_congruence_K(a)
        assert k.power(4).is_zero()
        assert not k.power(3).is_zero()

    def test_prime_variant_zeroes_third_block(self, rng):
        a = rand_matrix(rng, 2)
        k = build_congruence_K_prime(a)
        assert np.array_equal(k.data[2:4, 6:8], np.zeros((2, 2)))


class TestCongruenceTriple:
    def test_identity_pair(self):
        eye = identity(3)
        triple = congruence_triple(eye, eye)
        assert len(triple) == 3
        for a, b in triple:
            assert a == eye and b == eye

    def test_jordan_scaled(self):
        a = Matrix.from_complex([[0, 1], [0, 0]])
        b = Matrix.from_complex([[0, 2], [0, 0]])
        triple = congruence_triple(a, b)
        assert triple[0][0].allclose(Matrix.from_complex([[1, 0], [0, 0]]))
        assert triple[0][1].allclose(Matrix.from_complex([[4, 0], [0, 0]]))

    @staticmethod
    def brute_pair_counts(monkeypatch, pairs):
        """How many derived pairs the brute congruence route decides on."""
        seen = []
        inner = engines._pairs

        def spy(letters, *args):
            seen.append(letters.shape[1] // 2)  # letters A, A* per pair
            return inner(letters, *args)

        monkeypatch.setattr(engines, "_pairs", spy)
        for a, b in pairs:
            unitarily_congruent(a, b, engine="brute", max_length=2)
        return seen

    def test_shortcut_on_nonsingular(self, rng, monkeypatch):
        # the triple is always whole; the brute route drops the third pair
        # when A or B is nonsingular
        u = random_unitary(3, rng)
        j = Matrix.from_complex([[0, 1], [0, 0]])
        assert len(congruence_triple(u, u)) == 3
        assert self.brute_pair_counts(monkeypatch, [(u, u), (j, j)]) == [2, 3]

    def test_exact_shortcut_uses_exact_det(self, monkeypatch):
        # det 10^-12 is below the float threshold but exactly nonzero
        a = Matrix.from_rational([[GR(1), GR(0)], [GR(0), GR(Fraction(1, 10**12))]])
        ones = Matrix.from_rational([[GR(1), GR(1)], [GR(1), GR(1)]])
        assert engines._nonsingular(a) and not engines._nonsingular(a.to_float())
        assert not engines._nonsingular(ones)
        pairs = [(a, ones), (ones, a), (ones, ones)]
        assert self.brute_pair_counts(monkeypatch, pairs) == [2, 2, 3]

    def test_necessary_identities_for_congruent_pairs(self, rng):
        # A = U B U^T forces the three derived pairs to intertwine through U
        for trial in range(5):
            n = 2 + trial % 3
            u = random_unitary(n, 100 + trial)
            b = rand_matrix(rng, n)
            b = b.scale(1.0 / b.norm_fro())
            a = u @ b @ u.transpose()
            for lhs, rhs in congruence_triple(a, b):
                resid = (lhs - u @ rhs @ u.adjoint()).norm_fro()
                assert resid <= 1e-10


class TestProblemInstance:
    def test_size_validation(self, rng):
        with pytest.raises(ValueError):
            ProblemInstance(2, S1=[(rand_matrix(rng, 2), rand_matrix(rng, 3))])

    def test_mode_validation(self, rng):
        with pytest.raises(ValueError):
            ProblemInstance(2, S1=[(rand_matrix(rng, 2), rat_matrix(rng, 2))])

    def test_scaled_common(self, rng):
        inst = ProblemInstance(
            2,
            S1=[(rand_matrix(rng, 2).scale(5.0), rand_matrix(rng, 2))],
            S3=[(rand_matrix(rng, 2), rand_matrix(rng, 2).scale(0.1))],
        )
        factor, scaled = inst.scaled_common()
        norms = [m.norm_fro() for _, _, a, b in scaled.pairs() for m in (a, b)]
        assert max(norms) == pytest.approx(1.0)
        assert scaled.counts == inst.counts

    def test_scaled_common_of_no_pairs(self):
        factor, scaled = ProblemInstance(2).scaled_common()
        assert factor == 1.0 and scaled.total_pairs == 0
        assert verify_witness(ProblemInstance(2), identity(2))
