import numpy as np
import pytest

from unieq import (
    GaussianRational,
    Matrix,
    ProblemInstance,
    build_general_gadget,
    build_similarity_gadget,
    identity,
    intertwiner_space,
    intertwiner_space_info,
    make_yes_instance,
    perturb_to_no,
    random_unitary,
    solve_general,
    verify_witness,
)
from unieq.instances import (
    MARGINAL_GAP,
    has_alternating_diagonal_blocks,
    has_equal_diagonal_blocks,
    is_block_upper_triangular,
)

from conftest import exact_unitary, rand_matrix, rat_matrix

GR = GaussianRational


class TestRandomUnitary:
    def test_scalar_case(self):
        u = random_unitary(1, 0)
        assert abs(abs(u.entry(0, 0)) - 1.0) <= 1e-14

    def test_determinism(self):
        a = random_unitary(4, 1)
        b = random_unitary(4, 1)
        assert np.array_equal(a.data, b.data)

    def test_orthonormal_columns(self):
        for seed in range(20):
            n = 1 + seed % 6
            u = random_unitary(n, seed)
            gram = u.adjoint() @ u
            assert (gram - identity(n)).norm_fro() <= 1e-12

    def test_exact_mode_rejected(self):
        with pytest.raises(ValueError):
            random_unitary(2, 0, mode="exact")


class TestMakeYesInstance:
    def test_scalar_similarity_is_trivial(self):
        g = make_yes_instance(1, 1, 0, 0, 0, seed=2)
        a, b = g.inst.S1[0]
        assert (a - b).norm_fro() <= 1e-14

    def test_scalar_congruence_phases(self):
        g = make_yes_instance(1, 0, 1, 0, 0, seed=2)
        a, b = g.inst.S2[0]
        u = g.witness.entry(0, 0)
        assert abs(a.entry(0, 0) - u * u * b.entry(0, 0)) <= 1e-14
        assert abs(abs(a.entry(0, 0)) - abs(b.entry(0, 0))) <= 1e-13

    def test_full_shape_end_to_end(self):
        g = make_yes_instance(2, 1, 1, 1, 1, seed=3)
        assert verify_witness(g.inst, g.witness)
        assert solve_general(g.inst).equivalent

    def test_determinism(self):
        g1 = make_yes_instance(2, 1, 1, 0, 0, seed=5)
        g2 = make_yes_instance(2, 1, 1, 0, 0, seed=5)
        for (_, _, a1, b1), (_, _, a2, b2) in zip(g1.inst.pairs(), g2.inst.pairs()):
            assert np.array_equal(a1.data, a2.data)
            assert np.array_equal(b1.data, b2.data)
        assert np.array_equal(g1.witness.data, g2.witness.data)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            make_yes_instance(2, 0, 0, 0, 0, seed=1)


class TestPerturbToNo:
    def test_epsilon_validation(self):
        g = make_yes_instance(1, 0, 1, 0, 0, seed=1)
        with pytest.raises(ValueError):
            perturb_to_no(g, 0.0, seed=2)

    def test_scalar_perturbation_detected(self):
        g = make_yes_instance(1, 0, 1, 0, 0, seed=1)
        p = perturb_to_no(g, 0.1, seed=2)
        assert p.label == "NO-perturbed"
        assert not solve_general(p.inst).equivalent

    def test_determinism_and_norm(self):
        g = make_yes_instance(2, 1, 1, 0, 0, seed=9)
        p1 = perturb_to_no(g, 0.25, seed=10)
        p2 = perturb_to_no(g, 0.25, seed=10)
        deltas = []
        for (_, _, a1, _), (_, _, a2, _), (_, _, a0, _) in zip(
            p1.inst.pairs(), p2.inst.pairs(), g.inst.pairs()
        ):
            assert np.array_equal(a1.data, a2.data)
            deltas.append((a1 - a0).norm_fro())
        assert max(deltas) == pytest.approx(0.25, abs=1e-12)
        assert sum(1 for d in deltas if d > 0) == 1

    def test_batch_detection(self):
        for seed in range(25):
            g = make_yes_instance(2, 1, 0, 0, 1, seed=seed)
            p = perturb_to_no(g, 0.1, seed=seed + 1000)
            assert not solve_general(p.inst).equivalent


class TestIntertwinerSpace:
    def test_all_scalars_intertwine_zero(self):
        z = Matrix.from_complex([[0.0]])
        basis = intertwiner_space(z, z)
        assert len(basis) == 1

    def test_jordan_commutant_via_hand_oracle(self):
        j = Matrix.from_complex([[0, 1], [0, 0]])
        basis = intertwiner_space(j, j)
        # independent oracle: nullspace of I(x)J - J^T(x)I assembled by hand
        op = np.kron(np.eye(2), j.data) - np.kron(j.data.T, np.eye(2))
        _, s, vh = np.linalg.svd(op)
        null_dim = int(np.sum(s <= 1e-12))
        assert len(basis) == null_dim == 2
        # every commutant element lies in span{I, J}
        cols = np.stack([identity(2).vec(), j.vec()], axis=1)
        for w in basis:
            coeffs, *_ = np.linalg.lstsq(cols, w.vec(), rcond=None)
            assert np.linalg.norm(cols @ coeffs - w.vec()) <= 1e-10

    def test_residuals_are_small(self, rng):
        a, b = rand_matrix(rng, 3), rand_matrix(rng, 3)
        for w in intertwiner_space(a, a):
            resid = (a @ w - w @ a).norm_fro()
            assert resid <= 1e-9
        for w in intertwiner_space(a, b, conjugate_linear=True):
            resid = (a @ w.conj() - w @ b).norm_fro()
            assert resid <= 1e-9

    def test_conjugate_linear_scalar(self):
        one = Matrix.from_complex([[1.0]])
        basis = intertwiner_space(one, one, conjugate_linear=True)
        # w conj(w)-symmetry: a conj(w) = w b with a=b=1 forces w real
        assert len(basis) == 1
        w = basis[0].entry(0, 0)
        assert abs(w.imag) <= 1e-12 * abs(w.real)

    def test_exact_mode_jordan(self):
        from unieq import GaussianRational as GR

        j = Matrix.from_rational([[GR(0), GR(1)], [GR(0), GR(0)]])
        basis = intertwiner_space(j, j)
        assert len(basis) == 2

    @pytest.mark.parametrize("which", [0, 1])
    def test_exact_conjugate_linear(self, rng, which):
        # A = U B U^T for an exact unitary U, so U itself solves A conj(W) = W B
        u = exact_unitary(2, which)
        rank_one = Matrix.from_rational([[GR(1), GR(0)], [GR(0), GR(0)]])
        for b in (rat_matrix(rng, 2), rank_one):
            a = u @ b @ u.transpose()
            basis = intertwiner_space(a, b, conjugate_linear=True)
            assert basis
            for w in basis:
                assert w.mode == "exact" and a @ w.conj() == w @ b
            floats = intertwiner_space(a.to_float(), b.to_float(), conjugate_linear=True)
            assert len(basis) == len(floats)

    def test_gadget_linear_structure(self, rng):
        for trial in range(10):
            n = 1 + trial % 2
            k = 3 + trial % 2
            pairs = [
                (rand_matrix(rng, n), rand_matrix(rng, n)) for _ in range(k - 2)
            ]
            ga, _ = build_similarity_gadget(pairs, n)
            basis, gap = intertwiner_space_info(ga.M, ga.M)
            assert gap >= MARGINAL_GAP
            for w in basis:
                wn = w.scale(1.0 / w.norm_fro())
                assert is_block_upper_triangular(wn, n)
                assert has_equal_diagonal_blocks(wn, n)

    def test_gadget_conjugate_linear_structure(self):
        for trial in range(10):
            n = 1 + trial % 2
            g = make_yes_instance(n, 0, 1, 0, 1, seed=300 + trial)
            ga, gb = build_general_gadget(g.inst)
            basis, gap = intertwiner_space_info(ga.M, gb.M, conjugate_linear=True)
            assert gap >= MARGINAL_GAP
            assert basis  # congruent pair, so the space is nonempty
            for w in basis:
                wn = w.scale(1.0 / w.norm_fro())
                assert is_block_upper_triangular(wn, n)
                assert has_alternating_diagonal_blocks(wn, n)

    def test_scalar_gadget_example(self):
        a = Matrix.from_complex([[0.3]])
        ga, _ = build_similarity_gadget([(a, a)], 1)
        basis = intertwiner_space(ga.M, ga.M)
        for w in basis:
            wn = w.scale(1.0 / w.norm_fro())
            assert is_block_upper_triangular(wn, 1)
            assert has_equal_diagonal_blocks(wn, 1)

    def test_size_mismatch(self, rng):
        with pytest.raises(ValueError):
            intertwiner_space(rand_matrix(rng, 2), rand_matrix(rng, 3))
