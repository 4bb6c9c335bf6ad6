import numpy as np
import pytest
import scipy.linalg

from sparsact.sdp import (
    LmiBlock,
    SdpProblem,
    SolverOptions,
    check_certificate,
    solve_sdp,
)


def det_problem():
    """min x subject to [[x, 1], [1, x]] >= 0; optimum x = 1."""
    block = LmiBlock(F0=[[0.0, 1.0], [1.0, 0.0]], var_idx=[0],
                     coefs=[np.eye(2)])
    return SdpProblem(num_vars=1, c=[1.0], blocks=[block])


def box_problem():
    """min -x subject to 0 <= x <= 2 via two 1x1 blocks; optimum x = 2."""
    up = LmiBlock(F0=[[2.0]], var_idx=[0], coefs=[[[-1.0]]])
    lo = LmiBlock(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]])
    return SdpProblem(num_vars=1, c=[-1.0], blocks=[up, lo])


class TestSolveOptimal:
    def test_determinant_boundary(self):
        sol = solve_sdp(det_problem())
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)

    def test_box(self):
        sol = solve_sdp(box_problem())
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(2.0, abs=1e-6)

    def test_equality_constraints(self):
        # min x1 + x2  s.t.  x1 - x2 = 1,  x1 >= 0, x2 >= 0  ->  (1, 0)
        blocks = [
            LmiBlock(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]]),
            LmiBlock(F0=[[0.0]], var_idx=[1], coefs=[[[1.0]]]),
        ]
        prob = SdpProblem(num_vars=2, c=[1.0, 1.0], blocks=blocks,
                          eq_A=[[1.0, -1.0]], eq_b=[1.0])
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_psd_completion(self):
        # min t s.t. [[t, 3], [3, t]] >= 0 -> t = 3
        block = LmiBlock(F0=[[0.0, 3.0], [3.0, 0.0]], var_idx=[0],
                         coefs=[np.eye(2)])
        sol = solve_sdp(SdpProblem(num_vars=1, c=[1.0], blocks=[block]))
        assert sol.x[0] == pytest.approx(3.0, abs=1e-6)


def random_lmi_problem(seed, num_vars=6, dim=5):
    """min c'x s.t. I + sum_i x_i C_i >= 0 and |x_i| <= 1, with no equalities."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((num_vars, dim, dim))
    blocks = [LmiBlock(F0=np.eye(dim), var_idx=np.arange(num_vars),
                       coefs=0.5 * (C + np.transpose(C, (0, 2, 1))))]
    for i in range(num_vars):
        blocks.append(LmiBlock(F0=np.eye(2), var_idx=[i],
                               coefs=[[[0.0, 1.0], [1.0, 0.0]]]))
    return SdpProblem(num_vars=num_vars, c=rng.standard_normal(num_vars), blocks=blocks)


class TestSchurFactorization:
    def test_lu_fallback_matches_cholesky(self, monkeypatch):
        prob = random_lmi_problem(3)
        chol = solve_sdp(prob)
        calls = []

        def failing_cho_factor(*args, **kwargs):
            calls.append(1)
            raise np.linalg.LinAlgError("forced Cholesky failure")

        monkeypatch.setattr(scipy.linalg, "cho_factor", failing_cho_factor)
        lu = solve_sdp(prob)
        assert calls, "the equality-free solve never tried Cholesky"
        assert chol.status == lu.status == "optimal"
        assert lu.x == pytest.approx(chol.x, abs=1e-8)
        assert check_certificate(prob, chol).clean

    def test_equalities_skip_cholesky(self, monkeypatch):
        def unexpected(*args, **kwargs):
            raise AssertionError("Cholesky used on a saddle system")

        monkeypatch.setattr(scipy.linalg, "cho_factor", unexpected)
        prob = random_lmi_problem(4)
        prob = SdpProblem(num_vars=prob.num_vars, c=prob.c, blocks=prob.blocks,
                          eq_A=np.ones((1, prob.num_vars)), eq_b=[0.5])
        assert solve_sdp(prob).status == "optimal"


class TestWeakDuality:
    def test_invariant_on_every_iterate(self):
        for prob in (det_problem(), box_problem()):
            sol = solve_sdp(prob)
            assert sol.iterates, "no iterates recorded"
            for it in sol.iterates:
                slack = it.rtau_over_tau + 1e-7 * (1.0 + abs(it.pobj) + abs(it.dobj))
                assert it.pobj >= it.dobj - slack, (
                    f"weak duality violated at iteration {it.iteration}: "
                    f"pobj {it.pobj} < dobj {it.dobj} - {slack}")

    def test_final_gap_small(self):
        sol = solve_sdp(det_problem())
        assert sol.gap <= 1e-6 * (1.0 + abs(sol.objective))


class TestInfeasibility:
    def test_contradictory_bounds(self):
        # x >= 1 and x <= -1
        blocks = [
            LmiBlock(F0=[[-1.0]], var_idx=[0], coefs=[[[1.0]]]),
            LmiBlock(F0=[[-1.0]], var_idx=[0], coefs=[[[-1.0]]]),
        ]
        sol = solve_sdp(SdpProblem(num_vars=1, c=[0.0], blocks=blocks))
        assert sol.status == "infeasible"

    def test_infeasible_equalities(self):
        blocks = [LmiBlock(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]])]
        prob = SdpProblem(num_vars=1, c=[0.0], blocks=blocks,
                          eq_A=[[1.0]], eq_b=[-2.0])  # x = -2 but x >= 0
        sol = solve_sdp(prob)
        assert sol.status == "infeasible"

    def test_unbounded_below(self):
        # min x with only x <= 0 -> unbounded
        blocks = [LmiBlock(F0=[[0.0]], var_idx=[0], coefs=[[[-1.0]]])]
        sol = solve_sdp(SdpProblem(num_vars=1, c=[1.0], blocks=blocks))
        assert sol.status == "unbounded"


class TestCertificate:
    def test_clean_on_converged_solution(self):
        prob = det_problem()
        sol = solve_sdp(prob)
        rep = check_certificate(prob, sol)
        assert rep.clean, rep.flags

    def test_flags_corrupted_primal(self):
        prob = det_problem()
        sol = solve_sdp(prob)
        sol.x[0] -= 0.5  # violates the PSD block
        rep = check_certificate(prob, sol)
        assert not rep.clean
        assert any("PSD" in f or "residual" in f or "gap" in f for f in rep.flags)

    def test_flags_corrupted_equality(self):
        blocks = [
            LmiBlock(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]]),
            LmiBlock(F0=[[0.0]], var_idx=[1], coefs=[[[1.0]]]),
        ]
        prob = SdpProblem(num_vars=2, c=[1.0, 1.0], blocks=blocks,
                          eq_A=[[1.0, -1.0]], eq_b=[1.0])
        sol = solve_sdp(prob)
        sol.x[:] = [5.0, 5.0]
        rep = check_certificate(prob, sol)
        assert any("equality" in f or "gap" in f for f in rep.flags)


class TestProblemContainer:
    def test_bad_block_reference(self):
        block = LmiBlock(F0=[[0.0]], var_idx=[3], coefs=[[[1.0]]])
        with pytest.raises(ValueError):
            SdpProblem(num_vars=1, c=[0.0], blocks=[block])

    def test_asymmetric_block_rejected(self):
        with pytest.raises(ValueError, match="exactly symmetric"):
            LmiBlock(F0=[[0.0, 1.0], [0.0, 0.0]], var_idx=[], coefs=np.zeros((0, 2, 2)))
        with pytest.raises(ValueError, match="exactly symmetric"):
            LmiBlock(F0=np.eye(2), var_idx=[0], coefs=[[[0.0, 1.0], [1.0 + 1e-15, 0.0]]])

    def test_dump_triplets_deterministic(self, tmp_path):
        prob = det_problem()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        prob.dump_triplets(p1)
        prob.dump_triplets(p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "-1 0 0 0 1" in text  # objective entry

    def test_solver_options_dump(self, tmp_path):
        path = tmp_path / "dump.txt"
        solve_sdp(det_problem(), SolverOptions(dump_path=str(path)))
        assert path.exists() and path.stat().st_size > 0


class TestEmptyShapes:
    """Problems without equalities, blocks without variables and problems
    without blocks go through the same algebra as every other problem."""

    def test_all_zero_equality_row_changes_nothing(self):
        prob = random_lmi_problem(5)
        padded = SdpProblem(num_vars=prob.num_vars, c=prob.c, blocks=prob.blocks,
                            eq_A=np.zeros((1, prob.num_vars)), eq_b=[0.0])
        plain, with_row = solve_sdp(prob), solve_sdp(padded)
        assert with_row.status == plain.status == "optimal"
        assert with_row.iterations == plain.iterations
        assert np.array_equal(with_row.x, plain.x)
        assert with_row.eq_dual.shape == (1,) and plain.eq_dual.shape == (0,)

    @pytest.mark.parametrize("F0", [-np.eye(2), np.diag([1.0, -1.0])])
    def test_block_without_variables_is_enforced(self, F0):
        constant = LmiBlock(F0=F0, var_idx=np.zeros(0, dtype=int), coefs=np.zeros((0, 2, 2)))
        prob = SdpProblem(num_vars=1, c=[1.0], blocks=[det_problem().blocks[0], constant])
        sol = solve_sdp(prob)
        assert sol.status == "infeasible"
        # the certificate puts its weight on the constant block
        assert np.trace(sol.block_duals[1]) > 0.4

    def test_block_without_variables_is_checked(self):
        constant = LmiBlock(F0=2 * np.eye(2), var_idx=np.zeros(0, dtype=int),
                            coefs=np.zeros((0, 2, 2)))
        prob = SdpProblem(num_vars=1, c=[1.0], blocks=[det_problem().blocks[0], constant])
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
        assert np.array_equal(constant.evaluate(sol.x), 2 * np.eye(2))
        rep = check_certificate(prob, sol)
        assert rep.clean, rep.flags
        assert rep.psd_min_eigs[1] == 2.0

    def test_problem_without_blocks(self):
        sol = solve_sdp(SdpProblem(num_vars=2, c=[0.0, 0.0], blocks=[]))
        assert (sol.status, sol.message, sol.iterations) == ("optimal", "converged", 1)
        assert np.array_equal(sol.x, np.zeros(2)) and sol.block_duals == []
        sol = solve_sdp(SdpProblem(num_vars=2, c=[1.0, 0.0], blocks=[]))
        assert (sol.status, sol.message, sol.iterations) == \
            ("unbounded", "primal improving ray found", 2)
        assert np.array_equal(sol.x, [-1.0, 0.0])
