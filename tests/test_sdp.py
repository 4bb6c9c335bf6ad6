import time

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse

from conftest import random_plant
from sparsact import bench, sdp
from sparsact.joint import JointSpec, synth_joint
from sparsact.sdp import (
    LmiBlock,
    SdpProblem,
    SolverOptions,
    check_certificate,
    solve_sdp,
)
from test_lmi import DESIGNS, compiled_design


def det_problem():
    """min x subject to [[x, 1], [1, x]] >= 0; optimum x = 1."""
    block = LmiBlock(F0=[[0.0, 1.0], [1.0, 0.0]], var_idx=[0],
                     coefs=[np.eye(2)])
    return SdpProblem(num_vars=1, c=[1.0], blocks=[block])


def difference_lp():
    """min x1 + x2 s.t. x1 - x2 >= 1, x1 >= 0, x2 >= 0; optimum (1, 0)."""
    blocks = [
        LmiBlock(F0=[[-1.0]], var_idx=[0, 1], coefs=[[[1.0]], [[-1.0]]]),
        LmiBlock(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]]),
        LmiBlock(F0=[[0.0]], var_idx=[1], coefs=[[[1.0]]]),
    ]
    return SdpProblem(num_vars=2, c=[1.0, 1.0], blocks=blocks)


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
        # the optimum of min x1 + x2 s.t. x1 - x2 = 1, x >= 0 lies on
        # x1 - x2 >= 1, so the inequality gives the same answer
        sol = solve_sdp(difference_lp())
        assert sol.status == "optimal"
        assert sol.x == pytest.approx([1.0, 0.0], abs=1e-6)

    def test_psd_completion(self):
        # min t s.t. [[t, 3], [3, t]] >= 0 -> t = 3
        block = LmiBlock(F0=[[0.0, 3.0], [3.0, 0.0]], var_idx=[0],
                         coefs=[np.eye(2)])
        sol = solve_sdp(SdpProblem(num_vars=1, c=[1.0], blocks=[block]))
        assert sol.x[0] == pytest.approx(3.0, abs=1e-6)


def random_lmi_problem(seed, num_vars=6, dim=5):
    """min c'x s.t. I + sum_i x_i C_i >= 0 and |x_i| <= 1."""
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
        assert calls, "the solve never tried Cholesky"
        assert chol.status == lu.status == "optimal"
        assert lu.x == pytest.approx(chol.x, abs=1e-8)
        assert check_certificate(prob, chol).clean


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
        # x1 - x2 = 1 of test_equality_constraints, as the inequality block 0
        prob = difference_lp()
        sol = solve_sdp(prob)
        assert check_certificate(prob, sol).clean
        sol.x[:] = [5.0, 5.0]
        rep = check_certificate(prob, sol)
        assert any(f.startswith("block 0 PSD violation") for f in rep.flags)


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
    """Blocks without variables and problems without blocks go through the
    same algebra as every other problem."""

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


def _random_scaling(problem, seed):
    """The problem's cones at the NT scaling of random strictly interior s, z."""
    rng = np.random.default_rng(seed)
    cones, start = [], 0
    for blk in problem.blocks:
        co = sdp._Cone(blk, start)
        start += co.sdim
        n = blk.dim
        S, Z = (B @ B.T + n * np.eye(n) for B in rng.standard_normal((2, n, n)))
        co.update_scaling(co.sv.svec(S), co.sv.svec(Z))
        cones.append(co)
    return cones


def _scaled_coefficients(co, blk):
    """W^-T G of one block, (d, k), by conjugating every slice with Rinv."""
    Tsc = co.Rinv @ blk.coefs @ co.Rinv.T
    return -(Tsc[:, co.sv.rows, co.sv.cols] * co.sv.w).T


def _reference_newton(problem, cones, bx, bz):
    """H and solve3 from the dense scaled coefficients of every block."""
    n = problem.num_vars
    Ssc = [_scaled_coefficients(co, blk) for co, blk in zip(cones, problem.blocks)]
    H = np.zeros((n, n))
    for co, S in zip(cones, Ssc):
        H[np.ix_(co.vi, co.vi)] += S.T @ S
    kkt_solve = sdp._factor_kkt(H, 1e-12 * (1.0 + np.abs(np.diag(H)).max(initial=0.0)))
    bz_t = [co.sv.svec(co.Rinv @ co.sv.smat(bz[co.part]) @ co.Rinv.T) for co in cones]
    rhs = bx.copy()
    for co, S, v in zip(cones, Ssc, bz_t):
        rhs[co.vi] += S.T @ v
    ux = kkt_solve(rhs)
    for _ in range(2):
        ux = ux + kkt_solve(rhs - H @ ux)
    uz = [co.sv.svec(co.Rinv.T @ co.sv.smat(S @ ux[co.vi] - v) @ co.Rinv)
          for co, S, v in zip(cones, Ssc, bz_t)]
    return H, ux, np.concatenate(uz)


def _assert_newton_matches_reference(problem, seed=0):
    cones = _random_scaling(problem, seed)
    rng = np.random.default_rng(seed + 1)
    n = problem.num_vars
    G = np.zeros((sum(co.sdim for co in cones), n))
    for co in cones:
        G[co.part, co.vi] = co.Gmat
    # a direction that no block sees (the output-feedback designs have one)
    # is not determined by the Newton system; bx = G'r, like the solver's
    # residuals, has no part along it
    bx = G.T @ rng.standard_normal(len(G))
    bz = rng.standard_normal(len(G))
    H_ref, dx_ref, dz_ref = _reference_newton(problem, cones, bx, bz)
    H = sdp._schur(cones, n)
    assert np.array_equal(H, H.T)
    assert np.linalg.norm(H - H_ref) <= 1e-10 * np.linalg.norm(H_ref)
    kkt_solve = sdp._factor_kkt(H, 1e-12 * (1.0 + np.abs(np.diag(H)).max()))
    dx, dz = sdp._solve3(cones, H, kkt_solve, bx, bz)
    assert np.linalg.norm(dz - dz_ref) <= 1e-10 * np.linalg.norm(dz_ref)
    assert np.linalg.norm(G @ (dx - dx_ref)) <= 1e-10 * np.linalg.norm(G @ dx_ref)
    eigs = np.linalg.eigvalsh(H_ref)
    if eigs[0] > 1e-12 * eigs[-1]:  # dx itself is determined
        assert np.linalg.norm(dx - dx_ref) <= 1e-10 * np.linalg.norm(dx_ref)
    return cones


class TestSchurAssembly:
    """The Schur complement and solve3 built from the slices' nonzero entries
    equal the ones built from every slice conjugated by the NT scaling."""

    @pytest.mark.parametrize("kind", ["hinf", "h2"])
    @pytest.mark.parametrize("design", sorted(DESIGNS))
    @pytest.mark.parametrize("nx", [2, 4])
    def test_compiled_designs(self, monkeypatch, design, kind, nx):
        synthesize, spec_type = DESIGNS[design]
        plant = random_plant(np.random.default_rng(11), nx=nx, nu=2, nw=2, nz=2, ny=2)
        _, _, problem, _ = compiled_design(monkeypatch, synthesize, spec_type(
            plant=plant, performance_kind=kind, gamma0=5.0))
        _assert_newton_matches_reference(problem)

    @pytest.mark.parametrize("family, kind, gamma0", [
        (bench.TensegrityApprox(), "h2", 0.42), (bench.MassSpringChain(5), "hinf", 100.0)])
    def test_benchmark_problems_cover_both_forms(self, monkeypatch, family, kind, gamma0):
        _, _, problem, _ = compiled_design(monkeypatch, synth_joint, JointSpec(
            plant=bench.make_plant(family), performance_kind=kind, gamma0=gamma0))
        cones = _assert_newton_matches_reference(problem)
        assert {scipy.sparse.issparse(co.Gu) for co in cones} == {True, False}
        # H is added by slices over runs of variables and by one gather
        assert {type(co.hsel[0][0][0]) for co in cones} == {slice, np.ndarray}

    def test_zero_slices(self):
        prob = random_lmi_problem(6, num_vars=40, dim=12)
        blk = prob.blocks[0]
        coefs = blk.coefs.copy()
        coefs[::3] = 0.0  # slices without a nonzero
        blocks = [LmiBlock(F0=blk.F0, var_idx=blk.var_idx, coefs=coefs), *prob.blocks[1:]]
        _assert_newton_matches_reference(SdpProblem(num_vars=40, c=prob.c, blocks=blocks))


class TestPhaseTimes:
    def test_phases_are_timed_within_the_call(self):
        prob = random_lmi_problem(7, num_vars=12, dim=8)
        t0 = time.perf_counter()
        sol = solve_sdp(prob)
        wall = time.perf_counter() - t0
        assert sol.status == "optimal"
        assert tuple(sol.phase_s) == sdp.PHASES == ("scaling", "schur", "factor", "solve", "step")
        assert all(t >= 0.0 for t in sol.phase_s.values())
        assert 0.0 < sum(sol.phase_s.values()) <= wall
