import logging
import time
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.sparse
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import allocation_peak, dense_block, random_plant
from sparsact import bench, sdp
from sparsact.joint import JointSpec, synth_joint
from sparsact.statefb import SfSynthesisSpec, synth_sf
from sparsact.sdp import (
    FEAS_TOL,
    LmiBlock,
    SdpProblem,
    SocBlock,
    check_certificate,
    solve_sdp,
)
from test_lmi import COMPILE_CASES, DESIGNS, compiled_design


def det_problem():
    """min x subject to [[x, 1], [1, x]] >= 0; optimum x = 1."""
    block = dense_block(F0=[[0.0, 1.0], [1.0, 0.0]], var_idx=[0],
                        coefs=[np.eye(2)])
    return SdpProblem(num_vars=1, c=[1.0], blocks=[block])


def difference_lp():
    """min x1 + x2 s.t. x1 - x2 >= 1, x1 >= 0, x2 >= 0; optimum (1, 0)."""
    blocks = [
        dense_block(F0=[[-1.0]], var_idx=[0, 1], coefs=[[[1.0]], [[-1.0]]]),
        dense_block(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]]),
        dense_block(F0=[[0.0]], var_idx=[1], coefs=[[[1.0]]]),
    ]
    return SdpProblem(num_vars=2, c=[1.0, 1.0], blocks=blocks)


def box_problem():
    """min -x subject to 0 <= x <= 2 via two 1x1 blocks; optimum x = 2."""
    up = dense_block(F0=[[2.0]], var_idx=[0], coefs=[[[-1.0]]])
    lo = dense_block(F0=[[0.0]], var_idx=[0], coefs=[[[1.0]]])
    return SdpProblem(num_vars=1, c=[-1.0], blocks=[up, lo])


def distance_socp(a, g=None, beta=None, t_max=None):
    """min t s.t. ||x - a|| <= t, and g'x >= beta and t <= t_max when given.

    Variables (t, x).  The optimum is the distance from a to the half-space
    g'x >= beta (zero without one); t_max below it makes the problem
    infeasible.
    """
    p = len(a)
    socs = [SocBlock(f0=np.r_[0.0, -np.asarray(a, float)], var_idx=np.arange(p + 1),
                     coefs=np.eye(p + 1))]
    blocks = []
    if g is not None:
        blocks.append(dense_block(F0=[[-beta]], var_idx=np.arange(1, p + 1),
                                  coefs=np.reshape(g, (p, 1, 1))))
    if t_max is not None:
        blocks.append(dense_block(F0=[[t_max]], var_idx=[0], coefs=[[[-1.0]]]))
    return SdpProblem(num_vars=p + 1, c=np.eye(p + 1)[0], blocks=blocks, socs=socs)


def cones_only_socp():
    """min t + s s.t. ||x - a|| <= t, g'x >= beta and ||y - b|| <= s, as
    second-order cones of dimensions 1, 3 and 7 and no PSD block.

    Variables (t, x, s, y), x in R^6 and y in R^2.  The optimum is the
    distance 3 / ||g|| from a to the half-space, with s = 0 at y = b; the
    first and last cones share x.
    """
    rng = np.random.default_rng(5)
    a, g, b = rng.standard_normal(6), rng.standard_normal(6), rng.standard_normal(2)
    socs = [SocBlock(f0=[-(g @ a + 3.0)], var_idx=np.arange(1, 7), coefs=g[:, None]),
            SocBlock(f0=np.r_[0.0, -b], var_idx=[7, 8, 9], coefs=np.eye(3)),
            SocBlock(f0=np.r_[0.0, -a], var_idx=np.arange(7), coefs=np.eye(7))]
    return SdpProblem(num_vars=10, c=np.eye(10)[0] + np.eye(10)[7], blocks=[], socs=socs), a, g, b


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
        block = dense_block(F0=[[0.0, 3.0], [3.0, 0.0]], var_idx=[0],
                            coefs=[np.eye(2)])
        sol = solve_sdp(SdpProblem(num_vars=1, c=[1.0], blocks=[block]))
        assert sol.x[0] == pytest.approx(3.0, abs=1e-6)


def random_lmi_problem(seed, num_vars=6, dim=5):
    """min c'x s.t. I + sum_i x_i C_i >= 0 and |x_i| <= 1."""
    rng = np.random.default_rng(seed)
    C = rng.standard_normal((num_vars, dim, dim))
    blocks = [dense_block(F0=np.eye(dim), var_idx=np.arange(num_vars),
                          coefs=0.5 * (C + np.transpose(C, (0, 2, 1))))]
    for i in range(num_vars):
        blocks.append(dense_block(F0=np.eye(2), var_idx=[i],
                                  coefs=[[[0.0, 1.0], [1.0, 0.0]]]))
    return SdpProblem(num_vars=num_vars, c=rng.standard_normal(num_vars), blocks=blocks)


def _blocks_problem(seed, dims, num_vars=6):
    """min c'x s.t. I + sum_i x_i C_i >= 0 in a block of each size in dims,
    and the |x_i| <= 1 blocks of random_lmi_problem."""
    rng = np.random.default_rng(seed)
    box = random_lmi_problem(seed, num_vars=num_vars)
    blocks = []
    for n in dims:
        C = rng.standard_normal((num_vars, n, n))
        blocks.append(dense_block(F0=np.eye(n), var_idx=np.arange(num_vars),
                                  coefs=0.5 * (C + np.transpose(C, (0, 2, 1)))))
    return SdpProblem(num_vars=num_vars, c=box.c, blocks=blocks + box.blocks[1:]), rng


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), dims=st.lists(st.integers(1, 8), min_size=2, max_size=5))
def test_block_order_does_not_change_the_answer(seed, dims):
    # the blocks' order decides their place in the padded stack, not the answer
    problem, rng = _blocks_problem(seed, dims)
    order = rng.permutation(len(problem.blocks))
    permuted = SdpProblem(num_vars=problem.num_vars, c=problem.c,
                          blocks=[problem.blocks[i] for i in order])
    solutions = [solve_sdp(p) for p in (problem, permuted)]
    for p, sol in zip((problem, permuted), solutions):
        assert sol.status == "optimal"
        assert check_certificate(p, sol).clean
    assert solutions[1].objective == pytest.approx(solutions[0].objective, rel=1e-7)


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
            dense_block(F0=[[-1.0]], var_idx=[0], coefs=[[[1.0]]]),
            dense_block(F0=[[-1.0]], var_idx=[0], coefs=[[[-1.0]]]),
        ]
        sol = solve_sdp(SdpProblem(num_vars=1, c=[0.0], blocks=blocks))
        assert sol.status == "infeasible"

    def test_unbounded_below(self):
        # min x with only x <= 0 -> unbounded
        blocks = [dense_block(F0=[[0.0]], var_idx=[0], coefs=[[[-1.0]]])]
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


class TestSecondOrderCones:
    A = np.array([1.0, -2.0, 0.5])
    G = np.array([2.0, 1.0, -1.0])

    def test_distance_to_a_point(self):
        sol = solve_sdp(distance_socp(self.A))
        assert sol.message == "converged"
        assert sol.x == pytest.approx(np.r_[0.0, self.A], abs=1e-6)

    @pytest.mark.xfail(strict=True, reason="the converged answer sits at the cone apex and "
                       "misses the certificate's SOC allowance by 2.3e-8 (ROADMAP, "
                       "Smaller open findings)")
    def test_distance_to_a_point_certificate(self):
        prob = distance_socp(self.A)
        sol = solve_sdp(prob)
        assert sol.message == "converged"
        assert check_certificate(prob, sol).clean

    def test_distance_to_a_half_space(self):
        prob = distance_socp(self.A, self.G, beta=4.0)
        sol = solve_sdp(prob)
        gap = 4.0 - self.G @ self.A
        # the identity start is central: each cone adds 1 to s'z and to the degree
        assert sol.iterates[0].mu == 1.0
        assert sol.message == "converged"
        assert max(sol.pres, sol.dres) <= FEAS_TOL
        assert sol.objective == pytest.approx(gap / np.linalg.norm(self.G), rel=1e-7)
        assert sol.x[1:] == pytest.approx(self.A + gap * self.G / (self.G @ self.G), abs=1e-6)
        assert check_certificate(prob, sol).clean
        # the dual of the cone is a unit vector along the residual, weighted 1
        z = sol.soc_duals[0]
        assert z == pytest.approx(np.r_[1.0, -self.G / np.linalg.norm(self.G)], abs=1e-6)

    def test_infeasible_returns_a_dual_improving_ray(self):
        dist = (4.0 - self.G @ self.A) / np.linalg.norm(self.G)
        prob = distance_socp(self.A, self.G, beta=4.0, t_max=0.5 * dist)
        sol = solve_sdp(prob)
        assert sol.status == "infeasible"
        # z in the dual cones with G'z = 0 and h'z = -1: no s = h - Gx in the cones
        z = sol.soc_duals[0]
        assert z[0] >= np.linalg.norm(z[1:])
        assert all(Z[0, 0] >= 0.0 for Z in sol.block_duals)
        soc = prob.socs[0]
        GTz = -soc.coefs @ z
        hz = soc.f0 @ z
        for blk, Z in zip(prob.blocks, sol.block_duals):
            GTz[blk.var_idx] -= blk.coefs[:, 0, 0] * Z[0, 0]
            hz += blk.F0[0, 0] * Z[0, 0]
        assert hz == pytest.approx(-1.0)
        assert np.linalg.norm(GTz) <= sdp.INFEAS_TOL

    def test_cones_only(self):
        prob, a, g, b = cones_only_socp()
        sol = solve_sdp(prob)
        assert sol.message == "converged" and sol.block_duals == []
        gn = np.linalg.norm(g)
        assert sol.objective == pytest.approx(3.0 / gn, rel=1e-7)
        assert sol.x == pytest.approx(np.r_[3.0 / gn, a + 3.0 * g / gn ** 2, 0.0, b], abs=1e-6)
        assert check_certificate(prob, sol).clean
        # one dual vector per SocBlock, in order: the half-space's weight
        # 1 / ||g||, the point's (1, 0) and the distance's (1, -g / ||g||)
        assert [len(z) for z in sol.soc_duals] == [1, 3, 7]
        for z, want in zip(sol.soc_duals, ([1.0 / gn], [1.0, 0.0, 0.0], np.r_[1.0, -g / gn])):
            assert z == pytest.approx(want, abs=1e-6)

    def test_breakdown_in_one_cone_ends_the_solve(self, monkeypatch):
        identity = sdp._SocStack.identity

        def start_outside(stack):
            e = identity(stack)
            e[_soc_parts(stack)[1].start] = -1.0  # the dimension-3 cone starts outside Q
            return e

        monkeypatch.setattr(sdp._SocStack, "identity", start_outside)
        sol = solve_sdp(cones_only_socp()[0])
        assert (sol.status, sol.message, sol.iterations) == ("max_iter", "NT scaling breakdown", 1)

    def test_certificate_flags_corrupted_cones(self):
        prob = distance_socp(self.A, self.G, beta=4.0)
        sol = solve_sdp(prob)
        rep = check_certificate(prob, sol)
        assert rep.clean and rep.soc_margins[0] >= -1e-8 and rep.dual_soc_margins[0] >= -1e-8
        x = sol.x.copy()
        sol.x[0] = 0.5 * sol.x[0]  # t below ||x - a||
        rep = check_certificate(prob, sol)
        assert any(f.startswith("cone 0 SOC violation") for f in rep.flags)
        assert rep.soc_margins[0] < 0
        sol.x = x
        sol.soc_duals[0] = sol.soc_duals[0] * np.r_[0.5, np.ones(3)]  # z0 < ||z1||
        rep = check_certificate(prob, sol)
        assert any(f.startswith("dual cone 0 SOC violation") for f in rep.flags)
        assert rep.dual_soc_margins[0] < 0


def _interior_soc(rng, m):
    """A random point inside the second-order cone, log-uniformly near its boundary."""
    u = rng.standard_normal(m)
    u[0] = np.linalg.norm(u[1:]) + 10.0 ** rng.uniform(-6, 0)
    return u


class _PerConeScaling:
    """The NT scaling and scaled-space algebra of one second-order cone, as
    the solver computed them cone by cone, with dense m x m matrices W and
    W^-1, before the stack: the stack's oracle."""

    def update_scaling(self, s, z):
        sn, zn = _jnorm(s), _jnorm(z)
        sb, zb = s / sn, z / zn
        gamma = np.sqrt(0.5 * (1.0 + sb @ zb))
        w = sb - zb
        w[0] = sb[0] + zb[0]
        w /= 2.0 * gamma
        Wb = np.outer(w, w) / (1.0 + w[0])
        Wb.flat[::len(w) + 1] += 1.0
        Wb[0] = Wb[:, 0] = w
        Wi = Wb.copy()
        Wi[0, 1:] = Wi[1:, 0] = -w[1:]
        eta = np.sqrt(sn / zn)
        self.W = eta * Wb
        self.Winv = Wi / eta
        lam = ((gamma + zb[0]) * sb + (gamma + sb[0]) * zb) / (sb[0] + zb[0] + 2.0 * gamma)
        lam[0] = gamma
        self.lam = np.sqrt(sn * zn) * lam
        self.lam_det = _jnorm(self.lam) ** 2

    def W_z(self, z):
        return self.W @ z

    def WT_u(self, u):
        return self.W @ u

    def scaled_rhs(self, bz):
        Bt = self.Winv @ bz
        return self.Winv @ Bt, Bt

    def scaled_dz(self, gx, Bt):
        return self.Winv @ (self.Winv @ gx - Bt)

    @staticmethod
    def jprod(u, v):
        out = u[0] * v + v[0] * u
        out[0] = u @ v
        return out

    def lam_solve(self, r):
        lam = self.lam
        x = r / lam[0]
        x[0] = (lam[0] * r[0] - lam[1:] @ r[1:]) / self.lam_det
        x[1:] -= (x[0] / lam[0]) * lam[1:]
        return x

    def q_comb(self, us, uz, sigma_mu):
        r = self.jprod(self.lam, self.lam) + self.jprod(us, uz)
        r[0] -= sigma_mu
        return self.lam_solve(r)

    def step(self, d):
        """The step length of one direction."""
        if d[0] >= np.linalg.norm(d[1:]):
            return np.inf
        lam, c = self.lam, self.lam_det
        a = d[0] * d[0] - d[1:] @ d[1:]
        b = lam[0] * d[0] - lam[1:] @ d[1:]
        q = -(b + np.copysign(np.sqrt(max(b * b - a * c, 0.0)), b))
        roots = (c / q, q / a) if a else (c / q,)
        return min(r for r in roots if r > 0.0)


def _jnorm(u):
    n1 = np.linalg.norm(u[1:])
    return np.sqrt((u[0] - n1) * (u[0] + n1))


def _stack_step(stack, d):
    """The step length of one direction, as the stack computed it one
    direction at a time: the stack's oracle."""
    isq = 1.0 / np.sqrt(stack.lam)
    w = np.linalg.eigvalsh(isq[:, :, None] * stack.smat(d) * isq[:, None, :])
    wmin = w[:, 0].min()
    return np.inf if wmin >= 0 else -1.0 / wmin


def _step_tol(ref):
    """The relative tolerance of TestSocScaling on a step length."""
    return 1e-15 * ref.kappa * ref.cond


def _in_soc(u):
    return u[0] >= np.linalg.norm(u[1:])


SOC_DIMS = (1, 2, 5, 25)


def _soc_stack(dims=SOC_DIMS):
    """The _SocStack of cones of the given dimensions, without variables."""
    return sdp._SocStack([SocBlock(f0=np.zeros(m), var_idx=[], coefs=np.zeros((0, m)))
                          for m in dims], 0, 0)


def _soc_parts(stack):
    """The slice of the stacked vectors that each cone of the stack holds."""
    edges = stack.part.start + np.r_[0, stack.cuts, stack.sdim]
    return [slice(a, b) for a, b in zip(edges[:-1], edges[1:])]


@pytest.mark.parametrize("m", SOC_DIMS)
class TestSocScaling:
    """The stack's NT scaling, Jordan algebra and step length agree with
    the per-cone ones on the cone of dimension m of one stack of cones of
    dimensions 1, 2, 5 and 25.

    The two compute each cone's scaling with differently rounded norms.
    A point u near the boundary of Q fixes its scaling with a condition
    number of about ||u||^2 / u'Ju (the cancellation in u0 - ||u1||), and
    each application of W or W^-1 rounds at about eps ||W|| ||W^-1||.  So
    a cone's operators are compared with the oracle at a relative
    tolerance of 1e-15 (about 5 eps) times kappa, the sum of that number
    over s and z, times cond(W) to the power of the factors of W applied;
    a step length as one factor."""

    @staticmethod
    def _scaled(rng, m):
        """The stack at the scaling of random s and z, the index j of the
        cone of dimension m, its slice p of the stacked vectors, and every
        cone's oracle at the same s and z."""
        stack = _soc_stack()
        s, z = (np.concatenate([_interior_soc(rng, n) for n in SOC_DIMS]) for _ in range(2))
        stack.update_scaling(s, z)
        refs = []
        for q in _soc_parts(stack):
            ref = _PerConeScaling()
            ref.update_scaling(s[q], z[q])
            ref.kappa = sum(u @ u / _jnorm(u) ** 2 for u in (s[q], z[q]))
            ref.cond = np.linalg.norm(ref.W) * np.linalg.norm(ref.Winv)
            refs.append(ref)
        j = SOC_DIMS.index(m)
        return stack, j, _soc_parts(stack)[j], refs, s, z

    def test_nt_scaling(self, m):
        rng = np.random.default_rng(m)
        for _ in range(50):
            stack, j, p, refs, s, z = self._scaled(rng, m)
            ref = refs[j]
            c, M = stack.full.shape
            # W and W^-1 of every cone from their images of the unit vectors
            W, Wi = (f(np.broadcast_to(np.eye(M), (c, M, M)).copy())[j, :m, :m]
                     for f in (stack.W, lambda X: stack.W(X, inv=True)))
            lam = stack.q_aff()[p]
            assert not stack.lam[j, m:].any()  # the pad stays zero
            cond, tol = ref.cond, 1e-15 * ref.kappa * ref.cond
            assert np.linalg.norm(W - ref.W) <= tol * np.linalg.norm(ref.W)
            assert np.linalg.norm(Wi - ref.Winv) <= tol * np.linalg.norm(ref.Winv)
            assert np.linalg.norm(lam - ref.lam) <= tol * np.linalg.norm(ref.lam)
            assert stack.lam_det[j] == pytest.approx(ref.lam_det, rel=tol)
            # the NT identities W z = W^-1 s = lambda, inside the cone
            Wis = stack.unstack(stack.W(stack.stack(s), inv=True))
            assert np.linalg.norm(stack.W_z(z)[p] - lam) <= 1e-13 * cond * np.linalg.norm(lam)
            assert np.linalg.norm(Wis[p] - lam) <= 1e-13 * cond * np.linalg.norm(lam)
            assert np.linalg.norm(W @ Wi - np.eye(m)) <= 1e-13 * cond
            # W is symmetric; formed column by column, to rounding
            assert np.linalg.norm(W - W.T) <= 1e-15 * np.linalg.norm(W)
            assert np.linalg.norm(Wi - Wi.T) <= 1e-15 * np.linalg.norm(Wi)
            assert lam[0] > np.linalg.norm(lam[1:])

    def test_operators_match_per_cone(self, m):
        rng = np.random.default_rng(50 + m)
        for _ in range(50):
            stack, j, p, refs, _, _ = self._scaled(rng, m)
            ref = refs[j]
            d, u, bz, gx, us, uz, r = rng.standard_normal((7, stack.sdim))

            def close(got, want, factors):
                tol = 1e-15 * ref.kappa * ref.cond ** factors
                return np.linalg.norm(got - want) <= tol * np.linalg.norm(want)

            v, Bt = stack.scaled_rhs(bz)
            v_ref, Bt_ref = ref.scaled_rhs(bz[p])
            assert close(stack.W_z(d)[p], ref.W_z(d[p]), 1)
            assert close(stack.WT_u(u)[p], ref.WT_u(u[p]), 1)
            assert close(Bt[j, :m], Bt_ref, 1) and close(v[p], v_ref, 2)
            assert not Bt[j, m:].any()
            assert close(stack.scaled_dz(gx, Bt)[p], ref.scaled_dz(gx[p], Bt_ref), 2)
            assert close(stack.q_comb(us, uz, 0.3)[p], ref.q_comb(us[p], uz[p], 0.3), 2)
            assert close(stack.unstack(stack.lam_solve(stack.stack(r)))[p], ref.lam_solve(r[p]), 2)
            jp = stack.unstack(stack.jprod(stack.stack(us), stack.stack(uz)))
            assert close(jp[p], ref.jprod(us[p], uz[p]), 0)

    def test_max_step_matches_bisection(self, m):
        rng = np.random.default_rng(10 + m)
        for trial in range(50):
            stack, j, p, refs, _, _ = self._scaled(rng, m)
            lam = stack.q_aff()[p]
            # a direction in this cone alone: the others' zero parts are in Q
            d = np.zeros(stack.sdim)
            if trial % 5 == 0:
                d[p] = np.linalg.norm(lam) * _interior_soc(rng, m)  # d in Q: no boundary
            else:
                d[p] = np.linalg.norm(lam) * rng.standard_normal(m)
            alpha = stack.max_step(d, d)
            assert alpha == pytest.approx(refs[j].step(d[p]), rel=_step_tol(refs[j]))
            hi = 1.0
            while _in_soc(lam + hi * d[p]) and hi < 1e12:
                hi *= 2.0
            if _in_soc(lam + hi * d[p]):
                assert alpha == np.inf
                continue
            lo = 0.0
            for _ in range(200):
                mid = 0.5 * (lo + hi)
                lo, hi = (mid, hi) if _in_soc(lam + mid * d[p]) else (lo, mid)
            assert alpha == pytest.approx(lo, rel=1e-7)
        # through the apex: a double root, which rounding moves by about
        # sqrt(eps) ||lambda||^2 / lambda'J lambda
        stack, _, p, _, _, _ = self._scaled(rng, m)
        lam = np.zeros(stack.sdim)
        lam[p] = stack.q_aff()[p]
        assert stack.max_step(-2.0 * lam, lam) == pytest.approx(0.5, rel=1e-5)
        assert stack.max_step(lam, lam) == np.inf

    def test_max_step_of_two_directions(self, m):
        # both directions at once give the smaller of their step lengths,
        # bit for bit, and the per-cone oracle's; the directions span every
        # cone, or only this one
        rng = np.random.default_rng(30 + m)
        for _ in range(50):
            stack, j, p, refs, _, _ = self._scaled(rng, m)
            lam = stack.q_aff()
            ds, dz = np.linalg.norm(lam) * rng.standard_normal((2, stack.sdim))
            alone = np.zeros((2, stack.sdim))
            alone[:, p] = ds[p], dz[p]
            for a, b in ((ds, dz), (dz, ds), (ds, lam), (lam, lam), alone, alone[::-1]):
                alpha = stack.max_step(a, b)
                assert alpha == min(stack.max_step(a, a), stack.max_step(b, b))
                want = min(ref.step(d[q]) for ref, q in zip(refs, _soc_parts(stack)) for d in (a, b))
                assert alpha == pytest.approx(want, rel=max(_step_tol(ref) for ref in refs))

    def test_lam_solve_inverts_jordan_product(self, m):
        rng = np.random.default_rng(20 + m)
        for _ in range(20):
            stack, j, _, _, _, _ = self._scaled(rng, m)
            R = stack.stack(rng.standard_normal(stack.sdim))
            X = stack.lam_solve(R)
            scale = np.linalg.norm(stack.lam[j]) * np.linalg.norm(X[j])
            assert np.linalg.norm(stack.jprod(stack.lam, X)[j] - R[j]) <= 1e-12 * scale
            assert stack.q_aff() == pytest.approx(
                stack.unstack(stack.lam_solve(stack.jprod(stack.lam, stack.lam))))

    def test_breakdown_in_any_cone(self, m):
        rng = np.random.default_rng(40 + m)
        for outside in "sz":
            stack = _soc_stack()
            u = {k: np.concatenate([_interior_soc(rng, n) for n in SOC_DIMS]) for k in "sz"}
            u[outside][_soc_parts(stack)[SOC_DIMS.index(m)].start] = -1.0  # u0 < 0 <= ||u1||
            with pytest.raises(np.linalg.LinAlgError, match="NT scaling breakdown"):
                stack.update_scaling(u["s"], u["z"])


class _PerBlockScaling:
    """The NT scaling and scaled-space algebra of one PSD block, as the
    solver computed them block by block before the padded stack: the
    stack's oracle."""

    def __init__(self, co):
        self.sv, self.dim = co.sv, co.dim

    def update_scaling(self, s, z):
        Ls = np.linalg.cholesky(self.sv.smat(s))
        Lz = np.linalg.cholesky(self.sv.smat(z))
        U, sig, Vt = np.linalg.svd(Lz.T @ Ls)
        if sig.min() <= 0:
            raise np.linalg.LinAlgError("NT scaling breakdown")
        sig_isqrt = 1.0 / np.sqrt(sig)
        self.R = Ls @ Vt.T * sig_isqrt
        self.Rinv = (sig_isqrt[:, None] * U.T) @ Lz.T
        self.lam = sig

    def W_z(self, z):
        return self.sv.svec(self.R.T @ self.sv.smat(z) @ self.R)

    def WT_u(self, u):
        return self.sv.svec(self.R @ self.sv.smat(u) @ self.R.T)

    def scaled_rhs(self, bz):
        Bt = _symmetrized(self.Rinv @ self.sv.smat(bz) @ self.Rinv.T)
        return self.sv.svec(self.Rinv.T @ Bt @ self.Rinv), Bt

    def scaled_dz(self, gx, Bt):
        D = _symmetrized(self.Rinv @ self.sv.smat(gx) @ self.Rinv.T) - Bt
        return self.sv.svec(self.Rinv.T @ D @ self.Rinv)

    def jprod(self, u, v):
        U, V = self.sv.smat(u), self.sv.smat(v)
        return self.sv.svec(0.5 * (U @ V + V @ U))

    def lam_solve(self, rhs_mat):
        return self.sv.svec(rhs_mat / (0.5 * (self.lam[:, None] + self.lam[None, :])))

    def q_comb(self, us, uz, sigma_mu):
        return self.lam_solve(np.diag(self.lam ** 2) + self.sv.smat(self.jprod(us, uz))
                              - sigma_mu * np.eye(self.dim))

    def max_step(self, d_scaled):
        isq = 1.0 / np.sqrt(self.lam)
        w = np.linalg.eigvalsh(isq[:, None] * self.sv.smat(d_scaled) * isq[None, :])
        return np.inf if w[0] >= 0 else -1.0 / w[0]


def _symmetrized(M):
    return 0.5 * (M + M.T)


def _random_pd(rng, n, spread):
    """A random positive definite n x n matrix with eigenvalues in [10^-spread, 1]."""
    Q = np.linalg.qr(rng.standard_normal((n, n)))[0]
    return (Q * 10.0 ** rng.uniform(-spread, 0.0, n)) @ Q.T


@pytest.mark.parametrize("dims", [(1, 1, 1, 1), (5, 5, 5), (1, 24, 30, 39), (6, 7, 7, 8, 10)],
                         ids=["all-1x1", "equal", "tensegrity-like", "random-designs-like"])
class TestPsdStack:
    """The padded stack's NT scaling and scaled-space operators agree with
    the per-block ones on every block."""

    @staticmethod
    def _setup(dims, seed):
        rng = np.random.default_rng(seed)
        nv = 6
        blocks = []
        for n in dims:
            C = rng.standard_normal((nv, n, n))
            blocks.append(dense_block(F0=np.eye(n), var_idx=np.arange(nv),
                                      coefs=C + np.transpose(C, (0, 2, 1))))
        [stack] = sdp._cones(SdpProblem(num_vars=nv, c=np.zeros(nv), blocks=blocks))
        return rng, stack, [_PerBlockScaling(co) for co in stack.blocks]

    def test_scaling_and_operators_match_per_block(self, dims):
        rng, stack, refs = self._setup(dims, sum(dims))
        nv, N = 6, max(dims)
        parts = [co.part for co in stack.blocks]
        for trial in range(6):
            spread = 0.5 + 0.5 * trial  # condition numbers up to 10^3 in S and in Z
            s, z = (np.concatenate([co.sv.svec(_random_pd(rng, co.dim, spread))
                                    for co in stack.blocks]) for _ in range(2))
            stack.update_scaling(s, z)
            for ref, p in zip(refs, parts):
                ref.update_scaling(s[p], z[p])
            assert stack.lam.shape == stack.R.shape[:2] == stack.Rinv.shape[:2] == (len(dims), N)
            # R is unique up to an orthogonal factor on the right, which the
            # two SVDs may choose differently (the signs of the singular
            # vectors): O maps the reference's scaled coordinates to the
            # stack's, X -> O X O'
            Os, cond = [], 1.0
            for j, (ref, n) in enumerate(zip(refs, dims)):
                c = np.linalg.cond(ref.R) ** 2
                cond = max(cond, c)
                R, Rinv = stack.R[j, :n, :n], stack.Rinv[j, :n, :n]
                assert np.allclose(stack.lam[j, :n], ref.lam, rtol=1e-12 * c, atol=0.0)
                assert np.array_equal(stack.lam[j, n:], np.ones(N - n))
                for M in (stack.R[j], stack.Rinv[j]):
                    # exactly zero across every real/pad boundary
                    assert not M[:n, n:].any() and not M[n:, :n].any()
                # the NT scaling point W = R R' and its inverse are unique
                for got, want in ((R @ R.T, ref.R @ ref.R.T), (Rinv.T @ Rinv, ref.Rinv.T @ ref.Rinv)):
                    assert np.linalg.norm(got - want) <= 1e-12 * c * np.linalg.norm(want)
                Os.append(Rinv @ ref.R)

            def close(got, want):
                return np.linalg.norm(got - want) <= 1e-12 * cond * np.linalg.norm(want)

            def to_stack(vecs):
                """Reference scaled vectors in the stack's coordinates."""
                return np.concatenate([ref.sv.svec(O @ ref.sv.smat(v) @ O.T)
                                       for ref, O, v in zip(refs, Os, vecs)])

            def to_ref(v):
                """A stack scaled vector in each reference's coordinates."""
                return [ref.sv.svec(O.T @ ref.sv.smat(v[p]) @ O)
                        for ref, O, p in zip(refs, Os, parts)]

            d, u, bz, us, uz = rng.standard_normal((5, stack.sdim))
            assert close(stack.W_z(d), to_stack([ref.W_z(d[p]) for ref, p in zip(refs, parts)]))
            assert close(stack.WT_u(u), np.concatenate([ref.WT_u(v) for ref, v in zip(refs, to_ref(u))]))
            G = sdp._G([stack], nv)
            v, Bt = stack.scaled_rhs(bz)
            v_ref, Bt_ref = zip(*(ref.scaled_rhs(bz[p]) for ref, p in zip(refs, parts)))
            assert close(G.T @ v, G.T @ np.concatenate(v_ref))
            for j, (B, O, n) in enumerate(zip(Bt_ref, Os, dims)):
                assert close(Bt[j, :n, :n], O @ B @ O.T)
            gx = G @ rng.standard_normal(nv)
            assert close(stack.scaled_dz(gx, Bt),
                         np.concatenate([ref.scaled_dz(gx[p], B) for ref, B, p in zip(refs, Bt_ref, parts)]))
            assert close(stack.q_comb(us, uz, 0.3),
                         to_stack([ref.q_comb(a, b, 0.3)
                                   for ref, a, b in zip(refs, to_ref(us), to_ref(uz))]))
            for dd in (us, uz):
                want = min(ref.max_step(v) for ref, v in zip(refs, to_ref(dd)))
                assert stack.max_step(dd, dd) == pytest.approx(want, rel=1e-10)
            # a direction inside the cone in every block: no boundary
            inside = np.concatenate([co.sv.svec(_random_pd(rng, co.dim, 1.0))
                                     for co in stack.blocks])
            assert stack.max_step(inside, inside) == np.inf
            # both directions at once give the smaller of their step
            # lengths, bit for bit
            for a, b in ((us, uz), (uz, us), (us, inside), (inside, uz)):
                assert stack.max_step(a, b) == min(_stack_step(stack, a), _stack_step(stack, b))

    def test_breakdown_in_any_block(self, dims):
        _, stack, _ = self._setup(dims, 1)
        s = stack.identity()
        z = s.copy()
        z[stack.blocks[-1].part] *= -1.0  # the last block's Z is not positive definite
        with pytest.raises(np.linalg.LinAlgError):
            stack.update_scaling(s, z)


class TestProblemContainer:
    def test_bad_block_reference(self):
        block = dense_block(F0=[[0.0]], var_idx=[3], coefs=[[[1.0]]])
        with pytest.raises(ValueError):
            SdpProblem(num_vars=1, c=[0.0], blocks=[block])

    def test_asymmetric_block_rejected(self):
        with pytest.raises(ValueError, match="exactly symmetric"):
            LmiBlock(F0=[[0.0, 1.0], [0.0, 0.0]], var_idx=[], upper=([], [], [], []))

    def test_upper_triplets_checked(self):
        block = LmiBlock(F0=np.eye(2), var_idx=[0], upper=([0], [0], [1], [2.0]))
        assert np.array_equal(block.coefs, [[[0.0, 2.0], [2.0, 0.0]]])
        for bad in [([0], [1], [0], [2.0]),  # lower triangle
                    ([0], [0], [1], [0.0]),  # zero
                    ([0, 0], [0, 0], [1, 1], [1.0, 1.0]),  # repeated
                    ([1], [0], [1], [1.0])]:  # no such slice
            with pytest.raises(ValueError, match="upper triplets"):
                LmiBlock(F0=np.eye(2), var_idx=[0], upper=bad)

    def test_repeated_scalar_rejected(self):
        # |x - 3| <= 1 with x listed twice, each with half its coefficient:
        # the sum of the two is the one-entry cone, whose optimum is x = 2
        once = SocBlock(f0=[1.0, -3.0], var_idx=[0], coefs=[[0.0, 1.0]])
        assert solve_sdp(SdpProblem(num_vars=1, c=[1.0], blocks=[], socs=[once])).x[0] == \
            pytest.approx(2.0, abs=1e-6)
        twice = SocBlock(f0=[1.0, -3.0], var_idx=[0, 0], coefs=[[0.0, 0.5], [0.0, 0.5]])
        with pytest.raises(ValueError, match="repeats a scalar"):
            SdpProblem(num_vars=1, c=[1.0], blocks=[], socs=[twice])
        block = dense_block(F0=[[0.0, 1.0], [1.0, 0.0]], var_idx=[0, 0],
                            coefs=[0.5 * np.eye(2)] * 2)
        with pytest.raises(ValueError, match="repeats a scalar"):
            SdpProblem(num_vars=1, c=[1.0], blocks=[block])

    def test_dump_triplets_deterministic(self, tmp_path):
        prob = det_problem()
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        prob.dump_triplets(p1)
        prob.dump_triplets(p2)
        assert p1.read_bytes() == p2.read_bytes()
        text = p1.read_text()
        assert "-1 0 0 0 1" in text  # objective entry

    def test_dump_lists_every_cone_entry(self, monkeypatch, tmp_path):
        plant = random_plant(np.random.default_rng(11), nx=3, nu=2, nw=2, nz=2, ny=2)
        _, _, prob, _ = compiled_design(monkeypatch, synth_joint, JointSpec(
            plant=plant, performance_kind="h2", gamma0=5.0))
        p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
        prob.dump_triplets(p1)
        prob.dump_triplets(p2)
        assert p1.read_bytes() == p2.read_bytes()
        lines = [line.split() for line in p1.read_text().splitlines()]
        assert {len(f) for f in lines if int(f[0]) < len(prob.blocks)} == {5}
        got = {(int(f[0]), int(f[1]), int(f[3])): float(f[4]) for f in lines if len(f) == 6}
        assert all(f[5] == "q" and f[2] == "0" for f in lines if len(f) == 6)
        want = {}
        for j, soc in enumerate(prob.socs, start=len(prob.blocks)):
            want.update({(j, r, -1): soc.f0[r] for r in np.flatnonzero(soc.f0)})
            for vi, row in zip(soc.var_idx, soc.coefs):
                want.update({(j, r, vi): row[r] for r in np.flatnonzero(row)})
        assert len(prob.socs) == plant.nu + plant.ny and got == want


class TestEmptyShapes:
    """Blocks without variables and problems without blocks go through the
    same algebra as every other problem."""

    @pytest.mark.parametrize("F0", [-np.eye(2), np.diag([1.0, -1.0])])
    def test_block_without_variables_is_enforced(self, F0):
        constant = dense_block(F0=F0, var_idx=np.zeros(0, dtype=int), coefs=np.zeros((0, 2, 2)))
        prob = SdpProblem(num_vars=1, c=[1.0], blocks=[det_problem().blocks[0], constant])
        sol = solve_sdp(prob)
        assert sol.status == "infeasible"
        # the certificate puts its weight on the constant block
        assert np.trace(sol.block_duals[1]) > 0.4

    def test_block_without_variables_is_checked(self):
        constant = dense_block(F0=2 * np.eye(2), var_idx=np.zeros(0, dtype=int),
                               coefs=np.zeros((0, 2, 2)))
        prob = SdpProblem(num_vars=1, c=[1.0], blocks=[det_problem().blocks[0], constant])
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
        assert np.array_equal(constant.evaluate(sol.x), 2 * np.eye(2))
        rep = check_certificate(prob, sol)
        assert rep.clean, rep.flags
        assert rep.psd_min_eigs[1] == 2.0

    @pytest.mark.parametrize("f0, status", [([2.0, 1.0], "optimal"), ([1.0, 2.0], "infeasible")])
    def test_cone_without_variables(self, f0, status):
        constant = SocBlock(f0=f0, var_idx=np.zeros(0, dtype=int), coefs=np.zeros((0, 2)))
        prob = SdpProblem(num_vars=1, c=[1.0], blocks=det_problem().blocks, socs=[constant])
        sol = solve_sdp(prob)
        assert sol.status == status
        if status == "optimal":
            assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
            assert check_certificate(prob, sol).clean
        else:
            # the certificate puts its weight on the constant cone
            assert sol.soc_duals[0][0] > 0.4

    def test_problem_without_variables(self):
        def constant(F0):
            return SdpProblem(num_vars=0, c=np.zeros(0), blocks=[
                dense_block(F0=F0, var_idx=np.zeros(0, dtype=int), coefs=np.zeros((0, 2, 2)))])

        sol = solve_sdp(constant(np.eye(2)))
        assert (sol.status, sol.message, sol.x.shape) == ("optimal", "converged", (0,))
        sol = solve_sdp(constant(-np.eye(2)))
        assert (sol.status, sol.message) == ("infeasible", "dual improving ray found")

    def test_problem_without_blocks(self):
        sol = solve_sdp(SdpProblem(num_vars=2, c=[0.0, 0.0], blocks=[]))
        assert (sol.status, sol.message, sol.iterations) == ("optimal", "converged", 1)
        assert np.array_equal(sol.x, np.zeros(2)) and sol.block_duals == []
        sol = solve_sdp(SdpProblem(num_vars=2, c=[1.0, 0.0], blocks=[]))
        assert (sol.status, sol.message, sol.iterations) == \
            ("unbounded", "primal improving ray found", 2)
        assert np.array_equal(sol.x, [-1.0, 0.0])


def _random_scaling(problem, seed, cones=None):
    """The problem's cones, new or the given ones, at the NT scaling of
    random strictly interior s, z."""
    rng = np.random.default_rng(seed)
    cones = sdp._cones(problem) if cones is None else cones
    for co in cones:
        if isinstance(co, sdp._SocStack):
            s, z = ([_interior_soc(rng, p.stop - p.start) for p in _soc_parts(co)] for _ in range(2))
        else:
            s, z = [], []
            for blk in co.blocks:
                n = blk.dim
                S, Z = (B @ B.T + n * np.eye(n) for B in rng.standard_normal((2, n, n)))
                s.append(blk.sv.svec(S))
                z.append(blk.sv.svec(Z))
        co.update_scaling(np.concatenate(s), np.concatenate(z))
    return cones


def _per_block(cones):
    """(cone, Rinv) of every PSD block, each Rinv its corner of the stack's,
    and (cone, None) of every second-order cone, with the cone's part of the
    stacked vectors and its dense W, built from the stack's w and eta."""
    out = []
    for co in cones:
        if isinstance(co, sdp._SocStack):
            _, w_cols, _, eta = co.nt[0]
            for j, p in enumerate(_soc_parts(co)):
                w = w_cols[j, :p.stop - p.start, 0]
                W = np.outer(w, w) / (1.0 + w[0])
                W.flat[::len(w) + 1] += 1.0
                W[0] = W[:, 0] = w
                out.append((SimpleNamespace(part=p, W=eta[j, 0, 0] * W), None))
        else:
            out.extend((blk, Rinv[:blk.dim, :blk.dim]) for blk, Rinv in zip(co.blocks, co.Rinv))
    return out


def _reference_scaling(co, Rinv, blk):
    """W^-T G of one cone, (d, k), and its maps v -> W^-T v and v -> W^-1 v.

    A PSD block conjugates every slice with Rinv; a second-order cone
    inverts its symmetric W."""
    if Rinv is None:
        Wi = np.linalg.inv(co.W)
        return -Wi @ blk.coefs.T, (lambda v: Wi @ v), (lambda v: Wi @ v)
    Tsc = Rinv @ blk.coefs @ Rinv.T
    return (-(Tsc[:, co.sv.rows, co.sv.cols] * co.sv.w).T,
            lambda v: co.sv.svec(Rinv @ co.sv.smat(v) @ Rinv.T),
            lambda v: co.sv.svec(Rinv.T @ co.sv.smat(v) @ Rinv))


def _reference_newton(problem, cones, bx, bz):
    """H and solve3 from the dense scaled coefficients of every cone."""
    n = problem.num_vars
    per_block = _per_block(cones)
    blocks = problem.blocks + problem.socs
    refs = [_reference_scaling(co, Rinv, blk) for (co, Rinv), blk in zip(per_block, blocks)]
    cones = [co for co, _ in per_block]
    H = np.zeros((n, n))
    for blk, (S, _, _) in zip(blocks, refs):
        H[np.ix_(blk.var_idx, blk.var_idx)] += S.T @ S
    kkt_solve = sdp._factor_kkt(H, 1e-12 * (1.0 + np.abs(np.diag(H)).max(initial=0.0)),
                                np.empty((n, n), order="F"))
    bz_t = [winv_t(bz[co.part]) for co, (_, winv_t, _) in zip(cones, refs)]
    rhs = bx.copy()
    for blk, (S, _, _), v in zip(blocks, refs, bz_t):
        rhs[blk.var_idx] += S.T @ v
    ux = kkt_solve(rhs)
    for _ in range(2):
        ux = ux + kkt_solve(rhs - H @ ux)
    uz = [winv(S @ ux[blk.var_idx] - v) for blk, (S, _, winv), v in zip(blocks, refs, bz_t)]
    return H, ux, np.concatenate(uz)


def _assert_newton_matches_reference(problem, seed=0):
    """The solver's H and Newton solves against the dense reference; returns
    the problem's cones, at their random scaling, and its G."""
    cones = _random_scaling(problem, seed)
    rng = np.random.default_rng(seed + 1)
    n = problem.num_vars
    G_solver = sdp._G(cones, n)
    G = G_solver.toarray() if scipy.sparse.issparse(G_solver) else G_solver
    # a direction that no block sees (the output-feedback designs have one)
    # is not determined by the Newton system; bx = G'r, like the solver's
    # residuals, has no part along it
    bx = G.T @ rng.standard_normal(len(G))
    bz = rng.standard_normal(len(G))
    H_ref, dx_ref, dz_ref = _reference_newton(problem, cones, bx, bz)
    H = sdp._schur(cones, np.zeros((n, n)))
    assert np.array_equal(H, H.T)
    assert np.linalg.norm(H - H_ref) <= 1e-10 * np.linalg.norm(H_ref)
    kkt_solve = sdp._factor_kkt(H, 1e-12 * (1.0 + np.abs(np.diag(H)).max()),
                                np.empty((n, n), order="F"))
    [(dx, dz)] = sdp._solve3(cones, G_solver, G_solver.T, H, kkt_solve, [(bx, bz)])
    assert np.linalg.norm(dz - dz_ref) <= 1e-10 * np.linalg.norm(dz_ref)
    assert np.linalg.norm(G @ (dx - dx_ref)) <= 1e-10 * np.linalg.norm(G @ dx_ref)
    eigs = np.linalg.eigvalsh(H_ref)
    if eigs[0] > 1e-12 * eigs[-1]:  # dx itself is determined
        assert np.linalg.norm(dx - dx_ref) <= 1e-10 * np.linalg.norm(dx_ref)
    # the solver solves the tau-direction and the predictor together; each
    # pair of a two-pair solve gets the bits it gets alone
    pairs = [(bx, bz), (G.T @ rng.standard_normal(len(G)), rng.standard_normal(len(G)))]
    together = sdp._solve3(cones, G_solver, G_solver.T, H, kkt_solve, pairs)
    for (ux, uz), pair in zip(together, pairs):
        [(vx, vz)] = sdp._solve3(cones, G_solver, G_solver.T, H, kkt_solve, [pair])
        assert np.array_equal(ux, vx) and np.array_equal(uz, vz)
    return cones, G_solver


# the joint designs whose largest blocks keep a sparse Gu: the tensegrity
# demo's and the chain prune's first solves
BENCHMARK_PROBLEMS = [(bench.TensegrityApprox(), "h2", 0.42), (bench.MassSpringChain(5), "hinf", 100.0)]


def _benchmark_problem(monkeypatch, family, kind, gamma0):
    return compiled_design(monkeypatch, synth_joint, JointSpec(
        plant=family.build(), performance_kind=kind, gamma0=gamma0))[2]


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

    @pytest.mark.parametrize("family, kind, gamma0", BENCHMARK_PROBLEMS)
    def test_benchmark_problems_cover_both_forms(self, monkeypatch, family, kind, gamma0):
        problem = _benchmark_problem(monkeypatch, family, kind, gamma0)
        cones, G = _assert_newton_matches_reference(problem)
        assert [type(co) for co in cones] == [sdp._PsdStack, sdp._SocStack]
        blocks = cones[0].blocks
        sparse_gu = {scipy.sparse.issparse(co.Gu) for co in blocks}
        assert sparse_gu == {True, False}
        # the problem's G is sparse if and only if some block's Gu is
        assert scipy.sparse.issparse(G) == (True in sparse_gu)
        # a PSD block adds its part of H by slices over runs of variables or
        # by one gather: the tensegrity problem's blocks take both branches,
        # the chain problem's only the slices
        placements = {type(co.hsel[0][0][0]) for co in blocks}
        assert placements == ({slice, np.ndarray} if isinstance(family, bench.TensegrityApprox)
                              else {slice})

    def test_zero_slices(self):
        prob = random_lmi_problem(6, num_vars=40, dim=12)
        blk = prob.blocks[0]
        coefs = blk.coefs.copy()
        coefs[::3] = 0.0  # slices without a nonzero
        blocks = [dense_block(F0=blk.F0, var_idx=blk.var_idx, coefs=coefs), *prob.blocks[1:]]
        _assert_newton_matches_reference(SdpProblem(num_vars=40, c=prob.c, blocks=blocks))

    def test_second_order_cones(self):
        # random dense cones beside the PSD blocks, with variables in one
        # run and in many, which share scalars: H sums their parts
        rng = np.random.default_rng(8)
        prob = random_lmi_problem(8, num_vars=40, dim=6)
        socs = [SocBlock(f0=rng.standard_normal(m), var_idx=vi, coefs=rng.standard_normal((len(vi), m)))
                for m, vi in ((7, np.arange(5, 25)), (12, np.arange(0, 40, 2)), (1, [5]))]
        problem = SdpProblem(num_vars=40, c=prob.c, blocks=prob.blocks, socs=socs)
        cones, _ = _assert_newton_matches_reference(problem)
        _assert_shares_scalars(cones[-1])

    def test_cones_sharing_scalars_without_psd_blocks(self):
        cones, _ = _assert_newton_matches_reference(cones_only_socp()[0])
        assert [type(co) for co in cones] == [sdp._SocStack]
        _assert_shares_scalars(cones[0])


def _assert_shares_scalars(stack):
    """Some entry of H gets the parts of more than one cone of the stack."""
    counts = np.bincount(stack.bins.reshape(-1))[:-1]
    assert len(counts) == len(stack.hpos) and counts.max() > 1


def _allocating_schur(cones, n):
    """The Schur complement with every PSD block's part formed by
    allocating expressions, X = Gu (Gu M)' added as X + X', and the
    second-order cones' by their stack."""
    H = np.zeros((n, n))
    for stack in cones:
        if isinstance(stack, sdp._SocStack):
            stack.add_schur(H)
            continue
        for co, Rinv in zip(stack.blocks, stack.Rinv):
            Rinv = Rinv[:co.dim, :co.dim]
            W = Rinv.T @ Rinv
            WP, WQ = W[:, co.P], W[:, co.Q]
            M = WP[co.P] * WQ[co.Q]
            M += WQ[co.P] * WP[co.Q]
            X = co.Gu @ (co.Gu @ M).T
            co.add_to(H, X + X.T)
    return H


@pytest.mark.parametrize("family, kind, gamma0", BENCHMARK_PROBLEMS)
class TestSchurWorkspace:
    """The sparse blocks form their Schur part in the stack's workspace,
    with the bits of the allocating expressions and without their
    temporaries."""

    def test_same_bits_as_allocating_products(self, monkeypatch, family, kind, gamma0):
        # two consecutive assemblies at different scalings: contents that the
        # first leaves in the workspace would show in the second
        problem = _benchmark_problem(monkeypatch, family, kind, gamma0)
        n = problem.num_vars
        cones = sdp._cones(problem)
        H = np.zeros((n, n))
        for seed in (0, 1):
            _random_scaling(problem, seed, cones)
            assert np.array_equal(sdp._schur(cones, H), _allocating_schur(cones, n))

    def test_kernel_is_the_one_of_the_sparse_product(self, monkeypatch, family, kind, gamma0):
        # csr_matvecs with C-order operands is what Gu @ M runs; pinned bit
        # for bit, so that a scipy that changes either shows here
        rng = np.random.default_rng(2)
        sparse = [co for co in sdp._cones(_benchmark_problem(monkeypatch, family, kind, gamma0))[0].blocks
                  if co.sparse]
        assert sparse
        for co in sparse:
            Gu = co.Gu
            k, m = Gu.shape
            for cols in (m, k):
                V = rng.standard_normal((m, cols))
                out = np.zeros(k * cols)
                co.matvecs(k, m, cols, Gu.indptr, Gu.indices, Gu.data, V.ravel(), out)
                assert np.array_equal(out.reshape(k, cols), Gu @ V)

    def test_no_temporary_of_the_size_of_M(self, monkeypatch, family, kind, gamma0):
        # each sparse block's assembly, measured alone: the dense blocks keep
        # their allocating expressions, which on the chain problem's 25 x 25
        # dense block hold an M of the sparse one's size. numpy gives every
        # strided ufunc call, such as the placement H[a, b] += X[c, d], an
        # iteration buffer of getbufsize() = 8,192 doubles per operand,
        # whatever the arrays' size: 196,608 bytes, more than the chain's
        # m^2 = 155^2 doubles. It is set small here, so that the bound reads
        # the assembly's own arrays.
        problem = _benchmark_problem(monkeypatch, family, kind, gamma0)
        n = problem.num_vars
        cones = _random_scaling(problem, 0)
        H = sdp._schur(cones, np.zeros((n, n)))
        sparse = [(co, Rinv) for co, Rinv in _per_block(cones) if Rinv is not None and co.sparse]
        assert sparse
        bufsize = np.setbufsize(256)
        try:
            peaks = [(allocation_peak(co.add_schur, H, Rinv), co.Gu.shape[1]) for co, Rinv in sparse]
        finally:
            np.setbufsize(bufsize)
        for peak, m in peaks:
            assert peak < m * m * H.itemsize


@pytest.mark.parametrize("case", COMPILE_CASES)
def test_G_stacks_every_cone(monkeypatch, case):
    """The solver's G is the one assembled from each LmiBlock's triplets
    and each SocBlock's coefficients, over the cones' consecutive parts."""
    make, args = case
    _, _, problem, _ = compiled_design(monkeypatch, *make(*args))
    cones = sdp._cones(problem)
    G = sdp._G(cones, problem.num_vars)
    want = np.zeros((sum(co.sdim for co in cones), problem.num_vars))
    row = 0
    for blk in problem.blocks:
        n = blk.dim
        svec_index = np.zeros((n, n), dtype=int)
        svec_index[np.triu_indices(n)] = np.arange(n * (n + 1) // 2)
        weight = np.where(blk.rows == blk.cols, 1.0, np.sqrt(2.0))
        want[row + svec_index[blk.rows, blk.cols], blk.var_idx[blk.slices]] = -blk.vals * weight
        row += n * (n + 1) // 2
    for soc in problem.socs:
        want[row:row + soc.dim, soc.var_idx] = -soc.coefs.T
        row += soc.dim
    assert scipy.sparse.issparse(G) == any(scipy.sparse.issparse(co.Gu) for co in cones[0].blocks)
    if scipy.sparse.issparse(G):
        G = G.toarray()
    else:
        # BLAS's summation order in the products with G, and so each
        # solve's rounding, follows the layout: with a row-major G the
        # half-space SOCP of TestSecondOrderCones, whose pres ends within
        # 25% of FEAS_TOL, stops as stalled instead of converging
        assert G.flags.f_contiguous
    assert np.array_equal(G, want)


def _hinf_sf_problem(monkeypatch):
    """A 9-variable state-feedback H-infinity design that stalls."""
    plant = random_plant(np.random.default_rng(0), nx=2)
    # 1.3 times the open-loop H-infinity norm plus 0.1, with the norm as the
    # Hamiltonian bisection gave it (7.453955...): pinned, because the
    # level-set value (7.453965...) gives a problem that converges instead
    # of stalling
    gamma0 = 9.790142461516954
    return compiled_design(monkeypatch, synth_sf, SfSynthesisSpec(
        plant=plant, performance_kind="hinf", gamma0=gamma0))[2]


def _chain_problem(monkeypatch):
    """The joint H-infinity design of the chain-prune benchmark's first solve."""
    return _benchmark_problem(monkeypatch, *BENCHMARK_PROBLEMS[1])


def _solve_without_stall_stop(monkeypatch, problem):
    with monkeypatch.context() as m:
        m.setattr(sdp, "STALL_ITERS", sdp.MAX_ITER)
        return solve_sdp(problem)


def _assert_same_answer(a, b):
    assert a.status == b.status
    assert np.array_equal(a.x, b.x)
    assert len(a.block_duals) == len(b.block_duals) and len(a.soc_duals) == len(b.soc_duals)
    for u, v in zip(a.block_duals + a.soc_duals, b.block_duals + b.soc_duals):
        assert np.array_equal(u, v)


class TestStallStop:
    """A solve that stops as stalled returns the iterate that it returns
    when it goes on until a scaling breaks down."""

    @pytest.mark.parametrize("build", [_hinf_sf_problem, _chain_problem])
    def test_stalled_solve_returns_its_best_iterate(self, monkeypatch, build):
        problem = build(monkeypatch)
        stopped = solve_sdp(problem)
        full = _solve_without_stall_stop(monkeypatch, problem)
        assert stopped.message == "converged at reduced accuracy (stalled)"
        assert full.message == "converged at reduced accuracy (NT scaling breakdown)"
        assert stopped.iterations < full.iterations
        _assert_same_answer(stopped, full)

    @pytest.mark.parametrize("build, message", [
        (lambda: distance_socp(TestSecondOrderCones.A, TestSecondOrderCones.G, beta=4.0),
         "converged"),
        (lambda: distance_socp(TestSecondOrderCones.A, TestSecondOrderCones.G, beta=4.0,
                               t_max=0.1),
         "dual improving ray found"),
        (lambda: SdpProblem(num_vars=1, c=[1.0], blocks=[
            dense_block(F0=[[0.0]], var_idx=[0], coefs=[[[-1.0]]])]),
         "primal improving ray found"),
    ], ids=["converged", "infeasible", "unbounded"])
    def test_other_exits_unchanged(self, monkeypatch, build, message):
        problem = build()
        stopped = solve_sdp(problem)
        full = _solve_without_stall_stop(monkeypatch, problem)
        assert stopped.message == full.message == message
        assert stopped.iterations == full.iterations
        _assert_same_answer(stopped, full)


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


class TestSolveLog:
    def test_one_debug_record_per_solve(self, caplog):
        with caplog.at_level(logging.DEBUG, logger="sparsact"):
            sol = solve_sdp(det_problem())
        [rec] = caplog.records
        assert (rec.name, rec.levelno) == ("sparsact", logging.DEBUG)
        text = rec.getMessage()
        for part in (sol.status, sol.message, f"{sol.iterations} iterations",
                     f"pres {sol.pres:.3e}", f"dres {sol.dres:.3e}", f"gap {sol.gap:.3e}", "schur"):
            assert part in text

    def test_silent_above_debug(self, caplog):
        with caplog.at_level(logging.INFO, logger="sparsact"):
            solve_sdp(det_problem())
        assert not caplog.records
