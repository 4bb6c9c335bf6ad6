import dataclasses

import numpy as np
import pytest

from conftest import random_plant
from sparsact import lmi
from sparsact.errors import ModelingError
from sparsact.joint import JointSpec, synth_joint
from sparsact.outputfb import synth_of
from sparsact.sdp import solve_sdp
from sparsact.statefb import SfSynthesisSpec, synth_sf


def rand_assignment(rng, *variables):
    out = {}
    for v in variables:
        M = rng.standard_normal(v.shape)
        if v.structure == "symmetric":
            M = 0.5 * (M + M.T)
        elif v.structure == "diagonal":
            M = np.diag(np.diag(M))
        out[v] = M
    return out


class TestExprAlgebra:
    def test_affine_term_evaluation(self):
        rng = np.random.default_rng(0)
        A = rng.standard_normal((3, 3))
        X = lmi.MatVar("X", (3, 3), "symmetric")
        W = lmi.MatVar("W", (2, 3))
        expr = A @ X + X @ A.T + lmi.const(np.eye(3)) + 0.0 * (W.T @ np.ones((2, 3)))
        vals = rand_assignment(rng, X, W)
        got = lmi.evaluate(expr, vals)
        assert got == pytest.approx(A @ vals[X] + vals[X] @ A.T + np.eye(3))

    def test_transpose_and_scaling(self):
        rng = np.random.default_rng(1)
        W = lmi.MatVar("W", (2, 3))
        L = rng.standard_normal((4, 2))
        expr = 2.0 * (L @ W).T - lmi.const(np.ones((3, 4)))
        vals = rand_assignment(rng, W)
        assert lmi.evaluate(expr, vals) == pytest.approx(
            2.0 * (L @ vals[W]).T - np.ones((3, 4)))

    def test_row_col_selectors(self):
        rng = np.random.default_rng(2)
        W = lmi.MatVar("W", (3, 4))
        vals = rand_assignment(rng, W)
        assert lmi.evaluate(W.row(1), vals) == pytest.approx(vals[W][1:2, :])
        assert lmi.evaluate(W.col(2), vals) == pytest.approx(vals[W][:, 2:3])

    def test_sym_operator(self):
        rng = np.random.default_rng(3)
        A = rng.standard_normal((3, 3))
        X = lmi.MatVar("X", (3, 3), "symmetric")
        vals = rand_assignment(rng, X)
        M = A @ vals[X]
        assert lmi.evaluate(lmi.sym(A @ X), vals) == pytest.approx(M + M.T)

    def test_trace_operator(self):
        rng = np.random.default_rng(4)
        Z = lmi.MatVar("Z", (3, 3), "symmetric")
        vals = rand_assignment(rng, Z)
        got = lmi.evaluate(lmi.trace(Z), vals)
        assert got.shape == (1, 1)
        assert got[0, 0] == pytest.approx(np.trace(vals[Z]))

    def test_bilinear_product_rejected(self):
        X = lmi.MatVar("X", (2, 2), "symmetric")
        W = lmi.MatVar("W", (2, 2))
        with pytest.raises(ModelingError):
            _ = X @ W

    def test_shape_mismatch_rejected(self):
        X = lmi.MatVar("X", (2, 2), "symmetric")
        with pytest.raises((ModelingError, ValueError)):
            _ = X + lmi.const(np.eye(3))


class TestBmat:
    def test_mirror_fill(self):
        rng = np.random.default_rng(6)
        X = lmi.MatVar("X", (2, 2), "symmetric")
        W = lmi.MatVar("W", (1, 2))
        vals = rand_assignment(rng, X, W)
        B = lmi.bmat([
            [-1.0 * X, W.T],
            [None, lmi.const(-np.eye(1))],
        ])
        got = lmi.evaluate(B, vals)
        expect = np.block([
            [-vals[X], vals[W].T],
            [vals[W], -np.eye(1)],
        ])
        assert got == pytest.approx(expect)

    def test_full_grid(self):
        rng = np.random.default_rng(7)
        W = lmi.MatVar("W", (2, 2))
        vals = rand_assignment(rng, W)
        B = lmi.bmat([[W, lmi.const(np.eye(2))], [lmi.const(2 * np.eye(2)), W.T]])
        assert lmi.evaluate(B, vals) == pytest.approx(np.block(
            [[vals[W], np.eye(2)], [2 * np.eye(2), vals[W].T]]))


class TestCompileAndSolve:
    def test_lyapunov_feasibility(self):
        A = np.array([[-1.0, 2.0], [0.0, -3.0]])
        X = lmi.MatVar("X", (2, 2), "symmetric")
        cons = [lmi.pos_def(X), lmi.neg_def(lmi.sym(A @ X)),
                lmi.neg_semidef(lmi.trace(X) - 10.0 * np.eye(1))]
        prob, vm = lmi.compile_lmis([X], cons, objective=-1.0 * lmi.trace(X))
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        Xv = vm.value(sol.x, X)
        assert np.linalg.eigvalsh(Xv)[0] > 0
        S = A @ Xv + Xv @ A.T
        assert np.linalg.eigvalsh(0.5 * (S + S.T))[-1] < 0
        assert np.trace(Xv) == pytest.approx(10.0, rel=1e-5)

    def test_strict_margin_enforced(self):
        # minimizing a strictly positive scalar leaves the shifted margin
        t = lmi.MatVar("t", (1, 1), "scalar")
        prob, vm = lmi.compile_lmis([t], [lmi.pos_def(t)], objective=t.as_expr())
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert vm.value(sol.x, t)[0, 0] > 0

    def test_nonsymmetric_inequality_rejected(self):
        W = lmi.MatVar("W", (2, 2))
        with pytest.raises(ModelingError):
            lmi.compile_lmis([W], [lmi.neg_def(W)])

    def test_objective_must_be_scalar(self):
        X = lmi.MatVar("X", (2, 2), "symmetric")
        with pytest.raises(ModelingError):
            lmi.compile_lmis([X], [lmi.pos_def(X)], objective=X.as_expr())

    def test_second_order_cone(self):
        # min t s.t. ||W' a - b|| <= t, a 2-norm regression with its optimum
        # at the least-squares solution
        rng = np.random.default_rng(5)
        W = lmi.MatVar("W", (3, 1))
        t = lmi.MatVar("t", (1, 1), "scalar")
        A, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 1))
        con = lmi.soc(t, A @ W - b)
        prob, vm = lmi.compile_lmis([W, t], [con], objective=t.as_expr())
        assert prob.blocks == [] and len(prob.socs) == 1 and prob.socs[0].dim == 6
        x = rng.standard_normal(prob.num_vars)
        assert prob.socs[0].evaluate(x) == pytest.approx(
            lmi.evaluate(con.expr, vm.assignment(x)).ravel())
        sol = solve_sdp(prob)
        w_ls, res, *_ = np.linalg.lstsq(A, b, rcond=None)
        assert sol.message == "converged"
        assert vm.value(sol.x, W) == pytest.approx(w_ls, abs=1e-6)
        assert sol.objective == pytest.approx(np.sqrt(res[0]), rel=1e-7)

    def test_soc_shapes_checked(self):
        t = lmi.MatVar("t", (1, 1), "scalar")
        with pytest.raises(ModelingError):
            lmi.soc(t, lmi.MatVar("V", (1, 2)))
        with pytest.raises(ModelingError):
            lmi.soc(lmi.MatVar("T", (2, 1)), np.ones((2, 1)))

    def test_diagonal_structure(self):
        G = lmi.MatVar("G", (2, 2), "diagonal")
        assert G.num_scalars == 2
        cons = [lmi.pos_semidef(G - lmi.const(np.diag([2.0, 3.0])))]
        prob, vm = lmi.compile_lmis([G], cons, objective=lmi.trace(G))
        sol = solve_sdp(prob)
        assert vm.value(sol.x, G) == pytest.approx(np.diag([2.0, 3.0]), abs=1e-7)


class TestVarMap:
    def test_symmetric_round_trip(self):
        rng = np.random.default_rng(8)
        X = lmi.MatVar("X", (3, 3), "symmetric")
        prob, vm = lmi.compile_lmis([X], [lmi.pos_semidef(X)])
        M = rng.standard_normal((3, 3))
        M = M @ M.T
        x = np.zeros(prob.num_vars)
        # scatter entries through the variable's storage order and read back
        for idx, (i, j) in enumerate(X.entry_pairs()):
            x[vm.offsets[X] + idx] = M[i, j]
        assert vm.value(x, X) == pytest.approx(M)


class _Compiled(Exception):
    """Raised by the capturing compile_lmis to stop a design before its solve."""


def compiled_design(monkeypatch, synthesize, spec):
    """(variables, constraints, problem, varmap) that a design compiles."""
    captured = []
    compile_lmis = lmi.compile_lmis

    def capture(variables, constraints, objective=None):
        problem, vm = compile_lmis(variables, constraints, objective=objective)
        captured.append((list(variables), list(constraints), problem, vm))
        raise _Compiled

    monkeypatch.setattr(lmi, "compile_lmis", capture)
    with pytest.raises(_Compiled):
        synthesize(spec)
    return captured[0]


DESIGNS = {"sf": (synth_sf, SfSynthesisSpec), "of": (synth_of, SfSynthesisSpec),
           "joint": (synth_joint, JointSpec)}


# A design name, optionally with a variant: per-actuator caps gamma_max, or
# a plant with disturbance-to-measurement feedthrough Dyw != 0.
CASES = sorted(DESIGNS) + ["sf-gamma_max", "of-gamma_max", "of-dyw", "joint-dyw"]


@pytest.mark.parametrize("kind", ["hinf", "h2"])
@pytest.mark.parametrize("design", CASES)
class TestCompiledDesigns:
    @pytest.fixture
    def compiled(self, monkeypatch, design, kind):
        name, _, variant = design.partition("-")
        synthesize, spec_type = DESIGNS[name]
        rng = np.random.default_rng(11)
        plant = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
        extra = {}
        if variant == "dyw":
            plant = dataclasses.replace(plant, Dyw=0.3 * rng.standard_normal((2, 2)))
        elif variant == "gamma_max":
            extra["gamma_max"] = [0.5, 4.0]
        return compiled_design(monkeypatch, synthesize, spec_type(
            plant=plant, performance_kind=kind, gamma0=5.0, **extra))

    def test_no_all_zero_slice(self, compiled):
        _, _, problem, _ = compiled
        for blk in problem.blocks + problem.socs:
            assert np.all(blk.coefs.reshape(len(blk.var_idx), -1).any(axis=1))
            assert np.all(np.diff(blk.var_idx) > 0)

    def test_blocks_evaluate_their_constraints(self, compiled, design):
        # every constraint is one LmiBlock or, a joint design's group-norm
        # bounds, one SocBlock, each in the order of the constraints
        _, constraints, problem, vm = compiled
        socs = [con for con in constraints if con.sense == "soc"]
        psd = [con for con in constraints if con.sense != "soc"]
        assert (len(psd), len(socs)) == (len(problem.blocks), len(problem.socs))
        assert len(socs) == (4 if design.startswith("joint") else 0)  # nu + ny groups
        x = np.random.default_rng(12).standard_normal(problem.num_vars)
        values = vm.assignment(x)
        for con, soc in zip(socs, problem.socs):
            u = lmi.evaluate(con.expr, values).ravel()
            assert np.linalg.norm(soc.evaluate(x) - u) <= 1e-12 * max(1.0, np.linalg.norm(u))
        for con, blk in zip(psd, problem.blocks):
            M = lmi.evaluate(con.expr, values)
            if con.sense == "neg":
                M = -M
            if con.strict:
                eps = lmi.STRICT_EPS_SCALE * (1.0 + np.linalg.norm(con.expr.constant, 2))
                M = M - eps * np.eye(M.shape[0])
            M = 0.5 * (M + M.T)
            err = np.linalg.norm(blk.evaluate(x) - M)
            assert err <= 1e-12 * max(1.0, np.linalg.norm(M))

    def test_equality_rows_evaluate_their_constraints(self, compiled, design):
        # no design has equality rows; DKhat Dyw = 0, the one there was for
        # Dyw != 0, holds by construction, and with this full-rank 2 x 2 Dyw
        # DKhat is the constant zero
        variables, constraints, problem, _ = compiled
        assert problem.eq_A.shape == (0, problem.num_vars)
        assert {c.sense for c in constraints} <= {"pos", "neg", "soc"}
        names = {v.name for v in variables}
        if design.endswith("dyw"):
            assert not any(name.startswith("DKhat") for name in names)
        elif not design.startswith("sf"):
            assert "DKhat" in names
