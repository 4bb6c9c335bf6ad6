import dataclasses

import numpy as np
import pytest
import scipy.sparse

from conftest import random_plant
from sparsact import bench, lmi, sdp
from sparsact.errors import ModelingError
from sparsact.joint import JointSpec, synth_joint
from sparsact.outputfb import synth_of
from sparsact.sdp import solve_sdp
from sparsact.statefb import SfSynthesisSpec, synth_sf


def entry_pairs(var):
    """Yield (row, col) of the variable's independent entries, in storage order."""
    return zip(*(a.tolist() for a in var.entry_index))


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


def assert_same_expr(got, want):
    """Same shape, constant bytes, terms (factors up to the sign of zero) and triplets."""
    assert got.shape == want.shape
    assert got.constant.tobytes() == want.constant.tobytes()
    assert len(got.terms) == len(want.terms)
    for a, b in zip(got.terms, want.terms):
        assert (a.var, a.transposed) == (b.var, b.transposed)
        assert np.array_equal(a.left, b.left) and np.array_equal(a.right, b.right)
    variables = list(dict.fromkeys(t.var for t in want.terms))
    offsets = lmi.VarMap(variables).offsets
    for a, b in zip(got.coefficients(offsets)[1], want.coefficients(offsets)[1]):
        assert np.array_equal(a, b)


def dense_bmat(grid):
    """The block grid as the sum of its placed cells Ei @ cell @ Fj, mirrored
    None cells transposed: the 0/1 selection products bmat must equal."""
    cells = [[lmi.Expr.wrap(grid[j][i]).T if g is None else lmi.Expr.wrap(g)
              for j, g in enumerate(row)] for i, row in enumerate(grid)]
    rdims = [row[0].shape[0] for row in cells]
    cdims = [c.shape[1] for c in cells[0]]
    roff, coff = np.cumsum([0] + rdims), np.cumsum([0] + cdims)
    out = lmi.const(np.zeros((roff[-1], coff[-1])))
    for i, row in enumerate(cells):
        Ei = np.eye(roff[-1])[:, roff[i]:roff[i + 1]]
        for j, cell in enumerate(row):
            out = out + Ei @ cell @ np.eye(coff[-1])[coff[j]:coff[j + 1]]
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
        assert lmi.evaluate(W[1:2, :], vals) == pytest.approx(vals[W][1:2, :])
        assert lmi.evaluate(W[:, 2:3], vals) == pytest.approx(vals[W][:, 2:3])

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

    def test_scalar_constant_is_not_broadcast(self):
        # a float is the 1x1 constant, not a multiple of the identity
        X = lmi.MatVar("X", (2, 2), "symmetric")
        with pytest.raises(ModelingError, match="shape mismatch"):
            _ = X + 1.0


STRUCTURES = [("symmetric", (3, 3)), ("rectangular", (2, 3)), ("diagonal", (3, 3)),
              ("diagonal", (1, 1))]


@pytest.mark.parametrize("structure, shape", STRUCTURES)
class TestVariableIsExpression:
    def test_wrap_returns_the_variable(self, structure, shape):
        X = lmi.MatVar("X", shape, structure)
        assert lmi.Expr.wrap(X) is X

    def test_one_identity_term(self, structure, shape):
        X = lmi.MatVar("X", shape, structure)
        [term] = X.terms
        assert term.var is X and not term.transposed
        assert np.array_equal(term.left, np.eye(shape[0]))
        assert np.array_equal(term.right, np.eye(shape[1]))
        assert np.array_equal(X.constant, np.zeros(shape))

    def test_evaluates_to_its_value(self, structure, shape):
        X = lmi.MatVar("X", shape, structure)
        V = rand_assignment(np.random.default_rng(3), X)[X]
        assert lmi.evaluate(X, {X: V}).tobytes() == V.tobytes()

    def test_times_identity_compiles_as_itself(self, structure, shape):
        # the Dyw = 0 path of the output-feedback DKhat = Z @ I relies on this
        X = lmi.MatVar("X", shape, structure)
        const, triplets = X.coefficients({X: 4})
        const_i, triplets_i = (X @ np.eye(shape[1])).coefficients({X: 4})
        assert np.array_equal(const, const_i)
        for a, b in zip(triplets, triplets_i):
            assert np.array_equal(a, b)


def test_variable_without_columns():
    # DKhat = Z P' when Dyw has full row rank: P and Z have no columns
    Z = lmi.MatVar("Z", (2, 0))
    assert Z.num_scalars == 0
    _, triplets = Z.coefficients({Z: 0})
    assert all(len(a) == 0 for a in triplets)
    DK = Z @ np.zeros((0, 3))
    assert np.array_equal(lmi.evaluate(DK, {Z: np.zeros((2, 0))}), np.zeros((2, 3)))


def test_selection_keeps_only_the_terms_it_reaches():
    # the projection lemma's blocks are row and column selections of a block
    # grid: a term whose new left or right factor is all zero is dropped, and
    # the selection compiles to the kept entries of the whole's triplets
    rng = np.random.default_rng(5)
    X = lmi.MatVar("X", (2, 2), "symmetric")
    Y = lmi.MatVar("Y", (2, 2), "symmetric")
    W = lmi.MatVar("W", (1, 2))
    M = lmi.bmat([[lmi.sym(rng.standard_normal((2, 2)) @ X), None, None],
                  [lmi.const(rng.standard_normal((2, 2))), lmi.sym(Y @ rng.standard_normal((2, 2))), None],
                  [W, rng.standard_normal((1, 2)) @ Y, -np.eye(1)]])
    keep = np.r_[0:2, 4:5]
    E = np.eye(5)[keep]
    S = M[keep, keep]
    assert_same_expr(S, E @ M @ E.T)
    assert S.terms and all(t.left.any() and t.right.any() for t in S.terms)
    assert {t.var for t in S.terms} == {X, W}
    offsets = lmi.VarMap([X, Y, W]).offsets
    const, (key, row, col, val) = S.coefficients(offsets)
    whole_const, (wkey, wrow, wcol, wval) = M.coefficients(offsets)
    at = np.full(5, -1)
    at[keep] = np.arange(len(keep))
    kept = (at[wrow] >= 0) & (at[wcol] >= 0)
    assert np.array_equal(const, whole_const[np.ix_(keep, keep)])
    for got, want in zip((key, row, col, val), (wkey[kept], at[wrow[kept]], at[wcol[kept]], wval[kept])):
        assert np.array_equal(got, want)


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

    def test_places_cells_as_the_selection_products(self):
        # a mirrored (None) cell, a constant cell with signed zeros, transposed
        # terms, a negated identity and a term with an all-zero factor: the
        # offsets give the triplets and constant bytes of sum Ei @ cell @ Fj
        rng = np.random.default_rng(8)
        X = lmi.MatVar("X", (2, 2), "symmetric")
        Y = lmi.MatVar("Y", (2, 2), "symmetric")
        W = lmi.MatVar("W", (1, 2))
        grid = [[lmi.sym(rng.standard_normal((2, 2)) @ X), None, None],
                [W, -np.eye(1), None],
                [lmi.const([[-0.0, 1.5], [2.0, -0.0]]), rng.standard_normal((2, 2)) @ W.T,
                 -1.0 * Y + 0.0 * X]]
        B = lmi.bmat(grid)
        assert not np.signbit(B.constant[B.constant == 0.0]).any()
        assert_same_expr(B, dense_bmat(grid))
        got, want = (lmi.compile_lmis([X, Y, W], [lmi.neg_def(b)])[0].blocks[0]
                     for b in (B, dense_bmat(grid)))
        assert got.F0.tobytes() == want.F0.tobytes()
        for name in ("var_idx", "slices", "rows", "cols", "vals"):
            assert np.array_equal(getattr(got, name), getattr(want, name))


def test_trace_is_the_sum_of_diagonal_selections():
    rng = np.random.default_rng(9)
    G = lmi.MatVar("G", (3, 3), "diagonal")
    X = lmi.MatVar("X", (3, 3), "symmetric")
    e = np.diag(rng.random(3)) @ G + rng.standard_normal((3, 3)) @ X + rng.standard_normal((3, 3))
    unit = np.eye(3)
    want = sum((unit[k:k + 1] @ e @ unit[:, k:k + 1] for k in range(3)),
               lmi.const(np.zeros((1, 1))))
    assert_same_expr(lmi.trace(e), want)
    vals = rand_assignment(rng, G, X)
    assert lmi.evaluate(lmi.trace(e), vals)[0, 0] == pytest.approx(np.trace(lmi.evaluate(e, vals)))


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
        t = lmi.MatVar("t", (1, 1), "diagonal")
        prob, vm = lmi.compile_lmis([t], [lmi.pos_def(t)], objective=t)
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
            lmi.compile_lmis([X], [lmi.pos_def(X)], objective=X)

    def test_second_order_cone(self):
        # min t s.t. ||W' a - b|| <= t, a 2-norm regression with its optimum
        # at the least-squares solution
        rng = np.random.default_rng(5)
        W = lmi.MatVar("W", (3, 1))
        t = lmi.MatVar("t", (1, 1), "diagonal")
        A, b = rng.standard_normal((5, 3)), rng.standard_normal((5, 1))
        con = lmi.soc(t, A @ W - b)
        prob, vm = lmi.compile_lmis([W, t], [con], objective=t)
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
        t = lmi.MatVar("t", (1, 1), "diagonal")
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
        for idx, (i, j) in enumerate(entry_pairs(X)):
            x[vm.offsets[X] + idx] = M[i, j]
        assert vm.value(x, X) == pytest.approx(M)

    @pytest.mark.parametrize("structure, shape", [
        ("symmetric", (4, 4)), ("rectangular", (3, 5)), ("diagonal", (4, 4)), ("diagonal", (1, 1))])
    def test_assemble_matches_entry_loop(self, structure, shape):
        var = lmi.MatVar("V", shape, structure)
        values = np.random.default_rng(9).standard_normal(var.num_scalars)
        M = np.zeros(shape)
        for k, (i, j) in enumerate(entry_pairs(var)):
            M[i, j] = values[k]
            if structure == "symmetric" and i != j:
                M[j, i] = values[k]
        assert np.array_equal(var.assemble(values), M)


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
        # DKhat = Z P' has no scalars
        variables, constraints, problem, _ = compiled
        assert problem.eq_A.shape == (0, problem.num_vars)
        assert {c.sense for c in constraints} <= {"pos", "neg", "soc"}
        counts = {v.name: v.num_scalars for v in variables}
        if design.startswith("sf"):
            assert "DKhat_Z" not in counts
        else:
            assert counts["DKhat_Z"] == (0 if design.endswith("dyw") else 2 * 2)  # nu x ny


# ---------------------------------------------------------------------------
# the sparse compile against a dense reference compile


def dense_coefficients(expr, offsets):
    """{global scalar index: coefficient matrix}, each a sum of dense outer
    products: a term's mirrored pair first, then term by term."""
    coefs = {}
    for t in expr.terms:
        base = offsets[t.var]
        L, R = t.left, t.right
        live_l = L.any(axis=0).tolist()
        live_r = R.any(axis=1).tolist()
        mirrored = t.var.structure == "symmetric"
        for k, (i, j) in enumerate(entry_pairs(t.var)):
            if t.transposed:
                i, j = j, i
            C = np.outer(L[:, i], R[j, :]) if live_l[i] and live_r[j] else None
            if mirrored and i != j and live_l[j] and live_r[i]:
                P = np.outer(L[:, j], R[i, :])
                C = P if C is None else C + P
            if C is None:
                continue
            key = base + k
            coefs[key] = coefs[key] + C if key in coefs else C
    return coefs


def dense_compile(variables, constraints, objective):
    """(c, [(F0, var_idx, (k, n, n) slices)], [(f0, var_idx, (k, m) rows)])."""
    vm = lmi.VarMap(variables)
    blocks, socs = [], []
    for con in constraints:
        cone = con.sense == "soc"
        work = -con.expr if con.sense == "neg" else con.expr
        if con.strict:
            eps = lmi.STRICT_EPS_SCALE * (1.0 + np.linalg.norm(con.expr.constant, 2))
            work = work - eps * np.eye(con.expr.shape[0])
        constant, coefs = work.constant, dense_coefficients(work, vm.offsets)
        vi = np.array(sorted(coefs), dtype=int)
        tensor = np.stack([coefs[k] for k in vi]) if coefs else np.zeros((0,) + work.shape)
        if not cone:
            constant = 0.5 * (constant + constant.T)
            tensor = 0.5 * (tensor + np.transpose(tensor, (0, 2, 1)))
        keep = tensor.any(axis=(1, 2))
        vi, tensor = vi[keep], tensor[keep]
        if cone:
            socs.append((constant[:, 0], vi, tensor[:, :, 0]))
        else:
            blocks.append((constant, vi, tensor))
    c = np.zeros(vm.num_scalars)
    if objective is not None:
        for k, C in dense_coefficients(lmi.Expr.wrap(objective), vm.offsets).items():
            c[k] = C[0, 0]
    return c, blocks, socs


def dense_cone_data(F0, coefs):
    """h, Gu and G of one PSD block, from its dense slices."""
    sv = sdp._SvecMap(F0.shape[0])
    upper = coefs[:, sv.rows, sv.cols]
    touched = np.any(upper != 0.0, axis=0)
    on_diagonal = sv.rows[touched] == sv.cols[touched]
    return sv.svec(F0), upper[:, touched] * np.where(on_diagonal, 0.5, 1.0), -(upper * sv.w).T


def dense_dump(c, blocks, socs, path):
    """The triplet file of the dense problem, every slice scanned entry by entry."""
    with open(path, "w") as f:
        for i, ci in enumerate(c):
            if ci != 0.0:
                f.write(f"-1 0 0 {i} {ci:.17g}\n")
        for bidx, (F0, var_idx, coefs) in enumerate(blocks):
            rows, cols = np.nonzero(F0)
            for r, cc in zip(rows, cols):
                f.write(f"{bidx} {r} {cc} -1 {F0[r, cc]:.17g}\n")
            for j, vi in enumerate(var_idx):
                rows, cols = np.nonzero(coefs[j])
                for r, cc in zip(rows, cols):
                    f.write(f"{bidx} {r} {cc} {vi} {coefs[j][r, cc]:.17g}\n")
        for bidx, (f0, var_idx, coefs) in enumerate(socs, start=len(blocks)):
            for r in np.flatnonzero(f0):
                f.write(f"{bidx} {r} 0 -1 {f0[r]:.17g} q\n")
            for j, vi in enumerate(var_idx):
                for r in np.flatnonzero(coefs[j]):
                    f.write(f"{bidx} {r} 0 {vi} {coefs[j, r]:.17g} q\n")


def _compiled_with_objective(monkeypatch, synthesize, spec):
    """compiled_design, with the objective handed to compile_lmis."""
    captured = []
    compile_lmis = lmi.compile_lmis

    def capture(variables, constraints, objective=None):
        captured.append((list(variables), list(constraints), objective,
                         compile_lmis(variables, constraints, objective=objective)[0]))
        raise _Compiled

    monkeypatch.setattr(lmi, "compile_lmis", capture)
    with pytest.raises(_Compiled):
        synthesize(spec)
    return captured[0]


def _design(name, kind, nx):
    synthesize, spec_type = DESIGNS[name]
    plant = random_plant(np.random.default_rng(11), nx=nx, nu=2, nw=2, nz=2, ny=2)
    return synthesize, spec_type(plant=plant, performance_kind=kind, gamma0=5.0)


def _benchmark(family, kind, gamma0):
    return synth_joint, JointSpec(plant=family.build(), performance_kind=kind,
                                  gamma0=gamma0)


COMPILE_CASES = [
    *(pytest.param((_design, (name, kind, nx)), id=f"{name}-{kind}-nx{nx}")
      for name in sorted(DESIGNS) for kind in ("hinf", "h2") for nx in (2, 4)),
    pytest.param((_benchmark, (bench.TensegrityApprox(), "h2", 0.42)), id="tensegrity-joint-h2"),
    pytest.param((_benchmark, (bench.MassSpringChain(5), "hinf", 100.0)), id="chain-joint-hinf"),
]


class TestSparseCompile:
    """The triplet compile gives the dense reference compile's problem and
    solver set-up bit for bit."""

    @pytest.fixture(params=COMPILE_CASES)
    def compiled(self, request, monkeypatch):
        make, args = request.param
        variables, constraints, objective, problem = _compiled_with_objective(
            monkeypatch, *make(*args))
        return problem, dense_compile(variables, constraints, objective)

    def test_same_problem_and_setup(self, compiled):
        problem, (c, blocks, socs) = compiled
        assert np.array_equal(problem.c, c)
        assert (len(problem.blocks), len(problem.socs)) == (len(blocks), len(socs))
        cones = sdp._cones(problem)
        # the problem's G from the dense slices, column-major as the solver's
        G_want = np.zeros((problem.num_vars, sum(co.sdim for co in cones))).T
        matrices = []
        for blk, (F0, var_idx, coefs), co in zip(problem.blocks, blocks, cones[0].blocks):
            assert np.array_equal(blk.F0, F0) and np.array_equal(blk.var_idx, var_idx)
            assert np.array_equal(blk.coefs, coefs)
            h, Gu, Gmat = dense_cone_data(F0, coefs)
            assert np.array_equal(co.h, h)
            G_want[co.part, var_idx] = Gmat
            matrices.append((co.Gu, Gu))
        stack = cones[-1]  # the second-order cones' stack, when there are cones
        for j, (soc, (f0, var_idx, coefs)) in enumerate(zip(problem.socs, socs)):
            assert np.array_equal(soc.f0, f0) and np.array_equal(soc.var_idx, var_idx)
            assert np.array_equal(soc.coefs, coefs)
            m, k = coefs.shape[1], len(var_idx)
            assert np.array_equal(stack.G[j, :m, :k], -coefs.T) and not stack.G[j, m:].any() \
                and not stack.G[j, :, k:].any()
            G_want[np.ix_(stack.part.start + stack.full[j, :m], var_idx)] = -coefs.T
        matrices.append((sdp._G(cones, problem.num_vars), G_want))
        for got, want in matrices:
            if scipy.sparse.issparse(got):
                # the entries, in the order of the matrix built from the dense one
                ref = scipy.sparse.csr_array(want)
                for a, b in ((got.data, ref.data), (got.indices, ref.indices),
                             (got.indptr, ref.indptr)):
                    assert np.array_equal(a, b)
                got = got.toarray()
            else:
                # BLAS's summation order follows the memory layout
                assert (got.flags.c_contiguous, got.flags.f_contiguous) == \
                    (want.flags.c_contiguous, want.flags.f_contiguous)
            assert np.array_equal(got, want)

    def test_same_triplet_file(self, compiled, tmp_path):
        problem, dense = compiled
        problem.dump_triplets(tmp_path / "sparse.txt")
        dense_dump(*dense, tmp_path / "dense.txt")
        assert (tmp_path / "sparse.txt").read_bytes() == (tmp_path / "dense.txt").read_bytes()


def test_sums_in_dense_order():
    # several terms of a symmetric variable, each with mirrored pairs, add
    # to the same entries: their sum rounds as the dense one only if each
    # term's pair is added first and the terms then in turn
    rng = np.random.default_rng(13)
    X = lmi.MatVar("X", (4, 4), "symmetric")
    for _ in range(5):
        A, B, C, D = rng.standard_normal((4, 4, 4))
        expr = A @ X @ A.T + B @ X @ B.T + lmi.sym(C @ X) + D @ X @ D.T
        cons = [lmi.neg_semidef(expr), lmi.soc(lmi.trace(X), expr[:, 0:1])]
        problem, _ = lmi.compile_lmis([X], cons)
        _, [(F0, var_idx, coefs)], [(f0, soc_idx, rows)] = dense_compile([X], cons, None)
        assert np.array_equal(problem.blocks[0].var_idx, var_idx)
        assert np.array_equal(problem.blocks[0].coefs, coefs)
        assert np.array_equal(problem.socs[0].coefs, rows)


def test_tensegrity_slices_are_small(monkeypatch):
    # the paper's structural demo: 657 scalars, 5 PSD blocks whose dense
    # slices would take about 7.76 MB, and 21 second-order cones
    *_, problem = _compiled_with_objective(
        monkeypatch, *_benchmark(bench.TensegrityApprox(), "h2", 0.42))
    stored = sum(a.nbytes for blk in problem.blocks
                 for a in (blk.var_idx, blk.slices, blk.rows, blk.cols, blk.vals))
    dense = sum(8 * len(blk.var_idx) * blk.dim ** 2 for blk in problem.blocks)
    assert (problem.num_vars, len(problem.blocks), len(problem.socs)) == (657, 5, 21)
    assert stored < 1e6 < 7.7e6 < dense
