"""Affine matrix-expression modeling and compilation to an SdpProblem.

Decision variables are matrices: symmetric, rectangular or diagonal (a
1 x 1 diagonal variable is a scalar).  Expressions are affine: constant +
sum of L @ V @ R terms (V possibly transposed), and a variable V is itself
an expression, the one term I @ V @ I.  A product drops each term whose new
L or R is all zero.  A sub-block e[rows, cols] cuts the constant, each L's
rows and each R's columns, and drops a term it leaves all zero; bmat places
each cell's constant, L and R at its offsets.  Products of two variable
expressions are rejected at construction time -- the synthesis change of
variables exists precisely so that no bilinear term is ever needed.
Constraints are matrix inequalities (PSD blocks) and 2-norm bounds
||v|| <= t (second-order cones).

Compilation never forms a dense coefficient slice.  Each term L @ V @ R
yields the triplets (scalar, row, col, value) of its nonzero products
L[a, i] R[j, b], summed in a fixed order (Expr.coefficients); a PSD
block keeps the upper-triangle triplets of its symmetrized slices
(sdp.LmiBlock), and LmiBlock.coefs is only a dense view built on demand
for perfbench/tracer.py.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ModelingError
from .sdp import LmiBlock, SdpProblem, SocBlock

__all__ = [
    "MatVar",
    "Expr",
    "Constraint",
    "VarMap",
    "const",
    "sym",
    "trace",
    "bmat",
    "neg_def",
    "pos_def",
    "neg_semidef",
    "pos_semidef",
    "soc",
    "compile_lmis",
    "evaluate",
    "STRICT_EPS_SCALE",
]

STRICT_EPS_SCALE = 1e-7

_STRUCTURES = ("symmetric", "rectangular", "diagonal")


@dataclass(frozen=True)
class _Term:
    left: np.ndarray
    var: MatVar
    right: np.ndarray
    transposed: bool  # term is left @ var.T @ right when True


class Expr:
    """Affine matrix expression: const + sum of L @ V(^T) @ R terms."""

    __array_priority__ = 100  # keep ndarray @ Expr from dispatching to numpy

    def __init__(self, shape, constant, terms):
        self.shape = tuple(shape)
        self.constant = np.asarray(constant, dtype=float)
        self.terms = list(terms)
        if self.constant.shape != self.shape:
            raise ModelingError("constant shape mismatch")

    @staticmethod
    def wrap(obj):
        if isinstance(obj, Expr):
            return obj
        M = np.atleast_2d(np.asarray(obj, dtype=float))
        return Expr(M.shape, M, [])

    @property
    def is_constant(self):
        return not self.terms

    # --- algebra ----------------------------------------------------------
    def __add__(self, other):
        o = Expr.wrap(other)
        if o.shape != self.shape:
            raise ModelingError(f"shape mismatch in +: {self.shape} vs {o.shape}")
        return Expr(self.shape, self.constant + o.constant, self.terms + o.terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Expr.wrap(other))

    def __rsub__(self, other):
        return (-self) + Expr.wrap(other)

    def __neg__(self):
        return Expr(self.shape, -self.constant,
                    [_Term(-t.left, t.var, t.right, t.transposed) for t in self.terms])

    def __mul__(self, a):
        a = float(a)
        return Expr(self.shape, a * self.constant,
                    [_Term(a * t.left, t.var, t.right, t.transposed) for t in self.terms])

    __rmul__ = __mul__

    def __matmul__(self, other):
        o = Expr.wrap(other)
        if not o.is_constant:
            if self.is_constant:
                return o.__rmatmul__(self.constant)
            raise ModelingError(
                "bilinear term: product of two variable expressions is not an LMI; "
                "use the synthesis change of variables instead")
        R = o.constant
        if self.shape[1] != R.shape[0]:
            raise ModelingError(f"shape mismatch in @: {self.shape} vs {R.shape}")
        return Expr((self.shape[0], R.shape[1]), self.constant @ R,
                    [_Term(t.left, t.var, r, t.transposed)
                     for t in self.terms if (r := t.right @ R).any()])

    def __rmatmul__(self, other):
        L = np.atleast_2d(np.asarray(other, dtype=float))
        if L.shape[1] != self.shape[0]:
            raise ModelingError(f"shape mismatch in @: {L.shape} vs {self.shape}")
        return Expr((L.shape[0], self.shape[1]), L @ self.constant,
                    [_Term(l, t.var, t.right, t.transposed)
                     for t in self.terms if (l := L @ t.left).any()])

    def __getitem__(self, index):
        """e[rows, cols], each a slice or an index array: the cut constant and
        each term with its left factor's rows and right factor's columns
        cut, dropped if either cut factor is all zero."""
        rows, cols = index
        constant = self.constant[rows][:, cols]
        return Expr(constant.shape, constant,
                    [_Term(l, t.var, r, t.transposed) for t in self.terms
                     if (l := t.left[rows]).any() and (r := t.right[:, cols]).any()])

    @property
    def T(self):
        return Expr((self.shape[1], self.shape[0]), self.constant.T,
                    [_Term(t.right.T, t.var, t.left.T, not t.transposed)
                     for t in self.terms])

    # --- linearization ----------------------------------------------------
    def coefficients(self, offsets):
        """Constant matrix plus the coefficient slices as triplets.

        Returns (constant, (key, row, col, val)): the slice of global scalar
        key[e] has the value val[e] at (row[e], col[e]).  The triplets are
        the nonzero entries, sorted by (key, row, col).  Entry (i, j) of a
        term's variable contributes L[a, i] R[j, b] at (a, b) for every
        nonzero L[a, i] and R[j, b], and a symmetric variable's entry i != j
        also the mirrored L[a, j] R[i, b].  The mirrored pair of a term is
        summed first and the terms then one after another, so each value
        has the bits of the dense sum of outer products in the same order.
        """
        parts = [_products(t, offsets[t.var]) for t in self.terms]
        if not parts:
            return self.constant, _NO_TRIPLETS
        nterms = len(parts)
        rows, cols = self.shape
        key, row, col, val = (np.concatenate(a) for a in zip(*parts))
        term = np.repeat(np.arange(nterms), [len(p[0]) for p in parts])
        code = ((key * rows + row) * cols + col) * nterms + term
        code, at = np.unique(code, return_inverse=True)
        val = np.bincount(at, weights=val)  # the mirrored pair of one term
        # np.bincount adds in array order, so each entry sums its terms in turn
        code, at = np.unique(code // nterms, return_inverse=True)
        val = np.bincount(at, weights=val)
        nz = val != 0.0
        key, rc = np.divmod(code[nz], rows * cols)
        return self.constant, (key, *np.divmod(rc, cols), val[nz])


class MatVar(Expr):
    """A matrix decision variable V, itself the expression I @ V @ I.

    As a VarMap key a variable is hashed by identity.
    """

    def __init__(self, name, shape, structure="rectangular"):
        if structure not in _STRUCTURES:
            raise ModelingError(f"unknown structure {structure!r}")
        r, c = shape
        if structure in ("symmetric", "diagonal") and r != c:
            raise ModelingError(f"{structure} variable {name} must be square")
        self.name, self.structure = name, structure
        self.shape, self.constant = (r, c), np.zeros((r, c))

    @property
    def terms(self):
        # made on each use: a stored term would hold its own variable in a
        # reference cycle, which only the cyclic garbage collector frees
        r, c = self.shape
        return [_Term(np.eye(r), self, np.eye(c), False)]

    @property
    def num_scalars(self):
        return len(self.entry_index[0])

    @cached_property
    def entry_index(self):
        """(rows, cols) arrays of the independent entries, in storage order."""
        r, c = self.shape
        if self.structure == "symmetric":
            return np.triu_indices(r)
        if self.structure == "diagonal":
            return np.arange(r), np.arange(r)
        return np.divmod(np.arange(r * c), c)

    @cached_property
    def positions(self):
        """(rows, cols, k): matrix entry (rows[e], cols[e]) is independent entry k[e].

        A symmetric variable's off-diagonal entries appear twice, once
        mirrored.
        """
        rows, cols = self.entry_index
        k = np.arange(len(rows))
        if self.structure == "symmetric":
            off = rows != cols
            rows, cols = np.concatenate([rows, cols[off]]), np.concatenate([cols, rows[off]])
            k = np.concatenate([k, k[off]])
        return rows, cols, k

    def assemble(self, values):
        """Matrix from the flat vector of independent entries."""
        M = np.zeros(self.shape)
        rows, cols, k = self.positions
        M[rows, cols] = np.asarray(values, dtype=float)[k]
        return M


_NO_TRIPLETS = (np.zeros(0, dtype=int),) * 3 + (np.zeros(0),)


def _products(t, base):
    """(key, row, col, val) of one term's nonzero outer-product entries.

    A symmetric variable's entry i != j contributes twice, as (i, j) and
    mirrored as (j, i), both under the entry's key.
    """
    L, R = t.left, t.right
    lcol, lrow = np.nonzero(L.T)  # L's nonzeros, column by column
    rrow, rcol = np.nonzero(R)  # R's nonzeros, row by row
    lval, rval = L[lrow, lcol], R[rrow, rcol]
    nl = np.bincount(lcol, minlength=L.shape[1])
    nr = np.bincount(rrow, minlength=R.shape[0])
    I, J, k = t.var.positions
    if t.transposed:
        I, J = J, I
    key = base + k
    count = nl[I] * nr[J]  # products of each entry
    e = np.repeat(np.arange(len(I)), count)
    nth = np.arange(len(e)) - np.repeat(np.cumsum(count) - count, count)
    q, r = np.divmod(nth, nr[J][e])
    a = (np.cumsum(nl) - nl)[I][e] + q
    b = (np.cumsum(nr) - nr)[J][e] + r
    return key[e], lrow[a], rcol[b], lval[a] * rval[b]


def const(M):
    return Expr.wrap(M)


def sym(e):
    """sym{M} = M + M^T."""
    e = Expr.wrap(e)
    if e.shape[0] != e.shape[1]:
        raise ModelingError("sym needs a square expression")
    return e + e.T


def trace(e):
    """Trace of a square affine expression, as a 1x1 expression."""
    e = Expr.wrap(e)
    n = e.shape[0]
    if e.shape != (n, n):
        raise ModelingError("trace needs a square expression")
    return sum((e[k:k + 1, k:k + 1] for k in range(n)), const(np.zeros((1, 1))))


def bmat(grid):
    """Assemble a block-grid of expressions into one expression.

    ``None`` marks an off-diagonal block filled by transposing its mirror
    (the asterisk convention).
    """
    nrows, ncols = len(grid), len(grid[0])
    for i, j in np.ndindex(nrows, ncols):
        if grid[i][j] is None and grid[j][i] is None:
            raise ModelingError(f"both ({i},{j}) and ({j},{i}) are stars")
    cells = [[Expr.wrap(grid[j][i]).T if grid[i][j] is None else Expr.wrap(grid[i][j])
              for j in range(ncols)] for i in range(nrows)]
    row_dims = [row[0].shape[0] for row in cells]
    col_dims = [cell.shape[1] for cell in cells[0]]
    for i, j in np.ndindex(nrows, ncols):
        if cells[i][j].shape != (row_dims[i], col_dims[j]):
            raise ModelingError(
                f"block ({i},{j}) has shape {cells[i][j].shape}, "
                f"expected {(row_dims[i], col_dims[j])}")
    R, C = sum(row_dims), sum(col_dims)
    roff, coff = np.cumsum([0] + row_dims), np.cumsum([0] + col_dims)
    # each cell is added into zeros at its offsets, which turns -0.0 into +0.0
    constant, terms = np.zeros((R, C)), []
    for i, j in np.ndindex(nrows, ncols):
        rs, cs = slice(roff[i], roff[i + 1]), slice(coff[j], coff[j + 1])
        constant[rs, cs] += cells[i][j].constant
        for t in cells[i][j].terms:
            if t.left.any() and t.right.any():
                left, right = np.zeros((R, t.left.shape[1])), np.zeros((t.right.shape[0], C))
                left[rs] += t.left
                right[:, cs] += t.right
                terms.append(_Term(left, t.var, right, t.transposed))
    return Expr((R, C), constant, terms)


# ---------------------------------------------------------------------------
# constraints and compilation


@dataclass(frozen=True)
class Constraint:
    expr: Expr
    sense: str  # "neg" (<=0), "pos" (>=0) or "soc" (expr = [t; v], ||v|| <= t)
    strict: bool = False


def neg_def(e):
    return Constraint(Expr.wrap(e), "neg", strict=True)


def neg_semidef(e):
    return Constraint(Expr.wrap(e), "neg", strict=False)


def pos_def(e):
    return Constraint(Expr.wrap(e), "pos", strict=True)


def pos_semidef(e):
    return Constraint(Expr.wrap(e), "pos", strict=False)


def soc(t, v):
    """||v||_2 <= t for a 1x1 expression t and a column expression v."""
    t, v = Expr.wrap(t), Expr.wrap(v)
    if t.shape != (1, 1) or v.shape[1] != 1:
        raise ModelingError("soc needs a 1x1 bound and a column vector")
    return Constraint(bmat([[t], [v]]), "soc")


class VarMap:
    """Read matrix variable values out of a flat SDP solution vector."""

    def __init__(self, variables):
        self.offsets = {}
        off = 0
        for v in variables:
            if v in self.offsets:
                raise ModelingError(f"variable {v.name} declared twice")
            self.offsets[v] = off
            off += v.num_scalars
        self.num_scalars = off

    def value(self, x, var: MatVar):
        off = self.offsets[var]
        return var.assemble(x[off:off + var.num_scalars])

    def assignment(self, x):
        return {v: self.value(x, v) for v in self.offsets}


def _check_symmetry(constant, triplets, probe):
    """Numeric symmetry probe of an expression's triplets at the point probe."""
    key, row, col, val = triplets
    n = constant.shape[0]
    M = constant + np.bincount(row * n + col, weights=val * probe[key],
                               minlength=n * n).reshape(n, n)
    if np.linalg.norm(M - M.T) > 1e-10 * max(1.0, np.linalg.norm(M)):
        raise ModelingError("inequality constraint expression is not symmetric")


def _symmetrized_block(constant, triplets):
    """The LmiBlock of 0.5 (F + F') from the triplets of F's slices.

    Upper entry (a, b) of a slice is 0.5 (T[a, b] + T[b, a]), a diagonal
    entry 0.5 (T[a, a] + T[a, a]), as the dense 0.5 (T + T') forms them;
    slices left without a nonzero are dropped.
    """
    key, row, col, val = triplets
    n = constant.shape[0]
    diag = row == col
    code = (key * n + np.minimum(row, col)) * n + np.maximum(row, col)
    code, at = np.unique(np.concatenate([code, code[diag]]), return_inverse=True)
    val = 0.5 * np.bincount(at, weights=np.concatenate([val, val[diag]]))
    nz = val != 0.0
    key, rc = np.divmod(code[nz], n * n)
    var_idx, slices = np.unique(key, return_inverse=True)
    return LmiBlock(F0=0.5 * (constant + constant.T), var_idx=var_idx,
                    upper=(slices, *np.divmod(rc, n), val[nz]))


def evaluate(expr: Expr, assignment):
    """Numeric value of an expression under {MatVar: matrix}."""
    expr = Expr.wrap(expr)
    M = expr.constant.copy()
    for t in expr.terms:
        if t.var not in assignment:
            raise ModelingError(f"missing value for variable {t.var.name}")
        V = np.atleast_2d(np.asarray(assignment[t.var], dtype=float))
        V = V.T if t.transposed else V
        M += t.left @ V @ t.right
    return M


def compile_lmis(variables, constraints, objective=None):
    """Pack matrix-variable constraints into an SdpProblem.

    Strict inequalities get a margin eps = 1e-7 * (1 + ||constant||) so the
    closed-cone solver returns strictly feasible matrices.  Each inequality
    becomes one LmiBlock holding the upper-triangle triplets of its
    symmetrized coefficient slices, never a dense (k, n, n) tensor; a
    scalar whose slice cancels or is antisymmetric is absent from that
    block's var_idx.  Each soc constraint becomes one SocBlock on
    u = [t; v], holding only its nonzero coefficient rows.  Returns the
    problem and a VarMap for reading back matrix values.
    """
    variables = list(variables)
    vm = VarMap(variables)
    n = vm.num_scalars
    # the symmetry probe's point, the same for every constraint
    probe = np.random.default_rng(12345).standard_normal(n)
    blocks, socs = [], []
    for con in constraints:
        expr = con.expr
        for t in expr.terms:
            if t.var not in vm.offsets:
                raise ModelingError(f"constraint references undeclared variable {t.var.name}")
        cone = con.sense == "soc"
        if not cone and expr.shape[0] != expr.shape[1]:
            raise ModelingError("inequality constraints need square expressions")
        work = -expr if con.sense == "neg" else expr
        if con.strict:
            eps = STRICT_EPS_SCALE * (1.0 + np.linalg.norm(expr.constant, 2))
            work = work - eps * np.eye(expr.shape[0])
        constant, triplets = work.coefficients(vm.offsets)
        if cone:
            key, row, _, val = triplets
            vi, slices = np.unique(key, return_inverse=True)
            coefs = np.zeros((len(vi), expr.shape[0]))
            coefs[slices, row] = val
            socs.append(SocBlock(f0=constant[:, 0], var_idx=vi, coefs=coefs))
        else:
            _check_symmetry(constant, triplets, probe)
            blocks.append(_symmetrized_block(constant, triplets))
    c_obj = np.zeros(n)
    obj_const = 0.0
    if objective is not None:
        obj = Expr.wrap(objective)
        if obj.shape != (1, 1):
            raise ModelingError("objective must be a 1x1 expression")
        constant, (key, _, _, val) = obj.coefficients(vm.offsets)
        obj_const = float(constant[0, 0])
        c_obj[key] = val
    problem = SdpProblem(n, c_obj, blocks, obj_const=obj_const, socs=socs)
    return problem, vm
