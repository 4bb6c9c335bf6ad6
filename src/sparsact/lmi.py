"""Affine matrix-expression modeling and compilation to an SdpProblem.

Decision variables are matrices (symmetric, rectangular, diagonal, or
scalar).  Expressions are affine: constant + sum of L @ V @ R terms (V
possibly transposed).  Products of two variable expressions are rejected
at construction time -- the synthesis change of variables exists precisely
so that no bilinear term is ever needed.  Constraints are matrix
inequalities (PSD blocks) and 2-norm bounds ||v|| <= t (second-order cones).
"""

from __future__ import annotations

from dataclasses import dataclass

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

_STRUCTURES = ("symmetric", "rectangular", "diagonal", "scalar")


@dataclass(frozen=True, eq=False)
class MatVar:
    """A matrix decision variable."""

    __array_priority__ = 100  # keep ndarray @ MatVar from dispatching to numpy

    name: str
    shape: tuple
    structure: str = "rectangular"

    def __post_init__(self):
        if self.structure not in _STRUCTURES:
            raise ModelingError(f"unknown structure {self.structure!r}")
        r, c = self.shape
        if self.structure in ("symmetric", "diagonal") and r != c:
            raise ModelingError(f"{self.structure} variable {self.name} must be square")
        if self.structure == "scalar" and self.shape != (1, 1):
            raise ModelingError("scalar variable must have shape (1, 1)")

    @property
    def num_scalars(self):
        r, c = self.shape
        if self.structure == "symmetric":
            return r * (r + 1) // 2
        if self.structure == "diagonal":
            return r
        if self.structure == "scalar":
            return 1
        return r * c

    def entry_pairs(self):
        """Yield (row, col) of the independent entries, in storage order."""
        r, c = self.shape
        if self.structure == "symmetric":
            for i in range(r):
                for j in range(i, c):
                    yield i, j
        elif self.structure in ("diagonal", "scalar"):
            for i in range(r):
                yield i, i
        else:
            for i in range(r):
                for j in range(c):
                    yield i, j

    def assemble(self, values):
        """Matrix from the flat vector of independent entries."""
        M = np.zeros(self.shape)
        for k, (i, j) in enumerate(self.entry_pairs()):
            M[i, j] = values[k]
            if self.structure == "symmetric" and i != j:
                M[j, i] = values[k]
        return M

    # expression sugar -----------------------------------------------------
    def as_expr(self):
        r, c = self.shape
        return Expr((r, c), np.zeros((r, c)),
                    [_Term(np.eye(r), self, np.eye(c), False)])

    @property
    def T(self):
        return self.as_expr().T

    def __add__(self, other):
        return self.as_expr() + other

    def __radd__(self, other):
        return self.as_expr().__radd__(other)

    def __sub__(self, other):
        return self.as_expr() - other

    def __rsub__(self, other):
        return self.as_expr().__rsub__(other)

    def __neg__(self):
        return -self.as_expr()

    def __mul__(self, a):
        return self.as_expr() * a

    def __rmul__(self, a):
        return self.as_expr() * a

    def __matmul__(self, other):
        return self.as_expr() @ other

    def __rmatmul__(self, other):
        return self.as_expr().__rmatmul__(other)

    def row(self, i):
        return self.as_expr().row(i)

    def col(self, j):
        return self.as_expr().col(j)


@dataclass(frozen=True)
class _Term:
    left: np.ndarray
    var: MatVar
    right: np.ndarray
    transposed: bool  # term is left @ var.T @ right when True


def _as_const(M, shape=None):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if shape is not None and M.shape == (1, 1) and shape != (1, 1):
        M = M[0, 0] * np.eye(*shape) if shape[0] == shape[1] else None
        if M is None:
            raise ModelingError("cannot broadcast scalar to non-square shape")
    return M


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
    def wrap(obj, like=None):
        if isinstance(obj, Expr):
            return obj
        if isinstance(obj, MatVar):
            return obj.as_expr()
        M = np.atleast_2d(np.asarray(obj, dtype=float))
        if like is not None and M.shape == (1, 1) and like != (1, 1):
            if like[0] != like[1]:
                raise ModelingError("cannot broadcast scalar constant here")
            M = M[0, 0] * np.eye(like[0])
        return Expr(M.shape, M, [])

    @property
    def is_constant(self):
        return not self.terms

    # --- algebra ----------------------------------------------------------
    def __add__(self, other):
        o = Expr.wrap(other, like=self.shape)
        if o.shape != self.shape:
            raise ModelingError(f"shape mismatch in +: {self.shape} vs {o.shape}")
        return Expr(self.shape, self.constant + o.constant, self.terms + o.terms)

    __radd__ = __add__

    def __sub__(self, other):
        return self + (-Expr.wrap(other, like=self.shape))

    def __rsub__(self, other):
        return (-self) + Expr.wrap(other, like=self.shape)

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
                    [_Term(t.left, t.var, t.right @ R, t.transposed) for t in self.terms])

    def __rmatmul__(self, other):
        L = np.atleast_2d(np.asarray(other, dtype=float))
        if L.shape[1] != self.shape[0]:
            raise ModelingError(f"shape mismatch in @: {L.shape} vs {self.shape}")
        return Expr((L.shape[0], self.shape[1]), L @ self.constant,
                    [_Term(L @ t.left, t.var, t.right, t.transposed) for t in self.terms])

    def row(self, i):
        """Row i, a 1 x cols expression."""
        return np.eye(self.shape[0])[i:i + 1] @ self

    def col(self, j):
        """Column j, a rows x 1 expression."""
        return self @ np.eye(self.shape[1])[:, j:j + 1]

    @property
    def T(self):
        return Expr((self.shape[1], self.shape[0]), self.constant.T,
                    [_Term(t.right.T, t.var, t.left.T, not t.transposed)
                     for t in self.terms])

    # --- linearization ----------------------------------------------------
    def coefficients(self, offsets):
        """Constant matrix plus {global scalar index: coefficient matrix}.

        Entry (i, j) of a term's variable contributes the outer product of
        L[:, i] and R[j, :]; an outer product with an all-zero factor is
        skipped, and an entry none of whose products survive is left out.
        """
        coefs = {}
        for t in self.terms:
            base = offsets[t.var]
            L, R = t.left, t.right
            live_l = L.any(axis=0).tolist()
            live_r = R.any(axis=1).tolist()
            mirrored = t.var.structure == "symmetric"
            for k, (i, j) in enumerate(t.var.entry_pairs()):
                if t.transposed:
                    i, j = j, i
                C = np.outer(L[:, i], R[j, :]) if live_l[i] and live_r[j] else None
                if mirrored and i != j and live_l[j] and live_r[i]:
                    P = np.outer(L[:, j], R[i, :])
                    C = P if C is None else C + P
                if C is None:
                    continue
                key = base + k
                if key in coefs:
                    coefs[key] = coefs[key] + C
                else:
                    coefs[key] = C
        return self.constant, coefs


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
    out = Expr((1, 1), np.array([[np.trace(e.constant)]]), [])
    for t in e.terms:
        for k in range(n):
            ek = np.zeros((1, n))
            ek[0, k] = 1.0
            out = out + Expr((1, 1), np.zeros((1, 1)),
                             [_Term(ek @ t.left, t.var, t.right[:, k:k + 1], t.transposed)])
    return out


def bmat(grid):
    """Assemble a block-grid of expressions into one expression.

    ``None`` marks an off-diagonal block filled by transposing its mirror
    (the asterisk convention).
    """
    nrows = len(grid)
    ncols = len(grid[0])
    cells = [[None] * ncols for _ in range(nrows)]
    for i in range(nrows):
        for j in range(ncols):
            g = grid[i][j]
            if g is None:
                mirror = grid[j][i]
                if mirror is None:
                    raise ModelingError(f"both ({i},{j}) and ({j},{i}) are stars")
                cells[i][j] = Expr.wrap(mirror).T
            else:
                cells[i][j] = Expr.wrap(g)
    row_dims = [cells[i][0].shape[0] for i in range(nrows)]
    col_dims = [cells[0][j].shape[1] for j in range(ncols)]
    for i in range(nrows):
        for j in range(ncols):
            if cells[i][j].shape != (row_dims[i], col_dims[j]):
                raise ModelingError(
                    f"block ({i},{j}) has shape {cells[i][j].shape}, "
                    f"expected {(row_dims[i], col_dims[j])}")
    R = sum(row_dims)
    C = sum(col_dims)
    roff = np.cumsum([0] + row_dims)
    coff = np.cumsum([0] + col_dims)
    out = Expr((R, C), np.zeros((R, C)), [])
    for i in range(nrows):
        Ei = np.zeros((R, row_dims[i]))
        Ei[roff[i]:roff[i + 1]] = np.eye(row_dims[i])
        for j in range(ncols):
            Fj = np.zeros((col_dims[j], C))
            Fj[:, coff[j]:coff[j + 1]] = np.eye(col_dims[j])
            out = out + Ei @ cells[i][j] @ Fj
    return out


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


def _check_symmetry(expr: Expr, variables):
    """Numeric symmetry probe at a deterministic pseudo-random assignment."""
    rng = np.random.default_rng(12345)
    x = rng.standard_normal(sum(v.num_scalars for v in variables))
    vm = VarMap(variables)
    M = evaluate(expr, vm.assignment(x))
    if np.linalg.norm(M - M.T) > 1e-10 * max(1.0, np.linalg.norm(M)):
        raise ModelingError("inequality constraint expression is not symmetric")


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
    becomes one LmiBlock holding only the symmetrized coefficient slices
    that have a nonzero entry; a scalar whose slice cancels or is
    antisymmetric is absent from that block's var_idx.  Each soc constraint
    becomes one SocBlock on u = [t; v], holding only its nonzero
    coefficient rows.  Returns the problem and a VarMap for reading back
    matrix values.
    """
    variables = list(variables)
    vm = VarMap(variables)
    n = vm.num_scalars
    blocks, socs = [], []
    for con in constraints:
        expr = con.expr
        for t in expr.terms:
            if t.var not in vm.offsets:
                raise ModelingError(f"constraint references undeclared variable {t.var.name}")
        cone = con.sense == "soc"
        if not cone:
            if expr.shape[0] != expr.shape[1]:
                raise ModelingError("inequality constraints need square expressions")
            _check_symmetry(expr, variables)
        work = -expr if con.sense == "neg" else expr
        if con.strict:
            eps = STRICT_EPS_SCALE * (1.0 + np.linalg.norm(expr.constant, 2))
            work = work - eps * np.eye(expr.shape[0])
        constant, coefs = work.coefficients(vm.offsets)
        vi = np.array(sorted(coefs), dtype=int)
        tensor = np.stack([coefs[k] for k in vi]) if coefs else np.zeros((0,) + expr.shape)
        if not cone:
            constant = 0.5 * (constant + constant.T)
            tensor = 0.5 * (tensor + np.transpose(tensor, (0, 2, 1)))
        keep = tensor.any(axis=(1, 2))
        if not keep.all():  # slices that cancelled or were antisymmetric
            vi, tensor = vi[keep], tensor[keep]
        if cone:
            socs.append(SocBlock(f0=constant[:, 0], var_idx=vi, coefs=tensor[:, :, 0]))
        else:
            blocks.append(LmiBlock(F0=constant, var_idx=vi, coefs=tensor))
    c_obj = np.zeros(n)
    obj_const = 0.0
    if objective is not None:
        obj = Expr.wrap(objective)
        if obj.shape != (1, 1):
            raise ModelingError("objective must be a 1x1 expression")
        constant, coefs = obj.coefficients(vm.offsets)
        obj_const = float(constant[0, 0])
        for k, C in coefs.items():
            c_obj[k] = C[0, 0]
    problem = SdpProblem(n, c_obj, blocks, obj_const=obj_const, socs=socs)
    return problem, vm
