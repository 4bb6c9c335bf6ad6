"""Dense semidefinite and second-order cone solver.

Problems are given in LMI form: a vector x of free scalar variables, a
linear objective c'x, a set of PSD blocks F_j(x) = F0_j + sum_i x_i C_ji >= 0
and a set of second-order cones u_j(x) = f0_j + sum_i x_i g_ji with
u0 >= ||u[1:]||_2.  There are no equality constraints; a design that needs
one parametrizes its null space instead (outputfb).

The solver is a primal-dual interior-point method on the homogeneous
self-dual embedding with Nesterov-Todd scaling and a Mehrotra corrector.
The NT scaling of a PSD block is dense (its n x n factors R and Rinv), in
the SVD form of Todd, Toh & Tutuncu (1998).  All PSD blocks of a problem
are scaled at once, as one (b, N, N) stack padded to N, the largest block
dimension (_PsdStack): each iteration's Cholesky factorizations, SVD,
step-length eigenvalues and scaled-space products are one numpy call per
stack instead of one per block, which is most of the cost of a problem of
small blocks; the step length of both directions is one eigvalsh call over
the (2, b, N, N) stack of the two.  A block is the top-left corner of its
matrix.  The pad is zero off the diagonal, and on it 1 for the iterates s
and z and 0 for directions: the scaling then keeps the pad the identity
and exactly zero across the corner's edge, and a direction's pad
eigenvalues are exactly zero.  svec reads only the corners, so the pad
never reaches the solver's vectors.  The map G is one matrix for the
problem, stacked over the svec parts of all cones (_G), so each product
with G or G' is one call; the Schur complement stays per block.  A block
takes and stores its coefficient slices T_i only as the (slice, row, col,
value) triplets of their nonzero upper-triangle entries (LmiBlock), from
which set-up builds G and the Schur data below; no dense (k, n, n) tensor is
formed on the solve path.  LmiBlock.coefs builds that tensor on demand for
perfbench/tracer.py, which sizes a problem's slices from it.
The NT scaling of a second-order cone is the hyperbolic-Householder matrix
W = eta [[w0, w1'], [w1, I + w1 w1' / (1 + w0)]] of Vandenberghe, "The
CVXOPT linear and quadratic cone program solvers" (2010), section 4; see
also Lobo, Vandenberghe, Boyd & Lebret, "Applications of second-order cone
programming" (1998).  It is never formed: W x = eta (w'x, x1 + ((x0 +
w'x) / (1 + w0)) w1), and W^-1 takes -w1 and 1 / eta.  All cones are scaled
at once, as one (c, M) stack zero-padded to the largest cone dimension M,
which is exact: a zero u1 entry changes no norm, Jordan product or
Householder image (_SocStack).  A cone is one unit of the complementarity
measure's degree; an n x n block is n.

The Schur complement H = G' W^-1 W^-T G is assembled from the slices'
nonzero entries, as in the sparse formulas of SDPA (Fujisawa, Kojima &
Nakata, 1997), without scaling any slice.  With W = Rinv' Rinv, a block
adds tr(T_i W T_j W) at (i, j).  Set-up records the svec entries the
block's slices touch, p = (a, b), and the slices' values there, Gu (k x m);
each iteration forms M_pq = W_ac W_bd + W_ad W_bc on those m entries only,
W from the block's corner of the stack's Rinv, and adds 2 Gu M Gu',
symmetrized, to H (_Cone.add_schur).  Gu is a sparse matrix when the
dense products would spend more than SPARSE_SCHUR_WASTE multiply-adds on
its zeros (the largest blocks of the tensegrity and chain problems, where
a slice has one to a few dozen nonzeros) and a dense array otherwise.  The
problem's G, which forms the residuals and the Newton right-hand sides,
is a CSR matrix when some block's Gu is sparse, and a column-major dense
array otherwise.  scipy.sparse is imported only once such a block
appears.  A block adds its part of H by slices over its runs of
consecutive variables, or by one gathered addition when it has more than
about k / 17 runs (SLICE_RUN_RATIO).  The cones add (W^-1 G)'(W^-1 G) by
one np.bincount into H, which sums in array order, so cones that share a
scalar add up (_SocStack.add_schur).  The Newton solves apply W^-T and
W^-1 to one vector per right-hand side, once per stack, and G' and G once
each (_solve3).  An iteration makes two of them:
the tau-direction and the predictor share one solve with two right-hand
sides, and the corrector has its own.

A sparse block forms its part of H in a workspace that the stack
allocates once per solve, sized for the largest such block, in two
regions used in turn: alpha of max(m^2, m k) and beta of max(k m, k^2)
entries.  M goes in alpha, its gathered factors in beta in row chunks;
Y = Gu M in beta; Y', copied in C order, in alpha; X = Gu Y' in beta,
where X + X' is then formed in place, a row chunk at a time through
alpha.  The products run scipy's CSR kernel, csr_matvecs, which Gu @ M
runs, so every entry is the sum that the allocating expressions form, in
their order, and no iteration allocates or faults in a temporary of the
size of M.  A dense Gu keeps the allocating expressions: on the small
blocks that have one, the workspace's views and chunk loops would cost
more than the allocations they save.

The Schur system H + delta I is symmetric positive definite and is factored
by Cholesky, LAPACK's dpotrf and dpotrs called directly (the calls that
scipy's cho_factor and cho_solve make, without their wrappers' per-call
cost), in place of a column-major copy of H in a buffer that the solve
allocates once; a numerical failure ends the solve as "KKT factorization
failure".  Target problems have at most a few hundred variables and LMI
rows.
SdpSolution.phase_s gives the seconds each solve spends on scaling,
Schur assembly, factorization, Newton solves and the rest of the step.
Each solve writes one DEBUG record (status, iterations, final residuals,
phase_s) to the "sparsact" logger.  solve_sdp reads its problem and
nothing else, and writes no file; SdpProblem.dump_triplets writes a problem
out.

Problems without cones or cone variables take the same path as any
other, through zero-size arrays.

Fixed constants: convergence at relative residuals below FEAS_TOL and a
relative gap below GAP_TOL, within MAX_ITER iterations; INFEAS_TOL gates
the improving-ray certificates; each step goes STEP_FRAC of the way to the
cone boundary.  A solve that stops short of convergence returns its
cleanest iterate as optimal when that is within REDUCED_TOL, loose on
purpose because every synthesis result is re-verified independently.  It
stops as stalled once that iterate is within REDUCED_TOL and STALL_ITERS
iterations have not improved on it, as SeDuMi stops on stalled residuals
(Sturm, 2002); near-degenerate problems otherwise go on until a scaling
breaks down, and return the same iterate.
"""

from __future__ import annotations

import logging
import time
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

__all__ = [
    "LmiBlock",
    "SocBlock",
    "SdpProblem",
    "SdpSolution",
    "IterateRecord",
    "CertificateReport",
    "solve_sdp",
    "check_certificate",
]

FEAS_TOL = 1e-8
GAP_TOL = 1e-8
MAX_ITER = 200
INFEAS_TOL = 1e-4
REDUCED_TOL = 1e-3
# a solve whose best iterate is within REDUCED_TOL stops once this many
# iterations have not improved on it, and returns that iterate
STALL_ITERS = 3
STEP_FRAC = 0.99
# a block's Schur part is formed with a sparse Gu once the dense products
# would spend more than this many multiply-adds (about a millisecond) on its
# zeros; below that, the sparse products' per-call cost and loading
# scipy.sparse (about 2 MB and 20 ms, once) outweigh the saving
SPARSE_SCHUR_WASTE = 1e7
# a block whose k variables fall in r runs of consecutive indices adds its
# part of H by r * r slice additions when r = 1 or r <= k / SLICE_RUN_RATIO,
# and by one gathered addition otherwise: a slice addition costs 2-3 us and
# the gather 7-8 ns more per entry (numpy 2.4, one core), so the slices pay
# while r * r * 3 us < k * k * 8 ns
SLICE_RUN_RATIO = 17
# the phases of an iteration that SdpSolution.phase_s times
PHASES = ("scaling", "schur", "factor", "solve", "step")

_log = logging.getLogger("sparsact")


# ---------------------------------------------------------------------------
# problem containers


class LmiBlock:
    """One PSD constraint F0 + sum_j T_j x[var_idx[j]] >= 0.

    The block stores its slices T_j as the triplets of their upper
    triangles, ``upper`` = (slices, rows, cols, vals): T_j[rows[e], cols[e]]
    = T_j[cols[e], rows[e]] = vals[e] for the entries e with slices[e] = j,
    rows[e] <= cols[e], sorted by (slice, row, col) and nonzero.  F0 must be
    exactly symmetric; the solver uses it and the slices as given.
    A scalar missing from var_idx has a zero coefficient in this block;
    blocks from lmi.compile_lmis list only scalars with a nonzero slice.
    var_idx lists each scalar at most once; SdpProblem rejects a repeat.
    """

    def __init__(self, F0, var_idx, upper):
        F0 = np.atleast_2d(np.asarray(F0, dtype=float))
        vi = np.asarray(var_idx, dtype=int)
        n, k = F0.shape[0], len(vi)
        if F0.shape != (n, n):
            raise ValueError("block constant must be square")
        if not np.array_equal(F0, F0.T):
            raise ValueError("block constant must be exactly symmetric")
        slices, rows, cols = (np.asarray(a, dtype=int) for a in upper[:3])
        vals = np.asarray(upper[3], dtype=float)
        code = (slices * n + rows) * n + cols
        if not (len(code) == len(vals) and np.all(vals != 0.0) and np.all(np.diff(code) > 0)
                and np.all((slices >= 0) & (slices < k) & (rows >= 0) & (rows <= cols) & (cols < n))):
            raise ValueError("upper triplets must be upper-triangle, in range, sorted, "
                             "unique and nonzero")
        self.F0, self.var_idx = F0, vi
        self.slices, self.rows, self.cols, self.vals = slices, rows, cols, vals

    @property
    def dim(self):
        return self.F0.shape[0]

    def entries(self):
        """(slice, row, col, value) of every nonzero entry, both triangles."""
        off = self.rows != self.cols
        return (np.concatenate([self.slices, self.slices[off]]),
                np.concatenate([self.rows, self.cols[off]]),
                np.concatenate([self.cols, self.rows[off]]),
                np.concatenate([self.vals, self.vals[off]]))

    @property
    def coefs(self):
        """The slices as a dense (k, n, n) tensor, built on each call.

        The solver never forms it; it is kept for perfbench/tracer.py, which
        counts a problem's slices and their dense size from it.
        """
        j, r, c, v = self.entries()
        T = np.zeros((len(self.var_idx), self.dim, self.dim))
        T[j, r, c] = v
        return T

    def evaluate(self, x):
        j, r, c, v = self.entries()
        n = self.dim
        return self.F0 + np.bincount(r * n + c, weights=x[self.var_idx][j] * v,
                                     minlength=n * n).reshape(n, n)


@dataclass(frozen=True)
class SocBlock:
    """One second-order cone u0 >= ||u[1:]||_2 on u = f0 + sum_j coefs[j] * x[var_idx[j]].

    As for LmiBlock, a scalar missing from var_idx has a zero coefficient,
    and var_idx lists each scalar at most once.
    """

    f0: np.ndarray
    var_idx: np.ndarray
    coefs: np.ndarray  # (k, m)

    def __post_init__(self):
        f0 = np.atleast_1d(np.asarray(self.f0, dtype=float))
        vi = np.asarray(self.var_idx, dtype=int)
        co = np.asarray(self.coefs, dtype=float)
        if f0.ndim != 1 or co.shape != (len(vi), len(f0)):
            raise ValueError("cone constant and coefficient shapes mismatch")
        object.__setattr__(self, "f0", f0)
        object.__setattr__(self, "var_idx", vi)
        object.__setattr__(self, "coefs", co)

    @property
    def dim(self):
        return len(self.f0)

    def evaluate(self, x):
        return self.f0 + x[self.var_idx] @ self.coefs


class SdpProblem:
    """Cone program: min c'x  s.t.  each PSD block >= 0 and each SOC holds.

    `blocks` holds the PSD blocks only; the second-order cones are `socs`.
    """

    def __init__(self, num_vars, c, blocks, obj_const=0.0, socs=()):
        self.num_vars = int(num_vars)
        self.c = np.asarray(c, dtype=float)
        if self.c.shape != (self.num_vars,):
            raise ValueError("objective vector has wrong length")
        self.blocks = list(blocks)
        self.socs = list(socs)
        for blk in self.blocks + self.socs:
            if blk.dim < 1:
                raise ValueError("block dimensions must be >= 1")
            if np.any((blk.var_idx < 0) | (blk.var_idx >= num_vars)):
                raise ValueError("block references undeclared variables")
            if len(np.unique(blk.var_idx)) < len(blk.var_idx):
                raise ValueError("block repeats a scalar in var_idx")
        self.obj_const = float(obj_const)

    @property
    def eq_A(self):
        """An empty equality matrix, for perfbench/tracer.py's KKT size."""
        return np.zeros((0, self.num_vars))

    def dump_triplets(self, path):
        """Write the packed problem as plain-text sparse triplets.

        Line format: ``block row col variable coefficient``.  Variable -1
        denotes the constant term.  PSD blocks are numbered from 0; the
        objective uses block index -1 (row = col = 0).  Second-order cones
        continue the block numbering after the PSD blocks, and their lines
        carry a sixth field ``q``: ``block entry 0 variable coefficient q``,
        where entry 0 is the bound u0 of u0 >= ||u[1:]||.
        """
        with open(path, "w") as f:
            for i, ci in enumerate(self.c):
                if ci != 0.0:
                    f.write(f"-1 0 0 {i} {ci:.17g}\n")
            for bidx, blk in enumerate(self.blocks):
                rows, cols = np.nonzero(blk.F0)
                for r, cc in zip(rows, cols):
                    f.write(f"{bidx} {r} {cc} -1 {blk.F0[r, cc]:.17g}\n")
                j, r, c, v = blk.entries()
                order = np.lexsort((c, r, j))  # slice by slice, row by row
                for row, col, vi, val in zip(r[order], c[order], blk.var_idx[j[order]], v[order]):
                    f.write(f"{bidx} {row} {col} {vi} {val:.17g}\n")
            for bidx, soc in enumerate(self.socs, start=len(self.blocks)):
                for r in np.flatnonzero(soc.f0):
                    f.write(f"{bidx} {r} 0 -1 {soc.f0[r]:.17g} q\n")
                for j, vi in enumerate(soc.var_idx):
                    for r in np.flatnonzero(soc.coefs[j]):
                        f.write(f"{bidx} {r} 0 {vi} {soc.coefs[j, r]:.17g} q\n")


@dataclass
class IterateRecord:
    iteration: int
    pobj: float
    dobj: float
    gap: float
    pres: float
    dres: float
    tau: float
    kappa: float
    mu: float
    rtau_over_tau: float


@dataclass
class SdpSolution:
    status: str  # "optimal" | "infeasible" | "unbounded" | "max_iter"
    x: np.ndarray
    objective: float
    block_duals: list
    pres: float
    dres: float
    gap: float
    iterations: int
    iterates: list = field(default_factory=list)
    message: str = ""
    soc_duals: list = field(default_factory=list)  # one vector per SocBlock
    # seconds per phase of the iterations (PHASES); kept in memory only
    phase_s: dict = field(default_factory=lambda: dict.fromkeys(PHASES, 0.0))


# ---------------------------------------------------------------------------
# symmetric vectorization helpers


class _SvecMap:
    _cache = {}

    def __new__(cls, n):
        if n in cls._cache:
            return cls._cache[n]
        obj = super().__new__(cls)
        obj.n = n
        obj.rows, obj.cols = np.triu_indices(n)
        obj.w = np.where(obj.rows == obj.cols, 1.0, np.sqrt(2.0))
        obj.dim = len(obj.rows)
        obj.upper = obj.rows * n + obj.cols  # flat positions of the svec entries
        full = np.empty((n, n), dtype=int)  # svec index of every matrix entry
        full[obj.rows, obj.cols] = full[obj.cols, obj.rows] = np.arange(obj.dim)
        obj.full = full
        cls._cache[n] = obj
        return obj

    def svec(self, M):
        return M.take(self.upper) * self.w

    def smat(self, v):
        return (v / self.w).take(self.full)


def _stack(parts):
    """Concatenate per-cone svec parts; empty for a problem without blocks."""
    return np.concatenate([np.zeros(0), *parts])


# ---------------------------------------------------------------------------
# cone machinery


def _placement(vi):
    """Where a PSD block's part X of H goes: [(H index, X index)].

    One pair of slices per pair of runs of consecutive variables in vi, or
    one gathered addition when there are many runs (SLICE_RUN_RATIO).
    """
    cuts = np.flatnonzero(np.diff(vi) != 1) + 1
    runs = [(slice(r[0], r[-1] + 1), slice(i, i + len(r)))
            for r, i in zip(np.split(vi, cuts) if len(vi) else [], np.r_[0, cuts])]
    if len(runs) == 1 or SLICE_RUN_RATIO * len(runs) <= len(vi):
        return [((ha, hb), (xa, xb)) for ha, xa in runs for hb, xb in runs]
    return [(np.ix_(vi, vi), (slice(None),) * 2)]


class _Cone:
    """Static conic data for one PSD block: its svec part, G and Schur data.

    Its NT scaling is its corner of the _PsdStack of the problem's blocks.
    """

    def __init__(self, blk: LmiBlock, start):
        sv = self.sv = _SvecMap(blk.dim)
        self.h = sv.svec(blk.F0)
        self.vi = blk.var_idx
        self.dim = blk.dim
        self.sdim = sv.dim
        self.part = slice(start, start + sv.dim)  # this block's svec entries
        # Schur data (add_schur): the svec entries (P[p], Q[p]) that the
        # slices touch and Gu, the slices' values on them, halved on the
        # diagonal
        p = sv.full[blk.rows, blk.cols]  # svec entry of each stored value
        touched, col = np.unique(p, return_inverse=True)
        self.P, self.Q = sv.rows[touched], sv.cols[touched]
        gu = blk.vals * np.where(blk.rows == blk.cols, 0.5, 1.0)
        k, m = len(self.vi), len(touched)
        # (row, variable, value) of this block's entries of the problem's G
        self.G_entries = (start + p, self.vi[blk.slices], -(blk.vals * sv.w[p]))
        self.sparse = (k * m - np.count_nonzero(gu)) * (k + m) > SPARSE_SCHUR_WASTE
        if self.sparse:
            import scipy.sparse  # here: small problems never pay for loading it
            from scipy.sparse._sparsetools import csr_matvecs  # the kernel of Gu @ M
            self.Gu = scipy.sparse.csr_array((gu, (blk.slices, col)), shape=(k, m))
            self.matvecs = csr_matvecs
            # the sizes of the two regions of the Schur workspace (bind)
            self.regions = (max(m * m, m * k), max(k * m, k * k))
        else:
            # Gu column-major: BLAS's summation order in the products with
            # it, and so each solve's rounding, follows the layout
            self.Gu = np.zeros((m, k)).T
            self.Gu[blk.slices, col] = gu
        self.hsel = _placement(self.vi)

    def add_to(self, H, X):
        for h_at, x_at in self.hsel:
            H[h_at] += X[x_at]

    def bind(self, ws):
        """Take this sparse block's two regions of the Schur workspace ws."""
        a, b = self.regions
        self.alpha, self.beta = ws[:a], ws[a:a + b]

    def add_schur(self, H, Rinv):
        """Add this block's G' W^-1 W^-T G to the Schur complement H.

        Its (i, j) entry is tr(T_i W T_j W) with W = Rinv' Rinv, Rinv the
        block's n x n corner of the stack's.  Summed over the touched entries
        p = (a, b) and q = (c, d), that is 2 (Gu M Gu')_ij with
        M_pq = W_ac W_bd + W_ad W_bc; X = Gu M Gu' is added as X + X', which
        is exactly symmetric.  A sparse Gu forms each array in the block's
        regions alpha and beta of the workspace (module docstring), with the
        kernel and the order of sums of the allocating expressions.
        """
        W = Rinv.T @ Rinv
        WP, WQ = W[:, self.P], W[:, self.Q]
        if not self.sparse:
            M = WP[self.P] * WQ[self.Q]
            M += WQ[self.P] * WP[self.Q]
            X = self.Gu @ (self.Gu @ M).T
            self.add_to(H, X + X.T)
            return
        Gu, alpha, beta = self.Gu, self.alpha, self.beta
        k, m = Gu.shape

        def rows(V, idx, out):
            # mode "clip": the default "raise" buffers out
            return np.take(V, idx, axis=0, out=out, mode="clip")

        M = alpha[:m * m].reshape(m, m)
        h = len(beta) // (2 * m)
        for r in range(0, m, h):
            P, Q = self.P[r:r + h], self.Q[r:r + h]
            A, B = beta[:2 * len(P) * m].reshape(2, len(P), m)
            np.multiply(rows(WP, P, A), rows(WQ, Q, B), out=M[r:r + h])
            M[r:r + h] += np.multiply(rows(WQ, P, A), rows(WP, Q, B), out=A)
        Y = beta[:k * m]  # Gu M
        Y.fill(0.0)
        self.matvecs(k, m, m, Gu.indptr, Gu.indices, Gu.data, alpha[:m * m], Y)
        Z = alpha[:m * k].reshape(m, k)  # Y', C-order
        np.copyto(Z, Y.reshape(k, m).T)
        X = beta[:k * k]  # Gu Z
        X.fill(0.0)
        self.matvecs(k, m, k, Gu.indptr, Gu.indices, Gu.data, alpha[:m * k], X)
        # X + X' in place: X_ij + X_ji in rows r:r+h from column r on, and
        # the same sums transposed in columns r:r+h from row r on
        X, h = X.reshape(k, k), len(alpha) // k
        for r in range(0, k, h):
            C = alpha[:min(h, k - r) * (k - r)].reshape(-1, k - r)
            np.add(X[r:r + h, r:], X[r:, r:r + h].T, out=C)
            X[r:r + h, r:] = C
            X[r:, r:r + h] = C.T
        self.add_to(H, X)


def _T(M):
    """The transpose of every matrix of a (b, N, N) stack."""
    return M.transpose(0, 2, 1)


def _sym(M):
    return 0.5 * (M + _T(M))


class _PsdStack:
    """The NT scaling and scaled-space algebra of all PSD blocks at once.

    Block j (n_j x n_j) is the top-left corner of matrix j of a (b, N, N)
    stack, N the largest n_j; the rest of the matrix is its pad.  smat
    fills the pad with zeros off the diagonal and `pad` on it: 1 for S and
    Z, whose Cholesky factors and NT scaling then keep the pad exactly the
    identity (up to the order of its columns) and zero across the
    real/pad boundary; 0 for directions, whose pad eigenvalues are then
    exactly zero.  svec reads only the real upper entries, so the pad
    never reaches the stacked vectors.  Towards the solver the stack is one
    cone of degree sum n_j over the blocks' consecutive svec parts; the
    Schur complement stays per block.
    """

    def __init__(self, blocks):
        self.blocks = blocks
        dims = np.array([co.dim for co in blocks])
        b, N = len(blocks), dims.max()
        self.degree = int(dims.sum())
        self.sdim = blocks[-1].part.stop
        self.part = slice(0, self.sdim)
        self.h = _stack(co.h for co in blocks)
        # index of every stack entry in [v / w, 0, pad]: smat is one take
        self.full = np.full((b, N, N), self.sdim)
        self.full[:, np.arange(N), np.arange(N)] = self.sdim + 1
        for M, co in zip(self.full, blocks):
            M[:co.dim, :co.dim] = co.sv.full + co.part.start
        self.upper = np.concatenate([j * N * N + co.sv.rows * N + co.sv.cols
                                     for j, co in enumerate(blocks)])
        self.w = _stack(co.sv.w for co in blocks)
        self.G_entries = tuple(np.concatenate(e) for e in zip(*(co.G_entries for co in blocks)))
        sparse = [co for co in blocks if co.sparse]
        self.sparse = bool(sparse)
        # one Schur workspace, sized for the largest sparse block
        ws = np.empty(max((sum(co.regions) for co in sparse), default=0))
        for co in sparse:
            co.bind(ws)
        self.padmask = (np.arange(N) >= dims[:, None]).astype(float)[:, :, None]
        self.batch = np.arange(b)[:, None]
        self.eye = np.eye(N)
        self.R = self.Rinv = None  # (b, N, N)
        self.lam = None  # (b, N) eigenvalues of the scaled points, the pad's 1 last

    def smat(self, v, pad=0.0):
        return np.concatenate([v / self.w, (0.0, pad)]).take(self.full)

    def svec(self, M):
        return M.take(self.upper) * self.w

    def identity(self):
        return self.svec(np.broadcast_to(self.eye, self.full.shape))

    def duals(self, z):
        """The blocks' n x n matrices of the stack's part z of an svec vector."""
        return [co.sv.smat(z[co.part]) for co in self.blocks]

    def add_schur(self, H):
        for co, Rinv in zip(self.blocks, self.Rinv):
            co.add_schur(H, Rinv[:co.dim, :co.dim])

    # --- NT scaling --------------------------------------------------------
    def update_scaling(self, s, z):
        """R and Rinv with R' Z R = Rinv S Rinv' = diag(lam), R Rinv = I.

        The SVD sorts each matrix's singular values with the pad's 1s among
        them; a stable sort moves the pad's vectors, whose weight on the
        pad is 1, after the block's own, which keep their order.
        """
        Ls = np.linalg.cholesky(self.smat(s, 1.0))
        Lz = np.linalg.cholesky(self.smat(z, 1.0))
        U, sig, Vt = np.linalg.svd(_T(Lz) @ Ls)
        on_pad = ((Vt * Vt) @ self.padmask)[:, :, 0] > 0.5
        order = self.batch, np.argsort(on_pad, axis=1, kind="stable")
        sig = sig[order]
        if sig.min() <= 0:
            raise np.linalg.LinAlgError("NT scaling breakdown")
        sig_isqrt = 1.0 / np.sqrt(sig)
        self.R = Ls @ _T(Vt[order]) * sig_isqrt[:, None, :]
        self.Rinv = (sig_isqrt[:, :, None] * _T(U)[order]) @ _T(Lz)
        self.lam = sig

    # scaled-space operators
    def W_z(self, z):
        return self.svec(_T(self.R) @ self.smat(z) @ self.R)

    def WT_u(self, u):
        return self.svec(self.R @ self.smat(u) @ _T(self.R))

    def scaled_rhs(self, bz):
        """W^-1 W^-T bz, and W^-T bz as a matrix stack.

        W^-T maps smat(v) to Rinv smat(v) Rinv' and W^-1 to Rinv' smat(v)
        Rinv; the intermediate is symmetrized between the two.
        """
        Bt = _sym(self.Rinv @ self.smat(bz) @ _T(self.Rinv))
        return self.svec(_T(self.Rinv) @ Bt @ self.Rinv), Bt

    def scaled_dz(self, gx, Bt):
        """W^-1 (W^-T gx - Bt), gx the stack's part of G ux and Bt from scaled_rhs."""
        D = _sym(self.Rinv @ self.smat(gx) @ _T(self.Rinv)) - Bt
        return self.svec(_T(self.Rinv) @ D @ self.Rinv)

    def q_aff(self):
        """lambda^-1 o (lambda o lambda) = lambda, the predictor's target."""
        return self.svec(self.lam[:, :, None] * self.eye)

    def q_comb(self, us, uz, sigma_mu):
        """lambda^-1 o (lambda o lambda + us o uz - sigma_mu e)."""
        UV = self.smat(us) @ self.smat(uz)
        rhs = 0.5 * (UV + _T(UV)) + (self.lam ** 2 - sigma_mu)[:, :, None] * self.eye
        return self.svec(rhs / (0.5 * (self.lam[:, :, None] + self.lam[:, None, :])))

    def max_step(self, ds, dz):
        """Largest alpha with lambda + alpha*smat(d) >= 0 in every block, for
        both scaled directions d = ds and d = dz: one eigvalsh call over the
        (2, b, N, N) stack of both, which decomposes each matrix on its own."""
        isq = 1.0 / np.sqrt(self.lam)
        D = np.stack([self.smat(ds), self.smat(dz)])
        w = np.linalg.eigvalsh(isq[:, :, None] * D * isq[:, None, :])
        wmin = w[..., 0].min()
        if wmin >= 0:
            return np.inf
        return -1.0 / wmin


def _jnorm(U):
    """sqrt(u0^2 - ||u1||^2) of every row u of U, each inside the second-order cone."""
    u0, n1 = U[:, 0], np.sqrt(np.einsum("ij,ij->i", U[:, 1:], U[:, 1:]))
    if not (u0 - n1 > 0.0).all():
        raise np.linalg.LinAlgError("NT scaling breakdown")
    return np.sqrt((u0 - n1) * (u0 + n1))


class _SocStack:
    """The NT scaling and scaled-space algebra of all second-order cones at once.

    Cone j is row j of a (c, M) stack, zero past its dimension (module
    docstring); u in Q means u0 >= ||u1|| for u = (u0, u1), J = diag(1, -I).
    G stacks each cone's G on its scalars as (c, M, K), K the most scalars.
    """

    sparse = False

    def __init__(self, socs, start, n):
        dims = np.array([soc.dim for soc in socs])
        c, M, K = len(socs), dims.max(), max(len(soc.var_idx) for soc in socs)
        self.degree, self.sdim = c, int(dims.sum())  # each cone is one unit of the degree
        self.part = slice(start, start + self.sdim)
        self.h = _stack(soc.f0 for soc in socs)
        self.cuts = np.cumsum(dims)[:-1]  # where each cone after the first starts
        real = np.arange(M) < dims[:, None]
        # the index of every stack entry in [v, 0]: stacking is one take
        self.full = np.where(real, np.r_[0, self.cuts][:, None] + np.arange(M), self.sdim)
        self.flat = np.flatnonzero(real)
        self.G = np.zeros((c, M, K))
        vis = np.full((c, K), -1)  # each cone's scalars, -1 on the pad
        for j, soc in enumerate(socs):
            self.G[j, :soc.dim, :len(soc.var_idx)] = -soc.coefs.T
            vis[j, :len(soc.var_idx)] = soc.var_idx
        j, r, q = np.nonzero(self.G)
        self.G_entries = (start + self.full[j, r], vis[j, q], self.G[j, r, q])
        # each Schur entry's bin among the distinct flat positions hpos of H
        # that they reach; the pad's entries go to one more bin, dropped
        pos = (vis[:, :, None] * n + vis[:, None, :]).reshape(-1)
        pair = ((vis[:, :, None] >= 0) & (vis[:, None, :] >= 0)).reshape(-1)
        self.hpos, inv = np.unique(pos[pair], return_inverse=True)
        self.bins = np.full(len(pos), len(self.hpos), dtype=np.int32)
        self.bins[pair] = inv
        self.j = np.r_[1.0, -np.ones(M - 1)]  # the diagonal of J

    def stack(self, v):
        return np.concatenate([v, (0.0,)]).take(self.full)

    def unstack(self, U):
        return U.take(self.flat)

    def identity(self):
        return np.isin(np.arange(self.sdim), np.r_[0, self.cuts]).astype(float)

    def duals(self, z):
        return np.split(z, self.cuts)

    def update_scaling(self, s, z):
        """The NT scaling of every cone: with s_ = s / sqrt(s'Js), z_ = z /
        sqrt(z'Jz) and gamma = sqrt((1 + s_'z_) / 2), w = (s_ + J z_) / (2
        gamma), eta = (s'Js / z'Jz)^(1/4), and lambda = W z = W^-1 s formed
        from s_, z_ and gamma directly (Vandenberghe 2010, section 4)."""
        S, Z = self.stack(s), self.stack(z)
        sn, zn = _jnorm(S), _jnorm(Z)
        sb, zb = S / sn[:, None], Z / zn[:, None]
        g = np.sqrt(0.5 * (1.0 + np.einsum("ij,ij->i", sb, zb)))[:, None]  # gamma
        w = (sb + zb * self.j) / (2.0 * g)
        eta, d = np.sqrt(sn / zn)[:, None, None], 1.0 / (1.0 + w[:, :1, None])
        # (w' as rows, w as columns, 1 / (1 + w0), eta) of W and of W^-1
        self.nt = [(v[:, None, :], v[:, :, None], d, e) for v, e in ((w, eta), (w * self.j, 1.0 / eta))]
        lam = ((g + zb[:, :1]) * sb + (g + sb[:, :1]) * zb) / (sb[:, :1] + zb[:, :1] + 2.0 * g)
        lam[:, :1] = g
        lam *= np.sqrt(sn * zn)[:, None]
        self.lam, self.lam_j = lam, lam * self.j
        self.lam_det = _jnorm(lam) ** 2  # lambda'J lambda

    def W(self, X, inv=False):
        """W X, or W^-1 X with inv, for every cone of the (c, M) or (c, M, K)
        stack X, in the hyperbolic-Householder form (module docstring)."""
        wt, wc, d, eta = self.nt[inv]
        Xc = X[:, :, None] if X.ndim == 2 else X
        wx = wt @ Xc
        Y = Xc + wc * ((Xc[:, :1] + wx) * d)
        Y[:, :1] = wx
        Y *= eta
        return Y[:, :, 0] if X.ndim == 2 else Y

    def add_schur(self, H):
        """Add every cone's (W^-1 G)'(W^-1 G) to H, each entry of H summed
        in array order, cone by cone."""
        S = self.W(self.G, inv=True)
        X = np.bincount(self.bins, weights=(_T(S) @ S).reshape(-1), minlength=len(self.hpos) + 1)
        np.put(H, self.hpos, H.take(self.hpos) + X[:-1])

    def W_z(self, z):
        return self.unstack(self.W(self.stack(z)))

    WT_u = W_z  # W is symmetric, and so W^-T = W^-1

    def scaled_rhs(self, bz):
        """W^-2 bz, and W^-1 bz as a stack."""
        Bt = self.W(self.stack(bz), inv=True)
        return self.unstack(self.W(Bt, inv=True)), Bt

    def scaled_dz(self, gx, Bt):
        """W^-1 (W^-1 gx - Bt), gx the stack's part of G ux and Bt from scaled_rhs."""
        return self.unstack(self.W(self.W(self.stack(gx), inv=True) - Bt, inv=True))

    @staticmethod
    def jprod(U, V):
        """The Jordan product u o v = (u'v, u0 v1 + v0 u1) of every row."""
        out = U[:, :1] * V + V[:, :1] * U
        out[:, 0] = np.einsum("ij,ij->i", U, V)
        return out

    def lam_solve(self, R):
        """The X with lambda o x = r in every row."""
        l0 = self.lam[:, :1]
        X = R / l0
        X[:, 0] = np.einsum("ij,ij->i", self.lam_j, R) / self.lam_det
        X[:, 1:] -= (X[:, :1] / l0) * self.lam[:, 1:]
        return X

    def q_aff(self):
        return self.unstack(self.lam)

    def q_comb(self, us, uz, sigma_mu):
        R = self.jprod(self.lam, self.lam) + self.jprod(self.stack(us), self.stack(uz))
        R[:, 0] -= sigma_mu
        return self.unstack(self.lam_solve(R))

    def max_step(self, ds, dz):
        """Largest alpha with lambda + alpha d in Q in every cone, for d = ds
        and d = dz: one root formula over the (2c, M) stack of both.

        Infinite for a d in Q; else the smallest positive root of the J-norm
        a alpha^2 + 2 b alpha + c, c = lambda'J lambda > 0, which exists and
        makes q nonzero.  A negative discriminant rounds a double root (the
        path through the apex) and is taken as zero.  Rows in Q skip the
        divisions."""
        D = np.vstack([self.stack(ds), self.stack(dz)])
        n1sq = np.einsum("ij,ij->i", D[:, 1:], D[:, 1:])
        out = D[:, 0] < np.sqrt(n1sq)
        a = D[:, 0] * D[:, 0] - n1sq
        b = np.einsum("ij,ij->i", np.vstack([self.lam_j, self.lam_j]), D)
        c = np.r_[self.lam_det, self.lam_det]
        q = -(b + np.copysign(np.sqrt(np.maximum(b * b - a * c, 0.0)), b))
        roots = np.full((2, len(D)), np.inf)
        np.divide(c, q, out=roots[0], where=out)
        np.divide(q, a, out=roots[1], where=out & (a != 0.0))
        return roots[roots > 0.0].min(initial=np.inf)


def _cones(problem):
    """The problem's _PsdStack and _SocStack, each it has, on consecutive parts of the vectors."""
    blocks, start = [], 0
    for blk in problem.blocks:
        blocks.append(_Cone(blk, start))
        start += blocks[-1].sdim
    return ([_PsdStack(blocks)] if blocks else []) + \
        ([_SocStack(problem.socs, start, problem.num_vars)] if problem.socs else [])


def _G(cones, n):
    """The problem's map G (d x n), stacked over the svec parts of all cones.

    A CSR matrix when some PSD block keeps a sparse Gu, and a dense array
    otherwise.  The dense array is column-major: BLAS's summation order in
    the products with G, and so each solve's rounding, follows the layout.
    """
    d = sum(co.sdim for co in cones)
    if any(co.sparse for co in cones):
        import scipy.sparse
        rows, cols, vals = (np.concatenate(e) for e in zip(*(co.G_entries for co in cones)))
        return scipy.sparse.csr_array((vals, (rows, cols)), shape=(d, n))
    G = np.zeros((n, d)).T
    for co in cones:
        rows, cols, vals = co.G_entries
        G[rows, cols] = vals
    return G


# ---------------------------------------------------------------------------
# main solver


def _factor_kkt(H, delta, KKT):
    """Factor H + delta*I in the column-major n x n buffer KKT and return
    its solve function.

    The matrix is symmetric positive definite in exact arithmetic and is
    factored by LAPACK's Cholesky, dpotrf and dpotrs called directly, in
    place of KKT; a numerical failure raises LinAlgError.  H is exactly
    symmetric, so its transpose, copied into KKT, is H in the column-major
    order that LAPACK factors in place.
    """
    np.copyto(KKT, H.T)
    KKT.flat[::H.shape[0] + 1] += delta
    U, info = scipy.linalg.lapack.dpotrf(KKT, clean=False, overwrite_a=True)
    if info != 0:
        raise np.linalg.LinAlgError("KKT Cholesky failure")
    # dpotrs takes no empty right-hand side, which a problem without
    # variables has
    return lambda rhs: scipy.linalg.lapack.dpotrs(U, rhs)[0] if len(rhs) else rhs


def _schur(cones, H):
    """Overwrite H with the Schur complement G' W^-1 W^-T G at the current NT scaling."""
    H.fill(0.0)
    for co in cones:
        co.add_schur(H)
    return H


def _solve3(cones, G, GT, H, kkt_solve, pairs):
    """Solve the scaled Newton system for (ux, uz), one pair per (bx, bz) in pairs.

    The system is  H ux = bx + G' W^-1 W^-T bz,
    uz = W^-1 (W^-T G ux - W^-T bz), for the PSD stack and then the
    second-order cones' stack (scaled_rhs and scaled_dz).  The solve is refined twice
    against the unregularized system.  Every kkt_solve takes all the
    right-hand sides as columns; the right-hand sides and refinement
    residuals are formed one column at a time, so that each pair's answer
    is the one it would get alone.  GT is G's transpose, formed once per solve.
    """
    scaled = [[co.scaled_rhs(bz[co.part]) for co in cones] for _, bz in pairs]
    rhs = np.array([bx + GT @ _stack(v for v, _ in sc) for (bx, _), sc in zip(pairs, scaled)])
    ux = kkt_solve(rhs.T).T
    for _ in range(2):
        ux = ux + kkt_solve(np.array([r - H @ u for r, u in zip(rhs, ux)]).T).T
    return [(u, _stack(co.scaled_dz(gx[co.part], Bt) for co, (_, Bt) in zip(cones, sc)))
            for u, gx, sc in zip(ux, (G @ u for u in ux), scaled)]


class _PhaseClock:
    """Seconds per solver phase, summed over the iterations."""

    def __init__(self):
        self.seconds = dict.fromkeys(PHASES, 0.0)
        self.start()

    def start(self):
        self.last = time.perf_counter()

    def lap(self, phase):
        """Charge the time since the last start or lap to `phase`."""
        now = time.perf_counter()
        self.seconds[phase] += now - self.last
        self.last = now


def solve_sdp(problem: SdpProblem) -> SdpSolution:
    """Solve an LMI-form SDP; see the module docstring for the algorithm."""
    n = problem.num_vars
    c = problem.c
    # the n x n buffers first, to reuse the previous solve's before set-up splits it
    H = np.zeros((n, n))
    KKT = np.empty((n, n), order="F")  # _factor_kkt's factor
    cones = _cones(problem)
    G = _G(cones, n)
    GT = G.T  # formed once: the transpose of a CSR G is a new CSC object
    h = _stack(co.h for co in cones)
    m1 = sum(co.degree for co in cones) + 1

    def split(v):
        return [v[co.part] for co in cones]

    # start at the identity in every cone
    x = np.zeros(n)
    s = _stack(co.identity() for co in cones)
    z = s.copy()
    tau, kappa = 1.0, 1.0

    norm_h = 1.0 + np.linalg.norm(h)
    norm_c = 1.0 + np.linalg.norm(c)

    iterates = []
    status, message = "max_iter", "iteration limit reached"
    pres = dres = gap = np.inf
    it = 0
    # best-so-far snapshot: near-degenerate problems can reach the optimum
    # and then drift as the scaled KKT system turns singular, so the final
    # answer is taken from the cleanest iterate, not the last one
    best_score = np.inf
    best = None
    best_it = 0
    clock = _PhaseClock()

    for it in range(MAX_ITER):
        finite = all(np.all(np.isfinite(v)) for v in (x, z, s)) and \
            np.isfinite(tau) and np.isfinite(kappa) and tau > 0 and kappa >= 0
        if not finite:
            status, message = "max_iter", "numerical breakdown (non-finite iterate)"
            break
        rx = GT @ z + c * tau
        rz = G @ x + s - h * tau
        rtau = float(c @ x + h @ z + kappa)
        mu = (float(s @ z) + tau * kappa) / m1

        # the residuals at (x, s, z) / tau are rz / tau and rx / tau
        xh = x / tau
        sh = s / tau
        zh = z / tau
        pres = np.linalg.norm(rz) / tau / norm_h
        dres = np.linalg.norm(rx) / tau / norm_c
        pobj = float(c @ xh)
        dobj = float(-(h @ zh))
        gap = float(sh @ zh)
        iterates.append(IterateRecord(
            iteration=it, pobj=pobj, dobj=dobj, gap=gap, pres=pres, dres=dres,
            tau=tau, kappa=kappa, mu=mu, rtau_over_tau=abs(rtau) / tau))

        score = max(pres, dres, gap / (1.0 + abs(pobj) + abs(dobj)))
        if score < best_score:
            best_score, best_it = score, it
            best = (x.copy(), z.copy(), s.copy(), tau, kappa, pres, dres, gap)

        if pres <= FEAS_TOL and dres <= FEAS_TOL and \
                gap <= GAP_TOL * (1.0 + abs(pobj) + abs(dobj)):
            status, message = "optimal", "converged"
            break

        # infeasibility certificates, only probed once the homogenizing
        # variable starts to collapse
        viol_p = -(h @ z)
        if kappa > tau and viol_p > 0:
            if np.linalg.norm(GT @ z) <= INFEAS_TOL * viol_p and \
                    viol_p >= INFEAS_TOL * max(1.0, np.linalg.norm(z)):
                status, message = "infeasible", "dual improving ray found"
                z = z / viol_p
                break
        viol_d = -float(c @ x)
        if kappa > tau and viol_d > 0:
            if np.linalg.norm(G @ x + s) <= INFEAS_TOL * viol_d and \
                    viol_d >= INFEAS_TOL * max(1.0, np.linalg.norm(x)):
                status, message = "unbounded", "primal improving ray found"
                x = x / viol_d
                s = s / viol_d
                break

        # stalled: the best iterate is good enough and has not been bettered
        if best_score <= REDUCED_TOL and it - best_it >= STALL_ITERS:
            status, message = "max_iter", "stalled"
            break

        clock.start()
        try:
            for co, sb, zb in zip(cones, split(s), split(z)):
                co.update_scaling(sb, zb)
        except np.linalg.LinAlgError:
            status, message = "max_iter", "NT scaling breakdown"
            break
        clock.lap("scaling")

        # assemble and factor the reduced KKT system
        _schur(cones, H)
        clock.lap("schur")
        delta = 1e-12 * (1.0 + np.abs(np.diag(H)).max(initial=0.0))
        try:
            kkt_solve = _factor_kkt(H, delta, KKT)
        except (np.linalg.LinAlgError, ValueError):
            status, message = "max_iter", "KKT factorization failure"
            break
        clock.lap("factor")

        def solve3(*pairs):
            clock.lap("step")
            out = _solve3(cones, G, GT, H, kkt_solve, pairs)
            clock.lap("solve")
            return out

        def rhs(eta_c, q):
            """The Newton right-hand side (bx, bz) of a direction with target q."""
            return (-(1.0 - eta_c) * rx,
                    -(1.0 - eta_c) * rz + _stack(co.WT_u(v) for co, v in zip(cones, split(q))))

        def direction(eta_c, q, rkap, d0):
            """The full step from the Newton solution d0 of rhs(eta_c, q)."""
            dx0, dz0 = d0
            denom = float(c @ dx1 + h @ dz1) - kappa / tau
            numer = -(1.0 - eta_c) * rtau - float(c @ dx0 + h @ dz0) - rkap / tau
            dtau = numer / denom
            dx = dx0 + dtau * dx1
            dz = dz0 + dtau * dz1
            dz_sc = _stack(co.W_z(v) for co, v in zip(cones, split(dz)))
            ds_sc = -q - dz_sc
            ds = _stack(co.WT_u(v) for co, v in zip(cones, split(ds_sc)))
            dkap = (rkap - kappa * dtau) / tau
            return dx, dz, ds, dtau, dkap, ds_sc, dz_sc

        def max_step(ds_sc, dz_sc, dtau, dkap):
            steps = [co.max_step(us, uz) for co, us, uz in zip(cones, split(ds_sc), split(dz_sc))]
            alpha = min(steps, default=np.inf)
            if dtau < 0:
                alpha = min(alpha, -tau / dtau)
            if dkap < 0:
                alpha = min(alpha, -kappa / dkap)
            return alpha

        # predictor, solved together with the tau-direction (dx1, dz1)
        q_aff = _stack(co.q_aff() for co in cones)
        (dx1, dz1), d_aff = solve3((-c, h), rhs(0.0, q_aff))
        aff = direction(0.0, q_aff, -tau * kappa, d_aff)
        a_aff = min(1.0, max_step(aff[5], aff[6], aff[3], aff[4]))
        sigma = min(1.0, max(0.0, 1.0 - a_aff)) ** 3

        # corrector
        q_comb = _stack(co.q_comb(us, uz, sigma * mu)
                        for co, us, uz in zip(cones, split(aff[5]), split(aff[6])))
        rkap = sigma * mu - tau * kappa - aff[3] * aff[4]
        [d_comb] = solve3(rhs(sigma, q_comb))
        dx, dz, ds, dtau, dkap, ds_sc, dz_sc = direction(sigma, q_comb, rkap, d_comb)

        alpha = min(1.0, STEP_FRAC * max_step(ds_sc, dz_sc, dtau, dkap))
        if not np.isfinite(alpha) or alpha <= 1e-10:
            status, message = "max_iter", "step size collapsed"
            break
        x = x + alpha * dx
        z = z + alpha * dz
        s = s + alpha * ds
        tau = tau + alpha * dtau
        kappa = kappa + alpha * dkap
        clock.lap("step")

    if status == "max_iter" and best is not None:
        # fall back to the cleanest iterate; accept it outright when it is
        # within a modest factor of the requested tolerances
        x, z, s, tau, kappa, pres, dres, gap = best
        if best_score <= REDUCED_TOL:
            status = "optimal"
            message = f"converged at reduced accuracy ({message})"

    # an improving ray is returned as found, any other answer divided by tau
    ray = status in ("infeasible", "unbounded")
    sc = tau if not ray and np.isfinite(tau) and tau > 1e-100 else 1.0
    nstack = 1 if problem.blocks else 0
    block_duals, soc_duals = ([u / sc for stack in part for u in stack.duals(z[stack.part])]
                              for part in (cones[:nstack], cones[nstack:]))
    x_out = x / sc

    obj = float(c @ x_out) + problem.obj_const if status == "optimal" else np.nan
    if _log.isEnabledFor(logging.DEBUG):
        _log.debug("sdp %s (%s) after %d iterations: pres %.3e dres %.3e gap %.3e, phase_s %s",
                   status, message, it + 1, pres, dres, gap, clock.seconds)
    return SdpSolution(status=status, x=x_out, objective=obj, block_duals=block_duals, pres=pres, dres=dres,
                       gap=gap, iterations=it + 1, iterates=iterates, message=message,
                       soc_duals=soc_duals, phase_s=clock.seconds)


# ---------------------------------------------------------------------------
# independent certificate check


@dataclass
class CertificateReport:
    psd_min_eigs: list
    dual_residual: float
    dual_psd_min_eigs: list
    duality_gap: float
    flags: list
    # u0 - ||u1|| of each second-order cone, primal and dual
    soc_margins: list = field(default_factory=list)
    dual_soc_margins: list = field(default_factory=list)

    @property
    def clean(self):
        return not self.flags


def check_certificate(problem: SdpProblem, solution: SdpSolution) -> CertificateReport:
    """Recompute all optimality residuals from scratch.

    Nothing from the solver run is reused except the reported primal/dual
    values: the PSD blocks and second-order cones at x and at their duals,
    the dual residual and the duality gap.  Any violation beyond 10x the
    solver tolerances FEAS_TOL and GAP_TOL is flagged.
    """
    flags = []
    x = solution.x
    mins = []
    for j, blk in enumerate(problem.blocks):
        M = blk.evaluate(x)
        w = float(np.linalg.eigvalsh(0.5 * (M + M.T))[0])
        mins.append(w)
        if w < -1e-8 * (1.0 + np.linalg.norm(M, 2)):
            flags.append(f"block {j} PSD violation: min eig {w:.3e}")
    soc_margins = [_soc_margin(soc.evaluate(x), f"cone {j}", flags)
                   for j, soc in enumerate(problem.socs)]
    # dual side
    dual_mins = []
    grad = problem.c.copy()
    dobj = 0.0
    for j, (blk, Z) in enumerate(zip(problem.blocks, solution.block_duals)):
        if Z is None:
            continue
        wz = float(np.linalg.eigvalsh(0.5 * (Z + Z.T))[0])
        dual_mins.append(wz)
        if wz < -1e-8 * (1.0 + np.linalg.norm(Z, 2)):
            flags.append(f"dual block {j} PSD violation: min eig {wz:.3e}")
        j, r, c, v = blk.entries()
        grad[blk.var_idx] -= np.bincount(j, weights=v * Z[r, c], minlength=len(blk.var_idx))
        dobj -= float(np.sum(blk.F0 * Z))
    dual_soc_margins = []
    for j, (soc, zq) in enumerate(zip(problem.socs, solution.soc_duals)):
        dual_soc_margins.append(_soc_margin(zq, f"dual cone {j}", flags))
        grad[soc.var_idx] -= soc.coefs @ zq
        dobj -= float(soc.f0 @ zq)
    dres = float(np.linalg.norm(grad) / (1.0 + np.linalg.norm(problem.c)))
    if dres > 10 * FEAS_TOL:
        flags.append(f"dual residual {dres:.3e}")
    pobj = float(problem.c @ x)
    gap = pobj - dobj
    if abs(gap) > 10 * GAP_TOL * (1.0 + abs(pobj) + abs(dobj)):
        flags.append(f"duality gap {gap:.3e}")
    return CertificateReport(psd_min_eigs=mins,
                             dual_residual=dres, dual_psd_min_eigs=dual_mins,
                             duality_gap=gap, flags=flags, soc_margins=soc_margins,
                             dual_soc_margins=dual_soc_margins)


def _soc_margin(u, name, flags):
    """u0 - ||u1||; flags a second-order cone violation beyond 1e-8 (1 + ||u||)."""
    margin = float(u[0] - np.linalg.norm(u[1:]))
    if margin < -1e-8 * (1.0 + np.linalg.norm(u)):
        flags.append(f"{name} SOC violation: u0 - |u1| {margin:.3e}")
    return margin
