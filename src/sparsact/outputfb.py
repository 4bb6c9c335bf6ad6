"""Dynamic output-feedback synthesis with sparse actuation.

The synthesis works in transformed ("hat") controller variables that make
the closed-loop performance conditions affine; the actual controller is
recovered afterwards by inverting the change of variables.  Per-actuator
squared-H2 bounds Gamma play the same sparsity-surrogate role as in the
state-feedback design.  The preconditions, variables, H-infinity/H2
performance constraints and hat recovery here are shared with ``joint``.

A measurement feedthrough Dyw != 0 needs DKhat Dyw = 0 so that the
disturbance does not reach the actuators directly.  DKhat is the
expression Z P' for every Dyw: P = I when Dyw = 0, and otherwise an
orthonormal basis of null(Dyw'), so the condition holds by construction and
the compiled problem has no equality constraints.  When Dyw has full row
rank, P and Z have no columns and DKhat evaluates to zeros.
The closed loop's DK Dyw is then zero up to the rounding of the products,
which ``model.close_output_feedback`` sets to exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import analysis, lmi
from .errors import (
    DimensionError,
    InfeasiblePerformance,
    NonzeroFeedthroughError,
    ReconstructionFailure,
)
from .model import DynamicController, GeneralizedPlant, close_output_feedback, validate_plant
from .sdp import SdpSolution, solve_sdp
from .statefb import (
    COND_LIMIT,
    GAMMA_BACKOFF,
    SfSynthesisSpec,
    _ChannelBoundGroups,
    _gamma_caps,
    _raise_for_status,
    _solved_gamma,
    _verify,
)

__all__ = [
    "OfSynthesisSpec",
    "HatController",
    "OfSynthesisResult",
    "synth_of",
    "reconstruct_controller",
]


@dataclass(frozen=True)
class HatController:
    """Transformed controller variables plus the Lyapunov partitions X, Y."""

    AKhat: np.ndarray
    BKhat: np.ndarray
    CKhat: np.ndarray
    DKhat: np.ndarray
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        for name in ("AKhat", "BKhat", "CKhat", "DKhat", "X", "Y"):
            M = np.atleast_2d(np.asarray(getattr(self, name), dtype=float))
            if not np.all(np.isfinite(M)):
                raise ValueError(f"{name} must be finite")
            object.__setattr__(self, name, M)
        nx = self.X.shape[0]
        if self.X.shape != (nx, nx) or self.Y.shape != (nx, nx):
            raise DimensionError("X and Y must be square with matching size")
        if self.AKhat.shape != (nx, nx):
            raise DimensionError(f"AKhat must be {nx}x{nx}")
        if self.BKhat.shape[0] != nx or self.CKhat.shape[1] != nx:
            raise DimensionError("BKhat/CKhat dimensions inconsistent with X")


class OfSynthesisSpec(SfSynthesisSpec):
    """An SfSynthesisSpec whose design is dynamic output feedback."""

    def synthesize(self):
        return synth_of(self)


@dataclass(frozen=True)
class OfSynthesisResult(_ChannelBoundGroups):
    hat: HatController
    controller: DynamicController
    gamma: np.ndarray
    objective: float
    verified_closed_loop: analysis.NormReport
    verified_channels: list
    solution: SdpSolution


def _check_of_preconditions(plant):
    diags = validate_plant(plant)
    feed = [d for d in diags if "Dyu" in d]
    if feed:
        raise NonzeroFeedthroughError(feed[0])
    if diags:
        raise InfeasiblePerformance("; ".join(diags))


def _declare_of_variables(plant):
    """The hat variables (X, Y, AKhat, BKhat, CKhat, DKhat) and the matrix
    variables they are made of; DKhat is the expression Z P'."""
    nx, nu, ny = plant.nx, plant.nu, plant.ny
    X = lmi.MatVar("X", (nx, nx), "symmetric")
    Y = lmi.MatVar("Y", (nx, nx), "symmetric")
    AKh = lmi.MatVar("AKhat", (nx, nx))
    BKh = lmi.MatVar("BKhat", (nx, ny))
    CKh = lmi.MatVar("CKhat", (nu, nx))
    P = np.eye(ny) if np.all(plant.Dyw == 0.0) else scipy.linalg.null_space(plant.Dyw.T)
    Z = lmi.MatVar("DKhat_Z", (nu, P.shape[1]))
    return (X, Y, AKh, BKh, CKh, Z @ P.T), [X, Y, AKh, BKh, CKh, Z]


def _of_common_exprs(p, X, Y, AKh, BKh, CKh, DKh):
    """The repeated sub-expressions of the transformed closed-loop blocks."""
    b11 = lmi.sym(p.A @ X + p.Bu @ CKh)
    b21 = AKh + lmi.const(p.A.T) + (p.Bu @ DKh @ p.Cy).T
    b22 = lmi.sym(Y @ p.A + BKh @ p.Cy)
    b31 = (lmi.const(p.Bw) + p.Bu @ DKh @ p.Dyw).T
    b32 = (Y @ p.Bw + BKh @ p.Dyw).T
    return b11, b21, b22, b31, b32


def _lyapunov_rows(parts, ww):
    """Block rows of the transformed Lyapunov block; ww is its w-w entry."""
    b11, b21, b22, b31, b32 = parts
    return [[b11, None, None], [b21, b22, None], [b31, b32, ww]]


def _channel_lyapunov_block(p, parts):
    return lmi.bmat(_lyapunov_rows(parts, lmi.const(-np.eye(p.nw))))


def _performance_constraints(spec, X, Y, CKh, DKh, parts):
    """(constraints, extra variables) bounding the norm of spec.performance_kind
    by gamma0: the bounded-real block, or the H2 blocks in Q (their
    feedthrough Dw + Du DKhat Dyw is zero: Dw = 0 and DKhat Dyw = 0)."""
    p = spec.plant
    g0 = spec.gamma0 * (1.0 - GAMMA_BACKOFF)
    if spec.performance_kind == "hinf":
        rows = [row + [None] for row in _lyapunov_rows(parts, lmi.const(-g0 * np.eye(p.nw)))]
        rows.append([p.Cz @ X + p.Du @ CKh,
                     lmi.const(p.Cz) + p.Du @ DKh @ p.Cy,
                     lmi.const(p.Dw) + p.Du @ DKh @ p.Dyw,
                     lmi.const(-g0 * np.eye(p.nz))])
        return [lmi.neg_def(lmi.bmat(rows))], []
    Q = lmi.MatVar("Q", (p.nz, p.nz), "symmetric")
    q_block = lmi.bmat([
        [X, lmi.const(np.eye(p.nx)), (p.Cz @ X + p.Du @ CKh).T],
        [None, Y, (lmi.const(p.Cz) + p.Du @ DKh @ p.Cy).T],
        [None, None, Q],
    ])
    cons = [
        lmi.neg_def(_channel_lyapunov_block(p, parts)),
        lmi.pos_def(q_block),
        lmi.neg_def(lmi.trace(Q) - g0 ** 2 * np.eye(1)),
    ]
    return cons, [Q]


def _of_channel_blocks(p, X, Y, CKh, DKh, G):
    return [lmi.pos_def(lmi.bmat([
        [G.row(i).col(i), CKh.row(i), DKh.row(i) @ p.Cy],
        [None, X, lmi.const(np.eye(p.nx))],
        [None, None, Y],
    ])) for i in range(p.nu)]


def _positivity_block(X, Y, nx):
    return lmi.pos_def(lmi.bmat([
        [X, lmi.const(np.eye(nx))],
        [None, Y],
    ]))


def _recover_hat(vm, sol, X, Y, AKh, BKh, CKh, DKh):
    values = vm.assignment(sol.x)
    return HatController(*(lmi.evaluate(v, values) for v in (AKh, BKh, CKh, DKh, X, Y)))


def synth_of(spec: SfSynthesisSpec) -> OfSynthesisResult:
    """Dynamic output feedback with ||w -> z|| < gamma0 in the norm of
    spec.performance_kind, minimizing rho . Gamma."""
    p = spec.plant
    _check_of_preconditions(p)
    hat_vars, variables = _declare_of_variables(p)
    X, Y, AKh, BKh, CKh, DKh = hat_vars
    G = lmi.MatVar("Gamma", (p.nu, p.nu), "diagonal")
    parts = _of_common_exprs(p, *hat_vars)

    cons, extra = _performance_constraints(spec, X, Y, CKh, DKh, parts)
    if spec.performance_kind == "hinf":  # the channel bounds need it; H2 has it already
        cons.append(lmi.neg_def(_channel_lyapunov_block(p, parts)))
    cons.append(_positivity_block(X, Y, p.nx))
    cons += _of_channel_blocks(p, X, Y, CKh, DKh, G)
    cons += _gamma_caps(G, spec.gamma_max)

    objective = lmi.trace(np.diag(spec.rho) @ G)
    problem, vm = lmi.compile_lmis([*variables, G, *extra], cons, objective=objective)
    sol = solve_sdp(problem, spec.solver)
    _raise_for_status(sol)

    hat = _recover_hat(vm, sol, *hat_vars)
    ctrl = reconstruct_controller(hat, p)
    gamma = _solved_gamma(spec, vm, sol, G)
    report, channels = _verify(spec, close_output_feedback(p, ctrl), gamma)
    return OfSynthesisResult(
        hat=hat,
        controller=ctrl,
        gamma=gamma,
        objective=float(spec.rho @ gamma),
        verified_closed_loop=report,
        verified_channels=channels,
        solution=sol,
    )


def factor_lyapunov_partitions(X, Y):
    """Nonsingular M, N with M @ N.T = I - X @ Y (LU with partial pivoting)."""
    nx = X.shape[0]
    S = np.eye(nx) - X @ Y
    cond = float(np.linalg.cond(S))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise ReconstructionFailure(
            f"I - X@Y is numerically singular (condition number {cond:.3e}); "
            "the Lyapunov positivity margin was too small")
    P, L, U = scipy.linalg.lu(S)
    M = P @ L
    N = U.T
    return M, N


def reconstruct_controller(hat: HatController, plant: GeneralizedPlant) -> DynamicController:
    """Invert the change of variables to obtain (AK, BK, CK, DK)."""
    X, Y = hat.X, hat.Y
    A, Bu, Cy = plant.A, plant.Bu, plant.Cy
    M, N = factor_lyapunov_partitions(X, Y)
    DK = hat.DKhat
    CK = np.linalg.solve(M, (hat.CKhat - DK @ Cy @ X).T).T
    BK = np.linalg.solve(N, hat.BKhat - Y @ Bu @ DK)
    core = (hat.AKhat - N @ BK @ Cy @ X - Y @ Bu @ CK @ M.T
            - Y @ (A + Bu @ DK @ Cy) @ X)
    AK = np.linalg.solve(M, np.linalg.solve(N, core).T).T
    return DynamicController(AK=AK, BK=BK, CK=CK, DK=DK)

