"""Dynamic output-feedback synthesis with sparse actuation.

The synthesis works in transformed ("hat") controller variables that make
the closed-loop performance conditions affine.  ``hat_loop`` writes the
closed loop in them as a statefb.HatLoop, whose Lyapunov matrix is
[[X, I], [I, Y]] and whose row i of K is [CKhat_i, DKhat_i Cy]; the
design is then statefb's channel-bound design on that loop, the same as
the state-feedback one, with the coupling margin
[[(1 - eps) X, I], [I, Y]] > 0 as its positivity block.  AKhat is left
out, since it sits only in the performance block, which the loop emits as
its two projections (the projection lemma), and recovered after the solve
(HatLoop.akhat); only when statefb._coupled, whose Lyapunov block holds
it too, is it a variable, of that problem and of its fallback.  The actual
controller is recovered afterwards by inverting the change of variables.
``joint`` shares the hat loop and the hat recovery; both designs, like
statefb's, are admitted by statefb._admit before any LMI is built.

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
from .errors import ReconstructionFailure
from .model import DynamicController, GeneralizedPlant, close_output_feedback, store_matrices
# solve_sdp is unused here but bound for perfbench/tracer.py to patch
from .sdp import SdpSolution, solve_sdp  # noqa: F401
from .statefb import (
    COND_LIMIT,
    HatLoop,
    SfSynthesisSpec,
    _admit,
    _channel_bound_design,
    _ChannelBoundGroups,
    _coupled,
    _verify,
)

__all__ = [
    "OfSynthesisSpec",
    "HatController",
    "hat_loop",
    "OfSynthesisResult",
    "synth_of",
    "reconstruct_controller",
]


@dataclass(frozen=True)
class HatController:
    """Transformed controller variables plus the Lyapunov partitions X, Y,
    stored as read-only, finite float arrays (``model.store_matrices``)."""

    AKhat: np.ndarray
    BKhat: np.ndarray
    CKhat: np.ndarray
    DKhat: np.ndarray
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        store_matrices(self, {"AKhat": ("nx", "nx"), "BKhat": ("nx", "ny"),
                              "CKhat": ("nu", "nx"), "DKhat": ("nu", "ny"),
                              "X": ("nx", "nx"), "Y": ("nx", "nx")})


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


def hat_loop(plant, akhat_free=False):
    """The closed loop in the hat variables (Scherer, Gahinet & Chilali,
    1997), the hat expressions (AKhat, BKhat, CKhat, DKhat, X, Y) in
    HatController's order, and the matrix variables they are made of;
    DKhat is the expression Z P'.  With akhat_free, AKhat is no variable:
    its expression is None, A's (2, 1) block is zero, and the loop emits
    the projected blocks (statefb.HatLoop)."""
    p = plant
    nx, nu, ny = p.nx, p.nu, p.ny
    X = lmi.MatVar("X", (nx, nx), "symmetric")
    Y = lmi.MatVar("Y", (nx, nx), "symmetric")
    AKh = None if akhat_free else lmi.MatVar("AKhat", (nx, nx))
    BKh = lmi.MatVar("BKhat", (nx, ny))
    CKh = lmi.MatVar("CKhat", (nu, nx))
    P = np.eye(ny) if np.all(p.Dyw == 0.0) else scipy.linalg.null_space(p.Dyw.T)
    Z = lmi.MatVar("DKhat_Z", (nu, P.shape[1]))
    DKh = Z @ P.T
    loop = HatLoop(
        A=lmi.bmat([[p.A @ X + p.Bu @ CKh, lmi.const(p.A) + p.Bu @ DKh @ p.Cy],
                    [lmi.const(np.zeros((nx, nx))) if akhat_free else AKh,
                     Y @ p.A + BKh @ p.Cy]]),
        B=lmi.bmat([[lmi.const(p.Bw) + p.Bu @ DKh @ p.Dyw], [Y @ p.Bw + BKh @ p.Dyw]]),
        C=lmi.bmat([[p.Cz @ X + p.Du @ CKh, lmi.const(p.Cz) + p.Du @ DKh @ p.Cy]]),
        D=lmi.const(p.Dw) + p.Du @ DKh @ p.Dyw,
        X=lmi.bmat([[X, lmi.const(np.eye(nx))], [None, Y]]),
        K=lmi.bmat([[CKh, DKh @ p.Cy]]),
        halves=nx, akhat_free=akhat_free)
    return loop, (AKh, BKh, CKh, DKh, X, Y), [v for v in (X, Y, AKh, BKh, CKh, Z) if v is not None]


def _recover_hat(spec, loop, vm, sol, hat):
    """The HatController at the solution; an AKhat left out of the problem
    comes from loop.akhat."""
    values = vm.assignment(sol.x)
    AKh, *rest = (None if v is None else lmi.evaluate(v, values) for v in hat)
    return HatController(loop.akhat(spec, values) if AKh is None else AKh, *rest)


def synth_of(spec: SfSynthesisSpec) -> OfSynthesisResult:
    """Dynamic output feedback with ||w -> z|| < gamma0 in the norm of
    spec.performance_kind, minimizing rho . Gamma."""
    p = spec.plant
    _admit(spec)
    loop, hat_exprs, variables = hat_loop(p, akhat_free=not _coupled(spec))
    vm, sol, gamma = _channel_bound_design(spec, loop, variables)
    hat = _recover_hat(spec, loop, vm, sol, hat_exprs)
    ctrl = reconstruct_controller(hat, p)
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

