"""State-feedback synthesis with sparse actuation.

Minimizes a weighted l1 norm of per-actuator squared-H2 bounds Gamma
subject to a closed-loop performance constraint (H-infinity or H2) on
the disturbance-to-output channel.  Small per-actuator bounds mean the
corresponding actuator does little work and can eventually be pruned.
This module also holds what all three designs share: the shared constants,
the solver-status-to-exception map, the gamma caps and the verification.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import analysis, lmi
from .errors import (
    DimensionError,
    InfeasiblePerformance,
    NonzeroFeedthroughError,
    SynthesisNumericalError,
)
from .model import (GeneralizedPlant, StateFeedbackGain, close_state_feedback,
                    controller_to_dict, validate_plant)
from .sdp import SdpSolution, SolverOptions, solve_sdp

__all__ = [
    "SfSynthesisSpec",
    "SfSynthesisResult",
    "synth_sf",
    "result_to_dict",
    "active_set_from_values",
    "ACTIVE_THRESHOLD_RATIO",
    "VERIFY_RTOL",
    "COND_LIMIT",
    "GAMMA_BACKOFF",
]

ACTIVE_THRESHOLD_RATIO = 1e-3
VERIFY_RTOL = 1e-5
COND_LIMIT = 1e12
# The synthesis LMIs use gamma0 shrunk by this relative amount so that the
# independent verification against the requested gamma0 always has headroom,
# even when the performance constraint is active at the optimum.
GAMMA_BACKOFF = 1e-3


ACTIVE_ABS_FLOOR = 1e-8


def active_set_from_values(values, threshold_ratio=ACTIVE_THRESHOLD_RATIO):
    """Indices whose value exceeds threshold_ratio times the largest value.

    Values below an absolute floor are never active: when a design needs
    essentially no control at all, every group is inactive rather than
    every group trivially clearing a relative threshold of ~zero.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    cut = max(threshold_ratio * float(values.max()), ACTIVE_ABS_FLOOR)
    return [int(i) for i in np.flatnonzero(values > cut)]


def _check_performance(spec):
    """The performance_kind and gamma0 checks of every spec; H2 needs Dw = 0."""
    if spec.performance_kind not in ("hinf", "h2"):
        raise ValueError(f"performance_kind must be 'hinf' or 'h2', got {spec.performance_kind!r}")
    if not (spec.gamma0 > 0):
        raise ValueError("gamma0 must be positive")
    if spec.performance_kind == "h2" and np.any(spec.plant.Dw != 0.0):
        raise NonzeroFeedthroughError(
            "H2 performance needs Dw = 0: the disturbance-to-output "
            "feedthrough makes the H2 norm unbounded")


@dataclass(frozen=True)
class SfSynthesisSpec:
    """Inputs to a state-feedback design.

    gamma0 bounds the closed-loop norm of the chosen kind; rho weights the
    per-actuator bounds in the objective; gamma_max optionally caps each
    gamma_i (hardware actuator limits).  GROUPS maps each weight group of
    the reweighted loop to the field holding its weights.
    """

    GROUPS = {"actuators": "rho"}

    plant: GeneralizedPlant
    performance_kind: str = "hinf"
    gamma0: float = 1.0
    rho: np.ndarray | None = None
    gamma_max: np.ndarray | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        _check_performance(self)
        nu = self.plant.nu
        rho = np.ones(nu) if self.rho is None else np.asarray(self.rho, dtype=float).ravel()
        if rho.shape != (nu,):
            raise DimensionError(f"rho must have length {nu}")
        if np.any(rho <= 0):
            raise ValueError("rho must be positive elementwise")
        object.__setattr__(self, "rho", rho)
        if self.gamma_max is not None:
            gm = np.asarray(self.gamma_max, dtype=float).ravel()
            if gm.shape != (nu,):
                raise DimensionError(f"gamma_max must have length {nu}")
            if np.any(gm <= 0):
                raise ValueError("gamma_max must be positive elementwise")
            object.__setattr__(self, "gamma_max", gm)

    def synthesize(self):
        return synth_sf(self)

    def restricted(self, plant, keep_act, keep_sen):
        """This design on ``plant``, self.plant cut down to the actuators
        keep_act and the sensors keep_sen, with uniform weights."""
        gm = self.gamma_max[keep_act] if self.gamma_max is not None else None
        return dataclasses.replace(self, plant=plant, rho=None, gamma_max=gm)


class _ChannelBoundGroups:
    """Reweighted on gamma_i, thresholded on the channel norm sqrt(gamma_i)."""

    REPORTED = ("gamma", "channel_h2_norms")  # the values result_to_dict writes

    @property
    def channel_h2_norms(self):
        return [r.value for r in self.verified_channels]

    @property
    def group_values(self):
        return {"actuators": np.maximum(self.gamma, 0.0)}

    @property
    def group_norms(self):
        return {"actuators": np.sqrt(np.maximum(self.gamma, 0.0))}


@dataclass(frozen=True)
class SfSynthesisResult(_ChannelBoundGroups):
    K: StateFeedbackGain
    gamma: np.ndarray            # per-actuator squared-H2 bounds
    objective: float             # rho . gamma
    verified_closed_loop: analysis.NormReport
    verified_channels: list
    X: np.ndarray                # Lyapunov-type certificate variable
    solution: SdpSolution

    @property
    def controller(self):
        return self.K


def result_to_dict(result):
    """JSON fields of any synthesis result: its controller, the values its
    class REPORTED, its objective and its verified closed-loop norm."""
    return {
        **controller_to_dict(result.controller),
        **{name: np.asarray(getattr(result, name)).tolist() for name in result.REPORTED},
        "objective": result.objective,
        "closed_loop_norm": result.verified_closed_loop.value,
        "closed_loop_kind": result.verified_closed_loop.kind,
    }


def _check_stabilizable(plant):
    diags = [d for d in validate_plant(plant) if "unstabilizable" in d]
    if diags:
        raise InfeasiblePerformance("; ".join(diags), status="infeasible")


def _raise_for_status(sol: SdpSolution):
    if sol.status == "optimal":
        return
    if sol.status == "infeasible":
        raise InfeasiblePerformance(
            f"no Lyapunov certificate exists for the requested bounds ({sol.message})",
            status=sol.status)
    raise SynthesisNumericalError(
        f"SDP solve ended with status {sol.status}: {sol.message}", solution=sol)


def _diag_entry(G, i):
    """The 1x1 expression e_i G e_i^T."""
    ei = np.zeros((1, G.shape[0]))
    ei[0, i] = 1.0
    return ei @ G @ ei.T


def _gamma_caps(G, gamma_max):
    """gamma_i <= gamma_max[i]; no constraint when gamma_max is None."""
    if gamma_max is None:
        return []
    return [lmi.neg_semidef(_diag_entry(G, i) - gamma_max[i] * np.eye(1))
            for i in range(G.shape[0])]


def _solved_gamma(spec, vm, sol, G):
    """Per-actuator bounds read from the solution, clipped to gamma_max."""
    gamma = np.diag(vm.value(sol.x, G)).copy()
    if spec.gamma_max is not None:
        gamma = np.minimum(gamma, spec.gamma_max)
    return gamma


def _verify(spec, closed_loop, gamma=None):
    """Check the closed-loop norm of spec's kind against gamma0 and, given
    per-actuator bounds gamma, each channel's H2 norm against sqrt(gamma_i)."""
    if spec.performance_kind == "hinf":
        report = analysis.hinf_norm(closed_loop)
    else:
        report = analysis.h2_norm(closed_loop)
    if report.value >= spec.gamma0 * (1.0 + VERIFY_RTOL):
        raise SynthesisNumericalError(
            f"verification failed: closed-loop {report.kind} norm "
            f"{report.value:.6g} exceeds the bound {spec.gamma0:.6g}")
    if gamma is None:
        return report, None
    channels = analysis.channel_h2_norms(spec.plant, closed_loop)
    for i, rep in enumerate(channels):
        bound = float(np.sqrt(max(gamma[i], 0.0)))
        if rep.value >= bound * (1.0 + VERIFY_RTOL) + 1e-12:
            raise SynthesisNumericalError(
                f"verification failed: channel {i} H2 norm {rep.value:.6g} "
                f"exceeds its bound {bound:.6g}")
    return report, channels


def _recover_gain(vm, sol, X, W):
    Xv = vm.value(sol.x, X)
    Xv = 0.5 * (Xv + Xv.T)
    cond = float(np.linalg.cond(Xv))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SynthesisNumericalError(
            f"certificate matrix is numerically singular at recovery "
            f"(condition number {cond:.3e} > {COND_LIMIT:.0e})", solution=sol)
    K = np.linalg.solve(Xv.T, vm.value(sol.x, W).T).T
    return StateFeedbackGain(K), Xv


def synth_sf(spec: SfSynthesisSpec) -> SfSynthesisResult:
    """Design u = Kx with ||w -> z|| < gamma0 in the norm of
    spec.performance_kind, minimizing rho . Gamma."""
    p = spec.plant
    _check_stabilizable(p)
    X = lmi.MatVar("X", (p.nx, p.nx), "symmetric")
    W = lmi.MatVar("W", (p.nu, p.nx))
    G = lmi.MatVar("Gamma", (p.nu, p.nu), "diagonal")
    variables = [X, W, G]
    AXBW = p.A @ X + p.Bu @ W
    g0 = spec.gamma0 * (1.0 - GAMMA_BACKOFF)
    gramian = lmi.neg_def(lmi.sym(AXBW) + lmi.const(p.Bw @ p.Bw.T))

    if spec.performance_kind == "hinf":
        bounded_real = lmi.bmat([
            [lmi.sym(AXBW), lmi.const(p.Bw), (p.Cz @ X + p.Du @ W).T],
            [None, lmi.const(-g0 * np.eye(p.nw)), lmi.const(p.Dw.T)],
            [None, None, lmi.const(-g0 * np.eye(p.nz))],
        ])
        cons = [lmi.neg_def(bounded_real), gramian, lmi.pos_def(X)]
    else:
        Z = lmi.MatVar("Z", (p.nz, p.nz), "symmetric")
        variables.append(Z)
        z_block = lmi.bmat([[-Z, p.Cz @ X + p.Du @ W], [None, -X]])
        cons = [
            gramian,
            lmi.neg_def(z_block),
            lmi.neg_def(lmi.trace(Z) - g0 ** 2 * np.eye(1)),
            lmi.pos_def(X),
        ]
    cons += [lmi.neg_def(lmi.bmat([[-_diag_entry(G, i), W.row(i)], [None, -X]]))
             for i in range(p.nu)]
    cons += _gamma_caps(G, spec.gamma_max)

    objective = lmi.trace(np.diag(spec.rho) @ G)
    problem, vm = lmi.compile_lmis(variables, cons, objective=objective)
    sol = solve_sdp(problem, spec.solver)
    _raise_for_status(sol)

    gain, Xv = _recover_gain(vm, sol, X, W)
    gamma = _solved_gamma(spec, vm, sol, G)
    report, channels = _verify(spec, close_state_feedback(p, gain), gamma)
    return SfSynthesisResult(
        K=gain,
        gamma=gamma,
        objective=float(spec.rho @ gamma),
        verified_closed_loop=report,
        verified_channels=channels,
        X=Xv,
        solution=sol,
    )
