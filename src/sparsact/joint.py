"""Simultaneous sparse sensing and actuation for output-feedback control.

Instead of per-channel H2 bounds, sparsity is induced directly on the
transformed controller matrices: weighted 2-norms of the rows of
[CKhat DKhat] (one per actuator) and of the columns of [BKhat; DKhat]
(one per sensor) are minimized subject to a closed-loop performance LMI;
each norm is bounded by its epigraph variable through a second-order cone.
Zero rows/columns of the hat matrices reconstruct to zero rows/columns
of the actual controller, so pruning survives the inverse transform.
Preconditions, variables, performance constraints and hat recovery come
from ``outputfb``; status handling and verification from ``statefb``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from . import analysis, lmi
from .errors import DimensionError, NonzeroFeedthroughError
from .model import GeneralizedPlant, close_output_feedback
from .outputfb import (
    HatController,
    _check_of_preconditions,
    _declare_of_variables,
    _of_common_exprs,
    _performance_constraints,
    _positivity_block,
    _recover_hat,
    reconstruct_controller,
)
from .sdp import SdpSolution, SolverOptions, solve_sdp
from .statefb import ACTIVE_THRESHOLD_RATIO, _raise_for_status, _verify, active_set_from_values

__all__ = [
    "JointSpec",
    "GroupNormReport",
    "JointSynthesisResult",
    "synth_joint",
    "group_norms",
    "verify_sparsity_preservation",
]

ZERO_GROUP_NORM = 1e-9


@dataclass(frozen=True)
class JointSpec:
    """Inputs to a joint sparse sensing/actuation design.

    mu weights the per-actuator row norms, nu the per-sensor column norms;
    a zero weight leaves that group unpenalized.  GROUPS maps each weight
    group of the reweighted loop to the field holding its weights.
    """

    GROUPS = {"actuators": "mu", "sensors": "nu"}

    plant: GeneralizedPlant
    performance_kind: str = "h2"
    gamma0: float = 1.0
    mu: np.ndarray | None = None
    nu: np.ndarray | None = None
    solver: SolverOptions = field(default_factory=SolverOptions)

    def __post_init__(self):
        if self.performance_kind not in ("hinf", "h2"):
            raise ValueError(f"performance_kind must be 'hinf' or 'h2', got {self.performance_kind!r}")
        if not (self.gamma0 > 0):
            raise ValueError("gamma0 must be positive")
        n_act, n_sen = self.plant.nu, self.plant.ny
        mu = np.ones(n_act) if self.mu is None else np.asarray(self.mu, dtype=float).ravel()
        nu = np.ones(n_sen) if self.nu is None else np.asarray(self.nu, dtype=float).ravel()
        if mu.shape != (n_act,):
            raise DimensionError(f"mu must have length {n_act}")
        if nu.shape != (n_sen,):
            raise DimensionError(f"nu must have length {n_sen}")
        if np.any(mu < 0) or np.any(nu < 0):
            raise ValueError("mu and nu must be nonnegative")
        if not (np.any(mu > 0) or np.any(nu > 0)):
            raise ValueError("mu and nu cannot both be identically zero")
        object.__setattr__(self, "mu", mu)
        object.__setattr__(self, "nu", nu)
        if self.performance_kind == "h2" and np.any(self.plant.Dw != 0.0):
            raise NonzeroFeedthroughError("H2 performance needs Dw = 0")

    def synthesize(self):
        return synth_joint(self)

    def restricted(self, plant, keep_act, keep_sen):
        """This design on ``plant``, self.plant cut down to the actuators
        keep_act and the sensors keep_sen, with uniform weights."""
        return dataclasses.replace(self, plant=plant, mu=None, nu=None)


@dataclass(frozen=True)
class GroupNormReport:
    row_norms: np.ndarray       # per actuator, rows of [CKhat DKhat]
    col_norms: np.ndarray       # per sensor, columns of [BKhat; DKhat]
    active_actuators: list
    active_sensors: list

    def to_csv(self):
        lines = ["kind,index,norm,active"]
        for i, v in enumerate(self.row_norms):
            lines.append(f"actuator,{i},{v!r},{int(i in self.active_actuators)}")
        for j, v in enumerate(self.col_norms):
            lines.append(f"sensor,{j},{v!r},{int(j in self.active_sensors)}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class JointSynthesisResult:
    hat: HatController
    controller: object
    report: GroupNormReport
    objective: float
    verified_closed_loop: analysis.NormReport
    solution: SdpSolution

    @property
    def group_values(self):
        """Reweighted and thresholded alike: the hat-matrix group norms."""
        return {"actuators": self.report.row_norms, "sensors": self.report.col_norms}

    group_norms = group_values

    def to_dict(self):
        return {
            "AK": self.controller.AK.tolist(),
            "BK": self.controller.BK.tolist(),
            "CK": self.controller.CK.tolist(),
            "DK": self.controller.DK.tolist(),
            "row_norms": self.report.row_norms.tolist(),
            "col_norms": self.report.col_norms.tolist(),
            "active_actuators": self.report.active_actuators,
            "active_sensors": self.report.active_sensors,
            "objective": self.objective,
            "closed_loop_norm": self.verified_closed_loop.value,
            "closed_loop_kind": self.verified_closed_loop.kind,
        }


def group_norms(hat: HatController, threshold_ratio=ACTIVE_THRESHOLD_RATIO) -> GroupNormReport:
    """Row norms of [CKhat DKhat] and column norms of [BKhat; DKhat]."""
    rows = np.hstack([hat.CKhat, hat.DKhat])
    cols = np.vstack([hat.BKhat, hat.DKhat])
    row_norms = np.linalg.norm(rows, axis=1)
    col_norms = np.linalg.norm(cols, axis=0)
    return GroupNormReport(
        row_norms=row_norms,
        col_norms=col_norms,
        active_actuators=active_set_from_values(row_norms, threshold_ratio),
        active_sensors=active_set_from_values(col_norms, threshold_ratio),
    )


def synth_joint(spec: JointSpec) -> JointSynthesisResult:
    """Minimize weighted hat-matrix group norms under a gamma0 performance LMI."""
    p = spec.plant
    _check_of_preconditions(p, need_dw_zero=spec.performance_kind == "h2")
    hat_vars, variables = _declare_of_variables(p)
    X, Y, AKh, BKh, CKh, DKh = hat_vars
    parts = _of_common_exprs(p, *hat_vars)
    perf, extra = _performance_constraints(spec, X, Y, CKh, DKh, parts)
    variables += extra
    cons = [_positivity_block(X, Y, p.nx), *perf]

    objective = lmi.Expr.wrap(np.zeros((1, 1)))
    groups = (("t_act", spec.mu, lambda i: [[CKh.row(i).T], [DKh.row(i).T]]),
              ("t_sen", spec.nu, lambda j: [[BKh.col(j)], [DKh.col(j)]]))
    for name, weights, group in groups:
        for i, w in enumerate(weights):
            if w == 0.0:
                continue
            t = lmi.MatVar(f"{name}_{i}", (1, 1), "scalar")
            variables.append(t)
            cons.append(lmi.soc(t, lmi.bmat(group(i))))
            objective = objective + w * t

    problem, vm = lmi.compile_lmis(variables, cons, objective=objective)
    sol = solve_sdp(problem, spec.solver)
    _raise_for_status(sol)

    hat = _recover_hat(vm, sol, *hat_vars)
    ctrl = reconstruct_controller(hat, p)
    report, _ = _verify(spec, close_output_feedback(p, ctrl))
    gn = group_norms(hat)
    return JointSynthesisResult(
        hat=hat,
        controller=ctrl,
        report=gn,
        objective=float(spec.mu @ gn.row_norms + spec.nu @ gn.col_norms),
        verified_closed_loop=report,
        solution=sol,
    )


def verify_sparsity_preservation(hat: HatController, plant: GeneralizedPlant):
    """Check that zero hat groups reconstruct to zero controller groups.

    A hat group counts as zero when its norm is at most ZERO_GROUP_NORM.

    Returns a list of violation strings; empty means the reconstruction
    preserved every (near-)zero actuator row and sensor column.
    """
    ctrl = reconstruct_controller(hat, plant)
    hat_groups = (np.hstack([hat.CKhat, hat.DKhat]), np.vstack([hat.BKhat, hat.DKhat]).T)
    out_groups = (np.hstack([ctrl.CK, ctrl.DK]), np.vstack([ctrl.BK, ctrl.DK]).T)
    violations = []
    for kind, hat_g, out_g in zip(("actuator row", "sensor column"), hat_groups, out_groups):
        scale = max(np.linalg.norm(out_g), 1e-30)
        for i in range(hat_g.shape[0]):
            if np.linalg.norm(hat_g[i]) <= ZERO_GROUP_NORM:
                rel = np.linalg.norm(out_g[i]) / scale
                if rel > 1e-9:
                    violations.append(
                        f"{kind} {i}: zero in hat variables but relative "
                        f"norm {rel:.3e} after reconstruction")
    return violations
