"""Simultaneous sparse sensing and actuation for output-feedback control.

Instead of per-channel H2 bounds, sparsity is induced directly on the
transformed controller matrices: weighted 2-norms of the rows of
[CKhat DKhat] (one per actuator) and of the columns of [BKhat; DKhat]
(one per sensor) are minimized subject to a closed-loop performance LMI;
each norm is bounded by its epigraph variable through a second-order cone.
Zero rows/columns of the hat matrices reconstruct to zero rows/columns
of the actual controller, so pruning survives the inverse transform.
The performance constraints are the blocks of the closed loop in the hat
variables (``outputfb.hat_loop``, a statefb.HatLoop): the coupling margin
[[(1 - eps) X, I], [I, Y]] > 0 first, then the bounded-real block, or the
H2 Lyapunov, output and trace blocks.  AKhat sits in one block only (the
bounded-real or the Lyapunov block), so the loop leaves it out and emits
that block as its two projections; it is recovered explicitly after the
solve.  Hat recovery comes from ``outputfb``; the admission gate, the
solve, its status map and the verification from ``statefb``.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import analysis, lmi
from .model import GeneralizedPlant, close_output_feedback
from .outputfb import HatController, _recover_hat, hat_loop, reconstruct_controller
# solve_sdp is unused here but bound for perfbench/tracer.py to patch
from .sdp import SdpSolution, solve_sdp  # noqa: F401
from .statefb import _admit, _check_performance, _set_vector, _solve, _verify

__all__ = [
    "JointSpec",
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
    a zero weight leaves that group unpenalized; dump_path is as for
    SfSynthesisSpec.  GROUPS maps each weight group of the reweighted loop
    to the field holding its weights.
    """

    GROUPS = {"actuators": "mu", "sensors": "nu"}

    plant: GeneralizedPlant
    performance_kind: str = "h2"
    gamma0: float = 1.0
    mu: np.ndarray | None = None
    nu: np.ndarray | None = None
    dump_path: str | None = None

    def __post_init__(self):
        _check_performance(self)
        _set_vector(self, "mu", self.plant.nu, nonneg=True)
        _set_vector(self, "nu", self.plant.ny, nonneg=True)
        if not (np.any(self.mu > 0) or np.any(self.nu > 0)):
            raise ValueError("mu and nu cannot both be identically zero")

    def synthesize(self):
        return synth_joint(self)

    def restricted(self, keep_act, keep_sen):
        """This design on its plant cut down to the actuators keep_act and
        the sensors keep_sen, with uniform weights."""
        return dataclasses.replace(self, plant=self.plant.restricted(keep_act, keep_sen),
                                   mu=None, nu=None)


@dataclass(frozen=True)
class JointSynthesisResult:
    REPORTED = ("row_norms", "col_norms")  # the values result_to_dict writes

    hat: HatController
    controller: object
    row_norms: np.ndarray       # per actuator, rows of [CKhat DKhat]
    col_norms: np.ndarray       # per sensor, columns of [BKhat; DKhat]
    objective: float
    verified_closed_loop: analysis.NormReport
    solution: SdpSolution

    @property
    def group_values(self):
        """Reweighted and thresholded alike: the hat-matrix group norms."""
        return {"actuators": self.row_norms, "sensors": self.col_norms}

    group_norms = group_values


def group_norms(hat: HatController):
    """(row norms of [CKhat DKhat], column norms of [BKhat; DKhat])."""
    return (np.linalg.norm(np.hstack([hat.CKhat, hat.DKhat]), axis=1),
            np.linalg.norm(np.vstack([hat.BKhat, hat.DKhat]), axis=0))


def synth_joint(spec: JointSpec) -> JointSynthesisResult:
    """Minimize weighted hat-matrix group norms under a gamma0 performance LMI."""
    p = spec.plant
    _admit(spec)
    loop, hat_exprs, variables = hat_loop(p, akhat_free=True)
    _, BKh, CKh, DKh, _, _ = hat_exprs
    perf, extra = loop.performance(spec)
    variables += extra
    cons = [loop.positive(), *perf]

    objective = lmi.Expr.wrap(np.zeros((1, 1)))
    groups = (("t_act", spec.mu, lambda i: [[CKh[i:i + 1, :].T], [DKh[i:i + 1, :].T]]),
              ("t_sen", spec.nu, lambda j: [[BKh[:, j:j + 1]], [DKh[:, j:j + 1]]]))
    for name, weights, group in groups:
        for i, w in enumerate(weights):
            if w == 0.0:
                continue
            t = lmi.MatVar(f"{name}_{i}", (1, 1), "diagonal")
            variables.append(t)
            cons.append(lmi.soc(t, lmi.bmat(group(i))))
            objective = objective + w * t

    vm, sol = _solve(spec, variables, cons, objective)
    hat = _recover_hat(spec, loop, vm, sol, hat_exprs)
    ctrl = reconstruct_controller(hat, p)
    report, _ = _verify(spec, close_output_feedback(p, ctrl))
    rows, cols = group_norms(hat)
    return JointSynthesisResult(
        hat=hat,
        controller=ctrl,
        row_norms=rows,
        col_norms=cols,
        objective=float(spec.mu @ rows + spec.nu @ cols),
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
