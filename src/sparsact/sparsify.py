"""Reweighted l1 outer loop, thresholding, and prune-and-resolve.

Shared by all synthesis flavors: the per-group sparsity surrogate
(sqrt(gamma_i) for the Gamma-based designs, hat-matrix group norms for
the joint design) feeds the canonical reweighting rule
w_i = 1 / (value_i + epsilon), normalized so the largest weight is 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ReducedInfeasible, SparsactError
from .joint import JointSpec, JointSynthesisResult, synth_joint
from .model import GeneralizedPlant
from .statefb import (ACTIVE_THRESHOLD_RATIO, SfSynthesisSpec, active_set_from_values,
                      synth_sf)

__all__ = [
    "ReweightPolicy",
    "SparsifyTrace",
    "PrunedResult",
    "reweight_iterate",
    "prune_and_resolve",
    "update_weights",
]


@dataclass(frozen=True)
class ReweightPolicy:
    """Knobs for the reweighted outer loop.

    tie_break grades the weights by channel index so that exactly
    symmetric groups (duplicated actuators or sensors) cannot sit at the
    symmetric saddle point of the reweighting map forever; it perturbs
    weights by at most a factor 1 + tie_break.
    """

    epsilon: float = 1e-4
    max_outer: int = 10
    stall_tol: float = 1e-4
    threshold_ratio: float = ACTIVE_THRESHOLD_RATIO
    tie_break: float = 0.1

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if self.tie_break < 0:
            raise ValueError("tie_break must be nonnegative")


def default_synthesizer(spec):
    if isinstance(spec, JointSpec):
        return synth_joint(spec)
    return synth_sf(spec)


@dataclass
class SparsifyTrace:
    """Per-iteration record of a reweighted synthesis run."""

    weights: list = field(default_factory=list)     # weight vector(s) used
    objectives: list = field(default_factory=list)  # weighted objective values
    values: list = field(default_factory=list)      # sqrt(gamma) or group norms
    active_sets: list = field(default_factory=list)
    results: list = field(default_factory=list)
    stop_reason: str = ""
    threshold_ratio: float = ACTIVE_THRESHOLD_RATIO  # the active sets' threshold
    synthesize: object = default_synthesizer  # the run's synthesizer, reused by the prune

    def __len__(self):
        return len(self.results)

    @property
    def final(self):
        return self.results[-1]

    def to_dict(self):
        return {
            "iterations": [
                {
                    "weights": _jsonable(w),
                    "objective": obj,
                    "values": _jsonable(v),
                    "active_set": a,
                }
                for w, obj, v, a in zip(self.weights, self.objectives,
                                        self.values, self.active_sets)
            ],
            "stop_reason": self.stop_reason,
        }


def _jsonable(x):
    if isinstance(x, dict):
        return {k: _jsonable(v) for k, v in x.items()}
    if isinstance(x, np.ndarray):
        return x.tolist()
    return x


def _tie_gradient(n, tie_break):
    return 1.0 + tie_break * np.arange(n) / max(n - 1, 1)


def update_weights(values, old_weights, epsilon, tie_break=0.0):
    """w_i = 1/(value_i + epsilon), normalized to max 1; zero weights stay zero.

    A nonzero tie_break grades the weights by index (later channels become
    slightly more expensive) so exact ties between duplicated channels
    resolve deterministically instead of persisting.
    """
    values = np.asarray(values, dtype=float)
    old_weights = np.asarray(old_weights, dtype=float)
    raw = _tie_gradient(values.size, tie_break) / (np.abs(values) + epsilon)
    w = np.where(old_weights > 0.0, raw, 0.0)
    top = w.max(initial=0.0)
    return w / top if top > 0 else w


def _iteration_summary(result, threshold_ratio):
    """(reweighting values, active_set) per result flavor.

    Gamma-based designs reweight on gamma_i itself (squared channel norm):
    the resulting scheme minimizes a log-sum surrogate whose optima are
    sparse, whereas sqrt(gamma_i) would make exact duplicate splits an
    attracting fixed point.  Active sets keep the groups above
    threshold_ratio times the largest channel norm (sqrt(gamma_i)) or
    group norm.
    """
    if isinstance(result, JointSynthesisResult):
        rep = result.report
        values = {"actuators": rep.row_norms, "sensors": rep.col_norms}
        active = {
            "actuators": active_set_from_values(rep.row_norms, threshold_ratio),
            "sensors": active_set_from_values(rep.col_norms, threshold_ratio),
        }
        return values, active
    gamma = np.maximum(result.gamma, 0.0)
    return gamma, active_set_from_values(np.sqrt(gamma), threshold_ratio)


def _reweighted_spec(spec, values, policy):
    if isinstance(spec, JointSpec):
        return dataclasses.replace(
            spec,
            mu=update_weights(values["actuators"], spec.mu, policy.epsilon,
                              policy.tie_break),
            nu=update_weights(values["sensors"], spec.nu, policy.epsilon,
                              policy.tie_break),
        )
    rho = update_weights(values, spec.rho, policy.epsilon, policy.tie_break)
    return dataclasses.replace(spec, rho=rho)


def _tie_broken_start(spec, policy):
    """Apply the tie-break gradient to the user's first-iteration weights."""
    if policy.tie_break == 0.0:
        return spec
    if isinstance(spec, JointSpec):
        mu = spec.mu * _tie_gradient(spec.mu.size, policy.tie_break)
        nu = spec.nu * _tie_gradient(spec.nu.size, policy.tie_break)
        top = max(mu.max(initial=0.0), nu.max(initial=0.0))
        return dataclasses.replace(spec, mu=mu / top, nu=nu / top)
    rho = spec.rho * _tie_gradient(spec.rho.size, policy.tie_break)
    return dataclasses.replace(spec, rho=rho / rho.max())


def _values_close(a, b, rtol):
    if isinstance(a, dict):
        return all(_values_close(a[k], b[k], rtol) for k in a)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return np.linalg.norm(a - b) <= rtol * max(np.linalg.norm(b), 1e-30)


def _current_weights(spec):
    if isinstance(spec, JointSpec):
        return {"mu": spec.mu.copy(), "nu": spec.nu.copy()}
    return spec.rho.copy()


def reweight_iterate(spec, policy: ReweightPolicy = ReweightPolicy(),
                     synthesize=default_synthesizer) -> SparsifyTrace:
    """Run the reweighted outer loop until the active set stabilizes.

    Stops on an unchanged active set across two iterations, a relative
    objective stall, or max_outer iterations.  Synthesis errors are
    re-raised with the iteration index prepended.
    """
    trace = SparsifyTrace(threshold_ratio=policy.threshold_ratio, synthesize=synthesize)
    current = _tie_broken_start(spec, policy)
    for k in range(policy.max_outer):
        try:
            result = synthesize(current)
        except SparsactError as exc:
            if k == 0:
                raise
            exc.args = (f"reweight iteration {k + 1}: {exc}",) + exc.args[1:]
            raise
        values, active = _iteration_summary(result, policy.threshold_ratio)
        trace.weights.append(_current_weights(current))
        trace.objectives.append(result.objective)
        trace.values.append(values)
        trace.active_sets.append(active)
        trace.results.append(result)
        # Stop only when both the selection and the underlying values have
        # settled: an unchanged active set alone can just mean a symmetric
        # tie that later iterations would still resolve.
        if k > 0 and active == trace.active_sets[-2] \
                and _values_close(values, trace.values[-2], policy.stall_tol):
            trace.stop_reason = "active set and values stable"
            break
        current = _reweighted_spec(current, values, policy)
    else:
        trace.stop_reason = "max_outer reached"
    return trace


@dataclass(frozen=True)
class PrunedResult:
    result: object                 # synthesis result on the reduced plant
    reduced_plant: GeneralizedPlant
    kept_actuators: list           # reduced index -> original actuator index
    kept_sensors: list             # reduced index -> original sensor index


def _reduce_plant(plant, keep_act, keep_sen):
    return GeneralizedPlant(
        A=plant.A,
        Bu=plant.Bu[:, keep_act],
        Bw=plant.Bw,
        Cz=plant.Cz,
        Du=plant.Du[:, keep_act],
        Dw=plant.Dw,
        Cy=plant.Cy[keep_sen, :],
        Dyw=plant.Dyw[keep_sen, :],
        actuator_names=[plant.actuator_names[i] for i in keep_act],
        sensor_names=[plant.sensor_names[j] for j in keep_sen],
    )


def prune_and_resolve(trace: SparsifyTrace, spec, synthesize=None) -> PrunedResult:
    """Drop inactive actuators (and sensors, joint mode), re-solve, verify.

    Prunes to the trace's last active set, which reweight_iterate took at
    its policy's threshold_ratio, and re-solves with ``synthesize``, by
    default the trace's own synthesizer.  The reduced problem uses uniform
    weights; infeasibility after pruning raises ReducedInfeasible carrying
    that threshold.
    """
    synthesize = synthesize or trace.synthesize
    active = trace.active_sets[-1]
    if isinstance(spec, JointSpec):
        keep_act = sorted(active["actuators"])
        keep_sen = sorted(active["sensors"])
    else:
        keep_act = sorted(active)
        keep_sen = list(range(spec.plant.ny))
    if not keep_act:
        keep_act = list(range(spec.plant.nu))
    if not keep_sen:
        keep_sen = list(range(spec.plant.ny))
    reduced = _reduce_plant(spec.plant, keep_act, keep_sen)
    if isinstance(spec, JointSpec):
        reduced_spec = dataclasses.replace(
            spec, plant=reduced, mu=np.ones(len(keep_act)), nu=np.ones(len(keep_sen)))
    else:
        gm = spec.gamma_max[keep_act] if spec.gamma_max is not None else None
        reduced_spec = dataclasses.replace(spec, plant=reduced, rho=None, gamma_max=gm)
    try:
        result = synthesize(reduced_spec)
    except SparsactError as exc:
        raise ReducedInfeasible(
            f"synthesis infeasible after pruning to actuators {keep_act} "
            f"and sensors {keep_sen}: {exc}",
            threshold=trace.threshold_ratio) from exc
    return PrunedResult(
        result=result,
        reduced_plant=reduced,
        kept_actuators=keep_act,
        kept_sensors=keep_sen,
    )
