"""Reweighted l1 outer loop, thresholding, and prune-and-resolve.

Written once over weight groups: a spec names its design (``synthesize``),
its groups (``GROUPS``: actuators, plus sensors in the joint design) and its
pruned form (``restricted``); a result gives per group the values to
reweight on (``group_values``: gamma_i, or hat-matrix group norms) and to
threshold (``group_norms``).  The canonical rule w_i = 1/(value_i + epsilon)
is normalized so the largest weight is 1.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .errors import ReducedInfeasible, SparsactError
# unused here but bound for perfbench/tracer.py to patch
from .joint import synth_joint  # noqa: F401
from .model import GeneralizedPlant
from .statefb import ACTIVE_THRESHOLD_RATIO, active_set_from_values

__all__ = [
    "ReweightPolicy",
    "SparsifyTrace",
    "PrunedResult",
    "reweight_iterate",
    "prune_and_resolve",
    "update_weights",
    "STALL_TOL",
    "TIE_BREAK",
]


# The loop stops once the active set is unchanged and the values moved by
# at most this relative amount.
STALL_TOL = 1e-4
# The weights are graded by channel index so that exactly symmetric groups
# (duplicated actuators or sensors) cannot sit at the symmetric saddle point
# of the reweighting map forever; the grade perturbs weights by at most a
# factor 1 + TIE_BREAK.
TIE_BREAK = 0.1


@dataclass(frozen=True)
class ReweightPolicy:
    """Knobs for the reweighted outer loop."""

    epsilon: float = 1e-4
    max_outer: int = 10
    threshold_ratio: float = ACTIVE_THRESHOLD_RATIO

    def __post_init__(self):
        if not (self.epsilon > 0):
            raise ValueError("epsilon must be positive")
        if self.max_outer < 1:
            raise ValueError("max_outer must be at least 1")
        if not (0 <= self.threshold_ratio < 1):
            raise ValueError("threshold_ratio must be at least 0 and below 1")


@dataclass
class SparsifyTrace:
    """Per-iteration record of a reweighted synthesis run; weights, values
    and active_sets hold one mapping per iteration, keyed by weight group."""

    weights: list = field(default_factory=list)     # weights used
    objectives: list = field(default_factory=list)  # weighted objective values
    values: list = field(default_factory=list)      # gamma or group norms
    active_sets: list = field(default_factory=list)
    results: list = field(default_factory=list)
    stop_reason: str = ""
    threshold_ratio: float = ACTIVE_THRESHOLD_RATIO  # the active sets' threshold

    def __len__(self):
        return len(self.results)

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


def _jsonable(groups):
    return {g: np.asarray(v).tolist() for g, v in groups.items()}


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
    """(reweighting values, active sets), each keyed by weight group.

    Gamma-based designs reweight on gamma_i itself (squared channel norm):
    the resulting scheme minimizes a log-sum surrogate whose optima are
    sparse, whereas sqrt(gamma_i) would make exact duplicate splits an
    attracting fixed point.  Active sets keep the groups above
    threshold_ratio times the largest channel norm (sqrt(gamma_i)) or
    group norm.
    """
    active = {g: active_set_from_values(v, threshold_ratio)
              for g, v in result.group_norms.items()}
    return result.group_values, active


def _weights(spec):
    """The spec's weights, keyed by weight group."""
    return {g: getattr(spec, name) for g, name in spec.GROUPS.items()}


def _with_weights(spec, weights):
    return dataclasses.replace(spec, **{spec.GROUPS[g]: w for g, w in weights.items()})


def _reweighted_spec(spec, values, policy):
    return _with_weights(spec, {
        g: update_weights(values[g], w, policy.epsilon, TIE_BREAK)
        for g, w in _weights(spec).items()})


def _tie_broken_start(spec):
    """Apply the tie-break gradient to the user's first-iteration weights."""
    graded = {g: w * _tie_gradient(w.size, TIE_BREAK)
              for g, w in _weights(spec).items()}
    top = max(w.max(initial=0.0) for w in graded.values())
    return _with_weights(spec, {g: w / top for g, w in graded.items()})


def _values_close(a, b, rtol):
    return all(np.linalg.norm(a[g] - b[g]) <= rtol * max(np.linalg.norm(b[g]), 1e-30)
               for g in a)


def reweight_iterate(spec, policy: ReweightPolicy = ReweightPolicy()) -> SparsifyTrace:
    """Run the reweighted outer loop until the active set stabilizes.

    Each iteration runs the spec's own design (``spec.synthesize()``) with
    the current weights.  Stops on an unchanged active set across two
    iterations, a relative objective stall, or max_outer iterations.
    Synthesis errors are re-raised with the iteration index prepended.
    """
    trace = SparsifyTrace(threshold_ratio=policy.threshold_ratio)
    current = _tie_broken_start(spec)
    for k in range(policy.max_outer):
        try:
            result = current.synthesize()
        except SparsactError as exc:
            if k == 0:
                raise
            exc.args = (f"reweight iteration {k + 1}: {exc}",) + exc.args[1:]
            raise
        values, active = _iteration_summary(result, policy.threshold_ratio)
        trace.weights.append({g: w.copy() for g, w in _weights(current).items()})
        trace.objectives.append(result.objective)
        trace.values.append(values)
        trace.active_sets.append(active)
        trace.results.append(result)
        # Stop only when both the selection and the underlying values have
        # settled: an unchanged active set alone can just mean a symmetric
        # tie that later iterations would still resolve.
        if k > 0 and active == trace.active_sets[-2] \
                and _values_close(values, trace.values[-2], STALL_TOL):
            trace.stop_reason = "active set and values stable"
            break
        current = _reweighted_spec(current, values, policy)
    else:
        trace.stop_reason = "max_outer reached"
    return trace


@dataclass(frozen=True)
class PrunedResult:
    """The re-solved design and, in the original plant's indices, the
    hardware it kept and which of that is active."""

    result: object                 # synthesis result on the reduced plant
    reduced_plant: GeneralizedPlant
    kept_actuators: list           # reduced index -> original actuator index
    kept_sensors: list             # reduced index -> original sensor index
    active: dict                   # by weight group: active original indices

    @property
    def kept(self):
        return {"actuators": self.kept_actuators, "sensors": self.kept_sensors}


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


def prune_and_resolve(trace: SparsifyTrace, spec) -> PrunedResult:
    """Drop inactive actuators (and sensors, joint mode), re-solve, verify.

    Prunes to the trace's last active set, which reweight_iterate took at
    its policy's threshold_ratio, and re-solves the spec's own design cut
    down to the kept hardware with uniform weights; the re-solved design's
    active sets are taken at the same threshold.  The trace must come
    from a spec with the same weight groups.  Infeasibility after pruning
    raises ReducedInfeasible carrying that threshold.
    """
    active = trace.active_sets[-1]
    if set(active) != set(spec.GROUPS):
        raise ValueError(
            f"the trace's weight groups {sorted(active)} do not match the "
            f"spec's {sorted(spec.GROUPS)}")
    plant = spec.plant
    kept = {g: sorted(active.get(g, ())) or list(range(n))
            for g, n in (("actuators", plant.nu), ("sensors", plant.ny))}
    reduced = _reduce_plant(plant, kept["actuators"], kept["sensors"])
    reduced_spec = spec.restricted(reduced, kept["actuators"], kept["sensors"])
    try:
        result = reduced_spec.synthesize()
    except SparsactError as exc:
        raise ReducedInfeasible(
            f"synthesis infeasible after pruning to actuators {kept['actuators']} "
            f"and sensors {kept['sensors']}: {exc}",
            threshold=trace.threshold_ratio) from exc
    _, reduced_active = _iteration_summary(result, trace.threshold_ratio)
    return PrunedResult(
        result=result,
        reduced_plant=reduced,
        kept_actuators=kept["actuators"],
        kept_sensors=kept["sensors"],
        active={g: [kept[g][i] for i in indices] for g, indices in reduced_active.items()},
    )
