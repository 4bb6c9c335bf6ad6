"""Estimator-style wrappers around the functional synthesis cores.

Each class follows the familiar fit/get_params/set_params protocol:
constructor arguments are keyword-only hyperparameters, ``fit(plant)`` runs
the design, and everything learned lands in trailing-underscore attributes.
The wrappers add nothing beyond orchestration; the functional API in
``statefb``, ``outputfb``, ``joint``, and ``sparsify`` stays the primary
interface.  The parameters and their defaults are the spec's fields other
than plant, the ReweightPolicy's fields and ``reweight``.  ``fit`` is
written once over the spec's weight groups: it sets ``active_<group>_`` at
threshold_ratio, and ``kept_<group>_`` when reweighting, both in the
original plant's indices.
"""

from __future__ import annotations

import dataclasses

from .joint import JointSpec
from .model import GeneralizedPlant
from .outputfb import OfSynthesisSpec
from .sparsify import ReweightPolicy, _iteration_summary, prune_and_resolve, reweight_iterate
from .statefb import SfSynthesisSpec

__all__ = ["SparseStateFeedback", "SparseOutputFeedback", "JointSparseDesign"]


def _fields(cls):
    """The dataclass fields of cls that are estimator parameters."""
    return [f for f in dataclasses.fields(cls) if f.name != "plant"]


class _BaseDesigner:
    """fit, plus get_params/set_params over the parameters, sklearn style.

    Subclasses supply _SPEC, the spec type whose fields other than plant
    are parameters, and _REWEIGHT, the default of ``reweight``.
    """

    @classmethod
    def _defaults(cls):
        fields = _fields(cls._SPEC) + _fields(ReweightPolicy)
        return {**{f.name: f.default for f in fields}, "reweight": cls._REWEIGHT}

    def __init__(self, **params):
        vars(self).update(self._defaults())
        self.set_params(**params)

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._defaults()}

    def set_params(self, **params):
        valid = self._defaults()
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}")
            setattr(self, name, value)
        return self

    def __repr__(self):
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"

    def _build(self, cls, **fixed):
        return cls(**fixed, **{f.name: getattr(self, f.name) for f in _fields(cls)})

    def fit(self, plant: GeneralizedPlant):
        """Design for ``plant``; with ``reweight``, reweight then prune and re-solve."""
        spec = self._build(self._SPEC, plant=plant)
        policy = self._build(ReweightPolicy)
        if self.reweight:
            self.trace_ = reweight_iterate(spec, policy)
            pruned = prune_and_resolve(self.trace_, spec)
            for group in spec.GROUPS:
                setattr(self, f"kept_{group}_", pruned.kept[group])
            self.result_, active = pruned.result, pruned.active
        else:
            self.result_ = spec.synthesize()
            _, active = _iteration_summary(self.result_, policy.threshold_ratio)
        for group, indices in active.items():
            setattr(self, f"active_{group}_", indices)
        self.controller_ = self.result_.controller
        for name in self.result_.REPORTED:
            setattr(self, f"{name}_", getattr(self.result_, name))
        self.closed_loop_norm_ = self.result_.verified_closed_loop.value
        return self


class SparseStateFeedback(_BaseDesigner):
    """Static gain u = K x meeting a closed-loop bound with few actuators.

    With ``reweight=True`` the per-actuator bounds are iteratively
    reweighted and the design is re-solved on the pruned actuator set;
    otherwise a single weighted design is performed.

    Fitted attributes: ``controller_`` (the gain), ``K_`` (its matrix),
    ``gamma_`` (per-actuator squared-H2 bounds), ``channel_h2_norms_``,
    ``active_actuators_``, ``result_``, and, when reweighting, ``trace_``
    and ``kept_actuators_``.
    """

    _SPEC, _REWEIGHT = SfSynthesisSpec, False

    @property
    def K_(self):
        return self.controller_.K

    def predict(self, x):
        """Control action u = K x for one state or a batch of states."""
        if not hasattr(self, "controller_"):
            raise RuntimeError(f"this {type(self).__name__} is not fitted yet; call fit first")
        return x @ self.K_.T


class SparseOutputFeedback(_BaseDesigner):
    """Full-order dynamic output-feedback design with per-actuator bounds.

    Fitted attributes: ``controller_`` (dynamic quadruple), ``gamma_``,
    ``channel_h2_norms_``, ``active_actuators_``, ``result_``, plus
    ``trace_``/``kept_actuators_`` when reweighting.
    """

    _SPEC, _REWEIGHT = OfSynthesisSpec, False


class JointSparseDesign(_BaseDesigner):
    """Simultaneous sparse sensing and actuation via hat-matrix group norms.

    Fitted attributes: ``controller_``, ``row_norms_``/``col_norms_``,
    ``active_actuators_``/``active_sensors_``, ``result_``, plus
    ``trace_``, ``kept_actuators_``, ``kept_sensors_`` when reweighting.
    """

    _SPEC, _REWEIGHT = JointSpec, True
