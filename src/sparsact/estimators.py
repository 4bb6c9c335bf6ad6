"""Estimator-style wrappers around the functional synthesis cores.

Each class follows the familiar fit/get_params/set_params protocol:
constructor arguments are plain hyperparameters, ``fit(plant)`` runs the
design, and everything learned lands in trailing-underscore attributes.
The wrappers add nothing beyond orchestration; the functional API in
``statefb``, ``outputfb``, ``joint``, and ``sparsify`` stays the primary
interface.  ``fit`` is written once over the spec's weight groups: it sets
``active_<group>_`` at threshold_ratio, and ``kept_<group>_`` when reweighting.
"""

from __future__ import annotations

import dataclasses
import inspect

from .joint import JointSpec
from .model import GeneralizedPlant
from .outputfb import OfSynthesisSpec
from .sdp import SolverOptions
from .sparsify import ReweightPolicy, _iteration_summary, prune_and_resolve, reweight_iterate
from .statefb import SfSynthesisSpec

__all__ = ["SparseStateFeedback", "SparseOutputFeedback", "JointSparseDesign"]


class _BaseDesigner:
    """fit, plus get_params/set_params over the constructor signature, sklearn style.

    Subclasses supply _SPEC, the spec type whose fields other than plant
    and solver are constructor parameters, and _read_result(result).
    """

    @classmethod
    def _param_names(cls):
        sig = inspect.signature(cls.__init__)
        return [p for p in sig.parameters if p != "self"]

    def get_params(self, deep=True):
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
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

    def _check_fitted(self):
        if not getattr(self, "_fitted", False):
            raise RuntimeError(f"this {type(self).__name__} is not fitted yet; call fit first")

    def _policy(self):
        return ReweightPolicy(epsilon=self.epsilon, max_outer=self.max_outer,
                              threshold_ratio=self.threshold_ratio)

    def _solver(self):
        return self.solver if self.solver is not None else SolverOptions()

    def _spec(self, plant):
        names = [f.name for f in dataclasses.fields(self._SPEC)
                 if f.name not in ("plant", "solver")]
        return self._SPEC(plant=plant, solver=self._solver(),
                          **{name: getattr(self, name) for name in names})

    def fit(self, plant: GeneralizedPlant):
        """Design for ``plant``; with ``reweight``, reweight then prune and re-solve."""
        spec = self._spec(plant)
        if self.reweight:
            self.trace_ = reweight_iterate(spec, self._policy())
            pruned = prune_and_resolve(self.trace_, spec)
            for group in spec.GROUPS:
                setattr(self, f"kept_{group}_", getattr(pruned, f"kept_{group}"))
            self.result_ = pruned.result
        else:
            self.result_ = spec.synthesize()
        _, active = _iteration_summary(self.result_, self.threshold_ratio)
        for group, indices in active.items():
            setattr(self, f"active_{group}_", indices)
        self._read_result(self.result_)
        self.closed_loop_norm_ = self.result_.verified_closed_loop.value
        self._fitted = True
        return self


class _ChannelBoundDesigner(_BaseDesigner):
    """Designs with per-actuator squared-H2 bounds gamma."""

    def __init__(self, performance_kind="hinf", gamma0=1.0, rho=None,
                 gamma_max=None, reweight=False, max_outer=10, epsilon=1e-4,
                 threshold_ratio=1e-3, solver=None):
        self.performance_kind = performance_kind
        self.gamma0 = gamma0
        self.rho = rho
        self.gamma_max = gamma_max
        self.reweight = reweight
        self.max_outer = max_outer
        self.epsilon = epsilon
        self.threshold_ratio = threshold_ratio
        self.solver = solver

    def _read_result(self, result):
        self.gamma_ = result.gamma


class SparseStateFeedback(_ChannelBoundDesigner):
    """Static gain u = K x meeting a closed-loop bound with few actuators.

    With ``reweight=True`` the per-actuator bounds are iteratively
    reweighted and the design is re-solved on the pruned actuator set;
    otherwise a single weighted design is performed.

    Fitted attributes: ``K_`` (gain matrix), ``gamma_`` (per-actuator
    squared-H2 bounds), ``active_actuators_``, ``result_``, and, when
    reweighting, ``trace_`` and ``kept_actuators_``.
    """

    _SPEC = SfSynthesisSpec

    def _read_result(self, result):
        super()._read_result(result)
        self.K_ = result.K.K

    def predict(self, x):
        """Control action u = K x for one state or a batch of states."""
        self._check_fitted()
        return x @ self.K_.T


class SparseOutputFeedback(_ChannelBoundDesigner):
    """Full-order dynamic output-feedback design with per-actuator bounds.

    Fitted attributes: ``controller_`` (dynamic quadruple), ``gamma_``,
    ``active_actuators_``, ``result_``, plus ``trace_``/``kept_actuators_``
    when reweighting.
    """

    _SPEC = OfSynthesisSpec

    def _read_result(self, result):
        super()._read_result(result)
        self.controller_ = result.controller


class JointSparseDesign(_BaseDesigner):
    """Simultaneous sparse sensing and actuation via hat-matrix group norms.

    Fitted attributes: ``controller_``, ``row_norms_``/``col_norms_``,
    ``active_actuators_``/``active_sensors_``, ``result_``, plus
    ``trace_``, ``kept_actuators_``, ``kept_sensors_`` when reweighting.
    """

    _SPEC = JointSpec

    def __init__(self, performance_kind="h2", gamma0=1.0, mu=None, nu=None,
                 reweight=True, max_outer=10, epsilon=1e-4,
                 threshold_ratio=1e-3, solver=None):
        self.performance_kind = performance_kind
        self.gamma0 = gamma0
        self.mu = mu
        self.nu = nu
        self.reweight = reweight
        self.max_outer = max_outer
        self.epsilon = epsilon
        self.threshold_ratio = threshold_ratio
        self.solver = solver

    def _read_result(self, result):
        self.controller_ = result.controller
        self.row_norms_ = result.report.row_norms
        self.col_norms_ = result.report.col_norms
