import dataclasses
from types import SimpleNamespace

import numpy as np
import pytest

from sparsact import statefb
from sparsact.errors import InfeasiblePerformance, ReducedInfeasible
from sparsact.joint import JointSpec
from sparsact.outputfb import OfSynthesisResult, OfSynthesisSpec
from sparsact.sparsify import (
    PrunedResult,
    ReweightPolicy,
    SparsifyTrace,
    prune_and_resolve,
    reweight_iterate,
    update_weights,
)
from sparsact.statefb import SfSynthesisSpec, _ChannelBoundGroups


class TestUpdateWeights:
    def test_formula_and_normalization(self):
        w = update_weights([1.0, 3.0], [1.0, 1.0], epsilon=1.0)
        # raw weights 1/2 and 1/4, normalized so the max is 1
        assert w == pytest.approx([1.0, 0.5])

    def test_zero_weight_stays_zero(self):
        w = update_weights([1.0, 1.0], [1.0, 0.0], epsilon=1e-4)
        assert w[1] == 0.0 and w[0] == 1.0

    def test_small_value_gets_large_weight(self):
        w = update_weights([1e-8, 1.0], [1.0, 1.0], epsilon=1e-4)
        assert w[0] == 1.0
        assert w[1] < 1e-3

    def test_tie_break_grades_duplicates(self):
        w = update_weights([0.5, 0.5, 0.5], [1.0, 1.0, 1.0],
                           epsilon=1e-4, tie_break=0.1)
        # identical values must not produce identical weights
        assert w[0] < w[1] < w[2] == 1.0

    def test_all_zero_weights(self):
        w = update_weights([1.0], [0.0], epsilon=1e-4)
        assert w == pytest.approx([0.0])


class TestPolicyValidation:
    def test_bad_epsilon(self):
        with pytest.raises(ValueError):
            ReweightPolicy(epsilon=0.0)

    def test_infinite_epsilon(self):
        # every reweighted weight would be 0
        with pytest.raises(ValueError, match="epsilon"):
            ReweightPolicy(epsilon=np.inf)

    def test_bad_max_outer(self):
        with pytest.raises(ValueError):
            ReweightPolicy(max_outer=0)

    def test_fractional_max_outer(self):
        # it would pass a bound check and then fail inside reweight_iterate
        with pytest.raises(ValueError, match="max_outer must be an integer"):
            ReweightPolicy(max_outer=2.5)

    @pytest.mark.parametrize("ratio", [1.0, 1.5, -0.5])
    def test_bad_threshold_ratio(self, ratio):
        # a ratio of 1 or more marks no group active; a negative one acts as 0
        with pytest.raises(ValueError, match="threshold_ratio"):
            ReweightPolicy(threshold_ratio=ratio)


class TestReweightedStateFeedback:
    def test_duplicate_actuators_collapse_to_one(self, dup_actuator_plant):
        spec = SfSynthesisSpec(plant=dup_actuator_plant,
                               performance_kind="hinf", gamma0=2.0)
        trace = reweight_iterate(spec)
        final_gamma = np.asarray(trace.values[-1]["actuators"])
        assert min(final_gamma) <= 1e-6 * max(final_gamma)
        assert len(trace.active_sets[-1]["actuators"]) == 1
        assert trace.stop_reason == "active set and values stable"

    def test_prune_recovers_scalar_optimum(self, dup_actuator_plant):
        spec = SfSynthesisSpec(plant=dup_actuator_plant,
                               performance_kind="hinf", gamma0=2.0)
        pruned = prune_and_resolve(reweight_iterate(spec), spec)
        assert pruned.kept_actuators == [0]
        assert pruned.kept_sensors == [0]
        assert pruned.reduced_plant.nu == 1
        # the reduced problem is the scalar plant whose optimum is K = -2
        assert pruned.result.K.K[0, 0] == pytest.approx(-2.0, rel=1e-2)
        assert pruned.result.verified_closed_loop.value < 2.0 * (1 + 1e-5)

    def test_max_outer_stop_reason(self, dup_actuator_plant):
        spec = SfSynthesisSpec(plant=dup_actuator_plant,
                               performance_kind="hinf", gamma0=2.0)
        trace = reweight_iterate(spec, ReweightPolicy(max_outer=1))
        assert len(trace) == 1
        assert trace.stop_reason == "max_outer reached"

    def test_trace_serializable(self, dup_actuator_plant):
        import json
        spec = SfSynthesisSpec(plant=dup_actuator_plant,
                               performance_kind="hinf", gamma0=2.0)
        trace = reweight_iterate(spec, ReweightPolicy(max_outer=2))
        json.dumps(trace.to_dict())


class TestPruneKeepsDesignType:
    def test_output_feedback_trace_prunes_to_output_feedback(self, dup_actuator_plant):
        spec = OfSynthesisSpec(plant=dup_actuator_plant,
                               performance_kind="hinf", gamma0=2.0)
        trace = reweight_iterate(spec, ReweightPolicy())
        assert all(isinstance(r, OfSynthesisResult) for r in trace.results)
        pruned = prune_and_resolve(trace, spec)
        assert isinstance(pruned.result, OfSynthesisResult)
        assert pruned.kept_actuators == [0]
        assert pruned.result.verified_closed_loop.value < 2.0


class TestGroupMismatch:
    """A trace pruned with a spec of other weight groups is a typed error."""

    def test_joint_trace_with_state_feedback_spec(self, dup_sensor_plant):
        jspec = JointSpec(plant=dup_sensor_plant, performance_kind="h2", gamma0=0.5)
        trace = reweight_iterate(jspec, ReweightPolicy(max_outer=1))
        spec = SfSynthesisSpec(plant=dup_sensor_plant, performance_kind="h2", gamma0=0.5)
        with pytest.raises(ValueError, match="weight groups"):
            prune_and_resolve(trace, spec)

    def test_state_feedback_trace_with_joint_spec(self, dup_actuator_plant):
        spec = SfSynthesisSpec(plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0)
        trace = reweight_iterate(spec, ReweightPolicy(max_outer=1))
        jspec = JointSpec(plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0)
        with pytest.raises(ValueError, match="weight groups"):
            prune_and_resolve(trace, jspec)


class TestReducedInfeasibility:
    def test_prune_with_unreachable_caps(self, dup_actuator_plant):
        loose = SfSynthesisSpec(plant=dup_actuator_plant,
                                performance_kind="hinf", gamma0=2.0)
        trace = reweight_iterate(loose)
        # per-channel cap 0.4 is below the single-actuator minimum of 1.0
        tight = dataclasses.replace(loose, gamma_max=np.array([0.4, 0.4]))
        with pytest.raises(ReducedInfeasible) as exc:
            prune_and_resolve(trace, tight)
        assert exc.value.threshold > 0


class StubResult(_ChannelBoundGroups, SimpleNamespace):
    """A result with per-actuator bounds gamma and nothing else."""


def install_fixed_gamma_synthesizer(monkeypatch, gamma, fail_reduced=False):
    """Replace synth_sf with a stub whose per-actuator bounds are fixed in advance.

    It reports gamma[:nu], as synth_sf does; on a pruned plant it can raise
    instead.
    """
    def synthesize(spec):
        nu = spec.plant.nu
        if fail_reduced and nu < len(gamma):
            raise InfeasiblePerformance("stub: pruned plant infeasible")
        g = np.asarray(gamma[:nu], dtype=float)
        return StubResult(gamma=g, objective=float(spec.rho @ g))
    monkeypatch.setattr(statefb, "synth_sf", synthesize)


class TestThresholdRatio:
    # channel norms sqrt(gamma) are 1 and 0.1: both clear the default
    # threshold ratio 1e-3, only the first clears 0.5
    GAMMA = [1.0, 0.01]

    def test_policy_threshold_sets_active_sets(self, dup_actuator_plant, monkeypatch):
        spec = SfSynthesisSpec(plant=dup_actuator_plant, gamma0=2.0)
        install_fixed_gamma_synthesizer(monkeypatch, self.GAMMA)
        assert reweight_iterate(spec, ReweightPolicy()).active_sets[-1] == {"actuators": [0, 1]}
        trace = reweight_iterate(spec, ReweightPolicy(threshold_ratio=0.5))
        assert trace.active_sets == [{"actuators": [0]}] * len(trace)

    def test_prune_follows_policy_threshold(self, dup_actuator_plant, monkeypatch):
        spec = SfSynthesisSpec(plant=dup_actuator_plant, gamma0=2.0)
        install_fixed_gamma_synthesizer(monkeypatch, self.GAMMA)
        trace = reweight_iterate(spec, ReweightPolicy(threshold_ratio=0.5))
        pruned = prune_and_resolve(trace, spec)
        assert pruned.kept_actuators == [0]
        assert pruned.reduced_plant.nu == 1

    def test_reduced_infeasible_reports_threshold_used(self, dup_actuator_plant, monkeypatch):
        spec = SfSynthesisSpec(plant=dup_actuator_plant, gamma0=2.0)
        install_fixed_gamma_synthesizer(monkeypatch, self.GAMMA, fail_reduced=True)
        trace = reweight_iterate(spec, ReweightPolicy(threshold_ratio=0.5))
        with pytest.raises(ReducedInfeasible) as exc:
            prune_and_resolve(trace, spec)
        assert exc.value.threshold == 0.5
