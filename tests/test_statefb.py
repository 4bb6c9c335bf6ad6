import numpy as np
import pytest

from sparsact import analysis
from sparsact.errors import (
    InfeasiblePerformance,
    NonzeroFeedthroughError,
)
from sparsact.model import GeneralizedPlant, close_state_feedback
from sparsact.statefb import (
    SfSynthesisSpec,
    active_set_from_values,
    result_to_dict,
    synth_sf,
)


class TestScalarOracle:
    """A=Bu=Bw=Cz=1: the channel bound gamma1 = k^2 / (2(-1-k)) is
    minimized at k = -2 with value 2 (1-D calculus oracle)."""

    def test_hinf_gain_and_bound(self, scalar_plant):
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        assert res.K.K[0, 0] == pytest.approx(-2.0, rel=1e-2)
        assert res.gamma[0] == pytest.approx(2.0, rel=1e-2)
        assert res.verified_closed_loop.value < 2.0 * (1 + 1e-5)

    def test_h2_gain_and_bound(self, scalar_plant):
        # loose gamma0: the optimum of the channel objective is the same
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="h2", gamma0=5.0))
        assert res.K.K[0, 0] == pytest.approx(-2.0, rel=1e-2)
        assert res.gamma[0] == pytest.approx(2.0, rel=1e-2)

    def test_channel_bound_is_certified(self, scalar_plant):
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        assert len(res.verified_channels) == 1
        assert res.verified_channels[0].value <= np.sqrt(res.gamma[0]) * (1 + 1e-5)

    def test_dispatch(self, scalar_plant):
        res = synth_sf(SfSynthesisSpec(plant=scalar_plant,
                                       performance_kind="hinf", gamma0=2.0))
        assert res.verified_closed_loop.kind == "Hinf"


class TestDuplicatedActuators:
    def test_symmetric_weights_split_evenly(self, dup_actuator_plant):
        # total squared effort 1.0 at the optimum (hand-derived)
        res = synth_sf(SfSynthesisSpec(
            plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0))
        assert res.objective == pytest.approx(1.0, rel=1e-2)
        assert np.sum(res.gamma) == pytest.approx(1.0, rel=1e-2)

    def test_caps_bind_exactly_and_cost_more(self, dup_actuator_plant):
        free = synth_sf(SfSynthesisSpec(
            plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0))
        capped = synth_sf(SfSynthesisSpec(
            plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0,
            gamma_max=[0.3, 10.0]))
        assert capped.gamma[0] <= 0.3 + 1e-9
        assert capped.objective >= free.objective - 1e-6

    def test_infeasible_caps_certified(self, dup_actuator_plant):
        # per-channel bound below 0.5 is unattainable for this plant
        with pytest.raises(InfeasiblePerformance):
            synth_sf(SfSynthesisSpec(
                plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0,
                gamma_max=[0.4, 0.4]))

    def test_weighted_objective_prefers_cheap_actuator(self, dup_actuator_plant):
        res = synth_sf(SfSynthesisSpec(
            plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0,
            rho=[10.0, 1.0]))
        assert res.gamma[1] > res.gamma[0]


class TestSpecValidation:
    def test_h2_rejects_feedthrough(self):
        p = GeneralizedPlant(A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[1.0]], Cy=[[1.0]], Dyw=[[0.0]])
        with pytest.raises(NonzeroFeedthroughError):
            SfSynthesisSpec(plant=p, performance_kind="h2", gamma0=2.0)

    def test_unstabilizable_is_infeasible(self):
        p = GeneralizedPlant(A=[[1.0]], Bu=[[0.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]])
        with pytest.raises(InfeasiblePerformance):
            synth_sf(SfSynthesisSpec(plant=p, performance_kind="hinf",
                                     gamma0=2.0))

    def test_bad_gamma0(self, scalar_plant):
        with pytest.raises(ValueError):
            SfSynthesisSpec(plant=scalar_plant, gamma0=-1.0)

    def test_bad_weights(self, scalar_plant):
        with pytest.raises(ValueError):
            SfSynthesisSpec(plant=scalar_plant, gamma0=1.0, rho=[0.0])


class TestIndependentVerification:
    def test_closed_loop_recomputed_from_scratch(self, scalar_plant):
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        cl = close_state_feedback(scalar_plant, res.K)
        fresh = analysis.hinf_norm(cl)
        assert fresh.value == pytest.approx(res.verified_closed_loop.value, rel=1e-9)
        assert fresh.value < 2.0 * (1 + 1e-5)

    def test_certificate_matrix_returned(self, scalar_plant):
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        assert res.X.shape == (1, 1) and res.X[0, 0] > 0

    def test_to_dict_serializable(self, scalar_plant):
        import json
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        json.dumps(result_to_dict(res))


class TestActiveSet:
    def test_relative_threshold(self):
        assert active_set_from_values([1.0, 1e-5, 0.5]) == [0, 2]

    def test_absolute_floor(self):
        assert active_set_from_values([1e-10, 1e-12]) == []

    def test_empty(self):
        assert active_set_from_values([]) == []
