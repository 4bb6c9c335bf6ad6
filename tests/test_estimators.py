import dataclasses
import json

import numpy as np
import pytest

from sparsact.cli import main
from sparsact.estimators import (
    JointSparseDesign,
    SparseOutputFeedback,
    SparseStateFeedback,
)
from sparsact.joint import JointSpec, group_norms
from sparsact.model import DynamicController, GeneralizedPlant, save_plant
from sparsact.outputfb import OfSynthesisResult, OfSynthesisSpec
from sparsact.sparsify import ReweightPolicy
from sparsact.statefb import SfSynthesisSpec, active_set_from_values

from conftest import THREE_ACTUATORS, random_plant


class TestParamProtocol:
    def test_get_params_round_trip(self):
        est = SparseStateFeedback(gamma0=3.0, performance_kind="h2")
        params = est.get_params()
        assert params["gamma0"] == 3.0
        assert params["performance_kind"] == "h2"
        clone = SparseStateFeedback(**params)
        assert clone.get_params() == params

    def test_set_params_chains(self):
        est = SparseStateFeedback().set_params(gamma0=5.0, reweight=True)
        assert est.gamma0 == 5.0 and est.reweight is True

    def test_invalid_param_rejected(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            SparseStateFeedback().set_params(bogus=1)

    def test_repr_shows_params(self):
        text = repr(JointSparseDesign(gamma0=2.5))
        assert text.startswith("JointSparseDesign(")
        assert "gamma0=2.5" in text

    def test_unfitted_predict_raises(self):
        with pytest.raises(RuntimeError, match="not fitted"):
            SparseStateFeedback().predict(np.zeros((1, 1)))

    GAMMA_DESIGN = dict(performance_kind="hinf", rho=None, gamma_max=None, reweight=False)

    @pytest.mark.parametrize("cls,spec,own", [
        (SparseStateFeedback, SfSynthesisSpec, GAMMA_DESIGN),
        (SparseOutputFeedback, OfSynthesisSpec, GAMMA_DESIGN),
        (JointSparseDesign, JointSpec,
         dict(performance_kind="h2", mu=None, nu=None, reweight=True)),
    ])
    def test_params_are_the_spec_and_policy_fields(self, cls, spec, own):
        # the spec's fields other than plant, the policy's fields and
        # reweight, with the defaults the estimators have always had
        mirrored = {f.name: f.default for f in dataclasses.fields(spec) if f.name != "plant"}
        mirrored.update({f.name: f.default for f in dataclasses.fields(ReweightPolicy)})
        params = cls().get_params()
        assert params == {**mirrored, "reweight": own["reweight"]}
        assert params == {**own, "gamma0": 1.0, "max_outer": 10, "epsilon": 1e-4,
                          "threshold_ratio": 1e-3, "dump_path": None}

    def test_keyword_only(self):
        with pytest.raises(TypeError):
            SparseStateFeedback(2.0)

    def test_impossible_threshold_raises_at_fit(self, scalar_plant):
        est = SparseStateFeedback(gamma0=2.0, threshold_ratio=1.0)
        with pytest.raises(ValueError, match="threshold_ratio"):
            est.fit(scalar_plant)

    def test_non_finite_weight_raises_at_fit(self):
        # matched by message: numpy's LinAlgError from a solve is a ValueError too
        est = SparseStateFeedback(gamma0=2.0, rho=[np.nan, 1.0, 1.0])
        with pytest.raises(ValueError, match="rho"):
            est.fit(GeneralizedPlant(**THREE_ACTUATORS))


class TestSparseStateFeedback:
    def test_fit_scalar(self, scalar_plant):
        est = SparseStateFeedback(gamma0=2.0).fit(scalar_plant)
        assert est.K_[0, 0] == pytest.approx(-2.0, rel=1e-2)
        assert est.closed_loop_norm_ < 2.0 * (1 + 1e-5)
        assert est.active_actuators_ == [0]

    def test_predict_batch(self, scalar_plant):
        est = SparseStateFeedback(gamma0=2.0).fit(scalar_plant)
        X = np.array([[1.0], [2.0]])
        assert est.predict(X) == pytest.approx(X @ est.K_.T)

    def test_reweight_prunes_duplicates(self, dup_actuator_plant):
        est = SparseStateFeedback(gamma0=2.0, reweight=True).fit(dup_actuator_plant)
        assert est.kept_actuators_ == [0]
        assert est.K_.shape == (1, 1)
        assert len(est.trace_) >= 2

    def test_reweighted_sets_in_original_indices(self, tmp_path):
        # actuator 1 alone is kept, so it is index 0 of the reduced plant;
        # the fitted active set names it by its original index, as the
        # active_set of `sparsact prune` on the same plant does
        plant = GeneralizedPlant(**THREE_ACTUATORS)
        est = SparseStateFeedback(gamma0=2.0, reweight=True).fit(plant)
        assert est.kept_actuators_ == est.active_actuators_ == [1]
        save_plant(plant, tmp_path / "plant.json")
        assert main(["prune", "--model", str(tmp_path / "plant.json"), "--mode", "sf-hinf",
                     "--gamma0", "2.0", "--out", str(tmp_path / "o")]) == 0
        result = json.loads((tmp_path / "o" / "result.json").read_text())
        assert result["active_set"] == est.active_actuators_

    def test_fit_returns_self(self, scalar_plant):
        est = SparseStateFeedback(gamma0=2.0)
        assert est.fit(scalar_plant) is est


class TestSparseOutputFeedback:
    def test_fit_scalar(self, scalar_plant):
        est = SparseOutputFeedback(gamma0=2.0).fit(scalar_plant)
        assert isinstance(est.controller_, DynamicController)
        assert est.closed_loop_norm_ < 2.0 * (1 + 1e-5)

    def test_reweight_stays_output_feedback(self, dup_actuator_plant):
        est = SparseOutputFeedback(gamma0=2.0, reweight=True).fit(dup_actuator_plant)
        assert all(isinstance(r, OfSynthesisResult) for r in est.trace_.results)
        assert isinstance(est.result_, OfSynthesisResult)
        assert est.kept_actuators_ == [0]
        assert est.active_actuators_ == [0]


class TestJointSparseDesign:
    def test_fit_with_sensor_pruning(self, dup_sensor_plant):
        est = JointSparseDesign(gamma0=0.5, nu=[1.0, 50.0], mu=[0.0],
                                max_outer=3).fit(dup_sensor_plant)
        assert 1 not in est.active_sensors_
        assert est.closed_loop_norm_ < 0.5 * (1 + 1e-5)
        assert est.row_norms_.shape == (dup_sensor_plant.nu,)

    def test_no_reweight_single_solve(self, scalar_plant):
        est = JointSparseDesign(gamma0=2.0, reweight=False).fit(scalar_plant)
        assert not hasattr(est, "trace_")
        assert isinstance(est.controller_, DynamicController)


class TestThresholdRatio:
    """The fitted active sets use the estimator's own threshold_ratio."""

    def test_state_feedback_active_set(self):
        plant = random_plant(np.random.default_rng(0), nx=3, nu=3, stable_margin=-0.5)
        est = SparseStateFeedback(performance_kind="hinf", gamma0=20,
                                  threshold_ratio=0.9).fit(plant)
        norms = np.sqrt(est.gamma_)
        assert norms[1] < 0.9 * norms[0] and norms[2] < 0.9 * norms[0]
        assert est.active_actuators_ == [0]

    def test_output_feedback_active_set(self):
        plant = random_plant(np.random.default_rng(0), nx=3, nu=3, stable_margin=-0.5)
        est = SparseOutputFeedback(performance_kind="hinf", gamma0=20,
                                   threshold_ratio=0.9).fit(plant)
        assert est.active_actuators_ == active_set_from_values(np.sqrt(est.gamma_), 0.9)
        assert est.active_actuators_ == [0]

    def test_joint_active_sets(self):
        plant = random_plant(np.random.default_rng(1), nx=3, nu=3, ny=3, stable_margin=-0.5)
        est = JointSparseDesign(performance_kind="hinf", gamma0=5, reweight=False,
                                threshold_ratio=0.9).fit(plant)
        rows, cols = group_norms(est.result_.hat)
        assert (est.active_actuators_, est.active_sensors_) == (
            active_set_from_values(rows, 0.9), active_set_from_values(cols, 0.9))
        assert (est.active_actuators_, est.active_sensors_) == ([2], [1])
