import json

import numpy as np
import pytest

from sparsact.errors import DimensionError
from sparsact.model import (
    ClosedLoop,
    DynamicController,
    GeneralizedPlant,
    StateFeedbackGain,
    close_loop,
    close_output_feedback,
    close_state_feedback,
    controller_from_dict,
    controller_to_dict,
    load_plant,
    plant_from_dict,
    plant_to_dict,
    save_plant,
    validate_plant,
)

from conftest import SCALAR, random_plant


class TestGeneralizedPlant:
    def test_dimensions(self, scalar_plant):
        assert (scalar_plant.nx, scalar_plant.nu, scalar_plant.nw,
                scalar_plant.nz, scalar_plant.ny) == (1, 1, 1, 1, 1)

    def test_inconsistent_dimensions_rejected(self):
        bad = dict(SCALAR)
        bad["Bu"] = [[1.0], [1.0]]
        with pytest.raises(DimensionError):
            GeneralizedPlant(**bad)

    def test_nonfinite_rejected(self):
        bad = dict(SCALAR)
        bad["A"] = [[np.nan]]
        with pytest.raises((ValueError, DimensionError)):
            GeneralizedPlant(**bad)

    def test_default_channel_names(self, dup_actuator_plant):
        assert dup_actuator_plant.actuator_names == ("u1", "u2")
        assert dup_actuator_plant.sensor_names == ("y1",)

    def test_matrices_read_only(self, scalar_plant):
        with pytest.raises(ValueError):
            scalar_plant.A[0, 0] = 5.0


class TestValidatePlant:
    def test_stable_plant_clean(self):
        p = GeneralizedPlant(A=[[-1.0]], Bu=[[0.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]])
        assert validate_plant(p) == []

    def test_unstabilizable_mode_flagged(self):
        p = GeneralizedPlant(A=[[1.0]], Bu=[[0.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]])
        diags = validate_plant(p)
        assert any("unstabilizable" in d for d in diags)

    def test_undetectable_mode_flagged(self):
        p = GeneralizedPlant(A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[0.0]], Dyw=[[0.0]])
        diags = validate_plant(p)
        assert any("undetectable" in d for d in diags)

    def test_random_plants_clean(self):
        rng = np.random.default_rng(7)
        for _ in range(5):
            assert validate_plant(random_plant(rng)) == []


class TestCloseStateFeedback:
    def test_scalar_substitution(self, scalar_plant):
        cl = close_state_feedback(scalar_plant, StateFeedbackGain([[-2.0]]))
        assert cl.Acl == pytest.approx(np.array([[-1.0]]))
        assert cl.Ccl == pytest.approx(np.array([[1.0]]))
        assert cl.Ctilde == pytest.approx(np.array([[-2.0]]))
        assert cl.Dtilde == pytest.approx(np.zeros((1, 1)))

    def test_zero_gain_is_open_loop(self, scalar_plant):
        cl = close_state_feedback(scalar_plant, StateFeedbackGain([[0.0]]))
        assert cl.Acl == pytest.approx(scalar_plant.A)

    def test_matches_matrix_arithmetic(self):
        rng = np.random.default_rng(3)
        p = random_plant(rng, nx=2, nu=2, nw=1, nz=2, ny=2)
        K = rng.standard_normal((2, 2))
        cl = close_state_feedback(p, StateFeedbackGain(K))
        assert cl.Acl == pytest.approx(p.A + p.Bu @ K)
        assert cl.Ccl == pytest.approx(p.Cz + p.Du @ K)
        assert cl.Bcl == pytest.approx(p.Bw)
        assert cl.Dcl == pytest.approx(p.Dw)

    def test_dimension_mismatch(self, scalar_plant):
        with pytest.raises(DimensionError):
            close_state_feedback(scalar_plant, StateFeedbackGain([[1.0, 2.0]]))


class TestCloseOutputFeedback:
    def test_matches_block_arithmetic(self):
        rng = np.random.default_rng(11)
        p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
        ctrl = DynamicController(
            AK=rng.standard_normal((3, 3)), BK=rng.standard_normal((3, 2)),
            CK=rng.standard_normal((2, 3)), DK=rng.standard_normal((2, 2)))
        cl = close_output_feedback(p, ctrl)
        top = np.hstack([p.A + p.Bu @ ctrl.DK @ p.Cy, p.Bu @ ctrl.CK])
        bot = np.hstack([ctrl.BK @ p.Cy, ctrl.AK])
        assert cl.Acl == pytest.approx(np.vstack([top, bot]))
        assert cl.Ctilde == pytest.approx(
            np.hstack([ctrl.DK @ p.Cy, ctrl.CK]))

    def test_io_mismatch(self, scalar_plant):
        ctrl = DynamicController(AK=[[0.0]], BK=[[1.0, 1.0]],
                                 CK=[[1.0]], DK=[[0.0, 0.0]])
        with pytest.raises(DimensionError):
            close_output_feedback(scalar_plant, ctrl)


class TestCloseLoop:
    def test_dispatch(self):
        rng = np.random.default_rng(12)
        p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
        ctrl = DynamicController(
            AK=rng.standard_normal((3, 3)), BK=rng.standard_normal((3, 2)),
            CK=rng.standard_normal((2, 3)), DK=rng.standard_normal((2, 2)))
        K = rng.standard_normal((2, 3))
        of = close_output_feedback(p, ctrl)
        assert np.array_equal(close_loop(p, ctrl).Acl, of.Acl)
        assert close_loop(p, of) is of
        sf = close_state_feedback(p, StateFeedbackGain(K))
        for gain in (StateFeedbackGain(K), K):
            cl = close_loop(p, gain)
            assert isinstance(cl, ClosedLoop)
            assert np.array_equal(cl.Acl, sf.Acl) and np.array_equal(cl.Ctilde, sf.Ctilde)


class TestControllerRecords:
    def test_dynamic_controller_shape_checks(self):
        with pytest.raises(DimensionError):
            DynamicController(AK=[[0.0, 1.0]], BK=[[1.0]], CK=[[1.0]], DK=[[0.0]])

    def test_state_feedback_gain_props(self):
        g = StateFeedbackGain([[1.0, 2.0], [3.0, 4.0]])
        assert (g.nu, g.nx) == (2, 2)


class TestSerialization:
    def test_plant_round_trip(self, tmp_path):
        rng = np.random.default_rng(5)
        p = random_plant(rng)
        path = tmp_path / "plant.json"
        save_plant(p, path)
        q = load_plant(path)
        for name in ("A", "Bu", "Bw", "Cz", "Du", "Dw", "Cy", "Dyw"):
            assert getattr(q, name) == pytest.approx(getattr(p, name), abs=0)
        assert q.actuator_names == p.actuator_names

    def test_round_trip_keeps_dyu(self, tmp_path):
        p = GeneralizedPlant(**SCALAR, Dyu=[[0.5]])
        path = tmp_path / "plant.json"
        save_plant(p, path)
        assert np.array_equal(load_plant(path).Dyu, [[0.5]])
        q = plant_from_dict(json.loads(json.dumps(plant_to_dict(p))))
        assert np.array_equal(q.Dyu, [[0.5]])
        assert validate_plant(q) == ["Dyu must be identically zero"]

    def test_dict_round_trip_is_json_safe(self, scalar_plant):
        d = plant_to_dict(scalar_plant)
        q = plant_from_dict(json.loads(json.dumps(d)))
        assert q.A == pytest.approx(scalar_plant.A)

    def test_controller_round_trip(self):
        g = StateFeedbackGain([[-2.0, 1.0]])
        assert controller_from_dict(controller_to_dict(g)).K == pytest.approx(g.K)
        c = DynamicController(AK=[[-1.0]], BK=[[2.0]], CK=[[3.0]], DK=[[0.0]])
        c2 = controller_from_dict(controller_to_dict(c))
        assert isinstance(c2, DynamicController)
        assert c2.AK == pytest.approx(c.AK)
