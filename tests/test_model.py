import dataclasses
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
from sparsact.outputfb import HatController

from conftest import SCALAR, random_plant

# Each record's matrix fields with a consistent shape for nx = 3, nu = 2,
# nw = 4, nz = 5 and ny = 1 (n and nk are 3 too).
RECORD_SHAPES = {
    GeneralizedPlant: {"A": (3, 3), "Bu": (3, 2), "Bw": (3, 4), "Cz": (5, 3),
                       "Du": (5, 2), "Dw": (5, 4), "Cy": (1, 3), "Dyw": (1, 4),
                       "Dyu": (1, 2)},
    StateFeedbackGain: {"K": (2, 3)},
    DynamicController: {"AK": (3, 3), "BK": (3, 1), "CK": (2, 3), "DK": (2, 1)},
    ClosedLoop: {"Acl": (3, 3), "Bcl": (3, 4), "Ccl": (5, 3), "Dcl": (5, 4),
                 "Ctilde": (2, 3), "Dtilde": (2, 4)},
    HatController: {"AKhat": (3, 3), "BKhat": (3, 1), "CKhat": (2, 3), "DKhat": (2, 1),
                    "X": (3, 3), "Y": (3, 3)},
}
# The fields whose column count is the first to fix a dimension: a wrong
# shape shows in their rows.  StateFeedbackGain's K fixes both of its own,
# so only a K that is not 2-D is mis-shaped.
FIRST_BY_COLUMNS = {"Bu", "Bw", "BK", "Bcl", "BKhat"}
RECORD_FIELDS = [(record, name) for record, shapes in RECORD_SHAPES.items()
                 for name in shapes]


def _record(record, **changes):
    """The record of RECORD_SHAPES, with integer entries, and ``changes``."""
    fields = {name: np.arange(1, r * c + 1).reshape(r, c).tolist()
              for name, (r, c) in RECORD_SHAPES[record].items()}
    return record(**{**fields, **changes})


@pytest.mark.parametrize("record,name", RECORD_FIELDS)
class TestRecordContract:
    def test_stored_read_only_float(self, record, name):
        M = getattr(_record(record), name)
        assert M.dtype == np.float64 and M.shape == RECORD_SHAPES[record][name]
        with pytest.raises(ValueError):
            M[0, 0] = 5.0

    def test_nan_names_field(self, record, name):
        M = np.ones(RECORD_SHAPES[record][name])
        M[-1, -1] = np.nan
        with pytest.raises(ValueError, match=f"^{name} must be finite"):
            _record(record, **{name: M})

    def test_three_dimensional_names_field(self, record, name):
        with pytest.raises(DimensionError, match=f"^{name} must be"):
            _record(record, **{name: np.ones(RECORD_SHAPES[record][name] + (1,))})



class TestRecordShapes:
    @pytest.mark.parametrize("record,name", [f for f in RECORD_FIELDS if f[1] != "K"])
    def test_misshaped_names_field(self, record, name):
        r, c = RECORD_SHAPES[record][name]
        bad = (r + 1, c) if name in FIRST_BY_COLUMNS else (r, c + 1)
        with pytest.raises(DimensionError, match=f"^{name} must be {r}x{c} "):
            _record(record, **{name: np.ones(bad)})

    def test_dk_against_ck_rows_and_bk_columns(self):
        with pytest.raises(DimensionError, match=r"^DK must be 2x1 \(nu x ny\)"):
            _record(DynamicController, DK=np.zeros((1, 2)))

    def test_dyu_against_sensors_and_actuators(self):
        with pytest.raises(DimensionError, match=r"^Dyu must be 1x2 \(ny x nu\)"):
            _record(GeneralizedPlant, Dyu=[[0.5]])

    def test_dkhat_against_ckhat_rows_and_bkhat_columns(self):
        with pytest.raises(DimensionError, match=r"^DKhat must be 2x1 \(nu x ny\)"):
            _record(HatController, DKhat=np.zeros((2, 2)))

    def test_missing_matrix_named(self):
        with pytest.raises(ValueError, match="^Bw is missing"):
            GeneralizedPlant(A=[[1.0]], Bu=[[1.0]], Bw=None, Cz=[[1.0]])

    def test_copy_keeps_memory_order(self):
        # reconstruct_controller hands over Fortran-ordered matrices, and
        # BLAS rounding follows layout
        F = np.asfortranarray(np.arange(6.0).reshape(2, 3))
        ctrl = DynamicController(AK=np.eye(3), BK=F.T, CK=F, DK=np.zeros((2, 2)))
        assert ctrl.CK.flags.f_contiguous and ctrl.BK.flags.c_contiguous
        assert not np.shares_memory(ctrl.CK, F)


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

    @pytest.mark.parametrize("names", ["u1", ["u1", None], [1, 2], ("u1", b"u2"), 12])
    def test_actuator_names_must_be_strings(self, dup_actuator_plant, names):
        with pytest.raises(ValueError, match="^actuator_names must be None or a sequence"):
            dataclasses.replace(dup_actuator_plant, actuator_names=names)

    def test_sensor_names_must_be_strings(self, scalar_plant):
        with pytest.raises(ValueError, match="^sensor_names must be None or a sequence"):
            dataclasses.replace(scalar_plant, sensor_names="y")

    def test_channel_name_count(self, dup_actuator_plant):
        with pytest.raises(DimensionError, match="^actuator_names: need 2 names, got 1"):
            dataclasses.replace(dup_actuator_plant, actuator_names=["u1"])
        with pytest.raises(DimensionError, match="^sensor_names: need 1 names, got 2"):
            dataclasses.replace(dup_actuator_plant, sensor_names=("a", "b"))


class TestRestricted:
    def test_dims_and_names(self, dup_actuator_plant):
        red = dup_actuator_plant.restricted([1], [0])
        assert red.nu == 1 and red.ny == dup_actuator_plant.ny
        assert red.actuator_names == (dup_actuator_plant.actuator_names[1],)
        assert red.Bu == pytest.approx(dup_actuator_plant.Bu[:, [1]])

    def test_sensor_reduction(self, dup_sensor_plant):
        red = dup_sensor_plant.restricted([0], [1])
        assert red.ny == 1
        assert red.Cy == pytest.approx(dup_sensor_plant.Cy[[1], :])

    def test_keeps_dyu_block_and_names(self):
        rng = np.random.default_rng(4)
        p = dataclasses.replace(random_plant(rng, nx=2, nu=3, ny=2),
                                Dyu=[[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]],
                                actuator_names=["a", "b", "c"], sensor_names=["s", "t"])
        red = p.restricted([2, 0], [1])
        assert np.array_equal(red.Dyu, [[6.0, 4.0]])
        assert red.actuator_names == ("c", "a") and red.sensor_names == ("t",)
        for name, M in (("Bu", p.Bu[:, [2, 0]]), ("Du", p.Du[:, [2, 0]]),
                        ("Cy", p.Cy[[1], :]), ("Dyw", p.Dyw[[1], :])):
            assert np.array_equal(getattr(red, name), M)
        for name in ("A", "Bw", "Cz", "Dw"):
            assert np.array_equal(getattr(red, name), getattr(p, name))


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

    def test_controller_missing_matrix_named(self):
        with pytest.raises(ValueError, match="^DK is missing"):
            controller_from_dict({"AK": [[-1.0]], "BK": [[2.0]], "CK": [[3.0]]})
