import dataclasses
import json

import numpy as np
import pytest

from sparsact import analysis, lmi
from sparsact.errors import (
    DimensionError,
    NonzeroFeedthroughError,
)
from sparsact.joint import (
    JointSpec,
    group_norms,
    synth_joint,
    verify_sparsity_preservation,
)
from sparsact.model import close_output_feedback
from sparsact.outputfb import HatController
from sparsact.sdp import REDUCED_TOL, solve_sdp
from sparsact.statefb import active_set_from_values, result_to_dict

from conftest import coupled_lyapunov_pair, random_plant


class TestArrowEpigraph:
    def test_minimizing_t_recovers_vector_norm(self):
        v = np.array([[3.0], [4.0]])
        t = lmi.MatVar("t", (1, 1), "diagonal")
        cons = [lmi.soc(t, lmi.const(v))]
        prob, vm = lmi.compile_lmis([t], cons, objective=t)
        sol = solve_sdp(prob)
        assert sol.status == "optimal"
        assert vm.value(sol.x, t)[0, 0] == pytest.approx(5.0, rel=1e-6)


def _arrow_psd(t, v):
    """||v|| <= t as the PSD arrow block [[t, v'], [v, t I]] >= 0.

    The form joint designs compiled to before second-order cones; t I is
    summed from the rank-one pieces e_i t e_i'."""
    t, v = lmi.Expr.wrap(t), lmi.Expr.wrap(v)
    eye = np.eye(v.shape[0])
    tI = lmi.const(np.zeros((len(eye), len(eye))))
    for i in range(len(eye)):
        tI = tI + eye[:, i:i + 1] @ t @ eye[i:i + 1]
    return lmi.pos_semidef(lmi.bmat([[t, v.T], [None, tI]]))


class TestSecondOrderConeForm:
    """The group-norm bounds as second-order cones give the designs that the
    PSD arrow blocks they replaced give."""

    @pytest.mark.parametrize("kind", ["hinf", "h2"])
    @pytest.mark.parametrize("nx, dyw", [(2, False), (4, False), (3, True)])
    def test_same_optimum_as_arrow_blocks(self, monkeypatch, kind, nx, dyw):
        rng = np.random.default_rng(11)
        p = random_plant(rng, nx=nx, nu=2, nw=2, nz=2, ny=2)
        if dyw:
            p = dataclasses.replace(p, Dyw=0.3 * rng.standard_normal((2, 2)))
        # below the open-loop norm, so that the zero controller does not do
        norm = analysis.hinf_norm if kind == "hinf" else analysis.h2_norm
        gamma0 = 0.8 * norm((p.A, p.Bw, p.Cz, p.Dw)).value
        spec = JointSpec(plant=p, performance_kind=kind, gamma0=gamma0)
        cone = synth_joint(spec)
        monkeypatch.setattr(lmi, "soc", _arrow_psd)
        arrow = synth_joint(spec)
        assert len(cone.solution.soc_duals) == p.nu + p.ny
        assert arrow.solution.soc_duals == []
        objs = cone.solution.objective, arrow.solution.objective
        assert abs(objs[0] - objs[1]) <= REDUCED_TOL * (1.0 + abs(objs[1]))
        assert cone.verified_closed_loop.value < gamma0
        assert arrow.verified_closed_loop.value < gamma0


class TestScalarJoint:
    def test_verified_and_feasible(self, scalar_plant):
        res = synth_joint(JointSpec(plant=scalar_plant, performance_kind="h2",
                                    gamma0=2.0))
        assert res.verified_closed_loop.value < 2.0 * (1 + 1e-5)
        cl = close_output_feedback(scalar_plant, res.controller)
        assert np.max(np.linalg.eigvals(cl.Acl).real) < 0

    def test_hinf_kind(self, scalar_plant):
        res = synth_joint(JointSpec(plant=scalar_plant, performance_kind="hinf",
                                    gamma0=2.0))
        assert res.verified_closed_loop.kind == "Hinf"
        assert res.verified_closed_loop.value < 2.0 * (1 + 1e-5)

    def test_to_dict_serializable(self, scalar_plant):
        res = synth_joint(JointSpec(plant=scalar_plant, performance_kind="h2",
                                    gamma0=2.0))
        json.dumps(result_to_dict(res))


class TestMeasurementFeedthrough:
    def test_hinf_design_with_nonzero_dyw(self):
        """Joint H-infinity on a plant with Dyw != 0: DKhat @ Dyw is zero up to
        the rounding of the product, and the closed loop assembled here from
        the plant and the controller matrices is stable with H-infinity norm
        below gamma0."""
        rng = np.random.default_rng(0)
        p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
        p = dataclasses.replace(p, Dyw=0.3 * rng.standard_normal((2, 2)))
        gamma0 = 1.3 * analysis.hinf_norm((p.A, p.Bw, p.Cz, p.Dw)).value + 0.1
        res = synth_joint(JointSpec(plant=p, performance_kind="hinf", gamma0=gamma0))
        bound = p.ny * np.finfo(float).eps * np.linalg.norm(res.hat.DKhat) * np.linalg.norm(p.Dyw)
        assert np.linalg.norm(res.hat.DKhat @ p.Dyw) <= bound

        k = res.controller
        A = np.block([[p.A + p.Bu @ k.DK @ p.Cy, p.Bu @ k.CK], [k.BK @ p.Cy, k.AK]])
        B = np.vstack([p.Bw + p.Bu @ k.DK @ p.Dyw, k.BK @ p.Dyw])
        C = np.hstack([p.Cz + p.Du @ k.DK @ p.Cy, p.Du @ k.CK])
        D = p.Dw + p.Du @ k.DK @ p.Dyw
        assert np.max(np.linalg.eigvals(A).real) < 0
        norm = analysis.hinf_norm((A, B, C, D)).value
        assert norm < gamma0
        peak = max(np.linalg.norm(C @ np.linalg.solve(1j * w * np.eye(len(A)) - A, B) + D, 2)
                   for w in np.concatenate([[0.0], np.logspace(-3, 3, 601)]))
        assert peak <= norm * (1 + 1e-6)


    def test_hinf_design_with_full_rank_dyw(self):
        """A full-rank Dyw (so DKhat = 0) at gamma0 = 5, below the open-loop
        norm 7.72: without the coupling margin the solve stalls at reduced
        accuracy and its controller verifies at H-infinity 15.27."""
        rng = np.random.default_rng(100)
        p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
        p = dataclasses.replace(p, Dyw=0.3 * rng.standard_normal((2, 2)))
        assert np.linalg.matrix_rank(p.Dyw) == 2
        res = synth_joint(JointSpec(plant=p, performance_kind="hinf", gamma0=5.0))
        assert not np.any(res.hat.DKhat)
        assert res.verified_closed_loop.value < 5.0


class TestDuplicatedSensors:
    def test_penalized_duplicate_column_collapses(self, dup_sensor_plant):
        # two identical measurements: pressure on the second column should
        # drive it to (near) zero without losing performance; gamma0 is set
        # below the open-loop norm so a nontrivial controller is required
        res = synth_joint(JointSpec(plant=dup_sensor_plant,
                                    performance_kind="h2", gamma0=0.5,
                                    nu=[1.0, 50.0], mu=[0.0]))
        assert res.verified_closed_loop.value < 0.5 * (1 + 1e-5)
        cols = res.col_norms
        assert cols[1] <= 1e-3 * max(cols[0], 1e-30)

    def test_group_norms_report(self, dup_sensor_plant):
        res = synth_joint(JointSpec(plant=dup_sensor_plant,
                                    performance_kind="h2", gamma0=0.5,
                                    nu=[1.0, 50.0], mu=[0.0]))
        rows, cols = group_norms(res.hat)
        assert rows.shape == (dup_sensor_plant.nu,)
        assert cols.shape == (dup_sensor_plant.ny,)
        assert 1 not in active_set_from_values(cols)


class TestSparsityPreservation:
    def test_forced_zero_groups_survive_reconstruction(self):
        rng = np.random.default_rng(11)
        for trial in range(20):
            nx, nu, ny = 3, 3, 3
            plant = random_plant(rng, nx=nx, nu=nu, ny=ny)
            X, Y = coupled_lyapunov_pair(rng, nx)
            CKh = rng.standard_normal((nu, nx))
            BKh = rng.standard_normal((nx, ny))
            DKh = rng.standard_normal((nu, ny))
            # zero out one actuator row and one sensor column in hat space
            i, j = trial % nu, (trial + 1) % ny
            CKh[i, :] = 0.0
            DKh[i, :] = 0.0
            BKh[:, j] = 0.0
            DKh[:, j] = 0.0
            hat = HatController(AKhat=rng.standard_normal((nx, nx)),
                                BKhat=BKh, CKhat=CKh, DKhat=DKh, X=X, Y=Y)
            assert verify_sparsity_preservation(hat, plant) == []

    def test_reports_nonpreserving_transform(self):
        # a dense hat controller has no zero groups, so nothing to report
        rng = np.random.default_rng(12)
        plant = random_plant(rng, nx=2, nu=1, ny=1)
        X, Y = coupled_lyapunov_pair(rng, 2)
        hat = HatController(AKhat=rng.standard_normal((2, 2)),
                            BKhat=rng.standard_normal((2, 1)),
                            CKhat=rng.standard_normal((1, 2)),
                            DKhat=rng.standard_normal((1, 1)), X=X, Y=Y)
        assert verify_sparsity_preservation(hat, plant) == []


class TestSpecValidation:
    def test_h2_rejects_feedthrough(self, scalar_plant):
        from sparsact.model import GeneralizedPlant
        p = GeneralizedPlant(A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[1.0]], Cy=[[1.0]], Dyw=[[0.0]])
        with pytest.raises(NonzeroFeedthroughError):
            JointSpec(plant=p, performance_kind="h2", gamma0=2.0)

    def test_bad_weight_lengths(self, scalar_plant):
        with pytest.raises(DimensionError):
            JointSpec(plant=scalar_plant, gamma0=1.0, mu=[1.0, 1.0])

    def test_all_zero_weights_rejected(self, scalar_plant):
        with pytest.raises(ValueError):
            JointSpec(plant=scalar_plant, gamma0=1.0, mu=[0.0], nu=[0.0])

    def test_negative_weights_rejected(self, scalar_plant):
        with pytest.raises(ValueError):
            JointSpec(plant=scalar_plant, gamma0=1.0, mu=[-1.0])

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["mu", "nu"])
    def test_non_finite_weights(self, scalar_plant, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            JointSpec(plant=scalar_plant, gamma0=1.0, **{name: [value]})

    def test_bad_kind(self, scalar_plant):
        with pytest.raises(ValueError):
            JointSpec(plant=scalar_plant, performance_kind="lqr", gamma0=1.0)
