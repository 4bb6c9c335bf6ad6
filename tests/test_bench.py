import math
import re
import warnings

import numpy as np
import pytest

from sparsact import analysis, bench
from sparsact.errors import DimensionError, NonHurwitzError
from sparsact.model import (DynamicController, GeneralizedPlant, StateFeedbackGain,
                            close_output_feedback, close_state_feedback, validate_plant)
from sparsact.statefb import SfSynthesisSpec

from conftest import allocation_peak


class TestPlantCatalog:
    def test_scalar_oracle(self):
        p = bench.ScalarOracle().build()
        assert (p.nx, p.nu, p.nw, p.ny, p.nz) == (1, 1, 1, 1, 1)
        assert p.A[0, 0] == 1.0

    def test_mass_spring_chain_dims(self):
        p = bench.MassSpringChain(3).build()
        assert (p.nx, p.nu, p.nw, p.ny, p.nz) == (6, 3, 3, 6, 6)
        assert validate_plant(p) == []
        # undamped-ish oscillator: marginally stable open loop, poles near jw axis
        assert np.max(np.linalg.eigvals(p.A).real) < 0

    def test_chain_needs_a_mass(self):
        with pytest.raises(ValueError):
            bench.MassSpringChain(0).build()

    def test_tensegrity_dims_and_names(self):
        p = bench.TensegrityApprox().build()
        assert (p.nx, p.nu, p.nw, p.ny, p.nz) == (12, 9, 6, 12, 15)
        assert validate_plant(p) == []
        assert p.actuator_names[0] == "cable1" and p.actuator_names[-1] == "cable9"
        assert p.sensor_names[0] == "angle1" and p.sensor_names[-1] == "rate6"

    def test_tensegrity_open_loop_stable(self):
        p = bench.TensegrityApprox().build()
        assert analysis.is_hurwitz(p.A)

    def test_tensegrity_cable_geometry(self):
        fam = bench.TensegrityApprox()
        lengths = fam.cable_lengths(fam.trim_angles)
        assert lengths.shape == (9,)
        assert np.all(lengths > 0)


class TestSimulator:
    def test_first_order_step_matches_closed_form(self):
        # A + Bu K = -1, so x' = -x + w; step w = 1 gives x(t) = 1 - exp(-t)
        p = bench.ScalarOracle().build()
        res = bench.simulate_closed_loop(
            p, StateFeedbackGain([[-2.0]]), {"kind": "step"},
            horizon=5.0, dt=1e-3)
        expect = 1.0 - np.exp(-res.time)
        assert res.states[:, 0] == pytest.approx(expect, abs=1e-6)

    def test_controls_recorded_with_peaks(self):
        p = bench.ScalarOracle().build()
        res = bench.simulate_closed_loop(
            p, StateFeedbackGain([[-2.0]]), {"kind": "step"}, horizon=5.0)
        assert res.controls.shape == (len(res.time), 1)
        assert res.peaks[0] == pytest.approx(np.abs(res.controls[:, 0]).max())

    def test_unit_norm_disturbances(self):
        p = bench.MassSpringChain(2).build()
        for kind in ("step", "sinusoid", "noise"):
            res = bench.simulate_closed_loop(
                p, StateFeedbackGain(np.zeros((2, 4))), {"kind": kind, "seed": 3},
                horizon=0.01, dt=1e-3)
            fn = bench._disturbance_fn(res.disturbance, p.nw,
                                       np.random.default_rng(3))
            for t in (0.0, 0.3, 1.7):
                assert np.linalg.norm(fn(t)) == pytest.approx(1.0, abs=1e-9)

    def test_noise_deterministic_per_seed(self):
        p = bench.ScalarOracle().build()
        a = bench.simulate_closed_loop(p, StateFeedbackGain([[-2.0]]),
                                       {"kind": "noise", "seed": 7}, horizon=1.0)
        b = bench.simulate_closed_loop(p, StateFeedbackGain([[-2.0]]),
                                       {"kind": "noise", "seed": 7}, horizon=1.0)
        assert a.states == pytest.approx(b.states)

    @pytest.mark.parametrize("grid,name", [
        (dict(horizon=-1.0), "horizon"), (dict(horizon=np.nan), "horizon"),
        (dict(horizon=np.inf), "horizon"), (dict(dt=0.0), "dt"), (dict(dt=-1e-3), "dt"),
        (dict(dt=np.nan), "dt"), (dict(dt=np.inf), "dt"),
    ])
    def test_bad_time_grid_rejected(self, grid, name):
        p = bench.ScalarOracle().build()
        with pytest.raises(ValueError, match=f"^{name} must be"):
            bench.simulate_closed_loop(p, StateFeedbackGain([[-2.0]]), **grid)

    @pytest.mark.parametrize("horizon,dt", [(1e12, 1e-3), (1e17, 1e-3), (1e300, 1e-300)])
    def test_unallocatable_time_grid_rejected(self, horizon, dt):
        # 7 PiB, beyond numpy's largest array, and a step count that overflows:
        # each is refused before any memory is touched
        p = bench.ScalarOracle().build()
        msg = "^" + re.escape(f"horizon {horizon!r} at dt {dt!r} makes a time grid too long")
        with pytest.raises(ValueError, match=msg):
            bench.simulate_closed_loop(p, StateFeedbackGain([[-2.0]]), horizon=horizon, dt=dt)

    def test_unstable_loop_rejected(self):
        p = bench.ScalarOracle().build()
        with pytest.raises(NonHurwitzError):
            bench.simulate_closed_loop(p, StateFeedbackGain([[0.5]]))

    def test_destabilizing_nonlinearity_caught(self):
        # the step from t = 0.67 lands past the limit: its end time is reported
        p = bench.ScalarOracle().build()
        with pytest.raises(NonHurwitzError, match=r"blew past 1\.0e\+06 at t=0\.680;"):
            bench.simulate_closed_loop(
                p, StateFeedbackGain([[-2.0]]), {"kind": "step"},
                horizon=10.0, dt=1e-2,
                nonlinear_extra=bench.CubicForce([[10.0]], [[1.0]]))

    def test_blow_up_raises_without_overflow_warning(self):
        p = bench.ScalarOracle().build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHurwitzError):
                bench.simulate_closed_loop(
                    p, StateFeedbackGain([[-2.0]]), {"kind": "noise"},
                    horizon=10.0, dt=1e-2,
                    nonlinear_extra=bench.CubicForce([[10.0]], [[1.0]]))

    def test_blow_up_in_nonlinear_stage_raises_without_warning(self):
        # K = -1.5 overflows x**3 inside an RK4 stage before the energy check
        p = bench.ScalarOracle().build()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonHurwitzError):
                bench.simulate_closed_loop(
                    p, StateFeedbackGain([[-1.5]]), {"kind": "noise"},
                    horizon=10.0, dt=1e-2,
                    nonlinear_extra=bench.CubicForce([[10.0]], [[1.0]]))

    def test_cubic_stiffening_changes_trajectory(self):
        fam = bench.TensegrityApprox()
        p = fam.build()
        K = np.zeros((9, 12))
        x0 = np.zeros(12)
        x0[:6] = 0.2
        lin = bench.simulate_closed_loop(p, StateFeedbackGain(K), {"kind": "zero"},
                                         horizon=1.0, dt=1e-3, x0=x0)
        non = bench.simulate_closed_loop(p, StateFeedbackGain(K), {"kind": "zero"},
                                         horizon=1.0, dt=1e-3, x0=x0,
                                         nonlinear_extra=fam.cubic_stiffening())
        assert np.linalg.norm(lin.states - non.states) > 1e-6


def _unfolded_cubic(fam, strength=10.0):
    """The cubic stiffening force written term by term from its definition."""
    M, Gm, lengths, _ = fam._trim
    Minv = np.linalg.inv(M)
    k_cable = fam.CABLE_MODULUS * math.pi * (fam.CABLE_DIAMETER / 2.0) ** 2 / lengths
    t_diag = np.diag(fam._dynamics[3])

    def extra(xstate):
        e = Gm @ (t_diag[:6] * xstate[:6])
        force = -Gm.T @ (k_cable * strength * e ** 3)
        return np.concatenate([np.zeros(6), Minv @ force]) / t_diag

    return extra


def _reference_rk4(cl, d_of, extra, nx, horizon, dt, x0):
    """Per-step RK4 with the disturbance evaluated at each stage's time."""
    steps = int(round(horizon / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)

    def f(t, xv):
        dx = cl.Acl @ xv + cl.Bcl @ d_of(t)
        if extra is not None:
            dx[:nx] += extra(xv[:nx])
        return dx

    xv = np.array(x0, dtype=float)
    states, controls = [], []
    for k, t in enumerate(times):
        states.append(xv)
        controls.append(cl.Ctilde @ xv + cl.Dtilde @ d_of(t))
        if k == steps:
            break
        k1 = f(t, xv)
        k2 = f(t + dt / 2, xv + dt / 2 * k1)
        k3 = f(t + dt / 2, xv + dt / 2 * k2)
        k4 = f(t + dt, xv + dt * k3)
        xv = xv + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return np.array(states), np.array(controls)


def _rel_err(a, b):
    return np.abs(a - b).max() / np.abs(b).max()


class TestVectorisedSimulation:
    CASES = [
        ({"kind": "step"}, 3),
        ({"kind": "step", "direction": [1.0, -2.0, 0.5]}, 3),
        ({"kind": "sinusoid", "omega": 2.5}, 3),
        ({"kind": "sinusoid", "omega": 0.7, "direction": [0.0, 3.0, 1.0]}, 3),
        ({"kind": "sinusoid", "omega": 2.5}, 1),
        ({"kind": "noise", "components": 8}, 3),
        ({"kind": "noise"}, 1),
        ({"kind": "zero"}, 3),
    ]

    @pytest.mark.parametrize("descriptor,nw", CASES,
                             ids=[f"{d['kind']}{'-dir' if 'direction' in d else ''}-nw{n}"
                                  for d, n in CASES])
    def test_time_array_matches_scalar_evaluation(self, descriptor, nw):
        fn = bench._disturbance_fn(descriptor, nw, np.random.default_rng(5))
        times = np.linspace(0.0, 7.0, 141) + 1e-3 / 2
        grid = fn(times)
        assert grid.shape == (times.size, nw)
        for row, t in zip(grid, times):
            scalar = fn(t)
            assert scalar.shape == (nw,)
            assert np.abs(row - scalar).max() <= 1e-15
        norms = np.linalg.norm(grid, axis=1)
        if descriptor["kind"] == "zero":
            expect = np.zeros(times.size)
        elif descriptor["kind"] == "sinusoid" and nw == 1:
            # one channel has no second phase: d(t) = cos(omega t)
            expect = np.abs(np.cos(descriptor["omega"] * times))
        else:
            expect = np.ones(times.size)
        assert norms == pytest.approx(expect, abs=1e-12)

    def test_folded_cubic_stiffening_matches_unfolded(self):
        fam = bench.TensegrityApprox()
        folded = fam.cubic_stiffening(strength=7.0)
        unfolded = _unfolded_cubic(fam, strength=7.0)
        rng = np.random.default_rng(11)
        for scale in (1e-3, 0.1, 1.0):
            x = scale * rng.standard_normal(12)
            got, want = folded(x), unfolded(x)
            assert got.shape == (12,)
            assert np.all(got[:6] == 0.0)
            assert _rel_err(got, want) <= 1e-12

    @pytest.fixture
    def tensegrity_of_loop(self):
        fam = bench.TensegrityApprox()
        p = fam.build()
        rng = np.random.default_rng(2)
        ctrl = DynamicController(AK=-2.0 * np.eye(4),
                                 BK=0.03 * rng.standard_normal((4, p.ny)),
                                 CK=0.03 * rng.standard_normal((p.nu, 4)),
                                 DK=0.015 * rng.standard_normal((p.nu, p.ny)))
        return fam, p, ctrl

    def test_matches_per_step_reference(self, tensegrity_of_loop):
        fam, p, ctrl = tensegrity_of_loop
        cl = close_output_feedback(p, ctrl)
        x0 = np.zeros(p.nx + 4)
        x0[:6] = 0.2
        descriptor = {"kind": "noise", "seed": 4}
        res = bench.simulate_closed_loop(p, ctrl, descriptor, horizon=1.0,
                                         dt=1e-3, x0=x0,
                                         nonlinear_extra=fam.cubic_stiffening())
        d_of = bench._disturbance_fn(descriptor, p.nw, np.random.default_rng(4))
        states, controls = _reference_rk4(cl, d_of, _unfolded_cubic(fam), p.nx,
                                          1.0, 1e-3, x0)
        assert res.states.shape == states.shape == (1001, p.nx + 4)
        assert _rel_err(res.states, states) <= 1e-12
        assert _rel_err(res.controls, controls) <= 1e-12
        assert res.peaks == pytest.approx(np.abs(controls).max(axis=0), rel=1e-12)

    def test_controls_carry_disturbance_feedthrough(self):
        # Dyw != 0 and DK != 0 give Dtilde != 0, which the tensegrity lacks
        chain = bench.MassSpringChain(2).build()
        p = GeneralizedPlant(A=chain.A, Bu=chain.Bu, Bw=chain.Bw, Cz=chain.Cz,
                             Du=chain.Du, Dw=chain.Dw, Cy=chain.Cy,
                             Dyw=0.5 * np.ones((chain.ny, chain.nw)))
        ctrl = DynamicController(AK=-np.eye(2), BK=0.2 * np.ones((2, p.ny)),
                                 CK=0.2 * np.ones((p.nu, 2)),
                                 DK=-0.3 * np.eye(p.nu, p.ny))
        cl = close_output_feedback(p, ctrl)
        assert np.abs(cl.Dtilde).max() > 0.1
        descriptor = {"kind": "sinusoid", "omega": 3.0}
        res = bench.simulate_closed_loop(p, ctrl, descriptor, horizon=0.5)
        d_of = bench._disturbance_fn(res.disturbance, p.nw, None)
        states, controls = _reference_rk4(cl, d_of, None, p.nx, 0.5, 1e-3,
                                          np.zeros(p.nx + 2))
        assert _rel_err(res.states, states) <= 1e-12
        assert _rel_err(res.controls, controls) <= 1e-12

    def test_state_feedback_loop_matches_per_step_reference(self):
        # no controller states: the cubic force's arguments span the whole state
        fam = bench.TensegrityApprox()
        p = fam.build()
        K = StateFeedbackGain(0.002 * np.random.default_rng(8).standard_normal((p.nu, p.nx)))
        cl = close_state_feedback(p, K)
        assert analysis.is_hurwitz(cl.Acl)
        x0 = np.linspace(-0.2, 0.3, p.nx)
        descriptor = {"kind": "step", "direction": [1.0, 0.0, -2.0, 0.5, 0.0, 1.0]}
        res = bench.simulate_closed_loop(p, K, descriptor, horizon=1.0, x0=x0,
                                         nonlinear_extra=fam.cubic_stiffening())
        d_of = bench._disturbance_fn(res.disturbance, p.nw, None)
        states, controls = _reference_rk4(cl, d_of, _unfolded_cubic(fam), p.nx,
                                          1.0, 1e-3, x0)
        assert res.states.shape == states.shape == (1001, p.nx)
        assert _rel_err(res.states, states) <= 1e-12
        assert _rel_err(res.controls, controls) <= 1e-12
        # and the cubic term is far above that bound
        lin = bench.simulate_closed_loop(p, K, descriptor, horizon=1.0, x0=x0)
        assert _rel_err(lin.states, states) > 1e-6

    def test_cubic_force_shapes(self, tensegrity_of_loop):
        fam, p, ctrl = tensegrity_of_loop
        force = fam.cubic_stiffening()
        assert (force.N.shape, force.G.shape) == ((12, 9), (9, 12))
        with pytest.raises(DimensionError, match=r"^G must be 9x12 \(r x nx\), got \(9, 11\)"):
            bench.CubicForce(force.N, force.G[:, :11])
        with pytest.raises(DimensionError, match=r"^G must be 8x12"):
            bench.CubicForce(force.N[:, :8], force.G)
        # consistent in itself, but on a plant of 11 states
        short = bench.CubicForce(force.N[:11], force.G[:, :11])
        with pytest.raises(DimensionError, match="acts on 11 states but the plant has 12"):
            bench.simulate_closed_loop(p, ctrl, horizon=0.01, nonlinear_extra=short)
        with pytest.raises(TypeError, match="must be a CubicForce or None, got function"):
            bench.simulate_closed_loop(p, ctrl, horizon=0.01, nonlinear_extra=lambda x: force(x))

    def test_holds_little_beyond_its_result(self, tensegrity_of_loop):
        # the disturbance is kept as 3 nw samples a step; n-wide arrays per
        # RK4 stage (3 n doubles a step more) would break the bound
        fam, p, ctrl = tensegrity_of_loop
        n, steps = p.nx + 4, 4000
        x0 = np.zeros(n)
        x0[:6] = 0.2
        peak = allocation_peak(bench.simulate_closed_loop, p, ctrl, {"kind": "noise"},
                               steps * 1e-3, 1e-3, x0, fam.cubic_stiffening())
        result = 8 * (steps + 1) * (n + p.nu)  # the states and the controls
        assert peak <= result + 8 * (steps + 1) * (n + 3 * p.nw) + 2 ** 17

    def test_plant_length_x0_is_a_dimension_error(self, tensegrity_of_loop):
        _, p, ctrl = tensegrity_of_loop
        with pytest.raises(DimensionError, match=r"\(12,\).*order 16"):
            bench.simulate_closed_loop(p, ctrl, horizon=0.01, x0=np.zeros(p.nx))
        with pytest.raises(ValueError):
            bench.simulate_closed_loop(p, ctrl, horizon=0.01, x0=np.zeros((16, 1)))


class TestGammaSweep:
    def test_rows_record_feasible_and_infeasible(self):
        # direct disturbance feedthrough Dw = 1 puts a hard floor of 1 on the
        # achievable closed-loop gain, so gamma0 = 0.5 must come back infeasible
        from sparsact.model import GeneralizedPlant
        p = GeneralizedPlant(A=[[1.0]], Bu=[[1.0, 1.0]], Bw=[[1.0]],
                             Cz=[[1.0]], Du=[[0.0, 0.0]], Dw=[[1.0]],
                             Cy=[[1.0]], Dyw=[[0.0]])

        def spec_for(g0):
            return SfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=g0)

        rows = bench.gamma_sweep(spec_for, [0.5, 3.0])
        assert [r["status"] for r in rows] == ["infeasible", "ok"]
        ok = rows[1]
        assert len(ok["kept_actuators"]) == 1
        assert ok["verified_norm"] < 3.0 * (1 + 1e-5)
        assert ok["iterations"] >= 1

    def test_csv_render(self, dup_actuator_plant):
        def spec_for(g0):
            return SfSynthesisSpec(plant=dup_actuator_plant,
                                   performance_kind="hinf", gamma0=g0)

        rows = bench.gamma_sweep(spec_for, [3.0])
        text = bench.sweep_to_csv(rows)
        lines = text.strip().split("\n")
        assert lines[0].startswith("gamma0,status")
        assert len(lines) == 2 and ",ok," in lines[1]

    def test_empty_sweep_rejected(self, dup_actuator_plant):
        with pytest.raises(ValueError):
            bench.gamma_sweep(lambda g: None, [])
