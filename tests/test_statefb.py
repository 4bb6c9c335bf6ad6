import dataclasses
import itertools
import re
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.optimize
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsact import analysis, joint, lmi, statefb
from sparsact.bench import MassSpringChain, TensegrityApprox
from sparsact.errors import (
    InfeasiblePerformance,
    NonzeroFeedthroughError,
    SparsactError,
    SynthesisNumericalError,
)
from sparsact.joint import JointSpec
from sparsact.model import (DynamicController, GeneralizedPlant, close_output_feedback,
                            close_state_feedback)
from sparsact.outputfb import (HatController, OfSynthesisSpec, factor_lyapunov_partitions,
                               hat_loop)
from sparsact.statefb import (
    SfSynthesisSpec,
    active_set_from_values,
    result_to_dict,
    sf_loop,
    synth_sf,
)

from conftest import coupled_lyapunov_pair, hat_transform, pool_requests, random_plant


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


class TestScalarOracleBelowOne:
    """The scalar plant at g = gamma0 (1 - GAMMA_BACKOFF) <= 1, where the
    bounded-real block bounds the Gramian by g X: with X the Lyapunov
    scalar, the least Gamma is the 1-D minimum over X > 0 of
    g (X + (1 + X^2) / (2g))^2 / X, at the gain K = -1 - (1 + X^2) / (2gX)."""

    @staticmethod
    def oracle(gamma0):
        g = gamma0 * (1.0 - statefb.GAMMA_BACKOFF)
        res = scipy.optimize.minimize_scalar(
            lambda X: g * (X + (1.0 + X * X) / (2.0 * g)) ** 2 / X,
            bounds=(1e-6, 1e3), method="bounded", options={"xatol": 1e-12})
        return res.fun, -1.0 - (1.0 + res.x ** 2) / (2.0 * g * res.x)

    @pytest.mark.parametrize("gamma0, bound, gain", [
        (0.3, 4.00481, -5.2434), (0.5, 3.03371, -3.7393), (0.9, 2.43819, -2.7803)])
    def test_hinf_gain_and_bound(self, scalar_plant, gamma0, bound, gain):
        oracle_bound, oracle_gain = self.oracle(gamma0)
        assert (oracle_bound, oracle_gain) == pytest.approx((bound, gain), rel=1e-4)
        res = synth_sf(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=gamma0))
        assert res.K.K[0, 0] == pytest.approx(oracle_gain, rel=1e-2)
        assert res.gamma[0] == pytest.approx(oracle_bound, rel=1e-2)
        assert res.verified_closed_loop.value < gamma0 * (1 + 1e-5)

    @pytest.mark.parametrize("spec_class", [SfSynthesisSpec, OfSynthesisSpec])
    def test_capped_request_designs(self, scalar_plant, spec_class):
        # the oracle's Gamma 4.005 is below the cap 8
        res = spec_class(plant=scalar_plant, performance_kind="hinf", gamma0=0.3,
                         gamma_max=[8.0]).synthesize()
        assert res.verified_closed_loop.value < 0.3
        assert res.verified_channels[0].value < np.sqrt(8.0)


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
        # per-channel bound below 0.5 is unattainable for this plant; no
        # plant-only bound sees the caps, so the SDP finds the improving ray
        with pytest.raises(InfeasiblePerformance, match=re.escape(
                "no Lyapunov certificate exists for the requested bounds "
                "(dual improving ray found)")):
            synth_sf(SfSynthesisSpec(
                plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0,
                gamma_max=[0.4, 0.4]))

    def test_weighted_objective_prefers_cheap_actuator(self, dup_actuator_plant):
        res = synth_sf(SfSynthesisSpec(
            plant=dup_actuator_plant, performance_kind="hinf", gamma0=2.0,
            rho=[10.0, 1.0]))
        assert res.gamma[1] > res.gamma[0]


def counted_solves(monkeypatch):
    """A list that grows by one entry with each statefb._solve call, joint's included."""
    calls, solve = [], statefb._solve

    def counting(*args):
        calls.append(args[0])
        return solve(*args)
    for module in (statefb, joint):
        monkeypatch.setattr(module, "_solve", counting)
    return calls


class TestChannelBoundRetry:
    """An H-infinity design at g0 = gamma0 (1 - GAMMA_BACKOFF) > 1 whose
    coupled solve fails, by an improving ray or otherwise, is decided by the
    problem without the Lyapunov block; at g0 <= 1 that problem is the only one."""

    def test_refusal_above_one_solves_twice(self, dup_actuator_plant, monkeypatch):
        calls = counted_solves(monkeypatch)
        with pytest.raises(InfeasiblePerformance, match="no Lyapunov certificate"):
            synth_sf(SfSynthesisSpec(plant=dup_actuator_plant, performance_kind="hinf",
                                     gamma0=2.0, gamma_max=[0.4, 0.4]))
        assert len(calls) == 2

    def test_dump_path_holds_the_retry(self, dup_actuator_plant, monkeypatch, tmp_path):
        # a design's dump is the last problem it solved: here the retry's
        problems, solve = [], statefb.solve_sdp

        def recording(problem):
            problems.append(problem)
            return solve(problem)
        monkeypatch.setattr(statefb, "solve_sdp", recording)
        dump = tmp_path / "dump.txt"
        with pytest.raises(InfeasiblePerformance, match="no Lyapunov certificate"):
            synth_sf(SfSynthesisSpec(plant=dup_actuator_plant, performance_kind="hinf",
                                     gamma0=2.0, gamma_max=[0.4, 0.4], dump_path=str(dump)))
        assert len(problems) == 2
        for i, problem in enumerate(problems):
            problem.dump_triplets(tmp_path / f"{i}.txt")
        assert (tmp_path / "0.txt").read_bytes() != (tmp_path / "1.txt").read_bytes()
        assert dump.read_bytes() == (tmp_path / "1.txt").read_bytes()

    def test_refusal_at_one_solves_once(self, dup_actuator_plant, monkeypatch):
        calls = counted_solves(monkeypatch)
        with pytest.raises(InfeasiblePerformance, match="no Lyapunov certificate"):
            synth_sf(SfSynthesisSpec(plant=dup_actuator_plant, performance_kind="hinf",
                                     gamma0=1.0, gamma_max=[0.4, 0.4]))
        assert len(calls) == 1

    def test_design_solves_once(self, dup_actuator_plant, monkeypatch):
        calls = counted_solves(monkeypatch)
        synth_sf(SfSynthesisSpec(plant=dup_actuator_plant, performance_kind="hinf",
                                 gamma0=2.0))
        assert len(calls) == 1

    def test_breakdown_above_one_falls_back(self, monkeypatch):
        # request 132 of the random-designs pool at half its benchmark gamma0
        # (TestNearOptimumBreakdown): the coupled solve breaks down
        p, _ = next(itertools.islice(pool_requests(0), 132, None))
        g0 = 0.5 * (1.3 * analysis.hinf_norm((p.A, p.Bw, p.Cz, p.Dw)).value + 0.1)
        ends, solve = [], statefb._solve

        def recording(*args):
            try:
                out = solve(*args)
            except SparsactError as exc:
                ends.append(type(exc))
                raise
            ends.append("optimal")
            return out
        monkeypatch.setattr(statefb, "_solve", recording)
        res = synth_sf(SfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=g0))
        assert ends == [SynthesisNumericalError, "optimal"]
        assert res.verified_closed_loop.value < g0

    @pytest.mark.parametrize("spec_class, akhat, blocks", [
        (SfSynthesisSpec, 0, 1), (OfSynthesisSpec, 1, 0)])
    def test_one_problem_below_one(self, scalar_plant, spec_class, akhat, blocks,
                                   monkeypatch):
        # at g0 <= 1 the design solves once, without the Lyapunov block; of-hinf
        # also leaves out AKhat's nx^2 = 1 scalar, and emits its bounded-real
        # block as two projections in place of the Lyapunov block
        problems, solve = [], statefb.solve_sdp

        def recording(problem):
            problems.append(problem)
            return solve(problem)
        monkeypatch.setattr(statefb, "solve_sdp", recording)
        for gamma0 in (0.9, 2.0):
            spec_class(plant=scalar_plant, performance_kind="hinf", gamma0=gamma0).synthesize()
        below, coupled = problems
        assert len(below.blocks) == len(coupled.blocks) - blocks
        assert below.num_vars == coupled.num_vars - akhat


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

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["rho", "gamma_max"])
    def test_non_finite_weights(self, scalar_plant, name, value):
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            SfSynthesisSpec(plant=scalar_plant, gamma0=1.0, **{name: [value]})

    @pytest.mark.parametrize("spec", [SfSynthesisSpec, OfSynthesisSpec, JointSpec])
    def test_infinite_gamma0(self, scalar_plant, spec):
        with pytest.raises(ValueError, match="gamma0"):
            spec(plant=scalar_plant, gamma0=np.inf)

    @pytest.mark.parametrize("spec,gamma0", [(SfSynthesisSpec, 1e200), (OfSynthesisSpec, 1e308),
                                             (JointSpec, 1e160)])
    def test_h2_gamma0_whose_square_overflows(self, scalar_plant, spec, gamma0):
        # the H2 trace bound gamma0^2 must be a finite float
        with pytest.raises(ValueError, match="gamma0"):
            spec(plant=scalar_plant, performance_kind="h2", gamma0=gamma0)
        with pytest.raises(ValueError, match="gamma0"):
            spec(plant=scalar_plant, performance_kind="h2", gamma0=statefb.GAMMA0_LIMIT)
        spec(plant=scalar_plant, performance_kind="h2",
             gamma0=np.nextafter(statefb.GAMMA0_LIMIT, 0.0))


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


class TestLastLineOfDefence:
    """The refusals after the solve, each forced: a verified norm at the
    bound, a channel above its bound, a certificate too ill-conditioned to
    invert."""

    def test_closed_loop_norm_at_the_bound_is_refused(self, scalar_plant, monkeypatch):
        hinf_norm = analysis.hinf_norm
        monkeypatch.setattr(analysis, "hinf_norm", lambda cl: dataclasses.replace(
            hinf_norm(cl), value=2.0 * (1.0 + statefb.VERIFY_RTOL)))
        with pytest.raises(SynthesisNumericalError, match=re.escape(
                "verification failed: closed-loop Hinf norm 2.00002 exceeds the bound 2")):
            synth_sf(SfSynthesisSpec(plant=scalar_plant, performance_kind="hinf", gamma0=2.0))

    def test_channel_above_its_bound_is_refused(self, scalar_plant, monkeypatch):
        channel_h2_norms = analysis.channel_h2_norms
        monkeypatch.setattr(analysis, "channel_h2_norms", lambda p, cl: [
            dataclasses.replace(r, value=2.0 * r.value) for r in channel_h2_norms(p, cl)])
        with pytest.raises(SynthesisNumericalError,
                           match=r"verification failed: channel 0 H2 norm 2\.8\d* exceeds "
                                 r"its bound 1\.41"):
            synth_sf(SfSynthesisSpec(plant=scalar_plant, performance_kind="hinf", gamma0=2.0))

    @pytest.mark.parametrize("small, cond", [(1e-13, "1.000e+13"), (0.0, "inf")])
    def test_singular_certificate_is_refused(self, small, cond):
        X, W = lmi.MatVar("X", (2, 2), "symmetric"), lmi.MatVar("W", (1, 2))
        vm = SimpleNamespace(value=lambda x, v: {X: np.diag([1.0, small]),
                                                 W: np.ones((1, 2))}[v])
        sol = SimpleNamespace(x=None)
        with pytest.raises(SynthesisNumericalError, match=re.escape(
                f"certificate matrix is numerically singular at recovery "
                f"(condition number {cond} > 1e+12)")) as exc:
            statefb._recover_gain(vm, sol, X, W)
        assert exc.value.solution is sol


class TestActiveSet:
    def test_relative_threshold(self):
        assert active_set_from_values([1.0, 1e-5, 0.5]) == [0, 2]

    def test_absolute_floor(self):
        assert active_set_from_values([1e-10, 1e-12]) == []

    def test_empty(self):
        assert active_set_from_values([]) == []


class TestHatLoop:
    """Every design's blocks rest on this identity: each HatLoop field, at a
    controller's synthesis values, is its closed loop (Acl, Bcl, Ccl, Dcl)
    with the Lyapunov matrix and the control map Ctilde, seen through
    Pi = [[X, I], [M', 0]] and P Pi = [[I, Y], [0, N']] (Pi = X and
    P Pi = I for state feedback)."""

    @staticmethod
    def _assert_loop(loop, values, Pi, PPi, cl):
        expected = dict(A=PPi.T @ cl.Acl @ Pi, B=PPi.T @ cl.Bcl, C=cl.Ccl @ Pi, D=cl.Dcl,
                        X=PPi.T @ Pi, K=cl.Ctilde @ Pi)
        for name, want in expected.items():
            got = lmi.evaluate(getattr(loop, name), values)
            assert got.shape == want.shape, name
            assert np.linalg.norm(got - want) <= 1e-12 * max(1.0, np.linalg.norm(want)), name

    @pytest.mark.parametrize("dyw_rank", [0, 1])
    def test_output_feedback(self, dyw_rank):
        rng = np.random.default_rng(20 + dyw_rank)
        nx, nu, ny = 3, 2, 2
        plant = random_plant(rng, nx=nx, nu=nu, ny=ny)
        if dyw_rank:
            plant = dataclasses.replace(
                plant, Dyw=np.outer(rng.standard_normal(ny), rng.standard_normal(plant.nw)))
        loop, hat_exprs, variables = hat_loop(plant)
        Z = variables[-1]
        Zv = rng.standard_normal(Z.shape)
        DK = lmi.evaluate(hat_exprs[3], {Z: Zv})  # Z P', so DK Dyw = 0
        ctrl = DynamicController(AK=rng.standard_normal((nx, nx)), BK=rng.standard_normal((nx, ny)),
                                 CK=rng.standard_normal((nu, nx)), DK=DK)
        X, Y = coupled_lyapunov_pair(rng, nx)
        M, N = factor_lyapunov_partitions(X, Y)
        hat = hat_transform(ctrl, plant, X, Y, M, N)
        values = dict(zip(variables, (X, Y, hat.AKhat, hat.BKhat, hat.CKhat, Zv)))
        # hat_exprs come in HatController's field order, as its recovery reads them
        for expr, f in zip(hat_exprs, dataclasses.fields(HatController)):
            np.testing.assert_allclose(lmi.evaluate(expr, values), getattr(hat, f.name),
                                       rtol=1e-12, atol=1e-12)
        I, O = np.eye(nx), np.zeros((nx, nx))
        self._assert_loop(loop, values, np.block([[X, I], [M.T, O]]),
                          np.block([[I, Y], [O, N.T]]), close_output_feedback(plant, ctrl))

    @pytest.mark.parametrize("kind", ["hinf", "h2"])
    def test_akhat_free_blocks_are_the_projections(self, kind):
        # the two blocks that replace the one holding AKhat are that block,
        # at AKhat = 0, without state half 2 and without state half 1
        rng = np.random.default_rng(23)
        nx = 3
        plant = dataclasses.replace(random_plant(rng, nx=nx), Dyw=0.3 * rng.standard_normal((2, 2)))
        spec = SfSynthesisSpec(plant=plant, performance_kind=kind, gamma0=2.0)
        loop, _, variables = hat_loop(plant)
        free, free_exprs, free_variables = hat_loop(plant, akhat_free=True)
        assert free_exprs[0] is None
        assert [v.name for v in free_variables] == ["X", "Y", "BKhat", "CKhat", "DKhat_Z"]
        (whole, *rest), extra = loop.performance(spec)
        (first, second, *free_rest), free_extra = free.performance(spec)
        by_name = {v.name: rng.standard_normal(v.shape) for v in [*variables, *extra]}
        by_name["AKhat"] = np.zeros((nx, nx))
        values = {v: by_name[v.name] for v in [*variables, *extra]}
        free_values = {v: by_name[v.name] for v in [*free_variables, *free_extra]}
        M = lmi.evaluate(whole.expr, values)
        n = M.shape[0]
        for con, keep in ((first, np.r_[0:nx, 2 * nx:n]), (second, np.r_[nx:n])):
            assert con.sense == whole.sense and con.strict
            np.testing.assert_allclose(lmi.evaluate(con.expr, free_values), M[np.ix_(keep, keep)],
                                       rtol=1e-13, atol=1e-13)
        for a, b in zip(rest, free_rest, strict=True):
            np.testing.assert_allclose(lmi.evaluate(a.expr, values), lmi.evaluate(b.expr, free_values),
                                       rtol=1e-13, atol=1e-13)

    def test_state_feedback(self):
        rng = np.random.default_rng(22)
        plant = random_plant(rng, nx=3, nu=2, dw_zero=False)
        loop, (X, W) = sf_loop(plant)
        K = rng.standard_normal((2, 3))
        Xv, _ = coupled_lyapunov_pair(rng, 3)
        self._assert_loop(loop, {X: Xv, W: K @ Xv}, Xv, np.eye(3),
                          close_state_feedback(plant, K))


@pytest.fixture
def no_lmi(monkeypatch):
    """Fails the test if any LMI is compiled."""
    def compile_lmis(*args, **kwargs):
        raise AssertionError("an LMI was compiled")
    monkeypatch.setattr(lmi, "compile_lmis", compile_lmis)


# a sensor that sees x1 alone: no output-feedback loop acts on x2's response to w2
SENSOR_STARVED = dict(A=-np.eye(2), Bu=np.eye(2), Bw=np.eye(2), Cz=np.eye(2),
                      Du=0.1 * np.eye(2), Cy=[[1.0, 0.0]])
DESIGNS = {"sf": SfSynthesisSpec, "of": OfSynthesisSpec, "joint": JointSpec}


class TestLowerBoundRefusal:
    """Requests that a plant-only lower bound settles are refused before any
    LMI is built; the others go on to the SDP."""

    def test_tensegrity_workload_refusal(self, no_lmi):
        with pytest.raises(InfeasiblePerformance, match=re.escape(
                "every output-feedback controller has a closed-loop H2 norm of at least "
                "0.394004, the state-feedback Riccati optimum")):
            JointSpec(plant=TensegrityApprox().build(), performance_kind="h2",
                      gamma0=0.1).synthesize()

    def test_chain_workload_refusal(self, no_lmi):
        with pytest.raises(InfeasiblePerformance, match=re.escape(
                "closed-loop Hinf norm of at least 0.1, Parrott's bound at 0.517638 rad/s, "
                "above gamma0 0.05")):
            JointSpec(plant=MassSpringChain(5).build(), performance_kind="hinf",
                      gamma0=0.05).synthesize()

    @pytest.mark.parametrize("design", DESIGNS)
    def test_feedthrough_refusal(self, no_lmi, design):
        # the random workload's refused requests: gamma0 = sigma_max(Dw) / 2
        p = random_plant(np.random.default_rng(3), nx=3, dw_zero=False)
        gamma0 = 0.5 * float(np.linalg.svd(p.Dw, compute_uv=False)[0])
        with pytest.raises(InfeasiblePerformance, match="controller has a closed-loop Hinf norm"):
            DESIGNS[design](plant=p, performance_kind="hinf", gamma0=gamma0).synthesize()

    def test_sf_is_bounded_with_the_full_state(self):
        # the bound built on Cy would refuse 0.5; state feedback designs there
        p = GeneralizedPlant(**SENSOR_STARVED)
        res = synth_sf(SfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=0.5))
        assert res.verified_closed_loop.value < 0.5
        with pytest.raises(InfeasiblePerformance, match=re.escape(
                "every output-feedback controller has a closed-loop Hinf norm of at least 1, "
                "Parrott's bound at 0 rad/s, above gamma0 0.5")):
            OfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=0.5).synthesize()

    @pytest.mark.parametrize("design", ["of", "joint"])
    def test_sdp_refuses_between_bound_and_optimum(self, design, monkeypatch):
        """The Riccati bound is 0 (Du is square), but w2 reaches z2 through
        1/(s + 1) under every output-feedback controller, whose H2 norm is
        then at least sqrt(1/2): the SDP refuses 0.5."""
        p = GeneralizedPlant(**SENSOR_STARVED)
        assert analysis.norm_lower_bound(p, "h2").value < 0.5
        calls = counted_solves(monkeypatch)
        with pytest.raises(InfeasiblePerformance, match=re.escape(
                "no Lyapunov certificate exists for the requested bounds "
                "(dual improving ray found)")):
            DESIGNS[design](plant=p, performance_kind="h2", gamma0=0.5).synthesize()
        assert len(calls) == 1

    def test_sf_h2_near_the_optimum_is_not_refused_by_the_bound(self):
        # the bound is attained (tests/test_analysis.py), so 1.01 times it is not refused
        p = random_plant(np.random.default_rng(11), nx=4, nu=2, nw=2, nz=3, ny=2)
        bound = analysis.norm_lower_bound(p, "h2", state_feedback=True)
        statefb._admit(
            SfSynthesisSpec(plant=p, performance_kind="h2", gamma0=1.01 * bound.value),
            state_feedback=True)


@settings(derandomize=True, max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(2, 4), design=st.sampled_from(list(DESIGNS)),
       kind=st.sampled_from(["hinf", "h2"]), nz=st.integers(2, 3), ny=st.integers(1, 2),
       margin=st.sampled_from([0.02, 0.2, 1.0]))
def test_designs_respect_the_lower_bound(seed, nx, design, kind, nz, ny, margin):
    """Every design that sf, of or joint returns has a verified norm at least
    the lower bound of its class.  gamma0 runs from just above the bound to
    the open-loop norm, which the zero controller, one of every class, meets."""
    p = random_plant(np.random.default_rng(seed), nx=nx, nz=nz, ny=ny,
                     dw_zero=kind == "h2" or seed % 2 == 0)
    bound = analysis.norm_lower_bound(p, kind, state_feedback=design == "sf")
    low = 0.0 if bound is None else bound.value
    norm = analysis.h2_norm if kind == "h2" else analysis.hinf_norm
    open_loop = norm((p.A, p.Bw, p.Cz, p.Dw)).value
    assert low <= open_loop * (1 + analysis.HINF_TOL)
    gamma0 = low + margin * (open_loop - low) + 1e-3
    try:
        res = DESIGNS[design](plant=p, performance_kind=kind, gamma0=gamma0).synthesize()
    except SparsactError as exc:  # the SDP's refusal or a numerical failure, never the bound's
        assert "controller has a closed-loop" not in str(exc)
        return
    assert res.verified_closed_loop.value >= low * (1 - analysis.HINF_TOL)


class TestNearOptimumBreakdown:
    """Request 132 of the random-designs pool (generator seed 0), sf-hinf on
    a 4-state plant, at half its benchmark gamma0: its plant-only bound is
    about 2e-15, so the SDP decides it, and the first solve ends in an NT
    scaling breakdown; the problem without the Lyapunov block then designs,
    as item 13's closed form says it must (ROADMAP)."""

    def test_half_benchmark_gamma0_is_decided(self):
        p, mode = next(itertools.islice(pool_requests(0), 132, None))
        assert (mode, p.nx) == ("sf-hinf", 4)
        g0 = 0.5 * (1.3 * analysis.hinf_norm((p.A, p.Bw, p.Cz, p.Dw)).value + 0.1)
        assert g0 == pytest.approx(1.86704, abs=1e-5)
        res = synth_sf(SfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=g0))
        assert res.verified_closed_loop.value < g0


class TestRequest132ClosedForm:
    """Item 13's closed form (ROADMAP) on request 132 of the random-designs
    pool (generator seed 0, sf-hinf, nx = 4).  Du is square, so the optimum
    lives on the one unstable eigenvalue lambda of A - Bu Du^-1 Cz, with
    left eigenvector w: gamma* = |w'Bw| / sqrt(w' Bu (Du'Du)^-1 Bu' w).
    Above gamma* the gain K = -(Du'Du)^-1 (Bu' X + Du' Cz) with
    X = (2 lambda / w'Mw) w w', M = Bu (Du'Du)^-1 Bu' - Bw Bw' / gamma^2,
    is a witness."""

    @pytest.fixture(scope="class")
    def oracle(self):
        p, mode = next(itertools.islice(pool_requests(0), 132, None))
        assert (mode, p.nx) == ("sf-hinf", 4)
        lams, vecs = np.linalg.eig((p.A - p.Bu @ np.linalg.solve(p.Du, p.Cz)).T)
        (i,) = np.flatnonzero(lams.real > 0)
        lam, w = lams[i].real, vecs[:, i].real
        R = np.linalg.inv(p.Du.T @ p.Du)
        gstar = np.linalg.norm(w @ p.Bw) / np.sqrt(w @ p.Bu @ R @ p.Bu.T @ w)

        def witness(gamma):
            M = p.Bu @ R @ p.Bu.T - p.Bw @ p.Bw.T / gamma ** 2
            X = 2.0 * lam / (w @ M @ w) * np.outer(w, w)
            return -R @ (p.Bu.T @ X + p.Du.T @ p.Cz)
        return p, lam, gstar, witness

    def design(self, oracle, factor):
        p, _, gstar, _ = oracle
        return synth_sf(SfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=factor * gstar))

    def test_optimum(self, oracle):
        _, lam, gstar, _ = oracle
        assert lam == pytest.approx(0.5818, abs=1e-4)
        assert gstar == pytest.approx(1.716967, abs=1e-6)

    @pytest.mark.parametrize("factor, norm", [(1.02, 1.750965), (1.2, 2.026586)])
    def test_witness_gain(self, oracle, factor, norm):
        p, _, gstar, witness = oracle
        got = analysis.hinf_norm(close_state_feedback(p, witness(factor * gstar))).value
        assert got == pytest.approx(norm, abs=1e-6)
        assert got < factor * gstar

    def test_below_the_optimum_is_refused(self, oracle):
        with pytest.raises(SparsactError):
            self.design(oracle, 0.98)

    @pytest.mark.parametrize("factor", [
        pytest.param(1.02, marks=pytest.mark.xfail(
            strict=True, raises=InfeasiblePerformance,
            reason="pool seed 0, request 132: the SDP's dual ray speaks about the "
                   "backed-off compiled problem, not the plant (ROADMAP item 2)")),
        1.05])
    def test_above_the_optimum_is_not_refused(self, oracle, factor):
        # a typed numerical failure is allowed (1.05 ends in an NT breakdown), a refusal is not
        try:
            res = self.design(oracle, factor)
        except SynthesisNumericalError:
            return
        assert res.verified_closed_loop.value < factor * oracle[2]

    def test_well_above_the_optimum_designs(self, oracle):
        res = self.design(oracle, 1.2)
        assert res.verified_closed_loop.value == pytest.approx(1.98635, abs=1e-5)
