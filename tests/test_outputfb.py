import dataclasses
import itertools

import numpy as np
import pytest

from sparsact import analysis
from sparsact.errors import (
    DimensionError,
    InfeasiblePerformance,
    NonzeroFeedthroughError,
    ReconstructionFailure,
)
from sparsact.model import DynamicController, GeneralizedPlant, close_output_feedback
from sparsact.outputfb import (
    HatController,
    factor_lyapunov_partitions,
    hat_loop,
    reconstruct_controller,
    synth_of,
)
from sparsact.statefb import SfSynthesisSpec

from conftest import coupled_lyapunov_pair, hat_transform, pool_requests, random_plant


class TestScalarOracle:
    def test_hinf_matches_state_feedback_bound(self, scalar_plant):
        # with y = x the dynamic controller can do no better than u = Kx
        res = synth_of(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        assert res.gamma[0] == pytest.approx(2.0, rel=1e-2)
        assert res.verified_closed_loop.value < 2.0 * (1 + 1e-5)

    def test_h2_verified(self, scalar_plant):
        res = synth_of(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="h2", gamma0=2.0))
        assert res.verified_closed_loop.value < 2.0 * (1 + 1e-5)
        cl = close_output_feedback(scalar_plant, res.controller)
        assert analysis.is_hurwitz(cl.Acl)

    def test_dispatch(self, scalar_plant):
        res = synth_of(SfSynthesisSpec(plant=scalar_plant,
                                       performance_kind="h2", gamma0=2.0))
        assert res.verified_closed_loop.kind == "H2"

    def test_controller_full_order(self, scalar_plant):
        res = synth_of(SfSynthesisSpec(
            plant=scalar_plant, performance_kind="hinf", gamma0=2.0))
        assert res.controller.nk == scalar_plant.nx


class TestChangeOfVariablesRoundTrip:
    def test_round_trip_small_gap(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            nx, nu, ny = 3, 2, 2
            plant = random_plant(rng, nx=nx, nu=nu, ny=ny)
            X, Y = coupled_lyapunov_pair(rng, nx)
            M, N = factor_lyapunov_partitions(X, Y)
            ctrl = DynamicController(
                AK=rng.standard_normal((nx, nx)),
                BK=rng.standard_normal((nx, ny)),
                CK=rng.standard_normal((nu, nx)),
                DK=rng.standard_normal((nu, ny)))
            hat = hat_transform(ctrl, plant, X, Y, M, N)
            back = reconstruct_controller(hat, plant)
            gap, _ = analysis.freq_response_gap(
                (ctrl.AK, ctrl.BK, ctrl.CK, ctrl.DK),
                (back.AK, back.BK, back.CK, back.DK))
            assert gap <= 1e-8

    def test_factorization_property(self):
        rng = np.random.default_rng(1)
        X, Y = coupled_lyapunov_pair(rng, 4)
        M, N = factor_lyapunov_partitions(X, Y)
        assert M @ N.T == pytest.approx(np.eye(4) - X @ Y)

    def test_singular_coupling_rejected(self):
        X = np.eye(2)
        Y = np.eye(2)  # I - XY = 0, no invertible factorization
        with pytest.raises(ReconstructionFailure):
            factor_lyapunov_partitions(X, Y)


class TestAkhatRecovery:
    """of-h2 leaves AKhat out of its problem and recovers it from the
    Lyapunov block at the solution."""

    def test_h2_closed_form(self):
        rng = np.random.default_rng(7)
        p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
        p = dataclasses.replace(p, Dyw=np.outer(rng.standard_normal(2), rng.standard_normal(2)))
        g0 = 1.3 * analysis.h2_norm((p.A, p.Bw, p.Cz, p.Dw)).value + 0.1
        res = synth_of(SfSynthesisSpec(plant=p, performance_kind="h2", gamma0=g0))
        h = res.hat
        want = (-(p.A + p.Bu @ h.DKhat @ p.Cy).T
                - (h.Y @ p.Bw + h.BKhat @ p.Dyw) @ (p.Bw + p.Bu @ h.DKhat @ p.Dyw).T)
        np.testing.assert_allclose(h.AKhat, want, rtol=1e-10, atol=1e-10)
        assert res.verified_closed_loop.value < g0

    def test_block_not_negative_definite_is_refused(self):
        # X = -I: the block without state half 2 holds sym(A X) = -(A + A'),
        # positive definite for this plant, so no AKhat makes the block < 0
        p = GeneralizedPlant(A=[[-1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]])
        loop, _, variables = hat_loop(p, akhat_free=True)
        values = {v: (-1.0 if v.name == "X" else 1.0) * np.ones(v.shape) for v in variables}
        spec = SfSynthesisSpec(plant=p, performance_kind="h2", gamma0=2.0)
        with pytest.raises(ReconstructionFailure, match="not negative definite"):
            loop.akhat(spec, values)


class TestPreconditions:
    def test_feedthrough_dyu_rejected(self):
        p = GeneralizedPlant(A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyu=[[1.0]],
                             Dyw=[[0.0]])
        with pytest.raises(NonzeroFeedthroughError):
            synth_of(SfSynthesisSpec(plant=p, performance_kind="hinf",
                                     gamma0=2.0))

    def test_undetectable_is_infeasible(self):
        p = GeneralizedPlant(A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
                             Du=[[0.0]], Dw=[[0.0]], Cy=[[0.0]], Dyw=[[0.0]])
        with pytest.raises(InfeasiblePerformance):
            synth_of(SfSynthesisSpec(plant=p, performance_kind="hinf",
                                     gamma0=2.0))

    def test_hat_controller_shape_checks(self):
        with pytest.raises(DimensionError):
            HatController(AKhat=np.zeros((2, 2)), BKhat=np.zeros((3, 1)),
                          CKhat=np.zeros((1, 2)), DKhat=np.zeros((1, 1)),
                          X=np.eye(2), Y=np.eye(2))


class TestMeasuredStateEquivalence:
    def test_random_plants_meet_bound(self):
        rng = np.random.default_rng(5)
        for _ in range(3):
            p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2)
            base = analysis.hinf_norm((p.A, p.Bw, p.Cz, p.Dw))
            g0 = 1.3 * base.value + 0.1
            res = synth_of(SfSynthesisSpec(
                plant=p, performance_kind="hinf", gamma0=g0))
            assert res.verified_closed_loop.value < g0 * (1 + 1e-5)
            for i, rep in enumerate(res.verified_channels):
                assert rep.value <= np.sqrt(res.gamma[i]) * (1 + 1e-5) + 1e-12


def pool_plant(seed, index):
    """The plant and mode of request `index` of the pool drawn from generator `seed`."""
    return next(itertools.islice(pool_requests(seed), index, None))


class TestBenchmarkPoolDefects:
    """Two of-hinf requests that pools drawn from other seeds than the
    benchmark's meet; each asks for 1.3 times the open-loop norm plus 0.1,
    which the zero controller already meets.  Seed 703's first solve finds
    an improving ray at g0 > 1 and seed 110's breaks down: in both the
    problem without the Lyapunov block designs."""

    @pytest.mark.parametrize("seed, index, nx", [(703, 26, 6), (110, 68, 3)])
    def test_pool_request_designs(self, seed, index, nx):
        p, mode = pool_plant(seed, index)
        assert (mode, p.A.shape[0]) == ("of-hinf", nx)
        g0 = 1.3 * analysis.hinf_norm((p.A, p.Bw, p.Cz, p.Dw)).value + 0.1
        res = synth_of(SfSynthesisSpec(plant=p, performance_kind="hinf", gamma0=g0))
        assert res.verified_closed_loop.value < g0
