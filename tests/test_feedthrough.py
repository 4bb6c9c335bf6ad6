"""Output-feedback and joint designs on plants whose measurements see the
disturbance directly (Dyw != 0).

DKhat Dyw = 0 holds by construction there, so a design's DK Dyw is zero up
to the rounding of the product: below ny eps ||DK||_F ||Dyw||_F, ny being
the product's inner dimension (README.md, "Zero feedthrough").
"""

import dataclasses

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsact import analysis
from sparsact.errors import NonzeroFeedthroughError, SparsactError
from sparsact.joint import JointSpec, synth_joint
from sparsact.model import DynamicController, close_output_feedback
from sparsact.outputfb import synth_of
from sparsact.statefb import SfSynthesisSpec

from conftest import random_plant

EPS = np.finfo(float).eps
MODES = ["of-hinf", "of-h2", "joint-hinf", "joint-h2"]


def rounding_bound(*factors):
    """c eps prod ||F||_F, c the sum of the product's inner dimensions."""
    c = sum(F.shape[1] for F in factors[:-1])
    return c * EPS * np.prod([np.linalg.norm(F) for F in factors])


def design_or_refusal(plant, mode):
    """Design at 1.3 times the open-loop norm plus 0.1, then check it on a
    closed loop assembled here; None for a refusal with a typed error."""
    family, kind = mode.split("-")
    norm = analysis.h2_norm if kind == "h2" else analysis.hinf_norm
    gamma0 = 1.3 * norm((plant.A, plant.Bw, plant.Cz, plant.Dw)).value + 0.1
    try:
        if family == "of":
            res = synth_of(SfSynthesisSpec(plant=plant, performance_kind=kind, gamma0=gamma0))
        else:
            res = synth_joint(JointSpec(plant=plant, performance_kind=kind, gamma0=gamma0))
    except NonzeroFeedthroughError:
        raise  # the parametrization makes DK Dyw zero; a refusal for it is a defect
    except SparsactError:
        return None
    p, k = plant, res.controller
    assert np.array_equal(k.DK, res.hat.DKhat)
    assert np.linalg.norm(k.DK @ p.Dyw) <= rounding_bound(k.DK, p.Dyw)
    A = np.block([[p.A + p.Bu @ k.DK @ p.Cy, p.Bu @ k.CK], [k.BK @ p.Cy, k.AK]])
    B = np.vstack([p.Bw + p.Bu @ k.DK @ p.Dyw, k.BK @ p.Dyw])
    C = np.hstack([p.Cz + p.Du @ k.DK @ p.Cy, p.Du @ k.CK])
    D = p.Dw + p.Du @ k.DK @ p.Dyw
    assert np.max(np.linalg.eigvals(A).real) < 0
    if kind == "h2":  # Dw = 0: D is Du DK Dyw, zero up to rounding
        assert np.linalg.norm(D) <= rounding_bound(p.Du, k.DK, p.Dyw)
        value = analysis.h2_norm((A, B, C, None)).value
    else:
        value = analysis.hinf_norm((A, B, C, D)).value
    assert value < gamma0
    return res


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("ny", [2, 3])
@pytest.mark.parametrize("seed", range(5))
def test_random_plants_with_measurement_feedthrough(seed, ny, mode):
    """ny = 2: Dyw has full row rank and DKhat is zero; ny = 3: DKhat lives
    in the one-dimensional null space of Dyw'."""
    rng = np.random.default_rng(seed)
    plant = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=ny)
    plant = dataclasses.replace(plant, Dyw=0.3 * rng.standard_normal((ny, 2)))
    res = design_or_refusal(plant, mode)
    if res is not None and ny == 2:
        assert not res.hat.DKhat.any()


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), ny=st.integers(1, 3), mode=st.sampled_from(MODES),
       rank=st.integers(0, 3))
def test_feedthrough_of_random_rank(seed, ny, mode, rank):
    rng = np.random.default_rng(seed)
    plant = random_plant(rng, nx=2, nu=2, nw=3, nz=2, ny=ny)
    rank = min(rank, ny)
    Dyw = rng.standard_normal((ny, rank)) @ rng.standard_normal((rank, 3))
    design_or_refusal(dataclasses.replace(plant, Dyw=Dyw), mode)


def _controller(rng, plant):
    return DynamicController(AK=-np.eye(2), BK=rng.standard_normal((2, plant.ny)),
                             CK=rng.standard_normal((plant.nu, 2)),
                             DK=rng.standard_normal((plant.nu, plant.ny)))


def test_genuine_feedthrough_is_kept():
    """A DK Dyw far above its rounding error reaches Dtilde and Dcl, and the
    channel check refuses it."""
    rng = np.random.default_rng(0)
    plant = random_plant(rng, nx=2, nu=2, nw=2, nz=2, ny=2)
    plant = dataclasses.replace(plant, Dyw=0.5 * np.ones((2, 2)))
    ctrl = _controller(rng, plant)
    cl = close_output_feedback(plant, ctrl)
    assert np.array_equal(cl.Dtilde, ctrl.DK @ plant.Dyw) and cl.Dtilde.any()
    assert cl.Dcl.any()
    with pytest.raises(NonzeroFeedthroughError, match="channel"):
        analysis.channel_h2_norms(plant, ctrl)


def test_rounding_feedthrough_is_zero():
    """DK with rows in null(Dyw'): DK Dyw is rounding only and becomes exact zeros."""
    rng = np.random.default_rng(1)
    plant = random_plant(rng, nx=2, nu=2, nw=2, nz=2, ny=3)
    plant = dataclasses.replace(plant, Dyw=rng.standard_normal((3, 2)))
    ctrl = _controller(rng, plant)
    P = scipy.linalg.null_space(plant.Dyw.T)
    ctrl = dataclasses.replace(ctrl, DK=rng.standard_normal((2, 1)) @ P.T)
    assert 0 < np.linalg.norm(ctrl.DK @ plant.Dyw) <= rounding_bound(ctrl.DK, plant.Dyw)
    cl = close_output_feedback(plant, ctrl)
    assert not cl.Dtilde.any() and np.array_equal(cl.Dcl, plant.Dw)
    assert np.array_equal(cl.Bcl[:2], plant.Bw)
    assert len(analysis.channel_h2_norms(plant, ctrl)) == plant.nu


def test_zero_dyw_closed_loop_unchanged():
    rng = np.random.default_rng(2)
    p = random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2, dw_zero=False)
    k = _controller(rng, p)
    cl = close_output_feedback(p, k)
    assert np.array_equal(cl.Bcl, np.vstack([p.Bw + p.Bu @ k.DK @ p.Dyw, k.BK @ p.Dyw]))
    assert np.array_equal(cl.Dcl, p.Dw + p.Du @ k.DK @ p.Dyw)
    assert np.array_equal(cl.Dtilde, k.DK @ p.Dyw)
