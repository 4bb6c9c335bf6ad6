"""Shared fixtures and oracles for the test suite."""

import os
import tracemalloc

# one BLAS thread, as CI and the benchmark run: the solver's iteration
# counts, which tests assert, depend on the thread count; an explicit
# setting still wins.  Set before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np
import pytest

from sparsact.model import GeneralizedPlant, validate_plant
from sparsact.outputfb import HatController

SCALAR = dict(A=[[1.0]], Bu=[[1.0]], Bw=[[1.0]], Cz=[[1.0]],
              Du=[[0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]])
# scalar dynamics with three actuators of gains 0.3, 1 and 0.2: a pruned
# design keeps actuator 1 alone, so its reduced index 0 differs from the
# original index
THREE_ACTUATORS = dict(A=[[1.0]], Bu=[[0.3, 1.0, 0.2]], Bw=[[1.0]], Cz=[[1.0]],
                       Du=[[0.0, 0.0, 0.0]], Dw=[[0.0]], Cy=[[1.0]], Dyw=[[0.0]])


@pytest.fixture
def scalar_plant():
    """A=Bu=Bw=Cz=Cy=1: optimal designs known in closed form."""
    return GeneralizedPlant(**SCALAR)


@pytest.fixture
def dup_actuator_plant():
    """Scalar dynamics with two identical actuators."""
    return GeneralizedPlant(A=[[1.0]], Bu=[[1.0, 1.0]], Bw=[[1.0]],
                            Cz=[[1.0]], Du=[[0.0, 0.0]], Dw=[[0.0]],
                            Cy=[[1.0]], Dyw=[[0.0]])


@pytest.fixture
def dup_sensor_plant():
    """Stable two-state plant measured twice by the same sensor."""
    return GeneralizedPlant(
        A=[[-1.0, 0.2], [0.0, -0.5]], Bu=[[1.0], [0.5]], Bw=[[1.0], [0.3]],
        Cz=[[1.0, 0.0], [0.0, 0.0]], Du=[[0.0], [0.1]], Dw=[[0.0], [0.0]],
        Cy=[[1.0, 0.0], [1.0, 0.0]], Dyw=[[0.0], [0.0]])


def random_plant(rng, nx=3, nu=2, nw=2, nz=2, ny=2, stable_margin=0.5,
                 dw_zero=True):
    """Random well-posed plant; A shifted to a guaranteed stability margin."""
    for _ in range(50):
        A = rng.standard_normal((nx, nx))
        if stable_margin is not None:
            shift = np.max(np.linalg.eigvals(A).real) + stable_margin
            A = A - shift * np.eye(nx)
        plant = GeneralizedPlant(
            A=A,
            Bu=rng.standard_normal((nx, nu)),
            Bw=rng.standard_normal((nx, nw)),
            Cz=rng.standard_normal((nz, nx)),
            Du=0.3 * rng.standard_normal((nz, nu)),
            Dw=np.zeros((nz, nw)) if dw_zero else 0.1 * rng.standard_normal((nz, nw)),
            Cy=rng.standard_normal((ny, nx)),
            Dyw=np.zeros((ny, nw)))
        if not validate_plant(plant):
            return plant
    raise RuntimeError("could not generate a well-posed random plant")


# The random-designs benchmark pool (perfbench/worker.py, RandomDesigns):
# 8 batches of 30 requests, every mode at every nx = 2..6, plants drawn in
# that order from one generator; an H-infinity mode's plant has Dw != 0
# when (nx + its index among the H-infinity modes) is divisible by 3.
POOL_MODES = ("sf-hinf", "sf-h2", "of-hinf", "of-h2", "joint-hinf", "joint-h2")


def pool_requests(seed):
    """(plant, mode) of each request of the pool drawn from generator `seed`,
    in draw order."""
    rng = np.random.default_rng(seed)
    hinf = [m for m in POOL_MODES if m.endswith("hinf")]
    for i in range(240):
        nx, mode = 2 + i % 30 // 6, POOL_MODES[i % 6]
        infeasible = mode in hinf and (nx + hinf.index(mode)) % 3 == 0
        yield random_plant(rng, nx=nx, dw_zero=not infeasible), mode


def allocation_peak(fn, *args):
    """The peak bytes that fn(*args) holds allocated beyond what is live at
    its call, as tracemalloc counts them.  numpy reports its arrays' data
    buffers to tracemalloc, so a large temporary array shows."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        live = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - live
    finally:
        if not tracing:
            tracemalloc.stop()


def coupled_lyapunov_pair(rng, nx):
    """Random (X, Y) with [[X, I], [I, Y]] positive definite."""
    L = rng.standard_normal((nx, nx))
    X = L @ L.T + nx * np.eye(nx)
    P = rng.standard_normal((nx, nx))
    Y = np.linalg.inv(X) + P @ P.T + 0.5 * np.eye(nx)
    return X, 0.5 * (Y + Y.T)


def hat_transform(ctrl, plant, X, Y, M, N):
    """Forward change of variables; the inverse of
    outputfb.reconstruct_controller, for testing its round trip."""
    A, Bu, Cy = plant.A, plant.Bu, plant.Cy
    X = np.atleast_2d(np.asarray(X, dtype=float))
    Y = np.atleast_2d(np.asarray(Y, dtype=float))
    M = np.atleast_2d(np.asarray(M, dtype=float))
    N = np.atleast_2d(np.asarray(N, dtype=float))
    AK, BK, CK, DK = ctrl.AK, ctrl.BK, ctrl.CK, ctrl.DK
    AKhat = (N @ AK @ M.T + N @ BK @ Cy @ X + Y @ Bu @ CK @ M.T
             + Y @ (A + Bu @ DK @ Cy) @ X)
    BKhat = N @ BK + Y @ Bu @ DK
    CKhat = CK @ M.T + DK @ Cy @ X
    DKhat = DK
    return HatController(AKhat=AKhat, BKhat=BKhat, CKhat=CKhat, DKhat=DKhat, X=X, Y=Y)
