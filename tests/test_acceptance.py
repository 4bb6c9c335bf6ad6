"""End-to-end acceptance suite.

Each test exercises one externally checkable promise of the toolkit, from
the scalar analytic optimum through the tensegrity benchmark study, with
independent verification of every claimed closed-loop norm and explicit
wall-clock budgets on the expensive studies.
"""

import time

import numpy as np
import pytest

from sparsact import analysis, bench
from sparsact.joint import JointSpec, synth_joint, verify_sparsity_preservation
from sparsact.model import DynamicController
from sparsact.outputfb import (
    HatController,
    factor_lyapunov_partitions,
    reconstruct_controller,
    synth_of,
)
from sparsact.sdp import LmiBlock, SdpProblem, check_certificate, solve_sdp
from sparsact.sparsify import ReweightPolicy, prune_and_resolve, reweight_iterate
from sparsact.statefb import SfSynthesisSpec, synth_sf

from conftest import coupled_lyapunov_pair, hat_transform, random_plant

VERIFY_SLACK = 1.0 + 1e-5


def test_scalar_state_feedback_analytic_optimum(scalar_plant):
    """The one-state design lands on the calculus optimum in under a second."""
    t0 = time.monotonic()
    res = synth_sf(SfSynthesisSpec(plant=scalar_plant, performance_kind="hinf",
                                   gamma0=2.0))
    elapsed = time.monotonic() - t0
    assert res.K.K[0, 0] == pytest.approx(-2.0, rel=1e-2)
    assert res.gamma[0] == pytest.approx(2.0, rel=1e-2)
    assert elapsed < 1.0, f"scalar design took {elapsed:.2f}s"


def test_random_plants_all_modes_verify(scalar_plant):
    """50+ random stabilizable/detectable plants across all six modes.

    Every design the solver reports as optimal must pass the independent
    norm recomputation, both the closed-loop bound and (where per-actuator
    bounds exist) each channel bound.  Budget: five minutes.
    """
    rng = np.random.default_rng(2024)
    modes = ["sf-hinf", "sf-h2", "of-hinf", "of-h2", "joint-hinf", "joint-h2"]
    t0 = time.monotonic()
    n_done, n_verified = 0, 0
    for i in range(54):
        nx = [2, 3, 4, 5, 6][i % 5]
        plant = random_plant(rng, nx=nx, nu=2, nw=2, nz=2, ny=2)
        mode = modes[i % 6]
        kind = mode.split("-")[1]
        base = (analysis.hinf_norm((plant.A, plant.Bw, plant.Cz, plant.Dw))
                if kind == "hinf"
                else analysis.h2_norm((plant.A, plant.Bw, plant.Cz, None))).value
        gamma0 = 1.3 * base + 0.1
        if mode.startswith("joint"):
            res = synth_joint(JointSpec(plant=plant, performance_kind=kind,
                                        gamma0=gamma0))
        elif mode.startswith("of"):
            res = synth_of(SfSynthesisSpec(plant=plant, performance_kind=kind,
                                           gamma0=gamma0))
        else:
            res = synth_sf(SfSynthesisSpec(plant=plant, performance_kind=kind,
                                           gamma0=gamma0))
        n_done += 1
        assert res.verified_closed_loop.value < gamma0 * VERIFY_SLACK, \
            f"{mode} on nx={nx}: verified norm exceeds the bound"
        if hasattr(res, "verified_channels"):
            for gi, rep in zip(res.gamma, res.verified_channels):
                assert rep.value <= np.sqrt(max(gi, 0.0)) * VERIFY_SLACK + 1e-12, \
                    f"{mode} on nx={nx}: channel bound violated"
        n_verified += 1
    elapsed = time.monotonic() - t0
    assert n_done >= 50 and n_verified == n_done
    assert elapsed < 300.0, f"random-plant study took {elapsed:.1f}s"


def test_controller_transform_round_trip():
    """100 random coupled Lyapunov pairs and controllers: the forward
    change of variables followed by reconstruction reproduces the
    controller frequency response to 1e-8."""
    rng = np.random.default_rng(7)
    for trial in range(100):
        nx = 2 + trial % 4
        nu, ny = 2, 2
        plant = random_plant(rng, nx=nx, nu=nu, ny=ny)
        X, Y = coupled_lyapunov_pair(rng, nx)
        M, N = factor_lyapunov_partitions(X, Y)
        ctrl = DynamicController(
            AK=rng.standard_normal((nx, nx)),
            BK=rng.standard_normal((nx, ny)),
            CK=rng.standard_normal((nu, nx)),
            DK=rng.standard_normal((nu, ny)))
        back = reconstruct_controller(hat_transform(ctrl, plant, X, Y, M, N),
                                      plant)
        gap, skipped = analysis.freq_response_gap(
            (ctrl.AK, ctrl.BK, ctrl.CK, ctrl.DK),
            (back.AK, back.BK, back.CK, back.DK))
        assert gap <= 1e-8, f"trial {trial}: round-trip gap {gap:.3e}"


def test_zero_groups_survive_reconstruction():
    """100 random transformed controllers with a forced zero actuator row
    and sensor column: reconstruction keeps those groups at relative norm
    1e-9 or below."""
    rng = np.random.default_rng(13)
    for trial in range(100):
        nx = 2 + trial % 4
        nu, ny = 3, 3
        plant = random_plant(rng, nx=nx, nu=nu, ny=ny)
        X, Y = coupled_lyapunov_pair(rng, nx)
        BKh = rng.standard_normal((nx, ny))
        CKh = rng.standard_normal((nu, nx))
        DKh = rng.standard_normal((nu, ny))
        i, j = trial % nu, trial % ny
        CKh[i, :] = 0.0
        DKh[i, :] = 0.0
        BKh[:, j] = 0.0
        DKh[:, j] = 0.0
        hat = HatController(AKhat=rng.standard_normal((nx, nx)),
                            BKhat=BKh, CKhat=CKh, DKhat=DKh, X=X, Y=Y)
        violations = verify_sparsity_preservation(hat, plant)
        assert violations == [], f"trial {trial}: {violations}"


def test_reweighting_deactivates_duplicates(dup_actuator_plant,
                                            dup_sensor_plant):
    """Duplicated hardware collapses to a single active channel.

    Actuator case: static state feedback with two identical input columns.
    Sensor case: joint design with two identical measurement rows.  In both
    the pruned re-solve must still verify against the original bound.
    """
    spec = SfSynthesisSpec(plant=dup_actuator_plant, performance_kind="hinf",
                           gamma0=2.0)
    trace = reweight_iterate(spec)
    vals = np.asarray(trace.values[-1]["actuators"])
    assert vals.min() <= 1e-6 * vals.max(), "duplicate actuator still active"
    pruned = prune_and_resolve(trace, spec)
    assert len(pruned.kept_actuators) == 1
    assert pruned.result.verified_closed_loop.value < 2.0 * VERIFY_SLACK

    jspec = JointSpec(plant=dup_sensor_plant, performance_kind="h2",
                      gamma0=0.5)
    jtrace = reweight_iterate(jspec)
    cols = np.asarray(jtrace.values[-1]["sensors"])
    assert cols.min() <= 1e-6 * max(cols.max(), 1e-30), \
        "duplicate sensor still active"
    jpruned = prune_and_resolve(jtrace, jspec)
    assert len(jpruned.kept_sensors) == 1
    assert jpruned.result.verified_closed_loop.value < 0.5 * VERIFY_SLACK


def test_per_channel_caps_bind_and_recruit_hardware(dup_actuator_plant):
    """gamma_max caps are honored exactly, cost extra, and, on the spring
    chain, force more actuators into the active set than the uncapped
    reweighted design uses."""
    free = synth_sf(SfSynthesisSpec(plant=dup_actuator_plant,
                                    performance_kind="hinf", gamma0=2.0))
    capped = synth_sf(SfSynthesisSpec(plant=dup_actuator_plant,
                                      performance_kind="hinf", gamma0=2.0,
                                      gamma_max=[0.3, 10.0]))
    assert capped.gamma[0] <= 0.3 + 1e-9
    assert capped.objective >= free.objective - 1e-6

    chain = bench.MassSpringChain(3).build()
    loose = SfSynthesisSpec(plant=chain, performance_kind="hinf", gamma0=65.0)
    kept_free = prune_and_resolve(reweight_iterate(loose), loose).kept_actuators
    tight = SfSynthesisSpec(plant=chain, performance_kind="hinf", gamma0=65.0,
                            gamma_max=[0.08, 0.08, 0.08])
    kept_capped = prune_and_resolve(reweight_iterate(tight), tight).kept_actuators
    assert len(kept_capped) > len(kept_free), \
        f"caps did not recruit hardware: {kept_free} vs {kept_capped}"


def test_tensegrity_joint_study():
    """Joint sparse design on the tensegrity benchmark.

    At the two bounds below the open-loop norm the design must drop
    actuators and sensors, the pruned re-solves must verify, and loosening
    the bound must not increase the active actuator count.  Budget: ten minutes.
    """
    t0 = time.monotonic()
    plant = bench.TensegrityApprox().build()
    policy = ReweightPolicy(max_outer=4)

    def spec_for(g0):
        return JointSpec(plant=plant, performance_kind="h2", gamma0=g0)

    # 0.42 and 0.44 lie below the open-loop H2 norm 0.4451, so both need
    # control and are real designs; at 0.46 and 0.60 nothing is active
    rows = bench.gamma_sweep(spec_for, [0.42, 0.44, 0.46, 0.60], policy=policy)
    assert [r["status"] for r in rows] == ["ok", "ok", "ok", "ok"]
    tight = rows[0]
    for row in rows[:2]:
        g0 = row["gamma0"]
        assert len(row["kept_actuators"]) < plant.nu, f"no actuator was dropped at {g0}"
        assert len(row["kept_sensors"]) < plant.ny, f"no sensor was dropped at {g0}"
    for row in rows:
        assert row["verified_norm"] < row["gamma0"] * VERIFY_SLACK
    # judge monotonicity on the active sets: pruning keeps all hardware as a
    # fallback when nothing is active, which would mask the trend
    counts = [len(r["active"]["actuators"]) for r in rows]
    assert counts == sorted(counts, reverse=True), \
        f"active actuators increased as the bound loosened: {counts}"
    elapsed = time.monotonic() - t0
    # reference hardware selection reported for this benchmark elsewhere,
    # logged for side-by-side comparison but deliberately not asserted:
    # cables {3, 4, 6, 7} and sensors {4, 6, 10, 12} (1-based)
    print(f"tensegrity study: kept actuators {tight['kept_actuators']}, "
          f"kept sensors {tight['kept_sensors']} (0-based) in {elapsed:.1f}s; "
          "reference selection: cables {3, 4, 6, 7}, sensors {4, 6, 10, 12} "
          "(1-based)")
    assert elapsed < 600.0, f"tensegrity study took {elapsed:.1f}s"


def test_sdp_solver_and_certificates():
    """The cone solver hits a known optimum, maintains weak duality on
    every recorded iterate, and the certificate checker flags tampering."""
    block = LmiBlock(F0=[[0.0, 1.0], [1.0, 0.0]], var_idx=[0],
                     coefs=[np.eye(2)])
    prob = SdpProblem(num_vars=1, c=[1.0], blocks=[block])
    sol = solve_sdp(prob)
    assert sol.status == "optimal"
    assert sol.x[0] == pytest.approx(1.0, abs=1e-6)
    assert sol.iterates
    for it in sol.iterates:
        slack = it.rtau_over_tau + 1e-7 * (1.0 + abs(it.pobj) + abs(it.dobj))
        assert it.pobj >= it.dobj - slack, \
            f"weak duality violated at iteration {it.iteration}"
    assert check_certificate(prob, sol).clean
    sol.x[0] -= 0.5
    assert not check_certificate(prob, sol).clean


def test_norm_computations_match_independent_oracles():
    """H2 of 1/(s+1) to 1e-9 against the closed form; the lightly damped
    resonance peak against a dense frequency grid to 1e-4 relative."""
    rep = analysis.h2_norm(([[-1.0]], [[1.0]], [[1.0]], None))
    assert rep.value == pytest.approx(np.sqrt(0.5), abs=1e-9)

    zeta = 0.05
    A = [[0.0, 1.0], [-1.0, -2.0 * zeta]]
    B = [[0.0], [1.0]]
    C = [[1.0, 0.0]]
    D = [[0.0]]
    n = 2

    def gain(w):
        G = np.asarray(C) @ np.linalg.solve(
            1j * w * np.eye(n) - np.asarray(A), np.asarray(B))
        return np.linalg.norm(G, 2)

    grid = np.logspace(-2, 2, 4001)
    vals = [gain(w) for w in grid]
    k = int(np.argmax(vals))
    fine = np.linspace(grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)], 2001)
    oracle = max(gain(w) for w in fine)
    rep = analysis.hinf_norm((A, B, C, D))
    assert rep.value == pytest.approx(oracle, rel=1e-4)
