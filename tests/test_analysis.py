import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sparsact import analysis
from sparsact.bench import MassSpringChain, TensegrityApprox
from sparsact.errors import NonHurwitzError, NonzeroFeedthroughError
from sparsact.model import (DynamicController, GeneralizedPlant, StateFeedbackGain, close_loop,
                            close_state_feedback)

from conftest import SCALAR, pool_requests, random_plant


def _gain(A, B, C, D, w):
    """sigma_max(G(jw)) at each w of an array, in complex arithmetic."""
    n = A.shape[0]
    G = C @ np.linalg.solve(1j * np.asarray(w)[:, None, None] * np.eye(n) - A, B) + D
    return np.linalg.svd(G, compute_uv=False)[:, 0]


def grid_hinf_oracle(A, B, C, D, lo=1e-4, hi=1e4, num=200001):
    """Frequency-grid maximum singular value, refined near the peak."""
    A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C, D))
    grid = np.logspace(np.log10(lo), np.log10(hi), 2001)
    vals = _gain(A, B, C, D, grid)
    k = int(np.argmax(vals))
    wlo, whi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    fine = np.linspace(wlo, whi, num // 100)
    return float(np.max(_gain(A, B, C, D, fine)))


def hamiltonian_has_gain(A, B, C, D, gamma) -> bool:
    """True iff the transfer function reaches gain >= gamma on the jw-axis.

    Standard Hamiltonian test: for gamma > sigma_max(D) the frequency
    response attains gamma iff the associated Hamiltonian matrix has an
    imaginary-axis eigenvalue.
    """
    if A.shape[0] == 0:
        return float(np.linalg.norm(D, 2)) >= gamma if D.size else False
    freqs = analysis._imaginary_frequencies(A, B, C, D, gamma)
    return freqs is None or freqs.size > 0


def bisection_hinf_oracle(A, B, C, D):
    """The H-infinity norm as the former analysis.hinf_norm computed it:
    bisection on the Hamiltonian test from a Hankel-style Gramian bracket,
    to relative width HINF_TOL."""
    A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C, D))
    Wc = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    Wo = scipy.linalg.solve_continuous_lyapunov(A.T, -C.T @ C)
    hankel = np.sqrt(np.maximum(0.0, np.real(np.linalg.eigvals(Wc @ Wo))))
    lower = float(np.linalg.norm(D, 2))
    upper = lower + 2.0 * float(np.sum(hankel)) + 1e-12
    while hamiltonian_has_gain(A, B, C, D, upper):
        lower, upper = upper, 2.0 * upper
    while upper - lower > analysis.HINF_TOL * upper:
        mid = 0.5 * (upper + lower)
        if hamiltonian_has_gain(A, B, C, D, mid):
            lower = mid
        else:
            upper = mid
    return 0.5 * (upper + lower)


def checked_hinf(sys, rel=2 * analysis.HINF_TOL):
    """hinf_norm of (A, B, C, D), checked against both oracles: converged in
    at most 12 Hamiltonian tests, within `rel` of the bisection, not below
    the grid maximum, and bracketed by the gain at its peak frequency."""
    A, B, C, D = (np.atleast_2d(np.asarray(M, dtype=float)) for M in sys)
    rep = analysis.hinf_norm((A, B, C, D))
    assert rep.converged and rep.kind == "Hinf" and rep.method == "hamiltonian-level-set"
    assert 1 <= rep.iterations <= 12
    assert rep.value == pytest.approx(bisection_hinf_oracle(A, B, C, D), rel=rel)
    assert rep.value >= grid_hinf_oracle(A, B, C, D) * (1 - analysis.HINF_TOL)
    if rep.peak_frequency == np.inf:
        attained = float(np.linalg.norm(D, 2))
    else:
        attained = float(_gain(A, B, C, D, [rep.peak_frequency])[0])
    assert attained <= rep.value <= attained * (1 + rel)
    return rep


def quadrature_h2_oracle(A, B, C):
    """H2 norm via direct quadrature of the frequency response energy."""
    A, B, C = (np.atleast_2d(np.asarray(M, dtype=float)) for M in (A, B, C))
    n = A.shape[0]

    def dens(w):
        G = C @ np.linalg.solve(1j * w * np.eye(n) - A, B)
        return np.linalg.norm(G, "fro") ** 2

    val, _ = scipy.integrate.quad(dens, 0.0, np.inf, limit=400)
    return np.sqrt(val / np.pi)


class TestH2Norm:
    def test_first_order_closed_form(self):
        # 1/(s+1): H2 = sqrt(1/2)
        rep = analysis.h2_norm(([[-1.0]], [[1.0]], [[1.0]], None))
        assert rep.value == pytest.approx(np.sqrt(0.5), abs=1e-9)
        assert rep.kind == "H2" and rep.converged

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(3):
            n = 3
            A = rng.standard_normal((n, n))
            A = A - (np.max(np.linalg.eigvals(A).real) + 0.5) * np.eye(n)
            B = rng.standard_normal((n, 2))
            C = rng.standard_normal((2, n))
            rep = analysis.h2_norm((A, B, C, None))
            assert rep.value == pytest.approx(quadrature_h2_oracle(A, B, C), rel=1e-6)

    def test_unstable_raises(self):
        with pytest.raises(NonHurwitzError):
            analysis.h2_norm(([[1.0]], [[1.0]], [[1.0]], None))

    def test_feedthrough_raises(self):
        with pytest.raises(NonzeroFeedthroughError):
            analysis.h2_norm(([[-1.0]], [[1.0]], [[1.0]], [[1.0]]))


class TestHinfNorm:
    def test_first_order_closed_form(self):
        rep = checked_hinf(([[-1.0]], [[1.0]], [[1.0]], [[0.0]]))
        assert rep.value == pytest.approx(1.0, rel=1e-5)
        assert rep.peak_frequency == 0.0

    def test_lightly_damped_resonance(self):
        # 1/(s^2 + 2*zeta*s + 1), zeta = 0.05: peak 1/(2*zeta*sqrt(1-zeta^2))
        # at sqrt(1 - 2 zeta^2)
        zeta = 0.05
        A = [[0.0, 1.0], [-1.0, -2.0 * zeta]]
        B = [[0.0], [1.0]]
        C = [[1.0, 0.0]]
        D = [[0.0]]
        peak = 1.0 / (2.0 * zeta * np.sqrt(1.0 - zeta ** 2))
        rep = checked_hinf((A, B, C, D))
        assert rep.value == pytest.approx(peak, rel=1e-5)
        assert rep.value == pytest.approx(grid_hinf_oracle(A, B, C, D), rel=1e-4)
        assert rep.peak_frequency == pytest.approx(np.sqrt(1.0 - 2.0 * zeta ** 2), abs=1e-3)

    def test_feedthrough_floor(self):
        rep = checked_hinf(([[-10.0]], [[0.1]], [[0.1]], [[2.0]]))
        assert rep.value >= 2.0

    def test_random_matches_grid_oracle(self):
        rng = np.random.default_rng(9)
        n = 4
        A = rng.standard_normal((n, n))
        A = A - (np.max(np.linalg.eigvals(A).real) + 0.3) * np.eye(n)
        B = rng.standard_normal((n, 2))
        C = rng.standard_normal((2, n))
        D = 0.2 * rng.standard_normal((2, 2))
        rep = checked_hinf((A, B, C, D))
        assert rep.value == pytest.approx(grid_hinf_oracle(A, B, C, D), rel=1e-4)

    def test_real_poles_only(self):
        # s / ((s + 1)(s + 10)) = -(1/9)/(s + 1) + (10/9)/(s + 10): a band
        # pass with peak 1/11 at sqrt(10), above its gains at 0 and at the
        # slowest pole
        rep = checked_hinf(([[-1.0, 0.0], [0.0, -10.0]], [[1.0], [1.0]],
                            [[-1.0 / 9.0, 10.0 / 9.0]], [[0.0]]))
        assert rep.iterations >= 2
        assert rep.value == pytest.approx(1.0 / 11.0, rel=2 * analysis.HINF_TOL)
        assert rep.peak_frequency == pytest.approx(np.sqrt(10.0), rel=1e-2)

    def test_peak_at_infinite_frequency(self):
        # s / (s + 1) = 1 - 1/(s + 1): |G| rises to the feedthrough 1
        rep = checked_hinf(([[-1.0]], [[1.0]], [[-1.0]], [[1.0]]))
        assert rep.peak_frequency == np.inf
        assert rep.value == pytest.approx(1.0, rel=2 * analysis.HINF_TOL)

    @pytest.mark.parametrize("index", range(120))
    def test_benchmark_pool_plants(self, index):
        """The open-loop norms of the random-designs pool's H-infinity
        requests: 80 with Dw = 0, whose norms set the requests' gamma0, and
        40 with Dw != 0."""
        plant = HINF_POOL[index]
        checked_hinf((plant.A, plant.Bw, plant.Cz, plant.Dw))

    def test_chain_closed_loop(self, chain_closed_loop):
        """A sharp peak: the test still sees a crossing at (1 + 2e-6) times
        the gain 99.816797 attained near w = 0.99997, so the iteration has
        to raise its test level past the midpoints' gains."""
        cl = chain_closed_loop
        rep = checked_hinf((cl.Acl, cl.Bcl, cl.Ccl, cl.Dcl), rel=1e-5)
        assert rep.value >= 99.816797
        assert rep.peak_frequency == pytest.approx(0.99997, abs=1e-4)

    def test_unstable_raises(self):
        with pytest.raises(NonHurwitzError):
            analysis.hinf_norm(([[0.5]], [[1.0]], [[1.0]], [[0.0]]))


HINF_POOL = [p for p, mode in pool_requests(0) if mode.endswith("hinf")]


@pytest.fixture(scope="module")
def chain_closed_loop():
    """The closed loop of MassSpringChain(5) under the joint-hinf design at
    gamma0 = 100 as one synthesis made it, stored so that this norm test
    does not move with the synthesis: (Acl, Bcl, Ccl, Dcl) as JSON lists."""
    with open(Path(__file__).parent / "data" / "chain_closed_loop.json") as f:
        return SimpleNamespace(**{k: np.array(v) for k, v in json.load(f).items()})


@settings(derandomize=True, max_examples=25, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(2, 5),
       cond=st.floats(1.0, 10.0), dw_zero=st.booleans())
def test_norms_invariant_under_similarity(seed, nx, cond, dw_zero):
    """hinf_norm and h2_norm of a random plant's w -> z map do not change
    under a state similarity T with condition number cond <= 10."""
    rng = np.random.default_rng(seed)
    p = random_plant(rng, nx=nx, dw_zero=dw_zero)
    U, _ = np.linalg.qr(rng.standard_normal((nx, nx)))
    V, _ = np.linalg.qr(rng.standard_normal((nx, nx)))
    T = U @ np.diag(np.geomspace(1.0, cond, nx)) @ V.T
    sys = (p.A, p.Bw, p.Cz, p.Dw)
    similar = (np.linalg.solve(T, p.A @ T), np.linalg.solve(T, p.Bw), p.Cz @ T, p.Dw)
    norms = [analysis.hinf_norm] + ([analysis.h2_norm] if dw_zero else [])
    for norm in norms:
        assert norm(similar).value == pytest.approx(norm(sys).value, rel=1e-5)


class TestChannelH2Norms:
    def test_scalar_state_feedback(self, scalar_plant):
        # channel i is H2 of (A + Bu K, Bw, row_i(K)): |k| / sqrt(2(-1-k))
        k = -2.0
        reps = analysis.channel_h2_norms(scalar_plant, StateFeedbackGain([[k]]))
        expected = abs(k) / np.sqrt(2.0 * (-(1.0 + k)))
        assert len(reps) == 1
        assert reps[0].value == pytest.approx(expected, rel=1e-9)

    def test_accepts_closed_loop(self, scalar_plant):
        cl = close_state_feedback(scalar_plant, StateFeedbackGain([[-2.0]]))
        reps = analysis.channel_h2_norms(scalar_plant, cl)
        assert reps[0].value == pytest.approx(2.0 / np.sqrt(2.0), rel=1e-9)


class TestFreqResponseGap:
    def test_identical_realizations(self):
        rng = np.random.default_rng(4)
        p = random_plant(rng, nx=3)
        sys = (p.A, p.Bw, p.Cz, p.Dw)
        gap, skipped = analysis.freq_response_gap(sys, sys)
        assert gap == 0.0 and skipped == []

    def test_similarity_transform_invariant(self):
        rng = np.random.default_rng(6)
        p = random_plant(rng, nx=3)
        T = rng.standard_normal((3, 3)) + 3 * np.eye(3)
        sys_a = (p.A, p.Bw, p.Cz, p.Dw)
        sys_b = (np.linalg.solve(T, p.A @ T), np.linalg.solve(T, p.Bw),
                 p.Cz @ T, p.Dw)
        gap, _ = analysis.freq_response_gap(sys_a, sys_b)
        assert gap < 1e-10

    def test_static_gains(self):
        # without states G(jw) = D at every frequency
        D = np.arange(6.0).reshape(3, 2)
        empty = (np.zeros((0, 0)), np.zeros((0, 2)), np.zeros((3, 0)))
        gap, skipped = analysis.freq_response_gap((*empty, D), (*empty, D + 1.0))
        assert gap == pytest.approx(np.linalg.norm(np.ones((3, 2)), 2), rel=1e-12)
        assert skipped == []

    def test_pole_on_a_grid_frequency_is_skipped(self):
        w = analysis.default_frequency_grid()[200]
        oscillator = ([[0.0, -w], [w, 0.0]], [[1.0], [0.0]], [[1.0, 0.0]], [[0.0]])
        gap, skipped = analysis.freq_response_gap(oscillator, oscillator)
        assert gap == 0.0 and skipped == [w]


class TestIsHurwitz:
    def test_basic(self):
        assert analysis.is_hurwitz([[-1.0]])
        assert not analysis.is_hurwitz([[0.0]])
        assert not analysis.is_hurwitz([[1.0]])


def parrott_oracle(p, w, state_feedback=False):
    """Parrott's bound at each w of an array, in complex arithmetic:
    max(||P G11||, ||G11 R||), P and R projecting off the spans of all the
    left singular vectors of G12 and all the right singular vectors of G21
    (the full state for state feedback), from complex SVDs."""
    X = np.linalg.solve(1j * np.asarray(w)[:, None, None] * np.eye(p.nx) - p.A,
                        np.hstack([p.Bw, p.Bu]))
    Xw = X[..., :p.nw]
    G11 = p.Cz @ Xw + p.Dw
    G12 = p.Cz @ X[..., p.nw:] + p.Du
    G21 = Xw if state_feedback else p.Cy @ Xw + p.Dyw
    U = np.linalg.svd(G12, full_matrices=False)[0]
    Vh = np.linalg.svd(G21, full_matrices=False)[2]
    left = G11 - U @ (U.conj().transpose(0, 2, 1) @ G11)
    right = G11 - (G11 @ Vh.conj().transpose(0, 2, 1)) @ Vh
    return np.maximum(np.linalg.norm(left, 2, axis=(1, 2)),
                      np.linalg.norm(right, 2, axis=(1, 2)))


def riccati_oracle(p):
    """sqrt(trace(Bw' P Bw)), P from scipy's Riccati solver with the cross term."""
    P = scipy.linalg.solve_continuous_are(p.A, p.Bu, p.Cz.T @ p.Cz, p.Du.T @ p.Du,
                                          s=p.Cz.T @ p.Du)
    return float(np.sqrt(np.trace(p.Bw.T @ P @ p.Bw)))


class TestNormLowerBound:
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(2, 5),
           dims=st.tuples(*[st.integers(1, 3)] * 4), state_feedback=st.booleans(),
           dw_zero=st.booleans())
    def test_parrott_matches_complex_oracle(self, seed, nx, dims, state_feedback, dw_zero):
        """The bound is the largest of sigma_max(Dw) and the complex oracle at
        0 and the moduli of the poles, and its witness attains it."""
        nu, nw, nz, ny = dims
        p = random_plant(np.random.default_rng(seed), nx=nx, nu=nu, nw=nw, nz=nz, ny=ny,
                         dw_zero=dw_zero)
        bound = analysis.norm_lower_bound(p, "hinf", state_feedback)
        w = np.r_[0.0, np.abs(np.linalg.eigvals(p.A))]
        expected = max(np.linalg.norm(p.Dw, 2), parrott_oracle(p, w, state_feedback).max())
        assert bound.kind == "Hinf"
        assert bound.value == pytest.approx(expected, rel=1e-9, abs=1e-12)
        if bound.witness < np.inf:
            at = parrott_oracle(p, np.array([bound.witness]), state_feedback)[0]
            assert at == pytest.approx(bound.value, rel=1e-9)

    def test_chain_refusal_certificate(self):
        # the chain workload refuses joint-hinf at gamma0 = 0.05
        p = MassSpringChain(5).build()
        bound = analysis.norm_lower_bound(p, "hinf")
        assert bound.value == pytest.approx(0.0999999866, rel=1e-8)
        assert bound.witness == pytest.approx(0.517638, rel=1e-5)
        assert bound.describe() == "Parrott's bound at 0.517638 rad/s"
        # an independent dense sweep finds the plant at least that far above 0.05
        sweep = parrott_oracle(p, np.logspace(-2, 2, 4001))
        assert sweep.max() >= 0.05 * 1.9
        assert parrott_oracle(p, np.array([bound.witness]))[0] == pytest.approx(
            bound.value, rel=1e-9)

    def test_tensegrity_refusal_certificate(self):
        # the tensegrity workload refuses joint-h2 at gamma0 = 0.1
        p = TensegrityApprox().build()
        bound = analysis.norm_lower_bound(p, "h2")
        assert bound.kind == "H2"
        assert bound.value == pytest.approx(riccati_oracle(p), rel=1e-8)
        assert bound.value == pytest.approx(0.394004, rel=1e-5)
        A, Bu, Cz, Du = p.A, p.Bu, p.Cz, p.Du
        P = bound.witness
        L = Bu.T @ P + Du.T @ Cz
        res = A.T @ P + P @ A + Cz.T @ Cz - L.T @ np.linalg.solve(Du.T @ Du, L)
        assert np.linalg.norm(res) <= 1e-9 * np.linalg.norm(A) * np.linalg.norm(P)

    def test_feedthrough_bound(self):
        # the random workload's refused requests ask for sigma_max(Dw) / 2
        p = random_plant(np.random.default_rng(3), nx=3, dw_zero=False)
        sig = np.linalg.svd(p.Dw, compute_uv=False)[0]
        for state_feedback in (False, True):
            assert analysis.norm_lower_bound(p, "hinf", state_feedback).value >= sig

    def test_sf_h2_bound_is_attained(self):
        """On regular plants (nz > nu) the Riccati gain K = -R^-1 (Bu'P + Du'Cz)
        of the witness reaches the bound, which scipy's solver confirms."""
        rng = np.random.default_rng(11)
        for _ in range(5):
            p = random_plant(rng, nx=4, nu=2, nw=2, nz=3, ny=2)
            bound = analysis.norm_lower_bound(p, "h2", state_feedback=True)
            assert bound.value == pytest.approx(riccati_oracle(p), rel=1e-8)
            P = bound.witness
            K = -np.linalg.solve(p.Du.T @ p.Du, p.Bu.T @ P + p.Du.T @ p.Cz)
            cl = close_state_feedback(p, StateFeedbackGain(K))
            assert analysis.h2_norm(cl).value == pytest.approx(bound.value, rel=1e-8)

    def test_full_state_measurement_for_sf(self):
        """Cy sees x1 alone, so every output-feedback loop keeps 1/(s + 1) from
        w2 to z2: Parrott's bound is 1 at w = 0.  With the full state measured
        the bound is zero."""
        p = GeneralizedPlant(A=-np.eye(2), Bu=np.eye(2), Bw=np.eye(2), Cz=np.eye(2),
                             Du=0.1 * np.eye(2), Cy=[[1.0, 0.0]])
        of = analysis.norm_lower_bound(p, "hinf")
        assert (of.value, of.witness) == (pytest.approx(1.0, rel=1e-12), 0.0)
        assert analysis.norm_lower_bound(p, "hinf", state_feedback=True).value < 1e-12

    def test_no_h2_bound(self):
        # Du rank deficient: no Riccati equation
        p = GeneralizedPlant(**SCALAR)
        assert analysis.norm_lower_bound(p, "h2") is None
        # an undamped mode that z does not see puts eigenvalues of the
        # Hamiltonian on the axis: no stabilising solution
        osc = GeneralizedPlant(A=[[0.0, 1.0], [-1.0, 0.0]], Bu=[[0.0], [1.0]],
                               Bw=[[0.0], [1.0]], Cz=[[0.0, 0.0]], Du=[[1.0]])
        assert analysis.norm_lower_bound(osc, "h2") is None

    def test_poles_on_the_axis_are_skipped(self):
        # w = 0 and w = 1 are the integrator's and the oscillator's poles:
        # only the feedthrough is left
        p = GeneralizedPlant(A=[[0.0, 0.0, 0.0], [0.0, 0.0, 1.0], [0.0, -1.0, 0.0]],
                             Bu=np.eye(3)[:, :1], Bw=np.ones((3, 1)), Cz=np.ones((1, 3)),
                             Dw=[[0.5]])
        bound = analysis.norm_lower_bound(p, "hinf")
        assert (bound.value, bound.witness) == (0.5, np.inf)
        assert bound.describe() == "sigma_max(Dw), the closed loop's feedthrough"

    def test_defective_pole_on_the_axis(self):
        """A double integrator seen through a similarity: the computed poles
        miss 0 by about 1e-8 while jwI - A is singular to working precision
        there, so those frequencies are skipped, and the bound stays below
        Parrott's bound on a dense grid."""
        rng = np.random.default_rng(0)
        for _ in range(20):
            T = rng.standard_normal((3, 3))
            Ti = np.linalg.inv(T)
            p = GeneralizedPlant(
                A=T @ np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, -1.0]]) @ Ti,
                Bu=T @ np.array([[0.0], [1.0], [1.0]]), Bw=T @ np.array([[0.0], [1.0], [0.5]]),
                Cz=np.vstack([Ti[:1], np.zeros((1, 3))]), Du=[[0.0], [1.0]], Cy=Ti[:1])
            bound = analysis.norm_lower_bound(p, "hinf")
            grid = parrott_oracle(p, np.logspace(-4, 3, 3000))
            assert bound.value <= grid.max() * (1 + 1e-6)

    def test_bad_kind(self, scalar_plant):
        with pytest.raises(ValueError, match="kind must be 'hinf' or 'h2'"):
            analysis.norm_lower_bound(scalar_plant, "H2")

    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), nx=st.integers(2, 4), kind=st.sampled_from(["hinf", "h2"]),
           nz=st.integers(2, 3), ny=st.integers(1, 2), scale=st.floats(0.1, 3.0))
    def test_random_controllers_respect_the_bound(self, seed, nx, kind, nz, ny, scale):
        """A random stabilising static state feedback and a random stable
        dynamic output feedback each have a closed-loop norm at least the
        bound of their class."""
        rng = np.random.default_rng(seed)
        p = random_plant(rng, nx=nx, nz=nz, ny=ny, dw_zero=kind == "h2" or seed % 2 == 0)
        norm = analysis.h2_norm if kind == "h2" else analysis.hinf_norm
        K = scale * rng.standard_normal((p.nu, nx))
        while not analysis.is_hurwitz(p.A + p.Bu @ K):
            K = 0.5 * K
        ctrl = DynamicController(AK=-np.eye(2), BK=scale * rng.standard_normal((2, ny)),
                                 CK=scale * rng.standard_normal((p.nu, 2)),
                                 DK=scale * rng.standard_normal((p.nu, ny)))
        for controller, state_feedback in ((StateFeedbackGain(K), True), (ctrl, False)):
            cl = close_loop(p, controller)
            if not analysis.is_hurwitz(cl.Acl):
                continue
            bound = analysis.norm_lower_bound(p, kind, state_feedback)
            if bound is not None:
                assert norm(cl).value >= bound.value * (1 - analysis.HINF_TOL)
