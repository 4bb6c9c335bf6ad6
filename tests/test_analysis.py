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
from sparsact.errors import NonHurwitzError, NonzeroFeedthroughError
from sparsact.model import StateFeedbackGain, close_state_feedback

from conftest import pool_requests, random_plant


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


class TestIsHurwitz:
    def test_basic(self):
        assert analysis.is_hurwitz([[-1.0]])
        assert not analysis.is_hurwitz([[0.0]])
        assert not analysis.is_hurwitz([[1.0]])
