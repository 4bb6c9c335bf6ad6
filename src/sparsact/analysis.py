"""Norm computations used to verify synthesis results independently.

Everything here is deliberately LMI-free: H2 norms come from a dense
Lyapunov solve, H-infinity norms from the level-set iteration on the
Hamiltonian imaginary-eigenvalue test (Boyd & Balakrishnan 1990; Bruinsma
& Steinbuch 1990), which also gives the peak frequency.  Synthesis modules
call into this module to certify their own output, and to refuse, before
they build any LMI, a bound that norm_lower_bound shows no controller meets.

Fixed constants: HURWITZ_MARGIN bounds the eigenvalues' real parts; the
H-infinity iteration stops when a level without crossings is within
relative width 2 HINF_TOL of the highest gain attained or level crossed,
or after HINF_MAX_ITER Hamiltonian tests; eigenvalues within
HAMILTONIAN_REAL_TOL (relative) of the imaginary axis count as on it;
freq_response_gap uses FREQ_GRID_NUM log-spaced frequencies from
FREQ_GRID_LO to FREQ_GRID_HI rad/s.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DimensionError, NonHurwitzError, NonzeroFeedthroughError
from .model import ClosedLoop, close_loop

__all__ = [
    "NormReport",
    "is_hurwitz",
    "h2_norm",
    "hinf_norm",
    "channel_h2_norms",
    "NormBound",
    "norm_lower_bound",
    "freq_response_gap",
    "default_frequency_grid",
]

HURWITZ_MARGIN = -1e-9
HINF_TOL = 1e-6
HINF_MAX_ITER = 200
HAMILTONIAN_REAL_TOL = 1e-9
FREQ_GRID_LO = 1e-3
FREQ_GRID_HI = 1e3
FREQ_GRID_NUM = 400


@dataclass(frozen=True)
class NormReport:
    value: float
    kind: str  # "H2" | "Hinf"
    method: str
    converged: bool
    iterations: int = 0
    peak_frequency: float | None = None  # rad/s; inf for the feedthrough, None for H2


def _abcd(sys):
    """Extract (A, B, C, D) from a ClosedLoop (w -> z), tuple, or raw matrices."""
    if isinstance(sys, ClosedLoop):
        return sys.Acl, sys.Bcl, sys.Ccl, sys.Dcl
    A, B, C, D = sys
    A = np.atleast_2d(np.asarray(A, dtype=float))
    B = np.atleast_2d(np.asarray(B, dtype=float))
    C = np.atleast_2d(np.asarray(C, dtype=float))
    if D is None:
        D = np.zeros((C.shape[0], B.shape[1]))
    D = np.atleast_2d(np.asarray(D, dtype=float))
    return A, B, C, D


def is_hurwitz(A) -> bool:
    """True iff every eigenvalue of A has real part below the margin."""
    A = np.atleast_2d(np.asarray(A, dtype=float))
    if A.shape[0] != A.shape[1]:
        raise DimensionError("is_hurwitz needs a square matrix")
    if not np.all(np.isfinite(A)):
        raise ValueError("is_hurwitz needs finite entries")
    if A.size == 0:
        return True
    eigs = np.linalg.eigvals(A)  # raises LinAlgError on non-convergence
    return bool(np.max(eigs.real) < HURWITZ_MARGIN)


def _checked_gramian(A, B):
    """Controllability Gramian of a Hurwitz A (A Wc + Wc A^T + B B^T = 0, dense
    Schur method), its Lyapunov residual checked against a tight relative bound."""
    if A.size == 0:
        return np.zeros((0, 0))
    if not is_hurwitz(A):
        raise NonHurwitzError("H2 norm undefined: state matrix is not Hurwitz")
    Wc = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    Wc = 0.5 * (Wc + Wc.T)
    res = np.linalg.norm(A @ Wc + Wc @ A.T + B @ B.T)
    bound = _residual_bound(np.linalg.norm(A) * np.linalg.norm(Wc), np.linalg.norm(B) ** 2)
    if res > bound:
        raise NonHurwitzError(f"Lyapunov residual too large: {res:.3e} > {bound:.3e}")
    return Wc


def _residual_bound(*terms):
    """The largest Frobenius residual a matrix equation's solution may leave:
    1e-10 times the sum of the norms of the equation's terms, and at least 1e-13."""
    return max(1e-10 * sum(terms), 1e-13)


def _h2_report(C, Wc):
    val = float(np.sqrt(max(0.0, np.trace(C @ Wc @ C.T))))
    return NormReport(value=val, kind="H2", method="gramian", converged=True)


def h2_norm(sys) -> NormReport:
    """H2 norm via the controllability Gramian.

    Requires a Hurwitz state matrix and zero feedthrough; the residual of
    the Lyapunov solve is checked against a tight relative bound.
    """
    A, B, C, D = _abcd(sys)
    if np.any(D != 0.0):
        raise NonzeroFeedthroughError("H2 norm undefined for nonzero feedthrough")
    return _h2_report(C, _checked_gramian(A, B))


def _imaginary_frequencies(A, B, C, D, gamma):
    """Sorted frequencies w >= 0 at which the Hamiltonian of level gamma has
    an eigenvalue jw, or None when gamma^2 I - D'D is singular.

    For gamma > sigma_max(D) these are the frequencies at which some
    singular value of the frequency response crosses gamma.  Eigenvalues
    within HAMILTONIAN_REAL_TOL max(1, ||H||_2) of the axis count as on it.
    """
    m = B.shape[1]
    R = gamma ** 2 * np.eye(m) - D.T @ D
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return None
    Abar = A + B @ Rinv @ D.T @ C
    H = np.block([
        [Abar, B @ Rinv @ B.T],
        [-C.T @ (np.eye(C.shape[0]) + D @ Rinv @ D.T) @ C, -Abar.T],
    ])
    eigs = np.linalg.eigvals(H)
    tol = HAMILTONIAN_REAL_TOL * max(1.0, np.linalg.norm(H, 2))
    return np.sort(eigs.imag[(np.abs(eigs.real) < tol) & (eigs.imag >= 0.0)])


def _resolvent_system(A, freqs):
    """jwI - A at each w, stacked, as the real 2n x 2n matrix that maps
    (Re X, Im X) to (Re, Im) of (jwI - A) X."""
    n = A.shape[0]
    w = np.asarray(freqs, dtype=float)[:, None, None]
    return np.kron(np.eye(2), -A) + w * np.kron([[0.0, -1.0], [1.0, 0.0]], np.eye(n))


def _resolvent(M, B):
    """(Re X, Im X) of X = (jwI - A)^-1 B, stacked over the systems M of
    _resolvent_system."""
    n = B.shape[0]
    rhs = np.vstack([B, np.zeros_like(B)])
    X = np.linalg.solve(M, np.broadcast_to(rhs, (len(M),) + rhs.shape))
    return X[:, :n], X[:, n:]


def _embed(Gr, Gi):
    """The real embedding [[Gr, -Gi], [Gi, Gr]] of Gr + j Gi: its singular
    values are those of Gr + j Gi, each twice, and the embedding of a product
    is the product of the embeddings."""
    return np.concatenate([np.concatenate([Gr, -Gi], axis=-1),
                           np.concatenate([Gi, Gr], axis=-1)], axis=-2)


def _gains(A, B, C, D, freqs):
    """sigma_max(G(jw)) at each finite w, in real arithmetic.

    (jwI - A) X = B is solved as the real 2n x 2n system for (Re X, Im X),
    and sigma_max(Gr + j Gi) is that of the real embedding
    [[Gr, -Gi], [Gi, Gr]], whose singular values are G's, each twice.
    """
    Xr, Xi = _resolvent(_resolvent_system(A, freqs), B)
    return np.linalg.svd(_embed(C @ Xr + D, C @ Xi), compute_uv=False)[:, 0]


def _pole_frequency(poles):
    """Bruinsma & Steinbuch's start frequency: the modulus of the pole with
    the largest |Im / Re| / |p|, or of the smallest pole if all are real."""
    mags = np.abs(poles)
    if np.all(poles.imag == 0.0):
        return float(np.min(mags))
    return float(mags[np.argmax(np.abs(poles.imag / poles.real) / mags)])


def hinf_norm(sys) -> NormReport:
    """H-infinity norm by the level-set iteration of Boyd & Balakrishnan
    (1990) and Bruinsma & Steinbuch (1990).

    The lower bound starts at the largest gain of D (infinite frequency),
    G(0) and G(j wp), wp the pole frequency.  Each step tests the
    Hamiltonian at (1 + 2 HINF_TOL) times the lower bound and raises the
    bound to the largest gain at the geometric midpoints of the crossing
    frequencies it finds.  A test that finds crossings which no midpoint
    reaches (a sharp peak, where the test's tolerance still sees a crossing
    above every gain attained) raises the test level instead, doubling its
    distance from the bound, and then bisects between the highest level
    with a crossing and the lowest without one.  The iteration stops when
    a level without crossings is within 2 HINF_TOL of the highest gain or
    level crossed; the value is their midpoint, bracketed by the gain
    attained at ``peak_frequency`` and the level tested.  ``iterations``
    counts Hamiltonian eigensolves, at most HINF_MAX_ITER.
    """
    A, B, C, D = _abcd(sys)
    sig_d = float(np.linalg.norm(D, 2)) if D.size else 0.0
    if B.size and C.size and not is_hurwitz(A):
        raise NonHurwitzError("Hinf norm undefined: state matrix is not Hurwitz")
    if not (np.any(B) and np.any(C)):  # G is the constant D
        return NormReport(value=sig_d, kind="Hinf", method="hamiltonian-level-set",
                          converged=True, peak_frequency=np.inf)
    start = np.array([0.0, _pole_frequency(np.linalg.eigvals(A))])
    gains = _gains(A, B, C, D, start)
    k = int(np.argmax(gains))
    lower, peak = (sig_d, np.inf) if sig_d >= gains[k] else (float(gains[k]), float(start[k]))
    # crossed: the highest gain attained or level tested with a crossing;
    # clear: the lowest level tested clear of crossings
    crossed, clear, step = lower, np.inf, 2.0 * HINF_TOL
    tests = 0
    while clear * (1.0 - HINF_TOL) > crossed * (1.0 + HINF_TOL) and tests < HINF_MAX_ITER:
        level = lower * (1.0 + step) if clear == np.inf else 0.5 * (crossed + clear)
        freqs = _imaginary_frequencies(A, B, C, D, level)
        tests += 1
        if freqs is not None and freqs.size == 0:
            clear = level
            continue
        if freqs is not None and freqs.size > 1:
            mids = np.sqrt(freqs[:-1] * freqs[1:])
            gains = _gains(A, B, C, D, mids)
            k = int(np.argmax(gains))
            if gains[k] > lower:
                lower, peak = float(gains[k]), float(mids[k])
        if lower >= level:  # a midpoint confirmed the crossing
            crossed, clear, step = lower, np.inf, 2.0 * HINF_TOL
        else:
            crossed, step = level, 2.0 * step
    converged = clear * (1.0 - HINF_TOL) <= crossed * (1.0 + HINF_TOL)
    return NormReport(value=0.5 * (crossed + clear) if converged else crossed,
                      kind="Hinf", method="hamiltonian-level-set", converged=converged,
                      iterations=tests, peak_frequency=peak)


@dataclass(frozen=True)
class NormBound:
    """A lower bound on the closed-loop norm of every stabilising controller
    of a design's class, and its witness: for H-infinity the frequency
    (rad/s) at which the bound is attained, inf for the feedthrough; for
    H2 the stabilising Riccati solution P."""

    value: float
    kind: str  # "H2" | "Hinf"
    witness: float | np.ndarray

    def describe(self):
        if self.kind == "H2":
            return ("the state-feedback Riccati optimum sqrt(trace(Bw' P Bw)), "
                    "P the stabilising solution")
        if self.witness == np.inf:
            return "sigma_max(Dw), the closed loop's feedthrough"
        return f"Parrott's bound at {self.witness:.6g} rad/s"


def norm_lower_bound(plant, kind, state_feedback=False):
    """A NormBound below the closed-loop norm of ``kind`` ("hinf" or "h2")
    of every stabilising controller a design returns, from the plant alone:
    state feedback with ``state_feedback``, else output feedback with
    DK Dyw = 0.  None when no bound is found.

    H-infinity (Parrott, 1978): at each w the closed loop is G11 + G12 Q G21
    for some matrix Q, so its gain is at least max(||P G11||, ||G11 R||),
    P projecting off an orthonormal basis (QR) of min(nz, nu) directions
    that hold the range of G12, R off one of min(ny, nw) directions that
    hold the range of G21': the spans of all their singular vectors when
    they have full rank, the whole space when nz <= nu (nw <= ny), which
    makes that side zero.  There is no rank cut-off: a spurious direction
    can only lower the bound.  G21 is the full-state measurement
    (jwI - A)^-1 Bw with state_feedback, else Cy (jwI - A)^-1 Bw + Dyw.  At
    w = inf the term is sigma_max(Dw), since every controller the designs
    return has DK Dyw = 0.  The finite frequencies are 0 and the moduli of
    A's eigenvalues, in real arithmetic as in _gains.  One where the
    resolvent's condition number (1-norm) is 1 / HAMILTONIAN_REAL_TOL or
    more, at a pole on the axis in that constant's sense, is skipped:
    elsewhere the resolvent's rounding error stays far below
    statefb.VERIFY_RTOL.

    H2 (Doyle, Glover, Khargonekar & Francis, 1989): no controller beats the
    state-feedback optimum sqrt(trace(Bw' P Bw)), P the stabilising solution
    of A'P + PA - (P Bu + Cz'Du) R^-1 (Bu'P + Du'Cz) + Cz'Cz = 0, R = Du'Du,
    taken from the ordered real Schur form of the Hamiltonian.  There is no
    bound unless Du has full column rank, no eigenvalue of the Hamiltonian
    lies within HAMILTONIAN_REAL_TOL of the axis, U11 is nonsingular, P's
    residual is within the bound of _checked_gramian's and A + Bu K is
    Hurwitz for the optimal gain K = -R^-1 (Bu'P + Du'Cz).
    """
    if kind == "hinf":
        return _parrott_bound(plant, state_feedback)
    if kind == "h2":
        return _riccati_bound(plant)
    raise ValueError(f"kind must be 'hinf' or 'h2', got {kind!r}")


def _parrott_bound(p, state_feedback):
    best = NormBound(float(np.linalg.norm(p.Dw, 2)) if p.Dw.size else 0.0, "Hinf", np.inf)
    nw, m = p.nw, p.nx if state_feedback else p.ny
    # a side whose basis spans its whole space projects G11 to zero
    left, right = p.nz > p.nu, nw > m
    if not (left or right):
        return best
    freqs = np.unique(np.abs(np.r_[0.0, np.linalg.eigvals(p.A)]))
    M = _resolvent_system(p.A, freqs)
    keep = np.linalg.cond(M, 1) * HAMILTONIAN_REAL_TOL < 1.0  # inf when singular
    freqs = freqs[keep]
    if not freqs.size:
        return best
    Xr, Xi = _resolvent(M[keep], np.hstack([p.Bw, p.Bu]))
    Zr, Zi = p.Cz @ Xr, p.Cz @ Xi
    G11 = _embed(Zr[..., :nw] + p.Dw, Zi[..., :nw])
    sides = []
    if left:
        U = np.linalg.qr(_embed(Zr[..., nw:] + p.Du, Zi[..., nw:]))[0]
        sides.append(G11 - U @ (U.transpose(0, 2, 1) @ G11))
    if right:
        Wr, Wi = Xr[..., :nw], Xi[..., :nw]
        G21 = _embed(Wr, Wi) if state_feedback else _embed(p.Cy @ Wr + p.Dyw, p.Cy @ Wi)
        V = np.linalg.qr(G21.transpose(0, 2, 1))[0]
        sides.append(G11 - (G11 @ V) @ V.transpose(0, 2, 1))
    S = np.concatenate(sides)
    top = np.linalg.eigvalsh(S.transpose(0, 2, 1) @ S)[:, -1].reshape(len(sides), -1)
    gains = np.sqrt(top.max(axis=0).clip(0.0))
    k = int(np.argmax(gains))
    return NormBound(float(gains[k]), "Hinf", float(freqs[k])) if gains[k] > best.value else best


def _riccati_bound(p):
    n, A, Bu, Cz, Du = p.nx, p.A, p.Bu, p.Cz, p.Du
    if p.nu and np.linalg.matrix_rank(Du) < p.nu:
        return None
    R, S = Du.T @ Du, Cz.T @ Du
    F = np.linalg.solve(R, np.hstack([Bu.T, S.T]))  # R^-1 [Bu', Du'Cz]
    Ab = A - Bu @ F[:, n:]
    H = np.block([[Ab, -Bu @ F[:, :n]], [S @ F[:, n:] - Cz.T @ Cz, -Ab.T]])
    try:
        T, Z, stable = scipy.linalg.schur(H, sort="lhp")  # LinAlgError if it cannot reorder
        # the diagonal of the real Schur form holds the eigenvalues' real parts
        tol = HAMILTONIAN_REAL_TOL * max(1.0, np.linalg.norm(H, 2))
        if stable != n or np.min(np.abs(np.diag(T))) <= tol:
            return None
        P = np.linalg.solve(Z[:n, :n].T, Z[n:, :n].T).T  # LinAlgError if U11 is singular
    except np.linalg.LinAlgError:
        return None
    P = 0.5 * (P + P.T)
    L = Bu.T @ P + S.T
    K = -np.linalg.solve(R, L)
    res = np.linalg.norm(A.T @ P + P @ A + Cz.T @ Cz + L.T @ K)
    bound = _residual_bound(2.0 * np.linalg.norm(A) * np.linalg.norm(P),
                            np.linalg.norm(Cz) ** 2, np.linalg.norm(L) * np.linalg.norm(K))
    if not res <= bound or not is_hurwitz(A + Bu @ K):
        return None
    return NormBound(float(np.sqrt(max(0.0, np.trace(p.Bw.T @ P @ p.Bw)))), "H2", P)


def channel_h2_norms(plant, controller):
    """Per-actuator H2 norms of the disturbance-to-control transfer functions.

    Entry i is the H2 norm of (Acl, Bcl, row_i(Ctilde), 0), from one
    controllability Gramian.  For output feedback the feedthrough DK Dyw
    must be exactly zero; ``model.close_output_feedback`` makes it so when it
    is zero up to rounding.
    """
    cl = close_loop(plant, controller)
    nonzero = np.flatnonzero(np.any(cl.Dtilde != 0.0, axis=1))
    if nonzero.size:
        raise NonzeroFeedthroughError(
            f"channel {nonzero[0]}: nonzero disturbance feedthrough to the actuator")
    Wc = _checked_gramian(cl.Acl, cl.Bcl)
    return [_h2_report(cl.Ctilde[i:i + 1], Wc) for i in range(cl.Ctilde.shape[0])]


def default_frequency_grid():
    return np.logspace(np.log10(FREQ_GRID_LO), np.log10(FREQ_GRID_HI), FREQ_GRID_NUM)


def _response(A, B, C, D, w):
    n = A.shape[0]
    if n == 0:
        return D.astype(complex)
    return C @ np.linalg.solve(1j * w * np.eye(n) - A, B) + D


def freq_response_gap(sys_a, sys_b):
    """Max spectral-norm difference of two frequency responses over a grid.

    The grid is default_frequency_grid().  Grid points where either
    resolvent is singular are skipped; the list of skipped frequencies is
    returned alongside the gap.
    """
    Aa, Ba, Ca, Da = _abcd(sys_a)
    Ab, Bb, Cb, Db = _abcd(sys_b)
    if (Ca.shape[0], Ba.shape[1]) != (Cb.shape[0], Bb.shape[1]):
        raise DimensionError("realizations must share input/output dimensions")
    gap = 0.0
    skipped = []
    for w in default_frequency_grid():
        try:
            Ga = _response(Aa, Ba, Ca, Da, w)
            Gb = _response(Ab, Bb, Cb, Db, w)
        except np.linalg.LinAlgError:
            skipped.append(float(w))
            continue
        gap = max(gap, float(np.linalg.norm(Ga - Gb, 2)))
    return gap, skipped
