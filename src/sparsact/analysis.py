"""Norm computations used to verify synthesis results independently.

Everything here is deliberately LMI-free: H2 norms come from a dense
Lyapunov solve, H-infinity norms from bisection on the Hamiltonian
imaginary-eigenvalue test.  Synthesis modules call into this module to
certify their own output.

Fixed constants: HURWITZ_MARGIN bounds the eigenvalues' real parts; the
H-infinity bisection stops at relative width HINF_TOL or after HINF_MAX_ITER
halvings; eigenvalues within HAMILTONIAN_REAL_TOL (relative) of the
imaginary axis count as on it; freq_response_gap uses FREQ_GRID_NUM
log-spaced frequencies from FREQ_GRID_LO to FREQ_GRID_HI rad/s.
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
    "hamiltonian_has_gain",
    "channel_h2_norms",
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


def controllability_gramian(A, B):
    """Solve A Wc + Wc A^T + B B^T = 0 for a Hurwitz A (dense Schur method)."""
    Wc = scipy.linalg.solve_continuous_lyapunov(A, -B @ B.T)
    return 0.5 * (Wc + Wc.T)


def _checked_gramian(A, B):
    """Controllability Gramian of a Hurwitz A, its Lyapunov residual checked
    against a tight relative bound."""
    if A.size == 0:
        return np.zeros((0, 0))
    if not is_hurwitz(A):
        raise NonHurwitzError("H2 norm undefined: state matrix is not Hurwitz")
    Wc = controllability_gramian(A, B)
    res = np.linalg.norm(A @ Wc + Wc @ A.T + B @ B.T)
    bound = 1e-10 * (np.linalg.norm(A) * np.linalg.norm(Wc) + np.linalg.norm(B) ** 2)
    if res > max(bound, 1e-13):
        raise NonHurwitzError(f"Lyapunov residual too large: {res:.3e} > {bound:.3e}")
    return Wc


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


def hamiltonian_has_gain(A, B, C, D, gamma) -> bool:
    """True iff the transfer function reaches gain >= gamma on the jw-axis.

    Standard Hamiltonian test: for gamma > sigma_max(D) the frequency
    response attains gamma iff the associated Hamiltonian matrix has an
    imaginary-axis eigenvalue.
    """
    n = A.shape[0]
    if n == 0:
        return float(np.linalg.norm(D, 2)) >= gamma if D.size else False
    m = B.shape[1]
    R = gamma ** 2 * np.eye(m) - D.T @ D
    try:
        Rinv = np.linalg.inv(R)
    except np.linalg.LinAlgError:
        return True
    Abar = A + B @ Rinv @ D.T @ C
    H = np.block([
        [Abar, B @ Rinv @ B.T],
        [-C.T @ (np.eye(C.shape[0]) + D @ Rinv @ D.T) @ C, -Abar.T],
    ])
    eigs = np.linalg.eigvals(H)
    tol = HAMILTONIAN_REAL_TOL * max(1.0, np.linalg.norm(H, 2))
    return bool(np.any(np.abs(eigs.real) < tol))


def hinf_norm(sys) -> NormReport:
    """H-infinity norm by bisection on the Hamiltonian test."""
    A, B, C, D = _abcd(sys)
    sig_d = float(np.linalg.norm(D, 2)) if D.size else 0.0
    if A.size == 0 or B.size == 0 or C.size == 0:
        return NormReport(value=sig_d, kind="Hinf", method="hamiltonian-bisection",
                          converged=True)
    if not is_hurwitz(A):
        raise NonHurwitzError("Hinf norm undefined: state matrix is not Hurwitz")
    # Bracket: lower at the feedthrough gain, upper from a Hankel-style
    # Gramian bound, doubled until the test certifies it as an upper bound.
    Wc = controllability_gramian(A, B)
    Wo = controllability_gramian(A.T, C.T)
    hankel = np.sqrt(np.maximum(0.0, np.real(np.linalg.eigvals(Wc @ Wo))))
    upper = sig_d + 2.0 * float(np.sum(hankel)) + 1e-12
    lower = sig_d
    it = 0
    while hamiltonian_has_gain(A, B, C, D, upper) and it < 60:
        lower = upper
        upper *= 2.0
        it += 1
    if it >= 60:
        raise NonHurwitzError("Hinf bisection failed to bracket the norm")
    iters = it
    while (upper - lower) > HINF_TOL * upper and iters < HINF_MAX_ITER:
        mid = 0.5 * (upper + lower)
        if hamiltonian_has_gain(A, B, C, D, mid):
            lower = mid
        else:
            upper = mid
        iters += 1
    val = 0.5 * (upper + lower)
    return NormReport(value=float(val), kind="Hinf", method="hamiltonian-bisection",
                      converged=iters < HINF_MAX_ITER, iterations=iters)


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
