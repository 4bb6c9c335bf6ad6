"""State-feedback synthesis with sparse actuation.

Minimizes a weighted l1 norm of per-actuator squared-H2 bounds Gamma
subject to a closed-loop performance constraint (H-infinity or H2) on
the disturbance-to-output channel.  Small per-actuator bounds mean the
corresponding actuator does little work and can eventually be pruned.

The conditions of all three designs are the blocks of a HatLoop, a closed
loop in synthesis variables; ``sf_loop`` makes this design's, with the
gain K = W X^-1.  This module also holds what the designs share: the
constants, the solve and its status map, the weight check, the
channel-bound design and the verification.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from . import analysis, lmi
from .errors import (
    DimensionError,
    InfeasiblePerformance,
    NonzeroFeedthroughError,
    ReconstructionFailure,
    SynthesisNumericalError,
)
from .model import (GeneralizedPlant, StateFeedbackGain, close_state_feedback,
                    controller_to_dict, validate_plant)
from .sdp import SdpSolution, solve_sdp

__all__ = [
    "SfSynthesisSpec",
    "SfSynthesisResult",
    "synth_sf",
    "HatLoop",
    "sf_loop",
    "result_to_dict",
    "active_set_from_values",
    "ACTIVE_THRESHOLD_RATIO",
    "VERIFY_RTOL",
    "COND_LIMIT",
    "GAMMA_BACKOFF",
    "COUPLING_MARGIN",
    "GAMMA0_LIMIT",
]

ACTIVE_THRESHOLD_RATIO = 1e-3
VERIFY_RTOL = 1e-5
COND_LIMIT = 1e12
# The synthesis LMIs use gamma0 shrunk by this relative amount so that the
# independent verification against the requested gamma0 always has headroom,
# even when the performance constraint is active at the optimum.
GAMMA_BACKOFF = 1e-3
# A hat loop's positivity block is [[(1 - eps) X, I], [I, Y]] > 0, that is
# X - Y^-1 >= eps X: invariant under a state similarity, and it keeps
# I - XY, which the controller recovery inverts, away from singular.
COUPLING_MARGIN = 1e-3
# sqrt of the largest float, about 1.34e154: gamma0^2 overflows at and above it
GAMMA0_LIMIT = float(np.sqrt(np.finfo(float).max))


ACTIVE_ABS_FLOOR = 1e-8


def active_set_from_values(values, threshold_ratio=ACTIVE_THRESHOLD_RATIO):
    """Indices whose value exceeds threshold_ratio times the largest value.

    Values below an absolute floor are never active: when a design needs
    essentially no control at all, every group is inactive rather than
    every group trivially clearing a relative threshold of ~zero.
    """
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        return []
    cut = max(threshold_ratio * float(values.max()), ACTIVE_ABS_FLOOR)
    return [int(i) for i in np.flatnonzero(values > cut)]


def _check_performance(spec):
    """The performance_kind and gamma0 checks of every spec; H2 needs Dw = 0."""
    if spec.performance_kind not in ("hinf", "h2"):
        raise ValueError(f"performance_kind must be 'hinf' or 'h2', got {spec.performance_kind!r}")
    if not (0 < spec.gamma0 < GAMMA0_LIMIT):
        raise ValueError(f"gamma0 must be positive and below {GAMMA0_LIMIT:.4g}, "
                         f"got {spec.gamma0}")
    if spec.performance_kind == "h2" and np.any(spec.plant.Dw != 0.0):
        raise NonzeroFeedthroughError(
            "H2 performance needs Dw = 0: the disturbance-to-output "
            "feedthrough makes the H2 norm unbounded")


def _set_vector(spec, name, n, nonneg=False):
    """Store spec's weight field `name` as a float vector, ones when it is
    None, after checking its length n and that every entry is finite and
    positive (nonnegative with nonneg); each error names the field."""
    v = getattr(spec, name)
    v = np.ones(n) if v is None else np.asarray(v, dtype=float).ravel()
    if v.shape != (n,):
        raise DimensionError(f"{name} must have length {n}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"{name} must be finite")
    if np.any(v < 0) if nonneg else np.any(v <= 0):
        raise ValueError(f"{name} must be {'nonnegative' if nonneg else 'positive'} elementwise")
    object.__setattr__(spec, name, v)


@dataclass(frozen=True)
class SfSynthesisSpec:
    """Inputs to a state-feedback design.

    gamma0 bounds the closed-loop norm of the chosen kind; rho weights the
    per-actuator bounds in the objective; gamma_max optionally caps each
    gamma_i (hardware actuator limits); dump_path, if set, receives each
    solved cone program as sparse triplets.  GROUPS maps each weight group
    of the reweighted loop to the field holding its weights.
    """

    GROUPS = {"actuators": "rho"}

    plant: GeneralizedPlant
    performance_kind: str = "hinf"
    gamma0: float = 1.0
    rho: np.ndarray | None = None
    gamma_max: np.ndarray | None = None
    dump_path: str | None = None

    def __post_init__(self):
        _check_performance(self)
        _set_vector(self, "rho", self.plant.nu)
        if self.gamma_max is not None:
            _set_vector(self, "gamma_max", self.plant.nu)

    def synthesize(self):
        return synth_sf(self)

    def restricted(self, keep_act, keep_sen):
        """This design on its plant cut down to the actuators keep_act and
        the sensors keep_sen, with uniform weights."""
        gm = self.gamma_max[keep_act] if self.gamma_max is not None else None
        return dataclasses.replace(self, plant=self.plant.restricted(keep_act, keep_sen),
                                   rho=None, gamma_max=gm)


class _ChannelBoundGroups:
    """Reweighted on gamma_i, thresholded on the channel norm sqrt(gamma_i)."""

    REPORTED = ("gamma", "channel_h2_norms")  # the values result_to_dict writes

    @property
    def channel_h2_norms(self):
        return [r.value for r in self.verified_channels]

    @property
    def group_values(self):
        return {"actuators": np.maximum(self.gamma, 0.0)}

    @property
    def group_norms(self):
        return {"actuators": np.sqrt(np.maximum(self.gamma, 0.0))}


@dataclass(frozen=True)
class SfSynthesisResult(_ChannelBoundGroups):
    K: StateFeedbackGain
    gamma: np.ndarray            # per-actuator squared-H2 bounds
    objective: float             # rho . gamma
    verified_closed_loop: analysis.NormReport
    verified_channels: list
    X: np.ndarray                # Lyapunov-type certificate variable
    solution: SdpSolution

    @property
    def controller(self):
        return self.K


def result_to_dict(result):
    """JSON fields of any synthesis result: its controller, the values its
    class REPORTED, its objective and its verified closed-loop norm."""
    return {
        **controller_to_dict(result.controller),
        **{name: np.asarray(getattr(result, name)).tolist() for name in result.REPORTED},
        "objective": result.objective,
        "closed_loop_norm": result.verified_closed_loop.value,
        "closed_loop_kind": result.verified_closed_loop.kind,
    }


def _check_stabilizable(plant):
    diags = [d for d in validate_plant(plant) if "unstabilizable" in d]
    if diags:
        raise InfeasiblePerformance("; ".join(diags))


def _refuse_unattainable(spec, state_feedback=False):
    """InfeasiblePerformance, before any LMI is built, when a lower bound on
    the closed-loop norm of every controller of the design's class
    (analysis.norm_lower_bound: state feedback with state_feedback, else
    output feedback) is at least gamma0 (1 + VERIFY_RTOL), so that no design
    could pass _verify.  A request the bound does not settle goes on to the
    SDP; the bound reads only the plant."""
    bound = analysis.norm_lower_bound(spec.plant, spec.performance_kind, state_feedback)
    if bound is not None and bound.value >= spec.gamma0 * (1.0 + VERIFY_RTOL):
        raise InfeasiblePerformance(
            f"every {'state' if state_feedback else 'output'}-feedback controller has a "
            f"closed-loop {bound.kind} norm of at least {bound.value:.6g}, "
            f"{bound.describe()}, above gamma0 {spec.gamma0:.6g}")


def _solve(spec, variables, constraints, objective):
    """Compile and solve a design's problem: (VarMap, solution) when it is
    optimal, InfeasiblePerformance on an improving ray, and
    SynthesisNumericalError on any other end.  With spec.dump_path the
    problem is written there first, so the file holds the last solve."""
    problem, vm = lmi.compile_lmis(variables, constraints, objective=objective)
    if spec.dump_path:
        problem.dump_triplets(spec.dump_path)
    sol = solve_sdp(problem)
    if sol.status == "infeasible":
        raise InfeasiblePerformance(
            f"no Lyapunov certificate exists for the requested bounds ({sol.message})")
    if sol.status != "optimal":
        raise SynthesisNumericalError(
            f"SDP solve ended with status {sol.status}: {sol.message}", solution=sol)
    return vm, sol


@dataclass(frozen=True)
class HatLoop:
    """A design's closed loop in its synthesis variables, as lmi expressions:
    dx = A x + B w, z = C x + D w with the Lyapunov matrix X; row i of K maps
    the Lyapunov coordinates to actuator i.  Each design's conditions are
    these blocks, written once (README, Formulation).

    A hat loop's state is two halves of order ``halves`` (0: one state).
    With ``akhat_free``, A's (2, 1) block AKhat is left out: each block
    that would hold it is emitted as its two projections, and ``akhat``
    recovers it after the solve."""

    A: lmi.Expr
    B: lmi.Expr
    C: lmi.Expr
    D: lmi.Expr
    X: lmi.Expr
    K: lmi.Expr
    halves: int = 0
    akhat_free: bool = False

    def _bounded_real(self, g):
        """[[sym A, *, *], [B', -g I, *], [C, D, -g I]], < 0 when the H-infinity norm is below g."""
        nz, nw = self.D.shape
        return lmi.bmat([
            [lmi.sym(self.A), None, None],
            [self.B.T, lmi.const(-g * np.eye(nw)), None],
            [self.C, self.D, lmi.const(-g * np.eye(nz))],
        ])

    def _lyapunov(self):
        if self.B.is_constant:
            return lmi.sym(self.A) + lmi.const(self.B.constant @ self.B.constant.T)
        return lmi.bmat([[lmi.sym(self.A), None],
                         [self.B.T, lmi.const(-np.eye(self.B.shape[1]))]])

    def _neg_def(self, M):
        """[M < 0], or with AKhat left out the projection lemma's pair: M
        without state half 2 and M without state half 1 (Gahinet &
        Apkarian, 1994), which hold for some AKhat exactly when M < 0 does."""
        if not self.akhat_free:
            return [lmi.neg_def(M)]
        h, n = self.halves, M.shape[0]
        keep = (np.r_[0:h, 2 * h:n], np.r_[h:n])
        return [lmi.neg_def(E @ M @ E.T) for E in (np.eye(n)[k] for k in keep)]

    def lyapunov(self):
        """sym A + B B' < 0; its Schur form [[sym A, *], [B', -I]] < 0 if B has variables."""
        return self._neg_def(self._lyapunov())

    def positive(self):
        """X > 0; for a hat loop [[(1 - eps) X, I], [I, Y]] > 0, eps =
        COUPLING_MARGIN, which keeps I - XY away from singular."""
        if not self.halves:
            return lmi.pos_def(self.X)
        E = np.eye(2 * self.halves)[:, :self.halves]
        return lmi.pos_def(self.X - COUPLING_MARGIN * (E @ (E.T @ self.X @ E) @ E.T))

    def _performance_block(self, spec):
        g0 = spec.gamma0 * (1.0 - GAMMA_BACKOFF)
        return self._bounded_real(g0) if spec.performance_kind == "hinf" else self._lyapunov()

    def performance(self, spec):
        """(constraints, extra variables) bounding the norm of
        spec.performance_kind by gamma0: the bounded-real block, or the
        Lyapunov block, [[X, C'], [*, Q]] > 0 and trace Q < gamma0^2 (D = 0
        for H2: the specs require Dw = 0, and DKhat Dyw = 0)."""
        g0 = spec.gamma0 * (1.0 - GAMMA_BACKOFF)
        perf = self._neg_def(self._performance_block(spec))
        if spec.performance_kind == "hinf":
            return perf, []
        Q = lmi.MatVar("Q", (self.C.shape[0],) * 2, "symmetric")
        return [*perf,
                lmi.pos_def(lmi.bmat([[self.X, self.C.T], [None, Q]])),
                lmi.neg_def(lmi.trace(Q) - g0 ** 2 * np.eye(1))], [Q]

    def akhat(self, spec, values):
        """AKhat at the solution values of an AKhat-free loop: with L the
        performance block at values and r its rows after the two state
        halves, -(L21 - L2r Lrr^-1 Lr1), which makes the Schur complement
        of Lrr block diagonal.  ReconstructionFailure unless the block
        with that AKhat is negative definite."""
        L = lmi.evaluate(self._performance_block(spec), values)
        h = self.halves
        s1, s2, r = slice(0, h), slice(h, 2 * h), slice(2 * h, None)
        AK = L[s2, r] @ np.linalg.solve(L[r, r], L[r, s1]) - L[s2, s1]
        L[s2, s1] += AK
        L[s1, s2] += AK.T
        top = float(np.linalg.eigvalsh(L)[-1])
        if not top < 0.0:
            raise ReconstructionFailure(
                f"the recovered AKhat leaves the performance block not negative "
                f"definite (largest eigenvalue {top:.3e})")
        return AK

    def channel_bounds(self, G, gamma_max, g=None):
        """[[Gamma_ii, K_i], [*, X]] > 0 for each actuator i, then the caps of
        gamma_max; with g, [[Gamma_ii, sqrt(g) K_i], [*, X]] > 0, which the
        bounded-real block at g bounds without the Lyapunov block."""
        K = self.K if g is None else np.sqrt(g) * self.K
        cons = [lmi.pos_def(lmi.bmat([[G.row(i).col(i), K.row(i)], [None, self.X]]))
                for i in range(self.K.shape[0])]
        if gamma_max is not None:
            cons += [lmi.neg_semidef(G.row(i).col(i) - gamma_max[i] * np.eye(1))
                     for i in range(len(gamma_max))]
        return cons


def _channel_bound_design(spec, loop, variables):
    """Minimize rho . Gamma on ``loop`` under spec's performance blocks,
    X > 0 and the channel bounds Gamma; (VarMap, solution, gamma) with the
    solved bounds clipped to gamma_max.

    H-infinity bounds the channels through the Lyapunov block, which the
    bounded-real block at g0 = gamma0 (1 - GAMMA_BACKOFF) implies only when
    g0 <= 1.  So an improving ray with g0 > 1 is refused only once the
    problem without the Lyapunov block, whose channel blocks carry sqrt(g0),
    is infeasible too (README, Formulation)."""
    G = lmi.MatVar("Gamma", (spec.plant.nu,) * 2, "diagonal")
    perf, extra = loop.performance(spec)
    variables = [*variables, G, *extra]
    objective = lmi.trace(np.diag(spec.rho) @ G)
    hinf = spec.performance_kind == "hinf"  # the H2 blocks hold the Lyapunov block
    cons = [*perf, *(loop.lyapunov() if hinf else []), loop.positive(),
            *loop.channel_bounds(G, spec.gamma_max)]
    try:
        vm, sol = _solve(spec, variables, cons, objective)
    except InfeasiblePerformance:
        g0 = spec.gamma0 * (1.0 - GAMMA_BACKOFF)
        if not hinf or g0 <= 1.0:
            raise
        cons = [*perf, loop.positive(), *loop.channel_bounds(G, spec.gamma_max, g0)]
        vm, sol = _solve(spec, variables, cons, objective)
    gamma = np.diag(vm.value(sol.x, G)).copy()
    if spec.gamma_max is not None:
        gamma = np.minimum(gamma, spec.gamma_max)
    return vm, sol, gamma


def _verify(spec, closed_loop, gamma=None):
    """Check the closed-loop norm of spec's kind against gamma0 and, given
    per-actuator bounds gamma, each channel's H2 norm against sqrt(gamma_i)."""
    if spec.performance_kind == "hinf":
        report = analysis.hinf_norm(closed_loop)
    else:
        report = analysis.h2_norm(closed_loop)
    if report.value >= spec.gamma0 * (1.0 + VERIFY_RTOL):
        raise SynthesisNumericalError(
            f"verification failed: closed-loop {report.kind} norm "
            f"{report.value:.6g} exceeds the bound {spec.gamma0:.6g}")
    if gamma is None:
        return report, None
    channels = analysis.channel_h2_norms(spec.plant, closed_loop)
    for i, rep in enumerate(channels):
        bound = float(np.sqrt(max(gamma[i], 0.0)))
        if rep.value >= bound * (1.0 + VERIFY_RTOL) + 1e-12:
            raise SynthesisNumericalError(
                f"verification failed: channel {i} H2 norm {rep.value:.6g} "
                f"exceeds its bound {bound:.6g}")
    return report, channels


def _recover_gain(vm, sol, X, W):
    Xv = vm.value(sol.x, X)
    Xv = 0.5 * (Xv + Xv.T)
    cond = float(np.linalg.cond(Xv))
    if not np.isfinite(cond) or cond > COND_LIMIT:
        raise SynthesisNumericalError(
            f"certificate matrix is numerically singular at recovery "
            f"(condition number {cond:.3e} > {COND_LIMIT:.0e})", solution=sol)
    K = np.linalg.solve(Xv.T, vm.value(sol.x, W).T).T
    return StateFeedbackGain(K), Xv


def sf_loop(p):
    """The closed loop of u = K x in the variables X and W = K X; (loop, [X, W])."""
    X, W = lmi.MatVar("X", (p.nx, p.nx), "symmetric"), lmi.MatVar("W", (p.nu, p.nx))
    return HatLoop(A=p.A @ X + p.Bu @ W, B=lmi.const(p.Bw), C=p.Cz @ X + p.Du @ W,
                   D=lmi.const(p.Dw), X=X, K=W), [X, W]


def synth_sf(spec: SfSynthesisSpec) -> SfSynthesisResult:
    """Design u = Kx with ||w -> z|| < gamma0 in the norm of
    spec.performance_kind, minimizing rho . Gamma."""
    p = spec.plant
    _check_stabilizable(p)
    _refuse_unattainable(spec, state_feedback=True)
    loop, variables = sf_loop(p)
    vm, sol, gamma = _channel_bound_design(spec, loop, variables)
    gain, Xv = _recover_gain(vm, sol, *variables)
    report, channels = _verify(spec, close_state_feedback(p, gain), gamma)
    return SfSynthesisResult(
        K=gain,
        gamma=gamma,
        objective=float(spec.rho @ gamma),
        verified_closed_loop=report,
        verified_channels=channels,
        X=Xv,
        solution=sol,
    )
