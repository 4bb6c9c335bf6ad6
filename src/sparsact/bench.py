"""Benchmark plants, closed-loop time simulation, and sweep studies.

Three plant families:

* ScalarOracle -- the 1-state plant whose optimal designs are known in
  closed form; used to pin down synthesis accuracy.
* MassSpringChain(n) -- standard chain of unit masses and springs with
  light damping; actuators and disturbances act as forces on each mass.
* TensegrityApprox -- a planar cantilever of two three-bar pendulum
  chains cross-linked by nine elastic cables, linearized about its
  documented trim geometry.  Inputs are cable force-density
  perturbations, disturbances are bar torques.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.linalg

from .errors import DimensionError, InfeasiblePerformance, NonHurwitzError, SparsactError
from .model import GeneralizedPlant, close_loop
from .sparsify import ReweightPolicy, prune_and_resolve, reweight_iterate

__all__ = [
    "ScalarOracle",
    "MassSpringChain",
    "TensegrityApprox",
    "SimResult",
    "simulate_closed_loop",
    "gamma_sweep",
]


# ---------------------------------------------------------------------------
# plant catalog


@dataclass(frozen=True)
class ScalarOracle:
    """A=Bu=Bw=Cz=1, everything else zero; optimal gains known analytically."""

    def build(self) -> GeneralizedPlant:
        one = [[1.0]]
        zero = [[0.0]]
        return GeneralizedPlant(A=one, Bu=one, Bw=one, Cz=one, Du=zero,
                                Dw=zero, Cy=one, Dyw=zero)


@dataclass(frozen=True)
class MassSpringChain:
    """n unit masses in a line, unit springs to neighbors and ground ends,
    and the light damping DAMPING on each mass."""

    DAMPING = 0.01
    n: int

    def build(self) -> GeneralizedPlant:
        n = self.n
        if n < 1:
            raise ValueError("chain needs at least one mass")
        K = 2.0 * np.eye(n) - np.eye(n, k=1) - np.eye(n, k=-1)
        A = np.block([
            [np.zeros((n, n)), np.eye(n)],
            [-K, -self.DAMPING * np.eye(n)],
        ])
        Bf = np.vstack([np.zeros((n, n)), np.eye(n)])
        Cz = np.vstack([
            np.hstack([np.eye(n), np.zeros((n, n))]),
            np.zeros((n, 2 * n)),
        ])
        Du = np.vstack([np.zeros((n, n)), 0.1 * np.eye(n)])
        return GeneralizedPlant(
            A=A, Bu=Bf, Bw=Bf, Cz=Cz, Du=Du, Dw=np.zeros((2 * n, n)),
            Cy=np.eye(2 * n), Dyw=np.zeros((2 * n, n)))


def _central_jacobian(f, q, step=1e-6):
    """Jacobian of f at q by central differences, one column per entry of q."""
    cols = []
    for k in range(len(q)):
        qp = q.copy()
        qp[k] += step
        qm = q.copy()
        qm[k] -= step
        cols.append((f(qp) - f(qm)) / (2 * step))
    return np.stack(cols, axis=1)


@dataclass(frozen=True)
class TensegrityApprox:
    """Planar two-chain, nine-cable cantilever approximation.

    Bars: aluminum rods, length 1 m, radius 5 mm.  Cables: 2 mm diameter
    at a 0.26 GPa Young's modulus, zero pretension at trim.  The first
    chain hangs at absolute tip angles (55, -45, 23) degrees from its
    anchor, the second chain is the mirror image from an anchor offset
    vertically; the nine cables connect every free node of one chain to
    every free node of the other.  These values, the joint stiffness, the
    Rayleigh damping and the output weights are class constants.
    """

    BAR_LENGTH = 1.0
    BAR_RADIUS = 5e-3
    BAR_DENSITY = 2700.0
    CABLE_DIAMETER = 2e-3
    CABLE_MODULUS = 0.26e9
    ANCHOR_OFFSET = 1.0
    JOINT_STIFFNESS = 2.0
    RAYLEIGH_ALPHA = 0.05
    RAYLEIGH_BETA = 1e-4
    DISTURBANCE_SCALE = 0.1
    CONTROL_WEIGHT = 0.1

    @property
    def trim_angles(self):
        base = np.deg2rad([55.0, -45.0, 23.0])
        return np.concatenate([base, -base])

    def _nodes(self, q):
        """The four nodes of each chain, anchor first, for absolute angles q."""
        L = self.BAR_LENGTH
        a = [np.array([0.0, 0.0])]
        for k in range(3):
            a.append(a[-1] + L * np.array([math.cos(q[k]), math.sin(q[k])]))
        b = [np.array([0.0, -self.ANCHOR_OFFSET])]
        for k in range(3):
            b.append(b[-1] + L * np.array([math.cos(q[3 + k]), math.sin(q[3 + k])]))
        return a, b

    def cable_lengths(self, q):
        # cable c = 3*i + j connects free node i of chain one to free node
        # j of chain two (i, j in 0..2)
        a, b = self._nodes(q)
        return np.array([np.linalg.norm(a[i + 1] - b[j + 1])
                         for i in range(3) for j in range(3)])

    def _bar_centers(self, q):
        a, b = self._nodes(q)
        return np.concatenate([0.5 * (c[k] + c[k + 1]) for c in (a, b) for k in range(3)])

    @cached_property
    def _trim(self):
        """(M, Gm, lengths, k_cable) at the trim angles: the mass matrix from
        the bar center-of-mass Jacobians plus rod inertia, the cable-length
        Jacobian, the cable lengths and the cable stiffnesses EA / l0."""
        q0 = self.trim_angles
        L = self.BAR_LENGTH
        m = self.BAR_DENSITY * math.pi * self.BAR_RADIUS ** 2 * L
        I_com = m * L ** 2 / 12.0
        J = _central_jacobian(self._bar_centers, q0)
        M = m * (J.T @ J) + I_com * np.eye(6)
        lengths = self.cable_lengths(q0)
        area = math.pi * (self.CABLE_DIAMETER / 2.0) ** 2
        k_cable = self.CABLE_MODULUS * area / lengths  # zero pretension
        return 0.5 * (M + M.T), _central_jacobian(self.cable_lengths, q0), lengths, k_cable

    @cached_property
    def _dynamics(self):
        """(A, Bu, Bw, T): the linearized dynamics in balanced coordinates
        and the diagonal balancing T of the physical angle/rate state.

        The stiffness-to-inertia ratios make raw A entries span four orders
        of magnitude, which the interior-point certificates cannot resolve
        in double precision.  A similarity folded into the input/output
        maps leaves every signal unchanged.
        """
        M, Gm, lengths, k_cable = self._trim
        Kq = Gm.T @ np.diag(k_cable) @ Gm
        # flexural stiffness of the pin joints, on relative angles; without
        # it the mirror-symmetric scissor motion changes no cable length
        D = np.eye(3) - np.eye(3, k=-1)
        Dj = np.block([[D, np.zeros((3, 3))], [np.zeros((3, 3)), D]])
        Kq = Kq + self.JOINT_STIFFNESS * Dj.T @ Dj
        Kq = 0.5 * (Kq + Kq.T)
        Cq = self.RAYLEIGH_ALPHA * M + self.RAYLEIGH_BETA * Kq

        Minv = np.linalg.inv(M)
        A = np.block([
            [np.zeros((6, 6)), np.eye(6)],
            [-Minv @ Kq, -Minv @ Cq],
        ])
        # force-density input sigma_c produces generalized force -|s_c| g_c
        Bu = np.vstack([np.zeros((6, 9)), -Minv @ (Gm.T * lengths)])
        Bw = np.vstack([np.zeros((6, 6)),
                        Minv @ (self.DISTURBANCE_SCALE * np.eye(6))])
        A, T = scipy.linalg.matrix_balance(A)
        Tinv = np.diag(1.0 / np.diag(T))
        return A, Tinv @ Bu, Tinv @ Bw, T

    def build(self) -> GeneralizedPlant:
        A, Bu, Bw, T = self._dynamics
        Cz = np.vstack([np.hstack([np.eye(6), np.zeros((6, 6))]),
                        np.zeros((9, 12))])
        Du = np.vstack([np.zeros((6, 9)), self.CONTROL_WEIGHT * np.eye(9)])
        return GeneralizedPlant(
            A=A, Bu=Bu, Bw=Bw, Cz=Cz @ T, Du=Du, Dw=np.zeros((15, 6)),
            Cy=np.eye(12) @ T, Dyw=np.zeros((12, 6)),
            actuator_names=[f"cable{c + 1}" for c in range(9)],
            sensor_names=[f"angle{k + 1}" for k in range(6)]
            + [f"rate{k + 1}" for k in range(6)])

    def cubic_stiffening(self, strength=10.0):
        """State-dependent extra force for the nonlinear simulation flag.

        Models stiffening cables: tension picks up a cubic term in the
        elongation, so the added generalized force is
        -sum_c k_c * strength * (g_c . dq)^3 * g_c mapped through M^{-1},
        expressed in the same balanced coordinates the plant uses.  The
        balancing, the cable stiffnesses, M^{-1} and the zero position rows
        are folded into two constant matrices, so the term is
        N @ (G @ x)^3 with G mapping the state to cable elongations.
        """
        M, Gm, _, k_cable = self._trim
        t_diag = np.diag(self._dynamics[3])
        G = np.hstack([Gm * t_diag[:6], np.zeros((9, 6))])  # state -> elongations
        N = np.vstack([np.zeros((6, 9)),
                       -np.linalg.solve(M, Gm.T * (k_cable * strength))]) / t_diag[:, None]

        def extra(xstate):
            return N @ ((G @ xstate) ** 3)

        return extra


# ---------------------------------------------------------------------------
# closed-loop simulation


@dataclass(frozen=True)
class SimResult:
    time: np.ndarray
    states: np.ndarray            # (len(time), n_cl)
    controls: np.ndarray          # (len(time), nu)
    peaks: np.ndarray             # per-channel max |u_i(t)|
    disturbance: dict             # descriptor used, seed included


def _disturbance_fn(descriptor, nw, rng):
    """The disturbance d(t) a descriptor names, vectorised in t.

    d(t) has unit norm at every t, except for kind zero and for a sinusoid
    on a single channel, which is cos(omega t).  The returned function maps
    a scalar time to the (nw,) vector d(t) and an array of times to the
    (len(t), nw) array whose rows are d(t) at each time, so a whole time
    grid is evaluated in one call.
    """
    kind = descriptor.get("kind", "step")
    if kind == "zero":
        return lambda t: np.zeros(np.shape(t) + (nw,))
    if kind in ("step", "fixed"):
        d = np.asarray(descriptor.get("direction", np.ones(nw)), dtype=float)
        d = d / max(np.linalg.norm(d), 1e-30)
        return lambda t: np.broadcast_to(d, np.shape(t) + (nw,)).copy()
    if kind == "sinusoid":
        omega = float(descriptor.get("omega", 1.0))
        d = np.asarray(descriptor.get("direction", np.ones(nw)), dtype=float)
        d = d / max(np.linalg.norm(d), 1e-30)
        # two orthogonal phases keep ||d(t)|| = 1 pointwise when possible
        d2 = np.zeros(nw)
        if nw >= 2:
            d2[(np.argmax(np.abs(d)) + 1) % nw] = 1.0
            d2 = d2 - (d2 @ d) * d
            d2 = d2 / max(np.linalg.norm(d2), 1e-30)

        def d_of_t(t):
            wt = omega * np.asarray(t)
            return np.multiply.outer(np.cos(wt), d) + np.multiply.outer(np.sin(wt), d2)

        return d_of_t
    if kind == "noise":
        n_comp = int(descriptor.get("components", 16))
        omegas = rng.uniform(0.05, 5.0, size=n_comp)
        phases = rng.uniform(0.0, 2.0 * math.pi, size=n_comp)
        dirs = rng.standard_normal((n_comp, nw))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)

        def d_of_t(t):
            v = np.sin(np.multiply.outer(t, omegas) + phases) @ dirs
            nv = np.linalg.norm(v, axis=-1, keepdims=True)
            return np.divide(v, nv, out=np.zeros_like(v), where=nv > 1e-12)

        return d_of_t
    raise ValueError(f"unknown disturbance kind {kind!r}")


def simulate_closed_loop(plant: GeneralizedPlant, controller, disturbance=None,
                         horizon=20.0, dt=1e-3, x0=None, nonlinear_extra=None,
                         seed=0) -> SimResult:
    """Fixed-step RK4 simulation of the closed loop.

    `disturbance` is a descriptor dict (kind step|fixed|sinusoid|noise|zero
    plus parameters); `nonlinear_extra`, if given, is a function of the
    plant state appended to the plant state derivative (e.g. cubic cable
    stiffening).  `x0` must have the closed loop's order (plant plus
    controller states for a DynamicController).  Before stepping, the
    disturbance and its input Bcl d(t) are evaluated once on each of the
    three RK4 time grids (t_k, t_k + dt/2 and t_k + dt), so the loop does no
    disturbance work.  Controls Ctilde x + Dtilde d(t_k) are recorded from
    the states after the last step, along with their per-channel peaks.
    """
    cl = close_loop(plant, controller)
    Acl, Bcl = cl.Acl, cl.Bcl
    Ct, Dt = cl.Ctilde, cl.Dtilde
    eigs = np.linalg.eigvals(Acl)
    if np.max(eigs.real) >= 0.0:
        raise NonHurwitzError("closed loop is not asymptotically stable")
    n_cl = Acl.shape[0]
    nx = plant.nx
    xv = np.zeros(n_cl) if x0 is None else np.array(x0, dtype=float)
    if xv.shape != (n_cl,):
        raise DimensionError(
            f"x0 has shape {xv.shape} but the closed loop has order {n_cl} "
            f"({nx} plant and {n_cl - nx} controller states)")
    descriptor = dict(disturbance or {"kind": "step"})
    descriptor.setdefault("seed", seed)
    rng = np.random.default_rng(descriptor["seed"])
    d_of = _disturbance_fn(descriptor, plant.nw, rng)

    def f(xv, bd):
        dx = Acl @ xv + bd
        if nonlinear_extra is not None:
            dx[:nx] += nonlinear_extra(xv[:nx])
        return dx

    steps = int(round(horizon / dt))
    times = np.linspace(0.0, steps * dt, steps + 1)
    d_start = d_of(times)
    b_start = d_start @ Bcl.T
    b_mid = d_of(times[:-1] + dt / 2) @ Bcl.T
    b_end = d_of(times[:-1] + dt) @ Bcl.T
    states = np.empty((steps + 1, n_cl))
    states[0] = xv
    energy_limit = 1e6 * max(1.0, np.linalg.norm(xv))
    energy_limit_sq = energy_limit ** 2
    # an overflow to inf (or an inf - inf to nan) within a step is a blow-up
    # too, caught by the energy check at the end of that step
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(steps):
            k1 = f(xv, b_start[k])
            k2 = f(xv + dt / 2 * k1, b_mid[k])
            k3 = f(xv + dt / 2 * k2, b_mid[k])
            k4 = f(xv + dt * k3, b_end[k])
            xv = xv + dt / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
            if not xv @ xv <= energy_limit_sq:
                raise NonHurwitzError(
                    f"trajectory energy blew past {energy_limit:.1e} at t={times[k]:.3f}; "
                    "the step size is too large for these dynamics")
            states[k + 1] = xv
    controls = states @ Ct.T + d_start @ Dt.T
    return SimResult(time=times, states=states, controls=controls,
                     peaks=np.abs(controls).max(axis=0), disturbance=descriptor)


# ---------------------------------------------------------------------------
# gamma sweeps


def gamma_sweep(spec_for, gamma0_list, policy: ReweightPolicy = ReweightPolicy()):
    """Reweighted synthesis across gamma0 values; one result row per gamma0.

    `spec_for(gamma0)` builds the synthesis spec, and so the design, for a
    given bound.  Rows record the active sets, sparsity values, and
    verified norms; an infeasible gamma0 is recorded and the sweep
    continues.
    """
    if not len(gamma0_list):
        raise ValueError("gamma0_list must be nonempty")
    rows = []
    for g0 in gamma0_list:
        spec = spec_for(float(g0))
        row = {"gamma0": float(g0)}
        try:
            trace = reweight_iterate(spec, policy)
            pruned = prune_and_resolve(trace, spec)
        except SparsactError as exc:
            status = "infeasible" if isinstance(exc, InfeasiblePerformance) else "error"
            row.update(status=status, message=str(exc))
            rows.append(row)
            continue
        row.update(
            status="ok",
            iterations=len(trace),
            active=trace.active_sets[-1],
            values=trace.values[-1],
            **{f"kept_{g}": v for g, v in pruned.kept.items()},
            verified_norm=pruned.result.verified_closed_loop.value,
        )
        rows.append(row)
    return rows


def sweep_to_csv(rows):
    lines = ["gamma0,status,iterations,kept_actuators,kept_sensors,verified_norm,message"]
    for r in rows:
        ka = ";".join(map(str, r.get("kept_actuators", [])))
        ks = ";".join(map(str, r.get("kept_sensors", [])))
        lines.append(
            f"{r['gamma0']!r},{r['status']},{r.get('iterations', '')},"
            f"\"{ka}\",\"{ks}\",{r.get('verified_norm', '')},"
            f"\"{r.get('message', '')}\"")
    return "\n".join(lines) + "\n"
