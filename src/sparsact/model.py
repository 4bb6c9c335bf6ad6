"""Plant and controller records, validation, and closed-loop assembly.

The generalized plant is the continuous-time system

    dx/dt = A x + Bu u + Bw w
        z = Cz x + Du u + Dw w
        y = Cy x + Dyw w          (no direct u -> y feedthrough)

with u the candidate actuator channels, w the disturbances, z the
performance outputs and y the measurements.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionError

__all__ = [
    "GeneralizedPlant",
    "StateFeedbackGain",
    "DynamicController",
    "ClosedLoop",
    "validate_plant",
    "close_state_feedback",
    "close_output_feedback",
    "close_loop",
    "plant_from_dict",
    "plant_to_dict",
    "load_plant",
    "save_plant",
    "controller_from_dict",
    "controller_to_dict",
]

PBH_EIG_MARGIN = -1e-9
PBH_RANK_RTOL = 1e-8


def _freeze(M):
    M = np.array(M, dtype=float)
    if not np.all(np.isfinite(M)):
        raise ValueError("matrix entries must be finite")
    M.setflags(write=False)
    return M


def _as2d(M, rows, cols, name):
    M = np.atleast_2d(np.asarray(M, dtype=float))
    if M.shape != (rows, cols):
        raise DimensionError(f"{name} must be {rows}x{cols}, got {M.shape}")
    return M


@dataclass(frozen=True)
class GeneralizedPlant:
    """Immutable nine-matrix plant record.

    All matrices are stored as read-only float arrays.  Scalars and nested
    lists are accepted and promoted to 2-D.
    """

    A: np.ndarray
    Bu: np.ndarray
    Bw: np.ndarray
    Cz: np.ndarray
    Du: np.ndarray = None
    Dw: np.ndarray = None
    Cy: np.ndarray = None
    Dyw: np.ndarray = None
    Dyu: np.ndarray = None
    actuator_names: tuple = None
    sensor_names: tuple = None

    def __post_init__(self):
        A = np.atleast_2d(np.asarray(self.A, dtype=float))
        nx = A.shape[0]
        if A.shape != (nx, nx):
            raise DimensionError(f"A must be square, got {A.shape}")
        Bu = np.atleast_2d(np.asarray(self.Bu, dtype=float))
        if Bu.shape[0] != nx:
            raise DimensionError(f"Bu must have {nx} rows, got {Bu.shape}")
        nu = Bu.shape[1]
        Bw = np.atleast_2d(np.asarray(self.Bw, dtype=float))
        if Bw.shape[0] != nx:
            raise DimensionError(f"Bw must have {nx} rows, got {Bw.shape}")
        nw = Bw.shape[1]
        Cz = np.atleast_2d(np.asarray(self.Cz, dtype=float))
        if Cz.shape[1] != nx:
            raise DimensionError(f"Cz must have {nx} columns, got {Cz.shape}")
        nz = Cz.shape[0]
        Du = np.zeros((nz, nu)) if self.Du is None else _as2d(self.Du, nz, nu, "Du")
        Dw = np.zeros((nz, nw)) if self.Dw is None else _as2d(self.Dw, nz, nw, "Dw")
        if self.Cy is None:
            Cy = np.eye(nx)
        else:
            Cy = np.atleast_2d(np.asarray(self.Cy, dtype=float))
            if Cy.shape[1] != nx:
                raise DimensionError(f"Cy must have {nx} columns, got {Cy.shape}")
        ny = Cy.shape[0]
        Dyw = np.zeros((ny, nw)) if self.Dyw is None else _as2d(self.Dyw, ny, nw, "Dyw")
        Dyu = np.zeros((ny, nu)) if self.Dyu is None else _as2d(self.Dyu, ny, nu, "Dyu")
        for name, M in [("A", A), ("Bu", Bu), ("Bw", Bw), ("Cz", Cz), ("Du", Du),
                        ("Dw", Dw), ("Cy", Cy), ("Dyw", Dyw), ("Dyu", Dyu)]:
            object.__setattr__(self, name, _freeze(M))
        act = self.actuator_names or tuple(f"u{i + 1}" for i in range(nu))
        sen = self.sensor_names or tuple(f"y{i + 1}" for i in range(ny))
        if len(act) != nu:
            raise DimensionError(f"need {nu} actuator names, got {len(act)}")
        if len(sen) != ny:
            raise DimensionError(f"need {ny} sensor names, got {len(sen)}")
        object.__setattr__(self, "actuator_names", tuple(act))
        object.__setattr__(self, "sensor_names", tuple(sen))

    @property
    def nx(self):
        return self.A.shape[0]

    @property
    def nu(self):
        return self.Bu.shape[1]

    @property
    def nw(self):
        return self.Bw.shape[1]

    @property
    def nz(self):
        return self.Cz.shape[0]

    @property
    def ny(self):
        return self.Cy.shape[0]


@dataclass(frozen=True)
class StateFeedbackGain:
    """Static gain u = K x."""

    K: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "K", _freeze(np.atleast_2d(np.asarray(self.K, dtype=float))))

    @property
    def nu(self):
        return self.K.shape[0]

    @property
    def nx(self):
        return self.K.shape[1]


@dataclass(frozen=True)
class DynamicController:
    """Dynamic controller (AK, BK, CK, DK) of order NK."""

    AK: np.ndarray
    BK: np.ndarray
    CK: np.ndarray
    DK: np.ndarray

    def __post_init__(self):
        AK = np.atleast_2d(np.asarray(self.AK, dtype=float))
        nk = AK.shape[0]
        if AK.shape != (nk, nk):
            raise DimensionError(f"AK must be square, got {AK.shape}")
        BK = np.atleast_2d(np.asarray(self.BK, dtype=float))
        CK = np.atleast_2d(np.asarray(self.CK, dtype=float))
        DK = np.atleast_2d(np.asarray(self.DK, dtype=float))
        if BK.shape[0] != nk:
            raise DimensionError(f"BK must have {nk} rows, got {BK.shape}")
        if CK.shape[1] != nk:
            raise DimensionError(f"CK must have {nk} columns, got {CK.shape}")
        if DK.shape != (CK.shape[0], BK.shape[1]):
            raise DimensionError(
                f"DK must be {CK.shape[0]}x{BK.shape[1]}, got {DK.shape}")
        for name, M in [("AK", AK), ("BK", BK), ("CK", CK), ("DK", DK)]:
            object.__setattr__(self, name, _freeze(M))

    @property
    def nk(self):
        return self.AK.shape[0]

    @property
    def nu(self):
        return self.CK.shape[0]

    @property
    def ny(self):
        return self.BK.shape[1]


@dataclass(frozen=True)
class ClosedLoop:
    """Closed-loop realization plus the disturbance-to-control output maps.

    (Acl, Bcl, Ccl, Dcl) realizes w -> z; (Acl, Bcl, Ctilde, Dtilde)
    realizes w -> u with one row per actuator channel.
    """

    Acl: np.ndarray
    Bcl: np.ndarray
    Ccl: np.ndarray
    Dcl: np.ndarray
    Ctilde: np.ndarray
    Dtilde: np.ndarray

    def __post_init__(self):
        for name in ("Acl", "Bcl", "Ccl", "Dcl", "Ctilde", "Dtilde"):
            object.__setattr__(
                self, name,
                _freeze(np.atleast_2d(np.asarray(getattr(self, name), dtype=float))))


def validate_plant(plant: GeneralizedPlant):
    """Check stabilizability of (A, Bu), detectability of (A, Cy) and Dyu = 0.

    Uses the PBH rank test, at rank tolerance PBH_RANK_RTOL * max(1, ||A||),
    at every eigenvalue of A whose real part is at least PBH_EIG_MARGIN.
    Returns a list of human-readable diagnostics; an empty list means the
    plant is well posed for synthesis.
    """
    diags = []
    A, Bu, Cy = plant.A, plant.Bu, plant.Cy
    nx = plant.nx
    if np.any(plant.Dyu != 0.0):
        diags.append("Dyu must be identically zero")
    eigs = np.linalg.eigvals(A)
    scale = max(1.0, np.linalg.norm(A, 2))
    for lam in eigs:
        if lam.real < PBH_EIG_MARGIN:
            continue
        pbh_c = np.hstack([lam * np.eye(nx) - A, Bu])
        if np.linalg.matrix_rank(pbh_c, tol=PBH_RANK_RTOL * scale) < nx:
            diags.append(f"unstabilizable mode at {lam:.6g}")
        pbh_o = np.vstack([lam * np.eye(nx) - A, Cy])
        if np.linalg.matrix_rank(pbh_o, tol=PBH_RANK_RTOL * scale) < nx:
            diags.append(f"undetectable mode at {lam:.6g}")
    return diags


def close_state_feedback(plant: GeneralizedPlant, gain) -> ClosedLoop:
    """Interconnect the plant with a static state-feedback gain u = K x."""
    K = gain.K if isinstance(gain, StateFeedbackGain) else np.atleast_2d(np.asarray(gain, dtype=float))
    if K.shape != (plant.nu, plant.nx):
        raise DimensionError(f"K must be {plant.nu}x{plant.nx}, got {K.shape}")
    return ClosedLoop(
        Acl=plant.A + plant.Bu @ K,
        Bcl=plant.Bw,
        Ccl=plant.Cz + plant.Du @ K,
        Dcl=plant.Dw,
        Ctilde=K,
        Dtilde=np.zeros((plant.nu, plant.nw)),
    )


def _zero_within_rounding(M, *factors):
    """M, the computed product of the factors, or exact zeros when its
    Frobenius norm is within the product's rounding error,
    c eps prod ||F||_F with c the sum of the inner dimensions (README.md,
    "Zero feedthrough")."""
    c = sum(F.shape[1] for F in factors[:-1])
    bound = c * np.finfo(float).eps * np.prod([np.linalg.norm(F) for F in factors])
    return np.zeros_like(M) if np.linalg.norm(M) <= bound else M


def close_output_feedback(plant: GeneralizedPlant, ctrl: DynamicController) -> ClosedLoop:
    """Interconnect the plant with a dynamic output-feedback controller.

    The feedthrough products DK Dyw and Du DK Dyw are exact zeros when they
    are zero up to their rounding error.
    """
    if ctrl.ny != plant.ny or ctrl.nu != plant.nu:
        raise DimensionError(
            f"controller io ({ctrl.nu}, {ctrl.ny}) does not match plant ({plant.nu}, {plant.ny})")
    if np.any(plant.Dyu != 0.0):
        raise DimensionError("output feedback requires Dyu = 0")
    A, Bu, Bw = plant.A, plant.Bu, plant.Bw
    Cz, Du, Dw = plant.Cz, plant.Du, plant.Dw
    Cy, Dyw = plant.Cy, plant.Dyw
    AK, BK, CK, DK = ctrl.AK, ctrl.BK, ctrl.CK, ctrl.DK
    Dtilde = _zero_within_rounding(DK @ Dyw, DK, Dyw)
    Acl = np.block([[A + Bu @ DK @ Cy, Bu @ CK], [BK @ Cy, AK]])
    Bcl = np.vstack([Bw + Bu @ Dtilde, BK @ Dyw])
    Ccl = np.hstack([Cz + Du @ DK @ Cy, Du @ CK])
    Dcl = Dw + _zero_within_rounding(Du @ Dtilde, Du, DK, Dyw)
    Ctilde = np.hstack([DK @ Cy, CK])
    return ClosedLoop(Acl=Acl, Bcl=Bcl, Ccl=Ccl, Dcl=Dcl, Ctilde=Ctilde, Dtilde=Dtilde)


def close_loop(plant: GeneralizedPlant, controller) -> ClosedLoop:
    """A ClosedLoop as given; a DynamicController closed by output feedback,
    anything else (a StateFeedbackGain or a gain matrix) by state feedback."""
    if isinstance(controller, ClosedLoop):
        return controller
    if isinstance(controller, DynamicController):
        return close_output_feedback(plant, controller)
    return close_state_feedback(plant, controller)


# ---------------------------------------------------------------------------
# serialization

def plant_to_dict(plant: GeneralizedPlant) -> dict:
    d = {
        "A": plant.A.tolist(),
        "Bu": plant.Bu.tolist(),
        "Bw": plant.Bw.tolist(),
        "Cz": plant.Cz.tolist(),
        "Du": plant.Du.tolist(),
        "Dw": plant.Dw.tolist(),
        "Cy": plant.Cy.tolist(),
        "Dyw": plant.Dyw.tolist(),
        "Dyu": plant.Dyu.tolist(),
        "actuator_names": list(plant.actuator_names),
        "sensor_names": list(plant.sensor_names),
    }
    return d


def plant_from_dict(d: dict) -> GeneralizedPlant:
    return GeneralizedPlant(
        A=d["A"], Bu=d["Bu"], Bw=d["Bw"], Cz=d["Cz"],
        Du=d.get("Du"), Dw=d.get("Dw"), Cy=d.get("Cy"), Dyw=d.get("Dyw"), Dyu=d.get("Dyu"),
        actuator_names=tuple(d["actuator_names"]) if d.get("actuator_names") else None,
        sensor_names=tuple(d["sensor_names"]) if d.get("sensor_names") else None,
    )


def save_plant(plant: GeneralizedPlant, path):
    with open(path, "w") as f:
        json.dump(plant_to_dict(plant), f, indent=2)


def load_plant(path) -> GeneralizedPlant:
    with open(path) as f:
        return plant_from_dict(json.load(f))


def controller_to_dict(ctrl) -> dict:
    if isinstance(ctrl, StateFeedbackGain):
        return {"K": ctrl.K.tolist()}
    return {"AK": ctrl.AK.tolist(), "BK": ctrl.BK.tolist(),
            "CK": ctrl.CK.tolist(), "DK": ctrl.DK.tolist()}


def controller_from_dict(d: dict):
    if "K" in d:
        return StateFeedbackGain(K=d["K"])
    return DynamicController(AK=d["AK"], BK=d["BK"], CK=d["CK"], DK=d["DK"])
