"""Plant and controller records, validation, and closed-loop assembly.

The generalized plant is the continuous-time system

    dx/dt = A x + Bu u + Bw w
        z = Cz x + Du u + Dw w
        y = Cy x + Dyw w          (no direct u -> y feedthrough)

with u the candidate actuator channels, w the disturbances, z the
performance outputs and y the measurements.
"""

from __future__ import annotations

import dataclasses
import json
from dataclasses import dataclass

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


# Each plant matrix with its shape, in the order they are stored.
PLANT_MATRICES = {"A": ("nx", "nx"), "Bu": ("nx", "nu"), "Bw": ("nx", "nw"),
                  "Cz": ("nz", "nx"), "Du": ("nz", "nu"), "Dw": ("nz", "nw"),
                  "Cy": ("ny", "nx"), "Dyw": ("ny", "nw"), "Dyu": ("ny", "nu")}


def store_matrices(record, shapes, defaults=None):
    """Store each field of the frozen ``record`` named in ``shapes`` as a
    read-only, finite, 2-D float copy in its input's memory order (numpy's
    "K"), and return the dimensions.  A shape names its two dimensions, the
    first field to use a name fixes it and later fields must match; a None
    field takes ``defaults[name](dims)``.  A wrong shape raises
    DimensionError, a missing or non-finite entry ValueError, naming the field.
    """
    dims = {}
    for name, shape in shapes.items():
        M = getattr(record, name)
        if M is None and defaults and name in defaults:
            M = defaults[name](dims)
        if M is None:
            raise ValueError(f"{name} is missing")
        M = np.atleast_2d(np.array(M, dtype=float))
        want = tuple(map(dims.setdefault, shape, M.shape[:2]))
        if M.shape != want:
            raise DimensionError(f"{name} must be {want[0]}x{want[1]} ({' x '.join(shape)}), "
                                 f"got {M.shape}")
        if not np.isfinite(M).all():
            raise ValueError(f"{name} must be finite")
        M.setflags(write=False)
        object.__setattr__(record, name, M)
    return dims


def _store_names(record, field, n, prefix):
    """Store record.field as a tuple of n strings; None stands for prefix1, prefix2, ..."""
    names = getattr(record, field)
    if names is None:
        names = [f"{prefix}{i + 1}" for i in range(n)]
    if not isinstance(names, (list, tuple)) or not all(isinstance(s, str) for s in names):
        raise ValueError(f"{field} must be None or a sequence of strings, got {names!r}")
    if len(names) != n:
        raise DimensionError(f"{field}: need {n} names, got {len(names)}")
    object.__setattr__(record, field, tuple(names))


# Cy measures the full state unless given; the D matrices are zero.
_PLANT_DEFAULTS = {"Cy": lambda dims: np.eye(dims["nx"])} | {
    name: lambda dims, r=r, c=c: np.zeros((dims[r], dims[c]))
    for name, (r, c) in PLANT_MATRICES.items() if name.startswith("D")}


@dataclass(frozen=True)
class GeneralizedPlant:
    """Immutable nine-matrix plant record.

    All matrices are stored as read-only, finite float arrays (see
    ``store_matrices``).  The channel names are None, for u1, u2, ... and
    y1, y2, ..., or one string per actuator (sensor).
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
        dims = store_matrices(self, PLANT_MATRICES, _PLANT_DEFAULTS)
        _store_names(self, "actuator_names", dims["nu"], "u")
        _store_names(self, "sensor_names", dims["ny"], "y")

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

    def restricted(self, keep_act, keep_sen):
        """The plant cut down to the actuators ``keep_act`` and the sensors
        ``keep_sen`` (index lists, in the order given), Dyu and names too."""
        return dataclasses.replace(
            self, Bu=self.Bu[:, keep_act], Du=self.Du[:, keep_act], Cy=self.Cy[keep_sen, :],
            Dyw=self.Dyw[keep_sen, :], Dyu=self.Dyu[np.ix_(keep_sen, keep_act)],
            actuator_names=[self.actuator_names[i] for i in keep_act],
            sensor_names=[self.sensor_names[j] for j in keep_sen])


@dataclass(frozen=True)
class StateFeedbackGain:
    """Static gain u = K x."""

    K: np.ndarray

    def __post_init__(self):
        store_matrices(self, {"K": ("nu", "nx")})

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
        store_matrices(self, {"AK": ("nk", "nk"), "BK": ("nk", "ny"),
                              "CK": ("nu", "nk"), "DK": ("nu", "ny")})

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
        store_matrices(self, {"Acl": ("n", "n"), "Bcl": ("n", "nw"), "Ccl": ("nz", "n"),
                              "Dcl": ("nz", "nw"), "Ctilde": ("nu", "n"), "Dtilde": ("nu", "nw")})


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
    return {f.name: np.asarray(getattr(plant, f.name)).tolist()
            for f in dataclasses.fields(GeneralizedPlant)}


def _check_object(d, record):
    """ValueError unless d, read from JSON, is an object (a dict)."""
    if not isinstance(d, dict):
        raise ValueError(f"a {record} must be a JSON object of its matrices, "
                         f"got {type(d).__name__}")


def plant_from_dict(d: dict) -> GeneralizedPlant:
    _check_object(d, "plant")
    return GeneralizedPlant(**{f.name: d.get(f.name)
                               for f in dataclasses.fields(GeneralizedPlant)})


def save_plant(plant: GeneralizedPlant, path):
    with open(path, "w") as f:
        json.dump(plant_to_dict(plant), f, indent=2)


def load_plant(path) -> GeneralizedPlant:
    with open(path) as f:
        return plant_from_dict(json.load(f))


def controller_to_dict(ctrl) -> dict:
    return {f.name: getattr(ctrl, f.name).tolist() for f in dataclasses.fields(ctrl)}


def controller_from_dict(d: dict):
    _check_object(d, "controller")
    record = StateFeedbackGain if "K" in d else DynamicController
    return record(**{f.name: d[f.name] for f in dataclasses.fields(record)})
