"""Named analytic coefficient profiles for media and perturbations."""

from __future__ import annotations

import numpy as np

from .assembly import Medium
from .errors import ConfigInvalid
from .fields import GridField
from .geometry import Grid, is_number

# The keys of a config medium section (:func:`medium_fields`) and of a
# profile besides its name (:func:`profile_from_spec`)
MEDIUM_KEYS = ("q", "V", "kappa", "monotone")
_PROFILE_KEYS = ("value", "amplitude", "center", "radius")


def constant_profile(value: float):
    return lambda pts: np.full(pts.shape[0], float(value))


def radial_quadratic_profile(amplitude: float, center=None):
    """q(x) = 1 + a |x - c|^2; radially monotone for a >= 0."""
    def fn(pts):
        c = np.zeros(pts.shape[1]) if center is None else np.asarray(center, float)
        return 1.0 + amplitude * np.sum((pts - c) ** 2, axis=1)
    return fn


def bump_profile(amplitude: float, center, radius: float):
    """Smooth compactly supported bump a exp(1 - 1/(1 - s^2)), s = |x-c|/rho."""
    def fn(pts):
        c = np.asarray(center, float)
        s2 = np.sum((pts - c) ** 2, axis=1) / radius ** 2
        out = np.zeros(pts.shape[0])
        inside = s2 < 1.0
        out[inside] = amplitude * np.exp(1.0 - 1.0 / (1.0 - s2[inside]))
        return out
    return fn


def profile_from_spec(spec: dict, dim: int):
    """Profile callable on points of ``dim`` coordinates from a config
    fragment {"profile": name, ...}: ``value``, ``amplitude`` and
    ``radius`` are numbers, ``center`` a point of ``dim`` numbers."""
    if not isinstance(spec, dict) or "profile" not in spec \
            or set(spec) - {"profile", *_PROFILE_KEYS}:
        raise ConfigInvalid(f"bad profile spec {spec!r}")
    center = spec.get("center")
    if not all(is_number(spec[key]) for key in ("value", "amplitude", "radius")
               if key in spec) or center is not None and not (
                   isinstance(center, (list, tuple)) and len(center) == dim
                   and all(map(is_number, center))):
        raise ConfigInvalid(f"profile {spec!r}: value, amplitude and radius "
                            f"must be numbers, center a point of {dim}")
    name = spec["profile"]
    if name == "constant":
        return constant_profile(spec.get("value", 0.0))
    if name == "radial_quadratic":
        return radial_quadratic_profile(spec.get("amplitude", 0.25),
                                        spec.get("center"))
    if name == "bump":
        if "center" not in spec or "radius" not in spec:
            raise ConfigInvalid("bump profile needs center and radius")
        return bump_profile(spec.get("amplitude", 1.0), spec["center"],
                            spec["radius"])
    raise ConfigInvalid(f"unknown profile {name!r}")


def medium_fields(med: dict) -> tuple:
    """(q, V, kappa, monotone) of a config medium section, the arguments of
    :func:`make_medium`: its keys are :data:`MEDIUM_KEYS`, kappa is a number
    or absent and the monotone flag a bool (false where absent)."""
    if not isinstance(med, dict) or set(med) - set(MEDIUM_KEYS):
        raise ConfigInvalid("medium section malformed")
    q, v, kappa = med.get("q"), med.get("V"), med.get("kappa")
    monotone = med.get("monotone", False)
    if kappa is not None and not is_number(kappa):
        raise ConfigInvalid(f"medium.kappa {kappa!r} must be a number")
    if not isinstance(monotone, bool):
        raise ConfigInvalid(f"medium.monotone {monotone!r} must be true or "
                            f"false")
    return q, v, kappa, monotone


def make_medium(grid: Grid, q_spec: dict = None, v_spec: dict = None,
                kappa: float = None, monotone: bool = False) -> Medium:
    q_spec = q_spec or {"profile": "constant", "value": 1.0}
    v_spec = v_spec or {"profile": "constant", "value": 0.0}
    q_vals = profile_from_spec(q_spec, grid.dim)(grid.nodes)
    v_vals = profile_from_spec(v_spec, grid.dim)(grid.nodes)
    if kappa is None:
        qmax = float(np.max(q_vals))
        qmin = float(np.min(q_vals))
        kappa = max(qmax, 1.0 / qmin) * 1.001 if qmin > 0 else None
        if kappa is None or kappa <= 1.0:
            kappa = 1.001
    return Medium(q=GridField(grid, q_vals), V=GridField(grid, v_vals),
                  kappa=float(kappa), monotone_flag=monotone)
