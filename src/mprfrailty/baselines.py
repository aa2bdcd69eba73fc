"""Baseline cumulative-hazard families on the transformed time scale.

Each family supplies the cumulative hazard ``Lambda0``, the hazard
``lambda0`` with its first two derivatives, ``log lambda0`` and the
inverse of ``Lambda0`` (used by inverse-transform simulation).  The model
applies these to the transformed time s = t**gamma, so the Weibull family
is simply the identity cumulative hazard.

:data:`BASELINES` holds one :class:`Baseline` row per family; the
likelihood reads it directly, and :func:`inverse_cumulative_base` adds
input validation for simulation.  Derivatives are hand-coded closed
forms: they sit in the innermost loop of the information-matrix weights,
and finite differences there would be both slow and noisy.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

WEIBULL = "weibull"
GOMPERTZ = "gompertz"
LOGLOGISTIC = "loglogistic"

FAMILIES = (WEIBULL, GOMPERTZ, LOGLOGISTIC)

# exp(s) overflows a float64 well before 710; fail loudly instead of
# letting inf propagate into Newton steps.
GOMPERTZ_MAX_ARG = 700.0

_ALIASES = {
    "weibull": WEIBULL,
    "gompertz": GOMPERTZ,
    "loglogistic": LOGLOGISTIC,
    "log-logistic": LOGLOGISTIC,
    "log_logistic": LOGLOGISTIC,
}


@dataclass(frozen=True)
class Baseline:
    """One family's closed forms in s; each takes an array and checks nothing."""

    cumhaz: object      # Lambda0(s)
    hazard: object      # (lambda0, lambda0', lambda0'')(s)
    log_hazard: object  # log lambda0(s)
    inverse: object     # s with Lambda0(s) = u
    max_s: float        # largest s at which the terms are finite


def _loglogistic_hazard(s):
    inv = 1.0 / (1.0 + s)
    return inv, -inv * inv, 2.0 * inv**3


BASELINES = {
    WEIBULL: Baseline(
        cumhaz=lambda s: s,
        hazard=lambda s: (np.ones_like(s), np.zeros_like(s), np.zeros_like(s)),
        log_hazard=np.zeros_like,
        inverse=lambda u: u,
        max_s=math.inf,
    ),
    GOMPERTZ: Baseline(
        cumhaz=np.expm1,
        hazard=lambda s: (np.exp(s),) * 3,
        log_hazard=lambda s: s,
        inverse=np.log1p,
        max_s=GOMPERTZ_MAX_ARG,
    ),
    LOGLOGISTIC: Baseline(
        cumhaz=np.log1p,
        hazard=_loglogistic_hazard,
        log_hazard=lambda s: -np.log1p(s),
        inverse=np.expm1,
        max_s=math.inf,
    ),
}


def normalize_family(name):
    """Map a family name string to its canonical identifier."""
    key = str(name).strip().lower()
    if key not in _ALIASES:
        raise DomainError(
            f"unknown baseline family {name!r}; expected one of {FAMILIES}"
        )
    return _ALIASES[key]


def _checked(family, s, what):
    """(table row, s as a finite non-negative array)."""
    family = normalize_family(family)
    arr = np.asarray(s, dtype=float)
    if not np.all(np.isfinite(arr)):
        raise DomainError(f"{what} must be finite")
    if np.any(arr < 0):
        raise DomainError(f"{what} must be non-negative")
    return BASELINES[family], arr


def inverse_cumulative_base(family, u):
    """Inverse of the baseline cumulative hazard: s with Lambda0(s) = u.

    Weibull: u; Gompertz: log(1 + u); log-logistic: exp(u) - 1.
    """
    base, arr = _checked(family, u, "u")
    out = np.array(base.inverse(arr))
    return out if np.ndim(u) else float(out)
