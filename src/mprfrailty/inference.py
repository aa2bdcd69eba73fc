"""Post-fit reporting: hazard-ratio curves and per-cluster frailties.

For a binary covariate the hazard ratio of a Weibull MPR model has the
closed form

    HR_k(t) = exp(beta_k + alpha_k) * t ** (exp(x_(-k)' alpha) * (exp(alpha_k) - 1)),

where x_(-k) holds the other covariates at their empirical modal values
and the shape random effect sits at its modal value of zero.  For the
other baseline families the ratio of hazards
lambda = tau * gamma * t**(gamma-1) * lambda0(t**gamma) is evaluated
directly on the grid.  Confidence bands come from a parametric bootstrap
that redraws the fixed effects from their asymptotic normal
approximation; dispersion uncertainty is not propagated, which is a
documented limitation of the band.
"""

from dataclasses import dataclass

import numpy as np

from .baselines import BASELINES, WEIBULL, normalize_family
from .data import FRAILTY_LAWS
from .errors import BootstrapError, DomainError, MPRFrailtyError, StructureError


class UnsupportedCovariateError(MPRFrailtyError, ValueError):
    """Hazard ratios are defined here for binary covariates only."""


@dataclass
class HazardRatioCurve:
    # the field order is the key order of the written JSON
    covariate: str
    reference_covariates: dict
    times: np.ndarray
    hr: np.ndarray
    lower: np.ndarray | None
    upper: np.ndarray | None

    def to_rows(self):
        rows = []
        for i, t in enumerate(self.times):
            lo = self.lower[i] if self.lower is not None else None
            hi = self.upper[i] if self.upper is not None else None
            rows.append((float(t), float(self.hr[i]), lo, hi))
        return rows


@dataclass(frozen=True)
class FrailtyInterval:
    cluster: object
    estimate: float
    lower: float
    upper: float
    cluster_size: int
    u: float  # exp(estimate): multiplicative effect on the linked parameter


def _covariate_indices(fit, covariate):
    if covariate not in fit.scale_names or covariate not in fit.shape_names:
        raise UnsupportedCovariateError(
            f"covariate {covariate!r} must appear in both the scale and the "
            "shape component for a hazard ratio"
        )
    return fit.scale_names.index(covariate), fit.shape_names.index(covariate)


def _reference_vectors(fit, covariate):
    """Design rows with x_k = 0 and all other covariates at their modes."""
    if not fit.binary_covariates.get(covariate, False):
        raise UnsupportedCovariateError(
            f"covariate {covariate!r} is not binary (0/1)"
        )
    # in first-appearance order, so that the written curve does not depend on string hashing
    reference = {
        name: (0.0 if name == covariate else fit.modal_covariates[name])
        for name in fit.scale_names + fit.shape_names if name != "(Intercept)"
    }

    def vec(names):
        return np.array([1.0 if name == "(Intercept)" else reference[name] for name in names])

    return vec(fit.scale_names), vec(fit.shape_names), reference


def _hr_values(family, times, beta, alpha, k_scale, k_shape, x_scale, x_shape):
    """Hazard ratios on a time grid, frailties at their modal zeros.

    ``beta`` and ``alpha`` hold one coefficient vector per row; the result
    has one curve per row.
    """
    if family == WEIBULL:
        exponent = np.exp(alpha @ x_shape) * (np.exp(alpha[:, k_shape]) - 1.0)
        return (np.exp(beta[:, k_scale] + alpha[:, k_shape])[:, None]
                * times ** exponent[:, None])
    x_scale1 = x_scale.copy()
    x_scale1[k_scale] = 1.0
    x_shape1 = x_shape.copy()
    x_shape1[k_shape] = 1.0

    def hazard(xs, xa):
        tau = np.exp(beta @ xs)[:, None]
        gamma = np.exp(alpha @ xa)[:, None]
        s = times**gamma
        lam0 = BASELINES[family].hazard(s)[0]
        return tau * gamma * times ** (gamma - 1.0) * lam0

    return hazard(x_scale1, x_shape1) / hazard(x_scale, x_shape)


def _prepare(fit, covariate, times):
    """(times, curves, reference covariates); ``curves(theta)`` gives one HR curve per row."""
    family = normalize_family(fit.family)
    times = np.asarray(times, dtype=float)
    if np.any(times <= 0) or not np.all(np.isfinite(times)):
        raise DomainError("times must be positive and finite")
    k_scale, k_shape = _covariate_indices(fit, covariate)
    x_scale, x_shape, reference = _reference_vectors(fit, covariate)
    m_b = len(fit.beta)

    def curves(theta):
        return _hr_values(family, times, theta[:, :m_b], theta[:, m_b:],
                          k_scale, k_shape, x_scale, x_shape)

    return times, curves, reference


def hazard_ratio_curve(fit, covariate, times):
    """Time-varying hazard ratio for a binary covariate (point values)."""
    times, curves, reference = _prepare(fit, covariate, times)
    theta_hat = np.concatenate([fit.beta, fit.alpha])
    return HazardRatioCurve(
        covariate=covariate, times=times, hr=curves(theta_hat[None])[0],
        lower=None, upper=None, reference_covariates=reference,
    )


def bootstrap_hr_ci(fit, covariate, times, n_boot=1000, seed=0):
    """Hazard-ratio curve with pointwise 95% parametric-bootstrap bands.

    Fixed effects are redrawn from N(theta_hat, cov_theta); each draw
    yields a curve and the band is the pointwise empirical 2.5/97.5
    percentile envelope.  The standard normals come from one generator
    seeded with ``seed`` as an (n_boot, dim) array whose row b is draw b,
    and all draws are evaluated as one batch.
    """
    if n_boot < 100:
        raise DomainError("n_boot must be at least 100 for percentile bands")
    times, curves, reference = _prepare(fit, covariate, times)

    theta_hat = np.concatenate([fit.beta, fit.alpha])
    cov = np.asarray(fit.cov_theta, dtype=float)
    try:
        L = np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        raise BootstrapError(
            "fixed-effect covariance block is not positive definite"
        ) from None

    Z = np.random.default_rng(seed).standard_normal((n_boot, len(theta_hat)))
    boot = curves(theta_hat + Z @ L.T)

    return HazardRatioCurve(
        covariate=covariate, times=times, hr=curves(theta_hat[None])[0],
        lower=np.percentile(boot, 2.5, axis=0),
        upper=np.percentile(boot, 97.5, axis=0),
        reference_covariates=reference,
    )


def frailty_estimates(fit, component):
    """Per-cluster frailty estimates with 95% intervals, small clusters first.

    ``component`` is "scale" or "shape".  Under CF the shape effects are
    phi * v_beta and their interval width scales accordingly (the
    uncertainty in phi itself is not propagated).
    """
    if component not in ("scale", "shape"):
        raise DomainError("component must be 'scale' or 'shape'")
    r = ("scale", "shape").index(component)
    if not FRAILTY_LAWS[fit.structure].present(r):
        raise StructureError(
            f"{component} frailty is structurally absent under {fit.structure}"
        )
    est, se = ((fit.v_beta, fit.se_v_beta), (fit.v_alpha, fit.se_v_alpha))[r]
    if se is None:
        raise StructureError(f"standard errors for {component} frailty missing")

    sizes = np.asarray(fit.cluster_sizes)
    order = np.argsort(sizes, kind="stable")
    out = []
    for i in order:
        half = 1.959963984540054 * float(se[i])
        out.append(
            FrailtyInterval(
                cluster=fit.cluster_labels[i],
                estimate=float(est[i]),
                lower=float(est[i]) - half,
                upper=float(est[i]) + half,
                cluster_size=int(sizes[i]),
                u=float(np.exp(est[i])),
            )
        )
    return out
