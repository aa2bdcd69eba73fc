"""Model fitting: alternating Newton-Raphson and dispersion search.

Step 1 maximizes h over (theta, v) with the dispersion fixed, solving
H @ delta = score with step-halving.  Step 2 plugs the Step 1 estimates
into the adjusted profile likelihood and maximizes it over the
dispersion parameters alone.  The two steps alternate until the largest
absolute change across all estimates drops below the outer tolerance;
a safeguarded secant mix of the dispersion updates accelerates the
fixed-point iteration when its contraction is slow.

Dispersion parameters are searched on an unconstrained scale
(log sigma, atanh rho, phi as-is) so that boundary solutions such as
rho -> 1 or sigma -> 0 are reachable as limits instead of domain errors.
"""

import math
import operator
from dataclasses import dataclass, field

import numpy as np
import scipy.optimize

from .baselines import WEIBULL, normalize_family
from .data import (
    FRAILTY_LAWS,
    NF,
    RHO_CAP,
    TRANSFORMS,
    FrailtySpec,
    build_design,
    combine,
    normalize_structure,
)
from .errors import (
    CurvatureError,
    DivergedIterateError,
    EvaluationError,
    MPRFrailtyError,
    NonConvergenceError,
)
from .hlik import (
    LOG_2PI,
    Curvature,
    Evaluator,
    _ell2_total,
    _penalty_blocks,
    logdet_pd,
)

# Dispersion estimates below this are treated as boundary solutions.
SIGMA_BOUNDARY = 1e-6

_OBJECTIVE_PENALTY = 1e12

# relative step of the 3-point gradient of the dispersion objective
_FD_STEP = np.finfo(float).eps ** (1 / 3)

# starting value of every dispersion parameter of the alternating algorithm
_START_DISPERSION = 0.1


@dataclass(frozen=True)
class FitSettings:
    """Tolerances and iteration caps for the alternating algorithm."""

    inner_tol: float = 1e-8
    outer_tol: float = 1e-6
    max_outer: int = 200
    max_inner: int = 50
    step_halving_max: int = 20

    def __post_init__(self):
        if not all(math.isfinite(t) and t > 0 for t in (self.inner_tol, self.outer_tol)):
            raise ValueError("tolerances must be finite and positive")
        caps = (self.max_outer, self.max_inner, self.step_halving_max)
        try:
            caps = [operator.index(c) for c in caps]
        except TypeError:
            raise ValueError("iteration caps must be integers") from None
        if min(caps) < 1:
            raise ValueError("iteration caps must be at least 1")


@dataclass
class InnerResult:
    """Stationary point of h for fixed dispersion."""

    x: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    v_beta: np.ndarray
    v_alpha: np.ndarray
    h: float
    ell1_sum: float
    H: Curvature
    iterations: int
    monotone: bool


def _newton(evaluator, x0, settings):
    """Inner Newton-Raphson maximization of h at fixed dispersion."""
    x = np.array(x0, dtype=float)
    monotone = True
    it = 0
    while True:
        parts, g, H = evaluator.h_score_info(x)
        if float(np.max(np.abs(g))) < settings.inner_tol:
            beta, alpha, vb, va = evaluator.unpack(x)
            return InnerResult(
                x=x, beta=beta, alpha=alpha, v_beta=vb, v_alpha=va, h=parts.h,
                ell1_sum=parts.ell1_sum, H=H, iterations=it, monotone=monotone,
            )
        if it >= settings.max_inner:
            raise NonConvergenceError(
                f"inner Newton did not converge in {settings.max_inner} iterations "
                f"(max |score| = {np.max(np.abs(g)):.3g})",
                last=x,
            )
        direction, _ = H.solve_ascent(g)
        # float-noise allowance so near-converged steps are not rejected
        accept_floor = parts.h - 1e-10 * (1.0 + abs(parts.h))
        step = 1.0
        accepted = False
        for _ in range(settings.step_halving_max + 1):
            try:
                h_new = evaluator.h(x + step * direction)
            except (DivergedIterateError, EvaluationError):
                h_new = -np.inf
            if h_new > accept_floor:
                accepted = True
                break
            step *= 0.5
        if not accepted:
            if not np.isfinite(h_new):
                raise NonConvergenceError(
                    "step-halving could not find an evaluable iterate", last=x
                )
            monotone = False  # accepted after exhausting halvings
        x = x + step * direction
        it += 1


# -- dispersion transforms -----------------------------------------------------


def transform_dispersion(structure, values):
    """Map natural dispersion values to the unconstrained search scale."""
    names = FRAILTY_LAWS[normalize_structure(structure)].names
    return np.array([TRANSFORMS[n].to_z(v) for n, v in zip(names, values)])


def back_transform_dispersion(structure, z):
    """Inverse of :func:`transform_dispersion`, with boundary caps."""
    names = FRAILTY_LAWS[normalize_structure(structure)].names
    return tuple(TRANSFORMS[n].from_z(u) for n, u in zip(names, np.asarray(z, dtype=float)))


def _spec_with_z(structure, z):
    values = back_transform_dispersion(structure, z)
    return FrailtySpec(structure=structure,
                       **dict(zip(FRAILTY_LAWS[structure].names, values)))


class _DispersionObjective:
    """Adjusted profile likelihood over transformed dispersion, for batches of points.

    The current (theta, u) estimates stay fixed while the dispersion
    varies, exactly as in the alternating algorithm: Step 2 plugs the
    Step 1 estimates into h and H and searches the dispersion only.  The
    dispersion then enters p through the frailty log-density and the
    frailty precision added to every D_i, and through the data part --
    the ell1 sum and the penalty-free information -- only via the loading
    L (phi under CF, where v_alpha = phi * v_beta).  The data part is
    therefore built once per distinct value of L's parameters, or taken
    from Step 1's kept pass, and a trial point with its gradient stencil
    is one batch: one ell2 expression and one stack of factorizations.
    """

    def __init__(self, family, design, structure, x_fixed):
        self.family = family
        self.design = design
        self.structure = structure
        self.x = np.array(x_fixed, dtype=float)
        self.best = None  # (p, z)
        self.n_eval = 0
        self._law = FRAILTY_LAWS[structure]
        self._from_z = [TRANSFORMS[n].from_z for n in self._law.names]
        self._u = list(self.x[design.m_beta + design.m_alpha:].reshape(self._law.k, design.q))
        self._data = None  # (values of L's parameters, data part at them)
        self._loading = [self._law.names.index(n) for n in self._law.loading_names]

    def _data_part(self, key, disp):
        """(ell1 sum, penalty-free curvature) at x for the values ``key`` of L's parameters.

        Kept for the last key; a key whose evaluation raises leaves it in place.
        """
        if self._data is None or self._data[0] != key:
            ev = Evaluator(self.family, self.design,
                           FrailtySpec(structure=self.structure, **disp))
            self._data = (key, ev.data_part(self.x))
        return self._data[1]

    def profiles(self, Z):
        """p (None where not evaluable) at each row of the transformed points Z, in order.

        Every row counts as an evaluation, and only a strictly better row
        replaces ``best``.  Rows are grouped by the values of L's parameters;
        a group takes one data part, ell2 and log-det call for all its rows.
        """
        Z = np.asarray(Z, dtype=float)
        self.n_eval += len(Z)
        cols = []
        for from_z, col in zip(self._from_z, Z.T.tolist()):
            memo = {}  # from_z once per distinct value
            cols.append([memo[v] if v in memo else memo.setdefault(v, from_z(v)) for v in col])
        groups = {}
        for row, values in enumerate(zip(*cols)):
            if all(map(math.isfinite, values)):  # else outside the domain of FrailtySpec
                groups.setdefault(tuple([values[i] for i in self._loading]), []).append(row)
        out = [None] * len(Z)
        for key, rows in groups.items():
            # the group's dispersion as columns, one entry per row
            disp = {n: [col[r] for r in rows] for n, col in zip(self._law.names, cols)}
            sigs, rhos = self._law.sigma(disp)
            rhos = rhos if self._law.rho else [rhos] * len(rows)
            try:
                ell1_sum, H_data = self._data_part(key, {n: v[0] for n, v in disp.items()})
                ell2 = _ell2_total(sigs, rhos, self.design.q, self._u)
                logdets = logdet_pd(H_data, _penalty_blocks(sigs, rhos)).tolist()
            except (MPRFrailtyError, ValueError):
                continue
            for row, e2, logdet in zip(rows, ell2, logdets):
                if not math.isnan(logdet):
                    out[row] = ell1_sum + e2 - 0.5 * (logdet - H_data.dim * LOG_2PI)
        for z, p in zip(Z, out):
            if p is not None and (self.best is None or p > self.best[0]):
                self.best = (p, z.copy())
        return out

    def value_and_gradient(self, z):
        """(f, g): f = -p at z, the penalty where p is None, and its 3-point gradient.

        One :meth:`profiles` call on [z, z - h_0 e_0, z + h_0 e_0, ...] with
        scipy's step ``h_i = _FD_STEP * max(1, |z_i|)``, signed like z_i.
        """
        z = np.asarray(z, dtype=float).tolist()
        Z = [z]
        for i, v in enumerate(z):
            h = (1.0 if v >= 0 else -1.0) * _FD_STEP * max(1.0, abs(v))
            Z += [z[:i] + [zi] + z[i + 1:] for zi in (v - h, v + h)]
        f = [_OBJECTIVE_PENALTY if p is None else -p for p in self.profiles(Z)]
        g = [(f[2 * i + 2] - f[2 * i + 1]) / (Z[2 * i + 2][i] - Z[2 * i + 1][i])
             for i in range(len(z))]
        return f[0], np.array(g)


@dataclass
class OuterResult:
    spec: FrailtySpec
    profile_loglik: float
    z: np.ndarray
    n_eval: int
    gradient_converged: bool


def outer_dispersion(family, design, structure, z0, x_fixed, effort="tight"):
    """One dispersion update: maximize the adjusted profile likelihood.

    ``z0`` is the starting point on the transformed scale and ``x_fixed``
    the current (theta, v) estimates, which stay fixed during the search.
    Returns the best point found with its back-transformed specification.

    Far from the joint fixed point the alternation overwrites this
    maximizer on the next sweep anyway, so ``effort="loose"`` caps the
    search budget; the convergence decision only trusts a ``tight``
    update that terminated on its gradient criterion.
    """
    obj = _DispersionObjective(family, design, structure, x_fixed)
    p0 = obj.profiles([z0])[0]
    if p0 is None:
        # retry from deterministically perturbed dispersion
        for bump in (0.25, -0.25, 0.5, -0.5, 1.0):
            z_try = np.array(z0, dtype=float) + bump
            p0 = obj.profiles([z_try])[0]
            if p0 is not None:
                z0 = z_try
                break
        else:
            raise NonConvergenceError(
                "adjusted profile likelihood not evaluable near the "
                "starting dispersion"
            )
    # budgets in objective evaluations; maxfun counts trial points, and
    # each trial point also evaluates its 2k-point gradient stencil
    per_trial = 1 + 2 * len(z0)
    if effort == "loose":
        options = {"gtol": 1e-5, "ftol": 1e-12, "maxiter": 15, "maxfun": 40 // per_trial}
    else:
        options = {"gtol": 5e-7, "ftol": 1e-14, "maxiter": 60, "maxfun": 200 // per_trial}
    gradient_converged = False
    try:
        result = scipy.optimize.minimize(
            obj.value_and_gradient,
            np.asarray(z0, dtype=float),
            method="L-BFGS-B",
            jac=True,
            options=options,
        )
        gradient_converged = bool(result.status == 0)
    except (ValueError, FloatingPointError):
        pass  # fall back to the best evaluated point
    p_best, z_best = obj.best
    return OuterResult(
        spec=_spec_with_z(structure, z_best),
        profile_loglik=p_best,
        z=z_best,
        n_eval=obj.n_eval,
        gradient_converged=gradient_converged,
    )


# -- fitted model container ------------------------------------------------------


@dataclass
class ModelFit:
    """A fitted MPR frailty model with everything reporting needs."""

    family: str
    structure: str
    scale_names: list
    shape_names: list
    beta: np.ndarray
    alpha: np.ndarray
    se_beta: np.ndarray
    se_alpha: np.ndarray
    v_beta: np.ndarray
    v_alpha: np.ndarray
    se_v_beta: np.ndarray | None
    se_v_alpha: np.ndarray | None
    dispersion: dict
    se_dispersion: dict
    deviance_profile: float
    cond_deviance: float
    df_r: int
    df_c: float
    converged: bool
    iterations: dict
    cluster_labels: list
    cluster_sizes: np.ndarray
    cov_theta: np.ndarray
    modal_covariates: dict
    binary_covariates: dict
    warnings: list = field(default_factory=list)
    H: Curvature | None = None  # in-process only; not serialized

    @property
    def spec(self):
        return FrailtySpec(structure=self.structure, **self.dispersion)

    @property
    def raic(self):
        return self.deviance_profile + 2.0 * self.df_r

    @property
    def caic(self):
        return self.cond_deviance + 2.0 * self.df_c

    def coefficients(self):
        """(name, estimate, se) rows for the scale then shape blocks."""
        rows = []
        for name, b, se in zip(self.scale_names, self.beta, self.se_beta):
            rows.append(("scale", name, float(b), float(se)))
        for name, a, se in zip(self.shape_names, self.alpha, self.se_alpha):
            rows.append(("shape", name, float(a), float(se)))
        return rows

    def to_dict(self):
        def arr(a):
            return None if a is None else np.asarray(a).tolist()

        return {
            "family": self.family,
            "structure": self.structure,
            "scale_names": list(self.scale_names),
            "shape_names": list(self.shape_names),
            "beta": arr(self.beta),
            "alpha": arr(self.alpha),
            "se_beta": arr(self.se_beta),
            "se_alpha": arr(self.se_alpha),
            "v_beta": arr(self.v_beta),
            "v_alpha": arr(self.v_alpha),
            "se_v_beta": arr(self.se_v_beta),
            "se_v_alpha": arr(self.se_v_alpha),
            "dispersion": {k: float(v) for k, v in self.dispersion.items()},
            "se_dispersion": {k: float(v) for k, v in self.se_dispersion.items()},
            "deviance_profile": float(self.deviance_profile),
            "cond_deviance": float(self.cond_deviance),
            "df_r": int(self.df_r),
            "df_c": float(self.df_c),
            "converged": bool(self.converged),
            "iterations": dict(self.iterations),
            "cluster_labels": [str(c) for c in self.cluster_labels],
            "cluster_sizes": arr(self.cluster_sizes),
            "cov_theta": arr(self.cov_theta),
            "modal_covariates": {k: float(v) for k, v in self.modal_covariates.items()},
            "binary_covariates": {k: bool(v) for k, v in self.binary_covariates.items()},
            "warnings": list(self.warnings),
        }

    @classmethod
    def from_dict(cls, d):
        def arr(a):
            return None if a is None else np.asarray(a, dtype=float)

        return cls(
            family=d["family"],
            structure=d["structure"],
            scale_names=list(d["scale_names"]),
            shape_names=list(d["shape_names"]),
            beta=arr(d["beta"]),
            alpha=arr(d["alpha"]),
            se_beta=arr(d["se_beta"]),
            se_alpha=arr(d["se_alpha"]),
            v_beta=arr(d["v_beta"]),
            v_alpha=arr(d["v_alpha"]),
            se_v_beta=arr(d.get("se_v_beta")),
            se_v_alpha=arr(d.get("se_v_alpha")),
            dispersion=dict(d["dispersion"]),
            se_dispersion=dict(d["se_dispersion"]),
            deviance_profile=float(d["deviance_profile"]),
            cond_deviance=float(d["cond_deviance"]),
            df_r=int(d["df_r"]),
            df_c=float(d["df_c"]),
            converged=bool(d["converged"]),
            iterations=dict(d["iterations"]),
            cluster_labels=list(d["cluster_labels"]),
            cluster_sizes=np.asarray(d["cluster_sizes"], dtype=int),
            cov_theta=arr(d["cov_theta"]),
            modal_covariates=dict(d["modal_covariates"]),
            binary_covariates=dict(d["binary_covariates"]),
            warnings=list(d.get("warnings", [])),
            H=None,
        )


def _empirical_modes(design):
    """Most frequent value per covariate column; ties go to the smaller value."""
    modes = {}
    binary = {}
    for name, col in design.covariate_values.items():
        values, counts = np.unique(col, return_counts=True)
        modes[name] = float(values[np.argmax(counts)])  # first max = smallest value
        binary[name] = bool(np.all(np.isin(values, (0.0, 1.0))))
    return modes, binary


def _num_hessian(f, z, step=1e-4):
    """Central-difference Hessian of a scalar function, symmetric by build.

    ``f`` maps a stack of points to their values; the whole stencil is one call.
    """
    k = len(z)
    e = np.eye(k) * step
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    points = [z] + [p for i in range(k) for p in (z + e[i], z - e[i])] + [
        p for i, j in pairs
        for p in (z + e[i] + e[j], z + e[i] - e[j], z - e[i] + e[j], z - e[i] - e[j])]
    f0, *vals = f(np.array(points))
    Hn = np.diag([(vals[2 * i] - 2.0 * f0 + vals[2 * i + 1]) / step**2 for i in range(k)])
    for n, (i, j) in enumerate(pairs):
        a, b, c, d = vals[2 * k + 4 * n: 2 * k + 4 * n + 4]
        Hn[i, j] = Hn[j, i] = (a - b - c + d) / (4.0 * step**2)
    return Hn


def _dispersion_jacobian(structure, values):
    """d(natural)/d(transformed), diagonal by construction."""
    names = FRAILTY_LAWS[structure].names
    return np.array([TRANSFORMS[n].jacobian(v) for n, v in zip(names, values)])


def _initial_theta(design, settings):
    """Fixed-effects Weibull fit from 0.01 starts, seeding the main fit."""
    ev = Evaluator(WEIBULL, design, FrailtySpec(NF))
    return _newton(ev, np.full(ev.layout.dim, 0.01), settings)


def fit(dataset, structure="BVNF", family="weibull", scale_covariates=None,
        shape_covariates=None, settings=None, theta_init=None):
    """Fit an MPR frailty model by alternating h and profile maximization.

    Parameters
    ----------
    dataset : Dataset
    structure : str
        One of NF, ScF, ShF, IF, CF, BVNF.
    family : str
        Baseline family: weibull, gompertz or loglogistic.
    scale_covariates, shape_covariates : list of str or None
        Covariates entering each component (default: all, both).
    settings : FitSettings or None
    theta_init : array or None
        Override for the fixed-effect starting values; when None, the
        initializer fits a fixed-effects Weibull model from 0.01 starts.
    """
    family = normalize_family(family)
    structure = normalize_structure(structure)
    settings = settings or FitSettings()
    design = build_design(dataset, scale_covariates, shape_covariates)

    fit_warnings = []
    inner_total = 0

    if theta_init is not None:
        theta0 = np.asarray(theta_init, dtype=float)
        if theta0.shape != (design.m_beta + design.m_alpha,):
            raise ValueError("theta_init length does not match the design")
    else:
        init_res = _initial_theta(design, settings)
        inner_total += init_res.iterations
        theta0 = np.concatenate([init_res.beta, init_res.alpha])

    names = FRAILTY_LAWS[structure].names
    if not names:
        # no frailty: one Newton solve, nothing to alternate with
        spec = FrailtySpec(structure)
        res = _newton(Evaluator(family, design, spec), theta0.copy(), settings)
        inner_total += res.iterations
        profile = res.h - 0.5 * (logdet_pd(res.H) - res.H.dim * LOG_2PI)
        return _assemble_fit(
            family, design, spec, res, profile, None,
            converged=True,
            iterations={"outer": 0, "inner_total": inner_total},
            fit_warnings=fit_warnings,
        )

    z = transform_dispersion(structure, [_START_DISPERSION] * len(names))
    spec = _spec_with_z(structure, z)

    ev = Evaluator(family, design, spec)
    start_v = np.full(design.q, 0.01)
    x = ev.layout.pack(theta0[: design.m_beta], theta0[design.m_beta:], start_v, start_v)

    converged = False
    monotone = True
    outer_it = 0
    prev_estimates = None
    last_change = np.inf
    resid_hist = []  # (z_out, residual) of recent iterations
    for outer_it in range(1, settings.max_outer + 1):
        # Step 1: (theta, v) at fixed dispersion
        res = _newton(Evaluator(family, design, spec), x, settings)
        inner_total += res.iterations
        monotone = monotone and res.monotone
        x = res.x
        # Step 2: dispersion at fixed (theta, v); cheap while the
        # alternation is still moving, full precision near the fixed point
        effort = "tight" if last_change < 1e-3 else "loose"
        outer = outer_dispersion(family, design, structure, z, x, effort=effort)
        z_out = outer.z
        estimates = np.concatenate([x, back_transform_dispersion(structure, z_out)])
        if prev_estimates is not None:
            last_change = float(np.max(np.abs(estimates - prev_estimates)))
            if (last_change < settings.outer_tol and effort == "tight"
                    and outer.gradient_converged):
                z = z_out
                spec = outer.spec
                converged = True
                break
        prev_estimates = estimates
        # The alternation is a fixed-point iteration whose contraction rate
        # approaches 1 near a frailty boundary; damp it with a safeguarded
        # secant (Anderson depth-1) mix of the dispersion updates.
        resid = z_out - z
        z_next = z_out
        if resid_hist and np.linalg.norm(resid) <= np.linalg.norm(resid_hist[-1][1]):
            d_resid = resid - resid_hist[-1][1]
            denom = float(d_resid @ d_resid)
            if denom > 1e-20:
                gamma = float(resid @ d_resid) / denom
                cand = z_out - gamma * (z_out - resid_hist[-1][0])
                if np.all(np.isfinite(cand)) and np.max(np.abs(cand - z_out)) < 3.0:
                    z_next = cand
        resid_hist.append((z_out, resid))
        if len(resid_hist) > 1:
            resid_hist.pop(0)
        z = z_next
        spec = _spec_with_z(structure, z)

    # final matched state: re-solve (theta, v) at the final dispersion and
    # evaluate the adjusted profile there
    final = _newton(Evaluator(family, design, spec), x, settings)
    inner_total += final.iterations
    profile_loglik = final.h - 0.5 * (logdet_pd(final.H) - final.H.dim * LOG_2PI)

    if not converged:
        fit_warnings.append(
            f"outer loop stopped at max_outer={settings.max_outer} before the "
            f"{settings.outer_tol} criterion was met"
        )
    if not (monotone and final.monotone):
        fit_warnings.append("inner step-halving accepted a non-increasing step")

    values = back_transform_dispersion(structure, z)
    for name, value in zip(names, values):
        if name.startswith("sigma") and value < SIGMA_BOUNDARY:
            fit_warnings.append(
                f"{name} collapsed to the boundary ({value:.2e}); consider the "
                "reduced structure without this frailty component"
            )
        if name == "rho" and abs(value) >= RHO_CAP:
            fit_warnings.append(
                "rho reached the +-1 boundary cap; consider the CF structure"
            )

    return _assemble_fit(
        family, design, spec, final, profile_loglik, (structure, z, final.x),
        converged=converged,
        iterations={"outer": outer_it, "inner_total": inner_total},
        fit_warnings=fit_warnings,
    )


def _assemble_fit(family, design, spec, inner, profile_loglik, outer_state,
                  converged, iterations, fit_warnings):
    H = inner.H
    lay = H.layout
    try:
        cov_theta, v_blocks = H.inverse_blocks()
    except CurvatureError:
        raise CurvatureError(
            "information matrix not positive definite at the optimum"
        ) from None

    diag = np.concatenate([np.diag(cov_theta)]
                          + [v_blocks[j, j] for j in range(v_blocks.shape[0])])
    if np.any(diag <= 0):
        fit_warnings.append(
            "non-positive variance on the inverse information diagonal; "
            "affected standard errors reported as nan"
        )
        diag[diag <= 0] = np.nan
    se_all = np.sqrt(diag)

    se_beta = se_all[lay.sl_beta]
    se_alpha = se_all[lay.sl_alpha]
    # v_r = L[r, j] u_j for the one non-zero entry of each row of L
    se_u = [se_all[lay.block(j)] for j in range(lay.k)]
    dispersion = spec.dispersion()
    se_v_beta, se_v_alpha = (combine([abs(w) for w in row], se_u.__getitem__)
                             for row in spec.law.loading_at(dispersion))

    # conditional effective degrees of freedom: trace(H^-1 H*)
    df_c = H.df_c(v_blocks)

    se_dispersion = _dispersion_se(family, design, spec, outer_state, fit_warnings)

    modes, binary = _empirical_modes(design)
    return ModelFit(
        family=family,
        structure=spec.structure,
        scale_names=design.scale_names,
        shape_names=design.shape_names,
        beta=inner.beta,
        alpha=inner.alpha,
        se_beta=se_beta,
        se_alpha=se_alpha,
        v_beta=inner.v_beta,
        v_alpha=inner.v_alpha,
        se_v_beta=se_v_beta,
        se_v_alpha=se_v_alpha,
        dispersion=dispersion,
        se_dispersion=se_dispersion,
        deviance_profile=-2.0 * profile_loglik,
        cond_deviance=-2.0 * inner.ell1_sum,
        df_r=spec.df_r,
        df_c=df_c,
        converged=converged,
        iterations=iterations,
        cluster_labels=design.cluster_labels,
        cluster_sizes=design.cluster_sizes,
        cov_theta=cov_theta,
        modal_covariates=modes,
        binary_covariates=binary,
        warnings=fit_warnings,
        H=H,
    )


def _dispersion_se(family, design, spec, outer_state, fit_warnings):
    """Delta-method standard errors for the dispersion estimates.

    The curvature of the adjusted profile likelihood is measured on the
    transformed scale (central differences, step 1e-4) and mapped back.
    """
    names = spec.dispersion_names()
    if not names:
        return {}
    structure, z_hat, x_hat = outer_state
    obj = _DispersionObjective(family, design, structure, x_hat)

    def neg_p(Z):
        values = [_OBJECTIVE_PENALTY if p is None else -p for p in obj.profiles(Z)]
        if any(v >= _OBJECTIVE_PENALTY for v in values):
            raise CurvatureError("profile likelihood not evaluable near optimum")
        return values

    try:
        info_z = _num_hessian(neg_p, np.asarray(z_hat, dtype=float), step=1e-4)
        cov_z = np.linalg.inv(info_z)
        jac = _dispersion_jacobian(structure, spec.dispersion_values())
        cov_nat = (jac[:, None] * cov_z) * jac[None, :]
        var = np.diag(cov_nat).copy()
        bad = var <= 0
        if np.any(bad):
            fit_warnings.append(
                "dispersion information not positive definite; affected "
                "standard errors reported as nan"
            )
            var[bad] = np.nan
        se = np.sqrt(var)
    except (np.linalg.LinAlgError, MPRFrailtyError):
        fit_warnings.append(
            "dispersion standard errors unavailable (curvature evaluation failed)"
        )
        se = np.full(len(names), np.nan)
    return dict(zip(names, (float(s) for s in se)))
