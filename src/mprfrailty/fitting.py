"""Model fitting: alternating Newton-Raphson and dispersion search.

Step 1 maximizes h over (theta, v) with the dispersion fixed, solving
H @ delta = score with step-halving.  Step 2 plugs the Step 1 estimates
into the adjusted profile likelihood and maximizes it over the
dispersion parameters alone.  The two steps alternate until the largest
absolute change across all estimates drops below the outer tolerance;
a safeguarded secant mix of the dispersion updates accelerates the
fixed-point iteration when its contraction is slow.

Step 2 is a damped Newton ascent under CF, whose dispersion moves the
data part through phi, and L-BFGS-B under every other structure
(``outer_dispersion``).

Dispersion parameters are searched on an unconstrained scale
(log sigma, atanh rho, phi as-is) so that boundary solutions such as
rho -> 1 or sigma -> 0 are reachable as limits instead of domain errors.
The structure's ``data.FrailtyLaw`` holds that scale, its caps and
Jacobian, and the warnings for a fit that ends at a boundary.  Every
structure takes the same path; NF, with no dispersion, runs no sweep.
CF and BVNF can start on their fitted face (``FACES``), with the default
start as the fallback; the larger p is the fit (``fit``).
"""

import contextlib
import math
import operator
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .baselines import WEIBULL, normalize_family
from .data import (
    BVNF,
    CF,
    FRAILTY_LAWS,
    IF,
    NF,
    SCF,
    FrailtySpec,
    build_design,
    combine,
    normalize_structure,
    plain,
)
from .errors import (
    CurvatureError,
    DataError,
    DivergedIterateError,
    DomainError,
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

_OBJECTIVE_PENALTY = 1e12

# relative step of the 3-point gradient of the dispersion objective
_FD_STEP = float(np.finfo(float).eps ** (1 / 3))

# starting value of every dispersion parameter of the alternating algorithm
_START_DISPERSION = 0.1

# the step of the central-difference Hessian stencil on the search scale, for
# Step 2's Newton search and the dispersion SEs of the fit's tail
_STENCIL_STEP = 1e-4

# the exact faces on the search scale: a structure with its one extra dispersion
# parameter at 0 is its face (CF at phi = 0 is ScF, BVNF at rho = 0 is IF)
FACES = {CF: SCF, BVNF: IF}

INNER_TOL = 1e-8       # the inner Newton stops when max |score| falls below this
MAX_INNER = 50         # inner Newton iterations before NonConvergenceError
STEP_HALVING_MAX = 20  # halvings of one inner Newton step
OUTER_TOL = 1e-6       # the outer loop stops when no estimate moved more in a sweep


@dataclass(frozen=True)
class FitSettings:
    """The outer-sweep cap, the one option of the alternating algorithm."""

    max_outer: int = 200

    def __post_init__(self):
        try:
            if isinstance(self.max_outer, bool):
                raise TypeError
            if operator.index(self.max_outer) < 1:
                raise ValueError("iteration caps must be at least 1")
        except TypeError:
            raise ValueError(f"iteration caps must be integers, got {self.max_outer!r}") from None


@dataclass
class InnerResult:
    """Stationary point of h for fixed dispersion."""

    x: np.ndarray
    beta: np.ndarray
    alpha: np.ndarray
    v_beta: np.ndarray
    v_alpha: np.ndarray
    ell1_sum: float
    H: Curvature
    iterations: int
    monotone: bool


def _newton(evaluator, x0):
    """Inner Newton-Raphson maximization of h at fixed dispersion."""
    x = np.array(x0, dtype=float)
    monotone = True
    it = 0
    while True:
        parts, g, H = evaluator.h_score_info(x)
        if float(np.max(np.abs(g))) < INNER_TOL:
            beta, alpha, vb, va = evaluator.unpack(x)
            return InnerResult(
                x=x, beta=beta, alpha=alpha, v_beta=vb, v_alpha=va,
                ell1_sum=parts.ell1_sum, H=H, iterations=it, monotone=monotone,
            )
        if it >= MAX_INNER:
            raise NonConvergenceError(
                f"inner Newton did not converge in {MAX_INNER} iterations "
                f"(max |score| = {np.max(np.abs(g)):.3g})")
        direction, _ = H.solve_ascent(g)
        # float-noise allowance so near-converged steps are not rejected
        accept_floor = parts.h - 1e-10 * (1.0 + abs(parts.h))
        step = 1.0
        accepted = False
        for _ in range(STEP_HALVING_MAX + 1):
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
                raise NonConvergenceError("step-halving could not find an evaluable iterate")
            monotone = False  # accepted after exhausting halvings
        x = x + step * direction
        it += 1


def _spec_with_z(structure, z):
    """The specification at the search-scale point z, capped at the boundaries."""
    law = FRAILTY_LAWS[structure]
    values = law.from_z(np.asarray(z, dtype=float)[None])[:, 0].tolist()
    return FrailtySpec(structure, **dict(zip(law.names, values)))


def _hessian_stencil(z):
    """z, z +- h e_i, then z +- h e_i +- h e_j for i < j (h = _STENCIL_STEP): a Hessian's rows."""
    k = len(z)
    e = np.eye(k) * _STENCIL_STEP
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    return np.array([z] + [p for i in range(k) for p in (z + e[i], z - e[i])] + [
        p for i, j in pairs
        for p in (z + e[i] + e[j], z + e[i] - e[j], z - e[i] + e[j], z - e[i] - e[j])])


def _central_hessian(values, k):
    """The Hessian from values at the rows of :func:`_hessian_stencil`, symmetric by build."""
    pairs = [(i, j) for i in range(k) for j in range(i + 1, k)]
    f0, *vals = values
    h2 = _STENCIL_STEP**2
    Hn = np.diag([(vals[2 * i] - 2.0 * f0 + vals[2 * i + 1]) / h2 for i in range(k)])
    for n, (i, j) in enumerate(pairs):
        a, b, c, d = vals[2 * k + 4 * n: 2 * k + 4 * n + 4]
        Hn[i, j] = Hn[j, i] = (a - b - c + d) / (4.0 * h2)
    return Hn


# the shifts of a start point tried, in order, when p is not evaluable there
_START_BUMPS = (0.25, -0.25, 0.5, -0.5, 1.0)


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

    A batch is a fixed number of numpy calls: the transforms act on whole
    columns, ell2's quadratic forms are one (npts, q) expression, each
    point's constants are scalar arithmetic, and the log-dets one stack.
    """

    def __init__(self, family, design, structure, x_fixed):
        self.family = family
        self.design = design
        self.structure = structure
        self.x = np.array(x_fixed, dtype=float)
        self.best = None  # (p, z)
        self.n_eval = 0
        self._law = law = FRAILTY_LAWS[structure]
        self._u = self.x[design.m_beta + design.m_alpha:].reshape(law.k, design.q)
        self._data = None  # (values of L's parameters, data part at them)
        # the rows of L's parameters among the dispersion values, whose first k
        # rows are the standard deviations and row k the correlation, if any
        self._loading = [law.names.index(n) for n in law.loading_names]
        self._first = None  # (z, f, g) of L-BFGS-B's start, for its first call

    def _data_part(self, key, values):
        """(ell1 sum, penalty-free curvature) at x for the values ``key`` of L's parameters.

        ``values`` holds one value of each dispersion parameter with those
        values of L's.  Kept for the last key; a key whose evaluation raises
        leaves it in place.
        """
        if self._data is None or self._data[0] != key:
            disp = dict(zip(self._law.names, values.tolist()))
            ev = Evaluator(self.family, self.design, FrailtySpec(structure=self.structure, **disp))
            self._data = (key, ev.data_part(self.x))
        return self._data[1]

    def _values(self, Z):
        """p at each row of the transformed points Z (nan where not evaluable), as a list.

        Rows are grouped by the values of L's parameters, in order of first
        appearance; a group takes one data part, ell2 and log-det call for
        all its rows.  Neither counts evaluations nor keeps a best point.
        """
        values = self._law.from_z(Z)
        # a row with a non-finite value is outside the domain of FrailtySpec
        rows = list(range(len(Z)))
        if not np.isfinite(values).all():
            rows = np.flatnonzero(np.isfinite(values).all(axis=0)).tolist()
        groups = {}
        if self._loading:
            keys = values[self._loading].T.tolist()
            for row in rows:
                groups.setdefault(tuple(keys[row]), []).append(row)
        elif rows:
            groups[()] = rows
        out = [math.nan] * len(Z)
        k = self._law.k
        for key, group in groups.items():
            disp = values if len(group) == len(Z) else values[:, group]
            rho = disp[k] if self._law.rho else np.zeros(len(group))
            try:
                ell1_sum, H_data = self._data_part(key, disp[:, 0])
                ell2 = _ell2_total(disp[:k], rho, self.design.q, self._u)
                logdets = logdet_pd(H_data, _penalty_blocks(disp[:k], rho)).tolist()
            except (MPRFrailtyError, ValueError):
                continue
            for row, e2, logdet in zip(group, ell2, logdets):
                out[row] = ell1_sum + e2 - 0.5 * (logdet - H_data.dim * LOG_2PI)
        return out

    def _record(self, Z, p):
        """Count the rows of Z as evaluations; a strictly better row replaces ``best``."""
        self.n_eval += len(p)
        for i, v in enumerate(p):
            if not math.isnan(v) and (self.best is None or v > self.best[0]):
                self.best = (v, Z[i].copy())

    def _stencil(self, z):
        """(Z, p, f, g) for the rows Z = [z, z - h_0 e_0, z + h_0 e_0, ...] as one batch.

        scipy's 3-point step ``h_i = _FD_STEP * max(1, |z_i|)``, signed like
        z_i; p at each row as :meth:`_values` gives it, f = -p at z (the
        penalty where p is nan) and g its 3-point gradient.  Nothing is
        counted or kept.
        """
        z = z.tolist()
        Z, widths = [z], []
        for i, v in enumerate(z):
            h = (1.0 if v >= 0 else -1.0) * _FD_STEP * max(1.0, abs(v))
            lo, hi = v - h, v + h
            Z += [z[:i] + [lo] + z[i + 1:], z[:i] + [hi] + z[i + 1:]]
            widths.append(hi - lo)
        Z = np.array(Z)
        p = self._values(Z)
        f = [_OBJECTIVE_PENALTY if math.isnan(v) else -v for v in p]
        g = np.array([(f[2 * i + 2] - f[2 * i + 1]) / w for i, w in enumerate(widths)])
        return Z, p, f[0], g

    def value_and_gradient(self, z):
        """(f, g): f = -p at z, the penalty where p is None, and its 3-point gradient.

        One :meth:`_stencil` batch.  The first call at the point whose
        stencil L-BFGS-B's start kept (``_first``) returns what was kept.
        """
        z = np.asarray(z, dtype=float)
        first, self._first = self._first, None
        if first is not None and np.array_equal(z, first[0]):
            return first[1:]
        Z, p, f, g = self._stencil(z)
        self._record(Z, p)
        return f, g

    def start(self, z0, batch):
        """(z, batch(z)) for the first of z0 and its ``_START_BUMPS`` shifts at which p is evaluable.

        ``batch(z)`` gives (Z, p, ...) with z as row 0.  A candidate whose
        p is None counts as one evaluation, and its other rows are dropped;
        the first evaluable one counts its batch.
        """
        z0 = np.asarray(z0, dtype=float)
        for z in [z0] + [z0 + bump for bump in _START_BUMPS]:
            out = batch(z)
            Z, p = out[:2]
            if not math.isnan(p[0]):
                self._record(Z, p)
                return z, out
            self._record(Z[:1], p[:1])
        raise NonConvergenceError(
            "adjusted profile likelihood not evaluable near the starting dispersion")

    # Step 2's own reference to the rows, so that replacing the module's
    # _hessian_stencil changes the fit's tail alone
    _hessian_rows = staticmethod(_hessian_stencil)

    def hessian_batch(self, z):
        """(Z, p): p at the rows Z of the central-difference Hessian stencil around z, as one batch.

        Nothing is counted or kept.
        """
        Z = self._hessian_rows(np.asarray(z, dtype=float))
        return Z, self._values(Z)


# Step 2 by damped Newton (structures whose loading has parameters): the
# largest step on the search scale, the halvings of one step and the steps
# of a tight search.  A tight search stops on the Newton decrement g'd below
# _NEWTON_TOL: the step it leaves, at most sqrt(g'd / curvature), is below
# OUTER_TOL for curvatures down to 0.1
_NEWTON_MAX_STEP = 1.0
_NEWTON_HALVINGS = 8
_NEWTON_MAX_ITER = 30
_NEWTON_TOL = 1e-13


def _newton_direction(p, k):
    """(d, g'd): the modified Newton ascent direction of p from its values at a Hessian stencil.

    g and the Hessian are central differences (step ``_STENCIL_STEP``);
    eigenvalues of -Hessian below a floor relative to the largest are
    raised to it, so d is an ascent direction where p is not concave.
    """
    g = np.array([(p[1 + 2 * i] - p[2 + 2 * i]) / (2.0 * _STENCIL_STEP) for i in range(k)])
    w, Q = np.linalg.eigh(-_central_hessian(p, k))
    w = np.maximum(w, 1e-6 * max(1.0, float(np.max(np.abs(w)))))
    d = Q @ ((Q.T @ g) / w)
    return d, float(g @ d)


def _newton_search(obj, z0, effort):
    """Damped Newton ascent of p from z0; True where it stopped on the Newton decrement.

    Each iteration evaluates the Hessian stencil around z as one batch;
    the step is capped at ``_NEWTON_MAX_STEP`` on the search scale and
    halved until p at the trial point, one row, does not fall below p at z.
    A loose search takes one accepted step; a tight one iterates until
    g'd < ``_NEWTON_TOL``.  Stops without a step where a stencil row is not
    evaluable or no halving is accepted.
    """
    z, (Z, p) = obj.start(z0, obj.hessian_batch)
    k = len(z)
    for it in range(1 if effort == "loose" else _NEWTON_MAX_ITER):
        if it:
            Z, p = obj.hessian_batch(z)
            obj._record(Z, p)
        if any(math.isnan(v) for v in p):
            return False
        d, decrement = _newton_direction(p, k)
        if decrement < _NEWTON_TOL:
            return True
        d *= min(1.0, _NEWTON_MAX_STEP / float(np.max(np.abs(d))))
        for _ in range(_NEWTON_HALVINGS + 1):
            trial = (z + d)[None]
            p_trial = obj._values(trial)
            obj._record(trial, p_trial)
            if p_trial[0] >= p[0]:
                break
            d *= 0.5
        else:
            return False
        z = trial[0]
    return False


def _lbfgsb_search(obj, z0, effort):
    """L-BFGS-B on the 3-point gradient from z0; True where it met its gradient test."""
    # z0, or where it is not evaluable a deterministically perturbed start; its
    # stencil also serves L-BFGS-B's first evaluation
    z0, (_, _, f, g) = obj.start(z0, obj._stencil)
    obj._first = (z0, f, g)
    # budgets in objective evaluations; maxfun counts trial points, and
    # each trial point also evaluates its 2k-point gradient stencil
    per_trial = 1 + 2 * len(z0)
    if effort == "loose":
        options = {"gtol": 1e-5, "ftol": 1e-12, "maxiter": 15, "maxfun": 40 // per_trial}
    else:
        options = {"gtol": 5e-7, "ftol": 1e-14, "maxiter": 60, "maxfun": 200 // per_trial}
    # imported here, its only use, so that a process that never fits does not
    # pay for scipy.optimize; the attribute is looked up at call time
    import scipy.optimize

    try:
        result = scipy.optimize.minimize(
            obj.value_and_gradient,
            z0,
            method="L-BFGS-B",
            jac=True,
            options=options,
        )
    except (ValueError, FloatingPointError):
        return False  # fall back to the best evaluated point
    return bool(result.status == 0)


@dataclass
class OuterResult:
    spec: FrailtySpec
    z: np.ndarray
    n_eval: int
    gradient_converged: bool


def outer_dispersion(family, design, structure, z0, x_fixed, effort="tight"):
    """One dispersion update: maximize the adjusted profile likelihood.

    ``z0`` is the starting point on the transformed scale and ``x_fixed``
    the current (theta, v) estimates, which stay fixed during the search.
    Returns the best point found with its back-transformed specification.

    A structure whose loading L has parameters (CF's phi) searches by
    damped Newton (``_newton_search``): there every distinct value of L
    costs a record pass, and one Newton iteration needs three (its Hessian
    stencil), against three for each L-BFGS-B trial point.  Every other
    structure searches by L-BFGS-B on the 3-point gradient
    (``_lbfgsb_search``), where a trial point costs no record pass.

    Far from the joint fixed point the alternation overwrites this
    maximizer on the next sweep anyway, so ``effort="loose"`` caps the
    search (L-BFGS-B's budget, or one accepted Newton step); the
    convergence decision only trusts a ``tight`` update that terminated
    on its gradient criterion (L-BFGS-B's, or the Newton decrement).
    """
    obj = _DispersionObjective(family, design, structure, x_fixed)
    if FRAILTY_LAWS[structure].loading_names:
        gradient_converged = _newton_search(obj, z0, effort)
    else:
        gradient_converged = _lbfgsb_search(obj, z0, effort)
    z_best = obj.best[1]
    return OuterResult(
        spec=_spec_with_z(structure, z_best),
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
        """Restricted AIC: -2 p(h) + 2 df_r, with df_r the number of dispersion parameters.

        -2 p(h) is ``deviance_profile``: p at the alternation's fixed point, a
        root of dp/dz with (theta, v) held at their Step 1 solution, not a
        certified maximum of p.  rAIC differences inherit the gap; a richer
        fit can end above a nested one, which ``compare``'s note flags.
        """
        return self.deviance_profile + 2.0 * self.df_r

    @property
    def caic(self):
        """Conditional AIC: -2 sum(ell1) + 2 df_c, with df_c = trace(H^-1 H*)."""
        return self.cond_deviance + 2.0 * self.df_c

    def to_dict(self):
        """Every field but ``H``, as JSON types; a non-finite float is None, as written."""
        return {f.name: plain(getattr(self, f.name)) for f in fields(self) if f.name != "H"}

    @classmethod
    def from_dict(cls, d):
        """Inverse of :meth:`to_dict`; DataError when a field is missing or has the wrong type.

        A null number reads as nan, the value written for a non-finite float.
        A written fit never holds a non-finite estimate, so a null or nan in
        the estimates, the frailties, ``cov_theta`` or the dispersion is a
        DataError too; standard errors and deviances may be nan.  So is a
        length that disagrees with the names: the coefficients and their
        SEs with ``scale_names`` or ``shape_names``, the frailties, their
        SEs and ``cluster_sizes`` with ``cluster_labels``, and ``cov_theta``
        with both coefficient blocks (m x m).  The names must be strings,
        ``modal_covariates`` must map every covariate in them to a finite
        number, and ``binary_covariates`` every one to true or false.  The
        family and the structure must be known names; they read in canonical form.
        ``dispersion`` and ``se_dispersion`` must map the structure's
        dispersion names, and no other, to numbers, ``df_r`` must count
        them, and ``cluster_sizes`` must hold positive integers.
        """
        if not isinstance(d, dict):
            raise DataError(f"a fit must be a JSON object, got {type(d).__name__}")
        missing = [f.name for f in fields(cls) if f.default is MISSING
                   and f.default_factory is MISSING and f.name not in d]
        if missing:
            raise DataError(f"fit field(s) missing: {', '.join(missing)}")

        def typed(name, kind):
            if not isinstance(d[name], kind):
                raise DataError(f"fit field {name!r} has the wrong type: {d[name]!r}")
            return d[name]

        def array(name, ndim=1):
            try:
                out = np.asarray(typed(name, list), dtype=float)
            except (TypeError, ValueError):
                out = None
            if out is None or out.ndim != ndim:
                raise DataError(f"fit field {name!r} is not a {ndim}-d numeric array")
            return out

        def finite(name, out):
            if not np.all(np.isfinite(out)):
                raise DataError(f"fit field {name!r} holds a non-finite value")
            return out

        def number(name, value):
            # true and false are ints to Python, but never a number a fit writes
            if isinstance(value, bool) or not isinstance(value, (int, float, type(None))):
                raise DataError(f"fit field {name!r} has the wrong type: {value!r}")
            return math.nan if value is None else float(value)

        kw = {"family": normalize_family(typed("family", str)),
              "structure": normalize_structure(typed("structure", str))}
        kw |= {n: list(typed(n, list)) for n in ("scale_names", "shape_names", "cluster_labels")}
        for n in ("scale_names", "shape_names"):
            if not all(isinstance(name, str) for name in kw[n]):
                raise DataError(f"fit field {n!r} holds a name that is not a string")
        kw |= {n: dict(typed(n, dict)) for n in (
            "dispersion", "se_dispersion", "iterations", "modal_covariates", "binary_covariates")}
        keys = FRAILTY_LAWS[kw["structure"]].names
        for n in ("dispersion", "se_dispersion"):
            if kw[n].keys() != set(keys):
                raise DataError(f"fit field {n!r} has the keys {sorted(kw[n])}, not {list(keys)}")
            kw[n] = {k: number(n, kw[n][k]) for k in keys}
        finite("dispersion", list(kw["dispersion"].values()))
        if type(d["df_r"]) is not int or d["df_r"] != len(keys):
            raise DataError(f"fit field 'df_r' is {d['df_r']!r}, "
                            f"not the dispersion's count {len(keys)}")
        kw |= {n: finite(n, array(n)) for n in ("beta", "alpha", "v_beta", "v_alpha")}
        kw |= {n: array(n) for n in ("se_beta", "se_alpha")}
        kw |= {n: None if d[n] is None else array(n) for n in ("se_v_beta", "se_v_alpha")}
        kw |= {n: number(n, d[n]) for n in ("deviance_profile", "cond_deviance", "df_c")}
        if not all(type(size) is int and size > 0 for size in typed("cluster_sizes", list)):
            raise DataError("fit field 'cluster_sizes' holds a size that is not an integer >= 1")
        kw["cluster_sizes"] = np.array(d["cluster_sizes"], dtype=int)
        for names, members in (("scale_names", ("beta", "se_beta")),
                               ("shape_names", ("alpha", "se_alpha")),
                               ("cluster_labels", ("v_beta", "v_alpha", "se_v_beta",
                                                   "se_v_alpha", "cluster_sizes"))):
            for n in members:
                if kw[n] is not None and len(kw[n]) != len(kw[names]):
                    raise DataError(f"fit field {n!r} has length {len(kw[n])}, "
                                    f"but {names!r} has {len(kw[names])}")
        m = len(kw["scale_names"]) + len(kw["shape_names"])
        cov_theta = finite("cov_theta", array("cov_theta", ndim=2))
        if cov_theta.shape != (m, m):
            raise DataError(f"fit field 'cov_theta' is {cov_theta.shape[0]} x "
                            f"{cov_theta.shape[1]}, not {m} x {m}")
        covariates = set(kw["scale_names"] + kw["shape_names"]) - {"(Intercept)"}
        for n, what, ok in (
                ("modal_covariates", "a finite number", lambda v: isinstance(
                    v, (int, float)) and not isinstance(v, bool) and math.isfinite(v)),
                ("binary_covariates", "true or false", lambda v: isinstance(v, bool))):
            missing = sorted(covariates - kw[n].keys())
            if missing:
                raise DataError(f"fit field {n!r} has no entry for {', '.join(missing)}")
            for key, value in kw[n].items():
                if not ok(value):
                    raise DataError(f"fit field {n!r} holds {value!r} for {key!r}, not {what}")
        return cls(**kw, df_r=d["df_r"], converged=typed("converged", bool),
                   cov_theta=cov_theta,
                   warnings=list(typed("warnings", list)) if "warnings" in d else [])


def _empirical_modes(dataset):
    """Most frequent value per covariate column; ties go to the smaller value."""
    modes = {}
    binary = {}
    for name, col in zip(dataset.covariate_names, dataset.covariates.T):
        values, counts = np.unique(col, return_counts=True)
        modes[name] = float(values[np.argmax(counts)])  # first max = smallest value
        binary[name] = bool(np.all(np.isin(values, (0.0, 1.0))))
    return modes, binary


def _initial_theta(design):
    """Fixed-effects Weibull fit from 0.01 starts, seeding the main fit."""
    ev = Evaluator(WEIBULL, design, FrailtySpec(NF))
    return _newton(ev, np.full(ev.layout.dim, 0.01))


def fit(dataset, structure="BVNF", family="weibull", scale_covariates=None,
        shape_covariates=None, settings=None, start=None):
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
    start : ModelFit or None
        A fit of the structure's face (``FACES``: ScF for CF, IF for BVNF)
        of the same family, covariates and clusters; ``compare`` passes
        its own.  Without it CF fits its ScF face first.

    Without ``start`` a fit runs from one default: the fixed effects from a
    fixed-effects Weibull fit from 0.01 starts, the frailties at 0.01 and
    every dispersion parameter at 0.1; from there CF drifts towards its ShF
    limit at sigma_beta -> 0, |phi| -> inf.  A run from a face starts at
    the face fit's (theta, v) and dispersion, with the parameter the face
    lacks (phi, rho) at 0.  Where it raises or does not converge, the
    default start runs too and the fit is the end with the larger p (the
    lower ``deviance_profile``), converged or not; it raises only where
    both runs raise, with the default run's error.  A fit from the face
    names it in ``iterations["start"]``.  ``inner_total`` counts the
    returned alternation alone.
    """
    family = normalize_family(family)
    structure = normalize_structure(structure)
    settings = settings or FitSettings()
    design = build_design(dataset, scale_covariates, shape_covariates)
    if start is not None:
        _check_start(start, structure, family, design)
    elif structure == CF:
        with contextlib.suppress(MPRFrailtyError):
            start = _finish(family, design, dataset, _alternate(family, design, SCF, settings))
    if start is None:
        return _finish(family, design, dataset, _alternate(family, design, structure, settings))
    ends = []
    with contextlib.suppress(MPRFrailtyError):
        ends.append(_alternate(family, design, structure, settings, start=start))
    if not (ends and ends[0].converged):
        try:
            ends.append(_alternate(family, design, structure, settings))
        except MPRFrailtyError:
            if not ends:
                raise
    if len(ends) == 2:
        # the larger p, on a tie the face run's; only the kept end gets its tail
        face, default = (_DispersionObjective(family, design, structure, end.final.x)
                         ._values(end.z[None])[0] for end in ends)
        ends = ends[1:] if math.isnan(face) or default > face else ends[:1]
    return _finish(family, design, dataset, ends[0])


def _check_start(start, structure, family, design):
    """DomainError unless ``start`` is a fit of ``structure``'s face, of this family and design."""
    if structure not in FACES:
        raise DomainError(f"start applies to {' and '.join(sorted(FACES))} fits only, "
                          f"not to {structure}")
    if not isinstance(start, ModelFit) or start.structure != FACES[structure]:
        got = start.structure if isinstance(start, ModelFit) else type(start).__name__
        raise DomainError(f"start must be a fitted {FACES[structure]} model, not {got}")
    for what, got, want in (("family", start.family, family),
                            ("scale covariates", start.scale_names, design.scale_names),
                            ("shape covariates", start.shape_names, design.shape_names),
                            ("cluster labels", start.cluster_labels, design.cluster_labels)):
        if got != want:
            raise DomainError(f"start does not match this fit in its {what}")


@dataclass
class _AlternationEnd:
    """Where an alternation stopped: (theta, v) re-solved at its last dispersion."""

    structure: str
    z: np.ndarray
    spec: FrailtySpec
    final: InnerResult
    converged: bool
    iterations: dict
    warnings: list


def _alternate(family, design, structure, settings, start=None):
    """The alternation for ``structure`` from the default start, up to its end.

    With ``start``, a fit of the structure's face, the alternation starts
    on that face instead, and the end's ``iterations`` say so.  Where Step 1
    raises at a dispersion that the secant mix produced, it runs once more
    from the same (theta, v) at that sweep's unmixed Step-2 point, and the
    alternation raises only where that run raises too.
    """
    fit_warnings = []
    law = FRAILTY_LAWS[structure]
    if start is None:
        init_res = _initial_theta(design)
        inner_total = init_res.iterations
        z = law.to_z([_START_DISPERSION] * len(law.names))
        start_v = np.full(design.q, 0.01)
        point = (init_res.beta, init_res.alpha, start_v, start_v)
    else:
        # the face's point, with the parameter it lacks at 0
        inner_total = 0
        z = law.to_z([start.dispersion.get(name, 0.0) for name in law.names])
        point = (start.beta, start.alpha, start.v_beta, start.v_alpha)
    spec = _spec_with_z(structure, z)
    x = Evaluator(family, design, spec).layout.pack(*point)

    # without dispersion parameters there is nothing to alternate with
    converged = not law.names
    monotone = True
    outer_it = 0
    prev_estimates = None
    last_change = np.inf
    prev = None  # (z_out, residual) of the previous sweep
    unmixed = None  # the previous sweep's z_out where the secant mix moved z off it
    for outer_it in range(1, (settings.max_outer if law.names else 0) + 1):
        # Step 1: (theta, v) at fixed dispersion
        try:
            res = _newton(Evaluator(family, design, spec), x)
        except MPRFrailtyError:
            if unmixed is None:
                raise
            z, spec = unmixed, _spec_with_z(structure, unmixed)
            res = _newton(Evaluator(family, design, spec), x)
        inner_total += res.iterations
        monotone = monotone and res.monotone
        x = res.x
        # Step 2: dispersion at fixed (theta, v); cheap while the
        # alternation is still moving, full precision near the fixed point
        effort = "tight" if last_change < 1e-3 else "loose"
        outer = outer_dispersion(family, design, structure, z, x, effort=effort)
        z_out = outer.z
        estimates = np.concatenate([x, list(outer.spec.dispersion().values())])
        if prev_estimates is not None:
            last_change = float(np.max(np.abs(estimates - prev_estimates)))
            if (last_change < OUTER_TOL and effort == "tight"
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
        if prev is not None and np.linalg.norm(resid) <= np.linalg.norm(prev[1]):
            d_resid = resid - prev[1]
            denom = float(d_resid @ d_resid)
            if denom > 1e-20:
                gamma = float(resid @ d_resid) / denom
                cand = z_out - gamma * (z_out - prev[0])
                if np.all(np.isfinite(cand)) and np.max(np.abs(cand - z_out)) < 3.0:
                    z_next = cand
        prev = (z_out, resid)
        unmixed = None if z_next is z_out else z_out
        z = z_next
        spec = _spec_with_z(structure, z)

    # final matched state: re-solve (theta, v) at the final dispersion
    final = _newton(Evaluator(family, design, spec), x)
    inner_total += final.iterations

    if not converged:
        fit_warnings.append(
            f"outer loop stopped at max_outer={settings.max_outer} before the "
            f"{OUTER_TOL} criterion was met"
        )
    if not (monotone and final.monotone):
        fit_warnings.append("inner step-halving accepted a non-increasing step")
    fit_warnings += law.boundary_warnings(spec.dispersion().values())

    return _AlternationEnd(
        structure, z, spec, final, converged,
        iterations={"outer": outer_it, "inner_total": inner_total}
        | ({} if start is None else {"start": start.structure}),
        warnings=fit_warnings,
    )


def _finish(family, design, dataset, end):
    """The fit at an alternation's end; the adjusted profile there and at the
    stencil of its curvature is one batch."""
    profiles = _DispersionObjective(family, design, end.structure, end.final.x)._values(
        _hessian_stencil(end.z))
    if math.isnan(profiles[0]):
        raise CurvatureError("information matrix is not positive definite")
    spec, inner, fit_warnings = end.spec, end.final, end.warnings
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

    se_dispersion = _dispersion_se(spec, profiles, fit_warnings)

    modes, binary = _empirical_modes(dataset)
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
        deviance_profile=-2.0 * profiles[0],
        cond_deviance=-2.0 * inner.ell1_sum,
        df_r=spec.df_r,
        df_c=df_c,
        converged=end.converged,
        iterations=end.iterations,
        cluster_labels=design.cluster_labels,
        cluster_sizes=design.cluster_sizes,
        cov_theta=cov_theta,
        modal_covariates=modes,
        binary_covariates=binary,
        warnings=fit_warnings,
        H=H,
    )


def _dispersion_se(spec, profiles, fit_warnings):
    """Delta-method standard errors for the dispersion estimates at z_hat.

    ``profiles`` holds p at the rows of ``_hessian_stencil(z_hat)``: the
    curvature of the adjusted profile likelihood on the transformed scale
    (central differences, step ``_STENCIL_STEP``), which is mapped back.
    """
    names = spec.law.names
    if not names:
        return {}
    try:
        if any(math.isnan(p) for p in profiles):
            raise CurvatureError("profile likelihood not evaluable near optimum")
        cov_z = np.linalg.inv(_central_hessian([-p for p in profiles], len(names)))
    except (np.linalg.LinAlgError, CurvatureError):
        fit_warnings.append(
            "dispersion standard errors unavailable (curvature evaluation failed)"
        )
        return dict.fromkeys(names, math.nan)
    jac = spec.law.jacobian(spec.dispersion().values())
    cov_nat = (jac[:, None] * cov_z) * jac[None, :]
    var = np.diag(cov_nat).copy()
    bad = var <= 0
    if np.any(bad):
        fit_warnings.append(
            "dispersion information not positive definite; affected "
            "standard errors reported as nan"
        )
        var[bad] = np.nan
    return dict(zip(names, (float(s) for s in np.sqrt(var))))
