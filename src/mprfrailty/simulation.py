"""Monte Carlo study machinery: data generation and scenario execution.

Survival times are drawn by inverse transform from the model's
conditional survivor function S(t) = exp(-tau * Lambda0(t**gamma)), so

    T = [Lambda0^{-1}(-log U / tau)]**(1/gamma),   U ~ Uniform(0, 1).

Covariates follow a stationary AR(1) chain across columns (correlation
0.5, standard normal margins); frailty pairs are bivariate normal.
Censoring times are Uniform(0, c_max) with c_max calibrated once per
scenario so the marginal censoring probability hits the target rate.
Replicates run on per-index RNG substreams: results are reproducible for
a fixed seed regardless of execution order or thread count.
"""

import json
import numbers
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields

import numpy as np

from .baselines import inverse_cumulative_base, normalize_family
from .data import BVNF, FRAILTY_LAWS, Dataset, csv_number, normalize_structure, plain
from .errors import CalibrationError, DomainError, MPRFrailtyError, ScenarioError
from .fitting import FitSettings, fit

AR1_COEFF = 0.5
CENSOR_BOUNDS = (1e-3, 1e4)
CALIBRATION_TOL = 0.005  # +-0.5 percentage points
PILOT_DRAWS = 100_000


def _integer(value, name):
    """``value`` as an int; a float such as 5.0 or 6.7 is not one, nor is a bool."""
    try:
        if isinstance(value, bool):
            raise TypeError
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


def _real(value, name):
    """``value`` as a float; None, a bool, a string or a list is not a real number."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        raise DomainError(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ScenarioSpec:
    """Truth and size settings for one simulation scenario.

    ``n_i`` is a single cluster size, an explicit per-cluster list of
    length q, or a mixture {"sizes": [...], "weights": [...]} assigned
    deterministically in proportion to the weights.
    """

    q: int
    n_i: object
    beta_true: tuple
    alpha_true: tuple
    sigma_beta: float
    sigma_alpha: float
    rho: float
    censor_rate: float = 0.25
    replicates: int = 100
    seed: int = 0
    family: str = "weibull"

    def __post_init__(self):
        object.__setattr__(self, "family", normalize_family(self.family))
        for name in ("beta_true", "alpha_true"):
            values = getattr(self, name)
            if not isinstance(values, (list, tuple)):
                raise DomainError(f"{name} must be a list of numbers, got {values!r}")
            object.__setattr__(self, name, tuple(_real(v, name) for v in values))
        for name in ("sigma_beta", "sigma_alpha", "rho", "censor_rate"):
            object.__setattr__(self, name, _real(getattr(self, name), name))
        for name in ("q", "replicates", "seed"):
            object.__setattr__(self, name, _integer(getattr(self, name), name))
        if self.q < 2:
            raise DomainError("q must be at least 2")
        if len(self.beta_true) != len(self.alpha_true):
            raise DomainError("beta_true and alpha_true must have equal length")
        if len(self.beta_true) < 1:
            raise DomainError("coefficient vectors must include an intercept")
        if not (0.0 < self.censor_rate < 1.0):
            raise DomainError("censor_rate must lie in (0, 1)")
        if not all(np.isfinite(s) and s > 0 for s in (self.sigma_beta, self.sigma_alpha)):
            raise DomainError("frailty standard deviations must be finite and positive")
        if not (-1.0 < self.rho < 1.0):
            raise DomainError("rho must lie in (-1, 1)")
        if self.replicates < 1:
            raise DomainError("replicates must be at least 1")
        if self.seed < 0:
            raise DomainError("seed must be non-negative")
        self.cluster_sizes()  # validate n_i early

    @property
    def p(self):
        return len(self.beta_true) - 1

    def cluster_sizes(self):
        """Per-cluster sizes as an integer array of length q."""
        spec = self.n_i
        if isinstance(spec, dict):
            sizes, weights = spec.get("sizes"), spec.get("weights")
            if not all(isinstance(v, (list, tuple)) for v in (sizes, weights)):
                raise DomainError(f"mixture sizes and weights must be lists, got {spec!r}")
            sizes = [_integer(s, "mixture size") for s in sizes]
            weights = [_real(w, "mixture weight") for w in weights]
            if len(sizes) != len(weights) or not sizes:
                raise DomainError("mixture sizes and weights must align")
            if any(s < 1 for s in sizes) or not all(0 <= w < np.inf for w in weights):
                raise DomainError("mixture sizes/weights out of range")
            total = sum(weights)
            if total == 0:
                raise DomainError("mixture weights must not all be zero")
            counts = [int(round(w / total * self.q)) for w in weights]
            counts[-1] += self.q - sum(counts)
            if counts[-1] < 0:
                raise DomainError("mixture weights produce a negative count")
            return np.repeat(sizes, counts)
        if np.ndim(spec) == 0:
            sizes = np.full(self.q, _integer(spec, "n_i"), dtype=int)
        else:
            sizes = np.array([_integer(s, "n_i entry") for s in spec], dtype=int)
        if sizes.shape != (self.q,):
            raise DomainError("explicit n_i list must have length q")
        if np.any(sizes < 1):
            raise DomainError("n_i must be at least 1")
        return sizes

    def to_dict(self):
        return {f.name: plain(getattr(self, f.name)) for f in fields(self)}

    @classmethod
    def from_dict(cls, d):
        """DomainError for a key that is not a field, or a missing field without a default."""
        if not isinstance(d, dict):
            raise DomainError(f"a scenario must be a JSON object, got {d!r}")
        known = [f.name for f in fields(cls)]
        unknown = [k for k in d if k not in known]
        if unknown:
            raise DomainError(f"unknown scenario key(s): {', '.join(map(str, unknown))}; "
                              f"the keys are {', '.join(known)}")
        missing = [f.name for f in fields(cls) if f.default is MISSING and f.name not in d]
        if missing:
            raise DomainError(f"missing scenario key(s): {', '.join(missing)}")
        return cls(**d)

    @classmethod
    def read_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def gen_covariates(n, p, rng):
    """n rows of p covariates from a stationary AR(1) chain across columns."""
    if p < 1:
        return np.empty((n, 0))
    x = np.empty((n, p))
    draw = rng.standard_normal(n)
    x[:, 0] = draw
    innov_sd = np.sqrt(1.0 - AR1_COEFF**2)
    for k in range(1, p):
        # AR1_COEFF * x[:, k-1] + innov_sd * z, one column and one draw buffer
        np.multiply(x[:, k - 1], AR1_COEFF, out=x[:, k])
        rng.standard_normal(out=draw)
        draw *= innov_sd
        x[:, k] += draw
    return x


def gen_frailties(q, sigma_beta, sigma_alpha, rho, rng):
    """q bivariate-normal frailty pairs (v_beta, v_alpha)."""
    if not all(np.isfinite(s) and s > 0 for s in (sigma_beta, sigma_alpha)):
        raise DomainError("frailty standard deviations must be finite and positive")
    if not (-1.0 < rho < 1.0):
        raise DomainError("rho must lie in (-1, 1)")
    z1 = rng.standard_normal(q)
    z2 = rng.standard_normal(q)
    v_beta = sigma_beta * z1
    # v_alpha = sigma_alpha * (rho * z1 + sqrt(1 - rho^2) * z2), built in z1
    z1 *= rho
    z2 *= np.sqrt(1.0 - rho * rho)
    z1 += z2
    z1 *= sigma_alpha
    return v_beta, z1


def gen_survival_times(family, tau, gamma, rng):
    """Event times from the conditional model by inverse transform.

    ``tau`` and ``gamma`` are read, never written.
    """
    family = normalize_family(family)
    tau = np.asarray(tau, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(tau <= 0) or np.any(gamma <= 0):
        raise DomainError("tau and gamma must be positive")
    n = np.broadcast(tau, gamma).size
    # keep U strictly inside (0, 1) so times are finite and positive; the
    # clipped copy is this function's own buffer for -log(U) / tau
    target = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    np.log(target, out=target)
    np.negative(target, out=target)
    target /= tau
    s = inverse_cumulative_base(family, target)
    np.maximum(s, 1e-300, out=s)
    s **= 1.0 / gamma
    return s


def _intercept_plus(x, coef):
    """coef[0] + x @ coef[1:] as a new array; x may have no columns."""
    if x.shape[1]:
        lp = x @ coef[1:]
        lp += coef[0]
        return lp
    return np.full(x.shape[0], coef[0])


def _marginal_pilot_times(scenario, rng):
    """PILOT_DRAWS independent draws from the scenario's marginal event-time law.

    The covariates are dropped once the two linear predictors are formed,
    and tau and gamma are built in the predictors' buffers.
    """
    x = gen_covariates(PILOT_DRAWS, scenario.p, rng)
    lp_b = _intercept_plus(x, np.asarray(scenario.beta_true))
    lp_a = _intercept_plus(x, np.asarray(scenario.alpha_true))
    del x
    vb, va = gen_frailties(
        PILOT_DRAWS, scenario.sigma_beta, scenario.sigma_alpha, scenario.rho, rng
    )
    lp_b += vb
    lp_a += va
    del vb, va
    tau = np.exp(lp_b, out=lp_b)
    gamma = np.exp(lp_a, out=lp_a)
    return gen_survival_times(scenario.family, tau, gamma, rng)


def calibrate_censoring(scenario, rng):
    """Upper bound c_max of the Uniform(0, c_max) censoring law.

    Bisection against the Monte Carlo censoring fraction of a pilot
    sample of PILOT_DRAWS event times; the same pilot is reused across
    bisection steps, which makes the fraction a continuous monotone
    function of c_max.

    Working set: at most max(5, p + 2) float arrays of PILOT_DRAWS values
    are alive at once: two linear predictors and three frailty buffers
    while the frailties are drawn, or the p covariate columns and the two
    predictors.  That is 3.8 MiB at p <= 3.  The bisection holds the pilot
    times and one reused buffer.
    """
    t = _marginal_pilot_times(scenario, rng)
    ratio = np.empty_like(t)
    lo, hi = CENSOR_BOUNDS
    target = scenario.censor_rate

    def frac(c):
        # C ~ U(0, c); an observation is censored when C < T
        np.divide(t, c, out=ratio)
        np.minimum(ratio, 1.0, out=ratio)
        return float(np.mean(ratio))

    f_lo, f_hi = frac(lo), frac(hi)
    if f_lo < target - CALIBRATION_TOL or f_hi > target + CALIBRATION_TOL:
        raise CalibrationError(
            f"target censoring rate {target} unreachable within "
            f"c_max bounds {CENSOR_BOUNDS}: attainable range "
            f"[{f_hi:.4f}, {f_lo:.4f}]"
        )
    for _ in range(200):
        mid = np.sqrt(lo * hi)  # bisect on the log scale given the wide bounds
        f_mid = frac(mid)
        if abs(f_mid - target) <= CALIBRATION_TOL:
            return float(mid)
        if f_mid > target:
            lo = mid
        else:
            hi = mid
    raise CalibrationError("censoring calibration did not converge")


def simulate_dataset(scenario, c_max, rng):
    """One replicate dataset under the scenario truth and censoring bound."""
    sizes = scenario.cluster_sizes()
    n = int(sizes.sum())
    p = scenario.p
    idx = np.repeat(np.arange(scenario.q), sizes)
    x = gen_covariates(n, p, rng)
    vb, va = gen_frailties(
        scenario.q, scenario.sigma_beta, scenario.sigma_alpha, scenario.rho, rng
    )
    lp_b = _intercept_plus(x, np.asarray(scenario.beta_true))
    lp_a = _intercept_plus(x, np.asarray(scenario.alpha_true))
    lp_b += vb[idx]
    lp_a += va[idx]
    t_event = gen_survival_times(
        scenario.family, np.exp(lp_b, out=lp_b), np.exp(lp_a, out=lp_a), rng
    )
    c = c_max * rng.random(n)
    time = np.minimum(t_event, c)
    status = (t_event <= c).astype(int)
    labels = [str(i + 1) for i in idx]
    names = [f"x{k + 1}" for k in range(p)]
    return Dataset(labels, time, status, x, names)


@dataclass
class ScenarioSummary:
    """Mean / SE / SEE per parameter over the converged replicates.

    ``failure_reasons`` counts the failed replicates by exception type
    name, or "not converged" for a fit that stopped at ``max_outer``.
    """

    structure: str
    param_names: list
    truth: list
    mean: np.ndarray
    se: np.ndarray
    see: np.ndarray
    n_converged: int
    n_failed: int
    c_max: float
    estimates: np.ndarray = field(repr=False, default=None)
    see_matrix: np.ndarray = field(repr=False, default=None)
    failure_reasons: dict = field(default_factory=dict)

    def to_csv_text(self):
        rows = zip(self.param_names, self.truth, self.mean, self.se, self.see)
        lines = ["parameter,truth,mean,se,see"] + [
            ",".join([name, *map(csv_number, values)]) for name, *values in rows]
        return "\n".join(lines) + "\n"


def format_failure_reasons(reasons):
    """'NonConvergenceError x2, not converged x1': most frequent first."""
    ordered = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    return ", ".join(f"{reason} x{count}" for reason, count in ordered) or "none"


def run_scenario(scenario, structure=BVNF, settings=None, threads=1):
    """Execute a scenario: generate, fit, and summarize all replicates.

    Per-replicate fit failures are recorded rather than fatal, up to a
    20% failure fraction; beyond that the whole scenario errors out.
    ``threads`` worker threads run the replicates (1: in this thread);
    fewer than 1 raises :class:`DomainError`.
    """
    if threads < 1:
        raise DomainError(f"threads must be at least 1, got {threads}")
    structure = normalize_structure(structure)
    disp_names = FRAILTY_LAWS[structure].names
    settings = settings or FitSettings()
    reps = scenario.replicates
    children = np.random.SeedSequence(scenario.seed).spawn(reps + 1)
    c_max = calibrate_censoring(scenario, np.random.default_rng(children[0]))

    def one(b):
        rng = np.random.default_rng(children[b + 1])
        try:
            ds = simulate_dataset(scenario, c_max, rng)
            f = fit(ds, structure=structure, family=scenario.family,
                    settings=settings)
        except MPRFrailtyError as exc:
            return ("error", (type(exc).__name__, f"{type(exc).__name__}: {exc}"))
        if not f.converged:
            return ("error", ("not converged", "fit did not converge"))
        est = np.concatenate([f.beta, f.alpha, [f.dispersion[k] for k in disp_names]])
        see = np.concatenate([f.se_beta, f.se_alpha, [f.se_dispersion[k] for k in disp_names]])
        return ("ok", (est, see))

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one, range(reps)))
    else:
        results = [one(b) for b in range(reps)]

    oks = [payload for status, payload in results if status == "ok"]
    errors = [payload for status, payload in results if status == "error"]
    reasons = dict(Counter(reason for reason, _ in errors))
    n_failed = reps - len(oks)
    if n_failed > 0.2 * reps or not oks:
        raise ScenarioError(
            f"{n_failed}/{reps} replicates failed "
            f"({format_failure_reasons(reasons)}; first: {errors[0][1]}); "
            "scenario aborted"
        )
    names = ([f"beta_{j}" for j in range(len(scenario.beta_true))]
             + [f"alpha_{j}" for j in range(len(scenario.alpha_true))] + list(disp_names))
    # the coefficients, then the dispersion, whose phi (CF) has no truth in a scenario
    truth = [*scenario.beta_true, *scenario.alpha_true] + [
        getattr(scenario, name, None) for name in disp_names]
    est = np.vstack([e for e, _ in oks])
    see = np.vstack([s for _, s in oks])
    mean = est.mean(axis=0)
    sd = est.std(axis=0, ddof=1) if len(oks) > 1 else np.full(est.shape[1], np.nan)
    with np.errstate(invalid="ignore"):
        see_mean = np.nanmean(see, axis=0)
    return ScenarioSummary(
        structure=structure,
        param_names=names,
        truth=truth,
        mean=mean,
        se=sd,
        see=see_mean,
        n_converged=len(oks),
        n_failed=n_failed,
        c_max=c_max,
        estimates=est,
        see_matrix=see,
        failure_reasons=reasons,
    )
