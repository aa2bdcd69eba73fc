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
import operator
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .baselines import inverse_cumulative_base, normalize_family
from .data import BVNF, Dataset, normalize_structure
from .errors import CalibrationError, DomainError, MPRFrailtyError, ScenarioError
from .fitting import FitSettings, fit

AR1_COEFF = 0.5
CENSOR_BOUNDS = (1e-3, 1e4)
CALIBRATION_TOL = 0.005  # +-0.5 percentage points
PILOT_DRAWS = 100_000


def _integer(value, name):
    """``value`` as an int; a float such as 5.0 or 6.7 is not one."""
    try:
        return operator.index(value)
    except TypeError:
        raise DomainError(f"{name} must be an integer, got {value!r}") from None


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
        object.__setattr__(self, "beta_true", tuple(float(b) for b in self.beta_true))
        object.__setattr__(self, "alpha_true", tuple(float(a) for a in self.alpha_true))
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
        self.cluster_sizes()  # validate n_i early

    @property
    def p(self):
        return len(self.beta_true) - 1

    def cluster_sizes(self):
        """Per-cluster sizes as an integer array of length q."""
        spec = self.n_i
        if isinstance(spec, dict):
            sizes = [_integer(s, "mixture size") for s in spec["sizes"]]
            weights = [float(w) for w in spec["weights"]]
            if len(sizes) != len(weights) or not sizes:
                raise DomainError("mixture sizes and weights must align")
            if any(s < 1 for s in sizes) or any(w < 0 for w in weights):
                raise DomainError("mixture sizes/weights out of range")
            total = sum(weights)
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
        return {
            "q": self.q,
            "n_i": self.n_i,
            "beta_true": list(self.beta_true),
            "alpha_true": list(self.alpha_true),
            "sigma_beta": self.sigma_beta,
            "sigma_alpha": self.sigma_alpha,
            "rho": self.rho,
            "censor_rate": self.censor_rate,
            "replicates": self.replicates,
            "seed": self.seed,
            "family": self.family,
        }

    @classmethod
    def from_dict(cls, d):
        return cls(
            q=d["q"],
            n_i=d["n_i"],
            beta_true=tuple(d["beta_true"]),
            alpha_true=tuple(d["alpha_true"]),
            sigma_beta=float(d["sigma_beta"]),
            sigma_alpha=float(d["sigma_alpha"]),
            rho=float(d["rho"]),
            censor_rate=float(d.get("censor_rate", 0.25)),
            replicates=d.get("replicates", 100),
            seed=d.get("seed", 0),
            family=d.get("family", "weibull"),
        )

    @classmethod
    def read_json(cls, path):
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def gen_covariates(n, p, rng):
    """n rows of p covariates from a stationary AR(1) chain across columns."""
    if p < 1:
        return np.empty((n, 0))
    x = np.empty((n, p))
    x[:, 0] = rng.standard_normal(n)
    innov_sd = np.sqrt(1.0 - AR1_COEFF**2)
    for k in range(1, p):
        x[:, k] = AR1_COEFF * x[:, k - 1] + innov_sd * rng.standard_normal(n)
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
    v_alpha = sigma_alpha * (rho * z1 + np.sqrt(1.0 - rho * rho) * z2)
    return v_beta, v_alpha


def gen_survival_times(family, tau, gamma, rng):
    """Event times from the conditional model by inverse transform."""
    family = normalize_family(family)
    tau = np.asarray(tau, dtype=float)
    gamma = np.asarray(gamma, dtype=float)
    if np.any(tau <= 0) or np.any(gamma <= 0):
        raise DomainError("tau and gamma must be positive")
    n = np.broadcast(tau, gamma).size
    # keep U strictly inside (0, 1) so times are finite and positive
    u = np.clip(rng.random(n), 1e-16, 1.0 - 1e-16)
    target = -np.log(u) / tau
    s = inverse_cumulative_base(family, target)
    return np.maximum(s, 1e-300) ** (1.0 / gamma)


def _marginal_pilot_times(scenario, rng, draws=PILOT_DRAWS):
    """Independent draws from the scenario's marginal event-time law."""
    p = scenario.p
    x = gen_covariates(draws, p, rng)
    vb, va = gen_frailties(
        draws, scenario.sigma_beta, scenario.sigma_alpha, scenario.rho, rng
    )
    beta = np.asarray(scenario.beta_true)
    alpha = np.asarray(scenario.alpha_true)
    lp_b = beta[0] + (x @ beta[1:] if p else 0.0) + vb
    lp_a = alpha[0] + (x @ alpha[1:] if p else 0.0) + va
    return gen_survival_times(scenario.family, np.exp(lp_b), np.exp(lp_a), rng)


def calibrate_censoring(scenario, rng, pilot_draws=PILOT_DRAWS):
    """Upper bound c_max of the Uniform(0, c_max) censoring law.

    Bisection against the Monte Carlo censoring fraction of a pilot
    sample; the same pilot is reused across bisection steps, which makes
    the fraction a continuous monotone function of c_max.
    """
    t = _marginal_pilot_times(scenario, rng, pilot_draws)
    lo, hi = CENSOR_BOUNDS
    target = scenario.censor_rate

    def frac(c):
        # C ~ U(0, c); an observation is censored when C < T
        return float(np.mean(np.minimum(t / c, 1.0)))

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
    beta = np.asarray(scenario.beta_true)
    alpha = np.asarray(scenario.alpha_true)
    lp_b = beta[0] + (x @ beta[1:] if p else 0.0) + vb[idx]
    lp_a = alpha[0] + (x @ alpha[1:] if p else 0.0) + va[idx]
    t_event = gen_survival_times(scenario.family, np.exp(lp_b), np.exp(lp_a), rng)
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
        lines = ["parameter,truth,mean,se,see"]

        def fmt(v):
            return "NA" if v is None or not np.isfinite(v) else f"{v:.10g}"

        for j, name in enumerate(self.param_names):
            lines.append(
                ",".join(
                    [
                        name,
                        fmt(self.truth[j]),
                        fmt(self.mean[j]),
                        fmt(self.se[j]),
                        fmt(self.see[j]),
                    ]
                )
            )
        return "\n".join(lines) + "\n"


def format_failure_reasons(reasons):
    """'NonConvergenceError x2, not converged x1': most frequent first."""
    ordered = sorted(reasons.items(), key=lambda kv: (-kv[1], kv[0]))
    return ", ".join(f"{reason} x{count}" for reason, count in ordered) or "none"


def _truth_for(scenario, structure, names):
    lookup = {
        "sigma_beta": scenario.sigma_beta,
        "sigma_alpha": scenario.sigma_alpha,
        "rho": scenario.rho,
    }
    truth = []
    m = len(scenario.beta_true)
    for j, name in enumerate(names):
        if j < m:
            truth.append(scenario.beta_true[j])
        elif j < 2 * m:
            truth.append(scenario.alpha_true[j - m])
        else:
            truth.append(lookup.get(name))
    return truth


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
        disp_names = list(f.spec.dispersion_names())
        est = np.concatenate(
            [f.beta, f.alpha, [f.dispersion[k] for k in disp_names]]
        )
        see = np.concatenate(
            [f.se_beta, f.se_alpha, [f.se_dispersion[k] for k in disp_names]]
        )
        names = (
            [f"beta_{j}" for j in range(len(f.beta))]
            + [f"alpha_{j}" for j in range(len(f.alpha))]
            + disp_names
        )
        return ("ok", (names, est, see))

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
    names = oks[0][0]
    est = np.vstack([e for _, e, _ in oks])
    see = np.vstack([s for _, _, s in oks])
    mean = est.mean(axis=0)
    sd = est.std(axis=0, ddof=1) if len(oks) > 1 else np.full(est.shape[1], np.nan)
    with np.errstate(invalid="ignore"):
        see_mean = np.nanmean(see, axis=0)
    return ScenarioSummary(
        structure=structure,
        param_names=names,
        truth=_truth_for(scenario, structure, names),
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
