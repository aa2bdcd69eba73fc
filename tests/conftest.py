import numpy as np
import pytest

from mprfrailty import (
    Dataset,
    FrailtySpec,
    ScenarioSpec,
    build_design,
    calibrate_censoring,
    fit,
    simulate_dataset,
)

TABLE2_TRUTH = {
    "beta_true": (1.0, -0.5, 0.5),
    "alpha_true": (0.5, 0.5, -0.5),
    "sigma_beta": 1.0,
    "sigma_alpha": 0.5,
    "rho": -0.5,
}


def small_weibull_dataset(seed=5, q=3, n_i=4, p=1, censor_scale=2.0):
    """Deterministic clustered Weibull data for unit tests."""
    rng = np.random.default_rng(seed)
    n = q * n_i
    idx = np.repeat(np.arange(q), n_i)
    x = rng.standard_normal((n, p))
    vb = 0.5 * rng.standard_normal(q)
    va = 0.3 * rng.standard_normal(q)
    beta = np.concatenate([[0.3], 0.4 * np.ones(p)])
    alpha = np.concatenate([[0.1], -0.3 * np.ones(p)])
    tau = np.exp(beta[0] + x @ beta[1:] + vb[idx])
    gamma = np.exp(alpha[0] + x @ alpha[1:] + va[idx])
    u = np.clip(rng.random(n), 1e-12, 1 - 1e-12)
    t_event = (-np.log(u) / tau) ** (1.0 / gamma)
    c = censor_scale * rng.random(n)
    time = np.minimum(t_event, c)
    status = (t_event <= c).astype(int)
    names = [f"x{j + 1}" for j in range(p)]
    return Dataset([f"c{i}" for i in idx], time, status, x, names)


@pytest.fixture(scope="session")
def fixture_30x5():
    """The 30-record, 5-cluster Weibull fixture used by the oracle suites."""
    spec = ScenarioSpec(
        q=5, n_i=6, beta_true=(0.5, -0.3, 0.2), alpha_true=(0.2, 0.3, -0.2),
        sigma_beta=0.7, sigma_alpha=0.4, rho=-0.4, censor_rate=0.25,
        replicates=1, seed=314,
    )
    ds = simulate_dataset(spec, 2.0, np.random.default_rng(314))
    return ds, build_design(ds)


def table2_replicate(**scenario):
    """Replicate 0 of a Table-2 scenario, drawn as ``run_scenario`` and the benchmark draw it."""
    spec = ScenarioSpec(replicates=1, **scenario, **TABLE2_TRUTH)
    calibration, replicate = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(spec.seed).spawn(2))
    return simulate_dataset(spec, calibrate_censoring(spec, calibration), replicate)


@pytest.fixture(scope="session")
def q50_seed3_fits():
    """The (q=50, n_i=5, 25% censoring, seed 3) Table-2 data set with its ScF and CF fits.

    From the default start (sigma_beta 0.1, phi 0.1) a CF fit raised
    NonConvergenceError there, also with every time moved by one ulp;
    from the ScF face it converges.
    """
    ds = table2_replicate(q=50, n_i=5, censor_rate=0.25, seed=3)
    return ds, fit(ds, structure="ScF"), fit(ds, structure="CF")


@pytest.fixture(scope="session")
def small_dataset():
    return small_weibull_dataset()


def spec_for(structure):
    """A valid interior FrailtySpec for each structure, for evaluations."""
    return {
        "NF": FrailtySpec("NF"),
        "ScF": FrailtySpec("ScF", sigma_beta=0.8),
        "ShF": FrailtySpec("ShF", sigma_alpha=0.6),
        "IF": FrailtySpec("IF", sigma_beta=0.8, sigma_alpha=0.6),
        "CF": FrailtySpec("CF", sigma_beta=0.8, phi=0.5),
        "BVNF": FrailtySpec("BVNF", sigma_beta=0.8, sigma_alpha=0.6, rho=-0.4),
    }[structure]
