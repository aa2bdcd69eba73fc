"""Acceptance gate: one test per criterion, each printing a PASS line.

Heavy Monte Carlo criteria (4-6) run full 100-replicate scenarios and
dominate the suite's runtime; their stated wall-clock budgets are
asserted alongside the statistical checks.
"""

import json
import os
import time
import zlib

import numpy as np
import pytest
import scipy.optimize

from mprfrailty import (
    Dataset,
    FitSettings,
    ScenarioSpec,
    bootstrap_hr_ci,
    fit,
    frailty_lrt,
    hazard_ratio_curve,
    run_scenario,
)
from mprfrailty.cli import main
from mprfrailty.hlik import Evaluator

from ._oracles import agh_restricted_loglik, fd_gradient, fd_jacobian, nf_negloglik, rel_err
from .conftest import spec_for
from .test_inference import direct_hazard_ratio, synthetic_fit
from .test_selection import stub_fit

STRUCTURES = ["NF", "ScF", "ShF", "IF", "CF", "BVNF"]
FAMILIES = ["weibull", "gompertz", "loglogistic"]

TABLE2 = dict(beta_true=(1.0, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
              sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5)


def _report(name, detail):
    print(f"ACCEPTANCE {name}: PASS ({detail})")


def test_criterion_01_gradient_and_hessian_oracles(fixture_30x5):
    start = time.time()
    _, design = fixture_30x5
    worst_g, worst_h = 0.0, 0.0
    for family in FAMILIES:
        for structure in STRUCTURES:
            spec = spec_for(structure)
            ev = Evaluator(family, design, spec)

            def score(x):
                return ev.h_score_info(x)[1]

            rng = np.random.default_rng(zlib.crc32(f"{family}/{structure}".encode()))
            for _ in range(50):
                x = rng.uniform(-0.4, 0.4, ev.layout.dim)
                err_g = rel_err(score(x), fd_gradient(ev.h, x))
                worst_g = max(worst_g, err_g)
                assert err_g < 1e-6, (family, structure, err_g)
                err_h = rel_err(ev.information(x).to_dense(), -fd_jacobian(score, x))
                worst_h = max(worst_h, err_h)
                assert err_h < 1e-5, (family, structure, err_h)
    elapsed = time.time() - start
    assert elapsed < 30.0
    _report(
        "1 gradient/hessian oracles",
        f"900 points x 18 combos, worst score err {worst_g:.2e}, "
        f"worst info err {worst_h:.2e}, {elapsed:.1f}s",
    )


def test_criterion_02_laplace_vs_quadrature():
    start = time.time()
    rng = np.random.default_rng(60)
    q, n_i = 3, 4
    idx = np.repeat(np.arange(q), n_i)
    x = rng.standard_normal((q * n_i, 1))
    vb = 0.8 * rng.standard_normal(q)
    tau = np.exp(0.5 + 0.4 * x[:, 0] + vb[idx])
    gamma = np.exp(0.2 - 0.3 * x[:, 0])
    u = np.clip(rng.random(q * n_i), 1e-12, 1 - 1e-12)
    t = (-np.log(u) / tau) ** (1 / gamma)
    c = 4.0 * rng.random(q * n_i)
    ds = Dataset([f"c{i}" for i in idx], np.minimum(t, c),
                 (t <= c).astype(int), x, ["x1"])
    f = fit(ds, structure="ScF")
    assert f.converged
    restricted = agh_restricted_loglik(
        ds, f.dispersion["sigma_beta"], np.concatenate([f.beta, f.alpha]),
        n_nodes=40,
    )
    err = abs(f.deviance_profile - (-2.0 * restricted)) / abs(2.0 * restricted)
    elapsed = time.time() - start
    assert err < 0.01
    assert elapsed < 10.0
    _report("2 laplace vs 40-pt AGH", f"rel err {err:.4%}, {elapsed:.1f}s")


def test_criterion_03_nf_equivalence():
    start = time.time()
    worst = 0.0
    for seed in range(5):
        rng = np.random.default_rng(1000 + seed)
        n = 60
        x = rng.standard_normal((n, 2))
        tau = np.exp(0.6 - 0.4 * x[:, 0] + 0.3 * x[:, 1])
        gamma = np.exp(0.2 + 0.2 * x[:, 0] - 0.1 * x[:, 1])
        u = np.clip(rng.random(n), 1e-12, 1 - 1e-12)
        t = (-np.log(u) / tau) ** (1 / gamma)
        c = 3.0 * rng.random(n)
        ds = Dataset(
            [f"c{i % 4}" for i in range(n)], np.minimum(t, c),
            (t <= c).astype(int), x, ["x1", "x2"],
        )
        f = fit(ds, structure="NF")
        negll, m = nf_negloglik("weibull", ds)
        opt = scipy.optimize.minimize(negll, np.full(2 * m, 0.01), method="BFGS",
                                      options={"gtol": 1e-11, "maxiter": 1000})
        opt = scipy.optimize.minimize(negll, opt.x, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14,
                                               "maxiter": 8000})
        diff = float(np.max(np.abs(np.concatenate([f.beta, f.alpha]) - opt.x)))
        worst = max(worst, diff)
        assert diff < 1e-6, (seed, diff)
    elapsed = time.time() - start
    assert elapsed < 10.0
    _report("3 NF equivalence", f"5 datasets, worst diff {worst:.2e}, {elapsed:.1f}s")


def test_criterion_04_table2_desk_scale():
    start = time.time()
    spec = ScenarioSpec(q=100, n_i=50, censor_rate=0.25, replicates=100,
                        seed=20254, **TABLE2)
    summary = run_scenario(spec, structure="BVNF", threads=min(4, os.cpu_count()))
    target = [1.02, -0.50, 0.50, 0.51, 0.50, -0.50, 1.00, 0.50, -0.50]
    for name, want, mean in zip(summary.param_names, target, summary.mean):
        assert abs(mean - want) <= 0.05, (name, mean, want)
    for name, sd, see in zip(summary.param_names, summary.se, summary.see):
        assert abs(see - sd) <= 0.30 * sd, (name, sd, see)
    elapsed = time.time() - start
    assert elapsed < 900.0
    _report(
        "4 Table-2 (100,50) reproduction",
        f"{summary.n_converged}/100 converged, max |mean-target| "
        f"{max(abs(m - w) for m, w in zip(summary.mean, target)):.3f}, "
        f"{elapsed / 60:.1f} min",
    )


def test_criterion_05_small_sample_bias_pattern():
    start = time.time()
    spec = ScenarioSpec(q=20, n_i=5, censor_rate=0.25, replicates=100,
                        seed=20250, **TABLE2)
    summary = run_scenario(spec, structure="BVNF",
                           settings=FitSettings(max_outer=600))
    i_sb = summary.param_names.index("sigma_beta")
    i_rho = summary.param_names.index("rho")
    assert summary.mean[i_sb] > 1.05
    assert summary.see[i_rho] < summary.se[i_rho]
    elapsed = time.time() - start
    assert elapsed < 180.0
    _report(
        "5 small-sample bias (20,5)",
        f"mean sigma_beta {summary.mean[i_sb]:.3f} > 1.05, SEE(rho) "
        f"{summary.see[i_rho]:.3f} < SD(rho) {summary.se[i_rho]:.3f}, "
        f"{elapsed:.0f}s",
    )


def test_criterion_06_heavy_censoring_rho_attenuation():
    start = time.time()
    spec = ScenarioSpec(q=20, n_i=5, censor_rate=0.50, replicates=100,
                        seed=20251, **TABLE2)
    summary = run_scenario(spec, structure="BVNF",
                           settings=FitSettings(max_outer=600))
    i_rho = summary.param_names.index("rho")
    assert abs(summary.mean[i_rho]) < 0.3
    elapsed = time.time() - start
    assert elapsed < 180.0
    _report(
        "6 rho attenuation at 50% censoring",
        f"mean rho {summary.mean[i_rho]:.3f}, |.| < 0.3, "
        f"{summary.n_converged}/100 converged, {elapsed:.0f}s",
    )


def test_criterion_07_model_selection_arithmetic():
    start = time.time()
    nf = stub_fit("NF", 1123.40, 0)
    shf = stub_fit("ShF", 1079.52, 1)
    delta = nf.raic - shf.raic
    assert abs(delta - 41.88) < 1e-9
    lrt = frailty_lrt(nf, shf)
    assert abs(lrt.statistic - 43.88) < 1e-9
    assert lrt.statistic > 2.71 and lrt.significant
    bladder = frailty_lrt(stub_fit("NF", 946.96, 0), stub_fit("ScF", 943.28, 1))
    assert abs(bladder.statistic - 3.68) < 1e-9
    assert bladder.statistic > 2.71 and bladder.significant
    elapsed = time.time() - start
    assert elapsed < 1.0
    _report(
        "7 selection arithmetic",
        f"delta rAIC 41.88, LRT 43.88 and 3.68 both > 2.71, {elapsed:.2f}s",
    )


def test_criterion_08_hr_formula_property():
    start = time.time()
    rng = np.random.default_rng(88)
    times = np.linspace(0.05, 5.0, 20)
    worst = 0.0
    for _ in range(20):
        f = synthetic_fit(rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3),
                          modal={"trt": float(rng.integers(0, 2)),
                                 "sex": float(rng.integers(0, 2))})
        f.modal_covariates["trt"] = 0.0
        curve = hazard_ratio_curve(f, "trt", times)
        direct = direct_hazard_ratio(f, "trt", times)
        err = float(np.max(np.abs(curve.hr - direct) / direct))
        worst = max(worst, err)
        assert err < 1e-10
        k_s = f.scale_names.index("trt")
        k_a = f.shape_names.index("trt")
        at_one = hazard_ratio_curve(f, "trt", np.array([1.0])).hr[0]
        assert at_one == np.exp(f.beta[k_s] + f.alpha[k_a])
    elapsed = time.time() - start
    assert elapsed < 5.0
    _report("8 HR closed form", f"20 fits x 20 times, worst err {worst:.2e}, "
                                f"{elapsed:.1f}s")


def test_criterion_09_determinism(tmp_path):
    start = time.time()
    scen = dict(q=6, n_i=10, beta_true=[0.8, -0.4, 0.3],
                alpha_true=[0.3, 0.2, -0.2], sigma_beta=0.6, sigma_alpha=0.3,
                rho=-0.3, censor_rate=0.25, replicates=3, seed=5)
    scen_path = tmp_path / "scenario.json"
    scen_path.write_text(json.dumps(scen))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = main(["simulate", "--scenario", str(scen_path), "--structure",
                     "ScF", "--threads", "2", "--out", str(out)])
        assert code == 0
        outs.append((out / "scenario_summary.csv").read_bytes())
    assert outs[0] == outs[1]

    f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
    times = np.linspace(0.2, 4.0, 9)
    curves = [bootstrap_hr_ci(f, "trt", times, n_boot=200, seed=11) for _ in range(3)]
    for c in curves[1:]:
        assert np.array_equal(c.lower, curves[0].lower)
        assert np.array_equal(c.upper, curves[0].upper)
    elapsed = time.time() - start
    assert elapsed < 120.0
    _report("9 determinism", f"byte-identical CSV and bands across runs, "
                             f"{elapsed:.0f}s")


BLADDER_ENV = "MPRFRAILTY_BLADDER_CSV"


@pytest.mark.skipif(BLADDER_ENV not in os.environ,
                    reason=f"set {BLADDER_ENV} to the bladder-cancer CSV to enable")
def test_criterion_10_bladder_scf_reproduction():
    """Conditional: requires the public bladder dataset as a CSV.

    Expected schema: cluster,time,status,chemotherapy,prior_recurrence
    (times in years, status 1 = recurrence).
    """
    ds = Dataset.read_csv(os.environ[BLADDER_ENV])
    f = fit(ds, structure="ScF")
    assert f.converged
    chemo = f.beta[f.scale_names.index(ds.covariate_names[0])]
    recur = f.beta[f.scale_names.index(ds.covariate_names[1])]
    assert abs(chemo - (-0.74)) <= 0.02
    assert abs(recur - 0.57) <= 0.02
    assert abs(f.dispersion["sigma_beta"] - 0.28) <= 0.02
    _report("10 bladder ScF", f"chemo {chemo:.3f}, recurrence {recur:.3f}, "
                              f"sigma_beta {f.dispersion['sigma_beta']:.3f}")
