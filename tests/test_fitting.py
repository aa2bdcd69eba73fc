import copy
import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.linalg
import scipy.optimize

from mprfrailty import (
    STRUCTURES,
    Dataset,
    FitSettings,
    FrailtySpec,
    ModelFit,
    ScenarioSpec,
    build_design,
    fit,
    simulate_dataset,
)
from mprfrailty.cli import fit_table_text
from mprfrailty.errors import CurvatureError, DomainError, MPRFrailtyError, NonConvergenceError
from mprfrailty.fitting import (
    _FD_STEP,
    INNER_TOL,
    MAX_INNER,
    OUTER_TOL,
    STEP_HALVING_MAX,
    _OBJECTIVE_PENALTY,
    _DispersionObjective,
    OuterResult,
    _newton,
    _spec_with_z,
    outer_dispersion,
)
from mprfrailty import fitting
from mprfrailty.data import FRAILTY_LAWS, RHO_CAP, SIGMA_BOUNDARY
from mprfrailty import hlik
from mprfrailty.hlik import DENSE_MAX_DIM, LOG_2PI, Curvature, Evaluator
from mprfrailty.simulation import calibrate_censoring

from ._oracles import nf_negloglik, rel_err
from .conftest import TABLE2_TRUTH, small_weibull_dataset, table2_replicate


def newton_at(design, spec, beta0, alpha0, v_beta0=None):
    """Inner Newton maximizer of h from the given start, at the dispersion of spec."""
    ev = Evaluator("weibull", design, spec)
    return _newton(ev, ev.layout.pack(beta0, alpha0, v_beta0))


class RecordingEvaluator(Evaluator):
    """Evaluator that logs (h, max|score|) at every accepted iterate."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.h_trace = []
        self.score_trace = []

    def h_score_info(self, x):
        parts, g, H = super().h_score_info(x)
        self.h_trace.append(parts.h)
        self.score_trace.append(float(np.max(np.abs(g))))
        return parts, g, H


class TestFitSettings:
    def test_defaults(self):
        # max_outer is the one setting; the tolerances are module constants
        assert [f.name for f in dataclasses.fields(FitSettings)] == ["max_outer"]
        assert FitSettings().max_outer == 200
        assert (INNER_TOL, OUTER_TOL, MAX_INNER, STEP_HALVING_MAX) == (1e-8, 1e-6, 50, 20)

    def test_validation(self):
        for bad in (0, -3):
            with pytest.raises(ValueError, match="iteration caps must be at least 1"):
                FitSettings(max_outer=bad)

    @pytest.mark.parametrize("bad", [{"max_outer": 2.5}, {"max_outer": 50.0},
                                     {"max_outer": "20"}])
    def test_rejects_non_integral_caps(self, bad):
        # fit would fail later with a TypeError from range()
        with pytest.raises(ValueError, match="iteration caps must be integers"):
            FitSettings(**bad)

    @pytest.mark.parametrize("bad", [True, False, np.bool_(True)])
    def test_rejects_boolean_caps(self, bad):
        # FitSettings(max_outer=True) used to mean one outer sweep
        with pytest.raises(ValueError, match="iteration caps must be integers"):
            FitSettings(max_outer=bad)

    def test_accepts_numpy_integer_caps(self):
        assert FitSettings(max_outer=np.int64(7)).max_outer == 7


def test_stop_messages_name_the_fixed_caps():
    # run_scenario's failure reasons and the benchmark's reports quote both texts
    sc = ScenarioSpec(q=10, n_i=5, beta_true=(1.0, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
                      sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5, seed=1)
    f = fit(simulate_dataset(sc, 2.0, np.random.default_rng(1)), structure="ScF",
            settings=FitSettings(max_outer=1))
    assert not f.converged
    assert ("outer loop stopped at max_outer=1 before the 1e-06 criterion was met"
            in f.warnings)
    # the CF stall of the q=80 objective fixture from a non-zero start
    design, _, _ = _objective_fixture("CF", 80)
    with pytest.raises(NonConvergenceError, match=r"^inner Newton did not converge in 50 "
                       r"iterations \(max \|score\| = \d"):
        newton_at(design, FrailtySpec("CF", sigma_beta=0.8, phi=0.5),
                  np.full(3, 0.1), np.full(3, 0.1))


class TestInnerNewton:
    def test_starting_at_optimum_takes_zero_steps(self, small_dataset):
        design = build_design(small_dataset)
        spec = FrailtySpec("ScF", sigma_beta=0.5)
        res = newton_at(design, spec, np.full(2, 0.01), np.full(2, 0.01),
                        np.zeros(design.q))
        again = newton_at(design, spec, res.beta, res.alpha, res.v_beta)
        assert again.iterations == 0
        assert np.array_equal(again.x, res.x)

    def test_nf_matches_independent_optimizer(self, small_dataset):
        design = build_design(small_dataset)
        res = newton_at(design, FrailtySpec("NF"), np.full(2, 0.01), np.full(2, 0.01))
        negll, m = nf_negloglik("weibull", small_dataset)
        start = np.full(2 * m, 0.01)
        opt = scipy.optimize.minimize(negll, start, method="BFGS",
                                      options={"gtol": 1e-10, "maxiter": 500})
        opt = scipy.optimize.minimize(negll, opt.x, method="Nelder-Mead",
                                      options={"xatol": 1e-12, "fatol": 1e-14,
                                               "maxiter": 4000})
        got = np.concatenate([res.beta, res.alpha])
        assert got == pytest.approx(opt.x, abs=1e-6)

    def test_monotone_ascent(self):
        ds = small_weibull_dataset(seed=21, q=4, n_i=8, p=2)
        design = build_design(ds)
        spec = FrailtySpec("BVNF", sigma_beta=0.5, sigma_alpha=0.5, rho=0.2)
        ev = RecordingEvaluator("weibull", design, spec)
        x0 = ev.layout.pack(np.full(3, 0.01), np.full(3, 0.01),
                            np.zeros(design.q), np.zeros(design.q))
        res = _newton(ev, x0)
        assert res.monotone
        trace = np.array(ev.h_trace)
        floors = trace[:-1] - 1e-9 * (1.0 + np.abs(trace[:-1]))
        assert np.all(trace[1:] >= floors)

    def test_quadratic_local_convergence(self):
        # score norm drops superlinearly over the final iterations
        spec_sc = ScenarioSpec(
            q=20, n_i=20, beta_true=(1, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
            sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5, seed=99,
        )
        ds = simulate_dataset(spec_sc, 2.2, np.random.default_rng(99))
        design = build_design(ds)
        spec = FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5)
        ev = RecordingEvaluator("weibull", design, spec)
        x0 = ev.layout.pack(np.full(3, 0.01), np.full(3, 0.01),
                            np.full(design.q, 0.01), np.full(design.q, 0.01))
        _newton(ev, x0)
        tail = np.array(ev.score_trace[-3:])
        # successive contraction factors shrink: faster than linear
        r1 = tail[1] / tail[0]
        r2 = tail[2] / tail[1]
        assert r2 < r1 < 1.0


class TestOuterDispersion:
    def test_transform_round_trip(self):
        for structure, values in [
            ("ScF", (0.37,)),
            ("ShF", (1.21,)),
            ("IF", (0.5, 2.0)),
            ("CF", (0.8, -1.3)),
            ("BVNF", (0.9, 0.4, -0.55)),
        ]:
            law = FRAILTY_LAWS[structure]
            back = law.from_z(law.to_z(values)[None])[:, 0]
            assert back == pytest.approx(values, rel=1e-12)

    @pytest.mark.parametrize("structure, values", [
        ("ScF", (0.37,)),
        ("ShF", (1.21,)),
        ("IF", (0.5, 2.0)),
        ("CF", (0.8, -1.3)),
        ("BVNF", (0.9, 0.4, 0.9)),
        ("BVNF", (0.9, 0.4, -0.9)),
    ])
    def test_jacobian_matches_central_differences(self, structure, values):
        law = FRAILTY_LAWS[structure]
        z = law.to_z(values)
        step = 1e-6
        fd = np.empty((len(z), len(z)))
        for i in range(len(z)):
            e = np.zeros(len(z))
            e[i] = step
            fd[:, i] = (law.from_z((z + e)[None]) - law.from_z((z - e)[None]))[:, 0] / (2 * step)
        jac = law.jacobian(values)
        assert fd == pytest.approx(np.diag(jac), rel=1e-8, abs=1e-9)

    def test_rho_cap(self):
        vals = FRAILTY_LAWS["BVNF"].from_z(np.array([[0.0, 0.0, 50.0]]))[:, 0]
        assert vals[2] == pytest.approx(1.0 - 1e-6)

    def test_boundary_warnings(self):
        def collapsed(name, value):
            return (f"{name} collapsed to the boundary ({value}); consider the reduced "
                    "structure without this frailty component")

        cap = "rho reached the +-1 boundary cap; consider the CF structure"
        low = SIGMA_BOUNDARY / 2
        for structure, values, want in [
            ("ScF", (low,), [collapsed("sigma_beta", "5.00e-07")]),
            ("ShF", (low,), [collapsed("sigma_alpha", "5.00e-07")]),
            ("IF", (low, 1e-12), [collapsed("sigma_beta", "5.00e-07"),
                                  collapsed("sigma_alpha", "1.00e-12")]),
            ("IF", (0.5, low), [collapsed("sigma_alpha", "5.00e-07")]),
            ("CF", (low, -3.0), [collapsed("sigma_beta", "5.00e-07")]),
            ("BVNF", (low, low, RHO_CAP), [collapsed("sigma_beta", "5.00e-07"),
                                           collapsed("sigma_alpha", "5.00e-07"), cap]),
            ("BVNF", (0.5, 0.4, -RHO_CAP), [cap]),
            # inside the bounds, the bounds themselves included
            ("NF", (), []),
            ("ScF", (SIGMA_BOUNDARY,), []),
            ("IF", (SIGMA_BOUNDARY, 2.0), []),
            ("CF", (0.5, 0.0), []),
            ("BVNF", (SIGMA_BOUNDARY, 0.5, 0.999), []),
            ("BVNF", (0.5, 0.5, -0.999), []),
        ]:
            assert FRAILTY_LAWS[structure].boundary_warnings(values) == want

    @pytest.mark.parametrize("structure", STRUCTURES)
    def test_from_z_batch_equals_one_row_calls(self, structure):
        law = FRAILTY_LAWS[structure]
        k = len(law.names)
        rows = [np.full(k, v) for v in (0.0, -0.7, 1.3, 60.0, -60.0, np.inf, -np.inf, np.nan)]
        rows += [np.linspace(-2.0, 2.0, k), np.where(np.arange(k) == k - 1, np.nan, 0.4)]
        Z = np.array(rows).reshape(len(rows), k)
        values = law.from_z(Z)
        assert values.shape == (k, len(Z))
        for j in range(len(Z)):
            assert np.array_equal(values[:, j], law.from_z(Z[j:j + 1])[:, 0], equal_nan=True)

    def test_start_point_invariance(self, small_dataset):
        # the maximizer should not depend on small start perturbations
        design = build_design(small_dataset)
        spec = FrailtySpec("ScF", sigma_beta=0.5)
        inner = newton_at(design, spec, np.full(2, 0.01), np.full(2, 0.01),
                          np.full(design.q, 0.01))
        z0 = FRAILTY_LAWS["ScF"].to_z((0.5,))
        r1 = outer_dispersion("weibull", design, "ScF", z0, inner.x)
        r2 = outer_dispersion("weibull", design, "ScF", z0 + 0.05, inner.x)
        assert r1.z == pytest.approx(r2.z, abs=1e-4)


class TestFit:
    def test_nf_fit_equals_initializer(self, small_dataset):
        f = fit(small_dataset, structure="NF")
        negll, m = nf_negloglik("weibull", small_dataset)
        opt = scipy.optimize.minimize(negll, np.full(2 * m, 0.01), method="BFGS",
                                      options={"gtol": 1e-10})
        assert np.concatenate([f.beta, f.alpha]) == pytest.approx(opt.x, abs=1e-5)
        assert f.df_r == 0
        assert f.dispersion == {}
        assert f.converged

    def test_deterministic(self, small_dataset):
        f1 = fit(small_dataset, structure="ScF")
        f2 = fit(small_dataset, structure="ScF")
        assert np.array_equal(f1.beta, f2.beta)
        assert np.array_equal(f1.alpha, f2.alpha)
        assert np.array_equal(f1.v_beta, f2.v_beta)
        assert f1.dispersion == f2.dispersion
        assert f1.deviance_profile == f2.deviance_profile

    def test_scf_recovers_sigma_at_large_size(self):
        # one (q=100, n_i=50) draw: sigma_beta-hat within 3 sampling SEs of 1
        rng = np.random.default_rng(2024)
        q, n_i = 100, 50
        n = q * n_i
        idx = np.repeat(np.arange(q), n_i)
        from mprfrailty.simulation import gen_covariates, gen_survival_times

        x = gen_covariates(n, 2, rng)
        vb = 1.0 * rng.standard_normal(q)
        beta = np.array([0.8, -0.4, 0.3])
        alpha = np.array([0.3, 0.2, -0.2])
        t = gen_survival_times(
            "weibull", np.exp(beta[0] + x @ beta[1:] + vb[idx]),
            np.exp(alpha[0] + x @ alpha[1:]), rng,
        )
        c = 3.0 * rng.random(n)
        from mprfrailty import Dataset

        ds = Dataset([str(i) for i in idx], np.minimum(t, c),
                     (t <= c).astype(int), x, ["x1", "x2"])
        f = fit(ds, structure="ScF")
        assert f.converged
        se = f.se_dispersion["sigma_beta"]
        assert abs(f.dispersion["sigma_beta"] - 1.0) < 3 * max(se, 0.08)

    def test_init_insensitivity_table2_20x20(self, monkeypatch):
        spec_sc = ScenarioSpec(
            q=20, n_i=20, beta_true=(1, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
            sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5, seed=42,
        )
        ds = simulate_dataset(spec_sc, 2.17, np.random.default_rng(42))
        f_warm = fit(ds, structure="BVNF")
        # the fixed effects start flat at 0.01 instead of from the no-frailty fit
        monkeypatch.setattr("mprfrailty.fitting._initial_theta", lambda design: SimpleNamespace(
            beta=np.full(design.m_beta, 0.01), alpha=np.full(design.m_alpha, 0.01), iterations=0))
        f_flat = fit(ds, structure="BVNF")
        a = np.concatenate([f_warm.beta, f_warm.alpha,
                            list(f_warm.dispersion.values())])
        b = np.concatenate([f_flat.beta, f_flat.alpha,
                            list(f_flat.dispersion.values())])
        assert np.max(np.abs(a - b)) < 1e-4

    def test_converged_fit_is_stationary(self, small_dataset):
        f = fit(small_dataset, structure="IF")
        assert f.converged
        ev = Evaluator("weibull", build_design(small_dataset), f.spec)
        _, g, _ = ev.h_score_info(ev.layout.pack(f.beta, f.alpha, f.v_beta, f.v_alpha))
        assert np.max(np.abs(g)) < 1e-6

    def test_se_from_inverse_information(self, small_dataset):
        f = fit(small_dataset, structure="NF")
        ev = Evaluator("weibull", build_design(small_dataset), f.spec)
        H = ev.information(ev.layout.pack(f.beta, f.alpha)).to_dense()
        se = np.sqrt(np.diag(np.linalg.inv(H)))
        assert np.concatenate([f.se_beta, f.se_alpha]) == pytest.approx(se, rel=1e-8)

    def test_df_c_between_bounds(self, small_dataset):
        f = fit(small_dataset, structure="BVNF")
        m = len(f.beta) + len(f.alpha)
        assert m - 1e-9 <= f.df_c <= m + 2 * len(f.cluster_labels) + 1e-9

    def test_boundary_warning_on_frailty_free_data(self):
        # data generated without any cluster effect: sigma collapses
        ds = small_weibull_dataset(seed=33, q=8, n_i=25, p=1)
        rng = np.random.default_rng(33)
        t = (-np.log(np.clip(rng.random(200), 1e-12, None))) ** 1.0
        ds = type(ds)(
            [f"c{i}" for i in np.repeat(np.arange(8), 25)],
            np.maximum(t, 1e-9), np.ones(200, dtype=int),
            rng.standard_normal((200, 1)), ["x1"],
        )
        f = fit(ds, structure="ScF")
        assert f.dispersion["sigma_beta"] < 0.05
        if f.dispersion["sigma_beta"] < 1e-6:
            assert any("boundary" in w for w in f.warnings)

    def test_serialization_round_trip(self, small_dataset):
        f = fit(small_dataset, structure="BVNF")
        d = f.to_dict()
        back = ModelFit.from_dict(d)
        assert back.structure == f.structure
        assert back.beta == pytest.approx(f.beta, rel=0, abs=0)
        assert back.dispersion == pytest.approx(f.dispersion)
        assert back.cluster_labels == [str(c) for c in f.cluster_labels]
        assert np.array_equal(back.cov_theta, f.cov_theta)
        assert back.modal_covariates == f.modal_covariates

    def test_nan_standard_errors_write_as_null_and_read_back_as_nan(self, small_dataset):
        f = fit(small_dataset, structure="ScF")
        f = dataclasses.replace(f, se_beta=np.r_[np.nan, f.se_beta[1:]],
                                se_dispersion={"sigma_beta": math.nan})
        d = json.loads(json.dumps(f.to_dict(), allow_nan=False))
        assert d["se_beta"][0] is None and d["se_dispersion"] == {"sigma_beta": None}
        back = ModelFit.from_dict(d)
        assert np.isnan(back.se_beta[0]) and np.array_equal(back.se_beta[1:], f.se_beta[1:])
        assert math.isnan(back.se_dispersion["sigma_beta"])

    @pytest.mark.parametrize("structure, family, max_outer", [
        *[(s, "weibull", None) for s in STRUCTURES], ("ScF", "weibull", 1), ("ScF", "gompertz", None)])
    def test_to_dict_holds_json_types_in_field_order(self, structure, family, max_outer):
        ds = small_weibull_dataset(seed=11, q=5, n_i=12, p=1, censor_scale=3.0)
        f = fit(ds, structure=structure, family=family,
                settings=max_outer and FitSettings(max_outer=max_outer))
        assert f.converged == (max_outer is None)

        def json_types(value):
            if type(value) is dict:
                return all(type(k) is str and json_types(v) for k, v in value.items())
            if type(value) is list:
                return all(map(json_types, value))
            return value is None or type(value) in (str, int, float, bool)

        d = f.to_dict()
        assert list(d) == [fl.name for fl in dataclasses.fields(ModelFit) if fl.name != "H"]
        assert json_types(d)

    def test_gompertz_and_loglogistic_fit(self):
        ds = small_weibull_dataset(seed=11, q=5, n_i=12, p=1, censor_scale=3.0)
        for family in ("gompertz", "loglogistic"):
            f = fit(ds, structure="ScF", family=family)
            assert f.converged
            assert f.family == family
            assert np.all(np.isfinite(f.beta))

    def test_iterations_metadata(self, small_dataset):
        f = fit(small_dataset, structure="ScF")
        assert f.iterations["outer"] >= 1
        assert f.iterations["inner_total"] >= 1

    def test_nf_fit_warns_of_a_non_increasing_step(self, small_dataset, monkeypatch):
        # NF shares the other structures' final solve and its warnings
        newton = fitting._newton
        monkeypatch.setattr(fitting, "_newton", lambda ev, x0: dataclasses.replace(
            newton(ev, x0), monotone=False))
        patched = fit(small_dataset, structure="NF", family="gompertz")
        assert patched.warnings == ["inner step-halving accepted a non-increasing step"]
        monkeypatch.undo()
        f = fit(small_dataset, structure="NF", family="gompertz")
        assert f.warnings == []
        # the Gompertz solve takes Newton steps from the Weibull start
        init = fitting._initial_theta(build_design(small_dataset))
        assert f.iterations["outer"] == 0 and f.iterations["inner_total"] > init.iterations
        assert np.array_equal(patched.beta, f.beta) and np.array_equal(patched.alpha, f.alpha)

    def test_outer_ascent_on_regular_fixture(self):
        # the alternation is not a joint ascent scheme in general, but on a
        # well-behaved problem the matched profile should climb steadily
        from mprfrailty.fitting import (
            _START_DISPERSION,
            _initial_theta,
            _newton,
            _spec_with_z,
            outer_dispersion,
        )

        spec_sc = ScenarioSpec(
            q=10, n_i=20, beta_true=(1, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
            sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5, seed=3,
        )
        ds = simulate_dataset(spec_sc, 2.17, np.random.default_rng(3))
        design = build_design(ds)
        init = _initial_theta(design)
        z = FRAILTY_LAWS["BVNF"].to_z((_START_DISPERSION,) * 3)
        spec = _spec_with_z("BVNF", z)
        ev = Evaluator("weibull", design, spec)
        x = ev.layout.pack(init.beta, init.alpha,
                           np.full(design.q, 0.01), np.full(design.q, 0.01))
        profile_trace = []
        for _ in range(12):
            res = _newton(Evaluator("weibull", design, spec), x)
            x = res.x
            obj = _DispersionObjective("weibull", design, "BVNF", x)
            profile_trace.append(obj._values(np.array([z]))[0])
            out = outer_dispersion("weibull", design, "BVNF", z, x)
            z, spec = out.z, out.spec
        assert np.all(np.diff(profile_trace) > -1e-10)


@pytest.fixture(scope="module")
def mixed_step_1_fails():
    """Replicate 10 of the benchmark's mc-heavy-censor scenario, drawn as ``run_scenario`` draws it.

    Step 1 of its BVNF fit raises NonConvergenceError at a dispersion that
    the secant mix produced; at that sweep's Step-2 point it converges.
    """
    spec = ScenarioSpec(q=20, n_i=5, censor_rate=0.5, replicates=20, seed=20251, **TABLE2_TRUTH)
    children = np.random.SeedSequence(spec.seed).spawn(spec.replicates + 1)
    c_max = calibrate_censoring(spec, np.random.default_rng(children[0]))
    return simulate_dataset(spec, c_max, np.random.default_rng(children[11]))


class TestSecantFallback:
    def test_step_1_reruns_at_the_unmixed_point(self, mixed_step_1_fails, monkeypatch):
        calls, failed = [], []

        def recording(ev, x):
            calls.append((ev.spec, np.array(x)))
            try:
                return _newton(ev, x)
            except NonConvergenceError:
                failed.append(len(calls))
                raise

        monkeypatch.setattr(fitting, "_newton", recording)
        f = fit(mixed_step_1_fails, structure="BVNF", settings=FitSettings(max_outer=600))
        assert f.converged and f.iterations["outer"] == 39
        # one Step 1 failed, and the next call ran from the same x at another dispersion
        assert len(failed) == 1
        (spec, x), (retry_spec, retry_x) = calls[failed[0] - 1:failed[0] + 1]
        assert np.array_equal(retry_x, x) and retry_spec != spec

    def test_a_failing_retry_raises(self, mixed_step_1_fails, monkeypatch):
        failed = []

        def failing_again(ev, x):
            if failed:
                raise failed[0]
            try:
                return _newton(ev, x)
            except NonConvergenceError as exc:
                failed.append(exc)
                raise

        monkeypatch.setattr(fitting, "_newton", failing_again)
        with pytest.raises(NonConvergenceError, match="inner Newton did not converge"):
            fit(mixed_step_1_fails, structure="BVNF", settings=FitSettings(max_outer=600))


class TestCfStart:
    """CF starts on its fitted ScF face, (theta, v_beta, sigma_beta) of ScF with phi = 0;
    where that run fails, the default start runs too and the larger p is the fit.
    A start is checked against the structure's face in ``fitting.FACES``."""

    def test_cf_converges_from_the_scf_face(self, q50_seed3_fits):
        ds, scf, cf = q50_seed3_fits
        assert cf.converged and cf.iterations["start"] == "ScF"
        assert scf.deviance_profile == pytest.approx(-236.36, abs=5e-3)
        assert cf.deviance_profile == pytest.approx(-315.90, abs=5e-3)
        assert "start: ScF" in fit_table_text(cf)
        assert "start" not in scf.iterations and "start" not in fit_table_text(scf)

    def test_the_default_start_is_kept_where_its_p_is_larger(self):
        # the face run drifts to the ShF limit and stops at max_outer with deviance 58.49;
        # from the default start CF converges lower
        ds = small_weibull_dataset(seed=11, q=5, n_i=12, p=1, censor_scale=3.0)
        f = fit(ds, structure="CF")
        assert f.converged and "start" not in f.iterations
        assert f.dispersion["sigma_beta"] == pytest.approx(0.1851636, abs=1e-6)
        assert f.dispersion["phi"] == pytest.approx(1.3898484, abs=1e-6)
        assert f.deviance_profile == pytest.approx(56.953542, abs=1e-6)
        design = build_design(ds)
        end = fitting._alternate("weibull", design, "CF", FitSettings(), start=fit(ds, structure="ScF"))
        face = fitting._finish("weibull", design, ds, end)
        assert not face.converged and face.iterations["start"] == "ScF"
        assert face.deviance_profile > f.deviance_profile

    def test_a_given_start_is_the_scf_fit_cf_makes_itself(self, q50_seed3_fits):
        ds, scf, cf = q50_seed3_fits
        assert fit(ds, structure="CF", start=scf).to_dict() == cf.to_dict()

    @pytest.mark.parametrize("structure, start, message", [
        ("CF", dict(structure="ShF"), "fitted ScF model"),
        ("CF", dict(structure="CF"), "fitted ScF model"),
        ("CF", dict(family="gompertz"), "family"),
        ("CF", dict(scale_covariates=[]), "scale covariates"),
        ("CF", dict(shape_covariates=[]), "shape covariates"),
        ("ScF", {}, "CF fits only"),
        ("BVNF", {}, "fitted IF model"),
        ("CF", dict(structure="IF"), "fitted ScF model"),
        ("BVNF", dict(structure="BVNF"), "fitted IF model"),
        ("NF", dict(structure="IF"), "BVNF and CF fits only"),
        ("ShF", dict(structure="IF"), "BVNF and CF fits only"),
        ("IF", dict(structure="IF"), "BVNF and CF fits only"),
        ("BVNF", dict(structure="IF", family="gompertz"), "family"),
        ("BVNF", dict(structure="IF", scale_covariates=[]), "scale covariates"),
        ("BVNF", dict(structure="IF", shape_covariates=[]), "shape covariates"),
    ])
    def test_a_start_that_does_not_fit_raises(self, structure, start, message):
        ds = small_weibull_dataset(seed=11, q=5, n_i=12, p=1, censor_scale=3.0)
        given = fit(ds, **{"structure": "ScF", **start})
        with pytest.raises(DomainError, match=message):
            fit(ds, structure=structure, start=given)

    def test_a_start_on_other_clusters_or_not_a_fit_raises(self):
        ds = small_weibull_dataset(seed=11, q=5, n_i=12, p=1, censor_scale=3.0)
        other = small_weibull_dataset(seed=11, q=6, n_i=10, p=1, censor_scale=3.0)
        with pytest.raises(DomainError, match="cluster labels"):
            fit(ds, structure="CF", start=fit(other, structure="ScF"))
        with pytest.raises(DomainError, match="cluster labels"):
            fit(ds, structure="BVNF", start=fit(other, structure="IF"))
        with pytest.raises(DomainError, match="fitted ScF model"):
            fit(ds, structure="CF", start=fit(ds, structure="ScF").to_dict())


class TestBvnfStart:
    """BVNF starts on its fitted IF face, (theta, v) and the sigmas of IF with rho = 0,
    only when handed an IF fit; a plain BVNF fit runs from the default start."""

    def test_bvnf_from_its_if_face_ends_at_the_default_starts_point(self):
        # analyst-deep's data set: x1 cut at 0 into a 0/1 treatment
        ds = table2_replicate(q=100, n_i=50, censor_rate=0.25, seed=1)
        ds = Dataset(ds.clusters, ds.time, ds.status,
                     np.column_stack([ds.covariates[:, 0] > 0, ds.covariates[:, 1]]),
                     ["treatment", "x2"])
        default = fit(ds, structure="BVNF")
        face = fit(ds, structure="BVNF", start=fit(ds, structure="IF"))
        assert default.converged and face.converged
        assert face.iterations["start"] == "IF" and "start" not in default.iterations
        assert face.iterations["outer"] < default.iterations["outer"]
        assert "start: IF" in fit_table_text(face)
        for name, value in default.dispersion.items():
            assert face.dispersion[name] == pytest.approx(value, abs=1e-6)
        assert face.deviance_profile == pytest.approx(default.deviance_profile, abs=1e-6)
        np.testing.assert_allclose(face.beta, default.beta, atol=1e-6)
        np.testing.assert_allclose(face.alpha, default.alpha, atol=1e-6)


class TestBlockCurvatureFit:
    @pytest.mark.parametrize("q", [10, 150])
    @pytest.mark.parametrize("structure", ["ScF", "ShF", "BVNF"])
    def test_standard_errors_and_df_c_match_dense(self, q, structure):
        sc = ScenarioSpec(q=q, n_i=5, beta_true=(1.0, -0.5, 0.5),
                          alpha_true=(0.5, 0.5, -0.5), sigma_beta=1.0,
                          sigma_alpha=0.5, rho=-0.5, censor_rate=0.25, seed=q)
        ds = simulate_dataset(sc, 2.0, np.random.default_rng(q))
        f = fit(ds, structure=structure)
        Hd = f.H.to_dense()
        Hinv = np.linalg.inv(Hd)
        se = np.sqrt(np.diag(Hinv))
        m = len(f.beta) + len(f.alpha)
        assert rel_err(f.cov_theta, Hinv[:m, :m]) < 1e-10
        assert rel_err(np.concatenate([f.se_beta, f.se_alpha]), se[:m]) < 1e-10
        se_v = [s for s in (f.se_v_beta, f.se_v_alpha) if s is not None]
        assert rel_err(np.concatenate(se_v), se[m:]) < 1e-10
        lay = f.H.layout
        x = lay.pack(f.beta, f.alpha, f.v_beta, f.v_alpha)
        ev = Evaluator("weibull", build_design(ds), f.spec)
        H_star = ev.information(x, penalty=False).to_dense()
        df_c = np.trace(np.linalg.solve(Hd, H_star))
        assert abs(f.df_c - df_c) / df_c < 1e-10

    def test_large_q_fit_allocates_no_dense_information(self):
        import tracemalloc

        sc = ScenarioSpec(q=2000, n_i=3, beta_true=(1.0, -0.5, 0.5),
                          alpha_true=(0.5, 0.5, -0.5), sigma_beta=1.0,
                          sigma_alpha=0.5, rho=-0.5, censor_rate=0.25, seed=2000)
        ds = simulate_dataset(sc, 2.0, np.random.default_rng(2000))
        tracemalloc.start()
        try:
            f = fit(ds, structure="BVNF")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert f.converged
        # a dense (4002 x 4002) information alone would take 128 MB
        assert peak < 32e6


def _fixture_dataset(q):
    """A (q, n_i = 5) data set at the Table-2 truth with 25% censoring, seeded by q."""
    sc = ScenarioSpec(q=q, n_i=5, beta_true=(1.0, -0.5, 0.5),
                      alpha_true=(0.5, 0.5, -0.5), sigma_beta=1.0,
                      sigma_alpha=0.5, rho=-0.5, censor_rate=0.25, seed=q)
    return simulate_dataset(sc, 2.0, np.random.default_rng(q))


def _objective_fixture(structure, q):
    """(design, x, z): the inner maximizer of h at a Table-2-like dispersion."""
    design = build_design(_fixture_dataset(q))
    z = FRAILTY_LAWS[structure].to_z({
        "ScF": (0.8,), "ShF": (0.6,), "IF": (0.8, 0.6), "CF": (0.8, 0.5),
        "BVNF": (0.8, 0.6, -0.4)}[structure])
    res = newton_at(design, _spec_with_z(structure, z), np.zeros(3), np.zeros(3))
    return design, res.x, z


def _profiles(obj, Z):
    """p (None where not evaluable) at each row of Z, one batch counted as Step 2 counts it."""
    Z = np.asarray(Z, dtype=float)
    p = obj._values(Z)
    obj._record(Z, p)
    return [None if math.isnan(v) else v for v in p]


def _neg_profile(obj, z):
    """-p at z from a one-row batch, the penalty where p is None."""
    p = _profiles(obj, [z])[0]
    return _OBJECTIVE_PENALTY if p is None else -p


def _logdet(H):
    """log det H itself, from a one-row stack of zero precisions; CurvatureError where not PD."""
    logdet = H.logdet(np.zeros((1, H.layout.k, H.layout.k)))[0]
    if math.isnan(logdet):
        raise CurvatureError("information matrix is not positive definite")
    return logdet


def _reference_objective(design, structure, x, z):
    """-p(z) from a fresh Evaluator and the full penalized information."""
    ev = Evaluator("weibull", design, _spec_with_z(structure, z))
    dim = ev.layout.dim
    return -(ev.h(x) - 0.5 * (_logdet(ev.information(x)) - dim * LOG_2PI))


def _stencil(z):
    """[z, z - h_0 e_0, z + h_0 e_0, ...]: scipy's 3-point rule, one coordinate at a time."""
    z = np.asarray(z, dtype=float)
    h = np.where(z >= 0, 1.0, -1.0) * _FD_STEP * np.maximum(1.0, np.abs(z))
    points = [z]
    for i in range(len(z)):
        lo, hi = z.copy(), z.copy()
        lo[i] -= h[i]
        hi[i] += h[i]
        points += [lo, hi]
    return points


def _ell2_one(sig, rho, q, u):
    """sum_i ell2_i at one dispersion, as a loop over points would compute it."""
    if len(sig) == 1:
        s = sig[0]
        return float(-q * (0.5 * LOG_2PI + math.log(s)) - 0.5 * np.sum(u[0]**2) / s**2)
    sb, sa = sig
    omr = 1.0 - rho * rho
    const = -q * (LOG_2PI + math.log(sb) + math.log(sa) + 0.5 * math.log(omr))
    ub, ua = u[0] / sb, u[1] / sa
    quad = (ub**2 + ua**2 - 2.0 * rho * ub * ua).sum()
    return float(const - 0.5 * quad / omr)


def _penalty_one(sig, rho):
    if len(sig) == 1:
        return np.array([[1.0 / sig[0]**2]])
    sb, sa = sig
    c = 1.0 / (1.0 - rho * rho)
    cross = -c * rho / (sb * sa)
    return np.array([[c / sb**2, cross], [cross, c / sa**2]])


def _logdet_one(H):
    """log det H by one Cholesky factorization, None when H is not PD.

    Dense up to DENSE_MAX_DIM, else through the Schur complement of the
    frailty blocks with the arithmetic of a single-point evaluation: the
    closed-form entries (0, 0), (0, 1), (1, 1) of every D_i^-1, and S from
    one vector-matrix product against the packed (a <= b) border products.
    """
    try:
        if H.dim <= DENSE_MAX_DIM:
            c = scipy.linalg.cho_factor(H.to_dense(), lower=True)[0]
            return 2.0 * float(np.log(c.diagonal()).sum())
        D, B = H.D, H.B
        det = D[0, 0] if len(D) == 1 else D[0, 0] * D[1, 1] - D[0, 1] * D[0, 1]
        if not (np.all(D[0, 0] > 0) and np.all(det > 0)):
            return None
        rows, cols = np.triu_indices(len(H.A))
        if len(D) == 1:
            e, products = [1.0 / det], [B[0][rows] * B[0][cols]]
        else:
            e = [D[1, 1] / det, -D[0, 1] / det, D[0, 0] / det]
            products = [B[0][rows] * B[0][cols],
                        B[0][rows] * B[1][cols] + B[1][rows] * B[0][cols],
                        B[1][rows] * B[1][cols]]
        O = np.concatenate(products, axis=1)
        S = np.zeros_like(H.A)
        S[cols, rows] = H.A[cols, rows] - np.concatenate(e)[None] @ O.T
        c = scipy.linalg.cho_factor(S, lower=True)[0]
        return float(np.sum(np.log(det))) + 2.0 * float(np.log(c.diagonal()).sum())
    except scipy.linalg.LinAlgError:
        return None


def _negate_blocks(H):
    """H with its frailty blocks negated: D_i + P is PD only for a large enough P."""
    return Curvature(H.layout, H.A, H.B, -H.D, H.P)


def _shift_fixed_block(H):
    """H with 0.999 of A's smallest eigenvalue taken off A's diagonal.

    The Schur complement A - B (D + P)^-1 B' then stays PD only while
    (D + P)^-1 is tiny, that is at sigmas near their lower cap.
    """
    shift = 0.999 * np.linalg.eigvalsh(H.A)[0]
    return Curvature(H.layout, H.A - shift * np.eye(len(H.A)), H.B, H.D, H.P)


def _sequential_profiles(design, structure, x, Z, modify=None):
    """(p at each row of Z, best (p, z)), one point at a time from a fresh data part.

    ``modify`` maps each penalty-free curvature to the one used.
    """
    law = FRAILTY_LAWS[structure]
    u = x[design.m_beta + design.m_alpha:].reshape(law.k, design.q)
    ps, best = [], None
    for z in Z:
        disp = dict(zip(law.names, law.from_z(np.asarray(z, dtype=float)[None])[:, 0]))
        p = None
        if all(math.isfinite(v) for v in disp.values()):
            fresh = copy.copy(design)
            fresh.kept_pass = None
            spec = FrailtySpec(structure=structure, **disp)
            try:
                ell1_sum, H = Evaluator("weibull", fresh, spec).data_part(x)
            except MPRFrailtyError:
                H = None
            if H is not None:
                H = modify(H) if modify else H
                sig, rho = law.sigma(disp)
                logdet = _logdet_one(H.with_penalty(_penalty_one(sig, rho)))
                if logdet is not None:
                    hval = ell1_sum + _ell2_one(sig, rho, design.q, u)
                    p = hval - 0.5 * (logdet - H.dim * LOG_2PI)
        ps.append(p)
        if p is not None and (best is None or p > best[0]):
            best = (p, np.array(z, dtype=float))
    return ps, best


def _modify_data(obj, modify):
    """Make obj's penalty-free curvatures modify(theirs)."""
    data_part = obj._data_part

    def modified(*args):
        ell1_sum, H = data_part(*args)
        return ell1_sum, modify(H)

    obj._data_part = modified


# Step 2's search budgets in objective evaluations, which is what maxfun
# counts under scipy's own 3-point differences
_UNSCALED_OPTIONS = {
    "loose": {"gtol": 1e-5, "ftol": 1e-12, "maxiter": 15, "maxfun": 40},
    "tight": {"gtol": 5e-7, "ftol": 1e-14, "maxiter": 60, "maxfun": 200},
}


def _scipy_3_point_outer(design, structure, x, z0, effort):
    """(OuterResult, p at its point, L-BFGS-B message) of the search under jac="3-point"."""
    obj = _DispersionObjective("weibull", design, structure, x)
    _profiles(obj, [z0])
    res = scipy.optimize.minimize(lambda z: _neg_profile(obj, z), z0, method="L-BFGS-B",
                                  jac="3-point", options=_UNSCALED_OPTIONS[effort])
    p, z = obj.best
    out = OuterResult(spec=_spec_with_z(structure, z), z=z,
                      n_eval=obj.n_eval, gradient_converged=bool(res.status == 0))
    return out, p, res.message


class TestDispersionObjective:
    @pytest.mark.parametrize("q", [5, 80])
    @pytest.mark.parametrize("structure", ["ScF", "ShF", "IF", "CF", "BVNF"])
    def test_equals_reference_formula(self, structure, q):
        design, x, z0 = _objective_fixture(structure, q)
        obj = _DispersionObjective("weibull", design, structure, x)
        # q=5 is factored densely, q=80 through the Schur complement
        assert (len(x) <= DENSE_MAX_DIM) == (q == 5)
        zs = [z0 + d for d in (0.0, 0.3, -0.2, 0.05, 0.0)]
        if structure == "CF":
            # phi returns to earlier values, and 1e6 overflows v_alpha = phi * v_beta
            zs = [z0, z0 + [0.3, 0.0], z0 + [0.0, -0.8], z0 + [-0.2, -0.8],
                  np.array([z0[0], 1e6]), np.array([z0[0] + 0.1, 1e6]),
                  z0 + [0.1, -0.8], z0 + [0.1, 0.0], np.array([z0[0], 1e6]), z0]
        n_raised = 0
        for z in zs:
            try:
                want = _reference_objective(design, structure, x, z)
            except MPRFrailtyError:
                want = _OBJECTIVE_PENALTY
                n_raised += 1
            assert _neg_profile(obj, z) == want
        assert obj.n_eval == len(zs)
        assert n_raised == (3 if structure == "CF" else 0)
        if q == 5:
            # the dense side calls the LAPACK routine cho_factor wraps
            H = Evaluator("weibull", design, _spec_with_z(structure, z0)).information(x)
            c, _ = scipy.linalg.cho_factor(H.to_dense(), lower=True)
            assert _logdet(H) == 2.0 * float(np.sum(np.log(np.diag(c))))

    @pytest.mark.parametrize("structure", ["ScF", "IF", "CF", "BVNF"])
    def test_non_finite_dispersion_is_penalized(self, structure):
        design, x, z0 = _objective_fixture(structure, 5)
        obj = _DispersionObjective("weibull", design, structure, x)
        for i in range(len(z0)):
            z = z0.copy()
            z[i] = np.nan
            assert _neg_profile(obj, z) == _OBJECTIVE_PENALTY
        if structure == "CF":
            assert _neg_profile(obj, np.array([z0[0], np.inf])) == _OBJECTIVE_PENALTY
        assert obj.n_eval == len(z0) + (structure == "CF")
        assert obj.best is None
        assert _neg_profile(obj, z0) == _reference_objective(design, structure, x, z0)

    @pytest.mark.parametrize("effort", ["loose", "tight"])
    @pytest.mark.parametrize("q", [5, 80])
    @pytest.mark.parametrize("structure", ["ScF", "ShF", "IF", "BVNF"])
    def test_own_gradient_repeats_scipy_3_point(self, structure, q, effort):
        design, x, z0 = _objective_fixture(structure, q)
        want, p_want, message = _scipy_3_point_outer(design, structure, x, z0, effort)
        got = outer_dispersion("weibull", design, structure, z0, x, effort=effort)
        assert np.array_equal(got.z, want.z)
        obj = _DispersionObjective("weibull", design, structure, x)
        assert obj._values(got.z[None])[0] == p_want
        assert got.spec == want.spec
        # the reference probes z0 and then evaluates it again as the first point of
        # L-BFGS-B's first stencil; outer_dispersion evaluates that stencil once
        assert got.n_eval == want.n_eval - 1
        assert got.gradient_converged == want.gradient_converged
        if effort == "loose" and structure == "BVNF":
            # this search ends on the rescaled maxfun cap
            assert "EVALUATIONS EXCEEDS LIMIT" in message.upper()

    @pytest.mark.parametrize("q", [5, 80])
    def test_cf_tight_newton_ends_at_the_3_point_maximizer(self, q):
        # CF's Step 2 is a damped Newton ascent on the Hessian stencil; a tight
        # search ends where L-BFGS-B on scipy's 3-point rule ends, to 1e-7 in z,
        # with p not lower beyond rounding, in fewer evaluations
        design, x, z0 = _objective_fixture("CF", q)
        want, p_want, _ = _scipy_3_point_outer(design, "CF", x, z0, "tight")
        got = outer_dispersion("weibull", design, "CF", z0, x, effort="tight")
        assert got.gradient_converged and want.gradient_converged
        assert np.max(np.abs(got.z - want.z)) < 1e-7
        p_got = _DispersionObjective("weibull", design, "CF", x)._values(got.z[None])[0]
        assert p_got >= p_want - 1e-14 * abs(p_want)
        assert got.spec == _spec_with_z("CF", got.z)
        assert got.n_eval < want.n_eval

    @pytest.mark.parametrize("q, shift, trials", [(5, [1.5, 0.0], 4), (80, [0.5, 0.5], 2)])
    def test_cf_loose_newton_spends_one_stencil_and_its_halvings(self, monkeypatch, q, shift,
                                                                 trials):
        design, x, z0 = _objective_fixture("CF", q)
        batches = []
        values = _DispersionObjective._values
        monkeypatch.setattr(_DispersionObjective, "_values",
                            lambda self, Z: batches.append((Z, values(self, Z))) or batches[-1][1])
        out = outer_dispersion("weibull", design, "CF", z0 + shift, x, effort="loose")
        # the 1 + 2k^2 = 9 rows of the Hessian stencil at the start, then one row per
        # trial step, halved until p there does not fall below p at the start
        (Z0, p), *steps = batches
        assert len(Z0) == 9 and np.array_equal(Z0[0], z0 + shift)
        assert [len(Z) for Z, _ in steps] == [1] * trials
        assert [v[0] < p[0] for _, v in steps] == [True] * (trials - 1) + [False]
        offsets = [Z[0] - Z0[0] for Z, _ in steps]
        for longer, shorter in zip(offsets, offsets[1:]):
            np.testing.assert_allclose(shorter, 0.5 * longer, rtol=1e-12)
        assert out.n_eval == 9 + trials
        assert np.array_equal(out.z, steps[-1][0][0]) and not out.gradient_converged

    def test_outer_dispersion_returns_spec_of_best_point(self, monkeypatch):
        design, x, z0 = _objective_fixture("BVNF", 5)
        trials = [np.full(3, np.nan), z0 + 0.05, z0 - 0.05, z0 + [0.0, np.nan, 0.0]]

        def probing_minimize(fun, z_start, **kwargs):
            # one call per trial point returns its value and gradient
            assert kwargs["jac"] is True
            values = [fun(z)[0] for z in trials]
            assert values[0] == values[3] == _OBJECTIVE_PENALTY
            return SimpleNamespace(status=0)

        monkeypatch.setattr(scipy.optimize, "minimize", probing_minimize)
        out = outer_dispersion("weibull", design, "BVNF", z0, x)
        # the start point's stencil, then each trial point with its 2k = 6-point stencil
        assert out.n_eval == 7 + 7 * len(trials)
        finite = [pt for z in [z0] + trials[1:3] for pt in _stencil(z)]
        values = [-_reference_objective(design, "BVNF", x, z) for z in finite]
        best = int(np.argmax(values))
        assert np.array_equal(out.z, finite[best])
        obj = _DispersionObjective("weibull", design, "BVNF", x)
        assert obj._values(out.z[None])[0] == values[best]
        assert isinstance(out.spec, FrailtySpec)
        assert out.spec == _spec_with_z("BVNF", finite[best])


class TestBatchedProfiles:
    @pytest.mark.parametrize("q", [5, 80])
    @pytest.mark.parametrize("structure", ["ScF", "ShF", "IF", "CF", "BVNF"])
    def test_equals_sequential_formula(self, structure, q):
        design, x, z0 = _objective_fixture(structure, q)
        law = FRAILTY_LAWS[structure]
        sig = np.array([n.startswith("sigma") for n in law.names], dtype=float)
        Z = [z0, z0 - 3.0 * sig, z0 + 0.3, np.full(len(z0), np.nan), z0 - 3.0 * sig,
             z0 - 2.0 * sig, z0 + 0.5 * sig, z0 - 0.2]
        if structure == "CF":
            # three phi groups, one of them revisited, and one that overflows
            Z += [z0 + [0.0, 0.1], z0 + [0.1, 0.0], z0 + [0.0, -0.2], z0 + [0.2, 0.1],
                  np.array([z0[0], 1e6])]
        # rows that cannot be evaluated: the NaN row, CF's overflow, and
        # with negated frailty blocks the rows whose sigmas are not small
        patterns = {None: "...N....", _negate_blocks: "N.NN..NN"}
        for modify, pattern in patterns.items():
            obj = _DispersionObjective("weibull", design, structure, x)
            if modify:
                _modify_data(obj, modify)
            want, best = _sequential_profiles(design, structure, x, Z, modify)
            assert _profiles(obj, Z) == want
            assert obj.n_eval == len(Z)
            assert obj.best[0] == best[0] and np.array_equal(obj.best[1], best[1])
            if structure == "CF":
                pattern += "NNNNN" if modify else "....N"
            assert "".join("N" if p is None else "." for p in want) == pattern

    @pytest.mark.parametrize("q", [5, 80])
    @pytest.mark.parametrize("structure", ["ScF", "ShF", "IF", "CF", "BVNF"])
    @pytest.mark.parametrize("modify", [_negate_blocks, _shift_fixed_block])
    def test_first_of_tied_points_is_best(self, structure, q, modify):
        design, x, z0 = _objective_fixture(structure, q)
        sig = np.array([n.startswith("sigma") for n in FRAILTY_LAWS[structure].names])
        # every sigma below exp(-27.6) is capped at 1e-12, so the first two rows tie
        Z = [np.where(sig, -45.0, z0), np.where(sig, -40.0, z0), z0 + 1.0 * sig]
        obj = _DispersionObjective("weibull", design, structure, x)
        _modify_data(obj, modify)
        want, best = _sequential_profiles(design, structure, x, Z, modify)
        got = _profiles(obj, Z)
        assert got == want and got[0] == got[1] and got[2] is None
        assert np.array_equal(obj.best[1], Z[0])

    @pytest.mark.parametrize("q", [5, 80])
    @pytest.mark.parametrize("structure", ["ScF", "ShF", "IF", "CF", "BVNF"])
    def test_value_and_gradient_is_the_3_point_rule(self, structure, q):
        design, x, z0 = _objective_fixture(structure, q)
        zero = z0.copy()
        zero[0] = 0.0
        for z in (z0, -z0, zero):
            obj = _DispersionObjective("weibull", design, structure, x)
            f, g = obj.value_and_gradient(z)
            points = _stencil(z)
            values, best = _sequential_profiles(design, structure, x, points)
            neg = [_OBJECTIVE_PENALTY if p is None else -p for p in values]
            want = [(neg[2 * i + 2] - neg[2 * i + 1]) / (points[2 * i + 2][i] - points[2 * i + 1][i])
                    for i in range(len(z))]
            assert f == neg[0]
            assert np.array_equal(g, want)
            assert obj.n_eval == len(points)
            assert obj.best[0] == best[0] and np.array_equal(obj.best[1], best[1])

    @pytest.mark.parametrize("q", [20, 80])
    @pytest.mark.parametrize("structure", ["CF", "BVNF"])
    def test_border_products_built_once_per_data_part(self, structure, q, monkeypatch):
        # BVNF at q = 20 is dim 46, on the dense side; every CF phi is a data part of its own
        design, x, z0 = _objective_fixture(structure, q)
        builds, parts = [], []
        build = hlik._border_products
        monkeypatch.setattr(hlik, "_border_products", lambda B: builds.append(B) or build(B))
        obj = _DispersionObjective("weibull", design, structure, x)
        data_part = obj._data_part

        def recorded(*args):
            out = data_part(*args)
            parts.append(out[1])
            return out

        obj._data_part = recorded
        for z in (z0, z0 + 0.1, z0 - 0.2):
            obj.value_and_gradient(z)
        obj.hessian_batch(z0)
        distinct = list({id(H): H for H in parts}.values())
        assert all(H.dim <= DENSE_MAX_DIM for H in distinct) == (q == 20)
        assert (len(distinct) == 1) == (structure == "BVNF")
        assert len(builds) == (0 if q == 20 else len(distinct))
        assert all(any(B is H.B for H in distinct) for B in builds)

    def test_step_2_takes_step_1_data_part(self, monkeypatch):
        # at the x and loading of Step 1's last pass, Step 2 makes no record pass
        design, x, z0 = _objective_fixture("BVNF", 5)
        res = newton_at(design, _spec_with_z("BVNF", z0), np.zeros(3), np.zeros(3))
        calls = []
        record_terms = Evaluator._record_terms
        monkeypatch.setattr(Evaluator, "_record_terms",
                            lambda self, *a: calls.append(1) or record_terms(self, *a))
        outer_dispersion("weibull", design, "BVNF", z0, res.x, effort="loose")
        assert calls == []
        outer_dispersion("weibull", design, "BVNF", z0, res.x + 1e-3, effort="loose")
        assert calls == [1]


class TestReportedProfile:
    """The fit's tail: p at the final point and the dispersion SEs' stencil are one batch."""

    @pytest.mark.parametrize("family, structure, q", [
        *(("weibull", s, q) for q in (10, 80) for s in STRUCTURES),
        ("gompertz", "BVNF", 10), ("gompertz", "CF", 80)])
    def test_deviance_is_row_0_of_the_tail_batch(self, monkeypatch, family, structure, q):
        batches = []
        values = _DispersionObjective._values
        monkeypatch.setattr(_DispersionObjective, "_values",
                            lambda self, Z: batches.append(values(self, Z)) or batches[-1])
        f = fit(_fixture_dataset(q), structure=structure, family=family,
                settings=FitSettings(max_outer=20))
        # q10 factors densely, q80 through the Schur complement; NF (k = 0) is dense at both
        assert (f.H.dim <= DENSE_MAX_DIM) == (q == 10 or structure == "NF")
        k = len(FRAILTY_LAWS[structure].names)
        tail = batches[-1]
        assert len(tail) == 1 + 2 * k * k  # z, z +- step e_i and the k(k - 1)/2 corner quartets
        assert f.deviance_profile == -2.0 * tail[0]
        se = fitting._dispersion_se(f.spec, tail, [])
        assert np.array_equal(list(se.values()), list(f.se_dispersion.values()), equal_nan=True)

    @pytest.mark.parametrize("structure", ["ScF", "CF", "BVNF"])
    @pytest.mark.parametrize("row", [0, 1])
    def test_a_row_that_is_not_evaluable(self, monkeypatch, structure, row):
        # a nan search point is outside the domain, so _values marks its row nan
        stencil = fitting._hessian_stencil

        def spoiled(z, step=1e-4):
            Z = stencil(z, step)
            Z[row] = np.nan
            return Z

        monkeypatch.setattr(fitting, "_hessian_stencil", spoiled)
        ds, settings = _fixture_dataset(10), FitSettings(max_outer=20)
        if row == 0:
            with pytest.raises(CurvatureError,
                               match="^information matrix is not positive definite$"):
                fit(ds, structure=structure, settings=settings)
            return
        f = fit(ds, structure=structure, settings=settings)
        assert np.isfinite(f.deviance_profile)
        assert all(math.isnan(v) for v in f.se_dispersion.values())
        assert ("dispersion standard errors unavailable (curvature evaluation failed)"
                in f.warnings)


# each fit's to_dict() hashed, or the exception it raised; argv[1] holds the cases;
# then the bootstrap HR bands of a BVNF fit with a dichotomized first covariate
_FIT_HASHES = """
import hashlib, json, sys
import numpy as np
from mprfrailty import Dataset, ScenarioSpec, bootstrap_hr_ci, fit, simulate_dataset
for structure, q, n_i in json.loads(sys.argv[1]):
    sc = ScenarioSpec(q=q, n_i=n_i, beta_true=(1.0, -0.5, 0.5),
                      alpha_true=(0.5, 0.5, -0.5), sigma_beta=1.0,
                      sigma_alpha=0.5, rho=-0.5, censor_rate=0.25, seed=q)
    ds = simulate_dataset(sc, 2.0, np.random.default_rng(q))
    try:
        out = json.dumps(fit(ds, structure=structure).to_dict())
    except Exception as exc:
        out = repr(exc)
    print(structure, q, n_i, hashlib.sha256(out.encode()).hexdigest())
x = ds.covariates
ds = Dataset(ds.clusters, ds.time, ds.status, np.column_stack([x[:, 0] > 0, x[:, 1]]),
             ["trt", "x2"])
curve = bootstrap_hr_ci(fit(ds, structure="BVNF"), "trt", np.linspace(0.05, 5, 60),
                        n_boot=1000, seed=3)
print("bands", hashlib.sha256(curve.lower.tobytes() + curve.upper.tobytes()).hexdigest())
"""


def test_fits_identical_across_blas_thread_counts():
    # BVNF at (20, 5) is factored densely; at (100, 10) through the Schur complement;
    # the bands come from the last data set, (100, 10)
    cases = [("BVNF", 20, 5), ("BVNF", 100, 10), ("CF", 100, 10)]
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    procs = [
        subprocess.Popen(
            [sys.executable, "-c", _FIT_HASHES, json.dumps(cases)],
            env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=path),
            stdout=subprocess.PIPE, text=True)
        for threads in ("1", "2")
    ]
    outs = [p.communicate(timeout=120)[0] for p in procs]
    assert [p.returncode for p in procs] == [0, 0]
    assert len(outs[0].splitlines()) == len(cases) + 1
    assert outs[0] == outs[1]
