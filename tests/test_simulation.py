import json

import numpy as np
import pytest
from scipy import stats

from mprfrailty import (
    CalibrationError,
    DomainError,
    ScenarioSpec,
    calibrate_censoring,
    gen_covariates,
    gen_frailties,
    gen_survival_times,
    run_scenario,
    simulate_dataset,
)


def scenario(**overrides):
    base = dict(
        q=10, n_i=8, beta_true=(1.0, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
        sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5, censor_rate=0.25,
        replicates=3, seed=7,
    )
    base.update(overrides)
    return ScenarioSpec(**base)


class FixedUniformRng:
    """Stub rng whose random() returns preset values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == len(self.values)
        return self.values


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(DomainError):
            scenario(q=1)
        with pytest.raises(DomainError):
            scenario(censor_rate=0.0)
        with pytest.raises(DomainError):
            scenario(rho=1.0)
        with pytest.raises(DomainError):
            scenario(n_i=0)

    @pytest.mark.parametrize("bad", [{"sigma_beta": float("nan")}, {"sigma_alpha": float("nan")},
                                     {"sigma_beta": float("inf")}])
    def test_rejects_non_finite_standard_deviations(self, bad):
        # a nan sigma used to pass and fail later with "u must be finite"
        with pytest.raises(DomainError, match="must be finite and positive"):
            scenario(**bad)

    @pytest.mark.parametrize("field, value", [
        ("q", 6.7), ("replicates", 2.9), ("seed", 1.5), ("n_i", 5.0),
        ("n_i", [5.0] * 10), ("n_i", {"sizes": [5.5, 20], "weights": [0.5, 0.5]})])
    def test_integer_fields_reject_floats(self, field, value):
        # int() used to truncate 6.7 to 6, and n_i = 5.0 raised a TypeError
        d = {**scenario().to_dict(), field: value}
        with pytest.raises(DomainError, match="must be an integer"):
            ScenarioSpec.from_dict(d)

    def test_integer_fields_accept_numpy_integers(self):
        spec = scenario(q=np.int64(10), n_i=np.full(10, 4), seed=np.int32(3))
        assert type(spec.q) is int and type(spec.seed) is int
        assert spec.cluster_sizes().tolist() == [4] * 10

    def test_cluster_sizes_scalar(self):
        assert scenario(n_i=5).cluster_sizes().tolist() == [5] * 10

    def test_cluster_sizes_explicit_list(self):
        sizes = list(range(1, 11))
        assert scenario(n_i=sizes).cluster_sizes().tolist() == sizes

    def test_cluster_sizes_mixture(self):
        spec = scenario(
            q=20, n_i={"sizes": [5, 20, 50], "weights": [0.3, 0.4, 0.3]}
        )
        sizes = spec.cluster_sizes()
        assert len(sizes) == 20
        assert (sizes == 5).sum() == 6
        assert (sizes == 20).sum() == 8
        assert (sizes == 50).sum() == 6

    def test_json_round_trip(self, tmp_path):
        spec = scenario()
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(spec.to_dict()))
        back = ScenarioSpec.read_json(path)
        assert back == spec


class TestGenCovariates:
    def test_ar1_moments(self):
        rng = np.random.default_rng(0)
        x = gen_covariates(1_000_000, 2, rng)
        assert abs(x[:, 0].mean()) < 0.01
        assert abs(x[:, 1].mean()) < 0.01
        assert abs(x[:, 0].var() - 1.0) < 0.01
        assert abs(x[:, 1].var() - 1.0) < 0.01
        corr = np.corrcoef(x[:, 0], x[:, 1])[0, 1]
        assert abs(corr - 0.5) < 0.01

    def test_chain_extends_beyond_two(self):
        rng = np.random.default_rng(1)
        x = gen_covariates(400_000, 3, rng)
        c12 = np.corrcoef(x[:, 1], x[:, 2])[0, 1]
        c02 = np.corrcoef(x[:, 0], x[:, 2])[0, 1]
        assert abs(c12 - 0.5) < 0.01
        assert abs(c02 - 0.25) < 0.01


class TestGenFrailties:
    def test_covariance_recovery(self):
        rng = np.random.default_rng(2)
        vb, va = gen_frailties(1_000_000, 1.0, 0.5, -0.5, rng)
        cov = np.cov(vb, va)
        assert cov[0, 0] == pytest.approx(1.0, abs=0.01)
        assert cov[1, 1] == pytest.approx(0.25, abs=0.01)
        assert cov[0, 1] == pytest.approx(-0.25, abs=0.01)

    def test_independent_when_rho_zero(self):
        rng = np.random.default_rng(3)
        vb, va = gen_frailties(1_000_000, 1.0, 1.0, 0.0, rng)
        assert abs(np.corrcoef(vb, va)[0, 1]) < 0.01

    def test_degenerate_limit(self):
        rng = np.random.default_rng(4)
        vb, va = gen_frailties(100, 1.0, 0.5, 1.0 - 1e-12, rng)
        assert va / 0.5 == pytest.approx(vb / 1.0, abs=1e-5)

    def test_domain(self):
        rng = np.random.default_rng(5)
        with pytest.raises(DomainError):
            gen_frailties(10, -1.0, 1.0, 0.0, rng)
        with pytest.raises(DomainError):
            gen_frailties(10, 1.0, 1.0, 1.5, rng)


class TestGenSurvivalTimes:
    def test_known_uniform_draw(self):
        rng = FixedUniformRng([np.exp(-1.0)])
        t = gen_survival_times("weibull", np.array([1.0]), np.array([1.0]), rng)
        assert t[0] == pytest.approx(1.0, rel=1e-12)

    def test_known_uniform_draw_scaled(self):
        rng = FixedUniformRng([np.exp(-2.0)])
        t = gen_survival_times("weibull", np.array([2.0]), np.array([2.0]), rng)
        assert t[0] == pytest.approx(1.0, rel=1e-12)

    def test_kolmogorov_smirnov_weibull(self):
        rng = np.random.default_rng(6)
        tau, gamma = 1.3, 0.8
        n = 100_000
        t = gen_survival_times("weibull", np.full(n, tau), np.full(n, gamma), rng)
        stat = stats.kstest(t, lambda x: 1.0 - np.exp(-tau * x**gamma)).statistic
        assert stat < 1.63 / np.sqrt(n)  # 1% critical value

    @pytest.mark.parametrize("family", ["gompertz", "loglogistic"])
    def test_other_families_ks(self, family):
        from mprfrailty import cumulative_base

        rng = np.random.default_rng(8)
        tau, gamma = 0.9, 1.1
        n = 50_000
        t = gen_survival_times(family, np.full(n, tau), np.full(n, gamma), rng)

        def cdf(x):
            return 1.0 - np.exp(-tau * cumulative_base(family, x**gamma))

        stat = stats.kstest(t, cdf).statistic
        assert stat < 1.63 / np.sqrt(n)

    def test_conditional_independence(self):
        # inverse-CDF transforms of generated times are serially uncorrelated
        rng = np.random.default_rng(9)
        n = 100_000
        tau, gamma = 1.2, 0.9
        t = gen_survival_times("weibull", np.full(n, tau), np.full(n, gamma), rng)
        u = np.exp(-tau * t**gamma)
        assert abs(np.corrcoef(u[:-1], u[1:])[0, 1]) < 0.02


class TestCalibrateCensoring:
    def test_realized_rate_within_two_points(self):
        spec = scenario(q=20, n_i=20, replicates=1)
        rng = np.random.default_rng(10)
        c_max = calibrate_censoring(spec, rng)
        rates = []
        for b in range(20):
            ds = simulate_dataset(spec, c_max, np.random.default_rng(100 + b))
            rates.append(1.0 - ds.status.mean())
        assert abs(np.mean(rates) - spec.censor_rate) < 0.02

    def test_monotone_in_target(self):
        rng1 = np.random.default_rng(11)
        rng2 = np.random.default_rng(11)
        c_low_target = calibrate_censoring(scenario(censor_rate=0.05), rng1)
        c_high_target = calibrate_censoring(scenario(censor_rate=0.45), rng2)
        assert c_low_target > c_high_target

    def test_shorter_times_shrink_cmax(self):
        # doubling tau (beta0 + log 2) shortens times, so c_max must drop
        rng1 = np.random.default_rng(12)
        rng2 = np.random.default_rng(12)
        base = scenario()
        shifted = scenario(beta_true=(1.0 + np.log(2.0), -0.5, 0.5))
        assert calibrate_censoring(shifted, rng2) < calibrate_censoring(base, rng1)

    def test_unreachable_target(self):
        # times around exp(8): even c_max = 1e4 censors far more than 1%
        spec = scenario(beta_true=(-8.0, 0.0, 0.0), alpha_true=(0.0, 0.0, 0.0),
                        censor_rate=0.01)
        with pytest.raises(CalibrationError):
            calibrate_censoring(spec, np.random.default_rng(13))


class TestSimulateDataset:
    def test_shapes_and_labels(self):
        spec = scenario(q=4, n_i=[2, 3, 4, 5])
        ds = simulate_dataset(spec, 2.0, np.random.default_rng(14))
        assert ds.n == 14
        assert ds.cluster_labels() == ["1", "2", "3", "4"]
        assert ds.covariate_names == ["x1", "x2"]
        assert np.all(ds.time > 0)

    def test_deterministic_given_rng_state(self):
        spec = scenario()
        d1 = simulate_dataset(spec, 2.0, np.random.default_rng(15))
        d2 = simulate_dataset(spec, 2.0, np.random.default_rng(15))
        assert np.array_equal(d1.time, d2.time)
        assert np.array_equal(d1.status, d2.status)


@pytest.fixture(scope="module")
def quick_summary():
    spec = scenario(q=8, n_i=10, replicates=3, seed=31)
    return spec, run_scenario(spec, structure="ScF")


class TestRunScenario:
    def test_summary_shape(self, quick_summary):
        spec, s = quick_summary
        assert s.param_names == [
            "beta_0", "beta_1", "beta_2", "alpha_0", "alpha_1", "alpha_2",
            "sigma_beta",
        ]
        assert s.n_converged + s.n_failed == spec.replicates
        assert s.estimates.shape == (s.n_converged, 7)

    def test_seed_determinism(self, quick_summary):
        spec, s1 = quick_summary
        s2 = run_scenario(spec, structure="ScF")
        assert s1.to_csv_text() == s2.to_csv_text()

    def test_threads_do_not_change_output(self, quick_summary):
        spec, s1 = quick_summary
        s2 = run_scenario(spec, structure="ScF", threads=3)
        assert s1.to_csv_text() == s2.to_csv_text()

    @pytest.mark.parametrize("threads", [0, -2])
    def test_threads_below_one_rejected(self, threads, monkeypatch):
        spec = scenario(q=6, n_i=10, replicates=2, seed=77)
        # rejected before any work: calibration is never reached
        monkeypatch.setattr("mprfrailty.simulation.calibrate_censoring", None)
        with pytest.raises(ValueError, match="threads must be at least 1"):
            run_scenario(spec, structure="ScF", threads=threads)

    def test_single_replicate_has_na_se(self):
        spec = scenario(q=6, n_i=10, replicates=1, seed=77)
        s = run_scenario(spec, structure="ScF")
        text = s.to_csv_text()
        assert ",NA," in text  # SE column unavailable at one replicate
        assert np.all(np.isnan(s.se))

    def test_truth_column(self, quick_summary):
        _, s = quick_summary
        assert s.truth[:3] == [1.0, -0.5, 0.5]
        assert s.truth[6] == 1.0  # sigma_beta

    def test_rho_zero_truth_covered_by_bvnf(self):
        # data generated with independent frailties: the BVNF rho estimate's
        # Monte Carlo interval over the replicates must cover zero
        spec = scenario(q=20, n_i=50, rho=0.0, replicates=100, seed=404)
        s = run_scenario(spec, structure="BVNF", threads=2)
        i_rho = s.param_names.index("rho")
        half = 1.96 * s.se[i_rho] / np.sqrt(s.n_converged)
        assert s.mean[i_rho] - half <= 0.0 <= s.mean[i_rho] + half


class TestFailureReasons:
    @staticmethod
    def forced_fit(monkeypatch, outcomes):
        """Replace the scenario's fit: outcome per call is "raise", "stall" or "ok"."""
        import mprfrailty.simulation as simulation
        from mprfrailty import CurvatureError

        real_fit = simulation.fit
        calls = iter(outcomes)

        def fit(*args, **kwargs):
            outcome = next(calls)
            if outcome == "raise":
                raise CurvatureError("forced")
            f = real_fit(*args, **kwargs)
            f.converged = outcome == "ok"
            return f

        monkeypatch.setattr(simulation, "fit", fit)

    def test_counts_by_reason(self, monkeypatch):
        spec = scenario(q=6, n_i=10, replicates=10, seed=41)
        clean = run_scenario(spec, structure="ScF")
        assert clean.failure_reasons == {}
        self.forced_fit(monkeypatch, ["raise", "ok", "stall"] + ["ok"] * 7)
        s = run_scenario(spec, structure="ScF")
        assert s.failure_reasons == {"CurvatureError": 1, "not converged": 1}
        assert (s.n_converged, s.n_failed) == (8, 2)
        # the surviving replicates' estimates are untouched
        assert np.array_equal(s.estimates, np.delete(clean.estimates, [0, 2], axis=0))

    def test_counts_in_scenario_error(self, monkeypatch):
        from mprfrailty import ScenarioError

        spec = scenario(q=6, n_i=10, replicates=4, seed=41)
        self.forced_fit(monkeypatch, ["stall", "raise", "stall", "ok"])
        with pytest.raises(ScenarioError, match=r"3/4 replicates failed "
                           r"\(not converged x2, CurvatureError x1; "
                           r"first: fit did not converge\)"):
            run_scenario(spec, structure="ScF")
