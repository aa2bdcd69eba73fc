import numpy as np
import pytest

from mprfrailty import (
    BootstrapError,
    DomainError,
    ModelFit,
    StructureError,
    UnsupportedCovariateError,
    bootstrap_hr_ci,
    fit,
    frailty_estimates,
    hazard_ratio_curve,
)
from mprfrailty.baselines import BASELINES

from .conftest import small_weibull_dataset


def synthetic_fit(beta, alpha, family="weibull", cov=None, modal=None,
                  covariates=("trt", "sex")):
    names = ["(Intercept)"] + list(covariates)
    m = len(names)
    modal = modal or {c: 0.0 for c in covariates}
    cov = np.eye(2 * m) * 1e-4 if cov is None else cov
    return ModelFit(
        family=family, structure="NF",
        scale_names=names, shape_names=names,
        beta=np.asarray(beta, dtype=float), alpha=np.asarray(alpha, dtype=float),
        se_beta=np.zeros(m), se_alpha=np.zeros(m),
        v_beta=np.zeros(2), v_alpha=np.zeros(2),
        se_v_beta=None, se_v_alpha=None,
        dispersion={}, se_dispersion={},
        deviance_profile=0.0, cond_deviance=0.0, df_r=0, df_c=float(2 * m),
        converged=True, iterations={"outer": 1, "inner_total": 1},
        cluster_labels=["a", "b"], cluster_sizes=np.array([1, 1]),
        cov_theta=cov,
        modal_covariates=dict(modal),
        binary_covariates={c: True for c in covariates},
    )


def direct_hazard_ratio(f, covariate, times):
    """lambda(t | x_k=1) / lambda(t | x_k=0) straight from the hazard."""
    k_s = f.scale_names.index(covariate)
    k_a = f.shape_names.index(covariate)

    def x_vec(names, value):
        out = []
        for name in names:
            if name == "(Intercept)":
                out.append(1.0)
            elif name == covariate:
                out.append(value)
            else:
                out.append(f.modal_covariates[name])
        return np.asarray(out)

    def hazard(value):
        tau = np.exp(x_vec(f.scale_names, value) @ f.beta)
        gamma = np.exp(x_vec(f.shape_names, value) @ f.alpha)
        s = times**gamma
        lam0 = BASELINES[f.family].hazard(s)[0]
        return tau * gamma * times ** (gamma - 1.0) * lam0

    return hazard(1.0) / hazard(0.0)


class TestHazardRatioCurve:
    def test_zero_shape_effect_gives_constant(self):
        f = synthetic_fit([0.5, np.log(2.0), 0.1], [0.2, 0.0, -0.1])
        curve = hazard_ratio_curve(f, "trt", np.linspace(0.1, 5, 20))
        assert curve.hr == pytest.approx(np.full(20, 2.0), rel=1e-14)

    def test_hr_at_time_one(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
        curve = hazard_ratio_curve(f, "trt", np.array([1.0]))
        assert curve.hr[0] == np.exp(-0.3 + 0.4)

    @pytest.mark.parametrize("family", ["weibull", "gompertz", "loglogistic"])
    def test_t_one_exact_for_all_families(self, family):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1], family=family)
        curve = hazard_ratio_curve(f, "trt", np.array([1.0]))
        assert curve.hr[0] == pytest.approx(np.exp(0.1), rel=1e-14)

    def test_closed_form_matches_direct_ratio(self):
        rng = np.random.default_rng(12)
        times = np.linspace(0.05, 5.0, 20)
        for _ in range(5):
            f = synthetic_fit(rng.uniform(-0.8, 0.8, 3), rng.uniform(-0.8, 0.8, 3),
                              modal={"trt": 0.0, "sex": 1.0})
            curve = hazard_ratio_curve(f, "trt", times)
            direct = direct_hazard_ratio(f, "trt", times)
            assert np.max(np.abs(curve.hr - direct) / direct) < 1e-10

    @pytest.mark.parametrize("family", ["gompertz", "loglogistic"])
    def test_other_families_match_direct_ratio(self, family):
        f = synthetic_fit([0.4, -0.5, 0.2], [0.1, 0.3, -0.2], family=family,
                          modal={"trt": 0.0, "sex": 1.0})
        times = np.linspace(0.1, 2.0, 10)
        curve = hazard_ratio_curve(f, "trt", times)
        assert curve.hr == pytest.approx(direct_hazard_ratio(f, "trt", times))

    def test_reference_covariates_reported(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1],
                          modal={"trt": 1.0, "sex": 1.0})
        curve = hazard_ratio_curve(f, "trt", np.array([1.0, 2.0]))
        assert curve.reference_covariates == {"trt": 0.0, "sex": 1.0}

    def test_non_binary_covariate_rejected(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
        f.binary_covariates["trt"] = False
        with pytest.raises(UnsupportedCovariateError):
            hazard_ratio_curve(f, "trt", np.array([1.0]))

    def test_covariate_missing_from_one_block(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
        f.shape_names = ["(Intercept)", "other", "sex"]
        with pytest.raises(UnsupportedCovariateError):
            hazard_ratio_curve(f, "trt", np.array([1.0]))

    def test_nonpositive_times_rejected(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
        with pytest.raises(DomainError):
            hazard_ratio_curve(f, "trt", np.array([0.0, 1.0]))

    def test_mode_permutation_invariance(self):
        ds = small_weibull_dataset(seed=41, q=3, n_i=8, p=1)
        # binarize the covariate so HR applies
        covs = (ds.covariates > 0).astype(float)
        ds1 = type(ds)(ds.clusters, ds.time, ds.status, covs, ["x1"])
        perm = np.random.default_rng(0).permutation(ds.n)
        ds2 = type(ds)(ds.clusters[perm], ds.time[perm], ds.status[perm],
                       covs[perm], ["x1"])
        f1 = fit(ds1, structure="NF")
        f2 = fit(ds2, structure="NF")
        assert f1.modal_covariates == f2.modal_covariates
        times = np.linspace(0.2, 3, 15)
        c1 = hazard_ratio_curve(f1, "x1", times)
        c2 = hazard_ratio_curve(f2, "x1", times)
        assert c1.hr == pytest.approx(c2.hr, rel=1e-8)

    def test_mode_tie_breaks_to_reference(self):
        ds = small_weibull_dataset(seed=4, q=2, n_i=4, p=1)
        covs = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0])[:, None]
        ds = type(ds)(ds.clusters, ds.time, ds.status, covs, ["x1"])
        f = fit(ds, structure="NF")
        assert f.modal_covariates["x1"] == 0.0


def looped_hr(family, times, theta):
    """HR of trt for one coefficient vector of synthetic_fit, other covariates at 0."""
    beta, alpha = theta[:3], theta[3:]
    x0, x1 = np.array([1.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0])
    if family == "weibull":
        exponent = np.exp(x0 @ alpha) * (np.exp(alpha[1]) - 1.0)
        return np.exp(beta[1] + alpha[1]) * times**exponent

    def hazard(x):
        tau, gamma = np.exp(x @ beta), np.exp(x @ alpha)
        return tau * gamma * times ** (gamma - 1.0) * BASELINES[family].hazard(times**gamma)[0]

    return hazard(x1) / hazard(x0)


class TestBootstrapHrCi:
    def test_pinned_covariance_collapses_bands(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1],
                          cov=np.eye(6) * 1e-30)
        times = np.linspace(0.2, 4, 10)
        curve = bootstrap_hr_ci(f, "trt", times, n_boot=200, seed=1)
        assert curve.lower == pytest.approx(curve.hr, rel=1e-6)
        assert curve.upper == pytest.approx(curve.hr, rel=1e-6)

    def test_bands_widen_with_time_under_shape_uncertainty(self):
        cov = np.eye(6) * 1e-12
        cov[4, 4] = 0.04  # variance on the treatment shape coefficient
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1], cov=cov)
        curve = bootstrap_hr_ci(f, "trt", np.array([1.0, 5.0]), n_boot=400, seed=3)
        width = curve.upper - curve.lower
        assert width[1] > width[0]

    def test_seed_determinism(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
        times = np.linspace(0.2, 4, 7)
        c1 = bootstrap_hr_ci(f, "trt", times, n_boot=150, seed=42)
        c2 = bootstrap_hr_ci(f, "trt", times, n_boot=150, seed=42)
        assert np.array_equal(c1.lower, c2.lower)
        assert np.array_equal(c1.upper, c2.upper)

    @pytest.mark.parametrize("family", ["weibull", "gompertz"])
    def test_batched_draws_match_per_draw_loop(self, family):
        cov = 0.01 * (np.eye(6) + 0.3 * np.ones((6, 6)))
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1], family=family, cov=cov)
        times = np.linspace(0.2, 4, 9)
        curve = bootstrap_hr_ci(f, "trt", times, n_boot=300, seed=13)
        theta_hat = np.concatenate([f.beta, f.alpha])
        L = np.linalg.cholesky(cov)
        draws = [looped_hr(family, times, theta_hat + L @ z)
                 for z in np.random.default_rng(13).standard_normal((300, 6))]
        np.testing.assert_allclose(curve.hr, looped_hr(family, times, theta_hat),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(curve.lower, np.percentile(draws, 2.5, axis=0),
                                   rtol=1e-12, atol=0)
        np.testing.assert_allclose(curve.upper, np.percentile(draws, 97.5, axis=0),
                                   rtol=1e-12, atol=0)

    def test_bounds_contain_point_estimate_mostly(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1], cov=np.eye(6) * 0.01)
        times = np.linspace(0.2, 4, 9)
        curve = bootstrap_hr_ci(f, "trt", times, n_boot=500, seed=5)
        assert np.all(curve.lower <= curve.hr + 1e-12)
        assert np.all(curve.upper >= curve.hr - 1e-12)

    def test_small_b_rejected(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1])
        with pytest.raises(DomainError):
            bootstrap_hr_ci(f, "trt", np.array([1.0]), n_boot=50, seed=0)

    def test_non_pd_covariance_rejected(self):
        f = synthetic_fit([0.5, -0.3, 0.1], [0.2, 0.4, -0.1], cov=-np.eye(6))
        with pytest.raises(BootstrapError):
            bootstrap_hr_ci(f, "trt", np.array([1.0]), n_boot=100, seed=0)


@pytest.fixture(scope="module")
def scf_fit():
    # cluster sizes 5 and 50 so interval shrinkage is visible
    rng = np.random.default_rng(77)
    sizes = [5, 5, 5, 50, 50, 50]
    idx = np.repeat(np.arange(6), sizes)
    n = idx.size
    x = rng.standard_normal((n, 1))
    vb = 0.7 * rng.standard_normal(6)
    tau = np.exp(0.4 + 0.3 * x[:, 0] + vb[idx])
    gamma = np.exp(0.1 - 0.2 * x[:, 0])
    u = np.clip(rng.random(n), 1e-12, 1 - 1e-12)
    t = (-np.log(u) / tau) ** (1.0 / gamma)
    c = 3.0 * rng.random(n)
    from mprfrailty import Dataset

    ds = Dataset([f"c{i}" for i in idx], np.minimum(t, c),
                 (t <= c).astype(int), x, ["x1"])
    return fit(ds, structure="ScF")


class TestFrailtyEstimates:
    def test_sorted_by_cluster_size(self, scf_fit):
        ivs = frailty_estimates(scf_fit, "scale")
        sizes = [iv.cluster_size for iv in ivs]
        assert sizes == sorted(sizes)

    def test_interval_contains_estimate(self, scf_fit):
        for iv in frailty_estimates(scf_fit, "scale"):
            assert iv.lower <= iv.estimate <= iv.upper
            assert iv.u == pytest.approx(np.exp(iv.estimate))

    def test_intervals_shrink_with_cluster_size(self, scf_fit):
        ivs = frailty_estimates(scf_fit, "scale")
        small = ivs[0].upper - ivs[0].lower
        large = ivs[-1].upper - ivs[-1].lower
        assert large < small

    def test_mean_frailty_near_zero(self, scf_fit):
        ivs = frailty_estimates(scf_fit, "scale")
        sigma = scf_fit.dispersion["sigma_beta"]
        q = len(ivs)
        assert abs(np.mean([iv.estimate for iv in ivs])) < 0.5 * sigma / np.sqrt(q)

    def test_absent_components_raise(self, scf_fit):
        with pytest.raises(StructureError):
            frailty_estimates(scf_fit, "shape")
        nf = synthetic_fit([0.1, 0.0, 0.0], [0.1, 0.0, 0.0])
        for component in ("scale", "shape"):
            with pytest.raises(StructureError):
                frailty_estimates(nf, component)

    def test_bad_component_name(self, scf_fit):
        with pytest.raises(DomainError):
            frailty_estimates(scf_fit, "both")

    def test_cf_shape_scaled_by_phi(self):
        ds = small_weibull_dataset(seed=3, q=4, n_i=10)
        f = fit(ds, structure="CF")
        scale = frailty_estimates(f, "scale")
        shape = frailty_estimates(f, "shape")
        phi = f.dispersion["phi"]
        for s, a in zip(scale, shape):
            assert a.estimate == pytest.approx(phi * s.estimate, rel=1e-10, abs=1e-12)
