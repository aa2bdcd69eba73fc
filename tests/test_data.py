import numpy as np
import pytest

import mprfrailty
from mprfrailty import (
    Dataset,
    DataError,
    DivergedIterateError,
    DomainError,
    FrailtySpec,
    build_design,
)
from mprfrailty.hlik import Evaluator

from .conftest import small_weibull_dataset


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from mprfrailty import *", namespace)
    assert set(mprfrailty.__all__) <= set(namespace)


def toy_dataset():
    # 2 clusters {A: 2 records, B: 1 record}, 1 covariate
    return Dataset(
        clusters=["A", "A", "B"],
        time=[1.0, 2.0, 0.5],
        status=[1, 0, 1],
        covariates=np.array([[0.1], [0.2], [-0.3]]),
        covariate_names=["age"],
    )


class TestFrailtySpec:
    def test_df_r_by_structure(self):
        assert FrailtySpec("NF").df_r == 0
        assert FrailtySpec("ScF", sigma_beta=1.0).df_r == 1
        assert FrailtySpec("ShF", sigma_alpha=1.0).df_r == 1
        assert FrailtySpec("IF", sigma_beta=1.0, sigma_alpha=1.0).df_r == 2
        assert FrailtySpec("CF", sigma_beta=1.0, phi=2.0).df_r == 2
        assert FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=1.0, rho=0.2).df_r == 3

    def test_missing_parameter_rejected(self):
        with pytest.raises(DomainError):
            FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=1.0)

    def test_extraneous_parameter_rejected(self):
        with pytest.raises(DomainError):
            FrailtySpec("ScF", sigma_beta=1.0, rho=0.5)

    def test_rho_boundary_rejected(self):
        with pytest.raises(DomainError):
            FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=1.0, rho=1.0)

    def test_nonpositive_sigma_rejected(self):
        with pytest.raises(DomainError):
            FrailtySpec("ScF", sigma_beta=0.0)

    def test_with_dispersion(self):
        spec = FrailtySpec("IF", sigma_beta=1.0, sigma_alpha=1.0)
        spec2 = spec.with_dispersion((2.0, 0.5))
        assert spec2.sigma_beta == 2.0 and spec2.sigma_alpha == 0.5


class TestDataset:
    def test_rejects_zero_time(self):
        with pytest.raises(DataError):
            Dataset(["A"], [0.0], [1], np.zeros((1, 1)), ["x"])

    def test_rejects_bad_status(self):
        with pytest.raises(DataError):
            Dataset(["A"], [1.0], [2], np.zeros((1, 1)), ["x"])

    def test_rejects_empty(self):
        with pytest.raises(DataError):
            Dataset([], [], [], np.zeros((0, 1)), ["x"])

    @pytest.mark.parametrize("status, row", [([0.7, 1.0, 1.9], 1), ([1, 0, 0.5], 3),
                                             ([1.0, np.nan, 0.0], 2), ([1, -1, 0], 2)])
    def test_rejects_status_other_than_0_or_1_before_the_cast(self, status, row):
        # an int cast first would read 0.7 as 0 and 1.9 as 1
        with pytest.raises(DataError, match="status must be 0 or 1") as err:
            Dataset(["a", "a", "b"], [1.0, 2.0, 3.0], status, [[0.1], [0.2], [0.3]], ["x"])
        assert err.value.row == row

    @pytest.mark.parametrize("status", [[True, False, True], [1.0, 0.0, 1.0], [1, 0, 1]])
    def test_accepts_bool_float_and_int_status(self, status):
        ds = Dataset(["a", "a", "b"], [1.0, 2.0, 3.0], status, [[0.1], [0.2], [0.3]], ["x"])
        assert ds.status.dtype.kind == "i" and ds.status.tolist() == [1, 0, 1]

    def test_rejects_repeated_covariate_name(self):
        # a lookup by name would see only the last of the two columns
        with pytest.raises(DataError, match="covariate named more than once: x1"):
            Dataset(["a", "b"], [1.0, 2.0], [1, 0], [[0.1, 0.5], [0.2, 0.7]], ["x1", "x1"])

    def test_cluster_labels_first_appearance(self):
        ds = Dataset(["B", "A", "B"], [1, 1, 1], [1, 1, 1], np.zeros((3, 0)), [])
        assert ds.cluster_labels() == ["B", "A"]


class TestReadCsv(object):
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_round_trip(self, tmp_path):
        path = self._write(
            tmp_path, "cluster,time,status,age\nA,1.0,1,0.1\nA,2.0,0,0.2\nB,0.5,1,-0.3\n"
        )
        ds = Dataset.read_csv(path)
        assert ds.n == 3
        assert ds.covariate_names == ["age"]
        assert ds.cluster_labels() == ["A", "B"]

    def test_bad_status_reports_row(self, tmp_path):
        path = self._write(tmp_path, "cluster,time,status,age\nA,1.0,1,0.1\nA,2.0,2,0.2\n")
        with pytest.raises(DataError) as err:
            Dataset.read_csv(path)
        assert err.value.row == 2
        assert "status" in str(err.value)

    def test_nonpositive_time_reports_row(self, tmp_path):
        path = self._write(tmp_path, "cluster,time,status\nA,-1.0,1\n")
        with pytest.raises(DataError) as err:
            Dataset.read_csv(path)
        assert err.value.row == 1

    def test_missing_header(self, tmp_path):
        path = self._write(tmp_path, "A,1.0,1\n")
        with pytest.raises(DataError):
            Dataset.read_csv(path)

    def test_empty_file(self, tmp_path):
        path = self._write(tmp_path, "")
        with pytest.raises(DataError):
            Dataset.read_csv(path)


class TestBuildDesign:
    def test_incidence_matrix(self):
        design = build_design(toy_dataset())
        assert design.cluster_index.tolist() == [0, 0, 1]
        assert design.cluster_sizes.tolist() == [2, 1]

    def test_cluster_sums_built_once(self):
        ds = small_weibull_dataset(seed=1, q=4, n_i=3, p=2)
        clusters = np.random.default_rng(0).permutation(ds.clusters)  # interleaved
        d = build_design(Dataset(clusters, ds.time, ds.status, ds.covariates,
                                 ds.covariate_names), shape_covariates=["x2"])
        assert np.any(np.diff(d.cluster_index) < 0)
        sums = d.cluster_sums
        assert d.cluster_sums is sums
        Z, S_beta, S_alpha = sums
        incidence = (d.cluster_index == np.arange(d.q)[:, None]).astype(float)  # q x n
        assert np.array_equal(Z.toarray(), incidence)
        for S, X in ((S_beta, d.X_beta), (S_alpha, d.X_alpha)):
            assert S.shape == (X.shape[1] * d.q, d.n)
            assert np.array_equal(S.toarray(), (X.T[:, None, :] * incidence).reshape(-1, d.n))

    def test_intercept_prepended(self):
        ds = small_weibull_dataset(p=2)
        design = build_design(ds)
        assert design.m_beta == 3
        assert np.all(design.X_beta[:, 0] == 1.0)

    def test_column_sums_equal_cluster_sizes(self):
        ds = small_weibull_dataset(q=4, n_i=3)
        design = build_design(ds)
        assert np.all(np.bincount(design.cluster_index, minlength=design.q)
                      == design.cluster_sizes)
        assert design.cluster_sizes.sum() == design.n

    def test_separate_covariate_lists(self):
        ds = small_weibull_dataset(p=2)
        design = build_design(ds, scale_covariates=["x1"], shape_covariates=["x1", "x2"])
        assert design.scale_names == ["(Intercept)", "x1"]
        assert design.shape_names == ["(Intercept)", "x1", "x2"]

    def test_unknown_covariate(self):
        with pytest.raises(DataError):
            build_design(toy_dataset(), scale_covariates=["weight"])

    @pytest.mark.parametrize("lists", [{"scale_covariates": ["x1", "x2", "x1"]},
                                       {"shape_covariates": ["x2", "x2"]}])
    def test_repeated_covariate_in_a_list(self, lists):
        ds = small_weibull_dataset(p=2)
        with pytest.raises(DataError, match="covariate named more than once"):
            build_design(ds, **lists)

    def test_single_cluster_warns(self):
        ds = Dataset(["A", "A"], [1.0, 2.0], [1, 0], np.zeros((2, 0)), [])
        with pytest.warns(UserWarning, match="single cluster"):
            build_design(ds)

    def test_order_stable(self):
        ds = small_weibull_dataset()
        d1 = build_design(ds)
        d2 = build_design(ds)
        assert d1.cluster_labels == d2.cluster_labels
        assert np.array_equal(d1.X_beta, d2.X_beta)
        assert np.array_equal(d1.cluster_index, d2.cluster_index)

    def test_lung_shaped_input(self):
        rng = np.random.default_rng(0)
        n, q, p = 579, 31, 5
        idx = rng.integers(0, q, size=n)
        idx[:q] = np.arange(q)  # every institution appears
        ds = Dataset(
            [f"inst{i}" for i in idx],
            rng.uniform(0.1, 5.0, n),
            rng.integers(0, 2, n),
            rng.integers(0, 2, (n, p)).astype(float),
            [f"b{j}" for j in range(p)],
        )
        design = build_design(ds)
        assert design.X_beta.shape == (579, 6)
        assert design.cluster_index.shape == (579,) and design.q == 31
        assert np.array_equal(np.unique(design.cluster_index), np.arange(31))


def linear_predictors(design, beta, alpha, v_beta=None, v_alpha=None):
    """(tau, gamma) per record, from the Evaluator that owns the linear predictors."""
    spec = FrailtySpec("BVNF", sigma_beta=1.0, sigma_alpha=1.0, rho=0.0)
    ev = Evaluator("weibull", design, spec)
    tau, gamma, *_ = ev._predictors(ev.layout.pack(beta, alpha, v_beta, v_alpha))
    return tau, gamma


class TestLinearPredictors:
    def test_zero_parameters(self):
        design = build_design(toy_dataset())
        tau, gamma = linear_predictors(design, np.zeros(2), np.zeros(2))
        assert np.all(tau == 1.0) and np.all(gamma == 1.0)

    def test_intercept_only(self):
        design = build_design(toy_dataset())
        tau, _ = linear_predictors(design, np.array([1.0, 0.0]), np.zeros(2))
        assert tau == pytest.approx(np.full(3, np.e))

    def test_matches_rowwise_oracle(self):
        ds = small_weibull_dataset(seed=9, q=2, n_i=3, p=2)
        design = build_design(ds)
        rng = np.random.default_rng(1)
        beta = rng.uniform(-0.5, 0.5, 3)
        alpha = rng.uniform(-0.5, 0.5, 3)
        vb = rng.uniform(-0.5, 0.5, 2)
        va = rng.uniform(-0.5, 0.5, 2)
        tau, gamma = linear_predictors(design, beta, alpha, vb, va)
        for i in range(ds.n):
            k = design.cluster_index[i]
            assert tau[i] == pytest.approx(
                np.exp(design.X_beta[i] @ beta + vb[k]), rel=1e-14
            )
            assert gamma[i] == pytest.approx(
                np.exp(design.X_alpha[i] @ alpha + va[k]), rel=1e-14
            )

    def test_intercept_equivariance(self):
        design = build_design(toy_dataset())
        beta = np.array([0.2, 0.4])
        alpha = np.array([-0.1, 0.3])
        tau1, gamma1 = linear_predictors(design, beta, alpha)
        tau2, gamma2 = linear_predictors(design, beta + np.array([0.7, 0.0]), alpha)
        assert tau2 == pytest.approx(np.exp(0.7) * tau1)
        assert gamma2 == pytest.approx(gamma1)

    def test_overflow_raises_diverged(self):
        design = build_design(toy_dataset())
        ev = Evaluator("weibull", design, FrailtySpec("NF"))
        with pytest.raises(DivergedIterateError):
            ev.h(ev.layout.pack(np.array([800.0, 0.0]), np.zeros(2)))


class TestExpandRandomEffects:
    def test_cf_derives_shape(self):
        spec = FrailtySpec("CF", sigma_beta=1.0, phi=2.0)
        ev = Evaluator("weibull", build_design(small_weibull_dataset(q=3)), spec)
        x = ev.layout.pack(np.zeros(2), np.zeros(2), np.array([0.1, -0.2, 0.3]))
        _, _, vb, va = ev.unpack(x)
        assert vb == pytest.approx([0.1, -0.2, 0.3])
        assert va == pytest.approx(2.0 * vb)
