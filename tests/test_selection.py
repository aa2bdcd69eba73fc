import dataclasses
import math

import numpy as np
import pytest

from mprfrailty import (
    MIXTURE_CHI2_CRITICAL_5PCT,
    DomainError,
    InconsistentFitsError,
    ModelFit,
    fit,
    frailty_lrt,
    selection_report,
)
from mprfrailty.selection import _NESTED_PAIRS

from .conftest import small_weibull_dataset, table2_replicate


def stub_fit(structure, deviance_profile, df_r, cond_deviance=0.0, df_c=0.0):
    """A ModelFit carrying only what the selection functions read."""
    return ModelFit(
        family="weibull", structure=structure,
        scale_names=["(Intercept)"], shape_names=["(Intercept)"],
        beta=np.zeros(1), alpha=np.zeros(1),
        se_beta=np.zeros(1), se_alpha=np.zeros(1),
        v_beta=np.zeros(1), v_alpha=np.zeros(1),
        se_v_beta=None, se_v_alpha=None,
        dispersion={}, se_dispersion={},
        deviance_profile=deviance_profile, cond_deviance=cond_deviance,
        df_r=df_r, df_c=df_c, converged=True,
        iterations={"outer": 1, "inner_total": 1},
        cluster_labels=["c0"], cluster_sizes=np.array([1]),
        cov_theta=np.eye(2), modal_covariates={}, binary_covariates={},
    )


class TestRaic:
    def test_lung_table_values(self):
        nf = stub_fit("NF", 1123.40, 0)
        shf = stub_fit("ShF", 1079.52, 1)
        assert nf.raic == pytest.approx(1123.40)
        assert shf.raic == pytest.approx(1081.52)
        assert nf.raic - shf.raic == pytest.approx(41.88, abs=1e-9)

    def test_equal_deviance_ordered_by_df_r(self):
        a = stub_fit("ScF", 1000.0, 1)
        b = stub_fit("IF", 1000.0, 2)
        assert a.raic < b.raic


class TestCaic:
    def test_nf_is_classical_aic(self):
        ds = small_weibull_dataset()
        f = fit(ds, structure="NF")
        m = len(f.beta) + len(f.alpha)
        assert f.df_c == pytest.approx(m, abs=1e-9)
        assert f.caic == pytest.approx(f.cond_deviance + 2 * m, abs=1e-9)

    def test_lung_shf_value(self):
        shf = stub_fit("ShF", 0.0, 1, cond_deviance=1000.0, df_c=30.89)
        assert shf.caic == pytest.approx(1061.78)

    def test_df_c_bounds_on_fits(self):
        ds = small_weibull_dataset(seed=17, q=4, n_i=8)
        for structure in ("ScF", "ShF", "IF", "CF", "BVNF"):
            f = fit(ds, structure=structure)
            m = len(f.beta) + len(f.alpha)
            v_dim = len(f.cluster_labels) * (2 if structure in ("IF", "BVNF") else 1)
            assert m - 1e-9 <= f.df_c <= m + v_dim + 1e-9


class TestFrailtyLrt:
    def test_lung_nf_vs_shf(self):
        res = frailty_lrt(stub_fit("NF", 1123.40, 0), stub_fit("ShF", 1079.52, 1))
        assert res.statistic == pytest.approx(43.88, abs=1e-9)
        assert res.critical_value == pytest.approx(2.705543)
        assert res.significant

    def test_bladder_nf_vs_scf(self):
        res = frailty_lrt(stub_fit("NF", 946.96, 0), stub_fit("ScF", 943.28, 1))
        assert res.statistic == pytest.approx(3.68, abs=1e-9)
        assert res.significant

    def test_identical_fits_not_significant(self):
        res = frailty_lrt(stub_fit("NF", 500.0, 0), stub_fit("ScF", 500.0, 1))
        assert res.statistic == 0.0
        assert res.p_value == 0.5
        assert not res.significant

    def test_negative_statistic_raises(self):
        with pytest.raises(InconsistentFitsError):
            frailty_lrt(stub_fit("NF", 500.0, 0), stub_fit("ScF", 501.0, 1))

    def test_tiny_negative_clamped(self):
        res = frailty_lrt(stub_fit("NF", 500.0, 0), stub_fit("ScF", 500.0 + 5e-7, 1))
        assert res.statistic == 0.0

    @pytest.mark.parametrize("null, alt", [(math.nan, 500.0), (500.0, math.nan),
                                           (500.0, math.inf)])
    def test_non_finite_deviance_raises_naming_the_fit(self, null, alt):
        # a loaded fit may hold a null deviance; the test gave statistic nan, not significant
        bad = "NF" if math.isnan(null) else "ScF"
        with pytest.raises(DomainError, match=f"^the {bad} fit's deviance_profile is "):
            frailty_lrt(stub_fit("NF", null, 0), stub_fit("ScF", alt, 1))

    def test_non_nested_pair_rejected(self):
        with pytest.raises(ValueError):
            frailty_lrt(stub_fit("NF", 500.0, 0), stub_fit("BVNF", 490.0, 3))

    def test_p_value_is_half_chi2_sf(self):
        from scipy.stats import chi2

        for statistic in (1e-9, 0.3, 2.705543, 3.68, 43.88, 700.0):
            res = frailty_lrt(stub_fit("NF", 500.0 + statistic, 0), stub_fit("ScF", 500.0, 1))
            # the chi2(1) tail in closed form, which needs no scipy
            assert res.p_value == 0.5 * math.erfc(math.sqrt(res.statistic / 2))
            assert res.p_value == pytest.approx(0.5 * float(chi2.sf(res.statistic, df=1)),
                                                rel=1e-12, abs=0.0)

    def test_pairs_are_the_nesting_edges_that_add_one_standard_deviation(self):
        assert set(_NESTED_PAIRS) == {("NF", "ScF"), ("NF", "ShF"), ("ScF", "IF"), ("ShF", "IF")}
        with pytest.raises(ValueError, match="supported pairs: NF vs ScF, NF vs ShF, "
                                             "ScF vs IF, ShF vs IF$"):
            frailty_lrt(stub_fit("IF", 500.0, 2), stub_fit("BVNF", 490.0, 3))

    def test_critical_value_is_half_mixture_quantile(self):
        from scipy.stats import chi2

        # P(mixture > c) = 0.5 P(chi2_1 > c) = 0.05 at the critical value
        assert 0.5 * chi2.sf(MIXTURE_CHI2_CRITICAL_5PCT, 1) == pytest.approx(
            0.05, abs=1e-6
        )


class TestSelectionReport:
    def test_deltas_and_best(self):
        fits = [
            stub_fit("NF", 1123.40, 0, cond_deviance=1099.40, df_c=12.0),
            stub_fit("ShF", 1079.52, 1, cond_deviance=1015.0, df_c=30.89),
            stub_fit("ScF", 1121.35, 1, cond_deviance=1097.0, df_c=19.89),
        ]
        report = selection_report(fits)
        assert [r.model for r in report.rows if r.delta_raic == 0.0] == ["ShF"]
        deltas = {r.model: r.delta_raic for r in report.rows}
        assert deltas["ShF"] == 0.0
        assert deltas["NF"] == pytest.approx(41.88, abs=1e-9)
        assert all(r.delta_raic >= 0 for r in report.rows)
        assert all(r.delta_caic >= 0 for r in report.rows)
        assert sum(1 for r in report.rows if r.delta_raic == 0.0) == 1
        assert sum(1 for r in report.rows if r.delta_caic == 0.0) == 1

    def test_csv_rows_shape(self):
        report = selection_report([stub_fit("NF", 100.0, 0)])
        rows = report.to_csv_rows()
        assert rows[0] == [
            "model", "deviance_r", "df_r", "raic", "delta_raic",
            "deviance_c", "df_c", "caic", "delta_caic", "converged", "note",
        ]
        assert len(rows) == 2
        assert rows[1] == ["NF", "100", "0", "100", "0", "0", "0", "0", "0", "true", ""]

    def test_csv_row_of_a_failed_structure(self):
        # a structure that raised used to have no row in the CSV
        report = selection_report([stub_fit("NF", 100.0, 0)],
                                  failures={"BVNF": "CurvatureError: boom, twice"})
        rows = report.to_csv_rows()
        assert [row[0] for row in rows[1:]] == ["NF", "BVNF"]
        assert rows[2] == ["BVNF"] + ["NA"] * 8 + ["false", "CurvatureError: boom, twice"]

    def test_text_marks_best_and_failures(self):
        report = selection_report(
            [stub_fit("NF", 100.0, 0), stub_fit("ScF", 90.0, 1)],
            failures={"BVNF": "boom"},
        )
        text = report.to_text()
        assert "<rAIC" in text
        assert "BVNF" in text and "boom" in text

    def test_text_notes_a_fit_that_did_not_converge(self):
        stopped = dataclasses.replace(stub_fit("ScF", 90.0, 1), converged=False)
        report = selection_report([stub_fit("NF", 100.0, 0), stopped])
        nf_line, scf_line = report.to_text().splitlines()[2:4]
        assert scf_line.startswith("ScF") and scf_line.endswith(" (not converged)")
        assert "not converged" not in nf_line
        # the CSV says so too: it used to carry no column for it
        scf_row = report.to_csv_rows()[2]
        assert scf_row[0] == "ScF" and len(scf_row) == 11
        assert scf_row[-2:] == ["false", "not converged"]

    def test_text_ends_with_every_lrt_of_the_fits_in_structures_order(self):
        fits = [stub_fit("IF", 90.0, 2), stub_fit("ShF", 95.0, 1), stub_fit("NF", 100.0, 0),
                stub_fit("ScF", 89.0, 1), stub_fit("BVNF", 85.0, 3)]
        lines = selection_report(fits).to_text().splitlines()
        assert lines[-4:] == [
            "LRT NF vs ScF: statistic 11.000 vs 2.71 -> significant",
            "LRT NF vs ShF: statistic 5.000 vs 2.71 -> significant",
            "LRT ScF vs IF: failed (deviance of the richer model exceeds the reduced model "
            "by 1; at least one fit has not converged)",
            "LRT ShF vs IF: statistic 5.000 vs 2.71 -> significant",
        ]
        assert not any(line.startswith("LRT") for line in lines[:-4])
        only_nf = selection_report([stub_fit("NF", 100.0, 0), stub_fit("BVNF", 90.0, 3)])
        assert "LRT" not in only_nf.to_text()

    def test_nan_deviance_fails_its_lrt_in_any_fit_order(self):
        # selection_report printed "statistic nan vs 2.71 -> not significant", and the
        # rAIC minimum was nan where the nan fit came first
        fits = [stub_fit("ScF", math.nan, 1), stub_fit("NF", 500.0, 0)]
        for order in (fits, fits[::-1]):
            report = selection_report(order)
            assert report.to_text().splitlines()[-1] == (
                "LRT NF vs ScF: failed (the ScF fit's deviance_profile is nan; "
                "the LRT needs a finite one)")
            assert {r.model: r.delta_raic for r in report.rows}["NF"] == 0.0

    def test_richer_fit_above_a_nested_one_is_noted(self):
        # each fit against every structure that it nests or that nests it
        fits = [stub_fit("NF", 100.0, 0),
                dataclasses.replace(stub_fit("ScF", 101.0, 1), converged=False),
                stub_fit("ShF", 100.0 + 5e-7, 1),  # within the LRT's tolerance
                stub_fit("IF", 99.0, 2), stub_fit("CF", 100.5, 2), stub_fit("BVNF", 100.7, 3)]
        report = selection_report(fits)
        notes = {r.model: r.note for r in report.rows}
        assert notes == {
            "NF": "",
            "ScF": "not converged; deviance above NF's by 1",
            "ShF": "",
            "IF": "",
            "CF": "deviance above NF's by 0.5",
            "BVNF": "deviance above NF's by 0.7; deviance above ShF's by 0.7; "
                    "deviance above IF's by 1.7; deviance above CF's by 0.2",
        }
        assert {row[0]: row[-1] for row in report.to_csv_rows()[1:]} == notes
        text = report.to_text()
        assert "(deviance above NF's by 0.5)" in text
        assert "(not converged; deviance above NF's by 1)" in text
        # the reduced fit above the richer one is what nesting expects: no note
        fine = selection_report([stub_fit("IF", 90.0, 2), stub_fit("BVNF", 89.0, 3),
                                 stub_fit("CF", 95.0, 2)])
        assert [r.note for r in fine.rows] == ["", "", ""]

    def test_cf_from_the_scf_face_is_not_above_the_fits_it_nests(self, q50_seed3_fits):
        # the nesting check on real fits
        ds, scf, cf = q50_seed3_fits
        report = selection_report([fit(ds, structure="NF"), scf, cf])
        assert {r.model: r.note for r in report.rows} == {"NF": "", "ScF": "", "CF": ""}

    def test_gompertz_cf_from_its_face_converges_below_scf(self):
        # Gompertz CF converges from its ScF face here, 5 below ScF's deviance
        ds = table2_replicate(q=20, n_i=5, seed=1)
        scf, cf = (fit(ds, structure=s, family="gompertz") for s in ("ScF", "CF"))
        assert cf.converged and cf.iterations["start"] == "ScF"
        assert cf.deviance_profile < scf.deviance_profile
        notes = {r.model: r.note for r in selection_report([scf, cf]).rows}
        assert notes == {"ScF": "", "CF": ""}

    def test_nested_deviance_ordering_on_real_fits(self):
        ds = small_weibull_dataset(seed=2, q=5, n_i=10)
        f_nf = fit(ds, structure="NF")
        f_scf = fit(ds, structure="ScF")
        f_if = fit(ds, structure="IF")
        assert f_scf.deviance_profile <= f_nf.deviance_profile + 1e-6
        assert f_if.deviance_profile <= f_scf.deviance_profile + 1e-4
