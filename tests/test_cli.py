import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mprfrailty import (
    CurvatureError,
    DataError,
    Dataset,
    ModelFit,
    bootstrap_hr_ci,
    fit,
    frailty_estimates,
)
from mprfrailty.cli import build_parser, main

from .conftest import small_weibull_dataset


def write_csv(path, dataset, binary=False):
    cols = dataset.covariates
    if binary:
        cols = (cols > 0).astype(float)
    with open(path, "w") as fh:
        fh.write("cluster,time,status," + ",".join(dataset.covariate_names) + "\n")
        for i in range(dataset.n):
            covs = ",".join(f"{v:.12g}" for v in cols[i])
            fh.write(
                f"{dataset.clusters[i]},{dataset.time[i]:.12g},"
                f"{dataset.status[i]},{covs}\n"
            )
    return path


def source_env():
    """The environment with this checkout's package first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


@pytest.fixture(scope="module")
def data_csv(tmp_path_factory):
    ds = small_weibull_dataset(seed=15, q=5, n_i=12, p=2)
    path = tmp_path_factory.mktemp("data") / "clusters.csv"
    return str(write_csv(path, ds, binary=True))


class TestCmdFit:
    def test_nf_fit_writes_outputs(self, data_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["fit", "--data", data_csv, "--structure", "NF",
                     "--out", str(out)])
        assert code == 0
        fit_json = out / "fit_NF.json"
        assert fit_json.exists()
        assert (out / "fit_NF.txt").exists()
        record = json.loads(fit_json.read_text())
        assert record["structure"] == "NF"
        assert record["df_r"] == 0
        text = capsys.readouterr().out
        assert "Frailty parameters" in text
        assert "(none)" in text

    def test_scf_fit(self, data_csv, tmp_path):
        out = tmp_path / "o2"
        code = main(["fit", "--data", data_csv, "--structure", "ScF",
                     "--out", str(out)])
        assert code == 0
        record = json.loads((out / "fit_ScF.json").read_text())
        assert "sigma_beta" in record["dispersion"]

    def test_malformed_status_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("cluster,time,status,x\nA,1.0,1,0.0\nB,2.0,2,1.0\n")
        code = main(["fit", "--data", str(bad), "--structure", "NF",
                     "--out", str(tmp_path)])
        assert code == 1
        err = capsys.readouterr().err
        assert "row 2" in err

    def test_missing_file_exits_1(self, tmp_path, capsys):
        code = main(["fit", "--data", str(tmp_path / "nope.csv"),
                     "--structure", "NF", "--out", str(tmp_path)])
        assert code == 1

    def test_nonconvergence_exit_2_with_partial_output(self, data_csv, tmp_path):
        out = tmp_path / "o3"
        code = main(["fit", "--data", data_csv, "--structure", "BVNF",
                     "--max-outer", "1", "--out", str(out)])
        assert code == 2
        record = json.loads((out / "fit_BVNF.json").read_text())
        assert record["converged"] is False

    def test_zero_max_outer_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["fit", "--data", data_csv, "--structure", "NF",
                     "--max-outer", "0", "--out", str(tmp_path)])
        assert code == 1
        assert "iteration caps must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "fit_NF.json").exists()

    def test_repeated_covariate_column_exits_1(self, data_csv, tmp_path, capsys):
        lines = Path(data_csv).read_text().splitlines()
        lines[0] = "cluster,time,status,x1,x1"
        path = tmp_path / "repeated.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--data", str(path), "--structure", "ScF", "--out", str(tmp_path)])
        assert code == 1
        assert "covariate named more than once: x1" in capsys.readouterr().err

    @pytest.mark.parametrize("where", ["label", "name"])
    def test_blank_cluster_label_or_covariate_name_exits_1(self, data_csv, tmp_path, capsys,
                                                            where):
        lines = Path(data_csv).read_text().splitlines()
        if where == "label":
            lines[3] = "  " + lines[3][lines[3].index(","):]
        else:
            lines = [lines[0] + ","] + [line + ",0" for line in lines[1:]]
        path = tmp_path / "blank.csv"
        path.write_text("\n".join(lines) + "\n")
        code = main(["fit", "--data", str(path), "--structure", "ScF", "--out", str(tmp_path)])
        assert code == 1
        assert {"label": "row 3: cluster label is blank",
                "name": "covariate name in column 6 is blank"}[where] in capsys.readouterr().err
        assert not (tmp_path / "fit_ScF.json").exists()

    def test_repeated_scale_covariate_exits_1(self, data_csv, tmp_path, capsys):
        code = main(["fit", "--data", data_csv, "--structure", "ScF",
                     "--scale-covariates", "x1,x1", "--out", str(tmp_path)])
        assert code == 1
        assert "scale covariate named more than once: x1" in capsys.readouterr().err
        assert not (tmp_path / "fit_ScF.json").exists()

    def test_collinear_design_exits_3(self, tmp_path, capsys):
        rng = np.random.default_rng(1)
        rows = ["cluster,time,status,x1,x2"]
        for i in range(60):
            x = rng.integers(0, 2)
            rows.append(
                f"c{i % 5},{rng.uniform(0.2, 3):.4f},{rng.integers(0, 2)},{x},{x}"
            )
        path = tmp_path / "collinear.csv"
        path.write_text("\n".join(rows))
        code = main(["fit", "--data", str(path), "--structure", "NF",
                     "--out", str(tmp_path)])
        assert code == 3
        assert "numerical failure" in capsys.readouterr().err


class TestCmdCompare:
    def test_compare_writes_report(self, data_csv, tmp_path, capsys):
        out = tmp_path / "cmp"
        code = main(["compare", "--data", data_csv,
                     "--structures", "NF,ScF,ShF", "--out", str(out)])
        assert code == 0
        csv_text = (out / "selection.csv").read_text()
        assert csv_text.splitlines()[0].startswith("model,deviance_r")
        assert len(csv_text.splitlines()) == 4
        txt = (out / "selection.txt").read_text()
        assert "LRT NF vs ScF" in txt
        assert "LRT NF vs ShF" in txt

    def test_selection_txt_holds_every_lrt_of_six_fits(self, data_csv, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--data", data_csv, "--max-outer", "10",
                     "--out", str(out)]) == 0
        lrt = [line.split(":")[0] for line in (out / "selection.txt").read_text().splitlines()
               if line.startswith("LRT")]
        assert lrt == ["LRT NF vs ScF", "LRT NF vs ShF", "LRT ScF vs IF", "LRT ShF vs IF"]

    def test_selection_csv_marks_non_convergence_and_failures(self, data_csv, tmp_path,
                                                              monkeypatch):
        import mprfrailty.cli

        def fit_or_fail(dataset, structure, **kwargs):
            if structure == "CF":
                raise CurvatureError('lost curvature, at "x"')
            return fit(dataset, structure=structure, **kwargs)

        monkeypatch.setattr(mprfrailty.cli, "fit", fit_or_fail)
        out = tmp_path / "cmp"
        assert main(["compare", "--data", data_csv, "--structures", "NF,ScF,BVNF,CF",
                     "--max-outer", "2", "--out", str(out)]) == 0
        with open(out / "selection.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0][-2:] == ["converged", "note"]
        assert all(len(row) == 11 for row in rows)
        by_model = {row[0]: row for row in rows[1:]}
        assert by_model["NF"][-2:] == ["true", ""]
        assert by_model["BVNF"][-2:] == ["false", "not converged"]
        # two sweeps leave ScF's profile above NF's, which it nests
        assert by_model["ScF"][-2] == "false"
        assert by_model["ScF"][-1].startswith("not converged; deviance above NF's by ")
        assert by_model["CF"] == ["CF"] + ["NA"] * 8 + [
            "false", 'CurvatureError: lost curvature, at "x"']

    def test_compare_fits_scf_once_and_starts_cf_on_it(self, data_csv, tmp_path, monkeypatch):
        import mprfrailty.cli

        calls = []

        def recording_fit(dataset, structure, **kwargs):
            calls.append((structure, kwargs["start"]))
            out = fit(dataset, structure=structure, **kwargs)
            calls[-1] += (out,)
            return out

        monkeypatch.setattr(mprfrailty.cli, "fit", recording_fit)
        out = tmp_path / "cmp"
        # CF listed first: ScF is still fitted before it
        assert main(["compare", "--data", data_csv, "--structures", "CF,NF,ScF",
                     "--out", str(out)]) == 0
        assert [c[0] for c in calls] == ["ScF", "CF", "NF"]
        scf = calls[0][2]
        assert calls[1][1] is scf and calls[0][1] is None and calls[2][1] is None
        rows = (out / "selection.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == ["CF", "NF", "ScF"]

    @pytest.mark.parametrize("structures", ["BVNF,NF,IF", "IF,BVNF,NF"])
    def test_compare_fits_if_once_and_starts_bvnf_on_it(self, structures, data_csv, tmp_path,
                                                        monkeypatch):
        import mprfrailty.cli

        calls = {}

        def recording_fit(dataset, structure, **kwargs):
            assert structure not in calls
            calls[structure] = (kwargs["start"], fit(dataset, structure=structure, **kwargs))
            return calls[structure][1]

        monkeypatch.setattr(mprfrailty.cli, "fit", recording_fit)
        out = tmp_path / "cmp"
        assert main(["compare", "--data", data_csv, "--structures", structures,
                     "--out", str(out)]) == 0
        # IF is fitted before BVNF, whatever the order given
        assert list(calls) == ["IF"] + [s for s in structures.split(",") if s != "IF"]
        assert calls["BVNF"][0] is calls["IF"][1]
        assert calls["IF"][0] is None and calls["NF"][0] is None
        assert calls["BVNF"][1].iterations["start"] == "IF"
        rows = (out / "selection.csv").read_text().splitlines()[1:]
        assert [row.split(",")[0] for row in rows] == structures.split(",")

    def test_single_structure_rejected(self, data_csv, tmp_path):
        assert main(["compare", "--data", data_csv, "--structures", "NF",
                     "--out", str(tmp_path)]) == 1

    def test_structure_names_normalized(self, data_csv, tmp_path):
        out = tmp_path / "cmp"
        assert main(["compare", "--data", data_csv, "--structures", "nf,scf",
                     "--out", str(out)]) == 0
        assert sorted(p.name for p in out.glob("fit_*.json")) == ["fit_NF.json", "fit_ScF.json"]
        assert "LRT NF vs ScF" in (out / "selection.txt").read_text()

    def test_duplicate_structures_fitted_once(self, data_csv, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert main(["compare", "--data", data_csv, "--structures", "NF,nf,ScF",
                     "--out", str(out)]) == 0
        rows = (out / "selection.csv").read_text().splitlines()[1:]
        assert sorted(row.split(",")[0] for row in rows) == ["NF", "ScF"]
        capsys.readouterr()
        assert main(["compare", "--data", data_csv, "--structures", "NF,nf",
                     "--out", str(tmp_path / "one")]) == 1
        assert "at least 2 structures" in capsys.readouterr().err

    def test_unknown_structure_exits_1(self, data_csv, tmp_path, capsys):
        assert main(["compare", "--data", data_csv, "--structures", "foo,bar",
                     "--out", str(tmp_path)]) == 1
        assert "unknown frailty structure 'foo'" in capsys.readouterr().err
        assert not (tmp_path / "selection.csv").exists()

    @pytest.mark.parametrize("max_outer", ["0", "-3"])
    def test_bad_max_outer_exits_1(self, data_csv, tmp_path, capsys, max_outer):
        code = main(["compare", "--data", data_csv, "--structures", "NF,ScF",
                     "--max-outer", max_outer, "--out", str(tmp_path)])
        assert code == 1
        assert "iteration caps must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "selection.csv").exists()


class TestCmdSimulate:
    def scenario_file(self, tmp_path, **overrides):
        cfg = dict(
            q=6, n_i=10, beta_true=[0.8, -0.4, 0.3], alpha_true=[0.3, 0.2, -0.2],
            sigma_beta=0.6, sigma_alpha=0.3, rho=-0.3, censor_rate=0.25,
            replicates=2, seed=5,
        )
        cfg.update(overrides)
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(cfg))
        return str(path)

    def test_simulate_deterministic(self, tmp_path):
        scen = self.scenario_file(tmp_path)
        out1, out2 = tmp_path / "s1", tmp_path / "s2"
        assert main(["simulate", "--scenario", scen, "--structure", "ScF",
                     "--threads", "2", "--out", str(out1)]) == 0
        assert main(["simulate", "--scenario", scen, "--structure", "ScF",
                     "--threads", "2", "--out", str(out2)]) == 0
        b1 = (out1 / "scenario_summary.csv").read_bytes()
        b2 = (out2 / "scenario_summary.csv").read_bytes()
        assert b1 == b2

    def test_threads_default_to_one(self):
        assert build_parser().parse_args(["simulate", "--scenario", "s.json"]).threads == 1

    @pytest.mark.parametrize("threads", ["0", "-1"])
    def test_threads_below_one_exit_1(self, tmp_path, capsys, threads):
        scen = self.scenario_file(tmp_path)
        assert main(["simulate", "--scenario", scen, "--threads", threads,
                     "--out", str(tmp_path)]) == 1
        assert "threads must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "scenario_summary.csv").exists()

    def test_simulate_reports_failure_reasons(self, tmp_path, capsys):
        scen = self.scenario_file(tmp_path)
        assert main(["simulate", "--scenario", scen, "--structure", "ScF",
                     "--out", str(tmp_path)]) == 0
        assert "failed: 0 (none)" in capsys.readouterr().out

    def test_bad_scenario_exits_1(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\"q\": 1}")
        assert main(["simulate", "--scenario", str(path),
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("scenario, message", [
        ({"n_i": {"sizes": [5, 3], "weights": [0, 0]}}, "mixture weights must not all be zero"),
        ({"n_i": {"sizes": 5, "weights": 1}}, "mixture sizes and weights must be lists"),
        ([1, 2, 3], "a scenario must be a JSON object"),
    ])
    def test_malformed_scenario_exits_1_without_traceback(self, tmp_path, capsys,
                                                          scenario, message):
        # each used to end in a ZeroDivisionError or TypeError traceback
        if isinstance(scenario, dict):
            path = self.scenario_file(tmp_path, **scenario)
        else:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(scenario))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert f"error: bad scenario file: {message}" in err
        assert "Traceback" not in err

    def test_float_cluster_size_exits_1(self, tmp_path, capsys):
        scen = self.scenario_file(tmp_path, n_i=5.0)
        assert main(["simulate", "--scenario", scen, "--out", str(tmp_path)]) == 1
        assert "n_i must be an integer, got 5.0" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value, message", [
        ("sigma_beta", None, "sigma_beta must be a real number, got None"),
        ("censor_rate", None, "censor_rate must be a real number, got None"),
        ("beta_true", 0.8, "beta_true must be a list of numbers, got 0.8"),
        # JSON true used to read as 1.0 and as 1
        ("sigma_beta", True, "sigma_beta must be a real number, got True"),
        ("beta_true", [1.0, False, 0.5], "beta_true must be a real number, got False"),
        ("replicates", True, "replicates must be an integer, got True"),
        ("n_i", [True] * 6, "n_i entry must be an integer, got True"),
    ])
    def test_wrongly_typed_field_exits_1(self, tmp_path, capsys, field, value, message):
        scen = self.scenario_file(tmp_path, **{field: value})
        assert main(["simulate", "--scenario", scen, "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err

    def test_zero_replicates_exits_1(self, tmp_path, capsys):
        scen = self.scenario_file(tmp_path)
        assert main(["simulate", "--scenario", scen, "--replicates", "0",
                     "--out", str(tmp_path)]) == 1
        # the flag is out of range, not the file
        assert "error: replicates must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "scenario_summary.csv").exists()

    @pytest.mark.parametrize("flags, fields, message", [
        (["--seed", "-3"], {}, "error: seed must be non-negative"),
        ([], {"seed": -3}, "error: bad scenario file: seed must be non-negative"),
    ])
    def test_negative_seed_exits_1(self, tmp_path, capsys, flags, fields, message):
        # numpy's SeedSequence used to reject it with "expected non-negative integer"
        scen = self.scenario_file(tmp_path, **fields)
        assert main(["simulate", "--scenario", scen, *flags, "--out", str(tmp_path)]) == 1
        assert message in capsys.readouterr().err
        assert not (tmp_path / "scenario_summary.csv").exists()

    @pytest.mark.parametrize("edit, message", [
        # read as 100 replicates at 25% censoring
        ({"replicate": 5, "censor": 0.5}, "unknown scenario key(s): replicate, censor; "
                                          "the keys are q, n_i, "),
        # used to print only "error: bad scenario file: 'q'"
        ({"q": None, "rho": None}, "missing scenario key(s): q, rho"),
    ])
    def test_unknown_or_missing_key_exits_1(self, tmp_path, capsys, edit, message):
        cfg = json.loads(Path(self.scenario_file(tmp_path)).read_text())
        cfg = {k: v for k, v in {**cfg, **edit}.items() if v is not None}
        path = tmp_path / "edited.json"
        path.write_text(json.dumps(cfg))
        assert main(["simulate", "--scenario", str(path), "--out", str(tmp_path)]) == 1
        assert f"error: bad scenario file: {message}" in capsys.readouterr().err
        assert not (tmp_path / "scenario_summary.csv").exists()

    def test_unreachable_calibration_exits_4(self, tmp_path):
        scen = self.scenario_file(
            tmp_path, beta_true=[-8.0, 0.0, 0.0], alpha_true=[0.0, 0.0, 0.0],
            censor_rate=0.01,
        )
        assert main(["simulate", "--scenario", scen, "--out", str(tmp_path)]) == 4


@pytest.fixture(scope="module")
def saved_fit(data_csv, tmp_path_factory):
    out = tmp_path_factory.mktemp("fitout")
    code = main(["fit", "--data", data_csv, "--structure", "ScF",
                 "--out", str(out)])
    assert code == 0
    return out / "fit_ScF.json"


# a field value that fit_file_with drops
DROP = object()


def fit_file_with(saved_fit, tmp_path, **fields):
    """A copy of the saved fit JSON with ``fields`` replaced, or dropped where DROP."""
    path = tmp_path / "edited_fit.json"
    edited = {**json.loads(saved_fit.read_text()), **fields}
    path.write_text(json.dumps({k: v for k, v in edited.items() if v is not DROP}))
    return str(path)


# a missing field or an unknown name: these exited 1 with only the text of a
# KeyError ("error: 'beta'", "error: 'XYZ'"), and frailties took family "foo"
UNREADABLE_FIT_FIELDS = [
    ({"beta": DROP}, "fit field(s) missing: beta"),
    ({"warnings": DROP, "cov_theta": DROP, "beta": DROP}, "fit field(s) missing: beta, cov_theta"),
    ({"structure": "XYZ"}, "unknown frailty structure 'XYZ'"),
    ({"family": "foo"}, "unknown baseline family 'foo'"),
]


WRONGLY_TYPED_FIT_FIELDS = [{"cluster_sizes": None}, {"dispersion": None},
                            {"beta": None}, {"cov_theta": [1.0, 2.0]},
                            {"scale_names": ["(Intercept)", ["x1"], "x2"]}]

# fields that a written fit never holds a non-finite value in
NON_FINITE_FIT_FIELDS = ["beta", "alpha", "v_beta", "v_alpha", "cov_theta", "dispersion"]


def with_first_null(saved_fit, name):
    """``{name: value}``: the saved fit's field with its first number null.

    null is what the fit JSON holds for a non-finite float; for ``cov_theta``
    the null is the first diagonal entry.
    """
    value = json.loads(saved_fit.read_text())[name]
    if isinstance(value, dict):
        value = dict(value, **{next(iter(value)): None})
    elif isinstance(value[0], list):
        value = [[None] + value[0][1:]] + value[1:]
    else:
        value = [None] + value[1:]
    return {name: value}


# fields whose length must agree with scale_names, shape_names or cluster_labels;
# cov_theta must be m x m.  se_v_alpha is null in the saved ScF fit.
MISMATCHED_FIT_FIELDS = ["beta", "se_beta", "scale_names", "alpha", "se_alpha", "shape_names",
                         "cov_theta", "v_beta", "v_alpha", "se_v_beta", "cluster_sizes",
                         "cluster_labels"]


def without_last(saved_fit, name):
    """``{name: value}``: the saved fit's field without its last entry (cov_theta: row)."""
    return {name: json.loads(saved_fit.read_text())[name][:-1]}


# (field, edit): values that no fit writes, each loaded at one time: a dispersion
# map without the structure's names or with another's (the fit's .spec then raised
# DomainError), a string standard error, a cluster size read as 1 or kept negative,
# and df_r true; edit maps the saved fit's value to the edited one
UNWRITTEN_FIT_FIELDS = [
    pytest.param("dispersion", lambda v: {}, id="dispersion-empty"),
    pytest.param("dispersion", lambda v: {**v, "rho": 0.1}, id="dispersion-extra-rho"),
    pytest.param("se_dispersion", lambda v: {**v, "rho": 0.1}, id="se_dispersion-extra-rho"),
    pytest.param("se_dispersion", lambda v: dict.fromkeys(v, "0.1"), id="se_dispersion-string"),
    pytest.param("cluster_sizes", lambda v: [1.5] + v[1:], id="cluster_sizes-fraction"),
    pytest.param("cluster_sizes", lambda v: [-v[0]] + v[1:], id="cluster_sizes-negative"),
    pytest.param("df_r", lambda v: True, id="df_r-true"),
    pytest.param("df_r", lambda v: v + 1, id="df_r-miscounted"),
]


@pytest.mark.parametrize("command", [["hr", "--covariate", "x1"],
                                     ["frailties", "--component", "scale"]], ids=["hr", "frailties"])
@pytest.mark.parametrize("name, edit", UNWRITTEN_FIT_FIELDS)
def test_unwritten_fit_field_exits_1(saved_fit, tmp_path, capsys, command, name, edit):
    value = edit(json.loads(saved_fit.read_text())[name])
    path = fit_file_with(saved_fit, tmp_path, **{name: value})
    with pytest.raises(DataError, match=f"^fit field {name!r}"):
        ModelFit.from_dict(json.loads(Path(path).read_text()))
    out = tmp_path / "out"
    assert main([command[0], "--fit", path, *command[1:], "--out", str(out)]) == 1
    assert f"error: fit field {name!r}" in capsys.readouterr().err
    assert not out.exists()


class TestCmdHr:
    def test_round_trip_equals_in_process(self, saved_fit, tmp_path):
        out = tmp_path / "hr"
        code = main(["hr", "--fit", str(saved_fit), "--covariate", "x1",
                     "--times", "0.2:3:10", "--boot", "150", "--seed", "9",
                     "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "hr_x1.json").read_text())
        reloaded = ModelFit.from_dict(json.loads(saved_fit.read_text()))
        want = bootstrap_hr_ci(reloaded, "x1", np.linspace(0.2, 3, 10),
                               n_boot=150, seed=9)
        assert payload["hr"] == pytest.approx(want.hr)
        assert payload["lower"] == pytest.approx(want.lower)
        assert payload["upper"] == pytest.approx(want.upper)

    def test_point_curve_without_boot(self, saved_fit, tmp_path):
        out = tmp_path / "hr2"
        code = main(["hr", "--fit", str(saved_fit), "--covariate", "x1",
                     "--times", "1,2,3", "--out", str(out)])
        assert code == 0
        lines = (out / "hr_x1.csv").read_text().splitlines()
        assert lines[0] == "time,hr,lower,upper"
        assert lines[1].endswith("NA,NA")

    def test_unknown_covariate_exits_1(self, saved_fit, tmp_path):
        assert main(["hr", "--fit", str(saved_fit), "--covariate", "zzz",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("times", ["a:b:3", "1,x", "0.1:2:2.5"])
    def test_unparsable_times_exit_1(self, saved_fit, tmp_path, times):
        assert main(["hr", "--fit", str(saved_fit), "--covariate", "x1",
                     "--times", times, "--out", str(tmp_path)]) == 1

    def test_fit_file_not_json_exits_1(self, data_csv, tmp_path):
        assert main(["hr", "--fit", data_csv, "--covariate", "x1",
                     "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fields", WRONGLY_TYPED_FIT_FIELDS)
    def test_wrongly_typed_fit_field_exits_1(self, saved_fit, tmp_path, capsys, fields):
        path = fit_file_with(saved_fit, tmp_path, **fields)
        assert main(["hr", "--fit", path, "--covariate", "x1", "--out", str(tmp_path)]) == 1
        assert f"fit field {next(iter(fields))!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("boot", ["0", "150"])
    @pytest.mark.parametrize("name", NON_FINITE_FIT_FIELDS)
    def test_null_estimate_exits_1(self, saved_fit, tmp_path, capsys, name, boot):
        path = fit_file_with(saved_fit, tmp_path, **with_first_null(saved_fit, name))
        out = tmp_path / "hr"
        assert main(["hr", "--fit", path, "--covariate", "x1", "--boot", boot,
                     "--out", str(out)]) == 1
        assert f"fit field {name!r} holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("name", MISMATCHED_FIT_FIELDS)
    def test_mismatched_length_exits_1(self, saved_fit, tmp_path, capsys, name):
        # a short beta used to give a curve from the wrong coefficients, and exit 0
        path = fit_file_with(saved_fit, tmp_path, **without_last(saved_fit, name))
        out = tmp_path / "hr"
        assert main(["hr", "--fit", path, "--covariate", "x1", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: fit field" in err and repr(name) in err
        assert not out.exists()

    @pytest.mark.parametrize("boot", ["0", "150"])
    @pytest.mark.parametrize("fields, message", [
        # a null mode used to give a curve of NA rows and exit 0
        ({"modal_covariates": {"x1": 0.0, "x2": None}},
         "fit field 'modal_covariates' holds None for 'x2', not a finite number"),
        ({"binary_covariates": {"x1": True, "x2": "yes"}},
         "fit field 'binary_covariates' holds 'yes' for 'x2', not true or false"),
        # used to exit 1 with only "error: 'x2'"
        ({"modal_covariates": {"x1": 0.0}}, "fit field 'modal_covariates' has no entry for x2"),
        ({"binary_covariates": {"x1": True}},
         "fit field 'binary_covariates' has no entry for x2"),
    ])
    def test_bad_covariate_map_exits_1(self, saved_fit, tmp_path, capsys, fields, message,
                                       boot):
        path = fit_file_with(saved_fit, tmp_path, **fields)
        out = tmp_path / "hr"
        assert main(["hr", "--fit", path, "--covariate", "x1", "--boot", boot,
                     "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", UNREADABLE_FIT_FIELDS)
    def test_missing_field_or_unknown_name_exits_1(self, saved_fit, tmp_path, capsys, fields,
                                                   message):
        path = fit_file_with(saved_fit, tmp_path, **fields)
        out = tmp_path / "hr"
        assert main(["hr", "--fit", path, "--covariate", "x1", "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_output_does_not_depend_on_string_hashing(self, saved_fit, tmp_path):
        # reference_covariates came from a set, so its key order followed the hash seed
        written = []
        for seed in ("0", "4"):
            out = tmp_path / seed
            run = subprocess.run(
                [sys.executable, "-m", "mprfrailty.cli", "hr", "--fit", str(saved_fit),
                 "--covariate", "x1", "--out", str(out)],
                env=dict(source_env(), PYTHONHASHSEED=seed), capture_output=True, timeout=300)
            assert run.returncode == 0, run.stderr
            written.append([(p.name, p.read_bytes()) for p in sorted(out.iterdir())])
        assert written[0] == written[1]

    def test_covariance_not_positive_definite_exits_1(self, saved_fit, tmp_path, capsys):
        m = len(json.loads(saved_fit.read_text())["cov_theta"])
        path = fit_file_with(saved_fit, tmp_path, cov_theta=(-np.eye(m)).tolist())
        out = tmp_path / "hr"
        assert main(["hr", "--fit", path, "--covariate", "x1", "--boot", "150",
                     "--out", str(out)]) == 1
        assert ("error: fixed-effect covariance block is not positive definite"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_null_standard_errors_and_deviances_read_as_nan(self, saved_fit, tmp_path):
        path = fit_file_with(saved_fit, tmp_path, **with_first_null(saved_fit, "se_beta"),
                             deviance_profile=None, cond_deviance=None)
        reloaded = ModelFit.from_dict(json.loads(Path(path).read_text()))
        assert np.isnan(reloaded.se_beta[0]) and np.isnan(reloaded.deviance_profile)
        assert main(["hr", "--fit", path, "--covariate", "x1", "--times", "1,2",
                     "--out", str(tmp_path / "hr")]) == 0


class TestCmdFrailties:
    def test_round_trip_equals_in_process(self, saved_fit, tmp_path):
        out = tmp_path / "fr"
        code = main(["frailties", "--fit", str(saved_fit),
                     "--component", "scale", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "frailties_scale.json").read_text())
        reloaded = ModelFit.from_dict(json.loads(saved_fit.read_text()))
        want = frailty_estimates(reloaded, "scale")
        assert [row["cluster"] for row in payload] == [str(iv.cluster) for iv in want]
        assert [row["estimate"] for row in payload] == pytest.approx(
            [iv.estimate for iv in want]
        )

    def test_absent_component_exits_1(self, saved_fit, tmp_path):
        assert main(["frailties", "--fit", str(saved_fit),
                     "--component", "shape", "--out", str(tmp_path)]) == 1

    def test_fit_file_not_json_exits_1(self, data_csv, tmp_path):
        assert main(["frailties", "--fit", data_csv,
                     "--component", "scale", "--out", str(tmp_path)]) == 1

    @pytest.mark.parametrize("fields", WRONGLY_TYPED_FIT_FIELDS)
    def test_wrongly_typed_fit_field_exits_1(self, saved_fit, tmp_path, capsys, fields):
        path = fit_file_with(saved_fit, tmp_path, **fields)
        assert main(["frailties", "--fit", path, "--component", "scale",
                     "--out", str(tmp_path)]) == 1
        assert f"fit field {next(iter(fields))!r}" in capsys.readouterr().err

    @pytest.mark.parametrize("name", NON_FINITE_FIT_FIELDS)
    def test_null_estimate_exits_1(self, saved_fit, tmp_path, capsys, name):
        path = fit_file_with(saved_fit, tmp_path, **with_first_null(saved_fit, name))
        out = tmp_path / "fr"
        assert main(["frailties", "--fit", path, "--component", "scale",
                     "--out", str(out)]) == 1
        assert f"fit field {name!r} holds a non-finite value" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("fields, message", UNREADABLE_FIT_FIELDS)
    def test_missing_field_or_unknown_name_exits_1(self, saved_fit, tmp_path, capsys, fields,
                                                   message):
        path = fit_file_with(saved_fit, tmp_path, **fields)
        out = tmp_path / "fr"
        assert main(["frailties", "--fit", path, "--component", "scale",
                     "--out", str(out)]) == 1
        assert f"error: {message}" in capsys.readouterr().err
        assert not out.exists()

    def test_labels_with_comma_quote_or_line_break_read_back(self, tmp_path):
        # a label with a comma was written unquoted, giving a 6-field row under 5 names
        ds = small_weibull_dataset(seed=15, q=5, n_i=12, p=2)
        names = ["site 3, ward A", 'the "east" wing', "two\nlines", "plain", "B-7"]
        labels = {c: names[i] for i, c in enumerate(ds.cluster_labels())}
        data = tmp_path / "labels.csv"
        with open(data, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "time", "status", *ds.covariate_names])
            writer.writerows([labels[c], repr(float(t)), int(s), *map(repr, map(float, x))]
                             for c, t, s, x in zip(ds.clusters, ds.time, ds.status,
                                                   ds.covariates))
        assert main(["fit", "--data", str(data), "--structure", "ScF",
                     "--out", str(tmp_path)]) == 0
        out = tmp_path / "fr"
        assert main(["frailties", "--fit", str(tmp_path / "fit_ScF.json"),
                     "--component", "scale", "--out", str(out)]) == 0
        with open(out / "frailties_scale.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["cluster", "size", "estimate", "lower", "upper"]
        assert all(len(row) == 5 for row in rows)
        assert sorted(row[0] for row in rows[1:]) == sorted(names)
        # a plain label is written as it is
        assert "\nplain,12," in (out / "frailties_scale.csv").read_text()

    @pytest.mark.parametrize("name", MISMATCHED_FIT_FIELDS)
    def test_mismatched_length_exits_1(self, saved_fit, tmp_path, capsys, name):
        # a short cluster_sizes used to list fewer clusters and exit 0, and a short
        # cluster_labels or se_v_beta ended in an IndexError traceback
        path = fit_file_with(saved_fit, tmp_path, **without_last(saved_fit, name))
        out = tmp_path / "fr"
        assert main(["frailties", "--fit", path, "--component", "scale",
                     "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert "error: fit field" in err and repr(name) in err
        assert not out.exists()


@pytest.mark.parametrize("command", ["fit", "compare", "simulate", "hr", "frailties"])
def test_out_below_a_regular_file_exits_1_before_any_fit(data_csv, saved_fit, tmp_path, capsys,
                                                         monkeypatch, command):
    # each command used to end in a NotADirectoryError traceback, fit, compare and
    # simulate after all their fits
    import mprfrailty.cli

    def no_fit(*args, **kwargs):
        pytest.fail(f"{command} fitted before it made --out")

    monkeypatch.setattr(mprfrailty.cli, "fit", no_fit)
    monkeypatch.setattr(mprfrailty.cli, "run_scenario", no_fit)
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(dict(
        q=6, n_i=10, beta_true=[0.8, -0.4, 0.3], alpha_true=[0.3, 0.2, -0.2],
        sigma_beta=0.6, sigma_alpha=0.3, rho=-0.3, replicates=2, seed=5)))
    argv = {"fit": ["fit", "--data", data_csv],
            "compare": ["compare", "--data", data_csv],
            "simulate": ["simulate", "--scenario", str(scenario)],
            "hr": ["hr", "--fit", str(saved_fit), "--covariate", "x1"],
            "frailties": ["frailties", "--fit", str(saved_fit), "--component", "scale"]}
    (tmp_path / "file").write_text("")
    assert main([*argv[command], "--out", str(tmp_path / "file" / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err


# Run in a fresh interpreter.  Prints every scipy module loaded after `import
# mprfrailty.cli`, after `hr` and `frailties` on a saved fit, and which of LAZY are
# loaded after the process's first fit; then that fit's output.  The first fit is
# either `fit` or a run_scenario whose two worker threads import scipy at once,
# followed by a serial rerun.
START_UP_PROBE = """
import contextlib, io, json, sys
import mprfrailty.cli

LAZY = ("scipy.linalg", "scipy.optimize", "scipy.sparse", "scipy.special", "scipy.stats")
fit_path, data_csv, out, first_fit, scenario = sys.argv[1:]


def scipy_modules():
    return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")


loaded = {"import": scipy_modules()}
with contextlib.redirect_stdout(io.StringIO()):
    codes = [mprfrailty.cli.main(["hr", "--fit", fit_path, "--covariate", "x1",
                                  "--boot", "150", "--out", out])]
    loaded["hr"] = scipy_modules()
    codes.append(mprfrailty.cli.main(["frailties", "--fit", fit_path,
                                      "--component", "scale", "--out", out]))
    loaded["frailties"] = scipy_modules()


def summary_json(threads):
    s = mprfrailty.run_scenario(mprfrailty.ScenarioSpec.from_dict(json.loads(scenario)),
                                structure="ScF", threads=threads)
    return json.dumps([s.to_csv_text(), s.estimates.tolist(), s.see_matrix.tolist(),
                       s.c_max, s.n_failed, s.failure_reasons])


if first_fit == "fit":
    result = [json.dumps(mprfrailty.fit(mprfrailty.Dataset.read_csv(data_csv),
                                        structure="ScF").to_dict(), sort_keys=True)]
else:
    result = [summary_json(2)]
loaded["first fit"] = [m for m in LAZY if m in sys.modules]
if first_fit != "fit":
    result.append(summary_json(1))
print(json.dumps({"codes": codes, "loaded": loaded, "result": result}))
"""


def test_no_scipy_module_loads_before_the_first_fit(saved_fit, data_csv, tmp_path):
    env = source_env()
    scenario = json.dumps(dict(
        q=6, n_i=10, beta_true=[0.8, -0.4, 0.3], alpha_true=[0.3, 0.2, -0.2],
        sigma_beta=0.6, sigma_alpha=0.3, rho=-0.3, censor_rate=0.25, replicates=2, seed=5))
    probes = {}
    for first_fit in ("fit", "scenario"):
        out = subprocess.run(
            [sys.executable, "-c", START_UP_PROBE, str(saved_fit), data_csv,
             str(tmp_path / first_fit), first_fit, scenario],
            env=env, capture_output=True, text=True, timeout=300)
        assert out.returncode == 0, out.stderr
        probes[first_fit] = json.loads(out.stdout.splitlines()[-1])
    for probe in probes.values():
        assert probe["codes"] == [0, 0]
        # LAPACK, the cluster sums, the outer search and chdtrc load with the first
        # fit; scipy.stats, scipy's slowest import, never does
        assert probe["loaded"] == {"import": [], "hr": [], "frailties": [],
                                   "first fit": ["scipy.linalg", "scipy.optimize",
                                                 "scipy.sparse", "scipy.special"]}
    want = fit(Dataset.read_csv(data_csv), structure="ScF")
    assert probes["fit"]["result"] == [json.dumps(want.to_dict(), sort_keys=True)]
    threads_2, threads_1 = probes["scenario"]["result"]
    assert threads_2 == threads_1
