import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from mprfrailty import ModelFit, bootstrap_hr_ci, frailty_estimates
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

    def test_float_cluster_size_exits_1(self, tmp_path, capsys):
        scen = self.scenario_file(tmp_path, n_i=5.0)
        assert main(["simulate", "--scenario", scen, "--out", str(tmp_path)]) == 1
        assert "n_i must be an integer, got 5.0" in capsys.readouterr().err

    def test_zero_replicates_exits_1(self, tmp_path, capsys):
        scen = self.scenario_file(tmp_path)
        assert main(["simulate", "--scenario", scen, "--replicates", "0",
                     "--out", str(tmp_path)]) == 1
        assert "replicates must be at least 1" in capsys.readouterr().err
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


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats is the slowest import of scipy; the LRT needs only chdtrc
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, mprfrailty.cli; print('scipy.stats' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
