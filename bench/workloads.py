"""The benchmark's three workloads and the correctness gate on their outputs.

Every workload draws its data from the package's own generators at the
Table-2 truth.  The data sets are fixed per workload (a bank of data
seeds), because fit time depends strongly on the data set: at
(q=20, n_i=5) with 50% censoring, 20 replicates took 15 s to 45 s
depending on the scenario seed, and at (q=300, n_i=5) one CF fit took
1.5 s to 5.9 s.  Runs with different ``--seed`` values therefore fit
the same data sets and stay comparable; the seed sets the order in
which wide-shallow fits its data sets and the bootstrap seed of the
analyst's HR bands.

A workload's ``run_pass`` performs one user session and returns its
step times and a snapshot of its outputs.  ``check`` compares the
snapshot against the references recorded from an earlier commit.
"""

import contextlib
import csv
import io
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import mprfrailty
from mprfrailty import cli

TRUTH = dict(beta_true=(1.0, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
             sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5)

# Tolerances of the correctness gate.  Absolute, on the natural scale of
# each estimate; a refactor that reaches the same fixed point to the outer
# tolerance (1e-6 per sweep) stays well inside them.
PARAM_TOL = 1e-3       # beta, alpha, dispersion, scenario means, frailty intervals
DEVIANCE_TOL = 1e-2    # -2 p(h)
HR_REL_TOL = 1e-3      # point hazard ratio, relative
BAND_TOL = 0.2         # HR band edges, as a share of the reference band width on
                       # the log scale; the bootstrap seed follows --seed, the
                       # reference used seed 0


def make_dataset(q, n_i, censor_rate, data_seed):
    """Replicate 0 of the Table-2 scenario seeded with ``data_seed``.

    Uses the same random streams as ``run_scenario``: calibration on the
    first child stream, the replicate on the second.
    """
    spec = mprfrailty.ScenarioSpec(q=q, n_i=n_i, censor_rate=censor_rate,
                                   replicates=1, seed=data_seed, **TRUTH)
    streams = np.random.SeedSequence(data_seed).spawn(2)
    c_max = mprfrailty.calibrate_censoring(spec, np.random.default_rng(streams[0]))
    return mprfrailty.simulate_dataset(spec, c_max, np.random.default_rng(streams[1]))


def _fit_quietly(dataset, structure):
    """A fit whose failure is recorded by the fit log, not fatal to the session."""
    try:
        mprfrailty.fit(dataset, structure=structure)
    except Exception as exc:  # the benchmark keeps going; the outcome is gated
        print(f"fit {structure} raised {type(exc).__name__}: {exc}", file=sys.stderr)


class WideShallow:
    """fit() of BVNF, CF and ScF on four (q=200, n_i=5) data sets, 25% censoring.

    q-heavy: the (theta, v) information is 406x406, and dense Cholesky in
    the dispersion objective takes about two thirds of a BVNF fit.  q=200
    rather than 300 keeps four data sets (twelve fits) inside one run, so
    the medians are taken over more than one or two samples.
    """

    name = "wide-shallow"
    FIT_LABEL = "fit"
    SIZES = {"full": dict(q=200, n_i=5, data_seeds=(1, 2, 3, 4)),
             "tiny": dict(q=10, n_i=5, data_seeds=(1,))}
    STRUCTURES = ("BVNF", "CF", "ScF")

    def __init__(self, size, seed, workdir):
        self.cfg = self.SIZES[size]
        rng = np.random.default_rng(seed)
        self.order = [int(d) for d in rng.permutation(self.cfg["data_seeds"])]
        self.datasets = {}

    def setup(self):
        self.datasets = {d: make_dataset(self.cfg["q"], self.cfg["n_i"], 0.25, d)
                         for d in self.cfg["data_seeds"]}

    def run_pass(self, fit_log):
        for d in self.order:
            fit_log.context = f"data{d}"
            for structure in self.STRUCTURES:
                _fit_quietly(self.datasets[d], structure)
        return {}, {}


class AnalystDeep:
    """An analyst's CLI session on one (q=100, n_i=50) CSV.

    ``compare`` over all six structures, then ``hr --boot`` on the BVNF
    fit for the 0/1 ``treatment`` covariate, then ``frailties``.  The
    treatment column is the generator's first covariate dichotomized at 0,
    so it enters both components; the second covariate is kept as is.
    """

    name = "analyst-deep"
    FIT_LABEL = "fit"
    SIZES = {"full": dict(q=100, n_i=50, data_seed=1, boot=1000),
             "tiny": dict(q=10, n_i=10, data_seed=1, boot=1000)}

    def __init__(self, size, seed, workdir):
        self.cfg = self.SIZES[size]
        self.seed = seed
        self.workdir = Path(workdir)
        self.csv = self.workdir / "trial.csv"
        self.out = self.workdir / "out"

    def setup(self):
        ds = make_dataset(self.cfg["q"], self.cfg["n_i"], 0.25, self.cfg["data_seed"])
        self.workdir.mkdir(parents=True, exist_ok=True)
        with open(self.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["cluster", "time", "status", "treatment", "x2"])
            for c, t, s, x in zip(ds.clusters, ds.time, ds.status, ds.covariates):
                writer.writerow([c, repr(float(t)), int(s), int(x[0] > 0), repr(float(x[1]))])

    def _cli(self, argv):
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def run_pass(self, fit_log):
        shutil.rmtree(self.out, ignore_errors=True)
        out = str(self.out)
        fit_json = str(self.out / "fit_BVNF.json")
        fit_log.context = "compare"
        steps, exits = {}, {}
        commands = [
            ("compare", ["compare", "--data", str(self.csv), "--out", out]),
            ("hr_boot", ["hr", "--fit", fit_json, "--covariate", "treatment",
                         "--boot", str(self.cfg["boot"]), "--seed", str(self.seed),
                         "--out", out]),
            ("frailties", ["frailties", "--fit", fit_json, "--component", "scale",
                           "--out", out]),
        ]
        for step, argv in commands:
            start = time.perf_counter()
            exits[step] = self._cli(argv)
            steps[step] = time.perf_counter() - start
        outputs = {"exit_codes": exits}
        hr_csv = self.out / "hr_treatment.csv"
        if hr_csv.exists():
            outputs["hr"] = _read_columns(hr_csv, ("hr", "lower", "upper"))
        fr_csv = self.out / "frailties_scale.csv"
        if fr_csv.exists():
            outputs["frailties"] = _read_columns(fr_csv, ("cluster", "estimate", "lower", "upper"))
        return steps, outputs


class McHeavyCensor:
    """run_scenario for BVNF at (q=20, n_i=5), 50% censoring, max_outer=600.

    Sweep-heavy with tiny matrices (dimension 46): the Monte Carlo traffic
    of the heavy-censoring acceptance criterion.
    """

    name = "mc-heavy-censor"
    FIT_LABEL = "rep"  # each fit is one Monte Carlo replicate
    SIZES = {"full": dict(q=20, n_i=5, replicates=20, scenario_seed=20251),
             "tiny": dict(q=10, n_i=5, replicates=4, scenario_seed=20251)}

    def __init__(self, size, seed, workdir):
        self.cfg = self.SIZES[size]

    def setup(self):
        cfg = self.cfg
        self.spec = mprfrailty.ScenarioSpec(
            q=cfg["q"], n_i=cfg["n_i"], censor_rate=0.5,
            replicates=cfg["replicates"], seed=cfg["scenario_seed"], **TRUTH)
        self.settings = mprfrailty.FitSettings(max_outer=600)

    def run_pass(self, fit_log):
        fit_log.context = "scenario"
        try:
            summary = mprfrailty.run_scenario(self.spec, structure="BVNF",
                                              settings=self.settings, threads=1)
        except mprfrailty.MPRFrailtyError as exc:
            return {}, {"summary": {"error": type(exc).__name__}}
        return {}, {"summary": {
            "names": list(summary.param_names),
            "mean": [float(m) for m in summary.mean],
            "n_converged": int(summary.n_converged),
            "n_failed": int(summary.n_failed),
        }}


WORKLOADS = {w.name: w for w in (WideShallow, AnalystDeep, McHeavyCensor)}


def _read_columns(path, names):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return {n: [r[n] if n == "cluster" else _number(r[n]) for r in rows] for n in names}


def _number(text):
    return None if text == "NA" else float(text)


# -- correctness gate ------------------------------------------------------------


def check(outputs, ref):
    """Problems found comparing a pass's outputs with the reference; [] if none.

    A fit's outcome ("ok", "not converged" or the exception raised)
    stands for its ``converged`` flag.  A fit that succeeded in the
    reference must succeed again and match it; a fit that failed in the
    reference may now fail or succeed.
    """
    problems = []
    fits, ref_fits = outputs["fits"], ref["fits"]
    if set(fits) != set(ref_fits):
        problems.append(f"fits attempted differ: missing {sorted(set(ref_fits) - set(fits))}, "
                        f"extra {sorted(set(fits) - set(ref_fits))}")
    for key, want in ref_fits.items():
        got = fits.get(key)
        if got is None or want["outcome"] != "ok":
            continue
        if got["outcome"] != "ok":
            problems.append(f"{key}: {got['outcome']}, reference converged")
            continue
        problems += _compare_fit(key, got["values"], want["values"])
    if "summary" in ref:
        problems += _compare_summary(outputs.get("summary"), ref["summary"])
    if "exit_codes" in ref and outputs.get("exit_codes") != ref["exit_codes"]:
        problems.append(f"exit codes {outputs.get('exit_codes')} != {ref['exit_codes']}")
    if "hr" in ref:
        problems += _compare_hr(outputs.get("hr"), ref["hr"])
    if "frailties" in ref:
        problems += _compare_frailties(outputs.get("frailties"), ref["frailties"])
    return problems


def _far(got, want, tol):
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return got.shape != want.shape or not np.all(np.abs(got - want) <= tol)


def _compare_fit(key, got, want):
    problems = []
    for name in ("beta", "alpha"):
        if _far(got[name], want[name], PARAM_TOL):
            problems.append(f"{key}: {name} {got[name]} != {want[name]}")
    if (sorted(got["dispersion"]) != sorted(want["dispersion"])
            or _far([got["dispersion"][k] for k in sorted(want["dispersion"])],
                    [want["dispersion"][k] for k in sorted(want["dispersion"])], PARAM_TOL)):
        problems.append(f"{key}: dispersion {got['dispersion']} != {want['dispersion']}")
    if _far(got["deviance_profile"], want["deviance_profile"], DEVIANCE_TOL):
        problems.append(f"{key}: deviance_profile {got['deviance_profile']} "
                        f"!= {want['deviance_profile']}")
    return problems


def _compare_summary(got, want):
    if "error" in want:
        return []
    if got is None or "error" in got:
        return [f"scenario failed ({got}), reference succeeded"]
    if got["names"] != want["names"]:
        return [f"scenario parameters {got['names']} != {want['names']}"]
    if got["n_converged"] == want["n_converged"] and _far(got["mean"], want["mean"], PARAM_TOL):
        return [f"scenario means {got['mean']} != {want['mean']}"]
    # more converged replicates than the reference: the means cover another
    # set of replicates, whose estimates the per-fit comparison has checked
    return []


def _compare_hr(got, want):
    if got is None:
        return ["hr output missing"]
    problems = []
    hr, ref_hr = np.asarray(got["hr"], dtype=float), np.asarray(want["hr"], dtype=float)
    if hr.shape != ref_hr.shape or not np.allclose(hr, ref_hr, rtol=HR_REL_TOL, atol=0.0):
        problems.append("hazard ratio curve differs from the reference")
    # bands compared on the log scale, where bootstrap noise is symmetric:
    # over 60 bootstrap seeds no edge moved by more than 0.09 of the width
    with np.errstate(invalid="ignore", divide="ignore"):
        log_got = {e: np.log(np.asarray(got[e], dtype=float)) for e in ("lower", "upper")}
        log_want = {e: np.log(np.asarray(want[e], dtype=float)) for e in ("lower", "upper")}
    width = log_want["upper"] - log_want["lower"]
    for edge in ("lower", "upper"):
        if _far(log_got[edge], log_want[edge], BAND_TOL * width):
            problems.append(f"hazard ratio band {edge} edge differs from the reference")
    return problems


def _compare_frailties(got, want):
    if got is None:
        return ["frailty output missing"]
    if got["cluster"] != want["cluster"]:
        return ["frailty cluster order differs from the reference"]
    return [f"frailty {name} differs from the reference"
            for name in ("estimate", "lower", "upper")
            if _far(got[name], want[name], PARAM_TOL)]
