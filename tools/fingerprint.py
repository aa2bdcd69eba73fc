"""Print sha256 fingerprints of fits, a bootstrap band and CLI records.

Run from a checkout as ``PYTHONPATH=src python tools/fingerprint.py`` (or
with the package installed); comparing the output of two revisions tells
whether a change kept every fit and every written byte.  The hashes
depend on the BLAS, so only outputs from the same machine compare.

It prints, in order:

- sha256 of ``json.dumps(fit.to_dict(), sort_keys=True)`` for every
  structure on one small generated data set (q = 20, n_i = 5), under
  Weibull and under Gompertz (a Weibull NF fit takes no Newton step from
  its Weibull start; a Gompertz one does), with each fit's iterations.
  Every one of these fits has dim <= 60 (BVNF at q = 20 is dim 46), so it
  takes the dense side of ``hlik.DENSE_MAX_DIM``;
- the sha256 of the lower and upper bytes of a 1000-draw HR band of a
  BVNF fit with x1 cut at 0 into a 0/1 covariate;
- one sha256 over the 20 BVNF replicates of the benchmark's
  mc-heavy-censor scenario (``max_outer=600``): each fit's ``to_dict()``
  or its exception's type and message (about 8 s);
- on the first data set with x1 cut at 0 into a 0/1 treatment, one sha256
  per CLI command over its stdout and every file it writes: ``fit`` for
  each structure, ``compare``, ``hr`` with and without ``--boot 500`` and
  ``frailties`` on the ScF fit, and ``simulate`` of a 6-replicate ScF
  scenario (about 15 s).  The commands run with ``PYTHONPATH`` set to the
  source root of the package imported here, so a relative
  ``PYTHONPATH=src`` reaches them from their temporary working directory;
- the six Weibull fits, hashed as above, of the benchmark's analyst-deep
  data set (q = 100, n_i = 50, 25% censoring, seed 1, x1 cut at 0 into a
  0/1 treatment), whose frailty structures take the Schur side (dim 106
  and 206) as wide-shallow and analyst-deep do (about 2 s);
- the Weibull BVNF fit of that data set given its IF fit as ``start=``,
  the face run that ``compare`` makes and no plain ``fit`` does;
- the Weibull ScF and CF fits of the Table-2 data set at (q = 50, n_i = 5,
  25% censoring, seed 3), where CF converges from its ScF face and raises
  ``NonConvergenceError`` from the default start of the other structures:
  the start decides its outcome (about 2 s).
"""

import hashlib
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import mprfrailty as m

TRUTH = dict(beta_true=(1.0, -0.5, 0.5), alpha_true=(0.5, 0.5, -0.5),
             sigma_beta=1.0, sigma_alpha=0.5, rho=-0.5)


def generated(spec):
    """Replicate 0 of ``spec``: calibration on the seed's first child stream, data on its second."""
    calibration, replicate = (np.random.default_rng(s)
                              for s in np.random.SeedSequence(spec.seed).spawn(2))
    return m.simulate_dataset(spec, m.calibrate_censoring(spec, calibration), replicate)


def fit_digest(f):
    return hashlib.sha256(json.dumps(f.to_dict(), sort_keys=True).encode()).hexdigest()


def print_fits(ds, families, label=None, structures=m.STRUCTURES):
    """One line per family and structure: the fit's hash and iterations, or the exception's type."""
    for family in families:
        for structure in structures:
            try:
                f = m.fit(ds, structure=structure, family=family)
            except m.MPRFrailtyError as exc:
                print(label or family, structure, type(exc).__name__)
                continue
            print(label or family, structure, fit_digest(f), json.dumps(f.iterations))


def main():
    ds = generated(m.ScenarioSpec(q=20, n_i=5, replicates=1, seed=1, **TRUTH))
    print_fits(ds, ("weibull", "gompertz"))
    binary = np.column_stack([ds.covariates[:, 0] > 0, ds.covariates[:, 1]])
    f = m.fit(m.Dataset(ds.clusters, ds.time, ds.status, binary, ds.covariate_names))
    band = m.bootstrap_hr_ci(f, "x1", np.linspace(0.05, 5, 60), n_boot=1000, seed=0)
    print("BVNF hr band", hashlib.sha256(band.lower.tobytes() + band.upper.tobytes()).hexdigest())

    spec = m.ScenarioSpec(q=20, n_i=5, censor_rate=0.5, replicates=20, seed=20251, **TRUTH)
    children = np.random.SeedSequence(spec.seed).spawn(spec.replicates + 1)
    c_max = m.calibrate_censoring(spec, np.random.default_rng(children[0]))
    digest = hashlib.sha256()
    for b in range(spec.replicates):
        replicate = m.simulate_dataset(spec, c_max, np.random.default_rng(children[b + 1]))
        try:
            out = m.fit(replicate, structure="BVNF", settings=m.FitSettings(max_outer=600)).to_dict()
        except m.MPRFrailtyError as exc:
            out = {"error": type(exc).__name__, "message": str(exc)}
        digest.update(json.dumps(out, sort_keys=True).encode())
    print("mc-heavy-censor 20 replicates", digest.hexdigest())

    # the first data set again (replicates=6 does not change it)
    spec = m.ScenarioSpec(q=20, n_i=5, replicates=6, seed=1, **TRUTH)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        with open(root / "data.csv", "w") as fh:
            fh.write("cluster,time,status,treatment,x2\n")
            for c, t, s, x in zip(ds.clusters, ds.time, ds.status, ds.covariates):
                fh.write(f"{c},{float(t)!r},{int(s)},{int(x[0] > 0)},{float(x[1])!r}\n")
        (root / "scenario.json").write_text(json.dumps(spec.to_dict()))
        fit_json = "fit_ScF/fit_ScF.json"
        commands = {f"fit {s}": ["fit", "--data", "data.csv", "--structure", s] for s in m.STRUCTURES}
        commands |= {"compare": ["compare", "--data", "data.csv"],
                     "hr": ["hr", "--fit", fit_json, "--covariate", "treatment"],
                     "hr --boot 500": ["hr", "--fit", fit_json, "--covariate", "treatment", "--boot", "500"],
                     "frailties": ["frailties", "--fit", fit_json, "--component", "scale"],
                     "simulate ScF": ["simulate", "--scenario", "scenario.json", "--structure", "ScF"]}
        source_root = str(Path(m.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [source_root, os.environ.get("PYTHONPATH")])))
        for name, argv in commands.items():
            out = name.replace(" --", " ").replace(" ", "_")
            run = subprocess.run([sys.executable, "-m", "mprfrailty.cli", *argv, "--out", out],
                                 cwd=root, env=env, capture_output=True)
            digest = hashlib.sha256(run.stdout)
            for path in sorted((root / out).glob("*")):
                digest.update(path.name.encode() + b"\0" + path.read_bytes())
            print(f"mprfrailty {name}: exit {run.returncode} sha256 {digest.hexdigest()}")

    deep = generated(m.ScenarioSpec(q=100, n_i=50, censor_rate=0.25, replicates=1, seed=1, **TRUTH))
    treatment = np.column_stack([deep.covariates[:, 0] > 0, deep.covariates[:, 1]])
    deep = m.Dataset(deep.clusters, deep.time, deep.status, treatment, ["treatment", "x2"])
    print_fits(deep, ("weibull",), label="analyst-deep")
    bvnf = m.fit(deep, structure="BVNF", start=m.fit(deep, structure="IF"))
    print("analyst-deep BVNF start=IF", fit_digest(bvnf), json.dumps(bvnf.iterations))

    table2 = generated(m.ScenarioSpec(q=50, n_i=5, censor_rate=0.25, replicates=1, seed=3, **TRUTH))
    print_fits(table2, ("weibull",), label="q50-seed3", structures=("ScF", "CF"))


if __name__ == "__main__":
    main()
