"""Command-line front end.

Subcommands: fit, compare, simulate, hr, frailties.  Machine artifacts
are JSON, tabular outputs are CSV, and human-readable tables go to
stdout and a .txt file.  Exit codes partition failure modes so the tool
is scriptable:

    0  success
    1  user/input error (bad CSV, unknown covariate, bad flags, unusable --out)
    2  fit completed but did not converge (partial outputs written)
    3  numerical failure (lost curvature, diverged solver)
    4  simulation scenario or censoring calibration failure

A command returns 0 or 2 itself (``compare`` also 3, when every structure
failed); ``main`` gives an exception that escapes a command its code and
message through ``_FAILURES``.
"""

import argparse
import csv
import dataclasses
import json
import math
import os
import sys

import numpy as np

from .data import STRUCTURES, Dataset, csv_number, normalize_structure, plain
from .errors import (
    BootstrapError,
    CalibrationError,
    DataError,
    DomainError,
    MPRFrailtyError,
    ScenarioError,
)
from .fitting import FACES, FitSettings, ModelFit, fit
from .inference import bootstrap_hr_ci, frailty_estimates, hazard_ratio_curve
from .selection import frailty_lrt, selection_report  # noqa: F401 (bench/spans.py wraps frailty_lrt)
from .simulation import ScenarioSpec, format_failure_reasons, run_scenario

EXIT_OK = 0
EXIT_USER = 1
EXIT_NOCONV = 2
EXIT_NUMERIC = 3
EXIT_SCENARIO = 4

# message prefix and exit code of an exception that escapes a command, first match
# wins; BootstrapError is an input error (hr's saved covariance cannot be factored),
# and any other exception is a bug that ends in a traceback
_FAILURES = (
    ((CalibrationError, ScenarioError), "scenario failure", EXIT_SCENARIO),
    ((OSError, ValueError, BootstrapError), "error", EXIT_USER),
    (MPRFrailtyError, "numerical failure", EXIT_NUMERIC),
)


def _write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(plain(payload), fh, indent=2)
        fh.write("\n")


def _split_list(text):
    return [s.strip() for s in text.split(",") if s.strip()] if text else None


def _parse_times(text):
    """Either comma-separated values or start:stop:count."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise DomainError("times must be 'start:stop:count' or a comma list")
        start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        if count < 2 or start <= 0 or stop <= start:
            raise DomainError("bad time grid specification")
        return np.linspace(start, stop, count)
    vals = np.asarray([float(v) for v in text.split(",") if v.strip()])
    if vals.size == 0:
        raise DomainError("empty time grid")
    return vals


def fit_table_text(model_fit):
    """Human-readable coefficient table mirroring the report layout."""
    lines = []
    lines.append(f"family: {model_fit.family}  structure: {model_fit.structure}")
    # a fit whose alternation began on its face (FACES) names it; no other fit has a start
    start = model_fit.iterations.get("start")
    lines.append(f"converged: {model_fit.converged}  "
                 f"outer iterations: {model_fit.iterations.get('outer')}"
                 + (f"  start: {start}" if start else ""))
    lines.append("")
    for title, names, estimates, ses in (
            ("Scale", model_fit.scale_names, model_fit.beta, model_fit.se_beta),
            ("Shape", model_fit.shape_names, model_fit.alpha, model_fit.se_alpha)):
        lines.append(title)
        for name, est, se in zip(names, estimates, ses):
            lines.append(f"  {name:<20} {est:>10.4f} ({se:.4f})")
    lines.append("Frailty parameters")
    if not model_fit.dispersion:
        lines.append("  (none)")
    for name, val in model_fit.dispersion.items():
        se = model_fit.se_dispersion.get(name, float("nan"))
        se_text = "NA" if not math.isfinite(se) else f"{se:.4f}"
        lines.append(f"  {name:<20} {val:>10.4f} ({se_text})")
    if model_fit.dispersion:
        lines.append(
            "  note: do not use these standard errors to test a variance "
            "against zero; use the boundary-corrected likelihood-ratio test"
        )
    lines.append("")
    lines.append(f"-2 p(h):  {model_fit.deviance_profile:.2f}")
    lines.append(f"-2 l_c:   {model_fit.cond_deviance:.2f}")
    lines.append(f"df_r: {model_fit.df_r}    df_c: {model_fit.df_c:.2f}")
    lines.append(f"rAIC: {model_fit.raic:.2f}  cAIC: {model_fit.caic:.2f}")
    for w in model_fit.warnings:
        lines.append(f"warning: {w}")
    return "\n".join(lines) + "\n"


def _load_fit(path):
    with open(path) as fh:
        return ModelFit.from_dict(json.load(fh))


def _fit_arguments(args):
    """The keyword arguments of ``fit`` that the common fit flags give, settings included."""
    return {"family": args.family, "scale_covariates": _split_list(args.scale_covariates),
            "shape_covariates": _split_list(args.shape_covariates),
            "settings": None if args.max_outer is None else FitSettings(max_outer=args.max_outer)}


def cmd_fit(args):
    dataset = Dataset.read_csv(args.data)
    arguments = _fit_arguments(args)
    os.makedirs(args.out, exist_ok=True)
    model_fit = fit(dataset, structure=args.structure, **arguments)
    stem = os.path.join(args.out, f"fit_{model_fit.structure}")
    _write_json(stem + ".json", model_fit.to_dict())
    table = fit_table_text(model_fit)
    with open(stem + ".txt", "w") as fh:
        fh.write(table)
    print(table, end="")
    print(f"wrote {stem}.json")
    return EXIT_OK if model_fit.converged else EXIT_NOCONV


def cmd_compare(args):
    # canonical names, each once, in the order given
    structures = list(dict.fromkeys(
        normalize_structure(s) for s in _split_list(args.structures) or STRUCTURES))
    if len(structures) < 2:
        raise DomainError("compare needs at least 2 structures")
    arguments = _fit_arguments(args)
    dataset = Dataset.read_csv(args.data)
    os.makedirs(args.out, exist_ok=True)

    fits, failures = {}, {}
    # each face before the structure that starts on it; the outputs keep the given order
    for structure in sorted(structures, key=lambda s: s not in FACES.values()):
        try:
            fits[structure] = fit(dataset, structure=structure,
                                  start=fits.get(FACES.get(structure)), **arguments)
        except (MPRFrailtyError, ValueError) as exc:
            failures[structure] = f"{type(exc).__name__}: {exc}"
    fits = {s: fits[s] for s in structures if s in fits}
    failures = {s: failures[s] for s in structures if s in failures}
    if not fits:
        print("error: every requested structure failed", file=sys.stderr)
        for structure, reason in failures.items():
            print(f"  {structure}: {reason}", file=sys.stderr)
        return EXIT_NUMERIC

    report = selection_report(list(fits.values()), failures)
    csv_path = os.path.join(args.out, "selection.csv")
    with open(csv_path, "w", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(report.to_csv_rows())
    text = report.to_text()
    with open(os.path.join(args.out, "selection.txt"), "w") as fh:
        fh.write(text + "\n")
    for structure, f in fits.items():
        _write_json(os.path.join(args.out, f"fit_{structure}.json"), f.to_dict())
    print(text)
    print(f"wrote {csv_path}")
    return EXIT_OK


def cmd_simulate(args):
    try:
        scenario = ScenarioSpec.read_json(args.scenario)
    except (OSError, ValueError) as exc:
        raise DataError(f"bad scenario file: {exc}") from exc
    overrides = {"replicates": args.replicates, "seed": args.seed}
    # a flag out of range is a DomainError, reported without blaming the file
    scenario = dataclasses.replace(
        scenario, **{k: v for k, v in overrides.items() if v is not None})
    os.makedirs(args.out, exist_ok=True)
    summary = run_scenario(scenario, structure=args.structure, threads=args.threads)
    path = os.path.join(args.out, "scenario_summary.csv")
    with open(path, "w") as fh:
        fh.write(summary.to_csv_text())
    print(
        f"replicates converged: {summary.n_converged}  "
        f"failed: {summary.n_failed} ({format_failure_reasons(summary.failure_reasons)})  "
        f"c_max: {summary.c_max:.6g}"
    )
    print(f"wrote {path}")
    return EXIT_OK


def cmd_hr(args):
    model_fit = _load_fit(args.fit)
    times = _parse_times(args.times)
    if args.boot:
        curve = bootstrap_hr_ci(model_fit, args.covariate, times,
                                n_boot=args.boot, seed=args.seed)
    else:
        curve = hazard_ratio_curve(model_fit, args.covariate, times)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"hr_{args.covariate}")
    with open(stem + ".csv", "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["time", "hr", "lower", "upper"])
        writer.writerows(map(csv_number, row) for row in curve.to_rows())
    _write_json(stem + ".json", dataclasses.asdict(curve))
    print(f"wrote {stem}.csv")
    return EXIT_OK


def cmd_frailties(args):
    intervals = frailty_estimates(_load_fit(args.fit), args.component)
    os.makedirs(args.out, exist_ok=True)
    stem = os.path.join(args.out, f"frailties_{args.component}")
    with open(stem + ".csv", "w", newline="") as fh:
        # quotes a label only where it holds a comma, a quote or a line break
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["cluster", "size", "estimate", "lower", "upper"])
        writer.writerows([iv.cluster, iv.cluster_size, csv_number(iv.estimate),
                          csv_number(iv.lower), csv_number(iv.upper)] for iv in intervals)
    _write_json(
        stem + ".json",
        [
            {
                "cluster": str(iv.cluster),
                "size": iv.cluster_size,
                "estimate": iv.estimate,
                "lower": iv.lower,
                "upper": iv.upper,
                "u": iv.u,
            }
            for iv in intervals
        ],
    )
    print(f"wrote {stem}.csv")
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="mprfrailty",
        description="Survival regression with covariate-dependent scale and "
        "shape plus cluster frailties in both, fitted by hierarchical "
        "likelihood.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common_fit_flags(p):
        p.add_argument("--data", required=True, help="input CSV "
                       "(cluster,time,status,<covariates...>)")
        p.add_argument("--family", default="weibull",
                       choices=["weibull", "gompertz", "loglogistic"])
        p.add_argument("--scale-covariates", default=None,
                       help="comma list (default: all covariates)")
        p.add_argument("--shape-covariates", default=None,
                       help="comma list (default: all covariates)")
        p.add_argument("--max-outer", type=int, default=None)
        p.add_argument("--out", default=".", help="output directory")

    p_fit = sub.add_parser("fit", help="fit one frailty structure")
    add_common_fit_flags(p_fit)
    p_fit.add_argument("--structure", default="BVNF", choices=list(STRUCTURES))
    p_fit.set_defaults(func=cmd_fit)

    p_cmp = sub.add_parser("compare", help="fit and rank several structures")
    add_common_fit_flags(p_cmp)
    p_cmp.add_argument("--structures", default=None,
                       help="comma list (default: all six)")
    p_cmp.set_defaults(func=cmd_compare)

    p_sim = sub.add_parser("simulate", help="run a Monte Carlo scenario")
    p_sim.add_argument("--scenario", required=True, help="scenario JSON file")
    p_sim.add_argument("--structure", default="BVNF", choices=list(STRUCTURES))
    p_sim.add_argument("--replicates", type=int, default=None)
    p_sim.add_argument("--seed", type=int, default=None)
    # serial by default: on small replicates, threads were measured no faster
    p_sim.add_argument("--threads", type=int, default=1,
                       help="worker threads for the replicates (default 1)")
    p_sim.add_argument("--out", default=".")
    p_sim.set_defaults(func=cmd_simulate)

    p_hr = sub.add_parser("hr", help="hazard-ratio curve from a saved fit")
    p_hr.add_argument("--fit", required=True, help="fit JSON from `fit`")
    p_hr.add_argument("--covariate", required=True)
    p_hr.add_argument("--times", default="0.05:5:60",
                      help="'start:stop:count' or comma list")
    p_hr.add_argument("--boot", type=int, default=0,
                      help="bootstrap replicates for bands (0 = none)")
    p_hr.add_argument("--seed", type=int, default=0)
    p_hr.add_argument("--out", default=".")
    p_hr.set_defaults(func=cmd_hr)

    p_fr = sub.add_parser("frailties", help="per-cluster effects from a saved fit")
    p_fr.add_argument("--fit", required=True)
    p_fr.add_argument("--component", required=True, choices=["scale", "shape"])
    p_fr.add_argument("--out", default=".")
    p_fr.set_defaults(func=cmd_frailties)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        for types, prefix, code in _FAILURES:
            if isinstance(exc, types):
                print(f"{prefix}: {exc}", file=sys.stderr)
                return code
        raise


if __name__ == "__main__":
    sys.exit(main())
