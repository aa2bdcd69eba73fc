"""Benchmark of mprfrailty's fitting paths, end to end and per layer.

Run from the repository root:

    python3 bench/run.py --workload wide-shallow --seed 1 --seconds 30 --trace 0

Workloads: wide-shallow, analyst-deep, mc-heavy-censor (see
bench/README.md).  The program is imported from ``src/`` of the same
checkout.  Human-readable lines (machine facts, every end-to-end metric
with its unit and sample count, failure reasons, the correctness gate)
come first; the last line of standard output is one JSON object

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

holding the end-to-end metrics with ``--trace 0`` and the per-layer
metrics with ``--trace 1``.  The exit code is 1 when the correctness
gate fails and 2 when the program cannot be imported.

``--record`` runs one pass and stores its outputs as the gate's
references in bench/reference.json (record with ``--seed 0``).
``--size tiny`` runs the same sessions on small data, for the tests.
"""

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"
WORKLOAD_NAMES = ("wide-shallow", "analyst-deep", "mc-heavy-censor")
SETUP_REPEATS = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import mprfrailty; print(time.perf_counter() - t)")
BLAS_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# per-layer metrics: (metric, unit, span name or counter, field)
PER_LAYER = [
    ("hlik.logdet_pd.calls", "count", "hlik.logdet_pd", "calls"),
    ("hlik.logdet_pd.s", "s", "hlik.logdet_pd", "s"),
    ("hlik.information.calls", "count", "hlik.information", "calls"),
    ("hlik.information.s", "s", "hlik.information", "s"),
    ("hlik.h_score_info.calls", "count", "hlik.h_score_info", "calls"),
    ("hlik.h_score_info.s", "s", "hlik.h_score_info", "s"),
    ("hlik.h.calls", "count", "hlik.h", "calls"),
    ("hlik.h.s", "s", "hlik.h", "s"),
    ("fitting.outer_dispersion.calls", "count", "fitting.outer_dispersion", "calls"),
    ("fitting.outer_dispersion.s", "s", "fitting.outer_dispersion", "s"),
    ("fitting.outer_dispersion.self_s", "s", "fitting.outer_dispersion", "self_s"),
    ("fitting.objective_evals", "count", "objective_evals", "counter"),
    ("fitting.gradient_converged_frac", "ratio", "gradient_converged", "per_outer"),
    ("fitting.outer_sweeps", "count", "outer_sweeps", "counter"),
    ("fitting.inner_iters", "count", "inner_iters", "counter"),
    ("fitting.fit.calls", "count", "fitting.fit", "calls"),
    ("fitting.fit.s", "s", "fitting.fit", "s"),
    ("fitting.fit.self_s", "s", "fitting.fit", "self_s"),
    ("data.read_csv.s", "s", "data.read_csv", "s"),
    ("data.build_design.s", "s", "data.build_design", "s"),
    ("selection.s", "s", "selection", "s"),
    ("cli.s", "s", "cli", "s"),
    ("cli.self_s", "s", "cli", "self_s"),
    ("inference.bootstrap_hr_ci.s", "s", "inference.bootstrap_hr_ci", "s"),
    ("inference.frailty_estimates.s", "s", "inference.frailty_estimates", "s"),
    ("simulation.calibrate_censoring.s", "s", "simulation.calibrate_censoring", "s"),
    ("simulation.simulate_dataset.s", "s", "simulation.simulate_dataset", "s"),
]


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=30.0,
                   help="measure further passes while they fit in this budget")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--size", choices=("full", "tiny"), default="full")
    p.add_argument("--record", action="store_true",
                   help="store one pass's outputs as the gate's references")
    return p.parse_args(argv)


def import_program():
    """Import mprfrailty from this checkout's src/; return the seconds taken."""
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import mprfrailty
    seconds = time.perf_counter() - start
    if Path(mprfrailty.__file__).resolve().parent.parent != SRC.resolve():
        raise ImportError(f"mprfrailty came from {mprfrailty.__file__}, not {SRC}")
    return seconds


def probe_import():
    """Import time of the program in a fresh interpreter."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)],
                         capture_output=True, text=True, check=True, timeout=120)
    return float(out.stdout.split()[-1])


def git_commit():
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return "unknown (not a git checkout)"
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    if (git / "packed-refs").is_file():
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name.strip() == ref:
                return sha
    return f"unknown ({ref})"


def machine_facts(seed):
    import platform

    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_config": blas.get("openblas configuration"),
        **{name: os.environ.get(name) for name in BLAS_ENV},
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
        "seed": seed,
    }


def time_setup(workload, import_s):
    """Median import time plus median data set-up time, SETUP_REPEATS each."""
    imports = [import_s] + [probe_import() for _ in range(SETUP_REPEATS - 1)]
    data = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        data.append(time.perf_counter() - start)
    return statistics.median(imports) + statistics.median(data), imports, data


def run_pass(workload, fit_log):
    fit_log.records = []
    start = time.perf_counter()
    steps, outputs = workload.run_pass(fit_log)
    seconds = time.perf_counter() - start
    records = list(fit_log.records)
    outputs["fits"] = {r["key"]: {k: r[k] for k in ("outcome", "values") if k in r}
                       for r in records}
    return {"seconds": seconds, "steps": steps, "records": records, "outputs": outputs}


def tail(values):
    """(percentile, value): the highest percentile with at least 10 samples above it."""
    n = len(values)
    if n < 11:
        return None, None
    return int(100 * (n - 10) / n), sorted(values)[n - 11]


def describe_fits(workload, passes):
    """Every end-to-end figure of the workload, as printable lines."""
    records = [r for p in passes for r in p["records"]]
    lines = []
    by_structure = {}
    for r in records:
        by_structure.setdefault(r["structure"], []).append(r["seconds"])
    for structure, secs in sorted(by_structure.items()):
        lines.append(f"fit_{structure.lower()}_s {statistics.median(secs):.4f} s "
                     f"(median of {len(secs)} fits)")
    for step in passes[0]["steps"]:
        secs = [p["steps"][step] for p in passes]
        lines.append(f"{step}_s {statistics.median(secs):.4f} s (median of {len(secs)} passes)")
    label = workload.FIT_LABEL
    rates = [len(p["records"]) / p["seconds"] for p in passes]
    lines.append(f"{'replicates' if label == 'rep' else 'fits'}_per_s "
                 f"{statistics.median(rates):.4f} 1/s (median of {len(rates)} passes)")
    secs = [r["seconds"] for r in records]
    lines.append(f"{label}_p50_s {statistics.median(secs):.4f} s (median of {len(secs)} fits)")
    pct, value = tail(secs)
    lines.append(f"{label}_tail_s " + (f"{value:.4f} s (p{pct} of {len(secs)} fits)"
                                       if pct is not None else
                                       f"n/a (needs 11 fits, have {len(secs)})"))
    reasons = Counter(r["outcome"] for r in records if r["outcome"] != "ok")
    lines.append(f"fail_frac {sum(reasons.values()) / len(records):.4f} "
                 f"({sum(reasons.values())}/{len(records)} fits) reasons {json.dumps(dict(reasons))}")
    return lines


def operations(passes):
    """(attempted, failed): every fit, plus every CLI command of a session."""
    attempted = failed = 0
    for p in passes:
        attempted += len(p["records"])
        failed += sum(r["outcome"] != "ok" for r in p["records"])
        codes = p["outputs"].get("exit_codes", {})
        attempted += len(codes)
        failed += sum(code != 0 for code in codes.values())
    return attempted, failed


def end_to_end(setup_s, passes):
    attempted, failed = operations(passes)
    # means over the whole run: the machine's speed drifts over seconds, and a
    # median of a few short passes or fits follows that drift; the median of
    # mc-heavy-censor's 20 unequal replicates also jumps between neighbours
    bvnf = [r["seconds"] for p in passes for r in p["records"] if r["structure"] == "BVNF"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.fmean(p["seconds"] for p in passes), "s"),
        "fit_bvnf_s": (statistics.fmean(bvnf), "s"),
        "ok_frac": ((attempted - failed) / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer(setup_tracer, tracer, traced, untraced):
    """Per-layer figures of one set-up plus one pass (pass totals averaged)."""
    n = len(traced)
    totals, setup_totals = tracer.layer_totals(), setup_tracer.layer_totals()
    out = {}
    for metric, unit, source, field in PER_LAYER:
        if field == "counter":
            value = tracer.counts[source] / n
        elif field == "per_outer":
            calls = totals.get("fitting.outer_dispersion", (0, 0.0, 0.0))[0]
            value = tracer.counts[source] / calls if calls else 0.0
        else:
            index = ("calls", "s", "self_s").index(field)
            value = (setup_totals.get(source, (0, 0.0, 0.0))[index]
                     + totals.get(source, (0, 0.0, 0.0))[index] / n)
        out[metric] = (value, unit)
    overhead = (statistics.median(p["seconds"] for p in traced)
                / statistics.median(p["seconds"] for p in untraced) - 1.0)
    out["trace.overhead_frac"] = (overhead, "ratio")
    return out


def load_reference(size, name):
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(size, {}).get(name)


def store_reference(size, name, outputs):
    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    refs.setdefault(size, {})[name] = {"commit": git_commit(), **outputs}
    REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")


def run(args, import_s, workdir):
    from spans import FitLog, Tracer, patched
    from workloads import WORKLOADS, check

    workload = WORKLOADS[args.workload](args.size, args.seed, workdir)
    print("machine " + json.dumps(machine_facts(args.seed)))
    setup_s, import_samples, data_samples = time_setup(workload, import_s)

    fit_log = FitLog()
    absent = []
    with patched(fit_log.points(), absent):
        passes = [run_pass(workload, fit_log)]
        if args.record:
            store_reference(args.size, args.workload, passes[0]["outputs"])
            print(f"recorded references for {args.size}/{args.workload} in {REFERENCE}")
            return 0
        start = time.perf_counter() - passes[0]["seconds"]
        traced = []
        if args.trace:
            # untraced and traced passes alternate, so that the overhead
            # compares passes made under the same machine conditions
            setup_tracer, tracer = Tracer(), Tracer()
            with patched(setup_tracer.points(), absent):
                workload.setup()
            while True:
                with patched(tracer.points(), absent):
                    traced.append(run_pass(workload, fit_log))
                pair = statistics.median(p["seconds"] for p in passes + traced) * 2
                if time.perf_counter() - start + pair > args.seconds:
                    break
                passes.append(run_pass(workload, fit_log))
        else:
            while (time.perf_counter() - start + statistics.median(p["seconds"] for p in passes)
                   <= args.seconds):
                passes.append(run_pass(workload, fit_log))

    if not any(p["records"] for p in passes):
        print("error: no fit call was observed; is fit absent? "
              + ", ".join(sorted(set(absent))), file=sys.stderr)
        return 1
    ref = load_reference(args.size, args.workload)
    checked = passes + traced
    problems = ([f"no reference recorded for {args.size}/{args.workload}"] if ref is None
                else [msg for p in checked for msg in check(p["outputs"], ref)])

    print(f"workload {args.workload} size {args.size} seed {args.seed} "
          f"passes {len(passes)} traced passes {len(traced)}")
    print(f"setup_s {setup_s:.4f} s (median import {statistics.median(import_samples):.4f} s "
          f"+ median data set-up {statistics.median(data_samples):.4f} s, "
          f"{SETUP_REPEATS} samples each)")
    for line in describe_fits(workload, passes):
        print(line)
    if absent:
        print("absent (not wrapped): " + ", ".join(sorted(set(absent))))
    print("gate: " + ("ok" if not problems else f"FAILED ({len(problems)} problems)"))
    for msg in problems:
        print("  " + msg)

    attempted, failed = operations(checked)
    metrics = (per_layer(setup_tracer, tracer, traced, passes) if args.trace
               else end_to_end(setup_s, passes))
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if not problems else 1


def main(argv=None):
    args = parse_args(argv)
    try:
        import_s = import_program()
    except ImportError as exc:
        print(f"error: cannot import mprfrailty from {SRC}: {exc}", file=sys.stderr)
        return 2
    workdir = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    try:
        return run(args, import_s, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it, or it was never made


if __name__ == "__main__":
    sys.exit(main())
