"""Model selection across frailty structures: rAIC, cAIC, boundary LRT.

Two information criteria are used.  The restricted criterion penalizes
the profile deviance by the number of dispersion parameters (df_r); the
conditional criterion penalizes the conditional deviance by the
effective degrees of freedom df_c = trace(H^-1 H*), where H* is the
curvature of the conditional part alone.  Both are properties of
:class:`ModelFit` (``raic`` and ``caic``).  Variance components sit on the
boundary of their parameter space under the null, so the likelihood
ratio test for a single frailty variance uses the half-half mixture of
chi-square distributions with 0 and 1 degrees of freedom.
"""

import math
from dataclasses import dataclass

from .data import BVNF, CF, FRAILTY_LAWS, IF, NF, SCF, SHF, STRUCTURES, csv_number
from .errors import DomainError, MPRFrailtyError

# 90th percentile of chi2(1): the 5% critical value of the
# (chi2_0 + chi2_1)/2 mixture for a variance on the boundary.
MIXTURE_CHI2_CRITICAL_5PCT = 2.705543

# (reduced, richer) for each step of the nesting order, in STRUCTURES order: the richer
# with a sigma or rho at 0, phi at 0 (ScF in CF) or |rho| at 1 (CF in BVNF) is the reduced
_NESTING_EDGES = ((NF, SCF), (NF, SHF), (SCF, IF), (SCF, CF), (SHF, IF), (IF, BVNF), (CF, BVNF))


def _nests(reduced):
    """Every structure that nests ``reduced``, directly or through others."""
    richer = {b for a, b in _NESTING_EDGES if a == reduced}
    return richer.union(*map(_nests, richer))


# the pairs frailty_lrt tests: the edges whose richer law adds one standard deviation alone
_NESTED_PAIRS = tuple((a, b) for a, b in _NESTING_EDGES if any(
    set(FRAILTY_LAWS[b].names) - set(FRAILTY_LAWS[a].names) == {s} for s in FRAILTY_LAWS[b].sigmas))

# how far a richer fit's deviance_profile may exceed a nested fit's before
# the two are called inconsistent
_DEVIANCE_TOLERANCE = 1e-6


class InconsistentFitsError(MPRFrailtyError, ValueError):
    """The null fit beats the alternative, which nesting forbids."""


@dataclass(frozen=True)
class LrtResult:
    statistic: float
    critical_value: float
    significant: bool
    p_value: float


def frailty_lrt(fit_null, fit_alt):
    """Boundary-corrected LRT for a single frailty variance.

    The null must be the alternative with exactly one frailty variance
    pinned to zero (NF vs ScF/ShF, or ScF/ShF vs IF).  A fit whose
    ``deviance_profile`` is not finite (a loaded fit may hold null) raises
    DomainError rather than give a nan statistic.
    """
    pair = (fit_null.structure, fit_alt.structure)
    if pair not in _NESTED_PAIRS:
        raise ValueError(
            f"{pair[0]} is not {pair[1]} with exactly one frailty variance "
            "pinned to zero; supported pairs: "
            + ", ".join(f"{a} vs {b}" for a, b in _NESTED_PAIRS)
        )
    for f in (fit_null, fit_alt):
        if not math.isfinite(f.deviance_profile):
            raise DomainError(f"the {f.structure} fit's deviance_profile is "
                              f"{f.deviance_profile}; the LRT needs a finite one")
    statistic = fit_null.deviance_profile - fit_alt.deviance_profile
    if statistic < -_DEVIANCE_TOLERANCE:
        raise InconsistentFitsError(
            f"deviance of the richer model exceeds the reduced model by "
            f"{-statistic:.4g}; at least one fit has not converged"
        )
    statistic = max(statistic, 0.0)
    return LrtResult(
        statistic=statistic,
        critical_value=MIXTURE_CHI2_CRITICAL_5PCT,
        significant=statistic > MIXTURE_CHI2_CRITICAL_5PCT,
        p_value=0.5 * math.erfc(math.sqrt(statistic / 2)),
    )


def _lrt_line(fit_null, fit_alt):
    try:
        res = frailty_lrt(fit_null, fit_alt)
        verdict = "significant" if res.significant else "not significant"
        text = f"statistic {res.statistic:.3f} vs {res.critical_value:.2f} -> {verdict}"
    except (InconsistentFitsError, DomainError) as exc:
        text = f"failed ({exc})"
    return f"LRT {fit_null.structure} vs {fit_alt.structure}: {text}"


@dataclass
class SelectionRow:
    model: str
    deviance_r: float
    df_r: int
    raic: float
    delta_raic: float
    deviance_c: float
    df_c: float
    caic: float
    delta_caic: float
    converged: bool = True
    note: str = ""


# the table's columns after the model: (SelectionRow attribute and CSV heading,
# text heading, text width); the text shows integers whole and floats to 2 places
_COLUMNS = (("deviance_r", "-2p(h)", 10), ("df_r", "df_r", 5), ("raic", "rAIC", 10),
            ("delta_raic", "drAIC", 8), ("deviance_c", "-2l_c", 10), ("df_c", "df_c", 7),
            ("caic", "cAIC", 10), ("delta_caic", "dcAIC", 8))


@dataclass
class SelectionReport:
    rows: list
    failures: dict
    lrt_lines: list

    def to_csv_rows(self):
        """The table as CSV cells: one row per fit, then one per failed structure.

        ``converged`` is true or false; ``note`` is empty, "not converged"
        and the nesting violations joined by "; ", or a failed structure's
        reason, whose numeric cells are NA.
        """
        head = ["model"] + [name for name, _, _ in _COLUMNS] + ["converged", "note"]
        fitted = [[r.model] + [csv_number(getattr(r, name)) for name, _, _ in _COLUMNS]
                  + [str(r.converged).lower(), r.note] for r in self.rows]
        failed = [[model] + [csv_number(None)] * len(_COLUMNS) + ["false", reason]
                  for model, reason in self.failures.items()]
        return [head] + fitted + failed

    def to_text(self):
        head = f"{'model':<6}" + "".join(f" {text:>{width}}" for _, text, width in _COLUMNS)
        lines = [head, "-" * len(head)]
        for r in self.rows:
            values = (getattr(r, name) for name, _, _ in _COLUMNS)
            cells = "".join(f" {v:>{width}{'d' if isinstance(v, int) else '.2f'}}"
                            for v, (_, _, width) in zip(values, _COLUMNS))
            mark = ""
            if r.delta_raic == 0.0:
                mark += " <rAIC"
            if r.delta_caic == 0.0:
                mark += " <cAIC"
            if r.note:
                mark += f" ({r.note})"
            lines.append(f"{r.model:<6}{cells}{mark}")
        for model, reason in self.failures.items():
            lines.append(f"{model:<6} failed: {reason}")
        return "\n".join(lines + self.lrt_lines)


def selection_report(fits, failures=None):
    """Build the comparison table from completed fits.

    ``failures`` maps structure names that could not be fitted to the
    reason; they appear as annotations in the text and as rows of NA in
    the CSV.  A fit whose deviance_profile exceeds that of a fit nested in
    it is noted, and the text ends with each LRT frailty_lrt can run on them.
    """
    if not fits:
        raise ValueError("at least one completed fit is required")
    # a loaded fit may hold a nan deviance: each minimum skips it, in any fit order
    raic_min, caic_min = (min((v for v in values if not math.isnan(v)), default=math.nan)
                          for values in ([f.raic for f in fits], [f.caic for f in fits]))
    by_model = {f.structure: f for f in fits}

    def note(f):
        gaps = [(a, f.deviance_profile - by_model[a].deviance_profile)
                for a in STRUCTURES if a in by_model and f.structure in _nests(a)]
        return "; ".join(["not converged"] * (not f.converged)
                         + [f"deviance above {a}'s by {d:.4g}" for a, d in gaps
                            if d > _DEVIANCE_TOLERANCE])

    rows = [SelectionRow(model=f.structure, deviance_r=f.deviance_profile, df_r=f.df_r,
                         raic=f.raic, delta_raic=f.raic - raic_min,
                         deviance_c=f.cond_deviance, df_c=f.df_c,
                         caic=f.caic, delta_caic=f.caic - caic_min,
                         converged=f.converged, note=note(f))
            for f in fits]
    return SelectionReport(rows=rows, failures=dict(failures or {}), lrt_lines=[
        _lrt_line(by_model[a], by_model[b]) for a, b in _NESTED_PAIRS if {a, b} <= by_model.keys()])
