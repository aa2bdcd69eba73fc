"""Survival regression with frailties in both scale and shape.

Multi-parameter regression (MPR) survival models let covariates act on
the scale and the shape of a parametric hazard.  This package extends
them to clustered data with cluster-level random effects in either or
both distributional parameters (six structures: NF, ScF, ShF, IF, CF,
BVNF), estimated by joint maximization of the hierarchical likelihood
with dispersion parameters from the Laplace-adjusted profile likelihood.
"""

from .baselines import (
    FAMILIES,
    inverse_cumulative_base,
    normalize_family,
)
from .data import (
    BVNF,
    CF,
    IF,
    NF,
    SCF,
    SHF,
    STRUCTURES,
    Dataset,
    FrailtySpec,
    ModelDesign,
    build_design,
)
from .errors import (
    BootstrapError,
    CalibrationError,
    CurvatureError,
    DataError,
    DivergedIterateError,
    DomainError,
    EvaluationError,
    MPRFrailtyError,
    NonConvergenceError,
    ScenarioError,
    StructureError,
)
from .fitting import (
    FitSettings,
    ModelFit,
    fit,
)
from .inference import (
    FrailtyInterval,
    HazardRatioCurve,
    UnsupportedCovariateError,
    bootstrap_hr_ci,
    frailty_estimates,
    hazard_ratio_curve,
)
from .selection import (
    MIXTURE_CHI2_CRITICAL_5PCT,
    InconsistentFitsError,
    LrtResult,
    SelectionReport,
    frailty_lrt,
    selection_report,
)
from .simulation import (
    ScenarioSpec,
    ScenarioSummary,
    calibrate_censoring,
    gen_covariates,
    gen_frailties,
    gen_survival_times,
    run_scenario,
    simulate_dataset,
)

__version__ = "0.1.0"

__all__ = [
    "FAMILIES",
    "STRUCTURES",
    "NF",
    "SCF",
    "SHF",
    "IF",
    "CF",
    "BVNF",
    "Dataset",
    "FrailtySpec",
    "ModelDesign",
    "ModelFit",
    "FitSettings",
    "HazardRatioCurve",
    "FrailtyInterval",
    "LrtResult",
    "SelectionReport",
    "ScenarioSpec",
    "ScenarioSummary",
    "MIXTURE_CHI2_CRITICAL_5PCT",
    "inverse_cumulative_base",
    "normalize_family",
    "build_design",
    "fit",
    "frailty_lrt",
    "selection_report",
    "hazard_ratio_curve",
    "bootstrap_hr_ci",
    "frailty_estimates",
    "gen_covariates",
    "gen_frailties",
    "gen_survival_times",
    "calibrate_censoring",
    "simulate_dataset",
    "run_scenario",
    "MPRFrailtyError",
    "DomainError",
    "DataError",
    "DivergedIterateError",
    "EvaluationError",
    "CurvatureError",
    "NonConvergenceError",
    "StructureError",
    "BootstrapError",
    "CalibrationError",
    "ScenarioError",
    "InconsistentFitsError",
    "UnsupportedCovariateError",
]
