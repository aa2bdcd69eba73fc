import math

import numpy as np
import pytest

from mprfrailty import (
    DomainError,
    inverse_cumulative_base,
    normalize_family,
)
from mprfrailty.baselines import BASELINES, GOMPERTZ_MAX_ARG

FAMILIES = ["weibull", "gompertz", "loglogistic"]


def cumhaz(family, s):
    return BASELINES[family].cumhaz(np.asarray(s, dtype=float))


def hazard(family, s):
    return BASELINES[family].hazard(np.asarray(s, dtype=float))


class TestCumulativeBase:
    def test_weibull_identity(self):
        assert cumhaz("weibull", 1.0) == 1.0
        assert cumhaz("weibull", 3.7) == 3.7

    def test_gompertz_at_zero(self):
        assert cumhaz("gompertz", 0.0) == 0.0

    def test_loglogistic_known_point(self):
        assert cumhaz("loglogistic", math.e - 1.0) == pytest.approx(1.0, abs=1e-14)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_zero_maps_to_zero(self, family):
        assert cumhaz(family, 0.0) == 0.0

    @pytest.mark.parametrize("family", FAMILIES)
    def test_monotone(self, family):
        s = np.logspace(-4, 2, 80)
        vals = cumhaz(family, s)
        assert np.all(np.diff(vals) > 0)

    def test_gompertz_overflow_guard(self):
        # max_s is the largest s the likelihood may evaluate: every term is
        # finite there, and exp(s) overflows a little beyond it
        base = BASELINES["gompertz"]
        assert base.max_s == GOMPERTZ_MAX_ARG
        s = np.array([base.max_s])
        assert np.all(np.isfinite(base.cumhaz(s)))
        assert all(np.all(np.isfinite(t)) for t in base.hazard(s))
        with np.errstate(over="ignore"):
            assert np.isinf(base.cumhaz(np.array([710.0])))[0]
        assert BASELINES["weibull"].max_s == BASELINES["loglogistic"].max_s == math.inf

    def test_vectorized(self):
        out = cumhaz("gompertz", np.array([0.0, 1.0]))
        assert out == pytest.approx([0.0, math.e - 1.0])


class TestHazardDerivs:
    def test_weibull_constant(self):
        assert tuple(float(t) for t in hazard("weibull", 2.7)) == (1.0, 0.0, 0.0)

    def test_gompertz_near_zero(self):
        lam, d1, d2 = hazard("gompertz", 1e-12)
        assert (lam, d1, d2) == pytest.approx((1.0, 1.0, 1.0), abs=1e-11)

    def test_loglogistic_at_one(self):
        # hand differentiation of log(1+s): 1/(1+s), -1/(1+s)^2, 2/(1+s)^3
        assert hazard("loglogistic", 1.0) == pytest.approx((0.5, -0.25, 0.25))

    @pytest.mark.parametrize("family", FAMILIES)
    def test_positive_hazard(self, family):
        s = np.logspace(-4, 2, 50)
        lam, _, _ = hazard(family, s)
        assert np.all(lam > 0)
        assert BASELINES[family].log_hazard(s) == pytest.approx(np.log(lam), abs=1e-14)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_derivatives_match_finite_differences(self, family):
        # lambda0 vs differences of Lambda0; lambda0' vs differences of
        # lambda0; lambda0'' vs differences of lambda0'
        s = np.logspace(-4, 2, 200)
        h = 1e-6 * np.maximum(s, 1e-3)
        lam, d1, d2 = hazard(family, s)
        fd_lam = (cumhaz(family, s + h) - cumhaz(family, s - h)) / (2 * h)
        lam_p, d1_p, _ = hazard(family, s + h)
        lam_m, d1_m, _ = hazard(family, s - h)
        fd_d1 = (lam_p - lam_m) / (2 * h)
        fd_d2 = (d1_p - d1_m) / (2 * h)
        assert np.max(np.abs(lam - fd_lam) / np.maximum(np.abs(lam), 1e-12)) < 1e-6
        assert np.max(np.abs(d1 - fd_d1) / np.maximum(np.abs(d1), 1e-9)) < 1e-6
        assert np.max(np.abs(d2 - fd_d2) / np.maximum(np.abs(d2), 1e-9)) < 1e-6


class TestInverse:
    def test_weibull_identity(self):
        assert inverse_cumulative_base("weibull", 3.5) == 3.5

    def test_gompertz_known_point(self):
        assert inverse_cumulative_base("gompertz", math.e - 1.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("s", [0.01, 1.0, 100.0])
    def test_round_trip(self, family, s):
        if family == "gompertz" and s == 100.0:
            s = 50.0  # keep exp(s) representable
        u = float(cumhaz(family, s))
        assert inverse_cumulative_base(family, u) == pytest.approx(s, rel=1e-12)

    def test_round_trip_fine_grid(self):
        s = np.logspace(-6, 3, 120)
        for family in FAMILIES:
            grid = s if family != "gompertz" else s[s < 600]
            back = inverse_cumulative_base(family, cumhaz(family, grid))
            assert np.max(np.abs(back - grid) / grid) < 1e-12

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            inverse_cumulative_base("weibull", -0.1)

    @pytest.mark.parametrize("bad", [-1.0, np.nan, np.inf])
    def test_domain_errors(self, bad):
        with pytest.raises(DomainError):
            inverse_cumulative_base("weibull", bad)


def test_normalize_family_aliases():
    assert normalize_family("Log-Logistic") == "loglogistic"
    assert normalize_family(" WEIBULL ") == "weibull"
    with pytest.raises(DomainError):
        normalize_family("exponential")
