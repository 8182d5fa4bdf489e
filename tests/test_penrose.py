"""Mass window, margins, exponent consistency, and regime sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonlab.errors import ConfigError
from horizonlab.penrose import (CERTIFIED_POSITIVE, INCONCLUSIVE, Interval,
                                adm_mass, classify_regime, exponent_ledger,
                                margin, margin_exponent_forms, sweep)
from horizonlab.regime import RegimeParameters, derive


class TestAdmMass:
    def test_degenerate_at_zero_constant(self):
        p = RegimeParameters(C_eps=0.0)
        iv = adm_mass(p)
        assert iv.lo == iv.hi == pytest.approx(p.m0)

    def test_default_epsilon(self, params):
        iv = adm_mass(params)
        # eps = a^(1/2 - y/2) = 1e-18 at the default regime
        assert (iv.hi - iv.lo) / 2 == pytest.approx(1e-18, rel=1e-12)

    def test_relative_epsilon_exponent_identity(self, params):
        # eps/m0 = a^(y/2 - kappa mu) * 4/(lambda (1+o1))
        d = derive(params)
        lhs = d.eps_glue / d.m0
        p = params
        rhs = (p.a ** (0.5 * p.y - p.kappa * p.mu) * 4.0
               / (p.lambda_lo * (1.0 + p.o1)))
        assert lhs == pytest.approx(rhs, rel=1e-12)


class TestMargin:
    def test_window_start_bound(self, params):
        d = derive(params)
        res = margin(params, Interval(0.9 * d.m0, 1.1 * d.m0),
                     d.ubar_start)
        p = params
        expected = ((0.25 - p.o1) * d.shear_amp * p.delta
                    * (p.lambda_lo - p.gamma * p.a ** (0.5 - p.kappa))
                    - d.eps_glue)
        assert res.analytic_lo == pytest.approx(expected, rel=1e-12)

    def test_analytic_bound_straddles_zero_at_window_end(self, params):
        d = derive(params)
        res = margin(params, Interval(0.9 * d.m0, 1.1 * d.m0),
                     d.ubar_lambda)
        assert res.analytic_lo == pytest.approx(-d.eps_glue)
        assert res.analytic_hi == pytest.approx(+d.eps_glue)
        assert res.analytic_lo < 0.0 < res.analytic_hi

    @given(st.floats(0.01, 0.4), st.floats(0.0, 1.0))
    @settings(max_examples=40, deadline=None)
    def test_interval_soundness(self, halfwidth, frac):
        params = RegimeParameters()
        d = derive(params)
        rp_center = 0.25 * d.shear_amp * d.ubar_lambda * 0.5
        rp = Interval(rp_center * (1 - halfwidth),
                      rp_center * (1 + halfwidth))
        ubar = d.ubar_start + frac * (d.ubar_lambda - d.ubar_start)
        res = margin(params, rp, ubar)
        assert res.numeric.lo <= d.m0 - rp_center <= res.numeric.hi


class TestExponentForms:
    def test_two_routes_agree_to_ulp_scale(self, params):
        forms = margin_exponent_forms(params)
        rel = abs(forms["direct"] - forms["factored"]) \
            / abs(forms["direct"])
        assert rel <= 64 * np.finfo(float).eps

    def test_leading_exponent_value(self, params):
        # The factored route's exponents are the ledger's entries.
        led = exponent_ledger(params)
        assert led["kappa_mu_minus_y_half"] == pytest.approx(2.5)
        assert led["half_minus_y_half"] == pytest.approx(-4.5)
        forms = margin_exponent_forms(params)
        a = params.a
        assert forms["factored"] == pytest.approx(
            (a ** led["kappa_mu_minus_y_half"] * forms["o1_slot"]
             - forms["c2_slot"]) * a ** led["half_minus_y_half"], rel=1e-15)

    def test_ledger_entries(self, params):
        led = exponent_ledger(params)
        assert led["ty_minus_half"] == pytest.approx(2.5)
        assert led["kappa_mu_minus_y_half"] == pytest.approx(2.5)
        assert led["kappa_mu_plus_half_minus_y"] == pytest.approx(-2.0)

    def test_window_end_leading_term_drops_below_eps(self, params):
        # With the gap at delta^(3/2) the bound's leading term scales as
        # a^(kappa mu - y) relative to the gluing width, which is tiny,
        # so the sign rests on the unknown constant.
        d = derive(params)
        gap = params.delta ** 1.5
        leading = (0.25 - params.o1) * d.shear_amp * gap
        ratio = leading / d.eps_glue
        expected = (0.25 - params.o1) * params.a ** (
            params.kappa * params.mu - params.y) / params.C_eps
        assert ratio == pytest.approx(expected, rel=1e-10)
        assert ratio < 1e-9


class TestClassify:
    def test_default_certified(self, params):
        d = derive(params)
        cls = classify_regime(params, d.ubar_start)
        assert cls.status == CERTIFIED_POSITIVE
        # o1 * a^(ty-1/2) = 0.05 * 1e10 against c2 bound 1
        assert cls.log_slack == pytest.approx(math.log(0.05e10), rel=1e-9)

    def test_boundary_exponent_inconclusive(self):
        p = RegimeParameters(t=0.05, y=10.0)     # t*y = 1/2 exactly
        d = derive(p)
        cls = classify_regime(p, d.ubar_start)
        assert cls.status == INCONCLUSIVE

    def test_near_window_end_inconclusive(self, params):
        d = derive(params)
        ubar = d.ubar_lambda - 0.5 * params.delta ** 1.5
        cls = classify_regime(params, ubar)
        assert cls.status == INCONCLUSIVE
        assert any("delta^(3/2)" in r for r in cls.reasons)

    def test_requires_coupling(self):
        p = RegimeParameters(mu=12.5, penrose_coupling=False)
        with pytest.raises(ConfigError):
            classify_regime(p, p.delta * 0.01)

    def test_large_unknown_constant_inconclusive(self, params):
        p = replace(params, c2_unknown_bound=1e12)
        d = derive(p)
        assert classify_regime(p, d.ubar_start).status == INCONCLUSIVE


class TestSweep:
    def test_single_point_default(self, params):
        rows = sweep(params, {})
        assert len(rows) == 1
        assert rows[0]["status"] == CERTIFIED_POSITIVE

    def test_all_invalid_grid(self, params):
        rows = sweep(params, {"kappa": [1.2, 1.5]})
        assert all(r["status"] == "invalid" for r in rows)
        assert all(r["reason"] for r in rows)

    def test_monotone_in_y(self, params):
        ys = [2.0, 4.0, 6.0, 10.0, 14.0]
        rows = sweep(params, {"y": ys})
        statuses = [r["status"] for r in rows]
        assert INCONCLUSIVE in statuses and CERTIFIED_POSITIVE in statuses
        flips = sum(1 for a, b in zip(statuses, statuses[1:]) if a != b)
        assert flips == 1
        assert statuses[-1] == CERTIFIED_POSITIVE

    def test_invalid_point_reported_not_skipped(self, params):
        rows = sweep(params, {"y": [1.0, 10.0]})
        assert rows[0]["status"] == "invalid"
        assert rows[1]["status"] == CERTIFIED_POSITIVE

    def test_empty_axis_rejected(self, params):
        with pytest.raises(ValueError):
            sweep(params, {}, ubar_fracs=[])


class TestInterval:
    def test_ordering_guard(self):
        with pytest.raises(ValueError):
            Interval(2.0, 1.0)

    def test_subtraction(self):
        out = Interval(1.0, 2.0) - Interval(0.5, 0.7)
        assert out.lo == pytest.approx(0.3)
        assert out.hi == pytest.approx(1.5)
