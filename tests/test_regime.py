"""Parameter validation, derived scalars, and the coupling identity."""

import math
from dataclasses import asdict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from horizonlab.errors import ConstraintError, MalformedParametersError
from horizonlab.regime import (RegimeParameters, coupled_mu, derive,
                               validate)


def check_names(report):
    return {c.name: c.passed for c in report.checks}


class TestValidate:
    def test_default_regime_passes(self, params):
        report = validate(params)
        assert report.passed
        # spec example: kappa*mu + 1/2 = 8 = 0.8*10, kappa*mu - y + 1/2 = -2
        assert params.kappa * params.mu + 0.5 == pytest.approx(8.0)
        assert params.kappa * params.mu - params.y + 0.5 == \
            pytest.approx(-2.0)

    def test_kappa_below_half_fails_kappa_entry(self):
        p = RegimeParameters(kappa=0.4)
        report = validate(p)
        assert not report.passed
        assert not check_names(report)["kappa_gt_half"]

    def test_scale_exponent_violation(self):
        # kappa*mu - y + 1/2 = 0.9*2 - 2 + 0.5 = +0.3 must fail.
        p = RegimeParameters(kappa=0.9, y=2.0, mu=2.0, t=0.3,
                             penrose_coupling=False)
        report = validate(p)
        assert not check_names(report)["scale_exponent"]
        entry = [c for c in report.checks if c.name == "scale_exponent"][0]
        assert entry["slack"] == pytest.approx(-0.3)

    def test_nonfinite_raises(self):
        with pytest.raises(MalformedParametersError):
            RegimeParameters(a=float("nan"))

    def test_mu_required_without_coupling(self):
        with pytest.raises(MalformedParametersError):
            RegimeParameters(penrose_coupling=False)

    def test_coupling_identity_checked(self):
        p = RegimeParameters(mu=12.5)
        assert check_names(validate(p))["penrose_coupling_identity"]
        bad = RegimeParameters(mu=12.6)
        assert not check_names(validate(bad))["penrose_coupling_identity"]

    def test_both_smallness_conditions_present(self, params):
        names = check_names(validate(params))
        assert "delta_sqrta_b_lt_one" in names
        assert "delta_sqrta_bmu_lt_one" in names

    @given(st.floats(0.36, 0.4999))
    @settings(max_examples=30, deadline=None)
    def test_slack_monotone_flip_below_half(self, kappa):
        # Shrinking kappa below 1/2 flips exactly the kappa-bound entry.
        names = check_names(validate(RegimeParameters(kappa=kappa)))
        assert not names.pop("kappa_gt_half")
        assert all(names.values())

    @given(st.floats(0.5001, 0.72))
    @settings(max_examples=30, deadline=None)
    def test_all_pass_above_half(self, kappa):
        assert validate(RegimeParameters(kappa=kappa)).passed


class TestDerive:
    def test_power_laws(self, params):
        d = derive(params)
        assert d.b == pytest.approx(10 ** 2.4, rel=1e-14)
        assert d.delta == pytest.approx(1e-40, rel=1e-14)

    def test_m0_exact_at_zero_o1(self):
        p = RegimeParameters(o1=1e-9, d0=1e9)
        # with o1 -> 0 the mass is exactly amp * lambda * delta / 4
        d = derive(p)
        amp = math.sqrt(p.a) * p.b ** p.mu
        assert d.m0 == pytest.approx(amp * p.lambda_lo * p.delta / 4,
                                     rel=1e-8)

    def test_glue_epsilon(self, params):
        # C=1, a=1e4, delta=1e-40 -> eps = 1e2 * 1e-20
        d = derive(params)
        assert d.eps_glue == pytest.approx(1e-18, rel=1e-13)

    def test_window_strictly_ordered(self, params):
        d = derive(params)
        assert 0 < d.ubar_start < d.ubar_lambda < d.ubar_lambda_hi \
            < d.ubar_end

    def test_trapped_sphere_location(self, params):
        d = derive(params)
        assert d.u_trapped == pytest.approx(
            params.b * params.delta * math.sqrt(params.a), rel=1e-14)

    def test_refuses_invalid_with_constraint_name(self):
        p = RegimeParameters(kappa=0.4)
        with pytest.raises(ConstraintError) as err:
            derive(p)
        assert "kappa_gt_half" in str(err.value)

    def test_deterministic_bit_identical(self, params):
        a = asdict(derive(params))
        b = asdict(derive(params))
        assert a == b
        r1 = validate(params).as_dict()
        r2 = validate(params).as_dict()
        assert r1 == r2


class TestCoupling:
    def test_mu_derived(self):
        p = RegimeParameters()
        assert p.mu == pytest.approx(12.5, rel=1e-15)
        assert coupled_mu(0.6, 10.0, 0.3) == pytest.approx(12.5)

    @given(st.floats(0.05, 0.45), st.floats(4.0, 30.0))
    @settings(max_examples=40, deadline=None)
    def test_identity_holds_to_ulp(self, t, y):
        p = RegimeParameters(t=t, y=y)
        lhs = p.kappa * p.mu + 0.5
        rhs = (0.5 + t) * y
        assert abs(lhs - rhs) <= 64 * math.ulp(max(abs(rhs), 1.0))
