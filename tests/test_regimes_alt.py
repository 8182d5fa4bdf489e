"""A second regime end to end: the lab is not tuned to one parameter set."""

import numpy as np
import pytest

from horizonlab.mots import make_problem, solve_slice, verify_apriori
from horizonlab.penrose import CERTIFIED_POSITIVE, classify_regime
from horizonlab.regime import RegimeParameters, validate
from horizonlab.shear import ProfileSpec, build_profile, verify_profile
from horizonlab.sphere import get_grid
from horizonlab.transport import SlabModel, detect_trapped


@pytest.fixture(scope="module")
def alt_params():
    # Milder amplitude and separation: a = 100, delta = 1e-8.
    return RegimeParameters(a=100.0, y=4.0)


@pytest.fixture(scope="module")
def alt_profile(alt_params):
    return build_profile(alt_params, ProfileSpec(n_ubar=193),
                         get_grid(32, 64))


def test_alt_regime_valid(alt_params):
    assert validate(alt_params).passed
    assert alt_params.mu == pytest.approx((0.8 * 4.0 - 0.5) / 0.6)


def test_alt_profile_verifies(alt_profile):
    report = verify_profile(alt_profile)
    assert report.passed, [c.name for c in report.checks if not c.passed]


def test_alt_trapped_and_mots(alt_params, alt_profile):
    d = alt_profile.derived
    slab = SlabModel(alt_params, alt_profile)
    assert detect_trapped(slab, d.u_trapped, d.delta).status == \
        "certified-trapped"
    prob = make_problem(alt_profile, 0.5 * d.ubar_lambda, seed=3, beta=0.4)
    sol = solve_slice(prob)
    rep = verify_apriori(sol.R, prob, alt_params)
    assert rep.passed
    center = np.mean(prob.M0.values) / 2
    assert np.mean(sol.R.values) == pytest.approx(center, rel=0.05)


def test_alt_classification(alt_params):
    # o1 * a^(t y - 1/2) = 0.05 * 100^0.7 ~ 1.26: barely certified.
    from horizonlab.regime import derive
    d = derive(alt_params)
    cls = classify_regime(alt_params, d.ubar_start)
    assert cls.status == CERTIFIED_POSITIVE
    assert 0.0 < cls.log_slack < 1.0
