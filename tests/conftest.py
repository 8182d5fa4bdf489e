import numpy as np
import pytest

from horizonlab import shear
from horizonlab.regime import RegimeParameters
from horizonlab.shear import ProfileSpec, build_profile
from horizonlab.sphere import get_grid


@pytest.fixture(scope="session")
def grid_small():
    return get_grid(16, 32)


@pytest.fixture(scope="session")
def grid_mid():
    return get_grid(32, 64)


@pytest.fixture(scope="session")
def params():
    return RegimeParameters()


@pytest.fixture(scope="session")
def profile_mid(params, grid_mid):
    return build_profile(params, ProfileSpec(n_ubar=193), grid_mid)


@pytest.fixture(scope="session")
def dense_tables():
    """Every ubar node's tables, stacked from the chunks gen-data reads."""
    def tables(profile):
        chunks = [profile.node_tables(lo, hi)
                  for lo, hi in shear._chunks(len(profile.ubar_grid))]
        return shear.ProfileTables(*map(np.concatenate, zip(*chunks)))
    return tables


@pytest.fixture(scope="session")
def tables_mid(profile_mid, dense_tables):
    return dense_tables(profile_mid)


@pytest.fixture(scope="session")
def sliced():
    """A ``verify_profile`` tables source reading chunks of dense tables,
    so that tampered tables reach the checks as gen-data's do."""
    def source(tables):
        return lambda lo, hi: shear.ProfileTables(*(x[lo:hi] for x in tables))
    return source


@pytest.fixture(scope="session")
def profile_plain(params, grid_mid):
    """Wobble-free variant: f and zeta carry no angular dependence."""
    spec = ProfileSpec(n_ubar=193, wobble_frac=0.0, zeta_wobble_frac=0.0)
    return build_profile(params, spec, grid_mid)


@pytest.fixture(scope="session")
def profile_notch(params, grid_small):
    """cap_width 0.1: the moving zero's notch reaches grid nodes."""
    return build_profile(params, ProfileSpec(n_ubar=129, cap_width=0.1),
                         grid_small)


@pytest.fixture(scope="session")
def full_grid_amp2():
    """The amplitude formula with the gate on every node and no memo,
    which ``ShearProfile.amp2_at`` must reproduce bit for bit."""
    def amp2(profile, ubar):
        m, g = profile._model, profile.grid
        Y = shear.angular_wobble(g.theta_2d, g.phi_2d)
        (alpha,), (beta,) = m.amp2_factors(np.array([ubar], dtype=float))
        return shear._repaid(alpha + beta * Y,
                             m.gate(ubar, g.theta_2d, g.phi_2d),
                             profile.kappa_repay, m.repay_shape(ubar))
    return amp2
