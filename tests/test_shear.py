"""Shear-profile construction, identities, verifier, and defect flags."""

import copy
import json
import math
import tracemalloc

import numpy as np
import pytest

from horizonlab import shear
from horizonlab.errors import ConstraintError, ResolutionError
from horizonlab.regime import RegimeParameters
from horizonlab.shear import (ProfileSpec, ShearProfile, build_profile,
                              scale_critical_norm, verify_profile)
from horizonlab.sphere import get_grid
from horizonlab.transport import integrate_cone


class TestBuildIdentities:
    def test_default_profile_verifies(self, profile_mid):
        report = verify_profile(profile_mid)
        failing = [c.name for c in report.checks if not c.passed]
        assert report.passed, failing

    def test_window_identity_plain(self, profile_plain):
        # f == 1, zeta == 1 there: I = amp * lambda * delta exactly.
        d = profile_plain.derived
        I = profile_plain.I_at(d.ubar_lambda)
        expected = d.shear_amp * d.ubar_lambda
        assert np.max(np.abs(I / expected - 1)) < 1e-12

    def test_total_is_4m0_everywhere(self, profile_mid, tables_mid):
        I = profile_mid.I_at(profile_mid.derived.ubar_lambda_hi)
        assert np.max(np.abs(I / (4 * profile_mid.m0) - 1)) < 1e-12
        I2 = tables_mid.I[-1]
        assert np.max(np.abs(I2 / (4 * profile_mid.m0) - 1)) < 1e-12

    def test_empty_start(self, tables_mid):
        assert np.max(np.abs(tables_mid.I[0])) == 0.0
        assert np.max(np.abs(tables_mid.amp2[0])) == 0.0

    def test_monotone_and_nonnegative(self, profile_mid, tables_mid):
        assert np.min(tables_mid.amp2) >= 0.0
        assert np.min(np.diff(tables_mid.I, axis=0)) >= -1e-12 \
            * 4 * profile_mid.m0

    def test_f_and_zeta_bounds(self, profile_mid, tables_mid):
        p = profile_mid.params
        ub = profile_mid.ubar_grid
        m = (ub >= profile_mid.derived.ubar_start) \
            & (ub <= profile_mid.derived.ubar_lambda_hi)
        assert np.max(np.abs(tables_mid.f[m] - 1)) <= 1 / p.c1
        zb = profile_mid.zbar
        sel = zb > 1e-9
        dev = np.abs(tables_mid.zeta[sel]
                     / zb[sel, None, None] - 1)
        assert np.max(dev) <= 1 / p.c2_zeta

    def test_dominance_is_inverse_o1(self, profile_mid):
        d = profile_mid.derived
        I_lam = profile_mid.I_at(d.ubar_lambda)
        ratio = I_lam / (4 * profile_mid.m0 - I_lam)
        assert np.mean(ratio) == pytest.approx(1 / profile_mid.params.o1,
                                               rel=1e-6)

    def test_zero_locus_exact_and_moving(self, profile_mid):
        d = profile_mid.derived
        for frac in (0.1, 0.4, 0.8):
            u = frac * d.ubar_lambda
            th0 = float(profile_mid._model.locus_theta(u))
            assert profile_mid._model.gate(
                u, th0, profile_mid.spec.phi0) == 0.0
        support = profile_mid.ubar_grid <= d.ubar_lambda_hi
        travel = np.ptp(profile_mid.zero_locus_theta[support])
        assert travel > profile_mid.params.o1
        assert np.min(np.diff(profile_mid.zero_locus_theta[support])) >= 0


class TestFeasibilityErrors:
    def test_c1_floor(self, grid_small):
        p = RegimeParameters(c1=10.0)
        with pytest.raises(ConstraintError) as err:
            build_profile(p, ProfileSpec(n_ubar=129), grid_small)
        assert "f_budget" in err.value.constraint

    def test_lambda_headroom(self, grid_small):
        p = RegimeParameters(lambda_hi=0.93)   # > lambda*(1+o1) = 0.924
        with pytest.raises(ConstraintError) as err:
            build_profile(p, ProfileSpec(n_ubar=129), grid_small)
        assert err.value.constraint == "averaged_angular_independence"

    def test_dominance_conflict(self, grid_small):
        p = RegimeParameters(d0=10.0)          # 1/o1 = 20 is forced
        with pytest.raises(ConstraintError) as err:
            build_profile(p, ProfileSpec(n_ubar=129), grid_small)
        assert err.value.constraint == "dominant_contribution"

    def test_resolution_floor(self, grid_small, params):
        with pytest.raises(ResolutionError):
            build_profile(params, ProfileSpec(n_ubar=33), grid_small)


class TestVerifierDefects:
    def test_scaling_defect_flagged_with_ratio(self, profile_mid,
                                               tables_mid, sliced):
        bad = tables_mid._replace(amp2=1.5 * tables_mid.amp2,
                                  I=1.5 * tables_mid.I)
        report = verify_profile(profile_mid, sliced(bad))
        entry = report["total_equals_4m0"]
        assert not entry.passed
        assert entry["measured"] == pytest.approx(0.5, rel=1e-9)

    def test_step_zeta_flagged(self, profile_mid, tables_mid, sliced):
        ub = profile_mid.ubar_grid
        d = profile_mid.derived
        mid = 0.5 * (d.ubar_lambda + d.ubar_lambda_hi)
        step = (ub < mid).astype(float)
        zeta = np.broadcast_to(step[:, None, None],
                               tables_mid.zeta.shape).copy()
        bad = tables_mid._replace(zeta=zeta)
        report = verify_profile(profile_mid, sliced(bad))
        assert not report["zeta_no_jump"].passed

    def test_frozen_locus_flagged(self, profile_mid, tables_mid, sliced):
        bad = copy.copy(profile_mid)
        bad.zero_locus_theta = np.full_like(profile_mid.zero_locus_theta,
                                            np.pi / 2)
        report = verify_profile(bad, sliced(tables_mid))
        assert not report["zero_locus_moving"].passed
        # The gate is probed at the stored locus point; frozen at pi/2,
        # that point is off the notch on the probed slices.
        assert not report["zero_locus_present"].passed
        assert report["zero_locus_present"]["measured"] > 1e-3

    def test_shallow_notch_flagged(self, profile_mid, tables_mid, sliced,
                                   monkeypatch):
        # A notch that bottoms out at 1e-3: gate = 1 - 0.999 * bump.
        def check():
            report = verify_profile(profile_mid, sliced(tables_mid))
            return report["zero_locus_present"]

        assert check().passed
        gate = shear._ProfileModel.gate

        def shallow(self, *args):
            return 1e-3 + 0.999 * gate(self, *args)

        monkeypatch.setattr(shear._ProfileModel, "gate", shallow)
        entry = check()
        assert not entry.passed
        assert entry["measured"] == pytest.approx(1e-3, rel=1e-9)

    def test_builder_output_all_pass(self, profile_mid, tables_mid, sliced):
        report = verify_profile(profile_mid, sliced(tables_mid))
        assert report.passed
        assert report["zero_locus_present"]["measured"] == 0.0


class TestQuadratureConsistency:
    def test_refinement_improves_consistency(self, params, grid_small):
        errs = []
        for n in (97, 193):
            prof = build_profile(params, ProfileSpec(n_ubar=n), grid_small)
            rep = verify_profile(prof)
            errs.append(rep["amp2_I_consistency"]["measured"])
        assert errs[1] < errs[0] / 2.5   # second-order trapezoid


def per_slice_norm(profile, amp2):
    """Reference: the scale-critical norm one slice and one gradient call
    at a time, with np.hypot, before the angular chain was stacked."""
    nu = len(profile.ubar_grid)
    grid = profile.grid
    amp = np.sqrt(np.maximum(amp2, 0.0))
    p = profile.params
    total = 0.0
    du_j = amp
    for j in range(3):
        if j > 0:
            du_j = np.gradient(du_j, profile.ubar_grid, axis=0)
        ang = du_j
        for i in range(3):
            if i > 0:
                mags = np.empty_like(ang)
                for k in range(nu):
                    gt, gp = grid.gradient_values(ang[k])
                    mags[k] = np.hypot(gt, gp)
                ang = mags
            norms = np.sqrt(np.sum(grid.weights[None] * ang * ang,
                                   axis=(1, 2)))
            total += (p.delta ** j / math.sqrt(p.a)) * float(np.max(norms))
    return total


class TestScaleCriticalNorm:
    @pytest.mark.parametrize("name", ["profile_mid", "profile_notch"])
    def test_matches_per_slice_reference(self, name, request, dense_tables):
        profile = request.getfixturevalue(name)
        want = per_slice_norm(profile, dense_tables(profile).amp2)
        got = scale_critical_norm(profile)["value"]
        assert abs(got - want) <= 1e-13 * want

    def test_zero_profile(self, profile_mid, tables_mid):
        quiet = 0.0 * tables_mid.amp2
        assert scale_critical_norm(profile_mid,
                                   lambda lo, hi: quiet[lo:hi])["value"] == 0.0

    def test_homogeneity(self, profile_mid, tables_mid):
        base = scale_critical_norm(profile_mid)["value"]
        loud = 4.0 * tables_mid.amp2
        assert scale_critical_norm(profile_mid,
                                   lambda lo, hi: loud[lo:hi])["value"] == \
            pytest.approx(2.0 * base, rel=1e-12)

    def test_default_within_budget(self, profile_mid):
        assert scale_critical_norm(profile_mid)["passed"]

    def test_wrong_amplitude_power_fails(self, profile_mid, tables_mid):
        # amplitude a instead of sqrt(a): amp2 gains a factor sqrt(a),
        # the norm gains ~a^(1/4)*... enough to blow the frozen budget.
        a = profile_mid.params.a
        loud = math.sqrt(a) * tables_mid.amp2
        assert not scale_critical_norm(profile_mid,
                                       lambda lo, hi: loud[lo:hi])["passed"]


class TestChunking:
    @pytest.mark.parametrize("name", ["profile_mid", "profile_notch"])
    def test_chunk_size_changes_no_result(self, name, request, monkeypatch):
        # Chunks of 1 put a boundary between every two nodes, so every
        # carried row and every halo node is exercised.
        profile = request.getfixturevalue(name)
        results = []
        for size in (1, 3, 8, len(profile.ubar_grid)):
            monkeypatch.setattr(shear, "UBAR_CHUNK", size)
            results.append((json.dumps(verify_profile(profile).as_dict()),
                            scale_critical_norm(profile)["value"]))
        assert all(r == results[-1] for r in results), name

    @pytest.mark.parametrize("n_ubar", [129, 193, 257])
    def test_ubar_gradient_on_windows_equals_full(self, params, n_ubar):
        # Many 3-node windows of the ubar nodes are evenly spaced, where
        # np.gradient itself would switch formulas; the norm's maximum
        # over ubar can hide that, so every node is compared here.
        model = shear._ProfileModel(params, ProfileSpec(n_ubar=n_ubar))
        ubar = shear._build_ubar_grid(model, n_ubar)
        f = np.random.default_rng(n_ubar).standard_normal((n_ubar, 3))
        full = np.gradient(f, ubar, axis=0)
        assert shear._ubar_gradient(f, ubar).tobytes() == full.tobytes()
        for k in range(n_ubar):
            a, b = max(k - 1, 0), min(k + 2, n_ubar)
            got = shear._ubar_gradient(f[a:b], ubar[a:b])[k - a]
            assert got.tobytes() == full[k].tobytes(), k

    def test_checks_hold_less_than_one_dense_table(self, params):
        profile = build_profile(params, ProfileSpec(), get_grid(64, 128))
        one_table = len(profile.ubar_grid) * 64 * 128 * 8    # 16.8 MB
        tracemalloc.start()
        try:
            assert verify_profile(profile).passed
            assert scale_critical_norm(profile)["passed"]
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < one_table, peak


def loop_tables(profile, full_grid_amp2):
    """Reference: the dense tables as the profile once cached them, I and
    f filled one ubar node at a time, amp2 one full-grid gate per node."""
    m, g = profile._model, profile.grid
    Y = shear.angular_wobble(g.theta_2d, g.phi_2d)
    ubar, zbar = profile.ubar_grid, profile.zbar
    amp2 = np.array([full_grid_amp2(profile, u) for u in ubar])
    I = dense_corr(profile.corr, profile._cap, g)
    for k, u in enumerate(ubar):
        I[k] += m.I_main(u, Y)
    shape = np.clip((ubar - m.ulam) / m.zwindow, 0.0, 1.0)
    swob = (4.0 * shape * (1.0 - shape)) ** 2
    Z = shear.zeta_wobble_pattern(g.theta_2d, g.phi_2d)
    zeta = zbar[:, None, None] * (1.0 + m.wz * swob[:, None, None] * Z[None])
    f = np.empty_like(I)
    rho = m.rho(ubar)
    for k, u in enumerate(ubar):
        if u <= 0.0 or rho[k] < 1e-300:
            f[k] = m.fbg(u, Y)
        elif u <= m.ulam:
            f[k] = I[k] / (m.A * u * rho[k])
        elif zbar[k] > 1e-9:
            f[k] = ((I[k] - (1.0 - zeta[k]) * m.four_m0)
                    / (m.A * zeta[k] * u))
        else:
            f[k] = m.fbg(u, Y)
    return amp2, I, f, zeta


def dense_corr(corr, cap, grid):
    """The cap columns ``corr`` scattered into a zero (n_ubar, n_theta,
    n_phi) table: I - I_main at the ubar nodes."""
    out = np.zeros((len(corr),) + grid.theta_2d.shape)
    out.reshape(len(corr), -1)[:, cap] = corr
    return out


def full_row_repayment(model, ubar, grid):
    """Reference: ``_repayment`` with kappa from np.trapezoid over
    full-grid rows, the cap columns set and every other column zero."""
    Y = shear.angular_wobble(grid.theta_2d, grid.phi_2d)
    cap = model.cap_nodes(grid.theta_2d, grid.phi_2d)
    theta, phi = grid.theta_2d.ravel()[cap], grid.phi_2d.ravel()[cap]
    alpha, beta = model.amp2_factors(ubar)
    main = beta[:, None] * Y.ravel()
    main += alpha[:, None]
    gate = model.gate(ubar[:, None], theta, phi)
    repay = model.repay_shape(ubar)
    cut = np.zeros_like(main)
    cut[:, cap] = main[:, cap] * (1.0 - gate)
    kept = main * repay[:, None]
    kept[:, cap] = main[:, cap] * gate * repay[:, None]
    kappa = np.trapezoid(cut, ubar, axis=0) / np.trapezoid(kept, ubar, axis=0)
    amp2 = main.copy()
    amp2[:, cap] = shear._repaid(main[:, cap], gate, kappa[cap],
                                 repay[:, None])
    corr = np.maximum(amp2, 0.0) - main
    return (kappa.reshape(Y.shape),
            shear._cumtrapz(corr.reshape((len(ubar),) + Y.shape), ubar))


class TestProfileTables:
    @pytest.mark.parametrize("name", ["profile_mid", "profile_notch"])
    def test_equal_per_node_loops(self, name, request, full_grid_amp2,
                                  dense_tables, monkeypatch):
        profile = request.getfixturevalue(name)
        want = loop_tables(profile, full_grid_amp2)
        for size in (1, 3, shear.UBAR_CHUNK):
            monkeypatch.setattr(shear, "UBAR_CHUNK", size)
            for field, got, ref in zip(shear.ProfileTables._fields,
                                       dense_tables(profile), want):
                assert got.tobytes() == ref.tobytes(), (field, size)

    @pytest.mark.parametrize("n, n_ubar, cap_width", [(16, 129, 0.1),
                                                      (64, 257, 0.014)])
    def test_repayment_equals_full_row_version(self, params, n, n_ubar,
                                               cap_width):
        # profile_notch's configuration and notch-cone's on the default grid
        grid = get_grid(n, 2 * n)
        model = shear._ProfileModel(
            params, ProfileSpec(n_ubar=n_ubar, cap_width=cap_width))
        ubar = shear._build_ubar_grid(model, n_ubar)
        kappa, corr = shear._repayment(model, ubar, grid)
        want_kappa, want_corr = full_row_repayment(model, ubar, grid)
        assert np.count_nonzero(kappa) == 2
        assert kappa.tobytes() == want_kappa.tobytes()
        cap = model.cap_nodes(grid.theta_2d, grid.phi_2d)
        assert dense_corr(corr, cap, grid).tobytes() == want_corr.tobytes()

    def test_I_at_equals_dense_interpolation(self, profile_notch):
        # I_at adds the cap columns to I_main; the dense oracle adds the
        # whole (zero off the cap) interpolated correction.
        m, ub = profile_notch._model, profile_notch.ubar_grid
        Y = shear.angular_wobble(profile_notch.grid.theta_2d,
                                 profile_notch.grid.phi_2d)
        _, dense = full_row_repayment(m, ub, profile_notch.grid)
        mids = [0.5 * (ub[k] + ub[k + 1]) for k in (0, 40, 64, 100)]
        for u in list(ub) + mids:
            k = min(max(np.searchsorted(ub, u), 1), len(ub) - 1)
            w = (u - ub[k - 1]) / (ub[k] - ub[k - 1])
            want = m.I_main(u, Y) + ((1.0 - w) * dense[k - 1]
                                     + w * dense[k])
            assert profile_notch.I_at(u).tobytes() == want.tobytes(), u


class TestPersistence:
    def test_save_load_roundtrip(self, profile_mid, tables_mid, tmp_path,
                                 dense_tables):
        stem = tmp_path / "prof"
        profile_mid.save(stem, config_hash="abc123")
        back = ShearProfile.load(stem)
        tables = dense_tables(back)
        assert np.array_equal(tables.I, tables_mid.I)
        assert np.array_equal(tables.amp2, tables_mid.amp2)
        assert np.array_equal(tables.f, tables_mid.f)
        d = profile_mid.derived
        for u in (0.3 * d.ubar_lambda, d.ubar_lambda, 1.2 * d.ubar_lambda):
            assert np.array_equal(back.amp2_at(u), profile_mid.amp2_at(u))
            assert np.array_equal(back.I_at(u), profile_mid.I_at(u))
        assert verify_profile(back).passed

    def test_roundtrip_with_notch_on_grid_nodes(self, params, grid_small,
                                                tmp_path, monkeypatch,
                                                dense_tables):
        # cap_width 0.1 lets the moving zero reach grid nodes, so the two
        # saved arrays are nonzero and must cross the round trip exactly.
        built = build_profile(params, ProfileSpec(n_ubar=129, cap_width=0.1),
                              grid_small)
        assert np.count_nonzero(built.kappa_repay) == 2
        assert built.corr.shape == (129, 4)
        assert np.count_nonzero(built.corr) == 214
        stem = tmp_path / "prof"
        built.save(stem, config_hash="abc123")
        with np.load(stem.with_suffix(".npz")) as z:
            assert sorted(z.files) == ["config_hash", "corr", "kappa_repay"]

        def no_rebuild(*args):
            raise AssertionError("load rebuilt the profile")
        monkeypatch.setattr(shear, "_repayment", no_rebuild)
        back = ShearProfile.load(stem)
        ub = built.ubar_grid
        nodes = [ub[k] for k in (0, 1, 40, 64, 100, len(ub) - 1)]
        between = [0.5 * (ub[k] + ub[k + 1]) for k in (0, 40, 64, 100)]
        for u in nodes + between:
            assert np.array_equal(back.amp2_at(u), built.amp2_at(u))
            assert np.array_equal(back.I_at(u), built.I_at(u))
            assert back.zbar_at(u) == built.zbar_at(u)
        tables = ("amp2", "I", "f_field", "zeta_field")
        assert not any(hasattr(back, name) for name in tables)
        for name in ("ubar_grid", "zbar", "zero_locus_theta", "kappa_repay",
                     "corr"):
            assert np.array_equal(getattr(back, name), getattr(built, name)), \
                name
        for name, got, want in zip(shear.ProfileTables._fields,
                                   dense_tables(back),
                                   dense_tables(built)):
            assert np.array_equal(got, want), name


class TestClosures:
    def test_zbar_derivative_fd(self, profile_mid):
        d = profile_mid.derived
        u = 0.5 * (d.ubar_lambda + d.ubar_lambda_hi)
        h = 1e-5 * d.delta
        fd = (profile_mid.zbar_at(u + h) - profile_mid.zbar_at(u - h)) \
            / (2 * h)
        assert profile_mid.dzbar_at(u) == pytest.approx(fd, rel=1e-4)

    def test_amp2_matches_stored_grid(self, profile_mid, tables_mid):
        k = len(profile_mid.ubar_grid) // 2
        u = profile_mid.ubar_grid[k]
        assert np.array_equal(profile_mid.amp2_at(u), tables_mid.amp2[k])


def oracle_times(profile, n_steps=64):
    """Every ubar node, every midpoint, and the stage times of a sweep."""
    ub = profile.ubar_grid
    seen = []
    integrate_cone(lambda u: seen.append(u) or 0.0, profile.derived.ubar_end,
                   n_steps, profile.grid)
    return list(ub) + list(0.5 * (ub[1:] + ub[:-1])) + seen


@pytest.fixture(scope="module")
def profile_notch_default_grid(params):
    # notch-cone's cap width on the default grid: the notch reaches nodes
    return build_profile(params, ProfileSpec(cap_width=0.014),
                         get_grid(64, 128))


class TestCapSet:
    def test_empty_at_default_config(self, params):
        grid = get_grid(64, 128)
        model = shear._ProfileModel(params, ProfileSpec())
        assert model.cap_nodes(grid.theta_2d, grid.phi_2d).size == 0

    def test_default_config_has_no_cap_columns(self, params):
        built = build_profile(params, ProfileSpec(), get_grid(64, 128))
        assert built.corr.shape == (257, 0)
        assert not built.kappa_repay.any()

    @pytest.mark.parametrize("name", ["profile_notch",
                                      "profile_notch_default_grid"])
    def test_amp2_at_matches_full_grid_gate(self, name, request,
                                            full_grid_amp2):
        # Two nodes beside the locus meridian, and their mirror images on
        # the other half of its great circle, which the bound keeps.
        profile = request.getfixturevalue(name)
        g, m = profile.grid, profile._model
        cap = m.cap_nodes(g.theta_2d, g.phi_2d)
        assert cap.size == 4
        assert np.count_nonzero(profile.kappa_repay) == 2
        assert set(np.flatnonzero(profile.kappa_repay)) <= set(cap)
        reached = np.zeros(g.theta_2d.size, dtype=bool)
        for u in oracle_times(profile):
            want = full_grid_amp2(profile, u)
            assert profile.amp2_at(u).tobytes() == want.tobytes(), u
            reached |= m.gate(u, g.theta_2d, g.phi_2d).ravel() < 1.0
        assert np.any(reached)
        assert set(np.flatnonzero(reached)) <= set(cap)

    def test_amp2_table_matches_full_grid_gate(self, profile_notch,
                                               full_grid_amp2, dense_tables):
        amp2 = dense_tables(profile_notch).amp2
        for k, u in enumerate(profile_notch.ubar_grid):
            want = full_grid_amp2(profile_notch, u)
            assert amp2[k].tobytes() == want.tobytes()


class TestAmp2Memo:
    def test_read_only(self, profile_notch):
        out = profile_notch.amp2_at(0.3 * profile_notch.derived.ubar_lambda)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0, 0] = 1.0

    def test_repeated_time_same_bits(self, profile_notch,
                                     full_grid_amp2):
        d = profile_notch.derived
        u = 0.45 * d.ubar_lambda
        first = profile_notch.amp2_at(u).copy()
        assert profile_notch.amp2_at(np.float64(u)).tobytes() \
            == first.tobytes()
        for v in np.linspace(0.0, d.ubar_end, 20):
            profile_notch.amp2_at(v)
        assert profile_notch.amp2_at(u).tobytes() == first.tobytes()
        assert first.tobytes() == full_grid_amp2(profile_notch, u).tobytes()


def expanded_amp2(profile, ubar):
    """Reference: the amplitude in its expanded form, f and f' on the
    grid, before it was written as alpha + beta * Y."""
    m, g = profile._model, profile.grid
    Y = shear.angular_wobble(g.theta_2d, g.phi_2d)
    f = 1.0 + m.wf * np.sin(np.pi * ubar / m.ulam) * Y
    df = m.wf * (np.pi / m.ulam) * np.cos(np.pi * ubar / m.ulam) * Y
    t = ubar / m.w0
    r = shear.smoothramp(np.array([t, t + shear.RAMP_H, t - shear.RAMP_H]))
    rho, drho = r[0], (r[1] - r[2]) / (2.0 * shear.RAMP_H) / m.w0
    zb, dzb = m.zbar(ubar), m.dzbar(ubar)
    core = m.A * ((df * ubar + f) * rho + f * ubar * drho)
    main = core * zb + dzb * (m.A * f * ubar * rho - m.four_m0)
    return shear._repaid(main, m.gate(ubar, g.theta_2d, g.phi_2d),
                         profile.kappa_repay, m.repay_shape(ubar))


class TestAmp2Factors:
    def test_vectorised_equals_per_time(self, profile_notch):
        m = profile_notch._model
        times = np.array(oracle_times(profile_notch))
        alpha, beta = m.amp2_factors(times)
        for k, u in enumerate(times):
            (a,), (b,) = m.amp2_factors(np.array([u]))
            assert a.tobytes() == alpha[k].tobytes(), u
            assert b.tobytes() == beta[k].tobytes(), u
        tabulated = copy.copy(profile_notch)
        tabulated.tabulate(times)
        for u in times:
            assert tabulated.amp2_at(u).tobytes() \
                == profile_notch.amp2_at(u).tobytes(), u

    @pytest.mark.parametrize("name", ["profile_notch",
                                      "profile_notch_default_grid"])
    def test_matches_expanded_form(self, name, request):
        profile = request.getfixturevalue(name)
        for u in oracle_times(profile):
            want = expanded_amp2(profile, u)
            got = profile.amp2_at(u)
            assert np.max(np.abs(got - want)) \
                <= 1e-13 * np.max(np.abs(want)), u
