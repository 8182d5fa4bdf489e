"""Cone focusing integration, slab model, and trapped classification."""

import copy
import math
import tracemalloc

import numpy as np
import pytest

from horizonlab import shear, transport
from horizonlab.errors import FocusingError, SlabDomainError
from horizonlab.regime import RegimeParameters, derive
from horizonlab.shear import ProfileSpec, ShearProfile, build_profile
from horizonlab.sphere import get_grid
from horizonlab.transport import (INDETERMINATE, TRAPPED_CERTIFIED,
                                  UNTRAPPED, Y_POINTS, SlabModel, _distinct,
                                  cone_checks, detect_trapped,
                                  integrate_cone, integrate_data_cone,
                                  step_plans)


class FakeProfile:
    """Duck-typed stand-in: constant cumulative shear on the default grid."""

    def __init__(self, params, grid, I_const):
        self.params = params
        self.grid = grid
        self.derived = derive(params)
        self._I = I_const

    def I_at(self, ubar):
        return np.full((self.grid.n_theta, self.grid.n_phi), self._I)


def zero_amp(u):
    return 0.0


def sequential_cone(amp2_at, ubar_end, n_steps, shape, trchi0=2.0,
                    n_store=33):
    """Reference: the full sweep, then the half sweep, one after the other,
    each carrying trchi - trchi0.

    Written independently of ``integrate_cone`` (a new array at every
    step, not buffers updated in place), which must match it bit for bit;
    returns (nodes, snaps, step_error).
    """
    c = float(trchi0)

    def rhs(u, z):
        return (-0.5 * z - c) * z - amp2_at(u) - 0.5 * c * c

    def sweep(steps):
        h = ubar_end / steps
        z = np.zeros(shape)
        stride = max(1, steps // max(n_store - 1, 1))
        nodes, snaps = [0.0], [z + c]
        u = 0.0
        blow = 1e6 * abs(c)
        for k in range(steps):
            k1 = rhs(u, z)
            k2 = rhs(u + 0.5 * h, z + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h, z + 0.5 * h * k2)
            k4 = rhs(u + h, z + h * k3)
            z = z + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            u = (k + 1) * h
            if not np.all(np.isfinite(z)) or np.min(z) < -blow - c:
                raise FocusingError(u)
            if (k + 1) % stride == 0 or k == steps - 1:
                nodes.append(u)
                snaps.append(z + c)
        return np.array(nodes), np.array(snaps)

    nodes, snaps = sweep(n_steps)
    _, snaps_half = sweep(max(2, n_steps // 2))
    err = float(np.max(np.abs(snaps[-1] - snaps_half[-1]))) / 15.0
    return nodes, snaps, err


class TestRiccati:
    def test_zero_shear_closed_form(self, grid_small):
        state = integrate_cone(zero_amp, 1.0, 512, grid_small.theta_2d.shape)
        exact = 2.0 / (1.0 + state.ubar_nodes)
        err = np.max(np.abs(state.trchi[:, 0, 0] - exact))
        assert err < 1e-10

    def test_fourth_order_convergence(self, grid_small):
        errs = []
        for n in (256, 512):
            state = integrate_cone(zero_amp, 1.0, n, grid_small.theta_2d.shape)
            errs.append(abs(state.trchi_final[0, 0] - 1.0))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_step_error_estimate_reported(self, grid_small):
        state = integrate_cone(zero_amp, 1.0, 512, grid_small.theta_2d.shape)
        assert 0.0 < state.step_error < 1e-9

    def test_default_profile_perturbative(self, profile_mid):
        # At these scales trchi(delta) = 2 - I(delta, omega) to within the
        # integrator's quadrature error (the Riccati self-interaction is
        # below float resolution).
        state = integrate_data_cone(profile_mid, n_steps=2048, n_store=65)
        d = profile_mid.derived
        k = int(np.argmin(np.abs(state.ubar_nodes - d.delta)))
        assert state.ubar_nodes[k] == pytest.approx(d.delta, rel=1e-12)
        expected = 2.0 - profile_mid.I_at(float(state.ubar_nodes[k]))
        err = np.max(np.abs(state.trchi[k] - expected))
        assert err < 1e-5 * 4 * profile_mid.m0

    def test_model_matches_integrator_at_cone(self, profile_mid):
        # At u = 1 the slab leading term 2 - I(ubar, .) must agree with
        # the integrated cone uniformly in omega to O(delta).
        state = integrate_data_cone(profile_mid, n_steps=1024, n_store=33)
        slab = SlabModel(profile_mid.params, profile_mid)
        d = profile_mid.derived
        worst = 0.0
        for k, ub in enumerate(state.ubar_nodes):
            if ub > d.delta:
                continue
            lead = slab.leading(1.0, float(ub))
            worst = max(worst, float(np.max(np.abs(state.trchi[k]
                                                   - lead.values))))
        assert worst < 1e-5 * 4 * profile_mid.m0

    def test_monotone_focusing(self, grid_small):
        weak = integrate_cone(lambda u: 0.5, 1.0, 256,
                              grid_small.theta_2d.shape)
        strong = integrate_cone(lambda u: 1.0, 1.0, 256,
                                grid_small.theta_2d.shape)
        assert np.all(strong.trchi_final < weak.trchi_final)

    def test_blowup_detected(self, grid_small):
        with pytest.raises(FocusingError) as err:
            integrate_cone(lambda u: 50.0, 1.0, 2048,
                           grid_small.theta_2d.shape)
        assert err.value.ubar == 0.35400390625


class TestLockstep:
    """integrate_cone's full and half sweeps against the sequential
    reference, and what the data-cone sweep evaluates."""

    @pytest.mark.parametrize("n_steps, n_store", [(256, 33), (101, 9),
                                                  (3, 33), (4, 33)])
    def test_matches_sequential_sweeps(self, profile_notch, n_steps,
                                       n_store, full_grid_amp2):
        ubar_end = profile_notch.derived.ubar_end
        shape = profile_notch._Y.shape
        state = integrate_cone(profile_notch.amp2_at, ubar_end, n_steps,
                               shape, n_store=n_store)
        nodes, snaps, err = sequential_cone(
            lambda u: full_grid_amp2(profile_notch, u), ubar_end, n_steps,
            shape, n_store=n_store)
        assert state.ubar_nodes.tobytes() == nodes.tobytes()
        assert state.trchi.tobytes() == snaps.tobytes()
        assert state.trchi_final.tobytes() == snaps[-1].tobytes()
        assert state.step_error == err
        assert state.n_steps == n_steps

    @pytest.mark.parametrize("n_steps", [256, 4])
    def test_data_cone_matches_sequential_sweeps(self, profile_notch, n_steps,
                                                 full_grid_amp2):
        # integrate_data_cone sweeps Y columns and interpolates them, so it
        # matches the full-grid reference to roundoff, not bit for bit
        # (integrate_cone's bits are pinned by the test above)
        state = integrate_data_cone(copy.copy(profile_notch), n_steps)
        nodes, snaps, err = sequential_cone(
            lambda u: full_grid_amp2(profile_notch, u),
            profile_notch.derived.ubar_end, n_steps, profile_notch._Y.shape)
        assert_matches(state, nodes, snaps, err)

    @pytest.mark.parametrize("node_step", [(2, 4), (3, 5), (16, 32)])
    def test_sampled_snapshots_are_the_full_ones(self, profile_notch,
                                                 node_step):
        # a node step keeps [::ti, ::pj] of every snapshot, bit for bit,
        # and changes neither the final grid nor the error estimate
        ti, pj = node_step
        full = integrate_data_cone(copy.copy(profile_notch), 256)
        part = integrate_data_cone(copy.copy(profile_notch), 256,
                                   node_step=node_step)
        assert part.trchi.tobytes() == full.trchi[:, ::ti, ::pj].tobytes()
        assert part.trchi_final.tobytes() == full.trchi_final.tobytes()
        assert part.ubar_nodes.tobytes() == full.ubar_nodes.tobytes()
        assert part.step_error == full.step_error

    def test_stage_times_deduplicated_as_np_unique(self, profile_notch):
        # the sweep sorts its stage times and drops repeats without
        # np.unique (which loads numpy.ma) and must keep np.unique's bits
        ubar_end = profile_notch.derived.ubar_end
        plans = step_plans(ubar_end, 2048)
        times = np.concatenate([t for _, _, stages in plans for t in stages])
        mixed = np.random.default_rng(4).permutation(
            np.concatenate([times[:300], times[100:400], times[-50:]]))
        for ubar in (times, mixed):
            assert _distinct(ubar).tobytes() == np.unique(ubar).tobytes()

    def test_cli_lattice_holds_no_full_snapshots(self, params):
        # at 64x128 the 33 full snapshots alone are 2.2 MB; with
        # cone_trchi.csv's lattice the sweep stays well below that
        spec = ProfileSpec(cap_width=0.014)
        profile = build_profile(params, spec, get_grid(64, 128))
        tracemalloc.start()
        try:
            integrate_data_cone(profile, 2048, node_step=(8, 16))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5e6, peak

    def test_amp2_at_calls_builds_and_reuse(self, profile_notch,
                                            monkeypatch):
        # Four amp2_at calls per RK4 step of either sweep, 6 n_steps in all,
        # each a read-only row on the columns; the view's amplitude built by
        # one _amp2 call, at the distinct stage times of both sweeps; the
        # sweep writes no attribute of the view or of the profile.
        n_steps = 256
        amp2_at, amp2 = ShearProfile.amp2_at, ShearProfile._amp2
        on_columns = ShearProfile.on_columns
        calls, builds, views = [], [], []

        def recorded_amp2_at(self, u):
            calls.append(amp2_at(self, u))
            return calls[-1]

        def recorded_amp2(self, ubar):
            builds.append((self, ubar.copy()))
            return amp2(self, ubar)

        def recorded_on_columns(self, Y, ubar):
            view = on_columns(self, Y, ubar)
            views.append((view, dict(vars(view))))
            return view

        monkeypatch.setattr(ShearProfile, "amp2_at", recorded_amp2_at)
        monkeypatch.setattr(ShearProfile, "_amp2", recorded_amp2)
        monkeypatch.setattr(ShearProfile, "on_columns", recorded_on_columns)
        before = dict(vars(profile_notch))
        integrate_data_cone(profile_notch, n_steps)
        assert len(calls) == 6 * n_steps
        n_cols = transport.Y_POINTS + profile_notch._cap.size
        assert {out.shape for out in calls} == {(1, n_cols)}
        assert not any(out.flags.writeable for out in calls)

        (view, state), = views
        (built_on, asked), = builds
        assert built_on is view
        ubar_end = profile_notch.derived.ubar_end
        assert asked.tobytes() == np.unique(np.concatenate(
            [t for _, _, stages in step_plans(ubar_end, n_steps)
             for t in stages])).tobytes()
        for obj, was in ((view, state), (profile_notch, before)):
            now = vars(obj)
            assert now.keys() == was.keys()
            assert all(now[k] is v for k, v in was.items())

    def test_full_sweep_blowup_wins(self, grid_small):
        # The spike at ubar = 0.25 is a stage time of the 2-step half sweep
        # only, and blows it up at 0.5; the 5-step full sweep diverges
        # later, at 1.0, and its point is the one reported.
        def amp(u):
            return 1.0e4 if u == 0.25 else 12.0

        with pytest.raises(FocusingError) as ref:
            sequential_cone(amp, 1.0, 5, grid_small.theta_2d.shape)
        with pytest.raises(FocusingError) as got:
            integrate_cone(amp, 1.0, 5, grid_small.theta_2d.shape)
        assert got.value.ubar == ref.value.ubar == 1.0

    def test_half_sweep_blowup_reported(self, grid_small):
        # The same spike alone: only the half sweep diverges.
        def spike(u):
            return 1.0e4 if u == 0.25 else 0.0

        with pytest.raises(FocusingError) as ref:
            sequential_cone(spike, 1.0, 5, grid_small.theta_2d.shape)
        with pytest.raises(FocusingError) as got:
            integrate_cone(spike, 1.0, 5, grid_small.theta_2d.shape)
        assert got.value.ubar == ref.value.ubar == 0.5


def assert_matches(state, nodes, snaps, err, rel=1e-13):
    """A Y sweep against the full-grid reference (nodes, snaps, err): the
    same stored nodes, and every trchi and the error estimate within rel
    of max |trchi|."""
    scale = rel * np.max(np.abs(snaps))
    assert state.ubar_nodes.tobytes() == nodes.tobytes()
    assert state.trchi.shape == snaps.shape
    assert np.max(np.abs(state.trchi - snaps)) <= scale
    assert np.max(np.abs(state.trchi_final - snaps[-1])) <= scale
    assert abs(state.step_error - err) <= scale


@pytest.fixture(scope="module")
def y_sweep_settings(params):
    """(profile, cone_steps): the default, notch-cone's cap width at the
    default grid, and the second regime at 16x32 with its notch on four
    grid nodes."""
    return {
        "default": (build_profile(params, ProfileSpec(),
                                  get_grid(64, 128)), 2048),
        "notch-cone": (build_profile(params, ProfileSpec(cap_width=0.014),
                                     get_grid(64, 128)), 2048),
        "second-regime": (build_profile(
            RegimeParameters(a=100.0, y=4.0),
            ProfileSpec(n_ubar=129, cap_width=0.1), get_grid(16, 32)), 256),
    }


SETTINGS = ["default", "notch-cone", "second-regime"]


class TestYSweep:
    """integrate_data_cone's Chebyshev columns in the wobble Y against the
    full-grid sweep, and the two checks evolve reports on them."""

    def test_barycentric_reproduces_polynomials(self):
        # 17 Lobatto points carry degree 16, their nested 9 degree 8; the
        # end points are nodes, which take their node's values exactly
        ys = transport._lobatto(-0.7, 1.3, 17)
        x = np.linspace(-0.7, 1.3, 41).reshape(41, 1)

        def polys(t, degree):
            return np.stack([(t - 0.2) ** degree, 3.0 * t * t - 1.0], axis=-1)

        for nodes, degree in ((ys, 16), (ys[::2], 8)):
            got = transport._barycentric(x, nodes, polys(nodes, degree))
            want = np.moveaxis(polys(x, degree), -1, 0)
            assert np.max(np.abs(got - want)) <= 1e-13
            assert got[:, [0, -1]].tobytes() == want[:, [0, -1]].tobytes()

    @pytest.mark.parametrize("name", SETTINGS)
    def test_matches_sequential_cone(self, y_sweep_settings, name):
        profile, n_steps = y_sweep_settings[name]
        state = integrate_data_cone(profile, n_steps)
        nodes, snaps, err = sequential_cone(
            profile.amp2_at, profile.derived.ubar_end, n_steps,
            profile._Y.shape)
        assert_matches(state, nodes, snaps, err)
        assert profile._cap.size == (0 if name == "default" else 4)
        assert cone_checks(profile, state).passed

    @pytest.mark.parametrize("name", SETTINGS)
    def test_top_column_without_shear_fails(self, y_sweep_settings, name,
                                            monkeypatch):
        # The amplitude formed on a Y range one point short: the top
        # Lobatto column keeps no shear, and the max-Y node leaves the
        # bracket.
        profile, n_steps = y_sweep_settings[name]
        report = cone_checks(profile, sweep_with_columns_zeroed(
            profile, n_steps, monkeypatch, slice(Y_POINTS - 1, Y_POINTS)))
        assert not report["trchi_bracket"].passed

    @pytest.mark.parametrize("name", ["notch-cone", "second-regime"])
    def test_dropped_cap_columns_fail_the_bracket(self, y_sweep_settings,
                                                  name, monkeypatch):
        # Cap columns that keep no shear: the interpolant never reads them,
        # but their nodes end far above 2 - I.
        profile, n_steps = y_sweep_settings[name]
        report = cone_checks(profile, sweep_with_columns_zeroed(
            profile, n_steps, monkeypatch, slice(Y_POINTS, None)))
        assert not report["trchi_bracket"].passed

    @pytest.mark.parametrize("corrupt_half", [False, True],
                             ids=["as-run", "corrupt-half"])
    def test_amplitude_scaled_fails_the_bracket(self, y_sweep_settings,
                                                monkeypatch, corrupt_half):
        # An amplitude 0.1 % high moves trchi by about 9e-12 at the
        # default, ten times the bracket's allowance.  The allowance reads
        # neither sweep, so a half sweep knocked 1e-12 off at every step,
        # whose step_error is far above that move, does not widen it.
        profile, n_steps = y_sweep_settings["default"]
        amp2, rk4_sweep = ShearProfile._amp2, transport._rk4_sweep
        sweeps = []

        def scaled(self, ubar):
            return 1.001 * amp2(self, ubar)

        def knocked(*args):
            sweeps.append(args)
            for u, y in rk4_sweep(*args):
                if len(sweeps) == 2:
                    y += 1e-12
                yield u, y

        monkeypatch.setattr(ShearProfile, "_amp2", scaled)
        if corrupt_half:
            monkeypatch.setattr(transport, "_rk4_sweep", knocked)
        cone = integrate_data_cone(profile, n_steps)
        bracket = cone_checks(profile, cone)["trchi_bracket"]
        assert not bracket.passed
        assert bracket["measured"] > 5.0 * bracket["threshold"]
        if corrupt_half:
            assert cone.step_error > bracket["measured"]

    @pytest.mark.parametrize("name", ["notch", "second-regime"])
    def test_allowance_is_simpson_on_the_grid(self, y_sweep_settings,
                                              profile_notch, name):
        # The allowance, taken on the columns' table, against Simpson's
        # rule on every RK4 stage time of both sweeps, summed from the
        # full-grid amplitude node by node.
        profile, n_steps = ((profile_notch, 256) if name == "notch"
                            else y_sweep_settings[name])
        ubar_end = profile.derived.ubar_end
        total = 0.0
        for steps, sign in ((n_steps, 1.0), (n_steps // 2, -1.0)):
            h = ubar_end / steps
            for k in range(steps):
                u = k * h
                total = total + sign * h / 6.0 * (
                    profile.amp2_at(u) + 4.0 * profile.amp2_at(u + 0.5 * h)
                    + profile.amp2_at(u + h))
        want = float(np.max(np.abs(total)))
        got = integrate_data_cone(profile, n_steps).simpson_halving
        assert got == pytest.approx(want, rel=1e-8)

    def test_cone_checks_build_no_amplitude(self, y_sweep_settings,
                                            monkeypatch):
        # The bracket reads the allowance the sweep handed over: checking
        # a swept cone evaluates no amplitude factor.
        profile, n_steps = y_sweep_settings["notch-cone"]
        cone = integrate_data_cone(profile, n_steps)
        calls = []
        factors = shear._ProfileModel.amp2_factors

        def recorded(self, ubar):
            calls.append(ubar)
            return factors(self, ubar)

        monkeypatch.setattr(shear._ProfileModel, "amp2_factors", recorded)
        assert cone_checks(profile, cone).passed
        assert calls == []


def sweep_with_columns_zeroed(profile, n_steps, monkeypatch, columns):
    """integrate_data_cone with the amplitude on ``columns`` of the sweep
    set to zero at every stage."""
    amp2_at = ShearProfile.amp2_at

    def zeroed(self, u):
        out = amp2_at(self, u).copy()
        out[0, columns] = 0.0
        return out

    monkeypatch.setattr(ShearProfile, "amp2_at", zeroed)
    return integrate_data_cone(profile, n_steps)


class TestSlabModel:
    def test_zero_shear_leading(self, params, grid_small):
        prof = FakeProfile(params, grid_small, 0.0)
        slab = SlabModel(params, prof)
        lead, env = slab.leading(0.5, 0.0), slab.envelope(0.5, 0.0)
        assert np.all(lead.values == pytest.approx(4.0))
        assert env == 0.0

    def test_uniform_shear_flips_sign(self, params, grid_small):
        # I = 4 a^(1/2) b delta at u = a^(1/2) b delta: leading = -2/u.
        d = derive(params)
        u = d.u_trapped
        prof = FakeProfile(params, grid_small, 4.0 * u)
        slab = SlabModel(params, prof)
        lead = slab.leading(u, 0.5 * d.delta)
        assert np.max(np.abs(lead.values + 2.0 / u)) < 1e-12 * 2.0 / u

    def test_envelope_value(self, params, grid_small):
        d = derive(params)
        prof = FakeProfile(params, grid_small, 0.0)
        slab = SlabModel(params, prof)
        u = d.u_trapped
        env = slab.envelope(u, d.delta)
        expected = (params.b ** (-1.75) / math.sqrt(params.a) / d.delta)
        assert env == pytest.approx(expected, rel=1e-12)

    def test_envelope_multiplier(self, params, grid_small):
        d = derive(params)
        prof = FakeProfile(params, grid_small, 0.0)
        s1 = SlabModel(params, prof, envelope_multiplier=1.0)
        s2 = SlabModel(params, prof, envelope_multiplier=2.5)
        assert s2.envelope(0.5, d.delta) == \
            pytest.approx(2.5 * s1.envelope(0.5, d.delta))

    def test_domain_errors(self, params, grid_small):
        d = derive(params)
        prof = FakeProfile(params, grid_small, 0.0)
        slab = SlabModel(params, prof)
        with pytest.raises(SlabDomainError):
            slab.leading(1.5, 0.0)
        with pytest.raises(SlabDomainError):
            slab.leading(0.5 * d.u_trapped, 0.0)
        with pytest.raises(SlabDomainError):
            slab.leading(0.5, 2.0 * d.delta)


class TestDetectTrapped:
    def test_certified_at_predicted_sphere(self, profile_mid):
        d = profile_mid.derived
        # hypothesis of the criterion: min_omega I(delta) >= 4 a^(1/2) b d
        lower = 4.0 * d.u_trapped
        assert np.min(profile_mid.I_at(d.delta)) >= lower
        slab = SlabModel(profile_mid.params, profile_mid)
        verdict = detect_trapped(slab, d.u_trapped, d.delta)
        assert verdict.status == TRAPPED_CERTIFIED

    def test_zero_shear_untrapped(self, params, grid_small):
        prof = FakeProfile(params, grid_small, 0.0)
        slab = SlabModel(params, prof)
        d = derive(params)
        assert detect_trapped(slab, d.u_trapped, 0.0).status == UNTRAPPED
        assert detect_trapped(slab, 1.0, 0.0).status == UNTRAPPED

    def test_outer_sphere_untrapped(self, profile_mid):
        slab = SlabModel(profile_mid.params, profile_mid)
        d = profile_mid.derived
        assert detect_trapped(slab, 1.0, d.delta).status == UNTRAPPED

    def test_indeterminate_band(self, params, grid_small):
        # leading crosses zero across the sphere -> indeterminate
        d = derive(params)

        class Mixed(FakeProfile):
            def I_at(self, ubar):
                vals = np.full((self.grid.n_theta, self.grid.n_phi),
                               2.0 * d.u_trapped)
                vals[: self.grid.n_theta // 2] = 0.0
                return vals

        slab = SlabModel(params, Mixed(params, grid_small, 0.0))
        verdict = detect_trapped(slab, d.u_trapped, 0.5 * d.delta)
        assert verdict.status == INDETERMINATE
