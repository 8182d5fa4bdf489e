"""Cone focusing integration, slab model, and trapped classification."""

import copy
import math

import numpy as np
import pytest

from horizonlab.errors import FocusingError, SlabDomainError
from horizonlab.regime import derive
from horizonlab.transport import (INDETERMINATE, TRAPPED_CERTIFIED,
                                  UNTRAPPED, SlabModel, detect_trapped,
                                  integrate_cone, integrate_data_cone)


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


def sequential_cone(amp2_at, ubar_end, n_steps, grid, trchi0=2.0,
                    n_store=33):
    """Reference: the full sweep, then the half sweep, one after the other.

    ``integrate_cone`` runs the two in lockstep and must match this bit
    for bit; returns (nodes, snaps, step_error).
    """
    def rhs(u, y):
        return -0.5 * y * y - amp2_at(u)

    def sweep(steps):
        h = ubar_end / steps
        y = np.full((grid.n_theta, grid.n_phi), float(trchi0))
        stride = max(1, steps // max(n_store - 1, 1))
        nodes, snaps = [0.0], [y.copy()]
        u = 0.0
        blow = 1e6 * abs(trchi0)
        for k in range(steps):
            k1 = rhs(u, y)
            k2 = rhs(u + 0.5 * h, y + 0.5 * h * k1)
            k3 = rhs(u + 0.5 * h, y + 0.5 * h * k2)
            k4 = rhs(u + h, y + h * k3)
            y = y + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            u = (k + 1) * h
            if not np.all(np.isfinite(y)) or np.min(y) < -blow:
                raise FocusingError(u)
            if (k + 1) % stride == 0 or k == steps - 1:
                nodes.append(u)
                snaps.append(y.copy())
        return np.array(nodes), np.array(snaps)

    nodes, snaps = sweep(n_steps)
    _, snaps_half = sweep(max(2, n_steps // 2))
    err = float(np.max(np.abs(snaps[-1] - snaps_half[-1]))) / 15.0
    return nodes, snaps, err


class TestRiccati:
    def test_zero_shear_closed_form(self, grid_small):
        state = integrate_cone(zero_amp, 1.0, 512, grid_small)
        exact = 2.0 / (1.0 + state.ubar_nodes)
        err = np.max(np.abs(state.trchi[:, 0, 0] - exact))
        assert err < 1e-10

    def test_fourth_order_convergence(self, grid_small):
        errs = []
        for n in (256, 512):
            state = integrate_cone(zero_amp, 1.0, n, grid_small)
            errs.append(abs(state.trchi_final[0, 0] - 1.0))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_step_error_estimate_reported(self, grid_small):
        state = integrate_cone(zero_amp, 1.0, 512, grid_small)
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
        weak = integrate_cone(lambda u: 0.5, 1.0, 256, grid_small)
        strong = integrate_cone(lambda u: 1.0, 1.0, 256, grid_small)
        assert np.all(strong.trchi_final < weak.trchi_final)

    def test_blowup_detected(self, grid_small):
        with pytest.raises(FocusingError) as err:
            integrate_cone(lambda u: 50.0, 1.0, 2048, grid_small)
        assert err.value.ubar == 0.35400390625


class TestLockstep:
    @pytest.mark.parametrize("n_steps, n_store", [(256, 33), (101, 9),
                                                  (3, 33)])
    def test_matches_sequential_sweeps(self, profile_notch, n_steps,
                                       n_store, full_grid_amp2):
        ubar_end = profile_notch.derived.ubar_end
        state = integrate_cone(profile_notch.amp2_at, ubar_end, n_steps,
                               profile_notch.grid, n_store=n_store)
        nodes, snaps, err = sequential_cone(
            lambda u: full_grid_amp2(profile_notch, u), ubar_end, n_steps,
            profile_notch.grid, n_store=n_store)
        assert state.ubar_nodes.tobytes() == nodes.tobytes()
        assert state.trchi.tobytes() == snaps.tobytes()
        assert state.trchi_final.tobytes() == snaps[-1].tobytes()
        assert state.step_error == err
        assert state.n_steps == n_steps

    @pytest.mark.parametrize("n_steps", [256, 4])
    def test_data_cone_matches_sequential_sweeps(self, profile_notch, n_steps,
                                                 full_grid_amp2):
        # integrate_data_cone reads the amplitude from the profile's table
        # of stage times, and must give the untabulated formula's bits.
        state = integrate_data_cone(copy.copy(profile_notch), n_steps)
        nodes, snaps, err = sequential_cone(
            lambda u: full_grid_amp2(profile_notch, u),
            profile_notch.derived.ubar_end, n_steps, profile_notch.grid)
        assert state.ubar_nodes.tobytes() == nodes.tobytes()
        assert state.trchi.tobytes() == snaps.tobytes()
        assert state.step_error == err

    def test_full_sweep_blowup_wins(self, grid_small):
        # The spike at ubar = 0.25 is a stage time of the 2-step half sweep
        # only, and blows it up at 0.5; the 5-step full sweep diverges
        # later, at 1.0, and its point is the one reported.
        def amp(u):
            return 1.0e4 if u == 0.25 else 12.0

        with pytest.raises(FocusingError) as ref:
            sequential_cone(amp, 1.0, 5, grid_small)
        with pytest.raises(FocusingError) as got:
            integrate_cone(amp, 1.0, 5, grid_small)
        assert got.value.ubar == ref.value.ubar == 1.0

    def test_half_sweep_blowup_reported(self, grid_small):
        # The same spike alone: only the half sweep diverges.
        def spike(u):
            return 1.0e4 if u == 0.25 else 0.0

        with pytest.raises(FocusingError) as ref:
            sequential_cone(spike, 1.0, 5, grid_small)
        with pytest.raises(FocusingError) as got:
            integrate_cone(spike, 1.0, 5, grid_small)
        assert got.value.ubar == ref.value.ubar == 0.5


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
