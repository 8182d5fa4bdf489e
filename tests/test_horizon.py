"""Horizon assembly, areas, ubar-derivatives, and the spacelike test."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from horizonlab.horizon import (HorizonAssembly, area, assemble,
                                spacelike_check)
from horizonlab.mots import MotsSolution, make_problem, solve_slice
from horizonlab.sphere import SphereField, get_grid


@pytest.fixture(scope="module")
def ladder(profile_mid):
    d = profile_mid.derived
    window = np.geomspace(d.ubar_start, d.ubar_lambda, 6)
    trans = np.linspace(d.ubar_lambda, d.ubar_lambda_hi, 4)[1:-1]
    tail = np.linspace(d.ubar_lambda_hi, d.ubar_end, 4)[1:]
    ubars = np.concatenate([window, trans, tail])
    solutions = [solve_slice(make_problem(profile_mid, float(ub),
                                          seed=100 + i, beta=0.4))
                 for i, ub in enumerate(ubars)]
    return ubars, solutions


@pytest.fixture(scope="module")
def assembly(profile_mid, params, ladder):
    ubars, solutions = ladder
    return assemble(params, profile_mid, solutions, disc_hypothesis=True)


class TestAssemble:
    def test_ordering_enforced(self, profile_mid, params, ladder):
        ubars, solutions = ladder
        with pytest.raises(ValueError):
            assemble(params, profile_mid, solutions[::-1])

    def test_interior_derivatives_present(self, assembly):
        n = len(assembly.ubars)
        assert assembly.dR_dubar(0) is None
        assert assembly.dR_dubar(-1) is None
        assert assembly.dR_dubar(n - 1) is None
        assert all(assembly.dR_dubar(k) is not None for k in range(1, n - 1))

    def test_derivative_is_the_centered_stencil_exactly(self, assembly):
        u = assembly.ubars
        R = [s.R.values for s in assembly.solutions]
        for k in range(1, len(u) - 1):
            hl, hr = u[k] - u[k - 1], u[k + 1] - u[k]
            want = (R[k + 1] * hl * hl - R[k - 1] * hr * hr
                    + R[k] * (hr * hr - hl * hl)) / (hl * hr * (hl + hr))
            assert assembly.dR_dubar(k).values.tobytes() == want.tobytes()
        assert assembly.dR_dubar(-2).values.tobytes() == \
            assembly.dR_dubar(len(u) - 2).values.tobytes()

    def test_assemble_holds_no_derivative_field(self, params):
        # 24 slices at 64x128: the derivatives are built on demand, so
        # assembling allocates less than one grid array (65 KB).
        grid = get_grid(64, 128)
        sols = [MotsSolution(R=SphereField.constant(grid, 1.0 + u),
                             ubar=float(u), residual_norm=0.0,
                             newton_trace=[], lambda_path=[1.0],
                             diagnostics={})
                for u in np.linspace(0.1, 0.5, 24)]
        tracemalloc.start()
        try:
            assemble(params, None, sols)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < sols[0].R.values.nbytes

    def test_window_slope_matches_half_amp2(self, profile_mid, assembly):
        # dR/dubar ~ amp2/2 pointwise inside the window (R = I/2 + tiny).
        amp = profile_mid.shear_amp
        for k in (2, 3, 4):
            ub = float(assembly.ubars[k])
            expected = 0.5 * profile_mid.amp2_at(ub)
            got = assembly.dR_dubar(k).values
            assert np.max(np.abs(got - expected)) < \
                profile_mid.params.o1 * 0.5 * amp

    def test_null_approach_after_cutoff(self, profile_mid, assembly):
        # Only stencils fully inside (lambda' delta, 2 delta] qualify;
        # a stencil touching the transition region sees its slope.
        d = profile_mid.derived
        amp = profile_mid.shear_amp
        checked = 0
        for k in range(1, len(assembly.ubars) - 1):
            if assembly.ubars[k - 1] > d.ubar_lambda_hi:
                assert np.max(np.abs(assembly.dR_dubar(k).values)) \
                    <= 1e-6 * amp
                checked += 1
        assert checked >= 1

    def test_h_values_window_level(self, profile_mid, params, assembly):
        # zeta == 1, zeta' == 0 in the window: h = amp/2.
        amp = profile_mid.shear_amp
        assert assembly.h_values[2] == pytest.approx(0.5 * amp, rel=1e-12)

    def test_derivative_probe_second_order(self, grid_small, params):
        # Synthetic radius R(ubar) = 1 + ubar + ubar^3: halving the
        # spacing quarters the stencil error.
        def fake(ubars):
            sols = []
            for u in ubars:
                sols.append(MotsSolution(
                    R=SphereField.constant(grid_small, 1 + u + u**3),
                    ubar=float(u), residual_norm=0.0, newton_trace=[],
                    lambda_path=[1.0], diagnostics={}))
            return sols

        errs = []
        for h in (0.1, 0.05):
            ubars = np.array([0.5 - h, 0.5, 0.5 + h])
            asm = assemble(params, None, fake(ubars))
            exact = 1 + 3 * 0.25
            errs.append(abs(asm.dR_dubar(1).values[0, 0] - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


class TestArea:
    def test_round_sphere_limit(self, grid_small, params):
        r = 2.0
        sols = [MotsSolution(R=SphereField.constant(grid_small, r),
                             ubar=float(u), residual_norm=0.0,
                             newton_trace=[], lambda_path=[1.0],
                             diagnostics={}) for u in (0.1, 0.2, 0.3)]
        big_f0 = replace(params, f0=1e15)
        asm = assemble(big_f0, None, sols)
        est = area(asm, 1)
        assert est.area_mid == pytest.approx(4 * math.pi * r * r,
                                             rel=1e-12)
        assert est.radius_proxy_mid == pytest.approx(r / 2, rel=1e-12)
        assert est.area_hi - est.area_lo < 1e-13 * est.area_mid

    def test_interval_contains_midpoint(self, assembly):
        for k in range(len(assembly.ubars)):
            est = area(assembly, k)
            assert est.area_lo <= est.area_mid <= est.area_hi
            assert est.radius_proxy_lo <= est.radius_proxy_mid \
                <= est.radius_proxy_hi

    def test_window_band_and_cutoff_value(self, profile_mid, assembly):
        d = profile_mid.derived
        o1 = profile_mid.params.o1
        amp = profile_mid.shear_amp
        for k, ub in enumerate(assembly.ubars):
            est = area(assembly, k)
            if ub <= d.ubar_lambda * (1 + 1e-12):
                lo = (0.25 - o1) * amp * ub
                hi = (0.25 + o1) * amp * ub
                assert lo <= est.radius_proxy_mid <= hi
            if ub >= d.ubar_lambda_hi:
                assert est.radius_proxy_mid == pytest.approx(
                    profile_mid.m0, rel=0.02)

    def test_radius_proxy_monotone_then_flat(self, profile_mid, assembly):
        d = profile_mid.derived
        proxies = [area(assembly, k).radius_proxy_mid
                   for k in range(len(assembly.ubars))]
        diffs = np.diff(proxies)
        assert np.all(diffs > -1e-12 * profile_mid.m0)
        tail = [p for ub, p in zip(assembly.ubars, proxies)
                if ub > d.ubar_lambda_hi]
        assert np.ptp(tail) < 1e-9 * profile_mid.m0


class TestSpacelike:
    def test_disc_hypothesis_disabled(self, profile_mid, params, ladder):
        ubars, solutions = ladder
        asm = assemble(params, profile_mid, solutions, disc_hypothesis=False)
        out = spacelike_check(asm, 2)
        assert out.status == "not-certified"
        assert "disc hypothesis" in out.reason

    def test_window_slice_spacelike(self, assembly):
        out = spacelike_check(assembly, 2)
        assert out.status == "spacelike"
        assert out.min_schur > 0.0
        assert out.min_sampled > 0.0

    def test_degenerate_h_not_certified(self, assembly):
        k = 2
        tampered = HorizonAssembly(
            params=assembly.params, ubars=assembly.ubars,
            solutions=assembly.solutions,
            h_values=[0.0] * len(assembly.ubars),
            disc_hypothesis=True)
        out = spacelike_check(tampered, k)
        assert out.status == "not-certified"
        assert "h = 0" in out.reason
        assert math.isnan(out.min_schur) and math.isnan(out.min_sampled)

