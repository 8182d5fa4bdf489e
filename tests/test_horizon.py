"""Horizon assembly, areas, ubar-derivatives, and the spacelike test."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from horizonlab.horizon import (HorizonAssembly, area, assemble,
                                spacelike_check)
from horizonlab.mots import make_problem, solve_slice
from horizonlab.sphere import SphereField, get_grid


@pytest.fixture(scope="module")
def ladder(profile_mid):
    d = profile_mid.derived
    window = np.geomspace(d.ubar_start, d.ubar_lambda, 6)
    trans = np.linspace(d.ubar_lambda, d.ubar_lambda_hi, 4)[1:-1]
    tail = np.linspace(d.ubar_lambda_hi, d.ubar_end, 4)[1:]
    ubars = np.concatenate([window, trans, tail])
    radii = [solve_slice(make_problem(profile_mid, float(ub),
                                      seed=100 + i, beta=0.4)).R
             for i, ub in enumerate(ubars)]
    return ubars, radii


@pytest.fixture(scope="module")
def assembly(profile_mid, params, ladder):
    ubars, radii = ladder
    return assemble(params, profile_mid, ubars, radii, disc_hypothesis=True)


class TestAssemble:
    def test_ordering_enforced(self, profile_mid, params, ladder):
        ubars, radii = ladder
        with pytest.raises(ValueError):
            assemble(params, profile_mid, ubars[::-1], radii[::-1],
                     disc_hypothesis=False)

    def test_interior_derivatives_present(self, assembly):
        n = len(assembly.ubars)
        assert assembly.dR_dubar(0) is None
        assert assembly.dR_dubar(-1) is None
        assert assembly.dR_dubar(n - 1) is None
        assert all(assembly.dR_dubar(k) is not None for k in range(1, n - 1))

    def test_derivative_is_the_centered_stencil_exactly(self, assembly):
        u = assembly.ubars
        R = [r.values for r in assembly.radii]
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
        ubars = np.linspace(0.1, 0.5, 24)
        radii = [SphereField.constant(grid, 1.0 + u) for u in ubars]
        tracemalloc.start()
        try:
            assemble(params, None, ubars, radii, disc_hypothesis=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < radii[0].values.nbytes

    def test_window_slope_matches_half_amp2(self, profile_mid, assembly):
        # dR/dubar ~ amp2/2 pointwise inside the window (R = I/2 + tiny).
        amp = profile_mid.derived.shear_amp
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
        amp = profile_mid.derived.shear_amp
        checked = 0
        for k in range(1, len(assembly.ubars) - 1):
            if assembly.ubars[k - 1] > d.ubar_lambda_hi:
                assert np.max(np.abs(assembly.dR_dubar(k).values)) \
                    <= 1e-6 * amp
                checked += 1
        assert checked >= 1

    def test_h_values_window_level(self, profile_mid, params, assembly):
        # zeta == 1, zeta' == 0 in the window: h = amp/2.
        amp = profile_mid.derived.shear_amp
        assert assembly.h_values[2] == pytest.approx(0.5 * amp, rel=1e-12)

    def test_derivative_probe_second_order(self, grid_small, params):
        # Synthetic radius R(ubar) = 1 + ubar + ubar^3: halving the
        # spacing quarters the stencil error.
        errs = []
        for h in (0.1, 0.05):
            ubars = np.array([0.5 - h, 0.5, 0.5 + h])
            radii = [SphereField.constant(grid_small, 1 + u + u**3)
                     for u in ubars]
            asm = assemble(params, None, ubars, radii, disc_hypothesis=False)
            exact = 1 + 3 * 0.25
            errs.append(abs(asm.dR_dubar(1).values[0, 0] - exact))
        assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.05)


class TestArea:
    def test_round_sphere_limit(self, grid_small, params):
        r = 2.0
        radii = [SphereField.constant(grid_small, r)] * 3
        big_f0 = replace(params, f0=1e15)
        asm = assemble(big_f0, None, (0.1, 0.2, 0.3), radii,
                       disc_hypothesis=False)
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
        amp = profile_mid.derived.shear_amp
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
        ubars, radii = ladder
        asm = assemble(params, profile_mid, ubars, radii,
                       disc_hypothesis=False)
        out = spacelike_check(asm, 2)
        assert out.status == "not-certified"
        assert "disc hypothesis" in out.reason

    def test_window_slice_spacelike(self, assembly):
        out = spacelike_check(assembly, 2)
        assert out.status == "spacelike"
        assert out.min_schur > 0.0

    @staticmethod
    def smallest_eigenvalue(assembly, k):
        # The smallest eigenvalue over the nodes of the 3x3 form
        # [[g11, 0, q13], [0, g22, q23], [q13, q23, q33]]: an oracle that
        # does not go through the Schur complement.  On these slices the
        # entries run from R^2 ~ 1e-20 to q33 ~ 1e73, so eigvalsh's absolute
        # error (eps times the norm) would swamp the smallest eigenvalue;
        # the form is taken as D A D with D = |diag A|^(-1/2) (1 where the
        # diagonal is 0), whose eigenvalues have the signs of A's
        # (Sylvester's law of inertia).
        R = assembly.radii[k]
        gt, gp = R.grid.gradient_values(R.values)
        sin = R.grid.sin_theta[:, None]
        g11 = R.values ** 2
        g22 = g11 * sin ** 2
        q13, q23 = 2.0 * gt, 2.0 * gp * sin
        q33 = np.full_like(g11, assembly.h_values[k]
                           * (1.0 + assembly.params.o1))
        zero = np.zeros_like(g11)
        form = np.stack([np.stack([g11, zero, q13], -1),
                         np.stack([zero, g22, q23], -1),
                         np.stack([q13, q23, q33], -1)], -2)
        diag = np.abs(np.diagonal(form, axis1=-2, axis2=-1))
        scale = 1.0 / np.sqrt(np.where(diag > 0.0, diag, 1.0))
        form *= scale[..., :, None] * scale[..., None, :]
        return float(np.min(np.linalg.eigvalsh(form)))

    def test_verdict_is_the_eigenvalue_oracle(self, assembly):
        # spacelike exactly where every node's form is positive definite,
        # and a formed margin has the sign of the smallest eigenvalue.
        verdicts = set()
        for k in range(len(assembly.ubars)):
            out = spacelike_check(assembly, k)
            lam = self.smallest_eigenvalue(assembly, k)
            assert (out.status == "spacelike") == (lam > 0.0), k
            if out.min_schur is not None:
                assert (out.min_schur > 0.0) == (lam > 0.0), k
            verdicts.add(out.status)
        assert verdicts == {"spacelike", "not-certified"}

    @staticmethod
    def with_h(assembly, h):
        return HorizonAssembly(params=assembly.params, ubars=assembly.ubars,
                               radii=assembly.radii,
                               h_values=[h] * len(assembly.ubars))

    def test_tiny_h_not_positive_definite(self, assembly):
        # h > 0 passes the null test, but the cross terms dR/dtheta win.
        k = 2
        tampered = self.with_h(assembly, 1e-30)
        out = spacelike_check(tampered, k)
        assert out.status == "not-certified"
        assert out.reason == "quadratic form not positive definite"
        assert out.min_schur < 0.0
        assert self.smallest_eigenvalue(tampered, k) < 0.0

    def test_verdict_flips_where_the_oracle_does(self, assembly):
        # Bisect for the h at which the oracle's smallest eigenvalue turns
        # positive.  Both cross terms move that point (dropping the
        # dR/dtheta2 one lowers it by 0.15 %), so the verdict must flip
        # within 1e-6 of it.
        k = 2
        lo, hi = 1e-30, 1.0
        assert self.smallest_eigenvalue(self.with_h(assembly, lo), k) < 0.0
        assert self.smallest_eigenvalue(self.with_h(assembly, hi), k) > 0.0
        for _ in range(60):
            mid = math.sqrt(lo * hi)
            if self.smallest_eigenvalue(self.with_h(assembly, mid), k) > 0.0:
                hi = mid
            else:
                lo = mid
        assert hi / lo < 1.0 + 1e-8
        above = spacelike_check(self.with_h(assembly, hi * (1.0 + 1e-6)), k)
        below = spacelike_check(self.with_h(assembly, lo * (1.0 - 1e-6)), k)
        assert above.status == "spacelike" and above.min_schur > 0.0
        assert below.status == "not-certified" and below.min_schur < 0.0

    def test_degenerate_h_not_certified(self, assembly):
        k = 2
        tampered = HorizonAssembly(
            params=assembly.params, ubars=assembly.ubars,
            radii=assembly.radii,
            h_values=[0.0] * len(assembly.ubars))
        out = spacelike_check(tampered, k)
        assert out.status == "not-certified"
        assert "h = 0" in out.reason
        assert out.min_schur is None

