"""Quadrature, transforms, and differential operators on the sphere."""

import os
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import horizonlab
from horizonlab import sphere
from horizonlab.errors import GridMismatchError
from horizonlab.shear import ProfileSpec, build_profile
from horizonlab.sphere import (SphereField, SphereGrid, get_grid, integrate,
                               l2_norm)
from horizonlab.transport import integrate_data_cone


def sample(grid, fn):
    return SphereField(grid, fn(grid.theta_2d, grid.phi_2d))


def fd_laplacian(fn, theta, phi, h=1e-4):
    """Independent finite-difference Laplace-Beltrami oracle."""
    ftt = (fn(theta + h, phi) - 2 * fn(theta, phi) + fn(theta - h, phi)) \
        / h**2
    ft = (fn(theta + h, phi) - fn(theta - h, phi)) / (2 * h)
    fpp = (fn(theta, phi + h) - 2 * fn(theta, phi) + fn(theta, phi - h)) \
        / h**2
    return ftt + ft * np.cos(theta) / np.sin(theta) \
        + fpp / np.sin(theta)**2


def fd_gradsq(fn, theta, phi, h=1e-5):
    ft = (fn(theta + h, phi) - fn(theta - h, phi)) / (2 * h)
    fp = (fn(theta, phi + h) - fn(theta, phi - h)) / (2 * h)
    return ft**2 + (fp / np.sin(theta))**2


class TestGrid:
    def test_weights_sum_to_sphere_area(self):
        for nt, np_ in ((16, 32), (32, 64), (64, 128)):
            g = get_grid(nt, np_)
            assert abs(np.sum(g.weights) / (4 * np.pi) - 1) < 1e-12

    def test_weights_integrate_even_monomials_exactly(self):
        # Independent exact oracle: n-point Gauss-Legendre integrates
        # x^(2k) over [-1, 1] to 2/(2k+1) for every k < n.  Weights taken
        # from a generic eigenvalue routine miss this by up to 4e-13 at
        # n = 96; weights accurate to a few ulp stay near 1e-15.
        for n in (16, 32, 64, 96):
            g = get_grid(n, 2 * n)
            k = np.arange(n)
            moments = (g.x[None, :] ** (2 * k[:, None])) @ g.w_theta
            rel = np.abs(moments * (2 * k + 1) / 2.0 - 1.0)
            assert np.max(rel) < 1e-14, (n, np.max(rel))

    def test_nodes_match_refined_eigensolver_start(self):
        # Reference: the eigenvalue nodes of ``leggauss`` refined by two
        # longdouble Newton steps, weights from the same closed form.  The
        # nodes agree for every n; the weights agree except for one
        # mirrored pair each at n = 33, 37 and 107, which differ by 1 ulp
        # (against a 50-digit reference, these weights are the correctly
        # rounded ones at n = 33 and 107, the reference's at n = 37).  The
        # grids the package uses agree exactly.
        for n in range(1, 129):
            x = np.polynomial.legendre.leggauss(n)[0].astype(np.longdouble)
            for step in range(3):
                p_prev, p = np.ones_like(x), x
                for k in range(1, n):
                    p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
                dp = n * (x * p - p_prev) / (x * x - 1)
                if step < 2:
                    x = x - p / dp
            w = 2 / ((1 - x * x) * dp * dp)
            got_x, got_w = (a.astype(float)
                            for a in sphere._gauss_legendre(n))
            assert np.array_equal(got_x, x.astype(float)), n
            ulps = np.abs(got_w - w.astype(float)) / np.spacing(got_w)
            assert np.max(ulps) <= 1.0, n
            if n in (16, 32, 64, 96, 128):
                assert np.max(ulps) == 0.0, n
            if n % 2:
                mid = got_x[n // 2]
                assert mid == 0.0 and not np.signbit(mid), n
            assert np.array_equal(got_x, -got_x[::-1])
            assert np.array_equal(got_w, got_w[::-1])

    def test_no_polynomial_module_loaded(self):
        # Nodes come from Newton on an asymptotic start, not from an
        # eigensolver: a grid and a transform import no numpy.polynomial.
        src = os.path.dirname(os.path.dirname(horizonlab.__file__))
        code = ("import sys, numpy as np; "
                "from horizonlab.sphere import get_grid; "
                "get_grid(64, 128).analyze(np.ones((64, 128))); "
                "print(any(m.startswith('numpy.polynomial') "
                "for m in sys.modules))")
        proc = subprocess.run([sys.executable, "-c", code],
                              env=dict(os.environ, PYTHONPATH=src),
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_poles_excluded(self, grid_small):
        assert np.all(grid_small.sin_theta > 0)
        assert np.all(np.abs(grid_small.x) < 1)

    def test_longitude_resolution_guard(self):
        with pytest.raises(ValueError):
            get_grid(16, 16)

    def test_roundtrip_band_limited(self, grid_small):
        rng = np.random.default_rng(0)
        g = grid_small
        coeff = np.zeros((g.lmax + 1, g.lmax + 1), dtype=complex)
        for m in range(g.lmax + 1):
            coeff[m:, m] = rng.standard_normal(g.lmax + 1 - m)
            if m:
                coeff[m:, m] = coeff[m:, m] * 1j + rng.standard_normal(
                    g.lmax + 1 - m)
        coeff[:, 0] = coeff[:, 0].real
        vals = g.synthesize(coeff)
        assert np.max(np.abs(g.analyze(vals) - coeff)) < 1e-12


def loop_analyze(g, values):
    """Per-order reference analysis: one (l, node) table slice per m."""
    gf = np.fft.rfft(values, axis=1) / g.n_phi
    coeff = np.zeros((g.lmax + 1, g.lmax + 1), dtype=complex)
    for m in range(g.lmax + 1):
        coeff[m:, m] = g._p[m, m:] @ (g.w_theta * gf[:, m])
    return coeff


def loop_synthesize(g, coeff, tables, dphi=False):
    """Per-order reference synthesis; ``dphi`` applies d/dphi = i m."""
    h = np.zeros((g.n_theta, g.n_phi // 2 + 1), dtype=complex)
    for m in range(g.lmax + 1):
        h[:, m] = (1j * m if dphi else 1) * (tables[m, m:].T @ coeff[m:, m])
    return np.fft.irfft(h * g.n_phi, n=g.n_phi, axis=1)


def ps_table(g):
    """Dense Pbar/sin(theta) table [m, l, node], built here: the grid
    applies 1/sin(theta) as a node factor and holds no such table."""
    return g._p / g.sin_theta


def loop_hessian(g, values):
    """Per-order reference Hessian tables and synthesis."""
    coeff = loop_analyze(g, values)
    sin, cot = g.sin_theta, g.x / g.sin_theta
    ttt, ttp, tpp = (np.zeros_like(g._p) for _ in range(3))
    ps_all = ps_table(g)
    for m in range(g.lmax + 1):
        p, dp, ps = g._p[m, m:], g._dp[m, m:], ps_all[m, m:]
        l = np.arange(m, g.lmax + 1, dtype=float)[:, None]
        tpp[m, m:] = -(m * m) * ps / sin + cot * dp
        ttt[m, m:] = -(l * (l + 1.0)) * p - tpp[m, m:]
        ttp[m, m:] = (dp - g.x * ps) / sin
    return (loop_synthesize(g, coeff, ttt),
            loop_synthesize(g, coeff, ttp, dphi=True),
            loop_synthesize(g, coeff, tpp))


@pytest.mark.parametrize("nt", [pytest.param(16, id="16x32"),
                                pytest.param(64, id="64x128")])
class TestBatchedTransforms:
    """The batched Legendre passes against the per-order loop."""

    @staticmethod
    def close(got, want):
        return np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(want))

    @pytest.fixture
    def case(self, nt):
        g = get_grid(nt, 2 * nt)
        values = np.random.default_rng(nt).standard_normal(
            (g.n_theta, g.n_phi))
        return g, values

    def test_analyze_and_synthesize_match_loop(self, case):
        g, values = case
        coeff = loop_analyze(g, values)
        assert self.close(g.analyze(values), coeff)
        assert self.close(g.synthesize(coeff), loop_synthesize(g, coeff,
                                                               g._p))
        assert self.close(g.synthesize_dphi_over_sin(coeff),
                          loop_synthesize(g, coeff, ps_table(g), dphi=True))

    def test_hessian_matches_loop(self, case):
        g, values = case
        for got, want in zip(g.hessian_values(values),
                             loop_hessian(g, values)):
            assert self.close(got, want)

    def test_tables_vanish_below_the_order(self, case):
        g, _ = case
        below = np.arange(g.lmax + 1)[None, :] < np.arange(g.lmax + 1)[:, None]
        assert len(g._tables) == 2
        for table in (g._p, g._dp):
            assert table.shape == (g.lmax + 1, g.lmax + 1, g.n_theta)
            assert np.all(table[below] == 0.0)

    def test_stack_matches_loop_per_slice(self, case):
        g, _ = case
        stack = np.random.default_rng(g.n_theta + 1).standard_normal(
            (3, g.n_theta, g.n_phi))
        coeff = g.analyze(stack)
        assert coeff.shape == (3, g.lmax + 1, g.lmax + 1)
        ps = ps_table(g)
        outs = ((g.synthesize(coeff), g._p, False),
                (g.synthesize_dphi_over_sin(coeff), ps, True),
                *zip(g.gradient_values(stack), (g._dp, ps), (False, True)))
        for k, values in enumerate(stack):
            want = loop_analyze(g, values)
            assert self.close(coeff[k], want)
            for out, tables, dphi in outs:
                assert out.shape == stack.shape
                assert self.close(out[k],
                                  loop_synthesize(g, want, tables, dphi))

    def test_stack_of_one_equals_single_slice_exactly(self, case):
        g, values = case
        coeff = g.analyze(values)
        assert np.array_equal(g.analyze(values[None])[0], coeff)
        assert np.array_equal(g.synthesize(coeff[None])[0],
                              g.synthesize(coeff))
        assert np.array_equal(g.synthesize_dphi_over_sin(coeff[None])[0],
                              g.synthesize_dphi_over_sin(coeff))
        for got, want in zip(g.gradient_values(values[None]),
                             g.gradient_values(values)):
            assert np.array_equal(got[0], want)

    def test_derivatives_equal_separate_calls_exactly(self, case):
        g, values = case
        lap, gt, gp = g.derivatives(values)
        assert np.array_equal(
            lap, g.synthesize(g.analyze(values) * g._eig[:, None]))
        want_t, want_p = g.gradient_values(values)
        assert np.array_equal(gt, want_t)
        assert np.array_equal(gp, want_p)


class TestLazyTables:
    """A grid builds its Legendre tables at its first transform, once.
    Fresh grids from ``create``: a shared one may have built them."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        eager = sphere._legendre_tables

        def counting(x, lmax):
            calls.append(lmax)
            return eager(x, lmax)

        monkeypatch.setattr(sphere, "_legendre_tables", counting)
        return calls

    def test_built_once_at_first_transform(self, calls):
        g = SphereGrid.create(16, 32)
        assert len(calls) == 0
        values = np.random.default_rng(5).standard_normal((16, 32))
        coeff = g.analyze(values)
        assert len(calls) == 1
        g.synthesize(coeff)
        g.hessian_values(values)
        assert len(calls) == 1
        want = sphere._legendre_tables(sphere._gauss_legendre(16)[0], 15)
        assert len(want) == 2
        for got, ref in zip((g._p, g._dp), want):
            assert got.tobytes() == ref.tobytes()

    def test_first_transform_allocates_two_tables(self):
        # The first transform on a fresh 64x128 grid builds Pbar and
        # d/dtheta Pbar (2.1 MB each) and no Pbar/sin(theta) table: it
        # allocates less than 2.5 tables' worth (5.2 MB).
        g = SphereGrid.create(64, 128)
        values = np.random.default_rng(7).standard_normal((64, 128))
        tracemalloc.start()
        try:
            g.analyze(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * (g.lmax + 1) ** 2 * g.n_theta * 8

    def test_hessian_allocates_no_table(self):
        # With the two Legendre tables built, one Hessian allocates less
        # than one more (lmax + 1)^2 n_theta table would take (2.1 MB).
        g = SphereGrid.create(64, 128)
        values = np.random.default_rng(6).standard_normal((64, 128))
        g.analyze(values)
        tracemalloc.start()
        try:
            g.hessian_values(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < g._p.nbytes

    def test_cone_sweep_builds_none(self, calls, params):
        profile = build_profile(params, ProfileSpec(),
                                SphereGrid.create(64, 128))
        integrate_data_cone(profile, n_steps=256)
        assert len(calls) == 0


class TestIntegrate:
    def test_constant_gives_area(self, grid_small):
        # R^2 of the sphere of radius 3 over the unit sphere: its area.
        r2 = SphereField.constant(grid_small, 9.0)
        assert integrate(r2) == pytest.approx(36 * np.pi, rel=1e-13)

    def test_odd_function_vanishes(self, grid_small):
        f = sample(grid_small, lambda th, ph: np.cos(th))
        assert abs(integrate(f)) < 1e-12

    def test_cos_squared(self, grid_small):
        # Analytic value 4*pi/3; Gauss-Legendre reproduces it exactly.
        f = sample(grid_small, lambda th, ph: np.cos(th)**2)
        assert integrate(f) == pytest.approx(4 * np.pi / 3, rel=1e-13)

    @given(st.lists(st.floats(-2, 2), min_size=1, max_size=6))
    @settings(max_examples=25, deadline=None)
    def test_polynomials_in_cos_theta_exact(self, coeffs):
        g = get_grid(16, 32)
        poly = np.polynomial.Polynomial(coeffs)
        f = sample(g, lambda th, ph: poly(np.cos(th)))
        exact = 2 * np.pi * (poly.integ()(1.0) - poly.integ()(-1.0))
        assert integrate(f) == pytest.approx(exact, abs=1e-10 + 1e-12
                                             * abs(exact))


class TestLaplacian:
    def test_constant_is_harmonic(self, grid_small):
        f = SphereField.constant(grid_small, 7.0)
        floor = 7.0 * grid_small.lmax**2 * np.finfo(float).eps
        assert np.max(np.abs(grid_small.derivatives(f.values)[0])) \
            < 10 * floor

    @pytest.mark.parametrize("nt, bound", [
        pytest.param(16, 2.5e-13, id="16x32"),
        pytest.param(32, 2e-12, id="32x64"),
        pytest.param(64, 1e-11, id="64x128")])
    def test_constant_mode_leak_pinned(self, nt, bound):
        # Pins the constant-mode leak at about twice what accurate weights
        # and Legendre tables evaluated in extended precision at the
        # unrounded nodes reach (1.1e-13, 9.9e-13, 4.3e-12 for the constant
        # 7), below the floor 10 * 7 * lmax^2 * eps (3.5e-12, 1.5e-11,
        # 6.2e-11).  Tables evaluated at the rounded float64 nodes leak
        # 6.0e-13, 9.7e-12, 3.4e-10.  A change to the transforms may lower
        # these bounds but must not raise them.
        g = get_grid(nt, 2 * nt)
        f = SphereField.constant(g, 7.0)
        assert np.max(np.abs(g.derivatives(f.values)[0])) < bound

    def test_l1_eigenvalue(self, grid_small):
        f = sample(grid_small, lambda th, ph: np.cos(th))
        out = grid_small.derivatives(f.values)[0]
        assert np.max(np.abs(out + 2 * f.values)) < 1e-11

    def test_nontrivial_field_against_fd_oracle(self, grid_mid):
        def fn(th, ph):
            return np.sin(th)**2 * np.cos(2 * ph) + 0.5 * np.cos(th)**3

        f = sample(grid_mid, fn)
        out = grid_mid.derivatives(f.values)[0]
        oracle = fd_laplacian(fn, grid_mid.theta_2d, grid_mid.phi_2d)
        assert np.max(np.abs(out - oracle)) < 1e-5

    def test_eigenvalues_at_roundoff_floor_both_grids(self):
        # Spectral design order: resolved harmonics are exact eigenmodes
        # at every resolution, not merely converging ones.
        for nt, nph in ((16, 32), (32, 64)):
            g = get_grid(nt, nph)
            rng = np.random.default_rng(5)
            for l in range(1, 9):
                coeff = np.zeros((g.lmax + 1, g.lmax + 1), dtype=complex)
                m = rng.integers(0, l + 1)
                coeff[l, m] = 1.0 if m == 0 else 1.0 + 0.5j
                vals = g.synthesize(coeff)
                lap = g.derivatives(vals)[0]
                err = np.max(np.abs(lap + l * (l + 1) * vals))
                assert err < 1e-10 * max(1.0, np.max(np.abs(vals)))

    def test_eigenvalues_to_roundoff_at_default_grid(self):
        # Every resolved degree of the default 64x128 grid, at the zonal,
        # a middle and the sectoral order.  The worst case measured
        # 4.1e-13 * l(l+1) * max(1, max|Y|), at (l, m) = (1, 1).
        g = get_grid(64, 128)
        for l in range(1, g.lmax + 1):
            for m in sorted({0, l // 2, l}):
                coeff = np.zeros((g.lmax + 1, g.lmax + 1), dtype=complex)
                coeff[l, m] = 1.0 if m == 0 else 1.0 + 0.5j
                vals = g.synthesize(coeff)
                err = np.max(np.abs(g.derivatives(vals)[0]
                                    + l * (l + 1) * vals))
                assert err < 8e-13 * l * (l + 1) * max(
                    1.0, np.max(np.abs(vals))), (l, m)

    def test_self_adjoint_wrt_quadrature(self, grid_mid):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((grid_mid.n_theta, grid_mid.n_phi))
        b = rng.standard_normal((grid_mid.n_theta, grid_mid.n_phi))
        fa, fb = SphereField(grid_mid, a), SphereField(grid_mid, b)
        lhs = integrate(SphereField(grid_mid,
                                    a * grid_mid.derivatives(b)[0]))
        rhs = integrate(SphereField(grid_mid,
                                    b * grid_mid.derivatives(a)[0]))
        scale = l2_norm(fa) * l2_norm(fb) * grid_mid.lmax**2
        assert abs(lhs - rhs) <= 1e-10 * scale

    def test_self_adjoint_at_default_grid(self):
        # Measured 1.4e-18 of the scale for this pair at 64x128.
        g = get_grid(64, 128)
        rng = np.random.default_rng(3)
        a = rng.standard_normal((g.n_theta, g.n_phi))
        b = rng.standard_normal((g.n_theta, g.n_phi))
        lhs = integrate(SphereField(g, a * g.derivatives(b)[0]))
        rhs = integrate(SphereField(g, b * g.derivatives(a)[0]))
        scale = (l2_norm(SphereField(g, a)) * l2_norm(SphereField(g, b))
                 * g.lmax**2)
        assert abs(lhs - rhs) <= 3e-18 * scale

    def test_divergence_theorem(self, grid_small):
        rng = np.random.default_rng(11)
        g = grid_small
        coeff = np.zeros((g.lmax + 1, g.lmax + 1), dtype=complex)
        coeff[1:6, 0] = rng.standard_normal(5)
        f = SphereField(g, g.synthesize(coeff))
        assert abs(integrate(SphereField(g, g.derivatives(f.values)[0]))) \
            < 1e-11


class TestGradient:
    def test_constant(self, grid_small):
        f = SphereField.constant(grid_small, 4.0)
        gt, gp = grid_small.gradient_values(f.values)
        assert np.max(gt * gt + gp * gp) < 1e-20

    def test_cos_theta(self, grid_small):
        f = sample(grid_small, lambda th, ph: np.cos(th))
        gt, gp = grid_small.gradient_values(f.values)
        out = gt * gt + gp * gp
        assert np.max(np.abs(out - np.sin(grid_small.theta_2d)**2)) < 1e-11

    def test_against_fd_oracle(self, grid_mid):
        def fn(th, ph):
            return np.sin(th) * np.cos(ph) + 0.3 * np.cos(th)**2

        f = sample(grid_mid, fn)
        gt, gp = grid_mid.gradient_values(f.values)
        out = gt * gt + gp * gp
        oracle = fd_gradsq(fn, grid_mid.theta_2d, grid_mid.phi_2d)
        assert np.max(np.abs(out - oracle)) < 1e-7
        assert np.min(out) >= 0.0

    def test_frame_components(self, grid_small):
        f = sample(grid_small, lambda th, ph: np.sin(th) * np.sin(ph))
        gt, gp = grid_small.gradient_values(f.values)
        assert np.max(np.abs(gt - np.cos(grid_small.theta_2d)
                             * np.sin(grid_small.phi_2d))) < 1e-11
        assert np.max(np.abs(gp - np.cos(grid_small.phi_2d))) < 1e-11


class TestFieldValidation:
    def test_nonfinite_rejected(self, grid_small):
        vals = np.zeros((grid_small.n_theta, grid_small.n_phi))
        vals[0, 0] = np.nan
        with pytest.raises(ValueError):
            SphereField(grid_small, vals)

    def test_shape_mismatch(self, grid_small):
        with pytest.raises(GridMismatchError):
            SphereField(grid_small, np.zeros((3, 4)))

