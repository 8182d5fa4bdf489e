"""Residual oracles, Newton/continuation behavior, and a-priori bounds."""

import math

import numpy as np
import pytest

from horizonlab import mots, shear
from horizonlab.cli import _slice_ladder
from horizonlab.errors import PositivityError
from horizonlab.horizon import area, assemble
from horizonlab.mots import (MotsProblem, SolveOptions, _eval_residual,
                             gmres, make_problem, residual_H,
                             sample_perturbations, solve_slice,
                             verify_apriori)
from horizonlab.penrose import Interval, margin
from horizonlab.regime import RegimeParameters
from horizonlab.shear import ProfileSpec, ShearProfile, build_profile
from horizonlab.sphere import SphereField, get_grid, integrate, l2_norm


def residual_G(problem, R, lam):
    """Continuity family G: H with the perturbation coefficients scaled by
    lam, the residual the solver drives to zero at each continuation
    step.  G(., 0) has the explicit constant-coefficient solution and
    G(., 1) is the discretized trchi' = 0 equation.
    """
    res, _ = _eval_residual(problem, R.values, c_scale=lam)
    return SphereField(problem.grid, res)


def expansion_of_graph(problem, R):
    """Null expansion trchi' of the graph sphere, via the background route.

    Reconstructs the interior fields realizing the slice coefficients
    (lapse 1, trchibar = -2/R, eta and omegabar from c1 and c2, trchi
    from the leading model plus c3) and evaluates the frame-transformed
    expansion directly.  Up to the factor -2 this must reproduce
    residual_H; the two routes share no algebra beyond the operators.
    """
    grid = problem.grid
    Rv = R.values
    s = problem.pert_scale
    lap = grid.derivatives(Rv)[0]
    gt, gp = grid.gradient_values(Rv)
    R2 = Rv * Rv
    eta_t = s * problem.c1_theta / (2.0 * R2)
    eta_p = s * problem.c1_phi / (2.0 * R2)
    omegabar = s * problem.c2 / (4.0 * R2)
    trchibar = -2.0 / Rv
    trchi = (2.0 / Rv - problem.M0.values / R2
             - 2.0 * s * problem.c3 / R2)
    lap_prime = lap / R2
    gsq_prime = (gt * gt + gp * gp) / R2
    eta_dot = (eta_t * gt + eta_p * gp) / Rv
    out = (trchi - 2.0 * lap_prime - 4.0 * eta_dot
           - trchibar * gsq_prime - 8.0 * omegabar * gsq_prime)
    return SphereField(grid, out)


def per_call_perturbations(grid, params, seed, beta):
    """The sampler with its seven basis fields built on every call, as
    before they were kept per grid; ``sample_perturbations`` must give
    the same bits."""
    rng = np.random.default_rng(seed)
    th, ph = grid.theta_2d, grid.phi_2d
    basis = [np.ones_like(th), np.cos(th), np.sin(th) * np.cos(ph),
             np.sin(th) * np.sin(ph), 0.5 * (3.0 * np.cos(th) ** 2 - 1.0),
             np.sin(th) ** 2 * np.cos(2.0 * ph),
             np.sin(th) * np.cos(th) * np.sin(ph)]

    def smooth():
        c = rng.standard_normal(len(basis))
        f = sum(ci * bi for ci, bi in zip(c, basis))
        return f / np.max(np.abs(f))

    target = beta * params.b ** 0.25
    raw_t, raw_p = smooth(), smooth()
    nrm = np.max(np.hypot(raw_t, raw_p))
    c2s = smooth() * (target / np.sqrt(2.0))
    return {"c1_theta": raw_t * (target / nrm),
            "c1_phi": raw_p * (target / nrm),
            "c2": c2s, "c3": smooth() * target}


def make_synthetic(grid, M0_values, pert_scale=0.0, coeff_bound=1.0,
                   seed=None, beta=0.0, zbar=1.0, m0=0.5):
    """Unit-scale slice problem for exercising the solver dynamics."""
    shape = (grid.n_theta, grid.n_phi)
    if seed is None or beta == 0.0:
        fields = {k: np.zeros(shape) for k in
                  ("c1_theta", "c1_phi", "c2", "c3")}
    else:
        class P:  # only b**0.25 is read by the sampler
            b = coeff_bound ** 4
        fields = sample_perturbations(grid, P, seed, beta)
    return MotsProblem(grid=grid, ubar=1.0,
                       M0=SphereField(grid, M0_values),
                       pert_scale=pert_scale, zbar=zbar, m0=m0,
                       coeff_bound=coeff_bound, **fields)


class TestResidual:
    def test_constant_solution_is_exact(self, grid_small):
        M = 3.0
        prob = make_synthetic(grid_small, np.full((16, 32), M))
        R = SphereField.constant(grid_small, M / 2)
        res = residual_H(prob, R)
        floor = grid_small.lmax**2 * np.finfo(float).eps * (2.0 / M)
        assert np.max(np.abs(res.values)) < 20 * floor

    def test_l1_mode_leading_term(self, grid_small):
        # R = (M/2)(1 + eps cos theta): residual = (2/M)(-3 eps cos theta
        # + eps^2 (6 cos^2 - sin^2)) + O(eps^3), derived by expansion.
        M = 3.0
        r = M / 2
        prob = make_synthetic(grid_small, np.full((16, 32), M))
        th = grid_small.theta_2d
        for eps in (1e-3, 1e-4):
            R = SphereField(grid_small, r * (1 + eps * np.cos(th)))
            res = residual_H(prob, R)
            c = np.cos(th)
            expected = (-3 * eps * c
                        + eps**2 * (6 * c * c - (1 - c * c))) / r
            assert np.max(np.abs(res.values - expected)) < 40 * eps**3 / r

    def test_l1_mode_refined_grid_oracle(self):
        # Same analytic configuration evaluated on a doubled grid must
        # produce the same residual function (compare low moments).
        M, eps = 3.0, 1e-3
        moments = []
        for nt, nph in ((16, 32), (32, 64)):
            g = get_grid(nt, nph)
            prob = make_synthetic(g, np.full((nt, nph), M))
            R = SphereField(g, M / 2 * (1 + eps * np.cos(g.theta_2d)))
            res = residual_H(prob, R)
            m1 = integrate(SphereField(g, res.values
                                       * np.cos(g.theta_2d)))
            moments.append(m1)
        assert moments[0] == pytest.approx(moments[1], rel=1e-10)

    def test_slowly_varying_M0(self, grid_small):
        eps = 0.01
        th = grid_small.theta_2d
        M0 = 2.0 * (1 + eps * np.cos(th))
        prob = make_synthetic(grid_small, M0)
        R = SphereField(grid_small, M0 / 2)
        res = residual_H(prob, R)
        lap_term = grid_small.derivatives(M0 / 2)[0] / (M0 / 2) ** 2
        # residual = Delta'(M0/2) - |grad R|^2/R: remainder is O(eps^2)
        assert np.max(np.abs(res.values - lap_term)) < 2 * eps**2

    def test_positivity_guard(self, grid_small):
        prob = make_synthetic(grid_small, np.full((16, 32), 2.0))
        bad = SphereField(grid_small, np.full((16, 32), -1.0))
        with pytest.raises(PositivityError):
            residual_H(prob, bad)


class TestContinuityFamilies:
    @pytest.fixture()
    def window_problem(self, profile_mid):
        d = profile_mid.derived
        return make_problem(profile_mid, 0.5 * d.ubar_lambda, seed=11,
                            beta=0.4)

    def test_G1_is_the_expansion_equation(self, window_problem, grid_mid):
        rng = np.random.default_rng(5)
        R = SphereField(grid_mid, window_problem.M0.values / 2
                        * (1 + 0.02 * rng.standard_normal(
                            window_problem.M0.values.shape)))
        g1 = residual_G(window_problem, R, 1.0)
        h = residual_H(window_problem, R)
        assert np.array_equal(g1.values, h.values)
        # Independent route: the frame-transformed expansion of Prop-style
        # background fields must reproduce H up to the factor -2.
        tr = expansion_of_graph(window_problem, R)
        scale = np.max(np.abs(h.values))
        assert np.max(np.abs(h.values + 0.5 * tr.values)) < 1e-11 * scale

    def test_explicit_base_solution(self, grid_small):
        M = 4.0
        prob = make_synthetic(grid_small, np.full((16, 32), M),
                              pert_scale=0.7, seed=3, beta=0.5)
        R = SphereField.constant(grid_small, M / 2)
        base = residual_G(prob, R, 0.0)
        assert np.max(np.abs(base.values)) < 1e-13
        full = residual_H(prob, R)
        assert np.max(np.abs(full.values)) > 1e-3   # perturbations matter


class TestGmres:
    @pytest.fixture()
    def system(self):
        # diagonally dominant, nonsymmetric, diagonal spread over two
        # decades so the Jacobi preconditioner does real work
        rng = np.random.default_rng(3)
        n = 12
        A = np.diag(np.logspace(0, 2, n)) + rng.standard_normal((n, n))
        return A, rng.standard_normal(n)

    def test_matches_dense_solve(self, system):
        A, b = system
        d = np.diag(A).copy()
        x, info, iterations = gmres(lambda v: A @ v, b, lambda v: v / d,
                                    1e-12, 60, 4)
        assert info == 0
        assert 0 < iterations <= b.size
        assert np.linalg.norm(b - A @ x) <= 1e-12 * np.linalg.norm(b)
        ref = np.linalg.solve(A, b)
        assert np.max(np.abs(x - ref)) <= 1e-10 * np.max(np.abs(ref))

    def test_restart_reaches_true_tolerance(self):
        # Jacobi over four decades: an 11-vector cycle stops short of
        # rtol |b|, so the restarts must carry the solve on from the true
        # residual to converge at all
        rng = np.random.default_rng(1)
        d = np.logspace(0, 4, 20)
        A = np.diag(d) + rng.standard_normal((20, 20))
        b = rng.standard_normal(20)
        x, info, _ = gmres(lambda v: A @ v, b, lambda v: v / d, 1e-10, 11, 4)
        assert info == 0
        assert np.linalg.norm(b - A @ x) <= 1e-10 * np.linalg.norm(b)

    def test_one_product_per_iteration_and_restart(self, system):
        # Right preconditioning: each iteration applies psolve and matvec
        # once, each restart takes one true residual, and a cycle that
        # meets the target takes none.  psolve may return one reused
        # buffer, as an in-place preconditioner would: x, info and the
        # iterations equal a fresh-copy run's.
        A, b = system
        d = np.diag(A).copy()
        calls = {"psolve": 0, "matvec": 0}
        buf = np.empty_like(b)

        def psolve(v):
            calls["psolve"] += 1
            return np.divide(v, d, out=buf)

        def matvec(v):
            calls["matvec"] += 1
            return A @ v

        restart = 6
        x, info, iterations = gmres(matvec, b, psolve, 1e-12, restart, 20)
        assert info == 0
        restarts = (iterations - 1) // restart
        assert restarts >= 2
        assert calls["psolve"] == iterations
        assert calls["matvec"] == iterations + restarts
        x_ref, info_ref, iterations_ref = gmres(
            lambda v: A @ v, b, lambda v: v / d, 1e-12, restart, 20)
        assert x.tobytes() == x_ref.tobytes()
        assert (info, iterations) == (info_ref, iterations_ref)

    @pytest.mark.parametrize("restart", [3, 60])
    @pytest.mark.parametrize("rtol", [1e-4, 1e-8, 1e-12])
    def test_reported_residual_is_true(self, system, rtol, restart):
        # info == 0 exactly when the residual recomputed with A meets
        # rtol |b|, so the Krylov estimate a converged cycle stops on must
        # hold: on the Jacobi system and the four-decade one, with
        # restarts that stall and restarts that converge
        rng = np.random.default_rng(1)
        wide = np.diag(np.logspace(0, 4, 20)) + rng.standard_normal((20, 20))
        for A, b in (system, (wide, rng.standard_normal(20))):
            d = np.diag(A).copy()
            x, info, _ = gmres(lambda v: A @ v, b, lambda v: v / d,
                               rtol, restart, 8)
            met = np.linalg.norm(b - A @ x) <= rtol * np.linalg.norm(b)
            assert (info == 0) == met

    def test_exhausted_iterations_report_info(self, system):
        A, b = system
        x, info, iterations = gmres(lambda v: A @ v, b, lambda v: v,
                                    1e-12, 2, 1)
        assert info > 0
        assert iterations == 2
        assert np.all(np.isfinite(x))

    def test_singular_system_reports_info(self):
        # b lies outside the range of A: the Krylov basis breaks down at
        # once on a zero Hessenberg column, which must end as info > 0,
        # with no 0/0 in the rotation or the triangular solve
        A = np.array([[1.0, 0.0], [0.0, 0.0]])
        b = np.array([0.0, 1.0])
        with np.errstate(all="raise"):
            x, info, iterations = gmres(lambda v: A @ v, b, lambda v: v,
                                        1e-10, 60, 4)
        assert info > 0
        assert iterations == 1
        assert np.array_equal(x, np.zeros(2))


class TestSolve:
    def test_constant_slice_exact(self, profile_mid):
        d = profile_mid.derived
        prob = make_problem(profile_mid, 1.5 * d.delta, seed=1, beta=0.0)
        sol = solve_slice(prob)
        assert np.max(np.abs(sol.R.values / (2 * profile_mid.m0) - 1)) \
            < 1e-12
        base = sol.newton_trace[0]
        assert base["iterations"] <= 3

    def test_window_slice_in_band(self, profile_mid, params):
        d = profile_mid.derived
        prob = make_problem(profile_mid, 0.4 * d.ubar_lambda, seed=9,
                            beta=0.4)
        sol = solve_slice(prob)
        rep = verify_apriori(sol.R, prob, params)
        assert rep.passed
        assert sol.residual_norm <= sol.diagnostics["tol_abs"]

    def test_scaling_covariance_bitwise(self, grid_small):
        rng = np.random.default_rng(8)
        th, ph = grid_small.theta_2d, grid_small.phi_2d
        M0 = 2.0 * (1 + 0.15 * np.cos(th) + 0.1 * np.sin(th) * np.cos(ph))
        s = 1024.0
        sol1 = solve_slice(make_synthetic(grid_small, M0))
        sol2 = solve_slice(make_synthetic(grid_small, s * M0))
        assert np.array_equal(sol2.R.values, s * sol1.R.values)

    def test_newton_quadratic_convergence(self, grid_small):
        th, ph = grid_small.theta_2d, grid_small.phi_2d
        M0 = 2.0 * (1 + 0.3 * np.cos(th) + 0.2 * np.sin(th) * np.cos(ph))
        prob = make_synthetic(grid_small, M0)
        # tight linear solves so the inexact-Newton floor sits below the
        # quadratic regime under test
        opts = SolveOptions(newton_tol=1e-12, lin_tol=1e-12)
        sol = solve_slice(prob, opts,
                          initial_guess=SphereField.constant(
                              grid_small, float(np.mean(M0)) / 2))
        norms = np.array(sol.newton_trace[0]["norms"])
        e = norms / norms[0]
        tail = [(e[k], e[k + 1]) for k in range(len(e) - 1)
                if 3e-6 < e[k] < 0.1]
        assert tail, "need at least one contraction step in range"
        for ek, ek1 in tail:
            assert ek1 <= 100 * ek * ek

    def test_continuation_with_strong_perturbations(self, grid_small):
        # Unit-scale problem where the c-terms genuinely deform the
        # equation: continuation and direct Newton must agree.
        th, ph = grid_small.theta_2d, grid_small.phi_2d
        M0 = 2.0 * (1 + 0.1 * np.cos(th))
        prob = make_synthetic(grid_small, M0, pert_scale=0.25, seed=21,
                              beta=0.6)
        sol_cont = solve_slice(prob)
        assert sol_cont.lambda_path[-1] == 1.0
        assert len(sol_cont.lambda_path) >= 3
        sol_dir = solve_slice(prob, initial_guess=sol_cont.R)
        diff = np.max(np.abs(sol_cont.R.values - sol_dir.R.values))
        assert diff <= 10 * sol_cont.diagnostics["tol_abs"]

    def test_carried_parts_change_no_result(self, grid_small, monkeypatch):
        # The mots-ladder regime, where the continuation walks.  Each
        # Newton call after the base one starts from the radius the call
        # before it accepted and takes that radius's derivative parts, so
        # it saves one transform; one forced rejection makes a retry
        # from the same radius, which keeps them too.
        params = RegimeParameters(a=100.0, y=4.0)
        profile = build_profile(params, ProfileSpec(n_ubar=129), grid_small)
        prob = make_problem(profile, 0.5 * profile.derived.ubar_lambda,
                            seed=3, beta=0.4)
        newton, evaluate = mots._newton, mots._eval_residual
        derivatives = grid_small.derivatives

        def solve():
            calls = {"derivatives": 0, "newton": 0, "rejected": 0}

            def count_derivatives(values):
                calls["derivatives"] += 1
                return derivatives(values)

            def reject_once(*args):
                out = newton(*args)
                calls["newton"] += 1
                if args[6] == "continuation" and not calls["rejected"]:
                    calls["rejected"] += 1
                    raise mots._NewtonFail("forced rejection")
                return out

            monkeypatch.setattr(grid_small, "derivatives", count_derivatives)
            monkeypatch.setattr(mots, "_newton", reject_once)
            return solve_slice(prob), calls

        sol, calls = solve()
        monkeypatch.setattr(mots, "_eval_residual",
                            lambda problem, Rv, c_scale=1.0, aux=None:
                            evaluate(problem, Rv, c_scale))
        ref, ref_calls = solve()
        assert len(sol.lambda_path) >= 3 and calls["rejected"] == 1
        assert sol.R.values.tobytes() == ref.R.values.tobytes()
        assert sol.lambda_path == ref.lambda_path
        assert sol.newton_trace == ref.newton_trace
        assert calls["newton"] == ref_calls["newton"]
        assert (calls["derivatives"]
                == ref_calls["derivatives"] - (calls["newton"] - 1))

    def test_uniqueness_from_random_admissible_guesses(self, profile_mid):
        d = profile_mid.derived
        prob = make_problem(profile_mid, 0.6 * d.ubar_lambda, seed=2,
                            beta=0.4)
        ref = solve_slice(prob)
        rng = np.random.default_rng(31)
        th, ph = profile_mid.grid.theta_2d, profile_mid.grid.phi_2d
        r_tol = 1e-9 * float(np.mean(ref.R.values))
        for _ in range(4):
            c = 0.04 * rng.standard_normal(3)
            mode = (c[0] * np.cos(th) + c[1] * np.sin(th) * np.cos(ph)
                    + c[2] * np.sin(th) * np.sin(ph))
            guess = SphereField(profile_mid.grid,
                                prob.M0.values / 2 * (1 + mode))
            sol = solve_slice(prob, initial_guess=guess)
            assert np.max(np.abs(sol.R.values - ref.R.values)) <= 10 * r_tol

    def test_grid_convergence_at_spectral_floor(self, params, profile_mid):
        # The same slice solved at doubled resolution: band diagnostics
        # agree far below any algebraic convergence rate.
        from horizonlab.shear import ProfileSpec, build_profile
        d = profile_mid.derived
        ub = 0.5 * d.ubar_lambda
        prof_hi = build_profile(params, ProfileSpec(n_ubar=193),
                                get_grid(64, 128))
        lo = solve_slice(make_problem(profile_mid, ub, seed=5, beta=0.0))
        hi = solve_slice(make_problem(prof_hi, ub, seed=5, beta=0.0))
        mean_lo = float(np.mean(lo.R.values))
        mean_hi = float(np.mean(hi.R.values))
        assert mean_lo == pytest.approx(mean_hi, rel=1e-10)
        for a, b in zip(lo.diagnostics["c0_band"],
                        hi.diagnostics["c0_band"]):
            assert a == pytest.approx(b, rel=1e-6)


@pytest.fixture(scope="module")
def profiles_small(params, grid_small):
    """CI's 16x32 profiles: the default regime and a = 100, y = 4."""
    return [build_profile(p, ProfileSpec(n_ubar=129), grid_small)
            for p in (params, RegimeParameters(a=100.0, y=4.0))]


def ladder_work(profile, monkeypatch, forcing):
    """GMRES iterations, Newton steps and radii of CI's 16x32 ladder
    (slices 5/2/2, seed 1) with ``mots.FORCING`` set to ``forcing``."""
    monkeypatch.setattr(mots, "FORCING", forcing)
    _, _, sols = solve_ladder(profile, seed=1, n_window_slices=5,
                              n_transition_slices=2, n_null_slices=2)
    steps = [n for s in sols for r in s.newton_trace
             for n in r["gmres_iters"]]
    return sum(steps), len(steps), [s.R.values for s in sols]


class TestInexactNewton:
    @pytest.mark.parametrize("regime", [0, 1])
    def test_forcing_cuts_krylov_work_only(self, profiles_small,
                                           monkeypatch, regime):
        # FORCING = 0 solves every Newton system to lin_tol: the exact
        # Newton reference.  The forcing term takes fewer GMRES iterations
        # and no more Newton steps, and the radii stay within roundoff of
        # the reference's.
        profile = profiles_small[regime]
        got = ladder_work(profile, monkeypatch, mots.FORCING)
        ref = ladder_work(profile, monkeypatch, 0.0)
        assert got[0] < ref[0]
        assert got[1] <= ref[1]
        for R, R_ref in zip(got[2], ref[2]):
            assert np.max(np.abs(R - R_ref)) <= 1e-12 * np.max(R_ref)

    def test_fixed_rtol_adds_newton_steps(self, profiles_small,
                                          monkeypatch):
        # Every solve stopped at a fixed relative 1e-2, whatever the
        # target, converges linearly: more Newton steps.
        profile = profiles_small[1]
        ref = ladder_work(profile, monkeypatch, 0.0)
        gmres = mots.gmres
        monkeypatch.setattr(mots, "gmres", lambda matvec, b, psolve, rtol,
                            *rest: gmres(matvec, b, psolve, 1e-2, *rest))
        assert ladder_work(profile, monkeypatch, mots.FORCING)[1] > ref[1]

    @pytest.fixture
    def stalled(self, grid_small, monkeypatch):
        """A direct solve from ``guess(share)``, a radius whose residual
        norm is ``share`` tol_abs, with every GMRES step reversed, so that
        each backtrack raises the residual and stalls."""
        th, ph = grid_small.theta_2d, grid_small.phi_2d
        M0 = 2.0 * (1 + 0.3 * np.cos(th) + 0.2 * np.sin(th) * np.cos(ph))
        prob = make_synthetic(grid_small, M0)
        sol = solve_slice(prob)
        tol_abs = sol.diagnostics["tol_abs"]
        bump = np.sin(th) * np.sin(ph) * sol.R.values

        def norm(R):
            return l2_norm(residual_H(prob, R))

        slope = 1e6 * norm(SphereField(grid_small,
                                       sol.R.values + 1e-6 * bump))
        gmres_ = mots.gmres

        def reversed_gmres(*args):
            x, info, iters = gmres_(*args)
            return -x, info, iters

        monkeypatch.setattr(mots, "gmres", reversed_gmres)

        def run(share):
            guess = SphereField(grid_small, sol.R.values
                                + share * tol_abs / slope * bump)
            start = norm(guess)
            assert 0.9 * share * tol_abs < start < 1.1 * share * tol_abs
            return guess, start, lambda: solve_slice(prob,
                                                     initial_guess=guess)
        return run

    def test_stall_within_tolerance_returns_iterate(self, stalled):
        guess, start, solve = stalled(0.5)
        sol = solve()
        assert sol.R.values.tobytes() == guess.values.tobytes()
        assert sol.residual_norm == pytest.approx(start, rel=1e-9)
        assert [(r["stage"], r["iterations"], len(r["gmres_iters"]))
                for r in sol.newton_trace] == [("direct", 0, 1)]

    def test_stall_past_tolerance_raises(self, stalled):
        from horizonlab.errors import NonConvergenceError
        _, _, solve = stalled(3.0)
        with pytest.raises(NonConvergenceError, match="backtracking"):
            solve()


class TestVerifyApriori:
    def test_constant_solution_ratios(self, profile_mid, params):
        d = profile_mid.derived
        prob = make_problem(profile_mid, 1.5 * d.delta, seed=1, beta=0.0)
        sol = solve_slice(prob)
        rep = verify_apriori(sol.R, prob, params)
        assert rep.passed
        for name in ("w12", "c1_gradient", "c2_hessian"):
            assert rep[name]["ratio"] < 1e-6
        assert rep["h_weight"]["value"] == pytest.approx(1.0, abs=1e-9)

    def test_injected_gradient_defect_fails_c1(self, profile_mid, params):
        d = profile_mid.derived
        prob = make_problem(profile_mid, 0.5 * d.ubar_lambda, seed=3,
                            beta=0.0)
        sol = solve_slice(prob)
        bad_R = SphereField(profile_mid.grid, sol.R.values
                            * (1 + 0.3 * np.cos(profile_mid.grid.theta_2d)))
        rep = verify_apriori(bad_R, prob, params)
        assert not rep["c1_gradient"].passed


class TestHessianDiagnostic:
    def test_trace_reproduces_laplacian(self, grid_mid):
        # Covariant-frame Hessian components: H_tt + H_pp = Delta f.
        g = grid_mid

        def fn(th, ph):
            return np.sin(th) * np.cos(ph) + 0.4 * np.cos(th) ** 2

        vals = fn(g.theta_2d, g.phi_2d)
        h_tt, h_tp, h_pp = g.hessian_values(vals)
        lap = g.derivatives(vals)[0]
        assert np.max(np.abs(h_tt + h_pp - lap)) < 1e-10

    def test_component_oracle_quadrupole(self, grid_mid):
        # f = sin^2(theta) cos(2 phi): H_tp = d/dtheta((1/sin) dphi f)
        # = -2 cos(theta) sin(2 phi) by hand.
        g = grid_mid
        vals = np.sin(g.theta_2d) ** 2 * np.cos(2 * g.phi_2d)
        _, h_tp, _ = g.hessian_values(vals)
        expected = -2.0 * np.cos(g.theta_2d) * np.sin(2 * g.phi_2d)
        assert np.max(np.abs(h_tp - expected)) < 1e-10


class TestFailureContract:
    def test_unsolvable_problem_fails_loudly(self, grid_small):
        # Perturbations far beyond any admissible envelope: the solver
        # must raise with its trace, never return an unconverged field.
        from horizonlab.errors import NonConvergenceError
        th = grid_small.theta_2d
        M0 = 2.0 * np.ones_like(th)
        prob = make_synthetic(grid_small, M0, pert_scale=80.0, seed=13,
                              beta=1.0)
        opts = SolveOptions(max_iter=8, dlam_floor=0.02)
        with pytest.raises(NonConvergenceError) as err:
            solve_slice(prob, opts)
        assert err.value.trace


class TestPersistence:
    def test_solution_roundtrip(self, profile_mid, tmp_path):
        from horizonlab.mots import MotsSolution
        d = profile_mid.derived
        prob = make_problem(profile_mid, 0.5 * d.ubar_lambda, seed=4,
                            beta=0.3)
        sol = solve_slice(prob)
        sol.save(tmp_path / "slice", config_hash="deadbeef")
        back = MotsSolution.load(tmp_path / "slice", config_hash="deadbeef")
        assert [p.name for p in tmp_path.iterdir()] == ["slice.npz"]
        # The npz holds the radius alone; the slice's other numbers live
        # in mots_report.json.
        assert isinstance(back, SphereField)
        assert (back.grid.n_theta, back.grid.n_phi) == \
            (sol.R.grid.n_theta, sol.R.grid.n_phi)
        assert np.array_equal(back.values, sol.R.values)


class TestProblemInvariants:
    def test_coefficient_bound_enforced(self, grid_small):
        shape = (16, 32)
        with pytest.raises(ValueError):
            MotsProblem(grid=grid_small, ubar=1.0,
                        M0=SphereField.constant(grid_small, 2.0),
                        c1_theta=np.full(shape, 2.0),
                        c1_phi=np.zeros(shape), c2=np.zeros(shape),
                        c3=np.zeros(shape), pert_scale=1.0, zbar=1.0,
                        m0=0.5, coeff_bound=1.0)

    def test_M0_positive_enforced(self, grid_small):
        shape = (16, 32)
        zeros = {k: np.zeros(shape) for k in
                 ("c1_theta", "c1_phi", "c2", "c3")}
        with pytest.raises(PositivityError):
            MotsProblem(grid=grid_small, ubar=1.0,
                        M0=SphereField.constant(grid_small, 0.0),
                        pert_scale=0.0, zbar=1.0, m0=0.5,
                        coeff_bound=1.0, **zeros)

    def test_sampler_norms_exact(self, grid_small, params):
        fields = sample_perturbations(grid_small, params, seed=6, beta=0.7)
        target = 0.7 * params.b ** 0.25
        c1n = np.max(np.hypot(fields["c1_theta"], fields["c1_phi"]))
        c2n = np.max(np.sqrt(2 * fields["c2"]**2))
        c3n = np.max(np.abs(fields["c3"]))
        for n in (c1n, c2n, c3n):
            assert n == pytest.approx(target, rel=1e-12)

    @pytest.mark.parametrize("nt", [16, 64])
    def test_sampler_equals_per_call_basis(self, nt, params):
        grid = get_grid(nt, 2 * nt)
        for seed in (0, 7, 1234):
            want = per_call_perturbations(grid, params, seed, 0.4)
            got = sample_perturbations(grid, params, seed, 0.4)
            assert sorted(got) == sorted(want)
            for key in want:
                assert got[key].tobytes() == want[key].tobytes(), key

    def test_M0_is_cumulative_shear(self, profile_mid):
        d = profile_mid.derived
        ub = 0.7 * d.ubar_lambda
        prob = make_problem(profile_mid, ub, seed=0, beta=0.3)
        assert np.array_equal(prob.M0.values, profile_mid.I_at(ub))
        tail = make_problem(profile_mid, 1.8 * d.delta, seed=0, beta=0.3)
        assert np.max(np.abs(tail.M0.values / (4 * profile_mid.m0) - 1)) \
            < 1e-12


# -- an independent route: the unperturbed MOTS as an ODE in the wobble Y ----

def cheb(n):
    """Chebyshev-Lobatto points cos(j pi / n), j = 0..n, and the
    differentiation matrix on them (Trefethen, Spectral Methods in MATLAB,
    SIAM 2000, ch. 6)."""
    j = np.arange(n + 1)
    x = np.cos(np.pi * j / n)
    c = np.where(j % n == 0, 2.0, 1.0) * (-1.0) ** j
    D = np.outer(c, 1.0 / c) / (x[:, None] - x[None, :] + np.eye(n + 1))
    return D - np.diag(D.sum(axis=1)), x


def zonal_radius(model, ubar, n=16):
    """Chebyshev coefficients of the slice radius as a function of the
    wobble Y alone, with the perturbation terms dropped.

    M0 = I_main(ubar, Y) depends on the angle through Y, the height along
    a fixed axis, so R(Y) solves the slice equation times R^2 with
    Delta R = (1 - Y^2) R'' - 2 Y R' and |grad R|^2 = (1 - Y^2) R'^2:

        (1 - Y^2) R'' - 2 Y R' - (1 - Y^2) R'^2 / R - R + M0 / 2 = 0

    on [-1, 1], its own regularity condition at Y = +-1.  Collocation on
    n + 1 points, Newton from M0 / 2.
    """
    D, x = cheb(n)
    D2, w = D @ D, 1.0 - x * x
    M0 = model.I_main(ubar, x)
    R = 0.5 * M0
    for _ in range(20):
        R1 = D @ R
        F = w * (D2 @ R) - 2.0 * x * R1 - w * R1 * R1 / R - R + 0.5 * M0
        J = (w[:, None] * D2 - (2.0 * x + 2.0 * w * R1 / R)[:, None] * D
             + np.diag(w * R1 * R1 / (R * R) - 1.0))
        dR = np.linalg.solve(J, -F)
        R = R + dR
        if np.max(np.abs(dR)) <= 1e-15 * np.max(R):
            break
    return np.polynomial.chebyshev.chebfit(x, R, n)


def solve_ladder(profile, seed=1234, **counts):
    """The slices of the CLI's ladder (default counts) and their solutions,
    slice i drawn with seed + i as find-mots draws it."""
    solver = {"n_window_slices": 16, "n_transition_slices": 4,
              "n_null_slices": 4, **counts}
    ubars = _slice_ladder({"solver": solver}, profile.derived)
    problems = [make_problem(profile, float(ub), seed=seed + i)
                for i, ub in enumerate(ubars)]
    return ubars, problems, [solve_slice(p) for p in problems]


def zonal_differences(profile, ubars, solutions):
    """Per slice, the relative differences of the solved radius, its
    ``area_mid`` and its numeric Penrose margin from the zonal route's,
    whose area is 2 pi int R(Y)^2 dY.  The margin, the ADM mass less the
    radius proxy, can sit near zero, so its ends are compared relative to
    the radius proxy."""
    params, grid = profile.params, profile.grid
    Y = shear.angular_wobble(grid.theta_2d, grid.phi_2d)
    g, wg = np.polynomial.legendre.leggauss(40)
    assembly = assemble(params, profile, ubars, [s.R for s in solutions],
                        disc_hypothesis=False)
    out = []
    for k, ub in enumerate(map(float, ubars)):
        c = zonal_radius(profile._model, ub)
        R = np.polynomial.chebyshev.chebval(Y, c)
        a_mid = 2.0 * np.pi * np.sum(
            wg * np.polynomial.chebyshev.chebval(g, c) ** 2)
        est = area(assembly, k)
        rp = [math.sqrt((1.0 + s / params.f0) * a_mid / (16.0 * math.pi))
              for s in (-1.0, 1.0)]
        want = margin(params, Interval(*rp), ub).numeric
        got = margin(params, Interval(est.radius_proxy_lo,
                                      est.radius_proxy_hi), ub).numeric
        out.append({
            "R": np.max(np.abs(solutions[k].R.values - R)) / np.max(R),
            "area_mid": abs(est.area_mid - a_mid) / a_mid,
            "margin": max(abs(got.lo - want.lo), abs(got.hi - want.hi))
            / rp[1]})
    return out


def zonal_failures(profile, ubars, solutions):
    """(slice, quantity, difference, bound) wherever a slice leaves the
    zonal route by more than 6e-13 relative, or 0.1 newton_tol on a slice
    whose residual norm is not below 1e-3 tol_abs (a saved radius is
    within 0.1 tol_abs).  Measured: 5.0e-13 on default slices 2-23 and
    4.6e-11 on slices 0-1."""
    failures = []
    diffs = zonal_differences(profile, ubars, solutions)
    for k, (sol, diff) in enumerate(zip(solutions, diffs)):
        tight = sol.residual_norm < 1e-3 * sol.diagnostics["tol_abs"]
        bound = 6e-13 if tight else 0.1 * SolveOptions().newton_tol
        failures += [(k, name, d, bound) for name, d in diff.items()
                     if not d <= bound]
    return failures


@pytest.fixture(scope="module")
def default_ladder(params):
    """The default profile at 64x128 and its 24 slices, solved."""
    profile = build_profile(params, ProfileSpec(), get_grid(64, 128))
    return (profile,) + solve_ladder(profile)


class TestZonalOracle:
    """find-mots against a 1-D Chebyshev solve in the wobble Y, which
    shares no transform, GMRES or continuation with it."""

    def test_default_slices_match(self, default_ladder):
        profile, ubars, problems, solutions = default_ladder
        # the premise: the perturbation terms are negligible to the mass
        ratio = max(p.pert_scale * p.coeff_bound / (0.5 * np.min(p.M0.values))
                    for p in problems)
        assert ratio < 1e-20
        assert profile._cap.size == 0           # M0 is I_main everywhere
        assert zonal_failures(profile, ubars, solutions) == []

    def test_saved_radii_within_a_tenth_of_tolerance(self, default_ladder):
        # Every saved radius is within 0.1 tol_abs, and from slice 2 on
        # at the default within 1e-3 tol_abs, which is the oracle's tight
        # tier.
        _, _, _, solutions = default_ladder
        ratios = [s.residual_norm / s.diagnostics["tol_abs"]
                  for s in solutions]
        assert max(ratios) <= 0.1
        assert max(ratios[2:]) < 1e-3

    @pytest.mark.parametrize("mutation", ["no-gradient-term", "mass-1e-9"])
    def test_mutations_fail(self, default_ladder, monkeypatch, mutation):
        profile, ubars, _, _ = default_ladder
        if mutation == "no-gradient-term":
            eval_residual = mots._eval_residual

            def dropped(problem, Rv, c_scale=1.0, aux=None):
                # adds back the -|grad R|^2 / R^3 term
                res, aux = eval_residual(problem, Rv, c_scale, aux)
                return res + aux[3] / Rv ** 3, aux

            monkeypatch.setattr(mots, "_eval_residual", dropped)
        else:
            I_at = ShearProfile.I_at
            monkeypatch.setattr(ShearProfile, "I_at",
                                lambda self, u: I_at(self, u) * (1.0 + 1e-9))
        _, _, solutions = solve_ladder(profile)
        assert zonal_failures(profile, ubars, solutions)

    def test_second_regime_perturbations_act(self):
        # At a = 100, y = 4 the c-terms move every radius off the zonal one.
        profile = build_profile(RegimeParameters(a=100.0, y=4.0),
                                ProfileSpec(n_ubar=129), get_grid(16, 32))
        assert profile._cap.size == 0
        ubars, _, solutions = solve_ladder(
            profile, seed=1, n_window_slices=5, n_transition_slices=2,
            n_null_slices=2)
        diffs = zonal_differences(profile, ubars, solutions)
        assert min(d["R"] for d in diffs) > 1e-7
