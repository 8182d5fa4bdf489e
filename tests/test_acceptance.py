"""Acceptance criteria: one test per criterion, stated tolerances pinned.

Run with `pytest tests/test_acceptance.py -v -s` to see one PASS line per
criterion.  The heavyweight fixtures (default 64x128 profile and its
solved slice ladder) are shared across criteria.
"""

import copy
import hashlib
import math
import time

import numpy as np
import pytest

from horizonlab.cli import default_config_text, main
from horizonlab.horizon import area, assemble
from horizonlab.mots import make_problem, solve_slice, verify_apriori
from horizonlab.penrose import (CERTIFIED_POSITIVE, INCONCLUSIVE,
                                classify_regime, margin_exponent_forms)
from horizonlab.regime import RegimeParameters
from horizonlab.shear import ProfileSpec, build_profile, verify_profile
from horizonlab.sphere import SphereField, get_grid
from horizonlab.transport import (SlabModel, detect_trapped, integrate_cone,
                                  integrate_data_cone)


def report(n, text):
    print(f"\nACCEPTANCE {n:2d} PASS: {text}")


@pytest.fixture(scope="module")
def grid64():
    return get_grid(64, 128)


@pytest.fixture(scope="module")
def profile64(grid64):
    return build_profile(RegimeParameters(), ProfileSpec(), grid64)


@pytest.fixture(scope="module")
def ladder64(profile64):
    """16 window slices, 4 transition, 4 tail, solved at 64x128."""
    d = profile64.derived
    window = np.geomspace(d.ubar_start, d.ubar_lambda, 16)
    trans = np.linspace(d.ubar_lambda, d.ubar_lambda_hi, 6)[1:-1]
    tail = np.linspace(d.ubar_lambda_hi, d.ubar_end, 5)[1:]
    ubars = np.concatenate([window, trans, tail])
    problems, solutions = [], []
    for i, ub in enumerate(ubars):
        prob = make_problem(profile64, float(ub), seed=1234 + i, beta=0.4)
        problems.append(prob)
        solutions.append(solve_slice(prob))
    return ubars, problems, solutions


def test_criterion_01_minkowski_regression(grid64):
    t0 = time.perf_counter()
    state = integrate_cone(lambda u: 0.0, 1.0, 2048, grid64)
    elapsed = time.perf_counter() - t0
    exact = 2.0 / (1.0 + state.ubar_nodes)
    err_default = float(np.max(np.abs(state.trchi[:, 0, 0] - exact)))
    assert err_default < 1e-8
    # fourth order: halving the step cuts the error by 16 (measured on a
    # coarser pair so both errors sit far above the roundoff floor)
    small = get_grid(16, 32)
    errs = []
    for n in (256, 512):
        s = integrate_cone(lambda u: 0.0, 1.0, n, small)
        errs.append(abs(s.trchi_final[0, 0] - 1.0))
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0
    assert elapsed < 1.0
    report(1, f"max error {err_default:.2e} < 1e-8 at 2048 steps, "
              f"halving ratio {ratio:.1f} in [12,20], {elapsed:.2f}s < 1s")


def test_criterion_02_constant_M0_mots(profile64):
    d = profile64.derived
    prob = make_problem(profile64, 1.5 * d.delta, seed=5, beta=0.0)
    assert float(np.ptp(prob.M0.values)) == 0.0
    t0 = time.perf_counter()
    sol = solve_slice(prob)
    elapsed = time.perf_counter() - t0
    rel = float(np.max(np.abs(sol.R.values / (2 * profile64.m0) - 1)))
    iters = sol.newton_trace[0]["iterations"]
    assert rel < 1e-9
    assert iters <= 3
    assert elapsed < 5.0
    report(2, f"R = 2*m0 to {rel:.1e} rel, {iters} Newton iterations "
              f"from band center, {elapsed:.2f}s < 5s at 64x128")


def test_criterion_03_trapped_surface_criterion(profile64, grid64):
    d = profile64.derived
    lower = 4.0 * math.sqrt(profile64.params.a) * profile64.params.b \
        * d.delta
    min_I = float(np.min(profile64.I_at(d.delta)))
    assert min_I >= lower
    slab = SlabModel(profile64.params, profile64)
    verdict = detect_trapped(slab, d.u_trapped, d.delta)
    assert verdict.status == "certified-trapped"

    class Empty:
        params = profile64.params
        grid = grid64
        derived = d

        def I_at(self, ubar):
            return np.zeros((grid64.n_theta, grid64.n_phi))

    empty = detect_trapped(SlabModel(profile64.params, Empty()),
                           d.u_trapped, d.delta)
    assert empty.status == "untrapped"
    report(3, f"min I(delta) = {min_I:.3e} >= 4 a^(1/2) b delta gives "
              f"certified-trapped at the predicted sphere; I=0 untrapped")


def test_criterion_04_c0_band(profile64, ladder64):
    p = profile64.params
    d = profile64.derived
    ubars, problems, solutions = ladder64
    window = [(pr, so) for ub, pr, so in
              zip(ubars, problems, solutions)
              if ub <= d.ubar_lambda * (1 + 1e-12)]
    assert len(window) >= 16
    worst = 0.0
    for prob, sol in window:
        lo = ((1 - 1 / p.c1) * (1 - 1 / p.c2_zeta) * (0.5 - p.o1)
              * float(np.min(prob.M0.values)))
        hi = ((1 + 1 / p.c1) * (1 + 1 / p.c2_zeta) * (0.5 + p.o1)
              * float(np.max(prob.M0.values)))
        rmin = float(np.min(sol.R.values))
        rmax = float(np.max(sol.R.values))
        assert lo <= rmin and rmax <= hi
        worst = max(worst, (rmax - rmin) / (hi - lo))
    report(4, f"{len(window)} window slices inside the C0 band "
              f"pointwise (tightest fill factor {worst:.3f})")


def test_criterion_05_c1_c2_bounds(profile64, ladder64):
    p = profile64.params
    ubars, problems, solutions = ladder64
    worst_g, worst_h = 0.0, 0.0
    for prob, sol in zip(problems, solutions):
        rep = verify_apriori(sol, prob, p)
        g = rep["c1_gradient"]
        h = rep["c2_hessian"]
        assert g["value"] < 0.1
        assert h["value"] < 0.1 * (math.sqrt(p.a) * p.b ** p.mu * prob.ubar
                                * prob.zbar
                                + 4 * prob.m0 * (1 - prob.zbar))
        worst_g = max(worst_g, g["value"])
        worst_h = max(worst_h, h["ratio"])
    report(5, f"all {len(solutions)} slices: max|grad R| <= "
              f"{worst_g:.3e} < 0.1 and hessian ratio <= {worst_h:.3f}")


def test_criterion_06_uniqueness_probe(profile64, ladder64):
    ubars, problems, solutions = ladder64
    d = profile64.derived
    k = int(np.argmin(np.abs(ubars - 0.5 * d.ubar_lambda)))
    prob, ref = problems[k], solutions[k]
    grid = profile64.grid
    th, ph = grid.theta_2d, grid.phi_2d
    rng = np.random.default_rng(2026)
    tol_R = 1e-9 * float(np.mean(ref.R.values))
    worst = 0.0
    for _ in range(10):
        c = 0.04 * rng.standard_normal(4)
        mode = (c[0] * np.cos(th) + c[1] * np.sin(th) * np.cos(ph)
                + c[2] * np.sin(th) * np.sin(ph)
                + c[3] * 0.5 * (3 * np.cos(th) ** 2 - 1))
        guess = SphereField(grid, prob.M0.values / 2 * (1 + mode))
        sol = solve_slice(prob, initial_guess=guess)
        worst = max(worst, float(np.max(np.abs(sol.R.values
                                               - ref.R.values))))
    assert worst <= 10 * tol_R
    report(6, f"10 randomized admissible guesses agree to "
              f"{worst:.2e} <= 10*tol = {10 * tol_R:.2e} (max over nodes)")


def test_criterion_07_area_band(profile64, ladder64):
    ubars, problems, solutions = ladder64
    p = profile64.params
    d = profile64.derived
    asm = assemble(p, profile64, solutions, disc_hypothesis=True)
    amp = d.shear_amp
    o1 = 0.05
    checked = 0
    for k, ub in enumerate(ubars):
        if ub > d.ubar_lambda * (1 + 1e-12):
            continue
        est = area(asm, k)
        lo = (0.25 - o1) * amp * ub
        hi = (0.25 + o1) * amp * ub
        assert lo <= est.radius_proxy_lo
        assert est.radius_proxy_hi <= hi
        checked += 1
    assert checked >= 16
    report(7, f"radius proxy interval inside (1/4 +- {o1}) amp ubar on "
              f"{checked} window slices")


def test_criterion_08_null_approach(profile64, ladder64):
    ubars, problems, solutions = ladder64
    p = profile64.params
    d = profile64.derived
    asm = assemble(p, profile64, solutions)
    amp = d.shear_amp
    checked, worst = 0, 0.0
    for k in range(1, len(ubars) - 1):
        if ubars[k - 1] > d.ubar_lambda_hi:
            val = float(np.max(np.abs(asm.dR_dubar(k).values)))
            assert val <= 1e-6 * amp
            worst = max(worst, val / amp)
            checked += 1
    assert checked >= 2
    report(8, f"|dR/dubar| <= {worst:.2e} * amp <= 1e-6 * amp on "
              f"{checked} post-cutoff slices (null-cone approach)")


def test_criterion_09_penrose_exponents():
    params = RegimeParameters()
    forms = margin_exponent_forms(params)
    rel = abs(forms["direct"] - forms["factored"]) / abs(forms["direct"])
    assert rel <= 64 * np.finfo(float).eps
    from horizonlab.regime import derive
    d = derive(params)
    cls = classify_regime(params, d.ubar_start)
    assert cls.status == CERTIFIED_POSITIVE
    near = classify_regime(params, d.ubar_lambda
                           - 0.5 * params.delta ** 1.5)
    assert near.status == INCONCLUSIVE
    report(9, f"exponent routes agree to {rel:.1e} (ulp scale); default "
              f"regime certified-positive; window-end inconclusive")


def test_criterion_10_shear_verifier(profile64, dense_tables, sliced):
    tables = dense_tables(profile64)
    rep = verify_profile(profile64)
    assert rep.passed
    assert rep["total_equals_4m0"]["threshold"] == 1e-6
    assert rep["window_identity"]["threshold"] == 1e-8
    assert rep["dominance_ratio"]["threshold"] == pytest.approx(
        0.2 * profile64.params.d0)
    assert rep["zero_locus_present"].passed
    assert rep["zero_locus_moving"].passed

    ub = profile64.ubar_grid
    d = profile64.derived
    mid = 0.5 * (d.ubar_lambda + d.ubar_lambda_hi)
    step = (ub < mid).astype(float)
    bad_zeta = tables._replace(zeta=np.broadcast_to(
        step[:, None, None], tables.zeta.shape).copy())
    assert not verify_profile(profile64,
                              sliced(bad_zeta))["zeta_no_jump"].passed

    bad_scale = tables._replace(amp2=1.5 * tables.amp2, I=1.5 * tables.I)
    entry = verify_profile(profile64, sliced(bad_scale))["total_equals_4m0"]
    assert not entry.passed
    assert entry["measured"] == pytest.approx(0.5, rel=1e-9)

    frozen = copy.copy(profile64)
    frozen.zero_locus_theta = np.full_like(profile64.zero_locus_theta,
                                           np.pi / 2)
    frozen_rep = verify_profile(frozen, sliced(tables))
    assert not frozen_rep["zero_locus_moving"].passed
    assert not frozen_rep["zero_locus_present"].passed
    report(10, "builder output passes all data checks; step zeta, x1.5 "
               "scaling (ratio 1.500), and frozen locus each flagged")


def test_criterion_11_determinism(tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(default_config_text(seed=404))
    fast = ["--set", "grid.n_theta=32", "--set", "grid.n_phi=64",
            "--set", "grid.n_ubar=129", "--set", "grid.cone_steps=512",
            "--set", "solver.n_window_slices=6",
            "--set", "solver.n_transition_slices=2",
            "--set", "solver.n_null_slices=2"]
    outs = [tmp_path / "a", tmp_path / "b"]
    for out in outs:
        for sub in ("gen-data", "evolve", "find-mots", "horizon",
                    "penrose", "report"):
            rc = main([sub, "--config", str(cfg), "--out", str(out)]
                      + fast)
            assert rc == 0
    compared = 0
    for f in sorted(outs[0].rglob("*")):
        if f.is_dir() or f.name == "run_meta.json":
            continue
        g = outs[1] / f.relative_to(outs[0])
        ha = hashlib.sha256(f.read_bytes()).hexdigest()
        hb = hashlib.sha256(g.read_bytes()).hexdigest()
        assert ha == hb, f.name
        compared += 1
    assert compared > 10
    report(11, f"full pipeline rerun byte-identical on {compared} "
               f"artifacts (JSON, CSV, NPZ, SVG)")
