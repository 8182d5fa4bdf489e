"""MOTS location on a slice: the graph-radius elliptic equation.

A sphere drawn as u = 1 - R(omega) inside the slab has null expansion

    trchi' = trchi - 2 Omega D'R - 4 Omega eta.grad R
             - Omega^2 trchibar |grad R|^2 - 8 Omega^2 omegabar |grad R|^2

and inserting the certified interior model (lapse at one, trchibar at
-2/R, eta and omegabar inside their envelopes, trchi at its leading
value with the cumulative shear M0 = I(ubar, .)) turns trchi' = 0 into
the quasilinear equation solved here:

    H(R) = D'R - |grad R|^2/R - 1/R + M0/(2 R^2)
           + (ubar sqrt(a)) [c1.grad R + c2.grad R grad R + c3] / R^2 = 0,

with frozen coefficient fields bounded by b^(1/4) in the frame norm.
H is linear in (c1, c2, c3), so the method-of-continuity family G used
for the solve is exactly H with the coefficients scaled by the
continuation parameter; G(., 0) is the unperturbed equation whose
constant-coefficient case has the explicit solution R = M0/2, and
G(., 1) recovers the discretized trchi' = 0 equation.  Each Newton step
solves the exact linearization (including the metric-variation terms)
matrix-free with the restarted GMRES below (Saad and Schultz, SIAM J.
Sci. Stat. Comput. 7 (1986) 856), right-preconditioned by a
constant-coefficient Helmholtz inverse in the harmonic basis and run in
the quadrature inner product.
The linear solves are inexact (Dembo, Eisenstat & Steihaug, SIAM J.
Numer. Anal. 19 (1982) 400; Eisenstat & Walker, SIAM J. Sci. Comput. 17
(1996) 16): each is only as tight as its step needs, with a forcing term
tied to the residual, FORCING target / |G| but no tighter than
``lin_tol``.  Newton stops at ``tol_abs`` on the base and continuation
stages; the stage whose iterate is returned goes on to a tenth of it, so
a saved radius never sits just under its tolerance.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NonConvergenceError, PositivityError
from .regime import BOUNDS, RegimeParameters, SolveOptions, c0_band
from .reporting import Check, Report, load_artifact, save_artifact
from .sphere import SphereField, get_grid, integrate, l2_norm


@dataclass(frozen=True)
class MotsProblem:
    """One ubar-slice of the MOTS equation.

    ``M0`` is the effective mass profile (the cumulative shear at the
    slice), the c-fields are the frozen perturbation coefficients in the
    unit-sphere orthonormal frame, and ``pert_scale`` is their common
    prefactor ubar * sqrt(a).  ``c2`` is isotropic: the symmetric tensor
    c2 * identity, the one shape an omegabar background field realizes.
    """

    grid: object
    ubar: float
    M0: SphereField
    c1_theta: np.ndarray
    c1_phi: np.ndarray
    c2: np.ndarray
    c3: np.ndarray
    pert_scale: float
    zbar: float
    m0: float
    coeff_bound: float            # b^(1/4)

    def __post_init__(self):
        if np.any(self.M0.values <= 0.0):
            raise PositivityError("M0 must be strictly positive")
        c1n = np.max(np.hypot(self.c1_theta, self.c1_phi))
        c2n = np.max(np.sqrt(2.0 * self.c2 ** 2))
        c3n = np.max(np.abs(self.c3))
        tol = 1.0 + 1e-12
        if max(c1n, c2n, c3n) > self.coeff_bound * tol:
            raise ValueError("perturbation coefficients exceed the b^(1/4) "
                             "frame-norm bound")


@functools.lru_cache(maxsize=4)
def _perturbation_basis(grid):
    """The seven low-degree fields the sampler combines, built once per
    grid as (theta column, phi row) factor pairs, so that no grid-sized
    array stays resident.  Each trigonometric factor is read off its full
    node array, so a column times a row has the bits of the field
    evaluated on the nodes."""
    th, ph = grid.theta_2d, grid.phi_2d
    ct, st = (np.array(f[:, :1]) for f in (np.cos(th), np.sin(th)))
    cp, sp, c2p = (np.array(f[:1])
                   for f in (np.cos(ph), np.sin(ph), np.cos(2.0 * ph)))
    one_t, one_p = np.ones_like(ct), np.ones_like(cp)
    basis = ((one_t, one_p), (ct, one_p), (st, cp), (st, sp),
             (0.5 * (3.0 * ct ** 2 - 1.0), one_p), (st ** 2, c2p),
             (st * ct, sp))
    for factor in (f for pair in basis for f in pair):
        factor.flags.writeable = False
    return basis


def sample_perturbations(grid, params: RegimeParameters, seed, beta):
    """Smooth low-degree coefficient fields with frame norm beta*b^(1/4).

    The isotropic ``c2`` has frame norm sqrt(2) * |c2|, so its field is
    scaled by 1/sqrt(2) of the target.
    """
    rng = np.random.default_rng(seed)
    basis = _perturbation_basis(grid)

    def smooth():
        c = rng.standard_normal(len(basis))
        f = sum(ci * (bt * bp) for ci, (bt, bp) in zip(c, basis))
        return f / np.max(np.abs(f))

    target = beta * params.b ** 0.25
    raw_t, raw_p = smooth(), smooth()
    nrm = np.max(np.hypot(raw_t, raw_p))
    c2s = smooth() * (target / math.sqrt(2.0))
    return {
        "c1_theta": raw_t * (target / nrm),
        "c1_phi": raw_p * (target / nrm),
        "c2": c2s,
        "c3": smooth() * target,
    }


def make_problem(profile, ubar, seed=0, beta=0.4) -> MotsProblem:
    """Assemble the slice equation from a built shear profile."""
    params = profile.params
    grid = profile.grid
    pert = sample_perturbations(grid, params, seed, beta)
    return MotsProblem(
        grid=grid, ubar=float(ubar),
        M0=SphereField(grid, profile.I_at(float(ubar))),
        pert_scale=float(ubar) * math.sqrt(params.a),
        zbar=profile.zbar_at(float(ubar)),
        m0=profile.m0,
        coeff_bound=params.b ** 0.25,
        **pert)


# -- residual and exact linearization ---------------------------------------

def _eval_residual(problem, Rv, c_scale=1.0, aux=None):
    """Residual of G(., c_scale) at Rv and its derivative parts ``aux``
    (lap, gt, gp, gsq, c1dot, c2dot).  No part depends on c_scale, so
    ``aux`` from an earlier evaluation at the same Rv may be passed in,
    and the radius is then not transformed again."""
    if np.any(Rv <= 0.0):
        raise PositivityError("graph radius R must stay strictly positive")
    if aux is None:
        lap, gt, gp = problem.grid.derivatives(Rv)
        gsq = gt * gt + gp * gp
        c1dot = problem.c1_theta * gt + problem.c1_phi * gp
        c2dot = problem.c2 * gt * gt + problem.c2 * gp * gp
        aux = (lap, gt, gp, gsq, c1dot, c2dot)
    lap, gt, gp, gsq, c1dot, c2dot = aux
    M0 = problem.M0.values
    s = problem.pert_scale * c_scale
    R2 = Rv * Rv
    R3 = R2 * Rv
    res = (lap / R2 - gsq / R3 - 1.0 / Rv + M0 / (2.0 * R2)
           + s * (c1dot / R3 + c2dot / (R3 * Rv) + problem.c3 / R2))
    return res, aux


def _jacobian_parts(problem, Rv, aux, c_scale=1.0):
    lap, gt, gp, gsq, c1dot, c2dot = aux
    M0 = problem.M0.values
    s = problem.pert_scale * c_scale
    R2 = Rv * Rv
    R3 = R2 * Rv
    R4 = R3 * Rv
    R5 = R4 * Rv
    wt = (-2.0 * gt / R3 + s * problem.c1_theta / R3
          + 2.0 * s * (problem.c2 * gt) / R4)
    wp = (-2.0 * gp / R3 + s * problem.c1_phi / R3
          + 2.0 * s * (problem.c2 * gp) / R4)
    diag = (-2.0 * lap / R3 + 3.0 * gsq / R4 + 1.0 / R2 - M0 / R3
            - 3.0 * s * c1dot / R4 - 4.0 * s * c2dot / R5
            - 2.0 * s * problem.c3 / R3)
    return wt, wp, diag, R2


def residual_H(problem: MotsProblem, R: SphereField) -> SphereField:
    """Residual of the full slice equation H at the given radius field."""
    res, _ = _eval_residual(problem, R.values)
    return SphereField(problem.grid, res)


# -- Newton / continuation solver -------------------------------------------

MAX_BACKTRACKS = 6
GMRES_RESTART = 60
GMRES_MAXITER = 4
FORCING = 1e-3


@dataclass
class MotsSolution:
    R: SphereField
    residual_norm: float
    newton_trace: list
    lambda_path: list
    diagnostics: dict

    def save(self, stem, config_hash=""):
        """Persist the radius as one npz; see ``reporting.save_artifact``.
        Every other number about the slice is in ``mots_report.json``."""
        g = self.R.grid
        save_artifact(stem, {"kind": "horizonlab-mots-solution",
                             "config_hash": config_hash,
                             "grid": {"n_theta": g.n_theta, "n_phi": g.n_phi}},
                      {"R": self.R.values})

    @staticmethod
    def load(stem, config_hash=None) -> SphereField:
        """Reload a saved radius; see ``reporting.load_artifact``."""
        _, arrays = load_artifact(
            stem, lambda meta: {"R": (meta["grid"]["n_theta"],
                                      meta["grid"]["n_phi"])},
            "find-mots", config_hash)
        return SphereField(get_grid(*arrays["R"].shape), arrays["R"])


class _NewtonFail(Exception):
    pass


def _hessian_max(grid, values):
    """Max covariant-Hessian component on the unit sphere.  The
    orthonormal-frame components, connection terms included, stay bounded
    through the polar caps, and their trace is the Laplacian."""
    h_tt, h_tp, h_pp = grid.hessian_values(values)
    return float(max(np.max(np.abs(h_tt)), np.max(np.abs(h_tp)),
                     np.max(np.abs(h_pp))))


def gmres(matvec, b, psolve, rtol, restart, maxiter):
    """Restarted GMRES from x = 0, right-preconditioned by ``psolve``.

    Returns (x, info, iterations); info is 0 when |b - A x| <= rtol |b|
    and ``maxiter`` otherwise.  A cycle minimizes the true residual (Saad,
    *Iterative Methods for Sparse Linear Systems*, 2nd ed., 9.3.2) and
    stops once its estimate meets rtol |b|; x sums the stored M v_k.  A
    restart or a breakdown (whose estimate may be void) takes |b - A x|.
    """
    restart = min(restart, b.size)
    eps = np.finfo(float).eps
    x, r, rnorm = np.zeros(b.shape), b, np.linalg.norm(b)
    atol = rtol * rnorm
    h = np.zeros((restart, restart))        # row j: Hessenberg column j
    iterations = 0
    for _ in range(maxiter):
        S = np.zeros(restart + 1)
        S[0] = rnorm
        v, z, rotations = [r * (1.0 / rnorm)], [], []
        for j in range(restart):
            z.append(np.array(psolve(v[j])))  # psolve may reuse a buffer
            w = matvec(z[j])
            h0 = np.linalg.norm(w)
            for k in range(j + 1):
                h[j, k] = np.vdot(v[k], w)
                w -= h[j, k] * v[k]
            h1 = np.linalg.norm(w)
            breakdown = h1 <= eps * h0
            g = 0.0 if breakdown else h1
            for k, (c, s) in enumerate(rotations):
                h[j, k], h[j, k + 1] = (c * h[j, k] + s * h[j, k + 1],
                                        c * h[j, k + 1] - s * h[j, k])
            f = h[j, j]         # the Givens rotation LAPACK lartg takes,
            if g == 0.0:        # (1, 0) also where f = g = 0
                c, s = 1.0, 0.0
            else:
                d = math.sqrt(f * f + g * g)
                h[j, j] = math.copysign(d, f)
                c, s = abs(f) / d, g / h[j, j]
            rotations.append((c, s))
            S[j], S[j + 1] = c * S[j], -s * S[j]
            iterations += 1
            if abs(S[j + 1]) <= atol or breakdown:
                break
            v.append(w * (1.0 / h1))
        y = S[:j + 1]           # a zero pivot (a singular system) drops
        for k in range(j, -1, -1):      # its component: a pseudo-solve
            y[k] = y[k] / h[k, k] if h[k, k] != 0.0 else 0.0
            y[:k] -= y[k] * h[k, :k]
        x += np.tensordot(y, z, 1)
        if abs(S[j + 1]) <= atol and not breakdown:
            return x, 0, iterations
        r = b - matvec(x)
        rnorm = np.linalg.norm(r)
        if rnorm <= atol or breakdown:
            break
    return x, 0 if rnorm <= atol else maxiter, iterations


def _newton(problem, Rv, opts, tol_abs, c_scale, trace, stage, aux=None):
    """Damped Newton on G(., c_scale) from Rv; ``aux`` as in
    ``_eval_residual``.  Returns the accepted radius, its residual norm
    and its derivative parts.

    The stage stops at its target norm: ``tol_abs``, or 0.1 ``tol_abs`` on
    the stages whose iterate ``solve_slice`` returns ("final", "direct").
    Each GMRES solve runs until its true residual, in the quadrature norm
    that measures |G|, is max(lin_tol, FORCING target / |G|) relative,
    which leaves a linear residual of about FORCING target, far below
    what the step has to reach.  GMRES runs only while |G| > target, so
    no step is solved looser than FORCING relative (one just above its
    target), and only one FORCING / lin_tol targets away (1e7 by default)
    or more to ``lin_tol``.  A stalled backtrack returns the iterate when
    it is already within ``tol_abs``, and raises otherwise."""
    grid = problem.grid
    target = tol_abs * (0.1 if stage in ("final", "direct") else 1.0)
    l = np.arange(grid.lmax + 1, dtype=float)
    eig = -l * (l + 1.0)
    rec = {"stage": stage, "lambda": c_scale, "norms": [], "gmres_iters": []}
    trace.append(rec)
    res, aux = _eval_residual(problem, Rv, c_scale, aux)
    norm = l2_norm(SphereField(grid, res))
    rec["norms"].append(norm)
    for it in range(opts.max_iter + 1):
        if norm <= target:
            rec["iterations"] = it
            return Rv, norm, aux
        if it == opts.max_iter:
            raise _NewtonFail(f"no convergence in {it} iterations")
        wt, wp, diag, R2 = _jacobian_parts(problem, Rv, aux, c_scale)
        # Solve the R^2-rescaled system: its principal part is exactly the
        # unit-sphere Laplacian and its diagonal sits near -1, so one
        # constant-coefficient Helmholtz inverse preconditions uniformly
        # well across the whole slice family.
        sdiag = R2 * diag
        swt, swp = R2 * wt, R2 * wp

        def matvec(v):
            lapv, gtv, gpv = grid.derivatives(v)
            return lapv + swt * gtv + swp * gpv + sdiag * v

        shift = min(integrate(SphereField(grid, sdiag)) / (4.0 * np.pi),
                    -0.25)
        diag_safe = np.minimum(sdiag, 0.01 * shift)

        def precond(v):
            # Helmholtz inverse on the resolved harmonic band; the grid
            # content beyond the band sees only the pointwise diagonal,
            # so divide it by that to keep the preconditioned operator
            # nonsingular on the whole discrete space.
            coeff = grid.analyze(v)
            band = grid.synthesize(coeff / (eig[:, None] + shift))
            perp = v - grid.synthesize(coeff)
            return band + perp / diag_safe

        qw = np.sqrt(grid.weights)      # GMRES in |G|'s quadrature norm
        rtol = max(opts.lin_tol, FORCING * target / norm)
        dR, info, iters = gmres(lambda v: qw * matvec(v / qw), -qw * R2 * res,
                                lambda v: qw * precond(v / qw), rtol,
                                GMRES_RESTART, GMRES_MAXITER)
        dR /= qw
        rec["gmres_iters"].append(iters)
        if not np.all(np.isfinite(dR)):
            raise _NewtonFail(f"linear solve broke down (info={info})")
        # info > 0 (the Krylov residual stalled at its roundoff floor just
        # above rtol) is left to the decrease test below to reject.
        alpha = 1.0
        for _ in range(MAX_BACKTRACKS + 1):
            R_try = Rv + alpha * dR
            if np.min(R_try) > 0.0:
                res_try, aux_try = _eval_residual(problem, R_try, c_scale)
                norm_try = l2_norm(SphereField(grid, res_try))
                if norm_try <= target or norm_try < norm * (1.0 - 1e-4 * alpha):
                    Rv, res, aux, norm = R_try, res_try, aux_try, norm_try
                    break
            alpha *= 0.5
        else:
            if norm > tol_abs:
                raise _NewtonFail("backtracking stalled")
            rec["iterations"] = it
            return Rv, norm, aux
        rec["norms"].append(norm)


def solve_slice(problem: MotsProblem, options: SolveOptions | None = None,
                initial_guess: SphereField | None = None) -> MotsSolution:
    """Solve the slice equation; fails loudly rather than returning junk.

    The default route Newton-corrects the explicit constant-coefficient
    solution at continuation parameter 0, walks the coefficient ramp to 1
    with adaptive steps (halving on failure, doubling after two
    successes, hard floor), and finishes with Newton on the full H.  With
    ``initial_guess`` given it runs damped Newton on H directly from that
    guess, which is the uniqueness-probe mode.
    """
    opts = options or SolveOptions()
    grid = problem.grid
    M0 = problem.M0.values
    tol_abs = (opts.newton_tol * math.sqrt(4.0 * math.pi)
               * 2.0 / (integrate(problem.M0) / (4.0 * math.pi)))
    trace, lam_path = [], []
    try:
        if initial_guess is not None:
            lam_path.append(1.0)
            Rv, norm, _ = _newton(problem, initial_guess.values.copy(),
                                  opts, tol_abs, 1.0, trace, "direct")
        else:
            lam = 0.0
            lam_path.append(lam)
            # Each call after the first starts from the radius the one
            # before accepted, so it takes that radius's derivative parts.
            Rv, norm, aux = _newton(problem, 0.5 * M0, opts, tol_abs, lam,
                                    trace, "base")
            dlam, streak = opts.dlam_init, 0
            while lam < 1.0:
                lam_try = min(1.0, lam + dlam)
                try:
                    R_new, norm, aux_new = _newton(
                        problem, Rv.copy(), opts, tol_abs, lam_try, trace,
                        "continuation", aux)
                except _NewtonFail:
                    trace.pop()
                    dlam *= 0.5
                    streak = 0
                    if dlam < opts.dlam_floor:
                        raise NonConvergenceError(
                            f"continuation step fell below the floor at "
                            f"lambda={lam:.4f}", trace)
                    continue
                Rv, aux, lam = R_new, aux_new, lam_try
                lam_path.append(lam)
                streak += 1
                if streak >= 2:
                    dlam = min(2.0 * dlam, 0.5)
                    streak = 0
            Rv, norm, _ = _newton(problem, Rv, opts, tol_abs, 1.0, trace,
                                  "final", aux)
    except _NewtonFail as exc:
        raise NonConvergenceError(str(exc), trace) from exc

    return MotsSolution(
        R=SphereField(grid, Rv), residual_norm=norm,
        newton_trace=trace, lambda_path=lam_path,
        diagnostics={"c0_band": (float(np.min(Rv)), float(np.max(Rv))),
                     "tol_abs": tol_abs})


# -- a-priori bound verification --------------------------------------------

def verify_apriori(R: SphereField, problem: MotsProblem,
                   params: RegimeParameters, bounds=BOUNDS) -> Report:
    """Check every a-priori bound the continuity argument relies on for
    the radius ``R`` of ``problem``'s slice."""
    grid = problem.grid
    Rv = R.values
    M0 = problem.M0.values
    checks = []

    def add(name, passed, value, threshold, ratio, detail):
        checks.append(Check(name, passed, {"value": value,
                                           "threshold": threshold,
                                           "ratio": ratio}, detail))

    lo, hi = c0_band(params, float(np.min(M0)), float(np.max(M0)))
    rmin, rmax = float(np.min(Rv)), float(np.max(Rv))
    viol = max(lo - rmin, rmax - hi) / (hi - lo)
    add("c0_band", rmin >= lo and rmax <= hi, viol, 0.0, max(viol, 0.0),
        f"R in [{lo:.6e}, {hi:.6e}] pointwise")

    mbar = (problem.ubar * params.b ** params.mu * math.sqrt(params.a)
            * problem.zbar + (1.0 - problem.zbar) * 4.0 * problem.m0)
    gt, gp = grid.gradient_values(Rv)
    w12 = float(np.sum(grid.weights * (gt * gt + gp * gp)))
    w12_bound = bounds["w12_threshold"] * mbar
    add("w12", w12 <= w12_bound, w12, w12_bound, w12 / w12_bound,
        "int |grad R|^2 dA << mass scale")

    grad_max = float(np.max(np.hypot(gt, gp) / Rv))
    c1_bound = bounds["c1_threshold"]
    add("c1_gradient", grad_max <= c1_bound, grad_max, c1_bound,
        grad_max / c1_bound, "max |grad R| << 1")

    hess = _hessian_max(grid, Rv)
    hess_bound = bounds["hess_threshold"] * mbar
    add("c2_hessian", hess <= hess_bound, hess, hess_bound, hess / hess_bound,
        "max |second derivatives of R| << mass")

    center = 0.5 * mbar
    hvals = 1.0 + 8.0 / (mbar * mbar) * (Rv - center) ** 2
    hmax = float(np.max(hvals))
    h_bound = bounds["h_threshold"]
    add("h_weight", hmax <= h_bound and float(np.min(hvals)) >= 1.0,
        hmax, h_bound, (hmax - 1.0) / (h_bound - 1.0),
        "Bochner weight stays positive and order one")
    return Report(tuple(checks))
