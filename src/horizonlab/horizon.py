"""Apparent-horizon assembly from per-slice MOTS radii.

The horizon is the graph u = 1 - R(ubar, omega) over the solved slices.
This module differentiates the radius in ubar (second-order stencils on
the nonuniform slice ladder), estimates areas through the certified
determinant distortion band (1 +- 1/f0), and tests spacelike-ness of the
swept hypersurface through the quadratic form of the induced metric,
whose ubar-ubar entry is the slope scalar h available only under the
small-disc data hypothesis (the CLI's ``toggles.disc_hypothesis``, on by
default; without it the check reports not-certified rather than
guessing).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .regime import RegimeParameters
from .sphere import SphereField, integrate


def h_slope(params: RegimeParameters, ubar, zbar, dzbar):
    """Slope scalar 0.5*(zeta + ubar*zeta' - zeta')*sqrt(a)*b^mu.

    The formula is the schematic disc-hypothesis estimate and is used
    only as the quadratic-form coefficient.
    """
    amp = math.sqrt(params.a) * params.b ** params.mu
    return 0.5 * (zbar + ubar * dzbar - dzbar) * amp


@dataclass
class HorizonAssembly:
    """Slices, their radius fields, and ubar-derivatives of the graph."""

    params: RegimeParameters
    ubars: np.ndarray
    radii: list             # SphereField R per slice
    h_values: list | None   # slope scalar per slice; None: no disc hypothesis

    def dR_dubar(self, k):
        """dR/dubar at slice k (negative k counts from the end) by the
        second-order nonuniform centered stencil; None at the end slices.
        Built on each call, so no list of fields is held."""
        k = range(len(self.ubars))[k]
        if k in (0, len(self.ubars) - 1):
            return None
        u, (fm, f0, fp) = self.ubars, self.radii[k - 1:k + 2]
        hl, hr = u[k] - u[k - 1], u[k + 1] - u[k]
        vals = (fp.values * hl * hl - fm.values * hr * hr
                + f0.values * (hr * hr - hl * hl)) / (hl * hr * (hl + hr))
        return SphereField(f0.grid, vals)


def assemble(params: RegimeParameters, profile, ubars, radii, *,
             disc_hypothesis) -> HorizonAssembly:
    """Join the radius fields ``radii`` of the slices ``ubars`` into one
    horizon object.

    Slices must be strictly ordered in ubar; ``dR_dubar`` gives the
    ubar-derivative on interior slices.
    """
    ubars = np.array(ubars, dtype=float)
    if np.any(np.diff(ubars) <= 0.0):
        raise ValueError("slices must be strictly increasing in ubar")
    h_values = [h_slope(params, u, profile.zbar_at(u), profile.dzbar_at(u))
                for u in map(float, ubars)] if disc_hypothesis else None
    return HorizonAssembly(params=params, ubars=ubars, radii=radii,
                           h_values=h_values)


@dataclass(frozen=True)
class AreaEstimate:
    area_lo: float
    area_mid: float
    area_hi: float
    radius_proxy_lo: float
    radius_proxy_mid: float
    radius_proxy_hi: float


def area(assembly: HorizonAssembly, k) -> AreaEstimate:
    """Area interval of the MOTS on slice k under the determinant
    distortion band.  The midpoint is the quadrature of R^2 over the unit
    sphere grid.  R > 0 is not checked here: ``mots.residual_H`` raises
    PositivityError at a radius that is not, and the CLI takes that
    residual of every slice before any area."""
    R = assembly.radii[k]
    a_mid = integrate(SphereField(R.grid, np.square(R.values)))
    f0 = assembly.params.f0
    a_lo = (1.0 - 1.0 / f0) * a_mid
    a_hi = (1.0 + 1.0 / f0) * a_mid
    rp = [math.sqrt(a / (16.0 * math.pi)) for a in (a_lo, a_mid, a_hi)]
    return AreaEstimate(area_lo=a_lo, area_mid=a_mid, area_hi=a_hi,
                        radius_proxy_lo=rp[0], radius_proxy_mid=rp[1],
                        radius_proxy_hi=rp[2])


@dataclass(frozen=True)
class SpacelikeResult:
    status: str                       # "spacelike" | "not-certified"
    reason: str
    min_schur: float | None           # None: no margin is formed


def spacelike_check(assembly: HorizonAssembly, k) -> SpacelikeResult:
    """Positivity test of the induced quadratic form at slice k.

    The form in the coordinate directions (theta1, theta2, ubar) is
    diag(R^2, R^2 sin^2) plus cross terms 4*lambda_i*lambda_3*dR/dtheta_i
    and h*(1+o1) in the ubar direction.  Positive-definiteness is decided
    by the exact adversarial direction (the Schur complement of the
    angular block), whose smallest value over the nodes is the reported
    margin.  With h <= 0 (h = 0 on the null slices past the cutoff) the
    form is degenerate or indefinite along ubar, and no margin is formed.
    """
    if assembly.h_values is None:
        return SpacelikeResult("not-certified", "disc hypothesis disabled",
                               None)
    q33 = assembly.h_values[k] * (1.0 + assembly.params.o1)
    if q33 <= 0.0:
        return SpacelikeResult("not-certified", "slope scalar h <= 0: the "
                               "ubar direction is null (h = 0) or timelike",
                               None)
    R = assembly.radii[k]
    grid, Rv = R.grid, R.values
    gt, gp = grid.gradient_values(Rv)
    sin = grid.sin_theta[:, None]
    g11 = Rv * Rv
    g22 = Rv * Rv * sin * sin
    q13 = 2.0 * gt                      # coordinate derivative dR/dtheta1
    q23 = 2.0 * gp * sin                # dR/dtheta2 = sin * frame component
    schur = q33 - q13 * q13 / g11 - q23 * q23 / g22
    min_schur = float(np.min(schur))
    ok = (np.all(g11 > 0.0) and np.all(g22 > 0.0) and min_schur > 0.0)
    if ok:
        return SpacelikeResult("spacelike", "quadratic form positive at "
                               "all nodes", min_schur)
    return SpacelikeResult("not-certified",
                           "quadratic form not positive definite", min_schur)
