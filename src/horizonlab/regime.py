"""Scalar parameters of the construction and the inequalities between them.

The construction is governed by a large amplitude ``a`` and exponents
kappa, mu, y through b = a**kappa and delta = a**(-y).  Everything else
(window endpoints, the trapped-sphere location, the gluing half-width,
the mass scale m0) is derived.  ``validate`` reports every inequality
with its numeric slack; ``derive`` refuses to run on an invalid regime.

This module is also the numpy-free home of the stage parameter records
the CLI's config schema reads at import (``ProfileSpec``, ``NORM_BUDGET``,
``SolveOptions``, ``BOUNDS``) and of ``c0_band``, which the report stage
evaluates; ``shear`` and ``mots`` re-export them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

from .errors import ConstraintError, MalformedParametersError
from .reporting import Check, Report


def coupled_mu(kappa, y, t):
    """Exponent mu fixed by kappa*mu + 1/2 = (1/2 + t)*y."""
    return ((0.5 + t) * y - 0.5) / kappa


@dataclass(frozen=True)
class RegimeParameters:
    """All raw scalars plus the derived b, delta, m0.

    With ``penrose_coupling`` enabled (the default), ``mu`` may be omitted
    and is then fixed by the coupling identity; an explicit ``mu`` is kept
    as given and checked by ``validate``.  The defaults are the default
    regime, chosen to satisfy every constraint with visible slack (a=1e4,
    kappa=0.6, y=10, t=0.3 couples to mu=12.5).
    """

    a: float = 1.0e4
    kappa: float = 0.6
    y: float = 10.0
    t: float = 0.3
    mu: float | None = None
    gamma: float = 0.05
    lambda_lo: float = 0.88
    lambda_hi: float = 0.91
    c1: float = 20.0
    c2_zeta: float = 20.0
    c2_unknown_bound: float = 1.0
    o1: float = 0.05
    d0: float = 20.0
    f0: float = 100.0
    C_eps: float = 1.0
    penrose_coupling: bool = True
    b: float = field(init=False)
    delta: float = field(init=False)
    m0: float = field(init=False)

    def __post_init__(self):
        raw = [getattr(self, f.name) for f in fields(self)
               if f.init and f.type != "bool"
               and not (f.name == "mu" and self.mu is None)]
        for v in raw:
            if not (isinstance(v, (int, float)) and math.isfinite(v)):
                raise MalformedParametersError(
                    f"non-finite or non-numeric parameter value {v!r}")
        if self.a <= 1.0:
            raise MalformedParametersError("amplitude a must exceed 1")
        if self.mu is None:
            if not self.penrose_coupling:
                raise MalformedParametersError(
                    "mu must be given when the Penrose coupling is disabled")
            object.__setattr__(self, "mu",
                               coupled_mu(self.kappa, self.y, self.t))
        object.__setattr__(self, "b", self.a ** self.kappa)
        object.__setattr__(self, "delta", self.a ** (-self.y))
        m0 = (self.b ** self.mu * math.sqrt(self.a) * self.lambda_lo
              * self.delta * (1.0 + self.o1) / 4.0)
        object.__setattr__(self, "m0", m0)


def validate(params: RegimeParameters) -> Report:
    """Check every regime inequality; slack > 0 means satisfied."""
    p = params
    ln_a = math.log(p.a)
    checks = []

    def add(name, slack, detail=""):
        checks.append(Check(name, slack > 0.0, {"slack": slack}, detail))

    # kappa > 1/2 is the same statement as sqrt(a) < b; one entry.
    add("kappa_gt_half", p.kappa - 0.5, "1/2 < kappa (equivalently b > sqrt(a))")
    add("kappa_lt_one", 1.0 - p.kappa)
    add("mu_gt_one", p.mu - 1.0)
    add("scale_exponent", -(p.kappa * p.mu - p.y + 0.5),
        "kappa*mu - y + 1/2 < 0")
    # The two smallness conditions are not equivalent; both enforced.
    add("delta_sqrta_b_lt_one", (p.y - 0.5 - p.kappa) * ln_a,
        "delta*a^(1/2)*b < 1, in log-a form")
    add("delta_sqrta_bmu_lt_one", (p.y - 0.5 - p.kappa * p.mu) * ln_a,
        "delta*a^(1/2)*b^mu < 1, in log-a form")
    add("window_start_below_lambda",
        p.lambda_lo - p.gamma * p.a ** (0.5 - p.kappa),
        "gamma*a^(1/2)/b < lambda")
    add("lambda_ordering", p.lambda_hi - p.lambda_lo)
    add("lambda_hi_headroom", 1.0 - p.o1 - p.lambda_hi,
        "lambda' < 1 - o1")
    add("t_range", min(p.t, 0.5 - p.t), "0 < t < 1/2")
    add("y_positive", p.y)
    add("gamma_range", min(p.gamma, 1.0 - p.gamma))
    add("o1_range", min(p.o1, 1.0 - p.o1))
    add("c1_floor", p.c1 - 20.0 + 1e-12, "angular bound constant c1 >= 20")
    add("c2_floor", p.c2_zeta - 20.0 + 1e-12)
    add("d0_large", p.d0 - 1.0)
    add("f0_large", p.f0 - 10.0, "area distortion constant f0 >> 1")
    if p.penrose_coupling:
        lhs = p.kappa * p.mu + 0.5
        rhs = (0.5 + p.t) * p.y
        rel = abs(lhs - rhs) / max(abs(rhs), 1.0)
        checks.append(Check(
            "penrose_coupling_identity", rel <= 64.0 * math.ulp(1.0),
            {"slack": 64.0 * math.ulp(1.0) - rel},
            "kappa*mu + 1/2 = (1/2 + t)*y to ulp-scale"))
    return Report(tuple(checks))


@dataclass(frozen=True)
class DerivedScalars:
    """Dependent quantities of a validated regime (all strictly positive)."""

    b: float
    delta: float
    m0: float
    shear_amp: float          # a^(1/2) b^mu, the window slope of I
    ubar_start: float         # gamma a^(1/2) delta / b
    ubar_lambda: float        # lambda delta
    ubar_lambda_hi: float     # lambda' delta
    ubar_end: float           # 2 delta
    u_trapped: float          # b delta a^(1/2)
    eps_glue: float           # C a^(1/2) delta^(1/2)


def derive(params: RegimeParameters) -> DerivedScalars:
    """Derived scalars; refuses (naming the constraint) if validate fails."""
    report = validate(params)
    if not report.passed:
        bad = report.failing()[0]
        raise ConstraintError(
            bad.name, f"cannot derive scalars, slack={bad['slack']:.3g}")
    p = params
    sqrt_a = math.sqrt(p.a)
    d = DerivedScalars(
        b=p.b,
        delta=p.delta,
        m0=p.m0,
        shear_amp=sqrt_a * p.b ** p.mu,
        ubar_start=p.gamma * sqrt_a * p.delta / p.b,
        ubar_lambda=p.lambda_lo * p.delta,
        ubar_lambda_hi=p.lambda_hi * p.delta,
        ubar_end=2.0 * p.delta,
        u_trapped=p.b * p.delta * sqrt_a,
        eps_glue=p.C_eps * sqrt_a * math.sqrt(p.delta),
    )
    ordered = (0.0 < d.ubar_start < d.ubar_lambda < d.ubar_lambda_hi
               < d.ubar_end)
    if not ordered:
        raise ConstraintError("window_ordering",
                              "ubar window endpoints are not strictly ordered")
    return d


# -- stage parameter records ------------------------------------------------

# Scale-critical norm budget, calibrated once on the default regime
# (measured 3.9e19 at the default grids, stable under refinement) and
# frozen with headroom (see shear.scale_critical_norm).
NORM_BUDGET = 6.0e19


@dataclass(frozen=True)
class ProfileSpec:
    """Shape knobs for the admissible example built by
    ``shear.build_profile``.

    ``wobble_frac`` and ``zeta_wobble_frac`` are the fraction of the
    1/c1 and 1/c2 angular budgets spent on the smooth background wobble;
    the rest of the f budget absorbs the moving-zero deficit.
    """

    n_ubar: int = 257
    wobble_frac: float = 0.5
    zeta_wobble_frac: float = 0.5
    cap_width: float = 3.0e-4      # angular half-width of the zero notch
    park_frac: float = 0.25        # locus ramp-in scale, fraction of w0
    phi0: float = 0.7              # meridian carrying the zero set
    repay_lo: float = 0.30         # repay bump support, fractions of
    repay_hi: float = 0.70         # lambda*delta


@dataclass(frozen=True)
class SolveOptions:
    newton_tol: float = 1.0e-9       # relative to the slice 1/length scale
    max_iter: int = 50
    lin_tol: float = 1.0e-10
    dlam_init: float = 0.1
    dlam_floor: float = 1.0e-4


# Thresholds of the a-priori bounds, keyed as in the config's [bounds].
BOUNDS = {"c1_threshold": 0.1, "hess_threshold": 0.1,
          "w12_threshold": 0.1, "h_threshold": 1.5}


def c0_band(params: RegimeParameters, m0_min, m0_max):
    """The C0 band (1 -+ 1/c1)(1 -+ 1/c2)(1/2 -+ o1) M0 of the radius,
    from the extremes of the mass profile M0."""
    lo = ((1.0 - 1.0 / params.c1) * (1.0 - 1.0 / params.c2_zeta)
          * (0.5 - params.o1) * m0_min)
    hi = ((1.0 + 1.0 / params.c1) * (1.0 + 1.0 / params.c2_zeta)
          * (0.5 + params.o1) * m0_max)
    return lo, hi
