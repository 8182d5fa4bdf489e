"""ADM-mass window, per-slice Penrose margins, and regime classification.

The gluing pins the ADM mass to m0 within eps = C a^(1/2) delta^(1/2),
and the area estimate pins the radius proxy of each MOTS, so the margin

    m_ADM - sqrt(area / 16 pi)

carries an analytic lower bound amp * (1/4 - o1) * (lambda delta - ubar)
minus eps.  Rewriting in powers of a shows the sign is decided by
o1 * a^(t y - 1/2) against the unknown constant multiplying eps, except
within delta^(3/2) of the window end where the comparison degenerates.
All classification arithmetic runs in log-a space; floats only appear
when a report value is emitted.  The upper side is never classified as
a violation: the error in m - m0 is one-sided information only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from .errors import ConfigError, ConstraintError, MalformedParametersError
from .regime import RegimeParameters, derive, validate

CERTIFIED_POSITIVE = "certified-positive"
INCONCLUSIVE = "inconclusive"
VIOLATED_NEVER = "violated-never"


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def __post_init__(self):
        if not self.lo <= self.hi:
            raise ValueError(f"ill-ordered interval [{self.lo}, {self.hi}]")

    def __sub__(self, other):
        return Interval(self.lo - other.hi, self.hi - other.lo)


def exponent_ledger(params: RegimeParameters):
    """Named log-a exponents that drive every sign decision."""
    p = params
    return {
        "ty_minus_half": p.t * p.y - 0.5,
        "kappa_mu_minus_y_half": p.kappa * p.mu - 0.5 * p.y,
        "half_minus_y_half": 0.5 - 0.5 * p.y,
        "half_minus_y": 0.5 - p.y,
        "kappa_mu_plus_half_minus_y": p.kappa * p.mu + 0.5 - p.y,
        "kappa_mu_minus_y": p.kappa * p.mu - p.y,
    }


def adm_mass(params: RegimeParameters) -> Interval:
    """ADM-mass window [m0 - eps, m0 + eps] from the gluing scalars."""
    d = derive(params)
    return Interval(d.m0 - d.eps_glue, d.m0 + d.eps_glue)


@dataclass(frozen=True)
class MarginResult:
    ubar: float
    numeric: Interval
    analytic_lo: float
    analytic_hi: float


def margin(params: RegimeParameters, radius_proxy_interval: Interval,
           ubar) -> MarginResult:
    """Penrose margin at one slice: interval arithmetic plus the bound.

    The analytic bound is amp*(1/4 -+ o1)*(lambda delta - ubar) -+ eps,
    reported with the conservative signs on each side.
    """
    d = derive(params)
    numeric = adm_mass(params) - radius_proxy_interval
    gap = d.ubar_lambda - ubar
    amp = d.shear_amp
    lo_coef = 0.25 - params.o1 if gap >= 0.0 else 0.25 + params.o1
    hi_coef = 0.25 + params.o1 if gap >= 0.0 else 0.25 - params.o1
    analytic_lo = amp * lo_coef * gap - d.eps_glue
    analytic_hi = amp * hi_coef * gap + d.eps_glue
    return MarginResult(ubar=float(ubar), numeric=numeric,
                        analytic_lo=analytic_lo, analytic_hi=analytic_hi)


def margin_exponent_forms(params: RegimeParameters):
    """The window-start margin lower bound, computed along two routes.

    Route "direct" multiplies the dimensional factors; route "factored"
    pulls out a^(1/2 - y/2) and compares a^(kappa mu - y/2) against the
    gluing constant, which is the exponent form used to classify
    regimes.  The two must agree to ulp-scale relative tolerance.
    """
    p = params
    d = derive(params)
    gap_coef = p.lambda_lo - d.ubar_start / p.delta   # lambda - ubar/delta
    o1_slot = (0.25 - p.o1) * gap_coef
    direct = ((0.25 - p.o1) * p.b ** p.mu * math.sqrt(p.a) * p.delta
              * gap_coef - d.eps_glue)
    factored = ((p.a ** (p.kappa * p.mu - 0.5 * p.y) * o1_slot - p.C_eps)
                * p.a ** (0.5 - 0.5 * p.y))
    return {"direct": direct, "factored": factored, "o1_slot": o1_slot,
            "c2_slot": p.C_eps,
            "leading_exponent": p.kappa * p.mu - 0.5 * p.y,
            "common_exponent": 0.5 - 0.5 * p.y}


@dataclass(frozen=True)
class RegimeClassification:
    status: str
    upper_side: str                   # always "violated-never"
    reasons: tuple
    log_slack: float                  # ln(o1 * a^(ty-1/2)) - ln(c2 bound)
    exponents: dict


def classify_regime(params: RegimeParameters, ubar) -> RegimeClassification:
    """Certified-positive / inconclusive verdict for the margin sign.

    Requires the coupling kappa*mu + 1/2 = (1/2 + t)*y; the decision is
    ln(o1) + (t*y - 1/2) ln(a) > ln(c2 bound), in log-a space.  Within
    delta^(3/2) of the window end the comparison degenerates and the
    verdict is inconclusive regardless.  The upper side never reports a
    violation: the sign of the mass error is unknown.
    """
    p = params
    if not p.penrose_coupling:
        raise ConfigError("classify_regime requires the Penrose coupling "
                          "kappa*mu + 1/2 = (1/2 + t)*y to be enabled")
    d = derive(params)
    exps = exponent_ledger(params)
    reasons = []
    ln_a = math.log(p.a)
    texp = exps["ty_minus_half"]
    log_slack = math.log(p.o1) + texp * ln_a - math.log(p.c2_unknown_bound)
    gap = d.ubar_lambda - ubar
    degenerate = gap <= p.delta ** 1.5
    if degenerate:
        status = INCONCLUSIVE
        reasons.append("ubar within delta^(3/2) of lambda*delta: leading "
                       "term drops below the unknown-constant scale")
    elif texp <= 0.0:
        status = INCONCLUSIVE
        reasons.append("exponent t*y - 1/2 is not positive; no growth in a")
    elif log_slack > 0.0:
        status = CERTIFIED_POSITIVE
        reasons.append(f"o1 * a^(ty-1/2) exceeds the unknown-constant "
                       f"bound by e^{log_slack:.3g}")
    else:
        status = INCONCLUSIVE
        reasons.append("o1 * a^(ty-1/2) does not clear the "
                       "unknown-constant bound")
    return RegimeClassification(status=status, upper_side=VIOLATED_NEVER,
                                reasons=tuple(reasons),
                                log_slack=log_slack, exponents=exps)


def sweep(base: RegimeParameters, axes: dict, ubar_fracs=None):
    """Classification map over a parameter grid.

    ``axes`` may contain lists under "kappa", "y", "t" (mu always follows
    the coupling); invalid grid points are reported, not skipped.
    ``ubar_fracs`` positions the slice inside the window: ubar =
    ubar_start + frac*(lambda*delta - ubar_start).
    """
    kappas = axes.get("kappa", [base.kappa])
    ys = axes.get("y", [base.y])
    ts = axes.get("t", [base.t])
    fracs = ubar_fracs if ubar_fracs is not None else [0.0]
    if not (len(kappas) and len(ys) and len(ts) and len(fracs)):
        raise ValueError("sweep grid must be nonempty on every axis")
    rows = []
    for kap in kappas:
        for y in ys:
            for t in ts:
                row = {"kappa": float(kap), "y": float(y), "t": float(t)}
                try:
                    p = replace(base, kappa=float(kap), y=float(y),
                                t=float(t), mu=None)
                    rep = validate(p)
                    if not rep.passed:
                        raise ConstraintError(rep.failing()[0].name,
                                              "invalid grid point")
                    d = derive(p)
                except (ConstraintError, MalformedParametersError) as exc:
                    reason = getattr(exc, "constraint", "malformed")
                    row.update(mu=float("nan"), valid=False, reason=reason)
                    for frac in fracs:
                        rows.append(dict(row, ubar_frac=float(frac),
                                         status="invalid", log_slack=0.0))
                    continue
                row.update(mu=p.mu, valid=True, reason="")
                for frac in fracs:
                    ubar = d.ubar_start + frac * (d.ubar_lambda
                                                  - d.ubar_start)
                    cls = classify_regime(p, ubar)
                    rows.append(dict(row, ubar_frac=float(frac),
                                     status=cls.status,
                                     log_slack=cls.log_slack))
    return rows
