"""Outgoing null expansion on the data cone and the interior slab model.

On the data cone the lapse is one and the Ricci coefficient omega
vanishes, so the outgoing Raychaudhuri equation closes per angle:

    d(trchi)/dubar = -trchi^2 / 2 - |chihat_0|^2(ubar, omega),

integrated with classical fixed-step RK4 and a step-halving error
estimate: the sweep with n steps runs to the end, then the one with
n // 2 steps, each step in place.  ``integrate_data_cone`` first hands
every stage time of both sweeps to the profile, which evaluates the
amplitude's time factors in one vectorised pass.

In the interior the expansion is not evolved; it is modeled by its
certified leading term 2/u - I(ubar, omega)/u^2 together with an
absolute envelope ubar*sqrt(a)*b^(1/4)/u^2 on the correction, so that
"trapped" can be certified rather than merely observed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import FocusingError, SlabDomainError
from .regime import RegimeParameters, derive
from .sphere import SphereField

TRAPPED_CERTIFIED = "certified-trapped"
TRAPPED_NOMINAL = "nominally-trapped"
UNTRAPPED = "untrapped"
INDETERMINATE = "indeterminate"


@dataclass
class ConeState:
    """trchi(ubar, omega) along the cone u = 1, with Omega identically 1."""

    ubar_nodes: np.ndarray           # stored subset of integration nodes
    # (len(ubar_nodes), ceil(n_theta / ti), ceil(n_phi / pj)): at each
    # stored node, every ti-th theta and pj-th phi node, (ti, pj) being
    # the node step integrate_cone was given (full grid by default)
    trchi: np.ndarray
    trchi_final: np.ndarray          # (n_theta, n_phi)
    # max |full - half| / 15: a step-halving estimate assuming fourth-order
    # convergence, not a bound (mots-ladder regime, 4,096 steps: 1.4e-10
    # against a true error of 1.05e-9; below roundoff at the default)
    step_error: float
    n_steps: int


def _sweep_steps(n_steps):
    # the full sweep and the half sweep of the step-halving estimate
    return n_steps, max(2, n_steps // 2)


def stage_times(ubar_end, steps):
    """Start, midpoint and end of each of ``steps`` RK4 steps from 0."""
    h = ubar_end / steps
    u = np.arange(steps) * h
    return u, u + 0.5 * h, u + h


def _rk4_sweep(amp2_at, ubar_end, steps, y0, blow):
    """Fixed-step RK4 for dy/du = -y^2/2 - amp2_at(u) from u = 0, in place
    on preallocated buffers in the textbook operation order: yields (u, y)
    after each step, y overwritten by the next, and raises FocusingError
    where y diverges."""
    h = ubar_end / steps
    y = y0.copy()
    k1, k2, k3, k4, ys = (np.empty_like(y) for _ in range(5))

    def rhs(u, y, out):
        np.multiply(y, -0.5, out=out)
        out *= y
        out -= amp2_at(u)

    def shifted(k, c):                  # y + c k
        return np.add(y, np.multiply(k, c, out=ys), out=ys)

    times = zip(*(t.tolist() for t in stage_times(ubar_end, steps)))
    for k, (u0, um, u1) in enumerate(times):
        rhs(u0, y, k1)
        rhs(um, shifted(k1, 0.5 * h), k2)
        rhs(um, shifted(k2, 0.5 * h), k3)
        rhs(u1, shifted(k3, h), k4)
        acc = np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)
        acc += np.multiply(k3, 2.0, out=k3)
        acc += k4
        y += np.multiply(acc, h / 6.0, out=acc)
        u = (k + 1) * h
        if not (y.min() >= -blow and y.max() < math.inf):   # or NaN
            raise FocusingError(u)
        yield u, y


def integrate_cone(amp2_at, ubar_end, n_steps, grid, trchi0=2.0,
                   n_store=33, node_step=(1, 1)):
    """RK4 integration of the focusing equation for all angles at once.

    ``amp2_at(ubar)`` must return the squared shear on the grid.  The
    ``n_store`` snapshots keep the nodes ``[::ti, ::pj]`` for
    ``node_step = (ti, pj)``; the final trchi and the error estimate are
    taken on the full grid.  The full sweep runs first, then the half
    sweep, so a FocusingError carries the full sweep's ubar if it
    diverges, otherwise the half sweep's.
    """
    y0 = np.full((grid.n_theta, grid.n_phi), float(trchi0))
    blow = 1e6 * abs(trchi0)
    stride = max(1, n_steps // max(n_store - 1, 1))
    ti, pj = node_step
    nodes = [0.0]
    # y0, then every stride-th step and the last: ceil(n_steps / stride)
    snaps = np.empty((1 - (-n_steps // stride),) + y0[::ti, ::pj].shape)
    snaps[0] = y0[::ti, ::pj]
    sweep = _rk4_sweep(amp2_at, ubar_end, n_steps, y0, blow)
    for k, (u, y) in enumerate(sweep, start=1):
        if k % stride == 0 or k == n_steps:
            snaps[len(nodes)] = y[::ti, ::pj]
            nodes.append(u)
    half = _rk4_sweep(amp2_at, ubar_end, _sweep_steps(n_steps)[1], y0, blow)
    for _, half_y in half:
        pass
    # y is the full sweep's last step; the half sweep has its own buffers
    err = float(np.max(np.abs(y - half_y))) / 15.0
    return ConeState(ubar_nodes=np.array(nodes), trchi=snaps,
                     trchi_final=y, step_error=err, n_steps=n_steps)


def integrate_data_cone(profile, n_steps=2048, n_store=33,
                        node_step=(1, 1)):
    """Solve the focusing equation for a built shear profile on [0, 2delta],
    the amplitude tabulated at the stage times of both sweeps."""
    ubar_end = profile.derived.ubar_end
    profile.tabulate(np.concatenate([
        t for steps in _sweep_steps(n_steps)
        for t in stage_times(ubar_end, steps)]))
    return integrate_cone(profile.amp2_at, ubar_end, n_steps, profile.grid,
                          trchi0=2.0, n_store=n_store, node_step=node_step)


@dataclass
class SlabModel:
    """Leading-order interior trchi with its certified error envelope."""

    params: RegimeParameters
    profile: object                   # ShearProfile (duck-typed: I_at)
    envelope_multiplier: float = 1.0
    derived: object = field(init=False)

    def __post_init__(self):
        self.derived = derive(self.params)

    def _check_domain(self, u, ubar):
        d = self.derived
        if not (d.u_trapped * (1.0 - 1e-12) <= u <= 1.0):
            raise SlabDomainError(
                f"u={u!r} outside the slab [{d.u_trapped!r}, 1]")
        if not (0.0 <= ubar <= d.delta * (1.0 + 1e-12)):
            raise SlabDomainError(
                f"ubar={ubar!r} outside [0, delta={d.delta!r}]")

    def leading(self, u, ubar):
        self._check_domain(u, ubar)
        I = self.profile.I_at(ubar)
        return SphereField(self.profile.grid, 2.0 / u - I / (u * u))

    def envelope(self, u, ubar):
        self._check_domain(u, ubar)
        p = self.params
        return (self.envelope_multiplier * ubar * np.sqrt(p.a)
                * p.b ** 0.25 / (u * u))


@dataclass(frozen=True)
class TrappedVerdict:
    status: str
    min_leading: float
    max_leading: float
    envelope: float


def detect_trapped(slab: SlabModel, u, ubar) -> TrappedVerdict:
    """Interval classification of the sphere S_(u, ubar).

    certified-trapped: leading + envelope < 0 everywhere;
    untrapped: leading - envelope > 0 everywhere; nominally-trapped:
    leading < 0 everywhere but the envelope straddles zero; otherwise
    indeterminate.
    """
    lead, env = slab.leading(u, ubar), slab.envelope(u, ubar)
    lo = float(np.min(lead.values))
    hi = float(np.max(lead.values))
    if hi + env < 0.0:
        status = TRAPPED_CERTIFIED
    elif lo - env > 0.0:
        status = UNTRAPPED
    elif hi < 0.0:
        status = TRAPPED_NOMINAL
    else:
        status = INDETERMINATE
    return TrappedVerdict(status=status, min_leading=lo, max_leading=hi,
                          envelope=float(env))
