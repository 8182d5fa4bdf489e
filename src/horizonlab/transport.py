"""Outgoing null expansion on the data cone and the interior slab model.

On the data cone the lapse is one and the Ricci coefficient omega
vanishes, so the outgoing Raychaudhuri equation closes per angle:

    d(trchi)/dubar = -trchi^2 / 2 - |chihat_0|^2(ubar, omega),

integrated with classical fixed-step RK4 and a step-halving error
estimate: the sweep with n steps runs to the end, then the one with
n // 2 steps, each step in place.  Off the notch's cap nodes the forcing
is alpha(ubar) + beta(ubar) * Y(omega), so trchi there depends on the
angle through the wobble Y alone.  ``integrate_data_cone`` therefore
sweeps Y_POINTS Chebyshev-Lobatto columns in Y and one column per cap
node, and takes them back to the grid by the barycentric formula.

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
from .reporting import Check, Report
from .sphere import SphereField

TRAPPED_CERTIFIED = "certified-trapped"
TRAPPED_NOMINAL = "nominally-trapped"
UNTRAPPED = "untrapped"
INDETERMINATE = "indeterminate"

# Chebyshev-Lobatto columns of the data-cone sweep in the wobble Y.  trchi
# is affine in Y to roundoff at every shipped setting, where 3 points
# already reproduce the full-grid sweep; 17 carry degree 16 in Y.
Y_POINTS = 17

# trchi where the data cone u = 1 meets the incoming cone ubar = 0: 2/u.
TRCHI0 = 2.0


@dataclass
class ConeState:
    """trchi(ubar, omega) along the cone u = 1, with Omega identically 1."""

    ubar_nodes: np.ndarray           # stored subset of integration nodes
    trchi: np.ndarray                # (len(ubar_nodes),) + stored points
    trchi_final: np.ndarray          # the full sweep's last step
    trchi_half: np.ndarray           # the half sweep's last step
    n_steps: int
    # integrate_data_cone's max |S(full) - S(half)| over the columns, S
    # Simpson's rule on a sweep's stage times; integrate_cone leaves 0.0
    simpson_halving: float = 0.0

    @property
    def step_error(self):
        # max |full - half| / 15: a step-halving estimate assuming
        # fourth-order convergence, not a bound (mots-ladder regime, 4,096
        # steps: 1.4e-10 against a true error of 1.05e-9; below roundoff
        # at the default)
        return float(np.max(np.abs(self.trchi_final - self.trchi_half))) / 15


def step_plans(ubar_end, n_steps):
    """Yield (h, at, stages) of the full sweep to ``ubar_end``, then of the
    half sweep of the step-halving estimate: the only place RK4 step times
    are formed.  Step k runs from at[k] = k h to at[k + 1], which the sweep
    reports.  Its stages read the amplitude at stages[0][k] = at[k], twice
    at the midpoint stages[1][k], and at stages[2][k] = at[k] + h, which
    may differ from at[k + 1] in the last bit."""
    for steps in (n_steps, max(2, n_steps // 2)):
        h = ubar_end / steps
        at = np.arange(steps + 1) * h
        yield h, at, (at[:-1], at[:-1] + 0.5 * h, at[:-1] + h)


def _rk4_sweep(amp2_at, plan, y0, c, blow):
    """Fixed-step RK4 for y = trchi - c from y = y0 at u = 0 on the steps of
    ``plan``, that is dy/du = -(y/2 + c) y - amp2_at(u) - c^2/2, in place on
    preallocated buffers in the textbook operation order: yields (u, y)
    after each step, y overwritten by the next, and raises FocusingError
    where trchi falls below -blow or is not finite."""
    (h, at, stages), half_c2 = plan, 0.5 * c * c
    y = y0.copy()
    k1, k2, k3, k4, ys = (np.empty_like(y) for _ in range(5))

    def rhs(u, y, out):
        np.multiply(y, -0.5, out=out)
        out -= c
        out *= y
        out -= amp2_at(u)
        out -= half_c2

    def shifted(k, a):                  # y + a k
        return np.add(y, np.multiply(k, a, out=ys), out=ys)

    times = zip(*(t.tolist() for t in stages + (at[1:],)))
    for u0, um, u1, u in times:
        rhs(u0, y, k1)
        rhs(um, shifted(k1, 0.5 * h), k2)
        rhs(um, shifted(k2, 0.5 * h), k3)
        rhs(u1, shifted(k3, h), k4)
        acc = np.add(k1, np.multiply(k2, 2.0, out=k2), out=k2)
        acc += np.multiply(k3, 2.0, out=k3)
        acc += k4
        y += np.multiply(acc, h / 6.0, out=acc)
        if not (y.min() >= -blow - c and y.max() < math.inf):   # or NaN
            raise FocusingError(u)
        yield u, y


def integrate_cone(amp2_at, ubar_end, n_steps, shape, n_store=33):
    """RK4 integration of the focusing equation at every point of an array
    of ``shape`` at once, from trchi = TRCHI0 at ubar = 0.

    ``amp2_at(ubar)`` must return the squared shear on those points.  The
    sweeps of ``step_plans`` run one after the other, the full one to the
    end, then the half one; both carry trchi - TRCHI0, so their roundoff
    scales with trchi's departure from its start.  ``n_store`` snapshots
    of the first are kept.  A FocusingError carries the full sweep's ubar
    if it diverges, otherwise the half sweep's.
    """
    c = TRCHI0
    y0, blow = np.zeros(shape), 1e6 * abs(c)
    full, half = step_plans(ubar_end, n_steps)
    stride = max(1, n_steps // max(n_store - 1, 1))
    nodes = [0.0]
    # y0, then every stride-th step and the last: ceil(n_steps / stride)
    snaps = np.empty((1 - (-n_steps // stride),) + y0.shape)
    snaps[0] = y0
    for k, (u, y) in enumerate(_rk4_sweep(amp2_at, full, y0, c, blow),
                               start=1):
        if k % stride == 0 or k == n_steps:
            snaps[len(nodes)] = y
            nodes.append(u)
    # y is the full sweep's last step; the half sweep has its own buffers
    for _, half_y in _rk4_sweep(amp2_at, half, y0, c, blow):
        pass
    snaps += c
    return ConeState(ubar_nodes=np.array(nodes), trchi=snaps,
                     trchi_final=y + c, trchi_half=half_y + c,
                     n_steps=n_steps)


def _lobatto(lo, hi, n):
    """n Chebyshev-Lobatto points on [lo, hi], ascending, ends exact."""
    x = 0.5 * (lo + hi) - 0.5 * (hi - lo) * np.cos(np.arange(n) * np.pi
                                                    / (n - 1))
    x[0], x[-1] = lo, hi
    return x


def _distinct(t):
    """``np.unique(t)`` by its sort and adjacent-difference mask, written
    out: np.unique imports numpy.ma, which evolve needs nowhere else."""
    t = np.sort(np.asarray(t, dtype=float), axis=None)
    keep = np.empty(t.shape, dtype=bool)
    keep[:1] = True
    np.not_equal(t[1:], t[:-1], out=keep[1:])
    return t[keep]


def _barycentric(x, nodes, values):
    """The polynomial through (nodes[j], values[j]) at the points x, for
    Chebyshev-Lobatto nodes: ``values`` is (len(nodes), m), the result
    (m,) + x.shape.  The barycentric formula (Berrut & Trefethen, SIAM
    Review 46 (2004) 501), summed one node at a time so that no
    (len(nodes),) + x.shape array is held; a point equal to a node takes
    that node's values."""
    w = np.where(np.arange(len(nodes)) % 2, -1.0, 1.0)
    w[[0, -1]] *= 0.5
    num = np.zeros((values.shape[1],) + x.shape)
    den = np.zeros(x.shape)
    c = np.empty(x.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, node in enumerate(nodes):
            np.divide(w[j], np.subtract(x, node, out=c), out=c)
            den += c
            num += values[j].reshape((-1,) + (1,) * x.ndim) * c
        num /= den
    for j, node in enumerate(nodes):
        num[:, x == node] = values[j][:, None]
    return num


def _to_nodes(cols, ys, Y, cap, node_step=(1, 1)):
    """Column values at the nodes ``[::ti, ::pj]`` of the wobble Y.

    ``cols`` is (len(ys) + len(cap), m): the values on the Lobatto points
    ys, then one column per cap node (flat index in ``cap``), which that
    node takes as it is.  Returns the (m,) + Y[::ti, ::pj].shape values.
    """
    ti, pj = node_step
    n = len(ys)
    out = _barycentric(Y[::ti, ::pj], ys, cols[:n])
    flat = np.arange(Y.size).reshape(Y.shape)[::ti, ::pj].ravel()
    k = np.minimum(np.searchsorted(flat, cap), flat.size - 1)
    on = flat[k] == cap
    out.reshape(len(out), -1)[:, k[on]] = cols[n:][on].T
    return out


def integrate_data_cone(profile, n_steps=2048, n_store=33,
                        node_step=(1, 1)):
    """Solve the focusing equation for a built shear profile on [0, 2delta].

    Off the cap nodes the amplitude is alpha + beta * Y, so trchi depends
    on the angle through the wobble Y alone.  ``integrate_cone`` therefore
    runs on the profile's ``on_columns`` view: Y_POINTS Chebyshev-Lobatto
    columns spanning the grid's [min Y, max Y], and one column per cap
    node, whose amplitude is one read-only table at the distinct stage
    times of both sweeps, which also gives ``simpson_halving``.  The
    barycentric formula takes the final trchi of both sweeps to the grid,
    where ``step_error`` is taken, and the snapshots to ``[::ti, ::pj]``.
    """
    ubar_end = profile.derived.ubar_end
    Y, cap = profile._Y, profile._cap
    ys = _lobatto(float(np.min(Y)), float(np.max(Y)), Y_POINTS)
    plans = tuple(step_plans(ubar_end, n_steps))
    columns = profile.on_columns(ys, _distinct(np.concatenate(
        [t for _, _, stages in plans for t in stages])))
    cone = integrate_cone(columns.amp2_at, ubar_end, n_steps,
                          columns._Y.shape, n_store=n_store)
    allowance = _simpson_halving(columns, plans)
    del columns                 # its table is not held through _to_nodes
    final, half = _to_nodes(
        np.concatenate((cone.trchi_final, cone.trchi_half)).T, ys, Y, cap)
    return ConeState(ubar_nodes=cone.ubar_nodes,
                     trchi=_to_nodes(cone.trchi[:, 0].T, ys, Y, cap,
                                     node_step),
                     trchi_final=final, trchi_half=half, n_steps=n_steps,
                     simpson_halving=allowance)


def _simpson_halving(columns, plans):
    """max over the columns of |S(full) - S(half)|, S Simpson's rule on a
    sweep's stage times: one weight per time of the view's table, so one
    product with it.  The columns span the grid's Y range, where the
    amplitude is affine, and every cap node."""
    times, table = columns._times, columns._table
    w = np.zeros(times.size)
    for sign, (h, _, stages) in zip((1.0, -1.0), plans):
        for t, weight in zip(stages, (1.0, 4.0, 1.0)):
            # a sweep's starts (or midpoints, or ends) are distinct times
            w[times.searchsorted(t)] += sign * weight * h / 6.0
    return float(np.max(np.abs(w @ table.reshape(times.size, -1))))


def cone_checks(profile, cone) -> Report:
    """evolve's check on a data-cone sweep, ``trchi_bracket``.

    With A >= 0 and 0 < trchi <= 2 the equation gives 2 - 2 ubar - I <=
    trchi <= 2 - I, I the closed-form cumulative shear, which the check
    asks of every node at ubar_end.  An RK4 step adds exactly Simpson's
    rule on the amplitude, so the interval is widened by the step-halving
    difference of that quadrature, ``cone.simpson_halving``, which reads no
    sweep, and by the roundoff allowance n_steps * eps * max |trchi|.  A
    wrong amplitude, which moves both sweeps alike, fails it.
    """
    u = profile.derived.ubar_end
    y = cone.trchi_final
    I = profile.I_at(u)
    outside = float(np.max(np.maximum((2.0 - 2.0 * u - I) - y, y - (2.0 - I))))
    allowance = (cone.n_steps * np.finfo(float).eps * float(np.max(np.abs(y)))
                 + cone.simpson_halving)
    return Report((
        Check("trchi_bracket", bool(outside <= allowance),
              {"measured": outside, "threshold": allowance},
              "largest excess of trchi_final over [2 - 2 ubar_end - I, "
              "2 - I] (negative: inside)"),))


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
