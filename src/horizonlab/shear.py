"""Initial shear profile |chihat_0|^2(ubar, omega) and its verifier.

The cumulative shear I(ubar, omega) = int_0^ubar |chihat_0|^2 is pinned by
three requirements: it equals shear_amp * f * ubar on the main window
[ubar_start, lambda*delta], it interpolates to the constant 4*m0 across
[lambda*delta, lambda'*delta] through a cutoff zeta, and the total is
exactly 4*m0 for every angle.  On top of that the squared amplitude must
be nonnegative (I monotone) and must vanish at one moving point per slice
(a traceless two tensor on S^2 has a zero somewhere, and the zero set is
not allowed to sit still).

Monotonicity across the cutoff interval forces lambda' < lambda*(1+o1):
past that point the window identity would overshoot the total and the
squared amplitude would have to go negative.  The builder enforces this
and refuses infeasible parameter combinations.

The moving zero is a narrow multiplicative notch that travels along a
fixed meridian with speed inversely proportional to ubar, so the shear
lost at any angle stays a small fraction of I there; the loss is repaid
exactly (per angle, in the grid quadrature) by a smooth boost supported
in the interior of the main window, which keeps the total identity exact
rather than approximate.
"""

from __future__ import annotations

import collections
import copy
import math
from dataclasses import InitVar, asdict, dataclass, field, fields
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import ConstraintError, ResolutionError
from .regime import NORM_BUDGET, ProfileSpec, RegimeParameters, derive
from .reporting import Check, Report, load_artifact, save_artifact
from .sphere import SphereGrid, SphereField, get_grid

# ubar nodes per chunk of verify_profile: at 64x128 its traced peak is
# 3.96 MB at 4 nodes, 7.10 MB at 8, for 0.03 s more; no result depends on it.
UBAR_CHUNK = 4
# ubar nodes scale_critical_norm loads per step.  Its ring holds (h, grad h)
# at NORM_STEP + 4 nodes and each transform stacks NORM_STEP slices, on top
# of the grid's 4.2 MB of Legendre tables, which sets gen-data's traced peak:
# at 64x128 the norm peaks 1.82, 2.03 and 3.20 MB above the tables at 1, 2
# and 4 nodes, in 0.30, 0.23 and 0.19 s.  The value moves by roundoff with it.
NORM_STEP = 2


# -- smooth shape functions ----------------------------------------------

def smoothstep5(t):
    """Quintic smoothstep: 0 for t<=0, 1 for t>=1, C^2 at the ends."""
    t = np.clip(t, 0.0, 1.0)
    return t * t * t * (t * (6.0 * t - 15.0) + 10.0)


def smoothstep5_deriv(t):
    t = np.asarray(t, dtype=float)
    inside = (t > 0.0) & (t < 1.0)
    tc = np.clip(t, 0.0, 1.0)
    return np.where(inside, 30.0 * tc * tc * (1.0 - tc) ** 2, 0.0)


def smoothramp(t):
    """C-infinity ramp: 0 for t<=0, 1 for t>=1, flat at both ends."""
    return smoothramp_and_slope(t)[0]


def smoothramp_and_slope(t):
    """The ramp a/(a+b), a = exp(-1/t) and b = exp(-1/(1-t)) each zero
    where its argument is not positive, and its derivative
    a b (1/t^2 + 1/(1-t)^2)/(a+b)^2 from the same exponentials.  At every
    finite t, a + b >= exp(-2) > 0, and a b = 0 outside (0, 1), where
    the slope is 0."""
    t = np.asarray(t, dtype=float)
    with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
        a = np.where(t > 0.0, np.exp(-1.0 / np.maximum(t, 1e-300)), 0.0)
        b = np.where(t < 1.0, np.exp(-1.0 / np.maximum(1.0 - t, 1e-300)),
                     0.0)
    s = a + b
    rho = np.where(t >= 1.0, 1.0, np.where(t <= 0.0, 0.0, a / s))
    x = np.where((t > 0.0) & (t < 1.0), t, 0.5)
    slope = a * b * (1.0 / (x * x) + 1.0 / ((1.0 - x) * (1.0 - x))) / (s * s)
    return rho, slope


def bump(x):
    """C-infinity bump on (-1, 1): 1 at 0, identically 0 outside."""
    x = np.asarray(x, dtype=float)
    inside = np.abs(x) < 1.0
    xs = np.where(inside, x, 0.0)
    with np.errstate(over="ignore"):
        out = np.exp(1.0 - 1.0 / np.maximum(1.0 - xs * xs, 1e-300))
    return np.where(inside, out, 0.0)


def angular_wobble(theta, phi):
    """Fixed low-degree angular factor with max norm exactly 1."""
    raw = 0.6 * np.cos(theta) + 0.4 * np.sin(theta) * np.cos(phi)
    return raw / math.sqrt(0.52)


def zeta_wobble_pattern(theta, phi):
    return np.sin(theta) * np.sin(phi)


class _ProfileModel:
    """Closed-form ingredients of the profile, shared by build and eval."""

    def __init__(self, params: RegimeParameters, spec: ProfileSpec):
        self.params = params
        self.spec = spec
        d = derive(params)
        self.derived = d
        self.A = d.shear_amp
        self.m0 = d.m0
        self.four_m0 = 4.0 * d.m0
        self.w0 = d.ubar_start
        self.ulam = d.ubar_lambda
        self.ulamp = d.ubar_lambda_hi
        self.uend = d.ubar_end
        self.u_park = spec.park_frac * self.w0
        self.gmax = math.log1p((self.ulamp / self.u_park) ** 2)
        self.wf = spec.wobble_frac / params.c1
        self.wz = spec.zeta_wobble_frac / params.c2_zeta
        self.zwindow = self.ulamp - self.ulam

    # scalar-or-array ubar throughout

    def fbg(self, ubar, Y):
        return 1.0 + self.wf * np.sin(np.pi * ubar / self.ulam) * Y

    def rho(self, ubar):
        return smoothramp(ubar / self.w0)

    def zbar(self, ubar):
        return 1.0 - smoothstep5((ubar - self.ulam) / self.zwindow)

    def dzbar(self, ubar):
        return -smoothstep5_deriv((ubar - self.ulam) / self.zwindow) \
            / self.zwindow

    def I_main(self, ubar, Y):
        return self.I_of(ubar, self.fbg(ubar, Y), self.rho(ubar))

    def I_of(self, ubar, fb, rho):
        """I_main from its factors fb = fbg(ubar, Y) and rho(ubar)."""
        zb = self.zbar(ubar)
        return self.A * fb * ubar * rho * zb + (1.0 - zb) * self.four_m0

    def amp2_factors(self, ubar):
        """(alpha, beta) at each time of the 1-D array ``ubar``: the main
        amplitude d/dubar I_main, affine in Y through f = 1 + a1 Y, is
        alpha + beta * Y.  rho' is the ramp's closed-form slope."""
        x = np.pi * ubar / self.ulam
        a1 = self.wf * np.sin(x)
        a2 = self.wf * (np.pi / self.ulam) * np.cos(x)
        rho, slope = smoothramp_and_slope(ubar / self.w0)
        drho = slope / self.w0
        zb, dzb = self.zbar(ubar), self.dzbar(ubar)
        A = self.A
        core = A * rho * zb
        L = A * zb * ubar * drho + dzb * A * ubar * rho
        return core + L - dzb * self.four_m0, core * (a2 * ubar + a1) + L * a1

    def locus_theta(self, ubar):
        u = np.minimum(np.asarray(ubar, dtype=float), self.ulamp)
        g = np.log1p((u / self.u_park) ** 2)
        o1 = self.params.o1
        return np.pi / 2.0 - o1 + 2.0 * o1 * g / self.gmax

    def gate(self, ubar, theta, phi):
        # Haversine form: exact zero distance at the locus point itself.
        th0 = self.locus_theta(ubar)
        h = (np.sin(0.5 * (theta - th0)) ** 2
             + np.sin(theta) * np.sin(th0)
             * np.sin(0.5 * (phi - self.spec.phi0)) ** 2)
        dist = 2.0 * np.arcsin(np.sqrt(np.clip(h, 0.0, 1.0)))
        return 1.0 - bump(dist / self.spec.cap_width)

    def cap_nodes(self, theta, phi):
        """Flat indices of the nodes ``gate`` can move off exactly 1.0.

        The locus runs along the meridian phi0 with theta in
        [pi/2 - o1, pi/2 + o1].  The polar-angle gap to that range and
        the distance to the meridian's great circle are both lower bounds
        on the distance to any locus point, so a node where either reaches
        cap_width (with a margin far above the roundoff of ``gate``'s
        haversine) has gate == 1.0 at every ubar.
        """
        o1 = self.params.o1
        th = np.asarray(theta, dtype=float).ravel()
        ph = np.asarray(phi, dtype=float).ravel()
        gap = np.abs(th - np.clip(th, np.pi / 2.0 - o1, np.pi / 2.0 + o1))
        off_circle = np.arcsin(np.minimum(
            np.sin(th) * np.abs(np.sin(ph - self.spec.phi0)), 1.0))
        reach = self.spec.cap_width * (1.0 + 1e-6) + 1e-12
        return np.flatnonzero(np.maximum(gap, off_circle) < reach)

    def repay_shape(self, ubar):
        lo = self.spec.repay_lo * self.ulam
        hi = self.spec.repay_hi * self.ulam
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        return bump((np.asarray(ubar, dtype=float) - mid) / half)

    def cap_terms(self, ubar, theta, phi, Y):
        """alpha, beta at each time of the 1-D array ``ubar``, and at those
        times on the cap nodes (theta, phi) with wobble Y the main
        amplitude, the gate and the repay shape: the amplitude there is
        ``_repaid(main, gate, kappa, repay)``."""
        alpha, beta = self.amp2_factors(ubar)
        col = ubar[:, None]
        return (alpha, beta, alpha[:, None] + beta[:, None] * Y,
                self.gate(col, theta, phi), self.repay_shape(col))


def _build_ubar_grid(model: _ProfileModel, n_ubar: int):
    """Non-uniform ubar nodes clustered where the profile has structure."""
    if n_ubar < 65:
        raise ResolutionError("n_ubar must be at least 65")
    n1 = max(17, n_ubar // 4)           # ramp region [0, 1.2 w0]
    n3 = max(25, n_ubar // 3)           # window end + cutoff transition
    n4 = max(9, n_ubar // 8)            # constant tail
    n2 = n_ubar - n1 - n3 - n4 + 3      # joints shared, at least 17
    a = np.linspace(0.0, 1.2 * model.w0, n1)
    b = np.linspace(1.2 * model.w0, 0.97 * model.ulam, n2)
    c = np.linspace(0.97 * model.ulam, model.ulamp, n3)
    dseg = np.linspace(model.ulamp, model.uend, n4)
    return np.concatenate([a, b[1:], c[1:], dseg[1:]])


def _cumtrapz(y, x, start=0.0):
    """Cumulative trapezoid of y along its first axis, any trailing shape,
    from ``start`` at x[0]."""
    dx = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    seg = 0.5 * (y[1:] + y[:-1]) * dx
    out = np.empty_like(y)
    out[0] = start
    # Row by row: the same sums as cumsum(axis=0), without its strided pass,
    # and as numpy's sum over the rows of a wide array, whatever the width.
    for k in range(len(seg)):
        np.add(out[k], seg[k], out=out[k + 1])
    return out


def _repaid(main, gate, kappa, repay):
    """The amplitude with the zero notch cut out and repaid per angle.

    Off the cap nodes gate is 1.0 and kappa +0.0, where this is ``main``
    bit for bit, so the grid evaluators apply it on the cap nodes only.
    """
    return main * gate * (1.0 + kappa * repay)


class ProfileTables(NamedTuple):
    """(n, n_theta, n_phi) tables at n consecutive ubar nodes."""

    amp2: np.ndarray    # squared amplitude, not clipped at zero
    I: np.ndarray       # cumulative shear
    f: np.ndarray       # window factor
    zeta: np.ndarray    # cutoff across the transition


@dataclass
class ShearProfile:
    """Shear data on a (ubar x sphere) grid: its recipe and two arrays.

    The recipe (``params``, ``spec``, ``grid``) fixes every closed form.
    Only ``kappa_repay`` and ``corr``, quadratures of the built amplitude,
    need a rebuild to reproduce; they are the arrays saved.  I differs
    from I_main only on the nodes the zero notch reaches, so ``corr`` has
    one column per node of ``cap_nodes``.  The 1-D node arrays are
    computed on construction, the amplitude's factors at every node at the
    first ``node_amp2``; the cap set, which fixes ``corr``'s width,
    is passed in as ``cap`` by whoever built or read ``corr``.  No dense
    table is kept: ``node_tables`` builds the tables of gen-data's checks
    a chunk of nodes at a time.  Instances are treated as immutable.
    """

    params: RegimeParameters
    spec: ProfileSpec
    grid: SphereGrid
    kappa_repay: np.ndarray   # (n_theta, n_phi) per-angle repay gain
    corr: np.ndarray          # (n_ubar, n_cap) I - I_main on the cap
    cap: InitVar[np.ndarray]  # (n_cap,) flat cap_nodes of the grid
    ubar_grid: np.ndarray = field(init=False)
    zbar: np.ndarray = field(init=False)   # angular-mean cutoff per node
    zero_locus_theta: np.ndarray = field(init=False)

    def __post_init__(self, cap):
        m = self._model = _ProfileModel(self.params, self.spec)
        g = self.grid
        self._Y = angular_wobble(g.theta_2d, g.phi_2d)
        self._Z = zeta_wobble_pattern(g.theta_2d, g.phi_2d)
        self.ubar_grid = _build_ubar_grid(m, self.spec.n_ubar)
        self.zbar = m.zbar(self.ubar_grid)
        self.zero_locus_theta = m.locus_theta(self.ubar_grid)
        self._cap = cap
        self._cap_theta = g.theta_2d.ravel()[cap]
        self._cap_phi = g.phi_2d.ravel()[cap]
        self._cap_kappa = self.kappa_repay.ravel()[cap]
        self._cap_Y = self._Y.ravel()[cap]
        self._times = np.empty(0)

    @property
    def m0(self):
        return self._model.m0

    @property
    def derived(self):
        return self._model.derived

    # -- closed-form evaluators (exact, any ubar) ----------------------

    def _terms(self, ubar):
        return self._model.cap_terms(ubar, self._cap_theta, self._cap_phi,
                                     self._cap_Y)

    @cached_property
    def _node_terms(self):
        # built at the first node_amp2, so that the stages that read no
        # node amplitude (evolve, find-mots, horizon) never build it
        return self._terms(self.ubar_grid)

    def _amp2(self, ubar, terms=None):
        # alpha + beta * Y, repaid on the cap nodes, at each time of the
        # 1-D array ubar: the (len(ubar),) + points amplitude
        alpha, beta, main, gate, repay = terms or self._terms(ubar)
        out = np.multiply(self._Y, beta[:, None, None])
        out += alpha[:, None, None]
        out.reshape(len(ubar), self._Y.size)[:, self._cap] = _repaid(
            main, gate, self._cap_kappa, repay)
        return out

    def on_columns(self, Y, ubar):
        """This profile on columns in place of the sphere grid: one per
        value of the 1-D wobble array Y, then one per cap node.  Its
        ``amp2_at`` returns the (1, n_columns) amplitude on them, a row of
        one read-only table built at the sorted distinct times ``ubar``."""
        view = copy.copy(self)
        view._Y = np.concatenate((Y, self._cap_Y))[None]
        view._cap = np.arange(len(Y), view._Y.size)
        view._times, view._table = ubar, view._amp2(ubar)
        view._table.flags.writeable = False
        return view

    def amp2_at(self, ubar):
        """Squared shear amplitude at ``ubar`` on the sphere grid, or on
        the columns of an ``on_columns`` view; read-only.

        A view returns its table's row at a time it was built for,
        elsewhere the same vectorised formula runs on a one-element array,
        so a time gets the same bits either way.
        """
        i = int(self._times.searchsorted(ubar))
        if i < self._times.size and self._times[i] == ubar:
            return self._table[i]
        out = self._amp2(np.array([float(ubar)]))[0]
        out.flags.writeable = False
        return out

    def node_amp2(self, lo, hi):
        """The amplitude, not clipped at zero, at ubar nodes lo..hi-1, from
        the factors tabulated at every node: the same bits as evaluating
        them at those nodes."""
        return self._amp2(self.ubar_grid[lo:hi],
                          [t[lo:hi] for t in self._node_terms])

    def node_tables(self, lo, hi) -> ProfileTables:
        """The tables at ubar nodes lo..hi-1.  A node's rows depend on that
        node alone, so every chunking of the nodes gives the same bits."""
        m, Y = self._model, self._Y
        ubar, zbar = self.ubar_grid[lo:hi], self.zbar[lo:hi]
        u = ubar[:, None, None]
        rho, f = m.rho(ubar), m.fbg(u, Y)
        I = m.I_of(u, f, rho[:, None, None])
        I.reshape(len(ubar), self._Y.size)[:, self._cap] += self.corr[lo:hi]
        # Unity before the window, wobbled cutoff across it, zero after.
        shape = np.clip((ubar - m.ulam) / m.zwindow, 0.0, 1.0)
        swob = (4.0 * shape * (1.0 - shape)) ** 2
        zeta = zbar[:, None, None] * (1.0 + m.wz * swob[:, None, None]
                                      * self._Z)
        # f is derived from the transition identity, which on the window
        # (zeta = 1.0) is the window identity and across the cutoff has
        # rho = 1.0; background where ubar, rho or zeta vanish.
        on = (ubar > 0.0) & (rho >= 1e-300) & (zbar > 1e-9)
        f[on] = ((I[on] - (1.0 - zeta[on]) * m.four_m0)
                 / (m.A * zeta[on] * u[on] * rho[on, None, None]))
        return ProfileTables(self.node_amp2(lo, hi), I, f, zeta)

    def I_at(self, ubar):
        """Cumulative shear on the sphere grid at arbitrary ``ubar``."""
        m = self._model
        base = m.I_main(ubar, self._Y)
        k = np.searchsorted(self.ubar_grid, ubar)
        k = min(max(k, 1), len(self.ubar_grid) - 1)
        x0, x1 = self.ubar_grid[k - 1], self.ubar_grid[k]
        w = 0.0 if x1 == x0 else (ubar - x0) / (x1 - x0)
        base.reshape(-1)[self._cap] += ((1.0 - w) * self.corr[k - 1]
                                        + w * self.corr[k])
        return base

    def zbar_at(self, ubar):
        return float(self._model.zbar(ubar))

    def dzbar_at(self, ubar):
        return float(self._model.dzbar(ubar))

    # -- persistence ----------------------------------------------------

    def save(self, stem, config_hash=""):
        meta = {
            "kind": "horizonlab-shear-profile",
            "config_hash": config_hash,
            "params": asdict(self.params),
            "spec": asdict(self.spec),
            "grid": {"n_theta": self.grid.n_theta, "n_phi": self.grid.n_phi},
        }
        save_artifact(stem, meta, {"kappa_repay": self.kappa_repay,
                                   "corr": self.corr})

    @staticmethod
    def load(stem, config_hash=None):
        """Reload a saved profile; see ``reporting.load_artifact``.  Its
        recipe fixes the shape of each array, through the cap set the
        profile is then built with."""
        recipe = {}

        def shapes(meta):
            p, g = meta["params"], meta["grid"]
            g = get_grid(g["n_theta"], g["n_phi"])
            spec = ProfileSpec(**meta["spec"])
            recipe.update(params=RegimeParameters(**{
                f.name: p[f.name] for f in fields(RegimeParameters)
                if f.init}), spec=spec, grid=g)
            cap = recipe["cap"] = _ProfileModel(
                recipe["params"], spec).cap_nodes(g.theta_2d, g.phi_2d)
            return {"kappa_repay": g.theta_2d.shape,
                    "corr": (spec.n_ubar, cap.size)}

        _, arrays = load_artifact(stem, shapes, "gen-data", config_hash)
        return ShearProfile(**recipe, **arrays)


def _repayment(model: _ProfileModel, ubar, grid: SphereGrid):
    """Per-angle gain that repays, in the grid trapezoid quadrature, what
    the zero notch removed, ``corr``, the cumulative shear it adds on the
    cap nodes, and those nodes.  Off them gate is 1.0: nothing is cut,
    kappa is +0.0."""
    cap = model.cap_nodes(grid.theta_2d, grid.phi_2d)
    theta, phi = grid.theta_2d.ravel()[cap], grid.phi_2d.ravel()[cap]
    _, _, on_cap, gate, repay = model.cap_terms(
        ubar, theta, phi, angular_wobble(theta, phi))

    kappa = np.zeros(grid.theta_2d.size)
    kappa[cap] = (_cumtrapz(on_cap * (1.0 - gate), ubar)[-1]
                  / _cumtrapz(on_cap * gate * repay, ubar)[-1])
    if np.max(np.abs(kappa)) > 0.5:
        raise ConstraintError(
            "topological_fact_deficit",
            "moving-zero notch removes too much shear to repay smoothly; "
            "shrink cap_width or widen the repay window")
    amp2 = _repaid(on_cap, gate, kappa[cap], repay)
    return (kappa.reshape(grid.theta_2d.shape),
            _cumtrapz(np.maximum(amp2, 0.0) - on_cap, ubar), cap)


def build_profile(params: RegimeParameters, spec: ProfileSpec,
                  grid: SphereGrid) -> ShearProfile:
    """Construct an admissible shear profile on the given grids.

    Raises ConstraintError naming the violated data requirement when the
    parameter combination cannot support an admissible profile: here
    lambda' < lambda*(1+o1), in ``_repayment`` kappa <= 0.5, and through
    ``derive`` the regime inequalities under ``validate``'s names (c1, c2
    >= 20 among them).  M*/N against d0 is the verifier's
    ``dominance_ratio`` check.
    """
    if params.lambda_hi >= params.lambda_lo * (1.0 + params.o1):
        raise ConstraintError(
            "averaged_angular_independence",
            "need lambda' < lambda*(1+o1); otherwise the window identity "
            "overshoots the total 4*m0 and |chihat_0|^2 would go negative")

    model = _ProfileModel(params, spec)
    kappa, corr, cap = _repayment(
        model, _build_ubar_grid(model, spec.n_ubar), grid)
    return ShearProfile(params=params, spec=spec, grid=grid,
                        kappa_repay=kappa, corr=corr, cap=cap)


# -- verification ----------------------------------------------------------

def _chunks(n, size=None):
    """(lo, hi) of consecutive runs of size (default UBAR_CHUNK) of n ubar
    nodes."""
    size = size or UBAR_CHUNK
    return [(lo, min(lo + size, n)) for lo in range(0, n, size)]


def verify_profile(profile: ShearProfile, tables=None) -> Report:
    """Numerically audit every data requirement; returns a full report.

    ``tables(lo, hi)`` gives the ``ProfileTables`` at ubar nodes lo..hi-1
    (default ``profile.node_tables``).  Every check is a reduction over
    ubar, so the tables are read in chunks of UBAR_CHUNK nodes, each with
    the node before it for the checks on steps, and the checks at single
    nodes read those nodes' rows through ``tables(k, k + 1)``: no (n_ubar,
    n_theta, n_phi) table is held.
    """
    tables = tables or profile.node_tables
    p = profile.params
    m = profile._model
    ubar = profile.ubar_grid
    n = len(ubar)
    A, four_m0 = m.A, m.four_m0
    zb = profile.zbar
    win = (ubar >= m.w0) & (ubar <= m.ulam) & (ubar > 0)
    tra = (ubar > m.ulam) & (ubar < m.ulamp)
    band = (ubar >= m.w0) & (ubar <= m.ulamp)
    zmask = zb > 1e-9
    tail = ubar >= m.ulamp
    k_end = int(np.searchsorted(ubar, m.ulamp)) - 1
    kl = int(np.searchsorted(ubar, m.ulam, side="right"))
    sampled = [int(np.argmin(np.abs(ubar - u)))
               for u in np.linspace(m.w0, m.ulamp, 5)]

    def row(name, k):
        return getattr(tables(k, k + 1), name)[0]

    # Each chunk's maximum of each checked quantity, reduced after the loop.
    part = collections.defaultdict(list)

    def peak(key, values):
        part[key].append(np.max(values, initial=-np.inf))

    def top(key):
        return np.max(part[key])

    recon, I_0 = None, row("I", 0)
    for lo, hi in _chunks(n):
        a = max(lo - 1, 0)
        ext = tables(a, hi)
        t = ProfileTables(*(x[lo - a:] for x in ext))
        u = ubar[lo:hi, None, None]
        w = win[lo:hi]
        rhs = A * t.f[w] * u[w]
        peak("window", np.abs(t.I[w] - rhs) / rhs)
        w = tra[lo:hi]
        rhs = A * t.f[w] * t.zeta[w] * u[w] + (1.0 - t.zeta[w]) * four_m0
        peak("transition", np.abs(t.I[w] - rhs))
        peak("f", np.abs(t.f[band[lo:hi]] - 1.0))
        w = zmask[lo:hi]
        peak("zeta", np.abs(t.zeta[w] / zb[lo:hi][w, None, None] - 1.0))
        peak("amp2", t.amp2)
        peak("-amp2", -t.amp2)
        peak("tail", np.abs(t.I[tail[lo:hi]] / four_m0 - 1.0))
        peak("-dI", -np.diff(ext.I, axis=0))
        peak("dzeta", np.abs(np.diff(ext.zeta, axis=0)))
        # The trapezoid of amp2 carries on from the node before the chunk.
        recon = _cumtrapz(ext.amp2, ubar[a:hi],
                          0.0 if recon is None else recon[-1])[lo - a:]
        peak("cons", np.abs(recon - (t.I - I_0)))

    checks = []

    def add(name, measured, threshold, detail=""):
        checks.append(Check(name, bool(measured <= threshold),
                            {"measured": measured, "threshold": threshold},
                            detail))

    # Total shear: exactly 4 m0, independent of angle.
    I_end = row("I", n - 1)
    ratio_dev = np.abs(I_end / four_m0 - 1.0)
    add("total_equals_4m0", float(np.max(ratio_dev)), 1.0e-6,
        "max_omega |I(2delta)/4m0 - 1|")
    spread = (np.max(I_end) - np.min(I_end)) / four_m0
    add("total_angular_independence", float(spread), 1.0e-6)

    # Window identity on [w0, lambda delta].
    if np.any(win):
        add("window_identity", float(top("window")), 1.0e-8,
            "I = shear_amp * f * ubar on the main window")

    # Transition identity on [lambda delta, lambda' delta].
    if np.any(tra):
        add("transition_identity", float(top("transition") / four_m0),
            1.0e-8)

    # Bounds on f and zeta.
    add("f_bounds", float(top("f") * p.c1), 1.0 + 1e-9, "c1 * |f - 1| <= 1")
    add("zeta_bounds", float(top("zeta") * p.c2_zeta), 1.0 + 1e-9,
        "c2 * |zeta/zetabar - 1| <= 1")

    # Angular smoothness of f at sample slices.
    gmax = 0.0
    for k in sampled:
        fld = SphereField(profile.grid, row("f", k))
        gt, gp = profile.grid.gradient_values(fld.values)
        gmax = max(gmax, float(np.max(np.hypot(gt, gp))))
    add("f_angular_smooth", gmax, 4.0, "max |grad_omega f| bounded")

    # Monotonicity / nonnegativity.
    add("amp2_nonnegative", float(top("-amp2")), 1e-12 * float(top("amp2")))
    add("I_monotone", float(top("-dI")), 1e-9 * four_m0)

    # I(ubar >= lambda' delta) stays pinned at the total.
    add("tail_constant", float(top("tail")), 1.0e-6)

    # Dominance of the window contribution over the cutoff tail.
    I_lam = profile.I_at(m.ulam)
    ratio = I_lam / (four_m0 - I_lam)
    mean_ratio = float(np.mean(ratio))
    add("dominance_ratio", abs(mean_ratio - p.d0), 0.2 * p.d0,
        f"measured M*/N = {mean_ratio:.3f} vs d0 = {p.d0:g}")

    # Smooth vanishing of amp2 at ubar = 0 and at the support end.
    scale = A
    start = row("amp2", 0), row("amp2", 1)
    add("endpoint_zero_start", float(np.max(np.abs(start[0]))) / scale,
        1e-12)
    s_loc = (ubar[k_end] - ubar[k_end - 1]) / m.zwindow
    end_val = np.max(np.abs(row("amp2", k_end))) / scale
    add("endpoint_vanish_end", float(end_val) / (s_loc * s_loc), 40.0,
        "amp2 at the last support node vanishes at the cutoff's C^1 order")
    slope_start = np.max(np.abs(start[1] - start[0])) / (ubar[1] - ubar[0])
    add("endpoint_vanish_start", float(slope_start) / (scale / m.w0), 0.5)

    # zeta smoothness: no jumps, flat endpoint departure.
    add("zeta_no_jump", float(top("dzeta")), 0.9,
        "single-step jump in zeta flags a discontinuous cutoff")
    if kl < len(ubar) - 1:
        s0 = abs(float(np.mean(row("zeta", kl)))
                 - profile.zbar_at(ubar[kl - 1])) \
            / max((ubar[kl] - ubar[kl - 1]) / m.zwindow, 1e-30)
        add("zeta_endpoint_derivative", s0, 0.2,
            "cutoff leaves 1 with zero slope at lambda*delta")

    # Moving zero of the amplitude main * gate * (1 + kappa * repay): of
    # its factors only the gate can vanish at the stored locus point.
    zs = np.flatnonzero((ubar > 0) & (ubar < m.ulamp))
    zs = zs[:: max(1, len(zs) // 9)]
    gate = m.gate(ubar[zs], profile.zero_locus_theta[zs], profile.spec.phi0)
    add("zero_locus_present", float(np.max(np.abs(gate))), 1e-12,
        "amp2 vanishes at the stored locus point on every slice")
    in_support = ubar <= m.ulamp
    travel = (np.max(profile.zero_locus_theta[in_support])
              - np.min(profile.zero_locus_theta[in_support]))
    add("zero_locus_moving", -(travel - p.o1), 0.0,
        f"locus travel {travel:.4f} rad must exceed o1 = {p.o1:g}")
    mono = np.min(np.diff(profile.zero_locus_theta[in_support]))
    add("zero_locus_monotone", float(-mono), 1e-15)

    # Quadrature consistency between amp2 and I.
    add("amp2_I_consistency", float(top("cons") / four_m0), 1.0e-4,
        "trapezoid of amp2 reproduces I at the grid's convergence order")

    return Report(tuple(checks))


def _ubar_stencils(x):
    """(len(x), 3, 5) weights that take f at the nodes m-2..m+2 of x to f,
    ``np.gradient(f, x, axis=0)`` and that gradient's gradient at node m,
    zero where a node lies outside x: np.gradient's own weights (uneven
    spacing, one-sided at the ends), bit for bit.  They are read off a
    comb whose column k is 1 at the nodes m = k mod 5: five consecutive
    nodes fall in distinct columns, so no two weights of a row share one."""
    n = len(x)
    comb = [np.eye(5)[np.arange(n) % 5]]
    for _ in range(2):
        comb.append(np.gradient(comb[-1], x, axis=0))
    cols = (np.arange(n)[:, None] + np.arange(-2, 3)) % 5
    return np.stack([np.take_along_axis(f, cols, axis=1) for f in comb],
                    axis=1)


def _order_levels(grid, band, ring, w):
    """(3, 3, n) norms at n ubar nodes: for each order j the window rows
    ``band[j] @ ring`` are (h_j, grad_theta h_j, grad_phi h_j) there, and
    i = 0, 1, 2 are the L2 norms of h_j, of |grad h_j| and of its
    gradient, the last by ``grid.gradient_norm``, skipped where |grad h_j|
    is exactly zero.  Its arrays die on return, before the next load."""
    n = band.shape[1]
    out = np.zeros((3, 3, n))
    mag, sq = np.empty((2, n, w.size))
    for j in range(3):
        np.matmul(band[j], ring[0], out=sq)
        sq *= sq
        out[j, 0] = np.sqrt(sq @ w)
        for k, dst in ((1, mag), (2, sq)):
            np.matmul(band[j], ring[k], out=dst)
            dst *= dst
        mag += sq
        out[j, 1] = np.sqrt(mag @ w)
        np.sqrt(mag, out=mag)
        if mag.any():
            out[j, 2] = grid.gradient_norm(
                mag.reshape((n,) + grid.weights.shape))
    return out


def scale_critical_norm(profile: ShearProfile, amp2=None,
                        budget=NORM_BUDGET):
    """Discrete surrogate of the scale-critical data norm.

    Sums delta^j * a^(-1/2) * max_ubar L2(S^2) of j-th ubar finite
    differences and i-th angular derivative magnitudes of the amplitude
    |chihat_0| = sqrt(amp2), for j, i <= 2, at the profile's ubar nodes,
    amp2 clipped at zero.

    The spectral gradient is linear and the ubar difference acts node by
    node, so grad h_j is the j-th difference of grad h_0: each node's h_0
    gets one ``gradient_values`` (one analysis, two syntheses), and each
    order's |grad h_j| one analysis in ``grid.gradient_norm``, a Parseval
    sum: six transform passes per node.  ``amp2(lo, hi)`` gives the table
    at nodes lo..hi-1 (default ``profile.node_amp2``); it is read
    NORM_STEP nodes at a time into a ring of (h_0, grad h_0) rows that
    carries the four nodes the next step's second difference reaches, so
    no node is read twice and no (n_ubar, n_theta, n_phi) array is held.
    A load whose amplitude is exactly zero, and an order whose |grad h_j|
    is, transforms nothing and adds exact zeros: at the default config the
    33 nodes at ubar = 0 and past the cutoff.  The sum equals that of
    synthesizing each difference (the tests' per-slice reference) to
    roundoff: within 3e-15 relative at the default config, the second
    regime at 32x64 and 16x32 with cap_width 0.1, and 2e-13 at cap_width
    0.014, whose i = 2 terms differ by up to 2.4e-12.  The budget was
    calibrated once on the default regime at exactly those orders and
    frozen; the norm is homogeneous of degree one in the amplitude, so a
    profile built at the wrong amplitude power fails by the corresponding
    factor.
    """
    amp2 = amp2 or profile.node_amp2
    ubar = profile.ubar_grid
    nu, c = len(ubar), NORM_STEP
    grid = profile.grid
    p = profile.params
    stencils = _ubar_stencils(ubar)
    w = grid.weights.ravel()
    # Node m's (h, grad_theta h, grad_phi h) sit in slot (m - 2) % size of
    # the ring, which holds the c + 4 nodes a step reads; size is a
    # multiple of c, so each step's new nodes fill c consecutive slots.
    size = -(-(c + 4) // c) * c
    ring = np.zeros((3, size, w.size))
    norms = np.empty((3, 3, nu))

    def load(a, b):
        rows = ring[:, (a - 2) % size:][:, :b - a]
        h = rows[0].reshape((-1,) + grid.weights.shape)
        np.maximum(amp2(a, b), 0.0, out=h)
        np.sqrt(h, out=h)
        if h.any():
            for r, f in zip((1, 2), grid.gradient_values(h)):
                rows[r] = f.reshape(len(h), -1)
        else:
            rows[1:] = 0.0

    load(0, 2)
    for lo, hi in _chunks(nu, c):
        n = hi - lo
        load(min(lo + 2, nu), min(hi + 2, nu))
        band = np.zeros((3, n, size))
        i = np.arange(n)[:, None]
        band[:, i, (lo - 4 + i + np.arange(5)) % size] = \
            stencils[lo:hi].transpose(1, 0, 2)
        norms[:, :, lo:hi] = _order_levels(grid, band, ring, w)
    total = 0.0
    for j in range(3):
        for i in range(3):
            total += (p.delta ** j / math.sqrt(p.a)) \
                * float(np.max(norms[j, i]))
    return {"value": total, "budget": float(budget),
            "passed": bool(total <= budget)}
