"""Discretized round spheres with quadrature and differential operators.

The grid is Gauss-Legendre in colatitude (so the poles are never sampled
and the quadrature is exact for band-limited integrands) crossed with a
uniform longitude grid.  Differential operators act through a spherical
harmonic collocation transform: analysis is the quadrature-orthogonal
projection onto harmonics of degree <= n_theta - 1, the Laplace-Beltrami
operator is diagonal in that basis, and gradients come from analytic
derivative recurrences of the normalized associated Legendre functions.

Consequences used throughout the package and its tests:

* Sum of quadrature weights is 4*pi to machine precision.  The
  Gauss-Legendre nodes and weights are computed in extended precision and
  rounded once, so each is within a few ulp of its exact value.
* The Legendre tables (Pbar, d/dtheta Pbar) are dense arrays of shape
  (lmax + 1, lmax + 1, n_theta), indexed [m, l, node] and zero where
  l < m; each transform pass is one real matmul batched over m.  They are
  evaluated in extended precision at the unrounded nodes (at the rounded
  ones the quadrature leaks about l^2 eps between degrees, which the
  Laplacian amplifies by l(l+1)).  1/sin theta is a node factor, applied
  in place, not a table.  A grid builds its tables at its first transform,
  so a process that never transforms (``transport``) never holds them.
* Every transform and operator takes a stack of slices on leading axes,
  (..., n_theta, n_phi) <-> (..., l, m), through the same code as a
  single slice.  The matmul operand is a contiguous complex
  [m, node, stack] (or [m, l, stack]) array read as real pairs, so each
  order is one [l, node] x [node, 2 * stack] gemm.  A stack of one rounds
  exactly as a single slice; in a larger stack the gemm may round a slice
  differently, by about eps relative.
* The discrete Laplacian is exactly self-adjoint with respect to the
  quadrature inner product (analysis is a weighted orthogonal projector).
* Eigenvalues -l(l+1) are reproduced to roundoff for resolved degrees.
* The covariant Hessian is synthesized from the two Legendre tables;
  its trace H_tt + H_pp is the Laplacian to one rounding, not per mode.

On a sphere of radius R (scalar or a positive field for graph spheres
u = 1 - R(omega)) the operators scale as Delta' = Delta_unit / R^2 and
|grad f|^2 = |grad_unit f|^2 / R^2, which is the round-sphere leading
order used by every elliptic estimate in this package.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import GridMismatchError, ResolutionError


def _legendre_tables(x, lmax):
    """Normalized associated Legendre tables on nodes ``x``.

    Returns two dense arrays of shape (lmax + 1, lmax + 1, len(x)),
    indexed [m, l, node] and exactly zero where l < m, holding
    Pbar_{l,m}(x) and d/dtheta Pbar_{l,m}.  Normalization is
    int_{-1}^{1} Pbar_{l,m}^2 dx = 1 (no Condon-Shortley phase).  The
    three-term recurrence runs over l for all orders m at once, entirely
    in ``np.longdouble``, and each entry is rounded once to float64.  Pass
    the nodes unrounded, in ``np.longdouble``.
    """
    x = np.asarray(x, dtype=np.longdouble)
    sin_t = np.sqrt(1 - x * x)
    n = lmax + 1
    m = np.arange(n, dtype=np.longdouble)[:, None]
    p, dp = (np.zeros((n, n, x.size)) for _ in range(2))
    # p_prev and p_prev2 hold Pbar_{l-1,m} and Pbar_{l-2,m} for every m,
    # zero where the degree is below the order.
    p_prev2 = np.zeros((n, x.size), dtype=np.longdouble)
    p_prev = np.zeros_like(p_prev2)
    for l in range(n):
        p_l = np.zeros_like(p_prev)
        k = m[:l]
        a = np.sqrt((4 * l * l - 1) / (l * l - k * k))
        b = np.sqrt(((l - 1) ** 2 - k * k) / (4 * (l - 1) ** 2 - 1))
        p_l[:l] = a * (x * p_prev[:l] - b * p_prev2[:l])
        if l:
            p_l[l] = (np.sqrt((2 * l + 1) / np.longdouble(2 * l)) * sin_t
                      * p_prev[l - 1])
        else:
            p_l[0] = 1 / np.sqrt(np.longdouble(2))
        k = m[: l + 1]
        s = np.sqrt((l * l - k * k) * (2 * l + 1) / (2 * l - 1))
        p[: l + 1, l] = p_l[: l + 1]
        dp[: l + 1, l] = (l * x * p_l[: l + 1] - s * p_prev[: l + 1]) / sin_t
        p_prev2, p_prev = p_prev, p_l
    return p, dp


def _gauss_legendre(n):
    """Gauss-Legendre nodes (ascending) and weights on [-1, 1].

    Newton on P_n refines the asymptotic start cos(pi (k - 1/4) / (n + 1/2))
    * (1 - (n - 1) / (8 n^3)) of the positive nodes (Hale & Townsend, SIAM
    J. Sci. Comput. 35 (2013) A652); the weights are w = 2 / ((1 - x^2)
    P_n'(x)^2).  Both are ``np.longdouble``, as returned; the caller rounds
    each once to float64.  The negative half mirrors the positive one, and
    the middle node of odd n is 0.  An eigensolver's weights are off by a
    relative 1e-12 at n = 64, a leak the Laplacian amplifies by l(l+1).

    This relies on ``np.longdouble`` being wider than float64 (80-bit on
    x86-64 Linux).  Where it is not, the same steps in float64 leave the
    weights off by a relative 2e-15 at n = 16 and 9e-14 at n = 64, and the
    quadrature-moment test in ``tests/test_sphere.py`` fails.
    """
    x = (np.cos(np.pi * (np.arange(1, n // 2 + 1) - 0.25) / (n + 0.5))
         * (1 - (n - 1) / (8.0 * n ** 3))).astype(np.longdouble)

    def p_and_dp(x):
        p_prev, p = np.ones_like(x), x
        for k in range(1, n):
            p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
        return p, n * (x * p - p_prev) / (x * x - 1)

    # Within 1.3e-3 of the nodes (n = 2), so 5 steps reach the floor.
    for _ in range(5):
        p, dp = p_and_dp(x)
        x = x - p / dp
    # Every operation is odd or even in x, so the weights mirror exactly.
    x = np.concatenate((-x, np.zeros(n % 2, x.dtype), x[::-1]))
    _, dp = p_and_dp(x)
    return x, 2 / ((1 - x * x) * dp * dp)


@dataclass(eq=False)
class SphereGrid:
    """Gauss-Legendre x uniform-longitude collocation grid on S^2."""

    n_theta: int
    n_phi: int
    x: np.ndarray = field(repr=False)          # cos(theta), ascending
    theta: np.ndarray = field(repr=False)
    phi: np.ndarray = field(repr=False)
    w_theta: np.ndarray = field(repr=False)    # Gauss-Legendre weights in x
    weights: np.ndarray = field(repr=False)    # (n_theta, n_phi), sums to 4 pi
    x_ext: np.ndarray = field(repr=False)      # x before rounding, longdouble
    lmax: int = 0

    def __post_init__(self):
        order = np.arange(self.lmax + 1)
        self._eig = -order * (order + 1.0)     # Laplacian eigenvalue per l
        self._dphi = 1j * order                # d/dphi multiplier per m
        self.sin_theta = np.sqrt(1.0 - self.x * self.x)
        # Broadcastable node coordinate arrays.
        self.theta_2d = np.broadcast_to(self.theta[:, None],
                                        (self.n_theta, self.n_phi))
        self.phi_2d = np.broadcast_to(self.phi[None, :],
                                      (self.n_theta, self.n_phi))

    # -- construction ---------------------------------------------------

    @staticmethod
    def create(n_theta, n_phi):
        if n_theta < 1:
            raise ResolutionError("n_theta must be at least 1")
        if n_phi < 2 * n_theta:
            raise ResolutionError("n_phi must be at least 2*n_theta for an "
                                  "alias-free harmonic transform")
        x_ext, w_ext = _gauss_legendre(n_theta)
        x, w = x_ext.astype(float), w_ext.astype(float)
        theta = np.arccos(x)
        phi = 2.0 * np.pi * np.arange(n_phi) / n_phi
        weights = np.outer(w, np.full(n_phi, 2.0 * np.pi / n_phi))
        return SphereGrid(n_theta=n_theta, n_phi=n_phi, x=x, theta=theta,
                          phi=phi, w_theta=w, weights=weights, x_ext=x_ext,
                          lmax=n_theta - 1)

    # -- transforms -----------------------------------------------------

    @cached_property
    def _tables(self):
        # (Pbar, d/dtheta Pbar), built at the first transform from the
        # unrounded nodes.
        return _legendre_tables(self.x_ext, self.lmax)

    _p = property(lambda self: self._tables[0])
    _dp = property(lambda self: self._tables[1])

    def analyze(self, values):
        """Project grid values (..., n_theta, n_phi) onto harmonic
        coefficients C[..., l, m].

        Leading axes are a stack of slices.  The Legendre pass is one real
        matmul per order m, [l, node] @ [node, 2 * stack], against the
        complex [m, node, stack] FFT coefficients read as real pairs, so a
        one-slice stack costs and rounds as a single slice does."""
        lead, n = values.shape[:-2], self.lmax + 1
        g = np.fft.rfft(values.reshape(-1, self.n_theta, self.n_phi),
                        axis=-1, norm="forward")[..., :n]
        h = np.empty((n, self.n_theta, g.shape[0]), dtype=complex)
        np.multiply(g.transpose(2, 1, 0), self.w_theta[:, None], out=h)
        c = (self._p @ h.view(float)).view(complex)
        return c.transpose(2, 1, 0).reshape(lead + (n, n))

    def synthesize(self, coeff, tables=None):
        """Real grid values (..., n_theta, n_phi) of
        sum_{l,m} C[..., l, m] T[m, l] e^{i m phi} (m < 0 by conjugate
        symmetry) for an [m, l, node] table T, Pbar by default.

        Leading axes are a stack, as in ``analyze``: the coefficients go
        to the matmul as a complex [m, l, stack] array read as real pairs,
        and the irfft gets a contiguous [stack, node, m] array."""
        tables = self._p if tables is None else tables
        lead, n = coeff.shape[:-2], self.lmax + 1
        c = np.ascontiguousarray(coeff.reshape(-1, n, n).transpose(2, 1, 0),
                                 dtype=complex)
        h = (tables.transpose(0, 2, 1) @ c.view(float)).view(complex)
        f = np.fft.irfft(np.ascontiguousarray(h.transpose(2, 1, 0)),
                         n=self.n_phi, axis=-1, norm="forward")
        return f.reshape(lead + (self.n_theta, self.n_phi))

    def synthesize_dphi_over_sin(self, coeff):
        f = self.synthesize(coeff * self._dphi)
        f /= self.sin_theta[:, None]           # in place: no second array
        return f

    def gradient_values(self, values):
        """Unit-sphere orthonormal-frame gradient (e_theta, e_phi parts)."""
        coeff = self.analyze(values)
        return (self.synthesize(coeff, self._dp),
                self.synthesize_dphi_over_sin(coeff))

    def derivatives(self, values):
        """(Laplacian, e_theta and e_phi gradient parts) from one analysis;
        the gradient parts equal gradient_values exactly."""
        coeff = self.analyze(values)
        return (self.synthesize(coeff * self._eig[:, None]),
                self.synthesize(coeff, self._dp),
                self.synthesize_dphi_over_sin(coeff))

    def hessian_values(self, values):
        """Covariant Hessian components (H_tt, H_tp, H_pp) on the unit
        sphere from three stacked Legendre passes, the node factors taken
        out of the l-sum; H_tt + H_pp is the Laplacian to one rounding.
        Frame components are not smooth at the poles: never re-analyze."""
        c = self.analyze(values)
        imc = c * self._dphi
        dp_c, dp_imc = self.synthesize(np.stack((c, imc)), self._dp)
        ps_m2c, ps_imc = self.synthesize_dphi_over_sin(np.stack((imc, c)))
        x, sin = self.x[:, None], self.sin_theta[:, None]
        h_pp = (ps_m2c + x * dp_c) / sin
        h_tp = (dp_imc - x * ps_imc) / sin
        return self.synthesize(c * self._eig[:, None]) - h_pp, h_tp, h_pp


_GRID_CACHE = {}


def get_grid(n_theta, n_phi):
    """Shared immutable grid instance for the given resolution."""
    key = (int(n_theta), int(n_phi))
    if key not in _GRID_CACHE:
        _GRID_CACHE[key] = SphereGrid.create(*key)
    return _GRID_CACHE[key]


@dataclass
class SphereField:
    """One scalar per node; tensor fields are stored componentwise."""

    grid: SphereGrid
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.n_theta, self.grid.n_phi):
            raise GridMismatchError(
                f"values shape {self.values.shape} does not match grid "
                f"({self.grid.n_theta}, {self.grid.n_phi})")
        if not np.all(np.isfinite(self.values)):
            raise ValueError("SphereField values must be finite everywhere")

    @staticmethod
    def constant(grid, value):
        return SphereField(grid, np.full((grid.n_theta, grid.n_phi),
                                         float(value)))


def integrate(field):
    """Quadrature integral of ``field`` over the unit sphere."""
    return float(np.sum(field.grid.weights * field.values))


def l2_norm(field):
    """Quadrature L^2 norm on the unit sphere."""
    return float(np.sqrt(np.sum(field.grid.weights * field.values ** 2)))
