"""Level-set domains O = {G < 0} and their boundary curvature functionals.

A domain is described by a scalar function G on R^d together with its
gradient and Hessian (analytic when available, central-difference
fallbacks otherwise).  At a boundary point x with outer normal
nu = grad G / |grad G| the two curvature quantities used everywhere in
this package are

    mean curvature    H(x)      = lap G / |grad G|
                                  - <D2G grad G, grad G> / |grad G|^3
    Gaussian version  Hgamma(x) = H(x) - <x, nu(x)>

H is the unnormalized sum of principal curvatures of the level set
(the geometric mean curvature is H / (d-1)).  In d = 1 the two terms of
H cancel identically, so Hgamma(x) = -x * nu.
Nonnegativity of Hgamma over the boundary is the standing hypothesis for
the gradient-contractivity checks in :mod:`oucontract.contract`.

C^{2,alpha} smoothness of G cannot be probed numerically and is assumed
of the input; the scans here only verify nondegeneracy of the gradient
(|grad G| >= grad_floor near the boundary).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

_EPS = np.finfo(float).eps
_FD_GRAD_STEP = math.sqrt(_EPS)
_FD_HESS_STEP = _EPS ** (1.0 / 3.0)


class DegenerateLevelSetError(ValueError):
    pass


class ProjectionError(RuntimeError):
    pass


def _fd_gradient(g: Callable, x: np.ndarray) -> np.ndarray:
    h = _FD_GRAD_STEP * (1.0 + float(np.linalg.norm(x)))
    grad = np.empty_like(x)
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        grad[i] = (g(x + e) - g(x - e)) / (2.0 * h)
    return grad


def _fd_hessian(g: Callable, x: np.ndarray) -> np.ndarray:
    h = _FD_HESS_STEP * (1.0 + float(np.linalg.norm(x)))
    d = x.size
    hess = np.empty((d, d))
    g0 = g(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h
        hess[i, i] = (g(x + ei) - 2.0 * g0 + g(x - ei)) / (h * h)
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h
            cross = (
                g(x + ei + ej) - g(x + ei - ej) - g(x - ei + ej) + g(x - ei - ej)
            ) / (4.0 * h * h)
            hess[i, j] = cross
            hess[j, i] = cross
    return hess


@dataclass
class LevelSetDomain:
    """O = {x : G(x) < 0} with evaluators for G, grad G and D2 G.

    ``g`` must accept batches of shape (n, dim) and return shape (n,);
    single points of shape (dim,) are also accepted.  ``grad`` and
    ``hess`` take single points; when omitted they fall back to central
    differences with steps sqrt(eps)*(1+|x|) and cbrt(eps)*(1+|x|).
    ``grad_floor`` is the declared lower bound on |grad G| near the
    boundary; curvature evaluation refuses to divide by less.

    ``monotone_axis`` asserts that G is strictly monotone along that
    coordinate on all of R^d, increasing or decreasing, so every line
    parallel to the axis crosses the boundary at most once; grid
    classification then bisects along the axis instead of evaluating G at
    every node.  ``halfspace`` sets its axis, ``wiener.epigraph_domain`` and
    ``wiener.cylindrical_domain`` set 0; every other constructor leaves it
    None, which means no such claim.
    """

    dim: int
    g: Callable
    grad: Callable | None = None
    hess: Callable | None = None
    grad_floor: float = 1e-8
    name: str = "custom"
    monotone_axis: int | None = None

    def __post_init__(self):
        if self.monotone_axis is not None and not 0 <= self.monotone_axis < self.dim:
            raise ValueError(f"monotone_axis {self.monotone_axis} outside 0..{self.dim - 1}")

    def value(self, x) -> np.ndarray | float:
        arr = np.asarray(x, dtype=float)
        if arr.ndim == 1:
            return float(np.asarray(self.g(arr.reshape(1, -1))).reshape(-1)[0])
        return np.asarray(self.g(arr), dtype=float)

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.grad is not None:
            return np.asarray(self.grad(x), dtype=float)
        return _fd_gradient(lambda p: self.value(p), x)

    def hessian(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if self.hess is not None:
            return np.asarray(self.hess(x), dtype=float)
        return _fd_hessian(lambda p: self.value(p), x)

    def contains(self, x) -> bool:
        return self.value(np.asarray(x, dtype=float)) < 0.0


@dataclass(frozen=True)
class BoundaryPoint:
    """A point with |G| <= tol_bd and its unit outer normal."""

    x: np.ndarray
    nu: np.ndarray


def outer_normal(dom: LevelSetDomain, x) -> np.ndarray:
    grad = dom.gradient(x)
    norm = float(np.linalg.norm(grad))
    if norm < dom.grad_floor:
        raise DegenerateLevelSetError(f"degenerate level set at {np.asarray(x)}")
    return grad / norm


def mean_curvature(dom: LevelSetDomain, x) -> float:
    """H = lap G/|grad G| - <D2G grad G, grad G>/|grad G|^3 at a boundary point."""
    x = np.asarray(x, dtype=float)
    grad = dom.gradient(x)
    norm = float(np.linalg.norm(grad))
    if norm < dom.grad_floor:
        raise DegenerateLevelSetError(f"degenerate level set at {x}")
    hess = dom.hessian(x)
    lap = float(np.trace(hess))
    quad = float(grad @ hess @ grad)
    return lap / norm - quad / norm**3


def gaussian_curvature(dom: LevelSetDomain, x) -> float:
    """Hgamma = H - <x, nu> at a boundary point."""
    x = np.asarray(x, dtype=float)
    nu = outer_normal(dom, x)
    return mean_curvature(dom, x) - float(x @ nu)


def project_to_boundary(
    dom: LevelSetDomain,
    x0,
    tol_bd: float | None = None,
) -> BoundaryPoint:
    """A boundary point near x0 by Newton on G: x <- x - G grad G / |grad G|^2.

    Each step re-reads grad G, so the path bends with the level sets and
    reaches elongated domains, such as a thin ellipse, from inside or
    outside.  The iteration stops once |G| <= 1e-3 * tol_bd, well below
    the tolerance so downstream identities are not tolerance bound, or
    after 100 steps, and raises ProjectionError unless |G| <= tol_bd by
    then.  The default tol_bd is 1e-10 * (1 + |G(x0)|).
    """
    x = np.array(x0, dtype=float)
    if tol_bd is None:
        tol_bd = 1e-10 * (1.0 + abs(dom.value(x)))
    for _ in range(100):
        gx = dom.value(x)
        if abs(gx) <= 1e-3 * tol_bd:
            break
        grad = dom.gradient(x)
        gnorm2 = float(grad @ grad)
        # grad_floor is a statement about the boundary; away from it we only
        # need a usable step
        if gnorm2 < 1e-24:
            raise DegenerateLevelSetError(f"degenerate level set at {x}")
        x = x - (gx / gnorm2) * grad
    else:
        gx = dom.value(x)
    if abs(gx) > tol_bd:
        raise ProjectionError(
            f"no boundary point of {dom.name} found from {np.asarray(x0).tolist()}: "
            f"|G| = {abs(gx):.3e} > tol_bd = {tol_bd:.3e} after 100 Newton steps"
        )
    return BoundaryPoint(x, outer_normal(dom, x))


@dataclass
class CurvatureAudit:
    """Hgamma sampled over the boundary and compared with an analytic bound.

    ``values`` holds Hgamma at the n audited boundary points and ``grads``
    holds grad G there, shape (n, dim).  The bound is
    Hgamma >= numerator / |grad G|; a sign scan is the case numerator = 0,
    whose slack is Hgamma itself.  ``failures`` names the premises of the
    bound that did not hold.
    """

    values: np.ndarray = field(repr=False)
    grads: np.ndarray = field(repr=False)
    numerator: float
    tol: float
    failures: list[str] = field(default_factory=list)

    @property
    def min_h_gamma(self) -> float:
        return float(np.min(self.values))

    @property
    def min_bound_slack(self) -> float:
        """min over samples of Hgamma - numerator / |grad G|."""
        norms = np.linalg.norm(self.grads, axis=1)
        return float(np.min(self.values - self.numerator / norms))

    @property
    def ok(self) -> bool:
        return (not self.failures and self.min_h_gamma >= -self.tol
                and self.min_bound_slack >= -self.tol)


def curvature_audit(
    dom: LevelSetDomain,
    n_samples: int,
    rng: np.random.Generator,
    tol: float = 0.0,
    numerator: float = 0.0,
) -> CurvatureAudit:
    """Project standard normal draws of rng to the boundary and audit Hgamma.

    Each sample draws dim normals in turn, so a generator in a given state
    yields the same points to every caller.  At each projection the audit
    records Hgamma and grad G; it passes when every Hgamma and every
    Hgamma - numerator/|grad G| is >= -tol.
    """
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    grads = np.empty((n_samples, dom.dim))
    values = np.empty(n_samples)
    for i in range(n_samples):
        x = project_to_boundary(dom, rng.standard_normal(dom.dim)).x
        grads[i] = dom.gradient(x)
        values[i] = gaussian_curvature(dom, x)
    return CurvatureAudit(values, grads, numerator, tol)


# ---------------------------------------------------------------------------
# domain library


def halfspace(dim: int, offset: float, axis: int = 0) -> LevelSetDomain:
    """O = {x_axis < -offset}, level function G = x_axis + offset."""

    def g(x):
        x = np.asarray(x, dtype=float)
        return x[..., axis] + offset

    def grad(x):
        e = np.zeros(dim)
        e[axis] = 1.0
        return e

    def hess(x):
        return np.zeros((dim, dim))

    return LevelSetDomain(dim, g, grad, hess, grad_floor=0.5,
                          name=f"halfspace(offset={offset})", monotone_axis=axis)


def ball(dim: int, radius: float, center=None) -> LevelSetDomain:
    """O = {|x - c| < R}, level function G = |x - c|^2 - R^2."""
    c = np.zeros(dim) if center is None else np.asarray(center, dtype=float)
    if c.shape != (dim,):
        raise ValueError(f"ball 'center' has shape {c.shape}, but 'dim' is {dim}")

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.sum((x - c) ** 2, axis=-1) - radius**2

    def grad(x):
        return 2.0 * (np.asarray(x, dtype=float) - c)

    def hess(x):
        return 2.0 * np.eye(dim)

    return LevelSetDomain(dim, g, grad, hess, grad_floor=min(1.0, radius),
                          name=f"ball(R={radius})")


def ellipsoid(semi_axes) -> LevelSetDomain:
    """O = {sum (x_i/a_i)^2 < 1}."""
    a = np.asarray(semi_axes, dtype=float)
    dim = a.size
    inv2 = 1.0 / a**2

    def g(x):
        x = np.asarray(x, dtype=float)
        return np.sum(x * x * inv2, axis=-1) - 1.0

    def grad(x):
        return 2.0 * np.asarray(x, dtype=float) * inv2

    def hess(x):
        return 2.0 * np.diag(inv2)

    return LevelSetDomain(dim, g, grad, hess, grad_floor=min(1.0, float(np.min(1.0 / a))),
                          name=f"ellipsoid({a.tolist()})")


def polynomial_domain(dim: int, terms) -> LevelSetDomain:
    """G given by a coefficient table [(coeff, powers), ...].

    ``powers`` is a length-dim tuple of nonnegative integer exponents;
    gradient and Hessian are the exact term-by-term derivatives, each a
    table of its own, evaluated like G.
    """
    coeffs = np.array([float(t[0]) for t in terms])
    powers = np.array([list(map(int, t[1])) for t in terms], dtype=int)
    if powers.shape[1] != dim:
        raise ValueError("each powers tuple must have length dim")

    def derivative(table, i):
        """The table of d/dx_i of the polynomial with this table."""
        c, pw = table
        keep = pw[:, i] > 0
        c, pw = c[keep] * pw[keep, i], pw[keep]
        pw[:, i] -= 1
        return c, pw

    def evaluate(table, x):
        c, pw = table
        batch = x.reshape(-1, dim)
        vals = np.zeros(batch.shape[0])
        for ck, pk in zip(c, pw):
            term = np.full(batch.shape[0], ck)
            for i in range(dim):
                if pk[i]:
                    term = term * batch[:, i] ** pk[i]
            vals += term
        return vals.reshape(x.shape[:-1])

    table = (coeffs, powers)
    grad_tables = [derivative(table, i) for i in range(dim)]
    hess_tables = [[derivative(t, j) for j in range(dim)] for t in grad_tables]

    def g(x):
        return evaluate(table, np.asarray(x, dtype=float))

    def grad(x):
        x = np.asarray(x, dtype=float)
        return np.array([evaluate(t, x) for t in grad_tables])

    def hess(x):
        x = np.asarray(x, dtype=float)
        return np.array([[evaluate(t, x) for t in row] for row in hess_tables])

    return LevelSetDomain(dim, g, grad, hess, name="polynomial")
