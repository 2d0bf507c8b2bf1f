"""Gradient-contractivity checks for the Dirichlet resolvent.

For a test function y compactly supported in a domain O with nonnegative
Gaussian boundary curvature, and u = (I - sigma*L)^-1 y, the following
facts hold in the continuum and are verified here at grid resolution:

1. pointwise, with q_eps = sqrt(eps^2 + |grad u|^2),

       |grad u|^2 / q_eps - sigma * L q_eps  <  |grad y|        in O;

2. the outward normal slope of q_eps is <= 0 on the boundary;

3. integral over O of L(g(q_eps)) dgamma <= 0 for convex increasing g
   with g(0) = 0 (g = t^p, smoothed for p < 2);

4. the headline inequality
   ||grad u||_Lp(O,gamma) <= ||grad y||_Lp(O,gamma) for p > 1.

Discrete gradient norms are cell quadratures restricted to nodes whose
full central stencil is interior; the excluded boundary band contributes
exactly zero to the right-hand side because test bumps keep a declared
margin from the boundary, and its effect on the left-hand side is folded
into the h-coupled tolerance of the sweep assertions.  p = 1 records are
reported but never asserted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import domains, grid as grid_mod, solver
from .domains import LevelSetDomain, ProjectionError
from .grid import GaussianGrid, ScalarField
from .solver import ResolventJob

_SUPPORT_FLOOR = 1e-3  # below this 1 - |x-c|^2/r^2 the bump underflows to 0
_SURROGATE_DELTA = 1e-3  # smoothing of t^p, p < 2, in boundary_flux_integral
_CONTAINMENT_DIRECTIONS = 128  # seeded random directions sampled by make_bump
_CONTAINMENT_SEED = 7


@dataclass(frozen=True)
class BumpFunction:
    """Smooth compactly supported test function.

    y(x) = exp(1 - 1/(1 - |x - c|^2/r^2)) inside the ball B(c, r),
    zero outside; y(c) = 1.  The gradient has the closed form
    grad y = -2 y(x) (x - c) / (r^2 u^2) with u = 1 - |x - c|^2/r^2,
    used wherever the right-hand side of an inequality needs |grad y|.
    """

    center: np.ndarray
    radius: float
    label: str = "bump"

    def __post_init__(self):
        object.__setattr__(self, "center", np.asarray(self.center, dtype=float))
        if self.radius <= 0:
            raise ValueError("radius must be positive")

    def _u(self, x: np.ndarray) -> np.ndarray:
        """1 - |x - c|^2/r^2, the squared distance summed column by column."""
        x = np.atleast_2d(np.asarray(x, dtype=float))
        rho2 = (x[..., 0] - self.center[0]) ** 2
        for a in range(1, self.center.size):
            col = x[..., a] - self.center[a]
            col *= col
            rho2 += col
        rho2 /= self.radius**2
        return np.subtract(1.0, rho2, out=rho2)

    def __call__(self, x) -> np.ndarray:
        """y at each point.

        exp runs on the support only: well outside it 1 - 1/u falls below
        -745, where numpy's exp is about ten times slower.
        """
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        u = self._u(x)
        out = np.zeros_like(u)
        idx = np.flatnonzero(u > _SUPPORT_FLOOR)
        out.put(idx, np.exp(1.0 - 1.0 / u.take(idx)))
        return float(out[0]) if single else out

    def gradient(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        pts = np.atleast_2d(x)
        u = self._u(pts)
        out = np.zeros_like(pts)
        inside = u > _SUPPORT_FLOOR
        if np.any(inside):
            vals = np.exp(1.0 - 1.0 / u[inside])
            coef = -2.0 * vals / (self.radius**2 * u[inside] ** 2)
            out[inside] = coef[:, None] * (pts[inside] - self.center)
        return out[0] if single else out


def make_bump(
    domain: LevelSetDomain,
    center,
    radius: float,
    margin: float,
    label: str | None = None,
) -> BumpFunction:
    """Bump with verified support containment B(center, radius+margin) in O.

    The enlarged sphere is sampled along seeded random directions plus all
    axis directions; any sample with G >= 0 rejects the bump.
    """
    center = np.asarray(center, dtype=float)
    d = domain.dim
    if center.shape != (d,):
        raise ValueError(f"bump 'center' has shape {center.shape}, but 'dim' is {d}")
    if not domain.contains(center):
        raise ValueError("support not compactly inside O")
    rng = np.random.default_rng(_CONTAINMENT_SEED)
    dirs = rng.standard_normal((_CONTAINMENT_DIRECTIONS, d))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    axes = np.vstack([np.eye(d), -np.eye(d)])
    dirs = np.vstack([dirs, axes])
    pts = center + (radius + margin) * dirs
    if np.any(np.asarray(domain.value(pts)) >= 0.0):
        raise ValueError("support not compactly inside O")
    name = label if label is not None else f"bump(c={np.round(center, 3).tolist()},r={radius})"
    return BumpFunction(center, radius, label=name)


# ---------------------------------------------------------------------------
# auxiliary fields


def gradient_magnitude_fields(u: ScalarField, eps: float) -> tuple[ScalarField, ScalarField]:
    """(|grad u|, sqrt(eps^2 + |grad u|^2)) as nodal fields on interior nodes."""
    if eps <= 0:
        raise ValueError("eps must be positive")
    grad = grid_mod.discrete_gradient(u)
    mag = np.linalg.norm(grad, axis=-1)
    smooth = np.sqrt(eps * eps + mag * mag)
    phi = ScalarField(u.grid, mag)
    phi_eps = ScalarField(u.grid, smooth)
    return phi, phi_eps


def convex_power_surrogate(p: float, delta: float):
    """Smooth convex g with g(0) = 0 and |g(t) - t^p| <= delta^p.

    g(t) = t^p for p >= 2 (already C^2 on [0, inf)); for p < 2 the
    regularization g(t) = (t^2 + delta^2)^(p/2) - delta^p is used.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if delta <= 0:
        raise ValueError("delta must be positive")
    if p >= 2:

        def g(t):
            return np.asarray(t, dtype=float) ** p

    else:

        def g(t):
            t = np.asarray(t, dtype=float)
            return (t * t + delta * delta) ** (p / 2.0) - delta**p

    return g


# ---------------------------------------------------------------------------
# pointwise and boundary checks


@dataclass
class ViolationReport:
    n_checked: int
    violations: list[tuple[int, float]]  # (flat node index, excess)
    worst_excess: float

    @property
    def ok(self) -> bool:
        return len(self.violations) == 0


def check_pointwise_inequality(
    u: ScalarField,
    y: BumpFunction,
    sigma: float,
    eps: float,
    tol: float,
    density_floor: float = 1e-9,
) -> ViolationReport:
    """Verify |grad u|^2/q - sigma*L_h q <= |grad y| + tol, q = phi_eps.

    Checked on interior nodes whose composite stencil is fully interior
    (the node and its axis neighbors all have central gradients), so no
    one-sided or pinned value enters the left side.  Nodes where the
    Gaussian density falls below ``density_floor`` are excluded: the
    conjugate-gradient solve controls the residual in the theta-weighted
    norm, so nodal values that far out carry noise amplified by
    theta^(-1/2) and no reliable pointwise information (the excluded
    region has Gaussian mass below the floor itself).
    """
    grid = u.grid
    phi, phi_eps = gradient_magnitude_fields(u, eps)
    l_phi_eps = solver.discrete_ou_apply(phi_eps)
    nodes = np.flatnonzero(grid.eroded_interior(2))
    if density_floor > 0.0:
        cell = float(np.prod(grid.h))
        nodes = nodes[grid.node_weights(nodes) >= density_floor * cell]
    excess = phi.flat()[nodes] ** 2 / phi_eps.flat()[nodes] - sigma * l_phi_eps.flat()[nodes]
    excess -= np.linalg.norm(y.gradient(grid.node_coordinates(nodes)), axis=-1)
    excess -= tol
    violations = [(int(nodes[i]), float(excess[i])) for i in np.flatnonzero(excess > 0.0)]
    worst = float(np.max(excess)) if nodes.size else 0.0
    return ViolationReport(nodes.size, violations, worst)


@dataclass
class BoundarySlopeReport:
    n_checked: int
    n_skipped: int
    max_slope: float
    violations: list[tuple[int, float]]

    @property
    def ok(self) -> bool:
        # at least half of the samples must have been checked
        return (self.n_checked > 0 and self.n_checked >= self.n_skipped
                and len(self.violations) == 0)


@dataclass
class BoundaryProbes:
    """Interior probe pairs behind sampled boundary points of one grid.

    Row i holds the probes p1[i] = x - t1*nu and p2[i] = x - t2*nu of one
    boundary point x with outer normal nu, and dt[i] = t2 - t1.
    """

    p1: np.ndarray  # (k, dim)
    p2: np.ndarray  # (k, dim)
    dt: np.ndarray  # (k,)
    n_skipped: int


def boundary_probes(
    grid: GaussianGrid,
    domain: LevelSetDomain,
    n_samples: int,
    seed: int,
) -> BoundaryProbes:
    """Project seeded Gaussian samples to the boundary and place probe pairs.

    t1 < t2 = t1 + 2*diag are the smallest multiples of the grid diagonal
    whose interpolation cells are fully interior; samples whose projection
    fails or that have no such probes inside the grid are skipped and
    counted.  The probes depend on the grid and domain only, so one set
    serves every solution on the grid.  Every candidate pair of every
    sample goes through the mask interpolant in one call.
    """
    diag = float(np.linalg.norm(grid.h))
    t1 = np.array([1.5, 2.0, 3.0, 4.0, 6.0]) * diag
    t2 = t1 + 2.0 * diag
    rng = np.random.default_rng(seed)
    xs, nus = [], []
    for _ in range(n_samples):
        try:
            bp = domains.project_to_boundary(domain, rng.standard_normal(grid.dim))
        except ProjectionError:
            continue
        xs.append(bp.x)
        nus.append(bp.nu)
    x = np.array(xs).reshape(-1, 1, grid.dim)
    nu = np.array(nus).reshape(-1, 1, grid.dim)
    p1 = x - t1[:, None] * nu  # (samples, multiples, dim)
    p2 = x - t2[:, None] * nu
    mask_interp = grid.interpolator(grid.interior.astype(float))
    inside = mask_interp(np.concatenate([p1, p2], axis=1).reshape(-1, grid.dim))
    inside = inside.reshape(len(xs), 2, t1.size) > 1.0 - 1e-12
    both = inside[:, 0] & inside[:, 1]
    rows = np.flatnonzero(both.any(axis=1))
    first = both[rows].argmax(axis=1)  # the smallest multiple that passes
    return BoundaryProbes(p1[rows, first], p2[rows, first], (t2 - t1)[first],
                          n_samples - rows.size)


def check_boundary_normal_slope(
    u: ScalarField,
    probes: BoundaryProbes,
    eps: float,
    tol: float,
) -> BoundarySlopeReport:
    """One-sided normal slope of phi_eps at sampled boundary points <= tol.

    The slope is (q(p1) - q(p2)) / (t2 - t1) at each probe pair of
    ``probes`` (see ``boundary_probes``), which must belong to u's grid.
    """
    if probes.dt.size == 0:
        return BoundarySlopeReport(0, probes.n_skipped, 0.0, [])
    _, phi_eps = gradient_magnitude_fields(u, eps)
    interp = u.grid.interpolator(phi_eps.values)
    slopes = (interp(probes.p1) - interp(probes.p2)) / probes.dt
    violations = [(int(i), float(s - tol)) for i, s in enumerate(slopes) if s > tol]
    return BoundarySlopeReport(slopes.size, probes.n_skipped, float(np.max(slopes)),
                               violations)


def boundary_flux_integral(u: ScalarField, eps: float, ps) -> list[float]:
    """Cell quadrature of L_h(g(phi_eps)) over the deep interior, per p.

    g is ``convex_power_surrogate(p, _SURROGATE_DELTA)``.  phi_eps, the
    core and the weights do not depend on p and are computed once for the
    whole sequence ``ps``.

    In the continuum this equals the outward boundary flux of g(phi_eps)
    weighted by the Gaussian density, which is <= 0 under the curvature
    hypothesis; the discrete value is asserted against an O(h) tolerance
    by the callers.
    """
    grid = u.grid
    _, phi_eps = gradient_magnitude_fields(u, eps)
    nodes = np.flatnonzero(grid.eroded_interior(2))
    w = grid.node_weights(nodes)
    out = []
    for p in ps:
        g = convex_power_surrogate(float(p), _SURROGATE_DELTA)
        l_psi = solver.discrete_ou_apply(ScalarField(grid, g(phi_eps.values)))
        out.append(float(np.sum(l_psi.flat()[nodes] * w)))
    return out


# ---------------------------------------------------------------------------
# the contractivity sweep


@dataclass
class ContractRecord:
    domain: str
    bump: str
    sigma: float
    p: float
    lhs: float
    rhs: float
    ratio: float
    h: float
    residual: float
    converged: bool

    def key(self):
        return (self.domain, self.bump, self.sigma, self.p)


@dataclass
class SweepResult:
    records: list[ContractRecord]
    solutions: dict = field(default_factory=dict)  # (sigma, bump label) -> ResolventSolution


def default_contract_tol(h: float) -> float:
    """Assertion slack for ratio <= 1 + tol; couples to the grid spacing."""
    return max(0.02, 10.0 * h)


def gradient_lp_ratio(
    u: ScalarField,
    bump: BumpFunction,
    ps,
) -> list[tuple[float, float]]:
    """(||grad u||_p, ||grad y||_p) over full-stencil interior nodes, per p >= 1.

    The gradients and weights do not depend on p and are computed once for
    the whole sequence ``ps``.  The right side uses the bump's analytic
    gradient, exact on the node set; the bump's margin keeps its support
    away from the excluded cut band, so the restriction loses nothing on
    that side.
    """
    ps = [float(p) for p in ps]
    if not all(p >= 1.0 for p in ps):
        raise ValueError("p must be >= 1")
    grid = u.grid
    nodes = np.flatnonzero(grid.eroded_interior(1))
    w = grid.node_weights(nodes)
    if w.size == 0 or float(np.sum(w)) <= 0.0:
        raise ValueError("region has no quadrature mass")
    grad_u = grid_mod.discrete_gradient(u).reshape(-1, grid.dim)[nodes]
    lhs_vals = np.linalg.norm(grad_u, axis=-1)
    rhs_vals = np.linalg.norm(bump.gradient(grid.node_coordinates(nodes)), axis=-1)
    out = []
    for p in ps:
        lhs = float(np.sum(w * lhs_vals**p) ** (1.0 / p))
        rhs = float(np.sum(w * rhs_vals**p) ** (1.0 / p))
        out.append((lhs, rhs))
    return out


def contractivity_sweep(
    domain: LevelSetDomain,
    grid: GaussianGrid,
    sigmas,
    ps,
    bumps,
    solver_tol: float = 1e-10,
) -> SweepResult:
    """Solve the resolvent per (sigma, bump) and record Lp gradient ratios.

    Each bump's right-hand side is built once and serves every sigma; one
    operator is assembled per sigma, and one linear solve serves every p.
    Every solution is kept in ``solutions``.  Records are sorted in
    deterministic (domain, bump, sigma, p) order.
    """
    ys = [ScalarField.from_callable(grid, bump) for bump in bumps]
    records: list[ContractRecord] = []
    solutions = {}
    h_max = float(np.max(grid.h))
    for sigma in (float(s) for s in sigmas):
        op = solver.assemble_ou_operator(grid, sigma)
        for bump, y in zip(bumps, ys):
            sol = solver.solve_resolvent(ResolventJob(grid, sigma, y), tol=solver_tol,
                                         operator=op)
            solutions[(sigma, bump.label)] = sol
            pairs = gradient_lp_ratio(sol.u, bump, ps) if len(ps) else []
            for p, (lhs, rhs) in zip(ps, pairs):
                records.append(
                    ContractRecord(
                        domain=domain.name,
                        bump=bump.label,
                        sigma=sigma,
                        p=float(p),
                        lhs=lhs,
                        rhs=rhs,
                        ratio=lhs / rhs if rhs > 0 else math.inf,
                        h=h_max,
                        residual=sol.residual,
                        converged=sol.converged,
                    )
                )
    records.sort(key=lambda r: r.key())
    return SweepResult(records, solutions)
