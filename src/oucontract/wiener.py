"""Karhunen-Loeve truncations of Brownian motion and bridge, and the
domains they induce on R^m.

The Wiener measure on L^2[0,1], and its pinned bridge variant,
diagonalize over

    brownian motion:  lambda_n = 1 / (pi^2 (n - 1/2)^2),
                      e_n(s) = sqrt(2) sin((n - 1/2) pi s),
    brownian bridge:  lambda_n = 1 / (pi n)^2,
                      e_n(s) = sqrt(2) sin(n pi s),

and h_n = sqrt(lambda_n) e_n is an orthonormal basis of the Cameron-Martin
space with inner product <f, g>_H = integral f' g' ds.  A scalar profile
g with |g'| >= c and the envelope bounds

    alpha_1 g + beta_1 <= xi g'(xi) <= alpha_2 g + beta_2

induces for each truncation m the level function

    G_m(xi) = integral_0^1 g( sum_{i<=m} xi_i h_i(s) ) ds  -  r

on R^m, whose sublevel set has nonnegative Gaussian boundary curvature
whenever the threshold alpha_2 r <= -(beta_2 + sup|g''| * I_f) holds with
I_f = 1/2 for the motion and 1/6 for the bridge (I_f is the integral of
the squared-basis trace sum f(s), which is s - s^2 in the bridge case).
All envelope constants are declared by the caller and validated on a
grid, never inferred.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import domains, gauss, grid as grid_mod, solver
from .contract import BumpFunction
from .domains import CurvatureAudit, LevelSetDomain
from .grid import GaussianGrid, ScalarField
from .solver import ResolventJob

BM = "brownian_motion"
BRIDGE = "brownian_bridge"
_TRACE_INTEGRAL = {BM: 0.5, BRIDGE: 1.0 / 6.0}
# rows of xi per block of G: the (rows, s-nodes) path temporaries stay
# within a few hundred kB, so each block is evaluated in cache
_EVAL_CHUNK = 256
_GL_NODES_PER_PANEL = 8
# validation grid for declared profile constants: xi in [-20, 20], step 1e-2
_VALIDATION_LO, _VALIDATION_HI, _VALIDATION_STEP = -20.0, 20.0, 1e-2


def composite_gauss_legendre(n_panels: int):
    """Composite Gauss-Legendre rule on [0, 1], _GL_NODES_PER_PANEL nodes per panel."""
    x, w = np.polynomial.legendre.leggauss(_GL_NODES_PER_PANEL)
    width = 1.0 / n_panels
    nodes = []
    weights = []
    for k in range(n_panels):
        a = k * width
        nodes.append(a + 0.5 * width * (x + 1.0))
        weights.append(0.5 * width * w)
    return np.concatenate(nodes), np.concatenate(weights)


def basel_partial_sum(m: int) -> float:
    """sum_{n<=m} (n - 1/2)^-2, increasing to pi^2/2."""
    if m < 1:
        raise ValueError("m must be >= 1")
    n = np.arange(1, m + 1, dtype=float)
    return float(np.sum((n - 0.5) ** -2))


def _kl_frequencies(kind: str, m: int) -> np.ndarray:
    """1/sqrt(lambda_n) for n = 1..m: (n - 1/2) pi for the motion, n pi for the bridge."""
    if kind not in (BM, BRIDGE):
        raise ValueError(f"unknown basis kind {kind!r}")
    idx = np.arange(1, m + 1, dtype=float)
    return (idx - 0.5) * math.pi if kind == BM else idx * math.pi


@dataclass
class KLBasis:
    """Truncated Karhunen-Loeve system with an s-quadrature on [0, 1]."""

    kind: str
    m: int
    s_nodes: np.ndarray
    s_weights: np.ndarray
    h_table: np.ndarray = field(repr=False)  # (m, n_s) values of h_i

    @classmethod
    def build(cls, kind: str, m: int, n_panels: int | None = None) -> "KLBasis":
        if m < 1:
            raise ValueError("truncation must be >= 1")
        if n_panels is None:
            n_panels = max(16, m)
        s, w = composite_gauss_legendre(n_panels)
        freq = _kl_frequencies(kind, m)
        h = np.sqrt(2.0 / freq**2)[:, None] * np.sin(freq[:, None] * s[None, :])
        return cls(kind, m, s, w, h)

    def h1_integral(self) -> float:
        return float(self.h_table[0] @ self.s_weights)

    def paths(self, coeffs: np.ndarray) -> np.ndarray:
        """Path values sum_i xi_i h_i(s_k) for coefficient rows."""
        return np.atleast_2d(np.asarray(coeffs, dtype=float)) @ self.h_table


def trace_density(s, m: int, kind: str) -> np.ndarray:
    """f_m(s) = sum_{n<=m} h_n(s)^2 for the basis ``kind``, one value per s.

    m = 0 gives the empty sum.
    """
    s_arr = np.atleast_1d(np.asarray(s, dtype=float))
    freq = _kl_frequencies(kind, m)
    h = np.sqrt(2.0 / freq**2)[:, None] * np.sin(freq[:, None] * s_arr[None, :])
    return np.sum(h * h, axis=0)


# ---------------------------------------------------------------------------
# scalar profiles g and their declared envelope constants


@dataclass
class FunctionalSpec:
    """A profile g with declared constants, inducing G_m = int g(path) - r."""

    g: Callable
    gp: Callable
    gpp: Callable
    c: float
    alpha1: float
    alpha2: float
    beta1: float
    beta2: float
    r: float
    gpp_sup: float
    kind: str = BM
    name: str = "functional"

    @property
    def trace_integral(self) -> float:
        return _TRACE_INTEGRAL[self.kind]

    def threshold_slack(self) -> float:
        """-(beta2 + gpp_sup * I_f) - alpha2 * r, nonnegative when admissible."""
        return -(self.beta2 + self.gpp_sup * self.trace_integral) - self.alpha2 * self.r


@dataclass
class ValidationReport:
    ok: bool
    failures: list[str]
    witness: dict


def validate_functional(spec: FunctionalSpec) -> ValidationReport:
    """Scan the declared inequalities for g on a validation grid.

    Checks, each with its witnessing point on failure:
      |g'| >= c, the two-sided envelope on xi*g', |g''| <= gpp_sup,
      r in the (grid) range of g, and the admissibility threshold.
    """
    xi = np.arange(_VALIDATION_LO, _VALIDATION_HI + 0.5 * _VALIDATION_STEP, _VALIDATION_STEP)
    gv = np.asarray(spec.g(xi), dtype=float)
    gp = np.asarray(spec.gp(xi), dtype=float)
    gpp = np.asarray(spec.gpp(xi), dtype=float)
    failures: list[str] = []
    witness: dict = {}

    def _check(name, slack_arr):
        k = int(np.argmin(slack_arr))
        if slack_arr[k] < 0:
            failures.append(name)
            witness[name] = float(xi[k])

    _check("gradient_floor", np.abs(gp) - spec.c)
    _check("envelope_lower", xi * gp - (spec.alpha1 * gv + spec.beta1))
    _check("envelope_upper", (spec.alpha2 * gv + spec.beta2) - xi * gp)
    _check("second_derivative_sup", spec.gpp_sup - np.abs(gpp))

    if not float(np.min(gv)) <= spec.r <= float(np.max(gv)):
        failures.append("level_in_range")
    if spec.threshold_slack() < 0:
        failures.append("threshold")

    return ValidationReport(not failures, failures, witness)


def _horner(x, c):
    """sum_k c[k] x^k by Horner's rule in one buffer.

    For finite x (and a leading coefficient other than -0.0) this is bit
    for bit ``np.polynomial.polynomial.polyval``, without a temporary array
    per coefficient; a scalar x gives a scalar.
    """
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, c[-1])
    for ck in c[-2::-1]:
        out *= x
        out += ck
    return out[()]


def _rational_funcs(num, den):
    """g = P/Q with g' and g'' by the quotient rule."""
    p = np.asarray(num, dtype=float)
    q = np.asarray(den, dtype=float)
    der = np.polynomial.polynomial.polyder
    p1, p2 = der(p), der(p, 2)
    q1, q2 = der(q), der(q, 2)

    def g(x):
        x = np.asarray(x, dtype=float)
        return _horner(x, p) / _horner(x, q)

    def gp(x):
        x = np.asarray(x, dtype=float)
        P, Q = _horner(x, p), _horner(x, q)
        return (_horner(x, p1) * Q - P * _horner(x, q1)) / Q**2

    def gpp(x):
        x = np.asarray(x, dtype=float)
        P, Q = _horner(x, p), _horner(x, q)
        Pp, Qp = _horner(x, p1), _horner(x, q1)
        Ppp, Qpp = _horner(x, p2), _horner(x, q2)
        return (Ppp * Q * Q - 2.0 * Pp * Qp * Q + 2.0 * P * Qp * Qp - P * Qpp * Q) / Q**3

    return g, gp, gpp


def affine_level_spec(r: float = -1.0, kind: str = BM) -> FunctionalSpec:
    """g(xi) = xi: xi g' = g exactly, so alpha = 1, beta = 0, g'' = 0."""
    g, gp, gpp = _rational_funcs([0.0, 1.0], [1.0])
    return FunctionalSpec(g, gp, gpp, c=1.0, alpha1=1.0, alpha2=1.0,
                          beta1=0.0, beta2=0.0, r=r, gpp_sup=0.0,
                          kind=kind, name=f"affine(r={r})")


def rational_reference_spec(kind: str = BM, r: float = -0.75) -> FunctionalSpec:
    """The shipped nonlinear profile g = (-xi^3 - xi/2) / (1 + xi^2).

    Equivalently g(xi) = -xi + 0.5 xi/(1 + xi^2): a degree-(m+1)/degree-m
    rational with g' in [-1.0625, -0.5] and xi g' - g = -xi^3/(1+xi^2)^2
    bounded by 3 sqrt(3)/16 < 0.33.
    """
    g, gp, gpp = _rational_funcs([0.0, -0.5, 0.0, -1.0], [1.0, 0.0, 1.0])
    return FunctionalSpec(g, gp, gpp, c=0.5, alpha1=1.0, alpha2=1.0,
                          beta1=-0.33, beta2=0.33, r=r, gpp_sup=0.75,
                          kind=kind, name=f"rational_reference({kind},r={r})")


# ---------------------------------------------------------------------------
# induced level-set domains on R^m


def cylindrical_domain(spec: FunctionalSpec, basis: KLBasis) -> LevelSetDomain:
    """G_m(xi) = integral g(sum xi_i h_i(s)) ds - r as a LevelSetDomain.

    Derivatives share the basis s-quadrature:
      dG/dxi_i    = integral g'(path) h_i ds,
      d2G/dxi_ij  = integral g''(path) h_i h_j ds.

    The profile is validated first; a rejected spec raises ValueError.

    G_m is strictly monotone in xi_1, so the domain declares
    ``monotone_axis=0`` and grids bisect along that axis: the validated
    slope floor |g'| >= c > 0 keeps g' of one sign, and h_1 >= 0 on [0, 1]
    for both KL kinds (sqrt(2) sin((n - 1/2) pi s)/((n - 1/2) pi) and
    sqrt(2) sin(n pi s)/(n pi) at n = 1), positive at every interior
    quadrature node, so dG/dxi_1 = integral g'(path) h_1 ds has the sign of
    g' and modulus at least c * integral h_1 ds.  A spec declaring c <= 0
    makes no such claim and is classified node by node.
    """
    report = validate_functional(spec)
    if not report.ok:
        raise ValueError(
            f"functional spec rejected: {report.failures}, witness {report.witness}"
        )
    m = basis.m
    H = basis.h_table
    w = basis.s_weights

    def g(xi):
        xi = np.atleast_2d(np.asarray(xi, dtype=float))
        out = np.empty(xi.shape[0])
        for start in range(0, xi.shape[0], _EVAL_CHUNK):
            block = xi[start:start + _EVAL_CHUNK]
            paths = block @ H
            out[start:start + block.shape[0]] = np.asarray(spec.g(paths)) @ w
        return out - spec.r

    def grad(xi):
        path = np.asarray(xi, dtype=float) @ H
        return H @ (w * np.asarray(spec.gp(path)))

    def hess(xi):
        path = np.asarray(xi, dtype=float) @ H
        return (H * (w * np.asarray(spec.gpp(path)))[None, :]) @ H.T

    floor = 0.1 * spec.c * abs(basis.h1_integral())
    return LevelSetDomain(m, g, grad, hess, grad_floor=floor,
                          name=f"cylindrical({spec.name},m={m})",
                          monotone_axis=0 if spec.c > 0 else None)


def pathwise_level_value(spec: FunctionalSpec, basis: KLBasis, coeffs) -> float:
    """G_m(xi) for one coefficient vector (quadrature of g along the path)."""
    paths = basis.paths(coeffs)
    vals = np.asarray(spec.g(paths)) @ basis.s_weights
    return float(np.atleast_1d(vals)[0]) - spec.r


def cylindrical_curvature_audit(
    spec: FunctionalSpec,
    basis: KLBasis,
    n_samples: int,
    seed: int,
    tol: float = 1e-6,
) -> CurvatureAudit:
    """Sample the boundary of the truncated domain and audit Hgamma.

    Per sample the audit checks Hgamma against the analytic lower bound
    ``spec.threshold_slack() / |grad G_m(x)|``, that is

        (-sup|g''| * I_f - alpha2 r - beta2) / |grad G_m(x)|,

    and fails the premise ``"first_coord_floor"`` when |dG/dxi_1| falls below
    c * |integral h_1 ds| - tol (the profile's slope never vanishes and h_1
    has one sign).
    """
    if basis.m > 4:
        raise ValueError("curvature audits are limited to truncations m <= 4")
    dom = cylindrical_domain(spec, basis)
    audit = domains.curvature_audit(dom, n_samples, np.random.default_rng(seed), tol,
                                    spec.threshold_slack())
    if np.min(np.abs(audit.grads[:, 0])) < spec.c * abs(basis.h1_integral()) - tol:
        audit.failures.append("first_coord_floor")
    return audit


# ---------------------------------------------------------------------------
# epigraph domains


@dataclass
class EpigraphSpec:
    """G = xi_1 + Phi(xi_2, ..., xi_m) with declared constants.

    The constants must satisfy Phi >= C, ||D2 Phi||_F <= C1,
    <grad Phi(x'), x'> <= C2, ||D2 Phi||_2 <= C3 and
    C - C1 - C2 - C3 >= 0; they are validated on Gaussian samples, and the
    boundary audit checks Hgamma >= (C - C1 - C2 - C3)/|grad G|.
    """

    phi: Callable           # batched (n, m-1) -> (n,)
    phi_grad: Callable      # single (m-1,) -> (m-1,)
    phi_hess: Callable      # single (m-1,) -> (m-1, m-1)
    C: float
    C1: float
    C2: float
    C3: float
    name: str = "epigraph"

    def margin(self) -> float:
        return self.C - self.C1 - self.C2 - self.C3


def constant_epigraph(C: float) -> EpigraphSpec:
    """Phi identically C: the halfspace {xi_1 < -C}."""

    def phi(xp):
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        return np.full(xp.shape[0], C)

    def phi_grad(xp):
        return np.zeros_like(np.asarray(xp, dtype=float))

    def phi_hess(xp):
        k = np.asarray(xp).size
        return np.zeros((k, k))

    return EpigraphSpec(phi, phi_grad, phi_hess, C=C, C1=0.0, C2=0.0, C3=0.0,
                        name=f"halfspace_level(C={C})")


def gauss_ridge_epigraph(c0: float, amp: float, weights) -> EpigraphSpec:
    """Phi(x') = c0 + amp * exp(-t^2/2), t = <w, x'>.

    grad Phi = -amp t e^(-t^2/2) w and D2 Phi = amp (t^2-1) e^(-t^2/2) w w^T,
    so C = c0, C1 = C3 = amp |w|^2 and <grad Phi(x'), x'> = -amp t^2 e^(-t^2/2)
    <= 0, giving C2 = 0.
    """
    w = np.asarray(weights, dtype=float)
    wn2 = float(w @ w)
    if c0 - 2.0 * amp * wn2 < 0:
        raise ValueError("constants violate C - C1 - C2 - C3 >= 0")

    def phi(xp):
        xp = np.atleast_2d(np.asarray(xp, dtype=float))
        t = xp @ w
        return c0 + amp * np.exp(-0.5 * t * t)

    def phi_grad(xp):
        t = float(np.asarray(xp, dtype=float) @ w)
        return -amp * t * math.exp(-0.5 * t * t) * w

    def phi_hess(xp):
        t = float(np.asarray(xp, dtype=float) @ w)
        return amp * (t * t - 1.0) * math.exp(-0.5 * t * t) * np.outer(w, w)

    return EpigraphSpec(phi, phi_grad, phi_hess, C=c0, C1=amp * wn2, C2=0.0,
                        C3=amp * wn2, name=f"gauss_ridge(c0={c0},A={amp})")


def epigraph_domain(spec: EpigraphSpec, m: int) -> LevelSetDomain:
    """O = {xi_1 < -Phi(xi_2, ..., xi_m)} in R^m, level function G = xi_1 + Phi.

    G is strictly increasing in xi_1, so the domain declares
    ``monotone_axis=0``, and |grad G| >= 1 everywhere, above its declared
    ``grad_floor`` of 0.5.
    """
    if m < 2:
        raise ValueError("epigraph domains need m >= 2")

    def g(x):
        x = np.asarray(x, dtype=float)
        return x[..., 0] + np.asarray(spec.phi(x[..., 1:]))

    def grad(x):
        x = np.asarray(x, dtype=float)
        out = np.empty(m)
        out[0] = 1.0
        out[1:] = np.asarray(spec.phi_grad(x[1:]), dtype=float)
        return out

    def hess(x):
        x = np.asarray(x, dtype=float)
        out = np.zeros((m, m))
        out[1:, 1:] = np.asarray(spec.phi_hess(x[1:]), dtype=float)
        return out

    return LevelSetDomain(m, g, grad, hess, grad_floor=0.5, name=spec.name, monotone_axis=0)


def epigraph_curvature_audit(
    spec: EpigraphSpec,
    m: int,
    n_samples: int,
    seed: int,
    tol: float = 1e-6,
) -> CurvatureAudit:
    """Validate the declared constants on samples, then audit the boundary.

    The boundary bound is Hgamma >= spec.margin() / |grad G|; a negative
    margin or a declared constant that a sample contradicts is a failed
    premise.
    """
    rng = np.random.default_rng(seed)
    failures = [] if spec.margin() >= 0 else ["margin"]
    samples = rng.standard_normal((max(n_samples, 8), m - 1))
    phi_vals = np.asarray(spec.phi(samples))
    if np.any(phi_vals < spec.C - tol):
        failures.append("phi_floor")
    for row in samples[: min(64, samples.shape[0])]:
        hess = np.asarray(spec.phi_hess(row))
        grad = np.asarray(spec.phi_grad(row))
        if np.linalg.norm(hess, "fro") > spec.C1 + tol:
            failures.append("hessian_frobenius")
            break
        if float(grad @ row) > spec.C2 + tol:
            failures.append("radial_gradient")
            break
        if np.linalg.norm(hess, 2) > spec.C3 + tol:
            failures.append("hessian_operator")
            break
    audit = domains.curvature_audit(epigraph_domain(spec, m), n_samples, rng, tol,
                                    spec.margin())
    audit.failures.extend(failures)
    return audit


# ---------------------------------------------------------------------------
# cylindrical-approximation convergence study


@dataclass
class ConvergenceRow:
    n: int
    d_l2: float
    d_grad: float
    residual_lo: float
    residual_hi: float
    sigma: float

    def finite(self) -> bool:
        return math.isfinite(self.d_l2) and math.isfinite(self.d_grad)


def resolvent_convergence_study(
    spec: FunctionalSpec,
    sigma: float | Sequence[float],
    dims=(1, 2),
    bump_center: float = 3.2,
    bump_radius: float = 1.0,
    box: float = 6.0,
    h: float = 0.15,
    gh_nodes: int = 20,
    solver_tol: float = 1e-9,
    domain_for: Callable | None = None,
) -> list[ConvergenceRow]:
    """Consecutive-truncation Cauchy differences of the Dirichlet resolvent.

    For each n the resolvent is solved on the truncated domain in R^n with
    the fixed right-hand side y(xi) = bump(xi_1) (cylindrical over the
    first coordinate, so its truncations all coincide) on a common box and
    spacing, then u_n, extended cylindrically, is compared with u_{n+1} on
    a shared Gauss-Hermite tensor rule in n+1 variables:

        D_n      = || u_n - u_{n+1} ||_L2(gamma),
        D_n,grad = || grad u_n - grad u_{n+1} ||_L2(gamma).

    ``sigma`` is one value or a sequence of values.  The domain, grid and
    right-hand side of each truncation are built once and shared by every
    sigma; the solutions of one sigma are dropped before the next is
    solved.  Rows come in (sigma, n) order, sigma in the given order, so a
    scalar sigma gives one row per n.

    No rate is asserted anywhere; the rows are the raw observables.
    ``domain_for(n)`` overrides the per-truncation domain (used to probe
    genuinely first-coordinate-cylindrical families, whose differences
    vanish to solver tolerance).
    """
    dims = sorted(set(int(n) for n in dims))
    if min(dims) < 1 or max(dims) > 3:
        raise ValueError("dims must be within {1, 2, 3}")
    sigmas = [float(s) for s in np.atleast_1d(sigma)]
    needed = sorted(set(dims) | {n + 1 for n in dims})
    bump = BumpFunction(np.array([bump_center]), bump_radius, label="axis1-bump")

    rhs_by_n: dict[int, ScalarField] = {}
    for n in needed:
        if domain_for is not None:
            dom = domain_for(n)
        else:
            dom = cylindrical_domain(spec, KLBasis.build(spec.kind, n))
        grid = GaussianGrid.build(dom, -box, box, h, dim=n)
        if grid.n_interior == 0:
            raise RuntimeError(f"truncated domain at n={n} misses the grid box")
        rhs_by_n[n] = ScalarField.from_callable(grid, lambda pts: bump(pts[:, :1]))

    rows: list[ConvergenceRow] = []
    for s in sigmas:
        rows.extend(_convergence_rows(rhs_by_n, s, dims, gh_nodes, solver_tol))
    return rows


def _convergence_rows(rhs_by_n: dict, sigma: float, dims, gh_nodes: int,
                      solver_tol: float) -> list[ConvergenceRow]:
    """D_n for each n in dims at one sigma, from the prepared right-hand sides."""
    solutions: dict[int, dict] = {}
    for n, rhs in rhs_by_n.items():
        grid = rhs.grid
        sol = solver.solve_resolvent(ResolventJob(grid, sigma, rhs), tol=solver_tol)
        if not sol.converged:
            raise RuntimeError(
                f"resolvent solve did not converge at n={n}: residual {sol.residual:.3e}"
            )
        grad = grid_mod.discrete_gradient(sol.u)
        solutions[n] = {
            "u": grid.interpolator(sol.u.values),
            "grad": [grid.interpolator(grad[..., a]) for a in range(n)],
            "residual": sol.residual,
        }

    rows: list[ConvergenceRow] = []
    for n in dims:
        lo, hi = solutions[n], solutions[n + 1]
        rule = gauss.gauss_hermite_rule(n + 1, gh_nodes)
        pts = rule.nodes
        u_lo = lo["u"](pts[:, :n])
        u_hi = hi["u"](pts)
        d_l2 = math.sqrt(float(np.sum(rule.weights * (u_lo - u_hi) ** 2)))
        acc = np.zeros(pts.shape[0])
        for a in range(n + 1):
            g_lo = lo["grad"][a](pts[:, :n]) if a < n else 0.0
            g_hi = hi["grad"][a](pts)
            acc += (g_lo - g_hi) ** 2
        d_grad = math.sqrt(float(np.sum(rule.weights * acc)))
        rows.append(ConvergenceRow(n, d_l2, d_grad, lo["residual"], hi["residual"], sigma))
    return rows
