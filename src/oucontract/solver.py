"""Finite-difference Dirichlet resolvent (I - sigma*L)^-1 on a GaussianGrid.

The generator L f = lap f - <x, grad f> is discretized in flux form,

    (L_h f)(x) = sum_a [ r_a+ (f(x+h_a e_a) - f(x))
                       + r_a- (f(x-h_a e_a) - f(x)) ] / h_a^2,
    r_a+- = theta_1(x_a +- h_a/2) / theta_1(x_a),

which is the three-point conservative discretization of
theta^-1 div(theta grad f) and is symmetric in the inner product weighted
by the node masses w(x) = theta_d(x) prod(h).  Exterior nodes are pinned
to 0 (staircase Dirichlet), so couplings into them drop and the reduced
interior system A = I - sigma*L_h stays symmetric positive definite after
the similarity transform by W^(1/2).  In those variables the off-diagonal
entry for an interior pair along axis a is the constant
-sigma * exp(h_a^2/8) / h_a^2.

The matrix is written straight into canonical CSR (int32 ``indptr`` and
``indices``, float64 ``data``).  A row holds the diagonal and one entry per
interior axis neighbor, so its length comes from the neighbor masks, and the
slots are filled in ascending column order, -stride_0 ... -stride_{d-1},
diagonal, +stride_{d-1} ... +stride_0, through one int32 array of each row's
next free slot.  With no COO triplets, no sort and no duplicate sum, and the
node weights gathered at the unknowns rather than built for the whole grid,
the assembly's transient memory on a 61^3 ball grid is 1.8 times the
operator it returns, where the COO route took 5.3 times.

The solve runs plain conjugate gradients on the symmetrized system, written
here rather than taken from scipy: it starts from 0, stops once
||r|| < tol ||b||, and reuses rho = r.r for that test, so an iteration costs
one sparse product and two inner products.  The reported relative residual
is therefore the theta-weighted residual of the original equation.  Every
inner product in this module is an ``einsum`` reduction, which does not
call BLAS, so a solution does not depend on the BLAS thread count.  There
is no preconditioner: the diagonal
1 + sigma * sum_a 2 exp(-h_a^2/8) cosh(x_a h_a/2) / h_a^2 varies by about 10%
over the default boxes, so Jacobi scaling is nearly a scalar and saves no
iterations, while it costs one extra product per iteration.

There is one solve path: ``solve_resolvents`` assembles the operator of one
(grid, sigma) pair and solves every right-hand side on that grid with it,
and ``solve_resolvent`` is its form for one job.  No assembled operator is
passed in, so none can meet a right-hand side of another grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from . import grid as grid_mod
from .grid import GaussianGrid, ScalarField


# the work of every right-hand side solved since cli.run_suite last zeroed it:
# the solves, and the CG iterations and unknowns summed over them
tally = dict.fromkeys(["linear_solves", "cg_iterations", "unknowns"], 0)


@dataclass
class OuOperator:
    """Assembled resolvent system for one (grid, sigma) pair."""

    matrix: sp.csr_matrix            # symmetrized I - sigma*L_h on interior nodes
    sqrt_w: np.ndarray               # W^(1/2) on interior nodes, flat order
    interior_flat: np.ndarray        # flat indices of interior nodes


def _axis_face_ratios(grid: GaussianGrid, a: int) -> tuple[np.ndarray, np.ndarray]:
    x = grid.axes[a]
    h = grid.h[a]
    # theta_1(x + h/2)/theta_1(x) = exp(-x h/2 - h^2/8), lower face mirrored
    up = np.exp(-x * h / 2.0 - h * h / 8.0)
    dn = np.exp(+x * h / 2.0 - h * h / 8.0)
    return up, dn


def assemble_ou_operator(grid: GaussianGrid, sigma: float) -> OuOperator:
    """Build the symmetrized interior system A = I - sigma*L_h, sigma > 0."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    interior = grid.interior
    flat_int = np.flatnonzero(interior.reshape(-1))
    m = flat_int.size
    unknown_of = np.zeros(grid.n_nodes, dtype=np.int32)
    unknown_of[flat_int] = np.arange(m, dtype=np.int32)
    strides = [math.prod(grid.shape[a + 1:]) for a in range(grid.dim)]

    sqrt_w = grid.node_weights(flat_int)
    np.sqrt(sqrt_w, out=sqrt_w)

    # Dirichlet: the diagonal keeps both face weights regardless of the
    # neighbor's status, couplings exist only between interior pairs.
    diag = np.ones(m)
    below, above = [], []  # per axis: does the unknown's neighbor exist
    for a, i_a in grid._axis_indices(flat_int):
        h = grid.h[a]
        up, dn = _axis_face_ratios(grid, a)
        diag += sigma * (up[i_a] + dn[i_a]) / h**2
        below.append(grid_mod._shifted(interior, a, -1, fill=False).reshape(-1)[flat_int])
        above.append(grid_mod._shifted(interior, a, +1, fill=False).reshape(-1)[flat_int])

    indptr = np.zeros(m + 1, dtype=np.int32)
    np.cumsum(1 + sum(below) + sum(above), out=indptr[1:])
    indices = np.empty(indptr[-1], dtype=np.int32)
    data = np.empty(indptr[-1])
    nxt = indptr[:-1].copy()  # each row's next free slot

    def fill(rows, cols, vals):
        at = nxt[rows]
        indices[at] = cols
        data[at] = vals
        nxt[rows] += 1

    # slots in ascending column order: -stride_0 ... diagonal ... +stride_0
    coef = [-sigma * math.exp(h * h / 8.0) / h**2 for h in grid.h]
    for a in range(grid.dim):
        rows = np.flatnonzero(below[a])
        fill(rows, unknown_of[flat_int[rows] - strides[a]], coef[a])
    every = np.arange(m)
    fill(every, every, diag)
    for a in reversed(range(grid.dim)):
        rows = np.flatnonzero(above[a])
        fill(rows, unknown_of[flat_int[rows] + strides[a]], coef[a])

    mat = sp.csr_matrix((data, indices, indptr), shape=(m, m))
    return OuOperator(mat, sqrt_w, flat_int)


def discrete_ou_apply(f: ScalarField) -> ScalarField:
    """L_h f on interior nodes (flux form), 0 on exterior nodes.

    Each axis's two differences are taken in place in one shifted copy of
    u each and scaled by the face ratios as broadcast views, so the
    transient is two node-sized arrays beside the result.
    """
    grid = f.grid
    u = f.values
    out = np.zeros(grid.shape)
    for a in range(grid.dim):
        along = [1] * grid.dim
        along[a] = -1
        up, dn = (r.reshape(along) for r in _axis_face_ratios(grid, a))
        t = grid_mod._shifted(u, a, +1)
        t -= u
        t *= up
        s = grid_mod._shifted(u, a, -1)
        s -= u
        s *= dn
        t += s
        t /= grid.h[a] ** 2
        out += t
        del t, s  # freed before the next axis allocates its two copies
    return ScalarField(grid, out)


@dataclass
class ResolventJob:
    """One right-hand side to solve on a grid at sigma; ``solve_resolvents``
    checks it."""

    grid: GaussianGrid
    sigma: float
    rhs: ScalarField


@dataclass
class ResolventSolution:
    u: ScalarField
    residual: float
    iterations: int
    converged: bool
    diagnostics: dict = field(default_factory=dict)


def _iteration_budget(n_unknowns: int) -> int:
    """CG iteration cap: 50 sqrt(n_unknowns), at least 200."""
    return max(200, int(50 * math.sqrt(max(n_unknowns, 1))))


def _dot(a: np.ndarray, b: np.ndarray) -> float:
    """a.b without BLAS: the same bits whatever its thread count."""
    return float(np.einsum("i,i->", a, b))


def _cg(matrix: sp.csr_matrix, b: np.ndarray, atol: float,
        maxiter: int) -> tuple[np.ndarray, int]:
    """Plain CG from x = 0 until ||r|| < atol: (x, iterations run).

    Runs out at ``maxiter`` iterations without a last test, as scipy's cg.
    """
    x = np.zeros_like(b)
    r = b.copy()
    p = b.copy()
    step = np.empty_like(b)
    rho = _dot(r, r)
    for it in range(maxiter):
        if math.sqrt(rho) < atol:
            return x, it
        q = matrix @ p
        alpha = rho / _dot(p, q)
        np.multiply(p, alpha, out=step)
        x += step
        np.multiply(q, alpha, out=step)
        r -= step
        rho_next = _dot(r, r)
        p *= rho_next / rho
        p += r
        rho = rho_next
    return x, maxiter


def solve_resolvents(grid: GaussianGrid, sigma: float, rhs: list[ScalarField],
                     tol: float = 1e-10) -> list[ResolventSolution]:
    """Solve (I - sigma*L_h) u = f with CG for each f of ``rhs``, u = 0 on
    exterior nodes: one solution per right-hand side, in order.

    The operator is assembled once and serves every right-hand side, each of
    which must live on ``grid``.  When the iteration budget
    (``_iteration_budget``) runs out the best iterate is returned with
    converged=False rather than raising.
    """
    if any(f.grid is not grid for f in rhs):
        raise ValueError("rhs must live on the solve grid")
    op = assemble_ou_operator(grid, sigma)
    n = op.interior_flat.size
    budget = _iteration_budget(n)
    out = []
    for f in rhs:
        tally["linear_solves"] += 1
        tally["unknowns"] += n
        b = f.flat()[op.interior_flat] * op.sqrt_w
        bnorm = math.sqrt(_dot(b, b))
        if bnorm == 0.0:
            out.append(ResolventSolution(ScalarField.zeros(grid), 0.0, 0, True,
                                         {"n_unknowns": n}))
            continue
        x, iters = _cg(op.matrix, b, tol * bnorm, budget)
        tally["cg_iterations"] += iters
        r = op.matrix @ x - b
        res = math.sqrt(_dot(r, r)) / bnorm
        vals = np.zeros(grid.n_nodes)
        vals[op.interior_flat] = x / op.sqrt_w
        out.append(ResolventSolution(ScalarField(grid, vals.reshape(grid.shape)), res, iters,
                                     iters < budget and res <= tol * 10.0, {"n_unknowns": n}))
    return out


def solve_resolvent(job: ResolventJob, tol: float = 1e-10) -> ResolventSolution:
    """``solve_resolvents`` for the one right-hand side of ``job``."""
    return solve_resolvents(job.grid, job.sigma, [job.rhs], tol)[0]
