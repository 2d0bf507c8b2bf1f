"""Standard Gaussian measure utilities on R^d.

Throughout the package the reference measure is the standard Gaussian
measure with density

    theta_d(x) = (2*pi)**(-d/2) * exp(-|x|^2 / 2),

and every integral, norm and quadrature rule is taken with respect to it.
The tensor Gauss-Hermite rules here integrate over the whole space;
integrals restricted to a sub-region are cell sums of the grid's node
weights (see :mod:`oucontract.grid`), because the indicator of a region
breaks polynomial exactness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITE_DEGREE_MAX = 12


def density_1d(x) -> np.ndarray:
    """theta_1 on an array of scalars."""
    x = np.asarray(x, dtype=float)
    return (2.0 * math.pi) ** (-0.5) * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and nonnegative weights approximating integration against gamma.

    ``weights`` sum to 1, the Gaussian mass of the whole space.
    """

    nodes: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,)


def gauss_hermite_rule(dim: int, n_nodes: int) -> QuadratureRule:
    """Tensor Gauss-Hermite rule for expectations against gamma^dim.

    The 1-d nodes/weights of numpy's hermgauss (weight exp(-x^2)) are
    rescaled so that sum(w_i * f(z_i)) approximates E[f(Z)], Z standard
    normal: z = sqrt(2) x, w = w_h / sqrt(pi).
    """
    if n_nodes < 1:
        raise ValueError("n_nodes must be >= 1")
    x, w = np.polynomial.hermite.hermgauss(n_nodes)
    z1 = math.sqrt(2.0) * x
    w1 = w / math.sqrt(math.pi)
    grids = np.meshgrid(*([z1] * dim), indexing="ij")
    nodes = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights = weights * g.reshape(-1)
    return QuadratureRule(nodes, weights)


def hermite_poly(k: int, x):
    """Probabilists' Hermite polynomial He_k via the three-term recurrence.

    He_0 = 1, He_1 = x, He_{k+1} = x He_k - k He_{k-1}.  Degrees above 12
    are rejected, conditioning of the nodal values degrades there.
    """
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k > HERMITE_DEGREE_MAX:
        raise ValueError(f"degree {k} exceeds supported maximum {HERMITE_DEGREE_MAX}")
    xa = np.asarray(x, dtype=float)
    prev = np.ones_like(xa)
    if k == 0:
        return prev if xa.ndim else float(prev)
    cur = xa.copy()
    for j in range(1, k):
        prev, cur = cur, xa * cur - j * prev
    return cur if xa.ndim else float(cur)
