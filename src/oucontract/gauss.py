"""Standard Gaussian measure utilities on R^d.

Throughout the package the reference measure is the standard Gaussian
measure with density

    theta_d(x) = (2*pi)**(-d/2) * exp(-|x|^2 / 2),

and every integral, norm and quadrature rule is taken with respect to it.
Two kinds of rules are provided: tensor Gauss-Hermite rules for integrals
over the whole space, and cell-sum rules bound to a grid for integrals
restricted to a sub-region (the indicator of a region breaks polynomial
exactness, so cell sums are the honest estimator there).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

HERMITE_DEGREE_MAX = 12


def density(x, dim: int | None = None) -> np.ndarray | float:
    """Standard Gaussian density theta_d evaluated at x.

    x may be a single point of shape (d,) or a batch of shape (n, d).
    For scalar input dim=1 is assumed.
    """
    arr = np.asarray(x, dtype=float)
    if arr.ndim == 0:
        arr = arr.reshape(1, 1)
        squeeze = "scalar"
    elif arr.ndim == 1:
        arr = arr.reshape(1, -1)
        squeeze = "point"
    else:
        squeeze = "none"
    d = arr.shape[-1] if dim is None else dim
    val = (2.0 * math.pi) ** (-0.5 * d) * np.exp(-0.5 * np.sum(arr * arr, axis=-1))
    if squeeze == "scalar":
        return float(val[0])
    if squeeze == "point":
        return float(val[0])
    return val


def density_1d(x) -> np.ndarray:
    """theta_1 on an array of scalars."""
    x = np.asarray(x, dtype=float)
    return (2.0 * math.pi) ** (-0.5) * np.exp(-0.5 * x * x)


@dataclass(frozen=True)
class GaussianMeasure:
    """The standard Gaussian measure on R^dim."""

    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be a positive integer")

    def density(self, x):
        return density(x, self.dim)

    def sample(self, count: int, seed: int) -> np.ndarray:
        return sample_gaussian(self.dim, count, seed)


@dataclass(frozen=True)
class QuadratureRule:
    """Nodes and nonnegative weights approximating integration against gamma.

    ``weights`` sum to the Gaussian mass of the covered region, 1 for a
    whole-space Gauss-Hermite rule.
    """

    nodes: np.ndarray   # (n, d)
    weights: np.ndarray  # (n,)
    kind: str = "gauss-hermite"

    @property
    def dim(self) -> int:
        return self.nodes.shape[1]

    @property
    def total_mass(self) -> float:
        return float(np.sum(self.weights))


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
    if dim == 1:
        return QuadratureRule(z1.reshape(-1, 1), w1.copy())
    grids = np.meshgrid(*([z1] * dim), indexing="ij")
    nodes = np.column_stack([g.reshape(-1) for g in grids])
    wgrids = np.meshgrid(*([w1] * dim), indexing="ij")
    weights = np.ones(nodes.shape[0])
    for g in wgrids:
        weights = weights * g.reshape(-1)
    return QuadratureRule(nodes, weights)


def lp_norm(f, p: float, rule: QuadratureRule) -> float:
    """(integral of |f|^p against the rule)^(1/p).

    f is either a callable evaluated on the rule's nodes (batched, shape
    (n, d) -> (n,)) or an array of nodal values aligned with the rule.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if rule.weights.size == 0 or rule.total_mass <= 0.0:
        raise ValueError("region has no quadrature mass")
    if callable(f):
        vals = np.asarray(f(rule.nodes), dtype=float)
    else:
        vals = np.asarray(f, dtype=float)
        if vals.shape[0] != rule.nodes.shape[0]:
            raise ValueError("nodal values do not match the quadrature rule")
    return float(np.sum(rule.weights * np.abs(vals) ** p) ** (1.0 / p))


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


def sample_gaussian(dim: int, count: int, seed: int) -> np.ndarray:
    """Seeded i.i.d. standard normal vectors, shape (count, dim).

    The generator is numpy's PCG64 via default_rng; identical
    (dim, count, seed) always reproduces the same array bit for bit.
    """
    if count < 1:
        raise ValueError("count must be >= 1")
    rng = np.random.default_rng(seed)
    return rng.standard_normal((count, dim))
