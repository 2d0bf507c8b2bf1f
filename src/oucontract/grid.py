"""Tensor-product grids with per-node Gaussian weights and Dirichlet masks.

Nodes are classified against a level-set domain: interior where G < 0,
exterior where G >= 0.  A domain that declares ``monotone_axis`` (G strictly
monotone along that coordinate on all of R^d: halfspaces, epigraphs and
cylindrical truncations) is classified line by line along the axis: both
end nodes of every line are evaluated, a line whose ends agree lies wholly
on their side, and each other line is bisected for its one sign change, one
batch per round holding one node per open line.  That takes at most
lines * (ceil(log2 N) + 2) evaluations of G instead of one per node, at the
same node coordinates and with the same ``G < 0`` test, so the mask is the
same.  Any other domain is evaluated at every node in one batch.

Virtual neighbors beyond the box edge count as exterior with value 0,
consistent with the staircase Dirichlet treatment of the solver (every
function on the grid is the extension-by-zero of its interior part).  The per-node quadrature weight is theta_d(x) times the
cell volume, which makes sums over node sets cell-sum approximations of
Gaussian integrals over the corresponding region.

Off-node values come from ``GaussianGrid.interpolator``, a multilinear
interpolant written here: each coordinate picks the cell
ax[i] <= x < ax[i+1], clamped to the last cell so the upper face is
interpolated, and a point outside the box reads exactly 0.  It matches
scipy's linear ``RegularGridInterpolator`` with fill value 0, so the
package needs no scipy module beyond ``scipy.sparse``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from . import gauss
from .domains import LevelSetDomain


@dataclass
class GaussianGrid:
    dim: int
    lo: np.ndarray
    hi: np.ndarray
    shape: tuple[int, ...]
    axes: list[np.ndarray]
    h: np.ndarray
    interior: np.ndarray = field(repr=False)   # (shape,) bool
    domain: LevelSetDomain | None = None

    @classmethod
    def build(
        cls,
        domain: LevelSetDomain | None,
        lo,
        hi,
        h: float | list[float],
        dim: int | None = None,
    ) -> "GaussianGrid":
        """Grid over the box [lo_i, hi_i] with spacing <= h_i per axis.

        domain=None means the whole box is interior (whole-space problems
        truncated to the box).
        """
        if dim is None:
            dim = domain.dim if domain is not None else len(np.atleast_1d(lo))
        elif domain is not None and dim != domain.dim:
            raise ValueError(f"grid 'dim' is {dim}, but the domain's is {domain.dim}")
        lo = np.broadcast_to(np.asarray(lo, dtype=float), (dim,)).copy()
        hi = np.broadcast_to(np.asarray(hi, dtype=float), (dim,)).copy()
        hs = np.broadcast_to(np.asarray(h, dtype=float), (dim,)).copy()
        if np.any(hi <= lo) or np.any(hs <= 0):
            raise ValueError("need hi > lo and h > 0")
        shape = tuple(int(math.floor((b - a) / s + 0.5)) + 1 for a, b, s in zip(lo, hi, hs))
        if min(shape) < 2:
            raise ValueError(f"h = {hs.tolist()} gives an axis of the box fewer than 2 nodes")
        axes = [np.linspace(lo[i], hi[i], shape[i]) for i in range(dim)]
        h_eff = np.array([ax[1] - ax[0] for ax in axes])
        grid = cls(dim, lo, hi, shape, axes, h_eff, None, domain)
        grid.interior = np.ones(shape, dtype=bool) if domain is None else grid._classify()
        return grid

    def _classify(self) -> np.ndarray:
        if self.domain.monotone_axis is not None:
            return _classify_monotone(self)
        inside = np.asarray(self.domain.value(self.node_coordinates())) < 0.0
        return inside.reshape(self.shape)

    # -- masks ---------------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def n_interior(self) -> int:
        return int(np.sum(self.interior))

    def eroded_interior(self, depth: int) -> np.ndarray:
        """Interior nodes whose axis neighborhoods up to ``depth`` are interior.

        depth=1 gives nodes with a full 2d-point central stencil; depth=2
        gives nodes whose entire composite stencil (values and their own
        central gradients) stays interior.  Box edges erode as exterior.
        """
        mask = self.interior.copy()
        for _ in range(depth):
            nxt = mask.copy()
            for a in range(self.dim):
                nxt &= _shifted(mask, a, +1, fill=False) & _shifted(mask, a, -1, fill=False)
            mask = nxt
        return mask

    # -- geometry ------------------------------------------------------

    def _axis_indices(self, nodes: np.ndarray):
        """(a, index along axis a) of flat C-order node indices, one axis at a time."""
        stride = self.n_nodes
        for a, n in enumerate(self.shape):
            stride //= n
            yield a, nodes // stride % n

    def node_coordinates(self, nodes: np.ndarray | None = None) -> np.ndarray:
        """(k, dim) coordinates of flat C-order node indices, every node by default."""
        if nodes is None:
            nodes = np.arange(self.n_nodes)
        out = np.empty((len(nodes), self.dim))
        for a, i in self._axis_indices(nodes):
            out[:, a] = self.axes[a][i]
        return out

    def node_weights(self, nodes: np.ndarray) -> np.ndarray:
        """theta_d(x) * prod(h) at flat C-order node indices, shape (k,).

        The product is formed axis by axis from 1, then times the cell volume.
        """
        w = np.ones(len(nodes))
        for a, i in self._axis_indices(nodes):
            w *= gauss.density_1d(self.axes[a])[i]
        w *= float(np.prod(self.h))
        return w

    def interpolator(self, values: np.ndarray):
        """Multilinear interpolant of nodal values, 0 outside the box.

        Returns a callable on (k, dim) points giving k values.  Along each
        axis a point falls in the cell i with ax[i] <= x < ax[i+1], clamped
        to the last cell, so a point on the upper face is interpolated, not
        filled; y = (x - ax[i]) / (ax[i+1] - ax[i]).  The 2^dim corner
        terms v * w_0 * w_1 ... are summed from 0 in
        ``itertools.product((0, 1), repeat=dim)`` order, which reproduces
        scipy's linear ``RegularGridInterpolator`` bit for bit in one and
        two dimensions.  A point with any coordinate outside [lo, hi] gives
        exactly 0.
        """
        flat = np.asarray(values, dtype=float).reshape(-1)
        strides = [math.prod(self.shape[a + 1:]) for a in range(self.dim)]
        # searchsorted on the inner nodes gives the clamped cell index
        cells = [(ax, ax[1:-1], np.diff(ax), s) for ax, s in zip(self.axes, strides)]
        corners = [(c, sum(s for s, up in zip(strides, c) if up))
                   for c in itertools.product((0, 1), repeat=self.dim)]
        lo, hi = self.lo, self.hi  # the first and last node of each axis

        def interp(points: np.ndarray) -> np.ndarray:
            x = np.asarray(points, dtype=float)
            base = np.zeros(x.shape[0], dtype=np.intp)
            weights = []
            for a, (ax, inner, width, stride) in enumerate(cells):
                xa = x[:, a]
                i = inner.searchsorted(xa, side="right")
                y = (xa - ax[i]) / width[i]
                base += i * stride
                weights.append((1.0 - y, y))
            out = np.zeros(x.shape[0])
            for corner, offset in corners:
                term = flat.take(base + offset)
                for a, up in enumerate(corner):
                    term *= weights[a][up]
                out += term
            out[((x < lo) | (x > hi)).any(axis=1)] = 0.0
            return out

        return interp


def _classify_monotone(grid: GaussianGrid) -> np.ndarray:
    """Interior mask of a domain whose G is strictly monotone along one axis.

    Each line parallel to ``domain.monotone_axis`` holds at most one sign
    change, so its interior nodes form a run at one end.  Both end nodes of
    every line are evaluated; the lines whose ends differ are bisected
    together, one node per open line per round, for the first node
    classified like the last.  Whether G rises or falls along the axis
    needs no declaration.
    """
    domain, shape = grid.domain, grid.shape
    a = domain.monotone_axis
    n_a = shape[a]
    inner = math.prod(shape[a + 1:])  # the axis stride
    line_shape = shape[:a] + shape[a + 1:]
    n_lines = math.prod(line_shape)
    # lines in C order over the other axes; node i of line l is first_node[l] + i*inner
    every = np.arange(n_lines)
    first_node = every // inner * (n_a * inner) + every % inner

    def inside(lines, i):
        pts = grid.node_coordinates(first_node[lines] + i * inner)
        return np.asarray(domain.value(pts)) < 0.0

    ends = inside(np.concatenate([every, every]), np.repeat([0, n_a - 1], n_lines))
    first = ends[:n_lines]
    # split: each line's first node classified like its last, n_a if the ends agree
    split = np.full(n_lines, n_a)
    lines = np.flatnonzero(first != ends[n_lines:])
    lo = np.zeros(lines.size, dtype=np.intp)
    hi = np.full(lines.size, n_a - 1)
    while True:
        done = hi - lo == 1
        split[lines[done]] = hi[done]
        lines, lo, hi = lines[~done], lo[~done], hi[~done]
        if not lines.size:
            break
        mid = (lo + hi) // 2
        like_first = inside(lines, mid) == first[lines]
        lo = np.where(like_first, mid, lo)
        hi = np.where(like_first, hi, mid)

    # node i of a line is interior iff (i < split) == first, written in C order
    along = [1] * len(shape)
    along[a] = n_a
    out = np.empty(shape, dtype=bool)
    np.less(np.arange(n_a).reshape(along), np.expand_dims(split.reshape(line_shape), a),
            out=out)
    np.equal(out, np.expand_dims(first.reshape(line_shape), a), out=out)
    return out


@dataclass
class ScalarField:
    """Nodal values on a grid, pinned to exactly 0 on exterior nodes."""

    grid: GaussianGrid
    values: np.ndarray  # (shape,)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float).reshape(self.grid.shape)
        self.values[~self.grid.interior] = 0.0

    @classmethod
    def from_callable(cls, grid: GaussianGrid, f) -> "ScalarField":
        """f on the interior nodes, given as (k, dim) points in flat order."""
        vals = np.zeros(grid.n_nodes)
        flat_int = np.flatnonzero(grid.interior)
        if flat_int.size:
            vals[flat_int] = np.asarray(f(grid.node_coordinates(flat_int)), dtype=float)
        return cls(grid, vals.reshape(grid.shape))

    @classmethod
    def zeros(cls, grid: GaussianGrid) -> "ScalarField":
        return cls(grid, np.zeros(grid.shape))

    def flat(self) -> np.ndarray:
        return self.values.reshape(-1)


def _shifted(values: np.ndarray, axis: int, step: int, fill=0.0) -> np.ndarray:
    """values at node + step*e_axis, zero-filled past the box edge."""
    out = np.full_like(values, fill)
    if step == 1:
        to, src = slice(0, -1), slice(1, None)
    elif step == -1:
        to, src = slice(1, None), slice(0, -1)
    else:
        raise ValueError("step must be +-1")
    out[_along(values.ndim, axis, to)] = values[_along(values.ndim, axis, src)]
    return out


def _along(ndim: int, axis: int, sl: slice) -> tuple:
    """Index that applies ``sl`` on one axis and takes every other axis whole."""
    index = [slice(None)] * ndim
    index[axis] = sl
    return tuple(index)


def discrete_gradient(field: ScalarField) -> np.ndarray:
    """Nodal gradient, shape (*grid.shape, dim).

    Central differences where both axis neighbors are interior; one-sided
    differences against the pinned zero where a neighbor is exterior (or
    past the box edge).  Exterior nodes, and interior nodes with both
    neighbors exterior (the symmetric difference of two zeros), carry
    gradient 0.  Each component is written straight into the result from
    views of u, so the only node-sized temporaries are boolean masks.
    """
    grid = field.grid
    u = field.values
    interior = grid.interior
    out = np.zeros(grid.shape + (grid.dim,))
    for a in range(grid.dim):
        h = grid.h[a]
        comp = out[..., a]
        up = _shifted(interior, a, +1, fill=False)
        up &= interior
        dn = _shifted(interior, a, -1, fill=False)
        dn &= interior
        central = up & dn
        up ^= central                   # lower neighbor pinned to 0
        dn ^= central                   # upper neighbor pinned to 0
        # a central node has both neighbors, so it is never on the box edge
        mid, above, below = (_along(grid.dim, a, s) for s in
                             (slice(1, -1), slice(2, None), slice(0, -2)))
        c_mid, on = comp[mid], central[mid]
        np.subtract(u[above], u[below], out=c_mid, where=on)
        np.divide(c_mid, 2.0 * h, out=c_mid, where=on)
        np.subtract(u, 0.0, out=comp, where=up)
        np.divide(comp, h, out=comp, where=up)
        np.subtract(0.0, u, out=comp, where=dn)
        np.divide(comp, h, out=comp, where=dn)
    return out
