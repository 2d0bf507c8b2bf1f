import dataclasses
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.interpolate import RegularGridInterpolator
from scipy.sparse.linalg import cg, spsolve

import oucontract
from oucontract import solver
from oucontract.contract import make_bump
from oucontract.domains import LevelSetDomain, ball, halfspace
from oucontract.gauss import density_1d, hermite_poly
from oucontract.grid import GaussianGrid, ScalarField, _shifted, discrete_gradient
from oucontract.solver import (
    ResolventJob,
    assemble_ou_operator,
    discrete_ou_apply,
    solve_resolvent,
    solve_resolvents,
)
from oucontract.wiener import (
    BM,
    BRIDGE,
    KLBasis,
    affine_level_spec,
    cylindrical_domain,
    epigraph_domain,
    gauss_ridge_epigraph,
    rational_reference_spec,
)


@pytest.fixture(scope="module")
def line_grid():
    return GaussianGrid.build(None, -8, 8, 0.02, dim=1)


def all_weights(grid):
    """Every node's weight, in the grid's shape."""
    return grid.node_weights(np.arange(grid.n_nodes)).reshape(grid.shape)


@pytest.fixture(scope="module")
def halfline_grid():
    return GaussianGrid.build(halfspace(1, 1.0), -8, 8, 0.02)


class TestGrid:
    def test_classification_matches_sign(self, halfline_grid):
        coords = halfline_grid.node_coordinates()[:, 0]
        inside = coords + 1.0 < 0
        assert np.array_equal(halfline_grid.interior.reshape(-1), inside)

    def test_cell_rule_total_mass(self, line_grid):
        # cell sums of the density over the box reproduce total mass 1
        assert all_weights(line_grid).sum() == pytest.approx(1.0, abs=1e-10)

    def test_dim_must_match_the_domain(self):
        with pytest.raises(ValueError, match="grid 'dim' is 3, but the domain's is 2"):
            GaussianGrid.build(halfspace(2, 1.0), -2, 2, 0.5, dim=3)
        # with no domain the grid keeps its dim, and a matching one is accepted
        assert GaussianGrid.build(None, -2, 2, 0.5, dim=3).dim == 3
        assert GaussianGrid.build(halfspace(2, 1.0), -2, 2, 0.5, dim=2).dim == 2

    def test_cell_rule_total_mass_3d(self):
        dom_free = GaussianGrid.build(None, -8, 8, 0.2, dim=3)
        assert all_weights(dom_free).sum() == pytest.approx(1.0, abs=1e-10)

    def test_cut_band_and_full_stencil_partition(self, halfline_grid):
        # the cut band is interior & ~full_stencil, so the two partition the
        # interior exactly when every full-stencil node is interior
        assert not np.any(halfline_grid.eroded_interior(1) & ~halfline_grid.interior)

    def test_eroded_interior_shrinks(self):
        grid = GaussianGrid.build(ball(2, 1.0), -1.3, 1.3, 0.1)
        n0 = grid.n_interior
        n1 = int(np.sum(grid.eroded_interior(1)))
        n2 = int(np.sum(grid.eroded_interior(2)))
        assert n0 > n1 > n2 > 0


# the shipped cylindrical profiles, by their config names
_CYLINDRICAL_SPECS = {
    "affine": lambda: affine_level_spec(r=-1.0, kind=BM),
    "reference_bm": lambda: rational_reference_spec(kind=BM, r=-0.75),
    "reference_bridge": lambda: rational_reference_spec(kind=BRIDGE, r=-0.75),
}
# (lo, hi, h): the whole box, an off-centre box, per-axis spacings, and a box
# the boundary of each profile misses for some m
_CYLINDRICAL_BOXES = [(-6.0, 6.0, 0.3), (-3.0, 2.0, 0.2),
                      ([-1.0, -2.0, -4.0], [4.0, 1.0, 0.5], [0.25, 0.15, 0.3]),
                      (2.0, 5.0, 0.25)]
# a halfspace's boundary x_axis = -offset sits on a node for offsets 1 and 0,
# where G = 0 counts as exterior; +-9 put whole lines on one side
_HALFSPACE_BOX = ([-2.0, -1.0, -3.0], [2.0, 3.0, 1.0], [0.5, 0.25, 0.5])


def _cylindrical_case(name, m, box):
    spec = _CYLINDRICAL_SPECS[name]()
    lo, hi, h = (np.broadcast_to(v, (3,))[:m] for v in box)
    return cylindrical_domain(spec, KLBasis.build(spec.kind, m)), lo, hi, h


def _halfspace_case(dim, axis, offset):
    lo, hi, h = (np.asarray(v)[:dim] for v in _HALFSPACE_BOX)
    return halfspace(dim, offset, axis), lo, hi, h


def _epigraph_case(m):
    # the wiener suite's gauss-ridge profile, with one weight per trailing axis
    spec = gauss_ridge_epigraph(2.0, 0.5, [1.0, 0.0][:m - 1])
    return epigraph_domain(spec, m), -4.0, 1.0, 0.125


CLASSIFY_CASES = {
    **{f"cyl-{name}-m{m}-box{k}": (_cylindrical_case, (name, m, box))
       for name in sorted(_CYLINDRICAL_SPECS) for m in (1, 2, 3)
       for k, box in enumerate(_CYLINDRICAL_BOXES)},
    **{f"halfspace-{dim}d-axis{axis}-offset{offset:+g}": (_halfspace_case, (dim, axis, offset))
       for dim in (1, 2, 3) for axis in range(dim) for offset in (1.0, 0.0, -1.0, 9.0, -9.0)},
    **{f"epigraph-m{m}": (_epigraph_case, (m,)) for m in (2, 3)},
}


class TestMonotoneClassification:
    """Bisection along ``monotone_axis`` against the node-by-node scan."""

    @pytest.mark.parametrize("case", sorted(CLASSIFY_CASES))
    def test_mask_equals_scan(self, case):
        make, args = CLASSIFY_CASES[case]
        dom, lo, hi, h = make(*args)
        assert dom.monotone_axis is not None
        got = GaussianGrid.build(dom, lo, hi, h).interior
        want = GaussianGrid.build(dataclasses.replace(dom, monotone_axis=None), lo, hi, h).interior
        assert got.flags.c_contiguous and got.dtype == bool
        assert np.array_equal(got, want)

    def test_cases_cross_and_miss_the_boundary(self):
        # the matrix holds lines that change sign, and boxes wholly on one side
        fractions = []
        for make, args in CLASSIFY_CASES.values():
            dom, lo, hi, h = make(*args)
            fractions.append(GaussianGrid.build(dom, lo, hi, h).interior.mean())
        assert len(fractions) == 68
        assert 0.0 in fractions and 1.0 in fractions
        assert sum(0.0 < f < 1.0 for f in fractions) >= 40

    def test_false_claim_changes_the_mask(self):
        # a ball is not monotone along x_0: every line's ends lie outside it,
        # so a hand-set axis loses the interior, which shows the test can fail
        dom = ball(2, 1.0)
        scan = GaussianGrid.build(dom, -2, 2, 0.1).interior
        claimed = GaussianGrid.build(dataclasses.replace(dom, monotone_axis=0), -2, 2, 0.1)
        assert scan.any()
        assert not np.array_equal(claimed.interior, scan)

    def test_evaluations_on_the_converge_grid(self, monkeypatch):
        # converge-3d's 81^3 reference_bm grid: the scan evaluates G at all
        # 531,441 nodes, bisection at most lines * (ceil(log2 N) + 2)
        points = []
        value = LevelSetDomain.value

        def counting(self, x):
            points.append(len(x))
            return value(self, x)

        dom, lo, hi, h = _cylindrical_case("reference_bm", 3, (-6.0, 6.0, 0.15))
        monkeypatch.setattr(LevelSetDomain, "value", counting)
        grid = GaussianGrid.build(dom, lo, hi, h)
        n_lines = grid.n_nodes // grid.shape[0]
        assert grid.shape == (81, 81, 81)
        assert 0 < grid.n_interior < grid.n_nodes
        assert sum(points) <= n_lines * (math.ceil(math.log2(81)) + 2)

    def test_axis_must_lie_in_the_domain(self):
        with pytest.raises(ValueError):
            dataclasses.replace(halfspace(2, 1.0), monotone_axis=2)


# (lo, hi, h) per grid; "2d-rect" has a per-axis h on a non-square box
_INTERP_GRIDS = {
    "1d": (-2.0, 3.0, 0.1),
    "2d-rect": ([-2.0, -1.0], [3.0, 1.5], [0.13, 0.07]),
    "3d": ([-1.0, -0.5, 0.0], [1.0, 1.0, 0.8], [0.2, 0.25, 0.1]),
}


class TestInterpolatorAgainstScipy:
    """The grid's own interpolant against scipy's linear RegularGridInterpolator."""

    @staticmethod
    def build(name):
        lo, hi, h = _INTERP_GRIDS[name]
        grid = GaussianGrid.build(None, lo, hi, h, dim=len(np.atleast_1d(lo)))
        values = np.random.default_rng(7).standard_normal(grid.shape)
        ref = RegularGridInterpolator(grid.axes, values, method="linear",
                                      bounds_error=False, fill_value=0.0)
        return grid, values, ref

    @staticmethod
    def inside_points(grid):
        """Nodes, cell interiors, and the lower and upper faces of each axis."""
        rng = np.random.default_rng(11)
        cells = rng.uniform(grid.lo, grid.hi, size=(300, grid.dim))
        faces = []
        for a in range(grid.dim):
            for edge in (grid.lo[a], grid.hi[a]):
                p = cells[:25].copy()
                p[:, a] = edge
                faces.append(p)
        return np.vstack([grid.node_coordinates(), cells, *faces, [grid.lo], [grid.hi]])

    @pytest.mark.parametrize("name", sorted(_INTERP_GRIDS))
    def test_inside_the_box(self, name):
        grid, values, ref = self.build(name)
        pts = self.inside_points(grid)
        ours = grid.interpolator(values)(pts)
        want = ref(pts)
        if grid.dim <= 2:
            assert np.array_equal(ours, want)
        else:
            tol = 4 * np.spacing(np.max(np.abs(values)))
            assert np.max(np.abs(ours - want)) <= tol
        assert np.array_equal(ours[:grid.n_nodes], values.reshape(-1))

    @pytest.mark.parametrize("name", sorted(_INTERP_GRIDS))
    def test_outside_along_each_axis_is_zero(self, name):
        grid, values, ref = self.build(name)
        inner = np.random.default_rng(13).uniform(grid.lo, grid.hi, size=(10, grid.dim))
        pts = []
        for a in range(grid.dim):
            lo, hi = grid.lo[a], grid.hi[a]
            for beyond in (lo - 0.1, np.nextafter(lo, -np.inf),
                           np.nextafter(hi, np.inf), hi + 0.1):
                p = inner.copy()
                p[:, a] = beyond
                pts.append(p)
        pts = np.vstack(pts)
        ours = grid.interpolator(values)(pts)
        assert np.all(ours == 0.0)
        assert np.array_equal(ours, ref(pts))


def gradient_reference(field):
    """discrete_gradient as written with node-sized shifted copies."""
    grid = field.grid
    u = field.values
    interior = grid.interior
    out = np.zeros(grid.shape + (grid.dim,))
    for a in range(grid.dim):
        h = grid.h[a]
        u_up = _shifted(u, a, +1)
        u_dn = _shifted(u, a, -1)
        int_up = _shifted(interior, a, +1, fill=False)
        int_dn = _shifted(interior, a, -1, fill=False)
        central = int_up & int_dn
        comp = np.zeros(grid.shape)
        comp[central] = (u_up[central] - u_dn[central]) / (2.0 * h)
        up_only = int_up & ~int_dn
        comp[up_only] = (u[up_only] - 0.0) / h
        dn_only = ~int_up & int_dn
        comp[dn_only] = (0.0 - u[dn_only]) / h
        comp[~interior] = 0.0
        out[..., a] = comp
    return out


def _speckled(grid, seed):
    """The grid with a random interior: isolated nodes, runs, box-edge contact."""
    rng = np.random.default_rng(seed)
    return dataclasses.replace(grid, interior=rng.random(grid.shape) < 0.6)


GRADIENT_GRIDS = {
    "halfline": lambda: GaussianGrid.build(halfspace(1, 1.0), -3, 3, 0.25),
    "halfplane": lambda: GaussianGrid.build(halfspace(2, 0.5, axis=1), -3, 3, [0.2, 0.3]),
    "disk": lambda: GaussianGrid.build(ball(2, 1.0), -1.3, 1.3, 0.1),
    "halfspace-3d": lambda: GaussianGrid.build(halfspace(3, 0.0, axis=2), -1, 1, [0.25, 0.2, 0.1]),
    "ball-3d": lambda: GaussianGrid.build(ball(3, 1.0), -1.3, 1.3, 0.2),
    "speckled-1d": lambda: _speckled(GaussianGrid.build(None, -2, 2, 0.1, dim=1), 1),
    "speckled-2d": lambda: _speckled(GaussianGrid.build(None, -2, 2, [0.2, 0.25], dim=2), 2),
    "speckled-3d": lambda: _speckled(GaussianGrid.build(None, -1, 1, 0.2, dim=3), 3),
}


@pytest.fixture(scope="module")
def converge_grid():
    """converge-3d's 81^3 grid of the reference_bm cylindrical domain at m = 3."""
    dom, lo, hi, h = _cylindrical_case("reference_bm", 3, (-6.0, 6.0, 0.15))
    return GaussianGrid.build(dom, lo, hi, h)


class TestDiscreteGradient:
    @pytest.mark.parametrize("name", sorted(GRADIENT_GRIDS))
    def test_bitwise_equal_to_shifted_copies(self, name):
        grid = GRADIENT_GRIDS[name]()
        values = np.random.default_rng(5).standard_normal(grid.shape)
        flat = values.reshape(-1)
        flat[::7] = 0.0   # 0 - u is +0.0 where -u would be -0.0
        flat[3::11] = -0.0
        field = ScalarField(grid, values)
        got = discrete_gradient(field)
        want = gradient_reference(field)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()

    def test_transient_within_bound(self, converge_grid):
        # node-sized float copies of u per axis peaked at 2.5x the result here
        field = ScalarField.from_callable(converge_grid, lambda p: np.exp(-np.sum(p * p, axis=1)))
        tracemalloc.start()
        try:
            out = discrete_gradient(field)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.0 * out.nbytes, peak / out.nbytes

    def test_constant_field_has_zero_gradient(self, line_grid):
        f = ScalarField.from_callable(line_grid, lambda p: np.ones(p.shape[0]))
        g = discrete_gradient(f)
        interior_of_box = line_grid.eroded_interior(1)
        assert np.allclose(g[interior_of_box], 0.0)

    def test_affine_field_exact(self):
        grid = GaussianGrid.build(None, -2, 2, 0.1, dim=2)
        f = ScalarField.from_callable(grid, lambda p: p[:, 0])
        g = discrete_gradient(f)
        core = grid.eroded_interior(1)
        assert np.allclose(g[core][:, 0], 1.0, atol=1e-13)
        assert np.allclose(g[core][:, 1], 0.0, atol=1e-13)

    def test_quadratic_exact_at_central_nodes(self):
        grid = GaussianGrid.build(None, -2, 2, 0.1, dim=1)
        f = ScalarField.from_callable(grid, lambda p: p[:, 0] ** 2)
        g = discrete_gradient(f)[..., 0]
        core = grid.eroded_interior(1)
        x = grid.node_coordinates()[:, 0].reshape(grid.shape)
        assert np.allclose(g[core], 2 * x[core], atol=1e-12)

    def test_one_sided_against_pinned_zero(self):
        grid = GaussianGrid.build(halfspace(1, 0.0), -2, 2, 0.5)
        f = ScalarField.from_callable(grid, lambda p: np.ones(p.shape[0]))
        g = discrete_gradient(f)[..., 0]
        # last interior node at -0.5 sees the pinned zero at 0.0
        idx = int(np.argmin(np.abs(grid.axes[0] + 0.5)))
        assert g[idx] == pytest.approx((0.0 - 1.0) / 0.5)


def meshgrid_coordinates(grid):
    """node_coordinates() as a meshgrid of the axes, flattened in C order."""
    grids = np.meshgrid(*grid.axes, indexing="ij")
    return np.column_stack([g.reshape(-1) for g in grids])


def broadcast_weights(grid):
    """Every node's weight as per-axis densities broadcast over the grid shape."""
    w = np.ones(grid.shape)
    for a in range(grid.dim):
        view = [None] * grid.dim
        view[a] = slice(None)
        w = w * density_1d(grid.axes[a])[tuple(view)]
    return w * float(np.prod(grid.h))


class TestGathers:
    @pytest.mark.parametrize("name", sorted(GRADIENT_GRIDS))
    def test_bitwise_equal_to_meshgrid_and_broadcast(self, name):
        grid = GRADIENT_GRIDS[name]()
        coords, weights = meshgrid_coordinates(grid), broadcast_weights(grid)
        assert grid.node_coordinates().tobytes() == coords.tobytes()
        assert grid.node_coordinates().shape == (grid.n_nodes, grid.dim)
        every = grid.node_weights(np.arange(grid.n_nodes))
        assert every.tobytes() == weights.tobytes()
        assert every.shape == (grid.n_nodes,)
        rng = np.random.default_rng(9)
        for nodes in (np.flatnonzero(grid.interior), rng.integers(0, grid.n_nodes, 50),
                      np.array([grid.n_nodes - 1, 0, 0]), np.array([], dtype=np.intp)):
            got = grid.node_coordinates(nodes)
            assert got.shape == (nodes.size, grid.dim)
            assert got.tobytes() == coords[nodes].tobytes()
            assert grid.node_weights(nodes).tobytes() == weights.reshape(-1)[nodes].tobytes()


class TestFromCallable:
    def test_empty_interior_calls_nothing(self):
        grid = GaussianGrid.build(halfspace(2, 9.0), 0, 1, 0.25)
        assert grid.n_interior == 0
        field = ScalarField.from_callable(grid, lambda p: 1 / 0)
        assert not field.values.any()


class TestAssembly:
    def test_matrix_symmetric(self, halfline_grid):
        op = assemble_ou_operator(halfline_grid, 1.0)
        assert abs(op.matrix - op.matrix.T).max() == 0.0

    def test_spd_lower_bound(self, halfline_grid):
        op = assemble_ou_operator(halfline_grid, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(50):
            v = rng.standard_normal(op.interior_flat.size)
            assert v @ (op.matrix @ v) >= (1.0 - 1e-12) * (v @ v)

    def test_negative_sigma_rejected(self, halfline_grid):
        with pytest.raises(ValueError):
            assemble_ou_operator(halfline_grid, -1.0)

    def test_zero_sigma_rejected(self, halfline_grid):
        # sigma > 0: every solve assembles, so every solve applies this rule
        with pytest.raises(ValueError, match="sigma must be positive"):
            assemble_ou_operator(halfline_grid, 0.0)


def coo_reference_matrix(grid, sigma):
    """The operator as COO triplets summed into CSR by scipy, axis by axis."""
    interior = grid.interior
    flat_int = np.flatnonzero(interior.reshape(-1))
    unknown_of = -np.ones(grid.n_nodes, dtype=np.int64)
    unknown_of[flat_int] = np.arange(flat_int.size)
    diag = np.ones(flat_int.size)
    rows, cols, vals = [], [], []
    for a in range(grid.dim):
        h = grid.h[a]
        up, dn = solver._axis_face_ratios(grid, a)
        view = [None] * grid.dim
        view[a] = slice(None)
        up_b = np.broadcast_to(up[tuple(view)], grid.shape)
        dn_b = np.broadcast_to(dn[tuple(view)], grid.shape)
        diag += sigma * (up_b.reshape(-1)[flat_int] + dn_b.reshape(-1)[flat_int]) / h**2
        src = np.flatnonzero((interior & _shifted(interior, a, +1, fill=False)).reshape(-1))
        if src.size:
            dst = src + int(np.prod(grid.shape[a + 1:]))
            coef = -sigma * math.exp(h * h / 8.0) / h**2
            rows += [unknown_of[src], unknown_of[dst]]
            cols += [unknown_of[dst], unknown_of[src]]
            vals += [np.full(src.size, coef)] * 2
    m = flat_int.size
    return sp.csr_matrix(
        (np.concatenate(vals + [diag]),
         (np.concatenate(rows + [np.arange(m)]), np.concatenate(cols + [np.arange(m)]))),
        shape=(m, m),
    )


ASSEMBLY_GRIDS = {
    # the halfspaces' interiors reach the box edge
    "halfline": lambda: GaussianGrid.build(halfspace(1, 1.0), -8, 8, 0.02),
    "halfplane": lambda: GaussianGrid.build(halfspace(2, 0.5), -3, 3, [0.1, 0.15]),
    "disk": lambda: GaussianGrid.build(ball(2, 1.0), -1.3, 1.3, 0.1),
    "ball-3d": lambda: GaussianGrid.build(ball(3, 1.0), -1.3, 1.3, 0.1),
    "whole-space-3d": lambda: GaussianGrid.build(None, -2, 2, 0.25, dim=3),
}


class TestCsrAssembly:
    # sigma_0 of the contract and converge suites, oracle's sigma, and 1
    @pytest.mark.parametrize("sigma", [1e-4, 0.4, 1.0])
    @pytest.mark.parametrize("name", sorted(ASSEMBLY_GRIDS))
    def test_bitwise_equal_to_coo_construction(self, name, sigma):
        grid = ASSEMBLY_GRIDS[name]()
        mat = assemble_ou_operator(grid, sigma).matrix
        ref = coo_reference_matrix(grid, sigma)
        assert mat.has_sorted_indices
        for got, want in ((mat.indptr, ref.indptr), (mat.indices, ref.indices),
                          (mat.data, ref.data)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()

    def test_assembly_transient_within_bound(self):
        # the COO construction's row, column and value lists, their
        # concatenation and the conversion peaked at 5.3x the result here
        grid = GaussianGrid.build(ball(3, 4.0), -6, 6, 0.2)
        assert grid.shape == (61, 61, 61)
        tracemalloc.start()
        try:
            op = assemble_ou_operator(grid, 1.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        mat = op.matrix
        kept = sum(a.nbytes for a in (mat.data, mat.indices, mat.indptr,
                                      op.sqrt_w, op.interior_flat))
        assert peak <= 3.5 * kept, peak / kept


def ou_apply_reference(field):
    """discrete_ou_apply as written with broadcast face ratios and fresh products."""
    grid = field.grid
    u = field.values
    out = np.zeros(grid.shape)
    for a in range(grid.dim):
        h = grid.h[a]
        up, dn = solver._axis_face_ratios(grid, a)
        view = [None] * grid.dim
        view[a] = slice(None)
        up_b = np.broadcast_to(up[tuple(view)], grid.shape)
        dn_b = np.broadcast_to(dn[tuple(view)], grid.shape)
        u_up = _shifted(u, a, +1)
        u_dn = _shifted(u, a, -1)
        out += (up_b * (u_up - u) + dn_b * (u_dn - u)) / h**2
    out[~grid.interior] = 0.0
    return out


# x - sigma*L_h f against the assembled operator: a halfspace reaching the
# box edge, a finely resolved disk and a 3-D ball
OPERATOR_GRIDS = {
    "halfspace-2d": lambda: GaussianGrid.build(halfspace(2, 1.0), -8, 8, 0.1),
    "disk": lambda: GaussianGrid.build(ball(2, 1.0), -1.3, 1.3, 0.025),
    "ball-3d": lambda: GaussianGrid.build(ball(3, 2.0), -2.4, 2.4, 0.2),
}


class TestOuApply:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    @pytest.mark.parametrize("name", sorted(OPERATOR_GRIDS))
    def test_equals_assembled_operator(self, name, sigma):
        # A is W^(1/2) (I - sigma*L_h) W^(-1/2) on the unknowns, so at every
        # unknown x - sigma*L_h f = (A (x sqrt_w)) / sqrt_w for f pinned to 0
        grid = OPERATOR_GRIDS[name]()
        f = ScalarField(grid, np.random.default_rng(3).standard_normal(grid.shape))
        op = assemble_ou_operator(grid, sigma)
        x = f.flat()[op.interior_flat]
        lhs = x - sigma * discrete_ou_apply(f).flat()[op.interior_flat]
        rhs = (op.matrix @ (x * op.sqrt_w)) / op.sqrt_w
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * np.max(np.abs(rhs))

    def test_weighted_symmetry_in_original_variables(self):
        # sum w (L_h f) g = sum w f (L_h g) for fields pinned to 0 outside O
        grid = GaussianGrid.build(ball(2, 1.0), -1.3, 1.3, 0.1)
        w = all_weights(grid)
        rng = np.random.default_rng(1)
        for _ in range(20):
            f = ScalarField(grid, rng.standard_normal(grid.shape))
            g = ScalarField(grid, rng.standard_normal(grid.shape))
            lhs = float(np.sum(w * discrete_ou_apply(f).values * g.values))
            rhs = float(np.sum(w * f.values * discrete_ou_apply(g).values))
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("name", sorted(GRADIENT_GRIDS))
    def test_bitwise_equal_to_broadcast_products(self, name):
        grid = GRADIENT_GRIDS[name]()
        values = np.random.default_rng(5).standard_normal(grid.shape)
        flat = values.reshape(-1)
        flat[::7] = 0.0
        flat[3::11] = -0.0
        field = ScalarField(grid, values)
        got = discrete_ou_apply(field).values
        assert got.tobytes() == ou_apply_reference(field).tobytes()

    def test_transient_within_bound(self):
        # broadcast face ratios times fresh differences peaked at 5.0x the
        # result here, and in-place differences kept past their axis at 4.0x
        grid = GaussianGrid.build(None, -6, 6, 0.15, dim=3)
        assert grid.shape == (81, 81, 81)
        field = ScalarField.from_callable(grid, lambda p: np.exp(-np.sum(p * p, axis=1)))
        tracemalloc.start()
        try:
            out = discrete_ou_apply(field).values
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 3.5 * out.nbytes, peak / out.nbytes

    def test_kernel_contains_constants(self, line_grid):
        f = ScalarField.from_callable(line_grid, lambda p: np.ones(p.shape[0]))
        lf = discrete_ou_apply(f)
        inner = line_grid.eroded_interior(1)
        assert np.max(np.abs(lf.values[inner])) < 1e-11

    @pytest.mark.parametrize("k", [1, 3])
    def test_hermite_eigenrelation(self, line_grid, k):
        f = ScalarField.from_callable(line_grid, lambda p: hermite_poly(k, p[:, 0]))
        lf = discrete_ou_apply(f)
        x = line_grid.node_coordinates()[:, 0]
        window = np.abs(x) <= 3.0
        err = np.abs(lf.flat()[window] + k * hermite_poly(k, x[window]))
        assert np.max(err) < 50 * 0.02**2

    def test_product_eigenfunction_2d(self):
        # L(x1 x2) = -2 x1 x2 by applying lap - <x, grad> symbolically
        grid = GaussianGrid.build(None, -6, 6, 0.05, dim=2)
        f = ScalarField.from_callable(grid, lambda p: p[:, 0] * p[:, 1])
        lf = discrete_ou_apply(f)
        coords = grid.node_coordinates()
        window = (np.abs(coords[:, 0]) <= 2.5) & (np.abs(coords[:, 1]) <= 2.5)
        expected = -2.0 * coords[:, 0] * coords[:, 1]
        assert np.max(np.abs(lf.flat()[window] - expected[window])) < 0.01


class TestSolve:
    def test_zero_rhs_gives_zero(self, halfline_grid):
        rhs = ScalarField.zeros(halfline_grid)
        sol = solve_resolvent(ResolventJob(halfline_grid, 1.0, rhs))
        assert np.all(sol.u.values == 0.0)
        assert sol.converged

    def test_tally_counts_every_solve(self, halfline_grid, monkeypatch):
        monkeypatch.setattr(solver, "tally", dict.fromkeys(solver.tally, 0))
        bump = ScalarField.from_callable(
            halfline_grid, lambda p: np.exp(-((p[:, 0] + 3) ** 2))
        )
        sols = solve_resolvents(halfline_grid, 1.0, [ScalarField.zeros(halfline_grid), bump])
        # one call, one solve per right-hand side; a zero one is a solve of 0 iterations
        assert sols[0].iterations == 0 < sols[1].iterations
        assert solver.tally == {"linear_solves": 2, "cg_iterations": sols[1].iterations,
                                "unknowns": 2 * halfline_grid.n_interior}

    def test_rhs_of_another_grid_rejected(self):
        # same box, step and shape, other domain: the solve must not pair
        # this right-hand side with the ball's operator
        half = GaussianGrid.build(halfspace(2, 1.0), -3.0, 3.0, 0.5)
        disk = GaussianGrid.build(ball(2, 2.0), -3.0, 3.0, 0.5)
        assert half.shape == disk.shape
        rhs = ScalarField.from_callable(half, lambda p: np.exp(-np.sum((p + 1) ** 2, axis=-1)))
        with pytest.raises(ValueError, match="rhs must live on the solve grid"):
            solve_resolvents(disk, 1.0, [rhs])
        with pytest.raises(ValueError, match="rhs must live on the solve grid"):
            solve_resolvent(ResolventJob(disk, 1.0, rhs))

    @pytest.mark.parametrize("sigma", [0.5, 1.0, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_hermite_eigen_oracle(self, line_grid, sigma, k):
        rhs = ScalarField.from_callable(line_grid, lambda p: hermite_poly(k, p[:, 0]))
        sol = solve_resolvent(ResolventJob(line_grid, sigma, rhs), tol=1e-12)
        x = line_grid.node_coordinates()[:, 0]
        window = np.abs(x) <= 3.5
        exact = hermite_poly(k, x) / (1.0 + sigma * k)
        assert np.max(np.abs(sol.u.flat()[window] - exact[window])) <= 1e-3

    def test_maximum_principle(self, halfline_grid):
        rhs = ScalarField.from_callable(
            halfline_grid, lambda p: np.exp(-((p[:, 0] + 3) ** 2))
        )
        sol = solve_resolvent(ResolventJob(halfline_grid, 1.0, rhs), tol=1e-11)
        assert sol.u.values.min() >= -1e-10

    def test_l2_contraction(self, halfline_grid):
        rhs = ScalarField.from_callable(
            halfline_grid, lambda p: np.exp(-((p[:, 0] + 3) ** 2))
        )
        sol = solve_resolvent(ResolventJob(halfline_grid, 2.0, rhs), tol=1e-11)
        w = all_weights(halfline_grid)
        nu = np.sqrt(float(np.sum(w * sol.u.values**2)))
        ny = np.sqrt(float(np.sum(w * rhs.values**2)))
        assert nu <= ny + 1e-10

    def test_dirichlet_zero_on_exterior(self, halfline_grid):
        rhs = ScalarField.from_callable(
            halfline_grid, lambda p: np.exp(-((p[:, 0] + 3) ** 2))
        )
        sol = solve_resolvent(ResolventJob(halfline_grid, 1.0, rhs))
        assert np.all(sol.u.values[~halfline_grid.interior] == 0.0)

    def test_mesh_convergence_order(self):
        errs = []
        for h in (0.04, 0.02):
            grid = GaussianGrid.build(None, -8, 8, h, dim=1)
            rhs = ScalarField.from_callable(grid, lambda p: hermite_poly(2, p[:, 0]))
            sol = solve_resolvent(ResolventJob(grid, 1.0, rhs), tol=1e-12)
            x = grid.node_coordinates()[:, 0]
            window = np.abs(x) <= 3.5
            exact = hermite_poly(2, x) / 3.0
            errs.append(np.max(np.abs(sol.u.flat()[window] - exact[window])))
        assert errs[0] / errs[1] >= 1.8

    def test_iteration_budget_flags_unconverged(self, halfline_grid, monkeypatch):
        monkeypatch.setattr(solver, "_iteration_budget", lambda n_unknowns: 3)
        rhs = ScalarField.from_callable(
            halfline_grid, lambda p: np.exp(-((p[:, 0] + 3) ** 2))
        )
        sol = solve_against_scipy(halfline_grid, 10.0, rhs, tol=1e-12)
        assert not sol.converged
        assert sol.iterations == 3
        assert sol.u.values.shape == halfline_grid.shape

    def test_dirichlet_2d_solve_matches_direct_solve(self):
        # CG against an independent sparse direct solve of the same system.
        # -L_h is positive semidefinite, so lambda_min(A) >= 1, and the
        # Gershgorin bound on lambda_max bounds cond(A); the theta-weighted
        # relative error is then at most cond(A) times the relative residual.
        tol = 1e-10
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.1)
        rhs = ScalarField.from_callable(
            grid, lambda p: np.exp(-np.sum((p - [-3.0, 0.5]) ** 2, axis=-1))
        )
        sol = solve_resolvent(ResolventJob(grid, 1.0, rhs), tol=tol)
        op = assemble_ou_operator(grid, 1.0)
        b = rhs.flat()[op.interior_flat] * op.sqrt_w
        x_direct = spsolve(op.matrix.tocsc(), b)
        x_cg = sol.u.flat()[op.interior_flat] * op.sqrt_w
        cond_bound = float(np.max(np.abs(op.matrix).sum(axis=1)))
        err = np.linalg.norm(x_cg - x_direct) / np.linalg.norm(x_direct)
        assert sol.converged
        assert sol.residual <= 10.0 * tol
        assert err <= cond_bound * tol

    def test_four_dimensional_ball_solve(self):
        # the stated desk-scale ceiling: classification, assembly and CG
        # all dimension generic up to d = 4
        dom = ball(4, 1.0)
        grid = GaussianGrid.build(dom, -1.2, 1.2, 0.15)
        rhs = ScalarField.from_callable(
            grid, lambda p: np.exp(-4 * np.sum(p**2, axis=-1))
        )
        sol = solve_resolvent(ResolventJob(grid, 1.0, rhs), tol=1e-9)
        assert sol.converged
        assert sol.u.values.min() >= -1e-9
        assert np.all(sol.u.values[~grid.interior] == 0.0)


def solve_against_scipy(grid, sigma, rhs, tol=1e-10):
    """solve_resolvent checked against scipy's cg on the same system.

    The package's CG loop differs from scipy's only in the summation order
    of its inner products, so the iteration counts and exit codes agree and
    the solutions agree to round-off.
    """
    sol = solve_resolvent(ResolventJob(grid, sigma, rhs), tol=tol)
    op = assemble_ou_operator(grid, sigma)
    b = rhs.flat()[op.interior_flat] * op.sqrt_w
    iters = []
    x, info = cg(op.matrix, b, rtol=tol, atol=0.0,
                 maxiter=solver._iteration_budget(op.interior_flat.size),
                 callback=lambda xk: iters.append(1))
    u_ref = np.zeros(grid.n_nodes)
    u_ref[op.interior_flat] = x / op.sqrt_w
    assert sol.iterations == len(iters)
    assert sol.converged == (info == 0)
    err = np.linalg.norm(sol.u.flat() - u_ref) / np.linalg.norm(u_ref)
    assert err <= 1e-12
    return sol


class TestCgAgainstScipy:
    @pytest.mark.parametrize("sigma", [0.1, 1.0, 10.0])
    def test_halfline(self, halfline_grid, sigma):
        rhs = ScalarField.from_callable(
            halfline_grid, lambda p: np.exp(-((p[:, 0] + 3) ** 2))
        )
        assert solve_against_scipy(halfline_grid, sigma, rhs).converged

    def test_halfspace_2d(self):
        # the halfspace(offset=1) sweep's solve at h = 0.1, sigma = 1, bump0
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8.0, 8.0, 0.1)
        rhs = ScalarField.from_callable(grid, make_bump(dom, [-3.0, 0.0], 1.0, 0.5))
        sol = solve_against_scipy(grid, 1.0, rhs)
        assert sol.converged
        assert sol.diagnostics["n_unknowns"] == 11270


# TestCgAgainstScipy.test_halfspace_2d's solve: unknowns and sha256 of u
_THREADED_SOLVE = """
import hashlib
from oucontract.contract import make_bump
from oucontract.domains import halfspace
from oucontract.grid import GaussianGrid, ScalarField
from oucontract.solver import ResolventJob, solve_resolvent
dom = halfspace(2, 1.0)
grid = GaussianGrid.build(dom, -8.0, 8.0, 0.1)
rhs = ScalarField.from_callable(grid, make_bump(dom, [-3.0, 0.0], 1.0, 0.5))
sol = solve_resolvent(ResolventJob(grid, 1.0, rhs), tol=1e-10)
print(sol.diagnostics["n_unknowns"], hashlib.sha256(sol.u.values.tobytes()).hexdigest())
"""


def test_solution_independent_of_blas_threads():
    # the same solve in two processes whose OpenBLAS pools differ in size
    src = str(Path(oucontract.__file__).resolve().parents[1])
    out = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
        proc = subprocess.run([sys.executable, "-c", _THREADED_SOLVE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        out.append(proc.stdout.split())
    assert out[0][0] == "11270"
    assert out[0] == out[1]
