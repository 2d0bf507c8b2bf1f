import numpy as np
import pytest

from oucontract.contract import (
    _SUPPORT_FLOOR,
    BoundaryProbes,
    BumpFunction,
    boundary_flux_integral,
    boundary_probes,
    check_boundary_normal_slope,
    check_pointwise_inequality,
    contractivity_sweep,
    convex_power_surrogate,
    default_contract_tol,
    gradient_lp_ratio,
    gradient_magnitude_fields,
    make_bump,
)
from oucontract.domains import (
    LevelSetDomain,
    ProjectionError,
    ball,
    ellipsoid,
    halfspace,
    project_to_boundary,
)
from oucontract.grid import GaussianGrid, ScalarField
from oucontract.solver import ResolventJob, solve_resolvent


def _holed_disk_level(x):
    x = np.asarray(x, dtype=float)
    return (1.0 - np.sum(x * x, axis=-1)) * (0.04 - np.sum((x - [0.0, 0.7]) ** 2, axis=-1))


# the unit disk less the disk of radius 0.2 about (0, 0.7): not convex
HOLED_DISK = LevelSetDomain(2, _holed_disk_level, name="holed-disk")


def small_disk_grid():
    """A disk of radius 0.15 on a grid of step 0.1: no node is 2 steps inside."""
    grid = GaussianGrid.build(ball(2, 0.15), -1.0, 1.0, 0.1)
    assert grid.n_interior > 0 and not grid.eroded_interior(2).any()
    return grid


@pytest.fixture(scope="module")
def halfline():
    dom = halfspace(1, 1.0)
    grid = GaussianGrid.build(dom, -8, 8, 0.02)
    bump = make_bump(dom, [-3.0], 1.0, 0.5, label="hl")
    return dom, grid, bump


@pytest.fixture(scope="module")
def halfline_solution(halfline):
    dom, grid, bump = halfline
    rhs = ScalarField.from_callable(grid, bump)
    return solve_resolvent(ResolventJob(grid, 1.0, rhs), tol=1e-11)


class TestBump:
    def test_peak_value(self):
        b = BumpFunction(np.zeros(2), 1.0)
        assert b(np.zeros(2)) == 1.0

    def test_compact_support(self):
        b = BumpFunction(np.zeros(2), 0.5)
        pts = np.array([[0.5, 0.0], [0.7, 0.1], [0.49, 0.0]])
        vals = b(pts)
        assert vals[0] == 0.0 and vals[1] == 0.0
        assert vals[2] > 0.0

    @staticmethod
    def reference_values(b, x):
        """The bump by its formula over all points with a boolean mask."""
        u = 1.0 - np.sum((np.atleast_2d(x) - b.center) ** 2, axis=-1) / b.radius**2
        out = np.zeros_like(u)
        inside = u > _SUPPORT_FLOOR
        out[inside] = np.exp(1.0 - 1.0 / u[inside])
        return out

    @pytest.mark.parametrize("order", ["C", "F"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_values_bitwise_equal_to_formula(self, dim, order):
        rng = np.random.default_rng(dim)
        b = BumpFunction(rng.uniform(-1, 1, dim), 0.7)
        pts = b.center + rng.uniform(-1.0, 1.0, (4000, dim))
        # points on the support edge u = floor and just inside it
        for scale in (1.0, 1.0 - 1e-9):
            dirs = rng.standard_normal((50, dim))
            dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
            r_edge = b.radius * np.sqrt(1.0 - _SUPPORT_FLOOR) * scale
            pts = np.vstack([pts, b.center + r_edge * dirs])
        pts = np.asarray(pts, order=order)
        got, want = b(pts), self.reference_values(b, pts)
        assert got.tobytes() == want.tobytes()
        assert np.any(got > 0.0) and np.any(got == 0.0)
        assert b(pts[7]) == float(want[7])

    def test_gradient_matches_finite_differences(self):
        b = BumpFunction(np.array([0.3, -0.2]), 0.8)
        rng = np.random.default_rng(1)
        h = 1e-6
        for _ in range(20):
            x = rng.uniform(-0.4, 0.4, size=2) + b.center
            g = b.gradient(x)
            for i in range(2):
                e = np.zeros(2)
                e[i] = h
                fd = (b(x + e) - b(x - e)) / (2 * h)
                assert g[i] == pytest.approx(fd, abs=5e-6)

    def test_make_bump_containment(self):
        dom = ball(2, 2.0)
        bump = make_bump(dom, [0.0, 0.0], 1.0, 0.5)
        assert bump.radius == 1.0
        dom2 = halfspace(2, 1.0)
        assert make_bump(dom2, [-3.0, 0.0], 1.0, 0.9) is not None

    def test_make_bump_rejects_leaky_support(self):
        with pytest.raises(ValueError, match="support not compactly inside"):
            make_bump(ball(2, 1.0), [0.0, 0.0], 1.2, 0.0)
        with pytest.raises(ValueError, match="support not compactly inside"):
            make_bump(halfspace(2, 1.0), [-1.5, 0.0], 1.0, 0.2)

    @pytest.mark.parametrize("center", [[-2.5], [-2.5, 0.0, 0.0]])
    def test_make_bump_rejects_center_of_another_dim(self, center):
        # a 1-value center once passed as a ridge constant along x_1
        with pytest.raises(ValueError, match=r"bump 'center' has shape .*, but 'dim' is 2"):
            make_bump(halfspace(2, 1.0), center, 0.8, 0.3)

    def test_default_names_print_plain_floats(self):
        # numpy 2 prints a float64 in a list as np.float64(...)
        assert ellipsoid([1.0, 0.6]).name == "ellipsoid([1.0, 0.6])"
        bump = make_bump(ellipsoid([6.0, 4.0]), [-1.23456, 0.5], 1.0, 0.5)
        assert bump.label == "bump(c=[-1.235, 0.5],r=1.0)"


class TestGradientMagnitudeFields:
    def test_zero_field(self, halfline):
        _, grid, _ = halfline
        u = ScalarField.zeros(grid)
        phi, phi_eps = gradient_magnitude_fields(u, 1e-3)
        inner = grid.interior
        assert np.all(phi.values[inner] == 0.0)
        assert np.allclose(phi_eps.values[inner], 1e-3)

    def test_affine_field(self):
        grid = GaussianGrid.build(None, -2, 2, 0.1, dim=2)
        u = ScalarField.from_callable(grid, lambda p: p[:, 0])
        phi, phi_eps = gradient_magnitude_fields(u, 0.5)
        core = grid.eroded_interior(1)
        assert np.allclose(phi.values[core], 1.0, atol=1e-12)
        assert np.allclose(phi_eps.values[core], np.sqrt(1.25), atol=1e-12)

    def test_smoothing_dominates_and_converges(self, halfline_solution):
        u = halfline_solution.u
        eps = 1e-3
        phi, phi_eps = gradient_magnitude_fields(u, eps)
        inner = u.grid.interior
        assert np.all(phi_eps.values[inner] >= eps - 1e-15)
        assert np.all(phi_eps.values[inner] >= phi.values[inner])
        assert np.max(phi_eps.values[inner] - phi.values[inner]) <= eps + 1e-15


class TestConvexSurrogate:
    def test_p_at_least_two_exact(self):
        g = convex_power_surrogate(2.0, 1e-3)
        t = np.linspace(0, 3, 50)
        assert np.allclose(g(t), t**2)

    def test_uniform_error_bound(self):
        delta = 1e-3
        g = convex_power_surrogate(1.5, delta)
        t = np.linspace(0, 5, 200)
        assert np.max(np.abs(g(t) - t**1.5)) <= delta**1.5 + 1e-15
        assert g(0.0) == pytest.approx(0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5])
    def test_convexity_by_second_differences(self, p):
        g = convex_power_surrogate(p, 1e-3)
        t = np.linspace(0, 2, 400)
        vals = g(t)
        second = vals[2:] - 2 * vals[1:-1] + vals[:-2]
        assert np.min(second) >= -1e-12


class TestPointwiseInequality:
    def test_zero_solution_passes(self, halfline):
        _, grid, bump = halfline
        u = ScalarField.zeros(grid)
        report = check_pointwise_inequality(u, bump, 1.0, 1e-3, 0.1)
        assert report.ok

    def test_no_checked_node_fails(self):
        # a check over an empty node set shows nothing, so it cannot pass
        grid = small_disk_grid()
        bump = BumpFunction(np.zeros(2), 0.05)
        report = check_pointwise_inequality(ScalarField.zeros(grid), bump, 1.0, 1e-3, 1.0)
        assert (report.n_checked, report.violations) == (0, [])
        assert not report.ok

    def test_halfline_solution_passes(self, halfline, halfline_solution):
        dom, grid, bump = halfline
        report = check_pointwise_inequality(
            halfline_solution.u, bump, 1.0, 1e-3, 5 * 0.02
        )
        assert report.ok, report.violations[:5]

    def test_ball_solution_passes(self):
        dom = ball(2, 1.0)
        grid = GaussianGrid.build(dom, -1.3, 1.3, 0.025)
        bump = make_bump(dom, [0.0, 0.0], 0.45, 0.3)
        sol = solve_resolvent(
            ResolventJob(grid, 0.5, ScalarField.from_callable(grid, bump)), tol=1e-11
        )
        report = check_pointwise_inequality(sol.u, bump, 0.5, 1e-3, 5 * 0.025)
        assert report.ok, report.worst_excess


class TestBoundaryChecks:
    def test_zero_solution_slope(self, halfline):
        dom, grid, _ = halfline
        u = ScalarField.zeros(grid)
        rep = check_boundary_normal_slope(u, boundary_probes(grid, dom, 10, 0),
                                          1e-3, 1e-12)
        assert rep.ok

    def test_halfline_slope_nonpositive(self, halfline, halfline_solution):
        dom, grid, _ = halfline
        rep = check_boundary_normal_slope(
            halfline_solution.u, boundary_probes(grid, dom, 20, 3), 1e-3, 10 * 0.02
        )
        assert rep.ok
        assert rep.n_checked > 0

    def test_slopes_match_pointwise_interpolation(self):
        # the batched slope evaluation against one interpolation per probe
        dom = ball(2, 1.0)
        grid = GaussianGrid.build(dom, -1.3, 1.3, 0.05)
        bump = make_bump(dom, [0.0, 0.0], 0.45, 0.3)
        sol = solve_resolvent(
            ResolventJob(grid, 0.5, ScalarField.from_callable(grid, bump)), tol=1e-11
        )
        probes = boundary_probes(grid, dom, 24, 5)
        assert probes.dt.size > 0
        _, phi_eps = gradient_magnitude_fields(sol.u, 1e-3)
        interp = grid.interpolator(phi_eps.values)
        ref = [float((interp(a[None, :])[0] - interp(b[None, :])[0]) / dt)
               for a, b, dt in zip(probes.p1, probes.p2, probes.dt)]
        tol = float(np.median(ref))
        rep = check_boundary_normal_slope(sol.u, probes, 1e-3, tol)
        assert rep.n_checked == len(ref)
        assert rep.max_slope == max(ref)
        assert rep.violations == [(i, s - tol) for i, s in enumerate(ref) if s > tol]
        assert rep.violations

    @staticmethod
    def one_point_probes(grid, domain, n_samples, seed):
        """Probe pairs found with one interpolant call per candidate point."""
        mask_interp = grid.interpolator(grid.interior.astype(float))
        diag = float(np.linalg.norm(grid.h))
        rng = np.random.default_rng(seed)
        p1s, p2s, dts, n_skipped = [], [], [], 0
        for _ in range(n_samples):
            try:
                bp = project_to_boundary(domain, rng.standard_normal(grid.dim))
            except ProjectionError:
                n_skipped += 1
                continue
            for mult in (1.5, 2.0, 3.0, 4.0, 6.0):
                t1 = mult * diag
                t2 = t1 + 2.0 * diag
                p1, p2 = bp.x - t1 * bp.nu, bp.x - t2 * bp.nu
                if (mask_interp(p1[None, :])[0] > 1.0 - 1e-12
                        and mask_interp(p2[None, :])[0] > 1.0 - 1e-12):
                    p1s.append(p1)
                    p2s.append(p2)
                    dts.append(t2 - t1)
                    break
            else:
                n_skipped += 1
        return BoundaryProbes(np.array(p1s).reshape(-1, grid.dim),
                              np.array(p2s).reshape(-1, grid.dim), np.array(dts), n_skipped)

    @pytest.mark.parametrize("case", ["halfline", "disk", "holed-disk", "ball-3d"])
    def test_probes_equal_one_point_search(self, case):
        dom, grid = {
            "halfline": lambda: (halfspace(1, 1.0),
                                 GaussianGrid.build(halfspace(1, 1.0), -8, 8, 0.02)),
            "disk": lambda: (ball(2, 1.0), GaussianGrid.build(ball(2, 1.0), -1.3, 1.3, 0.05)),
            # rays through the hole need a larger multiple or find none
            "holed-disk": lambda: (HOLED_DISK, GaussianGrid.build(HOLED_DISK, -1.2, 1.2, 0.05)),
            "ball-3d": lambda: (ball(3, 1.0), GaussianGrid.build(ball(3, 1.0), -1.3, 1.3, 0.1)),
        }[case]()
        got = boundary_probes(grid, dom, 30, 4)
        want = self.one_point_probes(grid, dom, 30, 4)
        assert got.n_skipped == want.n_skipped
        for a, b in ((got.p1, want.p1), (got.p2, want.p2), (got.dt, want.dt)):
            assert a.shape == b.shape and a.tobytes() == b.tobytes()

    def test_slope_with_no_checked_point_fails(self):
        # no seed-0 boundary point of the small ball has a fully interior
        # probe pair on this coarse grid, so nothing is checked
        dom = ball(2, 0.2)
        grid = GaussianGrid.build(dom, -1.0, 1.0, 0.1)
        probes = boundary_probes(grid, dom, 10, 0)
        rep = check_boundary_normal_slope(ScalarField.zeros(grid), probes, 1e-3, 1.0)
        assert (rep.n_checked, rep.n_skipped) == (0, 10)
        assert not rep.ok

    @pytest.mark.parametrize("n_skipped, ok", [(3, False), (1, True)])
    def test_slope_from_under_half_the_samples_fails(self, halfline, n_skipped, ok):
        # one checked row reads like forty unless the skips count against it
        _, grid, _ = halfline
        probes = BoundaryProbes(np.array([[-2.0]]), np.array([[-2.1]]), np.array([0.1]),
                                n_skipped)
        rep = check_boundary_normal_slope(ScalarField.zeros(grid), probes, 1e-3, 1.0)
        assert (rep.n_checked, rep.n_skipped, rep.violations) == (1, n_skipped, [])
        assert rep.ok is ok

    def test_flux_integral_zero_solution(self, halfline):
        _, grid, _ = halfline
        u = ScalarField.zeros(grid)
        (val,) = boundary_flux_integral(u, 1e-3, [2.0])
        assert val == pytest.approx(0.0, abs=1e-12)

    def test_flux_integral_over_no_node_raises(self):
        u = ScalarField.zeros(small_disk_grid())
        with pytest.raises(ValueError, match="region has no quadrature mass"):
            boundary_flux_integral(u, 1e-3, [2.0])

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_flux_integral_sign(self, halfline_solution, p):
        (val,) = boundary_flux_integral(halfline_solution.u, 1e-3, [p])
        assert val <= 20 * 0.02

    def test_flux_sequence_matches_single_calls(self, halfline_solution):
        ps = [1.0, 1.5, 2.0, 3.0, 4.0]
        vals = boundary_flux_integral(halfline_solution.u, 1e-3, ps)
        assert vals == [boundary_flux_integral(halfline_solution.u, 1e-3, [p])[0]
                        for p in ps]


class TestSweep:
    def test_halfspace_sweep_contractive(self):
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.1)
        bumps = [make_bump(dom, [-3.0, 0.0], 1.0, 0.5, label="b0")]
        result = contractivity_sweep(dom, grid, [0.1, 1.0], [1.5, 2.0, 4.0], bumps)
        assert len(result.records) == 6
        tol = default_contract_tol(0.1)
        for rec in result.records:
            assert rec.converged
            assert rec.ratio <= 1.0 + tol

    def test_sigma_zero_identity(self):
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.1)
        bumps = [make_bump(dom, [-3.0, 0.0], 1.0, 0.5, label="b0")]
        result = contractivity_sweep(dom, grid, [1e-4], [1.5, 2.0, 3.0, 4.0], bumps)
        for rec in result.records:
            assert 0.9 <= rec.ratio <= 1.02

    def test_ratio_independent_of_eps(self):
        # eps enters only the auxiliary checks, never the ratio: recompute
        # the ratio from the stored solution both ways
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.1)
        bump = make_bump(dom, [-3.0, 0.0], 1.0, 0.5, label="b0")
        result = contractivity_sweep(dom, grid, [1.0], [2.0], [bump])
        sol = result.solutions[(1.0, "b0")]
        ratios = []
        for eps in (1e-2, 1e-3, 1e-4):
            gradient_magnitude_fields(sol.u, eps)  # eps-dependent side fields
            [(lhs, rhs)] = gradient_lp_ratio(sol.u, bump, [2.0])
            ratios.append(lhs / rhs)
        assert max(ratios) - min(ratios) < 1e-6

    def test_lp_ratio_sequence_equals_single_p_calls(self):
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.2)
        bump = make_bump(dom, [-3.0, 0.0], 1.0, 0.4, label="b0")
        sol = solve_resolvent(
            ResolventJob(grid, 1.0, ScalarField.from_callable(grid, bump)), tol=1e-10
        )
        ps = [1.5, 2.0, 4.0]
        pairs = gradient_lp_ratio(sol.u, bump, ps)
        assert pairs == [gradient_lp_ratio(sol.u, bump, [p])[0] for p in ps]

    def test_solutions_equal_separate_solves(self):
        # one right-hand side per bump and one operator per sigma must give
        # exactly what an independent solve of each (sigma, bump) gives
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.2)
        bumps = [
            make_bump(dom, [-3.0, 0.0], 1.0, 0.4, label="b0"),
            make_bump(dom, [-4.0, 0.5], 1.0, 0.4, label="b1"),
        ]
        sigmas = [0.1, 1.0]
        result = contractivity_sweep(dom, grid, sigmas, [2.0], bumps)
        assert sorted(result.solutions) == sorted(
            (s, b.label) for s in sigmas for b in bumps
        )
        for sigma in sigmas:
            for bump in bumps:
                ref = solve_resolvent(
                    ResolventJob(grid, sigma, ScalarField.from_callable(grid, bump)),
                    tol=1e-10,
                )
                sol = result.solutions[(sigma, bump.label)]
                assert np.array_equal(sol.u.values, ref.u.values)
                assert sol.residual == ref.residual
                assert sol.iterations == ref.iterations

    def test_records_sorted_deterministically(self):
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.2)
        bumps = [
            make_bump(dom, [-3.0, 0.0], 1.0, 0.4, label="b0"),
            make_bump(dom, [-4.0, 0.0], 1.0, 0.4, label="b1"),
        ]
        r1 = contractivity_sweep(dom, grid, [1.0, 0.1], [2.0, 1.5], bumps)
        keys = [r.key() for r in r1.records]
        assert keys == sorted(keys)

    def test_unconverged_records_flagged(self):
        dom = halfspace(2, 1.0)
        grid = GaussianGrid.build(dom, -8, 8, 0.1)
        bumps = [make_bump(dom, [-3.0, 0.0], 1.0, 0.5, label="b0")]
        result = contractivity_sweep(dom, grid, [10.0], [2.0], bumps,
                                     solver_tol=1e-14)
        # 1e-14 is below reachable CG accuracy at this conditioning
        assert any(not r.converged for r in result.records) or all(
            r.residual <= 1e-13 for r in result.records
        )
