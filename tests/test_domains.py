import numpy as np
import pytest

from oucontract.cli import build_domain
from oucontract.domains import (
    DegenerateLevelSetError,
    LevelSetDomain,
    ProjectionError,
    ball,
    curvature_audit,
    ellipsoid,
    gaussian_curvature,
    halfspace,
    mean_curvature,
    polynomial_domain,
    project_to_boundary,
)
from oucontract.wiener import (
    BM,
    BRIDGE,
    KLBasis,
    constant_epigraph,
    cylindrical_domain,
    epigraph_domain,
    gauss_ridge_epigraph,
    rational_reference_spec,
)


def boundary_of(dom, start, tol=None):
    return project_to_boundary(dom, np.asarray(start, dtype=float), tol_bd=tol)


class TestMeanCurvature:
    def test_halfspace_is_flat(self):
        dom = halfspace(2, 1.0)
        bp = boundary_of(dom, [0.0, 2.0])
        assert mean_curvature(dom, bp.x) == pytest.approx(0.0, abs=1e-12)

    @pytest.mark.parametrize("d", [2, 3])
    @pytest.mark.parametrize("radius", [0.5, 1.0, 2.0])
    def test_ball_matches_closed_form(self, d, radius):
        # grad G = 2x, lap G = 2d, D2G = 2I on |x| = R gives (d-1)/R
        dom = ball(d, radius)
        start = np.full(d, 2.0 * radius / np.sqrt(d))
        bp = boundary_of(dom, start)
        assert mean_curvature(dom, bp.x) == pytest.approx((d - 1) / radius, abs=1e-8)

    def test_ball_finite_difference_fallback(self):
        dom = LevelSetDomain(
            2, lambda p: np.sum(np.atleast_2d(p) ** 2, axis=-1) - 1.0, grad_floor=0.5
        )
        bp = boundary_of(dom, [3.0, 0.4])
        assert mean_curvature(dom, bp.x) == pytest.approx(1.0, abs=1e-5)

    def test_degenerate_gradient_rejected(self):
        dom = ball(2, 1.0)
        with pytest.raises(DegenerateLevelSetError):
            mean_curvature(dom, np.zeros(2))


class TestGaussianCurvature:
    @pytest.mark.parametrize("offset", [0.0, 1.0, 3.0])
    def test_halfspace_value_is_offset(self, offset):
        # H = 0 and <x, e1> = -offset on the boundary plane
        dom = halfspace(2, offset)
        for start in ([0.0, 0.5], [-5.0, -2.0], [1.0, 4.0]):
            bp = boundary_of(dom, start, tol=1e-13)
            assert gaussian_curvature(dom, bp.x) == pytest.approx(offset, abs=1e-10)

    @pytest.mark.parametrize("d,radius", [(2, 1.0), (2, 1.5), (3, 1.0)])
    def test_ball_value(self, d, radius):
        dom = ball(d, radius)
        bp = boundary_of(dom, np.full(d, 1.7 * radius))
        expected = (d - 1) / radius - radius
        assert gaussian_curvature(dom, bp.x) == pytest.approx(expected, abs=1e-8)

    def test_interval_endpoint_is_negative(self):
        # d = 1: the curvature term vanishes and Hgamma = -x nu = -R
        dom = ball(1, 1.5)
        bp = boundary_of(dom, [4.0])
        assert gaussian_curvature(dom, bp.x) == pytest.approx(-1.5, abs=1e-8)

    def test_rotation_invariance(self):
        rng = np.random.default_rng(11)
        dom = ellipsoid([1.0, 2.0, 0.7])
        for _ in range(5):
            q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
            # the image q(O): G(q^T x), row-vector convention in the batched G
            rot = LevelSetDomain(3, lambda x: dom.value(np.asarray(x) @ q),
                                 lambda x: q @ dom.gradient(q.T @ x),
                                 lambda x: q @ dom.hessian(q.T @ x) @ q.T)
            bp = boundary_of(dom, rng.standard_normal(3) * 0.2 + np.array([0.5, 0.5, 0.2]))
            x_rot = q @ bp.x
            assert mean_curvature(rot, x_rot) == pytest.approx(
                mean_curvature(dom, bp.x), abs=1e-8
            )
            assert gaussian_curvature(rot, x_rot) == pytest.approx(
                gaussian_curvature(dom, bp.x), abs=1e-8
            )


class TestProjection:
    def test_radial_projection_on_ball(self):
        dom = ball(2, 1.0)
        bp = boundary_of(dom, [2.0, 0.0])
        assert np.allclose(bp.x, [1.0, 0.0], atol=1e-9)
        assert np.linalg.norm(bp.nu) == pytest.approx(1.0, abs=1e-12)

    def test_halfspace_projection(self):
        dom = halfspace(2, 1.0)
        bp = boundary_of(dom, [0.0, 5.0])
        assert np.allclose(bp.x, [-1.0, 5.0], atol=1e-9)

    def test_epigraph_projection(self):
        dom = epigraph_domain(constant_epigraph(2.0), 2)
        bp = boundary_of(dom, [0.0, 0.0])
        assert bp.x[0] == pytest.approx(-2.0, abs=1e-9)

    def test_normal_points_outward(self):
        dom = ball(3, 1.2)
        bp = boundary_of(dom, [0.3, 0.1, 0.2])
        for t in (1e-6, 1e-4):
            assert dom.value(bp.x + t * bp.nu) > 0

    def test_projection_tolerance_respected(self):
        dom = ball(2, 1.0)
        bp = boundary_of(dom, [2.0, 1.0])
        assert abs(dom.value(bp.x)) <= 1e-10 * (1 + abs(dom.value(np.array([2.0, 1.0]))))

    def test_no_boundary_raises(self):
        whole = LevelSetDomain(1, lambda p: np.atleast_2d(p)[..., 0] * 0.0 - 1.0,
                               grad=lambda x: np.array([1e-6]))
        # G is constant -1: Newton steps a long way each time but never moves G
        with pytest.raises(ProjectionError):
            project_to_boundary(whole, np.array([0.0]))

    @pytest.mark.parametrize("dom", [
        *(cylindrical_domain(rational_reference_spec(kind, r=-0.75), KLBasis.build(kind, m))
          for kind in (BM, BRIDGE) for m in (2, 3)),
        epigraph_domain(gauss_ridge_epigraph(2.0, 0.5, [1.0, 0.0]), 3),
    ], ids=["reference-bm-m2", "reference-bm-m3", "reference-bridge-m2",
            "reference-bridge-m3", "gauss-ridge-m3"])
    def test_nonlinear_shipped_domains_project_every_draw(self, dom):
        # the nonlinear level functions the wiener suite audits: every draw
        # lands on |G| <= 1e-3 * tol_bd, where Newton stops, with a unit normal
        for seed in (1, 2, 3):
            for z in np.random.default_rng(seed).standard_normal((48, dom.dim)):
                bp = project_to_boundary(dom, z)
                assert abs(dom.value(bp.x)) <= 1e-3 * 1e-10 * (1.0 + abs(dom.value(z)))
                assert np.linalg.norm(bp.nu) == pytest.approx(1.0, abs=1e-12)


class TestCurvatureAudit:
    def test_small_ball_nonnegative(self):
        audit = curvature_audit(ball(2, 0.9), 60, np.random.default_rng(3))
        assert audit.ok and not audit.failures
        assert audit.min_h_gamma == pytest.approx(1 / 0.9 - 0.9, abs=1e-9)

    def test_large_ball_all_violations(self):
        audit = curvature_audit(ball(2, 1.5), 40, np.random.default_rng(4))
        assert not audit.ok
        assert np.all(audit.values < 0.0) and audit.values.size == 40
        assert audit.min_h_gamma == pytest.approx(1 / 1.5 - 1.5, abs=1e-9)
        # numerator 0: the bound is Hgamma >= 0, so the slack is Hgamma bit for bit
        assert audit.min_bound_slack == audit.min_h_gamma

    def test_halfspace_through_origin(self):
        audit = curvature_audit(halfspace(2, 0.0), 40, np.random.default_rng(5),
                                tol=1e-12)
        assert audit.ok
        assert audit.min_h_gamma == pytest.approx(0.0, abs=1e-10)

    @pytest.mark.parametrize("numerator,ok", [(0.5, True), (1.5, False)])
    def test_analytic_bound_on_halfspace(self, numerator, ok):
        # Hgamma = 1 and |grad G| = 1 on {x_1 < -1}: the slack is 1 - numerator,
        # so the bound holds at 0.5 and fails at 1.5 with every Hgamma >= 0
        audit = curvature_audit(halfspace(2, 1.0), 12, np.random.default_rng(7),
                                numerator=numerator)
        assert audit.min_h_gamma == pytest.approx(1.0, abs=1e-12)
        assert audit.min_bound_slack == pytest.approx(1.0 - numerator, abs=1e-12)
        assert audit.ok is ok

    def test_needs_a_sample(self):
        with pytest.raises(ValueError, match="n_samples"):
            curvature_audit(ball(2, 0.9), 0, np.random.default_rng(3))

    @pytest.mark.parametrize("a,b", [(1.0, 0.6), (2.0, 0.5)])
    def test_ellipse_matches_closed_form(self, a, b):
        # every draw, inside or outside the ellipse, projects onto it, and
        # Hgamma there matches the closed form
        dom = ellipsoid([a, b])
        for seed in range(6, 12):
            audit = curvature_audit(dom, 200, np.random.default_rng(seed))
            assert np.max(np.abs(dom.value(audit.points))) <= 1e-8
            x, y = audit.points.T
            t = np.arctan2(y / b, x / a)
            kappa = a * b / (a**2 * np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
            h_gamma = kappa - 1.0 / np.sqrt(x**2 / a**4 + y**2 / b**4)
            assert np.max(np.abs(audit.values - h_gamma)) <= 1e-6

    @pytest.mark.parametrize("b", [0.25, 0.1])
    def test_thin_ellipse_projects_every_draw(self, b):
        # even on so thin an ellipse every draw reaches 1e-3 * tol_bd, where
        # Newton on G stops
        dom = ellipsoid([1.0, b])
        draws = np.random.default_rng(6).standard_normal((200, 2))
        audit = curvature_audit(dom, 200, np.random.default_rng(6))
        tol_bd = 1e-10 * (1.0 + np.abs(dom.value(draws)))
        assert np.all(np.abs(dom.value(audit.points)) <= 1e-3 * tol_bd)
        x, y = audit.points.T
        t = np.arctan2(y / b, x)
        kappa = b / (np.sin(t) ** 2 + b**2 * np.cos(t) ** 2) ** 1.5
        h_gamma = kappa - 1.0 / np.sqrt(x**2 + y**2 / b**4)
        assert np.max(np.abs(audit.values - h_gamma) / np.maximum(1.0, h_gamma)) <= 1e-6

    def test_ellipsoid_in_3d_projects_every_draw(self):
        dom = ellipsoid([1.0, 2.0, 0.7])
        for seed in range(6, 12):
            audit = curvature_audit(dom, 200, np.random.default_rng(seed))
            assert np.max(np.abs(dom.value(audit.points))) <= 1e-8

    def test_points_on_the_ray_of_each_draw(self):
        # on a ball the projection of a draw z is the radial point R z/|z|,
        # where grad G = 2x
        draws = np.random.default_rng(8).standard_normal((12, 3))
        audit = curvature_audit(ball(3, 0.8), 12, np.random.default_rng(8))
        radial = 0.8 * draws / np.linalg.norm(draws, axis=1, keepdims=True)
        assert np.allclose(audit.points, radial, atol=1e-9)
        assert np.array_equal(audit.grads, 2.0 * audit.points)
        assert np.allclose(audit.values, 2 / 0.8 - 0.8, atol=1e-9)


class TestDerivativeFallbacks:
    def test_fd_gradient_matches_analytic(self):
        analytic = ellipsoid([1.0, 0.8, 1.3])
        numeric = LevelSetDomain(3, analytic.g, grad_floor=analytic.grad_floor)
        rng = np.random.default_rng(0)
        for _ in range(10):
            x = rng.standard_normal(3)
            assert np.allclose(numeric.gradient(x), analytic.gradient(x),
                               rtol=1e-6, atol=1e-7)

    def test_fd_hessian_matches_analytic(self):
        analytic = ball(2, 1.0)
        numeric = LevelSetDomain(2, analytic.g, grad_floor=analytic.grad_floor)
        x = np.array([0.4, -0.3])
        assert np.allclose(numeric.hessian(x), analytic.hessian(x), atol=1e-5)


class TestMonotoneAxis:
    def test_declared_by_halfspace_and_epigraph_only(self):
        zero = lambda xp: np.zeros(np.atleast_2d(xp).shape[0])
        assert [halfspace(3, 1.0, axis=a).monotone_axis for a in range(3)] == [0, 1, 2]
        assert epigraph_domain(constant_epigraph(0.0), 2).monotone_axis == 0
        for dom in (ball(2, 1.0), ellipsoid([1.0, 2.0]),
                    polynomial_domain(2, [(1.0, (1, 0))]), LevelSetDomain(2, zero)):
            assert dom.monotone_axis is None


class TestDomainSpecs:
    def test_halfspace_roundtrip(self):
        dom = build_domain(
            {"type": "halfspace", "dim": 2, "parameters": {"offset": 2.0}}
        )
        assert dom.contains([-3.0, 0.0])
        assert not dom.contains([0.0, 0.0])

    def test_polynomial_domain_matches_ball(self):
        spec = {
            "type": "polynomial",
            "dim": 2,
            "parameters": {
                "terms": [
                    {"coeff": 1.0, "powers": [2, 0]},
                    {"coeff": 1.0, "powers": [0, 2]},
                    {"coeff": -1.0, "powers": [0, 0]},
                ]
            },
        }
        dom = build_domain(spec)
        ref = ball(2, 1.0)
        rng = np.random.default_rng(1)
        pts = rng.standard_normal((20, 2))
        assert np.allclose(dom.value(pts), ref.value(pts), atol=1e-12)
        x = np.array([0.3, -0.7])
        assert np.allclose(dom.gradient(x), ref.gradient(x), atol=1e-12)
        assert np.allclose(dom.hessian(x), ref.hessian(x), atol=1e-12)

    def test_polynomial_domain_hessian_cross_terms(self):
        dom = polynomial_domain(2, [(1.0, (1, 1))])  # G = x y
        x = np.array([2.0, 3.0])
        assert np.allclose(dom.gradient(x), [3.0, 2.0])
        assert np.allclose(dom.hessian(x), [[0.0, 1.0], [1.0, 0.0]])

    def test_polynomial_domain_mixed_cubic(self):
        # G = x^2 y + 3 y z^3 - 2, derivatives written out by hand
        dom = polynomial_domain(3, [(1.0, (2, 1, 0)), (3.0, (0, 1, 3)), (-2.0, (0, 0, 0))])
        x, y, z = 0.7, -1.3, 1.1
        pt = np.array([x, y, z])
        assert dom.value(pt) == pytest.approx(x * x * y + 3 * y * z**3 - 2, rel=1e-14)
        assert np.allclose(dom.gradient(pt), [2 * x * y, x * x + 3 * z**3, 9 * y * z * z],
                           rtol=1e-14, atol=0.0)
        assert np.allclose(dom.hessian(pt), [[2 * y, 2 * x, 0.0],
                                             [2 * x, 0.0, 9 * z * z],
                                             [0.0, 9 * z * z, 18 * y * z]],
                           rtol=1e-14, atol=0.0)

    def test_unknown_type_rejected(self):
        with pytest.raises(ValueError):
            build_domain({"type": "torus", "dim": 3, "parameters": {}})
