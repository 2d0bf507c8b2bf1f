import dataclasses
import math

import numpy as np
import pytest

from oucontract import wiener
from oucontract.wiener import (
    BM,
    BRIDGE,
    KLBasis,
    affine_level_spec,
    basel_partial_sum,
    constant_epigraph,
    cylindrical_curvature_audit,
    cylindrical_domain,
    epigraph_curvature_audit,
    gauss_ridge_epigraph,
    pathwise_level_value,
    rational_reference_spec,
    resolvent_convergence_study,
    trace_density,
    validate_functional,
)
from oucontract.domains import gaussian_curvature, project_to_boundary


def rational_spec(num, den=(1.0,), **constants):
    """A FunctionalSpec whose profile g is the rational function num/den."""
    g, gp, gpp = wiener._rational_funcs(num, den)
    return wiener.FunctionalSpec(g, gp, gpp, **constants)


class TestSeries:
    def test_basel_first_term(self):
        assert basel_partial_sum(1) == 4.0

    def test_basel_limit(self):
        assert abs(basel_partial_sum(1000) - math.pi**2 / 2) <= 2e-3

    def test_basel_monotone_bounded(self):
        prev = 0.0
        for m in (1, 5, 50, 500):
            val = basel_partial_sum(m)
            assert val > prev
            assert val < math.pi**2 / 2
            prev = val

    def test_trace_density_empty_sum(self):
        assert trace_density(0.37, 0, BM) == 0.0

    def test_bm_trace_integral(self):
        s, w = wiener.composite_gauss_legendre(200)
        f200 = trace_density(s, 200, BM)
        assert abs(float(f200 @ w) - 0.5) <= 1e-3

    def test_bm_trace_integral_increases_with_m(self):
        s, w = wiener.composite_gauss_legendre(256)
        vals = [float(trace_density(s, m, BM) @ w) for m in (10, 50, 200)]
        assert vals[0] < vals[1] < vals[2] < 0.5

    def test_bridge_trace_limit(self):
        s = np.linspace(0, 1, 101)
        sup_err = np.max(np.abs(trace_density(s, 500, BRIDGE) - (s - s * s)))
        assert sup_err <= 2e-3
        assert trace_density(0.5, 500, BRIDGE) == pytest.approx(0.25, abs=1e-3)


class TestKLBasis:
    def test_unknown_kind_is_rejected(self):
        with pytest.raises(ValueError, match="unknown basis kind 'bm'"):
            KLBasis.build("bm", 2)
        with pytest.raises(ValueError, match="unknown basis kind 'bm'"):
            trace_density(0.5, 3, "bm")

    @pytest.mark.parametrize("m", [3, 40])
    def test_build_takes_max_16_m_panels(self, m):
        # suite_wiener takes this s-quadrature from composite_gauss_legendre
        s, w = wiener.composite_gauss_legendre(max(16, m))
        basis = KLBasis.build(BM, m)
        assert basis.s_weights.tobytes() == w.tobytes()
        freq = (np.arange(1, m + 1) - 0.5) * math.pi
        h = math.sqrt(2.0) / freq[:, None] * np.sin(freq[:, None] * s)
        assert np.max(np.abs(basis.h_table - h)) < 1e-14
        assert trace_density(s, m, BM).tobytes() == np.sum(basis.h_table**2, axis=0).tobytes()

    @pytest.mark.parametrize("kind", [BM, BRIDGE])
    def test_orthonormal_in_h(self, kind):
        s, w = wiener.composite_gauss_legendre(16)  # KLBasis.build(kind, 8)'s rule
        # h_i' = sqrt(2) cos(s / sqrt(lambda_i)); <h_i, h_j>_H = integral h_i' h_j' ds
        hp = math.sqrt(2.0) * np.cos(wiener._kl_frequencies(kind, 8)[:, None] * s)
        gram = (hp * w) @ hp.T
        assert np.max(np.abs(gram - np.eye(8))) < 1e-10

    @pytest.mark.parametrize("kind", [BM, BRIDGE])
    def test_sup_norm_bounded_by_h_norm(self, kind):
        basis = KLBasis.build(kind, 6)
        rng = np.random.default_rng(3)
        for _ in range(10):
            c = rng.standard_normal(6)
            path = c @ basis.h_table
            assert np.max(np.abs(path)) <= np.linalg.norm(c) * (1 + 1e-9)

    def test_quadrature_refinement_stable(self):
        # polynomial profile: doubling s-nodes moves G_m by < 1e-10
        spec = rational_spec([0.0, 1.0, 0.0, 0.02], c=0.5, alpha1=1.0, alpha2=3.2,
                             beta1=-1.0, beta2=1.0, r=-1.0, gpp_sup=3.0)
        xi = np.array([0.7, -0.3])
        vals = []
        for panels in (16, 32):
            s, w = wiener.composite_gauss_legendre(panels)
            basis = KLBasis(2, w, wiener._kl_table(BM, 2, s))
            vals.append(pathwise_level_value(spec, basis, xi))
        assert abs(vals[0] - vals[1]) < 1e-10


class TestFunctionalValidation:
    def test_affine_accepted(self):
        assert validate_functional(affine_level_spec(r=-1.0)).ok

    def test_affine_wrong_level_rejected(self):
        report = validate_functional(affine_level_spec(r=1.0))
        assert not report.ok
        assert "threshold" in report.failures

    def test_envelope_violation_carries_witness(self):
        # alpha2 = 1 cannot envelope xi g' for g = xi + xi^3/100
        spec = rational_spec([0.0, 1.0, 0.0, 0.01], c=0.5, alpha1=1.0, alpha2=1.0,
                             beta1=-1.0, beta2=1.0, r=-2.0, gpp_sup=2.0)
        report = validate_functional(spec)
        assert not report.ok
        assert "envelope_upper" in report.failures
        assert "envelope_upper" in report.witness

    def test_rational_spec_from_coefficients(self):
        # the shipped rational profile, rebuilt from its coefficients, is valid
        fspec = rational_spec([0.0, -0.5, 0.0, -1.0], [1.0, 0.0, 1.0], c=0.5, alpha1=1.0,
                              alpha2=1.0, beta1=-0.33, beta2=0.33, r=-0.75, gpp_sup=0.75)
        assert validate_functional(fspec).ok
        ref = rational_reference_spec()
        xi = np.linspace(-3, 3, 11)
        assert np.allclose(fspec.g(xi), ref.g(xi))

    def test_reference_specs_accepted(self):
        assert validate_functional(rational_reference_spec(kind=BM)).ok
        assert validate_functional(rational_reference_spec(kind=BRIDGE)).ok

    def test_rational_derivatives_consistent(self):
        spec = rational_reference_spec()
        xi = np.linspace(-5, 5, 101)
        h = 1e-5
        gp_fd = (spec.g(xi + h) - spec.g(xi - h)) / (2 * h)
        gpp_fd = (spec.g(xi + h) - 2 * spec.g(xi) + spec.g(xi - h)) / h**2
        assert np.max(np.abs(spec.gp(xi) - gp_fd)) < 1e-8
        assert np.max(np.abs(spec.gpp(xi) - gpp_fd)) < 1e-4


SHIPPED_SPECS = {
    "affine": lambda: affine_level_spec(),
    "reference_bm": lambda: rational_reference_spec(kind=BM),
    "poly": lambda: rational_spec([0.0, 1.0, 0.0, 0.01], c=0.5, alpha1=1.0, alpha2=1.0,
                                  beta1=-1.0, beta2=1.0, r=-2.0, gpp_sup=2.0),
}


@pytest.mark.parametrize("name", sorted(SHIPPED_SPECS))
def test_horner_gives_the_bits_of_polyval(name, monkeypatch):
    spec = SHIPPED_SPECS[name]()
    xi = np.arange(wiener._VALIDATION_LO, wiener._VALIDATION_HI + 0.5 * wiener._VALIDATION_STEP,
                   wiener._VALIDATION_STEP)
    rng = np.random.default_rng(3)
    paths = 3.0 * rng.standard_normal((64, 4)) @ KLBasis.build(BM, 4).h_table
    inputs = (xi, paths, -0.37, np.float64(2.5))
    funcs = (spec.g, spec.gp, spec.gpp)
    got = [f(x) for x in inputs for f in funcs]
    monkeypatch.setattr(wiener, "_horner", np.polynomial.polynomial.polyval)
    want = [f(x) for x in inputs for f in funcs]
    for a, b in zip(got, want):
        assert type(a) is type(b) and np.shape(a) == np.shape(b)
        assert np.asarray(a).tobytes() == np.asarray(b).tobytes()


class TestCylindricalDomain:
    def test_affine_level_closed_form(self):
        # G(e1) = int h_1 ds - r = 4 sqrt(2)/pi^2 - r
        basis = KLBasis.build(BM, 2)
        spec = affine_level_spec(r=-1.0)
        expected = 4 * math.sqrt(2) / math.pi**2 + 1.0
        assert pathwise_level_value(spec, basis, np.array([1.0, 0.0])) == pytest.approx(
            expected, abs=1e-12
        )

    def test_zero_path_value(self):
        basis = KLBasis.build(BM, 3)
        spec = rational_reference_spec()
        assert pathwise_level_value(spec, basis, np.zeros(3)) == pytest.approx(
            float(spec.g(0.0)) - spec.r, abs=1e-12
        )

    def test_analytic_gradient_matches_fd(self):
        basis = KLBasis.build(BM, 3)
        dom = cylindrical_domain(rational_reference_spec(), basis)
        rng = np.random.default_rng(5)
        xi = rng.standard_normal(3)
        g0 = dom.gradient(xi)
        h = 1e-6
        for i in range(3):
            e = np.zeros(3)
            e[i] = h
            fd = (dom.value(xi + e) - dom.value(xi - e)) / (2 * h)
            assert g0[i] == pytest.approx(fd, abs=1e-8)

    def test_invalid_spec_rejected_at_build(self):
        basis = KLBasis.build(BM, 2)
        with pytest.raises(ValueError, match="rejected"):
            cylindrical_domain(affine_level_spec(r=1.0), basis)


class TestCurvatureAudits:
    def test_affine_reduces_to_halfspace(self):
        basis = KLBasis.build(BM, 2)
        spec = affine_level_spec(r=-1.0)
        dom = cylindrical_domain(spec, basis)
        rng = np.random.default_rng(0)
        for _ in range(5):
            bp = project_to_boundary(dom, rng.standard_normal(2))
            # flat level set: Hgamma = -<x, nu> = distance of the plane
            assert gaussian_curvature(dom, bp.x) == pytest.approx(1.7341, abs=1e-3)

    @pytest.mark.parametrize("name,factory", [
        ("affine", lambda: affine_level_spec(r=-1.0)),
        ("bm", rational_reference_spec),
        ("bridge", lambda: rational_reference_spec(kind=BRIDGE)),
    ])
    def test_shipped_specs_pass_audit(self, name, factory):
        spec = factory()
        basis = KLBasis.build(spec.kind, 2)
        audit = cylindrical_curvature_audit(spec, basis, 32, seed=2, tol=1e-6)
        assert audit.ok
        assert audit.min_h_gamma >= -1e-6
        assert audit.failures == []

    def test_audit_below_slope_floor_fails(self, monkeypatch):
        # the affine profile g = xi has |dG/dxi_1| = int h_1 ds exactly; a spec
        # declaring c = 2 (accepted by a patched validation) puts the floor at
        # twice that, so only the slope-floor premise fails
        spec = dataclasses.replace(affine_level_spec(r=-1.0), c=2.0)
        monkeypatch.setattr(wiener, "validate_functional",
                            lambda s: wiener.ValidationReport(True, [], {}))
        basis = KLBasis.build(BM, 2)
        audit = cylindrical_curvature_audit(spec, basis, 32, seed=2)
        slope = np.min(np.abs(audit.grads[:, 0]))
        assert 0.0 < slope < 2.0 * basis.h1_integral() - audit.tol
        assert min(audit.min_h_gamma, audit.min_bound_slack) >= -audit.tol
        assert audit.failures == ["first_coord_floor"]
        assert not audit.ok

    def test_audit_at_max_truncation(self):
        basis = KLBasis.build(BM, 4)
        audit = cylindrical_curvature_audit(rational_reference_spec(), basis,
                                            16, seed=9)
        assert audit.ok

    def test_audit_truncation_cap(self):
        basis = KLBasis.build(BM, 5)
        with pytest.raises(ValueError, match="m <= 4"):
            cylindrical_curvature_audit(rational_reference_spec(), basis, 4, seed=0)

    def test_epigraph_constant_levels(self):
        for c, m in ((2.0, 3), (0.0, 2)):
            audit = epigraph_curvature_audit(constant_epigraph(c), m, 24, seed=4)
            assert audit.ok
            assert audit.min_h_gamma == pytest.approx(c, abs=1e-8)

    def test_epigraph_gauss_ridge(self):
        spec = gauss_ridge_epigraph(2.0, 0.5, [1.0, 0.0])
        audit = epigraph_curvature_audit(spec, 3, 24, seed=4)
        assert audit.ok
        assert audit.min_bound_slack >= -1e-6

    def test_epigraph_margin_guard(self):
        with pytest.raises(ValueError, match="constants violate"):
            gauss_ridge_epigraph(0.5, 1.0, [1.0])

    def test_epigraph_false_constants_rejected(self):
        spec = gauss_ridge_epigraph(2.0, 0.5, [1.0, 0.0])
        lying = type(spec)(spec.phi, spec.phi_grad, spec.phi_hess,
                           C=3.0, C1=spec.C1, C2=spec.C2, C3=spec.C3)
        audit = epigraph_curvature_audit(lying, 3, 24, seed=4)
        assert not audit.ok
        assert "phi_floor" in audit.failures

    def test_epigraph_negative_margin_fails(self):
        # Phi = -1 gives the halfspace {xi_1 < 1}, where Hgamma = -1 everywhere;
        # the boundary is still sampled, so the failing audit reports it
        audit = epigraph_curvature_audit(constant_epigraph(-1.0), 2, 8, seed=4)
        assert audit.failures == ["margin"]
        assert not audit.ok
        assert audit.min_h_gamma == pytest.approx(-1.0, abs=1e-10)


class TestConvergenceStudy:
    def test_cylindrical_family_gives_vanishing_differences(self):
        # a first-coordinate-cylindrical domain solves the same 1-D
        # problem at every truncation: differences sit at solver accuracy
        from oucontract.domains import halfspace

        spec = affine_level_spec(r=-1.0)
        rows = resolvent_convergence_study(
            spec, 1.0, dims=(1,), bump_center=-3.2, bump_radius=1.0,
            box=6.0, h=0.1, gh_nodes=16,
            domain_for=lambda n: halfspace(n, 1.75),
        )
        assert rows[0].d_l2 <= 1e-6
        assert rows[0].d_grad <= 1e-5

    def test_reference_spec_rows_finite(self):
        spec = rational_reference_spec()
        rows = resolvent_convergence_study(
            spec, 1.0, dims=(1,), bump_center=3.2, bump_radius=1.0,
            box=6.0, h=0.15, gh_nodes=12,
        )
        assert rows[0].finite()

    def test_identity_limit_small(self):
        spec = rational_reference_spec()
        rows = resolvent_convergence_study(
            spec, 1e-4, dims=(1,), bump_center=3.2, bump_radius=1.0,
            box=6.0, h=0.15, gh_nodes=12,
        )
        assert rows[0].d_l2 <= 0.02

    def test_deterministic(self):
        spec = rational_reference_spec()
        kwargs = dict(dims=(1,), bump_center=3.2, bump_radius=1.0,
                      box=5.0, h=0.2, gh_nodes=10)
        a = resolvent_convergence_study(spec, 1.0, **kwargs)
        b = resolvent_convergence_study(spec, 1.0, **kwargs)
        assert a[0].d_l2 == b[0].d_l2
        assert a[0].d_grad == b[0].d_grad

    def test_sigma_list_equals_scalar_calls(self):
        spec = rational_reference_spec()
        kwargs = dict(dims=(1,), bump_center=3.2, bump_radius=1.0,
                      box=5.0, h=0.2, gh_nodes=10)
        sigmas = [1.0, 0.1, 1e-4]
        rows = resolvent_convergence_study(spec, sigmas, **kwargs)
        expected = [row for s in sigmas
                    for row in resolvent_convergence_study(spec, s, **kwargs)]
        assert [(r.sigma, r.n) for r in rows] == [(s, 1) for s in sigmas]
        assert rows == expected


class TestCylindricalClassification:
    def test_interior_mask_matches_pathwise_sign(self):
        # bisected along xi_1 as declared, and scanned node by node: 11^3
        # nodes are not a multiple of the evaluation block, so the scan
        # crosses block boundaries and ends on a partial block
        from oucontract.grid import GaussianGrid
        from oucontract.wiener import _EVAL_CHUNK

        spec = rational_reference_spec()
        basis = KLBasis.build(spec.kind, 3)
        dom = cylindrical_domain(spec, basis)
        assert dom.monotone_axis == 0
        for axis in (0, None):
            grid = GaussianGrid.build(dataclasses.replace(dom, monotone_axis=axis),
                                      -3.0, 3.0, 0.6)
            assert grid.n_nodes > _EVAL_CHUNK and grid.n_nodes % _EVAL_CHUNK != 0
            ref = np.array([pathwise_level_value(spec, basis, x)
                            for x in grid.node_coordinates()])
            assert np.min(np.abs(ref)) > 1e-9  # no node on the boundary
            assert 0 < grid.n_interior < grid.n_nodes
            assert np.array_equal(grid.interior.reshape(-1), ref < 0.0)

    def test_no_slope_floor_makes_no_monotone_claim(self):
        spec = dataclasses.replace(affine_level_spec(r=-1.0), c=0.0)
        assert cylindrical_domain(spec, KLBasis.build(BM, 2)).monotone_axis is None
