"""Acceptance suite: one test per criterion, one printed verdict line each.

Every tolerance is pinned here, not computed; the configurations are the
shipped CLI defaults so a CLI run and this suite exercise the same jobs.
"""

import json
import math
import time

import numpy as np
import pytest

from oucontract.cli import (
    DEFAULT_CONFIGS,
    DEFAULT_SEED,
    build_domain,
    main,
    suite_oracle,
)
from oucontract.contract import (
    boundary_flux_integral,
    check_pointwise_inequality,
    contractivity_sweep,
    default_contract_tol,
    make_bump,
)
from oucontract.domains import ball, gaussian_curvature, halfspace, mean_curvature, project_to_boundary
from oucontract.gauss import hermite_poly
from oucontract.grid import GaussianGrid, ScalarField
from oucontract.solver import ResolventJob, solve_resolvent
from oucontract.wiener import (
    BRIDGE,
    BM,
    KLBasis,
    affine_level_spec,
    basel_partial_sum,
    composite_gauss_legendre,
    constant_epigraph,
    cylindrical_curvature_audit,
    epigraph_curvature_audit,
    gauss_ridge_epigraph,
    rational_reference_spec,
    resolvent_convergence_study,
    trace_density,
    validate_functional,
)

ORACLE_WINDOW = 3.5  # |x| window for whole-box Hermite comparisons


def verdict(criterion: int, ok: bool, detail: str) -> None:
    print(f"[acceptance] criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {criterion} failed: {detail}"


def _sweep_setup(sweep_cfg):
    dom = build_domain(sweep_cfg["domain"])
    g = sweep_cfg["grid"]
    grid = GaussianGrid.build(dom, g["lo"], g["hi"], g["h"])
    bumps = [
        make_bump(dom, b["center"], b["radius"], b["margin"], label=f"bump{i}")
        for i, b in enumerate(sweep_cfg["bumps"])
    ]
    return dom, grid, bumps


@pytest.fixture(scope="module")
def contract_setups():
    """Domains, default grids, bumps and solved sweeps for criteria 4-6."""
    out = {}
    for sweep_cfg in DEFAULT_CONFIGS["contract"]["sweeps"]:
        dom, grid, bumps = _sweep_setup(sweep_cfg)
        result = contractivity_sweep(
            dom, grid, sweep_cfg["sigmas"], sweep_cfg["ps"], bumps, solver_tol=1e-10
        )
        out[sweep_cfg["name"]] = {
            "cfg": sweep_cfg,
            "dom": dom,
            "grid": grid,
            "bumps": bumps,
            "result": result,
        }
    return out


def test_criterion_1_curvature_oracles():
    worst = 0.0
    for d in (2, 3):
        for radius in (0.5, 1.0, 2.0):
            dom = ball(d, radius)
            bp = project_to_boundary(dom, np.full(d, 1.9 * radius), tol_bd=1e-13)
            worst = max(worst, abs(mean_curvature(dom, bp.x) - (d - 1) / radius))
            assert abs(mean_curvature(dom, bp.x) - (d - 1) / radius) <= 1e-8
            hg = gaussian_curvature(dom, bp.x)
            assert abs(hg - ((d - 1) / radius - radius)) <= 1e-8
    for offset in (0.0, 1.0, 3.0):
        dom = halfspace(2, offset)
        for start in np.random.default_rng(101).standard_normal((5, 2)):
            bp = project_to_boundary(dom, start, tol_bd=1e-13)
            assert abs(gaussian_curvature(dom, bp.x) - offset) <= 1e-10
    verdict(1, True, f"ball/halfspace curvature identities, worst ball dev {worst:.1e}")


def test_criterion_2_solver_eigen_oracle():
    t0 = time.time()
    errors = {}
    for h in (0.02, 0.01):
        grid = GaussianGrid.build(None, -8, 8, h, dim=1)
        x = grid.node_coordinates()[:, 0]
        window = np.abs(x) <= ORACLE_WINDOW
        for k in (1, 2, 3):
            rhs = ScalarField.from_callable(grid, lambda p: hermite_poly(k, p[:, 0]))
            for sigma in (0.5, 1.0, 2.0):
                sol = solve_resolvent(ResolventJob(grid, sigma, rhs), tol=1e-12)
                exact = hermite_poly(k, x) / (1.0 + sigma * k)
                errors[(h, k, sigma)] = float(
                    np.max(np.abs(sol.u.flat()[window] - exact[window]))
                )
    elapsed = time.time() - t0
    worst = max(errors[(0.02, k, s)] for k in (1, 2, 3) for s in (0.5, 1.0, 2.0))
    assert worst <= 1e-3
    worst_ratio = min(
        errors[(0.02, k, s)] / errors[(0.01, k, s)] for k in (1, 2, 3) for s in (0.5, 1.0, 2.0)
    )
    assert worst_ratio >= 1.8
    assert elapsed < 10.0
    verdict(2, True, f"max err {worst:.2e} <= 1e-3, h-halving ratio >= {worst_ratio:.2f}, "
                     f"{elapsed:.1f}s")


def test_criterion_3_cross_oracle_agreement():
    t0 = time.time()
    rep = suite_oracle(DEFAULT_CONFIGS["oracle"], DEFAULT_SEED)
    elapsed = time.time() - t0
    worst = max(r.observed / r.bound for r in rep.records)
    for rec in rep.records:
        assert rec.passed, f"{rec.name}: |diff| {rec.observed:.2e} > 3se {rec.bound:.2e}"
    assert elapsed < 120.0
    verdict(3, True, f"{len(rep.records)} probes within 3 SE "
                     f"(worst |diff|/3se = {worst:.2f}), {elapsed:.0f}s")


def test_criterion_4_gradient_contractivity(contract_setups):
    t0 = time.time()
    n_checked = 0
    worst_ratio = 0.0
    for name, setup in contract_setups.items():
        h = float(np.max(setup["grid"].h))
        tol = default_contract_tol(h)
        coarse_excess = {}
        for rec in setup["result"].records:
            assert rec.converged, f"{name} sigma={rec.sigma} did not converge"
            if rec.p > 1.0:
                assert rec.ratio <= 1.0 + tol, (
                    f"{name} {rec.bump} sigma={rec.sigma} p={rec.p}: "
                    f"ratio {rec.ratio:.4f} > 1 + {tol}"
                )
                n_checked += 1
                worst_ratio = max(worst_ratio, rec.ratio)
            coarse_excess[(rec.bump, rec.sigma, rec.p)] = rec.ratio - 1.0

        cfg = setup["cfg"]
        fine_grid = GaussianGrid.build(
            setup["dom"], cfg["grid"]["lo"], cfg["grid"]["hi"], cfg["grid"]["h"] / 2.0
        )
        fine = contractivity_sweep(
            setup["dom"], fine_grid, cfg["sigmas"], cfg["ps"], setup["bumps"],
            solver_tol=1e-10,
        )
        for rec in fine.records:
            ex0 = coarse_excess[(rec.bump, rec.sigma, rec.p)]
            if ex0 > 1e-6 and rec.p > 1.0 and rec.converged:
                assert rec.ratio - 1.0 <= ex0 / 2.0 + 1e-9, (
                    f"{name} {rec.bump} sigma={rec.sigma} p={rec.p}: excess "
                    f"{rec.ratio - 1.0:.2e} did not halve from {ex0:.2e}"
                )
    elapsed = time.time() - t0
    assert elapsed < 300.0
    verdict(4, True, f"{n_checked} ratios <= 1 + max(0.02, 10h), worst {worst_ratio:.4f}; "
                     f"excess-halving verified, {elapsed:.0f}s")


def test_criterion_5_lemma_suite(contract_setups):
    eps = 1e-3
    n_pw = n_flux = 0
    for name, setup in contract_setups.items():
        grid = setup["grid"]
        h = float(np.max(grid.h))
        cfg = setup["cfg"]
        bump_by_label = {b.label: b for b in setup["bumps"]}
        for (sigma, label), sol in setup["result"].solutions.items():
            bump = bump_by_label[label]
            pw = check_pointwise_inequality(sol.u, bump, sigma, eps, 5.0 * h)
            assert pw.ok, (
                f"{name} {label} sigma={sigma}: {len(pw.violations)} pointwise "
                f"violations, worst excess {pw.worst_excess:.3e}"
            )
            n_pw += 1
            # p = 1 is informational, never asserted
            ps = [p for p in cfg["ps"] if p > 1.0]
            for p, val in zip(ps, boundary_flux_integral(sol.u, eps, ps)):
                assert val <= 20.0 * h, (
                    f"{name} {label} sigma={sigma} p={p}: flux integral {val:.3e}"
                )
                n_flux += 1
    verdict(5, True, f"{n_pw} pointwise checks clean (tol 5h), "
                     f"{n_flux} flux integrals <= 20h")


def test_criterion_6_sigma_zero_identity(contract_setups):
    lo, hi = 0.9, 1.02
    worst_lo, worst_hi = 1.0, 1.0
    for name, setup in contract_setups.items():
        cfg = setup["cfg"]
        zero = contractivity_sweep(
            setup["dom"], setup["grid"], [1e-4], cfg["ps"], setup["bumps"],
            solver_tol=1e-10,
        )
        for rec in zero.records:
            if rec.p <= 1.0:
                continue  # informational route, never asserted
            assert rec.converged
            assert lo <= rec.ratio <= hi, (
                f"{name} {rec.bump} p={rec.p}: sigma->0 ratio {rec.ratio:.4f}"
            )
            worst_lo = min(worst_lo, rec.ratio)
            worst_hi = max(worst_hi, rec.ratio)
    verdict(6, True, f"sigma=1e-4 ratios within [{worst_lo:.3f}, {worst_hi:.3f}] "
                     f"subset of [0.9, 1.02]")


def test_criterion_7_series_identities():
    t0 = time.time()
    basel_err = abs(basel_partial_sum(1000) - math.pi**2 / 2.0)
    assert basel_err <= 2e-3

    nodes, weights = composite_gauss_legendre(200)
    integral = float(trace_density(nodes, 200, BM) @ weights)
    assert abs(integral - 0.5) <= 1e-3

    s = np.linspace(0.0, 1.0, 101)
    sup_err = float(np.max(np.abs(trace_density(s, 500, BRIDGE) - (s - s * s))))
    assert sup_err <= 2e-3
    elapsed = time.time() - t0
    assert elapsed < 5.0
    verdict(7, True, f"basel err {basel_err:.1e}, trace integral err "
                     f"{abs(integral - 0.5):.1e}, bridge sup err {sup_err:.1e}, "
                     f"{elapsed:.1f}s")


def test_criterion_8_curvature_audits():
    specs = {
        "affine": affine_level_spec(r=-1.0),
        "reference_bm": rational_reference_spec(kind=BM),
        "reference_bridge": rational_reference_spec(kind=BRIDGE),
    }
    for name, spec in specs.items():
        assert validate_functional(spec).ok, f"{name} should validate"
        for m in (2, 3):
            basis = KLBasis.build(spec.kind, m)
            audit = cylindrical_curvature_audit(spec, basis, 48, seed=DEFAULT_SEED + m)
            assert audit.min_h_gamma >= -1e-6, f"{name} m={m}: {audit.min_h_gamma}"
            assert audit.min_bound_slack >= -1e-6, f"{name} m={m} bound violated"
            assert np.min(np.abs(audit.grads[:, 0])) > 0.0

    for spec_e, m in (
        (constant_epigraph(2.0), 3),
        (constant_epigraph(0.0), 2),
        (gauss_ridge_epigraph(2.0, 0.5, [1.0, 0.0]), 3),
    ):
        audit = epigraph_curvature_audit(spec_e, m, 48, seed=DEFAULT_SEED)
        assert audit.ok, f"{spec_e.name} m={m} failed"
        assert audit.min_h_gamma >= -1e-6
        assert audit.min_bound_slack >= -1e-6

    rejected = validate_functional(affine_level_spec(r=1.0))
    assert not rejected.ok and "threshold" in rejected.failures
    verdict(8, True, "shipped specs pass audits with the proof bound; "
                     "affine(r=+1) rejected by validation")


def test_criterion_9_convergence_study():
    t0 = time.time()
    cfg = DEFAULT_CONFIGS["converge"]
    spec = rational_reference_spec(kind=BM)
    both = resolvent_convergence_study(
        spec, [1.0, 1e-4], cfg["dims"], cfg["bump_center"], cfg["bump_radius"],
        cfg["box"], cfg["h"], cfg["gh_nodes"], cfg["solver_tol"],
    )
    rows = [r for r in both if r.sigma == 1.0]
    rows_zero = [r for r in both if r.sigma == 1e-4]
    assert len(rows) == len(rows_zero) == len(cfg["dims"])
    by_n = {r.n: r for r in rows}
    for r in rows:
        assert r.finite()
    assert by_n[2].d_l2 <= by_n[1].d_l2, (by_n[1].d_l2, by_n[2].d_l2)

    for r in rows_zero:
        assert r.d_l2 <= 0.02
    elapsed = time.time() - t0
    assert elapsed < 600.0
    verdict(9, True, f"D1={by_n[1].d_l2:.2e} >= D2={by_n[2].d_l2:.2e}; "
                     f"sigma->0 max D={max(r.d_l2 for r in rows_zero):.1e} <= 0.02, "
                     f"{elapsed:.0f}s")


def test_criterion_10_negative_control(tmp_path):
    cfg_path = tmp_path / "bad_ball.json"
    cfg_path.write_text(json.dumps({
        "n_samples": 32,
        "tol": 1e-8,
        "domains": [
            {"type": "ball", "dim": 2, "parameters": {"radius": 1.5},
             "assert_nonnegative": True},
        ],
    }))
    code = main(["curvature", "--config", str(cfg_path), "--out", str(tmp_path / "o1")])
    assert code == 1

    # contractivity on the same domain: recorded, never asserted
    dom = ball(2, 1.5)
    grid = GaussianGrid.build(dom, -1.9, 1.9, 0.05)
    bumps = [make_bump(dom, [0.0, 0.0], 0.6, 0.3, label="b0")]
    result = contractivity_sweep(dom, grid, [1.0], [2.0], bumps)
    assert result.records and all(np.isfinite(r.ratio) for r in result.records)
    verdict(10, True, "curvature suite exits 1 on ball R=1.5; its contract "
                      "records are informational only")
