"""Command-line entry point for the verification suites.

Subcommands: curvature, solve, contract, lemma, oracle, wiener, converge,
all.  A run is fixed by its suite, its config (``--config`` overrides the
suite's defaults, shipped as ``configs/<suite>.json`` in this package, key
by key) and ``--seed``; ``--out`` only says where it is written.  Every
suite takes (config, seed) and reports each bound exactly as its config
states it, so a run is reproducible from its own report.
Exit codes: 0 all asserted checks pass, 1 at least one asserted check
failed, 2 configuration could not be loaded, holds a key the suite does not
know or an invalid value, or the command line is malformed.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import sys
import time
from dataclasses import astuple, fields
from pathlib import Path

import numpy as np

from . import __version__, contract, domains, gauss, report, solver, wiener
from . import grid as grid_mod
from .contract import ContractRecord
from .domains import LevelSetDomain
from .feynman_kac import KilledPathEstimator
from .grid import GaussianGrid, ScalarField
from .report import CheckRecord, SuiteReport, Table
from .solver import ResolventJob
from .wiener import BRIDGE, BM, KLBasis

# bench/worker.py taps these three names on cli and unpacks the calls it records
from .contract import check_pointwise_inequality
from .feynman_kac import mc_resolvent
from .solver import solve_resolvent

DEFAULT_SEED = 20260801
CONFIG_DIR = Path(__file__).resolve().parent / "configs"

_SHIPPED_SPECS = {
    "affine": lambda: wiener.affine_level_spec(r=-1.0, kind=BM),
    "reference_bm": lambda: wiener.rational_reference_spec(kind=BM, r=-0.75),
    "reference_bridge": lambda: wiener.rational_reference_spec(kind=BRIDGE, r=-0.75),
}


# The domain records that build_domain reads: one row per domain type, and
# per profile kind for "epigraph".  A row holds the schema of the record's
# "parameters" (see _unknown_keys) and the call that builds the domain from
# the record's dim and those parameters.
_DOMAIN_TABLE = {
    ("halfspace", None): (
        dict.fromkeys(["offset", "axis"]),
        lambda dim, p: domains.halfspace(dim, float(p["offset"]), int(p.get("axis", 0)))),
    ("ball", None): (
        dict.fromkeys(["radius", "center"]),
        lambda dim, p: domains.ball(dim, float(p["radius"]), p.get("center"))),
    ("ellipsoid", None): (
        dict.fromkeys(["semi_axes"]),
        lambda dim, p: domains.ellipsoid(p["semi_axes"])),
    ("polynomial", None): (
        {"terms": [dict.fromkeys(["coeff", "powers"])]},
        lambda dim, p: domains.polynomial_domain(
            dim, [(t["coeff"], t["powers"]) for t in p["terms"]])),
    ("epigraph", "constant"): (
        dict.fromkeys(["kind", "C"]),
        lambda dim, p: wiener.epigraph_domain(wiener.constant_epigraph(float(p["C"])), dim)),
    ("epigraph", "gauss_ridge"): (
        dict.fromkeys(["kind", "c0", "amp", "weights"]),
        lambda dim, p: wiener.epigraph_domain(
            wiener.gauss_ridge_epigraph(float(p["c0"]), float(p["amp"]), p["weights"]), dim)),
}


def _table_key(spec: dict, params: dict) -> tuple:
    """The _DOMAIN_TABLE key of a domain record with these parameters."""
    kind = params.get("kind") if spec.get("type") == "epigraph" else None
    return spec.get("type"), kind


def build_domain(spec: dict) -> LevelSetDomain:
    """Domain from a config record.

    "cylindrical" resolves a shipped profile name at a truncation m; every
    other type is a row of _DOMAIN_TABLE, built at the record's dim.
    """
    if spec.get("type") == "cylindrical":
        fs = _SHIPPED_SPECS[spec["spec"]]()
        basis = KLBasis.build(fs.kind, int(spec["m"]))
        return wiener.cylindrical_domain(fs, basis)
    params = spec.get("parameters", {})
    key = _table_key(spec, params)
    if key not in _DOMAIN_TABLE:
        raise ValueError(f"unknown domain type {key[0]!r}" if key[1] is None
                         else f"unknown epigraph kind {key[1]!r}")
    if "dim" not in spec:
        raise ValueError(f"a {key[0]} domain record needs a 'dim'")
    dim = int(spec["dim"])
    dom = _DOMAIN_TABLE[key][1](dim, params)
    if dom.dim != dim:
        raise ValueError(f"domain 'dim' is {dim}, but its parameters give dimension {dom.dim}")
    return dom


def _sweep_setup(sweep_cfg):
    """A sweep's domain, its bumps, and a builder of its grid at spacing h."""
    dom = build_domain(sweep_cfg["domain"])
    bumps = [contract.make_bump(dom, b["center"], b["radius"], b["margin"], label=f"bump{i}")
             for i, b in enumerate(sweep_cfg["bumps"])]
    g = sweep_cfg["grid"]
    return dom, bumps, lambda h: GaussianGrid.build(dom, g["lo"], g["hi"], h,
                                                    dim=g.get("dim"))


def _check_ps(cfg) -> None:
    """Reject a p below 1 (or NaN) in any sweep before the suite solves anything."""
    if not all(float(p) >= 1.0 for sweep_cfg in cfg["sweeps"] for p in sweep_cfg["ps"]):
        raise ValueError("p must be >= 1")


# Solved sweeps shared by the contract and lemma suites of one process, keyed
# by _sweep_key: (domain, bumps, grid, SweepResult) of a sweep at spacing h.
# suite_contract empties the store and then fills it; suite_lemma pops the
# entry of each of its sweeps, so an entry is read at most once.
_SOLVED_SWEEPS: dict[str, tuple] = {}


def _sweep_key(sweep_cfg, solver_tol) -> str:
    """Canonical JSON of everything a sweep's solutions depend on, but sigma."""
    return json.dumps({"domain": sweep_cfg["domain"], "grid": sweep_cfg["grid"],
                       "bumps": sweep_cfg["bumps"], "solver_tol": solver_tol},
                      sort_keys=True)


def _take_solved_sweep(sweep_cfg, solver_tol):
    """Pop the stored entry of a sweep; None unless it solved every pair read.

    The pairs read are the sweep's ``sigmas`` times its bumps.
    """
    entry = _SOLVED_SWEEPS.pop(_sweep_key(sweep_cfg, solver_tol), None)
    if entry is None:
        return None
    _, bumps, _, result = entry
    if all((float(sigma), bump.label) in result.solutions
           for sigma in sweep_cfg["sigmas"] for bump in bumps):
        return entry
    return None


# ---------------------------------------------------------------------------
# suites


def suite_curvature(cfg, seed) -> SuiteReport:
    rep = SuiteReport("curvature", seed, cfg)
    tol = cfg["tol"]
    hist_rows = []
    for k, dspec in enumerate(cfg["domains"]):
        dom = build_domain(dspec)
        audit = domains.curvature_audit(dom, cfg["n_samples"],
                                        np.random.default_rng(seed + k), tol=tol)
        rep.add(CheckRecord(
            name=f"curvature-nonnegative:{dom.name}",
            observed=audit.min_h_gamma,
            bound=-tol,
            passed=audit.ok,
            asserted=bool(dspec.get("assert_nonnegative", False)),
            inputs={"domain": dspec, "n_samples": cfg["n_samples"], "seed": seed + k},
        ))
        hist_rows.extend([[dom.name, float(v)] for v in audit.values])
    rep.tables["curvature_values"] = rep.plots["hgamma_histogram"] = Table(
        "sampled Gaussian boundary curvature values per domain",
        ["domain", "h_gamma"], hist_rows,
    )
    return rep


def suite_solve(cfg, seed) -> SuiteReport:
    rep = SuiteReport("solve", seed, cfg)
    g = cfg["grid"]
    grid = GaussianGrid.build(None, g["lo"], g["hi"], g["h"], dim=g.get("dim", 1))
    k = cfg["hermite_degree"]
    sigma = cfg["sigma"]
    rhs = ScalarField.from_callable(grid, lambda pts: gauss.hermite_poly(k, pts[:, 0]))
    sol = solve_resolvent(ResolventJob(grid, sigma, rhs), tol=cfg["solver_tol"])
    coords = grid.node_coordinates()[:, 0]
    window = np.abs(coords) <= cfg["oracle_window"]
    exact = gauss.hermite_poly(k, coords) / (1.0 + sigma * k)
    err = float(np.max(np.abs(sol.u.flat()[window] - exact[window])))
    tol = cfg["oracle_tol"]
    rep.add(CheckRecord(
        name=f"hermite-eigen-oracle:k={k},sigma={sigma}",
        observed=err, bound=tol, passed=err <= tol,
        inputs={"grid": g, "sigma": sigma, "k": k},
    ))
    rep.add(CheckRecord(
        name="resolvent-residual",
        observed=sol.residual, bound=cfg["solver_tol"] * 10,
        passed=sol.converged,
        inputs={"grid": g, "sigma": sigma},
    ))
    # the nodes the Hermite record reads: the box faces are no part of the table
    nodes = np.flatnonzero(window)
    grad = grid_mod.discrete_gradient(sol.u).reshape(-1, grid.dim)[nodes]
    rep.tables["solution"] = Table(  # tolist: Python floats, written by repr
        "resolvent solution at the oracle window's nodes: coordinates, u and |grad u|",
        [f"x{i}" for i in range(grid.dim)] + ["u", "grad_norm"],
        np.column_stack([grid.node_coordinates(nodes), sol.u.flat()[nodes],
                         np.linalg.norm(grad, axis=1)]).tolist())
    return rep


def suite_contract(cfg, seed) -> SuiteReport:
    _check_ps(cfg)
    rep = SuiteReport("contract", seed, cfg)
    recs: list[ContractRecord] = []  # every record written, in table order
    sigma_zero = cfg["sigma_zero"]
    lo, hi_band = cfg["sigma_zero_band"]
    _SOLVED_SWEEPS.clear()
    for sweep_cfg in cfg["sweeps"]:
        sweep, h_cfg = sweep_cfg["name"], sweep_cfg["grid"]["h"]
        dom, bumps, grid_at = _sweep_setup(sweep_cfg)
        grid = grid_at(h_cfg)
        # sigma -> 0 rides along in the same sweep, solved once
        sigmas = sweep_cfg["sigmas"]
        result = contract.contractivity_sweep(
            dom, grid, sigmas if sigma_zero in sigmas else sigmas + [sigma_zero],
            sweep_cfg["ps"], bumps, solver_tol=cfg["solver_tol"])
        _SOLVED_SWEEPS[_sweep_key(sweep_cfg, cfg["solver_tol"])] = (
            dom, bumps, grid, result)
        tol = contract.default_contract_tol(float(np.max(grid.h)))
        asserted = bool(sweep_cfg.get("assert_contractive", False))
        excesses = {}
        for r in [r for r in result.records if r.sigma in sigmas]:
            recs.append(r)
            rep.add(CheckRecord(
                name=f"contract:{sweep}:{r.bump}:sigma={r.sigma}:p={r.p}",
                observed=r.ratio, bound=1.0 + tol,
                passed=r.converged and r.ratio <= 1.0 + tol,
                asserted=asserted and r.p > 1.0,
                inputs={"sweep": sweep, "sigma": r.sigma,
                        "p": r.p, "bump": r.bump, "h": r.h},
            ))
            if r.ratio - 1.0 > 1e-6:
                excesses[(r.bump, r.sigma, r.p)] = r.ratio - 1.0

        # an excess over 1 must at least halve at h/2: solve only its sigmas, bumps
        if excesses:
            labels = {bump for bump, _, _ in excesses}
            halved = contract.contractivity_sweep(
                dom, grid_at(h_cfg / 2.0), sorted({s for _, s, _ in excesses}),
                sweep_cfg["ps"], [b for b in bumps if b.label in labels],
                solver_tol=cfg["solver_tol"])
            recs.extend(halved.records)
            for r in halved.records:
                ex_coarse = excesses.get((r.bump, r.sigma, r.p))
                if ex_coarse is not None:
                    ex_fine = r.ratio - 1.0
                    rep.add(CheckRecord(
                        name=(f"contract-richardson:{sweep}:{r.bump}"
                              f":sigma={r.sigma}:p={r.p}"),
                        observed=ex_fine, bound=ex_coarse / 2.0 + 1e-9,
                        passed=r.converged and ex_fine <= ex_coarse / 2.0 + 1e-9,
                        asserted=asserted and r.p > 1.0,
                        inputs={"sweep": sweep, "sigma": r.sigma,
                                "p": r.p, "bump": r.bump},
                    ))

        # resolvent -> identity as sigma -> 0
        for r in [r for r in result.records if r.sigma == sigma_zero]:
            recs.append(r)
            rep.add(CheckRecord(
                name=f"sigma-zero:{sweep}:{r.bump}:p={r.p}",
                observed=r.ratio, bound=hi_band,
                passed=r.converged and lo <= r.ratio <= hi_band,
                asserted=asserted and r.p > 1.0,
                inputs={"sweep": sweep, "p": r.p, "bump": r.bump,
                        "sigma": sigma_zero},
            ))
    # one column per ContractRecord field, in field order
    rep.tables["records"] = Table(
        "contractivity sweep records: Lp gradient norms of resolvent output vs input",
        [f.name for f in fields(ContractRecord)],
        [list(astuple(r)) for r in recs],
    )
    rep.plots["ratio_vs_sigma"] = Table(
        "gradient-norm ratio vs sigma; one row per (domain, bump, p, sigma)",
        ["domain", "bump", "p", "sigma", "ratio"],
        [[r.domain, r.bump, r.p, r.sigma, r.ratio] for r in recs],
    )
    rep.plots["ratio_vs_p"] = Table(
        "gradient-norm ratio vs p; one row per (domain, bump, sigma, p)",
        ["domain", "bump", "sigma", "p", "ratio"],
        [[r.domain, r.bump, r.sigma, r.p, r.ratio] for r in recs],
    )
    rep.profile["solutions_reused"] = 0
    return rep


def suite_lemma(cfg, seed) -> SuiteReport:
    _check_ps(cfg)
    rep = SuiteReport("lemma", seed, cfg)
    eps = cfg["eps"]
    n_reused = 0
    for sweep_cfg in cfg["sweeps"]:
        solved = _take_solved_sweep(sweep_cfg, cfg["solver_tol"])
        if solved is not None:
            dom, bumps, grid, result = solved
            n_reused += len(sweep_cfg["sigmas"]) * len(bumps)
        else:
            dom, bumps, grid_at = _sweep_setup(sweep_cfg)
            grid = grid_at(sweep_cfg["grid"]["h"])
            # the (sigma, bump) solutions alone: no p, so no ratio records
            result = contract.contractivity_sweep(dom, grid, sweep_cfg["sigmas"], [], bumps,
                                                  solver_tol=cfg["solver_tol"])
        h = float(np.max(grid.h))
        p_tol = cfg["pointwise_tol_h"] * h
        s_tol = cfg["slope_tol_h"] * h
        f_tol = cfg["flux_tol_h"] * h
        probes = contract.boundary_probes(grid, dom, cfg["n_boundary_samples"], seed)
        for sigma in sweep_cfg["sigmas"]:
            for bump in bumps:
                sol = result.solutions[(float(sigma), bump.label)]
                key = f"{sweep_cfg['name']}:{bump.label}:sigma={sigma}"
                pw = check_pointwise_inequality(sol.u, bump, float(sigma), eps, p_tol)
                rep.add(CheckRecord(
                    name=f"pointwise-gradient-bound:{key}",
                    observed=pw.worst_excess, bound=0.0,
                    passed=sol.converged and pw.ok,
                    inputs={"sweep": sweep_cfg["name"], "sigma": sigma,
                            "bump": bump.label, "eps": eps, "tol": p_tol},
                ))
                slope = contract.check_boundary_normal_slope(sol.u, probes, eps, s_tol)
                rep.add(CheckRecord(
                    name=f"boundary-normal-slope:{key}",
                    observed=slope.max_slope, bound=s_tol,
                    passed=sol.converged and slope.ok,
                    inputs={"sweep": sweep_cfg["name"], "sigma": sigma,
                            "bump": bump.label, "eps": eps, "tol": s_tol,
                            "n_checked": slope.n_checked, "n_skipped": slope.n_skipped},
                ))
                fluxes = contract.boundary_flux_integral(sol.u, eps, sweep_cfg["ps"])
                for p, val in zip(sweep_cfg["ps"], fluxes):
                    rep.add(CheckRecord(
                        name=f"boundary-flux-integral:{key}:p={p}",
                        observed=val, bound=f_tol,
                        passed=sol.converged and val <= f_tol, asserted=p > 1.0,
                        inputs={"sweep": sweep_cfg["name"], "sigma": sigma,
                                "bump": bump.label, "eps": eps, "p": p},
                    ))
    rep.profile["solutions_reused"] = n_reused
    return rep


def suite_oracle(cfg, seed) -> SuiteReport:
    rep = SuiteReport("oracle", seed, cfg)
    sigma = cfg["sigma"]
    rows = []
    probes = {}  # record name -> Monte Carlo work counters
    for case in cfg["cases"]:
        dom = build_domain(case["domain"])
        g = case["grid"]
        grid = GaussianGrid.build(dom, g["lo"], g["hi"], g["h"], dim=g.get("dim"))
        b = case["bump"]
        bump = contract.make_bump(dom, b["center"], b["radius"], b["margin"])
        rhs = ScalarField.from_callable(grid, bump)
        sol = solve_resolvent(ResolventJob(grid, sigma, rhs), tol=1e-10)
        interp = grid.interpolator(sol.u.values)
        for j, probe in enumerate(case["probes"]):
            est = KilledPathEstimator(dom, sigma, dt=cfg["dt"],
                                      n_paths=cfg["n_paths"], seed=seed + 31 * j)
            mc = mc_resolvent(est, bump, np.asarray(probe, dtype=float))
            fd = float(interp(np.asarray(probe, dtype=float)[None, :])[0])
            diff = abs(fd - mc.value)
            bound = 3.0 * mc.stderr
            rows.append([case["name"], json.dumps(probe), fd, mc.value, mc.stderr])
            name = f"cross-oracle:{case['name']}:probe={j}"
            probes[name] = {"mc_steps_used": mc.n_steps_used,
                            "live_paths": mc.live_paths, "normals": mc.normals}
            rep.add(CheckRecord(
                name=name,
                observed=diff, bound=bound, passed=diff <= bound,
                inputs={"case": case["name"], "probe": probe,
                        "n_paths": cfg["n_paths"], "dt": cfg["dt"], "sigma": sigma},
            ))
    rep.tables["probes"] = rep.plots["probes"] = Table(
        "finite-difference vs killed-path Monte Carlo resolvent values",
        ["case", "probe", "fd_value", "mc_value", "mc_se"], rows,
    )
    rep.profile["probes"] = probes
    return rep


def suite_wiener(cfg, seed) -> SuiteReport:
    rep = SuiteReport("wiener", seed, cfg)

    m = cfg["basel_m"]
    basel_err = abs(wiener.basel_partial_sum(m) - math.pi**2 / 2.0)
    rep.add(CheckRecord("basel-partial-sum", basel_err, cfg["basel_tol"],
                        basel_err <= cfg["basel_tol"], True, {"m": m}))

    mt = cfg["bm_trace_m"]
    s, w = wiener.composite_gauss_legendre(max(16, mt))
    integral = float(wiener.trace_density(s, mt, BM) @ w)
    err = abs(integral - 0.5)
    rep.add(CheckRecord("bm-trace-integral", err, cfg["bm_trace_tol"],
                        err <= cfg["bm_trace_tol"], True, {"m": mt}))

    mb = cfg["bridge_trace_m"]
    sgrid = np.linspace(0.0, 1.0, 101)
    fb = wiener.trace_density(sgrid, mb, BRIDGE)
    sup_err = float(np.max(np.abs(fb - (sgrid - sgrid**2))))
    rep.add(CheckRecord("bridge-trace-pointwise", sup_err, cfg["bridge_trace_tol"],
                        sup_err <= cfg["bridge_trace_tol"], True, {"m": mb}))

    for name, factory in _SHIPPED_SPECS.items():
        ok = wiener.validate_functional(factory()).ok
        rep.add(CheckRecord(f"functional-valid:{name}", ok, True, ok,
                            True, {"spec": name}))
    rejected = wiener.validate_functional(wiener.affine_level_spec(r=1.0))
    rep.add(CheckRecord("functional-rejected:affine(r=1)", not rejected.ok, True,
                        not rejected.ok, True, {"r": 1.0}))

    tol = cfg["audit_tol"]
    for name, factory in _SHIPPED_SPECS.items():
        spec = factory()
        for m_audit in cfg["audit_m"]:
            basis_a = KLBasis.build(spec.kind, m_audit)
            audit = wiener.cylindrical_curvature_audit(spec, basis_a, cfg["audit_samples"],
                                                       seed + m_audit, tol=tol)
            rep.add(CheckRecord(
                f"cylindrical-audit:{name}:m={m_audit}",
                audit.min_h_gamma, -tol, audit.ok, True,
                {"spec": name, "m": m_audit, "samples": cfg["audit_samples"]},
            ))

    for spec_e, m_e in ((wiener.constant_epigraph(2.0), 3),
                        (wiener.constant_epigraph(0.0), 2),
                        (wiener.gauss_ridge_epigraph(2.0, 0.5, [1.0, 0.0]), 3)):
        audit = wiener.epigraph_curvature_audit(spec_e, m_e, cfg["audit_samples"],
                                                seed, tol=tol)
        rep.add(CheckRecord(
            f"epigraph-audit:{spec_e.name}:m={m_e}",
            audit.min_h_gamma, -tol, audit.ok, True,
            {"spec": spec_e.name, "m": m_e},
        ))
    return rep


def suite_converge(cfg, seed) -> SuiteReport:
    rep = SuiteReport("converge", seed, cfg)
    spec = _SHIPPED_SPECS[cfg["spec"]]()
    rows = wiener.resolvent_convergence_study(
        spec, [cfg["sigma"], cfg["sigma_zero"]], cfg["dims"], cfg["bump_center"],
        cfg["bump_radius"], cfg["box"], cfg["h"], cfg["gh_nodes"], cfg["solver_tol"])
    # (sigma, n) order: the rows at sigma, then the rows at sigma_zero
    at_sigma = [row for row in rows if row.sigma == cfg["sigma"]]
    at_zero = [row for row in rows if row.sigma == cfg["sigma_zero"]]
    for row in at_sigma:
        rep.add(CheckRecord(
            f"convergence-finite:n={row.n}", row.d_l2, 1e30,
            row.finite() and row.d_l2 < 1e30, True,
            {"sigma": cfg["sigma"], "n": row.n}))
    by_n = {row.n: row for row in at_sigma}
    if 1 in by_n and 2 in by_n:
        rep.add(CheckRecord(
            "convergence-monotone:D2<=D1", by_n[2].d_l2, by_n[1].d_l2,
            by_n[2].d_l2 <= by_n[1].d_l2, True,
            {"sigma": cfg["sigma"]}))
    for row in at_zero:
        lim = cfg["d_zero_limit"]
        rep.add(CheckRecord(
            f"convergence-identity-limit:n={row.n}", row.d_l2, lim,
            row.d_l2 <= lim, True,
            {"sigma": cfg["sigma_zero"], "n": row.n}))
    rep.tables["convergence"] = rep.plots["dn_vs_n"] = Table(
        "consecutive-truncation differences D_n of the Dirichlet resolvent",
        ["sigma", "n", "d_l2", "d_grad", "residual_n", "residual_n_plus_1"],
        [[row.sigma, row.n, row.d_l2, row.d_grad, row.residual_lo, row.residual_hi]
         for row in rows],
    )
    return rep


_SUITES = {
    "curvature": suite_curvature,
    "solve": suite_solve,
    "contract": suite_contract,
    "lemma": suite_lemma,
    "oracle": suite_oracle,
    "wiener": suite_wiener,
    "converge": suite_converge,
}


def run_suite(name, config, out_dir, seed) -> SuiteReport:
    """Run one suite and write its report and plot data to ``out_dir``.

    The profile gets the suite's entries of ``solver.tally`` (solves, CG
    iterations, unknowns), ``wall_s``, the suite's wall time, and
    ``peak_rss_mb``, the process's peak resident memory (``ru_maxrss``) when
    the suite ends: the peak of the whole process so far, so under ``all``
    it covers the suites that ran before this one too.
    """
    solver.tally.update(dict.fromkeys(solver.tally, 0))
    t0 = time.perf_counter()
    rep = _SUITES[name](config, seed)
    rep.profile["wall_s"] = time.perf_counter() - t0
    rep.profile.update(solver.tally)
    rep.profile["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    rep.environment = {"package_version": __version__, "seed": seed}
    rep.write(out_dir)
    report.emit_plotdata(rep, out_dir)
    return rep


# The keys the suites read, record by record.  A dict maps each key to the
# schema of its value (None: a plain value, whose type is left to the code
# that reads it), a one-element list is a list of records of that schema,
# and a function picks the schema of a record from the record itself; a
# record whose schema is None is not checked (an unknown domain type or
# epigraph kind is left to the code that builds it).
_GRID = dict.fromkeys(["lo", "hi", "h", "dim"])
_BUMP = dict.fromkeys(["center", "radius", "margin"])


def _domain_schema(spec: dict) -> dict:
    """The keys ``build_domain`` reads from a domain record of this type."""
    if spec.get("type") == "cylindrical":
        return dict.fromkeys(["type", "spec", "m"])
    return {"type": None, "dim": None,
            "parameters": lambda p: _DOMAIN_TABLE.get(_table_key(spec, p), (None, None))[0]}


_SWEEP = {**dict.fromkeys(["name", "sigmas", "ps", "assert_contractive"]),
          "domain": _domain_schema, "grid": _GRID, "bumps": [_BUMP]}
_RECORD_SCHEMAS = {
    "curvature": {"domains": [lambda d: {**_domain_schema(d), "assert_nonnegative": None}]},
    "solve": {"grid": _GRID},
    "contract": {"sweeps": [_SWEEP]},
    "lemma": {"sweeps": [_SWEEP]},
    "oracle": {"cases": [{**dict.fromkeys(["name", "probes"]), "domain": _domain_schema,
                          "grid": _GRID, "bump": _BUMP}]},
}


def _unknown_keys(value, schema, where: str = "") -> list[str]:
    """Paths of the keys in ``value`` that ``schema`` does not take.

    Raises ValueError, naming the key path, where a list or a record
    belongs and the value is something else.
    """
    if schema is None:
        return []
    kind = list if isinstance(schema, list) else dict
    if not isinstance(value, kind):
        raise ValueError(f"config key {where!r} must be a "
                         f"{'list' if kind is list else 'record'}, not {type(value).__name__}")
    if kind is list:
        return [key for i, item in enumerate(value)
                for key in _unknown_keys(item, schema[0], f"{where}[{i}]")]
    if callable(schema):
        schema = schema(value)
    if schema is None:
        return []
    prefix = f"{where}." if where else ""
    return [key for name, item in value.items()
            for key in ([prefix + name] if name not in schema
                        else _unknown_keys(item, schema[name], prefix + name))]


def _load_config(suite: str, path: str | None) -> dict:
    """The suite's shipped defaults, overridden key by key by the file at path."""
    cfg = json.loads((CONFIG_DIR / f"{suite}.json").read_text(encoding="utf-8"))
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            user = json.load(fh)
        if not isinstance(user, dict):
            raise ValueError(f"{path}: top level must be a JSON object, "
                             f"not {type(user).__name__}")
        schema = {**dict.fromkeys(cfg), **_RECORD_SCHEMAS.get(suite, {})}
        unknown = _unknown_keys(user, schema)
        if unknown:
            raise ValueError(f"{path}: unknown {suite} config keys {unknown}")
        cfg.update(user)
    return cfg


DEFAULT_CONFIGS: dict[str, dict] = {name: _load_config(name, None) for name in _SUITES}


def _seed(text: str) -> int:
    """The type of ``--seed``: numpy's generators take no negative seed."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {seed}")
    return seed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="oucontract",
        description=("Verification suites for Gaussian boundary curvature and "
                     "gradient contractivity of the Dirichlet "
                     "Ornstein-Uhlenbeck resolvent."),
    )
    parser.add_argument("suite", choices=sorted(_SUITES) + ["all"])
    parser.add_argument("--config", default=None, help="JSON config overriding defaults")
    parser.add_argument("--out", default="out", help="output directory")
    parser.add_argument("--seed", type=_seed, default=DEFAULT_SEED)
    args = parser.parse_args(argv)

    if args.suite == "all" and args.config is not None:
        print("error: --config applies to a single suite, not 'all'",
              file=sys.stderr)
        return 2

    suites = sorted(_SUITES) if args.suite == "all" else [args.suite]
    failures = []
    for name in suites:
        try:
            cfg = _load_config(name, args.config)
        except (OSError, json.JSONDecodeError, KeyError, ValueError) as exc:
            print(f"error: cannot load config for {name}: {exc}", file=sys.stderr)
            return 2
        out_dir = Path(args.out) / name if args.suite == "all" else Path(args.out)
        try:
            rep = run_suite(name, cfg, out_dir, args.seed)
        except (KeyError, TypeError, ValueError, domains.ProjectionError) as exc:
            print(f"error: invalid config for {name}: {exc}", file=sys.stderr)
            return 2
        for rec in rep.failures():
            failures.append((name, rec))
        status = "ok" if rep.ok else "FAIL"
        print(f"[{name}] {status}: {len(rep.records)} checks, "
              f"{len(rep.failures())} failures -> {out_dir}/report.json")
    if failures:
        print("failing records:", file=sys.stderr)
        for name, rec in failures:
            print(f"  [{name}] {rec.name}: observed {rec.observed!r} "
                  f"vs bound {rec.bound!r}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
