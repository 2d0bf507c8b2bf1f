"""One round of one benchmark workload, in a fresh process.

Run by ``bench/run.py``; prints one JSON line with the round's set-up
time, verdict time, CPU time, peak resident memory and the verdict of
every check.  Set-up ends once ``oucontract`` is imported and the
workload's inputs are loaded; the verdict phase ends once the last check
has a verdict and the report files are written.

    python3 bench/worker.py --workload NAME --seed N --out DIR \
        --launched T [--trace] [--setup-only]

``--launched`` is the ``time.monotonic()`` reading taken by the parent
just before it started this process.
"""

import argparse
import csv
import json
import math
import resource
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

# The floor-free pointwise checks that fail because of the known fault
# recorded in CHANGES.md: conjugate gradients stop on the theta-weighted
# residual, so nodal values where theta is tiny are amplified noise that
# density_floor=0 exposes.  Only these may fail with ``correct`` still true.
_HALFSPACE = "halfspace(offset=1.0)"
_CYLINDRICAL = "cylindrical(affine(r=-1.0),m=2)"
KNOWN_FAULT_CHECKS = frozenset(
    f"pointwise-floor-free:{domain}:bump{b}:sigma={sigma}"
    for domain, cases in (
        (_HALFSPACE, ((1, 0.1), (0, 1.0), (1, 1.0), (2, 1.0),
                      (0, 10.0), (1, 10.0), (2, 10.0))),
        (_CYLINDRICAL, ((0, 1.0), (1, 1.0), (2, 1.0),
                        (0, 10.0), (1, 10.0), (2, 10.0))),
    )
    for b, sigma in cases
)

# Gate constants of the independent checks.  They define the checks, not
# the problem, so they live here rather than in bench/inputs/.
# The Hermite tolerance is HERMITE_SLACK times the leading O(h^2) error:
# the O(h^4) remainder and the solver tolerance fit inside the 50% slack.
HERMITE_SLACK = 1.5
# the self-test's wrong eigenvalue index, j + k + 1
HERMITE_WRONG_EIGEN_SHIFT = 1
# D_n of a family that depends on x_1 only must vanish up to quadrature
# and solver error: the bound of the package's unit test for this family
INVARIANCE_D_L2_TOL = 1e-6
# the self-test's shifted probe: a quarter unit along x_1, towards the bump
PROBE_SHIFT = (0.25, 0.0)


class Round:
    """Checks of one round, plus taps that record selected calls."""

    def __init__(self, out_dir: Path, call):
        self.out_dir = out_dir
        self.call = call            # runs a callable inside a cli span
        self.checks: list[list] = []  # [name, passed]

    def check(self, name: str, passed) -> None:
        self.checks.append([name, bool(passed)])

    def run_suite(self, cli, suite: str, cfg: dict, seed: int) -> Path:
        out = self.out_dir / suite
        self.call(f"cli.{suite}", cli.run_suite, (suite, cfg, out, seed))
        return out

    def suite_records(self, suite: str, out: Path) -> None:
        """Every asserted record of a written report is one check."""
        with open(out / "report.json", encoding="utf-8") as fh:
            payload = json.load(fh)["payload"]
        for rec in payload["records"]:
            if rec["asserted"]:
                self.check(f"{suite}:{rec['name']}", rec["pass"])


def tap(module, attr: str, log: list):
    """Record (args, result) of every call made through module.attr."""
    inner = getattr(module, attr)

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        log.append((args, out))
        return out

    setattr(module, attr, recorded)


# ---------------------------------------------------------------------------
# independent checks


def hermite_leading_error(j: int, k: int, sigma: float, x, y):
    """Leading O(h^2) error of the flux scheme for J_sigma(He_j x He_k).

    Expanding the face ratios exp(-+x h/2 - h^2/8) and the central
    differences gives, per axis, L_h f = L f + h^2 T f + O(h^4) with
        T f = f''''/12 + x^2 f''/8 - x f'''/6 - x^3 f'/24 - (f'' - x f')/8.
    The discrete error e = u_h - u solves (I - sigma L_h) e = sigma h^2 T u,
    so e = h^2 E + O(h^4) with E = sigma (I - sigma L)^-1 T u, evaluated
    exactly in the Hermite basis, where (I - sigma L)^-1 He_m = He_m/(1+sigma m).
    Returns E at the points (x, y).
    """
    import numpy as np
    from numpy.polynomial.hermite_e import HermiteE
    from oucontract.gauss import hermite_poly

    def t_coeffs(n):
        f = HermiteE([0] * n + [1])
        xx = HermiteE([0, 1])
        d = [f.deriv(m) for m in range(5)]
        t = (d[4] / 12 + xx * xx * d[2] / 8 - xx * d[3] / 6
             - xx * xx * xx * d[1] / 24 - (d[2] - xx * d[1]) / 8)
        return t.coef

    out = np.zeros_like(x)
    for m, a in enumerate(t_coeffs(j)):
        out += a * hermite_poly(m, x) * hermite_poly(k, y) / (1 + sigma * (m + k))
    for m, b in enumerate(t_coeffs(k)):
        out += b * hermite_poly(j, x) * hermite_poly(m, y) / (1 + sigma * (j + m))
    return sigma * out / (1 + sigma * (j + k))


def hermite_oracle(r: Round, cfg: dict) -> None:
    """Whole-space 2-D eigenfunction oracle with an O(h^2) tolerance.

    J_sigma(He_j x He_k) = He_j x He_k / (1 + sigma(j+k)) on |x| <= window.
    The tolerance is HERMITE_SLACK times the largest leading-order error
    h^2 |E| on the window: the O(h^4) remainder and the solver tolerance
    fit well inside the slack, a wrong eigenvalue does not.
    """
    import numpy as np
    from oucontract import grid as grid_mod, solver
    from oucontract.gauss import hermite_poly

    j, k, sigma, h = cfg["j"], cfg["k"], cfg["sigma"], cfg["h"]
    g = grid_mod.GaussianGrid.build(None, cfg["lo"], cfg["hi"], h, dim=2)
    rhs = grid_mod.ScalarField.from_callable(
        g, lambda p: hermite_poly(j, p[:, 0]) * hermite_poly(k, p[:, 1]))
    sol = solver.solve_resolvent(solver.ResolventJob(g, sigma, rhs),
                                 tol=cfg["solver_tol"])
    x = g.node_coordinates()
    win = np.linalg.norm(x, axis=1) <= cfg["window"]
    xw, yw = x[win, 0], x[win, 1]
    u = sol.u.flat()[win]
    he = hermite_poly(j, xw) * hermite_poly(k, yw)
    h_eff = float(np.max(g.h))
    tol = HERMITE_SLACK * h_eff**2 * float(
        np.max(np.abs(hermite_leading_error(j, k, sigma, xw, yw))))

    def error(eigen_index):
        return float(np.max(np.abs(u - he / (1.0 + sigma * eigen_index))))

    r.check(f"hermite-2d:j={j},k={k},sigma={sigma}",
            sol.converged and error(j + k) <= tol)
    wrong = j + k + HERMITE_WRONG_EIGEN_SHIFT
    r.check(f"selftest:hermite-2d-rejects-eigenvalue-index={wrong}",
            error(wrong) > tol)


def invariance_holds(d_l2_values) -> bool:
    """D_n of a first-coordinate-cylindrical family sits at solver accuracy."""
    return all(math.isfinite(d) and d <= INVARIANCE_D_L2_TOL for d in d_l2_values)


# ---------------------------------------------------------------------------
# workloads


def sweeps_2d(r: Round, cli, inputs: dict, seed: int) -> None:
    from oucontract import contract

    out = r.run_suite(cli, "contract", inputs["contract"], seed)
    r.suite_records("contract", out)

    pointwise_calls: list = []
    tap(cli, "check_pointwise_inequality", pointwise_calls)
    out = r.run_suite(cli, "lemma", inputs["lemma"], seed)
    r.suite_records("lemma", out)

    # the lemma suite's pointwise checks, again without the density floor,
    # on the same (sigma, bump) solutions of the three default sweeps
    for (u, bump, sigma, eps, tol), _ in pointwise_calls:
        rep = contract.check_pointwise_inequality(u, bump, sigma, eps, tol,
                                                  density_floor=0.0)
        r.check(f"pointwise-floor-free:{u.grid.domain.name}:{bump.label}:"
                f"sigma={sigma}", rep.ok)

    hermite_oracle(r, inputs["hermite"])


def converge_3d(r: Round, cli, inputs: dict, seed: int) -> None:
    from oucontract import domains, wiener

    cfg = inputs["converge"]
    out = r.run_suite(cli, "converge", cfg, seed)
    r.suite_records("converge", out)

    inv = inputs["invariance"]
    rows = wiener.resolvent_convergence_study(
        wiener.rational_reference_spec(kind=wiener.BM, r=-0.75),
        cfg["sigma"], cfg["dims"], inv["bump_center"], cfg["bump_radius"],
        cfg["box"], cfg["h"], cfg["gh_nodes"], cfg["solver_tol"],
        domain_for=lambda n: domains.halfspace(n, inv["offset"]),
    )
    r.check("invariance:halfspace-family",
            len(rows) == len(cfg["dims"])
            and invariance_holds([row.d_l2 for row in rows]))

    # the suite's own non-cylindrical family at the same sigma must fail
    with open(out / "converge_convergence.csv", encoding="utf-8") as fh:
        table = [row for row in csv.DictReader(
            line for line in fh if not line.startswith("#"))]
    d_ref = [float(row["d_l2"]) for row in table
             if float(row["sigma"]) == cfg["sigma"]]
    r.check("selftest:invariance-rejects-reference_bm",
            len(d_ref) == len(cfg["dims"])
            and not invariance_holds(d_ref))


def oracle_2d(r: Round, cli, inputs: dict, seed: int) -> None:
    import numpy as np

    cfg = inputs["oracle"]
    mc_calls: list = []
    fd_calls: list = []
    tap(cli, "mc_resolvent", mc_calls)
    tap(cli, "solve_resolvent", fd_calls)
    # the Monte Carlo stream is pinned: see the mc_seed note in README.md
    out = r.run_suite(cli, "oracle", cfg, inputs["mc_seed"])
    # the suite's asserted cross-oracle record is the MC-within-3-SE-of-FD check
    r.suite_records("oracle", out)

    ((est, _, probe), estimate), = mc_calls
    r.check("mc-used-configured-paths",
            est.n_paths == cfg["n_paths"] and estimate.n_paths == cfg["n_paths"]
            and est.dt == cfg["dt"] and estimate.n_steps_used == est.n_steps)

    # the same comparison, with the suite's own bound, must reject the FD
    # value at a shifted probe
    with open(out / "report.json", encoding="utf-8") as fh:
        (record,) = [rec for rec in json.load(fh)["payload"]["records"]
                     if rec["name"].startswith("cross-oracle:")]
    (_, sol), = fd_calls
    shifted = np.asarray(probe, dtype=float) + np.asarray(PROBE_SHIFT)
    fd_shifted = float(sol.u.grid.interpolator(sol.u.values)(shifted[None, :])[0])
    r.check("selftest:mc-vs-fd-rejects-shifted-probe",
            abs(fd_shifted - estimate.value) > record["bound"])


WORKLOADS = {"sweeps-2d": sweeps_2d, "converge-3d": converge_3d,
             "oracle-2d": oracle_2d}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    ap.add_argument("--launched", type=float, required=True)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    from oucontract import cli

    with open(BENCH / "inputs" / f"{args.workload}.json", encoding="utf-8") as fh:
        inputs = json.load(fh)
    setup_s = time.monotonic() - args.launched
    result = {"setup_s": setup_s}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        call = tracer.call
    else:
        def call(name, fn, a=(), kw=None):
            return fn(*a, **(kw or {}))

    out_dir = Path(args.out)
    r = Round(out_dir, call)
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    WORKLOADS[args.workload](r, cli, inputs, args.seed)
    result["verdict_s"] = time.perf_counter() - t0
    result["cpu_s"] = time.process_time() - cpu0
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["checks"] = r.checks
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        tracer.write_spans(out_dir / "spans.json")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
