import json
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import oucontract
from oucontract import cli, solver
from oucontract.cli import (
    DEFAULT_CONFIGS,
    DEFAULT_SEED,
    build_domain,
    main,
    run_suite,
    suite_contract,
)
from oucontract.contract import contractivity_sweep, make_bump
from oucontract.grid import GaussianGrid
from oucontract.report import CheckRecord, SuiteReport, digest, emit_plotdata


def small_curvature_cfg(radius, assert_flag=True, n_samples=24):
    return {
        "n_samples": n_samples,
        "tol": 1e-8,
        "domains": [
            {"type": "ball", "dim": 2, "parameters": {"radius": radius},
             "assert_nonnegative": assert_flag},
        ],
    }


SMALL_CONTRACT_CFG = {
    "sweeps": [{
        "name": "half",
        "domain": {"type": "halfspace", "dim": 2, "parameters": {"offset": 1.0}},
        "grid": {"lo": -8.0, "hi": 8.0, "h": 0.2},
        "sigmas": [1.0],
        "ps": [2.0],
        "bumps": [{"center": [-3.0, 0.0], "radius": 1.0, "margin": 0.5}],
        "assert_contractive": True,
    }],
    "sigma_zero": 1e-4,
    "sigma_zero_band": [0.7, 1.05],  # wide: h = 0.2 is deliberately coarse
    "solver_tol": 1e-9,
}


# two sweeps solved by the contract suite and read again by the lemma suite
TWO_SWEEP_CONTRACT_CFG = {**SMALL_CONTRACT_CFG, "sweeps": [
    SMALL_CONTRACT_CFG["sweeps"][0],
    {
        "name": "ball",
        "domain": {"type": "ball", "dim": 2, "parameters": {"radius": 1.0}},
        "grid": {"lo": -1.3, "hi": 1.3, "h": 0.05},
        "sigmas": [0.1, 1.0],
        "ps": [2.0],
        "bumps": [{"center": [0.0, 0.0], "radius": 0.45, "margin": 0.3}],
        "assert_contractive": True,
    },
]}
TWO_SWEEP_LEMMA_CFG = {**DEFAULT_CONFIGS["lemma"],
                       "sweeps": TWO_SWEEP_CONTRACT_CFG["sweeps"],
                       "n_boundary_samples": 10,
                       "solver_tol": TWO_SWEEP_CONTRACT_CFG["solver_tol"]}


def curvature_domain_cfg(domain):
    return {"n_samples": 4, "domains": [domain]}


def contract_sweep_cfg(**sweep):
    """SMALL_CONTRACT_CFG with the given keys of its one sweep replaced."""
    return {**SMALL_CONTRACT_CFG, "sweeps": [{**SMALL_CONTRACT_CFG["sweeps"][0], **sweep}]}


# a cheap 2-D oracle case; the exit-code tests stop it before any path is drawn
SMALL_ORACLE_2D_CFG = {**DEFAULT_CONFIGS["oracle"], "n_paths": 500, "dt": 1e-2, "cases": [
    {**DEFAULT_CONFIGS["oracle"]["cases"][1], "grid": {"lo": -8.0, "hi": 8.0, "h": 0.4}}]}


@pytest.fixture
def solve_calls(monkeypatch):
    """(sigma, solution) of every right-hand side solved through the solver
    module, in call order."""
    calls = []
    orig = solver.solve_resolvents

    def counted(grid, sigma, rhs, *args, **kwargs):
        sols = orig(grid, sigma, rhs, *args, **kwargs)
        calls.extend((sigma, sol) for sol in sols)
        return sols

    monkeypatch.setattr(solver, "solve_resolvents", counted)
    return calls


class TestExitCodes:
    def test_missing_config_exits_2(self, tmp_path, capsys):
        code = main(["curvature", "--config", str(tmp_path / "nope.json"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    def test_malformed_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["curvature", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2

    def test_curvature_pass_exits_0(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_curvature_cfg(0.9)))
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0

    def test_negative_control_exits_1(self, tmp_path, capsys):
        # ball R = 1.5 in d = 2 violates curvature nonnegativity
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_curvature_cfg(1.5)))
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 1
        err = capsys.readouterr().err
        assert "curvature-nonnegative" in err

    def test_negative_seed_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", "--seed", "-1", "--out", str(tmp_path / "out")])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "--seed" in err and "invalid config" not in err
        assert not (tmp_path / "out").exists()

    def test_non_object_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "list.json"
        bad.write_text("[1, 2]")
        code = main(["curvature", "--config", str(bad), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "JSON object" in capsys.readouterr().err

    def test_wrong_type_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tol": "abc"}))
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "invalid config" in capsys.readouterr().err

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        # a misspelt key must not run the default in its place
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n_sample": 5, "tol": 1e-8}))
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'n_sample'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite, user, key", [
        # the R = 1.5 negative control, whose assertion the misspelling dropped
        ("curvature",
         {"n_samples": 20, "domains": [{"type": "ball", "dim": 2, "parameters": {"radius": 1.5},
                                         "assert_nonnegativ": True}]},
         "domains[0].assert_nonnegativ"),
        ("contract",
         {**SMALL_CONTRACT_CFG, "sweeps": [
             {**{k: v for k, v in SMALL_CONTRACT_CFG["sweeps"][0].items()
                 if k != "assert_contractive"}, "assert_contractiv": True}]},
         "sweeps[0].assert_contractiv"),
        ("oracle",
         {"cases": [{**DEFAULT_CONFIGS["oracle"]["cases"][0],
                     "domain": {"type": "halfspace", "dim": 1,
                                "parameters": {"offset": 1.0, "axes": 0}}}]},
         "cases[0].domain.parameters.axes"),
    ])
    def test_unknown_nested_config_key_exits_2(self, tmp_path, capsys, suite, user, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        code = main([suite, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        assert f"'{key}'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite, user, key, kind", [
        # a record where a list belongs once crashed in build_domain with exit 1
        ("curvature",
         {"domains": {"type": "ball", "dim": 2, "parameters": {"radius": 0.9}}},
         "domains", "list"),
        ("contract",
         {**SMALL_CONTRACT_CFG, "sweeps": [
             {**SMALL_CONTRACT_CFG["sweeps"][0],
              "domain": {"type": "halfspace", "dim": 2, "parameters": [1.0]}}]},
         "sweeps[0].domain.parameters", "record"),
        ("oracle", {"cases": DEFAULT_CONFIGS["oracle"]["cases"][0]}, "cases", "list"),
    ])
    def test_wrong_container_type_exits_2(self, tmp_path, capsys, suite, user, key, kind):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        code = main([suite, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "cannot load config" in err and f"'{key}' must be a {kind}" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("suite, user, message", [
        ("curvature",
         curvature_domain_cfg(
             {"type": "ellipsoid", "dim": 3, "parameters": {"semi_axes": [1.0, 0.6]}}),
         "domain 'dim' is 3, but its parameters give dimension 2"),
        ("curvature", curvature_domain_cfg({"type": "halfspace", "parameters": {"offset": 1.0}}),
         "a halfspace domain record needs a 'dim'"),
        ("curvature", curvature_domain_cfg({"type": "ball", "parameters": {"radius": 0.9}}),
         "a ball domain record needs a 'dim'"),
        # a short center was once broadcast: [0.5] built the disk about (0.5, 0.5)
        ("curvature",
         curvature_domain_cfg(
             {"type": "ball", "dim": 2, "parameters": {"radius": 1.0, "center": [0.5]}}),
         "ball 'center' has shape (1,), but 'dim' is 2"),
        ("curvature",
         curvature_domain_cfg({"type": "ball", "dim": 2,
                               "parameters": {"radius": 1.0, "center": [0.5, 0.0, 0.0]}}),
         "ball 'center' has shape (3,), but 'dim' is 2"),
        # a short bump center was once broadcast: [-2.5] built a ridge along x_1
        ("contract", contract_sweep_cfg(bumps=[{"center": [-2.5], "radius": 0.8,
                                                "margin": 0.3}]),
         "bump 'center' has shape (1,), but 'dim' is 2"),
        # a short probe once raised IndexError in the level function
        ("oracle",
         {**SMALL_ORACLE_2D_CFG, "cases": [{**SMALL_ORACLE_2D_CFG["cases"][0],
                                            "probes": [[-4.2]]}]},
         "start point [-4.2] has shape (1,), but 'dim' is 2"),
        # a grid dim above the domain's once solved the sweep as a 3-D problem
        ("contract", contract_sweep_cfg(grid={"lo": -8.0, "hi": 8.0, "h": 0.4, "dim": 3}),
         "grid 'dim' is 3, but the domain's is 2"),
    ], ids=["ellipsoid-dim-3", "halfspace-no-dim", "ball-no-dim", "ball-short-center",
            "ball-long-center", "bump-short-center", "oracle-short-probe", "grid-dim-3"])
    def test_domain_dim_missing_or_contradicted_exits_2(self, tmp_path, capsys, suite, user,
                                                        message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(user))
        code = main([suite, "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and message in err

    # p = 0 once died in gradient_lp_ratio with a ZeroDivisionError and exit 1,
    # and p = 0.5 wrote quasi-norm records that the lemma suite refused
    @pytest.mark.parametrize("ps", [[0.0, 2.0], [0.5, 2.0]], ids=["p-0", "p-0.5"])
    def test_contract_p_below_1_exits_2(self, tmp_path, capsys, ps):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(contract_sweep_cfg(ps=ps)))
        code = main(["contract", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "p must be >= 1" in err

    def test_lemma_sweep_with_no_deep_interior_exits_2(self, tmp_path, capsys):
        # no node lies 2 steps inside the small disk: the flux integral has
        # no nodes to sum, and its records once passed with observed 0.0
        sweep = {"name": "small-disk", "assert_contractive": True,
                 "domain": {"type": "ball", "dim": 2, "parameters": {"radius": 0.15}},
                 "grid": {"lo": -1.0, "hi": 1.0, "h": 0.1}, "sigmas": [1.0], "ps": [2.0],
                 "bumps": [{"center": [0.0, 0.0], "radius": 0.05, "margin": 0.05}]}
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sweeps": [sweep]}))
        code = main(["lemma", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "region has no quadrature mass" in err

    def test_p_below_1_exits_2_before_any_solve(self, tmp_path, capsys, solve_calls):
        # a bad p in the third default sweep once surfaced only after the
        # sweeps before it were solved, and left an empty --out behind
        for suite in ("contract", "lemma"):
            sweeps = list(DEFAULT_CONFIGS[suite]["sweeps"])
            sweeps[2] = {**sweeps[2], "ps": [0.5, 2.0]}
            cfg = tmp_path / f"{suite}.json"
            cfg.write_text(json.dumps({"sweeps": sweeps}))
            out = tmp_path / f"{suite}-out"
            assert main([suite, "--config", str(cfg), "--out", str(out)]) == 2
            assert "p must be >= 1" in capsys.readouterr().err
            assert not out.exists()
        assert solve_calls == []

    def test_domain_without_boundary_exits_2(self, tmp_path, capsys):
        # G = x_0^2 + 1 > 0 everywhere: no draw can be projected to the boundary
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(curvature_domain_cfg({
            "type": "polynomial", "dim": 1,
            "parameters": {"terms": [{"coeff": 1.0, "powers": [2]},
                                     {"coeff": 1.0, "powers": [0]}]}})))
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "no boundary point of polynomial" in err

    def test_spacing_wider_than_box_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"grid": {"lo": -8.0, "hi": 8.0, "h": 40.0, "dim": 1}}))
        code = main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert "invalid config" in err and "fewer than 2 nodes" in err

    @pytest.mark.parametrize("flag", [["--tol-scale", "2"], ["--grid-h", "0.2"],
                                      ["--no-assert"]])
    def test_removed_flags_are_usage_errors(self, tmp_path, flag):
        with pytest.raises(SystemExit) as exc:
            main(["curvature", *flag, "--out", str(tmp_path / "out")])
        assert exc.value.code == 2

    def test_no_assert_downgrades_failures(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(small_curvature_cfg(1.5, assert_flag=False)))
        code = main(["curvature", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert code == 0
        report = json.loads((tmp_path / "out" / "report.json").read_text())
        (rec,) = report["payload"]["records"]
        assert not rec["pass"] and not rec["asserted"]

    def test_config_grid_spacing_recorded(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(SMALL_CONTRACT_CFG))
        code = main(["contract", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        rows = (tmp_path / "out" / "contract_records.csv").read_text().splitlines()
        h_col = rows[1].split(",").index("h")
        assert all(abs(float(r.split(",")[h_col]) - 0.2) < 1e-12 for r in rows[2:])


class TestContractRichardson:
    """Only a coarse excess over 1 is solved again at h/2."""

    def test_records_match_explicit_halved_sweep(self):
        sweep_cfg = {**DEFAULT_CONFIGS["contract"]["sweeps"][0], "sigmas": [1e-4]}
        cfg = {**DEFAULT_CONFIGS["contract"], "sweeps": [sweep_cfg],
               "sigma_zero": 1e-4}
        rep = suite_contract(cfg, DEFAULT_SEED)

        dom = build_domain(sweep_cfg["domain"])
        bumps = [make_bump(dom, b["center"], b["radius"], b["margin"],
                           label=f"bump{i}")
                 for i, b in enumerate(sweep_cfg["bumps"])]
        g, ps, tol = sweep_cfg["grid"], sweep_cfg["ps"], cfg["solver_tol"]
        coarse, fine = (
            contractivity_sweep(dom, GaussianGrid.build(dom, g["lo"], g["hi"], h),
                                sweep_cfg["sigmas"], ps, bumps, solver_tol=tol)
            for h in (g["h"], g["h"] / 2.0))
        excesses = {(r.bump, r.sigma, r.p): r.ratio - 1.0 for r in coarse.records}
        expected = []
        for r in fine.records:
            ex_coarse = excesses.get((r.bump, r.sigma, r.p), 0.0)
            if ex_coarse > 1e-6:
                expected.append((
                    f"contract-richardson:halfspace:{r.bump}:sigma={r.sigma}:p={r.p}",
                    r.ratio - 1.0, ex_coarse / 2.0 + 1e-9,
                    r.converged and r.ratio - 1.0 <= ex_coarse / 2.0 + 1e-9, r.p > 1.0))
        got = [(rec.name, rec.observed, rec.bound, rec.passed, rec.asserted)
               for rec in rep.records if rec.name.startswith("contract-richardson:")]
        assert expected
        assert got == expected

    def test_no_excess_builds_no_halved_grid(self, monkeypatch):
        built = []
        orig = GaussianGrid.build.__func__

        def build(cls, domain, lo, hi, h, **kw):
            built.append(h)
            return orig(cls, domain, lo, hi, h, **kw)

        monkeypatch.setattr(GaussianGrid, "build", classmethod(build))
        rep = suite_contract(SMALL_CONTRACT_CFG, seed=1)
        assert built == [0.2]
        assert max(rec.observed for rec in rep.records
                   if rec.name.startswith("contract:")) <= 1.0 + 1e-6
        assert not any(rec.name.startswith("contract-richardson:")
                       for rec in rep.records)


class TestUnconvergedSolves:
    """A record computed from a solve that did not converge fails."""

    def test_contract_and_lemma_records_fail(self, monkeypatch, solve_calls, tmp_path):
        monkeypatch.setattr(solver, "_iteration_budget", lambda n_unknowns: 3)
        contract = suite_contract(SMALL_CONTRACT_CFG, seed=1)
        lemma = run_suite("lemma", {**TWO_SWEEP_LEMMA_CFG,
                                    "sweeps": SMALL_CONTRACT_CFG["sweeps"]},
                          tmp_path, seed=1)
        assert solve_calls and not any(sol.converged for _, sol in solve_calls)
        for rep in (contract, lemma):
            assert rep.records and not rep.ok
            assert not any(rec.passed for rec in rep.records)
        # p = 2 only: every contract record is asserted, as is every lemma record
        assert all(rec.asserted for rec in contract.records + lemma.records)


def solve_counters(calls) -> dict:
    """The profile counters that the given (sigma, solution) solves make."""
    return {"linear_solves": len(calls),
            "cg_iterations": sum(s.iterations for _, s in calls),
            "unknowns": sum(s.diagnostics["n_unknowns"] for _, s in calls)}


def work_counters(rep) -> dict:
    """A suite's profile less its wall time and memory."""
    return {k: v for k, v in rep.profile.items() if k not in ("wall_s", "peak_rss_mb")}


class TestSharedSweeps:
    """The lemma suite reads the solutions the contract suite just made."""

    @staticmethod
    def lemma_report(path):
        rep = run_suite("lemma", TWO_SWEEP_LEMMA_CFG, path, seed=5)
        return rep, json.loads((path / "report.json").read_text())

    def test_payload_identical_alone_and_after_contract(self, tmp_path):
        alone, alone_doc = self.lemma_report(tmp_path / "alone")
        run_suite("contract", TWO_SWEEP_CONTRACT_CFG, tmp_path / "contract", seed=5)
        shared, shared_doc = self.lemma_report(tmp_path / "shared")
        assert alone.records and shared.records
        assert (json.dumps(alone_doc["payload"], indent=2, sort_keys=True)
                == json.dumps(shared_doc["payload"], indent=2, sort_keys=True))
        # the profile sits beside the payload: 3 pairs solved alone, 3 reused
        assert set(shared_doc) == {"payload", "generated_at", "profile"}
        assert set(shared_doc["payload"]) == {"suite", "seed", "config",
                                              "environment", "records", "ok"}
        assert alone_doc["profile"]["linear_solves"] == 3
        assert alone_doc["profile"]["solutions_reused"] == 0
        assert shared_doc["profile"]["linear_solves"] == 0
        assert shared_doc["profile"]["solutions_reused"] == 3
        assert shared_doc["profile"]["wall_s"] > 0.0
        # ru_maxrss of the whole process: it never falls between suites
        assert shared_doc["profile"]["peak_rss_mb"] >= alone_doc["profile"]["peak_rss_mb"] > 0.0

    def test_no_solve_after_contract_and_store_emptied(self, solve_calls, tmp_path):
        rep = run_suite("contract", TWO_SWEEP_CONTRACT_CFG, tmp_path / "contract", seed=5)
        # sigma -> 0 rides along: 2 + 3 solves, every one counted
        assert len(solve_calls) == rep.profile["linear_solves"] == 5
        assert work_counters(rep) == {**solve_counters(solve_calls), "solutions_reused": 0}
        assert rep.profile["cg_iterations"] > 0
        assert len(cli._SOLVED_SWEEPS) == 2
        del solve_calls[:]
        rep = run_suite("lemma", TWO_SWEEP_LEMMA_CFG, tmp_path / "lemma", seed=5)
        assert solve_calls == []
        assert work_counters(rep) == {"linear_solves": 0, "cg_iterations": 0,
                                      "unknowns": 0, "solutions_reused": 3}
        assert cli._SOLVED_SWEEPS == {}

    def test_other_sigmas_solve_again(self, solve_calls, tmp_path):
        run_suite("contract", TWO_SWEEP_CONTRACT_CFG, tmp_path / "contract", seed=5)
        half, ball = TWO_SWEEP_LEMMA_CFG["sweeps"]
        cfg = {**TWO_SWEEP_LEMMA_CFG, "sweeps": [{**half, "sigmas": [2.0]}, ball]}
        del solve_calls[:]
        rep = run_suite("lemma", cfg, tmp_path / "lemma", seed=5)
        assert [sigma for sigma, _ in solve_calls] == [2.0]
        assert work_counters(rep) == {**solve_counters(solve_calls), "solutions_reused": 2}
        assert cli._SOLVED_SWEEPS == {}

    def test_other_solver_tol_solves_again(self, solve_calls, tmp_path):
        run_suite("contract", TWO_SWEEP_CONTRACT_CFG, tmp_path / "contract", seed=5)
        del solve_calls[:]
        rep = run_suite("lemma", {**TWO_SWEEP_LEMMA_CFG, "solver_tol": 1e-10},
                        tmp_path / "lemma", seed=5)
        assert sorted(sigma for sigma, _ in solve_calls) == [0.1, 1.0, 1.0]
        assert work_counters(rep) == {**solve_counters(solve_calls), "solutions_reused": 0}
        # the contract's entries stay until the next contract run empties them
        assert len(cli._SOLVED_SWEEPS) == 2
        suite_contract({**TWO_SWEEP_CONTRACT_CFG, "sweeps": []}, seed=5)
        assert cli._SOLVED_SWEEPS == {}


# one cheap halfline case: the oracle suite's profile, not its verdict
SMALL_ORACLE_CFG = {
    "n_paths": 500,
    "dt": 1e-2,
    "sigma": 0.4,
    "cases": [{
        "name": "halfline",
        "domain": {"type": "halfspace", "dim": 1, "parameters": {"offset": 1.0}},
        "grid": {"lo": -8.0, "hi": 8.0, "h": 0.05},
        "bump": {"center": [-3.2], "radius": 1.0, "margin": 0.5},
        "probes": [[-4.6], [-3.0]],
    }],
}


class TestProfile:
    def test_oracle_counters(self, tmp_path):
        rep = run_suite("oracle", SMALL_ORACLE_CFG, tmp_path, seed=5)
        profile = json.loads((tmp_path / "report.json").read_text())["profile"]
        assert set(profile) == {"linear_solves", "cg_iterations", "unknowns", "probes",
                                "wall_s", "peak_rss_mb"}
        assert profile == rep.profile
        dom = build_domain(SMALL_ORACLE_CFG["cases"][0]["domain"])
        grid = GaussianGrid.build(dom, -8.0, 8.0, 0.05)
        assert profile["linear_solves"] == 1
        assert profile["unknowns"] == grid.n_interior
        assert profile["cg_iterations"] > 0
        n_steps = cli.KilledPathEstimator(dom, 0.4, dt=1e-2).n_steps
        assert list(profile["probes"]) == [r.name for r in rep.records]
        for probe in profile["probes"].values():
            assert 0 < probe["mc_steps_used"] <= n_steps
            # one normal per live path (d = 1) and step
            assert 0 < probe["normals"] <= 500 * probe["mc_steps_used"]
            live = probe["live_paths"]
            assert len(live) == 11 and live[0] == 500
            assert all(a >= b for a, b in zip(live, live[1:]))

    def test_each_suite_counts_only_its_own_solves(self, solve_calls, tmp_path):
        # one process, one solver tally: run_suite zeroes it before each suite
        rep = run_suite("contract", SMALL_CONTRACT_CFG, tmp_path / "contract", seed=1)
        assert work_counters(rep) == {**solve_counters(solve_calls), "solutions_reused": 0}
        assert rep.profile["linear_solves"] == 2
        n_contract = len(solve_calls)
        # dims 1 and 2 solve n = 1, 2, 3 at each sigma; n = 2 feeds two rows
        cfg = {**DEFAULT_CONFIGS["converge"], "dims": [1, 2], "h": 0.6, "gh_nodes": 6}
        rep = run_suite("converge", cfg, tmp_path / "converge", seed=1)
        assert [s.u.grid.dim for _, s in solve_calls[n_contract:]] == [1, 2, 3, 1, 2, 3]
        assert work_counters(rep) == solve_counters(solve_calls[n_contract:])
        rep = run_suite("curvature", small_curvature_cfg(0.9), tmp_path / "curvature", seed=1)
        assert len(solve_calls) == n_contract + 6
        assert work_counters(rep) == solve_counters([])

    def test_cli_import_leaves_out_sparse_linalg(self):
        # the solver owns its CG loop; scipy.sparse.linalg costs set-up time
        src = str(Path(oucontract.__file__).resolve().parents[1])
        code = ("import sys, oucontract.cli; "
                "print('scipy.sparse.linalg' in sys.modules)")
        proc = subprocess.run([sys.executable, "-c", code], cwd=src, capture_output=True,
                              text=True, timeout=120, check=True)
        assert proc.stdout.strip() == "False"

    def test_interpolation_leaves_out_scipy_beyond_sparse(self):
        # the grid interpolates by itself; scipy.interpolate would pull in
        # optimize, special, linalg and spatial at about 0.5 s and 28 MB
        src = str(Path(oucontract.__file__).resolve().parents[1])
        code = "\n".join([
            "import json, sys",
            "import numpy as np",
            "import oucontract.cli as cli",
            "from oucontract.grid import GaussianGrid",
            "from oucontract.wiener import (rational_reference_spec,",
            "                               resolvent_convergence_study)",
            "rep = cli.suite_lemma(json.loads(sys.argv[1]), 3)",
            "slopes = [r.observed for r in rep.records",
            "          if r.name.startswith('boundary-normal-slope')]",
            "assert slopes and 0.0 not in slopes  # probes were placed and read",
            "resolvent_convergence_study(rational_reference_spec(), 1.0, [1], 3.2,",
            "                            1.0, 6.0, 0.3, 8, 1e-9)",
            "grid = GaussianGrid.build(None, -1.0, 1.0, 0.5, dim=3)",
            "grid.interpolator(np.ones(grid.shape))(np.zeros((2, 3)))",
            "print(json.dumps(sorted(m for m in ('scipy.interpolate', 'scipy.optimize',",
            "    'scipy.special', 'scipy.linalg', 'scipy.spatial') if m in sys.modules)))",
        ])
        cfg = {**TWO_SWEEP_LEMMA_CFG, "sweeps": TWO_SWEEP_LEMMA_CFG["sweeps"][1:]}
        proc = subprocess.run([sys.executable, "-c", code, json.dumps(cfg)], cwd=src,
                              capture_output=True, text=True, timeout=120, check=True)
        assert json.loads(proc.stdout) == []


class TestDomainBuilding:
    def test_epigraph_domain_from_config(self, tmp_path):
        from oucontract.cli import build_domain

        dom = build_domain({
            "type": "epigraph", "dim": 3,
            "parameters": {"kind": "gauss_ridge", "c0": 2.0, "amp": 0.5,
                           "weights": [1.0, 0.0]},
        })
        assert dom.dim == 3
        assert dom.contains([-4.0, 0.0, 0.0])
        assert not dom.contains([0.0, 0.0, 0.0])

    def test_epigraph_curvature_suite_config(self, tmp_path):
        cfg = {
            "n_samples": 16,
            "tol": 1e-8,
            "domains": [
                {"type": "epigraph", "dim": 2,
                 "parameters": {"kind": "constant", "C": 1.0},
                 "assert_nonnegative": True},
            ],
        }
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg))
        code = main(["curvature", "--config", str(path),
                     "--out", str(tmp_path / "out")])
        assert code == 0


# one record per row of the domain table, holding every key its schema takes
FULL_DOMAIN_RECORDS = {
    ("halfspace", None): {"offset": 1.0, "axis": 1},
    ("ball", None): {"radius": 0.9, "center": [0.0, 0.1]},
    ("ellipsoid", None): {"semi_axes": [1.0, 0.6]},
    ("polynomial", None): {"terms": [{"coeff": 1.0, "powers": [2, 0]},
                                     {"coeff": 1.0, "powers": [0, 2]},
                                     {"coeff": -1.0, "powers": [0, 0]}]},
    ("epigraph", "constant"): {"kind": "constant", "C": 1.0},
    ("epigraph", "gauss_ridge"): {"kind": "gauss_ridge", "c0": 2.0, "amp": 0.5,
                                  "weights": [1.0]},
}


def row_id(key):
    return "-".join(filter(None, key))


class TestDomainTable:
    """The key check and build_domain read the same table."""

    def test_every_row_has_a_full_record(self):
        assert set(FULL_DOMAIN_RECORDS) == set(cli._DOMAIN_TABLE)
        for key, params in FULL_DOMAIN_RECORDS.items():
            assert set(params) == set(cli._DOMAIN_TABLE[key][0])

    @pytest.mark.parametrize("key", list(FULL_DOMAIN_RECORDS), ids=row_id)
    def test_full_record_loads_and_builds(self, tmp_path, key):
        record = {"type": key[0], "dim": 2, "parameters": FULL_DOMAIN_RECORDS[key]}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domains": [record]}))
        assert cli._load_config("curvature", str(path))["domains"] == [record]
        assert build_domain(record).dim == 2

    @pytest.mark.parametrize("key", list(FULL_DOMAIN_RECORDS), ids=row_id)
    def test_extra_parameter_key_exits_2(self, tmp_path, capsys, key):
        record = {"type": key[0], "dim": 2,
                  "parameters": {**FULL_DOMAIN_RECORDS[key], "extra": 1.0}}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"domains": [record]}))
        code = main(["curvature", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "'domains[0].parameters.extra'" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestReports:
    def test_only_failing_asserted_rows_carry_inputs(self):
        inputs = {"n": np.int64(3), "x": np.float64(0.5), "pts": (1, 2)}
        rows = [CheckRecord("r", 1.0, 0.0, passed, asserted, inputs).row()
                for passed, asserted in ((True, True), (False, False), (False, True))]
        assert ["inputs" in row for row in rows] == [False, False, True]
        assert set(rows[0]) == {"name", "inputs_digest", "observed", "bound", "pass",
                                "asserted"}
        failing = json.loads(json.dumps(rows[2]))  # numpy scalars serialize
        assert failing["inputs"] == {"n": "3", "x": 0.5, "pts": [1, 2]}
        assert digest(failing["inputs"]) == failing["inputs_digest"]

    def test_report_written_with_records(self, tmp_path):
        rep = run_suite("curvature", small_curvature_cfg(0.9), tmp_path, seed=3)
        doc = json.loads((tmp_path / "report.json").read_text())
        assert doc["payload"]["suite"] == "curvature"
        assert doc["payload"]["records"]
        assert rep.ok

    def test_determinism_byte_identical_payload(self, tmp_path):
        cfg = small_curvature_cfg(0.9)
        rep1 = run_suite("curvature", cfg, tmp_path / "a", seed=11)
        rep2 = run_suite("curvature", cfg, tmp_path / "b", seed=11)
        p1 = json.dumps(rep1.payload(), sort_keys=True)
        p2 = json.dumps(rep2.payload(), sort_keys=True)
        assert p1 == p2

    def test_solve_suite_exports(self, tmp_path):
        cfg = DEFAULT_CONFIGS["solve"]
        rep = run_suite("solve", cfg, tmp_path, seed=1)
        assert rep.ok
        # the nodal solution is a report table: no file beside the report's own
        assert sorted(p.relative_to(tmp_path).as_posix() for p in tmp_path.rglob("*")
                      if p.is_file()) == ["plotdata/empty.csv", "report.json",
                                          "solve_solution.csv"]
        g = cfg["grid"]
        grid = GaussianGrid.build(None, g["lo"], g["hi"], g["h"], dim=g["dim"])
        n_interior = grid.n_interior
        # the rows are the nodes the Hermite record reads, not the box faces
        x0 = grid.node_coordinates()[:, 0]
        window = x0[np.abs(x0) <= cfg["oracle_window"]]
        table = rep.tables["solution"]
        assert table.columns == ["x0", "u", "grad_norm"]
        assert [row[0] for row in table.rows] == window.tolist()
        assert len(window) == 351 < n_interior == 801
        k, sigma = cfg["hermite_degree"], cfg["sigma"]
        exact = oucontract.hermite_poly(k, window) / (1.0 + sigma * k)
        u = np.array([row[1] for row in table.rows])
        assert np.max(np.abs(u - exact)) <= cfg["oracle_tol"]
        assert all(type(v) is float for row in table.rows for v in row)
        # every field below the comment and header is a plain number
        comment, header, *rows = (tmp_path / "solve_solution.csv").read_text().splitlines()
        assert comment.startswith("#") and header == "x0,u,grad_norm"
        assert [[float(v) for v in row.split(",")] for row in rows] == table.rows
        profile = json.loads((tmp_path / "report.json").read_text())["profile"]
        assert profile == rep.profile
        assert set(profile) == {"linear_solves", "cg_iterations", "unknowns",
                                "wall_s", "peak_rss_mb"}
        assert profile["linear_solves"] == 1
        assert profile["unknowns"] == n_interior
        assert profile["cg_iterations"] > 0

    def test_curvature_histogram_plotdata(self, tmp_path):
        run_suite("curvature", small_curvature_cfg(0.9), tmp_path, seed=5)
        hist = tmp_path / "plotdata" / "hgamma_histogram.csv"
        assert hist.exists()
        lines = hist.read_text().splitlines()
        assert lines[0].startswith("#")
        assert lines[1] == "domain,h_gamma"
        assert len(lines) > 2


class TestPlotdataShapes:
    @staticmethod
    def csv_rows(path):
        return [line.split(",") for line in path.read_text().splitlines()
                if not line.startswith("#")]

    def test_contract_tables(self, tmp_path):
        # sigma -> 0 rides along: 3 sigma x 4 p rows for one bump
        sweep = {**SMALL_CONTRACT_CFG["sweeps"][0], "sigmas": [0.1, 1.0],
                 "ps": [1.5, 2.0, 3.0, 4.0]}
        run_suite("contract", {**SMALL_CONTRACT_CFG, "sweeps": [sweep]}, tmp_path, seed=0)
        plots = tmp_path / "plotdata"
        assert {p.name for p in plots.iterdir()} == {"ratio_vs_sigma.csv", "ratio_vs_p.csv"}
        header, *records = self.csv_rows(tmp_path / "contract_records.csv")
        assert len(records) == 12
        for name, cols in (("ratio_vs_sigma", ["domain", "bump", "p", "sigma", "ratio"]),
                           ("ratio_vs_p", ["domain", "bump", "sigma", "p", "ratio"])):
            lines = (plots / f"{name}.csv").read_text().splitlines()
            assert len(lines) == 2 + 12  # comment + header + 3 sigma x 4 p
            # each row projects the record of the same position
            assert self.csv_rows(plots / f"{name}.csv") == [cols] + [
                [r[header.index(c)] for c in cols] for r in records]

    def test_converge_table(self, tmp_path):
        cfg = {**DEFAULT_CONFIGS["converge"], "dims": [1], "h": 0.3, "gh_nodes": 8}
        run_suite("converge", cfg, tmp_path, seed=1)
        assert [p.name for p in (tmp_path / "plotdata").iterdir()] == ["dn_vs_n.csv"]
        lines = (tmp_path / "plotdata" / "dn_vs_n.csv").read_text().splitlines()
        assert len(lines) == 2 + 2  # comment + header + sigma and sigma_zero at n = 1
        assert lines[1] == "sigma,n,d_l2,d_grad,residual_n,residual_n_plus_1"
        assert lines == (tmp_path / "converge_convergence.csv").read_text().splitlines()

    def test_empty_report_headers_only(self, tmp_path):
        rep = SuiteReport("contract", 0, {})
        written = emit_plotdata(rep, tmp_path)
        assert written
        content = written[0].read_text().splitlines()
        assert content[0].startswith("#")


NEGATIVE_CONTROL = "curvature_negative_control.json"


class TestShippedConfigs:
    @pytest.mark.parametrize("suite", sorted(DEFAULT_CONFIGS))
    def test_config_file_matches_defaults(self, suite):
        # the shipped file, passed back as --config, passes the key check
        # at every level and reproduces the defaults
        path = cli.CONFIG_DIR / f"{suite}.json"
        assert cli._load_config(suite, str(path)) == DEFAULT_CONFIGS[suite]

    def test_negative_control_config_exits_1(self, tmp_path, capsys):
        # the README's negative-control command: ball R = 1.5 in d = 2
        code = main(["curvature", "--config", str(cli.CONFIG_DIR / NEGATIVE_CONTROL),
                     "--out", str(tmp_path / "out")])
        assert code == 1
        assert "curvature-nonnegative" in capsys.readouterr().err

    def test_negative_control_failing_record_carries_inputs(self, tmp_path):
        out = tmp_path / "out"
        assert main(["curvature", "--config", str(cli.CONFIG_DIR / NEGATIVE_CONTROL),
                     "--out", str(out)]) == 1
        rows = json.loads((out / "report.json").read_text())["payload"]["records"]
        (row,) = [r for r in rows if r["name"].startswith("curvature-nonnegative")]
        assert row["asserted"] and not row["pass"]
        assert row["inputs"]["domain"]["parameters"] == {"radius": 1.5}
        assert digest(row["inputs"]) == row["inputs_digest"]

    def test_every_config_file_is_covered(self):
        # one defaults file per suite, plus the negative control
        covered = {f"{suite}.json" for suite in cli._SUITES} | {NEGATIVE_CONTROL}
        shipped = {p.name for p in cli.CONFIG_DIR.rglob("*") if p.is_file()}
        assert shipped == covered

    def test_loaded_config_is_a_fresh_copy(self):
        cfg = cli._load_config("contract", None)
        cfg["sweeps"][0]["bumps"][0]["center"][0] = 99.0
        cfg["solver_tol"] = 1.0
        for again in (DEFAULT_CONFIGS["contract"], cli._load_config("contract", None)):
            assert again["sweeps"][0]["bumps"][0]["center"][0] == -3.0
            assert again["solver_tol"] == 1e-10


class TestConvergeSuite:
    def test_record_names_and_csv_sigma_order(self, tmp_path):
        from oucontract.wiener import rational_reference_spec, resolvent_convergence_study

        cfg = {**DEFAULT_CONFIGS["converge"], "h": 0.3, "gh_nodes": 8}
        rep = run_suite("converge", cfg, tmp_path, seed=1)
        assert [rec.name for rec in rep.records] == [
            "convergence-finite:n=1",
            "convergence-finite:n=2",
            "convergence-monotone:D2<=D1",
            "convergence-identity-limit:n=1",
            "convergence-identity-limit:n=2",
        ]
        # sigma rows, then sigma_zero rows, each equal to a scalar study call
        expected = [
            [sigma, row.n, row.d_l2]
            for sigma in (cfg["sigma"], cfg["sigma_zero"])
            for row in resolvent_convergence_study(
                rational_reference_spec(), sigma, cfg["dims"], cfg["bump_center"],
                cfg["bump_radius"], cfg["box"], cfg["h"], cfg["gh_nodes"],
                cfg["solver_tol"])
        ]
        lines = [line.split(",") for line in
                 (tmp_path / "converge_convergence.csv").read_text().splitlines()
                 if not line.startswith("#")]
        cols = [lines[0].index(name) for name in ("sigma", "n", "d_l2")]
        table = [[float(r[cols[0]]), int(r[cols[1]]), float(r[cols[2]])]
                 for r in lines[1:]]
        assert table == expected
