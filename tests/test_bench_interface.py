"""The names that the benchmark in ``bench/`` reaches inside the package.

``bench/tracer.py`` rebinds package functions in every module namespace
that binds them, and ``bench/worker.py`` taps three names on
``oucontract.cli`` and unpacks the calls it records there.  If a refactor
moves one of those calls off ``cli``'s own binding, a tap sees nothing: a
sweeps round would silently lose its floor-free checks and an oracle round
would fail to unpack.  These tests read ``bench/`` and change nothing
there.
"""

import subprocess
import sys
from pathlib import Path

import numpy as np

import oucontract
from oucontract import cli, contract

SRC = Path(oucontract.__file__).resolve().parents[1]
BENCH = SRC.parent / "bench"

# bench/worker.py's order: import cli, then install the tracer
_INSTALL = """
import sys
sys.path[:0] = [{src!r}, {bench!r}]
from oucontract import cli
import tracer
tracer.install(tracer.Tracer())
names = ("check_pointwise_inequality", "solve_resolvent", "mc_resolvent")
print(*(hasattr(getattr(cli, name), "__wrapped__") for name in names))
"""

# one halfspace sweep at a coarse h, as in the sweeps-2d lemma suite
_LEMMA_CFG = {**cli.DEFAULT_CONFIGS["lemma"], "n_boundary_samples": 4, "sweeps": [{
    "name": "halfspace",
    "domain": {"type": "halfspace", "dim": 2, "parameters": {"offset": 1.0}},
    "grid": {"lo": -6.0, "hi": 6.0, "h": 0.25},
    "sigmas": [1.0],
    "ps": [2.0],
    "bumps": [{"center": [-3.0, 0.0], "radius": 1.0, "margin": 0.5}],
    "assert_contractive": True,
}]}

# oracle-2d's case with a coarse grid and few paths
_ORACLE_CFG = {
    "n_paths": 200,
    "dt": 2e-2,
    "sigma": 0.4,
    "cases": [{
        "name": "halfspace2d",
        "domain": {"type": "halfspace", "dim": 2, "parameters": {"offset": 1.0}},
        "grid": {"lo": -8.0, "hi": 8.0, "h": 0.25},
        "bump": {"center": [-3.2, 0.0], "radius": 1.0, "margin": 0.5},
        "probes": [[-4.2, 0.5]],
    }],
}


def _record(monkeypatch, name, log):
    """Log (args, kwargs, result) of every call made through cli.<name>."""
    inner = getattr(cli, name)

    def recorded(*args, **kwargs):
        out = inner(*args, **kwargs)
        log.append((args, kwargs, out))
        return out

    monkeypatch.setattr(cli, name, recorded)


def test_tracer_installs_on_a_fresh_import():
    code = _INSTALL.format(src=str(SRC), bench=str(BENCH))
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["True"] * 3


def test_worker_taps_see_the_calls_they_unpack(monkeypatch, tmp_path):
    pointwise, solves, mc = [], [], []
    _record(monkeypatch, "check_pointwise_inequality", pointwise)
    cli.run_suite("lemma", _LEMMA_CFG, tmp_path / "lemma", 5)
    assert pointwise
    for args, kwargs, _ in pointwise:
        assert len(args) == 5 and not kwargs
    (u, bump, sigma, eps, tol), _, _ = pointwise[0]
    rep = contract.check_pointwise_inequality(u, bump, sigma, eps, tol, density_floor=0.0)
    assert isinstance(rep.ok, bool)
    assert u.grid.domain.name and bump.label

    _record(monkeypatch, "solve_resolvent", solves)
    _record(monkeypatch, "mc_resolvent", mc)
    cli.run_suite("oracle", _ORACLE_CFG, tmp_path / "oracle", 5)
    ((est, _, probe), kwargs, estimate), = mc
    assert not kwargs
    assert est.n_paths == estimate.n_paths == _ORACLE_CFG["n_paths"]
    assert est.dt == _ORACLE_CFG["dt"] and estimate.n_steps_used <= est.n_steps
    (_, _, sol), = solves
    fd = sol.u.grid.interpolator(sol.u.values)(np.asarray(probe, dtype=float)[None, :])
    assert fd.shape == (1,)
