"""Planted faults: each is one patch of a package function, and a named
family of suite records must fail under it while the clean code passes.

A fault that no suite catches gets no test here: it is listed in the
README's table of known blind spots with the open item it waits on.
"""

import pytest

from oucontract import cli, solver
from oucontract.cli import DEFAULT_CONFIGS, DEFAULT_SEED

HERMITE = "hermite-eigen-oracle:k=2,sigma=1.0"


def verdicts(rep):
    return {rec.name: rec.passed for rec in rep.records}


@pytest.mark.parametrize("factor, oracle_passes", [(1.0, True), (1.02, False), (2.0, False)])
def test_sigma_scaled_in_assembly_fails_hermite_oracle(monkeypatch, factor, oracle_passes):
    assemble = solver.assemble_ou_operator

    def scaled(grid, sigma):
        op = assemble(grid, factor * sigma)
        op.sigma = sigma  # the operator claims the sigma it was asked for
        return op

    monkeypatch.setattr(solver, "assemble_ou_operator", scaled)
    rep = cli.suite_solve(DEFAULT_CONFIGS["solve"], DEFAULT_SEED)
    # CG still solves the system it was given; only the oracle sees the wrong one
    assert verdicts(rep) == {HERMITE: oracle_passes, "resolvent-residual": True}
