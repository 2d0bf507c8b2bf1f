import pytest

from oucontract import cli


@pytest.fixture(autouse=True)
def empty_solved_sweeps():
    # the contract suite leaves its solutions for the lemma suite of the same
    # process; no test may read solutions that another test made
    cli._SOLVED_SWEEPS.clear()
