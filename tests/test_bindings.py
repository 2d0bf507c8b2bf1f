"""One binding per package function, so one patch reaches every caller.

Modules call sibling functions through the module (``solver.solve_resolvent``),
so a ``setattr`` on the defining module replaces a function for every caller
in the package, as a tracer span or a planted fault needs.  Only ``cli``
binds three functions of other modules by name: ``bench/worker.py`` taps
them on ``cli`` (see ``tests/test_bench_interface.py``).

Every public function and method has a caller in a program, the package or
``bench/``; the few that only tests call yet are listed with their reason.
"""

import ast
import importlib
import inspect
from pathlib import Path

import oucontract
from oucontract import contract, grid as grid_mod, solver, wiener
from oucontract.domains import halfspace
from oucontract.grid import GaussianGrid

MODULES = ("gauss", "domains", "grid", "solver", "feynman_kac", "contract", "wiener",
           "report", "cli")
CLI_TAPS = ["cli.check_pointwise_inequality", "cli.mc_resolvent", "cli.solve_resolvent"]
PACKAGE = Path(oucontract.__file__).resolve().parent
BENCH = PACKAGE.parents[1] / "bench"
# public functions that no program calls yet, each with the reason it stays
UNCALLED = {
    "mc_gradient_probe": "the Monte Carlo gradient oracle of ROADMAP item 7",
    "bias_budget": "the declared Monte Carlo bias of ROADMAP item 11",
    "pathwise_level_value": "row-by-row reference of TestCylindricalClassification",
}


def test_functions_bound_only_in_their_module():
    mods = {name: importlib.import_module(f"oucontract.{name}") for name in MODULES}
    owner = {val: name for name, mod in mods.items() for val in vars(mod).values()
             if inspect.isfunction(val) and val.__module__ == mod.__name__}
    elsewhere = sorted(f"{name}.{attr}" for name, mod in mods.items()
                       for attr, val in vars(mod).items()
                       if inspect.isfunction(val) and owner.get(val, name) != name)
    assert elsewhere == CLI_TAPS


def _count(monkeypatch, module, name):
    """Arguments of every call made through module.<name>, patched once."""
    calls = []
    inner = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_one_setattr_reaches_contract_and_wiener(monkeypatch):
    grads = _count(monkeypatch, grid_mod, "discrete_gradient")
    solves = _count(monkeypatch, solver, "solve_resolvent")

    dom = halfspace(2, 1.0)
    grid = GaussianGrid.build(dom, -5.0, 5.0, 0.5)
    bump = contract.make_bump(dom, [-3.0, 0.0], 1.0, 0.5)
    result = contract.contractivity_sweep(dom, grid, [1.0], [2.0], [bump])
    assert len(solves) == 1 and len(grads) == 1  # the solve, then its Lp ratio
    assert solves[0][0].grid is grid and grads[0][0] is result.solutions[(1.0, bump.label)].u

    rows = wiener.resolvent_convergence_study(wiener.rational_reference_spec(), 1.0, [1],
                                              3.2, 1.0, 6.0, 0.5, 6, 1e-9)
    assert len(rows) == 1
    # the n = 1 and n = 2 truncations: one solve and one gradient each
    assert [args[0].grid.dim for args in solves[1:]] == [1, 2]
    assert [args[0].grid.dim for args in grads[1:]] == [1, 2]


def _public_functions(tree):
    """(qualified name, name) of each public module-level function and of
    each public method or property of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", item.name


def _referenced(tree) -> set[str]:
    """Every name that the tree uses as a ``Name`` or an ``Attribute``."""
    return ({n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
            | {n.attr for n in ast.walk(tree) if isinstance(n, ast.Attribute)})


def test_every_public_function_has_a_program_caller():
    # a program is the package less its re-exports in __init__, or bench/
    defined, referenced = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for qualified, name in _public_functions(tree):
            if not name.startswith("_"):
                defined[f"{path.stem}.{qualified}"] = name
        if path.name != "__init__.py":
            referenced |= _referenced(tree)
    for path in sorted(BENCH.glob("*.py")):
        referenced |= _referenced(ast.parse(path.read_text(encoding="utf-8")))
    uncalled = {qualified for qualified, name in defined.items() if name not in referenced}
    assert sorted(uncalled) == sorted(q for q, name in defined.items() if name in UNCALLED)
