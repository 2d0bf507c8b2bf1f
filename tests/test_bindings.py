"""One binding per package function, so one patch reaches every caller.

Modules call sibling functions through the module (``solver.solve_resolvents``),
so a ``setattr`` on the defining module replaces a function for every caller
in the package, as a tracer span or a planted fault needs.  Only ``cli``
binds three functions of other modules by name: ``bench/worker.py`` taps
them on ``cli`` (see ``tests/test_bench_interface.py``).

Every public function and method has a caller in a program, the package or
``bench/``; the few that only tests call yet are listed with their reason.
What only their bodies read is not reached by a program.  Every dataclass
field is read by a program.
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
    # solve_resolvent is solve_resolvents for one job: this patch sees every solve
    grads = _count(monkeypatch, grid_mod, "discrete_gradient")
    solves = _count(monkeypatch, solver, "solve_resolvents")

    dom = halfspace(2, 1.0)
    grid = GaussianGrid.build(dom, -5.0, 5.0, 0.5)
    bump = contract.make_bump(dom, [-3.0, 0.0], 1.0, 0.5)
    result = contract.contractivity_sweep(dom, grid, [1.0], [2.0], [bump])
    assert len(solves) == 1 and len(grads) == 1  # the solve, then its Lp ratio
    assert solves[0][0] is grid and grads[0][0] is result.solutions[(1.0, bump.label)].u

    rows = wiener.resolvent_convergence_study(wiener.rational_reference_spec(), 1.0, [1],
                                              3.2, 1.0, 6.0, 0.5, 6, 1e-9)
    assert len(rows) == 1
    # the n = 1 and n = 2 truncations: one solve and one gradient each
    assert [args[0].dim for args in solves[1:]] == [1, 2]
    assert [args[0].grid.dim for args in grads[1:]] == [1, 2]


def test_sweep_assembles_once_per_sigma(monkeypatch):
    # one operator serves every bump of a sigma: 2 assemblies for 4 solves
    assemblies = _count(monkeypatch, solver, "assemble_ou_operator")
    dom = halfspace(2, 1.0)
    grid = GaussianGrid.build(dom, -5.0, 5.0, 0.5)
    bumps = [contract.make_bump(dom, c, 1.0, 0.5, label=f"b{i}")
             for i, c in enumerate(([-3.0, 0.0], [-3.0, 1.0]))]
    result = contract.contractivity_sweep(dom, grid, [0.1, 1.0], [2.0], bumps)
    assert len(result.solutions) == 4
    assert [(args[0] is grid, args[1]) for args in assemblies] == [(True, 0.1), (True, 1.0)]


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


def _package_trees():
    """(module name, parsed module) of every file in the package."""
    for path in sorted(PACKAGE.glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _program_nodes(skip=()):
    """Every node of a program, outside the bodies of the functions in ``skip``.

    A program is the package less its re-exports in __init__, or bench/.
    """
    files = [p for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path in files + sorted(BENCH.glob("*.py")):
        todo = [ast.parse(path.read_text(encoding="utf-8"))]
        while todo:
            node = todo.pop()
            if not (isinstance(node, ast.FunctionDef) and node.name in skip):
                yield node
                todo.extend(ast.iter_child_nodes(node))


def _unreached(skip=()) -> list[str]:
    """Public functions, methods and properties that no program reads.

    A function counts as read when its name is used as a ``Name`` or an
    ``Attribute``; a method or property only as an ``Attribute``, so a
    local variable of the same name does not reach it.
    """
    names, attrs = set(), set()
    for node in _program_nodes(skip):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            attrs.add(node.attr)

    def read(qualified, name):
        return name in attrs or ("." not in qualified and name in names)

    return sorted(f"{stem}.{qualified}" for stem, tree in _package_trees()
                  for qualified, name in _public_functions(tree)
                  if not name.startswith("_") and not read(qualified, name))


def test_every_public_function_has_a_program_caller():
    exempt = {f"{stem}.{qualified}" for stem, tree in _package_trees()
              for qualified, name in _public_functions(tree) if name in UNCALLED}
    assert _unreached() == sorted(exempt)


def test_reads_inside_uncalled_functions_do_not_count():
    # the exemption covers an UNCALLED function, not the members that only
    # its body reads: those have no program caller either
    assert sorted(set(_unreached(skip=UNCALLED)) - set(_unreached())) == []


def _is_dataclass(decorator) -> bool:
    if isinstance(decorator, ast.Call):
        decorator = decorator.func
    return isinstance(decorator, ast.Name) and decorator.id == "dataclass"


def _decorated(func, name) -> bool:
    return any(isinstance(d, ast.Name) and d.id == name for d in func.decorator_list)


FOREIGN = ("foreign",)  # a value that no package class declares
COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)
TAP = "unpacked from a call that bench/worker.py records through a tap on cli"
# reads of a field name that several package classes declare, on a receiver
# whose type the guard cannot infer: the class each reads, and why
UNRESOLVED = {
    "bench.worker.oracle_2d: est.dt": ("feynman_kac.KilledPathEstimator", TAP),
    "bench.worker.oracle_2d: est.n_paths": ("feynman_kac.KilledPathEstimator", TAP),
    "bench.worker.oracle_2d: estimate.n_paths": ("feynman_kac.McEstimate", TAP),
    "bench.worker.oracle_2d: sol.u.grid": ("grid.ScalarField", TAP),
    "bench.worker.oracle_2d: sol.u.values": ("grid.ScalarField", TAP),
    "bench.worker.sweeps_2d: u.grid": ("grid.ScalarField", TAP),
    "bench.worker.sweeps_2d: u.grid.domain": ("grid.GaussianGrid", TAP),
    "bench.worker.sweeps_2d: u.grid.domain.name": ("domains.LevelSetDomain", TAP),
    "cli.build_domain: dom.dim": ("domains.LevelSetDomain",
                                  "built by a function looked up in _DOMAIN_TABLE"),
    "cli.main: rec.name": ("report.CheckRecord", "unpacked from a list of (suite, record)"),
    "cli.suite_contract: grid.h": ("grid.GaussianGrid",
                                   "made by the grid_at closure of _sweep_setup's tuple"),
    "cli.suite_lemma: grid.h": ("grid.GaussianGrid",
                                "made by the grid_at closure of _sweep_setup's tuple"),
    "cli.suite_lemma: sol.converged": ("solver.ResolventSolution",
                                       "looked up in SweepResult.solutions, a plain dict"),
    "cli.suite_wiener: spec_e.name": ("wiener.EpigraphSpec",
                                      "unpacked from a literal tuple of (spec, m) pairs"),
    "wiener._convergence_rows: rhs.grid": ("grid.ScalarField",
                                           "unpacked from the items of a plain dict"),
}


def _bind(target, t):
    """(name, type) of each name that binding a value of type t to target binds."""
    if isinstance(target, ast.Name):
        yield target.id, t
    elif isinstance(target, ast.Starred):
        yield from _bind(target.value, None)
    elif isinstance(target, (ast.Tuple, ast.List)):
        parts = (t[1] if t and t[0] == "tuple" and len(t[1]) == len(target.elts)
                 else [None] * len(target.elts))
        for elt, part in zip(target.elts, parts):
            yield from _bind(elt, part)


class _Types:
    """Static types of package values, read from the annotations in ``src/``.

    A type is a class key ("module.Class") for an instance of a package
    class; ("list", T), ("tuple", (T, ...)), ("class", key), ("call", owner,
    name) or ("module", name) for other package values; FOREIGN for a value
    of another library; None where nothing is known.
    """

    def __init__(self):
        trees = {p.stem: ast.parse(p.read_text(encoding="utf-8"))
                 for p in sorted(PACKAGE.glob("*.py"))}
        self.fields = {}   # class key -> {field: annotation}
        self.returns = {}  # module or class key -> {function: (annotation, is property)}
        for stem, tree in trees.items():
            self.returns[stem] = {}
            for node in tree.body:
                if isinstance(node, ast.ClassDef):
                    key = f"{stem}.{node.name}"
                    self.returns[key] = {f.name: (f.returns, _decorated(f, "property"))
                                         for f in node.body if isinstance(f, ast.FunctionDef)}
                    if any(map(_is_dataclass, node.decorator_list)):
                        self.fields[key] = {f.target.id: f.annotation for f in node.body
                                            if isinstance(f, ast.AnnAssign)}
                elif isinstance(node, ast.FunctionDef):
                    self.returns[stem][node.name] = (node.returns, False)
        self.modules = {stem: self.top_level(stem, tree) for stem, tree in trees.items()}

    def top_level(self, stem, tree) -> dict:
        """Types of the classes, functions and imports a module binds at top level."""
        scope, ours = {}, stem in self.returns  # bench/ declares no package value
        for node in tree.body:
            if isinstance(node, ast.ClassDef):
                scope[node.name] = ("class", f"{stem}.{node.name}") if ours else FOREIGN
            elif isinstance(node, ast.FunctionDef):
                scope[node.name] = ("call", stem, node.name) if ours else FOREIGN
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                scope.update(self.imported(node))
        return scope

    def imported(self, node) -> dict:
        mod = getattr(node, "module", None) or ""
        if getattr(node, "level", 0):
            base = mod
        elif mod == "oucontract" or mod.startswith("oucontract."):
            base = mod[len("oucontract."):]
        else:
            return {(a.asname or a.name).split(".")[0]: FOREIGN for a in node.names}
        out = {}
        for a in node.names:
            if not base:
                t = ("module", a.name) if a.name in self.returns else None
            elif f"{base}.{a.name}" in self.returns:
                t = ("class", f"{base}.{a.name}")
            else:
                t = ("call", base, a.name) if a.name in self.returns.get(base, {}) else None
            out[a.asname or a.name] = t
        return out

    def annotation(self, ann, module):
        """The type of the value an annotation of ``module`` declares."""
        if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
            ann = ast.parse(ann.value, mode="eval").body
        if isinstance(ann, ast.BinOp):  # X | None
            return self.annotation(ann.left, module) or self.annotation(ann.right, module)
        if isinstance(ann, ast.Subscript) and isinstance(ann.value, ast.Name):
            if ann.value.id == "list":
                return ("list", self.annotation(ann.slice, module))
            if ann.value.id == "tuple" and isinstance(ann.slice, ast.Tuple):
                return ("tuple", tuple(self.annotation(e, module) for e in ann.slice.elts))
        t = self.of(ann, self.modules.get(module, {})) if ann is not None else None
        return t[1] if t and t[0] == "class" else None

    def of(self, node, env):
        """The type of an expression, given the types of its names."""
        if isinstance(node, ast.Name):
            return env.get(node.id)
        if isinstance(node, ast.IfExp):
            t = self.of(node.body, env)
            return t if t == self.of(node.orelse, env) else None
        if isinstance(node, ast.ListComp):  # [x for x in xs if ...] keeps the type of xs
            gen = node.generators[0]
            same = len(node.generators) == 1 and ast.unparse(node.elt) == ast.unparse(gen.target)
            return self.of(gen.iter, env) if same else None
        if isinstance(node, ast.Attribute):
            t = self.of(node.value, env)
            if isinstance(t, str):
                if node.attr in self.fields.get(t, {}):
                    return self.annotation(self.fields[t][node.attr], t.split(".")[0])
                ann, prop = self.returns[t].get(node.attr, (None, None))
                if prop is None:
                    return None
                return self.annotation(ann, t.split(".")[0]) if prop else ("call", t, node.attr)
            if t and t[0] == "module":
                return self.modules[t[1]].get(node.attr)
            if t and t[0] == "class" and node.attr in self.returns[t[1]]:
                return ("call", t[1], node.attr)
            return FOREIGN if t == FOREIGN else None
        if isinstance(node, ast.Call):
            t = self.of(node.func, env)
            if t and t[0] == "class":
                return t[1]
            if t and t[0] == "call":
                return self.annotation(self.returns[t[1]][t[2]][0], t[1].split(".")[0])
            return FOREIGN if t == FOREIGN else None
        if isinstance(node, ast.Subscript) and not isinstance(node.slice, ast.Slice):
            t = self.of(node.value, env)
            return t[1] if t and t[0] == "list" else FOREIGN if t == FOREIGN else None
        return None

    def element(self, node, env):
        """The type of one item that iterating over an expression yields."""
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "zip":
            return ("tuple", tuple(self.element(a, env) for a in node.args))
        t = self.of(node, env)
        return t[1] if t and t[0] == "list" else FOREIGN if t == FOREIGN else None

    def bindings(self, body, env, module):
        """(name, type) of each binding in a block, outside nested scopes."""
        todo = list(body)
        while todo:
            node = todo.pop()
            if isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Lambda, *COMPREHENSIONS)):
                continue
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    yield from _bind(target, self.of(node.value, env))
            elif isinstance(node, ast.AnnAssign):
                yield from _bind(node.target, self.annotation(node.annotation, module))
            elif isinstance(node, ast.For):
                yield from _bind(node.target, self.element(node.iter, env))
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                yield from self.imported(node).items()
            elif isinstance(node, ast.withitem) and node.optional_vars:
                yield from _bind(node.optional_vars, None)
            elif isinstance(node, ast.ExceptHandler) and node.name:
                yield node.name, None
            todo.extend(ast.iter_child_nodes(node))

    def scope(self, node, outer, module, owner=None) -> dict:
        """Types of the names in a function or module body, over the enclosing
        scope's: parameters by annotation, self and cls by their class, and
        a name bound to values of more than one type by None."""
        fixed = {}
        if isinstance(node, ast.FunctionDef):
            args = node.args
            for i, a in enumerate([*args.posonlyargs, *args.args, *args.kwonlyargs]
                                  + [a for a in (args.vararg, args.kwarg) if a]):
                t = self.annotation(a.annotation, module)
                if i == 0 and owner and a.annotation is None:  # self or cls
                    cls = _decorated(node, "classmethod") and owner != FOREIGN
                    t = ("class", owner) if cls else owner
                fixed[a.arg] = t
        env = {**outer, **fixed}
        for _ in range(4):  # each pass types the names that the last one made known
            seen = {}
            for name, t in self.bindings(node.body, env, module):
                seen.setdefault(name, set()).add(t)
            env.update({name: ts.pop() if len(ts) == 1 else None
                        for name, ts in seen.items() if name not in fixed})
        return env

    def reads(self, path, module):
        """(place, node, receiver type) of each attribute that a program file
        loads, outside the bodies of the UNCALLED functions."""
        tree = ast.parse(path.read_text(encoding="utf-8"))
        out = []

        def visit(node, env, where, owner=None):
            for child in ast.iter_child_nodes(node):
                if isinstance(child, ast.FunctionDef):
                    if child.name not in UNCALLED:
                        visit(child, self.scope(child, env, module, owner),
                              f"{where}.{child.name}")
                elif isinstance(child, ast.ClassDef):
                    key = f"{module}.{child.name}"
                    visit(child, env, f"{where}.{child.name}",
                          key if key in self.returns else FOREIGN)
                elif isinstance(child, ast.Lambda):
                    visit(child, {**env, **{a.arg: None for a in child.args.args}}, where)
                elif isinstance(child, COMPREHENSIONS):
                    inner = dict(env)
                    for gen in child.generators:
                        inner.update(_bind(gen.target, self.element(gen.iter, inner)))
                    visit(child, inner, where)
                else:
                    if isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                        out.append((where, child, self.of(child.value, env)))
                    visit(child, env, where, owner)

        visit(tree, self.scope(tree, self.top_level(module, tree), module), module)
        return out


def _field_reads():
    """(unread fields, unresolved reads) of the dataclass fields in ``src/``.

    A load of ``x.name`` counts for class C when x has type C, or when x has
    no inferred type and C alone declares a field ``name``.  Where several
    classes do, it counts for the class UNRESOLVED names for it.  A class
    passed whole to ``fields`` or ``astuple`` has every field read.
    """
    types = _Types()
    owners = {}
    for key, names in types.fields.items():
        for name in names:
            owners.setdefault(name, []).append(key)
    read, unresolved = set(), set()
    files = [(p, p.stem) for p in sorted(PACKAGE.glob("*.py")) if p.name != "__init__.py"]
    for path, module in files + [(p, f"bench.{p.stem}") for p in sorted(BENCH.glob("*.py"))]:
        for where, node, t in types.reads(path, module):
            declared = owners.get(node.attr, [])
            if isinstance(t, str) and t in declared:
                read.add(f"{t}.{node.attr}")
            elif t is None and len(declared) == 1:
                read.add(f"{declared[0]}.{node.attr}")
            elif t is None and declared:
                case = f"{where}: {ast.unparse(node)}"
                unresolved.add(case)
                if case in UNRESOLVED:
                    read.add(f"{UNRESOLVED[case][0]}.{node.attr}")
    whole = {a.id for node in _program_nodes(skip=UNCALLED) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id in ("fields", "astuple")
             for a in node.args if isinstance(a, ast.Name)}
    unread = sorted(f"{key}.{name}" for key, names in types.fields.items() for name in names
                    if f"{key}.{name}" not in read and key.split(".")[1] not in whole)
    return unread, sorted(unresolved)


def test_every_dataclass_field_is_read_by_a_program():
    # matched by owner, so a field that shares its name with a field read
    # on another class does not pass; no stale or missing UNRESOLVED entry
    unread, unresolved = _field_reads()
    assert unread == []
    assert unresolved == sorted(UNRESOLVED)
