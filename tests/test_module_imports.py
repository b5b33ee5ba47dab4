"""Static checks on the fracfp sources: imports between modules, settings
that some caller actually sets, the remaining branches on the dimension,
the exception classes, and that the package holds only what the program
runs.  The checks on the instruments also scan tests/paper_checks.py, the
paper checks that only tests run."""

import ast
from collections import Counter, defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "fracfp"
TESTS = Path(__file__).resolve().parent
PAPER_CHECKS = TESTS / "paper_checks.py"

# (importing module, name): why the private import stays
ALLOWED = {
    ("evolution", "_jump_matrix"): "perfbench/spans.py LAYERS patches this binding",
}


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _sources() -> list[Path]:
    """The src/fracfp modules and tests/paper_checks.py."""
    return sorted(PACKAGE.glob("*.py")) + [PAPER_CHECKS]


def test_no_private_cross_module_imports():
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(_parse(path)):
            if not (isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracfp")):
                continue
            for alias in node.names:
                if alias.name.startswith("_") and (path.stem, alias.name) not in ALLOWED:
                    found.append(f"{path.name}:{node.lineno} imports {node.module}.{alias.name}")
    assert not found, "\n".join(found)


def _calls_by_name(trees) -> dict:
    """Callee name (a plain name or the last attribute) -> its Call nodes."""
    calls = defaultdict(list)
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls[name].append(node)
    return calls


# the cell quadrature of a radial kernel: exact radial moments, Gauss-Legendre
# cells, the angular rule and the polar self cell
CELL_QUADRATURE = ("moment", "gl_cell_integrals_2d", "theta_quad", "_self_cell")
# (module, function) outside operators that calls it: why
CELL_QUADRATURE_CALLERS = {
    ("paper_checks", "cell_masses"):
        "the plain cell masses, which no src caller reads: 1d exact moments, 2d the cell_tables wedge",
    ("paper_checks", "plain_conv_kernel"):
        "the capped-kernel convolution stencil: the cell masses, the self-cell mass at the center",
    ("paper_checks", "KernelVariant"): "l1_mass: the exact radial moment of the capped kernel over R^d",
    ("paper_checks", "box_stencil"): "the exterior mass beyond the offsets: a radial moment, in 2d over the angle",
}


def test_only_operators_runs_the_cell_quadrature():
    """Every kernel table comes from operators (cell_tables and the stencil
    and fold built on it) or from a listed caller that completes one of its
    tables; no other module re-derives one."""
    found = []
    for path in _sources():
        if path.stem == "operators":
            continue
        calls = _calls_by_name([node for node in _parse(path).body
                                if (path.stem, getattr(node, "name", None)) not in CELL_QUADRATURE_CALLERS])
        found += [f"{path.name}:{call.lineno} calls {name}"
                  for name in CELL_QUADRATURE for call in calls[name]]
    assert not found, "\n".join(found)


def test_cli_checks_apply_no_box_stencil():
    """The inequality checks apply the generator's periodic jump: no
    functionals function that cli imports, nor any functionals function one
    of them reaches, calls get_stencil: its offset row serves _fold_kernel's
    periodic circulant and paper_checks.box_stencil, the non-periodic one."""
    defs = {fn.name: fn for fn in _parse(PACKAGE / "functionals.py").body
            if isinstance(fn, ast.FunctionDef)}
    todo = [alias.name for node in ast.walk(_parse(PACKAGE / "cli.py"))
            if isinstance(node, ast.ImportFrom) and node.module == "fracfp.functionals"
            for alias in node.names]
    reached = set()
    while todo:
        name = todo.pop()
        if name in defs and name not in reached:
            reached.add(name)
            todo += list(_calls_by_name([defs[name]]))
    assert "carre_du_champ" in reached
    found = sorted(name for name in reached if "get_stencil" in _calls_by_name([defs[name]]))
    assert not found, f"reach get_stencil: {found}"


def _dataclass_fields(tree: ast.Module, cls: str) -> list:
    body = next(n.body for n in ast.walk(tree) if isinstance(n, ast.ClassDef) and n.name == cls)
    return [st.target.id for st in body if isinstance(st, ast.AnnAssign)]


def _sources_and_calls() -> tuple[dict, dict]:
    """The trees of src/fracfp and tests/paper_checks.py by module, and the
    calls in them and in the other tests."""
    src = {path.stem: _parse(path) for path in _sources()}
    trees = list(src.values()) + [_parse(path) for path in sorted(TESTS.glob("*.py"))
                                  if path != PAPER_CHECKS]
    return src, _calls_by_name(trees)


def _defaulted(src: dict):
    """(module, function, parameter, positional index or None) of every
    parameter with a default, self excluded."""
    for stem, tree in src.items():
        methods = {id(item) for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
                   for item in cls.body if isinstance(item, ast.FunctionDef)}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            a = fn.args
            pos = (a.posonlyargs + a.args)[1 if id(fn) in methods else 0:]
            first = len(pos) - len(a.defaults)
            for i, arg in enumerate(pos[first:], start=first):
                yield stem, fn.name, arg.arg, i
            for arg, d in zip(a.kwonlyargs, a.kw_defaults):
                if d is not None:
                    yield stem, fn.name, arg.arg, None


def _passed(calls: dict, func: str, name: str, index: int | None) -> list:
    """What the calls of func that may set the parameter pass: a constant's
    value, else the expression node (*args and **kwargs included), which
    differs from every other."""
    out = []
    for call in calls[func]:
        given = [kw.value for kw in call.keywords if kw.arg in (name, None)]
        given += [a for a in call.args if isinstance(a, ast.Starred)]
        if index is not None and index < len(call.args):
            given.append(call.args[index])
        out += [g.value if isinstance(g, ast.Constant) else g for g in given]
    return out


def test_every_setting_is_set_by_some_caller():
    """A parameter default, or a config field, that no caller sets is a
    constant in disguise: each one doubles the configurations tests would
    have to cover.  Scans src/fracfp, tests/paper_checks.py and the tests."""
    src, calls = _sources_and_calls()
    found = [f"{stem}.{fn}({name}) is never passed" for stem, fn, name, index in _defaulted(src)
             if not _passed(calls, fn, name, index)]

    for stem, cls in (("operators", "OperatorConfig"), ("evolution", "SchemeConfig")):
        for name in _dataclass_fields(src[stem], cls):
            if not any(kw.arg == name for call in calls[cls] for kw in call.keywords):
                found.append(f"{cls}.{name} is never passed to {cls}(...)")

    read = {node.attr for node in ast.walk(src["cli"])
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    for name in _dataclass_fields(src["cli"], "ScenarioConfig"):
        if name not in read:
            found.append(f"ScenarioConfig.{name} is never read in cli.py")
    assert not found, "\n".join(found)


def test_no_private_setting_has_one_caller_value():
    """A defaulted parameter of a private function that every caller setting
    it sets to the same constant is a second function behind a flag: the
    default serves some callers and the one value the rest.  Scans the
    functions and call sites of src/fracfp and tests/paper_checks.py and the
    call sites of the tests; an expression other than a constant counts as
    varying."""
    src, calls = _sources_and_calls()
    found = []
    for stem, fn, name, index in _defaulted(src):
        given = _passed(calls, fn, name, index)
        if (fn.startswith("_") and not fn.endswith("__") and given
                and not any(isinstance(g, ast.AST) for g in given) and len(set(given)) == 1):
            found.append(f"{stem}.{fn}({name}) is only ever set to {given[0]!r}")
    assert not found, "\n".join(found)


# (module, function, why it still branches on the dimension), once per
# comparison of d with 1 or 2; every other operator is dimension-generic
D_FORKS = [
    ("cli", "_suite_steady", "the Cauchy density is the closed form at alpha = 1 in 1d only"),
    ("operators", "_self_cell", "1d exact radial moment, 2d polar angle quadrature"),
    ("operators", "cell_tables",
     "1d product-integration hats, 2d Gauss-Legendre cells on one symmetry wedge"),
    ("operators", "_fold_kernel",
     "1d exact image masses in blocks of images, 2d Gauss-Legendre image lattice on one wedge"),
    ("paper_checks", "cell_masses", "1d exact radial moments, 2d Gauss-Legendre cells on one wedge"),
    ("paper_checks", "box_stencil",
     "1d cumulative sums and exact tail, 2d convolutions and angular tail"),
    ("paper_checks", "fraclap_of_weight", "the analytic-exterior reference quadrature is 1d"),
]


def _is_d(node) -> bool:
    return (isinstance(node, ast.Name) and node.id == "d") or (
        isinstance(node, ast.Attribute) and node.attr == "d")


def _forks(node, where: str) -> list:
    """The enclosing function name (innermost) of each comparison of d with
    an int constant under node."""
    if isinstance(node, ast.FunctionDef):
        where = node.name
    out = []
    if isinstance(node, ast.Compare):
        sides = [node.left, *node.comparators]
        if any(map(_is_d, sides)) and any(
                isinstance(x, ast.Constant) and type(x.value) is int for x in sides):
            out.append(where)
    for child in ast.iter_child_nodes(node):
        out += _forks(child, where)
    return out


def test_every_dimension_fork_is_listed():
    """A new comparison of d with a constant (a parallel 1d / 2d branch)
    fails here until it is listed in D_FORKS with its reason; a removed one
    must leave the list too."""
    found = Counter((path.stem, fn) for path in _sources()
                    for fn in _forks(_parse(path), "<module>"))
    listed = Counter((mod, fn) for mod, fn, _ in D_FORKS)
    assert found == listed, (f"unlisted: {sorted((found - listed).elements())}; "
                             f"stale: {sorted((listed - found).elements())}")


def test_only_evolve_constructs_the_stepper():
    """evolve is the one time-stepping entry: no other code in the package
    builds a _Stepper of its own."""
    found, in_evolve = [], 0
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        ok = {id(call) for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) and (path.stem, fn.name) == ("evolution", "evolve")
              for call in _calls_by_name([fn])["_Stepper"]}
        in_evolve += len(ok)
        found += [f"{path.name}:{call.lineno} constructs _Stepper"
                  for call in _calls_by_name([tree])["_Stepper"] if id(call) not in ok]
    assert in_evolve == 1 and not found, "\n".join(found)


def test_two_exception_classes():
    """A failed numerical check raises grid.CheckFailure, which the CLI turns
    into a FAIL record, and a bad config cli.ConfigError; no module defines a
    failure type of its own."""
    found = sorted(
        f"{path.stem}.{node.name}" for path in sorted(PACKAGE.glob("*.py"))
        for node in ast.walk(_parse(path))
        if isinstance(node, ast.ClassDef) and any(
            getattr(b, "id", getattr(b, "attr", "")).endswith(("Error", "Exception", "Failure"))
            for b in node.bases))
    assert found == ["cli.ConfigError", "grid.CheckFailure"]


# (module, function) of every call of operators.orbit_maps, the one builder
# of the orbit maps of the symmetry sectors
ORBIT_MAP_CALLERS = [
    ("evolution", "fold"),  # _Stepper.fold: the even sector of the stepped reflections
    ("operators", "_jump_matrix"),  # without a map: the identity one
    ("operators", "assemble_generator_matrix"),  # GeneratorMatrix.sectors
    ("operators", "mat"),  # GeneratorMatrix.mat: the one sector of no symmetry
]


def test_one_orbit_map_builder():
    """Every sector, of the dense generator and of the stepper, comes from
    orbit_maps: its callers are the list above, only the builder constructs
    an OrbitMap, every dense jump matrix comes from _jump_matrix (the table
    gather serves it and offset_matrix only), and grid exports no fold
    helpers."""
    callers, built, gathers = [], [], []
    for path in _sources():
        for fn in ast.walk(_parse(path)):
            if isinstance(fn, ast.FunctionDef):
                calls = _calls_by_name([fn])
                callers += [(path.stem, fn.name)] * len(calls["orbit_maps"])
                built += [(path.stem, fn.name)] * len(calls["OrbitMap"])
                gathers += [(path.stem, fn.name)] * len(calls["_gather"])
    assert sorted(callers) == ORBIT_MAP_CALLERS
    assert sorted(set(built)) == [("operators", "_orbit_map"), ("operators", "orbit_maps")]
    assert sorted(gathers) == [("operators", "_jump_matrix"), ("paper_checks", "offset_matrix")]
    tree = _parse(PACKAGE / "grid.py")
    exported = next(ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                    and getattr(node.targets[0], "id", None) == "__all__")
    defined = exported + [node.name for node in tree.body if isinstance(node, ast.FunctionDef)]
    assert not [name for name in defined if "fold" in name or name == "along"]


# scipy's compiled modules that operators loads from their files, and the
# operators function or class that is the one caller of each
PRIVATE_KERNELS = {"pypocketfft": "fourier_multiply", "_sparsetools": "CSR", "_matfuncs_expm": "expm"}
# scipy subpackages no module imports: scipy.fft's package loads scipy.special,
# and its public transforms would bypass fourier_multiply; scipy.sparse and
# scipy.linalg load the array-API layer of scipy._lib (numpy.f2py, numpy.testing)
UNUSED_SCIPY = ("scipy.fft", "scipy.special", "scipy.sparse", "scipy.linalg")


def _imported(tree: ast.Module) -> list[str]:
    """Dotted name of each imported module or name, and of each module named
    to importlib.import_module or __import__."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            out += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            out += [f"{node.module}.{alias.name}" for alias in node.names]
        elif (isinstance(node, ast.Call) and node.args
              and getattr(node.func, "id", getattr(node.func, "attr", None)) in
              ("import_module", "__import__")):
            out += [arg.value for arg in node.args[:1] if isinstance(arg, ast.Constant)]
    return out


def _names(tree: ast.Module) -> set[str]:
    """Every identifier and string constant a module holds."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out |= {node.name, node.asname}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def test_only_operators_calls_scipys_private_kernels():
    """operators alone names scipy's compiled FFT, sparse and expm modules,
    only fourier_multiply, the CSR type and expm call them, and no module
    imports a scipy subpackage of UNUSED_SCIPY."""
    found, callers = [], set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        found += [f"{path.name} imports {name}" for name in _imported(tree)
                  if any(name == m or name.startswith(m + ".") for m in UNUSED_SCIPY)]
        if path.stem != "operators":
            found += [f"{path.name} names {kernel}" for kernel in PRIVATE_KERNELS
                      for name in _names(tree) if name and kernel in name]
            continue
        callers |= {(node.value.id, fn.name) for fn in tree.body
                    if isinstance(fn, (ast.FunctionDef, ast.ClassDef))
                    for node in ast.walk(fn) if isinstance(node, ast.Attribute)
                    and getattr(node.value, "id", None) in PRIVATE_KERNELS}
    assert not found, "\n".join(found)
    assert callers == set(PRIVATE_KERNELS.items())


def _exported(tree: ast.Module) -> list:
    """The names of a module's __all__ (none without one)."""
    return next((ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
                 and getattr(node.targets[0], "id", None) == "__all__"), [])


def test_every_exported_name_is_defined():
    """Each name in a module's __all__, fracfp.__all__ included, is bound at
    the module's top level (def, class, assignment or import): a name that
    moved away fails here, not at a `from fracfp.<module> import *`."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = _parse(path)
        bound = set()
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                bound.add(node.name)
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                bound |= {(alias.asname or alias.name).split(".")[0] for alias in node.names}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                bound |= {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
        found += [f"{path.stem}.__all__ names {name}" for name in _exported(tree) if name not in bound]
    assert not found, "\n".join(found)


# (module, function): the entries of `fracfp run`
ENTRY_POINTS = [("cli", "main"), ("cli", "parse_config"), ("cli", "run_scenario")]
# (module, name) -> why a definition that the program does not reach stays
PUBLIC_ONLY = {("operators", "spectral_fraclap"): "the oracle of the symbol tests (ROADMAP item 4)"}


def test_every_definition_is_reached():
    """src/fracfp holds what the program runs: every top-level function and
    class is reached from ENTRY_POINTS, PUBLIC_ONLY or a module-level
    statement, through the names that reached code loads (its own module's
    definitions and those it imports from fracfp).  Being exported is no
    reason: a paper instrument that only tests call belongs in
    tests/paper_checks.py."""
    trees = {path.stem: _parse(path) for path in sorted(PACKAGE.glob("*.py"))}
    defs, names = {}, {}  # (module, name) -> node; module -> {name: (module, name)}
    for stem, tree in trees.items():
        names[stem] = {}
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs[stem, node.name] = node
                names[stem][node.name] = (stem, node.name)
            elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("fracfp."):
                home = node.module.split(".", 1)[1]
                names[stem].update({alias.asname or alias.name: (home, alias.name) for alias in node.names})

    def loaded(stem, node) -> list:
        return [names[stem][n.id] for n in ast.walk(node) if isinstance(n, ast.Name) and n.id in names[stem]]

    todo = ENTRY_POINTS + list(PUBLIC_ONLY)
    todo += [key for stem, tree in trees.items() for node in tree.body
             if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) for key in loaded(stem, node)]
    reached = set()
    while todo:
        key = todo.pop()
        if key in defs and key not in reached:
            reached.add(key)
            todo += loaded(key[0], defs[key])
    assert set(ENTRY_POINTS) <= reached
    unreached = sorted(f"{stem}.{name}" for stem, name in defs if (stem, name) not in reached)
    assert not unreached, f"not reached from the program: {unreached}"
