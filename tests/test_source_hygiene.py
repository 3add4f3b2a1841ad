"""Source hygiene of src/l1landscape and scripts/, read with ast.

A module other than __init__.py imports no name it never uses, every
module-level _private name is referenced by some module of the package,
every name a script imports from the package exists (the scripts are
parsed, never run), the test oracles in tests/oracles.py take nothing
from the package but subdifferential_model, EPS_DIR and the simplex their
face LP runs on, while no library module imports them, and no function takes a tolerance as a parameter: the tolerances are
the module constants EPS_ZERO, EPS_LP and EPS_DIR. Nor does any function
take a selection or init hook: the dynamics step the midpoint subgradient
from standard Gaussian starts. A sampler draws from one default_rng(seed)
per call: the only Generator started inside a loop is conjecture_probe's
per-trial start default_rng([seed, t]), which its report lists.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "l1landscape"
SCRIPTS = ROOT / "scripts"


def parse_package():
    return {path.name: ast.parse(path.read_text(), filename=str(path))
            for path in sorted(SRC.glob("*.py"))}


def imported_names(tree):
    """Names bound by the module's imports, other than __future__ ones."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    return names


def loaded_names(tree):
    return {node.id for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def referenced_names(tree):
    """Names a module reads, attributes it looks up, and names it imports."""
    names = loaded_names(tree)
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            names.update(alias.name for alias in node.names)
    return names


def private_definitions(tree):
    """Module-level _names defined by def, class or assignment."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {name for name in names if name.startswith("_") and not name.startswith("__")}


def test_no_module_imports_a_name_it_never_uses():
    unused = {name: sorted(imported_names(tree) - loaded_names(tree))
              for name, tree in parse_package().items() if name != "__init__.py"}
    assert {name: found for name, found in unused.items() if found} == {}


def test_every_private_name_is_referenced():
    package = parse_package()
    referenced = set().union(*(referenced_names(tree) for tree in package.values()))
    orphans = {name: sorted(private_definitions(tree) - referenced)
               for name, tree in package.items()}
    assert {name: found for name, found in orphans.items() if found} == {}


TOLERANCE_PARAMETERS = {"eps_zero", "eps_lp", "tol"}
HOOK_PARAMETERS = {"selection", "init"}


def named_parameters(tree, names):
    """function:parameter for every parameter with one of the given names."""
    return [f"{node.name}:{arg.arg}" for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
            for arg in (*node.args.posonlyargs, *node.args.args, *node.args.kwonlyargs)
            if arg.arg in names]


def package_parameters(names):
    found = {name: named_parameters(tree, names) for name, tree in parse_package().items()}
    return {name: params for name, params in found.items() if params}


def test_no_function_takes_a_tolerance():
    assert package_parameters(TOLERANCE_PARAMETERS) == {}


def test_no_function_takes_a_selection_or_init_hook():
    assert package_parameters(HOOK_PARAMETERS) == {}


LOOPS = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp,
         ast.GeneratorExp)


def looped_rng_starts(tree):
    """The enclosing function, or <module>, of every default_rng call that
    sits inside a loop or comprehension."""
    found = []

    def visit(node, scope, looped):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name, looped)
                continue
            if looped and isinstance(child, ast.Call):
                func = child.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
                if name == "default_rng":
                    found.append(scope)
            visit(child, scope, looped or isinstance(child, LOOPS))

    visit(tree, "<module>", False)
    return found


def test_only_conjecture_probe_starts_a_generator_per_trial():
    found = {name: looped_rng_starts(tree) for name, tree in parse_package().items()}
    assert {name: calls for name, calls in found.items() if calls} == {
        "dynamics.py": ["conjecture_probe"]}


def package_imports(tree):
    """(module, name) for every name the tree imports from l1landscape."""
    return {(node.module, alias.name) for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 0
            and node.module.split(".")[0] == "l1landscape"
            for alias in node.names}


def missing_names(imports):
    return sorted(f"{module}.{name}" for module, name in imports
                  if not hasattr(importlib.import_module(module), name))


def test_every_name_a_script_imports_from_the_package_exists():
    scripts = sorted(SCRIPTS.glob("*.py"))
    imports = {path.name: package_imports(ast.parse(path.read_text(), filename=str(path)))
               for path in scripts}
    assert scripts and all(imports.values())
    missing = {name: missing_names(found) for name, found in imports.items()}
    assert {name: found for name, found in missing.items() if found} == {}


def test_oracles_stay_outside_the_library():
    oracles = ast.parse((ROOT / "tests" / "oracles.py").read_text())
    assert package_imports(oracles) == {
        ("l1landscape.core", "subdifferential_model"),
        ("l1landscape.firstorder", "EPS_DIR"),
        *(("l1landscape.lpcore", name)
          for name in ("OPTIMAL", "BoxEqLP", "NumericalFailureError", "solve"))}
    imports = [ast.unparse(node) for tree in parse_package().values()
               for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))]
    assert [line for line in imports if "oracles" in line] == []


def test_the_checks_see_an_unused_import_and_an_orphan():
    tree = ast.parse("from .core import objective, sign_scalar\n"
                     "import numpy as np\n"
                     "def _orphan():\n"
                     "    return objective\n")
    assert imported_names(tree) - loaded_names(tree) == {"sign_scalar", "np"}
    assert private_definitions(tree) - referenced_names(tree) == {"_orphan"}
    script = ast.parse("from l1landscape.core import objective, gone\n"
                       "from .local import helper\n")
    assert missing_names(package_imports(script)) == ["l1landscape.core.gone"]
    knobs = ast.parse("class Cone:\n"
                      "    def contains(self, w, *, tol=1e-9):\n"
                      "        pass\n"
                      "def solve(lp, eps_lp=1e-9, atol=0.0):\n"
                      "    pass\n")
    assert named_parameters(knobs, TOLERANCE_PARAMETERS) == ["solve:eps_lp", "contains:tol"]
    hooks = ast.parse("def run(u0, ustar, schedule, selection=None):\n"
                      "    pass\n"
                      "def probe(ustar, init=None, *, initial=0):\n"
                      "    pass\n")
    assert named_parameters(hooks, HOOK_PARAMETERS) == ["run:selection", "probe:init"]
    streams = ast.parse("rng = np.random.default_rng(0)\n"
                        "def sample(seed, trials):\n"
                        "    once = default_rng(seed)\n"
                        "    rows = [np.random.default_rng([seed, t]) for t in range(trials)]\n"
                        "    for t in range(trials):\n"
                        "        def draw():\n"
                        "            return np.random.default_rng(t)\n"
                        "    while trials:\n"
                        "        trials -= default_rng(trials).integers(2)\n")
    assert looped_rng_starts(streams) == ["sample", "draw", "sample"]
