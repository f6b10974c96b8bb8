"""Repository rules that code review would otherwise have to keep.

The per-layer tracer in perfbench/ names private functions of the package;
they must exist.  Every Hermitian eigendecomposition in the package goes
through ``linalg.eigh_many``, its eigenvalues are clustered into levels only
by ``linalg.level_bounds``, and every singular value decomposition that
computes factors through ``linalg.polar_many``.  No package module imports
scipy, which is a test dependency only, and the adiabatic propagator U0
integrates nothing.  The adiabatic module stays spin-agnostic and takes no
callable hooks: a scenario's fields are data, and it imports nothing from the
quadrupole.  A ``csv.writer`` is built only in ``io.write_csv``, so
every CSV the package writes has the bytes of that one writer.  The class of
an error alone decides the CLI's exit code.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TRACER_PATH = ROOT / "perfbench" / "tracer.py"


@pytest.fixture(scope="module")
def tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_extra_targets_resolve(tracer):
    # Tracer._targets reads each one with vars(owner)[attr]; a renamed target would crash --trace 1
    for short, paths in tracer.EXTRA.items():
        module = importlib.import_module(f"holonomy.{short}")
        for path in paths:
            owner_name, _, attr = path.rpartition(".")
            owner = getattr(module, owner_name) if owner_name else module
            assert callable(vars(owner).get(attr)), f"{short}.{path} is not defined"


def test_every_target_wraps(tracer):
    for short in tracer.MODULES:
        importlib.import_module(f"holonomy.{short}")
    names = {name for name, *_ in tracer.Tracer()._targets()}
    assert "propagate._eval_nodes" in names and "linalg.expm_skew_many" in names


def test_eigh_many_is_the_one_eigensolver():
    # every call of an ``eigh`` attribute (np.linalg.eigh, scipy.linalg.eigh) and every
    # ``from ... import eigh``, located by module and line
    calls = []
    for path in sorted((ROOT / "src" / "holonomy").glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "eigh":
                calls.append((path.stem, node.lineno))
            elif isinstance(node, ast.ImportFrom) and any(alias.name == "eigh" for alias in node.names):
                calls.append((path.stem, node.lineno))
        if path.stem == "linalg":
            helper = next(n for n in tree.body if isinstance(n, ast.FunctionDef) and n.name == "eigh_many")
    inside = [(module, line) for module, line in calls
              if module == "linalg" and helper.lineno <= line <= helper.end_lineno]
    assert inside and calls == inside, f"eigh outside linalg.eigh_many: {sorted(set(calls) - set(inside))}"


def test_level_bounds_is_the_one_clustering_rule():
    # the clustering helpers and the crossing check they feed are reached only through level_bounds
    uses = [(module, scope) for module, tree in _package_trees() for scope, node in _scoped_nodes(tree)
            if (isinstance(node, ast.Name) and node.id in ("_level_splits", "_level_bounds"))
            or (isinstance(node, ast.alias) and node.name in ("_level_splits", "_level_bounds"))]
    assert uses and set(uses) == {("linalg", "level_bounds")}, sorted(set(uses))


def _scoped_nodes(tree: ast.AST, scope: tuple[str, ...] = ()):
    """(dotted name of the enclosing functions and classes, node) for every node below ``tree``."""
    for child in ast.iter_child_nodes(tree):
        yield ".".join(scope), child
        inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.ClassDef)) else scope
        yield from _scoped_nodes(child, inner)


def _package_trees():
    for path in sorted((ROOT / "src" / "holonomy").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def _svd_calls(tree: ast.AST, module: str) -> list[tuple[str, str, bool]]:
    """(module, enclosing function, computes factors) of every ``svd`` attribute call and ``from ... import svd``."""
    found = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "svd":
            values_only = any(k.arg == "compute_uv" and isinstance(k.value, ast.Constant) and k.value.value is False
                              for k in node.keywords)
            found.append((module, scope, not values_only))
        elif isinstance(node, ast.ImportFrom) and any(alias.name == "svd" for alias in node.names):
            found.append((module, scope, True))
    return found


def test_polar_many_is_the_one_svd():
    calls = []
    for module, tree in _package_trees():
        calls += _svd_calls(tree, module)
    factors = [(module, scope) for module, scope, computes in calls if computes]
    values_only = sorted((module, scope) for module, scope, computes in calls if not computes)
    assert factors == [("linalg", "polar_many")], f"svd with factors outside linalg.polar_many: {factors}"
    # the two norms read singular values only: the contraction check of an endpoint overlap
    # and the coupling norms of the adiabaticity report
    assert values_only == [("adiabatic", "adiabaticity_report"), ("phase", "level_trace")]


def test_write_csv_is_the_one_csv_writer():
    # every ``writer`` attribute call (csv.writer) and every ``from csv import writer``
    uses = [(module, scope) for module, tree in _package_trees() for scope, node in _scoped_nodes(tree)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "writer")
            or (isinstance(node, ast.ImportFrom) and node.module == "csv"
                and any(alias.name == "writer" for alias in node.names))]
    assert uses == [("io", "write_csv")], f"csv.writer outside io.write_csv: {uses}"


def _imports(tree: ast.AST) -> list[tuple[str, str, tuple[str, ...] | None]]:
    """(enclosing scope, imported module, names or None) of every import below ``tree``."""
    found = []
    for scope, node in _scoped_nodes(tree):
        if isinstance(node, ast.Import):
            found += [(scope, alias.name, None) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append((scope, node.module or "", tuple(alias.name for alias in node.names)))
    return found


def test_no_package_module_imports_scipy():
    imports = [(module, scope, name) for module, tree in _package_trees()
               for scope, name, _ in _imports(tree) if name.split(".")[0] == "scipy"]
    assert imports == [], imports


def test_adiabatic_imports_no_integrator():
    # U0 takes every Gamma0 from the transported frames or from the drive generator's closed form: of
    # the adiabatic module, only the full propagator U(tau) of a scenario without a drive generator integrates
    tree = ast.parse((ROOT / "src" / "holonomy" / "adiabatic.py").read_text(encoding="utf-8"))
    functions = {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}
    assert {"adiabatic_propagator", "_level_holonomies", "adiabatic_noncyclic_phase"} <= functions
    integrator = {"propagate", "propagate_final", "MatrixOdeProblem", "lewis_riesenfeld_u"}
    scopes = {scope.split(".")[0] for scope, node in _scoped_nodes(tree)
              if isinstance(node, ast.Name) and node.id in integrator}
    assert scopes == {"full_propagator"}, sorted(scopes)


def test_adiabatic_scenario_is_data_and_spin_agnostic():
    # every field of AdiabaticScenario is data, none a Callable hook, and the generic module knows no spin
    tree = ast.parse((ROOT / "src" / "holonomy" / "adiabatic.py").read_text(encoding="utf-8"))
    [scenario] = [node for node in tree.body if isinstance(node, ast.ClassDef) and node.name == "AdiabaticScenario"]
    fields = {node.target.id: ast.unparse(node.annotation) for node in scenario.body if isinstance(node, ast.AnnAssign)}
    assert list(fields) == ["family", "curve", "tau", "drive_generator"], fields
    hooks = {name: text for name, text in fields.items() if "Callable" in text}
    assert hooks == {}, hooks
    quadrupole = [(scope, module, names) for scope, module, names in _imports(tree)
                  if "quadrupole" in module.split(".") or "quadrupole" in (names or ())]
    assert quadrupole == [], quadrupole


# the documented exit code of every error class: invalid input exits 2, a numerical failure 3
EXIT_CODES = {
    "ConfigError": 2,
    "DomainError": 2,
    "AxisSingularityError": 2,
    "StructuralError": 2,
    "HolonomyError": 3,
    "LevelCrossingError": 3,
    "ResolutionError": 3,
}
PREFIXES = {2: "configuration error: ", 3: "numerical failure: "}


def test_every_error_class_maps_to_its_exit_code(monkeypatch, capsys):
    cli = importlib.import_module("holonomy.cli")
    errors = importlib.import_module("holonomy.errors")
    classes = {name: cls for name, cls in vars(errors).items()
               if inspect.isclass(cls) and issubclass(cls, errors.HolonomyError)}
    assert set(classes) == set(EXIT_CODES), "give each error class its documented exit code"
    for name, cls in classes.items():
        def raising(args, cls=cls):
            raise cls(f"{cls.__name__} raised")

        monkeypatch.setattr(cli, "cmd_phase", raising)  # build_parser binds the subcommand when main runs
        assert cli.main(["phase", "--config", "unread.cfg", "--out", "unwritten"]) == EXIT_CODES[name], name
        assert capsys.readouterr().err == f"{PREFIXES[EXIT_CODES[name]]}{name} raised\n"
