"""Rules that hold for the package source and its documentation as a whole."""

import ast
import dataclasses
import importlib
import importlib.util
import inspect
import re
import textwrap
from enum import Enum
from pathlib import Path

import yaml
from conftest import make_observed
from surveyblend import ScenarioConfig
from surveyblend.types import field_names

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "surveyblend"


def package_nodes():
    """(file name, node) for every syntax node of every module in the package."""
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            yield path.name, node


def test_no_assert_statements_in_the_package():
    # python -O strips assert statements, so invariants raise typed errors instead.
    found = [f"{name}:{node.lineno}" for name, node in package_nodes() if isinstance(node, ast.Assert)]
    assert not found, f"assert statements in src/surveyblend: {found}"


def test_no_module_imports_scipy():
    # The runtime needs numpy and PyYAML only; scipy is the tests' oracle.
    def imported(node):
        if isinstance(node, ast.Import):
            return [alias.name for alias in node.names]
        return [node.module or ""] if isinstance(node, ast.ImportFrom) else []

    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if any(module.partition(".")[0] == "scipy" for module in imported(node))]
    assert not found, f"scipy imports in src/surveyblend: {found}"


def test_one_call_of_os_fork_in_the_package():
    # The fork plumbing (pipe, pickled result, reaping, the kill on an interrupt) has one copy, which the CSV
    # reader and the CSV export share; a second call of os.fork would be a second copy of it.
    calls = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, ast.Call) and ast.unparse(node.func) in ("os.fork", "fork")]
    assert len(calls) == 1, f"os.fork calls in src/surveyblend: {calls}"


def test_no_branch_names_a_separable_selection_fit():
    # Each selection-fit method's score and linearization are its row of nuisance.SELECTION_FITS; code reads the
    # row, so no comparison or match case names pseudo-ML or calibration. Kim-Haziza adds a joint solve and a regime,
    # so comparisons against it stay.
    named = {"FitMethod.PSEUDO_ML", "FitMethod.CALIBRATION"}
    found = [f"{name}:{node.lineno}" for name, node in package_nodes()
             if isinstance(node, (ast.Compare, ast.MatchValue))
             and any(ast.unparse(sub) in named for sub in ast.walk(node) if isinstance(sub, ast.Attribute))]
    assert not found, f"branches on a selection-fit method in src/surveyblend: {found}"


def imported_names(node) -> list[str]:
    """The names a ``from ... import`` statement binds from its module; none for other nodes."""
    return [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []


def test_every_package_export_has_a_caller_outside_the_tests():
    # The package exposes no public code that only tests use: each name __init__.py re-exports is
    # used by another package module, or read or imported by the benchmark or the scripts.
    init = ast.parse((SRC / "__init__.py").read_text())
    exported = {name for node in init.body for name in imported_names(node)}
    used = set()
    for name, node in package_nodes():
        if name != "__init__.py":
            used.update(imported_names(node))
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
    for path in sorted([*(ROOT / "benchmark").rglob("*.py"), *(ROOT / "scripts").rglob("*.py")]):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            used.update(imported_names(node))
            if isinstance(node, ast.Attribute):
                used.add(node.attr)
    assert not exported - used, f"exported but used by tests only: {sorted(exported - used)}"


def test_design_weights_checks_nothing_its_callers_hold_checked():
    # designs.design_weights builds weights from probabilities already checked: types.validate holds sample A's pi_a
    # (nonempty, in (0, 1], under SRSWOR n_A/N with n_A its row count) and nuisance.check_selection_floor sample B's
    # fitted pi_b. So designs.py raises nothing, imports no ValidationError, and takes an SRSWOR size from pi itself.
    found = [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in package_nodes() if name == "designs.py"
             and (isinstance(node, ast.Raise) or "ValidationError" in imported_names(node)
                  or isinstance(node, ast.Attribute) and ast.unparse(node) == "design.n")]
    assert not found, f"checks in designs.py that validate or the selection floor own: {found}"


def test_a_design_is_its_kind_and_states_no_size():
    # An SRSWOR sample's size is its own row count, so a design is a DesignKind: no module names the DesignDescriptor
    # that carried a second copy of that size, or reads an .n from a design.
    found = [path.name for path in sorted(SRC.rglob("*.py")) if "DesignDescriptor" in path.read_text()]
    found += [f"{name}:{node.lineno}: {ast.unparse(node)}" for name, node in package_nodes()
              if isinstance(node, ast.Attribute) and node.attr == "n" and ast.unparse(node.value).endswith("design")]
    assert not found, f"a design size in src/surveyblend: {found}"


# Each layer whose own check reports an overflow, and the one helper called outside every layer: numpy's overflow
# and invalid-value warnings are off there alone, so a value past the float range becomes inf or NaN for that check.
ERRSTATE_ENTRIES = {"nuisance.py:expit", "nuisance.py:fit_nuisance", "estimators.py:Analysis.__init__",
                    "estimators.py:Analysis.memo", "simulate.py:generate_population", "simulate.py:_replicate_record"}


def test_every_errstate_is_a_layer_entry():
    # An np.errstate decorates, or is opened in, a layer entry (ERRSTATE_ENTRIES); no leaf helper adds a guard of its
    # own, which the entries above it make redundant.
    def sites(node, scope):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = f"{scope}.{child.name}" if scope else child.name
            if isinstance(child, ast.Call) and ast.unparse(child.func) == "np.errstate":
                yield scope
            yield from sites(child, inner)

    found = [f"{path.name}:{scope}" for path in sorted(SRC.rglob("*.py"))
             for scope in sites(ast.parse(path.read_text(), filename=str(path)), "")]
    assert sorted(found) == sorted(ERRSTATE_ENTRIES), f"np.errstate sites in src/surveyblend: {found}"


def scenario_keywords(path: Path) -> set[str]:
    """The keywords that ``path`` passes to ScenarioConfig, with those of a module-level ``dict(...)`` it unpacks."""
    tree = ast.parse(path.read_text(), filename=str(path))
    dicts = {target.id: node.value.keywords for node in tree.body if isinstance(node, ast.Assign)
             and isinstance(node.value, ast.Call) and ast.unparse(node.value.func) == "dict"
             for target in node.targets if isinstance(target, ast.Name)}
    keys = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).rpartition(".")[2] == "ScenarioConfig":
            for keyword in node.keywords:
                if keyword.arg:
                    keys.add(keyword.arg)
                elif isinstance(keyword.value, ast.Name):  # **name, a module-level dict(...)
                    keys.update(k.arg for k in dicts.get(keyword.value.id, []))
    return keys


def test_every_scenario_field_is_set_by_a_study():
    # A ScenarioConfig field is a setting some study needs: the shipped simulate example, a benchmark workload or a
    # conftest acceptance scenario sets it by name (a commented-out key does not count). A field that none of them
    # sets is an option that no caller needs.
    keys = set(yaml.safe_load((ROOT / "configs" / "simulate_example.yaml").read_text())["scenario"])
    keys |= scenario_keywords(ROOT / "benchmark" / "run.py") | scenario_keywords(ROOT / "tests" / "conftest.py")
    unset = [name for name in field_names(ScenarioConfig) if name not in keys]
    assert not unset, f"ScenarioConfig fields that no study sets: {unset}"


def package_modules():
    """(path, module) for every package module but ``__main__``, which parses the command line when run."""
    for path in sorted(SRC.glob("*.py")):
        if path.stem != "__main__":
            yield path, importlib.import_module("surveyblend" + ("" if path.stem == "__init__" else f".{path.stem}"))


def package_dataclasses() -> dict:
    """{"module.py:Class": class} for every dataclass a package module defines."""
    return {f"{path.name}:{cls.__name__}": cls for path, module in package_modules() for cls in vars(module).values()
            if dataclasses.is_dataclass(cls) and cls.__module__ == module.__name__}


TYPED_CLASSES = {"types.py:FinitePopulation", "types.py:ObservedData", "types.py:ModelSpec", "nuisance.py:NuisanceFit",
                 "simulate.py:Covariate", "simulate.py:EvalPlan", "simulate.py:ScenarioConfig", "cli.py:RunConfig"}


def test_every_dataclass_with_a_typed_default_calls_typed_fields_first():
    # Every field takes its type from types.typed_fields, the one rule, which reads the field's annotation; a dataclass
    # that skips it keeps a config's string or list, and an identity check on the field reads False.
    typed = {name: cls for name, cls in package_dataclasses().items() if "__post_init__" in vars(cls)
             or any(isinstance(f.default, (bool, int, float, Enum)) for f in dataclasses.fields(cls))}
    assert TYPED_CLASSES <= set(typed), sorted(typed)

    def first_statement(post_init):
        return ast.unparse(ast.parse(textwrap.dedent(inspect.getsource(post_init))).body[0].body[0])

    found = [name for name, cls in typed.items()
             if "__post_init__" not in vars(cls) or first_statement(cls.__post_init__) != "typed_fields(self)"]
    assert not found, f"dataclasses whose __post_init__ does not start with typed_fields(self): {found}"


def test_no_post_init_converts_a_field_by_hand():
    # typed_fields holds the only conversions of a field: no __post_init__ passes one of its own fields (self.x,
    # getattr(self, name), or a name bound from either) to config_int, config_float, frozen_array or an enum.
    found = []
    for path, module in package_modules():
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.FunctionDef) and node.name == "__post_init__":
                found += [f"{path.name}:{call.lineno}: {ast.unparse(call)}"
                          for call in _hand_conversions(node, vars(module))]
    assert not found, f"fields converted by hand in a __post_init__: {found}"


def test_no_post_init_checks_the_range_of_one_field_by_hand():
    # A bound on one field alone (self.seed < 0, not 0.0 < self.level < 1.0) is its annotation's, which typed_fields
    # checks under the field's dotted config key: no __post_init__ `if` tests one field of self against constants.
    def one_field_against_constants(test) -> bool:
        nodes = list(ast.walk(test))
        fields = {node.attr for node in nodes if isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self"}
        others = [node for node in nodes if isinstance(node, ast.Call)
                  or isinstance(node, ast.Name) and node.id != "self"]
        return len(fields) == 1 and not others

    found = [f"{name}:{sub.lineno}: {ast.unparse(sub.test)}" for name, node in package_nodes()
             if isinstance(node, ast.FunctionDef) and node.name == "__post_init__"
             for sub in ast.walk(node) if isinstance(sub, ast.If) and one_field_against_constants(sub.test)]
    assert not found, f"range checks on one field in a __post_init__: {found}"


def _hand_conversions(post_init: ast.FunctionDef, module: dict) -> list[ast.Call]:
    """The calls in ``post_init`` that pass a field of ``self`` to a converter."""
    converters = {"config_int", "config_float", "frozen_array"}
    converters |= {name for name, value in module.items() if isinstance(value, type) and issubclass(value, Enum)}
    from_self: set[str] = set()  # names bound from a field

    def reads_self(node) -> bool:
        return (isinstance(node, ast.Attribute) and ast.unparse(node.value) == "self"
                or isinstance(node, ast.Call) and ast.unparse(node.func) == "getattr" and ast.unparse(node.args[0]) == "self"
                or isinstance(node, ast.Name) and node.id in from_self)

    for _ in range(3):  # a name bound from a name bound from a field, and so on
        for node in ast.walk(post_init):
            bindings = [(node.targets, node.value)] if isinstance(node, ast.Assign) else []
            bindings += [([node.target], node.iter)] if isinstance(node, (ast.For, ast.comprehension)) else []
            for targets, value in bindings:
                names = {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}
                if isinstance(value, ast.Name) and value.id in converters:  # K = EstimatorKind
                    converters |= names
                elif reads_self(value):
                    from_self |= names
    return [node for node in ast.walk(post_init) if isinstance(node, ast.Call) and ast.unparse(node.func) in converters
            and any(reads_self(sub) for arg in node.args for sub in ast.walk(arg))]


def test_readme_quick_tour_runs(capsys):
    (block,) = re.findall(r"```python\n(.*?)```", (ROOT / "README.md").read_text(), re.S)
    observed = make_observed(seed=90, n_population=10_000)
    names = {name: getattr(observed, name) for name in ("x_a", "pi_a", "y_a", "x_b", "y_b")}
    exec(compile(block, "README.md", "exec"), names)
    assert names["report"].ci_low <= names["report"].pooled_estimate <= names["report"].ci_high
    assert capsys.readouterr().out.strip()


def test_benchmark_tracer_hooks_resolve():
    # benchmark/tracing.py wraps package functions by name; a renamed or moved one would silently drop its spans.
    spec = importlib.util.spec_from_file_location("benchmark_tracing", ROOT / "benchmark" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    modules = {layer: importlib.import_module(f"surveyblend.{layer}") for layer in tracing.LAYERS}
    for layer, names in tracing._EXTRA.items():
        for name in names:
            fn = getattr(modules[layer], name, None)
            assert inspect.isfunction(fn) and fn.__module__ == modules[layer].__name__, f"{layer}.{name}"
    for layer, cls_name, method in tracing._METHODS:
        assert method in vars(getattr(modules[layer], cls_name)), f"{layer}.{cls_name}.{method}"
    # the tracer reads the replicate number from argument 2 (replicate_arg=2)
    params = list(inspect.signature(modules["simulate"]._replicate_record).parameters)
    assert params[2] == "rep_index", params
