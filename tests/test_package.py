import ast
import importlib
import importlib.util
import pkgutil
import re
from pathlib import Path

import pytest

import mfpod

_MODULES = ["mfpod"] + [f"mfpod.{info.name}" for info in pkgutil.iter_modules(mfpod.__path__)]
_ROOT = Path(__file__).resolve().parent.parent
_TRACER_ONLY = "a name the benchmark's tracing hooks resolve"


@pytest.mark.parametrize("name", _MODULES)
def test_exported_names_resolve_and_appear_once(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    assert len(set(exported)) == len(exported), sorted(n for n in exported if exported.count(n) > 1)
    assert [n for n in exported if not hasattr(module, n)] == []


def _surface_names() -> set:
    """Every name, attribute and imported name in the CLI, the acceptance
    tests, bench/ and the README's python blocks, and each dotted part of the
    strings in the benchmark's HOOKS table."""
    paths = [_ROOT / "src" / "mfpod" / "cli.py", _ROOT / "tests" / "test_acceptance.py",
             *sorted((_ROOT / "bench").glob("*.py"))]
    blocks = re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.DOTALL)
    names = set()
    for tree in [ast.parse(path.read_text()) for path in paths] + [ast.parse(b) for b in blocks]:
        for node in ast.walk(tree):
            if isinstance(node, ast.alias):
                names.add(node.name)
            names.add(getattr(node, "id", None) or getattr(node, "attr", None))
            if isinstance(node, ast.Assign) and "HOOKS" in {getattr(t, "id", None) for t in node.targets}:
                names.update(part for c in ast.walk(node.value) if isinstance(c, ast.Constant)
                             and isinstance(c.value, str) for part in c.value.split("."))
    return names


def _types_reached(name: str) -> set:
    """Names in the return annotation and raise statements of the function
    that mfpod exports as ``name``, or in the field annotations of its class."""
    module = importlib.import_module(getattr(mfpod, name).__module__)
    node = next(n for n in ast.parse(Path(module.__file__).read_text()).body
                if getattr(n, "name", None) == name)
    if isinstance(node, ast.ClassDef):
        parts = [n.annotation for n in node.body if isinstance(n, ast.AnnAssign)]
    else:
        parts = [node.returns] + [n.exc for n in ast.walk(node) if isinstance(n, ast.Raise)]
    return {n.id for part in parts if part is not None for n in ast.walk(part) if isinstance(n, ast.Name)}


def test_every_exported_name_is_reached_by_a_user():
    # a name is public if the CLI, the acceptance tests, the benchmark or the
    # README's example uses it, or if it is a type that a public call returns
    # or raises or a public dataclass holds; everything else stays in its module
    exported = set(mfpod.__all__)
    public = _surface_names() & exported
    todo = list(public)
    while todo:
        reached = _types_reached(todo.pop()) & exported - public
        public |= reached
        todo += reached
    unreached = sorted(exported - public)
    assert not unreached, f"exported, but no user reaches: {', '.join(unreached)}"


def _tracer_only_imports():
    """(owner module, name) of every import in src/mfpod marked as kept for
    the tracer, and the marked lines that are no import."""
    found, stray = [], []
    for path in sorted((_ROOT / "src" / "mfpod").glob("*.py")):
        lines = path.read_text().splitlines()
        marked = {i + 1 for i, line in enumerate(lines) if _TRACER_ONLY in line}
        for node in ast.walk(ast.parse("\n".join(lines))):
            if isinstance(node, ast.ImportFrom) and node.end_lineno in marked:
                marked.discard(node.end_lineno)
                found += [(f"mfpod.{path.stem}", alias.name) for alias in node.names]
        stray += [f"{path.name}:{i}" for i in sorted(marked)]
    return found, stray


def test_tracer_only_imports_name_a_tracing_hook():
    spec = importlib.util.spec_from_file_location("_bench_tracing", _ROOT / "bench" / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    hooks = {(owner, attr) for owner, attr, *_ in tracing.HOOKS}
    imports, stray = _tracer_only_imports()
    assert stray == []
    assert [pair for pair in imports if pair not in hooks] == []


def test_no_module_calls_the_column_space_profile():
    # every residual energy in the library is read off a snapshot span: no
    # module calls estimate_profile, which builds a span of its own, in place
    # of the span it fits on (the tracer's names are import aliases, not
    # references), and only verify, which projects eigenvector bases, not
    # snapshots, imports or calls core.project (the package re-exports it)
    refs = []
    for path in sorted((_ROOT / "src" / "mfpod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name == "estimate_profile":
                refs.append(f"{path.name}:{node.lineno}")
            if path.name in ("verify.py", "__init__.py"):
                continue
            imported = isinstance(node, ast.ImportFrom) and "project" in {a.name for a in node.names}
            if imported or isinstance(node, (ast.Name, ast.Attribute)) and name == "project":
                refs.append(f"{path.name}:{node.lineno}")
    assert refs == []


def test_span_growth_has_no_column_loop():
    # every span grows by one pivoted QR per block: the column-by-column
    # Gram-Schmidt loop does not come back into orthonormalize or _extend_span
    loops = []
    for module, name in (("core", "orthonormalize"), ("mfpod", "_extend_span")):
        tree = ast.parse((_ROOT / "src" / "mfpod" / f"{module}.py").read_text())
        func = next(node for node in tree.body if getattr(node, "name", None) == name)
        loops += [f"{module}.{name}:{node.lineno}" for node in ast.walk(func)
                  if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []


def test_estimator_algebra_is_written_once():
    # _coefficients holds the telescoping weights and mf_mse the MSE formula:
    # min_mse and usefulness evaluate mf_mse without a level loop of their
    # own, and j_mf weighs the blocks' energies by _coefficients
    src = _ROOT / "src" / "mfpod"
    funcs = {node.name: node for module in ("estimator", "mfpod")
             for node in ast.parse((src / f"{module}.py").read_text()).body
             if isinstance(node, ast.FunctionDef)}
    loops = [f"{name}:{node.lineno}" for name in ("min_mse", "usefulness")
             for node in ast.walk(funcs[name])
             if isinstance(node, (ast.For, ast.While, ast.comprehension))]
    assert loops == []
    assert "_coefficients" in {node.id for node in ast.walk(funcs["j_mf"])
                               if isinstance(node, ast.Name)}


def test_fits_and_study_scoring_stay_in_metric_coordinates():
    # a fitted mode and the study reference are kept in metric coordinates:
    # building a basis, fitting a study repeat, scoring it and building the
    # reference neither map n-vectors back (from_coords) nor apply W, and a
    # study repeat, whose modes are coordinates already, maps none forward
    src = _ROOT / "src" / "mfpod"
    refs = []
    for module, name, forbidden in (
            ("mfpod", "_finalize_basis", ("from_coords", "apply")),
            ("experiment", "_fit_mfpod", ("from_coords", "apply")),
            ("experiment", "_run_repeat", ("from_coords", "apply", "to_coords")),
            ("experiment", "build_reference", ("from_coords", "apply"))):
        tree = ast.parse((src / f"{module}.py").read_text())
        func = next(node for node in tree.body if getattr(node, "name", None) == name)
        refs += [f"{module}.{name}:{node.lineno}" for node in ast.walk(func)
                 if (getattr(node, "id", None) or getattr(node, "attr", None)) in forbidden]
    assert refs == []


def test_readme_python_blocks_run():
    blocks = re.findall(r"```python\n(.*?)```", (_ROOT / "README.md").read_text(), re.DOTALL)
    assert blocks
    for i, code in enumerate(blocks):
        exec(compile(code, f"README.md python block {i}", "exec"), {"__name__": "__readme__"})
