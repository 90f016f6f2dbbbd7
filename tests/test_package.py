import ast
import importlib
import importlib.util
import pkgutil
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
    # every profile in the library is read off a snapshot span; the column
    # route survives as the tests' oracle and as names the tracer resolves,
    # which are import aliases, not references
    refs = []
    for path in sorted((_ROOT / "src" / "mfpod").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            name = getattr(node, "id", None) or getattr(node, "attr", None)
            if isinstance(node, (ast.Name, ast.Attribute)) and name == "estimate_profile":
                refs.append(f"{path.name}:{node.lineno}")
    assert refs == []
