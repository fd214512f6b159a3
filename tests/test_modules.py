"""Module boundaries of the closure engine.

Each closure arithmetic is a module of its own, which imports neither
``engines`` nor the other arithmetic, and ``engines`` keeps every name that
the benchmark's tracer (``bench/tracing.py``) wraps on it.
"""

import ast
import importlib.util
from pathlib import Path

import pytest

from unieq import engines, exact_closure, float_closure

ROOT = Path(__file__).resolve().parents[1]
CLOSURES = {"unieq.float_closure": float_closure, "unieq.exact_closure": exact_closure}


def _imported(module):
    """The ``unieq`` modules and names that a module's source imports, by
    full name, relative imports resolved."""
    names = set()
    for node in ast.walk(ast.parse(Path(module.__file__).read_text())):
        if isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                base = "unieq" + ("." + base if base else "")
            names |= {base} | {f"{base}.{alias.name}" for alias in node.names}
        elif isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
    return {name for name in names if name.split(".")[0] == "unieq"}


@pytest.mark.parametrize("name", list(CLOSURES))
def test_closure_modules_import_neither_engines_nor_each_other(name):
    imported = _imported(CLOSURES[name])
    assert "unieq.numerics" in imported  # its relative imports were read
    assert not imported & ({"unieq.engines"} | set(CLOSURES) - {name})


def test_engines_keeps_every_name_the_tracer_wraps():
    path = ROOT / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)  # its unieq imports run only on install()
    assert "engines.iter_word_traces = " in path.read_text()
    for name in tracing.ENGINES_NAMES + ("iter_word_traces",):
        assert callable(getattr(engines, name, None)), name
