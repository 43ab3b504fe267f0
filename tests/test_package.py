"""The package's public surface (each name of ``pfc.__all__`` resolves on
the package, once), its one bound checker (only ``core`` calls it), its
one writer of bound messages (``core``) and its one reader and writer of
layer files (``core``)."""

import ast
from pathlib import Path

import pfc

SOURCES = sorted(Path(pfc.__file__).parent.glob("*.py"))


def test_every_export_resolves_once():
    assert len(pfc.__all__) == len(set(pfc.__all__))
    assert [name for name in pfc.__all__ if not hasattr(pfc, name)] == []


def test_only_core_calls_check_domain():
    # every other module types and bounds its knobs through core.typed_param
    callers = [
        path.name for path in SOURCES
        if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Call)
        and "check_domain" in (getattr(node.func, "id", None), getattr(node.func, "attr", None))
    ]
    assert callers == []


def test_only_core_writes_a_bound_message():
    # a count's domain and the d >= K rule are stated in core alone: every
    # "must be >=" message is core's, formed by check_domain or check_frame
    writers = [
        path.name for path in SOURCES if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Constant) and "must be >" in str(node.value)
    ]
    assert writers == []


def dotted(node) -> str:
    """The dotted name an ``ast.Attribute`` chain spells, ``np.lib.format`` say."""
    if isinstance(node, ast.Attribute):
        return f"{dotted(node.value)}.{node.attr}"
    return getattr(node, "id", "")


def test_only_core_reads_or_writes_numpy_files():
    # layer files are opened, recognised and checked by core alone
    names = {"np.loadtxt", "np.load", "np.save", "np.lib.format"}
    users = [
        (path.name, dotted(node)) for path in SOURCES if path.name != "core.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and dotted(node) in names
    ]
    assert users == []
