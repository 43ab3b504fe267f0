"""The benchmark's tracer still fits the package it wraps.

``perfbench/spans.py`` rebinds the ``pfc`` functions in its ``TARGETS`` by
name and binds each call's arguments to feed its counters, so a deleted
function or a renamed parameter breaks a traced run.  The file is read as
text and executed into a fresh namespace; nothing is written next to it.
"""

import ast
import importlib
import inspect
import types
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"

# the call arguments the counters read
COUNTED_ARGUMENTS = {"fs", "path", "p", "params", "x", "config"}


def load_spans():
    source = SPANS.read_text()
    module = types.ModuleType("perfbench_spans")
    exec(compile(source, str(SPANS), "exec"), module.__dict__)
    return module, ast.parse(source)


def counted_arguments(count, tree) -> set[str]:
    """The names ``count`` reads as ``args["name"]``."""
    (node,) = (
        node for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.lineno == count.__code__.co_firstlineno
    )
    return {
        sub.slice.value for sub in ast.walk(node)
        if isinstance(sub, ast.Subscript) and isinstance(sub.value, ast.Name)
        and sub.value.id == "args" and isinstance(sub.slice, ast.Constant)
    }


def resolve(module_name, attr):
    target = importlib.import_module(module_name)
    for part in attr.split("."):
        target = getattr(target, part)
    return target


def test_every_target_resolves():
    spans, _ = load_spans()
    for module_name, attr, _, _ in spans.TARGETS:
        assert callable(resolve(module_name, attr)), (module_name, attr)


def test_counted_arguments_are_parameters():
    spans, tree = load_spans()
    seen = set()
    for module_name, attr, name, count in spans.TARGETS:
        if count is None:
            continue
        parameters = inspect.signature(resolve(module_name, attr)).parameters
        for argument in counted_arguments(count, tree):
            assert argument in parameters, (name, argument)
            seen.add(argument)
    assert seen == COUNTED_ARGUMENTS
