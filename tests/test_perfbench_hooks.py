"""The benchmark's hook surface: every lisopt attribute perfbench wraps must exist and be called.

perfbench/workload.py patches lisopt functions by module and name, with
``tracer.wrap(<module>, "<attr>")`` and ``capture_reports(<module>, "<attr>", ...)``.
A renamed or dropped function would only show when the benchmark runs, so
the call sites are read from the source here and each name is looked up. A
hook the program never calls reads 0 and must be listed in UNCALLED_HOOKS.
"""

import ast
import functools
import importlib
from pathlib import Path

import pytest

WORKLOAD = Path(__file__).resolve().parent.parent / "perfbench" / "workload.py"


def hook_sites():
    """(module, attr) of every wrap and capture call in perfbench/workload.py."""
    sites = []
    for node in ast.walk(ast.parse(WORKLOAD.read_text())):
        if not isinstance(node, ast.Call) or len(node.args) < 2:
            continue
        func = node.func
        is_wrap = (isinstance(func, ast.Attribute) and func.attr == "wrap"
                   and isinstance(func.value, ast.Name) and func.value.id == "tracer")
        is_capture = isinstance(func, ast.Name) and func.id == "capture_reports"
        owner, attr = node.args[:2]
        if (is_wrap or is_capture) and isinstance(owner, ast.Name) \
                and isinstance(attr, ast.Constant):
            sites.append((owner.id, attr.value))
    return sorted(set(sites))


def test_hook_sites_are_found():
    sites = hook_sites()
    assert {module for module, _ in sites} == {"harness", "phases", "power", "solver"}
    assert ("solver", "zf_power_weights") in sites
    assert ("harness", "alternating_ee_max") in sites
    assert UNCALLED_HOOKS <= set(sites)


@pytest.mark.parametrize("module,attr", hook_sites())
def test_hooked_attribute_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"lisopt.{module}"), attr, None)), \
        f"perfbench/workload.py wraps lisopt.{module}.{attr}, which is not bound"


# The hooks that read 0: no function the program reaches calls them in the hooked module.
UNCALLED_HOOKS = {("harness", "zf_precoder"), ("power", "zf_precoder"), ("solver", "zf_precoder"),
                  ("solver", "solve_phase_subproblem"), ("phases", "solve_relaxed"),
                  ("phases", "trace_values"), ("harness", "relay_baseline"),
                  ("harness", "max_rate_power_fill"), ("solver", "dinkelbach_allocation"),
                  ("solver", "zf_power_weights")}

SOURCE = Path(importlib.import_module("lisopt").__file__).parent


@functools.cache
def parsed(module):
    return ast.parse((SOURCE / f"{module}.py").read_text())


@functools.cache
def definitions(module):
    """The functions and classes defined at the top level of src/lisopt/<module>.py, by name."""
    return {node.name: node for node in parsed(module).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


@functools.cache
def imported(module):
    """Each name src/lisopt/<module>.py binds by `from .x import y [as z]`: its (x, y)."""
    return {alias.asname or alias.name: (node.module, alias.name)
            for node in ast.walk(parsed(module))
            if isinstance(node, ast.ImportFrom) and node.level == 1 and node.module
            for alias in node.names}


def resolve(module, name):
    """(module, definition name) a bare name of module stands for, or None."""
    while name not in definitions(module):
        if name not in imported(module):
            return None
        module, name = imported(module)[name]
    return module, name


@functools.cache
def reached_calls():
    """(module, name) of every bare-name call f(...) in code the program reaches.

    The walk starts at cli.main, harness.run_scenario and every module-level
    statement other than a definition or an import, and follows each bare
    name to the function or class it resolves to. A reached class counts
    with all its methods.
    """
    todo = [(module, node) for module in (path.stem for path in SOURCE.glob("*.py"))
            for node in parsed(module).body
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom))]
    todo += [("cli", definitions("cli")["main"]), ("harness", definitions("harness")["run_scenario"])]
    seen, calls = set(), set()
    while todo:
        module, body = todo.pop()
        for node in ast.walk(body):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                calls.add((module, node.func.id))
            target = resolve(module, node.id) if isinstance(node, ast.Name) else None
            if target is not None and target not in seen:
                seen.add(target)
                todo.append((target[0], definitions(target[0])[target[1]]))
    return calls


@pytest.mark.parametrize("module,attr", hook_sites())
def test_hooked_attribute_is_called_in_its_module(module, attr):
    # a wrap of a name no reached code of its module calls silently reads 0 calls
    called = (module, attr) in reached_calls()
    assert called != ((module, attr) in UNCALLED_HOOKS), \
        f"lisopt.{module} {'calls' if called else 'never calls'} {attr}, which perfbench wraps"
