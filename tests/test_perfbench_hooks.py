"""The benchmark's hook surface: every lisopt attribute perfbench wraps must exist.

perfbench/workload.py patches lisopt functions by module and name, with
``tracer.wrap(<module>, "<attr>")`` and ``capture_reports(<module>, "<attr>", ...)``.
A renamed or dropped function would only show when the benchmark runs, so
the call sites are read from the source here and each name is looked up.
"""

import ast
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


@pytest.mark.parametrize("module,attr", hook_sites())
def test_hooked_attribute_is_bound(module, attr):
    assert callable(getattr(importlib.import_module(f"lisopt.{module}"), attr, None)), \
        f"perfbench/workload.py wraps lisopt.{module}.{attr}, which is not bound"
