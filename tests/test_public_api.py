"""The public API: every advertised name resolves, no function or
dataclass field takes a numerical setting of the solver (a config or a
tax-sample growth), the solvers and mechanisms that share a decision's
slope record with their pivot solves take no parameter for it, and the
misreport fuzzers take no tolerance or restart count."""

from __future__ import annotations

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import pytest

import usvcg
from usvcg import experiments, mechanism, solver

MODULES = (
    "cli",
    "curves",
    "elicitation",
    "errors",
    "experiments",
    "files",
    "mechanism",
    "model",
    "solver",
)


@pytest.mark.parametrize("name", [m for m in MODULES if m != "errors"])
def test_module_all_resolves(name):
    module = importlib.import_module(f"usvcg.{name}")
    assert len(set(module.__all__)) == len(module.__all__)
    assert [n for n in module.__all__ if not hasattr(module, n)] == []


def test_package_exports_resolve_to_their_modules():
    tree = ast.parse(Path(usvcg.__file__).read_text(encoding="utf-8"))
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert {node.module for node in imports} <= set(MODULES)
    for node in imports:
        source = importlib.import_module(f"usvcg.{node.module}")
        public = getattr(source, "__all__", None)
        for alias in node.names:
            assert getattr(usvcg, alias.asname or alias.name) is getattr(source, alias.name)
            assert public is None or alias.name in public, (node.module, alias.name)


def test_no_function_takes_solver_settings():
    takers = []
    for name in MODULES:
        module = importlib.import_module(f"usvcg.{name}")
        for attr, obj in vars(module).items():
            if callable(obj) and getattr(obj, "__module__", None) == module.__name__:
                try:
                    parameters = inspect.signature(obj).parameters
                except (TypeError, ValueError):
                    continue
                if "config" in parameters or "growth" in parameters:
                    takers.append(f"{name}.{attr}")
    assert takers == []
    assert not hasattr(usvcg, "SolverConfig")
    assert not hasattr(solver, "SolverConfig")
    fields = dataclasses.fields(mechanism.NonPositiveConfig)
    assert tuple(f.name for f in fields) == ("gamma", "r")


@pytest.mark.parametrize(
    "function, parameters",
    [
        (solver.optimize, ["agent", "instance", "run"]),
        (solver.optimize_hetero, ["profile", "instance", "exclude", "run"]),
        (mechanism.run_us_vcg, ["profile", "instance"]),
        (mechanism.run_us_vcg_hetero, ["profile", "instance"]),
        (solver.optimize_biased, ["agent", "bias", "instance", "run"]),
        (mechanism.run_bus_vcg, ["profile", "bias", "instance"]),
    ],
)
def test_pivot_record_takes_no_parameter(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters


@pytest.mark.parametrize(
    "function, parameters",
    [
        (experiments.sdsic_fuzz, ["instance", "trials", "seed", "mu", "misreport_space"]),
        (
            experiments.coalition_probe,
            ["instance", "coalition_size", "trials", "seed", "mu", "misreport_space"],
        ),
    ],
)
def test_fuzzers_take_no_tolerance(function, parameters):
    assert list(inspect.signature(function).parameters) == parameters
