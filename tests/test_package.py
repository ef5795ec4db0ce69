import ast
from pathlib import Path

import pytest

import qsdwalk

PACKAGE_DIR = Path(qsdwalk.__file__).parent

PUBLIC_NAMES = [
    "DecisionRule",
    "ExperimentConfig",
    "PhaseRoot",
    "StateLabel",
    "WalkParams",
    "collect_traces",
    "phase_report",
    "phase_table",
    "run_experiment",
    "rx",
    "sigma_x",
    "sweep_mu",
    "v_power",
    "v_root",
    "walk_agreement",
]


def test_public_names_are_pinned_and_resolve():
    assert qsdwalk.__all__ == PUBLIC_NAMES
    namespace = {}
    exec("from qsdwalk import *", namespace)
    for name in PUBLIC_NAMES:
        assert namespace[name] is getattr(qsdwalk, name)
        assert getattr(qsdwalk, name).__module__.startswith("qsdwalk.")


STEPPED_MODEL = {"ax_probabilities", "collapse_update", "weak_step", "step_arrays",
                 "walk_ensemble", "stepped_chain"}


def defined_or_imported(tree: ast.AST) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(alias.asname or alias.name for alias in node.names)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            names.add(node.id)
    return names


@pytest.mark.parametrize("path", sorted(PACKAGE_DIR.glob("*.py")), ids=lambda p: p.name)
def test_package_runs_one_walk_model(path):
    # every package path reads the closed-form rows (walk.WalkRow); the
    # stepped models live in tests/reference.py as the references only
    assert not defined_or_imported(ast.parse(path.read_text())) & STEPPED_MODEL
