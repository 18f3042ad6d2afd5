"""Guards on the shape of the source tree, run with the rest of the tests."""

import ast
import pathlib
import re
import subprocess

import pytest

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "iwk"


def source_files():
    return sorted(SRC.rglob("*.py"))


def test_no_bytecode_tracked():
    # a tracked __pycache__ or .pyc would let one checkout import without
    # compiling, so that an A/B of two checkouts times the compiler
    try:
        listed = subprocess.run(
            ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.splitlines()
    except (OSError, subprocess.CalledProcessError):
        pytest.skip("not a git checkout")
    assert [f for f in listed if re.search(r"(^|/)__pycache__/|\.pyc$", f)] == []


def test_no_bare_asserts_in_src():
    # postconditions raise; a bare assert vanishes under python -O
    stray = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in source_files()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.match(r"\s*assert\b", line)
    ]
    assert stray == []


def test_no_dataclasses_in_src():
    # `import dataclasses` brings inspect, ast, dis and tokenize into every
    # cold start; the frozen value classes derive from iwk._record.Record
    stray = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in source_files()
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.match(r"\s*(import|from)\s+dataclasses\b", line)
    ]
    assert stray == []


def test_sympy_imported_only_in_padic():
    # sympy is imported behind padic's one lazy gate and nowhere else; the
    # `from .padic import sympy` names in cli.py and twist.py pass
    stray = [
        f"{path.relative_to(ROOT)}:{lineno}"
        for path in source_files()
        if path.name != "padic.py"
        for lineno, line in enumerate(path.read_text().splitlines(), start=1)
        if re.match(r"\s*(import|from)\s+sympy", line)
    ]
    assert stray == []


def test_sympy_used_only_in_factorint_and_division_poly_reducible():
    # sympy does two jobs, factoring psi_p when no certificate decides and
    # the fallback for a factor that rho leaves whole.  A `sympy.` attribute
    # or a `.factor_list` anywhere else would bring it back into a run that
    # needs neither, or factor psi_p past the entry point that
    # bench/tracer.py counts as conditions.division_poly.*
    allowed = {("padic.py", "factorint"), ("conditions.py", "_division_poly_reducible")}
    stray = []
    for path in source_files():
        tree = ast.parse(path.read_text())
        spans = [
            (node.lineno, node.end_lineno)
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef) and (path.name, node.name) in allowed
        ]
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                    and node.value.id == "sympy"):
                use = f"sympy.{node.attr}"
            elif isinstance(node, ast.Attribute) and node.attr == "factor_list":
                use = ".factor_list"
            elif isinstance(node, ast.Name) and node.id == "factor_list":
                use = "factor_list"
            else:
                continue
            if not any(a <= node.lineno <= b for a, b in spans):
                stray.append(f"{path.relative_to(ROOT)}:{node.lineno}: {use}")
    assert stray == []


def test_no_fractions_in_src():
    # j is the integer pair (num, den) and X_0(p) points are reconstructed
    # as reduced integer pairs, so no layer needs `fractions`, whose import
    # brings `decimal` and `numbers` into a cold curve subcommand
    stray = []
    for path in source_files():
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                modules = [node.module]
            else:
                continue
            if any(m == "fractions" or m.startswith("fractions.") for m in modules):
                stray.append(f"{path.relative_to(ROOT)}:{node.lineno}")
    assert stray == []
