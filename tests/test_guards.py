"""Guards against regrowth and against checks that vanish under python -O.

Every command-line option must be read by its command's handler, every span
target of ``bench/tracing.py`` must resolve, every module constant must be
read, every internal check must raise AssertionError explicitly rather than
by an ``assert`` statement, only ``MultiPoly._raw`` may build a
polynomial without ``MultiPoly.__init__``, every function, class and
method must be used somewhere, and every name a module imports must be
loaded there.
"""

import argparse
import ast
import inspect
import os
import runpy
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from cubiconics import cli

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cubiconics"
# the flags every command shares: main echoes them in the report's config,
# _emit reads --out, --format and --timing
SHARED = {"out", "format", "seed", "threads", "timing"}


def _reads(func):
    """The attributes of ``args`` that a cli function reads, itself or
    through the cli functions it hands ``args`` to."""
    found = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id == "args"):
            found.add(node.attr)
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
              and any(isinstance(a, ast.Name) and a.id == "args" for a in node.args)):
            found |= _reads(getattr(cli, node.func.id))
    return found


def test_every_cli_option_is_read_by_its_handler():
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    unread = {}
    for name, parser in sub.choices.items():
        dests = {a.dest for a in parser._actions if a.option_strings and a.dest != "help"}
        assert SHARED <= dests
        missed = dests - SHARED - _reads(parser.get_default("func"))
        if missed:
            unread[name] = sorted(missed)
    assert unread == {}


def test_bench_trace_targets_resolve():
    targets = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["TARGETS"]
    assert targets
    for span, (module, path) in targets.items():
        obj = __import__(module, fromlist=["_"])
        for part in path.split("."):
            obj = getattr(obj, part, None)
        assert callable(obj), span


def test_no_internal_check_is_an_assert_statement():
    bare = [f"{p.name}:{node.lineno}" for p in sorted(SRC.glob("*.py"))
            for node in ast.walk(ast.parse(p.read_text())) if isinstance(node, ast.Assert)]
    assert bare == []


def _new_calls(tree):
    return {(n.lineno, n.col_offset) for n in ast.walk(tree)
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
            and n.func.attr == "__new__"}


def test_new_is_called_only_in_multipoly_raw():
    # a polynomial skips the validation of MultiPoly.__init__ only through
    # MultiPoly._raw, whose callers hand it a new dict of clean terms
    stray = []
    for p in sorted(SRC.glob("*.py")):
        tree = ast.parse(p.read_text())
        raw = set().union(*(_new_calls(f) for f in ast.walk(tree)
                            if isinstance(f, ast.FunctionDef) and f.name == "_raw"))
        stray += [f"{p.name}:{line}" for line, _ in sorted(_new_calls(tree) - raw)]
    assert stray == []


def test_every_module_constant_is_read_in_src():
    # a knob that nothing reads any more is dead code: every module-level
    # UPPER_CASE name must be loaded somewhere in src/ besides its assignment
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))]
    constants = {t.id for tree in trees for node in tree.body
                 if isinstance(node, (ast.Assign, ast.AnnAssign))
                 for t in (node.targets if isinstance(node, ast.Assign) else [node.target])
                 if isinstance(t, ast.Name) and t.id.isupper()}
    read = {n.id if isinstance(n, ast.Name) else n.attr
            for tree in trees for n in ast.walk(tree)
            if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    assert constants
    assert sorted(constants - read) == []


def test_every_function_class_and_method_is_used():
    # a definition that nothing loads is dead code: every module-level
    # function and class, and every method that is not a dunder, must be
    # loaded by name somewhere in src/, tests/, demos/ or bench/; a span
    # target of bench/tracing.py loads its path by string
    defined = set()
    for p in sorted(SRC.glob("*.py")):
        for node in ast.parse(p.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defined.add(node.name)
            if isinstance(node, ast.ClassDef):
                defined |= {f.name for f in node.body if isinstance(f, ast.FunctionDef)
                            and not (f.name.startswith("__") and f.name.endswith("__"))}
    loaded = set()
    for d in ("src", "tests", "demos", "bench"):
        for p in sorted((ROOT / d).rglob("*.py")):
            loaded |= {n.id if isinstance(n, ast.Name) else n.attr
                       for n in ast.walk(ast.parse(p.read_text()))
                       if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
    targets = runpy.run_path(str(ROOT / "bench" / "tracing.py"))["TARGETS"]
    loaded |= {part for _, path in targets.values() for part in path.split(".")}
    assert defined
    assert sorted(defined - loaded) == []


def test_every_import_in_src_is_loaded():
    # a name that a module imports and never loads is left behind when code
    # moves between modules; __init__.py imports only to re-export
    unused = []
    for p in sorted(SRC.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text())
        imported = {(a.asname or a.name).split(".")[0] for n in ast.walk(tree)
                    if isinstance(n, (ast.Import, ast.ImportFrom))
                    and getattr(n, "module", None) != "__future__" for a in n.names}
        loaded = {n.id for n in ast.walk(tree)
                  if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unused += [f"{p.name}:{name}" for name in sorted(imported - loaded)]
    assert unused == []


# Each check breaks one certified identity from outside and must still raise
# AssertionError when python runs with -O.
CHECKS = {
    "cofactor identity": """
        real, calls = MultiPoly.exact_divide, []
        def second_is_wrong(self, g):
            calls.append(g)
            q = real(self, g)
            return q + g if len(calls) == 2 else q
        MultiPoly.exact_divide = second_is_wrong
        try:
            cubic_conics.cofactor_pair(F, L1, L2)
        finally:
            MultiPoly.exact_divide = real
    """,
    "cycle identities": """
        A, B = cubic_conics.cofactor_pair(F, L1, L2)
        swapped = cubic_conics.RationalLine(cayley.LineP3.make(L1, L2), B, A)
        cubic_conics.residual_conic(cubic_conics.CubicSurface.make(F), swapped)
    """,
    "Grassmann relation": """
        cayley.plucker_of_line = lambda u, v: (1, 0, 0, 0, 0, 1)
        cayley.LineP3.make(L1, L2)
    """,
    "place product": """
        heights._place_product = lambda ints: Fraction(7)
        heights.point_height([1, 2])
    """,
    "nonzero minor": """
        hilbert_samuel._first_nonzero_minor3 = lambda A: 0
        hilbert_samuel.bad_reduction_census(MultiPoly.parse("T0*T2 - T1^2", T4[:3]))
    """,
    "annihilator size": """
        real, calls = multipoly.exact_kernel, []
        def second_grows(rows, ncols):
            calls.append(rows)
            out = real(rows, ncols)
            return out + out[:1] if len(calls) == 2 else out
        multipoly.exact_kernel = second_grows
        multipoly.essential_variable_count(F)
    """,
}

SCRIPT = """
from fractions import Fraction
from cubiconics import cayley, cubic_conics, heights, hilbert_samuel, multipoly
from cubiconics.cayley import T4
from cubiconics.multipoly import MultiPoly

F = MultiPoly.parse("T0^3 + T1^3 + T2^3 + T3^3", T4)
L1, L2 = MultiPoly.parse("T0 + T1", T4), MultiPoly.parse("T2 + T3", T4)
modules = (cayley, cubic_conics, heights, hilbert_samuel, multipoly)
saved = [dict(vars(m)) for m in modules]
for name, body in CHECKS.items():
    try:
        exec(body, dict(globals()))
        print(name, "-> silent")
    except Exception as exc:
        print(name, "->", type(exc).__name__)
    for m, attrs in zip(modules, saved):
        vars(m).update(attrs)
"""


@pytest.fixture(scope="module")
def optimized_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    checks = {name: textwrap.dedent(body) for name, body in CHECKS.items()}
    proc = subprocess.run(
        [sys.executable, "-O", "-c", f"CHECKS = {checks!r}\n{SCRIPT}"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return dict(line.split(" -> ") for line in proc.stdout.splitlines())


@pytest.mark.parametrize("name", sorted(CHECKS))
def test_internal_check_survives_python_O(optimized_run, name):
    assert optimized_run[name] == "AssertionError"
