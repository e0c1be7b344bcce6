"""Guards on the public surface: every ``__all__`` entry resolves, the
package root exposes every name the README's examples use, and every name
the traced benchmark run wraps exists."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import fgcrypt

MODULES = ("words", "nielsen", "automorphisms", "keystream", "matrices",
           "otp", "pubkey", "cryptanalysis")
README = Path(__file__).resolve().parent.parent / "README.md"


@pytest.mark.parametrize("name", MODULES)
def test_all_entries_resolve(name):
    mod = importlib.import_module(f"fgcrypt.{name}")
    missing = [attr for attr in mod.__all__ if not hasattr(mod, attr)]
    assert not missing
    assert len(set(mod.__all__)) == len(mod.__all__)


def test_readme_names_exported():
    used = set(re.findall(r"\bfg\.(\w+)", README.read_text()))
    assert used, "README example no longer uses the fg. prefix"
    assert sorted(n for n in used if not hasattr(fgcrypt, n)) == []


def test_traced_names_exist():
    """Every function the traced benchmark wraps is still there: a wrapper
    for a dropped or renamed name would report 0 calls without failing."""
    run_py = Path(__file__).resolve().parent.parent / "bench" / "run.py"
    tree = ast.parse(run_py.read_text())
    names = next(ast.literal_eval(node.value) for node in tree.body
                 if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_CALLS_SELF"])
    assert names
    for name in names:
        module, *path = name.split(".")
        mod = importlib.import_module(f"fgcrypt.{module}")
        if len(path) == 1:
            assert path[0] in mod.__all__, name
        else:
            cls, method = path
            assert method in vars(getattr(mod, cls)), name


def test_one_integer_reader():
    """Every integer read from a file field or a flag goes through
    ``words._parse_int``: no other code in the package calls ``int(...)``
    or gives argparse ``type=int``, both of which accept "1_0", " 7" and
    non-ASCII digits."""
    found = []
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        allowed = set()
        if path.name == "words.py":
            reader = next(node for node in tree.body
                          if isinstance(node, ast.FunctionDef)
                          and node.name == "_parse_int")
            allowed = {id(node) for node in ast.walk(reader)}
        for node in ast.walk(tree):
            if id(node) in allowed:
                continue
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "int"):
                found.append(f"{path.name}:{node.lineno}: int(...)")
            if (isinstance(node, ast.keyword) and node.arg == "type"
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "int"):
                found.append(f"{path.name}:{node.value.lineno}: type=int")
    assert found == []


def test_one_splitmix64_and_trusted_factors_stay_inside():
    """splitmix64 has one body: each of its multipliers appears once in the
    package.  Only the sampler's draw and the module constant of shared
    inversions, ``_INVERSIONS``, in automorphisms.py build a
    ``WhiteheadMove`` through the unchecked ``WhiteheadMove._make``."""
    multipliers = {0xBF58476D1CE4E5B9: [], 0x94D049BB133111EB: []}
    trusted = set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text())
        for top in tree.body:
            # a function or class by its name, a module constant by its target
            name = getattr(top, "name", None)
            if isinstance(top, ast.Assign) and len(top.targets) == 1:
                name = getattr(top.targets[0], "id", None)
            for node in ast.walk(top):
                if (isinstance(node, ast.Constant) and type(node.value) is int
                        and node.value in multipliers):
                    multipliers[node.value].append(f"{path.name}:{node.lineno}")
                if (isinstance(node, ast.Attribute) and node.attr == "_make"
                        and isinstance(node.value, ast.Name)
                        and node.value.id == "WhiteheadMove"):
                    trusted.add((path.name, name))
    assert all(len(found) == 1 for found in multipliers.values()), multipliers
    assert trusted == {("automorphisms.py", "_draw_factor"),
                       ("automorphisms.py", "_INVERSIONS")}


def test_one_free_reduction():
    """Free reduction has one implementation: in words.py a cancellation
    test ``x == y ^ 1`` appears only in the kernel functions."""
    tree = ast.parse((Path(fgcrypt.__file__).parent / "words.py").read_text())
    found = set()
    for top in tree.body:
        for node in ast.walk(top):
            if (isinstance(node, ast.Compare)
                    and any(isinstance(op, ast.Eq) for op in node.ops)
                    and any(isinstance(side, ast.BinOp)
                            and isinstance(side.op, ast.BitXor)
                            for side in (node.left, *node.comparators))):
                found.add(getattr(top, "name", None))
    assert found
    assert found <= {"_reduce_codes", "_seam", "_concat_codes",
                     "_substitute"}, found


def test_one_composition():
    """Automorphisms have one composition and one power: only
    automorphisms.py refers to ``_compose_codes``, so no other module
    composes or powers images on its own."""
    found = set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Name) and node.id == "_compose_codes"
                    or isinstance(node, ast.Attribute)
                    and node.attr == "_compose_codes"
                    or isinstance(node, ast.alias)
                    and node.name == "_compose_codes"):
                found.add(path.name)
    assert found == {"automorphisms.py"}


def test_one_running_check():
    """The letter cap's running check is decided in one place: only
    ``words._substitute`` refers to ``_capped`` or ``length_hint``, and no
    ``_running_cap`` works out a cap for its callers."""
    found = set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else None)
                if name in ("_capped", "length_hint"):
                    found.add((path.name, getattr(top, "name", None)))
                if "_running_cap" in (name, getattr(node, "name", None)):
                    found.add((path.name, "_running_cap"))
    assert found == {("words.py", "_substitute")}, found


def test_one_evaluation_loop():
    """SL(2,Q) values have one cap rule and one product loop: only
    ``matrices._evaluate`` compares anything with ``_MAX_ENTRY_BITS``, and
    no module but matrices.py refers to ``_kmul``, so pubkey evaluates
    through that loop."""
    found = set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Compare)
                        and any(isinstance(side, ast.Name)
                                and side.id == "_MAX_ENTRY_BITS"
                                for side in (node.left, *node.comparators))):
                    found.add((path.name, getattr(top, "name", None)))
                name = (node.id if isinstance(node, ast.Name)
                        else node.attr if isinstance(node, ast.Attribute)
                        else node.name if isinstance(node, ast.alias)
                        else None)
                if name == "_kmul" and path.name != "matrices.py":
                    found.add((path.name, "_kmul"))
    assert found == {("matrices.py", "_evaluate")}, found


def _nodes_by_qualname(tree, prefix=""):
    """(qualified name of the innermost enclosing def or class, node) for
    every node under ``tree``; module-level nodes carry ``None``."""
    for child in ast.iter_child_nodes(tree):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef,
                              ast.ClassDef)):
            name = f"{prefix}{child.name}"
            yield name, child
            yield from _nodes_by_qualname(child, f"{name}.")
        else:
            yield prefix[:-1] or None, child
            yield from _nodes_by_qualname(child, prefix)


def test_one_alphabet_check():
    """Code strings carry no alphabet, so alphabets have one check: a
    comparison with ``.names`` on both sides appears only in
    ``words._same_alphabet`` and ``Word.__eq__``, and only
    ``_same_alphabet`` raises ``AlphabetMismatchError``."""
    compares, raises = set(), set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for where, node in _nodes_by_qualname(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare) and sum(
                    isinstance(side, ast.Attribute) and side.attr == "names"
                    for side in (node.left, *node.comparators)) >= 2:
                compares.add((path.name, where))
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = (node.exc.func if isinstance(node.exc, ast.Call)
                       else node.exc)
                if getattr(exc, "id", None) == "AlphabetMismatchError":
                    raises.add((path.name, where))
    assert compares == {("words.py", "_same_alphabet"),
                        ("words.py", "Word.__eq__")}, compares
    assert raises == {("words.py", "_same_alphabet")}, raises


def test_automorphisms_built_inside():
    """Only automorphisms.py builds a ``FactoredAutomorphism`` directly,
    through ``FactoredAutomorphism(...)`` or ``FactoredAutomorphism._make``,
    so every map elsewhere comes from its constructors and carries factors
    that agree with its images."""
    found = set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if (isinstance(func, ast.Attribute) and func.attr == "_make"
                    and isinstance(func.value, ast.Name)):
                func = func.value
            if (func.id if isinstance(func, ast.Name)
                    else getattr(func, "attr", None)) == "FactoredAutomorphism":
                found.add(path.name)
    assert found == {"automorphisms.py"}, found


def test_slots_written_only_by_the_value_base():
    """One builder: ``object.__new__`` and slot-descriptor ``__set__``
    appear only inside ``words._Value``, so every value is built by its
    ``_fill`` or ``_make``."""
    found = set()
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Attribute)
                        and (node.attr == "__set__"
                             or node.attr == "__new__"
                             and isinstance(node.value, ast.Name)
                             and node.value.id == "object")):
                    found.add((path.name, getattr(top, "name", None)))
    assert found == {("words.py", "_Value")}, found


def test_no_dataclasses():
    """The value classes are plain ``__slots__`` classes: no module in the
    package imports ``dataclasses``, whose import and class generation cost
    more than the rest of the package's set-up."""
    found = []
    for path in sorted(Path(fgcrypt.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            names = ([alias.name for alias in node.names]
                     if isinstance(node, ast.Import)
                     else [node.module] if isinstance(node, ast.ImportFrom)
                     else [])
            if any(name and name.split(".")[0] == "dataclasses"
                   for name in names):
                found.append(f"{path.name}:{node.lineno}")
    assert found == []


def test_import_loads_no_dataclasses_or_inspect():
    """A fresh interpreter (without ``site``, so nothing else loads them)
    that imports the package has loaded neither ``dataclasses`` nor
    ``inspect``."""
    src = str(Path(fgcrypt.__file__).resolve().parent.parent)
    code = ("import sys, fgcrypt; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code],
                         env={**os.environ, "PYTHONPATH": src},
                         capture_output=True, text=True, timeout=60, check=True)
    assert out.stdout.split() == ["[]"]
