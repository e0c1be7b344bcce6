"""Guards on the public surface: every ``__all__`` entry resolves, the
package root exposes every name the README's examples use, and every name
the traced benchmark run wraps exists."""

import ast
import importlib
import re
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
