"""Guards on the public surface: every ``__all__`` entry resolves, and the
package root exposes every name the README's examples use."""

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

