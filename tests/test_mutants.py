"""The mutant catalogue of ``scripts/mutants.py`` stays applicable to ``src/``.

The script itself runs outside tier-1; here each entry's old text must
occur exactly once in ``src/`` and the tests it names must exist, so the
catalogue cannot go stale silently.
"""
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)

SOURCES = {p: p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_old_text_occurs_once_in_src(mutant):
    assert mutant.file.startswith("src/") and mutant.old != mutant.new
    assert sum(text.count(mutant.old) for text in SOURCES.values()) == 1
    assert mutant.old in SOURCES[ROOT / mutant.file]


@pytest.mark.parametrize("mutant", mutants.CATALOGUE, ids=lambda m: m.name)
def test_each_mutant_names_its_killing_tests_or_its_equivalence(mutant):
    # no entry is exempt: each names the tests that kill it
    assert mutant.tests
    for node in mutant.tests:
        path, *names = node.split("::")
        text = (ROOT / path).read_text()
        assert all(f"def {name}(" in text or f"class {name}" in text for name in names), node
