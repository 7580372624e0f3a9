"""The mutation catalogue (mutants.py) against the tree; no mutant is applied here."""

import subprocess
import sys

from mutants import MUTANTS, ROOT


def test_each_old_text_occurs_once():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
    for m in MUTANTS:
        assert m.tests and m.old != m.new, m.name
        assert (ROOT / m.file).read_text(encoding="utf-8").count(m.old) == 1, m.name


def test_each_test_id_exists():
    # pytest exits 4 and names the id if any one of them is not found
    ids = sorted({t for m in MUTANTS for t in m.tests})
    argv = [sys.executable, "-m", "pytest", "--collect-only", "-q", "-p", "no:cacheprovider", *ids]
    result = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    assert result.returncode == 0, result.stdout[-2000:] + result.stderr[-2000:]
