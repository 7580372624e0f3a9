"""A catalogue of mutants: changes to src/ that named tests must catch.

Each record holds a name, a file, the exact old text (found once in the file),
the new text and the test ids that must fail under the change.  Run

    python tests/mutants.py [name ...]

to check all mutants, or the named ones.  For each, the runner copies src/,
tests/ and pyproject.toml to a temporary directory, applies the change there,
runs the mutant's tests with --hypothesis-seed=0 and prints KILLED (a test
failed), SURVIVED (every test passed) or STALE (the old text is not in its file
exactly once, or pytest could not run the ids).  It exits 1 if any mutant
survived or is stale.  Pytest does not collect this file; the guard in
test_mutants.py checks the records against the tree without applying them.

A new claim that a test fails under a change adds that change here.  A mutant
is never deleted or weakened to make the runner pass.
"""

import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    old: str
    new: str
    tests: tuple  # pytest node ids, relative to the repository root


MUTANTS = [
    Mutant("closure sign always +2", "src/symsu/basis.py",
           "sign = 2.0 - 2.0 * (power & 2)", "sign = 2.0 + 0.0 * (power & 2)",
           ("tests/test_basis.py::TestClosureReport::test_split_orbit_fails"
            "[cyclic-3-16-worst_pair2-2.8284271247461903]",)),
    Mutant("closure j-blocks cut mid-orbit", "src/symsu/basis.py",
           "hi = starts[min(d, np.searchsorted(starts, lo + step))]", "hi = min(lo + step, starts[d])",
           ("tests/test_basis.py::TestClosureReport::test_split_matches_reference_kernel",
            "tests/test_basis.py::TestClosureReport::test_full_swap_closes[5-1485]")),
    Mutant("dihedral reflection term 4 in place of 5", "src/symsu/basis.py",
           "n // 2 * 5 * 4 ** (n // 2)", "n // 2 * 4 * 4 ** (n // 2)",
           ("tests/test_basis.py::TestBurnside::test_closed_forms_up_to_eight_qubits[dihedral]",
            "tests/test_basis.py::TestBurnside::test_matches_enumeration_for_square_group")),
    Mutant("element exponential stack not checked", "src/symsu/unitary_ops.py",
           "        _checked_residual(factors)\n", "",
           ("tests/test_unitary_ops.py::TestStackedDraws::test_non_orthonormal_factor_stack_refused",
            "tests/test_unitary_ops.py::TestStackedDraws::test_non_finite_factor_refused")),
    Mutant("angles misaligned across element chunks", "src/symsu/unitary_ops.py",
           "zip(alphas[start:start + chunk], spectra)",
           "zip(alphas[start // chunk:start // chunk + chunk], spectra)",
           ("tests/test_unitary_ops.py::TestBasisSpectra::test_element_factor_matches_exp_generator",)),
    Mutant("verify's path points not checked", "src/symsu/cli.py",
           "        _checked_residual(points)\n", "",
           ("tests/test_cli.py::TestVerifyCommand::test_corrupted_path_decomposition_rejected",)),
    Mutant("defect maps built 511 of 512 rows at a time", "src/symsu/symmetry.py",
           "group.images[i:i + 512]", "group.images[i:i + 511]",
           ("tests/test_symmetry.py::TestGatherKernel::test_tables_are_built_in_chunks",)),
    Mutant("dim header written before its CSV", "src/symsu/cli.py",
           '    _emit("\\n".join(lines), _resolve_out(args.out))\n    _csv_header(args, "dim")\n',
           '    _csv_header(args, "dim")\n    _emit("\\n".join(lines), _resolve_out(args.out))\n',
           ("tests/test_cli.py::TestDimCommand::test_unwritable_out_rejected_without_header",)),
]


def run(mutant: Mutant) -> str:
    """KILLED, SURVIVED or STALE for one mutant, run on a copy of the tree."""
    text = (ROOT / mutant.file).read_text(encoding="utf-8")
    if text.count(mutant.old) != 1:
        return "STALE"
    with tempfile.TemporaryDirectory() as tmp:
        for part in ("src", "tests"):
            shutil.copytree(ROOT / part, Path(tmp, part), ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "pyproject.toml", tmp)
        Path(tmp, mutant.file).write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
        code = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
                               "--hypothesis-seed=0", *mutant.tests],
                              cwd=tmp, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "SURVIVED", 1: "KILLED"}.get(code, "STALE")  # 1: tests failed; 2-5: pytest could not run them


def main(names) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant names: {sorted(unknown)}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    for mutant in chosen:
        start = time.perf_counter()
        verdict = run(mutant)
        bad += verdict != "KILLED"
        print(f"{verdict:8}  {time.perf_counter() - start:5.1f} s  {mutant.name}", flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
