"""The workloads: fixed request lists that drive symsu from outside.

Each request goes through the CLI entry point ``symsu.cli.main`` or through
public library functions, looked up on their modules at call time so that
the timing wrappers of ``spans.py`` see every call.  Each request carries a
check that compares its output with a reference from ``references.py``;
checks run after the pass, outside the timed interval.  See README.md for
why each workload exists and which layers it loads.
"""

import functools
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import references as ref
import symsu.basis
import symsu.circuits
import symsu.cli
import symsu.paulis
import symsu.serialize
import symsu.symmetry
import symsu.unitary_ops


class Mismatch(Exception):
    """An output differs from its reference."""


@dataclass(frozen=True)
class CliOutput:
    rc: int
    out: str
    err: str


@dataclass(frozen=True)
class Request:
    """One unit of work: ``run`` is timed, ``check(output, outputs_by_label)`` is not."""

    label: str
    run: Callable[[], Any]
    check: Callable[[Any, dict], None]


def call_cli(argv: list[str]) -> CliOutput:
    """Run one ``symsu`` command in this process and capture what it prints."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            rc = symsu.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 2
    return CliOutput(rc, out.getvalue(), err.getvalue())


def require(condition: bool, message: str):
    if not condition:
        raise Mismatch(message)


def expect_rc(result: CliOutput, rc: int):
    require(result.rc == rc, f"exit code {result.rc}, expected {rc}: {result.err.strip()}")


# ---------------------------------------------------------------------------
# verify: the structure suites of `symsu verify`


def verify_requests(cases, seed: int) -> list[Request]:
    return [_verify_request(symmetry, n, seed) for symmetry, n in cases]


def _verify_request(symmetry: str, n: int, seed: int) -> Request:
    argv = ["verify", "--n", str(n), "--symmetry", symmetry, "--seed", str(seed)]
    d = ref.DIMENSION[symmetry](n)

    def check(result: CliOutput, _):
        expect_rc(result, 0)
        lines = result.out.splitlines()
        suites = {}
        for line in lines[:-1]:
            name, verdict, *details = line.split()
            suites[name] = (verdict, dict(item.split("=", 1) for item in details))
        require(list(suites) == ["composition", "closure", "exp_invariance", "path"],
                f"suites {list(suites)}")
        require(all(verdict == "PASS" for verdict, _ in suites.values()),
                f"not all suites PASS: {lines}")
        require(suites["closure"][1]["pairs"] == str(d * (d - 1) // 2),
                f"closure pairs {suites['closure'][1]['pairs']}, expected {d * (d - 1) // 2}")
        require(suites["exp_invariance"][1]["elements"] == str(d),
                f"exp_invariance elements {suites['exp_invariance'][1]['elements']}, expected {d}")
        require(lines[-1] == "verify: all suites passed", f"last line {lines[-1]!r}")

    return Request(f"verify {symmetry} n={n}", lambda: call_cli(argv), check)


# ---------------------------------------------------------------------------
# enumerate: `symsu basis` and `symsu dim` at the enumeration cap


def enumerate_requests(cases) -> list[Request]:
    requests = []
    for symmetry, n in cases:
        requests += _enumerate_pair(symmetry, n)
    return requests


def _enumerate_pair(symmetry: str, n: int) -> list[Request]:
    d = ref.DIMENSION[symmetry](n)
    basis_label = f"basis {symmetry} n={n}"
    basis_argv = ["basis", "--n", str(n), "--symmetry", symmetry]
    dim_argv = ["dim", "--n", str(n), "--symmetry", symmetry, "--no-header"]

    def check_basis(result: CliOutput, _):
        expect_rc(result, 0)
        lines = result.out.splitlines()
        require(lines[-1] == f"dim {d}", f"last line {lines[-1]!r}, expected 'dim {d}'")
        require(len(lines) - 1 == d, f"{len(lines) - 1} element lines, expected {d}")
        # The orbits partition the non-identity strings.
        terms = sum(line.count(" + ") + 1 for line in lines[:-1])
        require(terms == 4 ** n - 1, f"{terms} terms over all elements, expected {4 ** n - 1}")

    def check_dim(result: CliOutput, outputs: dict):
        expect_rc(result, 0)
        lines = result.out.splitlines()
        require(lines == ["n,group,dimension", f"{n},{symmetry},{d}"], f"dim output {lines}")
        basis = outputs.get(basis_label)
        if basis is not None and basis.rc == 0:
            require(basis.out.splitlines()[-1] == f"dim {lines[1].split(',')[2]}",
                    "basis dimension differs from the dim CSV")

    return [
        Request(basis_label, lambda: call_cli(basis_argv), check_basis),
        Request(f"dim {symmetry} n={n}", lambda: call_cli(dim_argv), check_dim),
    ]


# ---------------------------------------------------------------------------
# dense: invariance sweeps, paths, exponentials and circuits at the matrix cap


@dataclass(frozen=True)
class DenseSizes:
    check_n: int = 7       # `check` sweeps all of S_check_n
    path_n: int = 8        # `path` under the dihedral group
    chain_n: int = 10      # library chain under the cyclic group
    depth: int = 6         # random_invariant depth of the input files
    samples: int = 10      # `path --samples`
    raw_cnots: tuple = ((0, 1), (1, 2), (2, 0))  # generate GL(3, 2) on 3 qubits


def _read_pairs(path: Path) -> np.ndarray:
    with open(path, encoding="utf-8") as fh:
        a = np.array(json.load(fh), dtype=float)
    return a[..., 0] + 1j * a[..., 1]


def dense_requests(workdir: Path, seed: int, sizes: DenseSizes, zz_n: int) -> list[Request]:
    sym, ops, ser = symsu.symmetry, symsu.unitary_ops, symsu.serialize

    check_file = workdir / "invariant_full_swap.json"
    u = ops.random_invariant(sizes.check_n, sym.preset_group("full_swap", sizes.check_n),
                             seed, sizes.depth)
    ser.save_matrix(check_file, u.matrix)

    path_file = workdir / "invariant_dihedral.json"
    u = ops.random_invariant(sizes.path_n, sym.preset_group("dihedral", sizes.path_n),
                             seed + 1, sizes.depth)
    ser.save_matrix(path_file, u.matrix)

    raw_spec = workdir / "raw_cnot_group.json"
    gens = [{"unitary": ser.matrix_to_pairs(ref.cnot_matrix(c, t, 3))} for c, t in sizes.raw_cnots]
    raw_spec.write_text(json.dumps({"n": 3, "generators": gens}), encoding="utf-8")
    commutant_file = workdir / "raw_commutant.json"
    ser.save_matrix(commutant_file, ref.commutant_unitary(seed))
    random_file = workdir / "raw_random.json"
    ser.save_matrix(random_file, ref.random_unitary(seed, 8))
    raw_order = ref.permutation_group_order([ref.cnot_map(c, t, 3) for c, t in sizes.raw_cnots])

    chain_group = sym.preset_group("cyclic", sizes.chain_n)
    chain_terms, chain_alpha = ref.chain_generator(seed, sizes.chain_n)
    couplings, zz_alpha = ref.zz_couplings(seed, zz_n)
    zz_sum = symsu.paulis.PauliSum.from_labels(
        zz_n, [(ref.zz_label(zz_n, i, j), c) for i, j, c in couplings])

    return [
        _check_request(check_file, "full_swap", sizes.check_n),
        _path_request(path_file, "dihedral", sizes.path_n, sizes.samples),
        _chain_request(chain_group, chain_terms, chain_alpha),
        _zz_request(zz_sum, zz_alpha, workdir / ref.ZZ_ORACLE_FILE),
        _raw_check_request(commutant_file, raw_spec, raw_order, invariant=True),
        _raw_check_request(random_file, raw_spec, raw_order, invariant=False),
    ]


@functools.cache
def _input_defect(path: Path, symmetry: str, n: int) -> float:
    return ref.max_commutation_defect(_read_pairs(path), symmetry, n)


def _check_request(path: Path, symmetry: str, n: int) -> Request:
    argv = ["check", str(path), "--symmetry", symmetry]
    order = ref.group_order(symmetry, n)

    def check(result: CliOutput, _):
        require(_input_defect(path, symmetry, n) < 1e-9, "input file is not invariant")
        expect_rc(result, 0)
        lines = result.out.splitlines()
        require(len(lines) == order + 1, f"{len(lines) - 1} defect lines, expected {order}")
        require(lines[-1].startswith("invariant max_defect"), f"verdict {lines[-1]!r}")

    return Request(f"check {symmetry} n={n}", lambda: call_cli(argv), check)


def _path_request(path: Path, symmetry: str, n: int, samples: int) -> Request:
    argv = ["path", str(path), "--symmetry", symmetry, "--samples", str(samples), "--no-header"]

    def check(result: CliOutput, _):
        require(_input_defect(path, symmetry, n) < 1e-9, "input file is not invariant")
        expect_rc(result, 0)
        lines = result.out.splitlines()
        require(lines[0] == "t,invariance_defect,unitarity_residual", f"header {lines[0]!r}")
        rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
        require(rows.shape == (samples + 1, 3), f"path rows {rows.shape}")
        require(np.allclose(rows[:, 0], np.arange(samples + 1) / samples), "t grid")
        require(rows[:, 1].max() < 1e-8, f"path defect {rows[:, 1].max():.3e}")
        require(rows[:, 2].max() < 1e-9, f"unitarity residual {rows[:, 2].max():.3e}")

    return Request(f"path {symmetry} n={n}", lambda: call_cli(argv), check)


def _chain_request(group, terms, alpha: float) -> Request:
    n = group.n

    def run():
        h = None
        for label, c in terms:
            s = symsu.basis.symmetrize(symsu.paulis.PauliString.from_label(label), group) * c
            h = s if h is None else h + s
        u = symsu.unitary_ops.exp_generator(h, alpha)
        flag, defect = symsu.symmetry.is_invariant(u, group)
        points = [symsu.unitary_ops.connectedness_path(u, t).matrix for t in (0.0, 0.5, 1.0)]
        return {"u": u.matrix, "invariant": flag, "defect": defect, "points": points,
                "su": symsu.unitary_ops.project_to_su(u).matrix}

    def check(out: dict, _):
        u, (start, half, end), su = out["u"], out["points"], out["su"]
        eye = np.eye(1 << n)
        require(out["invariant"] and out["defect"] < 1e-10, f"is_invariant {out['defect']:.3e}")
        require(np.linalg.norm(u @ u.conj().T - eye) < 1e-9, "exp_generator is not unitary")
        require(ref.max_commutation_defect(u, "cyclic", n) < 1e-9, "exp is not invariant")
        require(np.linalg.norm(start - eye) < 1e-9, "path does not start at the identity")
        require(np.linalg.norm(end - u) < 1e-9, "path does not end at A")
        require(np.linalg.norm(half @ half - u) < 1e-8, "A(1/2)^2 differs from A")
        require(ref.max_commutation_defect(half, "cyclic", n) < 1e-8, "A(1/2) is not invariant")
        require(abs(np.linalg.det(su) - 1) < 1e-8, "project_to_su determinant")
        phase = su @ u.conj().T
        require(np.linalg.norm(phase - phase[0, 0] * eye) < 1e-8, "project_to_su is not a phase")

    return Request(f"chain cyclic n={n}", run, check)


def _zz_request(zz_sum, alpha: float, oracle_file: Path) -> Request:
    n = zz_sum.n

    def run():
        circuit = symsu.circuits.synthesize_sum_exponential(zz_sum, alpha)
        return {"gates": len(circuit),
                "circuit": symsu.circuits.circuit_to_matrix(circuit).matrix,
                "exp": symsu.unitary_ops.exp_generator(zz_sum, alpha).matrix}

    def check(out: dict, _):
        oracle = np.load(oracle_file)
        pairs = n * (n - 1) // 2
        require(out["gates"] == 3 * pairs, f"{out['gates']} gates, expected {3 * pairs}")
        require(np.linalg.norm(out["circuit"] - out["exp"]) < 1e-9, "circuit differs from exp_generator")
        require(np.linalg.norm(out["circuit"] - oracle) < 1e-9, "circuit differs from expm")
        require(np.linalg.norm(out["exp"] - oracle) < 1e-9, "exp_generator differs from expm")

    return Request(f"zz circuit n={n}", run, check)


def _raw_check_request(matrix_file: Path, spec: Path, order: int, invariant: bool) -> Request:
    argv = ["check", str(matrix_file), "--symmetry", str(spec)]

    def check(result: CliOutput, _):
        expect_rc(result, 0 if invariant else 1)
        lines = result.out.splitlines()
        require(len(lines) == order + 1, f"{len(lines) - 1} defect lines, expected {order}")
        verdict = "invariant" if invariant else "not invariant"
        require(lines[-1].startswith(verdict + " max_defect"), f"verdict {lines[-1]!r}")

    kind = "commutant" if invariant else "random"
    return Request(f"check raw {kind}", lambda: call_cli(argv), check)


# ---------------------------------------------------------------------------

SMOKE_DENSE = DenseSizes(check_n=3, path_n=3, chain_n=4, depth=2, samples=2, raw_cnots=((0, 1),))

# name -> set-up(workdir, seed) returning the request list of one pass.
WORKLOADS = {
    "verify": lambda workdir, seed: verify_requests(
        [("full_swap", 4), ("full_swap", 5), ("dihedral", 5)], seed),
    "enumerate": lambda workdir, seed: enumerate_requests(
        [("full_swap", 7), ("full_swap", 8), ("cyclic", 8), ("dihedral", 8)]),
    "dense": lambda workdir, seed: dense_requests(
        workdir, seed, DenseSizes(), ref.ZZ_QUBITS["dense"]),
    # Every layer at a few milliseconds per request, for the benchmark's own tests.
    "smoke": lambda workdir, seed: (
        verify_requests([("full_swap", 2)], seed)
        + enumerate_requests([("full_swap", 3), ("cyclic", 3)])
        + dense_requests(workdir, seed, SMOKE_DENSE, ref.ZZ_QUBITS["smoke"])),
}
