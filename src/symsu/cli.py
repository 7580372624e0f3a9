"""Command-line front end.

Commands: basis, dim, check, path, synth, random, verify.  Exit codes:
0 success / invariant, 1 property violated, 2 usage or input error.
Numeric output is printed with 17 significant digits so values round-trip
exactly through text.
"""

import argparse
import functools
import itertools
import json
import os
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .basis import build_basis, burnside_dimension, closure_report
from .circuits import synthesize_sum_exponential
from .errors import NotUnitaryError, ProductFormulaError, SymsuError
from .paulis import PauliSum, _sum_texts
from .serialize import _pairs_json, load_matrix
from .symmetry import PRESETS, SymmetryGroup, _defects, is_invariant, load_group, preset_group
from .unitary_ops import (
    Unitary,
    _checked_residual,
    _composed_pairs,
    _draw_stacks,
    _element_exps,
    connectedness_path,
    eig_unitary,
    project_to_su,
    random_invariant,
)

OUTPUT_DIR_ENV = "SYMSU_OUTPUT_DIR"


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _resolve_out(path: str | None) -> Path | None:
    if path is None:
        return None
    p = Path(path)
    base = os.environ.get(OUTPUT_DIR_ENV)
    if base and not p.is_absolute():
        p = Path(base) / p
    return p


def _emit(text: str, out: Path | None):
    _emit_pieces([text if text.endswith("\n") else text + "\n"], out)


def _emit_pieces(pieces, out: Path | None):
    """Write text pieces one after another, as they come."""
    if out is None:
        return sys.stdout.writelines(pieces)
    out.parent.mkdir(parents=True, exist_ok=True)
    with open(out, "w", encoding="utf-8") as fh:
        fh.writelines(pieces)


def _csv_header(args, command: str):
    """Write the '# symsu <command> <UTC stamp>' line to stderr, unless --no-header, once
    the command has written its CSV; the CSV itself stays byte-stable."""
    if not getattr(args, "no_header", False):
        print(f"# symsu {command} {datetime.now(timezone.utc).isoformat(timespec='seconds')}", file=sys.stderr)


def _at_least(value: int, low: int, flag: str):
    if value < low:
        raise ValueError(f"{flag} must be at least {low}, got {value}")


def _positive_finite(value: float, flag: str):
    if not 0 < value < float("inf"):
        raise ValueError(f"{flag} must be a positive finite number, got {value}")


def _resolve_group(symmetry: str, n: int | None, given: str | None = None) -> SymmetryGroup:
    """The preset or spec-file group on n qubits; given says where n came from, if not --n."""
    if n is not None:
        _at_least(n, 1, "--n")
    if symmetry in PRESETS:
        if n is None:
            raise ValueError(f"preset {symmetry!r} needs --n")
        return preset_group(symmetry, n)
    path = Path(symmetry)
    if not path.exists():
        raise ValueError(f"--symmetry {symmetry!r} is neither a preset nor a file")
    group = load_group(path)
    if n is not None and group.n != n:
        raise ValueError(f"symmetry file is for n={group.n}, but {given or f'--n {n} was given'}")
    return group


def _matrix_group(symmetry: str, dim: int) -> SymmetryGroup:
    """The group for a dim x dim matrix file, whose size fixes the qubit count."""
    n = dim.bit_length() - 1
    if n < 1 or 1 << n != dim:
        raise ValueError(f"matrix dimension {dim} is not 2^n for a qubit count n >= 1")
    return _resolve_group(symmetry, n, f"the matrix is {dim}x{dim} (n={n})")


def cmd_basis(args) -> int:
    group = _resolve_group(args.symmetry, args.n)
    basis = build_basis(group.n, group)
    d, first = len(basis), np.broadcast_to(np.intp(0), basis.x.shape)  # every term has head 0
    if args.format == "json":
        # The bytes of json.dumps(indent=2) with one [1.0, 0.0, label] list per term; json writes the header.
        head = json.dumps({"n": basis.n, "group": group.name, "dimension": d, "elements": []}, indent=2)
        body = _sum_texts(basis.n, basis.x, basis.z, ['      [\n        1.0,\n        0.0,\n        "'], first,
                          basis.offsets, '"\n      ],\n', '"\n      ]\n    ],\n    [\n')
        pieces = [head.removesuffix("[]\n}") + "[\n    [\n", *body[:-1],
                  body[-1].removesuffix(",\n    [\n") + "\n  ]\n}\n"]
    else:
        # One line per element, from blocks of whole elements.
        pieces = _sum_texts(basis.n, basis.x, basis.z, ["(1,0) "], first, basis.offsets, " + ", "\n")
        pieces.append(f"dim {d}\n")
    del basis, first
    _emit_pieces(pieces, _resolve_out(args.out))
    return 0


def cmd_dim(args) -> int:
    try:
        ns = [int(tok) for tok in str(args.n).split(",")]
    except ValueError as exc:
        raise ValueError(f"--n must be an integer or comma list: {exc}") from exc
    lines = ["n,group,dimension"]
    for n in ns:
        group = _resolve_group(args.symmetry, n)
        lines.append(f"{n},{group.name},{burnside_dimension(n, group)}")
    _emit("\n".join(lines), _resolve_out(args.out))
    _csv_header(args, "dim")
    return 0


def cmd_check(args) -> int:
    start = time.perf_counter()
    _positive_finite(args.tol, "--tol")
    m = load_matrix(args.matrix)
    group = _matrix_group(args.symmetry, m.shape[0])
    try:
        Unitary(m)
    except NotUnitaryError as exc:
        print(f"warning: input is not unitary ({exc}); reporting defects anyway",
              file=sys.stderr)
    rows = (group.images.tolist() if group.images is not None else
            [None if isinstance(el, np.ndarray) else list(el.image) for el in group.elements])
    labels = [f"unitary(dim={m.shape[0]})" if row is None else "perm" + str(row).replace(" ", "")
              for row in rows]
    defects = list(zip(labels, _defects(m, group).tolist()))
    flag = all(d < args.tol for _, d in defects)
    worst = max(d for _, d in defects)
    if args.format == "json":
        data = {
            "n": group.n,
            "group": group.name,
            "tol": args.tol,
            "invariant": flag,
            "max_defect": worst,
            "wall_s": time.perf_counter() - start,
            "defects": [{"element": label, "defect": d} for label, d in defects],
        }
        _emit(json.dumps(data, indent=2), _resolve_out(args.out))
    else:
        lines = [f"{i} {label} {_fmt(d)}" for i, (label, d) in enumerate(defects)]
        verdict = "invariant" if flag else "not invariant"
        lines.append(f"{verdict} max_defect {_fmt(worst)} tol {_fmt(args.tol)}")
        _emit("\n".join(lines), _resolve_out(args.out))
    return 0 if flag else 1


def cmd_path(args) -> int:
    _at_least(args.samples, 1, "--samples")
    m = load_matrix(args.matrix)
    group = _matrix_group(args.symmetry, m.shape[0])
    u = Unitary(m)  # non-unitary input is a usage error for path sampling
    lines = ["t,invariance_defect,unitarity_residual"]
    for k in range(args.samples + 1):
        t = k / args.samples
        point = connectedness_path(u, t)
        _, defect = is_invariant(point.matrix, group)
        lines.append(f"{_fmt(t)},{_fmt(defect)},{_fmt(point.unitarity_residual)}")
    _emit("\n".join(lines), _resolve_out(args.out))
    _csv_header(args, "path")
    return 0


def cmd_synth(args) -> int:
    if (args.pauli is None) == (args.sum_file is None):
        raise ValueError("give exactly one of --pauli or --sum-file")
    if args.pauli is not None:
        s = PauliSum.from_label(args.pauli)
    else:
        s = PauliSum.from_text(Path(args.sum_file).read_text(encoding="utf-8"))
    try:
        circuit = synthesize_sum_exponential(s, args.alpha)
    except ProductFormulaError as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    _emit(circuit.to_text(), _resolve_out(args.out))
    return 0


def cmd_random(args) -> int:
    for flag in ("seed", "depth"):
        _at_least(getattr(args, flag), 0, "--" + flag)
    group = _resolve_group(args.symmetry, args.n)
    u = random_invariant(group.n, group, args.seed, args.depth)
    _emit_pieces(itertools.chain(_pairs_json(u.matrix), ["\n"]), _resolve_out(args.out))
    return 0


def cmd_verify(args) -> int:
    for flag in ("seed", "pairs", "paths", "depth"):
        _at_least(getattr(args, flag), 0, "--" + flag)
    _positive_finite(args.tol, "--tol")
    group = _resolve_group(args.symmetry, args.n)
    basis = build_basis(group.n, group)
    tol = args.tol
    results: list[tuple[str, int, bool, str]] = []  # name, samples, passed, detail
    pairs, paths = (args.pairs, args.paths) if args.depth else (0, 0)  # depth 0 draws only identities

    def sweep(matrices, tol, ok=True, worst=0.0) -> tuple:
        """(ok, worst) carried on over is_invariant(m, group, tol) of every matrix m."""
        for m in matrices:
            flag, defect = is_invariant(m, group, tol)
            ok, worst = ok and flag, max(worst, defect)
        return ok, worst

    # Exponentials of symmetrized generators land in the invariant group.  Run first, as it
    # solves every element's eigenpairs a chunk at a time, and the draws below read them.
    alphas = np.random.default_rng(args.seed).uniform(0.0, 2.0 * np.pi, len(basis)).tolist()
    ok, worst = sweep(itertools.chain.from_iterable(_element_exps(basis, range(len(basis)), alphas)), tol)
    exp_result = ("exp_invariance", len(basis), ok,
                  f"elements={len(basis)} max_defect={worst:.3e} tol={tol:.1e}")

    # Products of invariant unitaries stay invariant.
    ok, worst = True, 0.0
    for u1, u2, products in _composed_pairs(group.n, group, range(args.seed, args.seed + 2 * pairs),
                                            args.depth, basis):
        ok = sweep(itertools.chain(u1, u2), tol, ok)[0]
        ok, worst = sweep(products, 3 * tol, ok, worst)
    results.append(("composition", pairs, ok, f"pairs={args.pairs} max_defect={worst:.3e} tol={3 * tol:.1e}"))

    # Pairwise commutators stay inside the span.
    report = closure_report(basis, tol)
    results.append(("closure", report.pair_count, report.passed,
                    f"pairs={report.pair_count} max_residual={report.max_residual:.3e} tol={tol:.1e}"))
    results.append(exp_result)

    # The eigenphase path stays invariant and hits both endpoints: 11 points A(t) per draw, one stack.
    ok, worst = True, 0.0
    first = args.seed + 1000
    for u in map(Unitary, itertools.chain.from_iterable(
            _draw_stacks(group.n, group, range(first, first + paths), args.depth, basis))):
        points = eig_unitary(u)._points(np.linspace(0.0, 1.0, 11))  # a draw has no coset table
        _checked_residual(points)
        ok = (ok and np.linalg.norm(points[0] - np.eye(u.dim)) < 1e-9
              and np.linalg.norm(points[-1] - u.matrix) < 1e-9)
        ok, worst = sweep(points, 1e-8, ok, worst)
        proj = project_to_su(u)
        ok = ok and abs(np.linalg.det(proj.matrix) - 1) < 1e-10
    results.append(("path", paths, ok, f"paths={args.paths} max_defect={worst:.3e} tol=1.0e-08"))

    # A suite that checked nothing is reported as skipped, not as passed.
    verdicts = [(name, "SKIP" if samples == 0 else "PASS" if passed else "FAIL", detail)
                for name, samples, passed, detail in results]
    width = max(len(name) for name, _, _ in verdicts)
    out_lines = [f"{name.ljust(width)}  {verdict}  {detail}" for name, verdict, detail in verdicts]
    failed = any(verdict == "FAIL" for _, verdict, _ in verdicts)
    skipped = [name for name, verdict, _ in verdicts if verdict == "SKIP"]
    if failed:
        out_lines.append("verify: FAILURES present")
    elif skipped:
        out_lines.append(f"verify: no failures; skipped with no samples: {', '.join(skipped)}")
    else:
        out_lines.append("verify: all suites passed")
    _emit("\n".join(out_lines), _resolve_out(args.out))
    return 1 if failed else 0


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="symsu", description="Symmetry-invariant bases, invariance checks, and circuit synthesis.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, help="qubit count (required with presets)")
        p.add_argument("--symmetry", required=True,
                       help=f"preset ({', '.join(sorted(PRESETS))}) or JSON spec file")
        p.add_argument("--out", help="output file (default: stdout)")

    p = sub.add_parser("basis", help="print the invariant basis and its dimension")
    common(p)
    p.add_argument("--format", choices=("text", "json"), default="text")

    p = sub.add_parser("dim", help="dimension table as CSV")
    p.add_argument("--n", required=True, help="qubit count or comma list, e.g. 2,3,4")
    p.add_argument("--symmetry", required=True)
    p.add_argument("--out")
    p.add_argument("--no-header", action="store_true", help="omit the timestamp comment")

    p = sub.add_parser("check", help="invariance report for a matrix file")
    p.add_argument("matrix", help="JSON matrix file (nested [re, im] pairs)")
    p.add_argument("--symmetry", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(n=None)

    p = sub.add_parser("path", help="sample the identity-to-A path as CSV")
    p.add_argument("matrix")
    p.add_argument("--symmetry", required=True)
    p.add_argument("--samples", type=int, default=10)
    p.add_argument("--out")
    p.add_argument("--no-header", action="store_true")
    p.set_defaults(n=None)

    p = sub.add_parser("synth", help="compile a Pauli-sum exponential to gates")
    p.add_argument("--pauli", help="single Pauli letter string, e.g. XZY")
    p.add_argument("--sum-file", help="Pauli sum text file, one '(re,im) LETTERS' per line")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--out")

    p = sub.add_parser("random", help="write a seeded random invariant unitary")
    common(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--depth", type=int, default=8)

    p = sub.add_parser("verify", help="run the structure-property suites")
    common(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pairs", type=int, default=50)
    p.add_argument("--paths", type=int, default=8)
    p.add_argument("--depth", type=int, default=6)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return globals()["cmd_" + args.command](args)  # looked up per call: spans rebind cmd_*
    except (SymsuError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
