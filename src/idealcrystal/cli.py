"""Command-line surface: analyze, generate, roundtrip.

Exit codes: 0 analysis recovered a crystal (or roundtrip matched), 3 the
analysis certified no crystal at window scale, 2 roundtrip recovered a
decomposition that disagrees with the generating one, 1 usage or I/O
error. Reports go to stdout or --out, written atomically.
"""

from __future__ import annotations

import argparse
import os
import sys
import tempfile
import time
from dataclasses import fields

import numpy as np

from .config import STRATEGIES, RunConfig
from .crystal import CrystalDecomposition, recover_crystal
from .errors import IdealCrystalError
from .generators import (
    gen_cut_and_project,
    gen_ideal_crystal,
    gen_perturbed_lattice,
    gen_poisson,
)
from .pointset import WindowedSet, load_points, serialize
from .report import build_report, render_json, render_text

GOLDEN = (1 + 5 ** 0.5) / 2


def _parse_vector(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]
    except ValueError:
        raise IdealCrystalError(f"cannot parse vector {text!r}")


def _parse_matrix(text: str) -> list[list[float]]:
    rows = [_parse_vector(row) for row in text.split(";") if row.strip()]
    if len({len(r) for r in rows}) > 1:
        raise IdealCrystalError(f"rows of {text!r} differ in length")
    return rows


def _write_atomic(path: str, data: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-", text=True)
    try:
        with os.fdopen(fd, "w") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(data: str, out: str | None) -> None:
    if out:
        _write_atomic(out, data)
    else:
        sys.stdout.write(data)


def _config_from_args(args) -> RunConfig:
    return RunConfig(
        **{f.name: getattr(args, f.name) for f in fields(RunConfig)}
    ).validate()


def _add_config_flags(sub) -> None:
    d = RunConfig()
    sub.add_argument("--strategy", choices=STRATEGIES, default=d.strategy)
    sub.add_argument("--r-max", type=float, default=d.r_max)
    sub.add_argument("--tol-exact", type=float, default=d.tol_exact)


def _add_generator_flags(sub) -> None:
    sub.add_argument("--basis", default="1",
                     help="semicolon-separated rows, e.g. '1,0;0.2,1.1'")
    sub.add_argument("--residues", default=None,
                     help="semicolon-separated points (default the origin)")
    sub.add_argument("--amplitude", type=float, default=0.1)
    sub.add_argument("--freqs", default=None,
                     help="comma-separated frequency components")
    sub.add_argument("--slope", type=float, default=GOLDEN)
    sub.add_argument("--window", default="0,1", help="acceptance interval lo,hi")
    sub.add_argument("--intensity", type=float, default=1.0)
    sub.add_argument("--radius", type=float, default=40.0)
    sub.add_argument("--dim", type=int, default=1)
    sub.add_argument("--seed", type=int, default=0)


def _load_input(path: str, fmt: str | None) -> WindowedSet:
    if fmt is None:
        fmt = "json" if path.endswith(".json") else "csv"
    if path == "-":
        # raw bytes: load_points reports non-UTF-8 input as a ParseError
        return load_points(sys.stdin.buffer.read(), fmt)
    with open(path, "rb") as f:
        return load_points(f.read(), fmt)


def _generate(args):
    kind = args.kind
    if kind == "crystal":
        basis = _parse_matrix(args.basis)
        F = (_parse_matrix(args.residues) if args.residues is not None
             else [[0.0] * len(basis)])
        S = gen_ideal_crystal(basis, F, args.radius)
        spec = {"kind": kind, "basis": basis, "residues": F,
                "radius": args.radius}
    elif kind == "perturbed":
        basis = _parse_matrix(args.basis)
        dim = len(basis)
        freqs = (_parse_vector(args.freqs) if args.freqs
                 else [2 ** 0.5] + [0.0] * (dim - 1))
        S = gen_perturbed_lattice(basis, args.amplitude, freqs, args.radius)
        spec = {"kind": kind, "basis": basis, "amplitude": args.amplitude,
                "freqs": freqs, "radius": args.radius}
    elif kind == "cut_project":
        window = _parse_vector(args.window)
        if len(window) != 2:
            raise IdealCrystalError("window must be 'lo,hi'")
        S = gen_cut_and_project(args.slope, window, args.radius)
        spec = {"kind": kind, "slope": args.slope, "window": window,
                "radius": args.radius}
    elif kind == "poisson":
        S = gen_poisson(args.intensity, args.radius, args.seed, args.dim)
        spec = {"kind": kind, "intensity": args.intensity,
                "radius": args.radius, "seed": args.seed, "dim": args.dim}
    else:
        raise IdealCrystalError(f"unknown generator kind {kind!r}")
    return S, spec


def cmd_analyze(args) -> int:
    timings: dict = {}
    t0 = time.perf_counter()
    S = _load_input(args.input, args.format)
    timings["load"] = (time.perf_counter() - t0) * 1000
    config = _config_from_args(args)
    t1 = time.perf_counter()
    result = recover_crystal(S, config)
    timings["analyze"] = (time.perf_counter() - t1) * 1000
    timings["total"] = (time.perf_counter() - t0) * 1000
    report = build_report(result, config, timings)
    text = render_json(report) if args.output == "json" else render_text(report)
    _emit(text, args.out)
    return 0 if isinstance(result, CrystalDecomposition) else 3


def cmd_generate(args) -> int:
    S, spec = _generate(args)
    data = serialize(S, args.format, metadata=spec)
    _emit(data, args.out)
    print(f"generated {spec}", file=sys.stderr)
    return 0


def cmd_roundtrip(args) -> int:
    S, spec = _generate(args)
    config = _config_from_args(args)
    result = recover_crystal(S, config)
    rows = [("kind", spec["kind"]), ("points", len(S))]
    if not isinstance(result, CrystalDecomposition):
        rows += [("verdict", "no-crystal"), ("stage", result.stage),
                 ("reason", result.reason)]
        _print_table(rows)
        return 3
    rows.append(("verdict", "crystal"))
    rows.append(("coverage_in", f"{result.coverage_in:.6f}"))
    rows.append(("coverage_out", f"{result.coverage_out:.6f}"))
    ok = result.verified
    if spec["kind"] == "crystal":
        true_det = abs(float(np.linalg.det(np.array(spec["basis"],
                                                    dtype=np.float64))))
        rec_det = abs(result.lattice.det)
        ratio = true_det / rec_det
        k = max(1, round(ratio))
        ratio_ok = abs(ratio - k) <= 1e-6 * k
        count_ok = len(spec["residues"]) == k * len(result.residues)
        rows += [("true_det", f"{true_det:.9g}"),
                 ("recovered_det", f"{rec_det:.9g}"),
                 ("det_ratio", f"{ratio:.9g}"),
                 ("ratio_integer", ratio_ok),
                 ("residues_true", len(spec["residues"])),
                 ("residues_recovered", len(result.residues)),
                 ("residue_count_consistent", count_ok)]
        ok = ok and ratio_ok and count_ok
    _print_table(rows)
    return 0 if ok else 2


def _print_table(rows) -> None:
    width = max(len(str(k)) for k, _ in rows)
    for k, v in rows:
        print(f"{str(k):<{width}}  {v}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="idealcrystal",
        description="Detect exact periods in point-set windows and recover "
                    "ideal-crystal decompositions A = L + F.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="recover a crystal from a point file")
    pa.add_argument("input", help="point-set file (csv or json), '-' for stdin")
    pa.add_argument("--format", choices=("csv", "json"), default=None)
    _add_config_flags(pa)
    pa.add_argument("--output", choices=("json", "text"), default="json")
    pa.add_argument("--out", default=None, help="write report to this path")
    pa.set_defaults(func=cmd_analyze)

    pg = sub.add_parser("generate", help="emit a control point set")
    pg.add_argument("kind",
                    choices=("crystal", "perturbed", "cut_project", "poisson"))
    _add_generator_flags(pg)
    pg.add_argument("--format", choices=("csv", "json"), default="csv")
    pg.add_argument("--out", default=None)
    pg.set_defaults(func=cmd_generate)

    pr = sub.add_parser("roundtrip",
                        help="generate, analyze, and compare in one shot")
    pr.add_argument("kind",
                    choices=("crystal", "perturbed", "cut_project", "poisson"))
    _add_generator_flags(pr)
    _add_config_flags(pr)
    pr.set_defaults(func=cmd_roundtrip)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code == 0 else 1
    try:
        return args.func(args)
    except IdealCrystalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except MemoryError as e:
        print(f"error: out of memory{f' ({e})' if str(e) else ''}",
              file=sys.stderr)
        return 1


def entry() -> None:
    sys.exit(main())
