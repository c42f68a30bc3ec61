"""Analysis report assembly and reproducible serialization.

Reports are plain dicts rendered to canonical JSON: keys sorted, floats at
17 significant digits, no whitespace variation. Two runs over identical
input and config produce byte-identical output except under "timings_ms",
which determinism checks strip before comparing.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .crystal import CrystalDecomposition, NoCrystalEvidence

SCHEMA_VERSION = 5


def _py(value):
    """Recursively convert numpy scalars/arrays to plain Python values."""
    if isinstance(value, np.ndarray):
        return [_py(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, dict):
        return {str(k): _py(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_py(v) for v in value]
    return value


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats as %.17g, compact separators."""
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if not math.isfinite(x):
            return json.dumps(str(x))
        return format(x, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, dict):
        items = ",".join(
            f"{json.dumps(str(k))}:{canonical_json(v)}"
            for k, v in sorted(obj.items(), key=lambda kv: str(kv[0]))
        )
        return "{" + items + "}"
    if isinstance(obj, (list, tuple, np.ndarray)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


#: Keys every report carries after schema_version, config and timings_ms,
#: in this order; a verdict without a value for one reports null.
_RESULT_KEYS = ("verdict", "epsilon", "D", "periods", "basis", "det",
                "residues", "coverage_in", "coverage_out", "max_residual",
                "witnesses", "stage", "reason", "diagnostics")


def build_report(result, config, timings_ms: dict | None = None) -> dict:
    """Report dict from a recovery outcome plus the config echo."""
    if isinstance(result, CrystalDecomposition):
        values = dict(
            verdict="crystal",
            epsilon=result.epsilon,
            D=result.D,
            periods=[
                {"T": P.T, "verified_radius": float(P.verified_radius)}
                for P in result.periods
            ],
            basis=result.lattice.basis,
            det=float(result.lattice.det),
            residues=result.residues,
            coverage_in=float(result.coverage_in),
            coverage_out=float(result.coverage_out),
            max_residual=float(result.max_residual),
            witnesses=np.concatenate([result.witnesses_in,
                                      result.witnesses_out]),
            diagnostics=result.diagnostics,
        )
    elif isinstance(result, NoCrystalEvidence):
        diag = result.diagnostics
        values = dict(
            verdict="no-crystal",
            epsilon=diag.get("epsilon"),
            D=diag.get("D"),
            periods=[],
            witnesses=result.witnesses,
            stage=result.stage,
            reason=result.reason,
            diagnostics=diag,
        )
    else:
        raise TypeError(f"unexpected result type {type(result).__name__}")
    report = {
        "schema_version": SCHEMA_VERSION,
        "config": _py(config.echo()),
        "timings_ms": _py(timings_ms or {}),
    }
    report.update((k, _py(values.get(k))) for k in _RESULT_KEYS)
    return report


def render_json(report: dict) -> str:
    return canonical_json(report) + "\n"


def render_text(report: dict) -> str:
    """Short human-readable rendering of the same report."""
    lines = [f"verdict: {report['verdict']}"]
    if report["verdict"] == "crystal":
        lines.append(f"epsilon: {report['epsilon']:.6g}  D: {report['D']:.6g}")
        lines.append(f"det: {report['det']:.9g}")
        lines.append("basis:")
        for row in report["basis"]:
            lines.append("  " + ", ".join(f"{c:.9g}" for c in row))
        lines.append(f"residues ({len(report['residues'])}):")
        for row in report["residues"]:
            lines.append("  " + ", ".join(f"{c:.9g}" for c in row))
        lines.append(
            f"coverage: in={report['coverage_in']:.6f} "
            f"out={report['coverage_out']:.6f} "
            f"max_residual={report['max_residual']:.3e}"
        )
        lines.append(f"periods verified: {len(report['periods'])}")
    else:
        lines.append(f"stage: {report['stage']}")
        lines.append(f"reason: {report['reason']}")
        if report["epsilon"] is not None:
            lines.append(f"epsilon: {report['epsilon']:.6g}")
        if report["D"] is not None:
            lines.append(f"D: {report['D']:.6g}")
    return "\n".join(lines) + "\n"
