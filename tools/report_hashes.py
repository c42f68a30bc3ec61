"""Hash every benchmark corpus report of one checkout, one line per instance.

    python3 tools/report_hashes.py ROOT

ROOT is a checkout of this repository. The script imports ROOT/src and
ROOT/perfbench/corpus.py, builds the 23 corpus instances (crystal-3d,
cone-2d and negatives at seeds 0 and 1, hostile at seed 0) and runs each as
a benchmark op does: serialize the window to JSON, load it back, recover,
build the report. Each line reads

    workload seed instance sha256(report without timings_ms) sha256(json)

so two checkouts' outputs can be compared with diff: a line that differs
names an instance whose report or written window changed.
"""

from __future__ import annotations

import hashlib
import sys
from pathlib import Path

RUNS = [("crystal-3d", 0), ("crystal-3d", 1), ("cone-2d", 0), ("cone-2d", 1),
        ("negatives", 0), ("negatives", 1), ("hostile", 0)]


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    root = Path(argv[1]).resolve()
    # ahead of any installed copy of the package
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    import corpus
    from idealcrystal import crystal, pointset, report
    from idealcrystal.config import RunConfig

    for workload, seed in RUNS:
        for inst in corpus.build(workload, seed):
            text = pointset.serialize(inst.points, "json")
            config = RunConfig(**inst.config)
            result = crystal.recover_crystal(pointset.load_points(text, "json"),
                                             config)
            rep = report.build_report(result, config)
            rep.pop("timings_ms")
            print(workload, seed, inst.name,
                  _sha256(report.canonical_json(rep)), _sha256(text),
                  flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
