"""One op in a fresh process: analyse one serialized window.

    python3 worker.py <request.json> <result.json>

The request names the input file, the run configuration, the address
space cap in bytes and whether to trace. The cap is set before numpy is
imported, so a MemoryError inside the op is reported as a failed op. The
op is what `idealcrystal analyze` does per file minus disk I/O: parse,
recover, build the report, render it. Its clock starts after the imports
and after the input text is in memory.
"""

import hashlib
import json
import resource
import sys
import time


def run(request: dict) -> dict:
    from idealcrystal import crystal, pointset, report
    from idealcrystal.config import RunConfig

    tracer = None
    if request["trace"]:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    with open(request["input"], encoding="utf-8") as f:
        text = f.read()
    config = RunConfig(**request["config"])
    out: dict = {}
    t0 = time.perf_counter()
    try:
        S = pointset.load_points(text, "json")
        t1 = time.perf_counter()
        result = crystal.recover_crystal(S, config)
        t2 = time.perf_counter()
        timings = {"load": (t1 - t0) * 1000, "analyze": (t2 - t1) * 1000,
                   "total": (t2 - t0) * 1000}
        rep = report.build_report(result, config, timings)
        report.render_json(rep)
        t3 = time.perf_counter()
    except Exception as e:  # the op boundary: every failure is a result
        out["error"] = f"{type(e).__name__}: {e}"
        out["elapsed_s"] = time.perf_counter() - t0
    else:
        out.update(window_s=t3 - t0, recover_s=t2 - t1, points=len(S))
        rep.pop("timings_ms")
        canonical = report.canonical_json(rep)
        out["hash"] = hashlib.sha256(canonical.encode()).hexdigest()
        out["report"] = rep
    if tracer is not None:
        tracer.uninstall()
        out["layers"] = tracer.summary()
        out["spans"] = tracer.dump()
    return out


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as f:
        request = json.load(f)
    cap = int(request["as_cap_bytes"])
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))
    out = run(request)
    with open(sys.argv[2], "w", encoding="utf-8") as f:
        json.dump(out, f)
    return 0


if __name__ == "__main__":
    sys.exit(main())
