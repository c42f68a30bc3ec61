"""Benchmark of the analyze path: parse, recover, report, render.

One workload run, as the last line of stdout a JSON object with the
end-to-end metrics (untraced) or the per-layer metrics (traced):

    python3 perfbench/run.py --workload crystal-3d --seed 0 --seconds 30 \
        --trace 0

Every workload, with a table of the metrics by name and unit (the
per-layer table with --trace 1) and the full results written to --out:

    python3 perfbench/run.py --all [--seed 0] [--seconds 30] [--trace 0|1]

Run from the root of a source checkout; the package is imported from
./src. Each op is one window analysed in a fresh worker process under an
address-space cap and a wall-clock cap, so a MemoryError, an OOM kill or
a timeout is a failed op, not a dead harness. The load is a closed loop of
one client that runs whole passes over the workload's instances until
--seconds have gone by. With --trace 1 each instance runs untraced and then
traced in every pass, so the per-layer split, the tracing overhead and the
traced-versus-untraced determinism check come from the same run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"

#: Address-space cap of a worker (RLIMIT_AS), bytes.
AS_CAP_BYTES = 3 * 2**30
#: Wall-clock cap of a worker, seconds from spawn to exit.
OP_WALL_CAP_S = 60.0
#: Corpus builds per run; setup_s is their median.
SETUP_REPS = 3

WORKLOADS = ("crystal-3d", "cone-2d", "negatives", "hostile")

#: name -> unit of the bounded end-to-end metrics, as in BENCHMARK.json.
END_TO_END = {
    "window_s_p50": "s",
    "recover_s_p50": "s",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
}
#: Reported in the tables and results only: failed_frac is 0 wherever a
#: bound could apply, and points_per_s, a ratio of sums, follows the
#: slowest op of a pass instead of the median one.
REPORTED = {"points_per_s": "points/s", "failed_frac": "ratio"}

#: Layer metrics: (layer, stats) read from the trace summaries.
LAYER_STATS = (
    ("geometry.difference_vectors", ("calls", "self_s", "pairs", "vectors")),
    ("geometry.finite_type_gap", ("self_s",)),
    ("geometry.denseness_radius", ("self_s",)),
    ("almost_period.candidate_almost_periods", ("calls", "self_s", "out")),
    ("almost_period.is_almost_period", ("calls", "self_s", "accepted")),
    ("almost_period.snap_to_period",
     ("calls", "self_s", "ok", "no_target", "ambiguous", "not_exact")),
    ("almost_period.verify_exact_period", ("calls", "self_s")),
    ("crystal.recover_crystal", ("self_s",)),
    ("crystal.refine_lattice", ("calls", "self_s")),
    ("crystal.residues", ("self_s",)),
    ("crystal.verify_decomposition",
     ("calls", "self_s", "checked_in", "checked_out")),
    ("pointset.load_points", ("self_s",)),
    ("pointset.window_restrict", ("calls", "self_s")),
    ("report.build_report", ("self_s",)),
    ("report.render_json", ("self_s", "bytes")),
)
#: Counts recover_crystal returns in its diagnostics.
DIAG_COUNTS = ("n_candidates", "n_periods", "ladder_steps")
#: Report counts the determinism check compares between ops.
CHECKED_COUNTS = ("n_candidates", "n_periods", "ladder_steps", "pair_count")


def per_layer_units() -> dict:
    units = {}
    for layer, stats in LAYER_STATS:
        for stat in stats:
            units[f"{layer}.{stat}"] = "s" if stat == "self_s" else (
                "bytes" if stat == "bytes" else "count")
    units["geometry.difference_vectors.vectors_per_pair"] = "ratio"
    units["almost_period.is_almost_period.accept_ratio"] = "ratio"
    for key in DIAG_COUNTS:
        units[f"crystal.{key}"] = "count"
    units["crystal.periods_per_candidate"] = "ratio"
    units["trace.window_s_p50"] = "s"
    units["trace.overhead_s"] = "s"
    return units


PER_LAYER = per_layer_units()


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def _ratio(num, den):
    return num / den if den else 0.0


class Runner:
    """Spawns workers one after another and collects their results."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        # the package default thread policy, whatever the caller's shell set
        self.env.pop("CRYSTAL_THREADS", None)
        self.n = 0

    def op(self, inst, input_path: Path, traced: bool) -> dict:
        self.n += 1
        req = self.workdir / f"req-{self.n}.json"
        res = self.workdir / f"res-{self.n}.json"
        req.write_text(json.dumps({
            "input": str(input_path), "config": inst.config,
            "as_cap_bytes": AS_CAP_BYTES, "trace": traced}))
        argv = [sys.executable, str(HERE / "worker.py"), str(req), str(res)]
        t0 = time.perf_counter()
        # worker stdout goes to our stderr: our stdout carries the result
        pid = os.posix_spawn(sys.executable, argv, self.env,
                             file_actions=[(os.POSIX_SPAWN_DUP2, 2, 1)])
        # block in wait4, so the harness adds no wakeups beside the worker's
        # threads; a timer thread enforces the wall-clock cap
        guard = threading.Lock()
        state = {"reaped": False, "capped": False}

        def expire():
            with guard:
                if not state["reaped"]:
                    state["capped"] = True
                    os.kill(pid, signal.SIGKILL)

        timer = threading.Timer(OP_WALL_CAP_S, expire)
        timer.start()
        try:
            _, status, usage = os.wait4(pid, 0)
        except BaseException:
            os.kill(pid, signal.SIGKILL)
            os.wait4(pid, 0)
            raise
        finally:
            with guard:
                state["reaped"] = True
            timer.cancel()
        capped = state["capped"]
        rec = {"instance": inst.name, "traced": traced,
               "rss_mib": usage.ru_maxrss / 1024,
               "process_s": time.perf_counter() - t0}
        if capped:
            rec["failure"] = f"wall-clock cap of {OP_WALL_CAP_S:g} s hit"
            rec["elapsed_s"] = rec["process_s"]
        elif not res.exists():
            rec["failure"] = f"worker ended without a result " \
                             f"(wait status {status})"
            rec["elapsed_s"] = rec["process_s"]
        else:
            out = json.loads(res.read_text())
            res.unlink()
            if "error" in out:
                rec["failure"] = out["error"]
                rec["elapsed_s"] = out["elapsed_s"]
            else:
                rep = out["report"]
                rec.update(window_s=out["window_s"],
                           recover_s=out["recover_s"],
                           points=out["points"], hash=out["hash"],
                           counts={k: rep["diagnostics"].get(k)
                                   for k in CHECKED_COUNTS})
                why = inst.check(rep)
                if why:
                    rec["failure"] = f"wrong outcome: {why}"
                    rec["elapsed_s"] = out["window_s"]
            if traced:
                rec["layers"] = out["layers"]
                rec["spans"] = out["spans"]
        req.unlink()
        return rec


def determinism(ops: list[dict]) -> list[str]:
    """Mismatches in report hash and counts between ops of one instance."""
    seen: dict = {}
    problems = []
    for rec in ops:
        if "hash" not in rec:
            continue
        key = (rec["hash"], json.dumps(rec["counts"], sort_keys=True))
        first = seen.setdefault(rec["instance"], {"key": key, "pairs": None})
        if key != first["key"]:
            problems.append(f"{rec['instance']}: report hash or counts "
                            f"differ between ops")
        if rec["traced"]:
            pairs = rec["layers"].get("geometry.difference_vectors",
                                      {}).get("pairs", 0)
            if first["pairs"] is None:
                first["pairs"] = pairs
            elif pairs != first["pairs"]:
                problems.append(f"{rec['instance']}: difference_vectors.pairs "
                                f"{pairs} != {first['pairs']}")
    return problems


def instance_median(ops: list[dict], key: str) -> float | None:
    """Mean over instances of each instance's median op value.

    The instances of a workload differ in size, so a median pooled over
    all ops would fall between the slowest op of one instance and the
    fastest of the next; the per-instance median does not.
    """
    by_instance = defaultdict(list)
    for rec in ops:
        by_instance[rec["instance"]].append(rec[key])
    if not by_instance:
        return None
    return statistics.fmean(statistics.median(v)
                            for v in by_instance.values())


def layer_metrics(pass_ops: list[dict]) -> dict:
    """Per-layer metrics of one pass: sums over its traced ops."""
    total: dict = defaultdict(lambda: defaultdict(float))
    for rec in pass_ops:
        for layer, stats in rec.get("layers", {}).items():
            for stat, v in stats.items():
                total[layer][stat] += v
    m = {}
    for layer, stats in LAYER_STATS:
        for stat in stats:
            m[f"{layer}.{stat}"] = total[layer][stat]
    dv = total["geometry.difference_vectors"]
    m["geometry.difference_vectors.vectors_per_pair"] = _ratio(
        dv["vectors"], dv["pairs"])
    iap = total["almost_period.is_almost_period"]
    m["almost_period.is_almost_period.accept_ratio"] = _ratio(
        iap["accepted"], iap["calls"])
    rc = total["crystal.recover_crystal"]
    for key in DIAG_COUNTS:
        m[f"crystal.{key}"] = rc[key]
    m["crystal.periods_per_candidate"] = _ratio(rc["n_periods"],
                                                rc["n_candidates"])
    return m


def run_workload(workload: str, seed: int, seconds: float,
                 trace: bool) -> dict:
    import corpus
    from idealcrystal import pointset

    setup = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        instances = corpus.build(workload, seed)
        texts = [pointset.serialize(inst.points, "json")
                 for inst in instances]
        setup.append(time.perf_counter() - t0)
        if len(setup) < SETUP_REPS:
            del instances, texts
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"run-{os.getpid()}"
    workdir.mkdir()
    try:
        inputs = []
        for i, text in enumerate(texts):
            inputs.append(workdir / f"input-{i}.json")
            inputs[-1].write_text(text, encoding="utf-8")
        del texts
        runner = Runner(workdir)
        modes = (False, True) if trace else (False,)
        passes: list[list[dict]] = []
        t_start = time.perf_counter()
        while not passes or time.perf_counter() - t_start < seconds:
            passes.append([runner.op(inst, path, traced)
                           for inst, path in zip(instances, inputs)
                           for traced in modes])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    measured_s = time.perf_counter() - t_start
    result = summarize(workload, seed, trace, instances, setup, passes,
                       measured_s)
    result["why"] = corpus.WHY[workload]
    return result


def summarize(workload, seed, trace, instances, setup, passes,
              measured_s) -> dict:
    ops = [rec for pass_ in passes for rec in pass_]
    plain = [r for r in ops if not r["traced"]]
    good = [r for r in plain if "failure" not in r]
    failed = [r for r in ops if "failure" in r]
    problems = determinism(ops)
    result = {
        "workload": workload, "seed": seed, "trace": trace,
        "instances": [inst.record() for inst in instances],
        "caps": {"as_cap_bytes": AS_CAP_BYTES,
                 "op_wall_cap_s": OP_WALL_CAP_S},
        "passes": len(passes), "measured_s": measured_s,
        "attempted": len(ops), "failed": len(failed),
        "failed_ops": [{k: r[k] for k in ("instance", "traced", "failure",
                                          "elapsed_s", "rss_mib")}
                       for r in failed],
        "determinism_problems": problems,
        "correct": not failed and not problems,
    }
    window = [r["window_s"] for r in good]
    e2e = {
        "window_s_p50": instance_median(good, "window_s"),
        "recover_s_p50": instance_median(good, "recover_s"),
        "peak_rss_mb": max(r["rss_mib"] for r in plain),
        "setup_s": statistics.median(setup),
        "points_per_s": _ratio(sum(r["points"] for r in good), sum(window)),
        "failed_frac": _ratio(len(plain) - len(good), len(plain)),
    }
    result["end_to_end"] = e2e
    result["failed_frac_base"] = {"failed": len(plain) - len(good),
                                  "attempted": len(plain)}
    if trace:
        per_pass = [layer_metrics([r for r in pass_ if r["traced"]])
                    for pass_ in passes]
        layers = {name: statistics.median(p[name] for p in per_pass)
                  for name in per_pass[0]}
        traced_window = instance_median(
            [r for r in ops if r["traced"] and "failure" not in r],
            "window_s")
        if traced_window is not None and window:
            layers["trace.window_s_p50"] = traced_window
            layers["trace.overhead_s"] = (layers["trace.window_s_p50"]
                                          - e2e["window_s_p50"])
        result["per_layer"] = layers
        OUT.mkdir(exist_ok=True)
        # a capped or killed traced op has no spans; it is in failed_ops
        spans = [{"instance": r["instance"], **r["spans"]}
                 for r in ops if r["traced"] and "spans" in r]
        (OUT / f"spans-{workload}-seed{seed}.json").write_text(
            json.dumps(spans))
    return result


def driver_line(result: dict) -> dict:
    if result["trace"]:
        metrics = {k: {"value": result["per_layer"].get(k), "unit": u}
                   for k, u in PER_LAYER.items()}
    else:
        metrics = {k: {"value": result["end_to_end"][k], "unit": u}
                   for k, u in END_TO_END.items()}
    return {"correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": metrics}


def _fmt(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, float) and not v.is_integer():
        return f"{v:.4g}"
    return f"{int(v)}"


def print_tables(results: list[dict], trace: bool) -> None:
    names = [r["workload"] for r in results]
    head = f"{'metric':<48} {'unit':<9}" + "".join(f"{n:>12}" for n in names)
    print(head)
    print("-" * len(head))
    if trace:
        rows = [(k, u, [r["per_layer"].get(k) for r in results])
                for k, u in PER_LAYER.items()]
    else:
        rows = [(k, u, [r["end_to_end"][k] for r in results])
                for k, u in {**END_TO_END, **REPORTED}.items()]
    for k, u, vals in rows:
        print(f"{k:<48} {u:<9}" + "".join(f"{_fmt(v):>12}" for v in vals))
    print()
    for r in results:
        ff = r["failed_frac_base"]
        print(f"{r['workload']}: passes {r['passes']}, ops {r['attempted']}, "
              f"failed_frac {ff['failed']}/{ff['attempted']} untraced ops, "
              f"correct={r['correct']}")
        for inst in r["instances"]:
            print(f"  instance {inst['name']}: {inst['points']} points")
        for f in r["failed_ops"]:
            print(f"  failed op {f['instance']} after {f['elapsed_s']:.2f} s "
                  f"(rss {f['rss_mib']:.0f} MiB): {f['failure']}")
        for p in r["determinism_problems"]:
            print(f"  determinism: {p}")
    print(f"caps: address space {AS_CAP_BYTES / 2**30:g} GiB, "
          f"wall clock {OP_WALL_CAP_S:g} s per op")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    which = ap.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=WORKLOADS)
    which.add_argument("--all", action="store_true",
                       help="run every workload and print the metric table")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path, default=None,
                    help="with --all: where to write the results "
                         "(default .perfbench/all-trace<t>-seed<n>.json)")
    args = ap.parse_args(argv)

    if not (SRC / "idealcrystal" / "__init__.py").is_file():
        print(f"error: no package source at {SRC / 'idealcrystal'}; run "
              "from the root of an idealcrystal checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    trace = bool(args.trace)

    if args.workload:
        result = run_workload(args.workload, args.seed, args.seconds, trace)
        print(json.dumps(driver_line(result)))
        return 0

    results = []
    for workload in WORKLOADS:
        print(f"running {workload} ...", file=sys.stderr, flush=True)
        results.append(run_workload(workload, args.seed, args.seconds, trace))
    print_tables(results, trace)
    out = args.out or OUT / f"all-trace{args.trace}-seed{args.seed}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({"machine": machine(), "seed": args.seed,
                               "seconds": args.seconds, "trace": trace,
                               "results": results}, indent=1) + "\n")
    print(f"results written to {out}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
