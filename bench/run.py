"""Benchmark of the scenefactor CLI.

    python3 bench/run.py --workload compare-reps --seed 0 --seconds 30 --trace 0

Runs from the root of a source checkout, in one process, and drives the CLI
in-process through ``scenefactor.cli.main`` on inputs generated from
``--seed``.  Ops run in a closed loop, one after another, until
``--seconds`` of wall time have passed; every op's outputs are checked.
The last line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones from spans recorded around each module's public
functions.  Full results, with the sha256 of every op's outputs (and the
spans of a traced run), go to ``.bench_runs/`` in the checkout.  See
``bench/README.md`` for every metric.
"""

from time import perf_counter

_START = perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".bench_runs"
SETUP_REPEATS = 3


def import_program() -> None:
    """Import scenefactor from this checkout's ``src``, never from elsewhere."""
    package = SRC / "scenefactor" / "__init__.py"
    if not package.is_file():
        raise SystemExit(f"error: {package} not found; run from a scenefactor checkout")
    sys.path.insert(0, str(SRC))
    import scenefactor.cli  # noqa: F401

    if Path(scenefactor.__file__).resolve() != package.resolve():
        raise SystemExit(f"error: imported scenefactor from {scenefactor.__file__}")


def run_op(workload, i: int, out_root: Path, tracer=None) -> dict:
    """Run and check op ``i``; a failure is recorded, never raised."""
    from workloads import digest

    out = out_root / f"op{i:04d}-{'traced' if tracer else 'plain'}"
    out.mkdir(parents=True)
    record = {"op": i, "traced": tracer is not None}
    start = perf_counter()
    try:
        with tracer.op() if tracer else contextlib.nullcontext():
            result = workload.op(i, out)
        record["ms"] = (perf_counter() - start) * 1e3
        workload.check(i, result)
        record.update(ok=True, scenes=result.scenes, sha256=digest(result.files))
    except Exception:  # the op or its check failed: count it and go on
        record.setdefault("ms", (perf_counter() - start) * 1e3)
        record.update(ok=False, scenes=0, error=traceback.format_exc(limit=3))
    finally:
        shutil.rmtree(out, ignore_errors=True)
    return record


def measure(workload, seconds: float, out_root: Path, tracer=None) -> list[dict]:
    """Closed loop: start op after op until ``seconds`` have passed.

    A traced run runs every input twice, plain and traced, alternating
    which goes first, so the difference between the two is the tracing
    overhead on the same inputs.
    """
    records: list[dict] = []
    start = perf_counter()
    i = 0
    while not records or perf_counter() - start < seconds:
        if tracer is None:
            records.append(run_op(workload, i, out_root))
        else:
            pair = [None, tracer] if i % 2 == 0 else [tracer, None]
            records.extend(run_op(workload, i, out_root, t) for t in pair)
        i += 1
    return records


def setup(cls, seed: int, work: Path) -> tuple[object, float]:
    """Set up SETUP_REPEATS times: build the inputs, then build a tiny
    instance of the workload and run its op once, untimed, as the warm-up.

    Returns the last build and the median set-up seconds.
    """
    times = []
    workload = None
    for r in range(SETUP_REPEATS):
        if workload is not None:
            shutil.rmtree(workload.root)
        start = perf_counter()
        workload = cls(seed, work / f"inputs{r}")
        workload.build()
        warm = cls(seed, work / f"warmup{r}", tiny=True)
        warm.build()
        record = run_op(warm, 0, work / f"warmup{r}-out")
        times.append(perf_counter() - start)
        shutil.rmtree(warm.root)
        if not record["ok"]:
            raise RuntimeError(f"warm-up op failed:\n{record['error']}")
    return workload, statistics.median(times)


def p50_ms(records: list[dict]) -> float | None:
    """Median op time; a failed op counts as slower than any other."""
    values = [r["ms"] if r["ok"] else float("inf") for r in records]
    value = statistics.median(values) if values else float("inf")
    return value if value != float("inf") else None


def scenes_per_s(records: list[dict]) -> float:
    return sum(r["scenes"] for r in records) / (sum(r["ms"] for r in records) / 1e3)


END_TO_END = {
    "setup_s": "s",
    "scenes_per_s": "1/s",
    "op_ms.p50": "ms",
    "peak_rss_mb": "MiB",
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    import_program()
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    import_s = perf_counter() - _START

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = RUNS / "work" / tag
    shutil.rmtree(work, ignore_errors=True)
    try:
        workload, setup_s = setup(workloads.WORKLOADS[args.workload], args.seed, work)
        tracer = None
        if args.trace:
            import tracer as tracing

            tracer = tracing.Tracer()
        records = measure(workload, args.seconds, work / "out", tracer)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    if tracer is not None:
        plain = [r for r in records if not r["traced"]]
        traced = [r for r in records if r["traced"]]
        for a, b in zip(plain, traced):
            if a["ok"] and b["ok"] and a["sha256"] != b["sha256"]:
                b.update(ok=False, scenes=0, error="tracing changed the op's outputs")
        values = tracing.layer_metrics(tracer)
        units = {name: unit for name, unit, _ in tracing.LAYER_METRICS}
        p50_plain, p50_traced = p50_ms(plain), p50_ms(traced)
        values["trace.overhead.op_ms.p50"] = (
            None if p50_plain is None or p50_traced is None else p50_traced - p50_plain)
        values["trace.overhead.scenes_per_s"] = scenes_per_s(traced) - scenes_per_s(plain)
        units.update({"trace.overhead.op_ms.p50": "ms", "trace.overhead.scenes_per_s": "1/s"})
    else:
        values = {
            "setup_s": import_s + setup_s,
            "scenes_per_s": scenes_per_s(records),
            "op_ms.p50": p50_ms(records),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = END_TO_END

    failed = sum(not r["ok"] for r in records)
    metrics = {name: {"value": v, "unit": units[name]} for name, v in values.items()}
    RUNS.mkdir(exist_ok=True)
    results = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "import_s": import_s,
        "attempted": len(records), "failed": failed,
        "failed_frac": failed / len(records), "metrics": metrics, "ops": records,
    }
    if tracer is not None:
        results["missing_spans"] = tracer.missing
        spans_file = RUNS / f"{tag}-spans.json"
        spans_file.write_text(json.dumps({"spans": tracer.spans}))
        results["spans_file"] = spans_file.name
    (RUNS / f"{tag}.json").write_text(json.dumps(results, indent=1) + "\n")

    for name, m in metrics.items():
        print(f"{args.workload:>12}  {name:<40} {m['value']!s:>22} {m['unit']}")
    print(f"{args.workload:>12}  {'failed_frac':<40} {failed / len(records):>22} fraction"
          f"  ({failed} of {len(records)} ops)")
    for r in records:
        if not r["ok"]:
            print(f"op {r['op']} failed: {r['error'].strip().splitlines()[-1]}")
    if tracer is not None and tracer.missing:
        print("missing patch targets: " + ", ".join(tracer.missing))
    print(f"op sha256: {records[0].get('sha256')} (op 0); all in {RUNS.name}/{tag}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(records), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
