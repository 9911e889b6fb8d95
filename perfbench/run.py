"""Benchmark for the ``pbos`` package in ``src/``.

    python3 perfbench/run.py --workload pipeline|serve|segment|all \\
        --seed N --seconds S --trace 0|1

Runs one workload in this process and prints, as the last line of stdout,
one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
BENCHMARK.json; with ``--trace 1`` they are the per-layer metrics of one
traced set-up plus unit, and the overhead against the same work untraced.
``--workload all`` runs every workload, each in a fresh process, and
prints a summary.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
MIN_UNITS = 3  # so that set-up has a median and every word at least three copies
RUN_LIMIT_S = 150  # stop adding units well before the 180 s run limit


def _cap_threads() -> None:
    """Cap BLAS/OpenMP pools at the CPUs this process may use; must run
    before numpy is imported."""
    cpus = len(os.sched_getaffinity(0))
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        try:
            current = int(os.environ.get(var, cpus))
        except ValueError:
            current = cpus
        os.environ[var] = str(max(1, min(current, cpus)))


def _import_program():
    """Import ``pbos`` from this checkout's ``src`` and nowhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import pbos
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import pbos from {src}: {exc}")
    if not Path(pbos.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: pbos was imported from {pbos.__file__}, not from {src}")


def run_one(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import workloads
    from tracing import NullTracer, Tracer

    ledger = workloads.Ledger()
    workdir = workloads.workdir_for(ROOT)
    tracer = Tracer() if trace else None
    w = workloads.WORKLOADS[name](workdir, seed, ledger, NullTracer())
    info: dict = {"workload": name, "seed": seed}
    try:
        w.prepare()
        if not trace:
            t0 = workloads._now()
            units = 0
            while True:
                begin = workloads._now()
                w.setup_samples.append(w.setup())
                w.unit()
                units += 1
                now = workloads._now()
                if units >= MIN_UNITS and now - t0 + (now - begin) > seconds or now - t0 > RUN_LIMIT_S:
                    break
            # Units repeat the same inputs.  The job's time is the mean
            # over units; each word's time is its fastest copy, the one
            # least slowed by other load on the machine (see README).
            metrics = {
                "setup_s": statistics.median(w.setup_samples),
                **w.end_to_end(),
                "peak_rss_mb": workloads.peak_rss_mb(),
            }
            info.update(units=units, words=len(w.words))
        else:
            # One set-up plus the first unit on the same inputs: untraced,
            # traced, untraced again.  The overhead compares the traced pass
            # with the mean of the untraced ones, which brackets it in time.
            def once() -> float:
                begin = workloads._now()
                w.setup()
                w.unit()
                return workloads._now() - begin

            untraced = once()
            w.tracer = tracer
            tracer.install()
            try:
                with tracer.span("bench.unit") as root:
                    w.setup()
                    w.unit()
            finally:
                tracer.uninstall()
                w.tracer = NullTracer()
            untraced = (untraced + once()) / 2
            import layers

            root_index = tracer.spans.index(root)
            metrics, absent = layers.layer_metrics(
                tracer, root_index, root.duration / untraced - 1.0, workloads.dir_mb(w.model_dir)
            )
            metrics.update(w.descriptors())
            info.update(
                per_layer=metrics,  # all of them, also those BENCHMARK.json leaves out
                absent=absent,
                wrappers_without_target=tracer.absent,
                self_s=layers.self_time_breakdown(tracer, root_index),
            )
        w.check()
        info.update(detail=w.detail(), descriptors=w.descriptors())
    except Exception as exc:  # the run cannot go on: report it as failed
        import traceback

        traceback.print_exc()
        ledger.record([f"workload aborted: {exc!r}"])
        metrics = {}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    # Report exactly the metrics BENCHMARK.json names, in its units.
    reported = {}
    for spec in SPEC["per_layer" if trace else "end_to_end"]:
        value = metrics.get(spec["name"])
        if value is None or not math.isfinite(value):
            if metrics:
                ledger.record([f"metric {spec['name']} is {value}"])
            continue
        reported[spec["name"]] = {"value": float(value), "unit": spec["unit"]}
    for message in ledger.messages[:20]:
        print(f"perfbench: {message}", file=sys.stderr)
    info.update(failures=ledger.messages[:20])
    print(json.dumps(info, default=float))
    return {
        "correct": ledger.failed == 0 and bool(metrics),
        "attempted": max(1, ledger.attempted),
        "failed": ledger.failed,
        "metrics": reported,
    }


def run_all(args) -> int:
    """Every workload in its own process; prints a table and a summary."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in ("pipeline", "serve", "segment"):
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"{name}: exited {proc.returncode}\n{proc.stderr[-2000:]}", file=sys.stderr)
            return 1
        result = json.loads(lines[-1])
        print(f"== {name}: correct={result['correct']} attempted={result['attempted']} failed={result['failed']}")
        if len(lines) > 1:
            detail = json.loads(lines[-2]).get("detail", {})
            for key, value in detail.items():
                print(f"   {key:<40} {value:.6g}")
        for key, metric in result["metrics"].items():
            print(f"   {key:<40} {metric['value']:.6g} {metric['unit']}")
            combined["metrics"][f"{name}.{key}"] = metric
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=["pipeline", "serve", "segment", "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--prepare", metavar="DIR", help=argparse.SUPPRESS)  # see Workload.prepare
    args = parser.parse_args()
    if args.workload == "all":
        return run_all(args)
    _cap_threads()
    _import_program()
    if args.prepare:
        import workloads

        return workloads.prepare_inputs(args.workload, args.seed, Path(args.prepare))
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
