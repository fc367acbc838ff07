"""Benchmark of the `blenderforge` CLI on seeded batches of spec documents.

    python3 perfbench/run.py --workload certify-mix --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; the package is imported from its `src/`.
With `--trace 0` the batch runs closed-loop (one op at a time, the next after
the previous returns) in whole passes until `--seconds` have passed, at
least MIN_PASSES times, and the end-to-end metrics are reported.  With
`--trace 1` the batch runs untraced, then traced with `--workers 1`, and the
per-layer metrics, the tracing overhead and the scaling curves are reported.  `--workload all`
runs every workload both ways, each in its own process.

The last line of stdout is one JSON object with the keys `correct`,
`attempted`, `failed` and `metrics`; the lines before it say the same for a
reader, with sample counts.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, replace
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import curves  # noqa: E402
import tracing  # noqa: E402
from ops import Op, OpResult, run_op  # noqa: E402
from workloads import WORKLOADS, SpecFiles, warmup_ops  # noqa: E402

SETUP_REPEATS = 5
#: passes over the batch in an end-to-end run, at the least
MIN_PASSES = 2
#: a p90 is reported from at least this many ops, so 10 lie above it
P90_MIN_OPS = 100

E2E_UNITS = {
    "ops_per_s": "1/s",
    "op_p50_s": "s",
    "op_p90_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}


def _layer_unit(name: str) -> str:
    if name.endswith("_s") or name.startswith("curve."):
        return "s"
    if name.endswith("_share") or name.endswith("_yield"):
        return "share"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def layer_metric_names() -> list[str]:
    names = list(tracing.layer_metrics(tracing.Tracer(), ops_attempted=1))
    return names + ["trace.overhead_share"] + curves.curve_metric_names()


class BenchError(Exception):
    """The benchmark itself cannot run; no result is printed."""


def load_package() -> tuple[Any, dict[str, Any]]:
    """Import `blenderforge` from this checkout's `src/`, never from elsewhere."""
    if not os.path.isfile(os.path.join(SRC, "blenderforge", "cli.py")):
        raise BenchError(f"no blenderforge package under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    import blenderforge as bf
    from blenderforge import (arithmetic, blender_certifier, cli, cycle_model, return_map,
                              simple_dynamics, unfolding)
    if not os.path.abspath(bf.__file__).startswith(SRC + os.sep):
        raise BenchError(f"blenderforge imported from {bf.__file__}, not from {SRC}")
    modules = {
        "arithmetic": arithmetic, "blender_certifier": blender_certifier, "cli": cli,
        "cycle_model": cycle_model, "return_map": return_map,
        "simple_dynamics": simple_dynamics, "unfolding": unfolding,
    }
    return bf, modules


def measure_setup() -> tuple[float, int]:
    """Median wall time of a fresh `python -m blenderforge.cli moduli` process
    on a pinned spec, after one untimed start that warms the file cache."""
    cmd = [sys.executable, "-m", "blenderforge.cli", "moduli",
           "--spec", curves.pinned_path("sf1.json")]
    env = dict(os.environ, PYTHONPATH=SRC)
    times = []
    for i in range(SETUP_REPEATS + 1):
        start = time.perf_counter()
        proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True, timeout=120)
        elapsed = time.perf_counter() - start
        if proc.returncode != 0 or '"schema"' not in proc.stdout:
            raise BenchError(f"set-up command failed ({proc.returncode}): {proc.stderr.strip()[-500:]}")
        if i:
            times.append(elapsed)
    return statistics.median(times), len(times)


@dataclass
class Pass:
    results: list[OpResult]
    sha256: str

    @property
    def op_seconds(self) -> float:
        return sum(r.seconds for r in self.results)


def run_pass(bf: Any, cli: Any, ops: list[Op], workers: int | None = None,
             tracer: tracing.Tracer | None = None) -> Pass:
    """Run the batch once, closed-loop; hash the concatenated outputs."""
    digest = hashlib.sha256()
    results = []
    for i, op in enumerate(ops):
        if workers is not None:
            op = replace(op, workers=workers)
        if tracer is None:
            result = run_op(bf, cli, op, time.perf_counter)
        else:
            tracer.op_id = i
            result = run_op(bf, cli, op, time.perf_counter, around=lambda: tracer.span("op"))
        digest.update(result.output.encode("utf-8"))
        # payloads reach megabytes; holding them all would inflate peak_rss_mb
        results.append(replace(result, output=""))
    return Pass(results, digest.hexdigest())


def _print_failures(results: list[OpResult]) -> None:
    reasons: dict[str, int] = {}
    for r in results:
        if r.failed:
            reasons[r.reason] = reasons.get(r.reason, 0) + 1
    failed = sum(reasons.values())
    print(f"  failed_share    {failed / len(results):.4f}        ({failed} of {len(results)} ops)")
    for reason, count in sorted(reasons.items()):
        print(f"      {count:4d} x {reason}")


def end_to_end(bf: Any, cli: Any, ops: list[Op], seconds: float) -> dict[str, Any]:
    """Whole passes over the batch until `seconds` have passed, at least
    MIN_PASSES.  An op's time is its least over the passes: other load on the
    machine comes in bursts of seconds, and a pass later an op meets another."""
    setup_s, setup_n = measure_setup()
    passes: list[Pass] = []
    start = time.perf_counter()
    while len(passes) < MIN_PASSES or time.perf_counter() - start < seconds:
        passes.append(run_pass(bf, cli, ops))
    times = sorted(min(runs) for runs in zip(*([r.seconds for r in p.results] for p in passes)))
    results = [r for p in passes for r in p.results]
    n = len(times)
    p90 = statistics.quantiles(times, n=10)[8]
    metrics = {
        "ops_per_s": n / sum(times),
        "op_p50_s": statistics.median(times),
        "op_p90_s": p90,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "setup_s": setup_s,
    }
    shas = {p.sha256 for p in passes}
    malformed = sum(r.malformed for r in results)

    print(f"  {n} ops per pass, {len(passes)} passes; an op's time is its least over the passes")
    print(f"  ops_per_s       {metrics['ops_per_s']:.4f} 1/s    (n={n} ops)")
    print(f"  op_p50_s        {metrics['op_p50_s']:.5f} s     (n={n} ops)")
    print(f"  op_p90_s        {p90:.5f} s     (n={n} ops, {sum(t > p90 for t in times)} above)")
    if n < P90_MIN_OPS:
        print(f"  warning: op_p90_s rests on fewer than {P90_MIN_OPS} ops")
    _print_failures(results)
    print(f"  peak_rss_mb     {metrics['peak_rss_mb']:.1f} MB")
    print(f"  setup_s         {setup_s:.4f} s     (median of {setup_n} fresh processes)")
    print(f"  output_sha256   {passes[0].sha256}")
    if len(shas) > 1:
        print("  ERROR: passes over the same batch gave different outputs")
    if malformed:
        print(f"  ERROR: {malformed} ops emitted a malformed payload or a certificate that fails re-check")
    return {
        "correct": len(shas) == 1 and malformed == 0,
        "attempted": len(results),
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }


def _largest(metrics: dict[str, float], names: tuple[str, ...]) -> bool:
    grouped = sum(metrics[m] for m in names)
    others = [v for k, v in metrics.items()
              if k.endswith("_s") and not k.startswith("curve.") and k not in names]
    return all(grouped > v for v in others)


def _simple_dynamics_idle(m: dict[str, float]) -> bool:
    return all(v == 0.0 for k, v in m.items() if k.startswith("simple_dynamics."))


#: what the traced run should show on each workload: (claim, check of the metrics)
PREDICTIONS = {
    "certify-mix": [
        ("blender_certifier.simulate_s + activation_s + cli.emit_s is the largest layer",
         lambda m: _largest(m, ("blender_certifier.simulate_s",
                                "blender_certifier.activation_s", "cli.emit_s"))),
        ("simple_dynamics.* is 0", _simple_dynamics_idle),
    ],
    "rational-scan": [
        ("simple_dynamics.brute_scan_s + exclusion_s is the largest layer",
         lambda m: _largest(m, ("simple_dynamics.brute_scan_s", "simple_dynamics.exclusion_s"))),
        ("arithmetic.search_s is 0", lambda m: m["arithmetic.search_s"] == 0.0),
    ],
}


def traced(bf: Any, modules: dict[str, Any], workload_name: str, ops: list[Op]) -> dict[str, Any]:
    cli = modules["cli"]
    workers = WORKLOADS[workload_name].workers
    untraced = run_pass(bf, cli, ops)
    tracer = tracing.Tracer()
    with tracing.instrument(modules, tracer):
        traced_pass = run_pass(bf, cli, ops, workers=1, tracer=tracer)
    # tracing overhead is measured against the same worker count
    baseline = untraced if workers == 1 else run_pass(bf, cli, ops, workers=1)
    n = len(ops)
    metrics = tracing.layer_metrics(tracer, n)
    metrics["trace.overhead_share"] = traced_pass.op_seconds / baseline.op_seconds - 1.0
    metrics.update(curves.scaling_curves(bf))

    print(f"  traced pass of {n} ops with --workers 1 ({len(tracer.spans)} spans)")
    for name in layer_metric_names():
        print(f"  {name:48s} {metrics[name]:.6g} {_layer_unit(name)}")
    layer_sum = sum(v for k, v in metrics.items() if k.endswith("_s") and not k.startswith("curve."))
    print(f"  layer _s metrics add up to {layer_sum:.6f} s; mean traced op {traced_pass.op_seconds / n:.6f} s")
    for text, holds in PREDICTIONS[workload_name]:
        print(f"  prediction: {text}: {'holds' if holds(metrics) else 'WRONG PREDICTION'}")
    shas = {untraced.sha256, traced_pass.sha256, baseline.sha256}
    print(f"  output_sha256   untraced --workers {workers} {untraced.sha256}")
    print(f"  output_sha256   traced --workers 1 {traced_pass.sha256}")
    if len(shas) > 1:
        print("  ERROR: tracing or the worker count changed the output")
    results = traced_pass.results
    malformed = sum(r.malformed for r in results)
    return {
        "correct": len(shas) == 1 and malformed == 0,
        "attempted": n,
        "failed": sum(r.failed for r in results),
        "metrics": metrics,
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict[str, Any]:
    bf, modules = load_package()
    cli = modules["cli"]
    scratch_root = os.path.join(ROOT, ".perfbench_tmp")
    os.makedirs(scratch_root, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=scratch_root) as scratch:
            specs = SpecFiles(scratch, seed)
            ops = WORKLOADS[name].build(seed, specs)
            for op in warmup_ops(ops, specs):
                run_op(bf, cli, op, time.perf_counter)
            print(f"workload {name}, seed {seed}, trace {int(trace)}: {WORKLOADS[name].why}")
            if trace:
                report = traced(bf, modules, name, ops)
            else:
                report = end_to_end(bf, cli, ops, seconds)
    finally:
        try:
            os.rmdir(scratch_root)
        except OSError:
            pass  # another run still uses it
    units = {**E2E_UNITS, **{m: _layer_unit(m) for m in layer_metric_names()}}
    report["metrics"] = {k: {"value": v, "unit": units[k]} for k, v in report["metrics"].items()}
    return report


def run_all(seed: int, seconds: int) -> int:
    """Every workload, untraced then traced, each in a fresh process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, os.path.abspath(__file__), "--workload", name, "--seed", str(seed),
                 "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, timeout=900,
            )
            status = status or proc.returncode
    return status


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # one BLAS thread, so an op uses at most the --workers threads it asks for;
    # set before numpy is first imported
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        report = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
