"""Op-by-op comparison of two checkouts on every benchmark op.

    python tools/opdiff.py PARENT CHANGE --seeds 1 2 3

For each checkout, a child process imports that checkout's `src/` and
`perfbench/` (without writing bytecode into it), builds every workload's
batch of each seed through `workloads.WORKLOADS[name].build` and runs each
op once through `ops.run_op`, keeping the sha256 of the op's output bytes.
The report gives, per workload and seed, each side's count of failed ops and
the count of ops whose output bytes differ between the sides.  Then it lists
every op whose family, command, exit status, error stage or failed reason
differs.  The exit status is 1 when some op passes on PARENT and fails on
CHANGE, else 0; differing bytes alone do not change it.

A parent checkout can be made with `git archive HEAD | tar -x -C DIR`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
import tempfile
import time
from collections import Counter

#: what is compared of each op
FIELDS = ("family", "command", "status", "stage", "reason")


def collect(checkout: str, seeds: list[int], out_path: str) -> None:
    """Run every op of every workload at each seed and write one record per op."""
    sys.dont_write_bytecode = True
    checkout = os.path.abspath(checkout)
    sys.path[:0] = [os.path.join(checkout, "perfbench"), os.path.join(checkout, "src")]
    import blenderforge as bf
    from blenderforge import cli
    import ops
    import workloads

    if not os.path.abspath(bf.__file__).startswith(checkout + os.sep):
        raise SystemExit(f"blenderforge imported from {bf.__file__}, not from {checkout}")
    records = []
    for seed in seeds:
        for name, workload in workloads.WORKLOADS.items():
            with tempfile.TemporaryDirectory() as scratch:
                batch = workload.build(seed, workloads.SpecFiles(scratch, seed))
                for i, op in enumerate(batch):
                    result = ops.run_op(bf, cli, op, time.perf_counter)
                    try:
                        stage = json.loads(result.output).get("error", {}).get("stage")
                    except (ValueError, AttributeError):
                        stage = None
                    records.append({
                        "workload": name, "seed": seed, "op": i, "family": op.family,
                        "command": op.command, "status": result.status, "stage": stage,
                        "failed": result.failed, "reason": result.reason,
                        "sha256": hashlib.sha256(result.output.encode("utf-8")).hexdigest(),
                    })
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(records, fh)


def _run_sides(parent: str, change: str, seeds: list[int], scratch: str) -> list[list[dict]]:
    """Collect both checkouts, each in its own child process, side by side."""
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env.setdefault(var, "1")
    paths, procs = [], []
    for label, checkout in (("parent", parent), ("change", change)):
        path = os.path.join(scratch, f"{label}.json")
        cmd = [sys.executable, os.path.abspath(__file__), "--collect", checkout, path,
               "--seeds", *map(str, seeds)]
        procs.append(subprocess.Popen(cmd, env=env, cwd=scratch))
        paths.append(path)
    if any(p.wait() != 0 for p in procs):
        raise SystemExit("a side failed to run its ops")
    sides = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sides.append(json.load(fh))
    return sides


def compare(parent_ops: list[dict], change_ops: list[dict]) -> int:
    """Print the failed and byte-differing counts and the differing ops; 1 if
    an op newly fails."""
    def failed(records: list[dict]) -> dict[tuple[str, int], tuple[int, int]]:
        out: dict[tuple[str, int], tuple[int, int]] = {}
        for r in records:
            n_failed, n = out.get((r["workload"], r["seed"]), (0, 0))
            out[r["workload"], r["seed"]] = (n_failed + r["failed"], n + 1)
        return out

    index = {(r["workload"], r["seed"], r["op"]): r for r in change_ops}
    bytes_differ: Counter = Counter()
    for r in parent_ops:
        c = index.get((r["workload"], r["seed"], r["op"]))
        if c is not None and c["sha256"] != r["sha256"]:
            bytes_differ[r["workload"], r["seed"]] += 1

    before, after = failed(parent_ops), failed(change_ops)
    print(f"{'workload':14s} {'seed':>4s}  {'parent failed':>14s}  {'change failed':>14s}"
          f"  {'bytes differ':>12s}")
    for key in sorted(before.keys() | after.keys()):
        b, a = before.get(key, (0, 0)), after.get(key, (0, 0))
        print(f"{key[0]:14s} {key[1]:4d}  {b[0]:6d} of {b[1]:5d}  {a[0]:6d} of {a[1]:5d}"
              f"  {bytes_differ[key]:12d}")

    newly_failed = differ = 0
    for r in parent_ops:
        c = index.pop((r["workload"], r["seed"], r["op"]), None)
        if c is not None and all(r[f] == c[f] for f in FIELDS):
            continue
        differ += 1
        newly_failed += c is None or (c["failed"] and not r["failed"])
        after_text = "missing" if c is None else " ".join(f"{f}={c[f]!r}" for f in FIELDS)
        print(f"{r['workload']} seed {r['seed']} op {r['op']}: "
              f"{' '.join(f'{f}={r[f]!r}' for f in FIELDS)} -> {after_text}")
    for key in sorted(index):
        differ += 1
        print(f"{key[0]} seed {key[1]} op {key[2]}: only in the change")
    print(f"{differ} ops differ; {newly_failed} pass on the parent and fail on the change")
    return 1 if newly_failed else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("checkouts", nargs="*", metavar="CHECKOUT",
                        help="the parent checkout, then the changed one")
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--collect", nargs=2, metavar=("CHECKOUT", "OUT"), help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.collect:
        collect(args.collect[0], args.seeds, os.path.abspath(args.collect[1]))
        return 0
    if len(args.checkouts) != 2:
        parser.error("give the parent checkout and the changed one")
    with tempfile.TemporaryDirectory() as scratch:
        parent_ops, change_ops = _run_sides(*map(os.path.abspath, args.checkouts), args.seeds,
                                            scratch)
    return compare(parent_ops, change_ops)


if __name__ == "__main__":
    raise SystemExit(main())
