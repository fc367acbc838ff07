"""The workloads: which ops a seed's batch holds, in which order.

A batch is fixed by (workload, seed) alone, so its canonical output can be
compared byte for byte across commits.  Families are interleaved evenly
through the batch, so slow drift of the machine touches each of them alike.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, replace
from typing import Callable

import specgen
from ops import Op


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    workers: int
    build: Callable[[int, "SpecFiles"], list[Op]]


def _interleave(groups: list[list[Op]]) -> list[Op]:
    """Spread each group evenly over the batch: item j of a group of length
    n sits at fraction (j + 1/2)/n; ties keep the group order."""
    keyed = [((j + 0.5) / len(g), gi, op) for gi, g in enumerate(groups) for j, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: (t[0], t[1]))]


# -- certify-mix ------------------------------------------------------------

CERTIFY_FAMILIES = ("SF-1", "SF-3", "DF-1", "DF-2.1")
CERTIFY_SPECS_PER_FAMILY = 32
#: 18 times the disc steps of the CLI default (50 discs x depth 20).  One
#: level only: a certified op costs several times a failed one, and a second,
#: heavier level would make the seed's count of certified specs swing the
#: run's totals and percentiles more
CERTIFY_KNOBS = (("n_discs", "300"), ("depth", "60"))
CERTIFY_WORKERS = 2


def _certify_mix(seed: int, specs: "SpecFiles") -> list[Op]:
    groups = []
    for family in CERTIFY_FAMILIES:
        ops = []
        knobs = CERTIFY_KNOBS + ((("unfold", "1"),) if family == "SF-1" else ())
        for path in specs(family, CERTIFY_SPECS_PER_FAMILY):
            ops.append(Op("pipeline", path, family, knobs, seed, CERTIFY_WORKERS))
            ops.append(Op("cones", path, family, (), seed, CERTIFY_WORKERS))
        groups.append(ops)
    return _interleave(groups)


# -- rational-scan ------------------------------------------------------------

RATIONAL_FAMILIES = ("SF-rational-all", "DF-rational-all")
#: k_range = m_range of the brute scan, cycled over a family's specs.  An
#: op costs 0.06-0.2 s over these ranges, and op costs at one range already
#: vary about threefold between specs, so the costs form one dense band and
#: the median op stays put from seed to seed; a wider set of ranges (30, 50,
#: 70) split them into clusters and moved the median by a third
RATIONAL_RANGES = (40, 50, 60)
RATIONAL_SPECS_PER_FAMILY = 51


def _rational_scan(seed: int, specs: "SpecFiles") -> list[Op]:
    groups = []
    for family in RATIONAL_FAMILIES:
        ops = []
        for i, path in enumerate(specs(family, RATIONAL_SPECS_PER_FAMILY)):
            n = str(RATIONAL_RANGES[i % len(RATIONAL_RANGES)])
            ops.append(Op("simple-check", path, family,
                          (("k_range", n), ("m_range", n)), seed, 1))
        groups.append(ops)
    return _interleave(groups)


WORKLOADS = {
    w.name: w for w in (
        Workload(
            "certify-mix",
            "pipeline with --workers 2 and heavy simulation on residue-lattice and band-scan "
            "specs, plus cones: certify, simulation, activation, unfolding and JSON emission work",
            CERTIFY_WORKERS, _certify_mix),
        Workload(
            "rational-scan",
            "simple-check on fully rational specs over brute-scan ranges 40/50/60: "
            "brute_scan and exclusion_sets work, search and certify do not",
            1, _rational_scan),
    )
}


def warmup_ops(ops: list[Op], specs: "SpecFiles") -> list[Op]:
    """The first op of each command in the batch, on a spec outside it, so
    lazy imports and first-call costs are paid before timing."""
    first: dict[str, Op] = {}
    for op in ops:
        first.setdefault(op.command, op)
    return [replace(op, spec_path=specs(op.family, 1, tag="warmup")[0]) for op in first.values()]


class SpecFiles:
    """Writes a seed's generated spec documents into a directory."""

    def __init__(self, directory: str, seed: int) -> None:
        self.directory = directory
        self.seed = seed

    def __call__(self, family: str, n: int, tag: str = "batch") -> list[str]:
        """Paths of the family's batch of n documents."""
        paths = []
        for i, doc in enumerate(specgen.generate(family, self.seed, n)):
            path = os.path.join(self.directory, f"{tag}-{family}-{n}-{i}.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(doc, fh)
            paths.append(path)
        return paths
