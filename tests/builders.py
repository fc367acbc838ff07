"""Spec builders, seeded generators and the payload oracles of the test
suite.

The oracles restate what the package writes by a slower, plainer route:
`disc_records` reads a simulation report disc by disc into `DiscRecord`s,
and `reference_json` is the canonical text as `json.dumps` of a walk that
turns every record into JSON values, a report into its summary and its
`DiscRecord`s.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Any, Mapping

import blenderforge as bf
from blenderforge import cli
from blenderforge.blender_certifier import CoveringSimReport
from blenderforge.rng import philox_rng

SQRT2 = math.sqrt(2)


def sf_spec(theta=SQRT2, w_hat=0.25, gamma=2.0, A=1.4, B=1.0, b=1.0, u=1.0,
            eta1=0.4, eta2=1.1, delta=0.1, d=4, d1=1):
    return bf.CycleSpec(
        cycle_type="saddle_focus",
        lam=abs(gamma) ** (-theta), gamma=gamma,
        omega1=2 * math.pi * w_hat,
        A_coef=A, B_coef=B, b_coef=b, u_minus=u,
        eta1=eta1, eta2=eta2,
        d=d, d1=d1, d2=d1 + 1, delta=delta, c_frac=0.5,
    )


def df_spec(theta=SQRT2, w1_hat=1 / 3, w2_hat=1 / 5, gamma=2.0,
            A=1.2, B=0.9, b=0.7, u=(1.0, 0.4),
            eta1=0.3, eta2=1.1, eta3=0.25, delta=0.01, d=5, d1=2):
    return bf.CycleSpec(
        cycle_type="double_focus",
        lam=gamma ** (-theta), gamma=gamma,
        omega1=2 * math.pi * w1_hat, omega2=2 * math.pi * w2_hat,
        A_coef=A, B_coef=B, b_coef=b, u_minus=u,
        eta1=eta1, eta2=eta2, eta3=eta3,
        d=d, d1=d1, d2=d1 + 1, delta=delta, c_frac=0.5,
    )


W1_IRR = 1 / math.sqrt(7)


def random_rational_sf_spec(rng, delta=5e-5):
    """Seeded saddle-focus spec with rational theta and omega/2pi.

    The exclusion distances measure the two-pair balance at the cube centre
    (K = C = 0) only, so a margin on them checked by the caller covers the
    centre alone.  The scan also moves K and C over [-1, 1], which shifts
    each term by a relative amount of order delta; delta is tiny so that
    this freedom mostly stays inside a 1e-3 margin, but not always.  Where
    the k-terms nearly cancel the shift is amplified: seeds 46, 226, 367,
    594, 703, 719, 968 and 1047 in 0..1499 clear a 1e-3 margin and still
    give a scan violation at ranges (40, 40).
    """
    q = int(rng.integers(3, 7))
    p = int(rng.integers(1, q))
    while math.gcd(p, q) != 1 or 2 * p >= q:
        p = int(rng.integers(1, q))
    qp = int(rng.integers(1, 4))
    pp = int(rng.integers(1, 4))
    g = math.gcd(pp, qp)
    pp, qp = pp // g, qp // g
    gamma = 1.5 + float(rng.uniform(0.0, 1.5))
    eta1 = float(rng.uniform(-1.2, 1.2))
    eta2 = float(rng.uniform(-1.2, 1.2))
    while abs(math.sin(eta1 - eta2)) < 0.1:
        eta2 = float(rng.uniform(-1.2, 1.2))
    spec = sf_spec(
        theta=pp / qp, w_hat=p / q, gamma=gamma,
        A=float(rng.uniform(0.5, 1.5)),
        B=float(rng.uniform(0.5, 1.5)),
        b=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5)),
        u=float(rng.choice([-1.0, 1.0])) * float(rng.uniform(0.5, 1.5)),
        eta1=eta1, eta2=eta2, delta=delta,
    )
    moduli = bf.moduli_from_declarations(
        spec, bf.RationalClass(pp, qp), bf.RationalClass(p, q)
    )
    return spec, moduli


def rng_for(*entropy: int):
    return philox_rng(*entropy)


@dataclass(frozen=True)
class DiscRecord:
    index: int
    x_center: float
    x_extent: float
    ok: bool
    fail_step: int | None
    steps: tuple[int, ...]           # witness indices selected per step
    step_factors: tuple[float, ...]  # |A_n| of the pair taken at each step
    note: str = ""


def disc_records(report: CoveringSimReport) -> list[DiscRecord]:
    """The report's discs, one record each; a disc that stopped at step f
    completed the f - 1 steps before it."""
    records = []
    for j, fail in enumerate(report.fail_steps):
        steps = report.taken[j, :report.depth if fail is None else fail - 1]
        records.append(DiscRecord(
            index=report.indices[j], x_center=float(report.centers[j]),
            x_extent=report.x_extent, ok=fail is None, fail_step=fail,
            steps=tuple(steps.tolist()), step_factors=tuple(report.abs_a[steps].tolist()),
            note=report.notes[j],
        ))
    return records


def reference_jsonable(obj: Any) -> Any:
    """JSON values of a payload: non-finite floats as their repr strings, a
    report as its summary and its `disc_records`, and any other record as
    `cli._record_dict` gives it."""
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, (str, int, bool)) or obj is None:
        return obj
    if isinstance(obj, Mapping):
        return {str(k): reference_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [reference_jsonable(v) for v in obj]
    if isinstance(obj, CoveringSimReport):
        return reference_jsonable({
            "n_discs": obj.n_discs, "depth": obj.depth, "survivors": obj.survivors,
            "all_ok": obj.all_ok, "step_factor_min": obj.step_factor_min,
            "step_factor_max": obj.step_factor_max, "per_disc": disc_records(obj),
        })
    return reference_jsonable(cli._record_dict(obj))


def reference_json(payload: Any) -> str:
    return json.dumps(reference_jsonable(payload), sort_keys=True, separators=(",", ":"))
