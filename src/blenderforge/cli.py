"""Command-line front end: deterministic JSON/CSV artifacts from a cycle
spec document.

Every command reads a JSON document holding the coefficient record (and a
`moduli` block where the command needs declared arithmetic), applies
`--set key=value` overrides, and emits one canonical JSON object with a
schema tag.  Identical (spec, seed, overrides) inputs produce byte-identical
output.  `--workers` is accepted for compatibility; every command runs in
one thread, and the flag changes neither the work done nor the output.

One rule turns a payload record into a JSON object: a record with
`to_json_dict` writes its own object, and any other dataclass instance is
the object of its fields, shallowly, with nested records handed on to the
same rule.  So a record states in `to_json_dict` only where its JSON
differs from its fields.  A simulation report, a set of disc columns,
writes its own JSON text.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import math
import sys
from dataclasses import dataclass, field, fields, is_dataclass, replace
from typing import Any, Mapping

from . import arithmetic, blender_certifier, cycle_model, return_map, simple_dynamics, unfolding
from .cycle_model import CaseTag, CycleSpec, Moduli
from .errors import (
    BandViolation,
    BlenderForgeError,
    CoverageGap,
    WindowExhausted,
)

SCHEMA = "blender-forge/1"

COMMANDS = (
    "moduli", "check-a1", "check-a2", "search-pairs", "certify",
    "simulate-cover", "cones", "unfold", "simple-check", "pipeline",
)

SPEC_FIELD_OVERRIDES = {
    "lambda", "gamma", "omega1", "omega2", "A_coef", "B_coef", "b_coef",
    "eta1", "eta2", "eta3", "delta", "c_frac",
}

#: override keys accepted by --set (unknown keys are rejected): the spec
#: fields and the command knobs
KNOWN_OVERRIDES = SPEC_FIELD_OVERRIDES | {
    "eps", "k_max", "m_max", "kind", "n_discs", "depth", "window_count",
    "q", "p", "overlap_min", "c", "tol", "k_range", "m_range",
    "unfold", "min_pairs", "K", "phi_bound", "k", "m",
    "csv",
}


@dataclass
class RunConfig:
    command: str
    spec_path: str
    overrides: dict[str, str] = field(default_factory=dict)
    seed: int = 0
    out_path: str | None = None
    workers: int = 1    # kept for callers that pass it; nothing reads it

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        unknown = set(self.overrides) - KNOWN_OVERRIDES
        if unknown:
            raise ValueError(f"unknown override keys: {sorted(unknown)}")

    def knob(self, key: str, default: Any, cast=float) -> Any:
        if key not in self.overrides:
            return default
        raw = self.overrides[key]
        if cast is bool:
            return raw.lower() in ("1", "true", "yes")
        return cast(raw)


def _record_dict(value: Any) -> dict[str, Any]:
    """The JSON object of a payload record: its own `to_json_dict`, else the
    shallow dict of its dataclass fields."""
    if hasattr(value, "to_json_dict"):
        return value.to_json_dict()
    if is_dataclass(value) and not isinstance(value, type):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    raise TypeError(f"cannot serialize {type(value)!r}")


def canonical_json(obj: Any) -> str:
    """The canonical JSON text of a payload: sorted keys, no spaces, and
    every non-finite float written as its repr string ("nan", "inf").

    One encoder pass does the work where it can.  It hands each value json
    cannot encode to `_record_dict`: a record's own `to_json_dict`, else the
    shallow dict of its dataclass fields; anything else raises TypeError.  A
    value with `to_json_text` (a simulation report) writes its own text
    instead: the pass encodes a placeholder string for it, then the text
    replaces the placeholder.  Mapping keys in payloads are strings, so the
    pass needs no key conversion.

    The pass refuses non-finite floats.  Then, or when a payload string
    reads like a placeholder, a walk turns the payload into JSON values
    first: a non-finite float becomes its repr, a report the values of its
    own text, and any other record its `_record_dict`.
    """
    texts: list[str] = []

    def hook(value: Any) -> Any:
        if hasattr(value, "to_json_text"):
            texts.append(value.to_json_text())
            return f"\0{len(texts) - 1}\0"
        if isinstance(value, Mapping):
            return {str(k): v for k, v in value.items()}
        return _record_dict(value)

    def walk(value: Any) -> Any:
        if isinstance(value, float):
            return value if math.isfinite(value) else repr(value)
        if isinstance(value, (str, int, bool)) or value is None:
            return value
        if isinstance(value, Mapping):
            return {str(k): walk(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [walk(v) for v in value]
        if hasattr(value, "to_json_text"):
            return json.loads(value.to_json_text())
        return walk(_record_dict(value))

    try:
        text = json.dumps(obj, default=hook, allow_nan=False, sort_keys=True,
                          separators=(",", ":"))
        for i, sub in enumerate(texts):
            mark = f'"\\u0000{i}\\u0000"'
            if text.count(mark) != 1:
                raise ValueError("a payload string reads like a placeholder")
            text = text.replace(mark, sub)
        return text
    except ValueError:
        return json.dumps(walk(obj), sort_keys=True, separators=(",", ":"))


def _emit(config: RunConfig, payload: dict[str, Any]) -> None:
    payload = {"schema": SCHEMA, **payload}
    text = canonical_json(payload)
    if config.out_path:
        with open(config.out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    sys.stdout.write(text + "\n")


def _load(config: RunConfig) -> tuple[CycleSpec, Moduli | None]:
    with open(config.spec_path, "r", encoding="utf-8") as fh:
        doc = json.load(fh)
    spec_doc = doc.get("spec", doc)
    for key in SPEC_FIELD_OVERRIDES & set(config.overrides):
        spec_doc[key] = float(config.overrides[key])
    spec, moduli = cycle_model.load_spec_document(doc)
    return spec, moduli


def _require_moduli(moduli: Moduli | None) -> Moduli:
    if moduli is None:
        raise BlenderForgeError("this command needs a 'moduli' block in the spec document")
    return moduli


def _window(config: RunConfig) -> arithmetic.SearchWindow:
    return arithmetic.SearchWindow(
        k_max=config.knob("k_max", 100_000, int),
        m_max=config.knob("m_max", 100_000, int),
    )


# ---------------------------------------------------------------------------
# command implementations
# ---------------------------------------------------------------------------

def _cmd_moduli(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    report = cycle_model.validate_nondegeneracy(spec)
    payload: dict[str, Any] = {
        "theta": cycle_model.compute_theta(spec),
        "validation": report,
    }
    if moduli is not None:
        payload["moduli"] = moduli
        payload["case"] = cycle_model.classify_case(moduli, spec).value
    return payload


def _cmd_check_a1(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    pq = moduli.rational("omega1")
    q = config.knob("q", pq.denominator, int)
    p = config.knob("p", pq.numerator, int)
    wits = arithmetic.check_A1(spec, q, p)
    return {"witnesses": wits, "q": q, "p": p}


def _cmd_check_a2(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    f1 = moduli.rational("omega1") if moduli.is_rational("omega1") else None
    f2 = moduli.rational("omega2") if moduli.is_rational("omega2") else None
    wits = arithmetic.check_A2(
        spec,
        q1=None if f1 is None else f1.denominator,
        p1=None if f1 is None else f1.numerator,
        q2=None if f2 is None else f2.denominator,
        p2=None if f2 is None else f2.numerator,
    )
    return {"witnesses": wits}


def _search(config: RunConfig, spec: CycleSpec, moduli: Moduli, case: CaseTag,
            kind: str | None = None, residue_rank: int = 0) -> arithmetic.PairSequence:
    return arithmetic.search_pairs(
        spec, moduli, case,
        eps=config.knob("eps", 1e-3),
        window=_window(config),
        kind=kind if kind is not None else config.knob("kind", None, str),
        min_pairs=config.knob("min_pairs", 1, int),
        residue_rank=residue_rank,
    )


def _search_and_certify(
    config: RunConfig, spec: CycleSpec, moduli: Moduli, case: CaseTag, kind: str | None
) -> tuple[arithmetic.PairSequence, blender_certifier.BlenderCertificate]:
    """Certify the searched pairs, falling back through residue ranks (in the
    residue cases) when a residue's band is too strong for its pair density
    to cover."""
    last_exc: Exception | None = None
    for rank in range(arithmetic.case_info(case).ranks):
        try:
            seq = _search(config, spec, moduli, case, kind=kind, residue_rank=rank)
        except WindowExhausted as exc:
            if rank == 0:
                raise
            assert last_exc is not None
            raise last_exc
        try:
            cert = blender_certifier.certify(
                spec, seq,
                overlap_min=config.knob("overlap_min", None),
                c=config.knob("c", None),
            )
            return seq, cert
        except (CoverageGap, BandViolation) as exc:
            last_exc = exc
    assert last_exc is not None
    raise last_exc


def _cmd_search_pairs(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    seq = _search(config, spec, moduli, cycle_model.classify_case(moduli, spec))
    csv_path = config.knob("csv", None, str)
    if csv_path:
        with open(csv_path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh).writerows(arithmetic.pair_sequence_csv_rows(seq))
    return {"pairs": seq, "case": seq.case.value}


def _cmd_certify(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    case = cycle_model.classify_case(moduli, spec)
    _, cert = _search_and_certify(config, spec, moduli, case, kind=None)
    return {"certificate": cert}


def _cmd_simulate_cover(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    case = cycle_model.classify_case(moduli, spec)
    _, cert = _search_and_certify(config, spec, moduli, case, kind=None)
    report = blender_certifier.simulate_covering(
        spec, cert,
        n_discs=config.knob("n_discs", 100, int),
        seed=config.seed,
        depth=config.knob("depth", 30, int),
    )
    return {"certificate": cert, "simulation": report}


def _cmd_cones(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    """Cone verdicts of the model map of one return, (k, m) from `--set` or
    else the first searched pair: the four cone families at aperture K and
    the center rates, decided in closed form for every C^1 remainder with
    partials within phi_bound, plus the largest such bound that keeps them."""
    k = config.knob("k", None, int)
    m = config.knob("m", None, int)
    if k is None or m is None:
        moduli = _require_moduli(moduli)
        k, m = _search(config, spec, moduli, cycle_model.classify_case(moduli, spec)).pairs[0]
    model = return_map.build_model(spec, k, m, phi_bound=config.knob("phi_bound", 0.0))
    report = return_map.verify_cones(model, K=config.knob("K", 0.1))
    return {"k": k, "m": m, "cones": report}


def _cmd_unfold(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    points = unfolding.find_mu_sequence(
        spec, moduli,
        window_count=config.knob("window_count", 5, int),
        window=_window(config),
    )
    return {"mu_sequence": points}


def _cmd_simple_check(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    report = simple_dynamics.exclusion_sets(spec, moduli)
    k_range = config.knob("k_range", 40, int)
    m_range = config.knob("m_range", 40, int)
    scan = simple_dynamics.brute_scan(
        spec, moduli,
        ranges=(k_range, m_range),
        tol=config.knob("tol", 1e-6),
    )
    report = replace(report, scan=scan)
    return {"exclusion": report, "verdict": simple_dynamics.simple_verdict(report)}


def _cmd_pipeline(config: RunConfig, spec: CycleSpec, moduli: Moduli | None) -> dict:
    moduli = _require_moduli(moduli)
    validation = cycle_model.validate_nondegeneracy(spec)
    if not validation.overall:
        raise BlenderForgeError("spec fails nondegeneracy validation")
    case = cycle_model.classify_case(moduli, spec)
    payload: dict[str, Any] = {"case": case.value, "validation": validation}

    if case not in arithmetic.CASES:  # every modulus rational
        report = simple_dynamics.exclusion_sets(spec, moduli)
        report = replace(report, scan=simple_dynamics.brute_scan(spec, moduli))
        payload["exclusion"] = report
        payload["verdict"] = simple_dynamics.simple_verdict(report)
        return payload

    if spec.is_saddle_focus and moduli.is_rational("omega1"):
        pq = moduli.rational("omega1")
        payload["a1_witnesses"] = arithmetic.check_A1(spec, pq.denominator, pq.numerator)
    if not spec.is_saddle_focus and moduli.is_rational("omega1") and moduli.is_rational("omega2"):
        f1, f2 = moduli.rational("omega1"), moduli.rational("omega2")
        payload["a2_witnesses"] = arithmetic.check_A2(
            spec, f1.denominator, f1.numerator, f2.denominator, f2.numerator
        )

    info = arithmetic.CASES[case]
    certificates = []
    simulations = []
    for kind in info.kinds:
        _, cert = _search_and_certify(config, spec, moduli, case, kind)
        sim = blender_certifier.simulate_covering(
            spec, cert,
            n_discs=config.knob("n_discs", 50, int),
            seed=config.seed,
            depth=config.knob("depth", 20, int),
        )
        certificates.append(cert)
        simulations.append(sim)
    payload["certificates"] = certificates
    payload["simulations"] = simulations
    payload["note"] = info.note

    if len(certificates) == 2:
        payload["activation"] = blender_certifier.check_activation(
            certificates[0], certificates[1], seed=config.seed
        )

    if config.knob("unfold", False, bool):
        points = unfolding.find_mu_sequence(
            spec, moduli, window_count=config.knob("window_count", 5, int)
        )
        payload["mu_sequence"] = points
        payload["relations"] = unfolding.homoclinic_report(
            spec, points[-1].mu, certificates, moduli, case, seed=config.seed
        )
    payload["verdict"] = "blender_certified" if all(
        s.all_ok for s in simulations
    ) else "certificate_unverified"
    return payload


_DISPATCH = {
    "moduli": _cmd_moduli,
    "check-a1": _cmd_check_a1,
    "check-a2": _cmd_check_a2,
    "search-pairs": _cmd_search_pairs,
    "certify": _cmd_certify,
    "simulate-cover": _cmd_simulate_cover,
    "cones": _cmd_cones,
    "unfold": _cmd_unfold,
    "simple-check": _cmd_simple_check,
    "pipeline": _cmd_pipeline,
}


def run(config: RunConfig) -> int:
    """Dispatch a command; returns the process exit status."""
    try:
        spec, moduli = _load(config)
    except (OSError, json.JSONDecodeError, BlenderForgeError, ValueError) as exc:
        _emit(config, {"error": {"stage": "load", "message": str(exc)}})
        return 1
    try:
        payload = _DISPATCH[config.command](config, spec, moduli)
    except WindowExhausted as exc:
        _emit(config, {"error": {
            "stage": "search", "message": str(exc),
            "best_distance": exc.best_distance, "found": exc.found,
        }})
        return 2
    except (CoverageGap, BandViolation) as exc:
        _emit(config, {"error": {
            "stage": "certify", "message": str(exc),
            "uncovered": getattr(exc, "uncovered", None),
        }})
        return 3
    except BlenderForgeError as exc:
        _emit(config, {"error": {"stage": "run", "message": str(exc)}})
        return 1
    _emit(config, payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="blenderforge",
        description="Certify blenders and exclusion verdicts for coindex-1 cycle data",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--spec", required=True, help="path to the spec JSON document")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--out", default=None, help="also write the JSON payload here")
    parser.add_argument(
        "--workers", type=int, default=1,
        help="accepted for compatibility; changes neither the work done nor the output",
    )
    parser.add_argument(
        "--set", dest="overrides", action="append", default=[],
        metavar="KEY=VALUE", help="override a spec field or command knob",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(name)s: %(message)s")
    args = build_parser().parse_args(argv)
    overrides = {}
    for item in args.overrides:
        if "=" not in item:
            print(f"bad --set entry {item!r}", file=sys.stderr)
            return 1
        key, _, value = item.partition("=")
        overrides[key] = value
    try:
        config = RunConfig(
            command=args.command,
            spec_path=args.spec,
            overrides=overrides,
            seed=args.seed,
            out_path=args.out,
            workers=args.workers,
        )
    except ValueError as exc:
        print(str(exc), file=sys.stderr)
        return 1
    return run(config)


if __name__ == "__main__":
    raise SystemExit(main())
