"""Scaling curves over the knobs that drive each layer's cost.

Each point calls the module function directly on a pinned input, untraced,
and reports the median of a few repeats in seconds.  A point whose call
raises a package error (a search window too small to meet eps) still
reports the time the call took.
"""

from __future__ import annotations

import json
import os
import statistics
import time
from typing import Any, Callable

PINNED = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned")

BRUTE_RANGES = (20, 40, 60, 80)
SIM_LEVELS = ((50, 20), (200, 50), (500, 100), (1000, 200))
K_MAX_LEVELS = (1_000, 10_000, 100_000, 1_000_000)
REPEATS = 3


def curve_metric_names() -> list[str]:
    names = [f"curve.brute_scan_s.range_{n}" for n in BRUTE_RANGES]
    names += [f"curve.simulate_s.discs_{n}x{d}" for n, d in SIM_LEVELS]
    for profile in ("band", "line"):
        names += [f"curve.search_s.kmax_{k}.{profile}" for k in K_MAX_LEVELS]
    return names


def pinned_path(name: str) -> str:
    return os.path.join(PINNED, name)


def _load(bf: Any, name: str) -> tuple[Any, Any]:
    return bf.load_spec_document(pinned_path(name))


def _median_seconds(bf: Any, call: Callable[[], Any]) -> float:
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        try:
            call()
        except bf.BlenderForgeError:
            pass
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def scaling_curves(bf: Any) -> dict[str, float]:
    out: dict[str, float] = {}

    spec, moduli = _load(bf, "sf_rational.json")
    for n in BRUTE_RANGES:
        out[f"curve.brute_scan_s.range_{n}"] = _median_seconds(
            bf, lambda: bf.brute_scan(spec, moduli, ranges=(n, n)))

    spec, _ = _load(bf, "sf3_band.json")
    with open(pinned_path("sf3_certificate.json"), encoding="utf-8") as fh:
        cert = bf.BlenderCertificate.from_json_dict(json.load(fh))
    for n, d in SIM_LEVELS:
        out[f"curve.simulate_s.discs_{n}x{d}"] = _median_seconds(
            bf, lambda: bf.simulate_covering(spec, cert, n_discs=n, seed=0, depth=d))

    for profile, name, eps in (("band", "sf3_band.json", 1e-3), ("line", "sf2_line.json", 1e-2)):
        spec, moduli = _load(bf, name)
        case = bf.classify_case(moduli, spec)
        for k in K_MAX_LEVELS:
            out[f"curve.search_s.kmax_{k}.{profile}"] = _median_seconds(
                bf, lambda: bf.search_pairs(spec, moduli, case, eps=eps,
                                            window=bf.SearchWindow(k_max=k)))
    return out
