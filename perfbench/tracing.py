"""Spans around the calls into each `blenderforge` module, recorded from the
benchmark's side.

`instrument` replaces module attributes that the CLI calls with wrappers
that open a span, and restores them on exit; the package source is not
touched.  Each span records its name, start, end, parent span and op id, and
all spans stay in memory until the run ends.  A span's self time is its
duration minus the durations of its child spans.  `arithmetic.coeffs` is
counted, not spanned: it runs once per exact evaluation inside a search,
and a span per call would cost more than the call.
"""

from __future__ import annotations

import contextlib
import time
from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int | None          # index of the parent span in Tracer.spans
    op_id: int
    failed: bool = False


@dataclass
class Tracer:
    clock: Callable[[], float] = time.perf_counter
    spans: list[Span] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    op_id: int = -1
    _stack: list[int] = field(default_factory=list)

    @contextlib.contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        record = Span(name, self.clock(), 0.0, parent, self.op_id)
        self.spans.append(record)
        self._stack.append(len(self.spans) - 1)
        try:
            yield record
        except BaseException:
            record.failed = True
            raise
        finally:
            self._stack.pop()
            record.end = self.clock()


def self_times(spans: list[Span]) -> list[float]:
    """Self time of every span: its duration minus its children's durations.

    Children of one span run one after another inside it (the wrapped calls
    are single-threaded), so their durations do not overlap."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent is not None:
            out[s.parent] -= s.end - s.start
    return out


#: (module, attribute) pairs the CLI calls, wrapped in spans of that name
SPANNED = (
    ("cycle_model", "load_spec_document"),
    ("cycle_model", "validate_nondegeneracy"),
    ("cycle_model", "classify_case"),
    ("arithmetic", "search_pairs"),
    ("arithmetic", "check_A1"),
    ("arithmetic", "check_A2"),
    ("blender_certifier", "certify"),
    ("blender_certifier", "simulate_covering"),
    ("blender_certifier", "check_activation"),
    ("return_map", "build_model"),
    ("return_map", "verify_cones"),
    ("unfolding", "find_mu_sequence"),
    ("unfolding", "homoclinic_report"),
    ("simple_dynamics", "exclusion_sets"),
    ("simple_dynamics", "brute_scan"),
    ("simple_dynamics", "simple_verdict"),
    ("cli", "canonical_json"),
)


def _observe(tracer: Tracer, name: str, result: Any) -> None:
    """Per-call counts that layer ratios are built from."""
    if name == "arithmetic.search_pairs":
        tracer.counts["search_pairs_kept"] += len(result.pairs)
    elif name == "blender_certifier.simulate_covering":
        tracer.counts["disc_steps"] += result.n_discs * result.depth
    elif name == "simple_dynamics.brute_scan":
        tracer.counts["brute_scan_solutions"] += result.n_solutions
        tracer.counts["brute_scan_truncated"] += int(result.truncated)
    elif name == "cli.canonical_json":
        tracer.counts["emit_bytes"] += len(result.encode("utf-8"))


def _spanned(tracer: Tracer, name: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        with tracer.span(name):
            result = fn(*args, **kwargs)
        _observe(tracer, name, result)
        return result
    return wrapper


def _counted(tracer: Tracer, key: str, fn: Callable) -> Callable:
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        tracer.counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


@contextlib.contextmanager
def instrument(modules: dict[str, Any], tracer: Tracer) -> Iterator[Tracer]:
    """Wrap the spanned attributes of `modules` (name -> module object) and
    count `arithmetic.coeffs`; every original is restored on exit."""
    saved = []
    try:
        for mod_name, attr in SPANNED:
            mod = modules[mod_name]
            saved.append((mod, attr, getattr(mod, attr)))
            setattr(mod, attr, _spanned(tracer, f"{mod_name}.{attr}", getattr(mod, attr)))
        arith = modules["arithmetic"]
        saved.append((arith, "coeffs", arith.coeffs))
        arith.coeffs = _counted(tracer, "exact_evals", arith.coeffs)
        yield tracer
    finally:
        for mod, attr, original in reversed(saved):
            setattr(mod, attr, original)


#: layer metric fed by each span's self time; "op" is the CLI call itself
SELF_TIME_METRIC = {
    "op": "cli.other_s",
    "cycle_model.load_spec_document": "cycle_model.load_s",
    "cycle_model.validate_nondegeneracy": "cycle_model.classify_s",
    "cycle_model.classify_case": "cycle_model.classify_s",
    "arithmetic.search_pairs": "arithmetic.search_s",
    "arithmetic.check_A1": "arithmetic.check_a_s",
    "arithmetic.check_A2": "arithmetic.check_a_s",
    "blender_certifier.certify": "blender_certifier.certify_s",
    "blender_certifier.simulate_covering": "blender_certifier.simulate_s",
    "blender_certifier.check_activation": "blender_certifier.activation_s",
    "return_map.build_model": "return_map.cones_s",
    "return_map.verify_cones": "return_map.cones_s",
    "unfolding.find_mu_sequence": "unfolding.unfold_s",
    "unfolding.homoclinic_report": "unfolding.unfold_s",
    "simple_dynamics.exclusion_sets": "simple_dynamics.exclusion_s",
    "simple_dynamics.simple_verdict": "simple_dynamics.exclusion_s",
    "simple_dynamics.brute_scan": "simple_dynamics.brute_scan_s",
    "cli.canonical_json": "cli.emit_s",
}


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def layer_metrics(tracer: Tracer, ops_attempted: int) -> dict[str, float]:
    """Per-layer metrics of a traced pass: `_s` metrics are self seconds per
    op attempted (they add up to the mean traced op time), counts are per op
    attempted, and shares are 0 when the layer was never called."""
    n = ops_attempted
    out = {metric: 0.0 for metric in SELF_TIME_METRIC.values()}
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        out[SELF_TIME_METRIC[span.name]] += self_s / n

    calls = Counter(s.name for s in tracer.spans)
    fails = Counter(s.name for s in tracer.spans if s.failed)
    c = tracer.counts
    out["arithmetic.search_calls_per_op"] = calls["arithmetic.search_pairs"] / n
    out["arithmetic.search_fail_share"] = _share(fails["arithmetic.search_pairs"],
                                                 calls["arithmetic.search_pairs"])
    out["arithmetic.exact_evals"] = c["exact_evals"] / n
    out["arithmetic.search_yield"] = _share(c["search_pairs_kept"], c["exact_evals"])
    out["blender_certifier.certify_fail_share"] = _share(fails["blender_certifier.certify"],
                                                         calls["blender_certifier.certify"])
    out["blender_certifier.disc_steps"] = c["disc_steps"] / n
    out["simple_dynamics.brute_scan_solutions"] = c["brute_scan_solutions"] / n
    out["simple_dynamics.brute_scan_truncated_share"] = _share(c["brute_scan_truncated"],
                                                               calls["simple_dynamics.brute_scan"])
    out["cli.emit_bytes"] = c["emit_bytes"] / n
    return out
