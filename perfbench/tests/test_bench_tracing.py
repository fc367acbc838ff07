import types

import pytest

import tracing


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_of_nested_spans():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    with tr.span("op"):                             # 0 .. 10
        clock.now = 1.0
        with tr.span("arithmetic.search_pairs"):    # 1 .. 6
            clock.now = 2.0
            with tr.span("arithmetic.check_A1"):    # 2 .. 3
                clock.now = 3.0
            clock.now = 6.0
        with tr.span("cli.canonical_json"):         # 6 .. 9
            clock.now = 9.0
        clock.now = 10.0
    assert [s.parent for s in tr.spans] == [None, 0, 1, 0]
    assert tracing.self_times(tr.spans) == [2.0, 4.0, 1.0, 3.0]


def test_layer_metrics_add_up_to_op_time():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    for op_id, width in enumerate((4.0, 8.0)):
        tr.op_id = op_id
        with tr.span("op"):
            start = clock.now
            with tr.span("blender_certifier.simulate_covering"):
                clock.now = start + width / 2
            clock.now = start + width
    m = tracing.layer_metrics(tr, ops_attempted=2)
    assert m["blender_certifier.simulate_s"] == pytest.approx(3.0)
    assert m["cli.other_s"] == pytest.approx(3.0)
    total = sum(v for k, v in m.items() if k.endswith("_s"))
    assert total == pytest.approx(6.0)
    assert {s.op_id for s in tr.spans} == {0, 1}


def test_failed_span_is_marked_and_closed():
    clock = FakeClock()
    tr = tracing.Tracer(clock=clock)
    with pytest.raises(ValueError):
        with tr.span("blender_certifier.certify"):
            clock.now = 2.0
            raise ValueError
    assert tr.spans[0].failed and tr.spans[0].end == 2.0
    m = tracing.layer_metrics(tr, ops_attempted=1)
    assert m["blender_certifier.certify_fail_share"] == 1.0


def test_instrument_wraps_and_restores():
    modules = {}
    for mod_name, attr in tracing.SPANNED:
        modules.setdefault(mod_name, types.SimpleNamespace())
        setattr(modules[mod_name], attr, lambda *a, **k: "x")
    modules["arithmetic"].coeffs = lambda *a: 1
    originals = {(m, a): getattr(modules[m], a) for m, a in tracing.SPANNED}
    tr = tracing.Tracer()
    with tracing.instrument(modules, tr):
        assert modules["cli"].canonical_json({}) == "x"
        modules["arithmetic"].coeffs(None, 1, 2)
    assert [s.name for s in tr.spans] == ["cli.canonical_json"]
    assert tr.counts["exact_evals"] == 1 and tr.counts["emit_bytes"] == 1
    assert {(m, a): getattr(modules[m], a) for m, a in tracing.SPANNED} == originals
