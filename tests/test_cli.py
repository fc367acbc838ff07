"""Byte-identical golden outputs of the CLI on rational spec documents."""

import json
import tracemalloc
from pathlib import Path

import pytest

from blenderforge import cli, simple_dynamics
from blenderforge.cycle_model import load_spec_document

DATA = Path(__file__).parent / "data"

#: spec document and --set overrides of each `simple-check` golden.  At
#: tol = 1 most index tuples pass the scan's prefilter, which stops past
#: INDEX_CAP of them, so that scan is truncated
SIMPLE_CHECK_CASES = {
    "sf_rational_violation": ("sf_rational_violation.json", {"k_range": "40", "m_range": "40"}),
    "sf_rational_simple": ("sf_rational_simple.json", {"k_range": "40", "m_range": "40"}),
    "df_rational_violation": ("df_rational_violation.json", {"k_range": "40", "m_range": "40"}),
    "df_rational_no_pairs": ("df_rational_no_pairs.json", {"k_range": "40", "m_range": "40"}),
    "sf_rational_loose_tol": ("sf_rational_pinned.json",
                              {"k_range": "60", "m_range": "60", "tol": "1", "grid": "3"}),
}


@pytest.mark.parametrize("name", sorted(SIMPLE_CHECK_CASES))
def test_simple_check_golden(name, tmp_path, capsys):
    doc, overrides = SIMPLE_CHECK_CASES[name]
    out = tmp_path / "out.json"
    config = cli.RunConfig("simple-check", str(DATA / doc), dict(overrides), out_path=str(out))
    assert cli.run(config) == 0
    golden = (DATA / "golden" / f"simple_check_{name}.json").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden
    assert capsys.readouterr().out == golden


def test_loose_tolerance_prefilter_memory_bounded():
    # the prefilter joins blocks of candidates and stops past INDEX_CAP
    # survivors; materialising all (60 * 61)^2 candidates takes ~800 MB
    doc = json.loads((DATA / "sf_rational_pinned.json").read_text(encoding="utf-8"))
    spec, moduli = load_spec_document(doc)
    f = moduli.rational("omega1")
    tables = simple_dynamics._SfTables(spec, f.denominator, f.numerator, 60, 60, "k_omega")
    intervals = tables.intervals()
    tracemalloc.start()
    try:
        tuples = simple_dynamics._prefilter_tuples(*intervals, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tuples) == simple_dynamics.INDEX_CAP + 1
    assert peak < 64 * 2**20
