"""Byte-identical golden outputs of the CLI.

`simple-check` runs on rational spec documents; `search-pairs` and
`pipeline` run on one or two documents per case tag with a pair search.
Those documents come from `perfbench/specgen.py` at seed 11 (batches of
4, index in the file name).  The DF-3.1 documents are the DF-3.3.2 ones
with the relation dropped and {theta, omega1, theta*omega2, 1} declared
independent; the DF-3.2 document is DF-2.1 #1 with omega2/2pi moved onto
the relation 7*theta*omega2 = theta + omega1 + 1.
"""

import csv
import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any

import pytest

import blenderforge as bf
from blenderforge import arithmetic, cli, simple_dynamics, unfolding
from blenderforge.arithmetic import PairSequence
from blenderforge.blender_certifier import BlenderCertificate, _pull_back
from blenderforge.cycle_model import load_spec_document
from builders import reference_json, sf_spec

DATA = Path(__file__).parent / "data"

#: spec document and --set overrides of each `simple-check` golden.  At
#: tol = 1 most index tuples pass the scan's prefilter, which stops past
#: INDEX_CAP of them, so that scan is truncated
SIMPLE_CHECK_CASES = {
    "sf_rational_violation": ("sf_rational_violation.json", {"k_range": "40", "m_range": "40"}),
    "sf_rational_simple": ("sf_rational_simple.json", {"k_range": "40", "m_range": "40"}),
    "df_rational_violation": ("df_rational_violation.json", {"k_range": "40", "m_range": "40"}),
    "df_rational_no_pairs": ("df_rational_no_pairs.json", {"k_range": "40", "m_range": "40"}),
    "df_rational_saturated": ("df_rational_saturated.json", {"k_range": "50", "m_range": "50"}),
    "sf_rational_loose_tol": ("sf_rational_pinned.json",
                              {"k_range": "60", "m_range": "60", "tol": "1"}),
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
    tables = simple_dynamics._SfTables(spec, f.denominator, f.numerator, 60, 60)
    intervals = tables.intervals()
    tracemalloc.start()
    try:
        tuples = simple_dynamics._prefilter_tuples(*intervals, 1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(tuples) == simple_dynamics.INDEX_CAP + 1
    assert peak < 64 * 2**20


def test_loose_tolerance_scan_memory_bounded():
    # the whole scan at tol = 1: the prefilter, then the closed-form minimum
    # over INDEX_CAP survivors, none of which reaches zero, at 16 vertices each
    spec, moduli = load_spec_document(
        json.loads((DATA / "sf_rational_pinned.json").read_text(encoding="utf-8")))
    tracemalloc.start()
    try:
        scan = simple_dynamics.brute_scan(spec, moduli, ranges=(60, 60), tol=1.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert scan.truncated
    assert peak < 64 * 2**20


@pytest.mark.parametrize("key", ["grid", "mu", "n_samples"])
def test_grid_override_rejected(key):
    # no command reads any of these keys
    with pytest.raises(ValueError, match=key):
        cli.RunConfig("simple-check", str(DATA / "sf_rational_simple.json"), {key: "9"})


#: documents of the `search-pairs` goldens, each run at the default eps and
#: at eps = 1e-2; error payloads are goldens too
SEARCH_DOCS = (
    "sf_1_0", "sf_1_1", "sf_2_0", "sf_2_2", "sf_3_0", "sf_3_1",
    "df_1_0", "df_1_2", "df_2_1_0", "df_2_1_1", "df_2_2_2", "df_2_2_3",
    "df_3_1_from_df_3_3_2_0", "df_3_1_from_df_3_3_2_2", "df_3_2_from_df_2_1_1",
    "df_3_3_1_0", "df_3_3_1_1", "df_3_3_2_0", "df_3_3_2_2",
)
SEARCH_CASES = {
    **{doc: (doc, {}) for doc in SEARCH_DOCS},
    **{f"{doc}_eps1e-2": (doc, {"eps": "1e-2"}) for doc in SEARCH_DOCS},
}
#: documents of the `pipeline` goldens; --workers 1 and 2 share one golden
PIPELINE_DOCS = ("sf_1_0", "sf_1_1", "sf_3_0", "sf_3_1", "df_1_0", "df_1_2", "df_2_1_0", "df_2_1_1")
#: command, document and --set overrides of the goldens that exercise disc
#: simulation beyond the default pipeline: `unfold=1` verifies crossings in
#: `homoclinic_report` (one sf_1_0 crossing reads verified: false), sf_3_1
#: runs activation both ways and sf_2_0 certifies the cu side only
SIMULATION_CASES = {
    "pipeline_sf_1_0_unfold": ("pipeline", "sf_1_0", {"unfold": "1"}),
    "pipeline_sf_1_1_unfold": ("pipeline", "sf_1_1", {"unfold": "1"}),
    "pipeline_sf_3_1_eps1e-2": ("pipeline", "sf_3_1", {"eps": "1e-2"}),
    "pipeline_sf_2_0_eps1e-2": ("pipeline", "sf_2_0", {"eps": "1e-2"}),
    "simulate_cover_sf_1_0": ("simulate-cover", "sf_1_0", {}),
}

#: command, document and --set overrides of the goldens that pin what the
#: case table decides where the goldens above do not: DF-1 certifying its
#: one blender, the tags with no pipeline golden above (each stops at a
#: search or certify error), a fully rational document of each focus type
#: (the exclusion verdict in place of a search), a spec that fails
#: nondegeneracy (eta2 = eta1), and `cones`, which searches like every other
#: command.  Like the `simple-check` goldens, the DF rational one was written
#: on NumPy's AVX-512 kernels; on its AVX2 path one exclusion membership
#: differs (ROADMAP item 2)
TABLE_CASES = {
    "pipeline_sf_rational_simple": ("pipeline", "sf_rational_simple", {}),
    "pipeline_df_rational_no_pairs": ("pipeline", "df_rational_no_pairs", {}),
    "pipeline_sf_1_0_degenerate": ("pipeline", "sf_1_0", {"eta2": "-0.44785539260073703"}),
    "pipeline_df_1_2_eps1e-2": ("pipeline", "df_1_2", {"eps": "1e-2"}),
    "pipeline_df_2_2_3_eps1e-2": ("pipeline", "df_2_2_3", {"eps": "1e-2"}),
    "pipeline_df_3_1_from_df_3_3_2_0": ("pipeline", "df_3_1_from_df_3_3_2_0", {}),
    "pipeline_df_3_2_from_df_2_1_1_eps1e-2": ("pipeline", "df_3_2_from_df_2_1_1", {"eps": "1e-2"}),
    "pipeline_df_3_3_1_1_eps1e-2": ("pipeline", "df_3_3_1_1", {"eps": "1e-2"}),
    "pipeline_df_3_3_2_0_eps1e-2": ("pipeline", "df_3_3_2_0", {"eps": "1e-2"}),
    "cones_sf_1_0": ("cones", "sf_1_0", {}),
    "cones_sf_3_0": ("cones", "sf_3_0", {}),
    "cones_df_1_2": ("cones", "df_1_2", {}),
    "cones_df_2_1_1": ("cones", "df_2_1_1", {}),
}

#: command, document and --set overrides of the goldens of the commands that
#: emit one kind of record each: the moduli with their rational classes and
#: dependence relations, the A1 and A2 residue witnesses, the mu-windows,
#: and the certificate (at the document's delta and at one set by --set, and
#: a certify error).  check-a2 on df_3_3_1_0 writes 4 MB, so it has no golden
RECORD_CASES = {
    "certify_sf_1_0": ("certify", "sf_1_0", {}),
    "certify_sf_1_0_delta": ("certify", "sf_1_0", {"delta": "0.05"}),
    "certify_df_1_2": ("certify", "df_1_2", {}),
    "moduli_sf_1_0": ("moduli", "sf_1_0", {}),
    "moduli_df_3_3_1_0": ("moduli", "df_3_3_1_0", {}),
    "check_a1_sf_1_0": ("check-a1", "sf_1_0", {}),
    "check_a2_df_1_2": ("check-a2", "df_1_2", {}),
    "unfold_sf_1_1": ("unfold", "sf_1_1", {}),
}

#: command and the blocks of sf_1_0 kept in the document of the goldens whose
#: document is not under tests/data: none (the file is missing, so the load
#: stage fails) and the spec alone (the command needs the moduli)
LOCAL_DOC_CASES = {
    "load_missing_file": ("pipeline", None),
    "search_pairs_no_moduli": ("search-pairs", ("spec",)),
}

#: exit status of each payload's error stage (None: no error)
EXIT_STATUS = {None: 0, "load": 1, "run": 1, "search": 2, "certify": 3}


def _run_golden(command, doc, overrides, golden_name, tmp_path, capsys, workers=1, data=DATA):
    out = tmp_path / "out.json"
    config = cli.RunConfig(command, str(data / f"{doc}.json"), dict(overrides),
                           out_path=str(out), workers=workers)
    status = cli.run(config)
    golden = (DATA / "golden" / f"{golden_name}.json").read_text(encoding="utf-8")
    assert out.read_text(encoding="utf-8") == golden
    assert capsys.readouterr().out == golden
    assert status == EXIT_STATUS[json.loads(golden).get("error", {}).get("stage")]


@pytest.mark.parametrize("name", sorted(SEARCH_CASES))
def test_search_pairs_golden(name, tmp_path, capsys):
    doc, overrides = SEARCH_CASES[name]
    _run_golden("search-pairs", doc, overrides, f"search_pairs_{name}", tmp_path, capsys)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("doc", PIPELINE_DOCS)
def test_pipeline_golden(doc, workers, tmp_path, capsys):
    _run_golden("pipeline", doc, {}, f"pipeline_{doc}", tmp_path, capsys, workers=workers)


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("name", sorted(SIMULATION_CASES))
def test_simulation_golden(name, workers, tmp_path, capsys):
    command, doc, overrides = SIMULATION_CASES[name]
    _run_golden(command, doc, overrides, name, tmp_path, capsys, workers=workers)


@pytest.mark.parametrize("name", sorted(TABLE_CASES))
def test_case_table_golden(name, tmp_path, capsys):
    command, doc, overrides = TABLE_CASES[name]
    _run_golden(command, doc, overrides, name, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(RECORD_CASES))
def test_record_golden(name, tmp_path, capsys):
    command, doc, overrides = RECORD_CASES[name]
    _run_golden(command, doc, overrides, name, tmp_path, capsys)


@pytest.mark.parametrize("name", sorted(LOCAL_DOC_CASES))
def test_local_document_golden(name, tmp_path, capsys, monkeypatch):
    # the document path is relative, so the load error reads the same anywhere
    command, blocks = LOCAL_DOC_CASES[name]
    monkeypatch.chdir(tmp_path)
    if blocks is not None:
        doc = json.loads((DATA / "sf_1_0.json").read_text(encoding="utf-8"))
        Path("spec.json").write_text(json.dumps({b: doc[b] for b in blocks}), encoding="utf-8")
    _run_golden(command, "spec", {}, name, tmp_path, capsys, data=Path())


def test_search_pairs_writes_csv(tmp_path, capsys):
    path = tmp_path / "pairs.csv"
    _run_golden("search-pairs", "sf_1_0", {"csv": str(path)}, "search_pairs_sf_1_0", tmp_path,
                capsys)
    seq = json.loads((DATA / "golden" / "search_pairs_sf_1_0.json").read_text())["pairs"]
    with open(path, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    assert header == ["k", "m", "t", "s", "w", "A_km", "B_km"]
    assert [[int(k), int(m)] for k, m, *_ in rows] == seq["pairs"]
    assert [float(r[5]) for r in rows] == seq["A_values"]
    assert [float(r[6]) for r in rows] == seq["B_values"]


def test_main_writes_what_run_writes(tmp_path, capsys):
    out = tmp_path / "out.json"
    argv = ["pipeline", "--spec", str(DATA / "sf_3_0.json"), "--out", str(out)]
    assert cli.main(argv) == 0
    golden = (DATA / "golden" / "pipeline_sf_3_0.json").read_text(encoding="utf-8")
    assert capsys.readouterr().out == golden
    assert out.read_bytes() == golden.encode("utf-8")


@pytest.mark.parametrize("entry,message", [("eps", "bad --set entry 'eps'"),
                                           ("grid=9", "unknown override keys: ['grid']")],
                         ids=["no_equals_sign", "unknown_key"])
def test_main_rejects_a_bad_set_entry(entry, message, capsys):
    argv = ["pipeline", "--spec", str(DATA / "sf_3_0.json"), "--set", entry]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert message in captured.err


#: command, document, --set overrides, the residue scan and the searches of
#: each op: df_1_2 fails the certificate on all 8 residue ranks, and sf_1_0
#: certifies on its fifth and then unfolds, which reads the residue too
ONCE_CASES = {
    "pipeline_df_1_2": ("pipeline", "df_1_2", {}, "check_A2", 8),
    "certify_df_1_2": ("certify", "df_1_2", {}, "check_A2", 8),
    "pipeline_sf_1_0_unfold": ("pipeline", "sf_1_0", {"unfold": "1"}, "check_A1", 5),
}


@pytest.mark.parametrize("name", sorted(ONCE_CASES))
def test_residue_witnesses_computed_once_per_op(name, monkeypatch, capsys):
    # every rank's search, the payload and the unfolding share one list
    command, doc, overrides, scan, searches = ONCE_CASES[name]
    calls = {scan: 0, "search_pairs": 0}

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return call

    monkeypatch.setattr(arithmetic, "search_pairs", counted("search_pairs", arithmetic.search_pairs))
    scan_fn = counted(scan, getattr(arithmetic, scan))
    monkeypatch.setattr(arithmetic, scan, scan_fn)
    if scan == "check_A1":
        monkeypatch.setattr(unfolding, "check_A1", scan_fn)
    cli.run(cli.RunConfig(command, str(DATA / f"{doc}.json"), dict(overrides)))
    capsys.readouterr()
    assert calls == {scan: 1, "search_pairs": searches}


def test_cones_search_reads_min_pairs(capsys):
    config = cli.RunConfig("cones", str(DATA / "sf_1_0.json"), {"min_pairs": "1000000"})
    assert cli.run(config) == 2
    assert json.loads(capsys.readouterr().out)["error"]["stage"] == "search"


#: `cones` on every searched document at eps 1e-3 and 1e-2: exit status, the
#: searched (k, m) and the six verdict flags (forward cu, forward uu,
#: backward cs, backward ss, center expansion, center contraction).  Exit 1
#: is an empty model domain: no point of the cube has its image in the cube
CONES_VERDICTS = {
    ("sf_1_0", "1e-3"): (0, (1501, 2255), (True, True, True, True, True, None)),
    ("sf_1_1", "1e-3"): (0, (5938, 6176), (True, True, True, True, None, True)),
    ("sf_2_0", "1e-3"): (0, (41132, 27078), (True, True, True, True, True, None)),
    ("sf_2_2", "1e-3"): (2, None, None),  # search
    ("sf_3_0", "1e-3"): (0, (2075, 2956), (True, True, True, True, None, True)),
    ("sf_3_1", "1e-3"): (0, (31029, 60347), (True, True, True, True, None, True)),
    ("df_1_0", "1e-3"): (0, (63414, 92076), (True, True, True, True, True, None)),
    ("df_1_2", "1e-3"): (0, (30326, 28797), (True, True, True, True, True, None)),
    ("df_2_1_0", "1e-3"): (2, None, None),  # search
    ("df_2_1_1", "1e-3"): (0, (32350, 44891), (True, True, True, True, None, True)),
    ("df_2_2_2", "1e-3"): (2, None, None),  # search
    ("df_2_2_3", "1e-3"): (2, None, None),  # search
    ("df_3_1_from_df_3_3_2_0", "1e-3"): (2, None, None),  # search
    ("df_3_1_from_df_3_3_2_2", "1e-3"): (2, None, None),  # search
    ("df_3_2_from_df_2_1_1", "1e-3"): (2, None, None),  # search
    ("df_3_3_1_0", "1e-3"): (2, None, None),  # search
    ("df_3_3_1_1", "1e-3"): (2, None, None),  # search
    ("df_3_3_2_0", "1e-3"): (2, None, None),  # search
    ("df_3_3_2_2", "1e-3"): (2, None, None),  # search
    ("sf_1_0", "1e-2"): (0, (1429, 2147), (True, True, True, True, True, None)),
    ("sf_1_1", "1e-2"): (0, (1738, 1808), (True, True, True, True, None, True)),
    ("sf_2_0", "1e-2"): (0, (352, 232), (True, True, True, True, True, None)),
    ("sf_2_2", "1e-2"): (0, (42816, 67320), (True, True, True, True, True, None)),
    ("sf_3_0", "1e-2"): (0, (19, 27), (True, True, True, True, None, True)),
    ("sf_3_1", "1e-2"): (0, (457, 890), (True, True, True, True, None, True)),
    ("df_1_0", "1e-2"): (0, (5805, 8432), (True, True, True, True, True, None)),
    ("df_1_2", "1e-2"): (0, (8822, 8381), (True, True, True, True, True, None)),
    ("df_2_1_0", "1e-2"): (1, None, None),  # run
    ("df_2_1_1", "1e-2"): (0, (1108, 1540), (True, True, True, True, None, True)),
    ("df_2_2_2", "1e-2"): (2, None, None),  # search
    ("df_2_2_3", "1e-2"): (0, (33462, 29411), (True, True, True, True, True, None)),
    ("df_3_1_from_df_3_3_2_0", "1e-2"): (2, None, None),  # search
    ("df_3_1_from_df_3_3_2_2", "1e-2"): (2, None, None),  # search
    ("df_3_2_from_df_2_1_1", "1e-2"): (1, None, None),  # run
    ("df_3_3_1_0", "1e-2"): (2, None, None),  # search
    ("df_3_3_1_1", "1e-2"): (2, None, None),  # search
    ("df_3_3_2_0", "1e-2"): (1, None, None),  # run
    ("df_3_3_2_2", "1e-2"): (1, None, None),  # run
}
CONES_FLAGS = ("forward_cu_ok", "forward_uu_ok", "backward_cs_ok", "backward_ss_ok",
               "center_expansion_ok", "center_contraction_ok")


@pytest.mark.parametrize("doc,eps", sorted(CONES_VERDICTS))
def test_cones_verdicts(doc, eps, capsys):
    status, pair, flags = CONES_VERDICTS[doc, eps]
    config = cli.RunConfig("cones", str(DATA / f"{doc}.json"), {"eps": eps})
    assert cli.run(config) == status
    payload = json.loads(capsys.readouterr().out)
    if status:
        assert payload["error"]["stage"] == {1: "run", 2: "search"}[status]
        return
    assert (payload["k"], payload["m"]) == pair
    assert tuple(payload["cones"][f] for f in CONES_FLAGS) == flags


@pytest.mark.parametrize("kind", ["cs", "cu"])
def test_unbounded_search_pairs_keeps_the_requested_side(kind, capsys):
    # eps = inf runs the SF-3 band kernel of the requested side
    config = cli.RunConfig("search-pairs", str(DATA / "sf_3_0.json"), {"eps": "inf", "kind": kind})
    assert cli.run(config) == 0
    a_values = json.loads(capsys.readouterr().out)["pairs"]["A_values"]
    on_side = {"cs": lambda a: abs(a) < 1.0, "cu": lambda a: abs(a) > 1.0}[kind]
    assert a_values and all(map(on_side, a_values))


def test_import_leaves_numpy_random_unloaded():
    # the draws use numpy core only; numpy.random loads on first use
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, blenderforge.cli; print('numpy.random' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "False"


def five_map_certificate():
    # five maps x -> x/2 + B whose images of I = [-0.05, 0.05] chain across it
    spec = sf_spec(delta=0.1)
    b_values = (-0.04, -0.02, 0.0, 0.02, 0.04)
    pairs = PairSequence(pairs=tuple((i + 1, 1) for i in range(5)),
                         target_values=((0.0, 0.0, 0.0),) * 5, A_values=(0.5,) * 5,
                         B_values=b_values, case=bf.CaseTag.SF_1)
    return spec, bf.certify(spec, pairs, c=0.5)


def test_canonical_json_of_simulation_payload_matches_reference():
    spec, cert = five_map_certificate()
    report = bf.simulate_covering(spec, cert, n_discs=40, seed=2, depth=12)
    payload = {"schema": cli.SCHEMA, "certificates": [cert], "simulations": [report, report]}
    text = cli.canonical_json(payload)
    assert text == reference_json(payload)
    assert json.loads(text)["simulations"][1]["per_disc"][39]["index"] == 39


def test_canonical_json_when_every_disc_fails_at_step_one():
    spec, cert = five_map_certificate()
    wide = BlenderCertificate.from_json_dict({**cert.to_json_dict(), "overlap_min": 0.5})
    report = bf.simulate_covering(spec, wide, n_discs=6, seed=0, depth=4)
    assert report.survivors == 0
    assert math.isnan(report.step_factor_min) and math.isnan(report.step_factor_max)
    text = cli.canonical_json({"simulation": report})
    assert text == reference_json({"simulation": report})
    assert '"step_factor_min":"nan"' in text


def test_canonical_json_of_non_finite_and_negative_zero_centers():
    _, cert = five_map_certificate()
    centers = [math.nan, math.inf, -math.inf, -0.0, 0.0]
    report = _pull_back(cert, 3, range(5), depth=3, x_centers=centers)
    text = cli.canonical_json({"simulation": report, "zero": -0.0})
    assert text == reference_json({"simulation": report, "zero": -0.0})
    x_centers = [d["x_center"] for d in json.loads(text)["simulation"]["per_disc"]]
    assert x_centers[:3] == ["nan", "inf", "-inf"]
    assert '"x_center":-0.0,' in text


@pytest.mark.parametrize("n_discs,depth", [(0, 5), (5, 0), (0, 0)])
def test_canonical_json_of_empty_simulations(n_discs, depth):
    spec, cert = five_map_certificate()
    report = bf.simulate_covering(spec, cert, n_discs=n_discs, seed=0, depth=depth)
    assert cli.canonical_json([report]) == reference_json([report])


def test_canonical_json_of_non_ascii_notes():
    spec, cert = five_map_certificate()
    report = bf.simulate_covering(spec, cert, n_discs=3, seed=0, depth=2)
    notes = ["", "δ-Scheibe → \U0001d53b", 'quote " and \\ and \n']
    odd = replace(report, notes=notes, fail_steps=[None, 2, 1])
    payload = {"simulation": odd, "note": "café"}
    assert cli.canonical_json(payload) == reference_json(payload)


def test_canonical_json_of_window_exhausted_payload():
    spec, cert = five_map_certificate()
    report = bf.simulate_covering(spec, cert, n_discs=4, seed=0, depth=3)
    error = {"stage": "search", "message": "found 0 pairs", "best_distance": math.inf,
             "found": 0}
    payload = {"schema": cli.SCHEMA, "error": error}
    assert cli.canonical_json(payload) == reference_json(payload)
    assert '"best_distance":"inf"' in cli.canonical_json(payload)
    # a non-finite float outside a report, beside the report
    assert cli.canonical_json({**payload, "simulation": report}) == reference_json(
        {**payload, "simulation": report})


def test_canonical_json_when_a_string_reads_like_a_placeholder():
    spec, cert = five_map_certificate()
    report = bf.simulate_covering(spec, cert, n_discs=4, seed=0, depth=3)
    payload = {"a": "\x000\x00", "simulation": report}
    assert cli.canonical_json(payload) == reference_json(payload)


@dataclass(frozen=True)
class Plain:
    name: str
    value: float
    inner: Any = None


@dataclass(frozen=True)
class Renamed:
    value: float

    def to_json_dict(self):
        return {"renamed": self.value}


@pytest.mark.parametrize("value", [0.25, math.inf, math.nan])
def test_canonical_json_of_a_record_without_to_json_dict(value):
    # a dataclass encodes as its fields, nested records included
    payload = {"record": Plain("a", value, inner=(Plain("b", -0.0),))}
    text = cli.canonical_json(payload)
    assert text == reference_json(payload)
    number = repr(value) if math.isfinite(value) else f'"{value!r}"'
    assert text == ('{"record":{"inner":[{"inner":null,"name":"b","value":-0.0}],'
                    f'"name":"a","value":{number}}}}}')


@pytest.mark.parametrize("value", [0.25, math.inf])
def test_canonical_json_prefers_a_records_own_to_json_dict(value):
    # the fields would give {"value": ...}
    payload = [Renamed(value), {"inner": Renamed(2.0)}]
    text = cli.canonical_json(payload)
    assert text == reference_json(payload)
    assert json.loads(text)[0] == {"renamed": value if math.isfinite(value) else repr(value)}
    assert json.loads(text)[1]["inner"] == {"renamed": 2.0}


@pytest.mark.parametrize("value", [object(), {1, 2}, Plain, b"bytes"])
def test_canonical_json_rejects_a_value_that_is_no_record(value):
    for payload in ({"x": value}, {"x": value, "y": math.nan}):
        with pytest.raises(TypeError, match="cannot serialize"):
            cli.canonical_json(payload)
        with pytest.raises(TypeError, match="cannot serialize"):
            reference_json(payload)
