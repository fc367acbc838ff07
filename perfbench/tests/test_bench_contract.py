"""BENCHMARK.json names exactly what run.py reports."""

import json
import os

import run
from workloads import WORKLOADS

with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
    BENCHMARK = json.load(fh)


def test_workloads_match():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_end_to_end_metrics_match():
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.E2E_UNITS


def test_per_layer_metrics_match():
    assert [m["name"] for m in BENCHMARK["per_layer"]] == run.layer_metric_names()
    for m in BENCHMARK["per_layer"]:
        assert m["unit"] == run._layer_unit(m["name"])
