"""Every function that BENCHMARK.json's per-layer metrics name exists.

The traced benchmark run reads the counters of ``<layer>.<fn>`` for each
metric ``<layer>.<fn>.<calls|busy_s|self_s|busy_frac>``, and divides the
calls of ``evolution.form_matrix`` by those of ``evolution.step``; a name
that no longer exists ends that run with a KeyError.  This file only reads
BENCHMARK.json."""

import importlib
import inspect
import json
from pathlib import Path

import pytest

BENCHMARK = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
FIELDS = ("calls", "busy_s", "self_s", "busy_frac")
TRACED = {m["name"].rpartition(".")[0] for m in BENCHMARK["per_layer"]
          if m["name"].count(".") == 2 and m["name"].rpartition(".")[2] in FIELDS}


@pytest.mark.parametrize("name", sorted(TRACED | {"evolution.step"}))
def test_per_layer_metric_names_a_public_function(name):
    layer, fn = name.split(".")
    module = importlib.import_module(f"ncpde.{layer}")
    obj = getattr(module, fn, None)
    assert not fn.startswith("_")
    assert inspect.isfunction(obj) and obj.__module__ == module.__name__
