"""Smoke test of the benchmark itself, a few ops per workload.

    python -m pytest -q perfbench/test_bench.py

It checks that every metric named in BENCHMARK.json is emitted with its
unit, that no op fails at gates pinned in the benchmark, that inputs follow
the seed, and that the benchmark refuses to run without the library source.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402

run.import_library()

import tracer  # noqa: E402
import workloads  # noqa: E402

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)


def _units(kind: str) -> dict:
    return {m["name"]: m["unit"] for m in SPEC[kind]}


def _small(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], pool_size=2,
                               trace_size=1)


def test_workloads_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    for w in SPEC["workloads"]:
        assert workloads.WORKLOADS[w["name"]].why == w["why"]


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_untraced_metrics_and_gates(name):
    metrics, det, timing, _ = run.run_untraced(_small(name), 3, 0.0, 1, workloads)
    assert {k: u for k, (_, u) in metrics.items()} == _units("end_to_end")
    assert all(v > 0 for v, _ in metrics.values())
    assert det["failed"] == 0 and det["failed_frac"] == 0.0
    assert det["errors"] == []
    assert timing["passes"] == 1


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_traced_metrics(name):
    metrics, det, _, _ = run.run_traced(_small(name), 3, workloads, tracer, None)
    assert {k: u for k, (_, u) in metrics.items()} == _units("per_layer")
    assert det["failed"] == 0
    values = {k: v for k, (v, _) in metrics.items()}
    assert values["zeta.calls"] > 0 and values["zeta.points"] > 0
    assert 0.0 < values["zeta.distinct_frac"] <= 1.0
    layer = {"spectral-gl3": "parseval.measure_constants.s",
             "residue-gl3": "gl3.transverse_residue.s",
             "maass-selberg": "truncation.inner_product_fd.s"}[name]
    assert values[layer] > 0


def test_tracer_restores_the_library():
    import eisenspec.gl3
    import eisenspec.roots
    before = (eisenspec.gl3.ratio_L, eisenspec.roots.Weight.pair_root)
    t = tracer.Tracer()
    with t:
        assert eisenspec.gl3.ratio_L is not before[0]
    assert (eisenspec.gl3.ratio_L, eisenspec.roots.Weight.pair_root) == before


def test_inputs_follow_the_seed():
    import numpy as np
    for wl in workloads.WORKLOADS.values():
        a = wl.draw(np.random.default_rng(5), 4)
        b = wl.draw(np.random.default_rng(5), 4)
        c = wl.draw(np.random.default_rng(6), 4)
        assert repr(a) == repr(b) and repr(a) != repr(c)


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(run.ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "residue-gl3",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
