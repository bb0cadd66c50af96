"""Tests of the benchmark itself (not collected by the library's suite).

    PYTHONPATH=src python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
BENCH = HERE.parent
ROOT = BENCH.parent
for p in (str(ROOT / "src"), str(BENCH)):
    if p not in sys.path:
        sys.path.insert(0, p)

import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402

import relplasma  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0.2", "--trace", str(trace),
         "--scale", "0.1"],
        capture_output=True, text=True, timeout=170, cwd=ROOT)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    return result, lines[:-1]


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_prints_every_metric(workload):
    result, text = _run(workload, 0)
    assert result["correct"]
    names = [m["name"] for m in SPEC["end_to_end"]]
    assert sorted(result["metrics"]) == sorted(names)
    for m in SPEC["end_to_end"]:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"] and got["value"] > 0.0
    printed = " ".join(text)
    for name in names + ["error_rate", "op_ms.tail"]:
        assert f"\n{name} " in "\n" + "\n".join(text), name
    assert "nproc" in printed and "scipy" in printed and "loadavg" in printed

    traced, _ = _run(workload, 1)
    assert sorted(traced["metrics"]) == sorted(m["name"] for m in SPEC["per_layer"])
    for m in SPEC["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"]
    if workload == "band_cold":
        assert traced["metrics"]["quadrature.integrand_calls"]["value"] == 0.0


def _full_route_point():
    for p in workloads.sweep_inputs(3, 0.3):
        if p.t > 0.0 and p.omega > 0.0 and p.q > max(p.omega, 0.01):
            return p
    raise AssertionError("no full-kinematics point drawn")


def test_check_flags_perturbed_sweep_result():
    p = _full_route_point()
    wl = workloads.WORKLOADS["sweep_mixed"]
    good = wl.op(p)
    assert good.route == "full"
    bad = replace(good, values={**good.values,
                                "eps": good.values["eps"] * (1.0 + 1e-5)})
    verdict, ok = worker.check(wl, [p], [good, bad, RuntimeError("boom")])
    assert ok == [True, False, False]
    assert verdict["counts"]["wrong"] == 1
    assert verdict["counts"]["raised"] == 1
    assert verdict["failed"] == 2 and verdict["unexpected"] == 2


def test_check_flags_perturbed_band_edge_and_root():
    wl = workloads.WORKLOADS["band_cold"]
    x = workloads.band_inputs(1, 0.2)[0]
    good = wl.op(x)
    bad = replace(good, values={**good.values,
                                "bandHi": good.values["bandHi"] * (1.0 + 1e-6)})
    assert worker.check(wl, [x], [good, bad])[0]["counts"]["wrong"] == 1

    got = {"qroots": (0.01, 0.02), "omega": 0.05}
    assert workloads.dispersion_misses(got, {"qroots": (0.01, 0.02)}) == []
    assert workloads.dispersion_misses(got, {"qroots": (0.01, 0.020001)}) == ["root 1"]
    assert workloads.dispersion_misses(got, {"qroots": (0.01,)}) == ["root count"]


def _module_attrs():
    mods = [m for name, m in sorted(sys.modules.items())
            if name == "relplasma" or name.startswith("relplasma.")]
    return {(m.__name__, k): v for m in mods for k, v in vars(m).items()}


def test_traced_run_restores_module_attributes():
    before = _module_attrs()
    inputs = workloads.sweep_inputs(5, 0.15)
    wl = workloads.WORKLOADS["sweep_mixed"]
    with tracing.Tracer() as tr:
        worker.timed_pass(wl, inputs, None, run=tr.run_op)
        assert relplasma.dispersion.evaluate_point is not before[
            ("relplasma.dispersion", "evaluate_point")]
    after = _module_attrs()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())

    with pytest.raises(KeyError):
        with tracing.Tracer():
            raise KeyError("inside")
    assert all(_module_attrs()[k] is v for k, v in before.items())


def test_traced_counts_repeat_exactly():
    def counts():
        inputs = workloads.sweep_inputs(9, 0.15)
        wl = workloads.WORKLOADS["sweep_mixed"]
        with tracing.Tracer() as tr:
            worker.timed_pass(wl, inputs, None, run=tr.run_op)
        m = tracing.layer_metrics(tr)
        return {k: v for k, v in m.items() if tracing.unit_of(k) != "ms"}

    first = counts()
    assert first["quadrature.integrand_calls"] > 0
    assert counts() == first


def test_inputs_depend_only_on_seed():
    for wl in workloads.WORKLOADS.values():
        assert wl.inputs(4, 0.5) == wl.inputs(4, 0.5)
        assert wl.inputs(4, 0.5) != wl.inputs(5, 0.5)


def test_run_refuses_checkout_without_sources(tmp_path):
    (tmp_path / "perfbench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "perfbench" / f.name).write_text(f.read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(SPEC))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "band_cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert not proc.stdout.strip()
