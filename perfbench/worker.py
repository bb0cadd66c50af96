"""One workload in a fresh single-threaded process; prints one JSON line.

Started by run.py with the environment already fixed (threads pinned to one,
RELPLASMA_TOL unset, the checkout's src first on the import path).

    python3 perfbench/worker.py --workload sweep_mixed --seed 1 --seconds 15 \
        --trace 0 [--scale 1.0] [--spans PATH]
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
import resource
import statistics
import sys
from time import perf_counter

import numpy as np
import scipy
import tracing
import workloads
from relplasma import cli

# percentiles tried for the tail, highest first; the tail is the highest one
# that leaves at least TAIL_BEYOND samples above it
TAIL_LADDER = (99.99, 99.9, 99.0, 90.0)
TAIL_BEYOND = 10
# ops_per_s is the median of the rates over windows at least this long
WINDOW_S = 1.0


def timed_pass(wl, inputs, seconds: float | None, run=None):
    """Closed loop of whole passes over the inputs.

    Passes repeat until `seconds` have gone by; with seconds None there is
    exactly one.  Returns the outcome (or exception) and the latency in
    seconds of each operation, the start time, and the end time of each pass.
    """
    results, lat, pass_ends = [], [], []
    begin = perf_counter()
    while True:
        for i, x in enumerate(inputs):
            t0 = perf_counter()
            try:
                out = wl.op(x) if run is None else run(i, wl.op, x)
            except Exception as exc:  # every failure is counted, none is fatal
                out = exc
            lat.append(perf_counter() - t0)
            results.append(out)
        pass_ends.append(perf_counter())
        if seconds is None or pass_ends[-1] - begin >= seconds:
            return results, lat, begin, pass_ends


def window_rates(ok: list[bool], n_inputs: int, begin: float,
                 pass_ends: list[float]) -> list[float]:
    """Checked operations per second in windows of whole passes.

    Each window spans at least WINDOW_S, except when one pass is longer; a
    short remainder joins the window before it.
    """
    edges = [begin, *pass_ends]
    cuts = [0]
    for p in range(1, len(edges)):
        if edges[p] - edges[cuts[-1]] >= WINDOW_S:
            cuts.append(p)
    if len(cuts) == 1:
        cuts.append(len(pass_ends))
    else:
        cuts[-1] = len(pass_ends)
    return [sum(ok[a * n_inputs:b * n_inputs]) / (edges[b] - edges[a])
            for a, b in zip(cuts, cuts[1:])]


def check(wl, inputs, results) -> dict:
    """Classify every operation: ok, raised, flagged, non-finite or wrong.

    Wrong results of the workload's known defect are counted as failures and
    also tallied apart; any other failure makes the run incorrect.
    """
    refs = {}
    ok = []
    counts = dict.fromkeys(("raised", "flagged", "nonfinite", "wrong",
                            "wrong_known_defect", "wrong_in_region"), 0)
    examples = []
    for j, out in enumerate(results):
        k = j % len(inputs)
        x = inputs[k]
        if isinstance(out, Exception):
            kind, detail = "raised", repr(out)
        elif out.flagged:
            kind, detail = "flagged", ""
        elif not all(map(math.isfinite, _numbers(out.values))):
            kind, detail = "nonfinite", ""
        else:
            if k not in refs:
                refs[k] = wl.reference(x)
            missed = wl.misses(out.values, refs[k])
            if not missed:
                ok.append(True)
                continue
            kind, detail = "wrong", ",".join(missed)
            if wl.known_defect is not None and wl.known_defect(x, out, refs[k]):
                counts["wrong_known_defect"] += 1
                counts["wrong_in_region"] += bool(
                    wl.defect_region and wl.defect_region(x))
                kind = None
        if kind is not None and len(examples) < 5:
            examples.append({"kind": kind, "input": repr(x), "detail": detail})
        counts[kind or "wrong"] += 1
        ok.append(False)
    failed = sum(counts[k] for k in ("raised", "flagged", "nonfinite", "wrong"))
    return {"counts": counts, "failed": failed, "examples": examples,
            "unexpected": failed - counts["wrong_known_defect"]}, ok


def _numbers(values: dict):
    for v in values.values():
        if isinstance(v, tuple):
            yield from v
        else:
            yield v


def latency_summary(lat_s: list[float]) -> dict:
    ms = sorted(x * 1e3 for x in lat_s)
    n = len(ms)
    out = {"n": n, "p50": statistics.median(ms)}
    for p in TAIL_LADDER:
        if n * (1.0 - p / 100.0) >= TAIL_BEYOND:
            out["tail"] = statistics.quantiles(ms, n=10000, method="inclusive")[
                round(p * 100) - 1]
            out["tail_pct"] = p
            break
    return out


def cli_call(wl_name: str, inputs) -> list[str]:
    """Arguments of one `relplasma` invocation on the workload's inputs."""
    if wl_name == "sweep_mixed":
        # omega = 0 and q = 0 together would make the CLI raise: keep both > 0
        p = inputs[0]
        same = [x for x in inputs if (x.t, x.zeta) == (p.t, p.zeta)
                and x.omega > 0.0 and x.q > 0.0]
        omegas = sorted(x.omega for x in same)
        qs = sorted(x.q for x in same)
        return ["sweep", "--t", repr(p.t), "--zeta", repr(p.zeta),
                "--omega", ",".join(map(repr, omegas[:4])),
                "--q", ",".join(map(repr, qs[:4])),
                "--tol", repr(workloads.TOL), "--format", "csv"]
    if wl_name == "dispersion_sc":
        x = inputs[0]
        return ["dispersion", "--t", "0", "--zeta", repr(x.zeta),
                "--omega", f"{x.omega!r}:{1.01 * x.omega!r}:2",
                "--mode", "selfconsistent", "--q-grid", "32",
                "--tol", repr(workloads.TOL), "--format", "json"]
    x = inputs[0]
    return ["dispersion", "--t", "0", "--zeta", repr(x.zeta),
            "--omega", f"0.02:0.3:{workloads.BAND_POINTS}",
            "--tol", repr(workloads.TOL), "--format", "json"]


def run_untraced(wl, inputs, seconds: float) -> dict:
    results, lat, begin, pass_ends = timed_pass(wl, inputs, seconds)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    verdict, ok = check(wl, inputs, results)
    rates = window_rates(ok, len(inputs), begin, pass_ends)
    lat_sum = latency_summary(lat)
    lat_sum["windows"] = len(rates)
    metrics = {
        "ops_per_s": (statistics.median(rates), "1/s"),
        "op_ms.p50": (lat_sum["p50"], "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    return {"attempted": len(results), "verdict": verdict,
            "latency": lat_sum, "metrics": metrics,
            "wall_s": pass_ends[-1] - begin}


def run_traced(wl, inputs, spans_path: str | None) -> dict:
    plain, _, begin, ends = timed_pass(wl, inputs, None)
    plain_wall = ends[-1] - begin
    with tracing.Tracer() as tr:
        results, _, begin, ends = timed_pass(wl, inputs, None, run=tr.run_op)
        wall = ends[-1] - begin
        tr.op = tracing.CLI_OP
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            rc = cli.main(cli_call(wl.name, inputs))
        tr.op = -1
    if rc != 0:
        raise RuntimeError(f"relplasma cli exited {rc} on the workload inputs")
    per_layer = tracing.layer_metrics(tr)
    per_layer["cli.output_bytes"] = float(len(buf.getvalue().encode()))
    per_layer["trace.overhead_frac"] = wall / plain_wall - 1.0
    per_layer = {k: (v, tracing.unit_of(k)) for k, v in per_layer.items()}
    if spans_path:
        tr.save(spans_path)
    verdict, _ = check(wl, inputs, plain + results)
    return {"attempted": len(plain) + len(results), "verdict": verdict,
            "per_layer": per_layer, "spans": len(tr.name)}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", type=float, default=1.0)
    ap.add_argument("--spans", default=None)
    args = ap.parse_args(argv)

    wl = workloads.WORKLOADS[args.workload]
    inputs = wl.inputs(args.seed, args.scale)
    if args.trace:
        out = run_traced(wl, inputs, args.spans)
    else:
        out = run_untraced(wl, inputs, args.seconds)
    out["distinct_inputs"] = len(inputs)
    out["versions"] = {"numpy": np.__version__, "scipy": scipy.__version__}
    out["properties"] = wl.properties(inputs)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
