"""relplasma benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sweep_mixed --seed 1 --seconds 15 --trace 0

Runs from the root of a source checkout and imports relplasma from its
``src``.  With ``--trace 0`` it measures set-up time in fresh interpreters,
then starts one fresh single-threaded worker that times the workload with
tracing off and checks every result against a reference.  With ``--trace 1``
the worker instead makes one untraced and one traced pass over the inputs and
reports per-layer numbers.  Processes run one at a time.  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``; the
lines before it give every metric with its unit and sample count, the
failure breakdown and the machine the numbers came from.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import monotonic

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_mixed", "dispersion_sc", "band_cold")
SETUP_RUNS = 9
DEADLINE_S = 170.0


def worker_env() -> dict:
    env = dict(os.environ)
    env.pop("RELPLASMA_TOL", None)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args: list[str], env: dict, deadline: float) -> str:
    """Run one child to completion (killed at the deadline); return stdout."""
    proc = subprocess.run([sys.executable, *args], env=env, cwd=ROOT,
                          capture_output=True, text=True,
                          timeout=max(1.0, deadline - monotonic()))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{args[0]} exited with code {proc.returncode}")
    return proc.stdout


def measure_setup(env: dict, deadline: float) -> list[float]:
    """Set-up time in fresh interpreters; the first run only warms caches."""
    probe = str(HERE / "setup_probe.py")
    run_child([probe], env, deadline)
    return [float(run_child([probe], env, deadline).strip().splitlines()[-1])
            for _ in range(SETUP_RUNS)]


def machine() -> dict:
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def report(args, worker: dict, setup: list[float] | None, env_info: dict) -> dict:
    """Print the human-readable lines; return the metrics of the last line."""
    print(f"# relplasma benchmark  workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds} trace={args.trace}")
    print("# machine " + json.dumps({**env_info, **worker["versions"]}))
    print("# input properties " + json.dumps(worker["properties"]))
    verdict = worker["verdict"]
    c = verdict["counts"]
    n = worker["attempted"]
    print(f"error_rate {verdict['failed'] / n:.6g} (n={n}: failed "
          f"{verdict['failed']} = raised {c['raised']} + flagged {c['flagged']}"
          f" + non-finite {c['nonfinite']} + wrong {c['wrong']}; wrong from the "
          f"known defect {c['wrong_known_defect']}, of them in the mis-routed "
          f"region {c['wrong_in_region']}; unexpected {verdict['unexpected']})")
    for ex in verdict["examples"]:
        print("# unexpected failure " + json.dumps(ex))
    metrics = {}
    if args.trace:
        for name, (value, unit) in worker["per_layer"].items():
            metrics[name] = {"value": value, "unit": unit}
            print(f"{name} {value!r} {unit} (one traced pass, "
                  f"{worker['distinct_inputs']} operations)")
        return metrics
    lat = worker["latency"]
    metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    print(f"setup_s {metrics['setup_s']['value']!r} s (median, n={len(setup)})")
    for name, (value, unit) in worker["metrics"].items():
        metrics[name] = {"value": value, "unit": unit}
        count = {"peak_rss_mb": "one worker",
                 "ops_per_s": f"median of {lat['windows']} windows, "
                              f"n={lat['n']}"}.get(name, f"n={lat['n']}")
        print(f"{name} {value!r} {unit} ({count})")
    if "tail" in lat:
        print(f"op_ms.tail {lat['tail']!r} ms (p{lat['tail_pct']:g}, n={lat['n']})")
    else:
        print(f"op_ms.tail omitted (n={lat['n']}: fewer than 10 samples beyond p90)")
    return metrics


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="shrink the inputs (smoke tests only)")
    args = ap.parse_args(argv)
    if not (args.seconds > 0.0 and 0.0 < args.scale <= 1.0):
        ap.error("--seconds must be > 0 and --scale in (0, 1]")

    if not (ROOT / "src" / "relplasma" / "__init__.py").is_file():
        print(f"error: no relplasma sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    deadline = monotonic() + DEADLINE_S
    env = worker_env()
    env_info = machine()
    try:
        setup = None if args.trace else measure_setup(env, deadline)
        cmd = [str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--scale", repr(args.scale)]
        if args.trace:
            out_dir = HERE / "out"
            out_dir.mkdir(exist_ok=True)
            cmd += ["--spans", str(out_dir / f"spans_{args.workload}.npz")]
        worker = json.loads(run_child(cmd, env, deadline).strip().splitlines()[-1])
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    metrics = report(args, worker, setup, env_info)
    print(json.dumps({"correct": worker["verdict"]["unexpected"] == 0,
                      "attempted": worker["attempted"],
                      "failed": worker["verdict"]["failed"],
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
