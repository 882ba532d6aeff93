"""hhbounds benchmark: verdict throughput on two workloads.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --seed 1            # every workload in turn

Run from the repository root. The package is imported from ``src/`` (it
need not be installed) and the CLI runs as ``python -m hhbounds.cli``.
Each workload runs in fresh worker processes: ``SETUP_SAMPLES - 1`` that
only set up, then one that also measures. The loop is closed, with one
client and no threads. ``--trace 0`` prints the end-to-end metrics and
``--trace 1`` the per-layer ones; the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``. See
perfbench/README.md for the workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7
RUN_BUDGET_S = 170  # per workload: a run must end within 180 s


def environment() -> dict:
    def version(pkg):
        try:
            return metadata.version(pkg)
        except metadata.PackageNotFoundError:
            return None

    cpu = None
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), None)
    except OSError:
        pass
    llc = None
    cache = Path("/sys/devices/system/cpu/cpu0/cache")
    if cache.is_dir():
        levels = sorted(cache.glob("index*"), key=lambda p: (p / "level").read_text())
        if levels:
            llc = (levels[-1] / "size").read_text().strip()
    return {
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "llc": llc,
    }


def worker_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(workload: str, seed: int, seconds: float, mode: str, env: dict, deadline: float) -> dict:
    workdir = ROOT / ".bench_build" / f"perfbench-{os.getpid()}-{workload}"
    argv = [
        sys.executable, str(HERE / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", repr(seconds), "--mode", mode,
        "--workdir", str(workdir), "--launched", repr(time.monotonic()),
    ]
    proc = subprocess.run(
        argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} worker ({mode}) exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def run_workload(workload, seed, seconds, trace, env, units) -> dict:
    deadline = time.monotonic() + RUN_BUDGET_S
    setups = [
        spawn(workload, seed, seconds, "setup", env, deadline)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    result = spawn(workload, seed, seconds, "trace" if trace else "run", env, deadline)
    problems = result.pop("problems")
    wall = result.pop("wall", None)
    speed = result.pop("speed", None)
    defect_band = result.pop("defect_band_failed_frac", None)
    if not trace:
        result["metrics"]["setup_s"] = statistics.median(
            [s["setup_s"] for s in setups] + [result["metrics"]["setup_s"]]
        )
        wall["setup_s"] = statistics.median(
            [s["wall_setup_s"] for s in setups] + [wall["setup_s"]]
        )
    if result["metrics"].keys() != units.keys():
        raise RuntimeError(
            f"{workload} metrics differ from BENCHMARK.json: "
            f"{sorted(result['metrics'].keys() ^ units.keys())}"
        )
    result["metrics"] = {
        name: {"value": value, "unit": units[name]}
        for name, value in sorted(result["metrics"].items())
    }
    print(f"== {workload} (seed {seed}, {seconds:g} s, trace {int(trace)}): "
          f"{result['attempted']} ops, {result['failed']} failed, "
          f"failed_frac {result['failed'] / result['attempted']:.4g}")
    if defect_band is not None:
        print(f"  known-defect inputs, untimed: defect_band_failed_frac {defect_band:.4g}")
    if speed is not None:
        print(f"  host-speed factor over the run: {json.dumps(speed)}; "
              "each time below is scaled by the factor of the samples nearest it")
    for name, m in result["metrics"].items():
        raw = f"  (wall {wall[name]:.6g})" if wall and name != "peak_rss_mb" else ""
        print(f"  {name:38s} {m['value']:.6g} {m['unit']}{raw}")
    for problem in problems:
        print(f"  check failed: {problem}", file=sys.stderr)
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = tuple(w["name"] for w in spec["workloads"])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=workloads + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "hhbounds" / "__init__.py").is_file():
        print(f"error: no hhbounds sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    metrics = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in metrics}
    print("env: " + json.dumps(environment()))
    env = worker_env()
    names = workloads if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = run_workload(
                name, args.seed, args.seconds, bool(args.trace), env, units
            )
    except (RuntimeError, subprocess.TimeoutExpired, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{wl}.{name}": m for wl, r in results.items() for name, m in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
