"""One benchmark pass in a fresh interpreter.

    python3 perfbench/worker.py --root ROOT --workload W --seed S --scale SCALE [--trace]
    python3 perfbench/worker.py --root ROOT --probe
    python3 perfbench/worker.py --root ROOT --cli-task ARGV_JSON

The worker imports the package from ``ROOT/src``, prints ``READY`` once the
first task could run, then runs every task of the pass one after another,
timing each and timing the calibration kernel (``calibrate.py``) before and
after each, and only then applies the correctness gate.  The last stdout line
is a JSON report.  ``--probe`` stops after ``READY``.  ``--cli-task`` runs one
CLI invocation in-process under the tracer; cli-mix's traced pass starts one
such process per invocation, so each still begins cold.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

CLI_TIMEOUT_S = 120


def _import_package(root: Path):
    sys.path.insert(0, str(root / "src"))
    import lattice_gf
    import lattice_gf.cli

    location = Path(lattice_gf.__file__).resolve()
    if root / "src" not in location.parents:
        raise SystemExit(f"lattice_gf was imported from {location}, not from {root / 'src'}")
    return lattice_gf


def _peak_rss_mb(children: bool) -> float:
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if children:
        peak = max(peak, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return peak / 1024


def cli_env(root: Path) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    return env


def run_cli_subprocess(root: Path, argv: list[str], traced: bool):
    if traced:
        command = [sys.executable, str(Path(__file__).resolve()), "--root", str(root),
                   "--cli-task", json.dumps(argv)]
    else:
        command = [sys.executable, "-m", "lattice_gf", *argv]
    done = subprocess.run(command, cwd=root, env=cli_env(root), capture_output=True,
                          text=True, timeout=CLI_TIMEOUT_S)
    if not traced:
        return (done.returncode, done.stdout, done.stderr), None
    if done.returncode != 0:
        raise RuntimeError(f"traced CLI worker failed: {done.stderr.strip()[-400:]}")
    report = json.loads(done.stdout.strip().splitlines()[-1])
    return (report["code"], report["out"], report["err"]), report["layers"]


def run_task(lattice_gf, root: Path, task: dict, traced: bool):
    """Run one task; returns (output, per-layer report of a traced CLI process)."""
    kind = task["kind"]
    if kind == "cli":
        return run_cli_subprocess(root, task["argv"], traced)
    if kind == "check":
        return getattr(lattice_gf.circulant, task["name"])(*task["args"]), None
    restriction = lattice_gf.PeriodicSet(tuple(task["residues"]), task["period"])
    starts = restriction.residues if kind == "requery" else (task["start"],)
    return {
        r: lattice_gf.restricted_path_gf(task["dim"], restriction, r, task["order"]).coeffs
        for r in starts
    }, None


def run_pass(lattice_gf, root: Path, workload: str, seed: int, scale: str, traced: bool) -> dict:
    import calibrate
    import workloads

    tracer = None
    if traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    tasks = workloads.build_tasks(workload, seed, scale)
    timings, outputs, child_layers = [], [], []
    # Kernel samples at every task boundary; task i lies between i and i + 1.
    kernel_s = [calibrate.sample()]
    for task in tasks:
        start = time.perf_counter()
        try:
            output, layers = run_task(lattice_gf, root, task, traced)
        except Exception as exc:  # a failing task is counted, not fatal
            output, layers = exc, None
        timings.append(time.perf_counter() - start)
        kernel_s.append(calibrate.sample())
        outputs.append(output)
        if layers:
            child_layers.append(layers)
    peak = _peak_rss_mb(children=workload == "cli-mix")
    if tracer is not None:
        tracer.phase = "gate"
    gate = workloads.Gate(lattice_gf, scale, tracer)
    problems = []
    for task, output in zip(tasks, outputs):
        if isinstance(output, Exception):
            problems.append([f"{task} raised {output!r}"])
            continue
        try:
            problems.append(gate.check(task, output))
        except Exception as exc:
            problems.append([f"checking {task} raised {exc!r}"])
    report = {"task_s": timings, "kernel_s": kernel_s, "peak_rss_mb": peak, "problems": problems}
    if tracer is not None:
        report["layers"] = [tracer.report(), *child_layers]
    return report


def run_cli_task(lattice_gf, argv: list[str]) -> dict:
    import workloads
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code, out, err = workloads.run_cli_in_process(lattice_gf.cli, argv, tracer)
    return {"code": code, "out": out, "err": err, "layers": tracer.report()}


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", required=True, type=Path)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--cli-task")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--scale", default="full")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()
    root = args.root.resolve()
    lattice_gf = _import_package(root)
    print("READY", flush=True)
    if args.probe:
        return
    if args.cli_task is not None:
        report = run_cli_task(lattice_gf, json.loads(args.cli_task))
    else:
        report = run_pass(lattice_gf, root, args.workload, args.seed, args.scale, args.trace)
    print(json.dumps(report))


if __name__ == "__main__":
    main()
