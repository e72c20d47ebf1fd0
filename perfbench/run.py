"""lattice-gf benchmark: one closed-loop client, one worker process at a time.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the package is imported from ``src/``.  Each
pass starts a fresh interpreter (``worker.py``), so the package's solution
cache starts cold as it does for a real script or CLI call.  Passes repeat
until the next one would overrun ``--seconds``.  End-to-end times are scaled
to reference host speed by the kernel of ``calibrate.py``, timed next to the
work; the context line keeps the raw times.

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and reports the per-layer metrics.  The last
stdout line is the result object; the line before it records the run's
context (versions, source digest, sample counts, raw times).  ``--smoke`` runs every
workload once at tiny sizes in both modes and checks that the metric names
emitted equal those declared in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
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
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402
from worker import cli_env  # noqa: E402

WORKER = HERE / "worker.py"
SPEC = ROOT / "BENCHMARK.json"
SETUP_PROBES = 4
CLI_PROBES = 5
HARD_LIMIT_S = 150
WORKER_TIMEOUT_S = 170


class BenchmarkError(Exception):
    pass


# -- worker processes ------------------------------------------------------------------


def spawn_worker(*args: str) -> tuple[float, dict | None, float]:
    """Start a worker; returns (set-up seconds, report, whole-process seconds)."""
    command = [sys.executable, str(WORKER), "--root", str(ROOT), *args]
    start = time.perf_counter()
    proc = subprocess.Popen(command, cwd=ROOT, env=cli_env(ROOT), stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    total = time.perf_counter() - start
    if ready.strip() != "READY" or proc.returncode != 0:
        raise BenchmarkError(f"worker {' '.join(args)} failed with exit code {proc.returncode}")
    lines = rest.strip().splitlines()
    return setup, json.loads(lines[-1]) if lines else None, total


def time_command(code: str) -> float:
    start = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=cli_env(ROOT), check=True,
                   timeout=WORKER_TIMEOUT_S)
    return time.perf_counter() - start


def pass_args(workload, seed, scale, traced) -> list[str]:
    args = ["--workload", workload, "--seed", str(seed), "--scale", scale]
    return args + ["--trace"] if traced else args


# -- measurement -----------------------------------------------------------------------


class Run:
    def __init__(self, workload: str, seed: int, seconds: float, scale: str):
        self.workload, self.seed, self.seconds, self.scale = workload, seed, seconds, scale
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.pass_seconds: list[float] = []
        self.raw_setups: list[float] = []
        self.raw_passes: list[dict] = []
        # Medians need a few passes; the smoke check needs only one.
        self.min_passes = 3 if scale == "full" else 1

    def elapsed(self) -> float:
        return time.perf_counter() - self.started

    def another_step_fits(self, done: int, minimum: int, passes_per_step: int = 1) -> bool:
        if done < minimum:
            return True
        projected = self.elapsed() + passes_per_step * statistics.median(self.pass_seconds)
        return projected <= self.seconds and projected <= HARD_LIMIT_S

    def one_pass(self, traced: bool) -> tuple[float, dict]:
        setup, report, total = spawn_worker(*pass_args(self.workload, self.seed, self.scale, traced))
        self.pass_seconds.append(total)
        self.raw_passes.append({"task_s": report["task_s"], "kernel_s": report["kernel_s"]})
        for task_problems in report["problems"]:
            self.attempted += 1
            if task_problems:
                self.failed += 1
                self.problems += task_problems
        return setup, report

    def probe_setup(self) -> float:
        """Set-up time of one probe worker, at reference speed."""
        before = calibrate.sample()
        setup = spawn_worker("--probe")[0]
        self.raw_setups.append(setup)
        return calibrate.scaled(setup, (before + calibrate.sample()) / 2)

    def end_to_end(self) -> tuple[dict, dict]:
        # Set-up probes are spread over the run, like the passes, so that
        # both see the same share of any slow spell of the machine.
        setups = [self.probe_setup() for _ in range(SETUP_PROBES)]
        walls, tasks, peaks = [], [], []
        while self.another_step_fits(len(walls), self.min_passes):
            setups.append(self.probe_setup())
            _, report = self.one_pass(traced=False)
            task_s = scaled_tasks(report)
            walls.append(sum(task_s))
            tasks += task_s
            peaks.append(report["peak_rss_mb"])
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "wall_s": (statistics.median(walls), "s"),
            "task_p50_s": (statistics.median(tasks), "s"),
            "peak_rss_mb": (statistics.median(peaks), "MB"),
        }
        samples = {"setup": len(setups), "passes": len(walls), "tasks": len(tasks),
                   "pass_wall_s": walls, "raw_setup_s": self.raw_setups, "raw_passes": self.raw_passes}
        return metrics, samples

    def per_layer(self) -> tuple[dict, dict]:
        bare = statistics.median(time_command("pass") for _ in range(CLI_PROBES))
        imported = statistics.median(time_command("import lattice_gf.cli") for _ in range(CLI_PROBES))
        plain_walls, traced_walls, layer_runs = [], [], []
        while self.another_step_fits(len(traced_walls), 1, passes_per_step=2):
            for traced in (False, True):
                _, report = self.one_pass(traced)
                (traced_walls if traced else plain_walls).append(sum(scaled_tasks(report)))
                if traced:
                    layer_runs.append(combine_layers(report["layers"]))
        layers = {name: statistics.median(run[name] for run in layer_runs) for name in layer_runs[0]}
        metrics = derive_layer_metrics(layers)
        metrics["cli.process_start_s"] = (bare, "s")
        metrics["cli.import_s"] = (imported - bare, "s")
        metrics["trace.wall_s"] = (statistics.median(traced_walls), "s")
        metrics["trace.overhead_s"] = (statistics.median(traced_walls) - statistics.median(plain_walls), "s")
        samples = {"cli_probes": CLI_PROBES, "passes": len(plain_walls), "traced_passes": len(traced_walls)}
        return metrics, samples


def scaled_tasks(report: dict) -> list[float]:
    """Task times at reference speed; task i ran between kernel samples i and i + 1."""
    kernel_s = report["kernel_s"]
    return [calibrate.scaled(t, (kernel_s[i] + kernel_s[i + 1]) / 2) for i, t in enumerate(report["task_s"])]


def combine_layers(reports: list[dict]) -> dict:
    """Sum the tracer reports of the worker and of its traced CLI processes."""
    total = {}
    for report in reports:
        for name, value in report.items():
            if name == "series.max_coeff_bits":
                total[name] = max(total.get(name, 0), value)
            else:
                total[name] = total.get(name, 0) + value
    return total


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def derive_layer_metrics(layers: dict) -> dict:
    metrics = {}
    for name, value in layers.items():
        if name.endswith(".calls"):
            metrics[name] = (value, "count")
        elif name.endswith(".self_s"):
            metrics[name] = (value, "s")
    metrics["series.max_coeff_bits"] = (layers["series.max_coeff_bits"], "bits")
    metrics["loops.reuse_ratio"] = (_ratio(layers["loops.distinct_series"], layers["loops.series_built"]), "ratio")
    metrics["system.solution_cache.hit_ratio"] = (_ratio(layers["system.solve_hits"], layers["system.solve_calls"]), "ratio")
    metrics["oracle.cell_steps"] = (layers["oracle.cell_steps"], "count")
    metrics["oracle.cell_steps_per_s"] = (_ratio(layers["oracle.cell_steps"], layers["oracle.count.self_s"]), "1/s")
    metrics["cli.output_bytes"] = (layers["cli.output_bytes"], "bytes")
    return metrics


# -- run context -----------------------------------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return done.stdout.strip() or None


def load_spec() -> dict:
    return json.loads(SPEC.read_text())


def context(run: Run, trace: bool, samples: dict) -> dict:
    why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = None
    return {
        "workload": run.workload,
        "why": why.get(run.workload),
        "baseline_rows": workloads.BASELINE_ROWS[run.workload],
        "seed": run.seed,
        "seconds": run.seconds,
        "trace": trace,
        "scale": run.scale,
        "samples": samples,
        "elapsed_s": run.elapsed(),
        "fail_ratio": _ratio(run.failed, run.attempted),
        "problems": run.problems[:20],
        "python": platform.python_version(),
        "numpy": numpy_version,
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def measure(workload: str, seed: int, seconds: float, trace: bool, scale: str) -> tuple[dict, dict]:
    run = Run(workload, seed, seconds, scale)
    metrics, samples = run.per_layer() if trace else run.end_to_end()
    result = {
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    return result, context(run, trace, samples)


# -- entry points ----------------------------------------------------------------------


def smoke() -> int:
    spec = load_spec()
    names = {False: [m["name"] for m in spec["end_to_end"]], True: [m["name"] for m in spec["per_layer"]]}
    declared_workloads = [w["name"] for w in spec["workloads"]]
    ok = sorted(declared_workloads) == sorted(workloads.WORKLOADS)
    if not ok:
        print(f"workloads differ: {declared_workloads} vs {list(workloads.WORKLOADS)}", file=sys.stderr)
    for workload in declared_workloads:
        for trace in (False, True):
            result, info = measure(workload, 1, 0, trace, "smoke")
            emitted, declared = sorted(result["metrics"]), sorted(names[trace])
            ok = ok and result["correct"] and emitted == declared
            print(f"{workload:15s} trace={int(trace)} correct={result['correct']} "
                  f"attempted={result['attempted']} names={'ok' if emitted == declared else 'MISMATCH'}"
                  f" elapsed={info['elapsed_s']:.1f}s", file=sys.stderr)
            if emitted != declared:
                print(f"  emitted-only {sorted(set(emitted) - set(declared))}"
                      f" declared-only {sorted(set(declared) - set(emitted))}", file=sys.stderr)
            for problem in info["problems"]:
                print(f"  {problem}", file=sys.stderr)
    print(json.dumps({"smoke": "pass" if ok else "fail"}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    if not (ROOT / "src" / "lattice_gf" / "__init__.py").is_file():
        print(f"no lattice_gf sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            parser.error("--workload is required")
        result, info = measure(args.workload, args.seed, args.seconds, bool(args.trace), "full")
    except (BenchmarkError, subprocess.SubprocessError, OSError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    for name, metric in result["metrics"].items():
        print(f"{name:40s} {metric['value']:.6g} {metric['unit']}", file=sys.stderr)
    print(json.dumps({"context": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
