"""Whole-cycle benchmark of the watchdog (see README.md).

Usage, from the repository root::

    python3 cyclebench/run.py --workload cold-cycle-mixed --seed 1 \
        --seconds 20 --trace 0

Builds the workload's warm state (several times; the median set-up is
reported), runs whole passes of its cycle path for about ``--seconds``
(the timed section),
checks the outputs with the benchmark's own arithmetic, and prints one
JSON object as the last line of standard output.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` is the separate traced run that
reports the per-layer metrics.  Metric names and units come from
``BENCHMARK.json`` at the repository root.
"""

import argparse
import cProfile
import json
import math
import os
import pstats
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Set-ups per run; ``setup_s`` counts their median.
SETUPS = 3

#: Fresh interpreters timed per run from start to the end of the
#: benchmark's and the program's imports; ``setup_s`` counts their median.
IMPORTS = 5

#: Work counters read from the metrics registry, diffed around a pass.
REGISTRY_COUNTERS = (
    "sim.trials",
    "sim.events",
    "sim.packets",
    "sim.queue_drops",
    "cache.stores",
    "cache.hits",
    "cache.bytes_written",
    "service.trials_ingested",
)


def parse_args(argv: List[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


class Runner:
    """Runs passes of one workload and collects their measurements."""

    def __init__(self, workload, work_dir: Path) -> None:
        from repro.obs.metrics import diff_snapshots, get_registry

        self.workload = workload
        self.work_dir = work_dir
        self.registry = get_registry()
        self.diff = diff_snapshots
        self.passes_run = 0
        self.attempted = 0
        self.last_dir = None

    def run(
        self, passes: int, around=None
    ) -> Tuple[List[float], List[float], List[Dict]]:
        """``passes`` whole passes; per-pass wall, CPU and counters.

        ``around`` (enable, disable) brackets only the pass itself, so a
        profiler sees none of the benchmark's bookkeeping.
        """
        walls, cpus, counters = [], [], []
        for _ in range(passes):
            if self.last_dir is not None:
                shutil.rmtree(self.last_dir)
            self.last_dir = self.work_dir / f"pass-{self.passes_run}"
            self.passes_run += 1
            before = self.registry.snapshot()
            if around:
                around[0]()
            wall0, cpu0 = time.perf_counter(), time.process_time()
            self.attempted += self.workload.run_pass(self.last_dir)
            cpus.append(time.process_time() - cpu0)
            walls.append(time.perf_counter() - wall0)
            if around:
                around[1]()
            delta = self.diff(before, self.registry.snapshot())["metrics"]
            row = {
                name: delta.get(name, {}).get("value", 0)
                for name in REGISTRY_COUNTERS
            }
            row.update(self.workload.counters())
            counters.append(row)
        return walls, cpus, counters


def traced_metrics(
    runner: Runner, passes: int, work_dir: Path
) -> Tuple[Dict[str, float], List[Dict]]:
    """Per-layer metrics: untraced, span-and-timer, and profiled passes."""
    import layers
    from repro.obs import tracing

    walls_u, cpus_u, counters = runner.run(passes)
    timers = layers.CallTimers()
    spans_path = work_dir / "spans.jsonl"
    tracing.configure(spans_path)
    timers.install()
    try:
        walls_t, _cpus, more = runner.run(passes)
    finally:
        timers.remove()
        tracing.disable()
    counters += more
    profiler = cProfile.Profile()
    _walls, _cpus, more = runner.run(
        passes, around=(profiler.enable, profiler.disable)
    )
    counters += more
    metrics = dict(counters[0])
    packets, events = metrics["sim.packets"], metrics["sim.events"]
    metrics["sim.events_per_packet"] = events / packets if packets else 0.0
    metrics["sim.host_us_per_event"] = (
        statistics.median(cpus_u) / events * 1e6 if events else 0.0
    )
    metrics["trace.overhead"] = (
        statistics.median(walls_t) / statistics.median(walls_u)
    )
    metrics.update(timers.metrics(passes))
    metrics.update(
        layers.span_self_times(tracing.read_spans(spans_path), passes)
    )
    by_layer, self_total = layers.profile_layers(
        pstats.Stats(profiler), SRC / "repro", passes
    )
    metrics.update(by_layer)
    metrics["profile.total_s"] = self_total
    metrics["profile.unattributed_share"] = (
        1 - sum(by_layer.values()) / self_total
    )
    return metrics, counters


def import_seconds() -> float:
    """Median wall time of a fresh interpreter that imports the run."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(HERE), str(SRC)]))
    command = [sys.executable, "-c", "import run, workloads"]
    walls = []
    for _ in range(IMPORTS):
        started = time.perf_counter()
        subprocess.run(command, env=env, check=True, timeout=60)
        walls.append(time.perf_counter() - started)
    return statistics.median(walls)


def measure(args: argparse.Namespace, spec: Dict, work_dir: Path) -> Dict:
    import workloads

    cls = workloads.WORKLOADS[args.workload]
    import_s = import_seconds()
    setups = []
    for index in range(SETUPS):
        started = time.perf_counter()
        workload = cls(args.seed)
        workload.setup(work_dir / f"setup-{index}")
        setups.append(time.perf_counter() - started)
    for index in range(SETUPS - 1):
        shutil.rmtree(work_dir / f"setup-{index}", ignore_errors=True)
    passes = max(1, math.ceil(args.seconds / cls.nominal_pass_s))
    runner = Runner(workload, work_dir)
    if args.trace:
        values, counters = traced_metrics(
            runner, max(1, passes // 3), work_dir
        )
        wanted = spec["per_layer"]
    else:
        walls, cpus, counters = runner.run(passes)
        # The section's seconds, as the pass count times the median pass,
        # so that one pass stalled by another process's disk or CPU burst
        # does not move the figure.  With two passes this is the sum.
        values = {
            "setup_s": import_s + statistics.median(setups),
            "cycle_s": passes * statistics.median(walls),
            "cycle_cpu_s": passes * statistics.median(cpus),
            "peak_rss_mb": (
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            ),
        }
        wanted = spec["end_to_end"]
    failures = workload.check(counters[-1])
    if any(row != counters[0] for row in counters):
        failures.append("work counters differ between passes of one seed")
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(
        f"check note: {len(workload.window_edge)} trial(s) exceed the link "
        "rate and pass only by the window-edge packet allowance",
        file=sys.stderr,
    )
    for trial in workload.window_edge:
        print(f"check note: over the link rate: {trial}", file=sys.stderr)
    print("counters " + json.dumps(counters[0], sort_keys=True))
    missing = [m["name"] for m in wanted if m["name"] not in values]
    if missing:
        raise SystemExit(f"error: no value computed for {missing}")
    return {
        "correct": not failures,
        "attempted": runner.attempted,
        "failed": 0,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in wanted
        },
    }


def main(argv: List[str]) -> int:
    args = parse_args(argv)
    spec_path = ROOT / "BENCHMARK.json"
    if not (SRC / "repro").is_dir() or not spec_path.is_file():
        print(f"error: no program sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # A terminated run still removes its work directory.
    signal.signal(signal.SIGTERM, lambda _sig, _frame: sys.exit(143))
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch))
    try:
        result = measure(args, spec, work_dir)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
