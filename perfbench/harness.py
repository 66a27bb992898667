"""Shared plumbing: the metric catalogue, host-speed scaling, run outcome, output.

Every workload module exposes ``run(seed, seconds, trace) -> Outcome``.  An
untraced run (``trace=False``) reports the end-to-end metrics of
``BENCHMARK.json``; a traced run reports its per-layer metrics.  Metrics a
workload does not exercise (the gateway's on ``paper-fit-score``, say) are
reported as 0.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
#: Trace files and other run leftovers (ignored by git).
OUT = ROOT / "perfbench" / "out"
#: An untraced run sets up this many times, each set-up followed by its share
#: of the timed work; setup_s, fit_s and window_p99_ms are medians over them.
SETUP_REPEATS = 5
#: Thread-count variables ``run.py`` pins to 1 for itself and its children.
THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS")
#: Closed loops recalibrate the host speed (and sample memory) this often.
CALIBRATE_EVERY_S = 0.5
#: Seconds one calibration kernel takes at the reference host speed: the
#: fast state of the 2-vCPU VM the benchmark was defined on.
REFERENCE_KERNEL_S = 0.002

_SMALL = np.arange(7.0)
_MATRIX = np.random.default_rng(0).standard_normal((256, 512))


def _kernel() -> float:
    """Time a fixed mix of the benchmark's two kinds of work, seconds.

    Small-array numpy arithmetic driven from a Python loop (what
    featurization does) and a float matmul (what scoring and fitting do).
    """
    start = time.perf_counter()
    values = _SMALL
    for _ in range(500):
        values = values * 1.0000001 + 0.5
        values.sum()
    for _ in range(2):
        _MATRIX @ _MATRIX[:64].T
    return time.perf_counter() - start


class HostSpeed:
    """Converts ``time.perf_counter`` readings to seconds at the reference speed.

    A shared host's speed swings by up to 1.8x over tens of seconds (other
    tenants' load), and every timing swings with it.  :meth:`calibrate` times
    a fixed kernel and sets a knot: between two knots the clock runs at the
    mean of their speeds relative to ``REFERENCE_KERNEL_S``, and it stands
    still while the kernel runs, so calibrating between timed calls adds
    nothing to any timing.  A timestamp must lie between two knots.
    """

    def __init__(self) -> None:
        self.wall: list = []
        self.reference: list = []
        self.speeds: list = []

    def calibrate(self) -> None:
        start = time.perf_counter()
        speed = REFERENCE_KERNEL_S / statistics.median(_kernel() for _ in range(3))
        end = time.perf_counter()
        if self.wall:
            mean = (self.speeds[-1] + speed) / 2
            self.reference.append(self.reference[-1] + (start - self.wall[-1]) * mean)
        else:
            self.reference.append(0.0)
        self.wall += [start, end]
        self.reference.append(self.reference[-1])
        self.speeds += [speed, speed]

    def due(self) -> bool:
        """Whether ``CALIBRATE_EVERY_S`` has passed since the last knot."""
        return time.perf_counter() - self.wall[-1] >= CALIBRATE_EVERY_S

    def __call__(self, stamps):
        """Reference-speed time of one reading or an array of them."""
        return np.interp(stamps, self.wall, self.reference)

    def seconds(self, start: float, end: float) -> float:
        return float(self(end) - self(start))

    def median_speed(self) -> float:
        return median(self.speeds[::2])


#: The run's host-speed clock; every timing metric is read through it.
SPEED = HostSpeed()


def catalogue() -> dict:
    """``{"end_to_end": {name: unit}, "per_layer": {name: unit}}`` from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        kind: {metric["name"]: metric["unit"] for metric in spec[kind]}
        for kind in ("end_to_end", "per_layer")
    }


@dataclass
class Outcome:
    """What one workload run measured and whether its outputs were correct."""

    metrics: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    checks: list = field(default_factory=list)  # (name, ok, detail)
    info: dict = field(default_factory=dict)

    def check(self, name: str, ok: bool, detail: str = "", failures: int = 0) -> None:
        """Record one correctness gate; ``failures`` windows count as failed."""
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += max(int(failures), 1)

    @property
    def correct(self) -> bool:
        return all(ok for _, ok, _ in self.checks)


def percentile_ms(seconds, q: float) -> float:
    """The ``q``-th percentile of a list of durations, in milliseconds."""
    return float(np.percentile(np.asarray(seconds, dtype=float), q)) * 1e3


def median(values) -> float:
    return float(statistics.median(list(values)))


def rss_mb() -> float:
    """Resident set size of this process right now, MB."""
    with open("/proc/self/statm") as stream:
        pages = int(stream.read().split()[1])
    return pages * os.sysconf("SC_PAGE_SIZE") / 2**20


def segments(build, measure):
    """Set up and measure ``SETUP_REPEATS`` times in turn; time every set-up.

    ``measure(context, index)`` runs one timed segment on a fresh set-up and
    returns its result.  Interleaving spreads the set-ups and the timed work
    over the whole run.  Set-up times are at the reference host speed.
    """
    setup_times, results = [], []
    for index in range(SETUP_REPEATS):
        SPEED.calibrate()
        start = time.perf_counter()
        context = build()
        end = time.perf_counter()
        SPEED.calibrate()
        setup_times.append(SPEED.seconds(start, end))
        results.append(measure(context, index))
    return setup_times, results


def environment() -> dict:
    """Cores, versions, BLAS, thread pins, host speed and commit, for every result."""
    blas = {}
    try:
        config = np.show_config(mode="dicts")
        blas = config.get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy < 1.25 has no dict mode
        pass
    commit = None
    if (ROOT / ".git").exists():  # an exported checkout has no history to ask
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"],
                cwd=ROOT,
                capture_output=True,
                text=True,
                timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas.get("name"),
        "blas_version": blas.get("version"),
        "blas_config": blas.get("openblas configuration"),
        "thread_pins": {name: os.environ.get(name) for name in THREAD_VARIABLES},
        "host_speed": SPEED.median_speed() if SPEED.speeds else None,
        "commit": commit,
    }


def emit(workload: str, seed: int, seconds: int, trace: bool, outcome: Outcome) -> None:
    """Print the human-readable report, then the one-line JSON result."""
    kind = "per_layer" if trace else "end_to_end"
    units = catalogue()[kind]
    unknown = sorted(set(outcome.metrics) - set(units))
    if unknown:
        raise KeyError(f"metrics missing from BENCHMARK.json {kind}: {unknown}")
    metrics = {
        name: {"value": float(outcome.metrics.get(name, 0.0)), "unit": unit}
        for name, unit in units.items()
    }
    print(f"perfbench {workload} seed={seed} seconds={seconds} trace={int(trace)}")
    for name, metric in metrics.items():
        print(f"  {name:<46} {metric['value']:>14.6g} {metric['unit']}")
    for name, ok, detail in outcome.checks:
        print(f"  check {name}: {'ok' if ok else 'FAILED'} {detail}")
    print("info " + json.dumps(outcome.info, sort_keys=True))
    print("env " + json.dumps(environment(), sort_keys=True))
    sys.stdout.flush()
    print(
        json.dumps(
            {
                "correct": outcome.correct,
                "attempted": max(int(outcome.attempted), 1),
                "failed": int(outcome.failed),
                "metrics": metrics,
            }
        ),
        flush=True,
    )
