"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload cohort-paper --seed 1 --seconds 30 --trace 0

``--trace 0`` measures the end-to-end metrics of ``BENCHMARK.json`` with
tracing off; ``--trace 1`` runs an untraced half and a traced half and prints
the per-layer metrics.  The last line of standard output is the JSON result
``{"correct", "attempted", "failed", "metrics"}``.  Exits with code 2, printing
no result, when the repository's ``src/`` tree is missing.

Whichever way a run ends, every process it started has ended and been
reaped before it exits: the fabric's workers, the gateway process and the
``multiprocessing`` resource tracker that shared-memory publishing starts.
"""

from __future__ import annotations

import argparse
import importlib
import os
import signal
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Workload name -> the perfbench module whose ``run`` measures it.
RUNNERS = {
    "cohort-paper": "serving",
    "paper-fit-score": "paper",
}
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}
#: Seconds a leftover child gets to end on SIGTERM before it is killed.
STOP_GRACE_S = 5.0


def children() -> list:
    """Pids whose parent is this process, zombies included."""
    me = os.getpid()
    pids = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat") as stream:
                stat = stream.read()
        except OSError:
            continue
        if int(stat[stat.rindex(")") + 2 :].split()[1]) == me:
            pids.append(int(entry))
    return pids


def stop_children() -> None:
    """End and reap every child process.

    The resource tracker ignores SIGTERM and ends once every holder of its
    pipe has closed it, so it goes last: its pipe is closed (it then unlinks
    any leaked segment) and it is waited for.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    end_children(spare=getattr(tracker, "_pid", None))
    try:
        tracker._stop()
    except (AttributeError, OSError, ChildProcessError):
        pass
    end_children()


def end_children(spare=None) -> None:
    """SIGTERM every child but ``spare``, SIGKILL after ``STOP_GRACE_S``; reap."""
    deadline = time.monotonic() + STOP_GRACE_S
    while True:
        pids = [pid for pid in children() if pid != spare]
        if not pids:
            return
        signum = signal.SIGTERM if time.monotonic() < deadline else signal.SIGKILL
        for pid in pids:
            try:
                os.kill(pid, signum)
            except ProcessLookupError:
                pass
        settle = time.monotonic() + 0.5
        while time.monotonic() < settle:
            try:
                pid, _ = os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                break
            if pid == 0:
                time.sleep(0.01)


def on_sigterm(signum, frame) -> None:
    raise SystemExit(128 + signum)


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, on_sigterm)
    try:
        return measure(argv)
    finally:
        stop_children()


def measure(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=RUNNERS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    # Pin BLAS/OpenMP threads before numpy loads; children inherit the pins.
    os.environ.update(THREAD_PINS)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src"), str(ROOT), os.environ.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)

    from perfbench.harness import emit

    run = importlib.import_module(f"perfbench.{RUNNERS[args.workload]}").run
    trace = bool(args.trace)
    outcome = run(args.seed, args.seconds, trace)
    emit(args.workload, args.seed, args.seconds, trace, outcome)
    return 0


if __name__ == "__main__":
    sys.exit(main())
