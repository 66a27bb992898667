"""Run reporting: per-cell wall time and worker-utilization statistics.

Every executed grid produces a :class:`RunReport` so suite-scale runs can be
profiled without rerunning them: which cells dominated wall time, how much of
the worker pool was actually busy, and how many cells were replayed from the
artifact store instead of recomputed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from .cells import CellResult

__all__ = ["RunReport"]


@dataclass(frozen=True)
class RunReport:
    """Wall-clock and utilization summary of one executed grid.

    ``cells`` holds the grid's :class:`~repro.runtime.cells.CellResult`\\ s in
    grid order.  ``metrics`` optionally carries the run's telemetry — the
    :meth:`repro.obs.metrics.MetricsRegistry.snapshot` of everything its
    cells recorded, on whichever processes ran them.
    """

    total_seconds: float
    max_workers: int
    cells: tuple["CellResult", ...]
    metrics: dict | None = None

    # ------------------------------------------------------------- statistics
    @property
    def n_cells(self) -> int:
        return len(self.cells)

    @property
    def n_cached(self) -> int:
        return sum(1 for cell in self.cells if cell.cached)

    @property
    def n_computed(self) -> int:
        return self.n_cells - self.n_cached

    @property
    def busy_seconds(self) -> float:
        """Total wall time spent inside freshly computed cells."""
        return float(sum(cell.wall_seconds for cell in self.cells if not cell.cached))

    @property
    def utilization(self) -> float:
        """Busy worker-seconds divided by available worker-seconds (0..1+).

        Values near 1 mean the pool was saturated; values well below 1 mean
        workers sat idle (stragglers, too-coarse chunks, or store replays).
        Serial runs report their compute density (busy / elapsed).
        """
        available = self.total_seconds * self.max_workers
        if available <= 0:
            return 0.0
        return self.busy_seconds / available

    @property
    def n_workers_used(self) -> int:
        return len({cell.worker for cell in self.cells if not cell.cached})

    def slowest(self, n: int = 5) -> tuple["CellResult", ...]:
        """The ``n`` computed cells with the largest wall time."""
        computed = [cell for cell in self.cells if not cell.cached]
        computed.sort(key=lambda cell: cell.wall_seconds, reverse=True)
        return tuple(computed[: max(0, int(n))])

    # -------------------------------------------------------------- rendering
    def summary(self) -> str:
        """Human-readable multi-line summary of the run and its three slowest cells."""
        lines = [
            (
                f"runtime: {self.n_cells} cells "
                f"({self.n_computed} computed, {self.n_cached} cached) "
                f"in {self.total_seconds:.2f}s on {self.max_workers} worker(s)"
            ),
            (
                f"  busy {self.busy_seconds:.2f}s, "
                f"utilization {self.utilization:.0%}, "
                f"{self.n_workers_used} worker(s) used"
            ),
        ]
        for cell in self.slowest(3):
            lines.append(
                f"  slowest: {cell.dataset}/{cell.model}#{cell.run_index} "
                f"{cell.wall_seconds:.3f}s"
            )
        return "\n".join(lines)
