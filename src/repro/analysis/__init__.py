"""Analysis utilities behind the paper's stability, robustness and fairness studies."""

from .fairness import PAPER_GROUPS, GroupResult, evaluate_groups, group_accuracy_table
from .robustness import BitflipPoint, BitflipSweepResult, bitflip_sweep
from .spectra import KernelShapeReport, encoded_data_spread, kernel_shape_report
from .stability import DimensionSweepPoint, DimensionSweepResult

__all__ = [
    "PAPER_GROUPS",
    "GroupResult",
    "evaluate_groups",
    "group_accuracy_table",
    "BitflipPoint",
    "BitflipSweepResult",
    "bitflip_sweep",
    "KernelShapeReport",
    "encoded_data_spread",
    "kernel_shape_report",
    "DimensionSweepPoint",
    "DimensionSweepResult",
]
