"""Experiment harness reproducing every figure of the paper's evaluation."""

from .faults import CHAOS_SCHEMES, degradation_curve
from .figures import (
    fig3_image_overlap,
    fig4_sat_overlap,
    fig5a_replication_benefit,
    fig5b_batch_size,
    fig6a_compute_scaling,
    fig6b_scheduling_overhead,
)
from .report import Record, Table
from .runner import (
    ExperimentConfig,
    default_scheduler_kwargs,
    run_config,
    run_config_result,
)
from .sensitivity import replication_advantage_sweep
from .stream import (
    StreamConfig,
    run_stream_config,
    stream_config_from_dict,
)

__all__ = [
    "ExperimentConfig",
    "run_config",
    "run_config_result",
    "default_scheduler_kwargs",
    "Record",
    "Table",
    "fig3_image_overlap",
    "fig4_sat_overlap",
    "fig5a_replication_benefit",
    "fig5b_batch_size",
    "fig6a_compute_scaling",
    "fig6b_scheduling_overhead",
    "replication_advantage_sweep",
    "CHAOS_SCHEMES",
    "degradation_curve",
    "StreamConfig",
    "run_stream_config",
    "stream_config_from_dict",
]
