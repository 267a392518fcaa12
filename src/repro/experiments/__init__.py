"""Experiment harness reproducing every figure of the paper's evaluation."""

from .bench import (
    BenchCellResult,
    bench_mapping_cell,
    default_bench_cells,
    run_bench_cells,
    write_bench,
)
from .faults import CHAOS_SCHEMES, chaos_sweep, degradation_curve
from .figures import (
    fig3_image_overlap,
    fig4_sat_overlap,
    fig5a_replication_benefit,
    fig5b_batch_size,
    fig6a_compute_scaling,
    fig6b_scheduling_overhead,
)
from .markdown import generate_experiments_markdown
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
    StreamRecord,
    render_stream_table,
    run_stream_config,
    stream_config_from_dict,
    stream_sweep,
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
    "generate_experiments_markdown",
    "CHAOS_SCHEMES",
    "chaos_sweep",
    "degradation_curve",
    "BenchCellResult",
    "bench_mapping_cell",
    "default_bench_cells",
    "run_bench_cells",
    "write_bench",
    "StreamConfig",
    "StreamRecord",
    "run_stream_config",
    "stream_config_from_dict",
    "stream_sweep",
    "render_stream_table",
]
