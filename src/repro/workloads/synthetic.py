"""Direct synthetic batch generator with explicit sharing control.

Used by unit tests, property tests and ablation benchmarks when the domain
flavour of the SAT/IMAGE emulators is unnecessary: a batch of ``num_tasks``
tasks drawing ``files_per_task`` files from a pool, where each draw comes
from a small *hot* pool with probability ``hot_probability`` — a direct dial
for batch-shared I/O intensity.
"""

from __future__ import annotations

import numpy as np

from ..batch import Batch, FileInfo, Task

__all__ = ["generate_synthetic_batch"]


def generate_synthetic_batch(
    num_tasks: int,
    num_files: int,
    files_per_task: int,
    num_storage: int,
    hot_probability: float = 0.0,
    hot_pool_fraction: float = 0.1,
    file_size_mb: float = 50.0,
    size_spread: float = 0.0,
    compute_s_per_mb: float = 0.001,
    seed: int = 0,
) -> Batch:
    """Generate a synthetic batch.

    Parameters
    ----------
    hot_probability:
        Probability that each file draw comes from the hot pool (the first
        ``hot_pool_fraction`` of the files, at least one). 0 gives uniform
        draws. A task that holds every hot file draws the rest of its files
        from those it does not hold yet, so no value stalls the draws.
    size_spread:
        Relative +/- range of uniform file-size variation (0 = constant).
    """
    if files_per_task > num_files:
        raise ValueError("files_per_task cannot exceed num_files")
    if not 0 <= hot_probability <= 1:
        raise ValueError("hot_probability must be in [0, 1]")
    rng = np.random.default_rng(seed)
    hot_count = max(1, int(num_files * hot_pool_fraction))

    sizes = file_size_mb * (
        1.0 + size_spread * rng.uniform(-1.0, 1.0, size=num_files)
    )
    files = {
        f"syn{i:05d}": FileInfo(f"syn{i:05d}", float(sizes[i]), i % num_storage)
        for i in range(num_files)
    }
    ids = list(files)

    tasks = []
    for k in range(num_tasks):
        chosen: set[int] = set()
        while len(chosen) < files_per_task:
            if chosen.issuperset(range(hot_count)):
                rest = [i for i in range(num_files) if i not in chosen]
                picks = rng.choice(
                    len(rest), size=files_per_task - len(chosen), replace=False
                )
                chosen.update(rest[int(j)] for j in picks)
            elif rng.random() < hot_probability:
                chosen.add(int(rng.integers(0, hot_count)))
            else:
                chosen.add(int(rng.integers(0, num_files)))
        file_ids = tuple(ids[i] for i in sorted(chosen))
        volume = sum(files[f].size_mb for f in file_ids)
        tasks.append(
            Task(
                task_id=f"task{k:05d}",
                files=file_ids,
                compute_time=volume * compute_s_per_mb,
            )
        )
    return Batch(tasks, files)
