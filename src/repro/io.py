"""Batch serialization (JSON) for reproducible experiments.

Workload generators are deterministic given a seed, but downstream users
often need to pin the *exact* batch (e.g. to compare schedulers across
machines or library versions, or to feed externally-defined workloads into
the schedulers). This module round-trips batches through a small, versioned
JSON schema: ``repro workload --save`` writes it and ``repro run --load``
reads it. A finished run is serialized as its run manifest
(:mod:`repro.obs.export`).
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any

from .batch import Batch, FileInfo, Task

__all__ = [
    "batch_to_dict",
    "batch_from_dict",
    "save_batch",
    "load_batch",
]

SCHEMA_VERSION = 1


def batch_to_dict(batch: Batch) -> dict[str, Any]:
    """Lower a batch to plain JSON-ready data."""
    return {
        "schema": SCHEMA_VERSION,
        "kind": "batch",
        "files": [
            {
                "id": f.file_id,
                "size_mb": f.size_mb,
                "storage_node": f.storage_node,
            }
            for f in sorted(batch.files.values(), key=lambda f: f.file_id)
        ],
        "tasks": [
            {
                "id": t.task_id,
                "files": list(t.files),
                "compute_time": t.compute_time,
            }
            for t in batch.tasks
        ],
    }


def batch_from_dict(data: dict[str, Any]) -> Batch:
    """Rebuild a batch from :func:`batch_to_dict` output."""
    if data.get("kind") != "batch":
        raise ValueError(f"not a batch document (kind={data.get('kind')!r})")
    schema = data.get("schema")
    if schema != SCHEMA_VERSION:
        raise ValueError(
            f"unsupported batch schema {schema!r} (expected {SCHEMA_VERSION})"
        )
    files = {
        f["id"]: FileInfo(f["id"], float(f["size_mb"]), int(f["storage_node"]))
        for f in data["files"]
    }
    tasks = [
        Task(t["id"], tuple(t["files"]), float(t["compute_time"]))
        for t in data["tasks"]
    ]
    return Batch(tasks, files)


def save_batch(batch: Batch, path: str | Path):
    """Write a batch as JSON."""
    Path(path).write_text(json.dumps(batch_to_dict(batch), indent=1))


def load_batch(path: str | Path) -> Batch:
    """Read a batch written by :func:`save_batch`."""
    return batch_from_dict(json.loads(Path(path).read_text()))
