"""Tests for BiPartition's sub-batch chain ordering."""

import pytest

from repro.batch import Batch, FileInfo, Task
from repro.core import BiPartitionScheduler


@pytest.fixture
def batch():
    files = {f"f{i}": FileInfo(f"f{i}", 10.0, 0) for i in range(6)}
    tasks = [
        Task("a0", ("f0", "f1"), 1.0),
        Task("b0", ("f2", "f3"), 1.0),
        Task("c0", ("f1", "f4"), 1.0),  # shares f1 with sub-batch A
        Task("d0", ("f5",), 1.0),
    ]
    return Batch(tasks, files)


class TestChainOrder:
    def test_chain_puts_sharing_neighbours_adjacent(self, batch):
        subbatches = [["a0"], ["b0"], ["c0"], ["d0"]]
        ordered = BiPartitionScheduler._chain_order(batch, subbatches)
        flat = [sb[0] for sb in ordered]
        # a0 and c0 share f1 (10 MB); they must end up adjacent.
        ia, ic = flat.index("a0"), flat.index("c0")
        assert abs(ia - ic) == 1

    def test_chain_preserves_content(self, batch):
        subbatches = [["a0"], ["b0"], ["c0"], ["d0"]]
        ordered = BiPartitionScheduler._chain_order(batch, subbatches)
        assert sorted(t for sb in ordered for t in sb) == [
            "a0", "b0", "c0", "d0",
        ]

    def test_short_lists_untouched(self, batch):
        one = [["a0"]]
        two = [["a0"], ["b0"]]
        assert BiPartitionScheduler._chain_order(batch, one) == one
        assert BiPartitionScheduler._chain_order(batch, two) == two
