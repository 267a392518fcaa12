"""MinMin scheduling with implicit file replication (baseline, Section 3).

Classic MinMin [Maheswaran et al.] adapted to data-intensive batches: the
expected minimum completion time (MCT) of a task on a node accounts for the
files already available on that node, and for copies available on *other*
compute nodes, which act as cheaper alternate sources than the storage
cluster. When a task is committed to a node, all its files are considered
staged there — the *implicit replication* policy: popular files accumulate
copies across the cluster as scheduling proceeds.

At every step the task/node pair with the globally minimal MCT is committed
(the min-min rule). The resulting mapping is executed by the Section 6
runtime; the estimates here intentionally mirror the runtime's cost model
without simulating port contention (that is what makes MinMin cheap relative
to the IP scheme but still O(T^2 * C), visibly slower than JDP in Fig. 6b).

The mapping loop is the incremental kernel of :mod:`repro.core.mct_kernel`,
which maintains the MCT value buffer in place, rewriting only the entries
each commit moved; the original per-round full-matrix rescan stays there as
its oracle (``reference_mct_map``, called directly by the differential
tests and ``repro bench``). MaxMin and Sufferage
(:mod:`repro.core.mct_family`) reuse the kernel through the :meth:`_pick`
selection hook.
"""

from __future__ import annotations

import numpy as np

from ..batch import Batch
from ..cluster.platform import Platform
from ..cluster.state import ClusterState
from ..obs.core import telemetry
from ..obs.decisions import DecisionLog
from .base import Scheduler, register_scheduler
from .mct_kernel import (
    _TIE_TOL,
    KernelStats,
    build_mct_setup,
    incremental_mct_map,
)
from .plan import SubBatchPlan

__all__ = ["MinMinScheduler", "_TIE_TOL"]


@register_scheduler("minmin")
class MinMinScheduler(Scheduler):
    """MinMin with implicit replication; whole batch at once, no sub-batching.

    The selection rule is pluggable so the MaxMin and Sufferage variants
    (:mod:`repro.core.mct_family`) can reuse the whole data-aware MCT
    machinery and differ only in which task they commit: :meth:`_pick`
    selects from the incremental kernel's value buffer, which is
    bit-identical to the full MCT matrix the oracle rebuilds each round.
    """

    uses_subbatches = False
    #: Selection-rule label recorded on each Decision while telemetry is on.
    pick_rule = "global-min-mct"
    #: Work accounting of the last mapping call (None before the first);
    #: reported by ``repro bench``.
    kernel_stats: KernelStats | None = None

    def _pick(self, mct: np.ndarray) -> tuple[int, int]:
        """Choose (task row, node column) from the MCT matrix.

        MinMin commits the globally smallest completion time. Rows of
        already-scheduled tasks hold ``inf``.
        """
        return divmod(int(mct.argmin()), mct.shape[1])

    def next_subbatch(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> SubBatchPlan:
        with telemetry.span("map"):
            mapping = self._map(batch, pending, platform, state)
        return SubBatchPlan(task_ids=list(pending), mapping=mapping, staging=None)

    # -- mapping ------------------------------------------------------------------
    def _map(
        self,
        batch: Batch,
        pending: list[str],
        platform: Platform,
        state: ClusterState,
    ) -> dict[str, int]:
        setup = build_mct_setup(batch, pending, platform, state)
        log: DecisionLog | None = None
        if telemetry.enabled:
            if self.decision_log is None:
                self.decision_log = DecisionLog(scheme=self.name)
            log = self.decision_log
        mapping, stats = incremental_mct_map(setup, self._pick, self.pick_rule, log)
        self.kernel_stats = stats
        if telemetry.enabled:
            # Surface the kernel's real-work counters per run (manifest
            # `telemetry.counters` + `repro profile`), not just per bench
            # cell; counters sum across sub-batch mapping calls.
            for key, value in stats.to_dict().items():
                telemetry.count(f"kernel/{key}", value)
        return mapping
