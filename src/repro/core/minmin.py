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

The mapping loop is :func:`repro.core.mct_kernel.mct_map`, which rebuilds
the full MCT matrix every round. MaxMin and Sufferage
(:mod:`repro.core.mct_family`) run the same loop and differ only in the
:meth:`_pick` selection hook.
"""

from __future__ import annotations

import numpy as np

from ..batch import Batch
from ..cluster.platform import Platform
from ..cluster.state import ClusterState
from ..obs.core import telemetry
from ..obs.decisions import DecisionLog
from .base import Scheduler, register_scheduler
from .mct_kernel import KernelStats, build_mct_setup, mct_map
from .plan import SubBatchPlan

__all__ = ["MinMinScheduler"]


@register_scheduler("minmin")
class MinMinScheduler(Scheduler):
    """MinMin with implicit replication; whole batch at once, no sub-batching.

    The selection rule is pluggable so the MaxMin and Sufferage variants
    (:mod:`repro.core.mct_family`) can reuse the whole data-aware MCT
    machinery and differ only in which task they commit: :meth:`_pick`
    selects from the full MCT matrix that the mapping loop rebuilds each
    round.
    """

    uses_subbatches = False
    #: Selection-rule label recorded on each Decision while telemetry is on.
    pick_rule = "global-min-mct"
    #: Work accounting of the last mapping call (None before the first).
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
        mapping, stats = mct_map(setup, self._pick, self.pick_rule, log)
        self.kernel_stats = stats
        if telemetry.enabled:
            # Surface the mapping loop's work counters per run (manifest
            # `telemetry.counters` + `repro profile`); counters sum across
            # mapping calls.
            for key, value in stats.to_dict().items():
                telemetry.count(f"kernel/{key}", value)
        return mapping
