"""Online extension: streaming multi-batch scheduling (``repro.online``).

Feeds the paper's batch scheduler from a stream of arriving jobs
(:mod:`~repro.online.arrivals`), forms dispatch windows with admission
policies (:mod:`~repro.online.queue`), and runs them through one
:class:`~repro.online.session.ClusterSession` with warm-cache carryover
or a cold-start baseline. See ``docs/online.md``.
"""

from .arrivals import (
    ARRIVAL_KINDS,
    JobArrival,
    JobStream,
    arrivals_from_spec,
    bursty_arrivals,
    poisson_arrivals,
    stream_from_batch,
    trace_arrivals,
)
from .queue import (
    POLICIES,
    AdmissionPolicy,
    FIFOWindow,
    LocalityWindow,
    SizeCappedWindow,
    make_policy,
)
from .session import (
    BatchRecord,
    ClusterSession,
    JobRecord,
    StreamResult,
    isolated_service_time,
)

__all__ = [
    "ARRIVAL_KINDS",
    "POLICIES",
    "AdmissionPolicy",
    "BatchRecord",
    "ClusterSession",
    "FIFOWindow",
    "JobArrival",
    "JobRecord",
    "JobStream",
    "LocalityWindow",
    "SizeCappedWindow",
    "StreamResult",
    "arrivals_from_spec",
    "bursty_arrivals",
    "isolated_service_time",
    "make_policy",
    "poisson_arrivals",
    "stream_from_batch",
    "trace_arrivals",
]
