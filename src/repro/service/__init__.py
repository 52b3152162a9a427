"""Always-on estimation service: the paper's estimators as a product surface.

Batch experiments answer "how big is the network?" once per invocation;
this package keeps the answer *warm*.  :class:`EstimationService` holds a
resident scenario — one overlay mutated by a live
:class:`~repro.churn.scheduler.ChurnScheduler` whose trace grows as
membership events stream in — plus one warm estimator per configured
family, refreshed on a round cadence and checkpointed through the same
pure-data snapshot protocol the batch runtime uses
(``docs/SNAPSHOTS.md``), so a restarted service resumes instead of
replaying.

:class:`ServiceServer` exposes the service over a small HTTP/JSON
endpoint (``/estimate``, ``/health``, ``/stats``, ``/ingest``) with
token-bucket throttling and a bounded, load-shedding ingest queue, plus
an optional length-prefixed binary mode reusing the framing of
:mod:`repro.runtime.framing`.  :class:`ServiceClient` is the matching
thin client; importing it loads the stdlib and that framing module only.
Operational surface: ``repro-experiment serve`` and ``docs/SERVICE.md``.
"""

from .. import _lazy

#: Estimator families the service can keep warm.  Defined here rather
#: than in :mod:`.core` so the CLI can name them without importing the
#: service.
SERVICE_FAMILIES = (
    "sample_collide",
    "hops_sampling",
    "aggregation",
)

__getattr__, __dir__, __all__ = _lazy.lazy_exports(
    __name__,
    {
        "core": (
            "SERVICE_SCHEMA_VERSION",
            "EstimationService",
            "ServiceConfig",
            "TokenBucket",
        ),
        "server": ("ServiceClient", "ServiceServer", "recv_frame", "send_frame"),
    },
)
__all__ += ["SERVICE_FAMILIES"]
