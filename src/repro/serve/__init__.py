"""Always-on request serving: one engine over the link-state cache.

``repro.serve`` turns the repository's offline day-sweeps into a
service. :mod:`repro.serve.engine` defines the :class:`ServeEngine`
protocol — ``submit(request) -> ServeOutcome`` — and implements it once,
over the simulator's vectorized link-state cache (the ``cached``
engine). The uncached scalar simulator and the budget-matrix analysis
stay as reference oracles the tests compare the engine against;
:mod:`repro.serve.server` is the asyncio front end with per-tenant
bounded admission queues, backpressure/shedding, and latency/queue
telemetry; :mod:`repro.serve.sharded` replays a stream across worker
processes. The differential harness in ``tests/serve/`` pins streaming
outcomes bit-identical to the batch path, with and without fault
schedules, serial and sharded.

Live operation (DESIGN.md §14): :mod:`repro.serve.http` attaches the
``/metrics`` / ``/healthz`` / ``/readyz`` / ``/status`` observability
endpoints to a running server on the same event loop, and
:mod:`repro.serve.top` renders ``/status`` as the ``repro top``
dashboard. Both read the windowed instruments of
:mod:`repro.obs.live`; SLO alerting over the same instruments lives in
:mod:`repro.obs.slo`.
"""

from repro.serve.engine import (
    ServeEngine,
    ServeOutcome,
    build_engine,
    outcomes_equal,
)
from repro.serve.http import ObservabilityServer
from repro.serve.server import ServeServer, ServerConfig, StreamReport
from repro.serve.sharded import serve_stream_sharded

__all__ = [
    "ObservabilityServer",
    "ServeEngine",
    "ServeOutcome",
    "ServeServer",
    "ServerConfig",
    "StreamReport",
    "build_engine",
    "outcomes_equal",
    "serve_stream_sharded",
]
