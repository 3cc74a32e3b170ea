"""The :class:`ServeEngine` protocol and its three backends.

One request API — ``submit(request) -> ServeOutcome`` — over the three
serving paths the repository already equivalence-tests offline:

* ``direct``: per-channel scalar evaluation through
  :class:`~repro.network.simulator.NetworkSimulator` (the oracle);
* ``cached``: the same simulator reading the vectorized
  :class:`~repro.engine.linkstate.LinkStateCache`;
* ``matrix``: the budget-matrix two-hop relay argmin of
  :class:`~repro.core.analysis.SpaceGroundAnalysis`.

Every engine also exposes the *batch* shape of its path through
:meth:`ServeEngine.serve_batch` — for the simulator engines that is
:meth:`NetworkSimulator.serve_requests` (shared routing trees), for the
matrix engine :meth:`SpaceGroundAnalysis.serve` — and the differential
harness in ``tests/serve/`` asserts that replaying one timestamped
request sequence through ``submit`` and through ``serve_batch`` yields
bit-identical outcomes per backend: the streaming front end cannot
drift from the sweeps the paper numbers come from.

Outcomes are pure functions of ``(source, destination, t_s)`` — an
engine holds no per-request mutable state — which is what makes the
async front end deterministic regardless of task interleaving, and a
sharded replay identical to a serial one.

Time advances through :meth:`ServeEngine.advance_to`: a monotonic
cursor over the precomputed series (grid bisection from the last
position, never a full-day recompute), mirroring
:meth:`LinkStateCache.advance_index`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from repro import kernels, obs
from repro.errors import ValidationError
from repro.obs import live
from repro.routing.metrics import DEFAULT_EPSILON

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.analysis import SpaceGroundAnalysis
    from repro.network.simulator import NetworkSimulator, RequestOutcome
    from repro.network.workload import TimedRequest
    from repro.orbits.ephemeris import Ephemeris
    from repro.routing.strategies import StrategyConfig

__all__ = [
    "ENGINE_KINDS",
    "MatrixServeEngine",
    "ServeEngine",
    "ServeOutcome",
    "SimulatorServeEngine",
    "build_engine",
    "outcomes_equal",
]

#: The recognised ``build_engine`` kinds, CLI choice order.
ENGINE_KINDS = ("cached", "direct", "matrix")

# Live engine-level instruments: request rate through the backend (both
# the streaming and the batch shape) and the ephemeris cursor position —
# what the /readyz "cursor advancing" check and `repro top` watch.
_LIVE_ENGINE_SUBMITS = live.windowed_counter("serve.live.engine.submits")
_LIVE_ENGINE_CURSOR = live.windowed_gauge("serve.live.engine.cursor_s")


@dataclass(frozen=True)
class ServeOutcome:
    """Result of one streamed entanglement request.

    Attributes:
        request_id: identity of the originating
            :class:`~repro.network.workload.TimedRequest`.
        source / destination: endpoint host names.
        t_s: arrival (= service) time.
        tenant: admission-queue label the request travelled under.
        served: whether a usable route existed.
        path: routed node sequence (empty if unserved).
        path_eta: end-to-end transmissivity (0 if unserved).
        fidelity: delivered entanglement fidelity (NaN if unserved).
        cause: canonical :class:`~repro.obs.trace.DenialCause` value
            when unserved (``None`` when served, or when the engine ran
            with denial attribution off). Strategy-attributed causes
            (``route_exhausted`` / ``memory_full``) are decided during
            serving and survive even with attribution off.
        n_paths: entangled pairs consumed (1 on the single-path router,
            >= 2 for a purified multipath delivery).
        purified: whether the delivery went through the multipath
            purification scheduler.

    Deliberately carries no wall-clock latency and no engine label:
    the record is the *physics* answer, so streaming-vs-batch and
    serial-vs-sharded comparisons are plain field equality. Latency is
    a property of the front end and lives in its metrics.
    """

    request_id: int
    source: str
    destination: str
    t_s: float
    tenant: str
    served: bool
    path: tuple[str, ...]
    path_eta: float
    fidelity: float
    cause: str | None
    n_paths: int = 1
    purified: bool = False


def outcomes_equal(a: ServeOutcome, b: ServeOutcome) -> bool:
    """Field-wise equality treating NaN fidelity as equal (denied outcomes)."""
    if (
        a.request_id,
        a.source,
        a.destination,
        a.t_s,
        a.tenant,
        a.served,
        a.path,
        a.cause,
        a.n_paths,
        a.purified,
    ) != (
        b.request_id,
        b.source,
        b.destination,
        b.t_s,
        b.tenant,
        b.served,
        b.path,
        b.cause,
        b.n_paths,
        b.purified,
    ):
        return False
    if a.path_eta != b.path_eta:
        return False
    if math.isnan(a.fidelity) and math.isnan(b.fidelity):
        return True
    return a.fidelity == b.fidelity


class ServeEngine:
    """Common protocol of the three serving backends.

    Subclasses implement :meth:`submit` (one request, the streaming
    shape), :meth:`_serve_group` (all requests of one timestamp, the
    batch shape) and :meth:`advance_to` (monotonic state cursor).
    """

    #: Backend label ("direct" / "cached" / "matrix").
    name: str = "?"

    @property
    def kernel_backend(self) -> str:
        """Active :mod:`repro.kernels` dispatch backend ("numpy"/"numba").

        Surfaced in run manifests so a recorded number can always be
        attributed to the code path that produced it.
        """
        return kernels.active_backend()

    @property
    def window(self) -> int | None:
        """Incremental-advance chunk size in ephemeris samples.

        ``None`` means the backend precomputed its whole horizon eagerly
        (or, for ``direct``, evaluates per request and has no notion of
        a fill window). Surfaced on ``/status`` and in the manifest's
        ``extra.serve`` so an operator can see which mode is live.
        """
        return None

    def cursor_info(self) -> dict:
        """Engine time-cursor position (grid index and seconds).

        Read-only observability for ``/status`` — mirrors what the
        manifest's ``extra.serve`` records at end of run.
        """
        return {"t_index": None, "t_s": None}

    def submit(self, request: "TimedRequest") -> ServeOutcome:
        """Serve one request at its arrival time."""
        raise NotImplementedError

    def advance_to(self, t_s: float) -> None:
        """Advance the engine's time cursor to ``t_s`` (monotonic)."""
        raise NotImplementedError

    def _serve_group(
        self, t_s: float, group: Sequence["TimedRequest"]
    ) -> list[ServeOutcome]:
        """Serve all requests sharing one timestamp through the batch path."""
        raise NotImplementedError

    def serve_batch(self, requests: Iterable["TimedRequest"]) -> list[ServeOutcome]:
        """Replay a time-ordered stream through the backend's batch path.

        Consecutive requests with equal timestamps form one batch call —
        exactly how the offline sweeps evaluate a request set per sample
        — so this is the reference the differential harness compares
        :meth:`submit` against.
        """
        outcomes: list[ServeOutcome] = []
        group: list[TimedRequest] = []
        for request in requests:
            if group and request.t_s != group[0].t_s:
                outcomes.extend(self._serve_group(group[0].t_s, group))
                group = []
            group.append(request)
        if group:
            outcomes.extend(self._serve_group(group[0].t_s, group))
        return outcomes


class SimulatorServeEngine(ServeEngine):
    """``direct`` / ``cached`` backend over a :class:`NetworkSimulator`.

    Streaming requests go through :meth:`NetworkSimulator.serve_request`,
    batches through :meth:`NetworkSimulator.serve_requests`; both reduce
    to the same Bellman–Ford relaxation and fidelity closed form, which
    is why the differential harness can demand bit-identity between
    them.

    Args:
        simulator: the bound simulator; its ``use_cache`` flag decides
            which serving path (and this engine's ``name``).
        attribute_denials: compute the canonical denial cause for every
            unserved request through the flight-recorder cascade over
            each candidate uplink. The ``cached`` backend reads channel
            physics from a per-sample memo, so a denial costs a fault
            and duty-cycle check per channel plus one physics
            evaluation per channel and new sample; ``direct`` evaluates
            ~2 scalar channels per platform on every denial. Disable for
            throughput runs; denied outcomes then carry ``cause=None``.
    """

    def __init__(
        self, simulator: "NetworkSimulator", *, attribute_denials: bool = True
    ) -> None:
        self.simulator = simulator
        self.attribute_denials = attribute_denials
        self.name = "cached" if simulator.use_cache else "direct"
        self._cursor_s: float | None = None

    @property
    def window(self) -> int | None:
        if self.simulator.use_cache:
            return self.simulator.linkstate.window
        return None

    def cursor_info(self) -> dict:
        t_index = (
            int(self.simulator.linkstate._cursor) if self.simulator.use_cache else None
        )
        return {"t_index": t_index, "t_s": self._cursor_s}

    def advance_to(self, t_s: float) -> None:
        if t_s != self._cursor_s:
            # Grid-aligned streams call this with a repeated t_s many
            # times per sample; the gauge only needs actual movement.
            self._cursor_s = t_s
            _LIVE_ENGINE_CURSOR.set(t_s)
        if self.simulator.use_cache:
            with obs.span("propagate"):
                self.simulator.linkstate.advance_index(t_s)

    def _outcome(self, request: "TimedRequest", raw: "RequestOutcome") -> ServeOutcome:
        # A strategy-attributed cause was decided during serving (the
        # rescue already knows why it failed); only legacy denials pay
        # the post-hoc gate cascade, and only when attribution is on.
        cause = raw.cause
        if cause is None and not raw.served and self.attribute_denials:
            cause = self.simulator.denial_cause(
                request.source, request.destination, request.t_s
            ).value
        return ServeOutcome(
            request_id=request.request_id,
            source=request.source,
            destination=request.destination,
            t_s=request.t_s,
            tenant=request.tenant,
            served=raw.served,
            path=raw.path,
            path_eta=raw.path_transmissivity,
            fidelity=raw.fidelity,
            cause=cause,
            n_paths=raw.n_paths,
            purified=raw.purified,
        )

    def submit(self, request: "TimedRequest") -> ServeOutcome:
        _LIVE_ENGINE_SUBMITS.inc()
        with obs.span("serve"):
            raw = self.simulator.serve_request(
                request.source, request.destination, request.t_s
            )
            return self._outcome(request, raw)

    def _serve_group(
        self, t_s: float, group: Sequence["TimedRequest"]
    ) -> list[ServeOutcome]:
        _LIVE_ENGINE_SUBMITS.inc(len(group))
        with obs.span("serve"):
            raws = self.simulator.serve_requests([r.endpoints for r in group], t_s)
            return [self._outcome(r, raw) for r, raw in zip(group, raws)]


class MatrixServeEngine(ServeEngine):
    """``matrix`` backend over a :class:`SpaceGroundAnalysis`.

    Serves a request as the two-hop relay argmin of the precomputed
    ``(n_sats, n_times)`` budget matrices: path ``src -> relay -> dst``
    with ``eta = eta_src * eta_dst``, fidelity through the same closed
    form as the simulator paths. Arrival times quantize to the ephemeris
    grid through a monotonic cursor (the same most-recent-sample rule as
    :meth:`LinkStateCache.advance_index`). Denial causes come from
    :meth:`SpaceGroundAnalysis.request_detail`, which reads the same
    matrices — cheap enough to leave on.
    """

    name = "matrix"

    def __init__(
        self,
        analysis: "SpaceGroundAnalysis",
        *,
        epsilon: float = DEFAULT_EPSILON,
        fidelity_convention: str = "sqrt",
        n_satellites: int | None = None,
        attribute_denials: bool = True,
        strategy=None,
        relaxed_analysis: "SpaceGroundAnalysis | None" = None,
    ) -> None:
        self.analysis = analysis
        self.epsilon = epsilon
        self.fidelity_convention = fidelity_convention
        self.n_satellites = n_satellites
        self.attribute_denials = attribute_denials
        #: Active multipath strategy and its relaxed-policy twin of the
        #: budget analysis (same ephemeris/model/faults, lower
        #: threshold) — the matrix backend's rescue candidate source.
        self.strategy = strategy
        self._relaxed = relaxed_analysis
        self._cursor = 0
        self._cursor_s: float | None = None
        self._windowed = analysis.table.window is not None

    @property
    def window(self) -> int | None:
        return self.analysis.table.window

    def cursor_info(self) -> dict:
        return {"t_index": int(self._cursor), "t_s": self._cursor_s}

    # --- time cursor --------------------------------------------------------

    def advance_to(self, t_s: float) -> None:
        if t_s != self._cursor_s:
            self._cursor_s = t_s
            _LIVE_ENGINE_CURSOR.set(t_s)
        with obs.span("propagate"):
            self.time_index(t_s)

    def _ensure(self, k: int) -> int:
        """Windowed tables: pull the budget fill frontier past ``k``."""
        if self._windowed:
            with obs.span("budget"):
                self.analysis.ensure_time_index(k)
        return k

    def time_index(self, t_s: float) -> int:
        """Grid index for ``t_s``: monotonic-cursor bisection, full search
        behind the cursor (result always equals the plain searchsorted rule)."""
        times = self.analysis.times_s
        k = self._cursor
        if times[k] <= t_s:
            if k + 1 >= times.size or t_s < times[k + 1]:
                return self._ensure(k)
            k = k + int(np.searchsorted(times[k + 1 :], t_s, side="right"))
            k = min(k, times.size - 1)
            self._cursor = k
            return self._ensure(k)
        idx = int(np.searchsorted(times, t_s, side="right") - 1)
        return self._ensure(min(max(idx, 0), times.size - 1))

    # --- serving ------------------------------------------------------------

    def _rescue(self, request: "TimedRequest", time_index: int):
        """Multipath rescue over the relaxed budget matrices.

        Returns the strategy's :class:`~repro.routing.strategies.MultipathPlan`,
        or ``None`` when no strategy is active or the relaxed matrices
        hold no candidate relay (legacy attribution then applies).
        """
        strategy = self.strategy
        if strategy is None or self._relaxed is None or not strategy.active:
            return None
        if self._relaxed.table.window is not None:
            with obs.span("budget"):
                self._relaxed.ensure_time_index(time_index)
        pair = (request.source, request.destination)

        def enumerate_pair(p: tuple[str, str]):
            return strategy.matrix_candidates(
                self._relaxed, p[0], p[1], time_index, self.n_satellites
            )

        candidates = strategy.candidates(pair, ("k", time_index), enumerate_pair)
        if not candidates:
            return None
        return strategy.plan(candidates, request.t_s)

    def _outcome(
        self, request: "TimedRequest", time_index: int, eta: float | None
    ) -> ServeOutcome:
        if eta is None:
            plan = self._rescue(request, time_index)
            if plan is not None and plan.served:
                return ServeOutcome(
                    request_id=request.request_id,
                    source=request.source,
                    destination=request.destination,
                    t_s=request.t_s,
                    tenant=request.tenant,
                    served=True,
                    path=plan.path,
                    path_eta=plan.eta,
                    fidelity=plan.fidelity,
                    cause=None,
                    n_paths=plan.n_paths,
                    purified=True,
                )
            cause = plan.cause if plan is not None else None
            if cause is None and self.attribute_denials:
                detail = self.analysis.request_detail(
                    request.source,
                    request.destination,
                    time_index,
                    self.epsilon,
                    n_satellites=self.n_satellites,
                    max_candidates=0,
                )
                cause = detail["cause"].value
            return ServeOutcome(
                request_id=request.request_id,
                source=request.source,
                destination=request.destination,
                t_s=request.t_s,
                tenant=request.tenant,
                served=False,
                path=(),
                path_eta=0.0,
                fidelity=float("nan"),
                cause=cause,
            )
        from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity

        hit = self.analysis.best_relay(
            request.source,
            request.destination,
            time_index,
            self.epsilon,
            n_satellites=self.n_satellites,
        )
        relay = self.analysis.ephemeris.names[hit[0]]
        fidelity = float(
            entanglement_fidelity_from_transmissivity(
                eta, convention=self.fidelity_convention
            )
        )
        return ServeOutcome(
            request_id=request.request_id,
            source=request.source,
            destination=request.destination,
            t_s=request.t_s,
            tenant=request.tenant,
            served=True,
            path=(request.source, relay, request.destination),
            path_eta=eta,
            fidelity=fidelity,
            cause=None,
        )

    def submit(self, request: "TimedRequest") -> ServeOutcome:
        _LIVE_ENGINE_SUBMITS.inc()
        k = self.time_index(request.t_s)
        with obs.span("serve"):
            hit = self.analysis.best_relay(
                request.source,
                request.destination,
                k,
                self.epsilon,
                n_satellites=self.n_satellites,
            )
            return self._outcome(request, k, None if hit is None else hit[1])

    def _serve_group(
        self, t_s: float, group: Sequence["TimedRequest"]
    ) -> list[ServeOutcome]:
        _LIVE_ENGINE_SUBMITS.inc(len(group))
        k = self.time_index(t_s)
        with obs.span("serve"):
            etas = self.analysis.serve(
                [r.endpoints for r in group], k, self.epsilon,
                n_satellites=self.n_satellites,
            )
            return [self._outcome(r, k, eta) for r, eta in zip(group, etas)]


def build_engine(
    kind: str,
    ephemeris: "Ephemeris",
    *,
    sites=None,
    fso_model=None,
    policy=None,
    faults=None,
    epsilon: float = DEFAULT_EPSILON,
    fidelity_convention: str = "sqrt",
    attribute_denials: bool = True,
    window: int | None = None,
    strategy: "StrategyConfig | None" = None,
) -> ServeEngine:
    """Assemble a :class:`ServeEngine` of the given ``kind`` over the QNTN LANs.

    Args:
        kind: one of :data:`ENGINE_KINDS`.
        ephemeris: constellation movement sheet.
        sites: ground nodes (defaults to the paper's Table I set).
        fso_model: ground-satellite channel model (paper preset default).
        policy / epsilon / fidelity_convention: serving knobs, identical
            defaults across all three kinds.
        faults: realized :class:`~repro.faults.FaultSchedule`, compiled
            :class:`~repro.faults.plane.FaultPlane`, or ``None``; all
            backends consume the same compiled plane.
        attribute_denials: compute canonical denial causes for unserved
            requests (see :class:`SimulatorServeEngine`).
        window: incremental-advance chunk size in ephemeris samples.
            ``None`` keeps the eager full-horizon precompute. When set,
            the ``cached`` link-state series and the ``matrix`` budget
            table extend lazily as the time cursor advances (identical
            results, lower time-to-first-request); ``direct`` evaluates
            per request and ignores it.
        strategy: optional
            :class:`~repro.routing.strategies.StrategyConfig` mounting
            the multipath router behind the backend (``--router
            k-shortest``). ``None`` / ``router="shortest"`` keeps the
            legacy single-path router on every backend.
    """
    from repro.channels.presets import paper_satellite_fso
    from repro.data.ground_nodes import all_ground_nodes
    from repro.routing.strategies import build_strategy

    if kind not in ENGINE_KINDS:
        raise ValidationError(
            f"unknown engine kind {kind!r}; expected one of {ENGINE_KINDS}"
        )
    kernels.warmup()
    model = fso_model or paper_satellite_fso()
    plane = faults.compile() if hasattr(faults, "compile") else faults
    router = build_strategy(
        strategy,
        policy=policy,
        fidelity_convention=fidelity_convention,
        epsilon=epsilon,
    )
    if kind == "matrix":
        from repro.core.analysis import SpaceGroundAnalysis

        site_list = list(sites) if sites is not None else all_ground_nodes()
        analysis = SpaceGroundAnalysis(
            ephemeris,
            site_list,
            model,
            policy=policy,
            faults=plane,
            window=window,
        )
        relaxed_analysis = None
        if router is not None and router.active:
            relaxed_analysis = SpaceGroundAnalysis(
                ephemeris,
                site_list,
                model,
                policy=router.relaxed_policy,
                faults=plane,
                window=window,
            )
        return MatrixServeEngine(
            analysis,
            epsilon=epsilon,
            fidelity_convention=fidelity_convention,
            attribute_denials=attribute_denials,
            strategy=router,
            relaxed_analysis=relaxed_analysis,
        )
    from repro.network.simulator import NetworkSimulator
    from repro.network.topology import attach_satellites, build_qntn_ground_network

    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, model)
    simulator = NetworkSimulator(
        network,
        policy=policy,
        fidelity_convention=fidelity_convention,
        epsilon=epsilon,
        use_cache=(kind == "cached"),
        faults=plane,
        linkstate_window=window if kind == "cached" else None,
        strategy=router,
    )
    return SimulatorServeEngine(simulator, attribute_denials=attribute_denials)
