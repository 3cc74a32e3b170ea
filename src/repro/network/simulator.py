"""The network simulation driver.

:class:`NetworkSimulator` binds a :class:`~repro.network.topology.QuantumNetwork`
to the admission policy and the routing layer, serving entanglement
requests at given simulation times. Platform motion is deterministic —
querying a link at time ``t`` evaluates the satellites' movement sheets at
``t`` — so results are reproducible (the paper's position-update threads
are replaced by this clocked evaluation; see DESIGN.md).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro import obs
from repro.engine.linkstate import LinkStateCache
from repro.errors import NoPathError, UnknownHostError
from repro.network.events import EventTimeline
from repro.network.links import LinkPolicy, LinkState, QuantumChannel
from repro.network.protocols import EntangledPair, distribute_entanglement
from repro.network.satellite import Satellite
from repro.network.topology import LinkGraph, QuantumNetwork
from repro.obs import trace
from repro.quantum.fidelity import entanglement_fidelity_from_transmissivity
from repro.routing.bellman_ford import BellmanFordResult, bellman_ford, shortest_path
from repro.routing.metrics import DEFAULT_EPSILON, path_edges, path_transmissivity

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plane import FaultPlane
    from repro.routing.strategies import (
        KShortestStrategy,
        MultipathPlan,
        StrategyConfig,
    )

__all__ = ["RequestOutcome", "NetworkSimulator"]

# Created once at import; each record below is a flag check when
# telemetry is off (the disabled-mode overhead contract, DESIGN.md §9).
_REQUESTS_SERVED = obs.counter("network.requests.served")
_REQUESTS_DENIED = obs.counter("network.requests.denied")
_PATH_HOPS = obs.histogram("network.path.hops", buckets=(1, 2, 3, 4, 5, 6, 8, 12))
_FIDELITY = obs.histogram("network.fidelity")


@dataclass(frozen=True)
class RequestOutcome:
    """Result of one entanglement-distribution request.

    Attributes:
        source / destination: endpoint host names.
        time_s: simulation time the request was served at.
        served: whether a usable route existed.
        path: routed node sequence (empty if unserved).
        path_transmissivity: product of per-link eta (0 if unserved).
        fidelity: end-to-end entanglement fidelity (NaN if unserved).
        pair: the delivered pair's full density-matrix record, when the
            simulator runs with ``track_states=True`` (None otherwise;
            multipath-purified deliveries always report the closed
            form).
        cause: canonical denial cause decided *during* serving, when
            the routing strategy attributed one (``route_exhausted`` /
            ``memory_full``); ``None`` otherwise — legacy denials are
            attributed post-hoc by :meth:`NetworkSimulator.denial_cause`.
        n_paths: entangled pairs consumed to deliver the request (1 on
            the single-path router; >= 2 when purified).
        purified: whether the delivery went through the multipath
            purification scheduler.
    """

    source: str
    destination: str
    time_s: float
    served: bool
    path: tuple[str, ...]
    path_transmissivity: float
    fidelity: float
    pair: EntangledPair | None = None
    cause: str | None = None
    n_paths: int = 1
    purified: bool = False


class NetworkSimulator:
    """Serves entanglement requests over a quantum network.

    Args:
        network: the assembled host/channel topology.
        policy: link admission policy (defaults to the paper's eta >= 0.7
            and elevation >= pi/9).
        fidelity_convention: "sqrt" (default; matches the paper's reported
            numbers) or "squared" (Eq. 5 as written).
        epsilon: routing-metric epsilon.
        track_states: carry full density matrices on outcomes. Exact but
            ~100x slower than the closed form; the fast path uses the
            AD-composition identity instead (tests verify equivalence).
        use_cache: serve requests from a vectorized
            :class:`~repro.engine.linkstate.LinkStateCache` (link budgets
            for all channels precomputed in NumPy passes over the
            ephemeris grid, Bellman–Ford tables memoized per
            feasible-edge set). ``False`` (default) keeps the direct
            per-channel scalar path — the test oracle the cache is
            equivalence-tested against.
        faults: optional compiled :class:`~repro.faults.plane.FaultPlane`
            (or ``None``); both serving paths consume it through the
            same rule, so cached-vs-direct equivalence holds under any
            schedule. A no-op plane is dropped — the fault-free run
            stays bit-identical.
        linkstate_window: optional chunk size (samples) for the cache's
            incremental link-state build (see
            :class:`~repro.engine.linkstate.LinkStateCache`); ``None``
            keeps the eager full-horizon build. Only meaningful with
            ``use_cache=True``.
        strategy: optional
            :class:`~repro.routing.strategies.KShortestStrategy`, or a
            bare :class:`~repro.routing.strategies.StrategyConfig`
            (built here against this simulator's policy / convention /
            epsilon). When active (k >= 2), a strict-policy denial is
            retried over the strategy's relaxed link graph: Yen
            k-shortest candidates, memory-slot reservation at
            intermediate platforms, and purification against the
            fidelity floor. Strict-path service is untouched, so
            ``strategy=None`` and ``k = 1`` are bit-identical to the
            legacy router.
    """

    def __init__(
        self,
        network: QuantumNetwork,
        *,
        policy: LinkPolicy | None = None,
        fidelity_convention: str = "sqrt",
        epsilon: float = DEFAULT_EPSILON,
        track_states: bool = False,
        use_cache: bool = False,
        faults: "FaultPlane | None" = None,
        linkstate_window: int | None = None,
        strategy: "KShortestStrategy | StrategyConfig | None" = None,
    ) -> None:
        self.network = network
        self.policy = policy or LinkPolicy()
        self.fidelity_convention = fidelity_convention
        self.epsilon = epsilon
        self.track_states = track_states
        self.use_cache = use_cache
        self.faults = faults if faults is not None and not faults.is_noop else None
        self.linkstate_window = linkstate_window
        if strategy is not None and not hasattr(strategy, "plan"):
            from repro.routing.strategies import build_strategy

            strategy = build_strategy(
                strategy,
                policy=self.policy,
                fidelity_convention=fidelity_convention,
                epsilon=epsilon,
            )
        self.strategy = strategy
        self.timeline = EventTimeline()
        self._graph_cache: tuple[float, LinkGraph] | None = None
        self._linkstate: LinkStateCache | None = None
        self._relaxed_linkstate: LinkStateCache | None = None
        #: channel -> (satellite sample indices, physics) of the cached
        #: cause cascade; see :meth:`_cascade_state`.
        self._physics_memo: dict[QuantumChannel, tuple[tuple[int, ...], LinkState]] = {}

    # --- link-state access ------------------------------------------------------

    @property
    def linkstate(self) -> LinkStateCache:
        """The vectorized link-state cache (built lazily on first use)."""
        if self._linkstate is None:
            self._linkstate = LinkStateCache(
                self.network, policy=self.policy, epsilon=self.epsilon,
                faults=self.faults, window=self.linkstate_window,
            )
        return self._linkstate

    def link_graph(self, t_s: float) -> LinkGraph:
        """Usable-link adjacency at ``t_s`` (memoised per time stamp)."""
        if self.use_cache:
            return self.linkstate.graph(t_s)
        if self._graph_cache is not None and self._graph_cache[0] == t_s:
            return self._graph_cache[1]
        graph = self.network.link_graph(t_s, self.policy, faults=self.faults)
        self._graph_cache = (t_s, graph)
        return graph

    def invalidate_cache(self) -> None:
        """Drop all memoised link state (call after mutating the network)."""
        self._graph_cache = None
        self._linkstate = None
        self._relaxed_linkstate = None
        self._physics_memo = {}

    def _routing_tree(self, graph: LinkGraph, source: str, t_s: float) -> BellmanFordResult:
        """Bellman–Ford tree at ``t_s`` — memoized when the cache is on."""
        if self.use_cache:
            return self.linkstate.routing_tree(t_s, source)
        return bellman_ford(graph, source, self.epsilon)

    # --- multipath rescue --------------------------------------------------------

    @property
    def _relaxed_cache(self) -> LinkStateCache:
        """Link-state cache under the strategy's relaxed policy.

        Built lazily on the first rescue: same network, same fault
        plane, same fill window — only the admission threshold differs,
        so fault suppression composes identically with relaxation.
        Every rescue reads it, also when ``use_cache`` is off.
        """
        if self._relaxed_linkstate is None:
            self._relaxed_linkstate = LinkStateCache(
                self.network,
                policy=self.strategy.relaxed_policy,
                epsilon=self.epsilon,
                faults=self.faults,
                window=self.linkstate_window,
            )
        return self._relaxed_linkstate

    def _rescue(
        self, source: str, destination: str, t_s: float, time_index: int | None = None
    ) -> "tuple[MultipathPlan, LinkGraph] | None":
        """Run the strategy's multipath rescue after a strict denial.

        Returns ``(plan, relaxed_graph)``, or ``None`` when no strategy
        is active or the relaxed graph holds no candidate path at all
        (the legacy cause cascade then attributes the denial).
        """
        strategy = self.strategy
        if strategy is None or not strategy.active:
            return None
        rls = self._relaxed_cache
        k = rls.time_index(t_s) if time_index is None else time_index
        graph = rls.graph_at_index(k)
        epoch = ("edges", rls.edge_key(k))

        def is_platform(name: str) -> bool:
            return self.network.host(name).kind != "ground"

        def enumerate_pair(pair: tuple[str, str]) -> tuple:
            return strategy.graph_candidates(graph, pair[0], pair[1], is_platform)

        candidates = strategy.candidates((source, destination), epoch, enumerate_pair)
        if not candidates:
            return None
        return strategy.plan(candidates, t_s), graph

    # --- flight recorder ---------------------------------------------------------

    def _lan_of(self, name: str) -> str | None:
        """LAN name of a host, or None for platforms."""
        return getattr(self.network.host(name), "network", "") or None

    def _cascade_state(
        self, channel: QuantumChannel, t_s: float, samples: dict[int, int]
    ) -> LinkState:
        """``channel.evaluate(t_s, policy)``; on the cached path the
        physics is memoised per movement-sheet sample.

        Ground sites and HAPs hold still and satellites are
        sample-and-hold, so a channel's physics changes only with its
        satellites' sample indices (``samples`` resolves each ephemeris
        once per cascade); each channel keeps the physics of the last
        sample it was evaluated at. The HAP duty cycle is still applied
        at the exact ``t_s``, so the state is bit-identical to the scalar
        evaluation. A channel with any other mobile endpoint is
        evaluated directly, as is every channel on the direct path (the
        oracle the memo is tested against).
        """
        if not self.use_cache:
            return channel.evaluate(t_s, self.policy)
        key: list[int] = []
        for host in (channel.host_a, channel.host_b):
            if isinstance(host, Satellite):
                eph = host.ephemeris
                k = samples.get(id(eph))
                if k is None:
                    k = samples[id(eph)] = eph.sample_index(t_s)
                key.append(k)
            elif host.is_mobile:
                return channel.evaluate(t_s, self.policy)
        sample = tuple(key)
        memo = self._physics_memo.get(channel)
        if memo is None or memo[0] != sample:
            memo = (sample, channel.evaluate_physics(t_s, self.policy))
            self._physics_memo[channel] = memo
        physics = memo[1]
        if not channel.operational(t_s):
            return LinkState(0.0, physics.distance_km, physics.elevation_rad, False)
        return physics

    def _attribute_denial(
        self, source: str, destination: str, t_s: float, max_candidates: int
    ) -> tuple[trace.DenialCause, list[dict], dict[str, int]]:
        """Cause cascade over the candidate uplink platforms at ``t_s``.

        Evaluates every platform's channels to both endpoints under the
        simulator's policy and folds the per-gate outcomes into exactly
        one canonical :class:`~repro.obs.trace.DenialCause`; channel
        states come from :meth:`_cascade_state`.
        """
        min_el = self.policy.min_elevation_rad
        faults = self.faults
        samples: dict[int, int] = {}
        candidates: list[dict] = []
        n_platforms = n_visible = n_elev = n_usable = n_healthy = 0
        for platform in self.network.hosts():
            if platform.kind == "ground":
                continue
            ch_s = self.network.channel_between(source, platform.name)
            ch_d = self.network.channel_between(destination, platform.name)
            if ch_s is None or ch_d is None:
                continue
            n_platforms += 1
            st_s = self._cascade_state(ch_s, t_s, samples)
            st_d = self._cascade_state(ch_d, t_s, samples)
            visible = (
                math.isfinite(st_s.elevation_rad)
                and st_s.elevation_rad > 0.0
                and math.isfinite(st_d.elevation_rad)
                and st_d.elevation_rad > 0.0
            )
            elev_ok = (
                visible and st_s.elevation_rad >= min_el and st_d.elevation_rad >= min_el
            )
            healthy = st_s.usable and st_d.usable
            if faults is None:
                usable = healthy
            else:
                _, ok_s = faults.apply_channel(ch_s, st_s, t_s, self.policy)
                _, ok_d = faults.apply_channel(ch_d, st_d, t_s, self.policy)
                usable = ok_s and ok_d
            n_visible += visible
            n_elev += elev_ok
            n_healthy += healthy
            n_usable += usable
            if visible and len(candidates) < max_candidates:
                entry = {
                    "platform": platform.name,
                    "eta_src": st_s.transmissivity,
                    "eta_dst": st_d.transmissivity,
                    "elevation_src_rad": st_s.elevation_rad,
                    "elevation_dst_rad": st_d.elevation_rad,
                    "visible": True,
                    "elevation_ok": elev_ok,
                    "usable": usable,
                }
                if faults is not None:
                    entry["faulted"] = healthy and not usable
                candidates.append(entry)
        cause = trace.classify_denial(
            n_visible > 0,
            n_elev > 0,
            n_healthy > 0,
            fault_blocked=n_healthy > 0 and n_usable == 0,
        )
        counts = {
            "platforms": n_platforms,
            "visible": n_visible,
            "elevation_ok": n_elev,
            "usable": n_usable,
        }
        if faults is not None:
            counts["healthy_usable"] = n_healthy
        return cause, candidates, counts

    def _trace_outcome(
        self,
        rec: trace.TraceRecorder,
        graph: LinkGraph,
        source: str,
        destination: str,
        t_s: float,
        *,
        path: tuple[str, ...] | list[str] = (),
        eta_path: float = 0.0,
        fidelity: float | None = None,
        cause: trace.DenialCause | None = None,
    ) -> None:
        """Record one (already sampled) request outcome; empty path = denied.

        ``cause`` overrides the gate-cascade attribution for denials
        the strategy layer decided in-line (route exhaustion, memory
        pressure) — the cascade still supplies the candidate detail.
        """
        if path:
            rec.record_request(
                t_s=t_s,
                source=source,
                destination=destination,
                source_lan=self._lan_of(source),
                destination_lan=self._lan_of(destination),
                served=True,
                path=list(path),
                hop_etas=path_edges(graph, list(path)),
                path_eta=eta_path,
                fidelity=fidelity,
            )
            return
        cascade_cause, candidates, counts = self._attribute_denial(
            source, destination, t_s, rec.config.max_candidates
        )
        if cause is None:
            cause = cascade_cause
        rec.record_request(
            t_s=t_s,
            source=source,
            destination=destination,
            source_lan=self._lan_of(source),
            destination_lan=self._lan_of(destination),
            served=False,
            cause=cause,
            candidates=candidates,
            candidate_counts=counts,
        )

    def denial_cause(self, source: str, destination: str, t_s: float) -> trace.DenialCause:
        """Canonical cause for an unserved ``source -> destination`` at ``t_s``.

        Runs the same gate cascade the flight recorder uses (without
        collecting candidate detail), so a streaming engine and a traced
        batch sweep attribute the identical denial to the identical
        cause. Only meaningful for requests that actually went unserved —
        the cascade presumes no usable end-to-end route exists.
        """
        cause, _, _ = self._attribute_denial(source, destination, t_s, 0)
        return cause

    # --- request service -----------------------------------------------------------

    def _denied_outcome(
        self,
        source: str,
        destination: str,
        t_s: float,
        rec: trace.TraceRecorder | None,
        graph: LinkGraph,
        time_index: int | None = None,
    ) -> RequestOutcome:
        """Resolve a strict-path denial: multipath rescue, else denial.

        The shared tail of both serving shapes — streaming and batch
        reduce to the same rescue decision, which is what keeps them
        bit-identical under any strategy configuration.
        """
        rescue = self._rescue(source, destination, t_s, time_index)
        if rescue is not None and rescue[0].served:
            plan, relaxed_graph = rescue
            _REQUESTS_SERVED.inc()
            _PATH_HOPS.observe(len(plan.path) - 1)
            _FIDELITY.observe(plan.fidelity)
            if rec is not None:
                self._trace_outcome(
                    rec, relaxed_graph, source, destination, t_s,
                    path=plan.path, eta_path=plan.eta, fidelity=plan.fidelity,
                )
            return RequestOutcome(
                source, destination, t_s, True, plan.path, plan.eta,
                plan.fidelity, None, n_paths=plan.n_paths, purified=True,
            )
        cause = rescue[0].cause if rescue is not None else None
        _REQUESTS_DENIED.inc()
        if rec is not None:
            self._trace_outcome(
                rec, graph, source, destination, t_s,
                cause=trace.DenialCause(cause) if cause is not None else None,
            )
        return RequestOutcome(
            source, destination, t_s, False, (), 0.0, float("nan"), None, cause=cause
        )

    def serve_request(self, source: str, destination: str, t_s: float) -> RequestOutcome:
        """Route and deliver one entanglement request at time ``t_s``.

        The route is the Bellman–Ford minimum of ``sum 1/(eta + eps)``;
        the delivered fidelity comes from amplitude damping with the
        path's end-to-end transmissivity.
        """
        if source not in self.network:
            raise UnknownHostError(source)
        if destination not in self.network:
            raise UnknownHostError(destination)
        k: int | None = None
        if self.use_cache:
            # Resolve the grid index once and hit the memos by index —
            # link_graph/routing_tree would each re-bisect the time grid.
            ls = self.linkstate
            k = ls.time_index(t_s)
            graph = ls.graph_at_index(k)
        else:
            graph = self.link_graph(t_s)
        rec = trace.active()
        if rec is not None and not rec.sampled(source, destination, t_s):
            rec = None
        try:
            if self.use_cache:
                path = ls.routing_tree_at_index(k, source).path_to(destination)
                eta_path = path_transmissivity(path_edges(graph, path))
            else:
                path, eta_path = shortest_path(graph, source, destination, self.epsilon)
        except NoPathError:
            return self._denied_outcome(source, destination, t_s, rec, graph, k)
        pair = None
        if self.track_states:
            pair = distribute_entanglement(
                path_edges(graph, path), source=source, destination=destination
            )
            fidelity = pair.fidelity(self.fidelity_convention)
        else:
            fidelity = float(
                entanglement_fidelity_from_transmissivity(
                    eta_path, convention=self.fidelity_convention
                )
            )
        _REQUESTS_SERVED.inc()
        _PATH_HOPS.observe(len(path) - 1)
        _FIDELITY.observe(fidelity)
        if rec is not None:
            self._trace_outcome(
                rec, graph, source, destination, t_s,
                path=path, eta_path=eta_path, fidelity=fidelity,
            )
        return RequestOutcome(
            source, destination, t_s, True, tuple(path), eta_path, fidelity, pair
        )

    def serve_requests(
        self, requests: list[tuple[str, str]], t_s: float
    ) -> list[RequestOutcome]:
        """Serve a batch of (source, destination) requests at one time.

        Routing trees are shared across requests with the same source, so
        batches are cheaper than repeated :meth:`serve_request` calls.
        """
        graph = self.link_graph(t_s)
        trees: dict[str, object] = {}
        outcomes: list[RequestOutcome] = []
        recorder = trace.active()
        for source, destination in requests:
            if source not in self.network:
                raise UnknownHostError(source)
            if destination not in self.network:
                raise UnknownHostError(destination)
            rec = recorder
            if rec is not None and not rec.sampled(source, destination, t_s):
                rec = None
            if source not in trees:
                trees[source] = self._routing_tree(graph, source, t_s)
            tree = trees[source]
            try:
                path = tree.path_to(destination)  # type: ignore[attr-defined]
            except NoPathError:
                outcomes.append(
                    self._denied_outcome(source, destination, t_s, rec, graph)
                )
                continue
            etas = path_edges(graph, path)
            eta_path = path_transmissivity(etas)
            if self.track_states:
                pair = distribute_entanglement(etas, source=source, destination=destination)
                fidelity = pair.fidelity(self.fidelity_convention)
            else:
                pair = None
                fidelity = float(
                    entanglement_fidelity_from_transmissivity(
                        eta_path, convention=self.fidelity_convention
                    )
                )
            _REQUESTS_SERVED.inc()
            _PATH_HOPS.observe(len(path) - 1)
            _FIDELITY.observe(fidelity)
            if rec is not None:
                self._trace_outcome(
                    rec, graph, source, destination, t_s,
                    path=path, eta_path=eta_path, fidelity=fidelity,
                )
            outcomes.append(
                RequestOutcome(
                    source, destination, t_s, True, tuple(path), eta_path, fidelity, pair
                )
            )
        return outcomes

    # --- connectivity queries ----------------------------------------------------

    def lans_connected(self, lan_a: str, lan_b: str, t_s: float) -> bool:
        """Whether some node pair across two LANs has a usable route."""
        members = self.network.local_networks
        graph = self.link_graph(t_s)
        sources = members.get(lan_a, [])
        targets = set(members.get(lan_b, []))
        if not sources or not targets:
            return False
        tree = self._routing_tree(graph, sources[0], t_s)
        # All LAN members are fiber-meshed, so reachability from one
        # member implies reachability from all (fiber links always pass
        # the threshold at intra-LAN distances).
        return any(tree.reachable(t) for t in targets)

    def all_lans_connected(self, t_s: float) -> bool:
        """Paper coverage condition: every LAN pair connected at ``t_s``."""
        lans = list(self.network.local_networks)
        for i, a in enumerate(lans):
            for b in lans[i + 1 :]:
                if not self.lans_connected(a, b, t_s):
                    return False
        return True
