"""The four benchmark workloads over the 108-satellite QNTN day.

Every workload follows one shape, driven by ``run.py``:

* :meth:`Workload.requests` makes the inputs from the seed alone;
* :meth:`Workload.setup` is the timed set-up: propagate the ephemeris
  (artifact store off), realise and compile faults, build the engine
  and serve the first request;
* :meth:`Workload.run_pass` is one measured pass over the inputs;
* :meth:`Workload.check` verifies the outputs, outside the timed window.

Serving workloads are closed loops with one producer on one event loop:
``ServeServer.submit`` yields once per request, so at most one request
per tenant is outstanding. Latency is stamped just before
``await server.submit(r)`` and when the engine call that produced the
outcome returns, through the :class:`TimedEngine` delegate.
"""

from __future__ import annotations

import asyncio
import contextlib
import time
from dataclasses import dataclass, replace

import numpy as np

from repro.channels.presets import paper_satellite_fso
from repro.core import sweeps
from repro.core.analysis import SpaceGroundAnalysis
from repro.core.coverage import coverage_from_mask
from repro.core.requests import generate_requests
from repro.data.ground_nodes import all_ground_nodes
from repro.faults import FailureProcess, FaultSchedule
from repro.network.workload import align_to_grid, lans_from_sites, poisson_request_stream
from repro.obs import live
from repro.obs.trace import DenialCause
from repro.orbits import ephemeris as ephemeris_mod
from repro.orbits.walker import qntn_constellation
from repro.routing.strategies import StrategyConfig
from repro.serve import ServeEngine, ServeServer, ServerConfig, build_engine, outcomes_equal

N_SATELLITES = 108
STEP_S = 30.0
#: Admission queue capacity: far above the closed loop's depth, so
#: nothing is shed.
QUEUE_DEPTH = 4096
#: Seed that reproduces the paper sweep's Table III pins.
DEFAULT_SEED = 7
#: The operator's fault schedule is fixed; the seed varies the traffic.
FAULT_SEED = 7


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is the benchmark, ``SMALL`` its self-test."""

    duration_s: float
    hour_samples: int
    hour_rate_hz: float
    day_rate_hz: float
    rescue_offset_s: float
    rescue_rate_hz: float
    rescue_requests: int
    sweep_sizes: tuple[int, ...] | None
    sweep_requests: int
    sweep_steps: int


FULL = Size(86400.0, 120, 6.0, 0.25, 25200.0, 10.0, 2400, None, 100, 100)
SMALL = Size(7200.0, 10, 2.0, 0.02, 3600.0, 0.5, 30, (12, 108), 10, 5)
SIZES = {"full": FULL, "small": SMALL}


def propagate(size: Size):
    """Full-horizon movement sheet of the 108-satellite constellation."""
    return ephemeris_mod.generate_movement_sheet(
        qntn_constellation(N_SATELLITES), duration_s=size.duration_s, step_s=STEP_S
    )


def coverage_fraction(ephemeris, plane, horizon_s: float) -> float:
    """Paper coverage (Eqs. 6-7) of the ephemeris under a fault plane."""
    analysis = SpaceGroundAnalysis(
        ephemeris, list(all_ground_nodes()), paper_satellite_fso(), faults=plane
    )
    result = coverage_from_mask(
        ephemeris.times_s,
        analysis.all_pairs_connected(),
        n_satellites=ephemeris.n_platforms,
        horizon_s=horizon_s,
    )
    return result.percentage / 100.0


@dataclass
class PassResult:
    """One measured pass."""

    wall_s: float
    n_requests: int
    served_frac: float
    fidelities: list[float]
    latencies_us: np.ndarray
    n_errors: int = 0
    report: object = None  # StreamReport of a serving pass
    sweep: object = None  # ConstellationSweep of a sweep pass


class TimedEngine(ServeEngine):
    """Thin :class:`ServeEngine` delegate stamping each engine return.

    With a tracer it also records one ``engine.submit`` span per request
    (child of the request's root span, which it closes) and one
    ``engine.advance_to`` span per cursor advance.
    """

    def __init__(self, inner: ServeEngine, tracer=None) -> None:
        self.inner = inner
        self.name = inner.name
        self.tracer = tracer
        self.done: dict[int, float] = {}
        self.roots: dict[int, int] = {}

    def serve_batch(self, requests):
        return self.inner.serve_batch(requests)

    def advance_to(self, t_s: float) -> None:
        tracer = self.tracer
        if tracer is None:
            self.inner.advance_to(t_s)
            return
        sid = tracer.open("engine.advance_to", "serve.engine")
        try:
            self.inner.advance_to(t_s)
        finally:
            tracer.close(sid)

    def submit(self, request):
        tracer = self.tracer
        if tracer is None:
            outcome = self.inner.submit(request)
            self.done[request.request_id] = time.perf_counter()
            return outcome
        rid = request.request_id
        root = self.roots.get(rid)
        sid = tracer.open("engine.submit", "serve.engine", parent=root, req=rid)
        try:
            return self.inner.submit(request)
        finally:
            end = tracer.close(sid)
            self.done[rid] = end * 1e-9
            if root is not None:
                tracer.end_detached(root, end)


def stream_pass(engine, requests, *, faults=None, tracer=None) -> PassResult:
    """Replay ``requests`` through a fresh ``ServeServer`` over ``engine``."""
    delegate = TimedEngine(engine, tracer)
    server = ServeServer(delegate, config=ServerConfig(queue_depth=QUEUE_DEPTH), faults=faults)
    starts: dict[int, float] = {}

    async def produce() -> float:
        server.start()
        t0 = time.perf_counter()
        for request in requests:
            rid = request.request_id
            if tracer is not None:
                delegate.roots[rid] = tracer.begin_detached("request", "serve.server", rid)
            starts[rid] = time.perf_counter()
            await server.submit(request)
        await server.drain()
        return time.perf_counter() - t0

    wall_s = asyncio.run(produce())
    report = server.report(wall_s=wall_s)
    done = delegate.done
    latencies = np.array(
        [done[rid] - t0 for rid, t0 in starts.items() if rid in done], dtype=float
    )
    served = [o for o in report.outcomes if o.served]
    return PassResult(
        wall_s=wall_s,
        n_requests=report.n_submitted,
        served_frac=len(served) / report.n_submitted,
        fidelities=[o.fidelity for o in served],
        latencies_us=latencies * 1e6,
        n_errors=report.n_shed + report.n_cancelled,
        report=report,
    )


def _compare_outcomes(streamed, reference) -> list[str]:
    if len(streamed) != len(reference):
        return [f"{len(streamed)} streamed outcomes vs {len(reference)} batch outcomes"]
    bad = sum(not outcomes_equal(a, b) for a, b in zip(streamed, reference))
    return [f"{bad} streamed outcomes differ from serve_batch"] if bad else []


class Workload:
    """Common shape; subclasses define inputs, set-up, pass and checks."""

    name = "?"
    serving = True

    def __init__(self, size: Size, seed: int) -> None:
        self.size = size
        self.seed = seed
        self.lans = lans_from_sites(all_ground_nodes())

    def requests(self):
        """The workload's inputs, made from the seed alone."""
        raise NotImplementedError

    def setup(self, requests) -> dict:
        raise NotImplementedError

    def run_pass(self, state: dict, requests, tracer=None) -> PassResult:
        return stream_pass(state["engine"], requests, faults=state.get("plane"), tracer=tracer)

    def check(self, requests, passes: list[PassResult]) -> list[str]:
        raise NotImplementedError

    def coverage(self, passes: list[PassResult]) -> float:
        """``coverage_frac``: paper coverage of the workload's day."""
        return coverage_fraction(propagate(self.size), None, self.size.duration_s)

    @contextlib.contextmanager
    def running(self):
        """Process-wide settings for the workload's passes."""
        yield


class HourHot(Workload):
    """One hour, eager cache, grid-aligned arrivals: memo hits dominate."""

    name = "hour-hot"

    def requests(self):
        grid = ephemeris_mod.movement_sheet_times(self.size.duration_s, STEP_S)
        times = grid[: self.size.hour_samples]
        raw = poisson_request_stream(
            self.lans, rate_hz=self.size.hour_rate_hz, duration_s=float(times[-1]), seed=self.seed
        )
        return align_to_grid(raw, times)

    def _engine(self):
        window = propagate(self.size).at_time_indices(range(self.size.hour_samples))
        return build_engine("cached", window, attribute_denials=False)

    def setup(self, requests) -> dict:
        engine = self._engine()
        engine.advance_to(requests[0].t_s)
        engine.submit(requests[0])
        return {"engine": engine}

    def check(self, requests, passes) -> list[str]:
        reference = self._engine().serve_batch(requests)
        failures: list[str] = []
        for result in passes:
            failures += _compare_outcomes(result.report.outcomes, reference)
        return failures


class DayCold(HourHot):
    """All 2,880 samples, windowed cache, raw arrivals: every sample is new."""

    name = "day-cold"
    window = 32

    def requests(self):
        grid = ephemeris_mod.movement_sheet_times(self.size.duration_s, STEP_S)
        return poisson_request_stream(
            self.lans, rate_hz=self.size.day_rate_hz, duration_s=float(grid[-1]), seed=self.seed
        )

    def _engine(self):
        return build_engine(
            "cached", propagate(self.size), attribute_denials=False, window=self.window
        )


def fault_schedule(satellites, stations) -> FaultSchedule:
    """Renewal outages: ~11 % of satellites and stations down at any time."""
    return FaultSchedule(
        processes=(
            FailureProcess("satellite_outage", tuple(satellites), 14400.0, 1800.0),
            FailureProcess("ground_station_downtime", tuple(stations), 14400.0, 1800.0),
        )
    )


class RescueOps(Workload):
    """``repro serve`` operator settings: attribution, faults, k-shortest rescue."""

    name = "rescue-ops"
    tenants = ("tenant-0", "tenant-1", "tenant-2")
    window = 32

    def requests(self):
        size = self.size
        # Twice the expected span, then the first ``rescue_requests``
        # arrivals: a fixed count, so p99 always has >= 10 samples beyond it.
        raw = poisson_request_stream(
            self.lans,
            rate_hz=size.rescue_rate_hz,
            duration_s=2.0 * size.rescue_requests / size.rescue_rate_hz,
            seed=self.seed,
            tenants=self.tenants,
        )
        return tuple(
            replace(r, t_s=r.t_s + size.rescue_offset_s) for r in raw[: size.rescue_requests]
        )

    def _plane(self, ephemeris):
        stations = [site.name for site in all_ground_nodes()]
        schedule = fault_schedule(ephemeris.names, stations)
        return schedule.realize(seed=FAULT_SEED, horizon_s=self.size.duration_s).compile()

    def setup(self, requests) -> dict:
        ephemeris = propagate(self.size)
        plane = self._plane(ephemeris)
        engine = build_engine(
            "cached",
            ephemeris,
            faults=plane,
            window=self.window,
            strategy=StrategyConfig(router="k-shortest", k=2, memory_slots=4),
        )
        # Serve until one request takes the rescue path, so the relaxed
        # link-state cache the rescue builds lazily is built (and filled
        # to the window) here for every seed, never inside the pass.
        for request in requests:
            engine.advance_to(request.t_s)
            outcome = engine.submit(request)
            if outcome.purified or not outcome.served:
                break
        return {"engine": engine, "plane": plane}

    @contextlib.contextmanager
    def running(self):
        live.force(True)  # as `repro serve --http-port` does
        try:
            yield
        finally:
            live.force(False)

    def check(self, requests, passes) -> list[str]:
        causes = {c.value for c in DenialCause}
        failures: list[str] = []
        for result in passes:
            report = result.report
            if report.n_served + report.n_denied != len(requests):
                failures.append(
                    f"served {report.n_served} + denied {report.n_denied} "
                    f"!= submitted {len(requests)}"
                )
            bad = sum(
                (o.cause is not None) if o.served else (o.cause not in causes)
                for o in report.outcomes
            )
            if bad:
                failures.append(f"{bad} outcomes without exactly one denial cause")
            if sum(report.cause_counts.values()) != report.n_denied:
                failures.append("cause counts do not sum to the denials")
        return failures

    def coverage(self, passes) -> float:
        ephemeris = propagate(self.size)
        return coverage_fraction(ephemeris, self._plane(ephemeris), self.size.duration_s)


#: Table III point of the 108-satellite day at the default seed
#: (coverage %, served %, mean fidelity), as the golden tests pin it.
PAPER_PINS = (56.04, 58.13, 0.9206)


class PaperSweep(Workload):
    """``run_constellation_sweep`` over sizes 6..108: Figs. 6-8 and Table III."""

    name = "paper-sweep"
    serving = False

    def requests(self):
        return generate_requests(list(all_ground_nodes()), self.size.sweep_requests, self.seed)

    def setup(self, requests) -> dict:
        ephemeris = propagate(self.size)
        analysis = SpaceGroundAnalysis(
            ephemeris, list(all_ground_nodes()), paper_satellite_fso()
        )
        analysis.serve([r.endpoints for r in requests], 0)
        return {}

    def run_pass(self, state, requests, tracer=None) -> PassResult:
        size = self.size
        with _timed_batches() as batches:
            t0 = time.perf_counter()
            sweep = sweeps.run_constellation_sweep(
                list(size.sweep_sizes) if size.sweep_sizes else None,
                duration_s=size.duration_s,
                step_s=STEP_S,
                n_requests=size.sweep_requests,
                n_time_steps=size.sweep_steps,
                seed=self.seed,
            )
            wall_s = time.perf_counter() - t0
        last = sweep.points[-1].service
        n_evaluated = len(sweep.points) * last.n_requests * last.n_time_steps
        # Every request of a batch gets its answer when the batch returns.
        latencies = np.repeat(np.asarray(batches, dtype=float) * 1e6, last.n_requests)
        return PassResult(
            wall_s=wall_s,
            n_requests=n_evaluated,
            served_frac=last.served_fraction,
            fidelities=list(last.fidelities),
            latencies_us=latencies,
            sweep=sweep,
        )

    def check(self, requests, passes) -> list[str]:
        failures: list[str] = []
        for result in passes:
            sweep = result.sweep
            point = sweep.points[-1]
            got = (
                round(point.coverage.percentage, 2),
                round(point.service.served_percentage, 2),
                round(point.service.mean_fidelity, 4),
            )
            if self.size is FULL and got[0] != PAPER_PINS[0]:
                failures.append(f"coverage {got[0]} % != pinned {PAPER_PINS[0]} %")
            if self.size is FULL and self.seed == DEFAULT_SEED and got != PAPER_PINS:
                failures.append(f"108-satellite point {got} != pinned {PAPER_PINS}")
            for series in (sweep.coverage_percentages, sweep.served_percentages):
                if any(b < a for a, b in zip(series, series[1:])):
                    failures.append("a prefix constellation lost coverage or service")
            if not 0.0 < point.service.served_percentage <= 100.0:
                failures.append("108-satellite point serves nothing")
            if not 0.5 <= point.service.mean_fidelity <= 1.0:
                failures.append(f"mean fidelity {point.service.mean_fidelity} out of range")
        return failures

    def coverage(self, passes) -> float:
        return passes[0].sweep.points[-1].coverage.percentage / 100.0


@contextlib.contextmanager
def _timed_batches():
    """Time every ``SpaceGroundAnalysis.serve`` batch of a sweep."""
    original = SpaceGroundAnalysis.serve
    durations: list[float] = []

    def serve(*args, **kwargs):
        t0 = time.perf_counter()
        out = original(*args, **kwargs)
        durations.append(time.perf_counter() - t0)
        return out

    SpaceGroundAnalysis.serve = serve
    try:
        yield durations
    finally:
        SpaceGroundAnalysis.serve = original


WORKLOADS = {cls.name: cls for cls in (HourHot, DayCold, RescueOps, PaperSweep)}
