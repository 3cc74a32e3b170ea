"""The path table installs lazily, once per (epoch, pair) lookup.

A pair's candidate paths are enumerated on its first lookup within a
link-state epoch and reused for the rest of that epoch. Advancing the
epoch only uninstalls: nothing is re-enumerated that no request asked
for, and the table never carries pairs over from an earlier epoch.
"""

import pytest

from repro import obs
from repro.channels.presets import paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_satellites, build_qntn_ground_network
from repro.network.workload import lans_from_sites, poisson_request_stream
from repro.routing.strategies import PathTable, StrategyConfig


@pytest.fixture
def telemetry():
    obs.reset()
    obs.enable()
    try:
        yield obs.registry()
    finally:
        obs.disable()
        obs.reset()


def test_installs_equal_distinct_epoch_pair_lookups(small_ephemeris, telemetry):
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    sim = NetworkSimulator(
        network, use_cache=True, strategy=StrategyConfig(router="k-shortest", k=2)
    )
    strategy = sim.strategy
    inner = strategy.candidates
    runs: list[tuple[object, set]] = []  # one (epoch, pairs) per epoch run

    def recording(pair, epoch, enumerate_pair):
        if not runs or runs[-1][0] != epoch:
            runs.append((epoch, set()))
        runs[-1][1].add(pair)
        out = inner(pair, epoch, enumerate_pair)
        assert strategy.table.epoch == epoch
        assert len(strategy.table) == len(runs[-1][1])
        return out

    strategy.candidates = recording
    stream = poisson_request_stream(
        lans_from_sites(all_ground_nodes()), rate_hz=0.05, duration_s=7200.0, seed=3
    )
    for r in stream:
        sim.serve_request(r.source, r.destination, r.t_s)

    lookups = sum(len(pairs) for _, pairs in runs)
    assert len(runs) >= 5 and lookups > len(runs)
    assert telemetry.counter("routing.paths.installed").value == lookups
    assert telemetry.counter("routing.paths.uninstalled").value == lookups - len(runs[-1][1])


def test_advance_only_uninstalls():
    table = PathTable()
    table.advance("e0")
    table.install(("a", "b"), ())
    table.install(("a", "c"), ())
    table.advance("e0")
    assert len(table) == 2
    assert table.advance("e1") is None
    assert len(table) == 0 and table.epoch == "e1"
    assert table.lookup(("a", "b")) is None
