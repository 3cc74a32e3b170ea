"""Windowed (incremental-advance) link state vs the eager precompute.

A windowed :class:`LinkStateCache` / :class:`LinkBudgetTable` defers the
transmissivity/admission/fault physics and fills it chunk-by-chunk as
the time cursor advances. Every chunk operation is elementwise over the
time axis, so the windowed series must equal the eager full-horizon
series *bitwise* — for any window size, with or without a fault plane —
and the fill must actually be lazy (that is the perf point).
"""

import numpy as np
import pytest

from repro.channels.presets import paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.engine import LinkStateCache
from repro.engine.budgets import LinkBudgetTable
from repro.errors import ValidationError
from repro.faults import FaultSchedule, LinkFlap, SatelliteOutage, WeatherFade
from repro.network.topology import attach_satellites, build_qntn_ground_network

WINDOWS = [1, 7, 64, 120, 170]  # 120 == n_times for the 2 h / 60 s fixture


@pytest.fixture(scope="module")
def sat_network(small_ephemeris):
    network = build_qntn_ground_network()
    attach_satellites(network, small_ephemeris, paper_satellite_fso())
    return network


@pytest.fixture(scope="module")
def fault_plane():
    schedule = FaultSchedule(
        events=(
            SatelliteOutage(0.0, 3600.0, satellite="sat-004"),
            WeatherFade(600.0, 4800.0, site="ttu-0", extra_db=2.5),
            LinkFlap(0.0, 1800.0, node_a="ttu-3", node_b="sat-001"),
        )
    )
    return schedule.compile()


def assert_same_graph_series(windowed, eager):
    assert windowed.n_times == eager.n_times
    for k in range(eager.n_times):
        gw, ge = windowed.graph_at_index(k), eager.graph_at_index(k)
        assert set(gw) == set(ge)
        for node in ge:
            assert gw[node] == ge[node]  # exact float equality, not approx


class TestLinkStateWindowed:
    @pytest.mark.parametrize("window", WINDOWS)
    def test_bitwise_equal_to_eager(self, sat_network, window):
        eager = LinkStateCache(sat_network)
        windowed = LinkStateCache(sat_network, window=window)
        assert_same_graph_series(windowed, eager)
        np.testing.assert_array_equal(
            windowed.feasible_edge_counts(), eager.feasible_edge_counts()
        )

    @pytest.mark.parametrize("window", [1, 64])
    def test_bitwise_equal_with_faults(self, sat_network, fault_plane, window):
        eager = LinkStateCache(sat_network, faults=fault_plane)
        windowed = LinkStateCache(sat_network, faults=fault_plane, window=window)
        assert_same_graph_series(windowed, eager)

    def test_fill_is_lazy(self, sat_network):
        cache = LinkStateCache(sat_network, window=10)
        assert cache._built_upto == 0
        cache.graph_at_index(0)
        assert cache._built_upto == 10
        cache.graph_at_index(34)
        assert cache._built_upto == 40  # rounded up to the window boundary
        cache.graph_at_index(3)  # inside the built prefix: no growth
        assert cache._built_upto == 40

    def test_eager_cache_is_fully_built(self, sat_network):
        cache = LinkStateCache(sat_network)
        assert cache._built_upto == cache.n_times

    @pytest.mark.parametrize("window", [0, -3])
    def test_invalid_window_rejected(self, sat_network, window):
        with pytest.raises(ValidationError):
            LinkStateCache(sat_network, window=window)

    def test_routing_identical_to_eager(self, sat_network, small_ephemeris):
        eager = LinkStateCache(sat_network)
        windowed = LinkStateCache(sat_network, window=16)
        for t in small_ephemeris.times_s[::13]:
            for source in ("ttu-0", "ornl-10"):
                tw = windowed.routing_tree(float(t), source)
                te = eager.routing_tree(float(t), source)
                assert tw.costs == te.costs
                assert tw.predecessors == te.predecessors


class TestBudgetTableWindowed:
    @pytest.fixture(scope="class")
    def sites(self):
        return list(all_ground_nodes())[:4]

    @pytest.mark.parametrize("window", [1, 7, 120, 170])
    def test_bitwise_equal_to_eager(self, small_ephemeris, sites, window):
        model = paper_satellite_fso()
        eager = LinkBudgetTable(small_ephemeris, sites, model)
        windowed = LinkBudgetTable(small_ephemeris, sites, model, window=window)
        windowed.compute_all()
        for site in sites:
            be, bw = eager.budget(site.name), windowed.budget(site.name)
            np.testing.assert_array_equal(bw.transmissivity, be.transmissivity)
            np.testing.assert_array_equal(bw.usable, be.usable)

    def test_bitwise_equal_with_faults(self, small_ephemeris, sites, fault_plane):
        model = paper_satellite_fso()
        eager = LinkBudgetTable(small_ephemeris, sites, model, faults=fault_plane)
        windowed = LinkBudgetTable(
            small_ephemeris, sites, model, faults=fault_plane, window=9
        )
        windowed.compute_all()
        for site in sites:
            be, bw = eager.budget(site.name), windowed.budget(site.name)
            np.testing.assert_array_equal(bw.transmissivity, be.transmissivity)
            np.testing.assert_array_equal(bw.usable, be.usable)
            np.testing.assert_array_equal(bw.healthy_usable, be.healthy_usable)

    def test_ensure_index_advances_in_windows(self, small_ephemeris, sites):
        table = LinkBudgetTable(
            small_ephemeris, sites, paper_satellite_fso(), window=10
        )
        budget = table.budget(sites[0].name)
        assert table._filled[sites[0].name] == 10
        table.ensure_index(25)
        assert table._filled[sites[0].name] == 30
        # The arrays are filled in place — the handle stays valid.
        assert budget is table.budget(sites[0].name)

    def test_ensure_index_rejects_out_of_range(self, small_ephemeris, sites):
        table = LinkBudgetTable(
            small_ephemeris, sites, paper_satellite_fso(), window=10
        )
        n = small_ephemeris.n_samples
        with pytest.raises(ValidationError):
            table.ensure_index(n)
        with pytest.raises(ValidationError):
            table.ensure_index(-1)

    def test_invalid_window_rejected(self, small_ephemeris, sites):
        with pytest.raises(ValidationError):
            LinkBudgetTable(small_ephemeris, sites, paper_satellite_fso(), window=0)

    def test_ensure_index_noop_when_eager(self, small_ephemeris, sites):
        table = LinkBudgetTable(small_ephemeris, sites, paper_satellite_fso())
        budget = table.budget(sites[0].name)
        table.ensure_index(0)  # must not raise or recompute
        assert budget is table.budget(sites[0].name)
