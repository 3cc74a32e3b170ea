"""The cached denial-cause cascade equals the scalar oracle bit for bit.

On the cached serving path :meth:`NetworkSimulator._attribute_denial`
reads each channel's physics from a per-sample memo instead of
re-evaluating it per request. Satellites are sample-and-hold and ground
sites and HAPs hold still, so the memo may only be keyed by the
movement-sheet sample; the HAP duty cycle and the fault plane are still
applied at the exact request time. The scenario here exercises every
one of those edges: off-grid timestamps, times exactly on duty-cycle and
fault-window edges, a duty-cycled HAP next to the satellites, every
fault type, and replays in both time directions so the memo's sample
moves backwards as well as forwards.
"""

import numpy as np
import pytest

from repro.channels.presets import paper_hap_fso, paper_satellite_fso
from repro.data.ground_nodes import all_ground_nodes
from repro.faults import (
    FaultSchedule,
    GroundStationDowntime,
    LinkFlap,
    SatelliteOutage,
    WeatherFade,
)
from repro.network.hap import HAP
from repro.network.simulator import NetworkSimulator
from repro.network.topology import attach_hap, attach_satellites, build_qntn_ground_network
from repro.network.workload import lans_from_sites, poisson_request_stream
from repro.utils.intervals import Interval

#: Both window edges fall between the 60 s samples, so the duty cycle at
#: the exact request time differs from the one at the held sample.
HAP_WINDOWS = [Interval(0.0, 1530.0), Interval(4020.5, 5400.0)]

SCHEDULE = FaultSchedule(
    events=(
        SatelliteOutage(600.0, 3000.0, satellite="sat-004"),
        WeatherFade(0.0, 3600.0, site="ttu-0", extra_db=2.0),
        WeatherFade(1800.0, 7200.0, site="ttu-0", extra_db=1.0),
        GroundStationDowntime(3000.0, 3630.0, station="ornl-0"),
        GroundStationDowntime(1000.0, 1400.0, station="ornl-0"),
        LinkFlap(900.0, 2700.0, node_a="epb-3", node_b="hap-0"),
        LinkFlap(0.0, 1800.0, node_a="ttu-3", node_b="sat-001"),
    )
)


def _simulator(ephemeris, *, use_cache):
    network = build_qntn_ground_network()
    attach_satellites(network, ephemeris, paper_satellite_fso())
    attach_hap(network, HAP(operational_windows=HAP_WINDOWS), paper_hap_fso())
    return NetworkSimulator(network, faults=SCHEDULE.compile(), use_cache=use_cache)


#: Requests exactly on (and just before) fault and duty-cycle edges. The
#: cached serving path resolves them at the held sample, so most are not
#: denials there; the cascade is still compared on them.
EDGE_PROBES = [
    (pair, t)
    for t in (1000.0, 1400.0, 1529.9, 1530.0, 4020.5, 600.0, 3000.0, 3630.0, 1800.0)
    for pair in (("ttu-3", "ornl-0"), ("epb-3", "ttu-0"))
]


@pytest.fixture(scope="module")
def denials(small_ephemeris):
    """The cached simulator after serving an off-grid faulted stream, and
    the requests it denied."""
    cached = _simulator(small_ephemeris, use_cache=True)
    stream = poisson_request_stream(
        lans_from_sites(all_ground_nodes()), rate_hz=0.03, duration_s=7200.0, seed=5
    )
    denied = [
        (r.source, r.destination, r.t_s)
        for r in stream
        if not cached.serve_request(r.source, r.destination, r.t_s).served
    ]
    return cached, denied


def test_stream_denials_are_off_grid(small_ephemeris, denials):
    _, denied = denials
    times = np.array([t for _, _, t in denied])
    assert len(denied) >= 40
    assert not np.any(np.isin(times, small_ephemeris.times_s))


@pytest.mark.parametrize("order", ["forward", "reverse"])
def test_cached_cascade_equals_scalar_oracle(small_ephemeris, denials, order):
    cached, denied = denials
    direct = _simulator(small_ephemeris, use_cache=False)
    probes = denied + [(src, dst, t) for (src, dst), t in EDGE_PROBES]
    probes.sort(key=lambda r: r[2], reverse=order == "reverse")
    causes = set()
    for src, dst, t in probes:
        expected = direct._attribute_denial(src, dst, t, 1000)
        got = cached._attribute_denial(src, dst, t, 1000)
        # Exact equality: cause, every candidate dict (floats included)
        # and every gate count.
        assert got == expected, (src, dst, t)
        assert cached.denial_cause(src, dst, t) == direct.denial_cause(src, dst, t)
        causes.add(got[0])
    assert len(causes) >= 3, causes


class _DriftingHAP(HAP):
    """A platform that moves but is not a satellite (no movement sheet)."""

    @property
    def is_mobile(self) -> bool:
        return True

    def position_ecef_km(self, t_s):
        return super().position_ecef_km(t_s) + np.array([t_s * 1e-3, 0.0, 0.0])


def test_mobile_non_satellite_channels_bypass_the_memo(small_ephemeris):
    network = build_qntn_ground_network()
    attach_hap(network, _DriftingHAP(), paper_hap_fso())
    sim = NetworkSimulator(network, use_cache=True)
    channel = network.channel_between("ttu-0", "hap-0")
    for t in (0.0, 10.0, 59.0, 10.0):
        assert sim._cascade_state(channel, t, {}) == channel.evaluate(t, sim.policy)
