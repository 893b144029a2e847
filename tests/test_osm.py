"""Tests for the OpenStreetMap XML importer."""

import numpy as np
import pytest

from repro.matching import match_trace, partition_by_light
from repro.network.osm import parse_osm
from repro.trace.records import TraceArrays

# A hand-written micro-map: one signalized crossroad where an east-west
# primary road (way 100) crosses a north-south residential road
# (way 200); plus a one-way service spur (way 300) and a footway that
# must be ignored.  Node 2, the crossroad itself, carries the signal.
OSM_XML = """<?xml version='1.0' encoding='UTF-8'?>
<osm version="0.6" generator="handmade">
  <node id="1" lat="22.5400" lon="114.0400"/>
  <node id="2" lat="22.5400" lon="114.0500">
    <tag k="highway" v="traffic_signals"/>
  </node>
  <node id="3" lat="22.5400" lon="114.0600"/>
  <node id="4" lat="22.5350" lon="114.0500"/>
  <node id="6" lat="22.5450" lon="114.0500"/>
  <node id="7" lat="22.5450" lon="114.0600"/>
  <way id="100">
    <nd ref="1"/><nd ref="2"/><nd ref="3"/>
    <tag k="highway" v="primary"/>
    <tag k="name" v="ShenNan Road"/>
  </way>
  <way id="200">
    <nd ref="4"/><nd ref="2"/><nd ref="6"/>
    <tag k="highway" v="residential"/>
  </way>
  <way id="300">
    <nd ref="6"/><nd ref="7"/>
    <tag k="highway" v="service"/>
    <tag k="oneway" v="yes"/>
  </way>
  <way id="400">
    <nd ref="1"/><nd ref="4"/>
    <tag k="highway" v="footway"/>
  </way>
</osm>
"""


@pytest.fixture(scope="module")
def net():
    return parse_osm(OSM_XML)


class TestParse:
    def test_rejects_non_osm(self):
        with pytest.raises(ValueError):
            parse_osm("<gpx></gpx>")

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            parse_osm("<osm></osm>")

    def test_footway_ignored(self, net):
        assert all("footway" not in s.name for s in net.segments)

    def test_node_count(self, net):
        # graph nodes: 1, 3 (endpoints of way 100), 2 (shared), 4, 6
        # (endpoints of 200), 7 (endpoint of 300)
        names = {n.name for n in net.intersections}
        assert names == {"osm:1", "osm:2", "osm:3", "osm:4", "osm:6", "osm:7"}

    def test_signal_detection(self, net):
        sig = [n for n in net.intersections if n.signalized]
        assert [n.name for n in sig] == ["osm:2"]

    def test_bidirectional_segments(self, net):
        # way 100 splits at node 2: 1<->2 and 2<->3, two directions each
        ew = [s for s in net.segments if s.name == "ShenNan Road"]
        assert len(ew) == 4

    def test_oneway_respected(self, net):
        spur = [s for s in net.segments if "service" in s.name]
        assert len(spur) == 1

    def test_geometry_sane(self, net):
        for s in net.segments:
            assert s.length > 10.0
        # the east-west road runs ~1 km per half (0.01 deg lon)
        ew = [s for s in net.segments if s.name == "ShenNan Road"]
        assert ew[0].length == pytest.approx(1026, rel=0.05)


class TestPipelineCompatibility:
    def test_map_matching_works_on_osm_network(self, net):
        # a fix on ShenNan Road heading east must match an EW segment
        seg = next(s for s in net.segments if s.name == "ShenNan Road")
        x, y = seg.point_at(seg.length / 2)
        lon, lat = net.frame.to_geographic(np.array([x]), np.array([y]))
        tr = TraceArrays(
            taxi_id=[1], t=[0.0], lon=lon, lat=lat,
            speed_kmh=[30.0], heading_deg=[seg.heading],
        )
        m = match_trace(tr, net)
        assert m.segment_id[0] >= 0
        matched = net.segments[int(m.segment_id[0])]
        assert matched.name == "ShenNan Road"

    def test_partitioning_works_on_osm_network(self, net):
        # records near the signalized node partition under its light
        sig = next(n for n in net.intersections if n.signalized)
        inc = net.incoming(sig.id)
        assert len(inc) == 4  # a four-leg crossroad
        seg = inc[0]
        x, y = seg.point_at(30.0)
        lon, lat = net.frame.to_geographic(np.array([x]), np.array([y]))
        tr = TraceArrays(
            taxi_id=[1], t=[0.0], lon=lon, lat=lat,
            speed_kmh=[0.0], heading_deg=[seg.heading],
        )
        parts = partition_by_light(match_trace(tr, net), net)
        assert any(k[0] == sig.id for k in parts)


class TestOsmEndToEnd:
    def test_simulate_and_identify_on_osm_network(self, net):
        """The full pipeline must run unchanged on an OSM-derived map."""
        from repro.core import identify_many
        from repro.lights.intersection import SignalPlan, attach_signals_to_network
        from repro.sim import ApproachConfig, CitySimulation
        from repro.trace import TraceGenerator

        sig = next(n for n in net.intersections if n.signalized)
        plans = {sig.id: [SignalPlan(cycle_s=98.0, ns_red_s=39.0, offset_s=12.0)]}
        signals = attach_signals_to_network(net, plans)
        rates = {s.id: 400.0 for s in net.incoming(sig.id)}
        sim = CitySimulation(
            net, signals, rates, ApproachConfig(segment_length_m=400.0)
        )
        res = sim.run(0.0, 5400.0, seed=3, serial=True)
        trace = TraceGenerator(net).generate(res, rng=np.random.default_rng(1))
        assert len(trace) > 500

        parts = partition_by_light(match_trace(trace, net), net)
        ests, _ = identify_many(parts, 5400.0, backend="serial")
        assert ests, "at least one approach group must identify"
        locked = [e for e in ests.values() if abs(e.cycle_s - 98.0) <= 3.0]
        assert locked, "the OSM crossroad's cycle must be recoverable"
