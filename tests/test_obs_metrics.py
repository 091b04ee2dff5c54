"""Tests for the named metrics of the counter registry: instruments,
deltas, worker fan-in."""

from __future__ import annotations

import pytest

from repro.perf import (
    Counter,
    Gauge,
    Histogram,
    PerfCounters,
    rates_from_counters,
)


class TestInstruments:
    def test_counter(self):
        c = Counter()
        c.inc()
        c.inc(4)
        assert c.value == 5

    def test_gauge_set_and_set_max(self):
        g = Gauge()
        assert g.value is None
        g.set(2.0)
        g.set(1.0)
        assert g.value == 1.0
        g.set_max(0.5)
        assert g.value == 1.0  # high-water mark kept
        g.set_max(3.0)
        assert g.value == 3.0

    def test_histogram_bucket_placement(self):
        h = Histogram(edges=(1.0, 2.0, 3.0))
        for v in (0.5, 1.0, 1.5, 2.0, 3.0, 4.0):
            h.observe(v)
        # Edges are inclusive upper bounds; the last slot is overflow.
        assert h.counts == [2, 2, 1, 1]
        assert h.count == 6
        assert h.sum == pytest.approx(12.0)
        assert h.min == 0.5 and h.max == 4.0
        assert h.mean() == pytest.approx(2.0)

    def test_empty_histogram(self):
        h = Histogram(edges=(1.0,))
        assert h.mean() is None
        assert h.as_dict()["counts"] == [0, 0]

    def test_bad_edges_rejected(self):
        with pytest.raises(ValueError):
            Histogram(edges=(2.0, 1.0))
        with pytest.raises(ValueError):
            Histogram(edges=(1.0, 1.0))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        reg = PerfCounters()
        assert reg.counter("a") is reg.counter("a")
        assert reg.gauge("g") is reg.gauge("g")
        assert reg.histogram("h", (1.0,)) is reg.histogram("h")

    def test_as_dict_is_sorted(self):
        reg = PerfCounters()
        reg.counter("zeta").inc()
        reg.counter("alpha").inc()
        assert list(reg.metrics()["counters"]) == ["alpha", "zeta"]
        # Named counters stay out of the work-counter dict.
        assert "alpha" not in reg.as_dict()

    def test_reset(self):
        reg = PerfCounters()
        reg.counter("a").inc()
        reg.probe_calls = 5
        reg.reset()
        assert reg.metrics() == {"counters": {}, "gauges": {}, "histograms": {}}
        assert reg.probe_calls == 5  # work counters only grow

    def test_delta_subtracts_counters_and_histograms(self):
        reg = PerfCounters()
        reg.counter("c").inc(3)
        reg.probe_calls = 10
        reg.histogram("h", (1.0, 2.0)).observe(0.5)
        before = reg.snapshot()
        reg.counter("c").inc(2)
        reg.probe_calls += 4
        reg.histogram("h").observe(1.5)
        reg.gauge("g").set_max(7.0)
        d = reg.delta(before)
        assert d.probe_calls == 4
        delta = d.metrics()
        assert delta["counters"]["c"] == 2
        assert delta["histograms"]["h"]["counts"] == [0, 1, 0]
        assert delta["histograms"]["h"]["count"] == 1
        assert delta["histograms"]["h"]["sum"] == pytest.approx(1.5)
        assert delta["gauges"]["g"] == 7.0  # gauges carry current value

    def test_merge_folds_worker_deltas(self):
        # Two "workers" observe disjoint slices; the parent merge must
        # equal one process having observed everything.
        def worker(values):
            reg = PerfCounters()
            before = reg.snapshot()
            for v in values:
                reg.counter("cases").inc()
                reg.histogram("lat", (1.0, 2.0)).observe(v)
                reg.gauge("conv").set_max(v)
                reg.csr_settled += 1
            return reg.delta(before)

        parent = PerfCounters()
        parent.merge(worker([0.5, 1.5]))
        parent.merge(worker([2.5]))
        parent.merge(PerfCounters())  # workers may ship nothing
        assert parent.csr_settled == 3
        merged = parent.metrics()
        assert merged["counters"]["cases"] == 3
        assert merged["histograms"]["lat"]["counts"] == [1, 1, 1]
        assert merged["histograms"]["lat"]["count"] == 3
        assert merged["histograms"]["lat"]["sum"] == pytest.approx(4.5)
        assert merged["histograms"]["lat"]["min"] == 0.5
        assert merged["histograms"]["lat"]["max"] == 2.5
        assert merged["gauges"]["conv"] == 2.5  # max fold

    def test_merge_is_order_independent(self):
        deltas = []
        for values in ([0.5], [1.5, 2.5], [0.1]):
            reg = PerfCounters()
            for v in values:
                reg.counter("n").inc()
                reg.histogram("h", (1.0,)).observe(v)
            deltas.append(reg.snapshot())
        a = PerfCounters()
        b = PerfCounters()
        for d in deltas:
            a.merge(d)
        for d in reversed(deltas):
            b.merge(d)
        assert a.metrics() == b.metrics()

    def test_merge_rejects_edge_mismatch(self):
        reg = PerfCounters()
        reg.histogram("h", (1.0, 2.0)).observe(0.5)
        other = PerfCounters()
        other.histogram("h", (5.0,)).observe(0.5)
        with pytest.raises(ValueError, match="edge mismatch"):
            reg.merge(other)


class TestRates:
    def test_rates_from_counters(self):
        counters = {
            "probe_calls": 100,
            "o1_probes": 90,
            "path_probes": 10,
            "oracle_rows_full": 60,
            "oracle_rows_truncated": 40,
            "oracle_promotions": 10,
            "dijkstra_runs": 4,
            "dijkstra_relaxations": 400,
            "dijkstra_settled": 100,
        }
        rates = rates_from_counters(counters)
        assert rates["o1_probe_rate"] == pytest.approx(0.9)
        assert rates["path_probe_rate"] == pytest.approx(0.1)
        assert rates["oracle_truncated_share"] == pytest.approx(0.4)
        assert rates["oracle_promotion_rate"] == pytest.approx(0.25)
        assert rates["relaxations_per_dijkstra"] == pytest.approx(100.0)
        assert rates["settled_per_dijkstra"] == pytest.approx(25.0)

    def test_zero_denominators_yield_none(self):
        rates = rates_from_counters({})
        assert all(v is None for v in rates.values())
