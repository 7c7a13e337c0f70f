"""The live ops plane: bus fan-out, windowed aggregation, distributed
trace correlation and JSONL stitching (:mod:`repro.telemetry.live`,
:mod:`repro.telemetry.aggregate`, :mod:`repro.telemetry.bench`)."""

import json
from fractions import Fraction as F

import pytest

from repro.faults.plan import FaultPlan, NodeCrash
from repro.faults.recovery import resilient_run
from repro.platform.examples import paper_figure4_tree
from repro.protocol import run_protocol
from repro.protocol.messages import Acknowledgment, Proposal, wire_size
from repro.runtime import negotiate
from repro.runtime.codec import decode_body, encode_message
from repro.telemetry import (
    Aggregator,
    CounterWindow,
    GaugeWindow,
    HistogramSnapshot,
    LiveRegistry,
    MetricEvent,
    MetricsBus,
    Registry,
    epoch_id,
    merge_jsonl,
    mint_trace_id,
    stitch_chrome_trace,
    stream_jsonl,
    trace_ids,
)
from repro.telemetry.bench import BenchWatch, compare_records, summarise
from repro.telemetry.live import filter_trace


class TestMetricsBus:
    def test_fanout_and_unsubscribe(self):
        bus = MetricsBus()
        got = []
        bus.on_metric(got.append)
        event = MetricEvent("counter", "x", (), 1, 1)
        bus.publish_metric(event)
        bus.unsubscribe(got.append)
        bus.publish_metric(event)
        assert got == [event]

    def test_subscriber_may_detach_mid_publish(self):
        bus = MetricsBus()
        seen = []

        def once(event):
            seen.append(event)
            bus.unsubscribe(once)

        bus.on_metric(once)
        event = MetricEvent("gauge", "g", (), 5, 5)
        bus.publish_metric(event)
        bus.publish_metric(event)
        assert len(seen) == 1

    def test_span_subscription(self):
        bus = MetricsBus()
        spans = []
        bus.on_span(spans.append)
        reg = LiveRegistry(bus=bus)
        span = reg.begin_span("s", start=F(0))
        reg.end_span(span, F(2))
        assert spans == [span]


class TestLiveRegistry:
    def test_instruments_publish_deltas(self):
        reg = LiveRegistry()
        events = []
        reg.bus.on_metric(events.append)
        reg.counter("c", lab="x").inc(3)
        reg.gauge("g").set(F(5, 2))
        reg.histogram("h").observe(7)
        kinds = [(e.kind, e.name, e.delta) for e in events]
        assert kinds == [("counter", "c", 3), ("gauge", "g", F(5, 2)),
                         ("histogram", "h", 7)]

    def test_records_exactly_what_a_plain_registry_records(self):
        plain, live = Registry(), LiveRegistry()
        r1 = run_protocol(paper_figure4_tree(), telemetry=plain)
        r2 = run_protocol(paper_figure4_tree(), telemetry=live)
        assert r1.throughput == r2.throughput
        assert plain.value("protocol.messages") == live.value(
            "protocol.messages")
        assert len(plain.spans) == len(live.spans)
        for a, b in zip(plain.spans, live.spans):
            assert (a.name, a.node, a.start, a.end) == (
                b.name, b.node, b.start, b.end)

    def test_instruments_are_cached_per_label_set(self):
        reg = LiveRegistry()
        assert reg.counter("c", a="1") is reg.counter("c", a="1")
        assert reg.counter("c", a="1") is not reg.counter("c", a="2")


class TestWindows:
    def test_counter_window_rate(self):
        win = CounterWindow(window=10.0, buckets=10)
        for t in range(5):
            win.add(2, float(t))
        assert win.total == 10
        assert win.rate(5.0) == pytest.approx(1.0)

    def test_counter_window_expires_old_buckets(self):
        win = CounterWindow(window=10.0, buckets=10)
        win.add(100, 0.0)
        assert win.rate(100.0) == pytest.approx(0.0)
        assert win.total == 100  # the all-time total never expires

    def test_gauge_window_min_max_and_idle(self):
        win = GaugeWindow(window=10.0, buckets=10)
        assert win.window(0.0) == (None, None)
        win.set(5, 1.0)
        win.set(2, 1.2)
        win.set(9, 3.0)
        assert win.last == 9
        assert win.window(3.5) == (2, 9)
        # the window forgets, the last value does not
        assert win.window(500.0) == (None, None)
        assert win.last == 9

    def test_histogram_snapshot_merge(self):
        a, b = HistogramSnapshot(), HistogramSnapshot()
        for value in (1, 5):
            a.observe(value)
        b.observe(3)
        merged = a.merge(b)
        assert (merged.count, merged.sum, merged.min, merged.max) == (
            3, 9.0, 1.0, 5.0)
        assert merged.as_dict()["mean"] == pytest.approx(3.0)


class TestAggregator:
    def make(self):
        clock = {"now": 100.0}
        bus = MetricsBus()
        agg = Aggregator(bus, window=10.0, buckets=10,
                         clock=lambda: clock["now"])
        return bus, agg, clock

    def test_counter_rollup(self):
        bus, agg, clock = self.make()
        reg = LiveRegistry(bus=bus)
        for _ in range(10):
            reg.counter("protocol.messages").inc()
            clock["now"] += 0.5
        snap = agg.snapshot()
        (row,) = [c for c in snap["counters"]
                  if c["name"] == "protocol.messages"]
        assert row["total"] == 10
        assert row["rate"] == pytest.approx(1.0)

    def test_epoch_and_proposer_tallies(self):
        bus, agg, clock = self.make()
        reg = LiveRegistry(bus=bus)
        reg.record_span("rejoin", F(1), F(2), node="P3", epoch="t1.e0")
        for proposer in ("P1", "P1", "P2"):
            reg.record_span("transaction", F(0), F(1), node="P0",
                            proposer=proposer)
        snap = agg.snapshot()
        assert [e["name"] for e in snap["epochs"]] == ["rejoin"]
        assert snap["epochs"][0]["tags"]["epoch"] == "t1.e0"
        assert snap["negotiation"]["transactions"] == 3
        assert snap["negotiation"]["by_proposer"] == {"P1": 2, "P2": 1}

    def test_snapshot_is_json_serialisable(self):
        bus, agg, clock = self.make()
        reg = LiveRegistry(bus=bus)
        run_protocol(paper_figure4_tree(), telemetry=reg)
        json.dumps(agg.snapshot())  # must not raise on Fractions

    def test_detach_stops_updates(self):
        bus, agg, clock = self.make()
        reg = LiveRegistry(bus=bus)
        agg.detach()
        reg.counter("c").inc()
        assert agg.snapshot()["counters"] == []


class TestTraceCorrelation:
    def test_run_protocol_mints_and_tags(self):
        reg = Registry()
        result = run_protocol(paper_figure4_tree(), telemetry=reg)
        assert result.trace_id and result.trace_id.startswith("t")
        transactions = reg.spans_named("transaction")
        assert transactions
        assert {s.tags.get("trace") for s in transactions} == {
            result.trace_id}

    def test_caller_supplied_trace_id_wins(self):
        reg = Registry()
        result = run_protocol(paper_figure4_tree(), telemetry=reg,
                              trace_id="tcustom")
        assert result.trace_id == "tcustom"

    def test_disabled_run_mints_nothing(self):
        result = run_protocol(paper_figure4_tree())
        assert result.trace_id is None

    def test_trace_rides_the_codec_frame(self):
        msg = Proposal(sender="P0", receiver="P1", beta=F(3, 7), xid=4,
                       trace="tabc123")
        decoded = decode_body(encode_message(msg))
        assert decoded == msg and decoded.trace == "tabc123"
        ack = Acknowledgment(sender="P1", receiver="P0", theta=F(1, 2),
                             xid=4, trace="tabc123")
        assert decode_body(encode_message(ack)).trace == "tabc123"

    def test_trace_does_not_change_model_wire_size(self):
        bare = Proposal(sender="P0", receiver="P1", beta=F(1, 3), xid=1)
        traced = Proposal(sender="P0", receiver="P1", beta=F(1, 3), xid=1,
                          trace=mint_trace_id())
        assert wire_size(bare) == wire_size(traced)

    def test_runtime_actors_adopt_one_trace(self):
        reg = Registry()
        result = negotiate(paper_figure4_tree(), telemetry=reg)
        assert result.trace_id
        spans = reg.spans_named("transaction")
        assert {s.tags.get("trace") for s in spans} == {result.trace_id}

    def test_epoch_ids_share_the_run_trace(self):
        tree = paper_figure4_tree()
        plan = FaultPlan(crashes=(NodeCrash("P5", F(2)),), seed=7)
        reg = Registry()
        report = resilient_run(tree, plan, telemetry=reg)
        (recovery,) = reg.spans_named("recovery")
        trace = recovery.tags["trace"]
        tagged = [s for s in reg.spans if "epoch" in s.tags]
        assert tagged
        assert {s.tags["epoch"] for s in tagged} == {
            epoch_id(trace, i) for i in range(len(report.epochs))}

    def test_epoch_id_format(self):
        assert epoch_id("tdeadbeef", 3) == "tdeadbeef.e3"


class TestStitching:
    def _stream_run(self, tmp_path, index, transport="tcp"):
        reg = Registry()
        path = tmp_path / f"actor{index}.jsonl"
        stream = stream_jsonl(reg, path)
        try:
            result = negotiate(paper_figure4_tree(), transport=transport,
                               telemetry=reg)
        finally:
            stream.close()
        return path, reg, result

    def test_merge_remaps_ids_and_sums_counters(self, tmp_path):
        paths, regs = [], []
        for i in range(2):
            path, reg, _ = self._stream_run(tmp_path, i, transport="inproc")
            paths.append(path)
            regs.append(reg)
        merged = merge_jsonl(paths)
        assert len(merged.spans) == sum(len(r.spans) for r in regs)
        ids = [s.id for s in merged.spans]
        assert len(set(ids)) == len(ids)  # no collisions across files
        by_id = {s.id: s for s in merged.spans}
        for span in merged.spans:  # parent links survive the remap
            if span.parent_id is not None:
                assert span.parent_id in by_id
        assert merged.value("protocol.messages") == sum(
            r.value("protocol.messages") for r in regs)

    def test_stitched_tcp_trace_flows_span_all_actors(self, tmp_path):
        """Acceptance: a TCP runtime run stitches into one trace whose
        flow events connect every actor under a single trace id."""
        paths, results = [], []
        for i in range(2):
            path, _, result = self._stream_run(tmp_path, i)
            paths.append(path)
            results.append(result)
        merged = merge_jsonl(paths)
        assert sorted(trace_ids(merged)) == sorted(
            r.trace_id for r in results)

        target = results[0].trace_id
        doc = stitch_chrome_trace(paths, trace_id=target)
        spans = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        flows = [e for e in doc["traceEvents"] if e.get("cat") == "flow"]
        # every actor the negotiation contacted (BW-First never proposes
        # into saturated subtrees, so unvisited leaves have no actor span)
        actors = {str(n) for n in results[0].visited}
        track_names = {e["tid"]: e["args"]["name"]
                       for e in doc["traceEvents"] if e["ph"] == "M"}
        tracks = {track_names[e["tid"]] for e in spans}
        assert tracks == actors
        assert len(spans) == len(actors)  # one transaction per actor
        # one s->f arrow pair per parent->child activation
        starts = [e for e in flows if e["ph"] == "s"]
        finishes = [e for e in flows if e["ph"] == "f"]
        assert len(starts) == len(finishes) == len(actors) - 1
        assert {e["id"] for e in starts} == {e["id"] for e in finishes}

    def test_filter_trace_follows_ancestors(self):
        reg = Registry()
        root = reg.begin_span("recovery", start=F(0), trace="tX")
        child = reg.begin_span("detect", start=F(1), parent=root)
        other = reg.begin_span("transaction", start=F(0), trace="tY")
        for span in (root, child, other):
            reg.end_span(span, F(2))
        kept = filter_trace(reg, "tX")
        assert [s.name for s in kept.spans] == ["recovery", "detect"]


class TestBenchCompare:
    BASE = [{"params": {"nodes": 10}, "wall_s": 1.0, "node_evals": 42}]

    def test_exact_evals_and_wall_ratio(self):
        """Equal counts pass whatever the wall ratio — ten times slower
        is a slower host, not a drift."""
        measured = [{"params": {"nodes": 10}, "wall_s": 10.0,
                     "node_evals": 42}]
        drifts = compare_records("b", self.BASE, measured)
        assert [d.metric for d in drifts] == ["node_evals"]
        assert summarise(drifts) == {"checked": 1, "failed": 0, "ok": True,
                                     "drifts": []}

    def test_eval_drift_fails(self):
        measured = [{"params": {"nodes": 10}, "wall_s": 0.5,
                     "node_evals": 43}]
        drifts = compare_records("b", self.BASE, measured)
        bad = [d for d in drifts if not d.ok]
        assert [d.metric for d in bad] == ["node_evals"]

    def test_unmatched_records_fail_loudly(self):
        drifts = compare_records("b", self.BASE, [])
        assert [d.metric for d in drifts] == ["matching"]
        assert not drifts[0].ok

    def test_benchwatch_live_check(self, tmp_path):
        payload = {"bench": "e28_chaos", "schema": 1,
                   "records": [{"params": {"sequences": 100},
                                "wall_s": 6.5, "node_evals": 100}]}
        (tmp_path / "BENCH_e28_chaos.json").write_text(json.dumps(payload))
        watch = BenchWatch(tmp_path, wall_tolerance=1.5)
        ok = watch.check_live(epochs=10, wall_s=0.65,
                              nodes=int(watch.E28_MEAN_NODES * 2))
        assert ok["status"] == "ok" and ok["ratio"] == pytest.approx(0.5)
        bad = watch.check_live(epochs=1, wall_s=1.0, nodes=1)
        assert bad["status"] == "drift"
        assert watch.check_live() == {"status": "no-data"}
