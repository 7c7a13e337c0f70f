"""Headless smoke of the live dashboard (:mod:`repro.telemetry.dash`):
boot the SSE server against a seeded chaos/recovery workload, assert the
stream delivers epoch and metric events, and shut down cleanly."""

import json
import queue
import threading
import time
import urllib.request

import pytest

from repro.telemetry.dash import Dashboard, run_dash_workload


class SseStream:
    """One open ``/events`` connection, read block by block."""

    def __init__(self, url, deadline_s=30.0):
        self.conn = urllib.request.urlopen(url, timeout=deadline_s)
        self.buf = b""
        self.events = {}

    def read_until(self, want, deadline_s=30.0):
        """Read SSE blocks until every event kind in *want* has been seen
        (or the deadline passes); returns {kind: first payload}."""
        deadline = time.monotonic() + deadline_s
        while time.monotonic() < deadline and not want <= set(self.events):
            chunk = self.conn.read(1)
            if not chunk:
                break
            self.buf += chunk
            while b"\n\n" in self.buf:
                block, self.buf = self.buf.split(b"\n\n", 1)
                lines = block.decode("utf-8").splitlines()
                kind = next((l[7:] for l in lines
                             if l.startswith("event: ")), None)
                data = next((l[6:] for l in lines
                             if l.startswith("data: ")), None)
                if kind is not None:
                    self.events.setdefault(kind, json.loads(data))
        return self.events


@pytest.fixture(scope="module")
def board():
    board = Dashboard(host="127.0.0.1", port=0, interval=0.2,
                      baseline_dir=".").start()
    yield board
    board.stop()


@pytest.fixture(scope="module")
def stream(board):
    """Subscribed before the story starts: the dashboard keeps no backlog,
    and with imports warm all of the 30-node story's epochs are pushed
    within ~40 ms of the worker starting.  The handler registers its queue
    before it writes ``hello``, so once that is read no push can be missed."""
    stream = SseStream(f"http://127.0.0.1:{board.port}/events")
    assert "hello" in stream.read_until({"hello"})
    yield stream
    stream.conn.close()


@pytest.fixture(scope="module")
def dash(board, stream):
    """One dashboard + completed workload shared by the module's tests."""
    worker = threading.Thread(
        target=run_dash_workload, args=(board.registry,),
        kwargs=dict(nodes=30, seed=2, state=board.workload), daemon=True)
    worker.start()
    yield board
    worker.join(timeout=60)


def test_sse_streams_epoch_and_metric_events(dash, stream):
    events = stream.read_until({"hello", "metrics", "epoch"})
    assert {"hello", "metrics", "epoch"} <= set(events)

    epoch = events["epoch"]
    assert epoch["name"] in {"detect", "prune", "failover", "quarantine",
                             "rejoin", "graft", "elect", "renegotiate",
                             "switch", "recovery", "epoch"}
    assert "epoch" in epoch["tags"] or epoch["name"] == "recovery"

    # the first metrics event fires on connect (possibly before any span
    # closed); by the time an epoch has streamed, a fresh snapshot must
    # show the negotiation's spans and counters
    snap = json.loads(urllib.request.urlopen(
        f"http://127.0.0.1:{dash.port}/api/snapshot", timeout=10).read())
    assert snap["spans"]["total"] > 0
    assert any(c["name"] == "protocol.messages" for c in snap["counters"])


def test_snapshot_endpoint_reports_workload_and_benchwatch(dash):
    deadline = time.monotonic() + 60
    url = f"http://127.0.0.1:{dash.port}/api/snapshot"
    while time.monotonic() < deadline:
        snap = json.loads(urllib.request.urlopen(url, timeout=10).read())
        if snap["workload"].get("status") == "done":
            break
        time.sleep(0.2)
    assert snap["workload"]["status"] == "done"
    assert snap["workload"]["epochs"] >= 1
    assert snap["negotiation"]["transactions"] > 0
    # BenchWatch panel: baselines loaded, live verdict computed
    assert snap["benchwatch"]["table"]
    assert snap["benchwatch"]["live"]["status"] in {"ok", "drift"}


def test_page_metrics_and_healthz_endpoints(dash):
    base = f"http://127.0.0.1:{dash.port}"
    page = urllib.request.urlopen(base + "/", timeout=10).read().decode()
    assert "EventSource" in page and "/events" in page
    prom = urllib.request.urlopen(base + "/metrics", timeout=10).read()
    assert b"# TYPE" in prom and b"protocol_messages" in prom
    health = urllib.request.urlopen(base + "/healthz", timeout=10).read()
    assert health == b"ok\n"
    with pytest.raises(urllib.error.HTTPError):
        urllib.request.urlopen(base + "/nope", timeout=10)


def test_slow_client_drops_oldest_not_the_run():
    board = Dashboard(host="127.0.0.1", port=0, interval=0.2)
    try:
        q = queue.Queue(maxsize=2)
        board._add_client(q)
        for i in range(5):
            board._broadcast("epoch", {"i": i})
        assert q.qsize() == 2  # bounded: publishing never blocked
        kinds = [q.get_nowait()[1]["i"] for _ in range(2)]
        assert kinds == [3, 4]  # the oldest were dropped, not the newest
    finally:
        board.stop()


def test_stop_is_clean_and_idempotent_server_lifecycle():
    board = Dashboard(host="127.0.0.1", port=0).start()
    url = f"http://127.0.0.1:{board.port}/healthz"
    assert urllib.request.urlopen(url, timeout=10).read() == b"ok\n"
    board.stop()
    with pytest.raises(OSError):
        urllib.request.urlopen(url, timeout=2)
