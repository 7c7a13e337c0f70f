"""``repro dash`` — a zero-dependency live ops dashboard over the bus.

Pure standard library: :class:`http.server.ThreadingHTTPServer` serves one
inline HTML/JS page and a Server-Sent-Events stream; no template engine,
no websocket library, no JS build step.  The browser opens
``EventSource('/events')`` and receives

* ``metrics`` events — the :class:`~repro.telemetry.aggregate.Aggregator`
  snapshot (windowed counter rates, gauge last/min/max, histogram
  summaries, span tallies), emitted every *interval* seconds per client;
* ``epoch`` events — pushed immediately when a recovery-lifecycle span
  (prune / failover / quarantine / rejoin / renegotiate / switch …)
  closes on the bus;
* one ``hello`` event on connect with the static context (workload
  parameters, the BenchWatch baseline table).

Slow consumers cannot stall the instrumented run: bus callbacks copy
events into a bounded per-client :class:`queue.Queue` and **drop the
oldest** on overflow — the live view degrades, the run does not.

Endpoints: ``/`` (the page), ``/events`` (SSE), ``/api/snapshot`` (one
aggregator snapshot as JSON), ``/metrics`` (Prometheus text exposition of
the underlying registry), ``/healthz``.

:func:`run_dash_workload` is the canonical thing to watch: a seeded
chaos/recovery story (crashes, a rejoin, renegotiations, schedule
switches) on a smooth-rate platform, driven through
:func:`~repro.faults.recovery.resilient_run` with a
:class:`~repro.telemetry.live.LiveRegistry` — the workload behind
``repro dash`` and the headless ``make dash-smoke`` gate.
"""

from __future__ import annotations

import json
import queue
import threading
import time
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Any, Dict, Optional

from .aggregate import EPOCH_SPAN_NAMES, Aggregator, span_record
from .bench import BenchWatch
from .core import Span
from .exporters import prometheus_text
from .live import LiveRegistry

#: Immediate-push span names (the recovery lifecycle, not per-transaction
#: chatter — transactions arrive through the aggregated snapshot instead).
PUSH_SPANS = EPOCH_SPAN_NAMES

_PAGE = """<!DOCTYPE html>
<html><head><meta charset="utf-8"><title>repro — live ops</title>
<style>
 body{font:13px/1.45 system-ui,sans-serif;margin:0;background:#111;color:#ddd}
 header{padding:10px 16px;background:#1b1b1b;border-bottom:1px solid #333}
 header b{color:#7fd4ff} #state{float:right;color:#888}
 main{display:grid;grid-template-columns:repeat(auto-fit,minmax(340px,1fr));
      gap:12px;padding:12px}
 section{background:#1b1b1b;border:1px solid #2a2a2a;border-radius:6px;
         padding:10px 12px;min-height:90px}
 h2{margin:0 0 8px;font-size:13px;color:#7fd4ff;font-weight:600}
 table{border-collapse:collapse;width:100%} td,th{padding:1px 6px;
   text-align:right;font-variant-numeric:tabular-nums}
 th{color:#888;font-weight:400;text-align:right} td:first-child,
 th:first-child{text-align:left;color:#aaa}
 .bar{background:#2f6;height:8px;border-radius:2px}
 .ok{color:#7f7} .bad{color:#f77} .dim{color:#777}
 #epochs li{list-style:none;margin:2px 0} #epochs ul{margin:0;padding:0}
 .kind{display:inline-block;min-width:78px;color:#fc7}
 progress{width:100%;height:10px}
</style></head><body>
<header><b>repro</b> live ops plane <span id="state">connecting…</span></header>
<main>
 <section><h2>negotiation progress</h2><div id="nego" class="dim">no data</div></section>
 <section><h2>recovery epochs</h2><div id="epochs" class="dim">no data</div></section>
 <section><h2>simulator</h2><div id="sim" class="dim">no data</div></section>
 <section><h2>incr-solver cache</h2><div id="cache" class="dim">no data</div></section>
 <section><h2>runtime octets / edge</h2><div id="octets" class="dim">no data</div></section>
 <section><h2>task plane</h2><div id="taskplane" class="dim">no data</div></section>
 <section><h2>benchwatch</h2><div id="bench" class="dim">no data</div></section>
 <section><h2>federation</h2><div id="fed" class="dim">no data</div></section>
</main>
<script>
const $=id=>document.getElementById(id);
let hello=null, epochs=[];
function fmt(x){return x==null?"—":(Math.abs(x)>=1000?x.toLocaleString():
  (Number.isInteger(x)?x:x.toFixed(3)))}
function table(rows,hdr){let h="<table>";if(hdr)h+="<tr>"+hdr.map(c=>`<th>${c}</th>`).join("")+"</tr>";
  for(const r of rows)h+="<tr>"+r.map(c=>`<td>${c}</td>`).join("")+"</tr>";return h+"</table>"}
function sum(list,pred){let t=0;for(const m of list)if(pred(m))t+=m.total??m.value??0;return t}
function rate(list,pred){let t=0;for(const m of list)if(pred(m))t+=m.rate??0;return t}
function render(s){
  $("state").textContent=`spans ${s.spans.total} · up ${fmt(s.uptime_s)}s`;
  const C=s.counters,G=s.gauges;
  const tx=s.negotiation;
  let rows=Object.entries(tx.by_proposer).map(([k,v])=>[k,v]);
  $("nego").innerHTML=`transactions: <b>${tx.transactions}</b> · messages: `+
    `<b>${fmt(sum(C,m=>m.name=="protocol.messages"))}</b>`+
    (rows.length?table(rows.slice(0,8),["proposer subtree","transactions"]):"");
  const ev=G.find(g=>g.name=="sim.events_processed"),
        clock=G.find(g=>g.name=="sim.clock"),
        hor=G.find(g=>g.name=="sim.horizon");
  const buf=G.filter(g=>g.name=="sim.buffer");
  const bufNow=sum(buf,()=>true), bufMax=Math.max(0,...buf.map(g=>g.max??0));
  let sim=`events: <b>${fmt(ev?.value)}</b> · task rate `+
    `<b>${fmt(rate(C,m=>m.name=="sim.tasks_computed"))}/s</b><br>`+
    `buffers: now ${fmt(bufNow)} · window max ${fmt(bufMax)}`;
  if(clock&&hor&&hor.value)sim+=`<br>virtual clock ${fmt(clock.value)} / `+
    `${fmt(hor.value)} <progress max="${hor.value}" value="${clock.value}"></progress>`;
  $("sim").innerHTML=sim;
  const cName=n=>sum(C,m=>m.name==n);
  const hits=cName("incr.hit.absorbed")+cName("incr.hit.saturated")+cName("incr.hit.exact");
  const miss=cName("incr.miss"), evals=cName("incr.evals");
  $("cache").innerHTML=table([
    ["node evals",fmt(evals)],["hits",fmt(hits)],["misses",fmt(miss)],
    ["hit ratio",hits+miss?((100*hits/(hits+miss)).toFixed(1)+"%"):"—"],
    ["invalidations",fmt(cName("incr.invalidations"))],
    ["evictions",fmt(cName("incr.evictions")+cName("incr.memo_evictions"))],
    ["memo eviction rate",fmt(rate(C,m=>m.name=="incr.memo_evictions"))+"/s"]]);
  const shards=C.filter(m=>m.name=="federation.resolves")
    .sort((a,b)=>(a.labels.shard??"").localeCompare(b.labels.shard??""))
    .map(m=>[m.labels.shard,fmt(m.total),fmt(m.rate)+"/s"]);
  if(shards.length){
    const gName=n=>G.find(g=>g.name==n)?.value;
    const mh=gName("federation.memo.hits"),mm=gName("federation.memo.misses"),
          xt=gName("federation.memo.cross_tenant_hits");
    let fed=table(shards,["shard","re-solves","rate"]);
    fed+=`memo: hits <b>${fmt(mh)}</b> · misses <b>${fmt(mm)}</b>`+
      ` · hit ratio <b>${mh+mm?((100*mh/(mh+mm)).toFixed(1)+"%"):"—"}</b><br>`+
      `cross-tenant hits <b>${fmt(xt)}</b> · entries `+
      `<b>${fmt(gName("federation.memo.entries"))}</b> · respawns `+
      `<b>${fmt(sum(C,m=>m.name=="federation.respawns"))}</b>`;
    $("fed").innerHTML=fed;
  }
  const edges=C.filter(m=>m.name=="runtime.tcp.edge_octets")
    .sort((a,b)=>b.total-a.total).slice(0,10)
    .map(m=>[m.labels.edge,fmt(m.total)]);
  $("octets").innerHTML=edges.length?table(edges,["edge","octets"]):
    `<span class="dim">no TCP runtime traffic (run with --runtime tcp)</span>`;
  const depth=G.filter(g=>g.name=="taskplane.buffer_depth");
  const bound=n=>G.find(g=>g.name=="taskplane.buffer_bound"&&
    g.labels.node==n)?.value;
  if(depth.length){
    const tpRows=depth.sort((a,b)=>(b.max??0)-(a.max??0)).slice(0,10)
      .map(g=>{const b=bound(g.labels.node);
        const over=b!=null&&(g.max??0)>b;
        return [g.labels.node,fmt(g.value),fmt(g.max),fmt(b),
          `<span class="${over?"bad":"ok"}">${over?"NO":"yes"}</span>`]});
    $("taskplane").innerHTML=
      `completions: <b>${fmt(sum(C,m=>m.name=="taskplane.completions"))}</b>`+
      ` · rate <b>${fmt(rate(C,m=>m.name=="taskplane.completions"))}/s</b>`+
      ` · resends <b>${fmt(sum(C,m=>m.name=="taskplane.resends"))}</b>`+
      table(tpRows,["edge→node","buffer now","peak","bound","within"]);
  }
}
function renderEpochs(){
  if(!epochs.length)return;
  $("epochs").innerHTML="<ul>"+epochs.slice(-14).map(e=>
    `<li><span class="kind">${e.name}</span> ${e.tags.epoch??""} `+
    `<span class="dim">t=${fmt(e.start)}→${fmt(e.end)}</span> `+
    `${e.tags.crashed??e.tags.child??e.tags.grafted??e.tags.elected??""}</li>`)
    .reverse().join("")+"</ul>";
}
function renderBench(b){
  if(!b)return;
  let html="";
  if(b.live&&b.live.status!="no-data"){
    const cls=b.live.status=="ok"?"ok":"bad";
    html+=`live run: <span class="${cls}">${b.live.status}</span> `+
      `(${fmt(b.live.live_wall_per_epoch)}s/epoch/node vs baseline `+
      `${fmt(b.live.baseline_wall_per_epoch)}s, ×${fmt(b.live.ratio)}, `+
      `tol ×${b.live.tolerance})<br>`;
  }
  html+=table(b.table.slice(0,12).map(r=>[r.bench,
    Object.entries(r.params).map(([k,v])=>`${k}=${v}`).join(" "),
    fmt(r.wall_s),fmt(r.node_evals)]),
    ["bench","params","wall s","node evals"]);
  $("bench").innerHTML=html;
}
const es=new EventSource("/events");
es.addEventListener("hello",e=>{hello=JSON.parse(e.data);
  renderBench(hello.benchwatch)});
es.addEventListener("metrics",e=>{const s=JSON.parse(e.data);
  epochs=s.epochs;render(s);renderEpochs();
  if(s.benchwatch)renderBench(s.benchwatch)});
es.addEventListener("epoch",e=>{epochs.push(JSON.parse(e.data));renderEpochs()});
es.onerror=()=>{$("state").textContent="disconnected"};
</script></body></html>
"""


class Dashboard:
    """The live server: one :class:`LiveRegistry` in, HTTP + SSE out."""

    def __init__(self, registry: Optional[LiveRegistry] = None,
                 host: str = "127.0.0.1", port: int = 8787,
                 interval: float = 1.0, baseline_dir=None,
                 wall_tolerance: float = 1.3, queue_size: int = 512):
        self.registry = registry if registry is not None else LiveRegistry()
        self.aggregator = Aggregator(self.registry.bus)
        self.interval = interval
        self.benchwatch = (BenchWatch(baseline_dir, wall_tolerance)
                           if baseline_dir is not None else None)
        #: mutated by the workload thread; surfaced in snapshots
        self.workload: Dict[str, Any] = {"status": "idle"}
        self._clients: set = set()
        self._clients_lock = threading.Lock()
        self._stopped = threading.Event()
        self.registry.bus.on_span(self._push_span)
        handler = _make_handler(self)
        self._server = ThreadingHTTPServer((host, port), handler)
        self._server.daemon_threads = True
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    @property
    def url(self) -> str:
        host, port = self._server.server_address[:2]
        return f"http://{host}:{port}/"

    @property
    def port(self) -> int:
        return self._server.server_address[1]

    def start(self) -> "Dashboard":
        self._thread = threading.Thread(target=self._server.serve_forever,
                                        name="repro-dash", daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stopped.set()
        if self._thread is not None:
            # shutdown() handshakes with serve_forever — only safe (it
            # would block forever otherwise) once start() actually ran
            self._server.shutdown()
        self._server.server_close()
        if self._thread is not None:
            self._thread.join(timeout=5)
        self.aggregator.detach()
        self.registry.bus.unsubscribe(self._push_span)

    # ------------------------------------------------------------------
    def _push_span(self, span: Span) -> None:
        if span.name not in PUSH_SPANS:
            return
        self._broadcast("epoch", span_record(span))

    def _broadcast(self, event: str, payload: Dict[str, Any]) -> None:
        with self._clients_lock:
            clients = tuple(self._clients)
        for q in clients:
            try:
                q.put_nowait((event, payload))
            except queue.Full:
                try:  # drop the oldest: the live view degrades, not the run
                    q.get_nowait()
                    q.put_nowait((event, payload))
                except (queue.Empty, queue.Full):
                    pass

    def _add_client(self, q: "queue.Queue") -> None:
        with self._clients_lock:
            self._clients.add(q)

    def _drop_client(self, q: "queue.Queue") -> None:
        with self._clients_lock:
            self._clients.discard(q)

    # ------------------------------------------------------------------
    def snapshot(self) -> Dict[str, Any]:
        snap = self.aggregator.snapshot()
        snap["workload"] = dict(self.workload)
        if self.benchwatch is not None:
            snap["benchwatch"] = {
                "table": self.benchwatch.table(),
                "live": self.benchwatch.check_live(
                    epochs=self.workload.get("epochs"),
                    wall_s=self.workload.get("wall_s"),
                    nodes=self.workload.get("nodes"),
                ),
            }
        return snap

    def hello(self) -> Dict[str, Any]:
        payload: Dict[str, Any] = {"workload": dict(self.workload),
                                   "interval": self.interval}
        if self.benchwatch is not None:
            payload["benchwatch"] = {"table": self.benchwatch.table(),
                                     "live": {"status": "no-data"}}
        return payload


def _make_handler(dash: Dashboard):
    class Handler(BaseHTTPRequestHandler):
        server_version = "repro-dash/1"
        protocol_version = "HTTP/1.1"

        def log_message(self, *args) -> None:  # quiet: the CLI narrates
            pass

        def _reply(self, body: bytes, content_type: str,
                   status: int = 200) -> None:
            self.send_response(status)
            self.send_header("Content-Type", content_type)
            self.send_header("Content-Length", str(len(body)))
            self.send_header("Cache-Control", "no-store")
            self.end_headers()
            self.wfile.write(body)

        def do_GET(self) -> None:  # noqa: N802 - BaseHTTPRequestHandler API
            path = self.path.split("?", 1)[0]
            try:
                if path == "/":
                    self._reply(_PAGE.encode("utf-8"),
                                "text/html; charset=utf-8")
                elif path == "/events":
                    self._sse()
                elif path == "/api/snapshot":
                    self._reply(json.dumps(dash.snapshot()).encode("utf-8"),
                                "application/json")
                elif path == "/metrics":
                    self._reply(prometheus_text(dash.registry).encode("utf-8"),
                                "text/plain; version=0.0.4; charset=utf-8")
                elif path == "/healthz":
                    self._reply(b"ok\n", "text/plain")
                else:
                    self._reply(b"not found\n", "text/plain", status=404)
            except (BrokenPipeError, ConnectionResetError):
                pass  # client went away; nothing to salvage

        def _sse(self) -> None:
            self.send_response(200)
            self.send_header("Content-Type", "text/event-stream")
            self.send_header("Cache-Control", "no-store")
            self.end_headers()

            def emit(event: str, payload: Dict[str, Any]) -> None:
                data = json.dumps(payload)
                self.wfile.write(
                    f"event: {event}\ndata: {data}\n\n".encode("utf-8"))
                self.wfile.flush()

            q: "queue.Queue" = queue.Queue(maxsize=512)
            dash._add_client(q)
            try:
                emit("hello", dash.hello())
                emit("metrics", dash.snapshot())
                while not dash._stopped.is_set():
                    try:
                        event, payload = q.get(timeout=dash.interval)
                    except queue.Empty:
                        event, payload = "metrics", dash.snapshot()
                    emit(event, payload)
            except (BrokenPipeError, ConnectionResetError):
                pass
            finally:
                dash._drop_client(q)

    return Handler


# ----------------------------------------------------------------------
# the canonical workload: a seeded chaos/recovery run, streamed live
# ----------------------------------------------------------------------
def run_dash_workload(registry: LiveRegistry, nodes: int = 1000,
                      seed: int = 1, runtime: Optional[str] = None,
                      state: Optional[Dict[str, Any]] = None,
                      taskplane_tasks: int = 120):
    """A seeded crash→quarantine→rejoin recovery story on a smooth-rate
    platform, instrumented into *registry* (pass the dashboard's).

    Smooth platforms (:func:`~repro.platform.generators.smooth_tree`) keep
    the global period small at any size, so a 1000-node story simulates in
    seconds while streaming thousands of bus events.  *runtime* routes the
    re-negotiations through the real asyncio runtime (``"tcp"`` populates
    the per-edge octet panel).  *state*, when given, is mutated in place
    (``status`` / ``wall_s`` / ``epochs``) for BenchWatch drift checks.

    After the recovery story, a live task plane executes
    *taskplane_tasks* real payloads on the Section 8 tree into the same
    registry — the ``taskplane.*`` gauges feed the per-edge
    occupancy-vs-bound panel (0 skips the phase).
    """
    from fractions import Fraction

    from ..faults.plan import FaultPlan, NodeCrash, NodeRejoin
    from ..faults.recovery import resilient_run
    from ..platform.generators import smooth_tree

    if state is None:
        state = {}
    state["status"] = "running"
    state["nodes"] = nodes
    t0 = time.monotonic()
    try:
        tree = smooth_tree(nodes, seed)
        leaves = sorted((n for n in tree.leaves() if n != tree.root),
                        key=str)
        victims = leaves[:: max(1, len(leaves) // 3)][:3]
        crashes = tuple(
            NodeCrash(node, Fraction(2 + 2 * i))
            for i, node in enumerate(victims)
        )
        # the first victim is repaired once its death has been declared
        # (default detection: interval 1, timeout 1/2 → declared at 2.5)
        rejoins = (NodeRejoin(victims[0], Fraction(8)),) if victims else ()
        plan = FaultPlan(crashes=crashes, rejoins=rejoins, seed=seed)
        report = resilient_run(tree, plan, telemetry=registry,
                               runtime=runtime)
        state["wall_s"] = time.monotonic() - t0
        state["epochs"] = len(report.epochs)
        state["rate_after"] = float(report.rate_after)
        if taskplane_tasks:
            from ..platform.examples import paper_figure4_tree
            from ..taskplane import run_plane

            state["status"] = "task plane"
            plane = run_plane(paper_figure4_tree(), "inproc",
                              max_tasks=taskplane_tasks, registry=registry)
            state["taskplane"] = {
                "completed": plane.completed,
                "lost": plane.lost,
                "duplicates": plane.duplicates,
                "convergence": plane.convergence,
                "occupancy_ok": plane.occupancy_ok(),
            }
        state["status"] = "done"
        return report
    except BaseException as exc:
        state["status"] = f"error: {exc}"
        raise


def serve_dashboard(nodes: int = 1000, seed: int = 1, host: str = "127.0.0.1",
                    port: int = 8787, runtime: Optional[str] = None,
                    baseline_dir=None, interval: float = 1.0,
                    workload: bool = True) -> Dashboard:
    """Start a :class:`Dashboard` (and optionally its chaos workload in a
    background thread); returns the running dashboard.  The caller owns
    shutdown via :meth:`Dashboard.stop`."""
    dash = Dashboard(host=host, port=port, interval=interval,
                     baseline_dir=baseline_dir).start()
    if workload:
        thread = threading.Thread(
            target=run_dash_workload,
            args=(dash.registry,),
            kwargs=dict(nodes=nodes, seed=seed, runtime=runtime,
                        state=dash.workload),
            name="repro-dash-workload", daemon=True,
        )
        thread.start()
    return dash
