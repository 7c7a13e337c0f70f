# Development commands for the repro library.

.PHONY: install test bench bench-tables faults-smoke telemetry-smoke runtime-smoke perf-smoke chaos-smoke taskplane-smoke federation-smoke bench-record bench-check dash-smoke examples outputs all clean

install:
	pip install -e . || python setup.py develop

test:
	pytest tests/

bench:
	pytest benchmarks/ --benchmark-only

bench-tables:
	pytest benchmarks/ -s

# quick end-to-end check of the fault-injection + self-healing subsystem;
# tests/test_fault_seam.py keeps the one seam one (three carriers, one set
# of books; every verdict == the oracle; no second statement in src/)
faults-smoke:
	PYTHONPATH=src pytest benchmarks/bench_e23_fault_recovery.py \
		tests/test_faults.py tests/test_fault_seam.py \
		tests/test_fault_recovery.py \
		tests/test_detect.py tests/test_protocol_lossy.py -q

# quick end-to-end check of the telemetry layer: exporters via the CLI,
# then the telemetry suite + the E24 disabled-overhead bar
telemetry-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	tree='P0(w=3)[P1(w=2,c=1),P2(w=2,c=2)]'; \
	PYTHONPATH=src python -m repro metrics "$$tree" --dsl --horizon 12 \
		> $$tmp/metrics.txt && \
	PYTHONPATH=src python -m repro trace "$$tree" --dsl \
		--out $$tmp/trace.json && \
	PYTHONPATH=src python -m repro trace "$$tree" --dsl --format jsonl \
		--out $$tmp/trace.jsonl && \
	PYTHONPATH=src pytest tests/test_telemetry.py \
		benchmarks/bench_e24_telemetry_overhead.py -q

# quick end-to-end check of the distributed runtime: negotiate the Fig. 4
# tree over in-process queues and over real loopback TCP sockets, then the
# runtime suite + the E25 cross-substrate bench, then the end-to-end
# benchmark's own wire workloads at smoke scale (== bw_first, exactly-once
# ledger, Prop. 3 bound, on both wires).  `timeout` hard-bounds the wall
# clock so a hung socket fails fast instead of wedging CI.
runtime-smoke:
	@tmp=$$(mktemp -d); trap 'rm -rf $$tmp' EXIT; \
	timeout 300 sh -c "\
		PYTHONPATH=src python -c 'from repro.platform import save_tree; \
			from repro.platform.examples import paper_figure4_tree; \
			save_tree(paper_figure4_tree(), \"$$tmp/fig4.json\")' && \
		PYTHONPATH=src python -m repro runtime $$tmp/fig4.json \
			--transport inproc && \
		PYTHONPATH=src python -m repro runtime $$tmp/fig4.json \
			--transport tcp && \
		PYTHONPATH=src pytest tests/test_runtime.py \
			tests/test_tcp_edges.py tests/test_warm_negotiation.py \
			tests/test_codec_splitter.py tests/test_wire_structure.py \
			benchmarks/bench_e25_runtime.py -q && \
		python3 benchmarks/e2e/__main__.py --workload wire-tcp --smoke && \
		python3 benchmarks/e2e/__main__.py --workload wire-inproc --smoke"

# perf regression gate for the incremental solver + the simulation kernel:
# the E26, E27 and E31 gate tests plus their unit suites, hard-bounded by
# `timeout` so a pathological regression fails fast instead of wedging CI.
# The E26 gate asserts node_evals(incremental) < node_evals(full) on a
# single-leaf mutation (a count, so it cannot flake on slow runners); the
# E27 gate asserts the production (array) kernel's best-of-3 run() CPU
# time strictly beats the Fraction reference's (an expected ~5x gap, so
# noise cannot invert it) and that a leaf mutation recomputes strictly
# fewer schedule fragments than a full rebuild; its cold-plan twin asserts
# build_schedules on the integer interleave strictly beats the same call on
# the Fraction marks kept in tests/fraction_oracles.py (~6x) at ==, and
# tests/test_plan_exact.py pins the chain's outputs.  Three same-run ratio
# gates, equality asserted beside each ratio: IncrementalSolver.rate() at
# most 0.8x solve() on churn batches of a 240-node tree (~0.3), one rate()
# evaluation at most 0.7x one bw_first evaluation on the same batches
# (~0.4; the loop runs on int pairs, bw_first on Fraction), and the
# integer Allocation.check at most 0.6x the Fraction oracle on a 3000-node
# tree (~0.2).  The E31 gate asserts the
# 10k-node counts-only run agrees with an event-recording run and that a
# 100k-node, >=1M-event run completes inside the timeout, and that a
# 3000-node run recording every completion,
# arrival and release costs at most 1.35x the counts-only run of the same
# process with no row lost (tests/test_trace_columns.py pins what the
# columnar trace reads back), and that a 3000-node run over 8 global
# periods costs at most 1.4x one over 4 (periods after the first repeated
# boundary are written, not stepped; tests/test_period_replication.py holds
# them == to the stepping reference); tests/test_sim_structure.py keeps the
# duration tables plain int lists.  The end-to-end benchmark's coldscale
# workload runs at smoke scale so its own rate == optimum check guards
# every PR.
perf-smoke:
	timeout 600 sh -c "\
		PYTHONPATH=src pytest \
			'benchmarks/bench_e26_incremental.py::test_e26_perf_smoke_gate' \
			'benchmarks/bench_e26_incremental.py::test_e26_rate_over_solve_ratio_gate' \
			'benchmarks/bench_e26_incremental.py::test_e26_rate_per_eval_gate' \
			'benchmarks/bench_e27_timeline.py::test_e27_perf_smoke_gate' \
			'benchmarks/bench_e27_timeline.py::test_e27_cold_plan_gate' \
			'benchmarks/bench_e27_timeline.py::test_e27_integer_check_ratio_gate' \
			'benchmarks/bench_e31_arraykernel.py::test_e31_perf_smoke_gate' \
			'benchmarks/bench_e31_arraykernel.py::test_e31_100k_nodes_million_events' \
			'benchmarks/bench_e31_arraykernel.py::test_e31_recording_ratio_gate' \
			'benchmarks/bench_e31_arraykernel.py::test_e31_replication_ratio_gate' \
			tests/test_incremental.py tests/test_timeline.py \
			tests/test_trace_columns.py tests/test_period_replication.py \
			tests/test_plan_exact.py tests/test_sim_structure.py -q && \
		PYTHONPATH=src python -m repro bench-incr --nodes 200 --mutations 5 && \
		PYTHONPATH=src python -m repro bench-timeline --nodes 200 && \
		python3 benchmarks/e2e/__main__.py --workload coldscale --smoke"

# the self-healing gate: 100 seeded random fault sequences (crashes,
# rejoins, root failover, hostile links, background loss) must EVERY one
# converge back to the exact BW-First optimum of whatever platform
# survives, checked against a from-scratch solve.  Deterministic by seed —
# a failure is a real bug, never flake.  `timeout` hard-bounds the wall
# clock so a wedged recovery fails fast instead of hanging CI.
chaos-smoke:
	timeout 540 sh -c "\
		PYTHONPATH=src pytest \
			'benchmarks/bench_e28_chaos.py::test_chaos_gate' \
			tests/test_chaos.py tests/test_fault_recovery.py \
			tests/test_detect.py -q && \
		PYTHONPATH=src python -m repro chaos --sequences 100"

# the task-plane gate: real payloads under the negotiated schedule must
# converge to the solver optimum, stay inside the analytic buffer bounds,
# and account every task exactly once — on the in-proc, loopback-TCP and
# multi-process cluster substrates, including under seeded payload faults.
# The cluster reads its sockets through the codec's FrameSplitter, so the
# splitter's differential property and the one-wire structural checks run
# here too, beside the one-dispatcher structural checks of the engine.
# `timeout` hard-bounds the wall clock so a wedged socket or a stalled
# child process fails fast instead of hanging CI.
taskplane-smoke:
	timeout 540 sh -c "\
		PYTHONPATH=src pytest benchmarks/bench_e30_taskplane.py \
			tests/test_taskplane.py tests/test_taskplane_tcp.py \
			tests/test_taskplane_structure.py \
			tests/test_codec_splitter.py tests/test_wire_structure.py -q && \
		PYTHONPATH=src python -m repro exec --transport inproc --tasks 60 && \
		PYTHONPATH=src python -m repro chaos --data-plane --sequences 3"

# the multi-tenant federation gate: the federation suite (shared-subtree
# bit-exactness through the cross-tenant memo, a store that holds the
# solvers' own solutions and the solver's fail-closed intake of an entry,
# one ask + one publish per solve, each shard's own store, shard crash
# retry, bad-op containment, ring / wire / planner units), the structural
# test that keeps the memo process and the int wire form deleted, plus
# the E32 gates (federated churn strictly beats N isolated full solvers with
# cross-tenant hits; memo round trips during the churn <= re-solves
# served, a count; best-of-3 federated wall < isolated-incremental in the
# same run, a ratio), then a small
# `repro federate bench` run through the CLI.  `timeout` hard-bounds the
# wall clock so a wedged shard worker fails fast.
federation-smoke:
	timeout 540 sh -c "\
		PYTHONPATH=src pytest tests/test_federation.py \
			tests/test_federation_structure.py \
			benchmarks/bench_e32_federation.py -q && \
		PYTHONPATH=src python -m repro federate bench --tenants 4 \
			--nodes 80 --mutations 6 --batch 3 --json > /dev/null"

# re-record the committed perf baselines (BENCH_*.json at the repo root)
bench-record:
	PYTHONPATH=src python benchmarks/record_baseline.py

# bench regression gate: re-run the recorders and diff against the
# committed BENCH_*.json — node_evals and record matching must be exact
# (deterministic per seed).  The recorded wall_s is not compared: an
# absolute wall clock measures the host, so wall time is gated only as
# same-run ratios inside the benches (E25, E27, E31, E32).  `timeout`
# hard-bounds the wall clock so a pathological regression fails fast.
bench-check:
	timeout 540 sh -c "PYTHONPATH=src python benchmarks/check_baseline.py"

# headless smoke of the live ops plane: boot `repro dash` against a
# seeded chaos/recovery workload, assert the SSE stream delivers epoch
# and metric events and the server shuts down cleanly, then run the live
# telemetry suites.  `timeout` hard-bounds a wedged server.
dash-smoke:
	timeout 300 sh -c "\
		PYTHONPATH=src pytest tests/test_dash.py tests/test_live.py -q && \
		PYTHONPATH=src python -m repro dash --port 0 --nodes 60 --seed 2 \
			--run-for 3"

examples:
	@for f in examples/*.py; do \
		echo "== $$f =="; \
		python $$f > /dev/null || exit 1; \
	done; echo "all examples ran cleanly"

outputs:
	pytest tests/ 2>&1 | tee test_output.txt
	pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

all: test bench

clean:
	rm -rf .pytest_cache .benchmarks src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
