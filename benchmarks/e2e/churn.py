"""``churn`` — the ROADMAP scenario: tenant mutations travel federation
batch → incremental solve → inproc negotiation → fragment splice.

Eight tenants over four templated smooth trees.  The four platforms are
fixtures and the seed drives the churn on them: platform shape alone moves
the flush wall by ±12 % (no cheap size measure predicts it), which would
read as noise across seeds.  One block is one round:
every tenant queues four seeded ops, one ``flush()`` re-solves them on the
shards, then each tenant's agent walks the path ``resilient_run`` uses —
``IncrementalSolver.<op>`` + ``solve()`` → ``negotiate(.., "inproc")`` →
``from_bw_first`` → ``schedule_builder().build()`` → ``global_period`` —
which ends with schedules ready to switch to.  A sample of
``mutation_to_switch`` is the round's flush wall plus the tenant's own
chain.  One rotating tenant a round is also simulated for three global
periods (simulating every batch was 52 % of the prototype's wall, hence
the 1-in-8 sample); that check and every reference comparison sit outside
the end-to-end timers.
"""

from __future__ import annotations

import random
from fractions import Fraction

from repro.analysis.throughput import measured_rate
from repro.core.allocation import from_bw_first
from repro.core.bwfirst import bw_first
from repro.core.incremental import IncrementalSolver
from repro.federation import FederationService, matches_reference
from repro.platform.generators import smooth_tree
from repro.platform.serialization import tree_from_dict, tree_to_dict
from repro.platform.tree import Tree
from repro.runtime import negotiate
from repro.schedule.periods import global_period
from repro.sim.simulator import Simulation

from .workloads import Workload, record_op

#: the smooth-tree pools: mutations drawn from them keep every rate
#: denominator inside one small lcm, so global periods stay simulable
WEIGHTS = (2048, 3072, 4096, 6144)
COSTS = (1, 2)

#: generator seeds of the four platform templates
PLATFORMS = (7000, 7001, 7002, 7003)

OPS_PER_BATCH = 4
#: global periods the sampled simulation runs; the last one is measured.
#: Two are not enough: some mutated platforms need two periods of start-up
#: (4 of 112 sampled batches at seed 1), none of 750 tried needed three.
SIM_PERIODS = 3
#: cumulative op mix: set_w leaf, set_c, prune leaf, graft a pruned leaf
MIX = ((0.70, "set_w"), (0.85, "set_c"), (0.95, "prune"), (1.00, "graft"))


class _Agent:
    """One tenant as the benchmark sees it: the mirror the ops are drawn
    against (and the independent replay the final reference check solves),
    the agent-side incremental solver, and the leaves pruned so far."""

    def __init__(self, name: str, tree: Tree, seed: int, floor: int):
        self.name = name
        self.mirror = tree.copy()
        self.solver = None
        self.rng = random.Random(seed)
        self.stash: list = []   # (leaf, parent, c, w) pruned, graftable
        self.floor = floor      # never prune below this many nodes

    def draw_ops(self) -> list:
        """Four wire ops, each valid after the ones before it."""
        return [self._draw() for _ in range(OPS_PER_BATCH)]

    def _draw(self) -> list:
        rng, mirror = self.rng, self.mirror
        u = rng.random()
        kind = next(k for edge, k in MIX if u < edge)
        if kind == "graft":
            live = [e for e in self.stash if e[1] in mirror]
            if live:
                entry = rng.choice(live)
                self.stash.remove(entry)
                leaf, parent, c, w = entry
                mirror.add_node(leaf, w, parent=parent, c=c)
                return ["graft", parent, str(c),
                        tree_to_dict(Tree(leaf, w=w))]
            kind = "set_w"
        leaves = [n for n in mirror.leaves() if n != mirror.root]
        if kind == "prune" and len(mirror) > self.floor:
            leaf = rng.choice(leaves)
            self.stash.append((leaf, mirror.parent(leaf), mirror.c(leaf),
                               mirror.w(leaf)))
            mirror.remove_subtree(leaf)
            return ["prune", leaf]
        if kind == "set_c":
            node = rng.choice([n for n in mirror.nodes() if n != mirror.root])
            c = rng.choice(COSTS)
            mirror.set_c(node, c)
            return ["set_c", node, str(c)]
        leaf = rng.choice(leaves)
        w = rng.choice(WEIGHTS)
        mirror.set_w(leaf, w)
        return ["set_w", leaf, str(w)]

    def apply(self, op: list) -> None:
        solver = self.solver
        if op[0] == "set_w":
            solver.set_w(op[1], Fraction(op[2]))
        elif op[0] == "set_c":
            solver.set_c(op[1], Fraction(op[2]))
        elif op[0] == "prune":
            solver.prune(op[1])
        else:
            solver.graft(op[1], Fraction(op[2]), tree_from_dict(op[3]))


class Churn(Workload):
    name = "churn"
    exact_blocks = 4
    work_count = "core.incremental.batches"

    def inputs(self, seed: int, smoke: bool) -> dict:
        return {"seed": seed, "tenants": 4 if smoke else 8,
                "platforms": PLATFORMS[:2] if smoke else PLATFORMS,
                "nodes": 80 if smoke else 240}

    def setup(self, inputs: dict, tr) -> dict:
        seed, nodes = inputs["seed"], inputs["nodes"]
        templates = []
        for platform in inputs["platforms"]:
            with tr.span("platform.generate"):
                tree = smooth_tree(nodes, seed=platform)
            # through the wire form, so service, shards and agents agree
            # on node names
            templates.append(tree_from_dict(tree_to_dict(tree)))
        with tr.span("federation.start"):
            service = FederationService(shards=2, memo="service")
        agents = []
        try:
            for i in range(inputs["tenants"]):
                with tr.span("platform.copy"):
                    tree = templates[i % len(templates)].copy()
                agent = _Agent(f"t{i:03d}", tree, seed * 10007 + i,
                               floor=nodes // 2)
                with tr.span("federation.onboard"):
                    summary = service.onboard(agent.name, tree)
                with tr.span("core.incremental.init"):
                    agent.solver = IncrementalSolver(tree)
                with tr.span("core.incremental.solve"):
                    result = agent.solver.solve()
                with tr.span("core.allocation"):
                    allocation = from_bw_first(result)
                with tr.span("schedule.incremental_build"):
                    agent.solver.schedule_builder().build(allocation)
                with tr.span("harness.check"):
                    tr.check(Fraction(summary["throughput"])
                             == result.throughput,
                             f"onboard {agent.name}: shard != agent")
                agents.append(agent)
        except BaseException:
            service.stop()
            raise
        return {"service": service, "agents": agents, "round": 0}

    def block(self, state: dict, tr, index: int) -> None:
        service, agents = state["service"], state["agents"]
        batches = {}
        for agent in agents:
            batches[agent.name] = ops = agent.draw_ops()
            service.mutate(agent.name, *ops)
        with tr.op() as flushed, tr.span("federation.flush", op=f"r{index}"):
            served = {r["tenant"]: r for r in service.flush()}
        record_op(tr, flushed, busy=True)
        tr.count("federation.mutations", OPS_PER_BATCH * len(agents))
        tr.count("federation.resolves", len(served))
        sampled = agents[index % len(agents)]
        for agent in agents:
            op = f"r{index}.{agent.name}"
            solver = agent.solver
            builder = solver.schedule_builder()
            with tr.op() as own:
                with tr.span("core.incremental.mutate", op):
                    for mutation in batches[agent.name]:
                        agent.apply(mutation)
                with tr.span("core.incremental.solve", op):
                    result = solver.solve()
                with tr.span("runtime.negotiate", op):
                    negotiated = negotiate(result.tree, "inproc",
                                           verify=False)
                with tr.span("core.allocation", op):
                    allocation = from_bw_first(result)
                with tr.span("schedule.incremental_build", op):
                    periods, schedules = builder.build(allocation)
                with tr.span("schedule.global_period", op):
                    period = global_period(periods)
            record_op(tr, own, busy=True)
            record_op(tr, flushed, own, sample=True)
            tr.count("core.incremental.batches")
            tr.count("core.incremental.node_evals", solver.last_evals)
            tr.count("schedule.fragments_recomputed", builder.last_recomputed)
            tr.count("schedule.fragments_spliced", builder.last_spliced)
            tr.count("runtime.messages", negotiated.messages)
            tr.count("runtime.retransmissions", negotiated.retransmissions)
            with tr.span("harness.check", op):
                shard = served.get(agent.name)
                tr.check(shard is not None
                         and shard["throughput"] == result.throughput
                         and negotiated.throughput == result.throughput,
                         f"{op}: shard / negotiated / agent throughput differ")
            if agent is sampled:
                self._simulate(tr, op, result, allocation, schedules,
                               periods, period)

    @staticmethod
    def _simulate(tr, op, result, allocation, schedules, periods, period):
        with tr.span("sim.verify", op):
            with tr.span("sim.build", op):
                sim = Simulation(result.tree, dict(schedules), dict(periods),
                                 horizon=Fraction(SIM_PERIODS * period),
                                 kernel="array",
                                 record_segments=False, record_buffers=False)
            with tr.span("sim.run", op):
                outcome = sim.run()
            tr.count("sim.events", sim.engine.processed)
            tr.count("sim.tasks_completed", outcome.completed)
            with tr.span("harness.check", op):
                rate = measured_rate(outcome.trace, (SIM_PERIODS - 1) * period,
                                     SIM_PERIODS * period)
                tr.check(rate == allocation.throughput,
                         f"{op}: simulated rate {rate} != optimum "
                         f"{allocation.throughput}")

    def finish(self, state: dict, tr) -> None:
        service = state["service"]
        lookups = misses = evictions = 0
        for agent in state["agents"]:
            with tr.span("federation.result"):
                payload = service.result(agent.name)
            with tr.span("harness.check"):
                tr.check(agent.solver.tree == agent.mirror,
                         f"{agent.name}: agent tree != replayed tree")
                tr.check(matches_reference(payload, bw_first(agent.mirror)),
                         f"{agent.name}: served solution != bw_first")
            info = agent.solver.cache_info()
            lookups += info["lookups"]
            misses += info["misses"]
            evictions += info["evictions"]
        tr.totals["core.incremental.lookups"] = lookups
        tr.totals["core.incremental.misses"] = misses
        tr.totals["core.incremental.evictions"] = evictions
        state["final"] = service.stop()
        stats = state["final"]
        memo = stats.get("memo") or {}
        tr.totals["federation.flushes"] = stats["service"]["flushes"]
        tr.totals["federation.respawns"] = stats["service"]["respawns"]
        tr.totals["federation.template_clones"] = sum(
            s.get("template_clones", 0) for s in stats["shards"].values())
        tr.totals["federation.cross_tenant_hits"] = memo.get(
            "cross_tenant_hits", 0)
        tr.totals["federation.memo_hits"] = memo.get("hits", 0)
        tr.totals["federation.memo_misses"] = memo.get("misses", 0)

    def teardown(self, state: dict) -> None:
        if "final" not in state:
            state["final"] = state["service"].stop()
