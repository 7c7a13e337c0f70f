"""E11 (Section 9): the result-return counterexample.

The paper's final contribution: merging the result-return time into the
task-send time is wrong once the master's *receive port* is modelled.  On
the 3-node platform (w=1, send 0.5, return 0.5):

* the true two-port optimum is **2 tasks per time unit** (LP, exact), and
  the general two-port executor achieves it in execution;
* the merged model yields only **1** through the bandwidth-centric
  machinery.
"""

from fractions import Fraction

from repro.analysis import measured_rate
from repro.core.lp import lp_throughput_exact
from repro.extensions.result_return import (
    return_lp_throughput,
    section9_counterexample,
    uniform_return_platform,
)
from repro.extensions.return_sim import simulate_with_returns
from repro.platform.examples import paper_figure4_tree, section9_platform
from repro.util.text import render_table

from .conftest import emit

F = Fraction


def test_counterexample(benchmark):
    report = benchmark(section9_counterexample)
    assert report.separate_ports == 2
    assert report.merged_model == 1
    emit("E11: Section 9 counterexample",
         render_table(
             ["model", "throughput"],
             [["separate ports (correct)", "2"],
              ["merged send+return (Beaumont/Kreaseck)", "1"]],
         ))


def test_execution_achieves_two(benchmark):
    platform = uniform_return_platform(section9_platform())
    result = benchmark.pedantic(
        simulate_with_returns, args=(platform,), kwargs={"horizon": 60},
        rounds=1, iterations=1,
    )
    assert measured_rate(result.trace, F(30), F(60)) == 2


def test_general_tree_execution_vs_lp(paper_tree):
    """The demand-driven two-port executor approaches the LP optimum.

    Neither send-port policy dominates (patience wins with tiny results,
    impatience with large ones — see `examples/result_return.py`), so the
    better of the two is compared against the LP bound.
    """
    platform = uniform_return_platform(paper_tree, ratio=1)
    lp = return_lp_throughput(platform)
    rates = {}
    for patient in (True, False):
        result = simulate_with_returns(platform, horizon=400, patient=patient)
        rates[patient] = measured_rate(result.trace, F(200), F(400))
        assert rates[patient] <= lp
    best = max(rates.values())
    assert best >= lp * F(8, 10)
    emit("E11: general-tree execution with returns",
         f"LP optimum {float(lp):.4f}; demand-driven execution "
         f"patient {float(rates[True]):.4f} / impatient "
         f"{float(rates[False]):.4f} (best {float(best / lp):.1%} of optimal)")


def test_return_costs_on_the_example_tree():
    """Sweep the return/send ratio on the Figure 4 tree."""
    tree = paper_figure4_tree()
    plain = lp_throughput_exact(tree)
    rows = []
    last = None
    for ratio in (F(1, 100), F(1, 10), F(1, 2), F(1), F(2)):
        thr = return_lp_throughput(uniform_return_platform(tree, ratio=ratio))
        assert thr <= plain
        if last is not None:
            assert thr <= last  # monotone in the return cost
        last = thr
        rows.append([str(ratio), str(thr), f"{float(thr):.4f}"])
    emit(f"E11: throughput vs return-cost ratio (no-return optimum {plain})",
         render_table(["d/c ratio", "throughput", "float"], rows))
