"""Local scheduling policies: ordering the tasks inside a bunch (Section 6.3).

The event-driven schedule fixes *how many* tasks out of each bunch of
``Ψ = Σ ψ_i`` go to each destination (the node itself, or one of its
children); a *local schedule* fixes the **order**.  All orders achieve the
same steady-state throughput, but they differ in buffer usage and in the
length of the start-up and wind-down phases.

The paper's strategy (Figure 3) interleaves destinations proportionally:
for each destination with quantity ``ψ``, place marks at positions
``k·Δ`` for ``k = 1..ψ`` with ``Δ = 1/(ψ+1)`` on the unit interval, then
read all marks left to right.  Ties are broken by smaller ``ψ`` first, then
smaller priority index.  For ``ψ = (P0:1, P1:2, P2:4)`` this yields
``P2 P1 P2 P0 P2 P1 P2`` — the paper's example.

Alternative policies (:func:`block_order`, :func:`round_robin_order`,
:func:`random_order`) exist for the ablation experiment E10.
"""

from __future__ import annotations

import math
import random
from typing import Hashable, List, Mapping, Sequence, Tuple

from ..exceptions import ScheduleError

#: A local-schedule policy maps ``(quantities, priority)`` to an order.
#: ``quantities`` maps destination → ψ count; ``priority`` lists the
#: destinations in index order (self first, then children).


def _validated(quantities: Mapping[Hashable, int],
               priority: Sequence[Hashable]) -> List[Hashable]:
    order = list(priority)
    if set(order) != set(quantities):
        raise ScheduleError("priority list must contain exactly the destinations")
    if len(set(order)) != len(order):
        raise ScheduleError("priority list has duplicates")
    for dest, count in quantities.items():
        if count < 0:
            raise ScheduleError(f"negative quantity {count} for {dest!r}")
    return order


def interleaved_order(
    quantities: Mapping[Hashable, int],
    priority: Sequence[Hashable],
) -> Tuple[Hashable, ...]:
    """The paper's proportional interleaving (Figure 3).

    Destination ``d`` with quantity ``ψ_d`` contributes marks at positions
    ``k/(ψ_d+1)``, ``k = 1..ψ_d``.  Marks are sorted by position; equal
    positions are won by the destination with the smaller ``ψ``, then by the
    smaller index in *priority* (the node itself conventionally first).
    """
    order = _validated(quantities, priority)
    active = [(quantities[dest], i) for i, dest in enumerate(order)
              if quantities[dest]]
    # Positions k/(ψ+1) compared exactly as the integers k·L/(ψ+1) over the
    # common denominator L = lcm{ψ+1}: plain int tuples sort without a
    # rational comparison per pair, and a float key would merge or swap
    # marks that differ by less than its rounding.
    common = math.lcm(*[count + 1 for count, _ in active])
    marks = [(k * step, count, i)
             for count, i in active
             for step in (common // (count + 1),)
             for k in range(1, count + 1)]
    marks.sort()
    return tuple([order[i] for _, _, i in marks])


def block_order(
    quantities: Mapping[Hashable, int],
    priority: Sequence[Hashable],
) -> Tuple[Hashable, ...]:
    """All tasks of each destination contiguously, in priority order.

    The naive "give the nodes all their tasks at once" order the paper's
    strategy is designed to beat: it maximises the burst a child must
    buffer.
    """
    order = _validated(quantities, priority)
    out: List[Hashable] = []
    for dest in order:
        out.extend([dest] * quantities[dest])
    return tuple(out)


def round_robin_order(
    quantities: Mapping[Hashable, int],
    priority: Sequence[Hashable],
) -> Tuple[Hashable, ...]:
    """One task per destination per round until quantities are exhausted.

    A reasonable-but-unweighted spreading: destinations with large ψ are
    under-served early and get a contiguous tail.
    """
    order = _validated(quantities, priority)
    remaining = dict(quantities)
    out: List[Hashable] = []
    while any(v > 0 for v in remaining.values()):
        for dest in order:
            if remaining[dest] > 0:
                out.append(dest)
                remaining[dest] -= 1
    return tuple(out)


def random_order(
    quantities: Mapping[Hashable, int],
    priority: Sequence[Hashable],
    seed: int = 0,
) -> Tuple[Hashable, ...]:
    """A seeded uniformly-random permutation of the bunch (ablation floor)."""
    order = _validated(quantities, priority)
    out: List[Hashable] = []
    for dest in order:
        out.extend([dest] * quantities[dest])
    rng = random.Random(seed)
    rng.shuffle(out)
    return tuple(out)


def is_palindromic(order) -> bool:
    """Whether a bunch order reads the same forwards and backwards.

    The paper remarks that "due to symmetrical reasons, the description of
    the local schedules can be divided by two": the interleave marks at
    ``k/(ψ+1)`` are mirror-symmetric around 1/2, so a *tie-free* interleaved
    order is a palindrome and only its first half need be stored (ties may
    break the symmetry, since tie clusters keep one fixed internal order).
    """
    order = tuple(order)
    return order == order[::-1]


def compressed_length(order) -> int:
    """Entries needed to store the order, exploiting palindromicity.

    ``⌈len/2⌉`` for a palindrome (the paper's "divided by two"), the full
    length otherwise.
    """
    n = len(tuple(order))
    return (n + 1) // 2 if is_palindromic(order) else n


#: Registry used by the CLI and the ablation bench.
POLICIES = {
    "interleaved": interleaved_order,
    "block": block_order,
    "round_robin": round_robin_order,
    "random": random_order,
}
